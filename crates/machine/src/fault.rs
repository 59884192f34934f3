//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes everything that can go wrong in a run: transient
//! message loss and corruption on the wire, timed NIC-degradation windows
//! (bandwidth cut over a virtual-time interval), and scheduled PE failures.
//! All randomness comes from per-PE xoshiro streams derived from the plan
//! seed, and every fault decision is drawn by the *issuing* PE in its own
//! program order — so the same seed and plan yield the same faults no matter
//! how the OS schedules the PE threads.
//!
//! The plan is pay-for-what-you-use: a machine without a plan (or with a
//! zero plan) carries no fault state at all, and every code path that
//! consults it is a single `Option` check.
//!
//! Failure model notes:
//! - *Drop*: the message never arrives; the sender detects this by timeout
//!   and retries. Charged as issuer-side virtual time only (no NIC
//!   occupancy — the model treats a lost message as lost at injection).
//! - *Corrupt*: the message arrives damaged and is rejected by the receiver
//!   (think link-level CRC); the effect on the sender is the same
//!   detect-and-retry cycle, but the two are counted separately. Data that
//!   eventually lands is always intact — we model detection, not silent
//!   corruption.
//! - *PE failure*: the PE is marked dead once its virtual clock reaches the
//!   scheduled instant. Dead PEs stop participating in barriers, and layers
//!   above map death onto Fortran 2018 `STAT_FAILED_IMAGE` semantics.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A bandwidth cut on one node's NIC over a virtual-time interval:
/// reservations that begin inside `[begin_ns, end_ns)` see their occupancy
/// divided by `bandwidth_factor` (e.g. `0.5` halves the effective bandwidth).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedWindow {
    pub node: usize,
    pub begin_ns: u64,
    pub end_ns: u64,
    /// Fraction of nominal bandwidth available, in `(0, 1]`.
    pub bandwidth_factor: f64,
}

/// A scheduled PE death: `pe` is marked failed once its virtual clock
/// reaches `at_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeFailure {
    pub pe: usize,
    pub at_ns: u64,
}

/// Retry discipline the conduit applies when an injected fault hits an
/// operation: exponential backoff with deterministic jitter, capped attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Give up (surface a `ConduitError`) after this many attempts.
    pub max_attempts: u32,
    /// Loss-detection timeout charged for the first failed attempt, ns.
    pub base_timeout_ns: f64,
    /// Ceiling on the per-attempt backoff delay, ns.
    pub max_backoff_ns: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 8, base_timeout_ns: 2_000.0, max_backoff_ns: 262_144.0 }
    }
}

/// A complete, seeded fault schedule for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-PE fault streams.
    pub seed: u64,
    /// Per-message-attempt probability of a transient drop, `[0, 1)`.
    pub drop_prob: f64,
    /// Per-message-attempt probability of detected corruption, `[0, 1)`.
    pub corrupt_prob: f64,
    /// Timed NIC bandwidth cuts.
    pub degraded: Vec<DegradedWindow>,
    /// Scheduled PE deaths.
    pub pe_failures: Vec<PeFailure>,
    /// Retry discipline for transient faults.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// A plan that injects nothing (useful to explicitly override an
    /// environment-selected plan: explicit config always wins).
    pub fn none() -> FaultPlan {
        FaultPlan::new(0)
    }

    /// An empty plan with the given seed; add faults with the builders.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            degraded: Vec::new(),
            pe_failures: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }

    /// Canned plan: transient drops at rate `p`, nothing else.
    pub fn transient_drops(seed: u64, p: f64) -> FaultPlan {
        FaultPlan::new(seed).with_drop_prob(p)
    }

    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    pub fn with_corrupt_prob(mut self, p: f64) -> Self {
        self.corrupt_prob = p;
        self
    }

    pub fn with_degraded_window(mut self, w: DegradedWindow) -> Self {
        self.degraded.push(w);
        self
    }

    pub fn with_pe_failure(mut self, pe: usize, at_ns: u64) -> Self {
        self.pe_failures.push(PeFailure { pe, at_ns });
        self
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Does this plan inject anything at all? A zero plan builds no fault
    /// state — bit-identical to running with no plan.
    pub fn is_zero(&self) -> bool {
        self.drop_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.degraded.is_empty()
            && self.pe_failures.is_empty()
    }

    /// Parse a canned plan name (the `PGAS_FAULT_PLAN` values). Trimmed,
    /// case-insensitive. `None` for unknown names.
    ///
    /// - `off` / `none`: the zero plan
    /// - `drop1`: 1% transient drops
    /// - `drop5`: 5% transient drops
    /// - `flaky`: 1% drops + 0.5% detected corruption
    pub fn parse(s: &str) -> Option<FaultPlan> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Some(FaultPlan::none()),
            "drop1" => Some(FaultPlan::transient_drops(0xFA01, 0.01)),
            "drop5" => Some(FaultPlan::transient_drops(0xFA05, 0.05)),
            "flaky" => Some(FaultPlan::transient_drops(0xF1A, 0.01).with_corrupt_prob(0.005)),
            _ => None,
        }
    }

    /// Validate against a machine shape.
    pub fn validate(&self, total_pes: usize, nodes: usize) -> Result<(), String> {
        for (name, p) in [("drop_prob", self.drop_prob), ("corrupt_prob", self.corrupt_prob)] {
            if !(0.0..1.0).contains(&p) {
                return Err(format!("fault plan {name} must be in [0, 1), got {p}"));
            }
        }
        if self.drop_prob + self.corrupt_prob >= 1.0 {
            return Err("combined fault probability must stay below 1".into());
        }
        for w in &self.degraded {
            if w.node >= nodes {
                return Err(format!("degraded window names node {} of {nodes}", w.node));
            }
            if !(w.bandwidth_factor > 0.0 && w.bandwidth_factor <= 1.0) {
                return Err(format!(
                    "degraded window bandwidth_factor must be in (0, 1], got {}",
                    w.bandwidth_factor
                ));
            }
            if w.begin_ns >= w.end_ns {
                return Err("degraded window must have begin_ns < end_ns".into());
            }
        }
        for f in &self.pe_failures {
            if f.pe >= total_pes {
                return Err(format!("pe failure names PE {} of {total_pes}", f.pe));
            }
        }
        if self.retry.max_attempts == 0 {
            return Err("retry policy needs at least one attempt".into());
        }
        if !self.retry.base_timeout_ns.is_finite() || self.retry.base_timeout_ns <= 0.0 {
            return Err("retry base_timeout_ns must be positive".into());
        }
        Ok(())
    }
}

/// What an injected transient fault did to a message attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message was lost in flight (sender times out).
    Drop,
    /// The message arrived damaged and was rejected (sender retries).
    Corrupt,
}

impl FaultKind {
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
        }
    }
}

// ---- runtime state ----------------------------------------------------------

/// Live fault state carried by a machine whose resolved plan is non-zero.
pub(crate) struct FaultState {
    plan: FaultPlan,
    /// Per-PE deterministic streams. Only the owning PE's thread draws from
    /// stream `pe`, so the mutexes are uncontended; they exist to keep the
    /// state `Sync`.
    rngs: Vec<Mutex<SmallRng>>,
    failed: Vec<AtomicBool>,
    /// Scheduled death instant per PE (`u64::MAX` = never).
    deadline: Vec<u64>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, n_pes: usize) -> FaultState {
        let mut deadline = vec![u64::MAX; n_pes];
        for f in &plan.pe_failures {
            deadline[f.pe] = deadline[f.pe].min(f.at_ns);
        }
        FaultState {
            rngs: (0..n_pes)
                .map(|pe| {
                    // Decorrelate per-PE streams from one shared seed.
                    let mut mix = plan.seed ^ (pe as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    mix ^= mix >> 33;
                    Mutex::new(SmallRng::seed_from_u64(mix))
                })
                .collect(),
            failed: (0..n_pes).map(|_| AtomicBool::new(false)).collect(),
            deadline,
            plan,
        }
    }

    /// Roll one message attempt by `pe`. One draw per attempt keeps the
    /// stream position a pure function of the PE's op sequence.
    pub(crate) fn draw(&self, pe: usize) -> Option<FaultKind> {
        let p = self.plan.drop_prob + self.plan.corrupt_prob;
        if p == 0.0 {
            return None;
        }
        let u: f64 = self.rngs[pe].lock().unwrap().gen();
        if u < self.plan.drop_prob {
            Some(FaultKind::Drop)
        } else if u < p {
            Some(FaultKind::Corrupt)
        } else {
            None
        }
    }

    /// Backoff delay for retry number `attempt` (1-based): exponential in
    /// the attempt index, deterministic jitter from the PE's stream, capped.
    pub(crate) fn backoff_ns(&self, pe: usize, attempt: u32) -> u64 {
        let base = self.plan.retry.base_timeout_ns;
        let exp = base * (1u64 << (attempt - 1).min(20)) as f64;
        let capped = exp.min(self.plan.retry.max_backoff_ns);
        let jitter: f64 = self.rngs[pe].lock().unwrap().gen_range(0.0..0.5);
        (capped * (1.0 + jitter)).round() as u64
    }

    /// Bandwidth factor for a reservation on `node` beginning at `t_ns`
    /// (1.0 when no window applies).
    pub(crate) fn bandwidth_factor(&self, node: usize, t_ns: u64) -> f64 {
        let mut f = 1.0f64;
        for w in &self.plan.degraded {
            if w.node == node && (w.begin_ns..w.end_ns).contains(&t_ns) {
                f = f.min(w.bandwidth_factor);
            }
        }
        f
    }

    pub(crate) fn deadline(&self, pe: usize) -> u64 {
        self.deadline[pe]
    }

    pub(crate) fn is_failed(&self, pe: usize) -> bool {
        self.failed[pe].load(Ordering::Acquire)
    }

    /// Mark `pe` dead; true only for the first caller.
    pub(crate) fn mark_failed(&self, pe: usize) -> bool {
        !self.failed[pe].swap(true, Ordering::AcqRel)
    }

    pub(crate) fn failed_list(&self) -> Vec<usize> {
        (0..self.failed.len()).filter(|&p| self.is_failed(p)).collect()
    }

    pub(crate) fn any_failed(&self) -> bool {
        self.failed.iter().any(|f| f.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_zero() {
        assert!(FaultPlan::none().is_zero());
        assert!(FaultPlan::new(42).is_zero());
        assert!(!FaultPlan::transient_drops(1, 0.01).is_zero());
        assert!(!FaultPlan::new(1).with_pe_failure(0, 100).is_zero());
        assert!(!FaultPlan::new(1)
            .with_degraded_window(DegradedWindow {
                node: 0,
                begin_ns: 0,
                end_ns: 10,
                bandwidth_factor: 0.5
            })
            .is_zero());
    }

    #[test]
    fn canned_names_parse() {
        assert!(FaultPlan::parse("off").unwrap().is_zero());
        assert!(FaultPlan::parse(" None\n").unwrap().is_zero());
        assert_eq!(FaultPlan::parse("drop1").unwrap().drop_prob, 0.01);
        assert_eq!(FaultPlan::parse("DROP5").unwrap().drop_prob, 0.05);
        let flaky = FaultPlan::parse("flaky").unwrap();
        assert_eq!(flaky.corrupt_prob, 0.005);
        assert!(FaultPlan::parse("chaos-monkey").is_none());
        assert!(FaultPlan::parse("").is_none());
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan::transient_drops(1, 1.5).validate(4, 1).is_err());
        assert!(FaultPlan::new(1).with_pe_failure(9, 5).validate(4, 1).is_err());
        assert!(FaultPlan::new(1)
            .with_degraded_window(DegradedWindow {
                node: 3,
                begin_ns: 0,
                end_ns: 1,
                bandwidth_factor: 0.5
            })
            .validate(4, 1)
            .is_err());
        assert!(FaultPlan::new(1)
            .with_degraded_window(DegradedWindow {
                node: 0,
                begin_ns: 5,
                end_ns: 5,
                bandwidth_factor: 0.5
            })
            .validate(4, 1)
            .is_err());
        let mut p = FaultPlan::transient_drops(1, 0.01);
        p.retry.max_attempts = 0;
        assert!(p.validate(4, 1).is_err());
        assert!(FaultPlan::parse("flaky").unwrap().validate(4, 2).is_ok());
    }

    #[test]
    fn draws_are_deterministic_per_seed_and_pe() {
        let a = FaultState::new(FaultPlan::transient_drops(7, 0.3), 4);
        let b = FaultState::new(FaultPlan::transient_drops(7, 0.3), 4);
        for pe in 0..4 {
            for _ in 0..256 {
                assert_eq!(a.draw(pe), b.draw(pe));
            }
        }
        // Different PEs see decorrelated streams.
        let c = FaultState::new(FaultPlan::transient_drops(7, 0.3), 2);
        let seq0: Vec<_> = (0..64).map(|_| c.draw(0).is_some()).collect();
        let seq1: Vec<_> = (0..64).map(|_| c.draw(1).is_some()).collect();
        assert_ne!(seq0, seq1);
    }

    #[test]
    fn backoff_grows_and_caps() {
        let fs = FaultState::new(FaultPlan::transient_drops(3, 0.5), 1);
        let d1 = fs.backoff_ns(0, 1);
        let d5 = fs.backoff_ns(0, 5);
        assert!(d1 >= 2_000, "first delay includes the base timeout: {d1}");
        assert!(d5 > d1, "backoff grows: {d5} vs {d1}");
        // Far beyond the cap the delay saturates at max_backoff * 1.5.
        let d30 = fs.backoff_ns(0, 30);
        assert!(d30 as f64 <= 262_144.0 * 1.5 + 1.0, "capped: {d30}");
    }

    #[test]
    fn degradation_windows_select_by_node_and_time() {
        let plan = FaultPlan::new(1).with_degraded_window(DegradedWindow {
            node: 1,
            begin_ns: 100,
            end_ns: 200,
            bandwidth_factor: 0.25,
        });
        let fs = FaultState::new(plan, 4);
        assert_eq!(fs.bandwidth_factor(0, 150), 1.0);
        assert_eq!(fs.bandwidth_factor(1, 99), 1.0);
        assert_eq!(fs.bandwidth_factor(1, 100), 0.25);
        assert_eq!(fs.bandwidth_factor(1, 199), 0.25);
        assert_eq!(fs.bandwidth_factor(1, 200), 1.0);
    }

    #[test]
    fn failure_marking_is_once() {
        let fs = FaultState::new(FaultPlan::new(1).with_pe_failure(2, 500), 4);
        assert_eq!(fs.deadline(2), 500);
        assert_eq!(fs.deadline(0), u64::MAX);
        assert!(!fs.is_failed(2));
        assert!(fs.mark_failed(2));
        assert!(!fs.mark_failed(2), "second mark is a no-op");
        assert!(fs.is_failed(2));
        assert_eq!(fs.failed_list(), vec![2]);
        assert!(fs.any_failed());
    }
}
