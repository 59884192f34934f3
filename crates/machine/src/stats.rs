//! Machine-wide operation counters.
//!
//! The counters are deliberately coarse: they exist so benchmarks and tests
//! can assert *how* a result was achieved (e.g. "the 2dim_strided algorithm
//! issued 1000 messages where the naive one issued 50000"), not to be a
//! profiler.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One strided-plan selection made by the caf planner, recorded so
/// EXPERIMENTS figures can contrast predicted against measured costs and
/// show mispredictions.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDecision {
    /// PE that made the decision.
    pub pe: usize,
    /// Label of the chosen plan ("runs", "dim1", "packed", ...).
    pub chosen: String,
    /// The planner's predicted cost for the chosen plan, ns.
    pub predicted_ns: f64,
    /// Every candidate the planner costed, as (plan label, predicted ns).
    pub candidates: Vec<(String, f64)>,
}

/// One injected fault (or retry-budget exhaustion, or PE death) as observed
/// by the layer that handled it — the fault-side analogue of
/// [`PlanDecision`], surfaced on `SimOutcome::fault_events`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// PE whose operation was hit (or the PE that died).
    pub pe: usize,
    /// Operation label ("put", "get", "amo", ... or "pe-failure").
    pub op: &'static str,
    /// Communication target of the faulted operation (== `pe` for deaths).
    pub target: usize,
    /// What happened: "drop", "corrupt", "exhausted", "pe-failure".
    pub kind: &'static str,
    /// Attempt number that faulted (1-based; 0 for deaths).
    pub attempt: u32,
    /// Virtual time charged for detection + backoff, ns.
    pub delay_ns: u64,
    /// Issuer's virtual clock when the fault was observed, ns.
    pub at_ns: u64,
}

/// Live counters, incremented by the communication layers.
#[derive(Debug, Default)]
pub struct Stats {
    pub puts: AtomicU64,
    pub gets: AtomicU64,
    pub amos: AtomicU64,
    /// Active messages executed at a target (see `pgas-conduit`'s AM layer).
    pub ams: AtomicU64,
    pub bytes_put: AtomicU64,
    pub bytes_get: AtomicU64,
    pub barriers: AtomicU64,
    pub quiets: AtomicU64,
    pub fences: AtomicU64,
    pub collectives: AtomicU64,
    /// Ordering hazards flagged by the conduit's consistency checker.
    pub hazards: AtomicU64,
    /// Cross-PE data races flagged by the machine's sanitizer
    /// (see `crate::sanitizer`).
    pub races: AtomicU64,
    /// Transfers that used a direct load/store fast path (`shmem_ptr`).
    pub local_fastpath: AtomicU64,
    /// Strided-plan decisions recorded (see [`PlanDecision`]).
    pub plans: AtomicU64,
    /// Lock-table entries still held when an image was torn down.
    pub lock_leaks: AtomicU64,
    /// Transient faults injected into message attempts (drops + corruptions).
    pub faults_injected: AtomicU64,
    /// Retry attempts performed after an injected fault.
    pub retries: AtomicU64,
    /// Operations that exhausted their retry budget.
    pub retries_exhausted: AtomicU64,
    /// PEs marked dead by a scheduled failure.
    pub pe_failures: AtomicU64,
    /// MCS locks whose dead holder was evicted by a waiting PE.
    pub lock_repairs: AtomicU64,
    /// Corrupted payloads detected by end-to-end CRC verification (each one
    /// is also an injected fault and, on retry, a retry).
    pub payload_corrupt: AtomicU64,
    plan_log: Mutex<Vec<PlanDecision>>,
    fault_log: Mutex<Vec<FaultEvent>>,
}

impl Stats {
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            puts: self.puts.load(Ordering::Relaxed),
            gets: self.gets.load(Ordering::Relaxed),
            amos: self.amos.load(Ordering::Relaxed),
            ams: self.ams.load(Ordering::Relaxed),
            bytes_put: self.bytes_put.load(Ordering::Relaxed),
            bytes_get: self.bytes_get.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
            quiets: self.quiets.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            collectives: self.collectives.load(Ordering::Relaxed),
            hazards: self.hazards.load(Ordering::Relaxed),
            races: self.races.load(Ordering::Relaxed),
            local_fastpath: self.local_fastpath.load(Ordering::Relaxed),
            plans: self.plans.load(Ordering::Relaxed),
            lock_leaks: self.lock_leaks.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            retries_exhausted: self.retries_exhausted.load(Ordering::Relaxed),
            pe_failures: self.pe_failures.load(Ordering::Relaxed),
            lock_repairs: self.lock_repairs.load(Ordering::Relaxed),
            payload_corrupt: self.payload_corrupt.load(Ordering::Relaxed),
        }
    }

    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Append a strided-plan decision to the log and bump the counter.
    pub fn record_plan(&self, decision: PlanDecision) {
        Stats::bump(&self.plans);
        self.plan_log.lock().unwrap().push(decision);
    }

    /// Take the accumulated plan decisions, leaving the log empty (the
    /// counter keeps its total). Called once when a simulation finishes.
    pub fn drain_plans(&self) -> Vec<PlanDecision> {
        std::mem::take(&mut *self.plan_log.lock().unwrap())
    }

    /// Append a fault event to the log (the caller bumps whichever counters
    /// apply — drops and deaths count differently).
    pub fn record_fault(&self, event: FaultEvent) {
        self.fault_log.lock().unwrap().push(event);
    }

    /// Take the accumulated fault events, leaving the log empty. Called once
    /// when a simulation finishes.
    pub fn drain_faults(&self) -> Vec<FaultEvent> {
        std::mem::take(&mut *self.fault_log.lock().unwrap())
    }
}

/// Frozen copy of [`Stats`] returned with a simulation outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub puts: u64,
    pub gets: u64,
    pub amos: u64,
    /// Active messages executed at a target.
    pub ams: u64,
    pub bytes_put: u64,
    pub bytes_get: u64,
    pub barriers: u64,
    pub quiets: u64,
    pub fences: u64,
    pub collectives: u64,
    pub hazards: u64,
    pub races: u64,
    pub local_fastpath: u64,
    pub plans: u64,
    pub lock_leaks: u64,
    pub faults_injected: u64,
    pub retries: u64,
    pub retries_exhausted: u64,
    pub pe_failures: u64,
    pub lock_repairs: u64,
    /// Corrupted payloads detected by end-to-end CRC verification.
    pub payload_corrupt: u64,
}

impl StatsSnapshot {
    /// Total one-sided data operations.
    pub fn rma_ops(&self) -> u64 {
        self.puts + self.gets
    }

    /// Total payload bytes moved by one-sided data operations.
    pub fn rma_bytes(&self) -> u64 {
        self.bytes_put + self.bytes_get
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_increments() {
        let s = Stats::default();
        Stats::bump(&s.puts);
        Stats::bump(&s.puts);
        Stats::add(&s.bytes_put, 128);
        Stats::bump(&s.gets);
        Stats::add(&s.bytes_get, 64);
        Stats::bump(&s.hazards);
        let snap = s.snapshot();
        assert_eq!(snap.puts, 2);
        assert_eq!(snap.gets, 1);
        assert_eq!(snap.rma_ops(), 3);
        assert_eq!(snap.rma_bytes(), 192);
        assert_eq!(snap.hazards, 1);
    }

    #[test]
    fn default_snapshot_is_zero() {
        assert_eq!(Stats::default().snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn fault_log_drains_once() {
        let s = Stats::default();
        s.record_fault(FaultEvent {
            pe: 1,
            op: "put",
            target: 3,
            kind: "drop",
            attempt: 1,
            delay_ns: 2500,
            at_ns: 100,
        });
        s.record_fault(FaultEvent {
            pe: 2,
            op: "pe-failure",
            target: 2,
            kind: "pe-failure",
            attempt: 0,
            delay_ns: 0,
            at_ns: 900,
        });
        let drained = s.drain_faults();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].kind, "drop");
        assert_eq!(drained[1].op, "pe-failure");
        assert!(s.drain_faults().is_empty(), "second drain sees an empty log");
    }

    #[test]
    fn plan_log_drains_once_and_counts_forever() {
        let s = Stats::default();
        s.record_plan(PlanDecision {
            pe: 0,
            chosen: "dim1".into(),
            predicted_ns: 1200.0,
            candidates: vec![("runs".into(), 2000.0), ("dim1".into(), 1200.0)],
        });
        s.record_plan(PlanDecision {
            pe: 1,
            chosen: "runs".into(),
            predicted_ns: 900.0,
            candidates: vec![("runs".into(), 900.0)],
        });
        let drained = s.drain_plans();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].chosen, "dim1");
        assert_eq!(drained[1].pe, 1);
        assert!(s.drain_plans().is_empty(), "second drain sees an empty log");
        assert_eq!(s.snapshot().plans, 2, "counter survives the drain");
    }
}
