//! Strided plan selection behind a first-class API (paper §VII).
//!
//! PR 1 grew an adaptive planner — a free function whose per-call/per-byte
//! coefficients are a *heuristic mirror* of the simulator's cost model. That
//! mirror drifts whenever `conduit/cost.rs` or a platform preset changes.
//! This module redesigns plan selection around a [`StridedPlanner`] trait
//! with two implementations:
//!
//! * [`HeuristicPlanner`] — the PR 1 logic, preserved byte-for-byte. Fast,
//!   conduit-aware, but hard-coded.
//! * [`TunedPlanner`] — calibrates its coefficients by running micro-probe
//!   transfers through the real [`CostModel`] (via the pure `*_estimate`
//!   entry points, which reserve no NIC time) and scores candidate plans
//!   with the fitted [`Coefficients`]. Fits are memoised process-wide per
//!   (platform, profile) and can be persisted as JSON (`PGAS_PLANNER_CACHE`)
//!   so repeated runs skip calibration entirely.
//!
//! Every planner decision (chosen plan, predicted cost, all candidate costs)
//! is recorded in the machine's [`Stats`](pgas_machine::stats::Stats) by the
//! transfer layer, so EXPERIMENTS figures can contrast predictions against
//! measured virtual time and show mispredictions.

use crate::section::Section;
use crate::strided::Plan;
use openshmem::Shmem;
use pgas_conduit::{AmoSupport, CostModel};
use pgas_machine::config::MachineConfig;
use pgas_machine::json::{self, Json};
use pgas_machine::MetricsSnapshot;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Cache-line size assumed by the locality term of the heuristic planner.
const CACHE_LINE: f64 = 64.0;

/// Which way a section transfer moves data. Plan costs are not symmetric:
/// a get pays the request round trip (`get_issue + control message + 2
/// latencies`) on *every* call, so call-heavy plans hurt roughly twice as
/// much as on the put side, and no conduit in the matrix has a get-side
/// rendezvous cliff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferDir {
    #[default]
    Put,
    Get,
}

/// A planner's verdict on one section transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChoice {
    /// The plan to execute.
    pub plan: Plan,
    /// The planner's predicted cost of `plan`, ns.
    pub predicted_ns: f64,
    /// Every candidate the planner costed, in scoring order.
    pub candidates: Vec<(Plan, f64)>,
}

/// Strategy interface for choosing how to move a strided section.
///
/// Implementations must be pure with respect to the simulation: scoring a
/// plan may read the machine and profile but must not advance clocks or
/// reserve NIC time.
pub trait StridedPlanner {
    /// Short name recorded with each decision ("heuristic", "tuned").
    fn name(&self) -> &'static str;

    /// Choose a plan for transferring `sec` of an array of `shape` (elements
    /// of `elem` bytes) between the calling PE and `target_pe`, in direction
    /// `dir` (a put writes the section, a get reads it back).
    #[allow(clippy::too_many_arguments)]
    fn plan(
        &self,
        shmem: &Shmem<'_>,
        target_pe: usize,
        sec: &Section,
        shape: &[usize],
        elem: usize,
        dir: TransferDir,
    ) -> PlanChoice;
}

fn pick_best(candidates: Vec<(Plan, f64)>) -> PlanChoice {
    // First-listed wins ties: candidates are scored in the same order the
    // PR 1 heuristic tried them, and replacement is strict `<`.
    let mut best = candidates[0];
    for &c in &candidates[1..] {
        if c.1 < best.1 {
            best = c;
        }
    }
    PlanChoice { plan: best.0, predicted_ns: best.1, candidates }
}

/// The PR 1 adaptive cost heuristic, unchanged: per-call overhead,
/// payload bandwidth, the conduit's `iput` capability, and target-side
/// locality (elements whose stride spans many cache lines are charged a
/// penalty). Ignores `target_pe` — the heuristic prices every target as a
/// remote inter-node peer — and ignores `dir`, pricing gets with the same
/// put coefficients; both are exactly the drift the tuned planner exists
/// to fix.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeuristicPlanner;

impl StridedPlanner for HeuristicPlanner {
    fn name(&self) -> &'static str {
        "heuristic"
    }

    fn plan(
        &self,
        shmem: &Shmem<'_>,
        _target_pe: usize,
        sec: &Section,
        shape: &[usize],
        elem: usize,
        _dir: TransferDir,
    ) -> PlanChoice {
        use pgas_conduit::StridedSupport;
        let profile = shmem.profile();
        let wire = &shmem.machine().config().wire;
        let per_call = profile.put_issue_ns + wire.nic_msg_overhead_ns + profile.msg_occupancy_ns;
        let per_byte = 1.0 / (wire.inter.bytes_per_ns * profile.bandwidth_efficiency);
        let total = sec.total() as f64;
        let total_bytes = total * elem as f64;
        let payload = total_bytes * per_byte;

        let locality_penalty = |stride_elems: usize| -> f64 {
            let stride_bytes = (stride_elems * elem) as f64;
            if stride_bytes <= CACHE_LINE {
                0.0
            } else {
                // Each element lands on its own cache line; deeper strides
                // cost progressively more of the target's memory system.
                8.0 * (stride_bytes / CACHE_LINE).log2()
            }
        };

        // Plan A: contiguous runs.
        let n_runs = crate::strided::plan_call_count(Plan::Runs, sec) as f64;
        let mut candidates = vec![(Plan::Runs, n_runs * per_call + payload)];

        // Plan B: one 1-D strided call per pencil along each candidate
        // dimension. Costed on *every* profile so the candidate set covers
        // every non-adaptive arm of `plan_of` (Naive/OneDim/TwoDim/
        // BestOfAll): on native-iput conduits a pencil is one NIC
        // descriptor; on emulated-iput conduits (MVAPICH2-X) the library
        // loops, issuing one putmem per element — the modeled Cray-compiler
        // behaviour — so every element pays the full per-call overhead and
        // the pencil structure buys nothing. The strict `<` in `pick_best`
        // then guarantees the planner never prefers such a loop over `Runs`
        // (which issues at most as many calls), i.e. the planner is never
        // worse than Naive or TwoDim.
        for d in 0..sec.rank() {
            let pencils = (sec.total() / sec.dims()[d].count) as f64;
            let cost = match profile.strided {
                StridedSupport::Native { per_elem_ns } => {
                    pencils * per_call
                        + payload
                        + total * (per_elem_ns + locality_penalty(sec.array_stride(shape, d)))
                }
                StridedSupport::LoopContiguous => total * per_call + payload,
            };
            candidates.push((Plan::BaseDim(d), cost));
        }

        // Plan C: AM packing — only where an active-message layer exists
        // (GASNet); SHMEM conduits have no handler to unpack at the target.
        if matches!(profile.amo, AmoSupport::AmEmulated { .. }) {
            let cost = per_call
                + payload
                + profile.am_handler_ns
                + total * 2.0 * shmem.machine().config().compute.local_op_ns;
            candidates.push((Plan::Packed, cost));
        }
        pick_best(candidates)
    }
}

/// Fitted cost coefficients for one (source node, target node) relationship
/// — one fit for same-node peers, one for remote peers.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFit {
    /// Fixed cost of one contiguous put, ns.
    pub put_call_ns: f64,
    /// Marginal cost per payload byte, ns.
    pub put_byte_ns: f64,
    /// Extra latency until remote completion (what `quiet` waits for beyond
    /// the last local completion), ns.
    pub tail_ns: f64,
    /// Rendezvous cliff, if the link has one: payloads strictly larger than
    /// `.0` bytes pay an extra `.1` ns handshake.
    pub rendezvous: Option<(usize, f64)>,
    /// Native 1-D `iput` cost as (per-call, per-byte, per-element) ns;
    /// `None` when the conduit loops over contiguous puts in software.
    pub iput: Option<(f64, f64, f64)>,
    /// AM-packed unpack cost as (per-message handler, per-element) ns;
    /// `None` where no active-message layer exists.
    pub am: Option<(f64, f64)>,
    /// Fixed cost of one blocking get, ns. Carries the request round trip
    /// (issue + control message + two wire latencies), so it is much larger
    /// than `put_call_ns` on every inter-node link — the reason a
    /// direction-blind planner underprices call-heavy get plans.
    pub get_call_ns: f64,
    /// Marginal cost per fetched byte, ns. No conduit in the matrix has a
    /// get-side rendezvous cliff, so the fit is a clean line.
    pub get_byte_ns: f64,
    /// Native 1-D `iget` cost as (per-call, per-byte, per-element) ns;
    /// `None` when the conduit loops over contiguous gets in software.
    pub iget: Option<(f64, f64, f64)>,
    /// AM-packed gather cost as (per-message handler, per-element) ns.
    pub am_get: Option<(f64, f64)>,
}

/// Residual above which a probe is considered to have crossed the
/// rendezvous cliff. Rounding noise is < 2 ns; a real rendezvous handshake
/// is at least two wire latencies (thousands of ns on every preset).
const RDV_TOLERANCE_NS: f64 = 16.0;

impl LinkFit {
    /// Fit one link by probing the cost model's pure estimators between
    /// `src` and `dst`.
    fn probe(cost: &CostModel<'_>, src: usize, dst: usize) -> LinkFit {
        let local = |bytes: usize| cost.put_estimate(src, dst, bytes).local_complete as f64;

        // Bandwidth slope from two huge probes: both sit above any real
        // rendezvous threshold (or below a usize::MAX one), so the constant
        // handshake term cancels.
        let big = 64 * 1024 * 1024;
        let slope = (local(2 * big) - local(big)) / big as f64;
        // An 8-byte probe sits below every threshold: intercept is clean.
        let small = cost.put_estimate(src, dst, 8);
        let put_call_ns = small.local_complete as f64 - 8.0 * slope;
        let tail_ns = (small.remote_complete - small.local_complete) as f64;

        // Rendezvous cliff: scan a size ladder for the first probe whose
        // residual over the linear fit exceeds tolerance, then bisect to
        // recover the exact strict-`>` threshold.
        let residual = |bytes: usize| local(bytes) - (put_call_ns + bytes as f64 * slope);
        let mut rendezvous = None;
        let mut prev = 8usize;
        for rung in [64, 512, 4 * 1024, 32 * 1024, 256 * 1024, 2 * 1024 * 1024] {
            if residual(rung) > RDV_TOLERANCE_NS {
                let (mut lo, mut hi) = (prev, rung);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if residual(mid) > RDV_TOLERANCE_NS {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                rendezvous = Some((lo, residual(hi)));
                break;
            }
            prev = rung;
        }

        // Native iput: three probes solve the (per-call, per-byte,
        // per-element) model exactly.
        let iput = cost.strided_put_estimate(src, dst, 8, 8).map(|c1| {
            let c1 = c1.local_complete as f64;
            let c2 = cost.strided_put_estimate(src, dst, 256, 8).unwrap().local_complete as f64;
            let c3 = cost.strided_put_estimate(src, dst, 8, 64).unwrap().local_complete as f64;
            // c(n, e) = call + n*e*byte + n*elem:
            //   c1 = call +   64*byte +   8*elem
            //   c2 = call + 2048*byte + 256*elem
            //   c3 = call +  512*byte +   8*elem
            let byte = (c3 - c1) / 448.0;
            let elem = ((c2 - c1) - 1984.0 * byte) / 248.0;
            let call = c1 - 64.0 * byte - 8.0 * elem;
            (call, byte, elem)
        });

        // AM unpack cost: only meaningful where the planner may choose
        // Packed, i.e. conduits with an active-message layer.
        let am = matches!(cost.profile().amo, AmoSupport::AmEmulated { .. }).then(|| {
            let unpack = |n: usize| {
                (cost.am_packed_put_estimate(src, dst, n, 8).remote_complete
                    - cost.put_estimate(src, dst, n * 8).remote_complete) as f64
            };
            let elem = (unpack(256) - unpack(8)) / 248.0;
            let handler = unpack(8) - 8.0 * elem;
            (handler, elem)
        });

        // Get direction: same probe discipline against `get_estimate_ns`.
        // No rendezvous scan — the get path of every profile is linear in
        // the payload (the request/reply handshake is part of every call).
        let get = |bytes: usize| cost.get_estimate_ns(src, dst, bytes) as f64;
        let get_byte_ns = (get(2 * big) - get(big)) / big as f64;
        let get_call_ns = get(8) - 8.0 * get_byte_ns;

        let iget = cost.strided_get_estimate_ns(src, dst, 8, 8).map(|c1| {
            let c1 = c1 as f64;
            let c2 = cost.strided_get_estimate_ns(src, dst, 256, 8).unwrap() as f64;
            let c3 = cost.strided_get_estimate_ns(src, dst, 8, 64).unwrap() as f64;
            // Same three-probe solve as iput: c(n, e) = call + n*e*byte + n*elem.
            let byte = (c3 - c1) / 448.0;
            let elem = ((c2 - c1) - 1984.0 * byte) / 248.0;
            let call = c1 - 64.0 * byte - 8.0 * elem;
            (call, byte, elem)
        });

        let am_get = matches!(cost.profile().amo, AmoSupport::AmEmulated { .. }).then(|| {
            let pack = |n: usize| {
                (cost.am_packed_get_estimate_ns(src, dst, n, 8)
                    - cost.get_estimate_ns(src, dst, n * 8)) as f64
            };
            let elem = (pack(256) - pack(8)) / 248.0;
            let handler = pack(8) - 8.0 * elem;
            (handler, elem)
        });

        LinkFit {
            put_call_ns,
            put_byte_ns: slope,
            tail_ns,
            rendezvous,
            iput,
            am,
            get_call_ns,
            get_byte_ns,
            iget,
            am_get,
        }
    }

    /// Predicted local-completion cost of one contiguous put of `bytes`.
    fn put_ns(&self, bytes: usize) -> f64 {
        let rdv = match self.rendezvous {
            Some((threshold, extra)) if bytes > threshold => extra,
            _ => 0.0,
        };
        self.put_call_ns + bytes as f64 * self.put_byte_ns + rdv
    }

    /// Predicted completion cost of one blocking get of `bytes`.
    fn get_ns(&self, bytes: usize) -> f64 {
        self.get_call_ns + bytes as f64 * self.get_byte_ns
    }

    fn to_json(&self) -> Json {
        let pair = |a: f64, b: f64| Json::Array(vec![Json::float(a), Json::float(b)]);
        Json::Object(vec![
            ("put_call_ns".into(), Json::float(self.put_call_ns)),
            ("put_byte_ns".into(), Json::float(self.put_byte_ns)),
            ("tail_ns".into(), Json::float(self.tail_ns)),
            (
                "rendezvous".into(),
                match self.rendezvous {
                    Some((t, e)) => Json::Array(vec![Json::uint(t), Json::float(e)]),
                    None => Json::Null,
                },
            ),
            (
                "iput".into(),
                match self.iput {
                    Some((c, b, e)) => {
                        Json::Array(vec![Json::float(c), Json::float(b), Json::float(e)])
                    }
                    None => Json::Null,
                },
            ),
            (
                "am".into(),
                match self.am {
                    Some((h, e)) => pair(h, e),
                    None => Json::Null,
                },
            ),
            ("get_call_ns".into(), Json::float(self.get_call_ns)),
            ("get_byte_ns".into(), Json::float(self.get_byte_ns)),
            (
                "iget".into(),
                match self.iget {
                    Some((c, b, e)) => {
                        Json::Array(vec![Json::float(c), Json::float(b), Json::float(e)])
                    }
                    None => Json::Null,
                },
            ),
            (
                "am_get".into(),
                match self.am_get {
                    Some((h, e)) => pair(h, e),
                    None => Json::Null,
                },
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<LinkFit, String> {
        let f = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("link fit: missing float field `{key}`"))
        };
        let arr = |key: &str, n: usize| -> Result<Option<Vec<f64>>, String> {
            match v.get(key) {
                None => Err(format!("link fit: missing field `{key}`")),
                Some(Json::Null) => Ok(None),
                Some(other) => {
                    let items = other
                        .as_array()
                        .ok_or_else(|| format!("link fit: `{key}` is not an array"))?;
                    if items.len() != n {
                        return Err(format!("link fit: `{key}` wants {n} entries"));
                    }
                    items
                        .iter()
                        .map(|x| {
                            x.as_f64().ok_or_else(|| format!("link fit: `{key}` entry not numeric"))
                        })
                        .collect::<Result<Vec<_>, _>>()
                        .map(Some)
                }
            }
        };
        // Strict fields on purpose: a cache file from before the get-side
        // calibration existed fails to parse, `Coefficients::load` errors,
        // and the caller falls through to a fresh (full) calibration.
        Ok(LinkFit {
            put_call_ns: f("put_call_ns")?,
            put_byte_ns: f("put_byte_ns")?,
            tail_ns: f("tail_ns")?,
            rendezvous: arr("rendezvous", 2)?.map(|p| (p[0] as usize, p[1])),
            iput: arr("iput", 3)?.map(|p| (p[0], p[1], p[2])),
            am: arr("am", 2)?.map(|p| (p[0], p[1])),
            get_call_ns: f("get_call_ns")?,
            get_byte_ns: f("get_byte_ns")?,
            iget: arr("iget", 3)?.map(|p| (p[0], p[1], p[2])),
            am_get: arr("am_get", 2)?.map(|p| (p[0], p[1])),
        })
    }
}

/// A full calibration: link fits for same-node and (where the machine has
/// more than one node) remote peers, tagged with the (platform, profile) key
/// they were measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Coefficients {
    /// Cache key: `{platform}-{nodes}x{cores}-{profile}`.
    pub key: String,
    /// Fit for same-node targets.
    pub intra: LinkFit,
    /// Fit for remote targets; `None` on single-node machines.
    pub inter: Option<LinkFit>,
}

impl Coefficients {
    /// The memo/disk key for a machine + profile pairing.
    pub fn cache_key(cost: &CostModel<'_>) -> String {
        cache_key_for(cost.machine().config(), cost.profile().label())
    }

    /// Calibrate against the live cost model by micro-probing its pure
    /// estimators. Costs virtual-time nothing: estimators reserve no NIC
    /// time and advance no clocks.
    pub fn calibrate(cost: &CostModel<'_>) -> Coefficients {
        let cfg = cost.machine().config();
        let intra = LinkFit::probe(cost, 0, 0);
        let inter = (cfg.nodes > 1).then(|| LinkFit::probe(cost, 0, cfg.cores_per_node));
        Coefficients { key: Self::cache_key(cost), intra, inter }
    }

    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("key".into(), Json::str(self.key.clone())),
            ("intra".into(), self.intra.to_json()),
            (
                "inter".into(),
                match &self.inter {
                    Some(fit) => fit.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Coefficients, String> {
        let key = v
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| "coefficients: missing `key`".to_string())?
            .to_string();
        let intra = LinkFit::from_json(
            v.get("intra").ok_or_else(|| "coefficients: missing `intra`".to_string())?,
        )?;
        let inter = match v.get("inter") {
            None => return Err("coefficients: missing `inter`".into()),
            Some(Json::Null) => None,
            Some(other) => Some(LinkFit::from_json(other)?),
        };
        Ok(Coefficients { key, intra, inter })
    }

    /// Persist as pretty JSON.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().pretty() + "\n")
    }

    /// Reload a persisted calibration.
    pub fn load(path: &std::path::Path) -> Result<Coefficients, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Coefficients::from_json(&json::parse(&text)?)
    }
}

/// Build the memo/disk cache key without a live machine — what the post-run
/// recalibration check uses, having only the launch config and the profile
/// label in hand.
pub fn cache_key_for(cfg: &MachineConfig, profile_label: &str) -> String {
    format!("{}-{}x{}-{}", cfg.name, cfg.nodes, cfg.cores_per_node, profile_label)
}

fn memo() -> &'static Mutex<HashMap<String, Coefficients>> {
    static MEMO: OnceLock<Mutex<HashMap<String, Coefficients>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Healthy band for the mean `plan_cost_ratio_pct` misprediction ratio
/// (measured issue-side time over predicted cost, 100 = perfect). The low
/// side allows the predictions' deliberate conservatism (tail latency is
/// predicted but `quiet` often overlaps it); the high side allows NIC
/// queueing the pure estimators cannot see.
pub const RATIO_HEALTHY_MIN_PCT: u64 = 80;
pub const RATIO_HEALTHY_MAX_PCT: u64 = 125;

/// Post-run recalibration check: aggregate the run's `plan_cost_ratio_pct`
/// misprediction histogram and, when the mean falls outside the healthy
/// band, drop the cached [`Coefficients`] under `key` from both the
/// process-wide memo and the `PGAS_PLANNER_CACHE` directory — so the *next*
/// run re-probes the cost model instead of keep planning with a calibration
/// the measurements just contradicted. Returns the skewed mean when the
/// calibration was flagged stale, `None` when it is healthy (or the run
/// recorded no ratios).
pub fn invalidate_if_skewed(key: &str, metrics: &MetricsSnapshot) -> Option<u64> {
    let (mut count, mut sum) = (0u64, 0u64);
    for h in metrics.histograms_named("plan_cost_ratio_pct") {
        count += h.count;
        sum += h.sum;
    }
    if count == 0 {
        return None;
    }
    let mean = (sum as f64 / count as f64).round() as u64;
    if (RATIO_HEALTHY_MIN_PCT..=RATIO_HEALTHY_MAX_PCT).contains(&mean) {
        return None;
    }
    memo().lock().unwrap().remove(key);
    if let Ok(dir) = std::env::var("PGAS_PLANNER_CACHE") {
        let _ = std::fs::remove_file(cache_file(&dir, key));
    }
    Some(mean)
}

/// File name for one calibration inside the `PGAS_PLANNER_CACHE` directory.
fn cache_file(dir: &str, key: &str) -> std::path::PathBuf {
    let safe: String =
        key.chars().map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '_' }).collect();
    std::path::Path::new(dir).join(format!("{safe}.json"))
}

/// Plan scorer backed by measured [`Coefficients`].
#[derive(Debug, Clone, PartialEq)]
pub struct TunedPlanner {
    co: Coefficients,
}

impl TunedPlanner {
    /// Build from an existing calibration (e.g. one reloaded from disk).
    pub fn from_coefficients(co: Coefficients) -> TunedPlanner {
        TunedPlanner { co }
    }

    /// The calibration this planner scores with.
    pub fn coefficients(&self) -> &Coefficients {
        &self.co
    }

    /// The planner for `shmem`'s machine + profile. Resolution order:
    /// process-wide memo, then the `PGAS_PLANNER_CACHE` directory (if set),
    /// then a fresh calibration (stored back in both). `Image::new` warms
    /// this when the configured algorithm is `Tuned`, so per-transfer calls
    /// are a map lookup.
    pub fn for_shmem(shmem: &Shmem<'_>) -> TunedPlanner {
        let cost = CostModel::new(shmem.machine(), *shmem.profile());
        let key = Coefficients::cache_key(&cost);
        let mut memo = memo().lock().unwrap();
        if let Some(co) = memo.get(&key) {
            return TunedPlanner { co: co.clone() };
        }
        let cache_dir = std::env::var("PGAS_PLANNER_CACHE").ok();
        if let Some(dir) = &cache_dir {
            if let Ok(co) = Coefficients::load(&cache_file(dir, &key)) {
                if co.key == key {
                    memo.insert(key, co.clone());
                    return TunedPlanner { co };
                }
            }
        }
        let co = Coefficients::calibrate(&cost);
        if let Some(dir) = &cache_dir {
            // Best-effort persistence; an unwritable cache dir only costs
            // recalibration next process.
            let _ = std::fs::create_dir_all(dir);
            let _ = co.save(&cache_file(dir, &key));
        }
        memo.insert(key, co.clone());
        TunedPlanner { co }
    }
}

impl StridedPlanner for TunedPlanner {
    fn name(&self) -> &'static str {
        "tuned"
    }

    fn plan(
        &self,
        shmem: &Shmem<'_>,
        target_pe: usize,
        sec: &Section,
        shape: &[usize],
        elem: usize,
        dir: TransferDir,
    ) -> PlanChoice {
        // Unlike the heuristic, price the actual link to the target.
        let fit = if shmem.machine().same_node(shmem.my_pe(), target_pe) {
            &self.co.intra
        } else {
            self.co.inter.as_ref().unwrap_or(&self.co.intra)
        };
        let _ = shape; // locality is in the measured iput per-element term
        let total = sec.total();

        // Direction-aware pricing: one contiguous call, the strided-native
        // fit, the AM fit, and the completion tail (gets are blocking — the
        // caller has the data at local completion, there is no pending tail
        // for `quiet` to collect).
        let call_ns: &dyn Fn(usize) -> f64 = match dir {
            TransferDir::Put => &|bytes| fit.put_ns(bytes),
            TransferDir::Get => &|bytes| fit.get_ns(bytes),
        };
        let (strided_fit, am_fit, tail_ns) = match dir {
            TransferDir::Put => (fit.iput, fit.am, fit.tail_ns),
            TransferDir::Get => (fit.iget, fit.am_get, 0.0),
        };

        // Plan A: contiguous runs.
        let contiguous = sec.dims()[0].step == 1;
        let (n_runs, run_bytes) = if contiguous {
            (total / sec.dims()[0].count, sec.dims()[0].count * elem)
        } else {
            (total, elem)
        };
        let mut candidates = vec![(Plan::Runs, n_runs as f64 * call_ns(run_bytes) + tail_ns)];

        // Plan B: pencils along each dimension. Same candidate order and
        // strict-`<` replacement as the heuristic, so exact-cost ties (e.g.
        // element-wise loops on emulated-iput conduits, which cost the same
        // floats as non-contiguous Runs) resolve identically.
        for d in 0..sec.rank() {
            let count = sec.dims()[d].count;
            let pencils = (total / count) as f64;
            let cost = match strided_fit {
                Some((call, byte, elem_ns)) => {
                    pencils * (call + (count * elem) as f64 * byte + count as f64 * elem_ns)
                        + tail_ns
                }
                None => total as f64 * call_ns(elem) + tail_ns,
            };
            candidates.push((Plan::BaseDim(d), cost));
        }

        // Plan C: AM packing, where a handler exists.
        if let Some((handler, elem_ns)) = am_fit {
            let cost = call_ns(total * elem) + tail_ns + handler + total as f64 * elem_ns;
            candidates.push((Plan::Packed, cost));
        }
        pick_best(candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_conduit::ConduitProfile;
    use pgas_machine::{cray_xc30, stampede, Machine, Platform};

    #[test]
    fn fit_reproduces_cost_model_put_times() {
        let m = Machine::new(stampede(2, 16));
        let cost = CostModel::new(&m, ConduitProfile::mvapich_shmem());
        let co = Coefficients::calibrate(&cost);
        let inter = co.inter.as_ref().expect("two nodes => inter fit");
        for bytes in [8usize, 256, 4096, 60_000, 70_000, 1 << 20] {
            let real = cost.put_estimate(0, 16, bytes).local_complete as f64;
            let fitted = inter.put_ns(bytes);
            assert!((real - fitted).abs() <= 2.0, "{bytes} B: model {real} vs fit {fitted}");
        }
        for bytes in [8usize, 4096, 1 << 20] {
            let real = cost.put_estimate(0, 1, bytes).local_complete as f64;
            let fitted = co.intra.put_ns(bytes);
            assert!((real - fitted).abs() <= 2.0, "intra {bytes} B: model {real} vs fit {fitted}");
        }
    }

    #[test]
    fn fit_reproduces_cost_model_get_times() {
        let m = Machine::new(stampede(2, 16));
        let cost = CostModel::new(&m, ConduitProfile::mvapich_shmem());
        let co = Coefficients::calibrate(&cost);
        let inter = co.inter.as_ref().expect("two nodes => inter fit");
        for bytes in [8usize, 256, 4096, 60_000, 1 << 20] {
            let real = cost.get_estimate_ns(0, 16, bytes) as f64;
            let fitted = inter.get_ns(bytes);
            assert!((real - fitted).abs() <= 2.0, "{bytes} B: model {real} vs fit {fitted}");
        }
        for bytes in [8usize, 4096, 1 << 20] {
            let real = cost.get_estimate_ns(0, 1, bytes) as f64;
            let fitted = co.intra.get_ns(bytes);
            assert!((real - fitted).abs() <= 2.0, "intra {bytes} B: model {real} vs fit {fitted}");
        }
        // The get call constant must carry the request round trip: on an
        // inter-node link it dwarfs the put-side call constant.
        assert!(
            inter.get_call_ns > inter.put_call_ns,
            "get {} <= put {}",
            inter.get_call_ns,
            inter.put_call_ns
        );
    }

    #[test]
    fn iget_fit_reproduces_strided_get_estimates() {
        let m = Machine::new(cray_xc30(2, 16));
        let cost = CostModel::new(&m, ConduitProfile::cray_shmem(Platform::CrayXc30));
        let co = Coefficients::calibrate(&cost);
        let (call, byte, elem) = co.inter.as_ref().unwrap().iget.unwrap();
        for (n, e) in [(16usize, 4usize), (100, 8), (500, 16)] {
            let real = cost.strided_get_estimate_ns(0, 16, n, e).unwrap() as f64;
            let fitted = call + (n * e) as f64 * byte + n as f64 * elem;
            assert!((real - fitted).abs() <= 2.0, "iget n={n} e={e}: {real} vs {fitted}");
        }
        // Same capability surface as the put side: native iget on cray,
        // AM gather only where an AM layer exists.
        assert!(co.inter.as_ref().unwrap().am_get.is_none());
        let m = Machine::new(stampede(2, 16));
        let gasnet = Coefficients::calibrate(&CostModel::new(
            &m,
            ConduitProfile::gasnet(Platform::Stampede),
        ));
        assert!(gasnet.inter.as_ref().unwrap().iget.is_none(), "gasnet loops iget");
        let (handler, elem) = gasnet.inter.unwrap().am_get.expect("gasnet has AM gather");
        assert!(handler > 0.0 && elem > 0.0);
    }

    #[test]
    fn fit_recovers_exact_rendezvous_thresholds() {
        // mvapich: 64 KiB cliff.
        let m = Machine::new(stampede(2, 16));
        let cost = CostModel::new(&m, ConduitProfile::mvapich_shmem());
        let co = Coefficients::calibrate(&cost);
        let (threshold, extra) = co.inter.unwrap().rendezvous.expect("mvapich has a cliff");
        assert_eq!(threshold, 64 * 1024);
        assert!(extra > 1000.0, "handshake is ~2 round trips, got {extra}");
        // mpi3: 8 KiB cliff.
        let m = Machine::new(stampede(2, 16));
        let cost = CostModel::new(&m, ConduitProfile::mpi3(Platform::Stampede));
        let co = Coefficients::calibrate(&cost);
        assert_eq!(co.inter.unwrap().rendezvous.unwrap().0, 8 * 1024);
        // cray: no cliff at all (threshold usize::MAX).
        let m = Machine::new(cray_xc30(2, 16));
        let cost = CostModel::new(&m, ConduitProfile::cray_shmem(Platform::CrayXc30));
        let co = Coefficients::calibrate(&cost);
        assert_eq!(co.inter.unwrap().rendezvous, None);
        // Intra links never pay rendezvous.
        assert_eq!(co.intra.rendezvous, None);
    }

    #[test]
    fn fit_reflects_conduit_capabilities() {
        let m = Machine::new(cray_xc30(2, 16));
        let cray = Coefficients::calibrate(&CostModel::new(
            &m,
            ConduitProfile::cray_shmem(Platform::CrayXc30),
        ));
        assert!(cray.inter.as_ref().unwrap().iput.is_some(), "cray has native iput");
        assert!(cray.inter.as_ref().unwrap().am.is_none(), "no AM layer on SHMEM");

        let m = Machine::new(stampede(2, 16));
        let gasnet = Coefficients::calibrate(&CostModel::new(
            &m,
            ConduitProfile::gasnet(Platform::Stampede),
        ));
        assert!(gasnet.inter.as_ref().unwrap().iput.is_none(), "gasnet loops iput");
        let (handler, elem) = gasnet.inter.unwrap().am.expect("gasnet has AM");
        assert!(handler > 0.0 && elem > 0.0);
    }

    #[test]
    fn iput_fit_reproduces_strided_estimates() {
        let m = Machine::new(cray_xc30(2, 16));
        let cost = CostModel::new(&m, ConduitProfile::cray_shmem(Platform::CrayXc30));
        let co = Coefficients::calibrate(&cost);
        let (call, byte, elem) = co.inter.unwrap().iput.unwrap();
        for (n, e) in [(16usize, 4usize), (100, 8), (500, 16)] {
            let real = cost.strided_put_estimate(0, 16, n, e).unwrap().local_complete as f64;
            let fitted = call + (n * e) as f64 * byte + n as f64 * elem;
            assert!((real - fitted).abs() <= 2.0, "iput n={n} e={e}: {real} vs {fitted}");
        }
    }

    #[test]
    fn coefficients_json_round_trip_is_exact() {
        for (cfg, profile) in [
            (stampede(2, 16), ConduitProfile::mvapich_shmem()),
            (stampede(2, 16), ConduitProfile::gasnet(Platform::Stampede)),
            (cray_xc30(2, 16), ConduitProfile::cray_shmem(Platform::CrayXc30)),
            (cray_xc30(1, 16), ConduitProfile::cray_shmem(Platform::CrayXc30)),
        ] {
            let m = Machine::new(cfg);
            let co = Coefficients::calibrate(&CostModel::new(&m, profile));
            let text = co.to_json().pretty();
            let back = Coefficients::from_json(&json::parse(&text).unwrap()).unwrap();
            assert_eq!(co, back, "{}", co.key);
        }
    }

    #[test]
    fn single_node_machines_fit_no_inter_link() {
        let m = Machine::new(pgas_machine::generic_smp(4));
        let co = Coefficients::calibrate(&CostModel::new(&m, ConduitProfile::mvapich_shmem()));
        assert!(co.inter.is_none());
    }

    fn ratio_snapshot(ratios: &[u64]) -> pgas_machine::MetricsSnapshot {
        let reg = pgas_machine::MetricsRegistry::new(true, 2);
        for (i, &r) in ratios.iter().enumerate() {
            reg.observe(i % 2, "plan_cost_ratio_pct", Some(1), r);
        }
        reg.snapshot(pgas_machine::StatsSnapshot::default())
    }

    #[test]
    fn skewed_ratio_invalidates_the_memoised_calibration() {
        // Seed the memo under a synthetic key no real run uses.
        let key = "testonly-skew-2x4-fake-profile".to_string();
        let m = Machine::new(pgas_machine::generic_smp(4));
        let co = Coefficients::calibrate(&CostModel::new(&m, ConduitProfile::mvapich_shmem()));
        memo().lock().unwrap().insert(key.clone(), co.clone());

        // Healthy mean (100): the calibration stays cached.
        assert_eq!(invalidate_if_skewed(&key, &ratio_snapshot(&[90, 100, 110])), None);
        assert!(memo().lock().unwrap().contains_key(&key));

        // No observations at all: nothing to judge, keep the cache.
        assert_eq!(invalidate_if_skewed(&key, &ratio_snapshot(&[])), None);
        assert!(memo().lock().unwrap().contains_key(&key));

        // Mean 300: measurements contradict the fit — the entry is dropped.
        assert_eq!(invalidate_if_skewed(&key, &ratio_snapshot(&[280, 320])), Some(300));
        assert!(!memo().lock().unwrap().contains_key(&key));

        // Underprediction skew (mean far below 100) is just as stale.
        memo().lock().unwrap().insert(key.clone(), co);
        assert_eq!(invalidate_if_skewed(&key, &ratio_snapshot(&[40, 60])), Some(50));
        assert!(!memo().lock().unwrap().contains_key(&key));
    }

    #[test]
    fn cache_key_for_matches_live_cache_key() {
        let cfg = stampede(2, 16);
        let m = Machine::new(cfg.clone());
        let cost = CostModel::new(&m, ConduitProfile::mvapich_shmem());
        assert_eq!(
            Coefficients::cache_key(&cost),
            cache_key_for(&cfg, ConduitProfile::mvapich_shmem().label())
        );
    }
}
