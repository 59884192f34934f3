//! Strided plan selection behind a first-class API (paper §VII).
//!
//! The paper's §IV-C `2dim_strided` argument is a price comparison: how many
//! calls a plan issues against what each call costs, for native vs. loop
//! `iput` and for AM packing. A [`StridedPlanner`] makes that comparison for
//! one transfer. Two implementations exist:
//!
//! * [`HeuristicPlanner`] (`adaptive`) — hard-coded per-call, per-byte and
//!   locality coefficients: a mirror of the cost model that drifts whenever
//!   `conduit/cost.rs` or a platform preset changes.
//! * [`TunedPlanner`] (`tuned`) — prices every candidate with the conduit's
//!   own [`CostModel`] estimators, between the calling PE and the actual
//!   target. Each estimator is the transfer's reserving call on idle lanes,
//!   so the planner has no coefficients of its own to drift: on otherwise
//!   idle NICs a prediction is the plan's virtual time to the nanosecond.
//!
//! Every planner decision (chosen plan, predicted cost, all candidate costs)
//! is recorded in the machine's [`Stats`](pgas_machine::stats::Stats) by the
//! transfer layer, so EXPERIMENTS figures can contrast predictions against
//! measured virtual time and show mispredictions.

use crate::section::Section;
use crate::strided::{plan_call_count, Plan};
use openshmem::Shmem;
use pgas_conduit::cost::PutTiming;
use pgas_conduit::{AmoSupport, CostModel};

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
        let n_runs = plan_call_count(Plan::Runs, sec) as f64;
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

/// Plan scorer backed by the cost model itself: each candidate's price is
/// what its calls cost on idle lanes, issued back to back.
#[derive(Debug, Clone, Copy, Default)]
pub struct TunedPlanner;

impl StridedPlanner for TunedPlanner {
    fn name(&self) -> &'static str {
        "tuned"
    }

    fn plan(
        &self,
        shmem: &Shmem<'_>,
        target_pe: usize,
        sec: &Section,
        _shape: &[usize],
        elem: usize,
        dir: TransferDir,
    ) -> PlanChoice {
        let cost = CostModel::new(shmem.machine(), *shmem.profile());
        let (src, dst) = (shmem.my_pe(), target_pe);
        // A get returns with its data: it leaves no tail for `quiet`.
        let get = |ns: u64| PutTiming { local_complete: ns, remote_complete: ns };
        let call = |bytes: usize| match dir {
            TransferDir::Put => cost.put_estimate(src, dst, bytes),
            TransferDir::Get => get(cost.get_estimate_ns(src, dst, bytes)),
        };
        // `calls` identical calls back to back: each issues at the previous
        // one's local completion, and the last one's tail is what `quiet`
        // waits for.
        let price = |calls: usize, t: PutTiming| {
            (calls as u64 * t.local_complete + (t.remote_complete - t.local_complete)) as f64
        };
        let total = sec.total();

        // Plan A: contiguous runs.
        let n_runs = plan_call_count(Plan::Runs, sec);
        let run_bytes = total / n_runs * elem;
        let mut candidates = vec![(Plan::Runs, price(n_runs, call(run_bytes)))];

        // Plan B: pencils along each dimension. Same candidate order and
        // strict-`<` replacement as the heuristic, so exact-cost ties (e.g.
        // element-wise loops on emulated-iput conduits, which cost the same
        // as non-contiguous Runs) resolve identically.
        for d in 0..sec.rank() {
            let count = sec.dims()[d].count;
            let strided = match dir {
                TransferDir::Put => cost.strided_put_estimate(src, dst, count, elem),
                TransferDir::Get => cost.strided_get_estimate_ns(src, dst, count, elem).map(get),
            };
            let c = match strided {
                Some(t) => price(total / count, t),
                None => price(total, call(elem)),
            };
            candidates.push((Plan::BaseDim(d), c));
        }

        // Plan C: AM packing, where a handler exists. The handler unpacks
        // one piece per stride-1 run, as the conduit charges it.
        if matches!(shmem.profile().amo, AmoSupport::AmEmulated { .. }) {
            let t = match dir {
                TransferDir::Put => cost.am_packed_put_estimate(src, dst, n_runs, run_bytes),
                TransferDir::Get => {
                    get(cost.am_packed_get_estimate_ns(src, dst, n_runs, run_bytes))
                }
            };
            candidates.push((Plan::Packed, price(1, t)));
        }
        pick_best(candidates)
    }
}
