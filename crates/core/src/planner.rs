//! Strided plan selection (paper §IV-C, and the §VII future work).
//!
//! The paper's `2dim_strided` argument is a price comparison: how many calls
//! a plan issues against what each call costs, for native vs. loop `iput`
//! and for AM packing. [`plan`] makes that comparison for one transfer. It
//! prices every candidate with the conduit's own [`CostModel`] estimators,
//! between the calling PE and the actual target. Each estimator is the
//! transfer's reserving call on idle lanes, so the planner has no
//! coefficients of its own to drift: on otherwise idle NICs a prediction is
//! the plan's virtual time to the nanosecond.
//!
//! Every decision (chosen plan, predicted cost, all candidate costs) is
//! recorded in the machine's [`Stats`](pgas_machine::stats::Stats) by the
//! transfer layer, so EXPERIMENTS figures can contrast predictions against
//! measured virtual time and show mispredictions.

use crate::section::Section;
use crate::strided::{plan_call_count, Plan};
use openshmem::Shmem;
use pgas_conduit::cost::PutTiming;
use pgas_conduit::{AmoSupport, CostModel};

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

/// The planner's verdict on one section transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChoice {
    /// The plan to execute.
    pub plan: Plan,
    /// The predicted cost of `plan`, ns.
    pub predicted_ns: f64,
    /// Every candidate the planner costed, in scoring order.
    pub candidates: Vec<(Plan, f64)>,
}

/// Choose a plan for transferring `sec` (elements of `elem` bytes) between
/// the calling PE and `target_pe`, in direction `dir` (a put writes the
/// section, a get reads it back). Each candidate's price is what its calls
/// cost on idle lanes, issued back to back.
///
/// Scoring is pure with respect to the simulation: it reads the machine and
/// profile but advances no clock and reserves no NIC time.
pub fn plan(
    shmem: &Shmem<'_>,
    target_pe: usize,
    sec: &Section,
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
    // one's local completion, and the last one's tail is what `quiet` waits
    // for.
    let price = |calls: usize, t: PutTiming| {
        (calls as u64 * t.local_complete + (t.remote_complete - t.local_complete)) as f64
    };
    let total = sec.total();

    // Plan A: contiguous runs.
    let n_runs = plan_call_count(Plan::Runs, sec);
    let run_bytes = total / n_runs * elem;
    let mut candidates = vec![(Plan::Runs, price(n_runs, call(run_bytes)))];

    // Plan B: one 1-D strided call per pencil along each dimension, or one
    // put per element where the conduit has no native `iput`. Costed on
    // every profile, so the candidates cover every static arm of `plan_of`
    // (Naive/OneDim/TwoDim/BestOfAll), and an element-wise loop that costs
    // exactly what non-contiguous Runs costs loses the strict-`<` tie below.
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

    // Plan C: AM packing, where a handler exists. The handler unpacks one
    // piece per stride-1 run, as the conduit charges it.
    if matches!(shmem.profile().amo, AmoSupport::AmEmulated { .. }) {
        let t = match dir {
            TransferDir::Put => cost.am_packed_put_estimate(src, dst, n_runs, run_bytes),
            TransferDir::Get => get(cost.am_packed_get_estimate_ns(src, dst, n_runs, run_bytes)),
        };
        candidates.push((Plan::Packed, price(1, t)));
    }

    // First-listed wins ties: replacement is strict `<`.
    let mut best = candidates[0];
    for &c in &candidates[1..] {
        if c.1 < best.1 {
            best = c;
        }
    }
    PlanChoice { plan: best.0, predicted_ns: best.1, candidates }
}
