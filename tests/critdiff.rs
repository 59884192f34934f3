//! End-to-end validation of the benchmark regression differ.
//!
//! Three contracts from the regression-harness design:
//!
//! 1. Determinism — two runs of the same configuration digest identically,
//!    so a self-diff is exactly zero everywhere (this is what lets CI treat
//!    *any* delta beyond tolerance as a real change).
//! 2. A NIC bandwidth-degradation window shows up as a positive
//!    `nic_contention` delta attributed to the PEs/peer node it hit.
//! 3. An artificially slowed conduit profile is caught by
//!    `CritDiff::regressions` with the makespan growth attributed to the
//!    correct critical-path segment.

use pgas_conduit::{ConduitProfile, Ctx, CtxOptions};
use pgas_machine::critdiff::{CritDiff, RunDigest};
use pgas_machine::{
    stampede, with_forced_metrics, with_forced_tracing, DegradedWindow, FaultPlan, PathCategory,
};

/// The Figure 3 contention pattern: 8 sender PEs on node 0 each stream four
/// 32 KiB non-blocking puts to a partner on node 1, then quiet. The fault
/// plan is always explicit (config beats the `PGAS_FAULT_PLAN` environment
/// default) so the baseline digest is stable even under the CI fault job.
fn digest_with(profile: ConduitProfile, plan: FaultPlan) -> RunDigest {
    let mcfg = stampede(2, 8).with_heap_bytes(1 << 18).with_faults(plan);
    let out = with_forced_tracing(true, || {
        with_forced_metrics(true, || {
            pgas_machine::run(mcfg, move |pe| {
                let ctx = Ctx::new(pe, profile, CtxOptions::default());
                let n = pe.n();
                ctx.barrier_all();
                if pe.id() < n / 2 {
                    let dst = pe.id() + n / 2;
                    let data = vec![1u8; 32 * 1024];
                    for _ in 0..4 {
                        ctx.put_nbi(dst, 0, &data);
                    }
                    ctx.quiet();
                }
                ctx.barrier_all();
            })
        })
    });
    RunDigest::from_run(&out.critical_path(), &out.metrics)
}

#[test]
fn self_diff_of_two_identical_runs_is_zero_everywhere() {
    let a = digest_with(ConduitProfile::mvapich_shmem(), FaultPlan::none());
    let b = digest_with(ConduitProfile::mvapich_shmem(), FaultPlan::none());
    assert_eq!(a, b, "deterministic virtual time => bit-identical digests");
    let diff = CritDiff::between(&a, &b);
    assert!(diff.is_zero(), "self-diff must be exactly zero:\n{}", diff.render());
    assert!(diff.regressions(0.0).is_empty(), "zero tolerance, zero regressions");
}

#[test]
fn nic_degradation_window_is_attributed_to_nic_contention() {
    let base = digest_with(ConduitProfile::mvapich_shmem(), FaultPlan::none());
    // Cut the receiving node's NIC to a quarter of nominal bandwidth for the
    // whole run: transfers stretch, and the senders' quiet waits queue
    // behind the slowed receiver.
    let degraded = FaultPlan::none().with_degraded_window(DegradedWindow {
        node: 1,
        begin_ns: 0,
        end_ns: u64::MAX,
        bandwidth_factor: 0.25,
    });
    let cand = digest_with(ConduitProfile::mvapich_shmem(), degraded);

    let diff = CritDiff::between(&base, &cand);
    assert!(diff.makespan_delta_ns() > 0, "degradation must slow the run");
    let nic = diff
        .categories
        .iter()
        .find(|c| c.category == PathCategory::NicContention)
        .expect("differ always reports all five categories");
    assert!(
        nic.delta_ns() > 0,
        "NIC queueing behind the degraded link must grow:\n{}",
        diff.render()
    );

    // The regression verdicts call out the category, and the per-PE
    // attribution lands on a sender (node 0 holds PEs 0..8).
    let regs = diff.regressions(0.02);
    assert!(regs.iter().any(|r| r.contains("nic_contention")), "{regs:?}");
    let grown_pe = diff
        .by_pe
        .iter()
        .find(|p| p.category == PathCategory::NicContention && p.delta_ns() > 0)
        .expect("per-PE slice for the grown category");
    assert!(grown_pe.pe < 8, "attribution lands on a node-0 sender, got PE {}", grown_pe.pe);

    // Metric series keyed by peer node point at the degraded target node.
    assert!(
        diff.metrics.iter().any(|m| m.peer_node == Some(1) && m.sum_delta() > 0),
        "some op-kind series toward node 1 must have grown:\n{}",
        diff.render()
    );

    // The unchanged tree stays green even at zero tolerance (determinism),
    // and the degraded run passes only under a huge tolerance.
    assert!(CritDiff::between(&base, &base).regressions(0.0).is_empty());
    assert!(diff.regressions(100.0).is_empty());
}

/// The serving anchor's shape (the serve tests' calibrated failure
/// scenario), digested *with* its per-request critical paths: the digest
/// gains a request-phase table that the differ judges alongside the
/// machine-level categories.
fn serving_digest() -> RunDigest {
    use caf::Backend;
    use caf_apps::serve::{run_serve_outcome, ServeConfig};
    use pgas_machine::{with_forced_aggregation, with_forced_plan, Platform};
    let cfg = ServeConfig {
        keyspace: 10_000,
        requests_per_image: 40,
        epochs: 2,
        slots_per_shard: 64,
        mean_gap_ns: 1_500.0,
        ..Default::default()
    };
    let plan = FaultPlan::new(cfg.seed).with_pe_failure(4, 12_000);
    let out = with_forced_tracing(true, || {
        with_forced_metrics(true, || {
            with_forced_aggregation(true, || {
                with_forced_plan(plan, || {
                    run_serve_outcome(Platform::Titan, Backend::Shmem, 9, cfg, true).1
                })
            })
        })
    });
    RunDigest::from_run_with_requests(&out.critical_path(), &out.metrics, &out.req_paths())
}

#[test]
fn serving_self_diff_is_zero_including_request_phases() {
    let a = serving_digest();
    let b = serving_digest();
    assert_eq!(a, b, "deterministic serving => bit-identical digests");
    assert!(a.req_count > 0, "the serving run marks requests");
    assert!(a.req_phase_ns.iter().sum::<u64>() > 0, "request phases attribute real time");
    let diff = CritDiff::between(&a, &b);
    assert!(diff.is_zero(), "self-diff must be exactly zero:\n{}", diff.render());
    assert!(diff.regressions(0.0).is_empty(), "zero tolerance, zero regressions");
    // The request-phase table survives the baseline JSON roundtrip.
    let back = RunDigest::from_json(&a.to_json()).expect("digest roundtrips");
    assert_eq!(a, back);
}

#[test]
fn request_phase_growth_is_attributed_by_name() {
    let base = serving_digest();
    // A synthetic candidate whose fault-delay share of request time grew by
    // half the total request-phase budget: the differ must name the phase.
    let mut cand = base.clone();
    let total: u64 = base.req_phase_ns.iter().sum();
    cand.req_phase_ns[4] += total / 2 + 1; // ReqPhase::FaultDelay
    let diff = CritDiff::between(&base, &cand);
    assert!(!diff.is_zero());
    let regs = diff.regressions(0.02);
    assert!(
        regs.iter().any(|r| r.contains("fault_delay")),
        "the grown request phase is called out by name: {regs:?}"
    );
    // A pre-request baseline (old BENCH files) never flags phantom request
    // regressions, whatever the candidate carries.
    let mut old = base.clone();
    old.req_count = 0;
    old.req_phase_ns = [0; 6];
    assert!(
        CritDiff::between(&old, &cand).regressions(0.0).iter().all(|r| !r.contains("request")),
        "request phases are only judged against request-carrying baselines"
    );
}

#[test]
fn slowed_conduit_profile_is_caught_and_attributed_to_wire() {
    let base = digest_with(ConduitProfile::mvapich_shmem(), FaultPlan::none());
    // An artificially slowed library build: the protocol sustains a quarter
    // of the wire bandwidth it used to.
    let mut slow = ConduitProfile::mvapich_shmem();
    slow.bandwidth_efficiency /= 4.0;
    let cand = digest_with(slow, FaultPlan::none());

    let diff = CritDiff::between(&base, &cand);
    assert!(diff.makespan_delta_ns() > 0);
    let wire = diff.categories.iter().find(|c| c.category == PathCategory::Wire).unwrap();
    assert!(wire.delta_ns() > 0, "payload serialization must grow:\n{}", diff.render());

    let regs = diff.regressions(0.05);
    assert!(regs.iter().any(|r| r.contains("makespan regressed")), "{regs:?}");
    assert!(regs.iter().any(|r| r.contains("wire")), "{regs:?}");
}
