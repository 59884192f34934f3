//! Property: the open-loop serving pipeline is deterministic end to end.
//! The arrival schedule is fixed before the run starts, every admission
//! decision branches on the virtual clock, and completions land in
//! virtual-time windows — so for any drawn seed the same config must
//! produce bit-identical per-request latency paths (`SimOutcome::req_paths`,
//! each tiling its latency exactly), windowed metrics snapshot and SLO
//! report run to run.
//! The property must also hold under a transient-drop fault plan (`drop1`):
//! retries stretch latencies, but they stretch them identically every run.

use caf::{Backend, SanitizerMode};
use caf_apps::serve::{run_serve_outcome, ServeConfig, ServeResult};
use caf_apps::DhtUpdateMode;
use pgas_machine::metrics::MetricsSnapshot;
use pgas_machine::{
    with_forced_metrics, with_forced_mode, with_forced_plan, with_forced_tracing, FaultPlan,
    Platform, ReqPathReport,
};
use proptest::prelude::*;

/// One open-loop run: eight workers + a spare, tracing pinned to `traced`,
/// metrics pinned on, sanitizer pinned off.
fn serving_run(
    traced: bool,
    cfg: ServeConfig,
    plan: FaultPlan,
) -> (ServeResult, Vec<ReqPathReport>, MetricsSnapshot, String) {
    with_forced_tracing(traced, || {
        with_forced_metrics(true, || {
            with_forced_mode(SanitizerMode::Off, || {
                with_forced_plan(plan, || {
                    let (r, out) = run_serve_outcome(Platform::Titan, Backend::Shmem, 9, cfg, true);
                    let paths = out.req_paths();
                    let slo_json = r.slo.to_json().pretty();
                    (r, paths, out.metrics, slo_json)
                })
            })
        })
    })
}

fn small(seed: u64, mode: DhtUpdateMode) -> ServeConfig {
    ServeConfig {
        keyspace: 5_000,
        requests_per_image: 16,
        epochs: 2,
        slots_per_shard: 32,
        mean_gap_ns: 1_200.0,
        mode,
        seed,
        ..Default::default()
    }
}

/// Every phase vector sums to its request's end-to-end latency, ns for ns.
fn tiles_exactly(paths: &[ReqPathReport]) -> Result<(), TestCaseError> {
    for p in paths {
        prop_assert_eq!(p.phase_ns.iter().sum::<u64>(), p.total_ns(), "{:?}", p);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn open_loop_serving_reproduces_bit_identically(seed in any::<u64>()) {
        // AM mode only, like every determinism suite in this repo: locked
        // mode's lock-queue order is whoever swaps first on the host, which
        // is exactly the nondeterminism the MCS lock models on purpose.
        let cfg = small(seed, DhtUpdateMode::Am);
        let plan = FaultPlan::new(cfg.seed);
        let (r1, l1, m1, s1) = serving_run(true, cfg, plan.clone());
        for repeat in 2..=3 {
            let (r, l, m, s) = serving_run(true, cfg, plan.clone());
            prop_assert_eq!(&l1, &l, "run {} must reproduce the request paths", repeat);
            prop_assert_eq!(&m1, &m, "run {} must reproduce the windowed metrics", repeat);
            prop_assert_eq!(&s1, &s, "run {} must reproduce the SLO report", repeat);
            prop_assert_eq!(&r1.slo.windows, &r.slo.windows);
            prop_assert_eq!(&r1.slo.alerts, &r.slo.alerts);
            prop_assert_eq!(r1.checksum, r.checksum);
            prop_assert_eq!(r1.completed, r.completed);
            // Tail attribution rides the same guarantee: per-window profiles,
            // dominant causes and the seeded exemplar reservoirs (ids
            // included) must be bit-identical run to run — the sampler's
            // keyed order is offer-order independent by construction.
            let (t1, t) = (r1.tail.as_ref().unwrap(), r.tail.as_ref().unwrap());
            prop_assert_eq!(t1, t, "run {} must reproduce the tail attribution", repeat);
            for (p1, p) in t1.profiles.iter().zip(&t.profiles) {
                prop_assert_eq!(p1.dominant_cause(), p.dominant_cause());
                let ids1: Vec<u64> = p1.exemplars.iter().map(|e| e.id).collect();
                let ids: Vec<u64> = p.exemplars.iter().map(|e| e.id).collect();
                prop_assert_eq!(ids1, ids, "run {} must retain the same exemplar ids", repeat);
            }
        }
        // One path per completed request, each tiling its latency exactly.
        prop_assert_eq!(l1.len() as u64, r1.completed + r1.drained);
        tiles_exactly(&l1)?;
    }

    #[test]
    fn tracing_moves_no_virtual_clock(seed in any::<u64>()) {
        // The tail attributor only exists when tracing is on; the PR 4
        // observability contract says turning it on must not move a single
        // virtual clock — so the windowed metrics, latency percentiles and
        // completion counts of a traced and an untraced run are identical,
        // and only the annotations (dominant causes, exemplars, `tail`)
        // differ.
        let cfg = small(seed, DhtUpdateMode::Am);
        let plan = FaultPlan::new(cfg.seed);
        let (rt, _, mt, _) = serving_run(true, cfg, plan.clone());
        let (ru, _, mu, _) = serving_run(false, cfg, plan);
        prop_assert_eq!(&mt, &mu, "tracing must move no virtual clock");
        prop_assert_eq!(rt.checksum, ru.checksum);
        prop_assert_eq!(rt.completed, ru.completed);
        prop_assert_eq!(rt.slo.windows.len(), ru.slo.windows.len());
        for (tw, uw) in rt.slo.windows.iter().zip(&ru.slo.windows) {
            prop_assert_eq!(
                (tw.start_ns, tw.count, tw.violations, tw.p50, tw.p99, tw.p999),
                (uw.start_ns, uw.count, uw.violations, uw.p50, uw.p99, uw.p999)
            );
            prop_assert_eq!(
                (tw.fast_burn_x1000, tw.slow_burn_x1000),
                (uw.fast_burn_x1000, uw.slow_burn_x1000)
            );
        }
        prop_assert!(rt.tail.is_some(), "the traced run attributes its tail");
        prop_assert!(ru.tail.is_none(), "the untraced run has no requests to attribute");
    }

    #[test]
    fn serving_determinism_survives_transient_drops(seed in any::<u64>()) {
        let cfg = small(seed, DhtUpdateMode::Am);
        let plan = FaultPlan::transient_drops(0xFA01, 0.01);
        let (r1, l1, m1, s1) = serving_run(true, cfg, plan.clone());
        let (r2, l2, m2, s2) = serving_run(true, cfg, plan);
        prop_assert_eq!(&l1, &l2, "drop retries must replay identically run to run");
        tiles_exactly(&l1)?;
        prop_assert_eq!(&m1, &m2);
        prop_assert_eq!(&s1, &s2);
        prop_assert_eq!(r1.checksum, r2.checksum);
        prop_assert_eq!(r1.acked_sum, r2.acked_sum);
    }
}
