//! Property: a scheduled PE failure is part of the *virtual* schedule, not
//! an asynchronous accident — so a recovery run is exactly as reproducible
//! as a healthy one. For any drawn workload seed and failure instant, the
//! same plan must produce a bit-identical [`RunDigest`], metrics snapshot
//! and critical-path report run to run: every resilience decision (skip vs.
//! send, dead-target gates, deferred errors) branches on clock-deterministic
//! predicates only.

use caf::{Backend, SanitizerMode};
use caf_apps::*;
use pgas_machine::critdiff::RunDigest;
use pgas_machine::critpath::CriticalPathReport;
use pgas_machine::metrics::MetricsSnapshot;
use pgas_machine::{
    with_forced_metrics, with_forced_mode, with_forced_plan, with_forced_tracing, FaultPlan,
    Platform,
};
use proptest::prelude::*;

/// One traced recovery run: eight images, one scheduled mid-run PE death.
/// Deterministic NIC, tracing and metrics pinned on, sanitizer pinned off.
fn recovery_run(
    cfg: DhtConfig,
    at_ns: u64,
) -> (DhtResult, RunDigest, CriticalPathReport, MetricsSnapshot) {
    with_forced_tracing(true, || {
        with_forced_metrics(true, || {
            with_forced_mode(SanitizerMode::Off, || {
                let plan = FaultPlan::new(cfg.seed).with_pe_failure(5, at_ns);
                with_forced_plan(plan, || {
                    let (r, out) =
                        dht::run_dht_outcome(Platform::Titan, Backend::Shmem, 8, cfg, true);
                    let report = out.critical_path();
                    let digest = RunDigest::from_run(&report, &out.metrics);
                    (r, digest, report, out.metrics)
                })
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn recovery_runs_reproduce_bit_identically(
        seed in any::<u64>(),
        at_us in 1u64..6,
    ) {
        let cfg = DhtConfig {
            slots_per_image: 32,
            updates_per_image: 12,
            update: DhtUpdateMode::Am,
            seed,
            ..Default::default()
        };
        let at_ns = at_us * 1_000;
        let (r1, d1, p1, m1) = recovery_run(cfg, at_ns);
        for repeat in 2..=3 {
            let (r, d, p, m) = recovery_run(cfg, at_ns);
            prop_assert_eq!(&d1, &d, "run {} must reproduce the digest", repeat);
            prop_assert_eq!(&p1, &p, "run {} must reproduce the critical path", repeat);
            prop_assert_eq!(&m1, &m, "run {} must reproduce the metrics", repeat);
            prop_assert_eq!(r1.checksum, r.checksum);
            prop_assert_eq!(r1.acked_sum, r.acked_sum);
            prop_assert_eq!(r1.skipped, r.skipped);
            prop_assert_eq!(r1.stats.pe_failures, r.stats.pe_failures);
        }
    }
}
