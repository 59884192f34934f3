//! Property: the aggregation machinery changes *when* bytes move, never
//! *what* they compute. Across the full configuration matrix — coalescing
//! {off, on} × DHT update mode {locked get–modify–put, active message} —
//! every run must produce the oracle checksum, and each configuration must
//! reproduce a bit-identical digest (critical path + metrics) run to run.
//!
//! The second half re-runs the hazard-free and drop1-fault suites with
//! aggregation forced on: staged buffers must flush inside every
//! synchronization edge the sanitizer checks, and the retry layer must
//! absorb transient drops whether an op went to the wire directly or
//! through a coalescing buffer.

use caf::{Backend, SanitizerMode, StridedAlgorithm};
use caf_apps::*;
use pgas_machine::critdiff::RunDigest;
use pgas_machine::{
    with_forced_aggregation, with_forced_metrics, with_forced_mode, with_forced_plan,
    with_forced_tracing, FaultPlan, Platform,
};
use proptest::prelude::*;

/// One traced DHT run: the oracle-checked result plus the comparable
/// digest. Deterministic NIC, tracing and metrics pinned on, sanitizer
/// pinned off (an inherited `PGAS_SANITIZER` must not perturb the bits).
fn traced_dht(aggregate: bool, cfg: DhtConfig) -> (DhtResult, RunDigest) {
    with_forced_tracing(true, || {
        with_forced_metrics(true, || {
            with_forced_mode(SanitizerMode::Off, || {
                with_forced_aggregation(aggregate, || {
                    let (r, out) =
                        dht::run_dht_outcome(Platform::Titan, Backend::Shmem, 8, cfg, true);
                    let digest = RunDigest::from_run(&out.critical_path(), &out.metrics);
                    (r, digest)
                })
            })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The full matrix, per drawn workload seed: every cell matches the
    /// oracle and reproduces bit-identically in three runs.
    #[test]
    fn aggregation_matrix_is_correct_and_deterministic(seed in any::<u64>()) {
        let base = DhtConfig { slots_per_image: 32, updates_per_image: 12, seed, ..Default::default() };
        let oracle = dht::expected_checksum(8, &base);
        for update in [DhtUpdateMode::Locked, DhtUpdateMode::Am] {
            let cfg = DhtConfig { update, ..base };
            for aggregate in [false, true] {
                let (r1, d1) = traced_dht(aggregate, cfg);
                prop_assert_eq!(
                    r1.checksum, oracle,
                    "checksum ({:?}, aggregate={})", update, aggregate
                );
                for _ in 0..2 {
                    let (r, d) = traced_dht(aggregate, cfg);
                    prop_assert_eq!(r.checksum, oracle);
                    prop_assert_eq!(
                        &d1, &d,
                        "same config must reproduce bit-identically ({:?}, aggregate={})",
                        update, aggregate
                    );
                }
            }
        }
    }
}

/// The sanitizer suite under aggregation: every application stays
/// hazard-free when small puts and non-fetching AMOs ride coalescing
/// buffers (mirrors `sanitizer_clean.rs`, which runs with the ambient
/// setting — off in the plain CI job, on in `test-aggregated`).
#[test]
fn all_apps_hazard_free_with_aggregation() {
    with_forced_aggregation(true, || {
        with_forced_mode(SanitizerMode::Panic, || {
            let dht_cfg =
                DhtConfig { slots_per_image: 32, updates_per_image: 16, ..Default::default() };
            run_dht(Platform::Titan, Backend::Shmem, 4, dht_cfg);
            run_dht(
                Platform::Titan,
                Backend::Shmem,
                4,
                DhtConfig { update: DhtUpdateMode::Am, ..dht_cfg },
            );

            let heat = HeatConfig { cells: 32, steps: 12, ..Default::default() };
            parallel_heat(Platform::Titan, Backend::Shmem, 4, heat);

            run_himeno(Platform::Titan, Backend::Shmem, None, 4, HimenoConfig::tiny());
            run_himeno(
                Platform::Titan,
                Backend::Shmem,
                Some(StridedAlgorithm::Tuned),
                4,
                HimenoConfig::tiny(),
            );

            let hist = HistogramConfig { bins: 8, samples_per_image: 40, ..Default::default() };
            run_histogram(Platform::Titan, Backend::Shmem, 4, hist, HistogramMethod::Atomics);
            run_histogram(Platform::Titan, Backend::Shmem, 4, hist, HistogramMethod::Lock);

            parallel_stencil(
                Platform::Titan,
                Backend::Shmem,
                None,
                4,
                StencilConfig { n: 12, steps: 6 },
            );

            parallel_transpose(Platform::Titan, Backend::Shmem, 4, TransposeConfig { n: 16 });
        });
    });
}

/// The drop1 fault suite under aggregation: faults are drawn at stage
/// time, so a staged op that loses its draw surfaces exactly like a wire
/// op would, and the retry/backoff layer keeps the answers correct.
#[test]
fn apps_survive_drops_with_aggregation() {
    with_forced_aggregation(true, || {
        with_forced_plan(FaultPlan::transient_drops(0xA66D, 0.01), || {
            let cfg =
                DhtConfig { slots_per_image: 32, updates_per_image: 25, ..Default::default() };
            let r = run_dht(Platform::Titan, Backend::Shmem, 8, cfg);
            assert_eq!(r.checksum, dht::expected_checksum(8, &cfg), "checksum under drops");
            assert!(r.stats.faults_injected > 0, "the plan actually fired: {:?}", r.stats);
            assert_eq!(r.stats.retries_exhausted, 0);
            assert_eq!(r.stats.lock_leaks, 0);

            let am = DhtConfig { update: DhtUpdateMode::Am, ..cfg };
            let r = run_dht(Platform::Titan, Backend::Shmem, 8, am);
            assert_eq!(r.checksum, dht::expected_checksum(8, &am), "AM checksum under drops");
            assert_eq!(r.stats.lock_leaks, 0);

            let scfg = StencilConfig { n: 12, steps: 8 };
            let serial = serial_stencil(&scfg);
            let (got, stats) =
                parallel_stencil_with_stats(Platform::GenericSmp, Backend::Shmem, None, 4, scfg);
            assert_eq!(got, serial, "bitwise answer under drops");
            assert_eq!(stats.retries_exhausted, 0);
            assert_eq!(stats.lock_leaks, 0);
        });
    });
}
