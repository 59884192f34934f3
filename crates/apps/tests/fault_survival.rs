//! Every application must *survive* a lossy interconnect: under a canned
//! 1% transient-drop plan the conduit's retry/backoff layer absorbs the
//! faults, the answers stay correct, and no lock is leaked. The plan is
//! forced through the same thread-local override the `PGAS_FAULT_PLAN`
//! CI job uses, so this is the in-tree mirror of the `test-faulted` run.

use caf::{Backend, SanitizerMode, StridedAlgorithm};
use caf_apps::*;
use pgas_machine::{with_forced_mode, with_forced_plan, FaultPlan, Platform};

/// The canned plan: the same 1% drop rate as `PGAS_FAULT_PLAN=drop1`, with
/// a test-local seed so failures reproduce from the test name alone.
fn drop1(seed: u64) -> FaultPlan {
    FaultPlan::transient_drops(seed, 0.01)
}

#[test]
fn dht_survives_a_lossy_interconnect() {
    with_forced_plan(drop1(0x0D47), || {
        let cfg = DhtConfig { slots_per_image: 32, updates_per_image: 25, ..Default::default() };
        let r = run_dht(Platform::Titan, Backend::Shmem, 8, cfg);
        assert_eq!(r.checksum, dht::expected_checksum(8, &cfg), "checksum under drops");
        assert!(r.stats.faults_injected > 0, "the plan actually fired: {:?}", r.stats);
        assert_eq!(r.stats.retries_exhausted, 0, "1% drops never exhaust the backoff");
        assert_eq!(r.stats.lock_leaks, 0, "every lock released despite retried AMOs");
        assert_eq!(r.stats.pe_failures, 0);
    });
}

#[test]
fn himeno_survives_a_lossy_interconnect() {
    with_forced_plan(drop1(0x0417), || {
        let cfg = HimenoConfig::tiny();
        let serial = *serial_gosa(&cfg).last().unwrap();
        let r = run_himeno(Platform::Stampede, Backend::Shmem, None, 4, cfg);
        let rel = (r.gosa - serial).abs() / serial;
        assert!(rel < 1e-5, "residual under drops: {} vs {serial} (rel {rel:e})", r.gosa);
        assert!(r.stats.faults_injected > 0, "the plan actually fired: {:?}", r.stats);
        assert_eq!(r.stats.retries_exhausted, 0);
        assert_eq!(r.stats.lock_leaks, 0);
    });
}

#[test]
fn stencil2d_survives_a_lossy_interconnect() {
    with_forced_plan(drop1(0x57E4), || {
        let cfg = StencilConfig { n: 12, steps: 8 };
        let serial = serial_stencil(&cfg);
        let (got, stats) =
            parallel_stencil_with_stats(Platform::GenericSmp, Backend::Shmem, None, 4, cfg);
        assert_eq!(got, serial, "bitwise answer under drops");
        assert!(stats.faults_injected > 0, "the plan actually fired: {stats:?}");
        assert_eq!(stats.retries_exhausted, 0);
        assert_eq!(stats.lock_leaks, 0);
    });
}

/// The strided fast paths retry too: the tuned planner's `iput`
/// decomposition must deliver every pencil even when individual puts drop.
#[test]
fn himeno_strided_algorithms_survive_drops() {
    with_forced_plan(drop1(0x2D13), || {
        let cfg = HimenoConfig::tiny();
        let serial = *serial_gosa(&cfg).last().unwrap();
        for algo in [StridedAlgorithm::Naive, StridedAlgorithm::TwoDim, StridedAlgorithm::Tuned] {
            let r = run_himeno(Platform::Stampede, Backend::Shmem, Some(algo), 4, cfg);
            let rel = (r.gosa - serial).abs() / serial;
            assert!(rel < 1e-5, "{algo:?} under drops: rel {rel:e}");
            assert_eq!(r.stats.lock_leaks, 0, "{algo:?}");
        }
    });
}

/// A scheduled PE failure mid-run: the surviving images keep serving
/// active-message updates, every update whose send was *acknowledged* to a
/// still-live home is in the final table, and updates to the dead home are
/// skipped instead of crashing the run. "Zero lost acknowledged writes":
/// the live-table checksum equals the wrapping sum of acknowledged keys.
#[test]
fn dht_am_updates_survive_a_pe_failure() {
    let cfg = DhtConfig {
        slots_per_image: 32,
        updates_per_image: 25,
        update: DhtUpdateMode::Am,
        ..Default::default()
    };
    // Image 6 (PE 5) dies at 3µs — about halfway through the healthy-run
    // makespan, so plenty of updates are still in flight on both sides of
    // the cut.
    let plan = FaultPlan::new(0xFA11).with_pe_failure(5, 3_000);
    with_forced_plan(plan, || {
        let r = run_dht(Platform::Titan, Backend::Shmem, 8, cfg);
        assert_eq!(r.stats.pe_failures, 1, "the scheduled failure fired: {:?}", r.stats);
        assert_eq!(
            r.checksum, r.acked_sum,
            "zero lost acknowledged writes: live table must hold exactly the acked keys"
        );
        assert!(r.skipped > 0, "updates homed on the dead image were skipped, not crashed");
        assert_ne!(
            r.checksum,
            dht::expected_checksum(8, &cfg),
            "the dead image's shard (and its skipped updates) really left the table"
        );
        assert_eq!(r.stats.lock_leaks, 0);
    });
}

/// Satellite regression for small-op coalescing under failure: a put to a
/// target that dies before the flush *stages* successfully, so the loss can
/// only surface at the statement's completing quiet. It must come back
/// through the `stat=` chain as STAT_FAILED_IMAGE — not panic the image.
#[test]
fn coalesced_puts_to_a_failed_image_surface_in_the_stat_chain() {
    use caf::{run_caf, CafConfig, CafStat};
    let plan = drop1(0x0F01).with_pe_failure(3, 5_000);
    pgas_machine::with_forced_aggregation(true, || {
        with_forced_plan(plan, || {
            let mcfg = Platform::Titan.config(2, 2).with_heap_bytes(1 << 16);
            let caf_cfg = CafConfig::new(Backend::Shmem, Platform::Titan).with_nonsym_bytes(4096);
            let out = run_caf(mcfg, caf_cfg, |img| {
                let a = img.coarray::<u64>(&[64]).unwrap();
                img.sync_all();
                if img.this_image() == 4 {
                    // Cross the scheduled deadline, then bow out.
                    img.machine().advance(3, 10_000.0);
                    return None;
                }
                if img.this_image() == 1 {
                    // Keep staging single-element puts at image 4. Early
                    // statements land; once image 1's clock passes the
                    // victim's deadline the staged op is dropped at flush
                    // and the statement's stat reports the dead image.
                    for i in 0..400usize {
                        if let Err(stat) = a.put_elem_stat(img, 4, &[i % 64], i as u64) {
                            return Some(stat);
                        }
                    }
                }
                None
            });
            assert_eq!(
                out.results[0],
                Some(CafStat::FailedImage { image: 4 }),
                "the staged-put loss must surface as STAT_FAILED_IMAGE"
            );
            assert_eq!(out.stats.pe_failures, 1);
        });
    });
}

/// Faults and the sanitizer compose: a lossy-but-correct run stays
/// hazard-free, so retries do not manufacture phantom races.
#[test]
fn lossy_runs_stay_hazard_free() {
    with_forced_mode(SanitizerMode::Panic, || {
        with_forced_plan(drop1(0xC0DE), || {
            let cfg = StencilConfig { n: 12, steps: 6 };
            let (got, stats) =
                parallel_stencil_with_stats(Platform::GenericSmp, Backend::Shmem, None, 4, cfg);
            assert_eq!(got, serial_stencil(&cfg));
            assert!(stats.faults_injected > 0, "{stats:?}");
        });
    });
}
