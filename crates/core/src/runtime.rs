//! SPMD entry points for CAF programs.

use crate::config::CafConfig;
use crate::image::Image;
use pgas_machine::config::MachineConfig;
use pgas_machine::launch::{SimError, SimOutcome};

/// Launch a CAF program: one image per simulated core, each running `f`.
/// Panics if any image fails.
pub fn run_caf<R, F>(machine: MachineConfig, caf: CafConfig, f: F) -> SimOutcome<R>
where
    F: Fn(&Image<'_>) -> R + Send + Sync,
    R: Send,
{
    pgas_machine::run(machine, move |pe| {
        let img = Image::new(pe, caf);
        f(&img)
    })
}

/// Like [`run_caf`] but reporting failures as values (used by tests that
/// expect runtime errors such as STAT_LOCKED).
pub fn run_caf_result<R, F>(
    machine: MachineConfig,
    caf: CafConfig,
    f: F,
) -> Result<SimOutcome<R>, SimError>
where
    F: Fn(&Image<'_>) -> R + Send + Sync,
    R: Send,
{
    pgas_machine::run_with_result(machine, move |pe| {
        let img = Image::new(pe, caf);
        f(&img)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Backend;
    use pgas_machine::{generic_smp, Platform};

    #[test]
    fn run_caf_returns_per_image_results_and_stats() {
        let out = run_caf(
            generic_smp(3).with_heap_bytes(1 << 17),
            CafConfig::new(Backend::Shmem, Platform::GenericSmp),
            |img| {
                let a = img.coarray::<i64>(&[2]).unwrap();
                img.sync_all();
                a.put_to(img, img.this_image() % img.num_images() + 1, &[1, 2]);
                img.sync_all();
                img.this_image()
            },
        );
        assert_eq!(out.results, vec![1, 2, 3]);
        assert_eq!(out.stats.puts, 3);
        assert!(out.stats.barriers >= 2);
    }

    #[test]
    fn tuned_run_records_healthy_misprediction_ratios() {
        use crate::section::{DimRange, Section};
        let mcfg = generic_smp(2).with_heap_bytes(1 << 17);
        // The planner prices *direct* wire costs; pin coalescing off so an
        // ambient PGAS_COALESCE=on (the test-aggregated CI job) cannot
        // re-time the strided puts it priced.
        let ccfg = CafConfig::new(Backend::Shmem, Platform::GenericSmp)
            .with_strided(crate::config::StridedAlgorithm::Tuned)
            .with_aggregation(pgas_conduit::CoalescePolicy::Off);
        let out = pgas_machine::with_forced_metrics(true, || {
            run_caf(mcfg, ccfg, |img| {
                let a = img.coarray::<i32>(&[16, 16]).unwrap();
                let sec = Section::new(vec![
                    DimRange { start: 0, count: 8, step: 2 },
                    DimRange { start: 0, count: 8, step: 2 },
                ]);
                let data = vec![7i32; sec.total()];
                img.sync_all();
                if img.this_image() == 1 {
                    a.put_section(img, 2, &sec, &data);
                }
                img.sync_all();
            })
        });
        // Measured issue-side time over predicted cost, 100 = perfect: a
        // planner pricing with the machine's own cost model lands in the
        // 80–125 band.
        let (mut count, mut sum) = (0u64, 0u64);
        for h in out.metrics.histograms_named("plan_cost_ratio_pct") {
            count += h.count;
            sum += h.sum;
        }
        assert!(count > 0, "tuned run records misprediction ratios");
        let mean = (sum as f64 / count as f64).round() as u64;
        assert!(
            (80..=125).contains(&mean),
            "the planner should predict its own cost model well, mean {mean}%"
        );
    }

    #[test]
    fn failures_propagate_with_image_context() {
        let err = run_caf_result(
            generic_smp(2).with_heap_bytes(1 << 17),
            CafConfig::new(Backend::Shmem, Platform::GenericSmp),
            |img| {
                if img.this_image() == 2 {
                    panic!("image 2 exploded");
                }
                img.sync_all();
            },
        )
        .unwrap_err();
        assert_eq!(err.pe, 1);
        assert!(err.message.contains("exploded"));
    }
}
