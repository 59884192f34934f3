//! Every application in this crate must run hazard-free under the PGAS
//! sanitizer: their synchronization (barriers, sync images, locks, flag
//! protocols) should establish a happens-before edge for every cross-image
//! access. `with_forced_mode(Panic)` turns any missed edge into a job
//! failure carrying the structured diagnostic.

use caf::{Backend, SanitizerMode, StridedAlgorithm};
use caf_apps::*;
use pgas_machine::{with_forced_mode, Platform};

fn run_all_apps(platform: Platform) {
    with_forced_mode(SanitizerMode::Panic, || {
        let dht = DhtConfig { slots_per_image: 32, updates_per_image: 16, ..Default::default() };
        run_dht(platform, Backend::Shmem, 4, dht);

        let heat = HeatConfig { cells: 32, steps: 12, ..Default::default() };
        parallel_heat(platform, Backend::Shmem, 4, heat);

        run_himeno(platform, Backend::Shmem, None, 4, HimenoConfig::tiny());
        run_himeno(
            platform,
            Backend::Shmem,
            Some(StridedAlgorithm::Tuned),
            4,
            HimenoConfig::tiny(),
        );

        let hist = HistogramConfig { bins: 8, samples_per_image: 40, ..Default::default() };
        run_histogram(platform, Backend::Shmem, 4, hist, HistogramMethod::Atomics);
        run_histogram(platform, Backend::Shmem, 4, hist, HistogramMethod::Lock);

        parallel_stencil(platform, Backend::Shmem, None, 4, StencilConfig { n: 12, steps: 6 });

        parallel_transpose(platform, Backend::Shmem, 4, TransposeConfig { n: 16 });
    });
}

#[test]
fn all_apps_hazard_free_on_generic_smp() {
    run_all_apps(Platform::GenericSmp);
}

#[test]
fn all_apps_hazard_free_on_titan() {
    run_all_apps(Platform::Titan);
}

#[test]
fn all_apps_hazard_free_on_titan_over_gasnet() {
    // The GASNet conduit exercises the AM-emulated atomics and the packed
    // strided path.
    with_forced_mode(SanitizerMode::Panic, || {
        let heat = HeatConfig { cells: 32, steps: 12, ..Default::default() };
        parallel_heat(Platform::Titan, Backend::Gasnet, 4, heat);
        run_himeno(Platform::Titan, Backend::Gasnet, None, 4, HimenoConfig::tiny());
        parallel_transpose(Platform::Titan, Backend::Gasnet, 4, TransposeConfig { n: 16 });
    });
}
