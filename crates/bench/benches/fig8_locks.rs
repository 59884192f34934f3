//! Regenerates Figure 8 (lock microbenchmark on Titan).
//! REPRO_QUICK=1 for a smoke run; REPRO_MAX_IMAGES caps the sweep
//! (default 2048: the paper's 1024-image headline point plus one
//! doubling).

fn main() {
    let quick = repro_bench::quick_from_env();
    let max = repro_bench::max_images_from_env(if quick { 32 } else { 2048 });
    repro_bench::fig8_locks(quick, max).emit();
}
