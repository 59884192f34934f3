//! Lock contention kernel (paper §V-B3, Figure 8): every image repeatedly
//! acquires and releases a lock homed on image 1.

use caf::{run_caf, Backend, CafConfig};
use pgas_machine::Platform;

/// The Figure 8 microbenchmark.
#[derive(Debug, Clone, Copy)]
pub struct LockBench {
    pub platform: Platform,
    pub backend: Backend,
    pub images: usize,
    /// Lock/unlock rounds per image.
    pub acquires: usize,
    pub cores_per_node: usize,
}

impl LockBench {
    pub fn new(platform: Platform, backend: Backend, images: usize) -> LockBench {
        LockBench { platform, backend, images, acquires: 10, cores_per_node: 16 }
    }

    /// Total execution time in milliseconds (virtual), as the paper plots.
    pub fn run_ms(&self) -> f64 {
        let acquires = self.acquires;
        let cores = self.cores_per_node.min(self.images);
        let nodes = self.images.div_ceil(cores);
        let mcfg = self.platform.config(nodes, cores).with_heap_bytes(1 << 16);
        let caf_cfg = CafConfig::new(self.backend, self.platform).with_nonsym_bytes(4096);
        let out = run_caf(mcfg, caf_cfg, move |img| {
            let lck = img.lock_var();
            img.sync_all();
            let t0 = img.shmem().ctx().pe().now();
            for _ in 0..acquires {
                img.lock(&lck, 1);
                img.unlock(&lck, 1);
            }
            img.sync_all();
            (img.shmem().ctx().pe().now() - t0) as f64 / 1e6
        });
        out.results.iter().copied().fold(0.0, f64::max)
    }
}

/// A naive CAF lock baseline for the ablation bench: spin with remote
/// compare-and-swap directly on the lock word (no queue, remote polling).
pub fn naive_spinlock_ms(
    platform: Platform,
    backend: Backend,
    images: usize,
    acquires: usize,
) -> f64 {
    let cores = 16.min(images);
    let nodes = images.div_ceil(cores);
    let mcfg = platform.config(nodes, cores).with_heap_bytes(1 << 16);
    let caf_cfg = CafConfig::new(backend, platform).with_nonsym_bytes(4096);
    let out = run_caf(mcfg, caf_cfg, move |img| {
        let word = img.shmem().shmalloc::<u64>(1).unwrap();
        img.shmem().write_local(word, &[0]);
        img.sync_all();
        let me = img.this_image() as u64;
        let t0 = img.shmem().ctx().pe().now();
        for _ in 0..acquires {
            let mut backoff = 200.0;
            let start = img.shmem().ctx().pe().now();
            while img.shmem().cswap(word, 0u64, me, 0) != 0 {
                img.shmem().ctx().pe().advance(backoff);
                backoff = (backoff * 2.0).min(20_000.0);
                img.shmem().ctx().pe().yield_now();
            }
            // Expected poll misalignment plus the implied NIC poll traffic.
            img.shmem().charge_spin_wait(start, 0, 200.0, 20_000.0);
            let prev = img.shmem().cswap(word, me, 0u64, 0);
            assert_eq!(prev, me);
        }
        img.sync_all();
        (img.shmem().ctx().pe().now() - t0) as f64 / 1e6
    });
    out.results.iter().copied().fold(0.0, f64::max)
}

/// Image counts of Figure 8's x axis, capped for test-time sanity. Runs to
/// the paper's 1024 headline point and one doubling beyond (2048): targeted
/// wakes make thousand-image jobs routine.
pub fn image_sweep(max: usize) -> Vec<usize> {
    [2usize, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
        .into_iter()
        .filter(|&n| n <= max)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_time_grows_with_contention() {
        let t4 = LockBench { acquires: 5, ..LockBench::new(Platform::Titan, Backend::Shmem, 4) };
        let t32 = LockBench { acquires: 5, ..LockBench::new(Platform::Titan, Backend::Shmem, 32) };
        let a = t4.run_ms();
        let b = t32.run_ms();
        assert!(b > 2.0 * a, "32 images {b:.2}ms vs 4 images {a:.2}ms");
    }

    #[test]
    fn shmem_locks_beat_gasnet_locks() {
        // §V-B3: UHCAF over Cray SHMEM ~11% faster than over GASNet; the
        // gap comes from native vs AM-emulated atomics.
        let shmem =
            LockBench { acquires: 5, ..LockBench::new(Platform::Titan, Backend::Shmem, 16) }
                .run_ms();
        let gasnet =
            LockBench { acquires: 5, ..LockBench::new(Platform::Titan, Backend::Gasnet, 16) }
                .run_ms();
        assert!(gasnet > shmem, "GASNet {gasnet:.2}ms vs SHMEM {shmem:.2}ms");
    }

    #[test]
    fn shmem_locks_beat_cray_caf_locks() {
        // §V-B3: ~22% faster than the Cray CAF implementation.
        let shmem =
            LockBench { acquires: 5, ..LockBench::new(Platform::Titan, Backend::Shmem, 16) }
                .run_ms();
        let cray =
            LockBench { acquires: 5, ..LockBench::new(Platform::Titan, Backend::CrayCaf, 16) }
                .run_ms();
        assert!(cray > shmem, "Cray-CAF {cray:.2}ms vs SHMEM {shmem:.2}ms");
    }

    #[test]
    fn mcs_beats_naive_spinlock_under_contention() {
        let mcs = LockBench { acquires: 5, ..LockBench::new(Platform::Titan, Backend::Shmem, 24) };
        let (mcs, naive) =
            (mcs.run_ms(), naive_spinlock_ms(Platform::Titan, Backend::Shmem, 24, 5));
        assert!(naive > mcs, "naive {naive:.2}ms vs MCS {mcs:.2}ms");
    }

    #[test]
    fn sweep_is_capped() {
        assert_eq!(image_sweep(64), vec![2, 4, 8, 16, 32, 64]);
    }
}
