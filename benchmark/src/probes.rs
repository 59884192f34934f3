//! Micro-probes: single mechanisms at 32 PEs (Titan, 2 nodes of 16),
//! each timed on the host clock around one public entry point.
//!
//! Every probe returns its reading and the number of results that failed
//! their check (a lost update under the lock, a wrong element after the
//! strided put; 0 where there is nothing to check).

use crate::engine;
use crate::measure::median;
use caf::{run_caf, Backend, CafConfig, DimRange, Section, StridedAlgorithm};
use openshmem::{Shmem, ShmemConfig};
use pgas_conduit::ConduitProfile;
use pgas_machine::heap::Heap;
use pgas_machine::machine::Pe;
use pgas_machine::{MachineConfig, Platform};
use std::time::Instant;

const PLATFORM: Platform = Platform::Titan;
pub const PES: usize = 32;
/// An image on the other node than image 1.
const REMOTE_IMAGE: usize = 17;

fn machine() -> MachineConfig {
    engine::pinned(PLATFORM.config(2, 16))
}

fn caf_config() -> CafConfig {
    CafConfig::new(Backend::Shmem, PLATFORM).with_strided(StridedAlgorithm::TwoDim)
}

/// How many times each probe repeats its mechanism.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub launches: usize,
    pub barriers: usize,
    pub copy_mib: usize,
    pub lock_pairs: usize,
    pub handoffs_per_image: usize,
    pub section_puts: usize,
}

impl Sizes {
    /// The full sizes, each passed through `scale` (`--quick` shrinks them).
    pub fn new(scale: impl Fn(usize) -> usize) -> Sizes {
        Sizes {
            launches: scale(60),
            barriers: scale(4000),
            copy_mib: scale(2048),
            lock_pairs: scale(20_000),
            handoffs_per_image: scale(200),
            section_puts: scale(2000),
        }
    }
}

/// One micro-probe: the per-layer metric it reads, the span its call is
/// recorded under, and the call.
pub struct Probe {
    pub metric: &'static str,
    pub span: &'static str,
    pub run: fn(&Sizes) -> (f64, u64),
}

pub const ALL: [Probe; 8] = [
    Probe { metric: "machine.spawn_us_per_pe", span: "probe.machine.run", run: spawn_us_per_pe },
    Probe {
        metric: "machine.barrier_host_us",
        span: "probe.machine.barrier_all",
        run: machine_barrier_us,
    },
    Probe { metric: "machine.heap_copy_gib_s", span: "probe.machine.heap", run: heap_copy_gib_s },
    Probe {
        metric: "openshmem.barrier_host_us",
        span: "probe.openshmem.barrier_all",
        run: shmem_barrier_us,
    },
    Probe { metric: "caf.sync_all_host_us", span: "probe.caf.sync_all", run: caf_sync_all_us },
    Probe { metric: "caf.lock_pair_host_us", span: "probe.caf.lock+unlock", run: caf_lock_pair_us },
    Probe {
        metric: "caf.lock_handoff_host_us",
        span: "probe.caf.lock handoff",
        run: caf_lock_handoff_us,
    },
    Probe {
        metric: "caf.strided_host_ns_per_elem",
        span: "probe.caf.put_section",
        run: caf_strided_ns_per_elem,
    },
];

/// `machine.spawn_us_per_pe`: median host µs to launch and join one PE of
/// an empty 32-PE program (thread, heap, teardown).
fn spawn_us_per_pe(sizes: &Sizes) -> (f64, u64) {
    let per_launch: Vec<f64> = (0..sizes.launches)
        .map(|_| {
            let t0 = Instant::now();
            pgas_machine::run(machine(), |_pe: Pe<'_>| ());
            t0.elapsed().as_secs_f64() * 1e6 / PES as f64
        })
        .collect();
    (median(&per_launch), 0)
}

/// Host µs per iteration of `step` on PE 0, all PEs running the same loop
/// between two barriers.
fn loop_us(n: usize, barrier: impl Fn(), step: impl Fn()) -> f64 {
    barrier();
    let t0 = Instant::now();
    for _ in 0..n {
        step();
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / n as f64;
    barrier();
    us
}

/// `machine.barrier_host_us`: `Machine::barrier_all` across 32 PEs.
fn machine_barrier_us(sizes: &Sizes) -> (f64, u64) {
    let n = sizes.barriers;
    let out = pgas_machine::run(machine(), move |pe: Pe<'_>| {
        let rendezvous = || {
            pe.machine().barrier_all(pe.id(), 0.0);
        };
        loop_us(n, rendezvous, rendezvous)
    });
    (out.results[0], 0)
}

/// `openshmem.barrier_host_us`: `Shmem::barrier_all` (quiet + cost model +
/// the machine barrier).
fn shmem_barrier_us(sizes: &Sizes) -> (f64, u64) {
    let n = sizes.barriers;
    let out = pgas_machine::run(machine(), move |pe: Pe<'_>| {
        let sh = Shmem::new(pe, ShmemConfig::new(ConduitProfile::native_shmem(PLATFORM)));
        loop_us(n, || sh.barrier_all(), || sh.barrier_all())
    });
    (out.results[0], 0)
}

/// `caf.sync_all_host_us`: `Image::sync_all`.
fn caf_sync_all_us(sizes: &Sizes) -> (f64, u64) {
    let n = sizes.barriers;
    let out = run_caf(machine(), caf_config(), move |img| {
        loop_us(n, || img.sync_all(), || img.sync_all())
    });
    (out.results[0], 0)
}

/// `machine.heap_copy_gib_s`: `Heap::write_bytes` + `Heap::read_bytes` of
/// 1 MiB blocks through the per-word atomics, GiB moved per host second.
fn heap_copy_gib_s(sizes: &Sizes) -> (f64, u64) {
    const BLOCK: usize = 1 << 20;
    let mib = sizes.copy_mib;
    let heap = Heap::new(BLOCK);
    let src: Vec<u8> = (0..BLOCK).map(|i| (i % 251) as u8).collect();
    let mut dst = vec![0u8; BLOCK];
    let t0 = Instant::now();
    for _ in 0..mib.div_ceil(2) {
        heap.write_bytes(0, std::hint::black_box(&src));
        heap.read_bytes(0, std::hint::black_box(&mut dst));
    }
    let secs = t0.elapsed().as_secs_f64();
    let gib = (mib.div_ceil(2) * 2) as f64 / 1024.0;
    (gib / secs, u64::from(dst != src))
}

/// `caf.lock_pair_host_us`: image 1 takes and releases the lock on an
/// image of the other node, nobody else contending — the MCS fast path.
fn caf_lock_pair_us(sizes: &Sizes) -> (f64, u64) {
    let pairs = sizes.lock_pairs;
    let out = run_caf(machine(), caf_config(), move |img| {
        let lock = img.lock_var();
        if img.this_image() == 1 {
            loop_us(
                pairs,
                || {},
                || {
                    img.lock(&lock, REMOTE_IMAGE);
                    img.unlock(&lock, REMOTE_IMAGE);
                },
            )
        } else {
            0.0
        }
    });
    (out.results[0], 0)
}

/// `caf.lock_handoff_host_us`: all 32 images take image 1's lock
/// `per_image` times each, bumping a counter by get-then-put under it;
/// host µs per handoff, and updates the lock failed to protect.
fn caf_lock_handoff_us(sizes: &Sizes) -> (f64, u64) {
    let per_image = sizes.handoffs_per_image;
    let out = run_caf(machine(), caf_config(), move |img| {
        let lock = img.lock_var();
        let counter = img.coarray::<u64>(&[1]).expect("handoff counter");
        let us = loop_us(
            per_image,
            || img.sync_all(),
            || {
                img.lock(&lock, 1);
                let v = counter.get_elem(img, 1, &[0]);
                counter.put_elem(img, 1, &[0], v + 1);
                img.unlock(&lock, 1);
            },
        );
        (us, counter.local_elem(img, &[0]))
    });
    // PE 0 times its own `per_image` turns, during which all 32 images
    // take theirs: one of its iterations spans 32 handoffs.
    let (us, total) = out.results[0];
    (us / PES as f64, ((PES * per_image) as u64).abs_diff(total))
}

/// `caf.strided_host_ns_per_elem`: a 2-D section (every other row and
/// column of a 64x64 array) put to the other node with `2dim_strided`;
/// host ns per element, and elements that arrived wrong.
fn caf_strided_ns_per_elem(sizes: &Sizes) -> (f64, u64) {
    const N: usize = 64;
    let puts = sizes.section_puts;
    let out = run_caf(machine(), caf_config(), move |img| {
        let a = img.coarray::<f32>(&[N, N]).expect("strided target");
        let every_other = DimRange { start: 0, count: N / 2, step: 2 };
        let sec = Section::new(vec![every_other, every_other]);
        let data: Vec<f32> = (0..sec.total()).map(|i| i as f32 + 1.0).collect();
        let mut ns = 0.0;
        if img.this_image() == 1 {
            let us = loop_us(puts, || {}, || a.put_section(img, REMOTE_IMAGE, &sec, &data));
            ns = us * 1e3 / sec.total() as f64;
        }
        img.sync_all();
        let wrong = if img.this_image() == REMOTE_IMAGE {
            let local = a.read_local(img);
            let hits = sec.elements(&[N, N]);
            hits.iter().filter(|&&(at, packed)| local[at] != data[packed]).count() as u64
        } else {
            0
        };
        (ns, wrong)
    });
    (out.results[0].0, out.results[REMOTE_IMAGE - 1].1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_positive_and_pass_their_checks() {
        let sizes = Sizes {
            launches: 2,
            barriers: 5,
            copy_mib: 4,
            lock_pairs: 5,
            handoffs_per_image: 3,
            section_puts: 2,
        };
        for probe in ALL {
            let (value, wrong) = (probe.run)(&sizes);
            assert!(value > 0.0, "{}", probe.metric);
            assert_eq!(wrong, 0, "{}", probe.metric);
        }
    }
}
