//! Library-level put latency / bandwidth kernels (paper §III, Figures 2–3):
//! pairs of PEs on two nodes exercising one communication library directly.

use openshmem::{Shmem, ShmemConfig, SymPtr};
use pgas_conduit::ConduitProfile;
use pgas_machine::Platform;

/// A two-node pair benchmark: PEs `0..pairs` on node 0 each target the
/// corresponding PE on node 1 (the PGAS Microbenchmark suite's layout).
#[derive(Debug, Clone, Copy)]
pub struct PairBench {
    pub platform: Platform,
    pub profile: ConduitProfile,
    /// Concurrent pairs (1 = uncontended, 16 = the paper's contended case).
    pub pairs: usize,
    /// Repetitions per measurement.
    pub iters: usize,
}

impl PairBench {
    pub fn new(platform: Platform, profile: ConduitProfile, pairs: usize) -> PairBench {
        PairBench { platform, profile, pairs, iters: 20 }
    }

    fn machine(&self, size: usize) -> pgas_machine::MachineConfig {
        self.platform.config(2, self.pairs).with_heap_bytes((4 * size + 65536).next_power_of_two())
    }

    /// Run the pair pattern: each sender calls `f(shmem, buf, peer, data)`
    /// and the mean of the returned measurements is reported.
    fn run_senders(
        &self,
        size: usize,
        f: impl Fn(&Shmem<'_>, SymPtr<u8>, usize, &[u8]) -> f64 + Send + Sync,
    ) -> f64 {
        let pairs = self.pairs;
        let profile = self.profile;
        let out = pgas_machine::run(self.machine(size), move |pe| {
            let shmem = Shmem::new(pe, ShmemConfig::new(profile));
            let buf = shmem.shmalloc::<u8>(size).expect("bench buffer");
            let data = vec![0x5Au8; size];
            shmem.barrier_all();
            let result = if pe.id() < pairs {
                let peer = pe.id() + pairs;
                // Warm-up round.
                shmem.put(buf, &data, peer);
                shmem.quiet();
                shmem.barrier_all();
                Some(f(&shmem, buf, peer, &data))
            } else {
                shmem.barrier_all();
                None
            };
            shmem.barrier_all();
            result
        });
        let vals: Vec<f64> = out.results.into_iter().flatten().collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    }

    /// Blocking put latency in microseconds (put + quiet per iteration).
    pub fn put_latency_us(&self, size: usize) -> f64 {
        let iters = self.iters;
        self.run_senders(size, move |shmem, buf, peer, data| {
            let t0 = shmem.ctx().pe().now();
            for _ in 0..iters {
                shmem.put(buf, data, peer);
                shmem.quiet();
            }
            (shmem.ctx().pe().now() - t0) as f64 / iters as f64 / 1000.0
        })
    }

    /// Streaming put bandwidth in MB/s per pair (window of puts, then quiet).
    pub fn put_bandwidth_mbs(&self, size: usize) -> f64 {
        let iters = self.iters;
        let window = 16;
        self.run_senders(size, move |shmem, buf, peer, data| {
            let t0 = shmem.ctx().pe().now();
            for _ in 0..iters {
                for _ in 0..window {
                    shmem.put(buf, data, peer);
                }
                shmem.quiet();
            }
            let elapsed_ns = (shmem.ctx().pe().now() - t0) as f64;
            let bytes = (size * window * iters) as f64;
            bytes / elapsed_ns * 1e3 // bytes/ns -> MB/s
        })
    }

    /// Streaming get bandwidth in MB/s per pair (window of non-blocking
    /// gets, then quiet).
    pub fn get_bandwidth_mbs(&self, size: usize) -> f64 {
        let iters = self.iters;
        let window = 16;
        self.run_senders(size, move |shmem, buf, peer, data| {
            let mut sink = vec![0u8; data.len()];
            let t0 = shmem.ctx().pe().now();
            for _ in 0..iters {
                for _ in 0..window {
                    let mut out: Vec<u8> = std::mem::take(&mut sink);
                    shmem.get_nbi(buf, &mut out, peer);
                    sink = out;
                }
                shmem.quiet();
            }
            let elapsed_ns = (shmem.ctx().pe().now() - t0) as f64;
            (size * window * iters) as f64 / elapsed_ns * 1e3
        })
    }

    /// Bidirectional put bandwidth, MB/s per direction: both members of
    /// each pair stream simultaneously (the suite's "bibw" kernel).
    pub fn bi_bandwidth_mbs(&self, size: usize) -> f64 {
        let pairs = self.pairs;
        let profile = self.profile;
        let iters = self.iters;
        let window = 16;
        let out = pgas_machine::run(self.machine(size), move |pe| {
            let shmem = Shmem::new(pe, ShmemConfig::new(profile));
            let buf = shmem.shmalloc::<u8>(size).expect("bench buffer");
            let data = vec![0x3Cu8; size];
            let peer = if pe.id() < pairs { pe.id() + pairs } else { pe.id() - pairs };
            shmem.put(buf, &data, peer);
            shmem.quiet();
            shmem.barrier_all();
            let t0 = pe.now();
            for _ in 0..iters {
                for _ in 0..window {
                    shmem.put(buf, &data, peer);
                }
                shmem.quiet();
            }
            let elapsed_ns = (pe.now() - t0) as f64;
            shmem.barrier_all();
            (size * window * iters) as f64 / elapsed_ns * 1e3
        });
        out.results.iter().sum::<f64>() / out.results.len() as f64
    }

    /// Blocking get latency in microseconds.
    pub fn get_latency_us(&self, size: usize) -> f64 {
        let iters = self.iters;
        self.run_senders(size, move |shmem, buf, peer, data| {
            let mut sink = vec![0u8; data.len()];
            let t0 = shmem.ctx().pe().now();
            for _ in 0..iters {
                shmem.get(buf, &mut sink, peer);
            }
            (shmem.ctx().pe().now() - t0) as f64 / iters as f64 / 1000.0
        })
    }
}

/// The paper's message-size sweeps.
pub fn small_sizes() -> Vec<usize> {
    (0..=11).map(|k| 4usize << k).collect() // 4 B .. 8 KiB
}

pub fn large_sizes() -> Vec<usize> {
    (0..=7).map(|k| (16 * 1024) << k).collect() // 16 KiB .. 2 MiB
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(pairs: usize) -> PairBench {
        let mut b = PairBench::new(Platform::Stampede, ConduitProfile::mvapich_shmem(), pairs);
        b.iters = 5;
        b
    }

    #[test]
    fn latency_increases_with_size() {
        let b = bench(1);
        let small = b.put_latency_us(8);
        let large = b.put_latency_us(1 << 20);
        assert!(small > 0.0);
        assert!(large > 5.0 * small, "1 MiB {large} vs 8 B {small}");
    }

    #[test]
    fn bandwidth_grows_then_saturates() {
        let b = bench(1);
        let bw_small = b.put_bandwidth_mbs(64);
        let bw_large = b.put_bandwidth_mbs(1 << 20);
        assert!(bw_large > 4.0 * bw_small, "large {bw_large} small {bw_small}");
        // Saturation: within the wire limit.
        let wire_mbs = 6.0 * 1e3; // stampede 6 B/ns
        assert!(bw_large <= wire_mbs);
        assert!(bw_large >= 0.5 * wire_mbs, "large messages should approach the wire");
    }

    #[test]
    fn contention_reduces_per_pair_bandwidth() {
        // The per-pair split of FCFS queueing delay is emergent from
        // free-running PE threads, hence the wide band. Digest-stable
        // contention lives in the deterministic-NIC bench probes, not here.
        let one = bench(1).put_bandwidth_mbs(256 * 1024);
        let sixteen = bench(16).put_bandwidth_mbs(256 * 1024);
        let ratio = one / sixteen;
        assert!(ratio > 8.0 && ratio < 32.0, "16-pair contention ratio {ratio}");
    }

    #[test]
    fn shmem_beats_mpi3_at_small_sizes() {
        let shmem = bench(1).put_latency_us(8);
        let mut mpi =
            PairBench::new(Platform::Stampede, ConduitProfile::mpi3(Platform::Stampede), 1);
        mpi.iters = 5;
        let mpi_lat = mpi.put_latency_us(8);
        assert!(mpi_lat > shmem, "MPI-3 {mpi_lat} vs SHMEM {shmem}");
    }

    #[test]
    fn get_latency_exceeds_put_latency() {
        let b = bench(1);
        assert!(b.get_latency_us(8) > b.put_latency_us(8));
    }

    #[test]
    fn nbi_get_bandwidth_beats_blocking_get_latency_bound() {
        let b = bench(1);
        // Small messages: blocking gets are round-trip-bound, nbi pipelines.
        let size = 256;
        let bw = b.get_bandwidth_mbs(size);
        let blocking_bound = size as f64 / (b.get_latency_us(size) * 1000.0) * 1e3;
        assert!(bw > 2.0 * blocking_bound, "pipelined {bw:.0} vs blocking {blocking_bound:.0}");
    }

    #[test]
    fn bidirectional_bandwidth_is_full_duplex() {
        let b = bench(1);
        let size = 256 * 1024;
        let uni = b.put_bandwidth_mbs(size);
        let bi = b.bi_bandwidth_mbs(size);
        // The link is full duplex: each direction sustains (about) the
        // unidirectional rate, so the aggregate doubles.
        let ratio = bi / uni;
        assert!(
            (0.9..=1.01).contains(&ratio),
            "per-direction {bi:.0} vs unidirectional {uni:.0} (ratio {ratio:.3})"
        );
    }

    #[test]
    fn single_pair_measurements_are_deterministic() {
        // With one actor per NIC the virtual-time model has no races: two
        // runs must agree to the nanosecond.
        let b = bench(1);
        for size in [8usize, 4096, 1 << 18] {
            assert_eq!(
                b.put_latency_us(size).to_bits(),
                b.put_latency_us(size).to_bits(),
                "latency at {size}"
            );
            assert_eq!(
                b.put_bandwidth_mbs(size).to_bits(),
                b.put_bandwidth_mbs(size).to_bits(),
                "bandwidth at {size}"
            );
        }
    }

    #[test]
    fn size_sweeps_are_sorted_and_disjoint() {
        let s = small_sizes();
        let l = large_sizes();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(l.windows(2).all(|w| w[0] < w[1]));
        assert!(s.last().unwrap() < l.first().unwrap());
    }
}
