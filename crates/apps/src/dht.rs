//! Distributed hash table benchmark (paper §V-C, Figure 9).
//!
//! "Each image will randomly access and update a sequence of entries in a
//! distributed hash table. In order to prevent simultaneous updates to the
//! same entry, some form of atomicity must be employed; this is achieved
//! using coarray locks."
//!
//! The table is a coarray of slots; a key hashes to (home image, slot);
//! updates take the CAF lock on the home image, read-modify-write the slot,
//! and release. The final table contents are deterministic given the seed
//! (sum of keys is order-independent), which the tests exploit.

use caf::{run_caf, Backend, CafConfig};
use openshmem::{AmHandler, AmTarget, ConduitError};
use pgas_machine::stats::StatsSnapshot;
use pgas_machine::Platform;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// How each image applies its updates to remote slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DhtUpdateMode {
    /// The paper's §V-C pattern: take the coarray lock on the home image,
    /// remote get–modify–put under it, unlock — four round trips per
    /// update.
    #[default]
    Locked,
    /// One active message per update: a registered handler performs the
    /// read-modify-write *at the home image*, atomic under the machine's
    /// apply section — one request wire transfer, no lock traffic.
    Am,
}

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct DhtConfig {
    pub slots_per_image: usize,
    pub updates_per_image: usize,
    pub seed: u64,
    /// Locks per image: 1 = a single lock guarding the whole image's
    /// partition (the paper's pattern); more reduces false contention.
    pub locks_per_image: usize,
    /// Locked get–modify–put vs. one active message per update. The final
    /// table is identical either way (the slot update is a commutative
    /// wrapping add), so the checksum oracle covers both.
    pub update: DhtUpdateMode,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            slots_per_image: 256,
            updates_per_image: 64,
            seed: 0xD47,
            locks_per_image: 1,
            update: DhtUpdateMode::Locked,
        }
    }
}

/// The AM-mode update handler: `arg` is `[slot offset, key]` as two
/// little-endian u64s; the slot gets `wrapping_add(key)` applied in place
/// at the home image. Target-side compute models the same hashing +
/// bookkeeping the locked path charges on the initiator.
struct DhtUpdateAm;

impl AmHandler for DhtUpdateAm {
    fn execute(&self, t: &mut AmTarget<'_>, arg: &[u8]) -> Option<Vec<u8>> {
        let off = u64::from_le_bytes(arg[0..8].try_into().expect("dht am arg")) as usize;
        let key = u64::from_le_bytes(arg[8..16].try_into().expect("dht am arg"));
        let v = t.read_u64(off);
        t.write_u64(off, v.wrapping_add(key));
        None
    }
}

/// Benchmark outcome.
#[derive(Debug, Clone, Copy)]
pub struct DhtResult {
    /// Virtual makespan in milliseconds (the paper's y axis).
    pub time_ms: f64,
    /// Wrapping sum of all table slots on *live* images (consistency
    /// check; equals the full-table sum on healthy runs).
    pub checksum: u64,
    pub updates_total: usize,
    /// Wrapping sum of the keys of every *acknowledged* update whose home
    /// image is still alive at the end of the run, across all images. On a
    /// healthy run this equals the oracle; under a PE-failure plan the
    /// zero-lost-acknowledged-writes invariant is `checksum == acked_sum`.
    pub acked_sum: u64,
    /// Updates abandoned because the home image was dead (the send
    /// surfaced `TargetFailed` / STAT_FAILED_IMAGE).
    pub skipped: usize,
    /// Machine counters for the whole job (fault/retry totals, lock leaks).
    pub stats: StatsSnapshot,
}

/// Wrapping sum of the keys each image generates — the oracle for the final
/// table checksum.
pub fn expected_checksum(images: usize, cfg: &DhtConfig) -> u64 {
    let mut sum = 0u64;
    for image in 1..=images {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (image as u64).wrapping_mul(0x9E37_79B9));
        for _ in 0..cfg.updates_per_image {
            sum = sum.wrapping_add(rng.gen::<u64>());
        }
    }
    sum
}

/// Run the DHT benchmark on `images` images.
pub fn run_dht(platform: Platform, backend: Backend, images: usize, cfg: DhtConfig) -> DhtResult {
    run_dht_outcome(platform, backend, images, cfg, true).0
}

/// [`run_dht`] exposing the raw simulation outcome, for traced probes. The
/// `bool` is ignored: it once opted into the NIC arbiter, which every run
/// now has.
pub fn run_dht_outcome(
    platform: Platform,
    backend: Backend,
    images: usize,
    cfg: DhtConfig,
    _deterministic_nic: bool,
) -> (DhtResult, pgas_machine::SimOutcome<(u64, u64, u64, u64)>) {
    let cores = 16.min(images);
    let nodes = images.div_ceil(cores);
    let heap = (cfg.slots_per_image * 8 + (1 << 16)).next_power_of_two();
    let mcfg = platform.config(nodes, cores).with_heap_bytes(heap);
    let caf_cfg = CafConfig::new(backend, platform).with_nonsym_bytes(4096);
    let out = run_caf(mcfg, caf_cfg, move |img| {
        let n = img.num_images();
        let table = img.coarray::<u64>(&[cfg.slots_per_image]).unwrap();
        let locks = img.lock_vars(cfg.locks_per_image);
        // Registered unconditionally (SPMD-symmetric) even in locked mode,
        // so both modes run over an identical context.
        let update_am = img.shmem().register_am(Rc::new(DhtUpdateAm));
        img.sync_all();
        let me = img.this_image();
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (me as u64).wrapping_mul(0x9E37_79B9));
        let t0 = img.shmem().ctx().pe().now();
        // Keys this image has successfully pushed, with their home image.
        // On a healthy run every key lands here; under a PE-failure plan an
        // update is *acknowledged* only once the send completed without a
        // failed-image stat.
        let mut sent: Vec<(usize, u64)> = Vec::with_capacity(cfg.updates_per_image);
        let mut skipped = 0usize;
        for _ in 0..cfg.updates_per_image {
            // Cooperative failure model: a scheduled failure kills the
            // simulated image, not the OS thread; resilient kernels poll at
            // update boundaries like Fortran code polls `stat=`.
            if img.this_image_failed() {
                break;
            }
            let key: u64 = rng.gen();
            let home = (key % n as u64) as usize + 1;
            let slot = ((key / n as u64) % cfg.slots_per_image as u64) as usize;
            // Clock-deterministic liveness probe (not the racy failure
            // flag), so which updates get skipped — and every clock the
            // skip saves — reproduces bit-identically under any worker
            // count.
            if img.image_dead_by_now(home) {
                skipped += 1;
                continue;
            }
            match cfg.update {
                DhtUpdateMode::Locked => {
                    let lock = &locks[slot % cfg.locks_per_image];
                    img.lock(lock, home);
                    // The stat-bearing accessors: on a healthy run they are
                    // the plain ops; under an injected fault plan they
                    // surface exhausted retries or a dead home image instead
                    // of panicking.
                    let v = table.get_elem_stat(img, home, &[slot]).expect("dht get");
                    table.put_elem_stat(img, home, &[slot], v.wrapping_add(key)).expect("dht put");
                    img.unlock(lock, home);
                    sent.push((home, key));
                }
                DhtUpdateMode::Am => {
                    let mut arg = [0u8; 16];
                    let off = table.ptr().at(slot).offset() as u64;
                    arg[0..8].copy_from_slice(&off.to_le_bytes());
                    arg[8..16].copy_from_slice(&key.to_le_bytes());
                    match img.shmem().try_am_send(img.pe_of(home), update_am, &arg) {
                        Ok(()) => sent.push((home, key)),
                        // The home died between the liveness probe and
                        // delivery: the update never applied, so it is not
                        // acknowledged — drop it instead of crashing.
                        Err(ConduitError::TargetFailed { .. }) => skipped += 1,
                        Err(e) => panic!("dht am update: {e:?}"),
                    }
                }
            }
            img.shmem().ctx().pe().compute_ops(20); // hashing + bookkeeping
        }
        img.sync_all();
        let elapsed = img.shmem().ctx().pe().now() - t0;
        // An acknowledged write counts only while its shard is reachable:
        // keys whose home image later died leave the live table with it.
        // Both guards are deterministic here — the failure flag is ordered
        // before the barrier exit, and the deadline probe is a pure
        // function of this image's (barrier-aligned) clock.
        let dead = |image: usize| img.image_failed(image) || img.image_dead_by_now(image);
        let acked: u64 =
            sent.iter().filter(|(home, _)| !dead(*home)).fold(0u64, |a, (_, k)| a.wrapping_add(*k));
        // Deterministic checksum: image 1 folds the live part of the table.
        let checksum = if me == 1 && !img.this_image_failed() {
            let mut sum = 0u64;
            for image in 1..=n {
                if dead(image) {
                    continue;
                }
                // The fold itself moves the clock, so a shard can cross its
                // scheduled deadline between the probe and the read — skip
                // it, exactly as the probe would have.
                if let Ok(vs) = table.get_from_stat(img, image) {
                    for v in vs {
                        sum = sum.wrapping_add(v);
                    }
                }
            }
            sum
        } else {
            0
        };
        img.sync_all();
        (elapsed, checksum, acked, skipped as u64)
    });
    let result = DhtResult {
        time_ms: out.results.iter().map(|r| r.0).max().unwrap_or(0) as f64 / 1e6,
        checksum: out.results[0].1,
        updates_total: images * cfg.updates_per_image,
        acked_sum: out.results.iter().fold(0u64, |a, r| a.wrapping_add(r.2)),
        skipped: out.results.iter().map(|r| r.3 as usize).sum(),
        stats: out.stats,
    };
    (result, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DhtConfig {
        DhtConfig { slots_per_image: 32, updates_per_image: 25, seed: 7, ..Default::default() }
    }

    #[test]
    fn table_checksum_matches_oracle() {
        for images in [1, 2, 5, 8] {
            let r = run_dht(Platform::Titan, Backend::Shmem, images, small());
            assert_eq!(r.checksum, expected_checksum(images, &small()), "images={images}");
            assert_eq!(r.updates_total, images * 25);
            assert!(r.time_ms > 0.0);
        }
    }

    #[test]
    fn checksum_holds_on_every_backend() {
        for backend in [Backend::Shmem, Backend::Gasnet, Backend::CrayCaf] {
            let r = run_dht(Platform::Titan, backend, 6, small());
            assert_eq!(r.checksum, expected_checksum(6, &small()), "{backend:?}");
        }
    }

    #[test]
    fn shmem_backend_is_fastest_like_figure9() {
        let shmem = run_dht(Platform::Titan, Backend::Shmem, 16, small()).time_ms;
        let gasnet = run_dht(Platform::Titan, Backend::Gasnet, 16, small()).time_ms;
        let cray = run_dht(Platform::Titan, Backend::CrayCaf, 16, small()).time_ms;
        assert!(shmem < gasnet, "SHMEM {shmem:.2} vs GASNet {gasnet:.2}");
        assert!(shmem < cray, "SHMEM {shmem:.2} vs Cray-CAF {cray:.2}");
    }

    #[test]
    fn more_locks_reduce_contention() {
        // Lock-queue order, and with it both virtual times, are a function
        // of the configuration alone.
        let time = |cfg: DhtConfig| run_dht(Platform::Titan, Backend::Shmem, 8, cfg).time_ms;
        let coarse = time(small());
        let fine = time(DhtConfig { locks_per_image: 8, ..small() });
        assert!(fine < coarse, "fine {fine:.2}ms vs coarse {coarse:.2}ms");
    }

    #[test]
    fn lock_handoffs_under_the_arbiter_are_woken_not_timed_out() {
        // One lock per image, eight images queueing on it: a run made of
        // handoffs, every one an unpark. There is no timeout to fall back
        // on: a wake owed and never sent stalls the job, and the run returns
        // an error instead of `Ok` (`run_dht_outcome` panics on one).
        let (r, out) = run_dht_outcome(Platform::Titan, Backend::Shmem, 8, small(), true);
        assert_eq!(r.checksum, expected_checksum(8, &small()));
        assert!(out.engine.fiber_switches > 0);
    }

    #[test]
    fn am_updates_match_the_oracle_and_the_locked_mode() {
        let am = DhtConfig { update: DhtUpdateMode::Am, ..small() };
        for images in [1, 2, 5, 8] {
            let r = run_dht(Platform::Titan, Backend::Shmem, images, am);
            assert_eq!(r.checksum, expected_checksum(images, &am), "images={images}");
            let locked = run_dht(Platform::Titan, Backend::Shmem, images, small());
            assert_eq!(r.checksum, locked.checksum, "modes agree, images={images}");
        }
    }

    #[test]
    fn am_updates_skip_the_lock_protocol_entirely() {
        let am = DhtConfig { update: DhtUpdateMode::Am, ..small() };
        let r = run_dht(Platform::Titan, Backend::Shmem, 8, am);
        assert_eq!(r.stats.ams, 8 * 25, "one active message per update");
        let locked = run_dht(Platform::Titan, Backend::Shmem, 8, small());
        assert!(
            r.time_ms < locked.time_ms,
            "am {:.3}ms vs locked {:.3}ms",
            r.time_ms,
            locked.time_ms
        );
    }

    #[test]
    fn different_seeds_give_different_tables() {
        let a = run_dht(Platform::Titan, Backend::Shmem, 2, small());
        let b = run_dht(Platform::Titan, Backend::Shmem, 2, DhtConfig { seed: 8, ..small() });
        assert_ne!(a.checksum, b.checksum);
    }
}
