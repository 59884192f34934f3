//! Availability under churn: a DHT-style serving workload that survives a
//! scheduled image failure by re-forming its team and reclaiming capacity.
//!
//! The run models ROADMAP item 5's recovery cycle end to end. `images - 1`
//! *worker* images serve rounds of active-message updates against a sharded
//! table (one shard per worker), while the last image idles as a *spare*.
//! When a scheduled `FaultPlan` failure kills a worker mid-round, the
//! survivors observe it at the round boundary (`sync all` with `stat=`),
//! re-form the worker team together with the spare (`form team` — the dead
//! image is excluded, the spare joins in its place), reassign the dead
//! image's shards to the newcomer, and *replay* every update whose home
//! moved from each writer's journal. Serving then resumes at full strength:
//! the run reclaims throughput instead of degrading permanently.
//!
//! Two invariants anchor the tests and the `availability_churn` figure:
//!
//! * **Zero lost acknowledged writes** — the final live-table checksum
//!   equals the wrapping key sum of every update whose latest acknowledged
//!   home is still alive at the end of the run (survivor journals are
//!   replayed onto the replacement, so after recovery that is *every*
//!   update a survivor ever acknowledged).
//! * **Throughput reclaim** — the post-recovery rounds sustain ≥ 90% of
//!   the pre-failure round throughput (`ChurnResult::recovery_ratio`).
//!
//! Every resilience decision branches on clock-deterministic predicates
//! (`image_dead_by_now`, post-barrier failure flags), so a fixed seed and
//! plan reproduce the whole cycle bit-identically on any host schedule.

use crate::kv::{self, Rec, Shards};
use caf::{run_caf, Backend, CafConfig};
use openshmem::ConduitError;
use pgas_machine::stats::StatsSnapshot;
use pgas_machine::Platform;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// Workload parameters. `images - 1` workers serve; the last image is the
/// spare that rejoins after a failure.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// `u64` slots in each worker's shard of the table.
    pub slots_per_shard: usize,
    /// Updates each serving image issues per round.
    pub updates_per_round: usize,
    /// Serving rounds, each closed by a stat-bearing synchronization.
    pub rounds: usize,
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig { slots_per_shard: 64, updates_per_round: 8, rounds: 8, seed: 0xC802 }
    }
}

/// One aggregated serving round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStat {
    /// Virtual time at the round's closing synchronization (including any
    /// recovery work the boundary triggered), ns.
    pub end_ns: u64,
    /// Virtual duration of the round, ns.
    pub duration_ns: u64,
    /// Updates acknowledged across all images this round.
    pub updates: u64,
    /// Images that served the round (the availability series).
    pub serving: usize,
}

/// Outcome of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// Per-round aggregates, in order (the figure's x axis).
    pub rounds: Vec<RoundStat>,
    /// Wrapping sum of all live shards at the end of the run.
    pub checksum: u64,
    /// Wrapping key sum of every update whose latest acknowledged home is
    /// alive at the end — `checksum == acked_sum` is the zero-lost-
    /// acknowledged-writes invariant.
    pub acked_sum: u64,
    /// Journal entries re-sent to a reassigned shard during recovery.
    pub replayed: u64,
    /// Updates that failed against the dying image and were retried against
    /// its replacement during recovery.
    pub retried: u64,
    /// Round whose boundary observed the failure and ran the recovery
    /// (`None` on a healthy run).
    pub detect_round: Option<usize>,
    /// Mean round throughput before the failure, updates per µs.
    pub pre_tput: f64,
    /// Mean round throughput after recovery completed, updates per µs.
    pub post_tput: f64,
    /// `post_tput / pre_tput`; 1.0 on a healthy run. Acceptance bar: ≥ 0.9.
    pub recovery_ratio: f64,
    /// Worker-team membership at the end of the run (1-based image ids).
    pub members_after: Vec<usize>,
    /// Virtual makespan in milliseconds.
    pub time_ms: f64,
    pub stats: StatsSnapshot,
}

/// Wrapping sum of the keys the workers generate over a full healthy run —
/// the oracle for the final table checksum when nothing fails.
pub fn expected_checksum(workers: usize, cfg: &ChurnConfig) -> u64 {
    kv::key_sum(cfg.seed, workers, cfg.rounds * cfg.updates_per_round)
}

/// Per-image raw outcome, aggregated by the host after the run.
type ImageOut = (Vec<(u64, u64, bool)>, u64, u64, u64, u64, u64, Vec<usize>);

/// Run the churn workload on `images` images (`images - 1` workers plus one
/// spare).
pub fn run_churn(
    platform: Platform,
    backend: Backend,
    images: usize,
    cfg: ChurnConfig,
) -> ChurnResult {
    run_churn_outcome(platform, backend, images, cfg).0
}

/// [`run_churn`] exposing the raw simulation outcome, for traced probes.
pub fn run_churn_outcome(
    platform: Platform,
    backend: Backend,
    images: usize,
    cfg: ChurnConfig,
) -> (ChurnResult, pgas_machine::SimOutcome<ImageOut>) {
    assert!(images >= 3, "churn needs at least two workers and a spare");
    let mcfg = crate::job_machine(platform, images, cfg.slots_per_shard * 8 + (1 << 16));
    let caf_cfg = CafConfig::new(backend, platform).with_nonsym_bytes(4096);
    let out = run_caf(mcfg, caf_cfg, move |img| {
        let w = img.num_images() - 1; // fixed shard count = initial worker count
        let me = img.this_image();
        let table = img.coarray::<u64>(&[cfg.slots_per_shard]).unwrap();
        let update_am = img.shmem().register_am(Rc::new(kv::UpdateAm));
        let send = |home: usize, key: u64| -> Result<(), ConduitError> {
            let slot = ((key / w as u64) % cfg.slots_per_shard as u64) as usize;
            kv::am_update(img, &table, update_am, home, slot, key)
        };
        let mut shards = Shards::form(img, w);
        let mut rng = SmallRng::seed_from_u64(kv::key_seed(cfg.seed, me));
        let mut recs: Vec<Rec> = Vec::new();
        let mut pending: Vec<(usize, u64)> = Vec::new();
        let mut rounds_log: Vec<(u64, u64, bool)> = Vec::with_capacity(cfg.rounds);
        let (mut replayed, mut retried) = (0u64, 0u64);
        // Request-id sequence for tail attribution: each direct update is a
        // tracked request (arrival == begin: churn updates are closed-loop,
        // they never queue behind an open-loop schedule).
        let (pe, my_pe) = (img.shmem().ctx().pe(), img.pe_of(me));
        let tracer = pe.machine().tracer();
        let mut seq = 0u64;
        let mut detect_round = u64::MAX;
        img.sync_all();
        for round in 0..cfg.rounds {
            if img.this_image_failed() {
                break;
            }
            let serving = shards.serving(me);
            let mut done = 0u64;
            if serving {
                // Serve under the team scope: every update is attributed to
                // the worker team in the sanitizer/metrics/flow traces, and
                // the construct's implicit `sync team` pair keeps the
                // workers in step even while the spare idles outside.
                img.change_team(&shards.team, || {
                    for _ in 0..cfg.updates_per_round {
                        // Cooperative failure model: the scheduled failure
                        // kills the simulated image, not the OS thread, so
                        // the victim bows out at an update boundary.
                        if img.this_image_failed() {
                            break;
                        }
                        let key: u64 = rng.gen();
                        let shard = (key % w as u64) as usize;
                        let home = shards.map[shard];
                        // Clock-deterministic liveness probe: which updates
                        // get parked (and every ns the skip saves) must
                        // reproduce bit-identically on any host schedule.
                        if img.image_dead_by_now(home) {
                            pending.push((shard, key));
                            continue;
                        }
                        seq += 1;
                        let begin = pe.now();
                        tracer.begin_request(my_pe, ((me as u64) << 32) | seq, begin, begin);
                        match send(home, key) {
                            Ok(()) => {
                                recs.push(Rec { shard, key, owner: home });
                                done += 1;
                            }
                            // Died between the probe and delivery: park the
                            // update for the recovery replay.
                            Err(ConduitError::TargetFailed { .. }) => pending.push((shard, key)),
                            Err(e) => panic!("churn update: {e:?}"),
                        }
                        pe.compute_ops(20); // hashing
                        tracer.end_request(my_pe, pe.now());
                    }
                });
            }
            if img.this_image_failed() {
                break;
            }
            if let Some(n) = shards.boundary(img, &mut recs, |home, key| send(home, key).is_ok()) {
                detect_round = round as u64;
                replayed += n;
                // The updates that failed against the dying image drain onto
                // the new map.
                for (shard, key) in pending.drain(..) {
                    let home = shards.map[shard];
                    if send(home, key).is_ok() {
                        recs.push(Rec { shard, key, owner: home });
                        retried += 1;
                    }
                }
                img.sync_team(&shards.team);
            }
            rounds_log.push((pe.now(), done, serving));
        }
        shards.complete(img);
        let (acked, checksum) = kv::settle(img, &table, recs.iter().map(|r| (r.owner, r.key)));
        shards.complete(img);
        let members = if me == 1 { shards.team.members().to_vec() } else { Vec::new() };
        (rounds_log, acked, replayed, retried, detect_round, checksum, members)
    });
    let result = aggregate(&out);
    (result, out)
}

/// Fold the per-image raw outcomes into a [`ChurnResult`].
fn aggregate(out: &pgas_machine::SimOutcome<ImageOut>) -> ChurnResult {
    let n_rounds = out.results.iter().map(|r| r.0.len()).max().unwrap_or(0);
    let mut rounds = Vec::with_capacity(n_rounds);
    let mut prev_end = None::<u64>;
    for k in 0..n_rounds {
        let end = out.results.iter().filter_map(|r| r.0.get(k)).map(|&(e, _, _)| e).max().unwrap();
        let updates: u64 = out.results.iter().filter_map(|r| r.0.get(k)).map(|&(_, d, _)| d).sum();
        let serving = out.results.iter().filter_map(|r| r.0.get(k)).filter(|&&(_, _, s)| s).count();
        let duration = match prev_end {
            Some(p) => end.saturating_sub(p),
            // The first round's start is not logged; charge it the mean of
            // the later rounds once known (patched below).
            None => 0,
        };
        prev_end = Some(end);
        rounds.push(RoundStat { end_ns: end, duration_ns: duration, updates, serving });
    }
    let detect = out.results.iter().map(|r| r.4).filter(|&d| d != u64::MAX).min();
    if rounds.len() > 1 {
        // Patch round 0 from the steady-state rounds only: the detection
        // round absorbs the dead-target timeout chain, and smearing that
        // outlier into round 0 would poison the pre-failure throughput.
        let steady: Vec<u64> = rounds
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(k, _)| detect != Some(*k as u64))
            .map(|(_, r)| r.duration_ns)
            .collect();
        if !steady.is_empty() {
            rounds[0].duration_ns = steady.iter().sum::<u64>() / steady.len() as u64;
        }
    }
    let tput = |slice: &[RoundStat]| {
        let updates: u64 = slice.iter().map(|r| r.updates).sum();
        let ns: u64 = slice.iter().map(|r| r.duration_ns).sum();
        if ns == 0 {
            0.0
        } else {
            updates as f64 / (ns as f64 / 1e3)
        }
    };
    let (pre, post) = match detect {
        Some(d) => {
            let d = d as usize;
            (tput(&rounds[..d.min(rounds.len())]), tput(&rounds[(d + 1).min(rounds.len())..]))
        }
        None => (tput(&rounds), tput(&rounds)),
    };
    ChurnResult {
        checksum: out.results[0].5,
        acked_sum: out.results.iter().fold(0u64, |a, r| a.wrapping_add(r.1)),
        replayed: out.results.iter().map(|r| r.2).sum(),
        retried: out.results.iter().map(|r| r.3).sum(),
        detect_round: detect.map(|d| d as usize),
        pre_tput: pre,
        post_tput: post,
        recovery_ratio: if pre > 0.0 { post / pre } else { 1.0 },
        members_after: out.results[0].6.clone(),
        time_ms: rounds.last().map(|r| r.end_ns).unwrap_or(0) as f64 / 1e6,
        rounds,
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_machine::{with_forced_aggregation, with_forced_plan, FaultPlan};

    /// The calibrated failure scenario used by the tests and the
    /// `availability_churn` probe: 8 workers + 1 spare, worker image 5
    /// (PE 4) dies at 30 µs — mid round 3's generation of the default
    /// config's ~61 µs healthy makespan, so the dip is visible in the
    /// round stats and some of its traffic is caught in flight.
    fn failure_plan(cfg: &ChurnConfig) -> FaultPlan {
        FaultPlan::new(cfg.seed).with_pe_failure(4, 30_000)
    }

    fn run(plan: FaultPlan, cfg: ChurnConfig) -> ChurnResult {
        with_forced_aggregation(true, || {
            with_forced_plan(plan, || run_churn(Platform::Titan, Backend::Shmem, 9, cfg))
        })
    }

    #[test]
    fn healthy_run_matches_the_oracle() {
        let cfg = ChurnConfig::default();
        let r = run(FaultPlan::new(cfg.seed), cfg);
        assert_eq!(r.checksum, expected_checksum(8, &cfg), "full table matches the key oracle");
        assert_eq!(r.checksum, r.acked_sum, "every acknowledged write is in the table");
        assert_eq!(r.detect_round, None);
        assert_eq!(r.recovery_ratio, 1.0);
        assert_eq!(r.replayed + r.retried, 0);
        assert!(r.rounds.iter().all(|rd| rd.serving == 8), "all workers serve every round");
        assert_eq!(r.stats.pe_failures, 0);
    }

    #[test]
    fn failure_recovers_capacity_with_zero_lost_acked_writes() {
        let cfg = ChurnConfig::default();
        let r = run(failure_plan(&cfg), cfg);
        assert_eq!(r.stats.pe_failures, 1, "the scheduled failure fired: {:?}", r.stats);
        let detect = r.detect_round.expect("the failure was observed at a round boundary");
        assert_eq!(
            r.checksum, r.acked_sum,
            "zero lost acknowledged writes: the live table holds exactly the acked keys"
        );
        assert_ne!(r.checksum, expected_checksum(8, &cfg), "the victim's tail really is gone");
        assert_eq!(
            r.members_after,
            vec![1, 2, 3, 4, 6, 7, 8, 9],
            "re-formation dropped image 5 and admitted the spare"
        );
        assert!(r.replayed > 0, "the dead image's shard was redistributed from writer journals");
        assert_eq!(r.rounds[detect].serving, 7, "availability dips by one in the detection round");
        assert!(
            r.rounds[detect + 1..].iter().all(|rd| rd.serving == 8),
            "the spare serves from the round after recovery"
        );
        assert!(
            r.recovery_ratio >= 0.9,
            "post-recovery throughput reclaims ≥ 90% of pre-failure: {:.3} (pre {:.3}/µs, post {:.3}/µs)",
            r.recovery_ratio,
            r.pre_tput,
            r.post_tput
        );
        assert_eq!(r.stats.lock_leaks, 0);
    }

    #[test]
    fn recovery_cycle_is_deterministic_across_repeated_runs() {
        // The NIC arbiter pins the grant order; the claim under test is that
        // the host schedule then has no way to leak into the recovery
        // timeline.
        let cfg = ChurnConfig::default();
        let det = || {
            with_forced_aggregation(true, || {
                with_forced_plan(failure_plan(&cfg), || {
                    run_churn(Platform::Titan, Backend::Shmem, 9, cfg)
                })
            })
        };
        let a = det();
        for _ in 0..2 {
            let b = det();
            assert_eq!(a.rounds, b.rounds, "same plan, same timeline, bit for bit");
            assert_eq!(a.checksum, b.checksum);
            assert_eq!(a.acked_sum, b.acked_sum);
            assert_eq!(
                (a.replayed, a.retried, a.detect_round),
                (b.replayed, b.retried, b.detect_round)
            );
        }
    }

    /// Satellite 6: the push-consumer hook on the snapshot stream feeds a
    /// live availability series — an external dashboard subscribes and
    /// watches the live-image count drop when the scheduled failure fires,
    /// without moving a single virtual clock.
    #[test]
    fn stream_consumer_observes_the_availability_drop() {
        use pgas_machine::{with_forced_stream, StreamConfig, StreamSample};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let cfg = ChurnConfig::default();
        let deadline = 30_000u64;
        let victim_pe = 4usize;
        let samples = Arc::new(AtomicUsize::new(0));
        let min_live = Arc::new(AtomicUsize::new(usize::MAX));
        let max_live = Arc::new(AtomicUsize::new(0));
        let (s, lo, hi) = (Arc::clone(&samples), Arc::clone(&min_live), Arc::clone(&max_live));
        let stream =
            StreamConfig::new(2_000, 512).with_consumer(Arc::new(move |sample: &StreamSample| {
                // The availability series: a PE whose clock crossed the
                // scheduled deadline is down; everyone else is up.
                let live = sample
                    .clocks
                    .iter()
                    .enumerate()
                    .filter(|&(pe, &clk)| !(pe == victim_pe && clk >= deadline))
                    .count();
                s.fetch_add(1, Ordering::Relaxed);
                lo.fetch_min(live, Ordering::Relaxed);
                hi.fetch_max(live, Ordering::Relaxed);
            }));
        let r = with_forced_stream(stream.clone(), || run(failure_plan(&cfg), cfg));
        assert_eq!(r.stats.pe_failures, 1);
        assert!(samples.load(Ordering::Relaxed) > 0, "the consumer saw samples");
        assert_eq!(max_live.load(Ordering::Relaxed), 9, "all images up before the failure");
        assert_eq!(min_live.load(Ordering::Relaxed), 8, "the drop is visible in the stream");
        assert_eq!(stream.consumer_count(), 1);
    }

    #[test]
    fn traced_updates_tile_into_request_paths() {
        use pgas_machine::tailprof::ReqPhase;
        use pgas_machine::with_forced_tracing;
        let cfg = ChurnConfig::default();
        let (r, out) = with_forced_tracing(true, || {
            with_forced_aggregation(true, || {
                with_forced_plan(failure_plan(&cfg), || {
                    run_churn_outcome(Platform::Titan, Backend::Shmem, 9, cfg)
                })
            })
        });
        assert_eq!(r.stats.pe_failures, 1);
        let paths = out.req_paths();
        assert!(!paths.is_empty(), "every direct update is a tracked request");
        for p in &paths {
            // Closed-loop updates: arrival == begin, so queue-wait is zero
            // and the phase tiling covers the whole service time exactly.
            assert_eq!(p.phase_ns[ReqPhase::QueueWait as usize], 0, "{p:?}");
            assert_eq!(p.phase_ns.iter().sum::<u64>(), p.total_ns(), "tiling is exact: {p:?}");
        }
        // Request ids encode (image, seq): every surviving worker shows up.
        let images: std::collections::BTreeSet<u64> = paths.iter().map(|p| p.id >> 32).collect();
        assert!(images.len() >= 7, "surviving workers all issued updates: {images:?}");
    }
}
