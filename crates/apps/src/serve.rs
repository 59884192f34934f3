//! Open-loop serving workload: Poisson arrivals in virtual time, Zipfian
//! keys, and a read/write mix over the sharded DHT table, surviving the
//! churn app's failure cycle.
//!
//! The generator is *open-loop*: every request has an absolute virtual
//! arrival time drawn from a single global Poisson process dealt
//! round-robin across the workers, fixed before the run ever
//! touches the network. A worker whose clock lags its schedule serves a
//! backlog — the request's queueing delay (`begin - arrival`) is real and
//! unbounded, exactly the regime closed-loop benchmarks (issue one request,
//! wait, issue the next) structurally cannot produce. A worker ahead of its
//! schedule idles forward to the next arrival instead of inventing load.
//!
//! Keys are Zipfian over a logical keyspace of up to millions of entries
//! (rejection-inversion sampling, no O(N) table), scrambled through a
//! 64-bit mixer for placement so the hot keys contend on slots, not on a
//! single accidental home shard pattern. Writes drive the DHT in either of
//! its two update modes (locked get–modify–put or one active message);
//! reads are one-sided stat-bearing gets.
//!
//! Failure handling is the churn app's cycle (the `kv` module's recovery
//! state): `images - 1` workers serve, one spare idles; a scheduled image
//! death is observed at an epoch boundary via clock-deterministic probes,
//! the team re-forms with the spare, the dead shard is reassigned, writer
//! journals replay, and every request parked against the dying home
//! *drains* — completing with its original arrival time, so the outage
//! shows up as a latency spike in the windowed series, not as silent loss.
//!
//! Every completion lands in the machine's windowed metrics
//! (`serve_latency_ns`, `serve_queue_ns`, `serve_requests`) keyed by the
//! completion instant, which is what the SLO layer's burn-rate windows and
//! the `serving_slo` figure consume. Under tracing, request markers thread
//! request ids through every span for per-request latency decomposition.

use caf::{run_caf, Backend, CafConfig};
use openshmem::ConduitError;
use pgas_machine::slo::{SloReport, SloSpec};
use pgas_machine::stats::StatsSnapshot;
use pgas_machine::tailprof::{TailAttribution, DEFAULT_EXEMPLARS};
use pgas_machine::Platform;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;
use std::sync::Arc;

use crate::dht::DhtUpdateMode;
use crate::kv::{self, Rec, Shards};

/// Open-loop workload parameters. `images - 1` workers generate and serve
/// requests; the last image is the spare that owns reassigned shards after
/// a failure (it generates no load of its own).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Logical Zipfian keyspace (millions at figure scale); keys are
    /// scrambled for placement, so this is independent of table size.
    pub keyspace: u64,
    /// Zipf exponent `s` (> 0): 0.9–1.2 is the classic serving skew.
    pub zipf_exponent: f64,
    /// Fraction of requests that are reads, in [0, 1].
    pub read_fraction: f64,
    /// Mean Poisson inter-arrival gap per worker, virtual ns.
    pub mean_gap_ns: f64,
    /// Requests each worker admits over the whole run.
    pub requests_per_image: usize,
    /// Epochs: collective boundaries where failures are observed and the
    /// team re-forms. Requests are spread evenly across epochs.
    pub epochs: usize,
    /// `u64` slots in each worker's shard of the table.
    pub slots_per_shard: usize,
    pub seed: u64,
    /// How writes hit the table: locked get–modify–put or one AM.
    pub mode: DhtUpdateMode,
    /// Virtual-time metrics window (0 disables the windowed series).
    pub window_ns: u64,
    /// SLO: latency threshold a request must beat...
    pub slo_threshold_ns: u64,
    /// ...for this fraction of requests (e.g. 0.99).
    pub slo_objective: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            keyspace: 100_000,
            zipf_exponent: 1.1,
            read_fraction: 0.5,
            mean_gap_ns: 2_500.0,
            requests_per_image: 64,
            epochs: 4,
            slots_per_shard: 256,
            seed: 0x5E21,
            mode: DhtUpdateMode::Am,
            window_ns: 10_000,
            slo_threshold_ns: 20_000,
            slo_objective: 0.99,
        }
    }
}

impl ServeConfig {
    /// The SLO this workload is served under, ready for
    /// [`SloSpec::evaluate`] against the run's metrics snapshot.
    pub fn slo_spec(&self) -> SloSpec {
        SloSpec::new("serve-latency", "serve_latency_ns", self.slo_threshold_ns, self.slo_objective)
    }
}

// ---------------------------------------------------------------------------
// Request stream: Poisson arrivals + Zipfian keys + read/write mix. One
// deterministic stream per image, shared between the image closure and the
// host-side oracle so the two can never drift.
// ---------------------------------------------------------------------------

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqSpec {
    /// Absolute virtual arrival time, ns.
    pub arrival_ns: u64,
    /// Logical key in `1..=keyspace`, Zipf-distributed.
    pub key: u64,
    /// Write (apply `key` to the slot) vs. read (fetch the slot).
    pub write: bool,
}

/// SplitMix64 finalizer: scrambles a Zipfian key into a placement hash so
/// hot keys spread across shards while still colliding on *their* slot.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `∫₁ˣ y⁻ˢ dy` with `t = 1 - s`, stable through `s = 1` via `exp_m1`.
fn h_integral(x: f64, t: f64) -> f64 {
    let lx = x.ln();
    if t.abs() < 1e-9 {
        lx
    } else {
        (t * lx).exp_m1() / t
    }
}

/// Inverse of [`h_integral`], stable through `s = 1` via `ln_1p`.
fn h_integral_inv(v: f64, t: f64) -> f64 {
    if t.abs() < 1e-9 {
        v.exp()
    } else {
        ((t * v).ln_1p() / t).exp()
    }
}

/// Zipf sampler over `1..=n` with exponent `s`, by rejection-inversion
/// (Hörmann & Derflinger): O(1) state, no harmonic-number table, so the
/// keyspace can be millions of entries without a setup cost.
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: f64,
    s: f64,
    t: f64,
    hi_x1: f64,
    hi_n: f64,
    cutoff: f64,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Zipf {
        assert!(n >= 1, "zipf needs a non-empty keyspace");
        assert!(s > 0.0, "zipf exponent must be positive");
        let t = 1.0 - s;
        let nf = n as f64;
        Zipf {
            n: nf,
            s,
            t,
            hi_x1: h_integral(1.5, t) - 1.0,
            hi_n: h_integral(nf + 0.5, t),
            cutoff: 2.0 - h_integral_inv(h_integral(2.5, t) - (-s * 2f64.ln()).exp(), t),
        }
    }

    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        loop {
            let u = self.hi_n + rng.gen::<f64>() * (self.hi_x1 - self.hi_n);
            let x = h_integral_inv(u, self.t);
            let k = (x + 0.5).floor().clamp(1.0, self.n);
            if k - x <= self.cutoff || u >= h_integral(k + 0.5, self.t) - (-self.s * k.ln()).exp() {
                return k as u64;
            }
        }
    }
}

/// The per-image request stream: a pure function of
/// `(seed, image, workers)`, so the host-side oracle can replay exactly
/// what the image admitted.
///
/// Arrivals come from ONE global Poisson process at rate
/// `workers / mean_gap_ns`, seeded by `cfg.seed` alone so every image
/// draws the identical stream, dealt round-robin: image `i` takes global
/// events `i-1, i-1+W, i-1+2W, …`. Per-image *independent* Poisson
/// schedules are random walks whose cumulative clocks drift apart like
/// `gap·√n`; every epoch barrier then syncs all clocks to the furthest
/// schedule and the laggards admit a burst of already-late requests — a
/// latency spike that grows with run length and has nothing to do with
/// load. Slicing a single stream keeps the per-image mean gap at
/// `mean_gap_ns` (every W-th event of a rate-`W/gap` process is
/// Erlang-W) while pinning all schedules in lockstep, so epoch-boundary
/// resync is bounded by a few gaps rather than the walk spread. Keys and
/// the read/write mix still come from a per-image RNG.
pub struct RequestGen {
    /// Per-image draws: Zipfian key + read/write Bernoulli.
    rng: SmallRng,
    arrivals: Arrivals,
    zipf: Zipf,
    read_fraction: f64,
    /// Global gaps to consume before this image's next event: `image` for
    /// the first request (event index `image - 1`), `workers` after.
    pending: usize,
    stride: usize,
}

/// The shared global arrival stream — same seed on every image, mean gap
/// `mean_gap_ns / workers`.
struct ArrivalStream {
    rng: SmallRng,
    clock_ns: f64,
    gap_ns: f64,
}

impl ArrivalStream {
    fn new(cfg: &ServeConfig, workers: usize) -> ArrivalStream {
        ArrivalStream {
            rng: SmallRng::seed_from_u64(cfg.seed.wrapping_mul(0xA076_1D64_78BD_642F)),
            clock_ns: 0.0,
            gap_ns: cfg.mean_gap_ns / workers.max(1) as f64,
        }
    }

    /// Consume `gaps` exponential gaps; the arrival clock they lead to.
    fn skip(&mut self, gaps: usize) -> u64 {
        for _ in 0..gaps {
            self.clock_ns += -self.gap_ns * (1.0 - self.rng.gen::<f64>()).ln();
        }
        self.clock_ns as u64
    }
}

/// Where a [`RequestGen`] reads the global stream from.
enum Arrivals {
    /// Its own copy, drawn as it goes: `workers` gaps per request.
    Drawn(ArrivalStream),
    /// The run's [`global_arrivals`] table, `at` gaps consumed so far.
    Shared { clocks: Arc<[u64]>, at: usize },
}

/// The global arrival stream of a whole run, drawn once: element `k` is the
/// arrival clock after `k` gaps, for every gap `workers` images admitting
/// `cfg.requests_per_image` requests each consume. The same RNG and the same
/// order of `f64` additions as a self-contained [`RequestGen`], so every
/// clock is bit-identical to the one each image would draw for itself.
pub fn global_arrivals(cfg: &ServeConfig, workers: usize) -> Arc<[u64]> {
    let mut stream = ArrivalStream::new(cfg, workers);
    let gaps = workers.max(1) * cfg.requests_per_image;
    std::iter::once(0).chain((0..gaps).map(|_| stream.skip(1))).collect()
}

impl RequestGen {
    pub fn new(cfg: &ServeConfig, image: usize, workers: usize) -> RequestGen {
        let w = workers.max(1);
        RequestGen {
            rng: SmallRng::seed_from_u64(kv::key_seed(cfg.seed, image)),
            arrivals: Arrivals::Drawn(ArrivalStream::new(cfg, w)),
            zipf: Zipf::new(cfg.keyspace, cfg.zipf_exponent),
            read_fraction: cfg.read_fraction,
            pending: image.min(w),
            stride: w,
        }
    }

    /// [`RequestGen::new`] striding through `clocks` =
    /// [`global_arrivals`]`(cfg, workers)` instead of re-drawing the global
    /// stream: the same requests for `workers` fewer `ln()` each. Good for
    /// `cfg.requests_per_image` requests, the table's extent.
    pub fn sharing(
        cfg: &ServeConfig,
        image: usize,
        workers: usize,
        clocks: Arc<[u64]>,
    ) -> RequestGen {
        RequestGen {
            arrivals: Arrivals::Shared { clocks, at: 0 },
            ..RequestGen::new(cfg, image, workers)
        }
    }

    /// Next scheduled request: this image's next slice of the global
    /// exponential-gap stream, Zipfian key, Bernoulli read/write. Draw
    /// order within each RNG is part of the determinism contract.
    pub fn next_req(&mut self) -> ReqSpec {
        let arrival_ns = match &mut self.arrivals {
            Arrivals::Drawn(stream) => stream.skip(self.pending),
            Arrivals::Shared { clocks, at } => {
                *at += self.pending;
                clocks[*at]
            }
        };
        self.pending = self.stride;
        let key = self.zipf.sample(&mut self.rng);
        let write = self.rng.gen::<f64>() >= self.read_fraction;
        ReqSpec { arrival_ns, key, write }
    }
}

/// Wrapping key sum of every *write* the workers generate over a healthy
/// run — the oracle for the final table checksum when nothing fails.
pub fn expected_write_sum(workers: usize, cfg: &ServeConfig) -> u64 {
    let mut sum = 0u64;
    for image in 1..=workers {
        let mut gen = RequestGen::new(cfg, image, workers);
        for _ in 0..cfg.requests_per_image {
            let spec = gen.next_req();
            if spec.write {
                sum = sum.wrapping_add(spec.key);
            }
        }
    }
    sum
}

// ---------------------------------------------------------------------------
// The workload.
// ---------------------------------------------------------------------------

/// One epoch's aggregate across the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochStat {
    /// Virtual time at the epoch's closing synchronization, ns.
    pub end_ns: u64,
    /// Requests completed across all images this epoch.
    pub completed: u64,
    /// Images generating load this epoch (the availability series).
    pub generating: usize,
}

/// Per-image raw outcome, aggregated by the host after the run.
#[derive(Debug, Clone, Default)]
pub struct ServeImageOut {
    /// Per-epoch `(end_ns, completed, generating)`.
    pub epochs: Vec<(u64, u64, bool)>,
    /// Requests completed in-line (admitted, served, acknowledged).
    pub completed: u64,
    /// Parked requests completed via the recovery drain.
    pub drained: u64,
    /// The victim's admitted-but-unserved requests (died with the image).
    pub dropped: u64,
    pub reads: u64,
    pub writes: u64,
    /// Wrapping key sum of writes whose latest acknowledged home survives.
    pub acked: u64,
    /// Black-box accumulator over read results (keeps reads observable).
    pub read_sum: u64,
    /// Journal entries re-sent to a reassigned shard during recovery.
    pub replayed: u64,
    /// Epoch whose boundary ran the recovery (`u64::MAX` = none).
    pub detect_epoch: u64,
    /// Live-table checksum (computed on image 1 only).
    pub checksum: u64,
    /// Final worker-team membership (image 1 only).
    pub members: Vec<usize>,
}

/// Outcome of one open-loop serving run.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// Requests completed in-line.
    pub completed: u64,
    /// Parked requests completed via the recovery drain (their latency
    /// spans the outage — the figure's spike).
    pub drained: u64,
    /// The victim's unserved requests, lost with the image.
    pub dropped: u64,
    pub reads: u64,
    pub writes: u64,
    /// Journal entries replayed onto reassigned shards during recovery.
    pub replayed: u64,
    /// Epoch whose boundary observed the failure (`None` on healthy runs).
    pub detect_epoch: Option<usize>,
    /// Wrapping sum of all live shards at the end of the run.
    pub checksum: u64,
    /// Wrapping key sum of every write whose latest acknowledged home is
    /// alive at the end — `checksum == acked_sum` is the zero-lost-
    /// acknowledged-writes invariant, reads and failures included.
    pub acked_sum: u64,
    /// Worker-team membership at the end of the run (1-based image ids).
    pub members_after: Vec<usize>,
    /// Per-epoch aggregates, in order.
    pub epochs: Vec<EpochStat>,
    /// The SLO report over the run's windowed latency series. When the run
    /// was traced, violated windows carry their `dominant_cause` and raised
    /// burn alerts their exemplar requests.
    pub slo: SloReport,
    /// Per-window tail attribution (`None` when the run was untraced — the
    /// SLO report is then unannotated but otherwise identical).
    pub tail: Option<TailAttribution>,
    /// Virtual makespan in milliseconds.
    pub time_ms: f64,
    pub stats: StatsSnapshot,
}

/// Run the open-loop serving workload on `images` images (`images - 1`
/// workers plus one spare).
pub fn run_serve(
    platform: Platform,
    backend: Backend,
    images: usize,
    cfg: ServeConfig,
) -> ServeResult {
    run_serve_outcome(platform, backend, images, cfg, true).0
}

/// [`run_serve`] exposing the raw simulation outcome, for traced probes and
/// the determinism suite. Metrics (with the configured window) are enabled
/// unconditionally — windowed telemetry is the point of this workload. The
/// `bool` is ignored: it once opted into the NIC arbiter, which every run
/// now has.
pub fn run_serve_outcome(
    platform: Platform,
    backend: Backend,
    images: usize,
    cfg: ServeConfig,
    _deterministic_nic: bool,
) -> (ServeResult, pgas_machine::SimOutcome<ServeImageOut>) {
    assert!(images >= 3, "serving needs at least two workers and a spare");
    assert!(cfg.epochs >= 1, "serving needs at least one epoch");
    let mcfg = crate::job_machine(platform, images, cfg.slots_per_shard * 8 + (1 << 16))
        .with_metrics(true)
        .with_metrics_window(cfg.window_ns);
    let caf_cfg = CafConfig::new(backend, platform).with_nonsym_bytes(4096);
    // One arrival stream per run: every image strides through this table.
    let arrivals = global_arrivals(&cfg, images - 1);
    let out = run_caf(mcfg, caf_cfg, move |img| {
        let w = img.num_images() - 1; // fixed shard count = initial worker count
        let me = img.this_image();
        let pe_id = me - 1;
        let table = img.coarray::<u64>(&[cfg.slots_per_shard]).unwrap();
        // Allocated symmetrically in both modes so the two run over an
        // identical context (the DHT does the same).
        let locks = img.lock_vars(1);
        let write_am = img.shmem().register_am(Rc::new(kv::UpdateAm));
        // Placement: logical key -> (shard, slot) through the mixer.
        let place = |key: u64| -> (usize, usize) {
            let h = mix(key);
            ((h % w as u64) as usize, ((h / w as u64) % cfg.slots_per_shard as u64) as usize)
        };
        // One write against `home`; true = acknowledged. A stat failure in
        // either mode reports false so the caller can park the request.
        let write_to = |home: usize, key: u64| -> bool {
            let (_, slot) = place(key);
            match cfg.mode {
                DhtUpdateMode::Locked => {
                    kv::locked_update(img, &locks[0], &table, home, slot, key).is_ok()
                }
                DhtUpdateMode::Am => match kv::am_update(img, &table, write_am, home, slot, key) {
                    Ok(()) => true,
                    Err(ConduitError::TargetFailed { .. }) => false,
                    Err(e) => panic!("serve write: {e:?}"),
                },
            }
        };
        let pe = img.shmem().ctx().pe();
        let m = pe.machine();
        // Serve request `id` against `home`, traced as one request and,
        // once acknowledged, journaled and observed in the windowed series
        // at its completion instant. False = the home failed: the caller
        // parks or drops the request. `hashing` charges the in-line path's
        // bookkeeping; the recovery drain charges none.
        let serve = |o: &mut ServeImageOut,
                     recs: &mut Vec<Rec>,
                     (id, req): (u64, ReqSpec),
                     home,
                     hashing| {
            let begin = pe.now();
            m.tracer().begin_request(pe_id, id, req.arrival_ns, begin);
            let ok = if req.write {
                write_to(home, req.key)
            } else {
                match table.get_elem_stat(img, home, &[place(req.key).1]) {
                    Ok(v) => {
                        o.read_sum = o.read_sum.wrapping_add(v);
                        true
                    }
                    Err(_) => false,
                }
            };
            if hashing {
                pe.compute_ops(20);
            }
            let end = pe.now();
            m.tracer().end_request(pe_id, end);
            if !ok {
                return false;
            }
            if req.write {
                recs.push(Rec { shard: place(req.key).0, key: req.key, owner: home });
                o.writes += 1;
            } else {
                o.reads += 1;
            }
            let mx = m.metrics();
            mx.observe_windowed(pe_id, "serve_latency_ns", None, end, end - req.arrival_ns);
            mx.observe_windowed(pe_id, "serve_queue_ns", None, end, begin - req.arrival_ns);
            mx.count_windowed(pe_id, "serve_requests", None, end, 1);
            true
        };
        let mut shards = Shards::form(img, w);
        let mut gen = RequestGen::sharing(&cfg, me, w, arrivals.clone());
        let mut o = ServeImageOut { detect_epoch: u64::MAX, ..Default::default() };
        let mut recs: Vec<Rec> = Vec::new();
        // Admitted requests `(id, spec)` parked against a dying home until
        // the recovery drain completes them with their original arrival.
        let mut parked: Vec<(u64, ReqSpec)> = Vec::new();
        let mut seq = 0u64;
        img.sync_all();
        for epoch in 0..cfg.epochs {
            if img.this_image_failed() {
                break;
            }
            let serving = shards.serving(me);
            // Only the original workers generate load; the spare owns
            // reassigned shards after recovery but injects no requests.
            let quota = if serving && me <= w {
                (epoch + 1) * cfg.requests_per_image / cfg.epochs
                    - epoch * cfg.requests_per_image / cfg.epochs
            } else {
                0
            };
            let mut done = 0u64;
            if serving {
                img.change_team(&shards.team, || {
                    for _ in 0..quota {
                        // Cooperative failure model: the scheduled failure
                        // kills the simulated image, not the OS thread, so
                        // the victim bows out at a request boundary — its
                        // remaining schedule is dropped, not parked.
                        if img.this_image_failed() {
                            break;
                        }
                        let spec = gen.next_req();
                        seq += 1;
                        let req = (((me as u64) << 32) | seq, spec);
                        // Open-loop admission: the virtual clock, not the
                        // previous completion, decides when this request
                        // exists. Ahead of schedule -> idle forward; behind
                        // -> the backlog is a real queueing delay.
                        if pe.now() < spec.arrival_ns {
                            pe.advance((spec.arrival_ns - pe.now()) as f64);
                        }
                        let home = shards.map[place(spec.key).0];
                        // Clock-deterministic liveness probe: which
                        // requests get parked must reproduce bit-identically
                        // on any host schedule. A home that died between
                        // the probe and delivery parks the request too.
                        if !img.image_dead_by_now(home) && serve(&mut o, &mut recs, req, home, true)
                        {
                            done += 1;
                        } else {
                            parked.push(req);
                            m.metrics().count_windowed(pe_id, "serve_parked", None, pe.now(), 1);
                        }
                    }
                });
            }
            if img.this_image_failed() {
                break;
            }
            if let Some(n) = shards.boundary(img, &mut recs, &write_to) {
                o.detect_epoch = epoch as u64;
                o.replayed += n;
                // Journals replayed first, so the replacement holds every
                // previously acknowledged write. Then the parked requests
                // drain: they complete now, with their *original* arrival
                // time, so the outage is a latency spike in the windowed
                // series instead of silent loss.
                for req in parked.drain(..) {
                    let home = shards.map[place(req.1.key).0];
                    if serve(&mut o, &mut recs, req, home, false) {
                        o.drained += 1;
                    } else {
                        o.dropped += 1;
                    }
                }
                img.sync_team(&shards.team);
            }
            o.epochs.push((pe.now(), done, quota > 0));
            o.completed += done;
        }
        if img.this_image_failed() && me <= w {
            // The victim's whole unserved schedule is dropped — however the
            // deadline landed against the epoch cycle (mid-quota or at a
            // boundary) — and so is anything it still held parked.
            o.dropped += (cfg.requests_per_image as u64 - seq) + parked.len() as u64;
        }
        shards.complete(img);
        (o.acked, o.checksum) = kv::settle(img, &table, recs.iter().map(|r| (r.owner, r.key)));
        shards.complete(img);
        if me == 1 {
            o.members = shards.team.members().to_vec();
        }
        o
    });
    let result = aggregate(&cfg, &out);
    (result, out)
}

/// Fold the per-image raw outcomes into a [`ServeResult`].
fn aggregate(cfg: &ServeConfig, out: &pgas_machine::SimOutcome<ServeImageOut>) -> ServeResult {
    let n_epochs = out.results.iter().map(|r| r.epochs.len()).max().unwrap_or(0);
    let mut epochs = Vec::with_capacity(n_epochs);
    for k in 0..n_epochs {
        let at = |f: &dyn Fn(&(u64, u64, bool)) -> u64| -> Vec<u64> {
            out.results.iter().filter_map(|r| r.epochs.get(k)).map(f).collect()
        };
        epochs.push(EpochStat {
            end_ns: at(&|e| e.0).into_iter().max().unwrap_or(0),
            completed: at(&|e| e.1).into_iter().sum(),
            generating: out.results.iter().filter_map(|r| r.epochs.get(k)).filter(|e| e.2).count(),
        });
    }
    let detect = out.results.iter().map(|r| r.detect_epoch).filter(|&d| d != u64::MAX).min();
    let mut slo = cfg.slo_spec().evaluate(&out.metrics);
    // Traced runs close the loop from SLO windows back to request causes:
    // walk each request's span graph, profile the per-window tails, and
    // annotate the report with dominant causes + exemplars.
    let tail = (!out.requests.is_empty()).then(|| {
        let t = out.tail_attribution(cfg.slo_threshold_ns, DEFAULT_EXEMPLARS, cfg.seed);
        t.annotate(&mut slo);
        t
    });
    ServeResult {
        completed: out.results.iter().map(|r| r.completed).sum(),
        drained: out.results.iter().map(|r| r.drained).sum(),
        dropped: out.results.iter().map(|r| r.dropped).sum(),
        reads: out.results.iter().map(|r| r.reads).sum(),
        writes: out.results.iter().map(|r| r.writes).sum(),
        replayed: out.results.iter().map(|r| r.replayed).sum(),
        detect_epoch: detect.map(|d| d as usize),
        checksum: out.results[0].checksum,
        acked_sum: out.results.iter().fold(0u64, |a, r| a.wrapping_add(r.acked)),
        members_after: out.results[0].members.clone(),
        slo,
        tail,
        time_ms: epochs.last().map(|e| e.end_ns).unwrap_or(0) as f64 / 1e6,
        epochs,
        stats: out.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_machine::{with_forced_aggregation, with_forced_plan, FaultPlan};

    fn small() -> ServeConfig {
        ServeConfig {
            keyspace: 10_000,
            requests_per_image: 40,
            epochs: 2,
            slots_per_shard: 64,
            mean_gap_ns: 1_500.0,
            ..Default::default()
        }
    }

    /// The calibrated failure scenario (the churn app's shape): 8 workers
    /// plus 1 spare, worker image 5 (PE 4) dies early in the first epoch,
    /// so detection waits a near-full epoch and the parked requests drain
    /// with a real outage-length latency.
    fn failure_plan(cfg: &ServeConfig) -> FaultPlan {
        FaultPlan::new(cfg.seed).with_pe_failure(4, 12_000)
    }

    fn run(plan: FaultPlan, cfg: ServeConfig) -> ServeResult {
        with_forced_aggregation(true, || {
            with_forced_plan(plan, || run_serve(Platform::Titan, Backend::Shmem, 9, cfg))
        })
    }

    #[test]
    fn zipf_sampling_is_skewed_and_in_range() {
        let zipf = Zipf::new(1_000, 1.2);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut head = 0usize;
        let mut counts = [0usize; 3]; // k=1, k in 2..=10, rest
        for _ in 0..10_000 {
            let k = zipf.sample(&mut rng);
            assert!((1..=1_000).contains(&k));
            if k <= 10 {
                head += 1;
            }
            counts[if k == 1 {
                0
            } else if k <= 10 {
                1
            } else {
                2
            }] += 1;
        }
        assert!(head > 4_000, "the head of a s=1.2 Zipf carries most mass: {head}");
        assert!(counts[0] > 1_500, "k=1 is the hottest key: {}", counts[0]);
    }

    #[test]
    fn poisson_schedule_is_open_loop_and_monotone() {
        let cfg = small();
        let mut gen = RequestGen::new(&cfg, 3, 8);
        let mut prev = 0u64;
        let mut gaps = Vec::new();
        for _ in 0..200 {
            let spec = gen.next_req();
            assert!(spec.arrival_ns >= prev, "arrivals are monotone");
            gaps.push(spec.arrival_ns - prev);
            prev = spec.arrival_ns;
        }
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        assert!(
            (mean - cfg.mean_gap_ns).abs() < cfg.mean_gap_ns * 0.35,
            "empirical mean gap {mean:.0} tracks the configured {}",
            cfg.mean_gap_ns
        );
    }

    #[test]
    fn shared_arrival_table_yields_the_standalone_stream() {
        // The write sums are the ones the self-contained generator gave
        // before the table existed.
        for (seed, write_sum) in [(0x5E21, 0x1e471), (7, 0x1b4e4), (11, 0x1f0ce)] {
            let cfg = ServeConfig { seed, ..small() };
            let clocks = global_arrivals(&cfg, 8);
            assert_eq!(clocks.len(), 8 * cfg.requests_per_image + 1);
            // Every worker, and the spare (image 9) the run also builds one for.
            for image in 1..=9 {
                let mut alone = RequestGen::new(&cfg, image, 8);
                let mut shared = RequestGen::sharing(&cfg, image, 8, clocks.clone());
                let quota = if image <= 8 { cfg.requests_per_image } else { 0 };
                for k in 0..quota {
                    assert_eq!(shared.next_req(), alone.next_req(), "image {image} request {k}");
                }
            }
            assert_eq!(expected_write_sum(8, &cfg), write_sum, "seed {seed}");
        }
        // Nothing to admit, nothing drawn: the table is its origin alone.
        let idle = ServeConfig { requests_per_image: 0, ..small() };
        assert_eq!(&*global_arrivals(&idle, 8), &[0]);
    }

    #[test]
    fn healthy_run_matches_the_write_oracle() {
        let cfg = small();
        let r = run(FaultPlan::new(cfg.seed), cfg);
        assert_eq!(r.completed, 8 * cfg.requests_per_image as u64, "every request completed");
        assert_eq!(r.reads + r.writes, r.completed);
        assert_eq!(r.checksum, expected_write_sum(8, &cfg), "table matches the write oracle");
        assert_eq!(r.checksum, r.acked_sum, "every acknowledged write is in the table");
        assert_eq!(r.detect_epoch, None);
        assert_eq!(r.drained + r.dropped + r.replayed, 0);
        assert_eq!(r.epochs.len(), cfg.epochs);
        assert!(r.epochs.iter().all(|e| e.generating == 8), "all workers generate every epoch");
        // The SLO layer saw the windowed series this run produced.
        assert_eq!(r.slo.total_count, r.completed);
        assert!(!r.slo.windows.is_empty(), "windowed latency series is populated");
        assert_eq!(r.stats.pe_failures, 0);
    }

    #[test]
    fn both_update_modes_agree_on_the_table() {
        let locked = ServeConfig { mode: DhtUpdateMode::Locked, ..small() };
        let r = run(FaultPlan::new(locked.seed), locked);
        assert_eq!(r.checksum, expected_write_sum(8, &locked), "locked mode matches the oracle");
        assert_eq!(r.checksum, r.acked_sum);
    }

    #[test]
    fn failure_drains_parked_requests_with_zero_lost_acked_writes() {
        let cfg = small();
        let r = run(failure_plan(&cfg), cfg);
        assert_eq!(r.stats.pe_failures, 1, "the scheduled failure fired: {:?}", r.stats);
        let detect = r.detect_epoch.expect("the failure was observed at an epoch boundary");
        assert_eq!(
            r.checksum, r.acked_sum,
            "zero lost acknowledged writes across parking, replay and drain"
        );
        assert_ne!(r.checksum, expected_write_sum(8, &cfg), "the victim's tail really is gone");
        assert_eq!(
            r.members_after,
            vec![1, 2, 3, 4, 6, 7, 8, 9],
            "re-formation dropped image 5 and admitted the spare"
        );
        assert!(r.dropped > 0, "the victim's unserved schedule is accounted as dropped");
        assert!(
            r.epochs[detect].generating < 8,
            "the availability series dips in the detection epoch"
        );
        assert!(
            r.epochs.last().unwrap().generating == 7,
            "surviving workers keep generating after recovery (the spare injects no load)"
        );
        assert_eq!(r.stats.lock_leaks, 0);
    }

    #[test]
    fn slo_report_sees_the_outage_as_a_burn() {
        // Tight threshold + long outage: the drained requests' latency
        // spans the whole detection window, so the burn-rate series must
        // light up in at least one window.
        let cfg = ServeConfig { slo_threshold_ns: 30_000, ..small() };
        let r = run(failure_plan(&cfg), cfg);
        if r.drained > 0 {
            assert!(
                r.slo.windows.iter().any(|w| w.violations > 0),
                "drained requests violate the SLO threshold: {:?}",
                r.slo.windows
            );
            assert!(r.slo.budget_spent_x1000 > 0, "the outage spends error budget");
        }
    }

    #[test]
    fn traced_failure_run_attributes_its_tail() {
        let cfg = ServeConfig { slo_threshold_ns: 30_000, ..small() };
        let plan = failure_plan(&cfg);
        let r = pgas_machine::with_forced_tracing(true, || run(plan, cfg));
        let tail = r.tail.as_ref().expect("a traced run carries a tail attribution");
        assert!(!tail.profiles.is_empty(), "per-window tail profiles are populated");
        // Every violated window names a dominant cause, and the annotation
        // is consistent with the profile the attribution holds for it.
        let mut violated = 0usize;
        for w in r.slo.windows.iter().filter(|w| w.violations > 0) {
            violated += 1;
            let cause = w.dominant_cause.expect("violated window names a dominant cause");
            let prof = tail.profile_at(w.window).expect("violated window has a profile");
            assert_eq!(prof.dominant_cause(), Some(cause));
            assert!(prof.slow > 0, "the profile saw the slow requests");
        }
        assert!(violated > 0, "the outage violates at least one window");
        // Raised alerts carry exemplars: the k worst request ids in the
        // trailing burn span, each over threshold with a named cause.
        for a in r.slo.alerts.iter().filter(|a| a.raised) {
            assert!(!a.exemplars.is_empty(), "raised alert carries exemplars: {a:?}");
            for e in &a.exemplars {
                assert!(e.latency_ns > 30_000, "exemplars are tail requests: {e:?}");
            }
        }
        // The run-wide ranking blames the outage machinery, not handler
        // compute: drained requests spend their lives parked behind the
        // dead home image.
        let top = tail.top_causes();
        assert!(!top.is_empty(), "slow requests exist so causes rank");
        use pgas_machine::tailprof::ReqPhase;
        assert_ne!(top[0].0, ReqPhase::HandlerCompute, "tail is not compute-bound: {top:?}");
    }
}
