//! The four workloads: what one repetition runs, what it counts as an
//! operation, and the oracle its outputs are checked against.

use crate::engine;
use crate::ladder::{self, Plan, Rung};
use crate::measure::{self, Rusage, SimCounters};
use crate::trace::Tracer;
use caf::{Backend, StridedAlgorithm};
use caf_apps::{
    dht, expected_write_sum, run_dht_outcome, run_himeno_outcome, run_serve_outcome, serial_gosa,
    DhtConfig, DhtUpdateMode, HimenoConfig, ServeConfig,
};
use pgas_machine::json::Json;
use pgas_machine::{HistogramEntry, Platform, SimOutcome};

/// Images of the three application workloads (two Titan/XC30 nodes of 16).
pub const IMAGES: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LadderPair,
    DhtLocked,
    ServeMixed,
    HimenoHalo,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::LadderPair, Workload::DhtLocked, Workload::ServeMixed, Workload::HimenoHalo];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LadderPair => "ladder_pair",
            Workload::DhtLocked => "dht_locked",
            Workload::ServeMixed => "serve_mixed",
            Workload::HimenoHalo => "himeno_halo",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why this workload is in the benchmark (one line, as BENCHMARK.json
    /// carries it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LadderPair => "one active PE through the caf rung: the per-call path caf>openshmem>conduit>machine is all the work, the engine has nothing to arbitrate",
            Workload::DhtLocked => "32 images, MCS lock handoffs through remote AMOs and wait_until: arbiter and parking dominate, the per-op path is small (paper Fig. 9)",
            Workload::ServeMixed => "32 images, open loop in virtual time, gets beside one-way AMs with windowed metrics and team epochs, no locks: the conduit used differently",
            Workload::HimenoHalo => "32 images on the default engine: 2dim_strided planning, section copies and real FP compute on both cores; locks, AMs and the arbiter bypassed (paper Fig. 10)",
        }
    }

    /// The public entry point one repetition calls (its span name).
    pub fn entry_point(self) -> &'static str {
        match self {
            Workload::LadderPair => "caf.run_caf(ladder body)",
            Workload::DhtLocked => "apps.run_dht_outcome",
            Workload::ServeMixed => "apps.run_serve_outcome",
            Workload::HimenoHalo => "apps.run_himeno_outcome",
        }
    }

    /// Work units of one full-size repetition: ladder rounds, table updates
    /// per image, requests per worker, Jacobi iterations. Sized so that a
    /// repetition takes half a second to a second on a two-core host and a
    /// 20 s run reports medians over 15 to 40 of them.
    pub fn full_size(self) -> usize {
        match self {
            Workload::LadderPair => 640_000,
            Workload::DhtLocked => 500,
            Workload::ServeMixed => 2_000,
            Workload::HimenoHalo => 40,
        }
    }
}

/// One repetition's measurements: the harness's own readings around the
/// call into the layer entry point, plus what the simulation reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rep {
    /// The workload's fixed operation count at this size.
    pub ops: u64,
    /// Operations whose oracle check failed, or that were skipped, dropped
    /// or gave up retrying.
    pub failed: u64,
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub peak_rss_kb: u64,
    pub voluntary_switches: u64,
    pub sim: SimCounters,
    /// Virtual request latency percentiles (`serve_mixed` only, else 0).
    pub virt_p50_ns: u64,
    pub virt_p99_ns: u64,
    /// Virtual MFLOPS (`himeno_halo` only, else 0).
    pub virt_mflops: f64,
    /// Most OS threads the process had at once. Read by the parent of a
    /// repetition that ran in a child process; 0 otherwise.
    pub os_threads: u64,
}

impl Rep {
    /// Every field by name, for the line a child prints to its parent.
    fn fields(&mut self) -> Vec<(&'static str, Field<'_>)> {
        use Field::{Float, Int};
        vec![
            ("ops", Int(&mut self.ops)),
            ("failed", Int(&mut self.failed)),
            ("wall_s", Float(&mut self.wall_s)),
            ("user_s", Float(&mut self.user_s)),
            ("sys_s", Float(&mut self.sys_s)),
            ("peak_rss_kb", Int(&mut self.peak_rss_kb)),
            ("voluntary_switches", Int(&mut self.voluntary_switches)),
            ("makespan_ns", Int(&mut self.sim.makespan_ns)),
            ("wire_ops", Int(&mut self.sim.wire_ops)),
            ("amos", Int(&mut self.sim.amos)),
            ("retries", Int(&mut self.sim.retries)),
            ("retries_exhausted", Int(&mut self.sim.retries_exhausted)),
            ("plans", Int(&mut self.sim.plans)),
            ("nodes", Int(&mut self.sim.nodes)),
            ("nic_msgs", Int(&mut self.sim.nic_msgs)),
            ("nic_busy_ns", Int(&mut self.sim.nic_busy_ns)),
            ("virt_p50_ns", Int(&mut self.virt_p50_ns)),
            ("virt_p99_ns", Int(&mut self.virt_p99_ns)),
            ("virt_mflops", Float(&mut self.virt_mflops)),
            ("os_threads", Int(&mut self.os_threads)),
        ]
    }

    pub fn to_json(&self) -> Json {
        let mut me = self.clone();
        let fields = me.fields().into_iter().map(|(k, f)| {
            let v = match f {
                Field::Int(v) => Json::int(*v as i64),
                Field::Float(v) => Json::float(*v),
            };
            (k.to_string(), v)
        });
        Json::Object(fields.collect())
    }

    pub fn from_json(j: &Json) -> Option<Rep> {
        let mut rep = Rep::default();
        for (k, f) in rep.fields() {
            match f {
                Field::Int(v) => *v = u64::try_from(j.get(k)?.as_i64()?).ok()?,
                Field::Float(v) => *v = j.get(k)?.as_f64()?,
            }
        }
        Some(rep)
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    fn timed(&mut self, wall_s: f64, used: Rusage) {
        self.wall_s = wall_s;
        self.user_s = used.user_s;
        self.sys_s = used.sys_s;
        self.peak_rss_kb = used.peak_rss_kb;
        self.voluntary_switches = used.voluntary_switches;
    }
}

enum Field<'a> {
    Int(&'a mut u64),
    Float(&'a mut f64),
}

/// Run one repetition of `workload` with `size` work units (see
/// [`Workload::full_size`]; 0 runs the workload's own set-up and teardown
/// around no operations) and check its outputs. Timing covers exactly the
/// call into the layer entry point; every oracle runs after it. `tracer`
/// gets a span for each; with `per_call`, `ladder_pair` also times every
/// call it makes (the app workloads make one).
pub fn run_rep(
    workload: Workload,
    seed: u64,
    size: usize,
    tracer: &mut Tracer,
    per_call: bool,
) -> Rep {
    let det = engine::deterministic_nic(workload);
    let mut rep = Rep::default();
    let entry = tracer.begin(workload.entry_point());
    // Each arm makes the timed call and hands back its oracle: the number
    // of operations it cannot vouch for.
    let oracle: Box<dyn FnOnce() -> u64> = match workload {
        Workload::LadderPair => {
            let plan = Plan { seed, rounds: size };
            let traced = per_call.then(|| tracer.epoch());
            let (run, wall, used) = measure::timed(|| {
                ladder::run_rung(Rung::Caf, ladder::machine_config(), plan, traced)
            });
            for s in &run.samples {
                tracer.record(Rung::Caf.call_name(s.kind), s.start_ns, s.end_ns);
            }
            rep.timed(wall, used);
            rep.sim = run.sim;
            rep.ops = plan.ops();
            Box::new(move || run.failed_ops(&plan))
        }
        Workload::DhtLocked => {
            let cfg = DhtConfig {
                slots_per_image: 1024,
                updates_per_image: size,
                seed,
                locks_per_image: 1,
                update: DhtUpdateMode::Locked,
            };
            let ((result, out), wall, used) = measure::timed(|| {
                run_dht_outcome(Platform::Titan, Backend::Shmem, IMAGES, cfg, det)
            });
            rep.timed(wall, used);
            rep.sim = SimCounters::of(&out);
            rep.ops = (IMAGES * size) as u64;
            let ops = rep.ops;
            Box::new(move || {
                if result.checksum == dht::expected_checksum(IMAGES, &cfg) {
                    result.skipped as u64
                } else {
                    ops
                }
            })
        }
        Workload::ServeMixed => {
            let cfg = ServeConfig {
                keyspace: 1_000_000,
                requests_per_image: size,
                read_fraction: 0.5,
                mode: DhtUpdateMode::Am,
                seed,
                ..ServeConfig::default()
            };
            let workers = IMAGES - 1;
            let ((result, out), wall, used) = measure::timed(|| {
                run_serve_outcome(Platform::Titan, Backend::Shmem, IMAGES, cfg, det)
            });
            rep.timed(wall, used);
            rep.sim = SimCounters::of(&out);
            rep.ops = (workers * size) as u64;
            let latency = merged_histogram(&out, "serve_latency_ns");
            rep.virt_p50_ns = latency.percentile(0.50);
            rep.virt_p99_ns = latency.percentile(0.99);
            let ops = rep.ops;
            Box::new(move || {
                let sums_agree = result.checksum == result.acked_sum
                    && result.checksum == expected_write_sum(workers, &cfg);
                if sums_agree {
                    ops.abs_diff(result.completed) + result.drained + result.dropped
                } else {
                    ops
                }
            })
        }
        Workload::HimenoHalo => {
            let cfg = HimenoConfig { iters: size, ..HimenoConfig::size_s() };
            let ((result, out), wall, used) = measure::timed(|| {
                run_himeno_outcome(
                    Platform::CrayXc30,
                    Backend::Shmem,
                    Some(StridedAlgorithm::TwoDim),
                    IMAGES,
                    cfg,
                )
            });
            rep.timed(wall, used);
            rep.sim = SimCounters::of(&out);
            rep.ops = ((cfg.imax - 2) * (cfg.jmax - 2) * (cfg.kmax - 2) * size) as u64;
            rep.virt_mflops = result.mflops;
            let ops = rep.ops;
            Box::new(move || {
                let residual_ok = serial_gosa(&cfg)
                    .last()
                    .is_none_or(|&want| (result.gosa - want).abs() <= 1e-5 * want.abs());
                if residual_ok {
                    0
                } else {
                    ops
                }
            })
        }
    };
    tracer.end(entry);
    let unchecked = tracer.within("oracle", |_| oracle());
    rep.failed = (unchecked + rep.sim.retries_exhausted).min(rep.ops);
    rep
}

/// All per-PE histograms named `name`, merged into one.
fn merged_histogram<R>(out: &SimOutcome<R>, name: &'static str) -> HistogramEntry {
    let mut merged = HistogramEntry {
        name,
        pe: 0,
        peer_node: None,
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
        buckets: Vec::new(),
    };
    let mut buckets = std::collections::BTreeMap::<u8, (u64, u64)>::new();
    for h in out.metrics.histograms_named(name) {
        merged.count += h.count;
        merged.sum += h.sum;
        merged.min = merged.min.min(h.min);
        merged.max = merged.max.max(h.max);
        for &(i, count, sum) in &h.buckets {
            let b = buckets.entry(i).or_default();
            b.0 += count;
            b.1 += sum;
        }
    }
    merged.buckets = buckets.into_iter().map(|(i, (count, sum))| (i, count, sum)).collect();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_rep(w: Workload, seed: u64, size: usize) -> Rep {
        super::run_rep(w, seed, size, &mut Tracer::new(w.name()), false)
    }

    #[test]
    fn every_workload_passes_its_oracle_at_a_small_size() {
        for (w, size) in [
            (Workload::LadderPair, 500),
            (Workload::DhtLocked, 6),
            (Workload::ServeMixed, 40),
            (Workload::HimenoHalo, 2),
        ] {
            let rep = run_rep(w, 11, size);
            assert!(rep.ops > 0, "{w:?}");
            assert_eq!(rep.failed, 0, "{w:?}");
            assert!(rep.sim.makespan_ns > 0 && rep.wall_s > 0.0, "{w:?}");
        }
    }

    #[test]
    fn a_zero_size_repetition_is_set_up_and_teardown_only() {
        for w in Workload::ALL {
            let rep = run_rep(w, 11, 0);
            assert_eq!((rep.ops, rep.failed), (0, 0), "{w:?}");
        }
    }

    #[test]
    fn arbiter_workloads_repeat_their_virtual_makespan_to_the_nanosecond() {
        for (w, size) in [(Workload::DhtLocked, 8), (Workload::ServeMixed, 40)] {
            let a = run_rep(w, 5, size).sim.makespan_ns;
            assert_eq!(a, run_rep(w, 5, size).sim.makespan_ns, "{w:?}");
            assert_ne!(a, run_rep(w, 6, size).sim.makespan_ns, "{w:?}: the seed feeds the inputs");
        }
    }

    #[test]
    fn serve_reports_latency_percentiles_and_himeno_mflops() {
        let serve = run_rep(Workload::ServeMixed, 3, 40);
        assert!(serve.virt_p50_ns > 0 && serve.virt_p50_ns <= serve.virt_p99_ns);
        assert!(run_rep(Workload::HimenoHalo, 3, 2).virt_mflops > 0.0);
    }

    #[test]
    fn a_repetition_survives_the_child_process_protocol() {
        let rep = run_rep(Workload::DhtLocked, 2, 4);
        let line = crate::report::compact(&rep.to_json());
        let back = Rep::from_json(&pgas_machine::json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn a_repetition_leaves_an_entry_span_and_an_oracle_span() {
        let mut t = Tracer::new("ladder_pair");
        let rep = super::run_rep(Workload::LadderPair, 1, 100, &mut t, true);
        let names: Vec<&str> = t.spans().iter().map(|s| s.name).collect();
        assert_eq!(names[0], "caf.run_caf(ladder body)");
        assert_eq!(names.last(), Some(&"oracle"));
        assert_eq!(t.spans()[0].calls, rep.ops, "one recorded call per operation");
        assert!(t.spans()[1..names.len() - 1].iter().all(|s| s.parent == Some(0)));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
