//! Orchestration: repetitions in child processes, the end-to-end run, the
//! traced run, and the virtual-time invariance checks between them.

use crate::engine::{self, BusyCpus};
use crate::ladder::{self, Kind, Plan, Rung};
use crate::measure::{median, Summary};
use crate::probes;
use crate::report;
use crate::report::{WorkloadResult, TOGGLE_METRICS};
use crate::trace::Tracer;
use crate::workloads::{run_rep, Rep, Workload};
use pgas_machine::json;
use pgas_machine::{MachineConfig, SanitizerMode};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `--quick` divides every size by this.
const QUICK_DIVISOR: usize = 20;
/// Rounds of one ladder-probe pass (the traced run's rungs and toggles).
const LADDER_PROBE_ROUNDS: usize = 100_000;
/// Round trips of one `am_call` probe.
const AM_PROBE_CALLS: usize = 60_000;
/// Zero-operation launches behind one run's `setup_s`.
const SETUP_LAUNCHES: usize = 100;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// How long one run measures, seconds.
    pub seconds: f64,
    /// Every size divided by twenty and two repetitions: a smoke test.
    pub quick: bool,
}

impl Options {
    fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / QUICK_DIVISOR).max(1)
        } else {
            full
        }
    }

    fn size(&self, w: Workload) -> usize {
        self.scaled(w.full_size())
    }

    /// Repeat `step` until `budget_s` has passed and it ran `at_least`
    /// times (`--quick`: exactly `quick_times`).
    fn repeat(
        &self,
        budget_s: f64,
        at_least: usize,
        quick_times: usize,
        mut step: impl FnMut() -> Result<(), String>,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let mut done = 0;
        loop {
            step()?;
            done += 1;
            let enough = if self.quick {
                done >= quick_times
            } else {
                done >= at_least && t0.elapsed().as_secs_f64() >= budget_s
            };
            if enough {
                return Ok(());
            }
        }
    }
}

// ---- repetitions in child processes -------------------------------------------

/// Run `reps` repetitions, one after the other, in one fresh process — this
/// executable, re-executed — so their CPU seconds, context switches and
/// resident-set high-water mark are their own, and nothing this process
/// did before (a warm allocator, mapped heaps) reaches them. With
/// `watch_threads` the parent reads the child's thread count from `/proc`
/// while it runs.
pub fn spawn_reps(
    w: Workload,
    seed: u64,
    size: usize,
    reps: usize,
    watch_threads: bool,
) -> Result<Vec<Rep>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["child", "--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--size", &size.to_string(), "--reps", &reps.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a repetition: {e}"))?;
    let mut os_threads = 0u64;
    if watch_threads {
        // Polling without reading is safe for the few lines a watched
        // child prints: they fit a pipe's buffer many times over.
        let status = format!("/proc/{}/status", child.id());
        while child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if let Ok(text) = std::fs::read_to_string(&status) {
                let threads = text
                    .lines()
                    .find_map(|l| l.strip_prefix("Threads:"))
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(0);
                os_threads = os_threads.max(threads);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let out = child.wait_with_output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("a {} repetition exited with {}", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed: Option<Vec<Rep>> = text
        .lines()
        .map(|line| json::parse(line).ok().and_then(|j| Rep::from_json(&j)))
        .map(|rep| rep.map(|r| Rep { os_threads, ..r }))
        .collect();
    match parsed {
        Some(reps_read) if reps_read.len() == reps => Ok(reps_read),
        _ => Err(format!("unreadable output of a {} repetition: {text}", w.name())),
    }
}

/// One repetition in its own fresh process.
pub fn spawn_rep(w: Workload, seed: u64, size: usize) -> Result<Rep, String> {
    Ok(spawn_reps(w, seed, size, 1, false)?.remove(0))
}

/// The child side of [`spawn_reps`]: one line per repetition.
pub fn child_main(w: Workload, seed: u64, size: usize, reps: usize) {
    for _ in 0..reps {
        let rep = run_rep(w, seed, size, &mut Tracer::new(w.name()), false);
        println!("{}", report::compact(&rep.to_json()));
    }
}

/// Every makespan in `runs` must be the same to the nanosecond; the first
/// pair that disagrees is the error.
fn first_disagreement(what: &str, runs: &[(String, u64)]) -> Option<String> {
    let (first_name, first) = runs.first()?;
    runs.iter().find(|(_, ns)| ns != first).map(|(name, ns)| {
        format!("{what}: {first_name} reported a virtual makespan of {first} ns, {name} of {ns} ns")
    })
}

// ---- the end-to-end run ---------------------------------------------------------

/// The untraced run: set-up launches, one discarded warm-up repetition,
/// then timed repetitions for `opts.seconds`, each in its own process.
pub fn end_to_end(w: Workload, opts: &Options) -> Result<WorkloadResult, String> {
    let _busy = BusyCpus::for_workload(w)?;
    let size = opts.size(w);

    // Set-up: the workload's own entry point around zero operations —
    // threads, heaps, runtime and table set-up, team formation, teardown —
    // launched over and over in one fresh process. A value is the median
    // of ten launches, so that the spread `compare` sees is that of small
    // runs and not of single launches.
    let launches = opts.scaled(SETUP_LAUNCHES).next_multiple_of(10);
    let walls: Vec<f64> =
        spawn_reps(w, opts.seed, 0, launches, false)?.iter().map(|r| r.wall_s).collect();
    let setup_s = walls.chunks(10).map(median).collect();

    spawn_rep(w, opts.seed, size)?;
    let mut reps = Vec::new();
    opts.repeat(opts.seconds, 3, 2, || {
        reps.push(spawn_rep(w, opts.seed, size)?);
        Ok(())
    })?;

    let mut result = WorkloadResult {
        attempted: reps.iter().map(|r| r.ops).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        ..WorkloadResult::default()
    };
    if engine::deterministic_nic(w) {
        let runs: Vec<_> =
            reps.iter().enumerate().map(|(i, r)| (format!("rep {i}"), r.sim.makespan_ns)).collect();
        result.invariance_error = first_disagreement(w.name(), &runs);
    }
    let mut put = |name: &str, values: Vec<f64>| {
        result.end_to_end.insert(name.to_string(), Summary::of(values));
    };
    put("sim_ops_per_s", reps.iter().map(|r| r.ops as f64 / r.wall_s).collect());
    put("cpu_s", reps.iter().map(Rep::cpu_s).collect());
    put("peak_rss_mb", reps.iter().map(|r| r.peak_rss_kb as f64 / 1024.0).collect());
    put("setup_s", setup_s);
    put("virt_makespan_ms", reps.iter().map(|r| r.sim.makespan_ns as f64 / 1e6).collect());
    Ok(result)
}

// ---- the traced run -------------------------------------------------------------

/// Counters of `w`: untraced and traced repetitions alternate in this
/// process (both kinds leave spans in `tracer`; the traced kind also times
/// every call `ladder_pair` makes). The medians of the untraced ones give
/// the counters, the two walls give `trace_overhead_share`. One more
/// untraced repetition runs in a child so its thread count can be watched.
pub fn counters(
    w: Workload,
    opts: &Options,
    tracer: &mut Tracer,
) -> Result<WorkloadResult, String> {
    let _busy = BusyCpus::for_workload(w)?;
    let size = opts.size(w);
    let os_threads = spawn_reps(w, opts.seed, size, 1, true)?[0].os_threads;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    opts.repeat(0.4 * opts.seconds, 2, 1, || {
        plain.push(tracer.within("untraced rep", |t| run_rep(w, opts.seed, size, t, false)));
        traced.push(tracer.within("traced rep", |t| run_rep(w, opts.seed, size, t, true)));
        Ok(())
    })?;

    let mut result = WorkloadResult {
        attempted: plain.iter().chain(&traced).map(|r| r.ops).sum(),
        failed: plain.iter().chain(&traced).map(|r| r.failed).sum(),
        ..WorkloadResult::default()
    };
    if engine::deterministic_nic(w) {
        let label = |kind: &str, reps: &[Rep]| -> Vec<(String, u64)> {
            reps.iter()
                .enumerate()
                .map(|(i, r)| (format!("{kind} rep {i}"), r.sim.makespan_ns))
                .collect()
        };
        let runs = [label("untraced", &plain), label("traced", &traced)].concat();
        result.invariance_error = first_disagreement(w.name(), &runs);
    }

    let med = |f: &dyn Fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let per_op = |x: u64, r: &Rep| x as f64 / r.ops as f64;
    let mut put = |name: &str, v: f64| {
        result.per_layer.insert(name.to_string(), v);
    };
    put("machine.sys_share", med(&|r| r.sys_s / r.cpu_s()));
    put("machine.ctx_switches_per_op", med(&|r| per_op(r.voluntary_switches, r)));
    put("machine.os_threads", os_threads as f64);
    put(
        "machine.nic_busy_share",
        med(&|r| r.sim.nic_busy_ns as f64 / (r.sim.nodes * r.sim.makespan_ns) as f64),
    );
    put("machine.nic_msgs_per_op", med(&|r| per_op(r.sim.nic_msgs, r)));
    put("conduit.wire_ops_per_op", med(&|r| per_op(r.sim.wire_ops, r)));
    put("conduit.amo_share", med(&|r| r.sim.amos as f64 / r.sim.wire_ops as f64));
    put("conduit.retries", med(&|r| r.sim.retries as f64));
    put("caf.plans_per_op", med(&|r| per_op(r.sim.plans, r)));
    put("apps.host_us_per_op", med(&|r| r.wall_s * 1e6 / r.ops as f64));
    put("apps.virt_ns_per_op", med(&|r| per_op(r.sim.makespan_ns, r)));
    put("apps.serve_virt_p50_ns", med(&|r| r.virt_p50_ns as f64));
    put("apps.serve_virt_p99_ns", med(&|r| r.virt_p99_ns as f64));
    put("apps.himeno_virt_mflops", med(&|r| r.virt_mflops));
    let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    put("trace_overhead_share", wall(&traced) / wall(&plain) - 1.0);
    Ok(result)
}

/// The conduit rung's machine with one subsystem switched, in the order
/// of [`TOGGLE_METRICS`]; whether the design says the switch is free in
/// virtual time; and the sign that turns "toggled minus plain" into the
/// cost of the subsystem.
fn toggles() -> [(MachineConfig, bool, f64); 6] {
    let base = ladder::machine_config;
    [
        (base().with_sanitizer(SanitizerMode::Record), true, 1.0),
        (base().with_trace(true), true, 1.0),
        (base().with_metrics(true), true, 1.0),
        (base().with_checksums(true), true, 1.0),
        (base().with_aggregation(true), false, 1.0),
        // The one run off the pinned engine: the arbiter, on in the plain
        // rung, switched off.
        (pgas_machine::Platform::Titan.config(2, 1), false, -1.0),
    ]
}

/// The workload-independent per-layer metrics: the ladder (each rung
/// untraced for its totals, then traced for its calls), the subsystem
/// toggles, the `am_call` probes and the micro-probes.
pub fn layers(opts: &Options, tracer: &mut Tracer) -> Result<WorkloadResult, String> {
    let _busy = BusyCpus::start()?;
    let mut result = WorkloadResult::default();
    let plan = Plan { seed: opts.seed, rounds: opts.scaled(LADDER_PROBE_ROUNDS) };
    let ops = plan.ops() as f64;
    let mut disagreements = Vec::new();

    // Median of three passes: a rung's pass is tens of milliseconds, and
    // the toggles report differences of a few percent of it.
    let pass = |result: &mut WorkloadResult, rung: Rung, cfg: &dyn Fn() -> MachineConfig| {
        let runs: Vec<_> = (0..3).map(|_| ladder::run_rung(rung, cfg(), plan, None)).collect();
        result.attempted += 3 * plan.ops();
        result.failed += runs.iter().map(|r| r.failed_ops(&plan)).sum::<u64>();
        let host = median(&runs.iter().map(|r| r.host_ns as f64 / ops).collect::<Vec<_>>());
        (host, runs[0].virt_ns as f64 / ops, runs[0].sim.makespan_ns)
    };

    let (mut host, mut virt, mut makespans) = ([0.0; 4], [0.0; 4], [0u64; 4]);
    // Median host ns of one call, per op kind, per rung.
    let mut kind_host = [[0.0; 4]; 4];
    for (i, rung) in Rung::ALL.into_iter().enumerate() {
        let span = tracer.begin(rung.span_name());
        (host[i], virt[i], makespans[i]) = pass(&mut result, rung, &ladder::machine_config);
        let traced = ladder::run_rung(rung, ladder::machine_config(), plan, Some(tracer.epoch()));
        for s in &traced.samples {
            tracer.record(rung.call_name(s.kind), s.start_ns, s.end_ns);
        }
        tracer.end(span);
        result.attempted += plan.ops();
        result.failed += traced.failed_ops(&plan);
        disagreements.extend(first_disagreement(
            rung.span_name(),
            &[
                ("the untraced pass".into(), makespans[i]),
                ("the traced pass".into(), traced.sim.makespan_ns),
            ],
        ));
        for (k, (kind, _)) in Kind::OPS.into_iter().enumerate() {
            let ns: Vec<f64> = traced
                .samples
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| (s.end_ns - s.start_ns) as f64)
                .collect();
            kind_host[k][i] = median(&ns);
        }
    }
    // A layer's number is its rung minus the rung below.
    for (i, rung) in Rung::ALL.into_iter().enumerate() {
        let layer = rung.layer();
        result.per_layer.insert(format!("{layer}.host_ns_per_op"), ladder::self_times(host)[i]);
        result.per_layer.insert(format!("{layer}.virt_ns_per_op"), ladder::self_times(virt)[i]);
        for (k, (_, stem)) in Kind::OPS.into_iter().enumerate() {
            let own = ladder::self_times(kind_host[k])[i];
            result.per_layer.insert(format!("{layer}.{stem}_host_ns"), own);
        }
    }

    let conduit = Rung::Conduit as usize;
    tracer.within("ladder.conduit toggles", |_| {
        for (name, (cfg, virtually_free, sign)) in TOGGLE_METRICS.into_iter().zip(toggles()) {
            let (toggled, _, makespan) = pass(&mut result, Rung::Conduit, &|| cfg.clone());
            result.per_layer.insert(name.to_string(), sign * (toggled - host[conduit]));
            if virtually_free {
                disagreements.extend(first_disagreement(
                    name,
                    &[
                        ("the plain conduit rung".into(), makespans[conduit]),
                        ("the toggled run".into(), makespan),
                    ],
                ));
            }
        }
    });

    for rung in [Rung::Conduit, Rung::Openshmem] {
        let calls = opts.scaled(AM_PROBE_CALLS);
        let (ns, wrong) = tracer.within("probe.am_call", |_| ladder::am_call_probe(rung, calls));
        result.per_layer.insert(format!("{}.am_call_host_ns", rung.layer()), ns);
        result.attempted += calls as u64;
        result.failed += wrong;
    }

    let sizes = probes::Sizes::new(|full| opts.scaled(full));
    for probe in probes::ALL {
        let (value, wrong) = tracer.within(probe.span, |_| (probe.run)(&sizes));
        result.per_layer.insert(probe.metric.to_string(), value);
        result.attempted += 1;
        result.failed += wrong;
    }

    result.invariance_error = disagreements.into_iter().next();
    Ok(result)
}

/// The traced run of one workload: its counters plus the layer metrics,
/// with the spans written to `out/trace_<workload>.json`.
pub fn traced(w: Workload, opts: &Options) -> Result<WorkloadResult, String> {
    let mut tracer = Tracer::new(w.name());
    let mut result = counters(w, opts, &mut tracer)?;
    merge(&mut result, layers(opts, &mut tracer)?);
    write_trace(w.name(), &tracer)?;
    Ok(result)
}

/// Fold `other`'s metrics, counts and first invariance error into `into`.
pub fn merge(into: &mut WorkloadResult, other: WorkloadResult) {
    into.attempted += other.attempted;
    into.failed += other.failed;
    into.invariance_error = into.invariance_error.take().or(other.invariance_error);
    into.end_to_end.extend(other.end_to_end);
    into.per_layer.extend(other.per_layer);
}

/// Where the benchmark writes: `benchmark/out` under the working
/// directory, which is the repository root for the documented commands.
pub fn out_dir() -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new("benchmark").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Write `tracer`'s spans to `out/trace_<name>.json`.
pub fn write_trace(name: &str, tracer: &Tracer) -> Result<(), String> {
    let path = out_dir()?.join(format!("trace_{name}.json"));
    std::fs::write(&path, tracer.to_json().pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
