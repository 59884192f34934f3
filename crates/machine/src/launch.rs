//! SPMD launcher: run the program closure once per PE, propagate panics
//! without deadlocking the rest of the job.
//!
//! Every launched machine runs under the virtual-time NIC arbiter, its PEs
//! as fibers of one carrier of which exactly one runs at a time (DESIGN.md,
//! "Execution engines"): where the fiber switch exists, stackful fibers on
//! the launching thread (`parking_lot::fiber`), a blocked PE a parked stack
//! and a handoff a stack switch; on every other target the baton carrier
//! (`parking_lot::baton`), one OS thread per PE passing a baton.

use crate::config::MachineConfig;
use crate::critpath::CriticalPathReport;
use crate::knobs::ResolvedKnobs;
use crate::machine::{Machine, Pe, PeId};
use crate::metrics::MetricsSnapshot;
use crate::sanitizer::{HazardKind, HazardReport};
use crate::stats::{FaultEvent, PlanDecision, StatsSnapshot};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Per-NIC traffic summary reported with a simulation outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicSnapshot {
    pub messages: u64,
    pub bytes: u64,
    pub busy_ns: u64,
}

/// What running the job cost the host's scheduler — the engine's own
/// counters, outside `stats`/`metrics` (which describe the simulated machine
/// and are equal whichever engine ran it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// OS threads that ran PE bodies: 1 (the launching thread) on fibers,
    /// the PE count on the baton carrier.
    pub os_threads: usize,
    /// Times a PE was given the carrier.
    pub fiber_switches: u64,
}

/// Everything a finished simulation reports.
#[derive(Debug)]
pub struct SimOutcome<R> {
    /// Per-PE return values, indexed by PE id.
    pub results: Vec<R>,
    /// Final virtual clock of each PE, ns.
    pub clocks: Vec<u64>,
    /// Machine-wide operation counters.
    pub stats: StatsSnapshot,
    /// Per-op metrics (counters/gauges/histograms; empty unless metrics were
    /// enabled) with the stats counters folded in — the one queryable record
    /// of everything the run did.
    pub metrics: MetricsSnapshot,
    /// Per-node NIC traffic, indexed by node.
    pub nics: Vec<NicSnapshot>,
    /// Execution trace (empty unless the run was traced).
    pub trace: Vec<crate::trace::Span>,
    /// Serving-request lifecycle records (empty unless the run was traced
    /// and the workload marked requests via `Tracer::begin_request` /
    /// `end_request`), sorted by `(pe, id)`.
    pub requests: Vec<crate::trace::ReqRecord>,
    /// Sanitizer diagnostics (empty unless the sanitizer mode was
    /// `Record` — in `Panic` mode the job fails at the first hazard).
    pub hazard_reports: Vec<HazardReport>,
    /// Every strided-plan selection made during the job, in recording order
    /// (empty unless a `StridedPlanner`-backed algorithm ran).
    pub plan_decisions: Vec<PlanDecision>,
    /// Every injected fault, retry exhaustion, and PE death (empty unless a
    /// fault plan was active), ordered by (pe, issue order) for determinism.
    pub fault_events: Vec<FaultEvent>,
    /// PEs dead at the end of the job, ascending.
    pub failed_pes: Vec<usize>,
    /// Platform name the job ran on.
    pub machine: String,
    /// Every knob the run was under, and which layer set it; renders on one
    /// line (`trace=on(env) aggregation=off(forced) …`).
    pub knobs: ResolvedKnobs,
    /// What the run cost the host's scheduler.
    pub engine: EngineStats,
}

impl<R> SimOutcome<R> {
    /// Virtual makespan of the job: the latest final clock, ns.
    pub fn makespan_ns(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// Extract the critical path from the recorded trace: the blocking chain
    /// that determined the makespan, attributed to compute / wire / NIC
    /// contention / synchronization / fault delay. Meaningful only when the
    /// run was traced; with no spans the whole makespan reads as compute.
    pub fn critical_path(&self) -> CriticalPathReport {
        crate::critpath::critical_path(&self.trace, &self.clocks)
    }

    /// Walk the span graph per request id: one exact latency tiling per
    /// served request (see `tailprof::req_paths`). Empty unless the run was
    /// traced and the workload marked requests.
    pub fn req_paths(&self) -> Vec<crate::tailprof::ReqPathReport> {
        crate::tailprof::req_paths(&self.trace, &self.requests)
    }

    /// Aggregate the per-request paths into per-SLO-window tail profiles
    /// with deterministic exemplar retention. `window_ns` comes from the
    /// run's metrics config so profiles line up with `SloReport` windows.
    pub fn tail_attribution(
        &self,
        threshold_ns: u64,
        k: usize,
        seed: u64,
    ) -> crate::tailprof::TailAttribution {
        crate::tailprof::attribute(&self.req_paths(), threshold_ns, self.metrics.window_ns, k, seed)
    }

    /// Assert the sanitizer found nothing; panics with every report
    /// otherwise. (Only meaningful when the job ran with the sanitizer in
    /// `Record` mode.)
    pub fn expect_hazard_free(&self) {
        if self.hazard_reports.is_empty() {
            return;
        }
        let mut msg = format!("sanitizer found {} hazard(s):", self.hazard_reports.len());
        for r in &self.hazard_reports {
            msg.push_str("\n  - ");
            msg.push_str(&r.to_string());
        }
        panic!("{msg}");
    }

    /// Assert the sanitizer flagged at least one hazard of `kind` and
    /// return the first such report; panics (listing what *was* found)
    /// otherwise.
    pub fn expect_hazard(&self, kind: HazardKind) -> &HazardReport {
        self.hazard_reports.iter().find(|r| r.kind == kind).unwrap_or_else(|| {
            panic!(
                "expected a {} but the sanitizer recorded {:?}",
                kind.label(),
                self.hazard_reports
            )
        })
    }
}

/// A simulation failure: some PE panicked, or the job deadlocked.
#[derive(Debug)]
pub struct SimError {
    /// PE whose panic was captured first; for a deadlock, the lowest PE that
    /// was blocked.
    pub pe: usize,
    /// Rendered panic message; for a deadlock, what each blocked PE waits on.
    pub message: String,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PE {} panicked: {}", self.pe, self.message)
    }
}

impl std::error::Error for SimError {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// What carries the PE fibers of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Engine {
    /// Stackful fibers on the launching thread.
    Fibers,
    /// One OS thread per PE, passing a baton.
    Baton,
}

impl Engine {
    /// Fibers wherever the switch exists. Cooperative switching is safe
    /// under the NIC arbiter, which never grants a turn to a PE whose clock
    /// has passed a runnable PE's (a poller parks before it can starve
    /// anyone), and pays because its grant chain is a handoff per step.
    fn of() -> Engine {
        if parking_lot::fiber::SUPPORTED {
            Engine::Fibers
        } else {
            Engine::Baton
        }
    }
}

/// One PE's whole life, on either carrier.
fn pe_body<F, R>(machine: &Machine, f: &F, id: PeId) -> std::thread::Result<R>
where
    F: Fn(Pe<'_>) -> R,
{
    let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(Pe::new(id, machine))));
    // A finished PE is permanently quiescent for the NIC arbiter — stragglers
    // must not wait on its clock.
    machine.pe_finished(id);
    if out.is_err() {
        // Unblock everyone else before reporting.
        machine.poison().poison();
        machine.interrupt_all();
    }
    out
}

/// Run `f` as an SPMD program on a fresh machine built from `cfg`,
/// returning per-PE results or the first captured failure.
///
/// `f` is shared by all PEs; per-PE state should live inside the closure
/// body (or in the machine's heaps).
pub fn run_with_result<F, R>(cfg: MachineConfig, f: F) -> Result<SimOutcome<R>, SimError>
where
    F: Fn(Pe<'_>) -> R + Send + Sync,
    R: Send,
{
    run_on(Engine::of(), cfg, f)
}

/// [`run_with_result`] on a given engine: the engine-equivalence tests'
/// switch; nothing outside them picks one.
pub(crate) fn run_on<F, R>(
    engine: Engine,
    cfg: MachineConfig,
    f: F,
) -> Result<SimOutcome<R>, SimError>
where
    F: Fn(Pe<'_>) -> R + Send + Sync,
    R: Send,
{
    parking_lot::fiber::keep_freed_memory();
    let machine: Arc<Machine> = Machine::new_on(cfg, true);
    let n = machine.num_pes();
    let name = machine.config().name.clone();
    let stack = machine.config().stack_bytes;

    // The carrier's idle point: grant the least parked NIC turn, or — no PE
    // can ever run again — say why, then bring the job down the way a panic
    // does, so every wait unwinds through its poison check.
    let mut deadlock = None;
    let body = |id| pe_body(&machine, &f, id);
    let on_idle = || {
        if machine.grant_idle() {
            return true;
        }
        if deadlock.is_none() {
            deadlock = machine.stall_report();
        }
        machine.poison().poison();
        machine.interrupt_all()
    };
    let (ended, ran) = match engine {
        Engine::Fibers => parking_lot::fiber::run(n, stack, body, on_idle),
        Engine::Baton => parking_lot::baton::run(n, stack, body, on_idle),
    };
    let os_threads = if engine == Engine::Fibers && parking_lot::fiber::SUPPORTED { 1 } else { n };
    if let Some((pe, message)) = deadlock {
        return Err(SimError { pe, message });
    }
    let engine_stats = EngineStats { os_threads, fiber_switches: ran.switches };
    let ended = ended.into_iter().map(|out| out.and_then(|out| out));
    let slots: Vec<Result<R, SimError>> = ended
        .into_iter()
        .enumerate()
        .map(|(pe, out)| {
            out.map_err(|payload| SimError { pe, message: panic_message(payload.as_ref()) })
        })
        .collect();

    // Prefer reporting a "real" failure over the poison-propagation panics of
    // the other PEs.
    let mut first_err: Option<SimError> = None;
    for s in &slots {
        if let Err(e) = s {
            let is_propagated = e.message.contains("simulation poisoned");
            match &first_err {
                None => first_err = Some(SimError { pe: e.pe, message: e.message.clone() }),
                Some(cur) if cur.message.contains("simulation poisoned") && !is_propagated => {
                    first_err = Some(SimError { pe: e.pe, message: e.message.clone() })
                }
                _ => {}
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }

    let results: Vec<R> = slots.into_iter().map(|s| s.unwrap()).collect();
    Ok(SimOutcome {
        clocks: (0..n).map(|p| machine.clock(p)).collect(),
        stats: machine.stats().snapshot(),
        metrics: machine.metrics().snapshot(machine.stats().snapshot()),
        nics: (0..machine.config().nodes)
            .map(|node| {
                let nic = machine.nic(node);
                NicSnapshot { messages: nic.messages(), bytes: nic.bytes(), busy_ns: nic.busy_ns() }
            })
            .collect(),
        trace: machine.tracer().drain(),
        requests: machine.tracer().drain_requests(),
        hazard_reports: machine.sanitizer().take_reports(),
        plan_decisions: machine.stats().drain_plans(),
        fault_events: {
            // Per-PE order is the PE's own program order (deterministic);
            // the cross-PE interleaving in the log is scheduling noise, so
            // sort it away. at_ns breaks ties within a PE monotonically.
            let mut events = machine.stats().drain_faults();
            events.sort_by_key(|e| (e.pe, e.at_ns, e.attempt));
            events
        },
        failed_pes: machine.failed_pes(),
        machine: name,
        knobs: machine.knobs().clone(),
        engine: engine_stats,
        results,
    })
}

/// Like [`run_with_result`] but panics on failure. The common entry point
/// for examples and benchmarks.
pub fn run<F, R>(cfg: MachineConfig, f: F) -> SimOutcome<R>
where
    F: Fn(Pe<'_>) -> R + Send + Sync,
    R: Send,
{
    match run_with_result(cfg, f) {
        Ok(o) => o,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::generic_smp;

    #[test]
    fn runs_all_pes_and_collects_results() {
        let out = run(generic_smp(8), |pe| pe.id() * 10);
        assert_eq!(out.results, (0..8).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(out.clocks, vec![0; 8]);
        assert_eq!(out.machine, "generic-smp");
    }

    #[test]
    fn nic_snapshots_reflect_traffic() {
        let out = run(crate::platforms::stampede(2, 1), |pe| {
            if pe.id() == 0 {
                let m = pe.machine();
                let occ = 500;
                m.nic(0).reserve_tx(0, occ, 4096);
                m.nic(1).reserve_rx(700, occ, 4096);
            }
        });
        assert_eq!(out.nics.len(), 2);
        assert_eq!(out.nics[0], super::NicSnapshot { messages: 1, bytes: 4096, busy_ns: 500 });
        assert_eq!(out.nics[1].messages, 1);
    }

    #[test]
    fn makespan_is_max_clock() {
        let out = run(generic_smp(4), |pe| {
            pe.advance(100.0 * (pe.id() as f64 + 1.0));
        });
        assert_eq!(out.makespan_ns(), 400);
    }

    #[test]
    fn panic_on_one_pe_is_reported_not_hung() {
        let err = run_with_result(generic_smp(4), |pe| {
            if pe.id() == 2 {
                panic!("boom on pe 2");
            }
            // Everyone else blocks on a barrier that can never complete;
            // poison must release them.
            pe.machine().barrier_all(pe.id(), 0.0);
        })
        .unwrap_err();
        assert_eq!(err.pe, 2);
        assert!(err.message.contains("boom"), "got: {}", err.message);
    }

    #[test]
    fn a_deadlock_is_an_error_naming_every_wait() {
        if !parking_lot::fiber::SUPPORTED {
            return; // threads tick every 200 ms forever
        }
        use std::sync::atomic::Ordering;
        let began = std::time::Instant::now();
        // PEs 0 and 1 each wait for a flag only the other would set — after
        // its own wait; PE 0 names the word it polls. PE 2 waits for them in
        // a barrier; PE 3 is done.
        let err = run_with_result(generic_smp(4), |pe| {
            let (m, me) = (pe.machine(), pe.id());
            let flag = |p: usize| m.heap(p).atomic64(0x40);
            let set = || flag(me).load(Ordering::Acquire) == 1;
            match me {
                0 | 1 => {
                    m.advance(me, 100.0 * (me + 1) as f64);
                    if me == 0 {
                        m.wait_on_word(me, 0x40, set);
                    } else {
                        m.wait_on(me, set);
                    }
                    m.apply_and_notify(1 - me, || flag(1 - me).store(1, Ordering::Release));
                }
                2 => {
                    m.barrier_all(me, 0.0);
                }
                _ => {}
            }
        })
        .unwrap_err();
        assert!(
            began.elapsed() < std::time::Duration::from_millis(500),
            "took {:?}",
            began.elapsed()
        );
        assert_eq!(err.pe, 0, "the lowest blocked PE");
        let lines: Vec<&str> = err.message.lines().map(str::trim).collect();
        assert!(
            lines[0].starts_with("deadlock:") && lines[0].contains("3 unfinished"),
            "{lines:?}"
        );
        let polled = "PE 0 at 100 ns: wait_on(word at offset 0x40 of PE 0): predicate false";
        assert!(lines[1].starts_with(polled), "{lines:?}");
        assert!(lines[2].starts_with("PE 1 at 200 ns: wait_on: predicate false"), "{lines:?}");
        assert_eq!(lines[3], "PE 2 at 0 ns: barrier(all) round 0, 1 of 4 arrived", "{lines:?}");
        assert_eq!(lines.len(), 4, "the finished PE is not listed: {lines:?}");
    }

    #[test]
    fn a_write_without_a_notify_is_a_stall_naming_the_word() {
        use std::sync::atomic::Ordering;
        // PE 0 waits for its word; PE 1 stores to it behind the machine's
        // back — no `apply_and_notify`, so no wake — and finishes. Nothing
        // can ever unpark PE 0: an error at once, on either carrier.
        for engine in [Engine::Fibers, Engine::Baton] {
            let began = std::time::Instant::now();
            let err = run_on(engine, generic_smp(2), |pe| {
                let (m, me) = (pe.machine(), pe.id());
                let word = m.heap(0).atomic64(0x80);
                if me == 0 {
                    m.wait_on_word(0, 0x80, || word.load(Ordering::Acquire) == 1);
                } else {
                    word.store(1, Ordering::Release);
                }
            })
            .unwrap_err();
            let took = began.elapsed();
            assert!(took < std::time::Duration::from_millis(500), "{engine:?} took {took:?}");
            assert_eq!(err.pe, 0, "{engine:?}");
            let polled = "PE 0 at 0 ns: wait_on(word at offset 0x80 of PE 0): predicate false";
            assert!(err.message.contains(polled), "{engine:?}: {}", err.message);
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn back_to_back_launches_reuse_their_memory() {
        // Minor faults of the calling thread: field 10 of its stat line.
        fn minor_faults() -> usize {
            let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
            let fields = &stat[stat.rfind(')').unwrap() + 2..];
            fields.split(' ').nth(7).unwrap().parse().unwrap()
        }
        const HEAP: usize = 512 << 10;
        let cfg = generic_smp(32).with_heap_bytes(HEAP);
        // Words and stamps, every page written (zeroed at build, then by the
        // PE).
        let heap_pages = 32 * 2 * HEAP / 4096;
        let launch = || {
            let before = minor_faults();
            run(cfg.clone(), |pe| {
                let heap = pe.machine().heap(pe.id());
                (0..HEAP).step_by(4096).for_each(|off| heap.write_bytes(off, &[1]));
            });
            minor_faults() - before
        };
        launch();
        launch();
        for _ in 0..2 {
            let faults = launch();
            assert!(faults < heap_pages / 10, "{faults} minor faults for {heap_pages} heap pages");
        }
    }

    #[test]
    fn barrier_all_aligns_clocks() {
        let out = run(generic_smp(4), |pe| {
            pe.advance(pe.id() as f64 * 50.0);
            pe.machine().barrier_all(pe.id(), 7.0)
        });
        for r in out.results {
            assert_eq!(r, 150 + 7);
        }
    }

    #[test]
    fn group_barrier_only_involves_members() {
        let out = run(generic_smp(4), |pe| {
            if pe.id() < 2 {
                pe.advance(100.0 * (pe.id() + 1) as f64);
                pe.machine().barrier_group(pe.id(), &[0, 1], 0.0)
            } else {
                pe.now()
            }
        });
        assert_eq!(out.results[0], 200);
        assert_eq!(out.results[1], 200);
        assert_eq!(out.results[2], 0);
        assert_eq!(out.results[3], 0);
    }

    #[test]
    fn req_paths_tile_a_transfer_shorter_than_its_queue_plus_service() {
        use crate::trace::{Span, SpanKind};
        let out = crate::with_forced_tracing(true, || {
            run(generic_smp(2), |pe| {
                if pe.id() == 0 {
                    let t = pe.machine().tracer();
                    t.begin_request(0, 1, 100, 150);
                    // 100 ns on the issuing PE, but 80 queued + 120 on the
                    // wire: the rest of the flow overlaps the quiet after it.
                    let mut put = Span::op(0, SpanKind::Put, 150, 250, Some(1), 64);
                    (put.queue_ns, put.service_ns, put.remote_end) = (80, 120, 500);
                    t.record(put);
                    let mut quiet = Span::op(0, SpanKind::Quiet, 250, 500, None, 0);
                    quiet.remote_end = 500;
                    t.record(quiet);
                    t.record(Span::op(0, SpanKind::Retry, 500, 550, Some(1), 0));
                    t.end_request(0, 600);
                }
            })
        });
        let paths = out.req_paths();
        assert_eq!(paths.len(), 1);
        // Queued from 100 to 150; the put's queue share opens both the put
        // and the quiet it bounded; 550..600 is untraced handler code.
        let [queue, wire, nic, sync, fault, handler] = paths[0].phase_ns;
        assert_eq!((queue, wire, nic, sync, fault, handler), (50, 20 + 170, 80 + 80, 0, 50, 50));
        assert_eq!(paths[0].total_ns(), 500, "the six phases tile the latency exactly");
    }

    #[test]
    fn wait_on_sees_remote_heap_write() {
        use std::sync::atomic::Ordering;
        let out = run(generic_smp(2), |pe| {
            let m = pe.machine();
            if pe.id() == 0 {
                m.wait_on(0, || m.heap(0).atomic64(0).load(Ordering::Acquire) == 42);
                m.heap(0).atomic64(0).load(Ordering::Acquire)
            } else {
                m.heap(0).atomic64(0).store(42, Ordering::Release);
                m.notify_pe(0);
                42
            }
        });
        assert_eq!(out.results, vec![42, 42]);
    }
}
