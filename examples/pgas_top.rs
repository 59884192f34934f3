//! `pgas_top`: a live, `top`-style view of a running simulation.
//!
//! A consumer thread (this `main`) watches the CAF Himeno benchmark run on
//! the simulator through the bounded snapshot ring of
//! [`pgas_machine::StreamConfig`]: PE threads publish a [`StreamSample`]
//! (every PE's virtual clock, live op counters, each PE's most recent span,
//! per-NIC traffic) whenever one of them first crosses a virtual-time
//! cadence boundary. Sampling only ever *reads* machine state — attaching
//! the stream moves no virtual clock, a contract asserted in
//! `tests/observability_golden.rs` — so the view below is free.
//!
//! On a terminal the view refreshes in place; when piped, each frame prints
//! as one summary line instead. After the run, the critical-path breakdown
//! is printed, and its sidecar JSON is written only if it differs from the
//! committed `results/fig10_himeno.critpath.json` (this example runs the
//! Figure 10 workload, so byte-identical output would just duplicate the
//! committed artifact).
//!
//! Run with: `cargo run --release --example pgas_top`
//!
//! `cargo run --release --example pgas_top -- churn` instead watches the
//! availability-under-churn workload (`availability_churn`): a push
//! consumer registered with [`StreamConfig::with_consumer`] turns every
//! snapshot into a point of a live availability series — images up at that
//! virtual instant — so the scheduled worker death and the post-recovery
//! return to full strength are visible while the run executes, without
//! moving a single virtual clock.

use std::io::IsTerminal;
use std::time::Duration;

use caf::{Backend, StridedAlgorithm};
use caf_apps::himeno::{run_himeno_outcome, HimenoConfig};
use pgas_machine::{
    with_forced_metrics, with_forced_stream, with_forced_tracing, Platform, StreamConfig,
    StreamSample,
};

/// Virtual-time sampling cadence: the xs Himeno run spans ~1 ms of virtual
/// time, so 20 µs gives on the order of fifty frames.
const CADENCE_NS: u64 = 20_000;

fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

fn render_frame(s: &StreamSample, live: bool) {
    if !live {
        let max = s.clocks.iter().copied().max().unwrap_or(0);
        println!(
            "sample {:>4}  t={:>9} ns  clocks {:>9}..{:<9} ns",
            s.seq,
            s.t_ns,
            s.clocks.iter().copied().min().unwrap_or(0),
            max,
        );
        return;
    }
    // Clear screen, cursor home.
    print!("\x1b[2J\x1b[H");
    println!("pgas_top — himeno on {} PEs   sample {}   t = {} ns", s.clocks.len(), s.seq, s.t_ns);
    println!();
    let max = s.clocks.iter().copied().max().unwrap_or(1).max(1);
    for (pe, &clk) in s.clocks.iter().enumerate() {
        let last = s
            .inflight
            .get(pe)
            .and_then(|o| o.as_ref())
            .map(|sp| format!("{:?}", sp.kind))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "  PE {pe:>2} [{}] {clk:>9} ns  last op: {last}",
            bar(clk as f64 / max as f64, 30)
        );
    }
    if !s.counters.is_empty() {
        println!();
        let line = s
            .counters
            .iter()
            .filter(|(_, v)| *v > 0)
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("  ");
        println!("  ops: {line}");
    }
    if !s.nics.is_empty() {
        let msgs: u64 = s.nics.iter().map(|n| n.messages).sum();
        let bytes: u64 = s.nics.iter().map(|n| n.bytes).sum();
        println!("  nic: {msgs} messages, {bytes} bytes across {} node(s)", s.nics.len());
    }
}

/// The `churn` mode: watch the availability-under-churn run through the
/// stream's push-consumer hook. The consumer derives the availability
/// series — a PE whose clock crossed the scheduled death instant is down —
/// from each snapshot as it is published, the pattern an external
/// dashboard would use.
fn churn_top() {
    use caf_apps::{run_churn_outcome, ChurnConfig};
    use pgas_machine::{with_forced_aggregation, with_forced_plan, FaultPlan};
    use std::sync::{Arc, Mutex};

    let cfg = ChurnConfig::default();
    let (victim_pe, deadline) = (4usize, 30_000u64);
    let images = 9;
    let series: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&series);
    // The churn run spans ~70 µs of virtual time; a 2 µs cadence gives a
    // few dozen availability points.
    let stream = StreamConfig::new(2_000, 512).with_consumer(Arc::new(move |s: &StreamSample| {
        let live = s
            .clocks
            .iter()
            .enumerate()
            .filter(|&(pe, &clk)| !(pe == victim_pe && clk >= deadline))
            .count();
        sink.lock().unwrap().push((s.t_ns, live));
    }));
    let ring = stream.ring();
    let sim = std::thread::spawn(move || {
        with_forced_stream(stream, || {
            with_forced_aggregation(true, || {
                with_forced_plan(
                    FaultPlan::new(cfg.seed).with_pe_failure(victim_pe, deadline),
                    || run_churn_outcome(Platform::Titan, Backend::Shmem, images, cfg),
                )
            })
        })
    });

    let live_tty = std::io::stdout().is_terminal();
    let mut last_seen: Option<u64> = None;
    while !sim.is_finished() {
        if let Some(s) = ring.latest() {
            if last_seen != Some(s.seq) {
                last_seen = Some(s.seq);
                render_frame(&s, live_tty);
                if let Some(&(t, up)) = series.lock().unwrap().last() {
                    println!("  availability: {up}/{images} images up at t={t} ns");
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let (result, _out) = sim.join().expect("simulation thread panicked");

    let pts = series.lock().unwrap().clone();
    println!("\navailability series ({} samples from the stream consumer):", pts.len());
    let mut prev = None;
    for (t, up) in &pts {
        if prev != Some(*up) {
            println!("  t={t:>7} ns  {up}/{images} up  [{}]", bar(*up as f64 / images as f64, 18));
            prev = Some(*up);
        }
    }
    println!(
        "\nchurn: detect round {:?}, {} replayed + {} retried, recovery ratio {:.3}",
        result.detect_round, result.replayed, result.retried, result.recovery_ratio
    );
    println!(
        "zero lost acknowledged writes: checksum {:#018x} {} acked sum {:#018x}",
        result.checksum,
        if result.checksum == result.acked_sum { "==" } else { "!=" },
        result.acked_sum
    );
    println!("final worker team: {:?}", result.members_after);
}

/// The `serve` mode: watch the open-loop serving workload's windowed
/// latency telemetry live. The stream samples the `serve_latency_ns`
/// windowed series ([`StreamConfig::with_window_metric`]) into every
/// snapshot, and the push consumer evaluates the serving SLO over whatever
/// windows exist *so far* — current p50/p99/p999 and the fast/slow
/// burn rates — exactly the way an external dashboard would, moving no
/// virtual clock.
fn serve_top() {
    use caf_apps::serve::{run_serve_outcome, ServeConfig};
    use pgas_machine::metrics::WindowEntry;
    use pgas_machine::tailprof::REQ_PHASES;
    use pgas_machine::{with_forced_aggregation, with_forced_plan, with_forced_tracing, FaultPlan};
    use std::sync::{Arc, Mutex};

    let cfg = ServeConfig {
        keyspace: 100_000,
        requests_per_image: 400,
        epochs: 8,
        mean_gap_ns: 2_000.0,
        window_ns: 50_000,
        slo_threshold_ns: 25_000,
        ..Default::default()
    };
    let (victim_pe, deadline) = (4usize, 300_000u64);
    let images = 9;
    let spec = cfg.slo_spec();
    let window_ns = cfg.window_ns;
    let threshold_ns = cfg.slo_threshold_ns;
    // One live SLO row per sample: (t, p50, p99, p999, fast burn ×1000).
    type Row = (u64, u64, u64, u64, u64);
    let series: Arc<Mutex<Vec<Row>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&series);
    let stream = StreamConfig::new(20_000, 512)
        .with_window_metric("serve_latency_ns")
        .with_requests()
        .with_consumer(Arc::new(move |s: &StreamSample| {
            if s.windows.is_empty() {
                return;
            }
            let refs: Vec<&WindowEntry> = s.windows.iter().collect();
            let report = spec.evaluate_series(window_ns, &refs);
            if let Some(w) = report.windows.last() {
                sink.lock().unwrap().push((s.t_ns, w.p50, w.p99, w.p999, w.fast_burn_x1000));
            }
        }));
    let ring = stream.ring();
    let sim = std::thread::spawn(move || {
        // Tracing on: the request records feed the live tail-cause panel
        // and the final run-level tail attribution (no virtual clock moves).
        with_forced_tracing(true, || {
            with_forced_stream(stream, || {
                with_forced_aggregation(true, || {
                    with_forced_plan(
                        FaultPlan::new(cfg.seed).with_pe_failure(victim_pe, deadline),
                        || run_serve_outcome(Platform::Titan, Backend::Shmem, images, cfg, true),
                    )
                })
            })
        })
    });

    let live_tty = std::io::stdout().is_terminal();
    let mut last_seen: Option<u64> = None;
    while !sim.is_finished() {
        if let Some(s) = ring.latest() {
            if last_seen != Some(s.seq) {
                last_seen = Some(s.seq);
                render_frame(&s, live_tty);
                if let Some(&(t, p50, p99, p999, burn)) = series.lock().unwrap().last() {
                    println!(
                        "  slo: p50 {p50} ns  p99 {p99} ns  p999 {p999} ns  \
                         fast burn {:.1}x at t={t} ns",
                        burn as f64 / 1000.0
                    );
                }
                // Live "top tail causes": decompose the completed slow
                // requests in the snapshot into their critical-path phases
                // (queue wait from the open-loop schedule, the tracer's
                // running nic/wire/sync/fault sums, handler compute as the
                // busy remainder) and rank where tail time is going so far.
                let mut phase = [0u64; 6];
                let mut slow = 0u64;
                for r in &s.requests {
                    if r.end_ns.saturating_sub(r.arrival_ns) <= threshold_ns {
                        continue;
                    }
                    slow += 1;
                    let attributed = r.nic_ns + r.wire_ns + r.sync_ns + r.fault_ns;
                    phase[0] += r.begin_ns.saturating_sub(r.arrival_ns);
                    phase[1] += r.wire_ns;
                    phase[2] += r.nic_ns;
                    phase[3] += r.sync_ns;
                    phase[4] += r.fault_ns;
                    phase[5] += r.end_ns.saturating_sub(r.begin_ns).saturating_sub(attributed);
                }
                let total: u64 = phase.iter().sum();
                if slow > 0 && total > 0 {
                    let mut ranked: Vec<(usize, u64)> =
                        phase.iter().copied().enumerate().filter(|&(_, ns)| ns > 0).collect();
                    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    println!("  top tail causes ({slow} slow requests so far):");
                    for &(k, ns) in ranked.iter().take(3) {
                        println!(
                            "    {:>15} {ns:>10} ns [{}]",
                            REQ_PHASES[k].label(),
                            bar(ns as f64 / total as f64, 18)
                        );
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let (result, _out) = sim.join().expect("simulation thread panicked");

    let rows = series.lock().unwrap().clone();
    println!("\nlive SLO series ({} samples from the stream consumer):", rows.len());
    let peak_p999 = rows.iter().map(|r| r.3).max().unwrap_or(1).max(1);
    let mut last_window = None;
    for &(t, _p50, p99, p999, burn) in &rows {
        // One line per virtual-time window (samples inside a window repeat).
        let w = t / window_ns;
        if last_window == Some(w) {
            continue;
        }
        last_window = Some(w);
        println!(
            "  t={t:>8} ns  p99 {p99:>8} ns  p999 {p999:>8} ns [{}] burn {:>6.1}x",
            bar(p999 as f64 / peak_p999 as f64, 18),
            burn as f64 / 1000.0
        );
    }
    println!(
        "\nserve: {} completed + {} drained ({} dropped with the victim), detect epoch {:?}",
        result.completed, result.drained, result.dropped, result.detect_epoch
    );
    println!(
        "zero lost acknowledged writes: checksum {:#018x} {} acked sum {:#018x}",
        result.checksum,
        if result.checksum == result.acked_sum { "==" } else { "!=" },
        result.acked_sum
    );
    println!("final worker team: {:?}\n", result.members_after);
    println!("{}", result.slo.render());
    if let Some(tail) = &result.tail {
        println!("{}", tail.render());
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("churn") {
        churn_top();
        return;
    }
    if std::env::args().nth(1).as_deref() == Some("serve") {
        serve_top();
        return;
    }
    let images = 8;
    let cfg = HimenoConfig::size_xs();
    let stream = StreamConfig::new(CADENCE_NS, 256);
    let ring = stream.ring();

    // The simulation runs on its own thread; `main` stays the consumer so a
    // slow terminal can never stall a PE (the ring just evicts old frames).
    let sim = std::thread::spawn(move || {
        with_forced_stream(stream, || {
            with_forced_tracing(true, || {
                with_forced_metrics(true, || {
                    run_himeno_outcome(
                        Platform::Stampede,
                        Backend::Shmem,
                        Some(StridedAlgorithm::Naive),
                        images,
                        cfg,
                    )
                })
            })
        })
    });

    let live = std::io::stdout().is_terminal();
    let mut last_seen: Option<u64> = None;
    while !sim.is_finished() {
        if let Some(s) = ring.latest() {
            if last_seen != Some(s.seq) {
                last_seen = Some(s.seq);
                render_frame(&s, live);
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let (result, out) = sim.join().expect("simulation thread panicked");

    // Show what the consumer missed plus the stream's lifetime accounting.
    let leftover = ring.drain();
    if let Some(s) = leftover.last() {
        if last_seen != Some(s.seq) {
            render_frame(s, live);
        }
    }
    if live {
        println!();
    }
    println!(
        "stream: {} samples produced ({} dropped to ring overflow), cadence {} ns virtual",
        ring.total(),
        ring.dropped(),
        CADENCE_NS,
    );

    println!(
        "himeno {}x{}x{} on {images} images: {:.0} MFLOPS, {:.2} ms virtual",
        cfg.imax, cfg.jmax, cfg.kmax, result.mflops, result.time_ms
    );
    println!("captured {} spans, {} metric series\n", out.trace.len(), out.metrics.counters.len());

    let report = out.critical_path();
    println!("{}", report.render());
    assert_eq!(
        report.total_ns(),
        out.makespan_ns(),
        "critical-path components must sum to the run's total virtual time"
    );

    // This example runs the Figure 10 workload, and the stream moves no
    // clocks — so the sidecar normally matches the committed fig10 one byte
    // for byte. Only write ours when it actually differs.
    let sidecar = report.to_sidecar_json().pretty();
    let fig10 = std::fs::read_to_string("results/fig10_himeno.critpath.json").unwrap_or_default();
    let path = "results/pgas_top.critpath.json";
    if sidecar == fig10 {
        println!("\ncritical path matches results/fig10_himeno.critpath.json — no sidecar written");
        if std::fs::remove_file(path).is_ok() {
            println!("removed stale {path}");
        }
    } else {
        std::fs::create_dir_all("results").ok();
        std::fs::write(path, &sidecar).expect("write critical-path sidecar");
        println!("\nwrote {path}");
    }
}
