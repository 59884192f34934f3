//! Golden-snapshot validation of the observability exports.
//!
//! The simulator is deterministic in virtual time, so a race-free workload
//! must reproduce its metrics byte-for-byte on every machine and every run.
//! This test pins the Prometheus text export of one such workload to a
//! committed fixture: any change to op accounting, metric naming, bucket
//! boundaries or export formatting shows up as a diff against
//! `tests/fixtures/observability_golden.prom` and has to be re-recorded
//! deliberately (run with `UPDATE_GOLDEN=1` to regenerate).
//!
//! It also validates that the Perfetto/chrome-trace export is well-formed
//! JSON with the expected metadata, that the critical-path report tiles the
//! makespan exactly, and that turning the observability layer off does not
//! change a single virtual clock.

use caf::{run_caf, Backend, CafConfig};
use pgas_machine::trace::chrome_trace_json;
use pgas_machine::{
    generic_smp, with_forced_metrics, with_forced_stream, with_forced_tracing, FaultPlan, Platform,
    StreamConfig,
};

const FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/observability_golden.prom");
const SERVING_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/serving_windows.prom");

/// A deterministic, race-free workload touching every op kind the metrics
/// registry accounts: puts, gets, locks (uncontended instances), sync_all
/// and a reduction. Every remotely accessed word has a single accessing
/// image, and the NIC arbiter grants same-instant reservations in
/// `(start, pe)` order, so virtual clocks — and therefore every latency
/// histogram — are independent of host scheduling.
fn workload() -> pgas_machine::SimOutcome<i64> {
    // Pin coalescing off for the same reason as the zero fault plan: the
    // golden fixture records the *direct* op path's metrics, and an ambient
    // PGAS_COALESCE=on (the test-aggregated CI job) would re-route small
    // puts through staging buffers and change the byte-exact counters.
    pgas_machine::with_forced_aggregation(false, || {
        run_caf(
            // Byte-exact goldens need a clean interconnect: the explicit zero
            // plan opts out of the PGAS_FAULT_PLAN environment default (the CI
            // test-faulted job), whose injected retries would add AMOs and
            // quiets to the counters.
            generic_smp(4).with_heap_bytes(1 << 17).with_faults(FaultPlan::none()),
            CafConfig::new(Backend::Shmem, Platform::GenericSmp),
            |img| {
                let n = img.num_images();
                let me = img.this_image();
                let ring = img.coarray::<i64>(&[8]).unwrap();
                let lck = img.lock_var();
                img.sync_all();
                let next = me % n + 1;
                for round in 0..3 {
                    // `ring[next]` is written and read only by `me`.
                    ring.put_to(img, next, &[(me * 10 + round) as i64; 8]);
                    img.sync_all();
                    let back = ring.get_from(img, next);
                    assert_eq!(back[0], (me * 10 + round) as i64);
                    img.sync_all();
                }
                // Each image cycles its own (uncontended) lock instance.
                img.lock(&lck, me);
                img.unlock(&lck, me);
                let mut v = [me as i64];
                img.co_sum(&mut v, None);
                v[0]
            },
        )
    })
}

fn traced_workload() -> pgas_machine::SimOutcome<i64> {
    with_forced_tracing(true, || with_forced_metrics(true, workload))
}

#[test]
fn prometheus_export_matches_golden_fixture() {
    let out = traced_workload();
    let text = out.metrics.to_prometheus();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(FIXTURE, &text).expect("write golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(FIXTURE)
        .expect("missing tests/fixtures/observability_golden.prom — run with UPDATE_GOLDEN=1");
    assert_eq!(
        text, golden,
        "Prometheus export drifted from the committed fixture; if the change \
         is intentional, re-record with UPDATE_GOLDEN=1"
    );
}

/// The open-loop serving scenario behind the `serving_slo` figure's probe:
/// 9 images on one Titan node, Am-mode writes, worker PE 4 dying at 12 µs.
/// Every env-sensitive layer is forced (aggregation, checksums, fault plan,
/// metrics), so the export — including
/// the virtual-time *windowed* series the SLO report is computed from — is
/// byte-stable on any machine and under any CI job's ambient knobs.
fn serving_workload() -> pgas_machine::SimOutcome<caf_apps::serve::ServeImageOut> {
    use caf_apps::serve::{run_serve_outcome, ServeConfig};
    let cfg = ServeConfig {
        keyspace: 10_000,
        requests_per_image: 40,
        epochs: 2,
        slots_per_shard: 64,
        mean_gap_ns: 1_500.0,
        ..Default::default()
    };
    let plan = FaultPlan::new(cfg.seed).with_pe_failure(4, 12_000);
    pgas_machine::with_forced_aggregation(true, || {
        pgas_machine::with_forced_checksums(true, || {
            pgas_machine::with_forced_plan(plan, || {
                with_forced_metrics(true, || {
                    run_serve_outcome(Platform::Titan, Backend::Shmem, 9, cfg, true).1
                })
            })
        })
    })
}

/// Pins the windowed-series half of the Prometheus surface: histogram
/// windows render as per-window `summary` blocks labelled by virtual start
/// time, counter windows as `_window_total` series — and, since the tail
/// attributor landed, the p999 quantile of a window with SLO-violating
/// requests carries an OpenMetrics-style exemplar annotation naming the
/// worst request id and its dominant cause. Any change to window bucketing,
/// merge order, quantile extraction, label formatting or the exemplar
/// trailer lands here as a diff against `tests/fixtures/serving_windows.prom`.
#[test]
fn serving_windowed_export_matches_golden_fixture() {
    let out = with_forced_tracing(true, serving_workload);
    let tail = out.tail_attribution(
        20_000, // the serve default SLO threshold
        pgas_machine::tailprof::DEFAULT_EXEMPLARS,
        0x5E21, // the serve default seed
    );
    let text = out.metrics.to_prometheus_with_tail(&tail);
    for needle in
        ["pgas_serve_latency_ns_window", "pgas_serve_queue_ns_window", "pgas_serve_requests_window"]
    {
        assert!(text.contains(needle), "windowed series `{needle}` missing from the export");
    }
    assert!(text.contains("# {req="), "the outage window's p999 carries an exemplar annotation");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(SERVING_FIXTURE, &text).expect("write serving golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(SERVING_FIXTURE)
        .expect("missing tests/fixtures/serving_windows.prom — run with UPDATE_GOLDEN=1");
    assert_eq!(
        text, golden,
        "windowed Prometheus export drifted from the committed fixture; if the \
         change is intentional, re-record with UPDATE_GOLDEN=1"
    );
}

#[test]
fn chrome_trace_export_is_wellformed_and_critpath_tiles_makespan() {
    let out = traced_workload();
    assert!(!out.trace.is_empty(), "traced run must capture spans");

    let json = chrome_trace_json(&out.trace, 1);
    let parsed = pgas_machine::json::parse(&json).expect("chrome trace JSON parses");
    let events = parsed.as_array().expect("chrome trace export is a JSON array of events");
    assert!(events.len() > out.trace.len(), "metadata + flow events ride along with spans");
    assert!(json.contains("\"process_name\""), "process naming metadata present");
    assert!(json.contains("\"thread_name\""), "thread naming metadata present");

    let report = out.critical_path();
    assert_eq!(
        report.total_ns(),
        out.makespan_ns(),
        "critical-path components must sum to the makespan"
    );
    let cp =
        pgas_machine::json::parse(&report.to_json().pretty()).expect("critical-path JSON parses");
    assert!(cp.get("makespan_ns").is_some());

    let metrics_json = out.metrics.to_json().pretty();
    pgas_machine::json::parse(&metrics_json).expect("metrics JSON parses");
}

#[test]
fn streaming_channel_does_not_change_virtual_time() {
    // The live `pgas_top` contract: attaching a snapshot stream (sampling at
    // a virtual-time cadence into a bounded ring) only ever *reads* machine
    // state — no virtual clock moves, same as tracing and metrics.
    let stream = StreamConfig::new(500, 64);
    let ring = stream.ring();
    let streamed = with_forced_stream(stream, traced_workload);
    let plain = traced_workload();
    assert_eq!(
        streamed.clocks, plain.clocks,
        "attaching the snapshot stream must not move a single virtual clock"
    );

    let samples = ring.drain();
    assert!(!samples.is_empty(), "a multi-microsecond run at 500 ns cadence produces samples");
    assert!(samples.windows(2).all(|w| w[0].seq < w[1].seq), "sample seq is strictly monotone");
    assert!(samples.windows(2).all(|w| w[0].t_ns <= w[1].t_ns), "sample time never goes back");
    let n = streamed.clocks.len();
    for s in &samples {
        assert_eq!(s.clocks.len(), n, "every sample covers every PE");
        assert!(s.t_ns <= streamed.makespan_ns(), "samples live inside the run");
    }
    assert_eq!(
        ring.total(),
        samples.len() as u64 + ring.dropped(),
        "lifetime accounting: buffered + dropped tiles everything produced"
    );
}

#[test]
fn streamed_samples_repeat_exactly() {
    // One PE runs at a time, so which PE crosses each cadence boundary, and
    // what it sees there, is a function of the program: every run streams
    // the same samples.
    let streamed = || {
        let stream = StreamConfig::new(500, 64);
        let ring = stream.ring();
        with_forced_stream(stream, traced_workload);
        format!("{:?}", ring.drain())
    };
    let reference = streamed();
    assert!(reference.contains("seq: 1,"), "the run streams several samples");
    for run in 0..20 {
        assert_eq!(streamed(), reference, "streamed run {run}");
    }
}

#[test]
fn observability_off_does_not_change_virtual_time() {
    let on = traced_workload();
    let off = with_forced_tracing(false, || with_forced_metrics(false, workload));
    assert!(off.trace.is_empty(), "tracing off captures nothing");
    assert!(off.metrics.counters.is_empty(), "metrics off records nothing");
    assert_eq!(
        on.clocks, off.clocks,
        "enabling observability must not move a single virtual clock"
    );
    assert_eq!(on.makespan_ns(), off.makespan_ns());
}
