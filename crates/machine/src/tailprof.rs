//! Per-request critical paths, window-level tail profiles and SLO exemplars.
//!
//! [`crate::critpath`] explains a run's *makespan*; [`crate::slo`] says which
//! windows violated an objective. This module closes the loop from a
//! burn-rate alert back to the requests that caused it: it runs the
//! critical-path walk *per request id* (spans carry request ids —
//! see [`crate::trace::Tracer::begin_request`]) and tiles every request's
//! end-to-end latency into six phases:
//!
//! - **queue-wait** — admitted by the open-loop clock but not yet served;
//! - **wire** — NIC service time of the ops the request issued;
//! - **nic-contention** — time those ops waited behind other traffic;
//! - **synchronization** — barriers, waits and unpaired completion stalls;
//! - **fault-delay** — detection timeouts and retry backoff under faults;
//! - **handler-compute** — the serving PE's own work (and any residue).
//!
//! Per-request reports aggregate into per-SLO-window [`TailProfile`]s:
//! phase totals split between requests *above* the objective threshold and
//! those below it, a `dominant_cause` per window, and Prometheus-style
//! **exemplars** — the k worst request ids of the window, retained by
//! [`TailSampler`]. The sampler is a deterministic virtual-time tail
//! reservoir: it keys on `(latency, mix(seed ^ id), id)`, a total order over
//! requests, so the retained set is a pure function of the run's virtual
//! behaviour and the configured seed — bit-identical across repeated runs
//! and both engines, like every other digest in the tree.
//!
//! [`TailAttribution::annotate`] folds the profiles back into an
//! [`SloReport`]: every window gains its dominant cause and every fast/slow
//! burn alert carries the worst exemplars of the trailing span that fired it.

use crate::critpath::{flow_index, walk_back, PathCategory, SpanIndex};
use crate::json::Json;
use crate::slo::SloReport;
use crate::trace::{ReqRecord, Span};
use std::collections::BTreeMap;

/// Default exemplar count retained per window (the `k` in "k worst").
pub const DEFAULT_EXEMPLARS: usize = 5;

/// One phase of a request's latency decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReqPhase {
    /// Admitted (open-loop arrival) but the serving PE had not started yet.
    QueueWait,
    /// NIC lane occupancy of the ops the request issued.
    Wire,
    /// Time the request's ops waited behind earlier traffic on the NICs.
    NicContention,
    /// Barriers, waits, and completion stalls not bounded by a known flow.
    Synchronization,
    /// Fault detection timeouts and retry backoff.
    FaultDelay,
    /// The serving PE's own compute, plus any untraced residue.
    HandlerCompute,
}

/// Every phase, in presentation (and tie-break) order.
pub const REQ_PHASES: [ReqPhase; 6] = [
    ReqPhase::QueueWait,
    ReqPhase::Wire,
    ReqPhase::NicContention,
    ReqPhase::Synchronization,
    ReqPhase::FaultDelay,
    ReqPhase::HandlerCompute,
];

impl ReqPhase {
    pub fn label(self) -> &'static str {
        match self {
            ReqPhase::QueueWait => "queue_wait",
            ReqPhase::Wire => "wire",
            ReqPhase::NicContention => "nic_contention",
            ReqPhase::Synchronization => "synchronization",
            ReqPhase::FaultDelay => "fault_delay",
            ReqPhase::HandlerCompute => "handler_compute",
        }
    }

    pub fn parse(s: &str) -> Option<ReqPhase> {
        REQ_PHASES.into_iter().find(|p| p.label() == s)
    }
}

/// One request's latency, tiled exactly into the six [`ReqPhase`]s:
/// `phase_ns` sums to `end_ns - arrival_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqPathReport {
    pub id: u64,
    pub pe: usize,
    pub arrival_ns: u64,
    pub begin_ns: u64,
    pub end_ns: u64,
    /// Phase durations indexed by [`REQ_PHASES`] order.
    pub phase_ns: [u64; 6],
}

impl ReqPathReport {
    /// End-to-end latency (arrival to completion), ns.
    pub fn total_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.arrival_ns)
    }

    /// The phase this request spent the most time in (ties break in
    /// [`REQ_PHASES`] order).
    pub fn dominant_phase(&self) -> ReqPhase {
        dominant(&self.phase_ns)
    }
}

/// The phase holding the most time; ties break in [`REQ_PHASES`] order.
fn dominant(phase_ns: &[u64; 6]) -> ReqPhase {
    REQ_PHASES[(0..6).fold(0, |best, i| if phase_ns[i] > phase_ns[best] { i } else { best })]
}

/// The walk's categories as request phases: the serving PE's own time is
/// handler compute.
fn phase_of(c: PathCategory) -> ReqPhase {
    match c {
        PathCategory::Compute => ReqPhase::HandlerCompute,
        PathCategory::Wire => ReqPhase::Wire,
        PathCategory::NicContention => ReqPhase::NicContention,
        PathCategory::Synchronization => ReqPhase::Synchronization,
        PathCategory::FaultDelay => ReqPhase::FaultDelay,
    }
}

/// Walk the span graph per request id and emit one [`ReqPathReport`] per
/// request, in the deterministic `(pe, id)` order of `requests`. Each is
/// the critical path's backward walk (`critpath::walk_back`) over the
/// request's own spans on `[begin, end]` — no hops, gaps are handler
/// compute — behind the `queue_wait` of its arrival. Every report tiles
/// its latency exactly: `phase_ns` sums to `total_ns()`.
pub fn req_paths(spans: &[Span], requests: &[ReqRecord]) -> Vec<ReqPathReport> {
    let mut tagged: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.req != 0) {
        tagged.entry(s.req).or_default().push(s);
    }
    let tagged: BTreeMap<u64, SpanIndex> =
        tagged.into_iter().map(|(req, spans)| (req, SpanIndex::new(spans))).collect();
    // Flows from the whole run: a quiet may wait on a transfer it did not issue.
    let flows = flow_index(spans);
    let untraced = SpanIndex::new(Vec::new());
    requests
        .iter()
        .map(|r| {
            let mut phase_ns = [0u64; 6];
            phase_ns[ReqPhase::QueueWait as usize] = r.begin_ns.saturating_sub(r.arrival_ns);
            let begin = r.begin_ns.max(r.arrival_ns);
            let end = r.end_ns.max(begin);
            let index = tagged.get(&r.id).unwrap_or(&untraced);
            walk_back(
                std::slice::from_ref(index),
                0,
                begin,
                end,
                &flows,
                |_, _| None,
                |seg| phase_ns[phase_of(seg.category) as usize] += seg.duration_ns(),
            );
            ReqPathReport {
                id: r.id,
                pe: r.pe,
                arrival_ns: r.arrival_ns,
                begin_ns: r.begin_ns,
                end_ns: r.end_ns,
                phase_ns,
            }
        })
        .collect()
}

/// Element-wise sum of phase vectors (in [`REQ_PHASES`] order), e.g. of
/// every report's `phase_ns`.
pub fn phase_totals(phases: impl IntoIterator<Item = [u64; 6]>) -> [u64; 6] {
    let mut totals = [0u64; 6];
    for phase_ns in phases {
        for (slot, v) in totals.iter_mut().zip(phase_ns) {
            *slot += v;
        }
    }
    totals
}

/// Phase durations as one JSON object keyed by phase label.
fn phase_json(phase_ns: &[u64; 6]) -> Json {
    Json::Object(
        REQ_PHASES
            .iter()
            .zip(phase_ns)
            .map(|(p, &v)| (p.label().to_string(), Json::uint(v as usize)))
            .collect(),
    )
}

/// The `{count, phase_ns}` request block that run digests and figure
/// sidecars carry.
pub fn requests_json(count: u64, phase_ns: &[u64; 6]) -> Json {
    Json::Object(vec![
        ("count".to_string(), Json::uint(count as usize)),
        ("phase_ns".to_string(), phase_json(phase_ns)),
    ])
}

/// One retained worst-case request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    pub id: u64,
    pub pe: usize,
    pub latency_ns: u64,
    /// The phase that dominated this request's latency.
    pub dominant: ReqPhase,
}

/// Deterministic k-worst tail reservoir. Candidates are kept by the total
/// order `(latency desc, mix(seed ^ id), id)`: latency picks the tail, the
/// seeded mix breaks latency ties without favouring low request ids, and the
/// id itself makes the order total. Because the key is a pure function of
/// `(seed, id, latency)`, the retained set is independent of offer order —
/// and therefore of the host schedule.
#[derive(Debug, Clone)]
pub struct TailSampler {
    k: usize,
    seed: u64,
    /// Kept candidates, sorted worst (highest key) first.
    kept: Vec<(u64, u64, Exemplar)>,
}

/// SplitMix64 finalizer — the same integer mix the workloads use for keys.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TailSampler {
    pub fn new(k: usize, seed: u64) -> TailSampler {
        TailSampler { k, seed, kept: Vec::with_capacity(k.min(64)) }
    }

    /// Offer one request; it is retained iff it ranks among the k worst seen.
    pub fn offer(&mut self, e: Exemplar) {
        if self.k == 0 {
            return;
        }
        let key = (e.latency_ns, mix(self.seed ^ e.id));
        let pos = self
            .kept
            .partition_point(|&(lat, tie, ref kept)| (lat, tie, kept.id) > (key.0, key.1, e.id));
        if pos < self.k {
            self.kept.insert(pos, (key.0, key.1, e));
            self.kept.truncate(self.k);
        }
    }

    /// The retained exemplars, worst first.
    pub fn into_exemplars(self) -> Vec<Exemplar> {
        self.kept.into_iter().map(|(_, _, e)| e).collect()
    }
}

/// Phase totals of one SLO window, split by whether the request met the
/// threshold, plus the window's retained exemplars.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailProfile {
    /// Window index (`end_ns / window_ns` of the requests completing here).
    pub window: u64,
    pub start_ns: u64,
    /// Requests completing in this window.
    pub count: u64,
    /// Requests above the threshold (the tail).
    pub slow: u64,
    /// Phase totals over the slow requests, [`REQ_PHASES`] order.
    pub slow_phase_ns: [u64; 6],
    /// Phase totals over the requests that met the threshold.
    pub fast_phase_ns: [u64; 6],
    /// The k worst requests of the window, worst first.
    pub exemplars: Vec<Exemplar>,
}

impl TailProfile {
    /// The phase dominating the slow requests' time, or `None` when the
    /// window has no violations. Ties break in [`REQ_PHASES`] order.
    pub fn dominant_cause(&self) -> Option<ReqPhase> {
        (self.slow > 0).then(|| dominant(&self.slow_phase_ns))
    }
}

/// The full tail attribution of a run: one [`TailProfile`] per SLO window
/// that completed at least one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailAttribution {
    pub threshold_ns: u64,
    /// Window width; 0 folds the whole run into a single window 0.
    pub window_ns: u64,
    pub seed: u64,
    /// Exemplars retained per window.
    pub k: usize,
    /// Profiles sorted by window index.
    pub profiles: Vec<TailProfile>,
}

/// Aggregate per-request reports into per-window tail profiles. Requests
/// land in the window containing their *completion* instant — the same
/// convention `MetricsRegistry::observe_windowed` uses, so profiles line up
/// with [`crate::slo`] windows index for index.
pub fn attribute(
    reports: &[ReqPathReport],
    threshold_ns: u64,
    window_ns: u64,
    k: usize,
    seed: u64,
) -> TailAttribution {
    struct Acc {
        count: u64,
        slow: u64,
        slow_phase_ns: [u64; 6],
        fast_phase_ns: [u64; 6],
        sampler: TailSampler,
    }
    let mut windows: BTreeMap<u64, Acc> = BTreeMap::new();
    for r in reports {
        let w = r.end_ns.checked_div(window_ns).unwrap_or(0);
        let acc = windows.entry(w).or_insert_with(|| Acc {
            count: 0,
            slow: 0,
            slow_phase_ns: [0; 6],
            fast_phase_ns: [0; 6],
            sampler: TailSampler::new(k, seed),
        });
        acc.count += 1;
        let latency = r.total_ns();
        let bucket = if latency > threshold_ns {
            acc.slow += 1;
            &mut acc.slow_phase_ns
        } else {
            &mut acc.fast_phase_ns
        };
        for (slot, v) in bucket.iter_mut().zip(r.phase_ns) {
            *slot += v;
        }
        acc.sampler.offer(Exemplar {
            id: r.id,
            pe: r.pe,
            latency_ns: latency,
            dominant: r.dominant_phase(),
        });
    }
    let profiles = windows
        .into_iter()
        .map(|(w, acc)| TailProfile {
            window: w,
            start_ns: w.saturating_mul(window_ns),
            count: acc.count,
            slow: acc.slow,
            slow_phase_ns: acc.slow_phase_ns,
            fast_phase_ns: acc.fast_phase_ns,
            exemplars: acc.sampler.into_exemplars(),
        })
        .collect();
    TailAttribution { threshold_ns, window_ns, seed, k, profiles }
}

impl TailAttribution {
    /// The profile for window index `window`, if any request completed there.
    pub fn profile_at(&self, window: u64) -> Option<&TailProfile> {
        self.profiles.iter().find(|p| p.window == window)
    }

    /// Run-wide slow-request phase totals, largest first — the "top tail
    /// causes" panel.
    pub fn top_causes(&self) -> Vec<(ReqPhase, u64)> {
        let totals = phase_totals(self.profiles.iter().map(|p| p.slow_phase_ns));
        let mut out: Vec<(ReqPhase, u64)> =
            REQ_PHASES.into_iter().zip(totals).filter(|&(_, v)| v > 0).collect();
        out.sort_by_key(|&(p, v)| (std::cmp::Reverse(v), p));
        out
    }

    /// The k worst exemplars across the trailing `span` windows ending at
    /// `window` (inclusive) — what a burn alert at that window's end carries.
    pub fn exemplars_over(&self, window: u64, span: usize) -> Vec<Exemplar> {
        let lo = (window + 1).saturating_sub(span.max(1) as u64);
        let mut sampler = TailSampler::new(self.k, self.seed);
        for p in self.profiles.iter().filter(|p| p.window >= lo && p.window <= window) {
            for &e in &p.exemplars {
                sampler.offer(e);
            }
        }
        sampler.into_exemplars()
    }

    /// Fold this attribution into an evaluated SLO report: every window
    /// gains its `dominant_cause`, and every *raised* burn alert carries the
    /// worst exemplars of the trailing burn span that fired it.
    pub fn annotate(&self, report: &mut SloReport) {
        for w in &mut report.windows {
            w.dominant_cause = self.profile_at(w.window).and_then(|p| p.dominant_cause());
        }
        let window_ns = report.window_ns.max(1);
        let (fast, slow) = (report.spec.fast_windows, report.spec.slow_windows);
        for a in &mut report.alerts {
            if !a.raised {
                continue;
            }
            // `t_ns` is the *end* of the crossing window.
            let crossing = (a.t_ns / window_ns).saturating_sub(1);
            let span = match a.kind {
                crate::slo::BurnWindow::Fast => fast,
                crate::slo::BurnWindow::Slow => slow,
            };
            a.exemplars = self.exemplars_over(crossing, span);
        }
    }

    /// JSON export (stable field order).
    pub fn to_json(&self) -> Json {
        let profiles = self
            .profiles
            .iter()
            .map(|p| {
                let exemplars = p
                    .exemplars
                    .iter()
                    .map(|e| {
                        Json::Object(vec![
                            ("id".to_string(), Json::uint(e.id as usize)),
                            ("pe".to_string(), Json::uint(e.pe)),
                            ("latency_ns".to_string(), Json::uint(e.latency_ns as usize)),
                            ("dominant".to_string(), Json::str(e.dominant.label())),
                        ])
                    })
                    .collect();
                Json::Object(vec![
                    ("window".to_string(), Json::uint(p.window as usize)),
                    ("start_ns".to_string(), Json::uint(p.start_ns as usize)),
                    ("count".to_string(), Json::uint(p.count as usize)),
                    ("slow".to_string(), Json::uint(p.slow as usize)),
                    (
                        "dominant_cause".to_string(),
                        match p.dominant_cause() {
                            Some(c) => Json::str(c.label()),
                            None => Json::Null,
                        },
                    ),
                    ("slow_phase_ns".to_string(), phase_json(&p.slow_phase_ns)),
                    ("fast_phase_ns".to_string(), phase_json(&p.fast_phase_ns)),
                    ("exemplars".to_string(), Json::Array(exemplars)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("threshold_ns".to_string(), Json::uint(self.threshold_ns as usize)),
            ("window_ns".to_string(), Json::uint(self.window_ns as usize)),
            ("seed".to_string(), Json::uint(self.seed as usize)),
            ("k".to_string(), Json::uint(self.k)),
            ("profiles".to_string(), Json::Array(profiles)),
        ])
    }

    /// Compact human-readable summary: run-wide top causes, then one line
    /// per violating window.
    pub fn render(&self) -> String {
        let slow_total: u64 = self.profiles.iter().map(|p| p.slow).sum();
        let mut out = format!(
            "tail attribution: {} slow request(s) over {} ns across {} window(s)\n",
            slow_total,
            self.threshold_ns,
            self.profiles.len()
        );
        let causes = self.top_causes();
        let cause_total: u64 = causes.iter().map(|&(_, v)| v).sum::<u64>().max(1);
        for (phase, v) in &causes {
            out.push_str(&format!(
                "  {:>16}: {:>12} ns ({:>3}%)\n",
                phase.label(),
                v,
                v * 100 / cause_total
            ));
        }
        for p in self.profiles.iter().filter(|p| p.slow > 0) {
            let cause = p.dominant_cause().map(|c| c.label()).unwrap_or("-");
            let worst = p
                .exemplars
                .first()
                .map(|e| format!("worst req {:#x} ({} ns)", e.id, e.latency_ns))
                .unwrap_or_default();
            out.push_str(&format!(
                "  window {:>4} @{:>12} ns: {}/{} slow, dominant {} {}\n",
                p.window, p.start_ns, p.slow, p.count, cause, worst
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::critical_path;
    use crate::trace::{SpanKind, Tracer};
    use proptest::prelude::*;

    fn op(pe: usize, kind: SpanKind, begin: u64, end: u64, queue: u64, service: u64) -> Span {
        let mut s = Span::op(pe, kind, begin, end, Some(1), 64);
        s.queue_ns = queue;
        s.service_ns = service;
        s
    }

    /// Record a two-request trace on one PE: a fast request that only
    /// computes, and a slow one dominated by a retry.
    fn two_request_trace() -> (Vec<Span>, Vec<ReqRecord>) {
        let t = Tracer::new(true, 2);
        t.begin_request(0, 0x1_0000_0001, 100, 120);
        t.record(op(0, SpanKind::Put, 130, 190, 40, 20));
        t.end_request(0, 200);
        t.begin_request(0, 0x1_0000_0002, 210, 210);
        t.record(op(0, SpanKind::Retry, 220, 900, 0, 0));
        t.end_request(0, 1000);
        (t.drain(), t.drain_requests())
    }

    #[test]
    fn req_paths_tile_latency_exactly() {
        let (spans, reqs) = two_request_trace();
        let reports = req_paths(&spans, &reqs);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            let sum: u64 = r.phase_ns.iter().sum();
            assert_eq!(sum, r.total_ns(), "phases tile the latency exactly: {r:?}");
        }
        let first = &reports[0];
        assert_eq!(first.phase_ns[ReqPhase::QueueWait as usize], 20);
        assert_eq!(first.phase_ns[ReqPhase::NicContention as usize], 40);
        assert_eq!(first.phase_ns[ReqPhase::Wire as usize], 20);
        // Gaps inside the service window are handler compute.
        assert_eq!(first.phase_ns[ReqPhase::HandlerCompute as usize], 20);
        let second = &reports[1];
        assert_eq!(second.phase_ns[ReqPhase::FaultDelay as usize], 680);
        assert_eq!(second.dominant_phase(), ReqPhase::FaultDelay);
    }

    #[test]
    fn quiet_pairs_with_its_flow() {
        let t = Tracer::new(true, 1);
        t.begin_request(0, 0x1_0000_0001, 0, 0);
        let mut put = op(0, SpanKind::Put, 0, 50, 10, 40);
        put.remote_end = 300;
        t.record(put);
        let mut quiet = op(0, SpanKind::Quiet, 50, 300, 0, 0);
        quiet.peer = None;
        quiet.remote_end = 300; // completion target: the put's landing
        t.record(quiet);
        t.end_request(0, 300);
        let reports = req_paths(&t.drain(), &t.drain_requests());
        let r = &reports[0];
        // The quiet's 250 ns stall splits per the put's queue share (10 ns).
        assert_eq!(r.phase_ns[ReqPhase::NicContention as usize], 10 + 10);
        assert_eq!(r.phase_ns[ReqPhase::Wire as usize], 40 + 240);
        assert_eq!(r.phase_ns.iter().sum::<u64>(), r.total_ns());
    }

    #[test]
    fn requests_without_spans_are_handler_compute() {
        let t = Tracer::new(true, 1);
        t.begin_request(0, 7, 50, 80);
        t.end_request(0, 180);
        let reports = req_paths(&[], &t.drain_requests());
        assert_eq!(reports[0].phase_ns[ReqPhase::QueueWait as usize], 30);
        assert_eq!(reports[0].phase_ns[ReqPhase::HandlerCompute as usize], 100);
    }

    #[test]
    fn attribute_splits_windows_and_picks_dominant_cause() {
        let (spans, reqs) = two_request_trace();
        let reports = req_paths(&spans, &reqs);
        // Threshold 500: request 1 (latency 100) is fast, request 2
        // (latency 790) is slow. Window width 500: completions at 200 and
        // 1000 land in windows 0 and 2.
        let tail = attribute(&reports, 500, 500, 3, 42);
        assert_eq!(tail.profiles.len(), 2);
        let w0 = tail.profile_at(0).unwrap();
        assert_eq!((w0.count, w0.slow), (1, 0));
        assert_eq!(w0.dominant_cause(), None);
        assert_eq!(w0.exemplars.len(), 1, "fast requests are still exemplar candidates");
        let w2 = tail.profile_at(2).unwrap();
        assert_eq!((w2.count, w2.slow), (1, 1));
        assert_eq!(w2.dominant_cause(), Some(ReqPhase::FaultDelay));
        assert_eq!(w2.exemplars[0].id, 0x1_0000_0002);
        assert_eq!(tail.top_causes()[0].0, ReqPhase::FaultDelay);
        let parsed = crate::json::parse(&tail.to_json().pretty()).expect("tail json parses");
        assert_eq!(parsed.get("threshold_ns").and_then(|v| v.as_i64()), Some(500));
        assert!(tail.render().contains("fault_delay"));
    }

    #[test]
    fn sampler_keeps_k_worst_independent_of_offer_order() {
        let exemplar = |id: u64, latency: u64| Exemplar {
            id,
            pe: 0,
            latency_ns: latency,
            dominant: ReqPhase::HandlerCompute,
        };
        let offers: Vec<Exemplar> = (0..100).map(|i| exemplar(i, 1000 + (i * 37) % 50)).collect();
        let run = |order: &[Exemplar]| {
            let mut s = TailSampler::new(5, 0xC0FFEE);
            for &e in order {
                s.offer(e);
            }
            s.into_exemplars()
        };
        let forward = run(&offers);
        let mut reversed = offers.clone();
        reversed.reverse();
        assert_eq!(forward, run(&reversed), "retained set is offer-order independent");
        assert_eq!(forward.len(), 5);
        assert!(forward.windows(2).all(|w| w[0].latency_ns >= w[1].latency_ns));
        // A different seed may retain a different tie-broken set, but stays
        // internally deterministic.
        let mut other = TailSampler::new(5, 1);
        for &e in &offers {
            other.offer(e);
        }
        let other = other.into_exemplars();
        let mut again = TailSampler::new(5, 1);
        for &e in offers.iter().rev() {
            again.offer(e);
        }
        assert_eq!(other, again.into_exemplars());
    }

    #[test]
    fn annotate_fills_windows_and_alert_exemplars() {
        use crate::metrics::MetricsRegistry;
        use crate::slo::SloSpec;
        use crate::stats::StatsSnapshot;
        // Build a matching metric series and request trace: window 3 is an
        // outage — every request slow, dominated by retries.
        let reg = MetricsRegistry::new_windowed(true, 1, 1000);
        let t = Tracer::new(true, 1);
        let mut seq = 0u64;
        for w in 0..6u64 {
            for i in 0..20u64 {
                seq += 1;
                let id = (1u64 << 32) | seq;
                let end = w * 1000 + i * 25 + 500;
                let (arrival, begin) = if w == 3 {
                    (end - 3000, end - 2500) // slow: 500 ns queued + 2500 serving
                } else {
                    (end - 400, end - 390)
                };
                t.begin_request(0, id, arrival, begin);
                if w == 3 {
                    t.record(op(0, SpanKind::Retry, begin, end, 0, 0));
                }
                t.end_request(0, end);
                reg.observe_windowed(0, "serve_latency_ns", None, end, end - arrival);
            }
        }
        let spec = SloSpec::new("p99", "serve_latency_ns", 1000, 0.99)
            .with_burn_windows(2, 4)
            .with_burn_alerts(10.0, 2.0);
        let mut report = spec.evaluate(&reg.snapshot(StatsSnapshot::default()));
        let reports = req_paths(&t.drain(), &t.drain_requests());
        let tail = attribute(&reports, 1000, 1000, 4, 0x5E21);
        tail.annotate(&mut report);
        assert_eq!(report.windows[3].dominant_cause, Some(ReqPhase::FaultDelay));
        assert!(report
            .windows
            .iter()
            .filter(|w| w.violations == 0)
            .all(|w| w.dominant_cause.is_none()));
        let raised: Vec<_> = report.alerts.iter().filter(|a| a.raised).collect();
        assert!(!raised.is_empty());
        for a in &raised {
            assert_eq!(a.exemplars.len(), 4, "raised alerts carry the k worst requests");
            assert!(a.exemplars[0].latency_ns >= 3000, "the worst request leads");
        }
        assert!(report.alerts.iter().filter(|a| !a.raised).all(|a| a.exemplars.is_empty()));
        // Annotation is idempotent and deterministic.
        let mut again = spec.evaluate(&reg.snapshot(StatsSnapshot::default()));
        tail.annotate(&mut again);
        assert_eq!(report, again);
    }

    /// One drawn top-level op of a PE timeline: kind, idle gap before it,
    /// length, queue share, and children if a collective.
    type Op = (usize, u64, u64, u64, u64);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec((0usize..10, 0u64..50, 1u64..300, 0u64..400, 0u64..3), 0..12)
    }

    /// Lay each PE's ops out back to back after their gaps, its clock `tail`
    /// ns past the last; op `i` of PE `pe` and its children carry request id
    /// `req(pe, i)`. Barriers end on a 128 ns grid, so arrivals on different
    /// PEs share an end and the walk hops; a quiet waits on the landing of
    /// its PE's last transfer (an odd queue draw misses it by 1 ns, leaving
    /// the quiet unpaired); a collective nests alternating puts and waits.
    fn lay_out(pes: &[(Vec<Op>, u64)], req: impl Fn(usize, usize) -> u64) -> (Vec<Span>, Vec<u64>) {
        use SpanKind::*;
        const KINDS: [SpanKind; 10] =
            [Put, Get, Amo, Quiet, Barrier, WaitUntil, Compute, Collective, Retry, Fault];
        let (mut spans, mut clocks) = (Vec::new(), Vec::new());
        for (pe, (ops, tail)) in pes.iter().enumerate() {
            let (mut t, mut landing) = (0, 0);
            for (i, &(k, gap, len, queue, children)) in ops.iter().enumerate() {
                let (kind, begin) = (KINDS[k], t + gap);
                t = if kind == Barrier { (begin + len).next_multiple_of(128) } else { begin + len };
                let remote_end = match kind {
                    Put | Get | Amo => t + queue % 64,
                    Quiet => landing + queue % 2,
                    _ => 0,
                };
                landing = if matches!(kind, Put | Get | Amo) { remote_end } else { landing };
                let at = |part| begin + part * len / (2 * children + 1);
                let nested = (0..children)
                    .filter(|_| kind == Collective)
                    .map(|c| ([Put, WaitUntil][c as usize % 2], at(2 * c + 1), at(2 * c + 2), 0));
                for (kind, begin, end, remote_end) in
                    [(kind, begin, t, remote_end)].into_iter().chain(nested)
                {
                    let mut s = Span::op(pe, kind, begin, end, Some((pe + 1) % pes.len()), 8);
                    s.id = ((pe as u64) << 32) | (spans.len() as u64 + 1);
                    (s.queue_ns, s.remote_end, s.req) = (queue, remote_end, req(pe, i));
                    spans.push(s);
                }
            }
            clocks.push(t + tail);
        }
        (spans, clocks)
    }

    /// One record per request id in `spans`, served from a few ns after its
    /// first span begins (so spans reach back past `begin`) to a few ns
    /// after its last ends, having arrived up to 96 ns before that.
    fn records(spans: &[Span]) -> Vec<ReqRecord> {
        let mut bounds: BTreeMap<u64, (usize, u64, u64)> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.req != 0) {
            let b = bounds.entry(s.req).or_insert((s.pe, s.begin, s.end));
            (b.1, b.2) = (b.1.min(s.begin), b.2.max(s.end));
        }
        bounds
            .into_iter()
            .map(|(id, (pe, first, last))| {
                let begin_ns = (first + id % 7).min(last);
                let (arrival_ns, end_ns) = (begin_ns.saturating_sub(id % 97), last + id % 5);
                ReqRecord { id, pe, arrival_ns, begin_ns, end_ns, ..Default::default() }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 256 }))]

        #[test]
        fn both_walks_tile_their_windows(pes in prop::collection::vec((ops(), 0u64..100), 1..5)) {
            // Every third op runs outside any request.
            let req = |pe, i| if i % 3 == 2 { 0 } else { ((pe as u64) << 32) | (i as u64 + 1) };
            let (spans, clocks) = lay_out(&pes, req);
            let report = critical_path(&spans, &clocks);
            let mut t = 0;
            for seg in &report.segments {
                prop_assert!(seg.begin == t && seg.end > t, "gap or overlap at {}: {:?}", t, seg);
                t = seg.end;
            }
            prop_assert_eq!(t, report.makespan_ns);
            for r in req_paths(&spans, &records(&spans)) {
                prop_assert_eq!(r.phase_ns.iter().sum::<u64>(), r.total_ns(), "{:?}", r);
            }
        }

        /// The identity the shared walk rests on: a request that spans a
        /// one-PE run, every span stamped, is that run's critical path.
        #[test]
        fn a_request_spanning_a_one_pe_run_is_its_critical_path(pe in (ops(), 0u64..100)) {
            let (spans, clocks) = lay_out(&[pe], |_, _| 1);
            let whole = ReqRecord { id: 1, end_ns: clocks[0], ..Default::default() };
            let phase_ns = req_paths(&spans, &[whole])[0].phase_ns;
            prop_assert_eq!(phase_ns[ReqPhase::QueueWait as usize], 0);
            for (c, ns) in critical_path(&spans, &clocks).totals_ns() {
                prop_assert_eq!(phase_ns[phase_of(c) as usize], ns, "{}", c.label());
            }
        }
    }
}
