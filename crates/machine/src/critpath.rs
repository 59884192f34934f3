//! Critical-path profiler: where did the makespan actually go?
//!
//! Given the completed span/flow graph of a run ([`crate::trace::Span`]) and
//! the final per-PE clocks, this module extracts the *blocking chain* that
//! determined the final virtual time and attributes every nanosecond of it
//! to one of five categories:
//!
//! - **compute** — the PE on the chain was executing (or idle between spans);
//! - **wire** — latency + serialization of payloads on the chain;
//! - **nic contention** — time a chain operation sat in a NIC queue behind
//!   earlier traffic (the `queue_ns` breakdown from the NIC model);
//! - **synchronization** — barrier/wait time after the last arriver showed
//!   up, and waits on remote flags;
//! - **fault delay** — injected-fault detection timeouts and retry backoff.
//!
//! The walk runs **backwards** from the PE that finished last. At a barrier
//! it hops to the *last arriver* (the PE that actually gated the barrier); at
//! a quiet it pairs the wait with the flow whose remote completion bounded it
//! and splits that flow's queue time out as NIC contention. The emitted
//! segments tile `[0, makespan]` exactly — by construction the category
//! totals sum to the run's total virtual time, which is the invariant the
//! acceptance tests check. The same walk, without the hop, tiles every
//! served request's latency ([`crate::tailprof::req_paths`]).

use std::cmp::Reverse;
use std::collections::BTreeMap;

use crate::json::Json;
use crate::trace::{Span, SpanKind};

/// Attribution category for a slice of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PathCategory {
    Compute,
    Wire,
    NicContention,
    Synchronization,
    FaultDelay,
}

/// All categories, in display order.
pub const CATEGORIES: [PathCategory; 5] = [
    PathCategory::Compute,
    PathCategory::Wire,
    PathCategory::NicContention,
    PathCategory::Synchronization,
    PathCategory::FaultDelay,
];

impl PathCategory {
    pub fn label(self) -> &'static str {
        match self {
            PathCategory::Compute => "compute",
            PathCategory::Wire => "wire",
            PathCategory::NicContention => "nic_contention",
            PathCategory::Synchronization => "synchronization",
            PathCategory::FaultDelay => "fault_delay",
        }
    }

    /// Inverse of [`PathCategory::label`], for reading serialized reports.
    pub fn parse(s: &str) -> Option<PathCategory> {
        CATEGORIES.iter().copied().find(|c| c.label() == s)
    }
}

/// One slice of the blocking chain. Segments are chronological and tile
/// `[0, makespan]` with no gaps or overlaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// The PE the chain ran through during this slice.
    pub pe: usize,
    pub category: PathCategory,
    /// Virtual-time window, ns.
    pub begin: u64,
    pub end: u64,
    /// The span kind (or "idle") this slice was attributed from.
    pub what: &'static str,
}

impl PathSegment {
    pub fn duration_ns(&self) -> u64 {
        self.end - self.begin
    }
}

/// The extracted critical path of one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CriticalPathReport {
    pub makespan_ns: u64,
    /// Chronological slices tiling `[0, makespan]`.
    pub segments: Vec<PathSegment>,
}

impl CriticalPathReport {
    /// Total attributed time per category, in [`CATEGORIES`] order.
    /// The values sum to [`CriticalPathReport::makespan_ns`].
    pub fn totals_ns(&self) -> [(PathCategory, u64); 5] {
        let mut totals = CATEGORIES.map(|c| (c, 0u64));
        for seg in &self.segments {
            let slot = totals.iter_mut().find(|(c, _)| *c == seg.category).unwrap();
            slot.1 += seg.duration_ns();
        }
        totals
    }

    /// Sum of all segment durations; equals the makespan by construction.
    pub fn total_ns(&self) -> u64 {
        self.segments.iter().map(|s| s.duration_ns()).sum()
    }

    /// Human-readable breakdown.
    pub fn render(&self) -> String {
        let mut out = format!(
            "critical path: {} ns total across {} segments\n",
            self.makespan_ns,
            self.segments.len()
        );
        for (cat, ns) in self.totals_ns() {
            let pct = if self.makespan_ns > 0 {
                100.0 * ns as f64 / self.makespan_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!("  {:<16} {:>14} ns  {:>5.1}%\n", cat.label(), ns, pct));
        }
        out
    }

    /// JSON export (stable field order).
    pub fn to_json(&self) -> Json {
        self.json(self.segments.iter().map(|s| (s, None)), None)
    }

    /// The serializer behind both exports: makespan, totals, the raw
    /// segment count (sidecars only), then the segments — each with the
    /// count of raw segments it merged, when it merged any.
    fn json<'s>(
        &self,
        segments: impl Iterator<Item = (&'s PathSegment, Option<u64>)>,
        raw_segments: Option<usize>,
    ) -> Json {
        let totals = self
            .totals_ns()
            .iter()
            .map(|&(c, ns)| (c.label().to_string(), Json::uint(ns as usize)))
            .collect();
        let segments = segments
            .map(|(s, count)| {
                let mut fields = vec![
                    ("pe".to_string(), Json::uint(s.pe)),
                    ("category".to_string(), Json::str(s.category.label())),
                    ("begin_ns".to_string(), Json::uint(s.begin as usize)),
                    ("end_ns".to_string(), Json::uint(s.end as usize)),
                    ("what".to_string(), Json::str(s.what)),
                ];
                fields.extend(count.map(|n| ("count".to_string(), Json::uint(n as usize))));
                Json::Object(fields)
            })
            .collect();
        let mut fields = vec![
            ("makespan_ns".to_string(), Json::uint(self.makespan_ns as usize)),
            ("totals_ns".to_string(), Json::Object(totals)),
        ];
        fields.extend(raw_segments.map(|n| ("raw_segments".to_string(), Json::uint(n))));
        fields.push(("segments".to_string(), Json::Array(segments)));
        Json::Object(fields)
    }

    /// Runs of consecutive segments on the same PE with the same category,
    /// merged into one segment each (the chain often bounces between a
    /// handful of states, producing long same-category runs). Because raw
    /// segments tile the makespan, merged ones do too; `count` records how
    /// many raw segments each one absorbed.
    pub fn merged_segments(&self) -> Vec<(PathSegment, u64)> {
        let mut merged: Vec<(PathSegment, u64)> = Vec::new();
        for seg in &self.segments {
            match merged.last_mut() {
                Some((last, count))
                    if last.pe == seg.pe
                        && last.category == seg.category
                        && last.end == seg.begin =>
                {
                    last.end = seg.end;
                    *count += 1;
                }
                _ => merged.push((seg.clone(), 1)),
            }
        }
        merged
    }

    /// Compact JSON for the committed `results/*.critpath.json` sidecars:
    /// same `makespan_ns`/`totals_ns` as [`CriticalPathReport::to_json`],
    /// but with consecutive same-(PE, category) segments aggregated (each
    /// carries the count of raw segments it merged, and the `what` of the
    /// first). `raw_segments` preserves the pre-merge count.
    pub fn to_sidecar_json(&self) -> Json {
        let merged = self.merged_segments();
        self.json(merged.iter().map(|(s, count)| (s, Some(*count))), Some(self.segments.len()))
    }
}

/// One walk's spans, sorted by `(begin, id)`, beside the running maximum of
/// their ends: enough to find what owns `[·, cursor)` by binary search.
pub(crate) struct SpanIndex<'a> {
    spans: Vec<&'a Span>,
    max_end: Vec<u64>,
}

impl<'a> SpanIndex<'a> {
    pub(crate) fn new(mut spans: Vec<&'a Span>) -> SpanIndex<'a> {
        spans.sort_by_key(|s| (s.begin, s.id));
        let max_end = spans
            .iter()
            .scan(0, |m, s| {
                *m = s.end.max(*m);
                Some(*m)
            })
            .collect();
        SpanIndex { spans, max_end }
    }

    /// The innermost span owning `[·, cursor)`: the latest-beginning span
    /// that begins before `cursor` and reaches it (children begin after
    /// their parents, so the first hit is the innermost). `Err(t)` when no
    /// span does: everything before `cursor` had ended by `t`.
    fn owner(&self, cursor: u64) -> Result<&'a Span, u64> {
        match self.spans.partition_point(|s| s.begin < cursor).checked_sub(1) {
            None => Err(0),
            Some(i) if self.max_end[i] < cursor => Err(self.max_end[i]),
            Some(mut i) => {
                while self.spans[i].end < cursor {
                    i -= 1;
                }
                Ok(self.spans[i])
            }
        }
    }
}

/// `(pe, remote_end) → queue_ns` of every transfer with a remote side: the
/// flows a quiet pairs with (ctx stores the completion a quiet waited on in
/// its `remote_end`).
pub(crate) type FlowIndex = BTreeMap<(usize, u64), u64>;

pub(crate) fn flow_index(spans: &[Span]) -> FlowIndex {
    spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Put | SpanKind::Get | SpanKind::Amo))
        .filter(|s| s.remote_end > 0)
        .map(|s| ((s.pe, s.remote_end), s.queue_ns))
        .collect()
}

/// The charge rule: `[a, b)` of span `s` as positioned slices, latest first
/// (an empty one where the piece does not split). A transfer queues behind
/// earlier traffic before it occupies the lanes, so its queue share sits at
/// the start of the span; a quiet bounded by a known flow splits the same
/// way by that flow's queue share.
fn charge(s: &Span, a: u64, b: u64, flows: &FlowIndex) -> [(PathCategory, u64, u64); 2] {
    let split =
        |nic_end| [(PathCategory::Wire, nic_end, b), (PathCategory::NicContention, a, nic_end)];
    let whole = |category| [(category, a, b), (category, a, a)];
    match s.kind {
        SpanKind::Put | SpanKind::Get | SpanKind::Amo => {
            split(s.begin.saturating_add(s.queue_ns).clamp(a, b))
        }
        SpanKind::Quiet => match flows.get(&(s.pe, s.remote_end)) {
            Some(&queue) => split(a + queue.min(b - a)),
            // Unpaired: a completion target inside the slice means the wire
            // was still moving bytes; otherwise it was a pure stall.
            None if s.remote_end > a => whole(PathCategory::Wire),
            None => whole(PathCategory::Synchronization),
        },
        // A collective owns only what no child span covers (flag polls,
        // internal bookkeeping).
        SpanKind::Barrier | SpanKind::WaitUntil | SpanKind::Collective => {
            whole(PathCategory::Synchronization)
        }
        SpanKind::Retry | SpanKind::Fault => whole(PathCategory::FaultDelay),
        SpanKind::Compute => whole(PathCategory::Compute),
    }
}

/// The backward walk. From `cursor` on `indices[at]` down to `floor`, each
/// piece goes to whatever owns `[·, cursor)`: the innermost span, through
/// [`charge`], or `Compute` "idle" where no span covers. `hop` sees every
/// owning span first; `Some((next, t))` charges it `[t, cursor)` and moves
/// the walk to `indices[next]` at `t`. Segments come out latest first, with
/// `pe` the position in `indices`.
pub(crate) fn walk_back(
    indices: &[SpanIndex],
    mut at: usize,
    floor: u64,
    mut cursor: u64,
    flows: &FlowIndex,
    mut hop: impl FnMut(&Span, u64) -> Option<(usize, u64)>,
    mut emit: impl FnMut(PathSegment),
) {
    while cursor > floor {
        let mut piece = |category, begin, end, what| {
            if end > begin {
                emit(PathSegment { pe: at, category, begin, end, what });
            }
        };
        let (next, from) = match indices[at].owner(cursor) {
            Err(idle_from) => {
                let from = idle_from.max(floor);
                piece(PathCategory::Compute, from, cursor, "idle");
                (at, from)
            }
            Ok(s) => {
                let (next, from) = hop(s, cursor).unwrap_or((at, s.begin.max(floor)));
                for (category, begin, end) in charge(s, from, cursor, flows) {
                    piece(category, begin, end, s.kind.label());
                }
                (next, from)
            }
        };
        at = next;
        cursor = from;
    }
}

/// Extract the critical path from a run's spans and final clocks: the
/// backward walk over each PE's spans on `[0, makespan]`, starting on the
/// PE that finished last, plus one rule of its own — a barrier hops to its
/// last arriver, the PE that actually gated it.
///
/// With tracing disabled (no spans) the whole makespan is attributed to
/// compute on the last-finishing PE — the profiler degrades gracefully
/// rather than failing.
pub fn critical_path(spans: &[Span], clocks: &[u64]) -> CriticalPathReport {
    let makespan = clocks.iter().copied().max().unwrap_or(0);
    if makespan == 0 {
        return CriticalPathReport::default();
    }
    let mut per_pe: Vec<Vec<&Span>> = vec![Vec::new(); clocks.len()];
    // Barrier end time -> its last arriver: latest begin, lowest PE on ties.
    let mut last_arrival: BTreeMap<u64, (u64, Reverse<usize>)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.pe < clocks.len()) {
        per_pe[s.pe].push(s);
        if s.kind == SpanKind::Barrier {
            let last = last_arrival.entry(s.end).or_insert((s.begin, Reverse(s.pe)));
            *last = (*last).max((s.begin, Reverse(s.pe)));
        }
    }
    let per_pe: Vec<SpanIndex> = per_pe.into_iter().map(SpanIndex::new).collect();
    let hop = |s: &Span, cursor: u64| {
        let &(begin, Reverse(pe)) =
            last_arrival.get(&s.end).filter(|_| s.kind == SpanKind::Barrier)?;
        (begin < cursor).then_some((pe, begin))
    };
    // Lowest index wins ties for the PE that finished last.
    let last = clocks.iter().position(|&c| c == makespan).unwrap_or(0);
    let mut segments = Vec::new();
    walk_back(&per_pe, last, 0, makespan, &flow_index(spans), hop, |seg| segments.push(seg));
    segments.reverse();
    CriticalPathReport { makespan_ns: makespan, segments }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(pe: usize, kind: SpanKind, begin: u64, end: u64) -> Span {
        Span::op(pe, kind, begin, end, None, 0)
    }

    #[test]
    fn empty_trace_is_all_compute() {
        let report = critical_path(&[], &[500, 300]);
        assert_eq!(report.makespan_ns, 500);
        assert_eq!(report.total_ns(), 500);
        assert_eq!(report.segments.len(), 1);
        assert_eq!(report.segments[0].category, PathCategory::Compute);
        assert_eq!(report.segments[0].pe, 0);
    }

    #[test]
    fn zero_makespan_is_empty() {
        let report = critical_path(&[], &[0, 0]);
        assert_eq!(report.makespan_ns, 0);
        assert!(report.segments.is_empty());
    }

    #[test]
    fn barrier_hops_to_last_arriver() {
        // PE 0 arrives at 10, PE 1 computes until 100 and arrives last;
        // barrier completes at 110 for both.
        let spans = vec![
            span(0, SpanKind::Barrier, 10, 110),
            span(1, SpanKind::Compute, 0, 100),
            span(1, SpanKind::Barrier, 100, 110),
        ];
        let report = critical_path(&spans, &[110, 110]);
        assert_eq!(report.total_ns(), 110);
        let totals: BTreeMap<_, _> = report.totals_ns().into_iter().collect();
        assert_eq!(totals[&PathCategory::Synchronization], 10);
        assert_eq!(totals[&PathCategory::Compute], 100);
        // The compute slice is attributed to the last arriver, PE 1.
        let compute = report.segments.iter().find(|s| s.category == PathCategory::Compute);
        assert_eq!(compute.unwrap().pe, 1);
    }

    #[test]
    fn queue_time_splits_out_as_nic_contention() {
        let mut put = span(0, SpanKind::Put, 0, 100);
        put.queue_ns = 30;
        put.service_ns = 50;
        let report = critical_path(&[put], &[100]);
        assert_eq!(report.total_ns(), 100);
        let totals: BTreeMap<_, _> = report.totals_ns().into_iter().collect();
        assert_eq!(totals[&PathCategory::NicContention], 30);
        assert_eq!(totals[&PathCategory::Wire], 70);
    }

    #[test]
    fn quiet_pairs_with_the_bounding_flow() {
        // A non-blocking put whose flow completes remotely at 900; the
        // quiet waits from 200 to 900 on it.
        let mut put = span(0, SpanKind::Put, 100, 200);
        put.queue_ns = 300;
        put.remote_begin = 850;
        put.remote_end = 900;
        put.peer = Some(1);
        let mut quiet = span(0, SpanKind::Quiet, 200, 900);
        quiet.remote_end = 900;
        let report = critical_path(&[put, quiet], &[900, 0]);
        assert_eq!(report.total_ns(), 900);
        let totals: BTreeMap<_, _> = report.totals_ns().into_iter().collect();
        // 300 ns of the quiet wait was the flow queueing behind other
        // traffic; the issue span itself contributes its own split.
        assert!(totals[&PathCategory::NicContention] >= 300);
        assert!(totals[&PathCategory::Wire] > 0);
    }

    #[test]
    fn segments_tile_the_makespan_chronologically() {
        let mut put = span(0, SpanKind::Put, 50, 150);
        put.queue_ns = 20;
        let spans = vec![
            span(0, SpanKind::Compute, 0, 50),
            put,
            span(0, SpanKind::Barrier, 150, 200),
            span(1, SpanKind::Barrier, 120, 200),
        ];
        let report = critical_path(&spans, &[200, 200]);
        assert_eq!(report.total_ns(), report.makespan_ns);
        let mut t = 0;
        for seg in &report.segments {
            assert_eq!(seg.begin, t, "segments are contiguous");
            t = seg.end;
        }
        assert_eq!(t, report.makespan_ns);
    }

    #[test]
    fn report_renders_and_exports_json() {
        let report = critical_path(&[span(0, SpanKind::Compute, 0, 100)], &[100]);
        let text = report.render();
        assert!(text.contains("critical path: 100 ns"));
        assert!(text.contains("compute"));
        let json = report.to_json().pretty();
        let parsed = crate::json::parse(&json).unwrap();
        assert_eq!(parsed.get("makespan_ns").and_then(|v| v.as_i64()), Some(100));
        assert!(parsed.get("totals_ns").is_some());
    }

    #[test]
    fn category_labels_round_trip_through_parse() {
        for c in CATEGORIES {
            assert_eq!(PathCategory::parse(c.label()), Some(c));
        }
        assert_eq!(PathCategory::parse("warp_drive"), None);
    }

    #[test]
    fn sidecar_merges_consecutive_same_category_runs() {
        // Three consecutive compute slices on PE 0, then a wire slice, then
        // compute again: 5 raw segments -> 3 merged.
        let report = CriticalPathReport {
            makespan_ns: 500,
            segments: vec![
                PathSegment {
                    pe: 0,
                    category: PathCategory::Compute,
                    begin: 0,
                    end: 100,
                    what: "compute",
                },
                PathSegment {
                    pe: 0,
                    category: PathCategory::Compute,
                    begin: 100,
                    end: 150,
                    what: "idle",
                },
                PathSegment {
                    pe: 0,
                    category: PathCategory::Compute,
                    begin: 150,
                    end: 200,
                    what: "compute",
                },
                PathSegment {
                    pe: 0,
                    category: PathCategory::Wire,
                    begin: 200,
                    end: 400,
                    what: "put",
                },
                PathSegment {
                    pe: 0,
                    category: PathCategory::Compute,
                    begin: 400,
                    end: 500,
                    what: "idle",
                },
            ],
        };
        let merged = report.merged_segments();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].0.end, 200);
        assert_eq!(merged[0].1, 3, "first run absorbed three raw segments");
        // Merged segments still tile the makespan.
        let mut t = 0;
        for (seg, _) in &merged {
            assert_eq!(seg.begin, t);
            t = seg.end;
        }
        assert_eq!(t, report.makespan_ns);
        // And the merged total per category matches the raw totals.
        let json = report.to_sidecar_json().pretty();
        let parsed = crate::json::parse(&json).unwrap();
        assert_eq!(parsed.get("raw_segments").and_then(|v| v.as_i64()), Some(5));
        assert_eq!(parsed.get("segments").and_then(|v| v.as_array()).map(|a| a.len()), Some(3));
    }

    #[test]
    fn sidecar_does_not_merge_across_pe_hops() {
        let report = CriticalPathReport {
            makespan_ns: 200,
            segments: vec![
                PathSegment {
                    pe: 0,
                    category: PathCategory::Compute,
                    begin: 0,
                    end: 100,
                    what: "idle",
                },
                PathSegment {
                    pe: 1,
                    category: PathCategory::Compute,
                    begin: 100,
                    end: 200,
                    what: "idle",
                },
            ],
        };
        assert_eq!(report.merged_segments().len(), 2);
    }

    #[test]
    fn retry_time_is_fault_delay() {
        let spans = vec![span(0, SpanKind::Retry, 10, 60)];
        let report = critical_path(&spans, &[60]);
        let totals: BTreeMap<_, _> = report.totals_ns().into_iter().collect();
        assert_eq!(totals[&PathCategory::FaultDelay], 50);
        assert_eq!(totals[&PathCategory::Compute], 10);
        assert_eq!(report.total_ns(), 60);
    }
}
