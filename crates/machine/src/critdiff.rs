//! Span-graph diffing: attribute a makespan change between two runs of the
//! same workload to critical-path categories and per-op-kind metric shifts.
//!
//! The simulator is deterministic in virtual time, so two runs of the same
//! configuration produce bit-identical [`RunDigest`]s — a self-diff is
//! exactly zero everywhere, and any non-zero delta is a real behavioural
//! change. The digest is deliberately small (makespan, per-category
//! critical-path totals, per-(PE, category) totals, and aggregated key
//! metric series keyed op-kind × peer-node) so it can be committed as a
//! `BENCH_<platform>.json` baseline and compared against fresh runs by the
//! `bench regress` CLI.
//!
//! [`CritDiff::regressions`] applies a configurable relative tolerance, so
//! jobs that legitimately shift time around (fault-plan runs, sanitizer
//! runs) can reuse the differ with a loose tolerance while the default CI
//! gate stays tight.

use std::collections::BTreeMap;

use crate::critpath::{CriticalPathReport, PathCategory, CATEGORIES};
use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::tailprof::{phase_totals, requests_json, ReqPathReport, ReqPhase, REQ_PHASES};

/// Histogram series worth baselining: every op-kind latency series the
/// conduit records, plus queue wait, payload sizes and the planner's
/// misprediction ratio. A closed list keeps baselines small and stable.
pub const KEY_METRICS: [&str; 13] = [
    "put_ns",
    "get_ns",
    "amo_ns",
    "quiet_ns",
    "barrier_ns",
    "wait_until_ns",
    "compute_ns",
    "collective_ns",
    "retry_ns",
    "fault_ns",
    "nic_queue_ns",
    "op_bytes",
    "plan_cost_ratio_pct",
];

/// One aggregated metric series: a histogram summed over PEs, keyed by name
/// and peer node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDigest {
    pub name: String,
    pub peer_node: Option<usize>,
    pub count: u64,
    pub sum: u64,
}

/// Aggregate every [`KEY_METRICS`] histogram of a snapshot over PEs, keyed
/// `(name, peer_node)`, sorted by that key.
pub fn digest_metrics(snap: &MetricsSnapshot) -> Vec<MetricDigest> {
    let mut agg: BTreeMap<(&str, Option<usize>), (u64, u64)> = BTreeMap::new();
    for name in KEY_METRICS {
        for h in snap.histograms_named(name) {
            let slot = agg.entry((name, h.peer_node)).or_insert((0, 0));
            slot.0 += h.count;
            slot.1 += h.sum;
        }
    }
    agg.into_iter()
        .map(|((name, peer_node), (count, sum))| MetricDigest {
            name: name.to_string(),
            peer_node,
            count,
            sum,
        })
        .collect()
}

/// The comparable essence of one run: everything the regression harness
/// needs, nothing it doesn't. Deterministic — two runs of the same config
/// produce equal digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDigest {
    pub makespan_ns: u64,
    /// Critical-path totals in [`CATEGORIES`] order; sums to the makespan.
    pub category_ns: [u64; 5],
    /// Per-(PE, category) critical-path totals, for attributing a category
    /// delta to the PE whose chain slice grew. Sorted, zero entries omitted.
    pub by_pe: Vec<(usize, PathCategory, u64)>,
    /// Aggregated key metric series (see [`digest_metrics`]).
    pub metrics: Vec<MetricDigest>,
    /// Number of served requests folded into [`RunDigest::req_phase_ns`]
    /// (0 for workloads without request markers — the pre-request baseline
    /// format, which parses and serializes unchanged).
    pub req_count: u64,
    /// Request-phase latency totals over all served requests, in
    /// [`REQ_PHASES`] order (see `tailprof::req_paths`).
    pub req_phase_ns: [u64; 6],
}

impl RunDigest {
    /// Digest a finished run from its critical-path report and metrics.
    pub fn from_run(report: &CriticalPathReport, metrics: &MetricsSnapshot) -> RunDigest {
        RunDigest::from_run_with_requests(report, metrics, &[])
    }

    /// [`RunDigest::from_run`] plus per-request path reports: serving runs
    /// additionally baseline their request-phase latency totals, so a diff
    /// between two serving span graphs attributes the makespan delta per
    /// request-phase category.
    pub fn from_run_with_requests(
        report: &CriticalPathReport,
        metrics: &MetricsSnapshot,
        requests: &[ReqPathReport],
    ) -> RunDigest {
        let mut by_pe: BTreeMap<(usize, PathCategory), u64> = BTreeMap::new();
        for seg in &report.segments {
            *by_pe.entry((seg.pe, seg.category)).or_insert(0) += seg.duration_ns();
        }
        RunDigest {
            makespan_ns: report.makespan_ns,
            category_ns: report.totals_ns().map(|(_, ns)| ns),
            by_pe: by_pe.into_iter().map(|((pe, c), ns)| (pe, c, ns)).collect(),
            metrics: digest_metrics(metrics),
            req_count: requests.len() as u64,
            req_phase_ns: phase_totals(requests.iter().map(|r| r.phase_ns)),
        }
    }

    /// JSON export (stable field order — the baseline file format).
    pub fn to_json(&self) -> Json {
        let totals = CATEGORIES
            .iter()
            .zip(self.category_ns)
            .map(|(c, ns)| (c.label().to_string(), Json::uint(ns as usize)))
            .collect();
        let by_pe = self
            .by_pe
            .iter()
            .map(|&(pe, c, ns)| {
                Json::Object(vec![
                    ("pe".to_string(), Json::uint(pe)),
                    ("category".to_string(), Json::str(c.label())),
                    ("ns".to_string(), Json::uint(ns as usize)),
                ])
            })
            .collect();
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("name".to_string(), Json::Str(m.name.clone()))];
                if let Some(node) = m.peer_node {
                    fields.push(("peer_node".to_string(), Json::uint(node)));
                }
                fields.push(("count".to_string(), Json::uint(m.count as usize)));
                fields.push(("sum".to_string(), Json::uint(m.sum as usize)));
                Json::Object(fields)
            })
            .collect();
        let mut fields = vec![
            ("makespan_ns".to_string(), Json::uint(self.makespan_ns as usize)),
            ("totals_ns".to_string(), Json::Object(totals)),
            ("by_pe".to_string(), Json::Array(by_pe)),
            ("metrics".to_string(), Json::Array(metrics)),
        ];
        // Only serving runs carry the request block, so baselines of
        // request-free figures stay byte-identical with the old format.
        if self.req_count > 0 {
            let requests = requests_json(self.req_count, &self.req_phase_ns);
            fields.push(("requests".to_string(), requests));
        }
        Json::Object(fields)
    }

    /// Parse a digest previously written by [`RunDigest::to_json`].
    pub fn from_json(j: &Json) -> Result<RunDigest, String> {
        let uint = |j: &Json, key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(|v| v.as_i64())
                .map(|v| v as u64)
                .ok_or_else(|| format!("digest missing numeric field `{key}`"))
        };
        let makespan_ns = uint(j, "makespan_ns")?;
        let totals = j.get("totals_ns").ok_or("digest missing `totals_ns`")?;
        let mut category_ns = [0u64; 5];
        for (i, c) in CATEGORIES.iter().enumerate() {
            category_ns[i] = uint(totals, c.label())?;
        }
        let mut by_pe = Vec::new();
        for e in j.get("by_pe").and_then(|v| v.as_array()).ok_or("digest missing `by_pe`")? {
            let cat = e
                .get("category")
                .and_then(|v| v.as_str())
                .and_then(PathCategory::parse)
                .ok_or("bad by_pe category")?;
            by_pe.push((uint(e, "pe")? as usize, cat, uint(e, "ns")?));
        }
        let mut metrics = Vec::new();
        for e in j.get("metrics").and_then(|v| v.as_array()).ok_or("digest missing `metrics`")? {
            metrics.push(MetricDigest {
                name: e.get("name").and_then(|v| v.as_str()).ok_or("bad metric name")?.to_string(),
                peer_node: e.get("peer_node").and_then(|v| v.as_i64()).map(|v| v as usize),
                count: uint(e, "count")?,
                sum: uint(e, "sum")?,
            });
        }
        // Optional request block (absent in pre-request baselines).
        let mut req_count = 0u64;
        let mut req_phase_ns = [0u64; 6];
        if let Some(req) = j.get("requests") {
            req_count = uint(req, "count")?;
            let phases = req.get("phase_ns").ok_or("request block missing `phase_ns`")?;
            for (i, p) in REQ_PHASES.iter().enumerate() {
                req_phase_ns[i] = uint(phases, p.label())?;
            }
        }
        Ok(RunDigest { makespan_ns, category_ns, by_pe, metrics, req_count, req_phase_ns })
    }
}

/// Delta of one critical-path category between baseline and candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentDelta {
    pub category: PathCategory,
    pub base_ns: u64,
    pub cand_ns: u64,
}

impl SegmentDelta {
    pub fn delta_ns(&self) -> i64 {
        self.cand_ns as i64 - self.base_ns as i64
    }
}

/// Delta of one (PE, category) critical-path slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeDelta {
    pub pe: usize,
    pub category: PathCategory,
    pub base_ns: u64,
    pub cand_ns: u64,
}

impl PeDelta {
    pub fn delta_ns(&self) -> i64 {
        self.cand_ns as i64 - self.base_ns as i64
    }
}

/// Delta of one request-phase latency total between two serving runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqPhaseDelta {
    pub phase: ReqPhase,
    pub base_ns: u64,
    pub cand_ns: u64,
}

impl ReqPhaseDelta {
    pub fn delta_ns(&self) -> i64 {
        self.cand_ns as i64 - self.base_ns as i64
    }
}

/// Delta of one aggregated metric series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDelta {
    pub name: String,
    pub peer_node: Option<usize>,
    pub base_count: u64,
    pub cand_count: u64,
    pub base_sum: u64,
    pub cand_sum: u64,
}

impl MetricDelta {
    pub fn sum_delta(&self) -> i64 {
        self.cand_sum as i64 - self.base_sum as i64
    }

    pub fn count_delta(&self) -> i64 {
        self.cand_count as i64 - self.base_count as i64
    }
}

/// The full attribution of a makespan change between two runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritDiff {
    pub base_makespan_ns: u64,
    pub cand_makespan_ns: u64,
    /// One entry per category, in [`CATEGORIES`] order (zero deltas kept so
    /// the table is always complete).
    pub categories: Vec<SegmentDelta>,
    /// Changed (PE, category) slices only, sorted by key.
    pub by_pe: Vec<PeDelta>,
    /// Changed metric series only, sorted by (name, peer_node).
    pub metrics: Vec<MetricDelta>,
    /// Served request counts (0 = that side had no request markers).
    pub base_req_count: u64,
    pub cand_req_count: u64,
    /// One entry per request phase, in [`REQ_PHASES`] order (complete table,
    /// like `categories`); all-zero when neither run served requests.
    pub req_phases: Vec<ReqPhaseDelta>,
}

impl CritDiff {
    /// Compare a candidate digest against a baseline.
    pub fn between(base: &RunDigest, cand: &RunDigest) -> CritDiff {
        let categories = CATEGORIES
            .iter()
            .enumerate()
            .map(|(i, &category)| SegmentDelta {
                category,
                base_ns: base.category_ns[i],
                cand_ns: cand.category_ns[i],
            })
            .collect();

        let mut pe_keys: BTreeMap<(usize, PathCategory), (u64, u64)> = BTreeMap::new();
        for &(pe, c, ns) in &base.by_pe {
            pe_keys.entry((pe, c)).or_insert((0, 0)).0 = ns;
        }
        for &(pe, c, ns) in &cand.by_pe {
            pe_keys.entry((pe, c)).or_insert((0, 0)).1 = ns;
        }
        let by_pe = pe_keys
            .into_iter()
            .filter(|&(_, (b, c))| b != c)
            .map(|((pe, category), (base_ns, cand_ns))| PeDelta { pe, category, base_ns, cand_ns })
            .collect();

        // (base count, base sum, cand count, cand sum) keyed by series.
        type SeriesSums = (u64, u64, u64, u64);
        let mut m_keys: BTreeMap<(String, Option<usize>), SeriesSums> = BTreeMap::new();
        for m in &base.metrics {
            let e = m_keys.entry((m.name.clone(), m.peer_node)).or_insert((0, 0, 0, 0));
            e.0 = m.count;
            e.1 = m.sum;
        }
        for m in &cand.metrics {
            let e = m_keys.entry((m.name.clone(), m.peer_node)).or_insert((0, 0, 0, 0));
            e.2 = m.count;
            e.3 = m.sum;
        }
        let metrics =
            m_keys
                .into_iter()
                .filter(|&(_, (bc, bs, cc, cs))| bc != cc || bs != cs)
                .map(|((name, peer_node), (base_count, base_sum, cand_count, cand_sum))| {
                    MetricDelta { name, peer_node, base_count, cand_count, base_sum, cand_sum }
                })
                .collect();

        let req_phases = REQ_PHASES
            .iter()
            .enumerate()
            .map(|(i, &phase)| ReqPhaseDelta {
                phase,
                base_ns: base.req_phase_ns[i],
                cand_ns: cand.req_phase_ns[i],
            })
            .collect();

        CritDiff {
            base_makespan_ns: base.makespan_ns,
            cand_makespan_ns: cand.makespan_ns,
            categories,
            by_pe,
            metrics,
            base_req_count: base.req_count,
            cand_req_count: cand.req_count,
            req_phases,
        }
    }

    pub fn makespan_delta_ns(&self) -> i64 {
        self.cand_makespan_ns as i64 - self.base_makespan_ns as i64
    }

    /// True when the two digests were identical — the determinism check.
    pub fn is_zero(&self) -> bool {
        self.makespan_delta_ns() == 0
            && self.categories.iter().all(|c| c.delta_ns() == 0)
            && self.by_pe.is_empty()
            && self.metrics.is_empty()
            && self.base_req_count == self.cand_req_count
            && self.req_phases.iter().all(|p| p.delta_ns() == 0)
    }

    /// Regression verdicts at relative tolerance `tol` (e.g. 0.02 = 2%).
    /// Empty means "no regression". A *faster* candidate never regresses;
    /// a category only regresses when its growth exceeds `tol` of the
    /// baseline makespan (growth in one category offset by shrinkage in
    /// another is how optimisations look, so categories are judged against
    /// the whole run, not against their own — often tiny — baseline).
    pub fn regressions(&self, tol: f64) -> Vec<String> {
        let mut out = Vec::new();
        let base = self.base_makespan_ns as f64;
        if (self.cand_makespan_ns as f64) > base * (1.0 + tol) {
            out.push(format!(
                "makespan regressed: {} -> {} ns ({:+.2}%, tolerance {:.1}%)",
                self.base_makespan_ns,
                self.cand_makespan_ns,
                pct(self.makespan_delta_ns(), self.base_makespan_ns),
                tol * 100.0
            ));
        }
        for c in &self.categories {
            let grow = c.delta_ns();
            if grow > 0 && grow as f64 > tol * base.max(1.0) {
                let pe = self
                    .by_pe
                    .iter()
                    .filter(|p| p.category == c.category)
                    .max_by_key(|p| p.delta_ns());
                let attribution = match pe {
                    Some(p) => format!(" (largest growth on PE {}: {:+} ns)", p.pe, p.delta_ns()),
                    None => String::new(),
                };
                out.push(format!(
                    "{} grew {:+} ns ({} -> {} ns, {:.2}% of baseline makespan){}",
                    c.category.label(),
                    grow,
                    c.base_ns,
                    c.cand_ns,
                    100.0 * grow as f64 / base.max(1.0),
                    attribution
                ));
            }
        }
        // Request-phase growth is judged only when the baseline actually
        // carries request data — a pre-request baseline diffed against a
        // request-marking candidate must not flag phantom regressions.
        if self.base_req_count > 0 {
            let req_base: u64 = self.req_phases.iter().map(|p| p.base_ns).sum();
            for p in &self.req_phases {
                let grow = p.delta_ns();
                if grow > 0 && grow as f64 > tol * (req_base as f64).max(1.0) {
                    out.push(format!(
                        "request phase {} grew {:+} ns ({} -> {} ns, {:.2}% of baseline \
                         request time)",
                        p.phase.label(),
                        grow,
                        p.base_ns,
                        p.cand_ns,
                        100.0 * grow as f64 / (req_base as f64).max(1.0),
                    ));
                }
            }
        }
        out
    }

    /// Human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "makespan: {} -> {} ns ({:+} ns, {:+.2}%)\n",
            self.base_makespan_ns,
            self.cand_makespan_ns,
            self.makespan_delta_ns(),
            pct(self.makespan_delta_ns(), self.base_makespan_ns),
        );
        out.push_str(&format!(
            "  {:<16} {:>14} {:>14} {:>12}\n",
            "category", "base ns", "cand ns", "delta ns"
        ));
        for c in &self.categories {
            out.push_str(&format!(
                "  {:<16} {:>14} {:>14} {:>+12}\n",
                c.category.label(),
                c.base_ns,
                c.cand_ns,
                c.delta_ns()
            ));
        }
        if !self.by_pe.is_empty() {
            out.push_str("  changed path slices (pe, category):\n");
            for p in &self.by_pe {
                out.push_str(&format!(
                    "    PE {:<4} {:<16} {} -> {} ns ({:+} ns)\n",
                    p.pe,
                    p.category.label(),
                    p.base_ns,
                    p.cand_ns,
                    p.delta_ns()
                ));
            }
        }
        if self.base_req_count > 0 || self.cand_req_count > 0 {
            out.push_str(&format!(
                "  requests: {} -> {} served\n",
                self.base_req_count, self.cand_req_count
            ));
            for p in &self.req_phases {
                out.push_str(&format!(
                    "  {:<16} {:>14} {:>14} {:>+12}\n",
                    p.phase.label(),
                    p.base_ns,
                    p.cand_ns,
                    p.delta_ns()
                ));
            }
        }
        if !self.metrics.is_empty() {
            out.push_str("  changed metric series:\n");
            for m in &self.metrics {
                let peer = match m.peer_node {
                    Some(n) => format!(" (peer node {n})"),
                    None => String::new(),
                };
                out.push_str(&format!(
                    "    {}{}: count {} -> {} ({:+}), sum {} -> {} ({:+})\n",
                    m.name,
                    peer,
                    m.base_count,
                    m.cand_count,
                    m.count_delta(),
                    m.base_sum,
                    m.cand_sum,
                    m.sum_delta()
                ));
            }
        }
        if self.is_zero() {
            out.push_str("  runs are identical (zero delta everywhere)\n");
        }
        out
    }

    /// Machine-readable report.
    pub fn to_json(&self) -> Json {
        let categories = self
            .categories
            .iter()
            .map(|c| {
                Json::Object(vec![
                    ("category".to_string(), Json::str(c.category.label())),
                    ("base_ns".to_string(), Json::uint(c.base_ns as usize)),
                    ("cand_ns".to_string(), Json::uint(c.cand_ns as usize)),
                    ("delta_ns".to_string(), Json::int(c.delta_ns())),
                ])
            })
            .collect();
        let by_pe = self
            .by_pe
            .iter()
            .map(|p| {
                Json::Object(vec![
                    ("pe".to_string(), Json::uint(p.pe)),
                    ("category".to_string(), Json::str(p.category.label())),
                    ("base_ns".to_string(), Json::uint(p.base_ns as usize)),
                    ("cand_ns".to_string(), Json::uint(p.cand_ns as usize)),
                    ("delta_ns".to_string(), Json::int(p.delta_ns())),
                ])
            })
            .collect();
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("name".to_string(), Json::Str(m.name.clone()))];
                if let Some(node) = m.peer_node {
                    fields.push(("peer_node".to_string(), Json::uint(node)));
                }
                fields.push(("base_count".to_string(), Json::uint(m.base_count as usize)));
                fields.push(("cand_count".to_string(), Json::uint(m.cand_count as usize)));
                fields.push(("base_sum".to_string(), Json::uint(m.base_sum as usize)));
                fields.push(("cand_sum".to_string(), Json::uint(m.cand_sum as usize)));
                Json::Object(fields)
            })
            .collect();
        let mut fields = vec![
            ("base_makespan_ns".to_string(), Json::uint(self.base_makespan_ns as usize)),
            ("cand_makespan_ns".to_string(), Json::uint(self.cand_makespan_ns as usize)),
            ("makespan_delta_ns".to_string(), Json::int(self.makespan_delta_ns())),
            ("categories".to_string(), Json::Array(categories)),
            ("by_pe".to_string(), Json::Array(by_pe)),
            ("metrics".to_string(), Json::Array(metrics)),
        ];
        if self.base_req_count > 0 || self.cand_req_count > 0 {
            let req_phases = self
                .req_phases
                .iter()
                .map(|p| {
                    Json::Object(vec![
                        ("phase".to_string(), Json::str(p.phase.label())),
                        ("base_ns".to_string(), Json::uint(p.base_ns as usize)),
                        ("cand_ns".to_string(), Json::uint(p.cand_ns as usize)),
                        ("delta_ns".to_string(), Json::int(p.delta_ns())),
                    ])
                })
                .collect();
            fields.push(("base_req_count".to_string(), Json::uint(self.base_req_count as usize)));
            fields.push(("cand_req_count".to_string(), Json::uint(self.cand_req_count as usize)));
            fields.push(("req_phases".to_string(), Json::Array(req_phases)));
        }
        Json::Object(fields)
    }
}

fn pct(delta: i64, base: u64) -> f64 {
    if base == 0 {
        if delta == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * delta as f64 / base as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critpath::PathSegment;
    use crate::metrics::MetricsRegistry;
    use crate::stats::StatsSnapshot;

    fn report(segs: &[(usize, PathCategory, u64, u64)]) -> CriticalPathReport {
        let segments = segs
            .iter()
            .map(|&(pe, category, begin, end)| PathSegment {
                pe,
                category,
                begin,
                end,
                what: "test",
            })
            .collect::<Vec<_>>();
        let makespan_ns = segments.iter().map(|s| s.end).max().unwrap_or(0);
        CriticalPathReport { makespan_ns, segments }
    }

    fn snap(feeds: &[(usize, &'static str, Option<usize>, u64)]) -> MetricsSnapshot {
        let reg = MetricsRegistry::new(true, 4);
        for &(pe, name, peer, v) in feeds {
            reg.observe(pe, name, peer, v);
        }
        reg.snapshot(StatsSnapshot::default())
    }

    #[test]
    fn self_diff_is_zero() {
        let r = report(&[
            (0, PathCategory::Compute, 0, 100),
            (1, PathCategory::Wire, 100, 250),
            (1, PathCategory::NicContention, 250, 300),
        ]);
        let m = snap(&[(0, "put_ns", Some(1), 150), (1, "get_ns", Some(0), 90)]);
        let a = RunDigest::from_run(&r, &m);
        let b = RunDigest::from_run(&r, &m);
        assert_eq!(a, b);
        let diff = CritDiff::between(&a, &b);
        assert!(diff.is_zero());
        assert!(diff.regressions(0.0).is_empty());
        assert!(diff.render().contains("identical"));
    }

    #[test]
    fn regression_is_attributed_to_the_grown_category_and_pe() {
        let base = RunDigest::from_run(
            &report(&[(0, PathCategory::Compute, 0, 100), (1, PathCategory::Wire, 100, 200)]),
            &snap(&[]),
        );
        let cand = RunDigest::from_run(
            &report(&[
                (0, PathCategory::Compute, 0, 100),
                (1, PathCategory::Wire, 100, 200),
                (1, PathCategory::NicContention, 200, 320),
            ]),
            &snap(&[]),
        );
        let diff = CritDiff::between(&base, &cand);
        assert_eq!(diff.makespan_delta_ns(), 120);
        let regs = diff.regressions(0.05);
        assert!(regs.iter().any(|r| r.contains("makespan regressed")), "{regs:?}");
        assert!(
            regs.iter().any(|r| r.contains("nic_contention") && r.contains("PE 1")),
            "{regs:?}"
        );
        // Within a huge tolerance nothing regresses.
        assert!(diff.regressions(2.0).is_empty());
        // A faster candidate never regresses.
        assert!(CritDiff::between(&cand, &base).regressions(0.0).is_empty());
    }

    #[test]
    fn metric_shifts_survive_the_diff() {
        let r = report(&[(0, PathCategory::Compute, 0, 10)]);
        let base = RunDigest::from_run(&r, &snap(&[(0, "put_ns", Some(1), 100)]));
        let cand = RunDigest::from_run(
            &r,
            &snap(&[(0, "put_ns", Some(1), 100), (0, "put_ns", Some(1), 60)]),
        );
        let diff = CritDiff::between(&base, &cand);
        assert_eq!(diff.metrics.len(), 1);
        let m = &diff.metrics[0];
        assert_eq!(m.name, "put_ns");
        assert_eq!(m.peer_node, Some(1));
        assert_eq!(m.count_delta(), 1);
        assert_eq!(m.sum_delta(), 60);
        assert!(!diff.is_zero());
    }

    #[test]
    fn request_phase_deltas_attribute_serving_regressions() {
        let r = report(&[(0, PathCategory::Compute, 0, 1000)]);
        let m = snap(&[]);
        let req = |phase_ns: [u64; 6]| ReqPathReport {
            id: (1 << 32) | 1,
            pe: 0,
            arrival_ns: 0,
            begin_ns: 0,
            end_ns: phase_ns.iter().sum(),
            phase_ns,
        };
        let base = RunDigest::from_run_with_requests(&r, &m, &[req([10, 100, 20, 5, 0, 300])]);
        let cand = RunDigest::from_run_with_requests(&r, &m, &[req([10, 100, 20, 5, 400, 300])]);
        // Self-diff of a serving digest is exactly zero.
        assert!(CritDiff::between(&base, &base).is_zero());
        // The fault-delay growth is attributed to its phase.
        let diff = CritDiff::between(&base, &cand);
        assert!(!diff.is_zero());
        let regs = diff.regressions(0.02);
        assert!(regs.iter().any(|s| s.contains("request phase fault_delay")), "{regs:?}");
        assert!(diff.render().contains("fault_delay"));
        // A pre-request baseline never flags phantom request regressions.
        let old = RunDigest::from_run(&r, &m);
        assert_eq!(old.req_count, 0);
        assert!(CritDiff::between(&old, &cand).regressions(0.0).is_empty());
        // JSON: request block roundtrips, and is omitted for request-free
        // digests (old baselines stay byte-identical).
        let text = cand.to_json().pretty();
        assert!(text.contains("\"requests\""));
        let back = RunDigest::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(cand, back);
        assert!(!old.to_json().pretty().contains("\"requests\""));
        let old_back =
            RunDigest::from_json(&crate::json::parse(&old.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(old, old_back);
    }

    #[test]
    fn digest_json_roundtrips() {
        let r = report(&[
            (0, PathCategory::Compute, 0, 100),
            (2, PathCategory::Synchronization, 100, 130),
        ]);
        let m = snap(&[(0, "put_ns", Some(1), 150), (2, "barrier_ns", None, 30)]);
        let digest = RunDigest::from_run(&r, &m);
        let text = digest.to_json().pretty();
        let parsed = crate::json::parse(&text).expect("digest JSON parses");
        let back = RunDigest::from_json(&parsed).expect("digest JSON loads");
        assert_eq!(digest, back);
        assert!(CritDiff::between(&digest, &back).is_zero());
    }

    #[test]
    fn digest_ignores_non_key_metrics() {
        let r = report(&[(0, PathCategory::Compute, 0, 10)]);
        let m = snap(&[(0, "put_ns", None, 5), (0, "some_experimental_ns", None, 7)]);
        let d = RunDigest::from_run(&r, &m);
        assert!(d.metrics.iter().all(|m| m.name != "some_experimental_ns"));
        assert!(d.metrics.iter().any(|m| m.name == "put_ns"));
    }

    #[test]
    fn diff_json_is_wellformed() {
        let base = RunDigest::from_run(
            &report(&[(0, PathCategory::Compute, 0, 100)]),
            &snap(&[(0, "put_ns", None, 10)]),
        );
        let cand = RunDigest::from_run(
            &report(&[(0, PathCategory::Compute, 0, 150)]),
            &snap(&[(0, "put_ns", None, 25)]),
        );
        let diff = CritDiff::between(&base, &cand);
        let text = diff.to_json().pretty();
        let parsed = crate::json::parse(&text).expect("diff JSON parses");
        assert_eq!(parsed.get("makespan_delta_ns").and_then(|v| v.as_i64()), Some(50));
        assert_eq!(parsed.get("categories").and_then(|v| v.as_array()).map(|a| a.len()), Some(5));
    }
}
