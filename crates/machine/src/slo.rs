//! Declarative service-level objectives over the windowed metric series.
//!
//! An [`SloSpec`] names a windowed latency histogram (see
//! `MetricsRegistry::observe_windowed`), a violation threshold, and an
//! objective ("99.9% of requests complete under 40 µs"). Evaluating the spec
//! against a finished run's [`MetricsSnapshot`] — or a live window series
//! sampled mid-run — yields an [`SloReport`]: per-window percentiles and
//! violation counts, cumulative error-budget accounting, and fast/slow
//! burn-rate series in the style of multiwindow burn-rate alerting (a burn
//! rate of 1.0 spends exactly the whole budget over the run; the fast window
//! catches sharp regressions like a PE death, the slow window confirms they
//! are sustained). Threshold crossings are recorded as virtual-time
//! [`SloAlert`] events — raised and cleared — so a dip-and-recover story is
//! visible in the report itself.
//!
//! Everything here is integer arithmetic over the deterministic window
//! series (burn rates are fixed-point, ×1000), so two runs with identical
//! virtual behaviour — repeated runs, on either engine — produce
//! bit-identical reports.

use crate::json::Json;
use crate::metrics::{bucket_bound, MetricsSnapshot, WindowEntry};
use crate::tailprof::{Exemplar, ReqPhase};

/// Which burn-rate window an alert fired on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurnWindow {
    Fast,
    Slow,
}

impl BurnWindow {
    pub fn label(self) -> &'static str {
        match self {
            BurnWindow::Fast => "fast",
            BurnWindow::Slow => "slow",
        }
    }
}

/// A declarative SLO: percentile target plus threshold over a windowed
/// latency series.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Human-readable SLO name (appears in reports and alerts).
    pub name: &'static str,
    /// The windowed histogram series the SLO is judged on.
    pub metric: &'static str,
    /// Latency threshold: a request violates the SLO when it exceeds this.
    pub threshold_ns: u64,
    /// Fraction of requests that must meet the threshold (e.g. `0.999`).
    pub objective: f64,
    /// Trailing window count of the fast burn-rate series.
    pub fast_windows: usize,
    /// Trailing window count of the slow burn-rate series.
    pub slow_windows: usize,
    /// Fast alert fires when the fast burn rate reaches this (×1, not ×1000).
    pub fast_burn_alert: f64,
    /// Slow alert fires when the slow burn rate reaches this.
    pub slow_burn_alert: f64,
}

impl SloSpec {
    /// An SLO with the conventional multiwindow burn-rate defaults: the fast
    /// series looks at the last 3 windows and alerts at 14.4× budget burn,
    /// the slow series at the last 12 windows alerting at 6×.
    pub fn new(
        name: &'static str,
        metric: &'static str,
        threshold_ns: u64,
        objective: f64,
    ) -> Self {
        SloSpec {
            name,
            metric,
            threshold_ns,
            objective,
            fast_windows: 3,
            slow_windows: 12,
            fast_burn_alert: 14.4,
            slow_burn_alert: 6.0,
        }
    }

    pub fn with_burn_windows(mut self, fast: usize, slow: usize) -> Self {
        self.fast_windows = fast.max(1);
        self.slow_windows = slow.max(1);
        self
    }

    pub fn with_burn_alerts(mut self, fast: f64, slow: f64) -> Self {
        self.fast_burn_alert = fast;
        self.slow_burn_alert = slow;
        self
    }

    /// Evaluate against a finished run's snapshot (uses the snapshot's
    /// windowed series for [`SloSpec::metric`]).
    pub fn evaluate(&self, snap: &MetricsSnapshot) -> SloReport {
        let series: Vec<&WindowEntry> = snap.window_series(self.metric).collect();
        self.evaluate_series(snap.window_ns, &series)
    }

    /// Evaluate against an explicit window series — the entry point the live
    /// `pgas_top -- serve` view uses with `MetricsRegistry::live_window_series`.
    pub fn evaluate_series(&self, window_ns: u64, series: &[&WindowEntry]) -> SloReport {
        let mut windows: Vec<SloWindow> = Vec::new();
        if let (Some(first), Some(last)) = (series.first(), series.last()) {
            // Densify: a window with no completions still advances the burn
            // series (an idle or dead machine is not burning budget).
            let mut it = series.iter().peekable();
            for w in first.window..=last.window {
                let entry = match it.peek() {
                    Some(e) if e.window == w => Some(*it.next().unwrap()),
                    _ => None,
                };
                let (count, violations, p50, p99, p999) = match entry {
                    Some(e) => (
                        e.count,
                        violations_over(e, self.threshold_ns),
                        e.percentile(0.50),
                        e.percentile(0.99),
                        e.percentile(0.999),
                    ),
                    None => (0, 0, 0, 0, 0),
                };
                windows.push(SloWindow {
                    window: w,
                    start_ns: w * window_ns,
                    count,
                    violations,
                    p50,
                    p99,
                    p999,
                    fast_burn_x1000: 0,
                    slow_burn_x1000: 0,
                    dominant_cause: None,
                });
            }
        }
        // Burn-rate series: trailing violation fraction over the allowed
        // fraction, fixed-point ×1000.
        let allowed = (1.0 - self.objective).max(f64::EPSILON);
        let burn = |windows: &[SloWindow], end: usize, n: usize| -> u64 {
            let lo = (end + 1).saturating_sub(n);
            let (mut bad, mut total) = (0u64, 0u64);
            for w in &windows[lo..=end] {
                bad += w.violations;
                total += w.count;
            }
            if total == 0 {
                return 0;
            }
            let rate = (bad as f64 / total as f64) / allowed;
            (rate * 1000.0).round() as u64
        };
        for i in 0..windows.len() {
            windows[i].fast_burn_x1000 = burn(&windows, i, self.fast_windows);
            windows[i].slow_burn_x1000 = burn(&windows, i, self.slow_windows);
        }
        // Alert events: crossings of the burn thresholds, raised and cleared,
        // stamped with the end of the window that crossed.
        let mut alerts = Vec::new();
        let mut active = [false; 2];
        for w in &windows {
            let end_ns = w.start_ns + window_ns;
            for (slot, kind, burn_x1000, threshold) in [
                (0, BurnWindow::Fast, w.fast_burn_x1000, self.fast_burn_alert),
                (1, BurnWindow::Slow, w.slow_burn_x1000, self.slow_burn_alert),
            ] {
                let over = burn_x1000 as f64 >= threshold * 1000.0;
                if over != active[slot] {
                    active[slot] = over;
                    alerts.push(SloAlert {
                        kind,
                        raised: over,
                        t_ns: end_ns,
                        burn_x1000,
                        exemplars: Vec::new(),
                    });
                }
            }
        }
        let total_count: u64 = windows.iter().map(|w| w.count).sum();
        let total_violations: u64 = windows.iter().map(|w| w.violations).sum();
        let budget_total = ((1.0 - self.objective) * total_count as f64).round() as u64;
        let budget_spent_x1000 = if budget_total == 0 {
            if total_violations == 0 {
                0
            } else {
                u64::MAX
            }
        } else {
            (total_violations as f64 / budget_total as f64 * 1000.0).round() as u64
        };
        SloReport {
            spec: self.clone(),
            window_ns,
            windows,
            alerts,
            total_count,
            total_violations,
            budget_total,
            budget_spent_x1000,
        }
    }
}

/// Estimated number of values in `w` strictly above `threshold`: buckets
/// entirely above count in full; the bucket straddling the threshold
/// contributes a uniform-interpolation share. Deterministic — a pure integer
/// function of the (bit-identical) window buckets.
fn violations_over(w: &WindowEntry, threshold: u64) -> u64 {
    let mut over = 0u64;
    for &(i, c, _) in &w.buckets {
        let lo = if i == 0 { 0 } else { bucket_bound(i - 1) + 1 };
        let hi = bucket_bound(i);
        if lo > threshold {
            over += c;
        } else if hi > threshold {
            let width = hi - lo + 1;
            let above = hi - threshold;
            over += ((c as f64) * (above as f64) / (width as f64)).round() as u64;
        }
    }
    over.min(w.count)
}

/// One window of an evaluated SLO: the percentile and violation view plus
/// the burn rates of the trailing fast/slow spans ending here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloWindow {
    pub window: u64,
    pub start_ns: u64,
    pub count: u64,
    pub violations: u64,
    pub p50: u64,
    pub p99: u64,
    pub p999: u64,
    /// Fast burn rate ×1000 (1000 = burning exactly the whole budget).
    pub fast_burn_x1000: u64,
    /// Slow burn rate ×1000.
    pub slow_burn_x1000: u64,
    /// The request phase dominating this window's slow requests, filled in
    /// by [`crate::tailprof::TailAttribution::annotate`] when a traced run's
    /// tail attribution is available. `None` for clean windows (or when the
    /// run was not traced).
    pub dominant_cause: Option<ReqPhase>,
}

/// A burn-rate threshold crossing, stamped in virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloAlert {
    pub kind: BurnWindow,
    /// `true` when the burn rate crossed above the alert threshold, `false`
    /// when it recovered below it.
    pub raised: bool,
    /// End of the window whose trailing burn rate crossed.
    pub t_ns: u64,
    /// The burn rate at the crossing, ×1000.
    pub burn_x1000: u64,
    /// Prometheus-style exemplars: the k worst requests of the trailing burn
    /// span that fired this alert, worst first. Filled in by
    /// [`crate::tailprof::TailAttribution::annotate`] for raised alerts;
    /// empty on clears and untraced runs.
    pub exemplars: Vec<Exemplar>,
}

/// The evaluated SLO: windows, alerts and error-budget accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    pub spec: SloSpec,
    pub window_ns: u64,
    pub windows: Vec<SloWindow>,
    pub alerts: Vec<SloAlert>,
    pub total_count: u64,
    pub total_violations: u64,
    /// Allowed violations over the whole run: `(1 - objective) × total`.
    pub budget_total: u64,
    /// Fraction of the error budget consumed, ×1000 (1000 = exhausted).
    pub budget_spent_x1000: u64,
}

impl SloReport {
    /// Did the run as a whole meet the objective?
    pub fn met(&self) -> bool {
        self.total_violations <= self.budget_total
    }

    /// JSON export (stable field order); bit-identical for bit-identical
    /// window series, which is what the determinism suite asserts.
    pub fn to_json(&self) -> Json {
        let windows = self
            .windows
            .iter()
            .map(|w| {
                Json::Object(vec![
                    ("window".to_string(), Json::uint(w.window as usize)),
                    ("start_ns".to_string(), Json::uint(w.start_ns as usize)),
                    ("count".to_string(), Json::uint(w.count as usize)),
                    ("violations".to_string(), Json::uint(w.violations as usize)),
                    ("p50".to_string(), Json::uint(w.p50 as usize)),
                    ("p99".to_string(), Json::uint(w.p99 as usize)),
                    ("p999".to_string(), Json::uint(w.p999 as usize)),
                    ("fast_burn_x1000".to_string(), Json::uint(w.fast_burn_x1000 as usize)),
                    ("slow_burn_x1000".to_string(), Json::uint(w.slow_burn_x1000 as usize)),
                    (
                        "dominant_cause".to_string(),
                        match w.dominant_cause {
                            Some(c) => Json::str(c.label()),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        let alerts = self
            .alerts
            .iter()
            .map(|a| {
                let exemplars = a
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
                    ("kind".to_string(), Json::str(a.kind.label())),
                    ("raised".to_string(), Json::Bool(a.raised)),
                    ("t_ns".to_string(), Json::uint(a.t_ns as usize)),
                    ("burn_x1000".to_string(), Json::uint(a.burn_x1000 as usize)),
                    ("exemplars".to_string(), Json::Array(exemplars)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("slo".to_string(), Json::str(self.spec.name)),
            ("metric".to_string(), Json::str(self.spec.metric)),
            ("threshold_ns".to_string(), Json::uint(self.spec.threshold_ns as usize)),
            (
                "objective_x1e6".to_string(),
                Json::uint((self.spec.objective * 1e6).round() as usize),
            ),
            ("window_ns".to_string(), Json::uint(self.window_ns as usize)),
            ("total_count".to_string(), Json::uint(self.total_count as usize)),
            ("total_violations".to_string(), Json::uint(self.total_violations as usize)),
            ("budget_total".to_string(), Json::uint(self.budget_total as usize)),
            ("budget_spent_x1000".to_string(), Json::uint(self.budget_spent_x1000 as usize)),
            ("met".to_string(), Json::Bool(self.met())),
            ("windows".to_string(), Json::Array(windows)),
            ("alerts".to_string(), Json::Array(alerts)),
        ])
    }

    /// Compact human-readable summary for CLI output.
    pub fn render(&self) -> String {
        let mut out = format!(
            "SLO `{}`: {} of {} requests over {} ns ({} windows of {} ns) — budget {} violations, \
             spent {} ({}%o), {}\n",
            self.spec.name,
            self.total_violations,
            self.total_count,
            self.spec.threshold_ns,
            self.windows.len(),
            self.window_ns,
            self.budget_total,
            self.total_violations,
            self.budget_spent_x1000,
            if self.met() { "met" } else { "MISSED" },
        );
        for a in &self.alerts {
            out.push_str(&format!(
                "  [{}] {} burn alert at t={} ns (burn {:.1}x)\n",
                if a.raised { "RAISE" } else { "clear" },
                a.kind.label(),
                a.t_ns,
                a.burn_x1000 as f64 / 1000.0,
            ));
            for e in &a.exemplars {
                out.push_str(&format!(
                    "          exemplar req {:#x} pe {}: {} ns, {}\n",
                    e.id,
                    e.pe,
                    e.latency_ns,
                    e.dominant.label(),
                ));
            }
        }
        let attributed: Vec<&SloWindow> =
            self.windows.iter().filter(|w| w.dominant_cause.is_some()).collect();
        if !attributed.is_empty() {
            out.push_str("  violated windows by dominant cause:\n");
            for w in attributed {
                out.push_str(&format!(
                    "    window {:>4} @{:>12} ns: {}/{} violations, {}\n",
                    w.window,
                    w.start_ns,
                    w.violations,
                    w.count,
                    w.dominant_cause.map(|c| c.label()).unwrap_or("-"),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::stats::StatsSnapshot;

    fn spec() -> SloSpec {
        SloSpec::new("p99-latency", "serve_latency_ns", 1000, 0.99)
            .with_burn_windows(2, 4)
            .with_burn_alerts(10.0, 2.0)
    }

    #[test]
    fn clean_run_spends_no_budget() {
        let reg = MetricsRegistry::new_windowed(true, 1, 1000);
        for w in 0..4u64 {
            for i in 0..100u64 {
                reg.observe_windowed(0, "serve_latency_ns", None, w * 1000 + i, 500);
            }
        }
        let report = spec().evaluate(&reg.snapshot(StatsSnapshot::default()));
        assert_eq!(report.total_count, 400);
        assert_eq!(report.total_violations, 0);
        assert_eq!(report.budget_total, 4);
        assert_eq!(report.budget_spent_x1000, 0);
        assert!(report.met());
        assert!(report.alerts.is_empty());
        assert!(report.windows.iter().all(|w| w.fast_burn_x1000 == 0));
    }

    #[test]
    fn latency_spike_burns_budget_and_raises_then_clears() {
        let reg = MetricsRegistry::new_windowed(true, 1, 1000);
        // Three healthy windows, one spiked window (every request slow by
        // 100x), six healthy recovery windows — enough for the slow burn
        // span to drain past the spike.
        for w in 0..10u64 {
            let v = if w == 3 { 100_000 } else { 500 };
            for i in 0..100u64 {
                reg.observe_windowed(0, "serve_latency_ns", None, w * 1000 + i, v);
            }
        }
        let report = spec().evaluate(&reg.snapshot(StatsSnapshot::default()));
        assert_eq!(report.total_violations, 100, "the spiked window violates wholesale");
        assert!(!report.met(), "100 violations over a 7-request budget");
        let spike = &report.windows[3];
        assert_eq!(spike.violations, 100);
        assert!(spike.p50 > 1000);
        // Fast burn at the spike: 100 bad / 200 in the 2-window span over a
        // 1% allowance = 50x.
        assert_eq!(spike.fast_burn_x1000, 50_000);
        // Raised at the spike, cleared once the trailing spans drain.
        let raised: Vec<_> = report.alerts.iter().filter(|a| a.raised).collect();
        assert!(raised.iter().any(|a| a.kind == BurnWindow::Fast && a.t_ns == 4000));
        assert!(raised.iter().any(|a| a.kind == BurnWindow::Slow));
        let cleared: Vec<_> = report.alerts.iter().filter(|a| !a.raised).collect();
        assert!(cleared.iter().any(|a| a.kind == BurnWindow::Fast));
        assert!(cleared.iter().any(|a| a.kind == BurnWindow::Slow));
        // The report is a pure function of the window series.
        let again = spec().evaluate(&reg.snapshot(StatsSnapshot::default()));
        assert_eq!(report, again);
        assert_eq!(report.to_json().pretty(), again.to_json().pretty());
    }

    #[test]
    fn empty_windows_advance_the_burn_series() {
        let reg = MetricsRegistry::new_windowed(true, 1, 1000);
        // Requests in windows 0 and 5 only; 1..=4 are idle.
        for i in 0..10u64 {
            reg.observe_windowed(0, "serve_latency_ns", None, i, 2000);
            reg.observe_windowed(0, "serve_latency_ns", None, 5000 + i, 500);
        }
        let report = spec().evaluate(&reg.snapshot(StatsSnapshot::default()));
        assert_eq!(report.windows.len(), 6, "gap windows are densified");
        assert_eq!(report.windows[2].count, 0);
        assert_eq!(report.total_count, 20);
        assert_eq!(report.total_violations, 10);
        // JSON exports parse.
        let parsed = crate::json::parse(&report.to_json().pretty()).expect("slo json parses");
        assert_eq!(parsed.get("total_count").and_then(|v| v.as_i64()), Some(20));
    }
}
