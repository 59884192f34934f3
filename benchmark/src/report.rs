//! Metric tables (the names, units, directions and bounds BENCHMARK.json
//! declares), the results document, and the `compare` verdicts.

use crate::ladder::{Kind, Rung};
use crate::measure::Summary;
use crate::workloads::Workload;
use pgas_machine::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn metric(name: impl Into<String>, unit: &'static str, better: Better) -> Metric {
    Metric { name: name.into(), unit, better }
}

/// The end-to-end metrics, the same five for every workload, with the
/// share of the parent's median each may worsen by.
pub fn end_to_end() -> Vec<(Metric, f64)> {
    use Better::{Higher, Lower};
    vec![
        (metric("sim_ops_per_s", "1/s", Higher), 0.25),
        (metric("cpu_s", "s", Lower), 0.25),
        (metric("peak_rss_mb", "MB", Lower), 0.10),
        (metric("setup_s", "s", Lower), 0.25),
        (metric("virt_makespan_ms", "ms", Lower), 0.08),
    ]
}

/// The per-layer metrics of a traced run. None is gated.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    // Ladder: each layer's self cost on both clocks, then per op kind.
    for rung in Rung::ALL {
        v.push(metric(format!("{}.host_ns_per_op", rung.layer()), "ns", Lower));
        v.push(metric(format!("{}.virt_ns_per_op", rung.layer()), "ns", Lower));
    }
    for rung in Rung::ALL {
        for (_, stem) in Kind::OPS {
            v.push(metric(format!("{}.{stem}_host_ns", rung.layer()), "ns", Lower));
        }
    }
    v.push(metric("conduit.am_call_host_ns", "ns", Lower));
    v.push(metric("openshmem.am_call_host_ns", "ns", Lower));
    // Subsystem toggles: host ns per op a switch adds to the conduit rung.
    for name in TOGGLE_METRICS {
        v.push(metric(name, "ns", Lower));
    }
    // Micro-probes at 32 PEs.
    v.push(metric("machine.spawn_us_per_pe", "us", Lower));
    v.push(metric("machine.barrier_host_us", "us", Lower));
    v.push(metric("machine.heap_copy_gib_s", "GiB/s", Higher));
    v.push(metric("openshmem.barrier_host_us", "us", Lower));
    v.push(metric("caf.sync_all_host_us", "us", Lower));
    v.push(metric("caf.lock_pair_host_us", "us", Lower));
    v.push(metric("caf.lock_handoff_host_us", "us", Lower));
    v.push(metric("caf.strided_host_ns_per_elem", "ns", Lower));
    // Counters of the workload the run was asked for.
    v.push(metric("machine.sys_share", "ratio", Lower));
    v.push(metric("machine.ctx_switches_per_op", "1/op", Lower));
    v.push(metric("machine.os_threads", "count", Lower));
    v.push(metric("machine.nic_busy_share", "ratio", Lower));
    v.push(metric("machine.nic_msgs_per_op", "1/op", Lower));
    v.push(metric("conduit.wire_ops_per_op", "1/op", Lower));
    v.push(metric("conduit.amo_share", "ratio", Lower));
    v.push(metric("conduit.retries", "count", Lower));
    v.push(metric("caf.plans_per_op", "1/op", Lower));
    v.push(metric("apps.host_us_per_op", "us", Lower));
    v.push(metric("apps.virt_ns_per_op", "ns", Lower));
    v.push(metric("apps.serve_virt_p50_ns", "ns", Lower));
    v.push(metric("apps.serve_virt_p99_ns", "ns", Lower));
    v.push(metric("apps.himeno_virt_mflops", "MFLOP/s", Higher));
    v.push(metric("trace_overhead_share", "ratio", Lower));
    v
}

/// Names of the subsystem-toggle metrics, in the order the ladder runs them.
pub const TOGGLE_METRICS: [&str; 6] = [
    "machine.sanitizer_host_ns_per_op",
    "machine.trace_host_ns_per_op",
    "machine.metrics_host_ns_per_op",
    "machine.checksum_host_ns_per_op",
    "conduit.coalesce_host_ns_per_op",
    "machine.arbiter_host_ns_per_op",
];

/// How long one run measures (BENCHMARK.json's `run_seconds`, and the
/// default of `run`).
pub const RUN_SECONDS: u64 = 20;

/// BENCHMARK.json, as these tables declare it.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Array(items.iter().map(|s| Json::str(*s)).collect());
    let declared = |m: &Metric| {
        vec![
            ("name".to_string(), Json::str(m.name.as_str())),
            ("unit".to_string(), Json::str(m.unit)),
            ("better".to_string(), Json::str(m.better.name())),
        ]
    };
    let workloads = Workload::ALL.iter().map(|w| {
        Json::Object(vec![("name".into(), Json::str(w.name())), ("why".into(), Json::str(w.why()))])
    });
    let e2e = end_to_end().into_iter().map(|(m, bound)| {
        let mut fields = declared(&m);
        fields.push(("bound".into(), Json::float(bound)));
        Json::Object(fields)
    });
    Json::Object(vec![
        (
            "command".into(),
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".into(), strs(&["benchmark"])),
        ("run_seconds".into(), Json::int(RUN_SECONDS as i64)),
        ("workloads".into(), Json::Array(workloads.collect())),
        ("end_to_end".into(), Json::Array(e2e.collect())),
        (
            "per_layer".into(),
            Json::Array(per_layer().iter().map(|m| Json::Object(declared(m))).collect()),
        ),
    ])
}

/// One line, no spaces: the form a child hands its parent and the driver
/// reads off the last line of standard output.
pub fn compact(j: &Json) -> String {
    let mut out = String::new();
    write_compact(j, &mut out);
    out
}

fn write_compact(j: &Json, out: &mut String) {
    match j {
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Object(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&Json::str(k.as_str()).pretty());
                out.push(':');
                write_compact(v, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.pretty()),
    }
}

/// What one workload measured: the end-to-end summaries of an untraced
/// run and the per-layer values of a traced one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    /// First pair of runs whose virtual makespans should have been equal
    /// and were not.
    pub invariance_error: Option<String>,
    pub end_to_end: BTreeMap<String, Summary>,
    pub per_layer: BTreeMap<String, f64>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invariance_error.is_none()
    }

    /// The object the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every declared metric of
    /// the run's kind (medians for end-to-end metrics).
    pub fn driver_line(&self, traced: bool) -> Result<Json, String> {
        let mut metrics = Vec::new();
        let mut put = |m: &Metric, value: Option<f64>| match value {
            Some(v) if v.is_finite() => {
                let entry = vec![
                    ("value".to_string(), Json::float(v)),
                    ("unit".to_string(), Json::str(m.unit)),
                ];
                metrics.push((m.name.clone(), Json::Object(entry)));
                Ok(())
            }
            _ => Err(format!("metric `{}` was not measured", m.name)),
        };
        if traced {
            for m in per_layer() {
                put(&m, self.per_layer.get(&m.name).copied())?;
            }
        } else {
            for (m, _) in end_to_end() {
                put(&m, self.end_to_end.get(&m.name).map(|s| s.median))?;
            }
        }
        Ok(Json::Object(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::int(self.attempted.max(1) as i64)),
            ("failed".into(), Json::int(self.failed as i64)),
            ("metrics".into(), Json::Object(metrics)),
        ]))
    }

    fn to_json(&self) -> Json {
        let units: BTreeMap<String, &'static str> =
            per_layer().into_iter().map(|m| (m.name, m.unit)).collect();
        let e2e = end_to_end()
            .into_iter()
            .filter_map(|(m, _)| {
                Some((m.name.clone(), self.end_to_end.get(&m.name)?.to_json(m.unit)))
            })
            .collect();
        let layers = self
            .per_layer
            .iter()
            .map(|(name, &value)| {
                let entry = vec![
                    ("value".to_string(), Json::float(value)),
                    ("unit".to_string(), Json::str(units.get(name).copied().unwrap_or(""))),
                ];
                (name.clone(), Json::Object(entry))
            })
            .collect();
        Json::Object(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::int(self.attempted as i64)),
            ("failed".into(), Json::int(self.failed as i64)),
            (
                "invariance_error".into(),
                self.invariance_error.as_deref().map_or(Json::Null, Json::str),
            ),
            ("end_to_end".into(), Json::Object(e2e)),
            ("per_layer".into(), Json::Object(layers)),
        ])
    }
}

/// The results document `run` writes: the recorded host and settings, and
/// one [`WorkloadResult`] per workload.
pub fn results_json(env: Vec<(String, Json)>, results: &[(Workload, WorkloadResult)]) -> Json {
    Json::Object(vec![
        ("schema".into(), Json::int(1)),
        ("env".into(), Json::Object(env)),
        (
            "workloads".into(),
            Json::Object(
                results.iter().map(|(w, r)| (w.name().to_string(), r.to_json())).collect(),
            ),
        ),
    ])
}

/// The table `run` prints: every metric by name, with its unit.
pub fn render(results: &[(Workload, WorkloadResult)]) -> String {
    let mut out = String::new();
    for (w, r) in results {
        let _ = writeln!(
            out,
            "\n== {} == attempted {} failed {} correct {}",
            w.name(),
            r.attempted,
            r.failed,
            r.correct()
        );
        if let Some(e) = &r.invariance_error {
            let _ = writeln!(out, "  virtual-time invariance broken: {e}");
        }
        for (m, bound) in end_to_end() {
            if let Some(s) = r.end_to_end.get(&m.name) {
                let _ = writeln!(
                    out,
                    "  {:<34} {:>16.6} {:<8} q1 {:.6} q3 {:.6} n {} spread {:.2}% (bound {:.0}%, {} is better)",
                    m.name,
                    s.median,
                    m.unit,
                    s.q1,
                    s.q3,
                    s.values.len(),
                    100.0 * s.spread(),
                    100.0 * bound,
                    m.better.name()
                );
            }
        }
        for m in per_layer() {
            if let Some(v) = r.per_layer.get(&m.name) {
                let _ = writeln!(out, "  {:<34} {:>16.4} {}", m.name, v, m.unit);
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    Unresolved,
}

/// Judge `b` against `a` for one metric. A move beyond the bound is
/// `Better` or `Worse`; inside it, `Unchanged` — unless either side's own
/// quartile spread is wider than the bound, in which case the runs cannot
/// resolve a move of that size and the verdict is `Unresolved`, except
/// when every reading of one side beats every reading of the other.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    // Signed relative move of the median, positive = improvement.
    let gain = match better {
        Better::Higher => (b.median - a.median) / a.median.abs(),
        Better::Lower => (a.median - b.median) / a.median.abs(),
    };
    // Does every reading of `x` lie on the good side of every reading of `y`?
    let beats = |x: &Summary, y: &Summary| match better {
        Better::Higher => min(&x.values) > max(&y.values),
        Better::Lower => max(&x.values) < min(&y.values),
    };
    if a.spread() > bound || b.spread() > bound {
        return if beats(b, a) {
            Verdict::Better
        } else if beats(a, b) && gain < -bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Compare two results documents: one verdict per (workload, end-to-end
/// metric), plus failures. Returns the report and whether anything is
/// `Worse` (or a side is missing, incorrect, or failed operations).
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut bad = false;
    for w in Workload::ALL {
        let side = |doc: &Json, which: &str| {
            doc.get("workloads")
                .and_then(|ws| ws.get(w.name()))
                .cloned()
                .ok_or_else(|| format!("{which}: no workload `{}`", w.name()))
        };
        let (wa, wb) = (side(a, "A")?, side(b, "B")?);
        for (which, doc) in [("A", &wa), ("B", &wb)] {
            let failed = doc.get("failed").and_then(Json::as_i64).unwrap_or(-1);
            if failed != 0 || doc.get("correct") != Some(&Json::Bool(true)) {
                let _ = writeln!(out, "{:<12} {which} is not correct (failed {failed})", w.name());
                bad = true;
            }
        }
        for (m, bound) in end_to_end() {
            let read = |doc: &Json, which: &str| {
                doc.get("end_to_end")
                    .and_then(|e| e.get(&m.name))
                    .and_then(Summary::from_json)
                    .ok_or_else(|| format!("{which}: {} has no `{}`", w.name(), m.name))
            };
            let (sa, sb) = (read(&wa, "A")?, read(&wb, "B")?);
            let v = verdict(&sa, &sb, m.better, bound);
            bad |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{:<12} {:<18} {:<10} A {:.6} (spread {:.2}%)  B {:.6} (spread {:.2}%)  {:+.2}%  bound {:.0}%",
                w.name(),
                m.name,
                format!("{v:?}").to_lowercase(),
                sa.median,
                100.0 * sa.spread(),
                sb.median,
                100.0 * sb.spread(),
                100.0 * (sb.median - sa.median) / sa.median.abs(),
                100.0 * bound
            );
        }
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_machine::json::parse;

    fn summary(values: &[f64]) -> Summary {
        Summary::of(values.to_vec())
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = summary(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = summary(&[101.0, 102.0, 100.0, 101.5, 100.5]);
        let slow = summary(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        let fast = summary(&[80.0, 81.0, 79.0, 80.5, 79.5]);
        let noisy = summary(&[70.0, 100.0, 130.0, 85.0, 115.0]);
        assert_eq!(verdict(&base, &same, Better::Lower, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&base, &slow, Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(verdict(&base, &fast, Better::Lower, 0.10), Verdict::Better);
        assert_eq!(verdict(&base, &slow, Better::Higher, 0.10), Verdict::Better);
        assert_eq!(verdict(&base, &noisy, Better::Lower, 0.10), Verdict::Unresolved);
        // Wider than the bound, yet every reading beats every reading.
        let far = summary(&[10.0, 20.0, 30.0, 15.0, 25.0]);
        assert_eq!(verdict(&base, &far, Better::Lower, 0.10), Verdict::Better);
        assert_eq!(verdict(&base, &far, Better::Higher, 0.10), Verdict::Worse);
    }

    #[test]
    fn compact_is_one_line_the_parser_reads_back() {
        let j = Json::Object(vec![
            ("a".into(), Json::Array(vec![Json::int(1), Json::float(2.5), Json::Null])),
            ("b \"q\"".into(), Json::Object(vec![("c".into(), Json::Bool(true))])),
        ]);
        let line = compact(&j);
        assert!(!line.contains('\n'));
        assert_eq!(parse(&line).unwrap(), j);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let e2e = end_to_end();
        for m in e2e.iter().map(|(m, _)| m).chain(per_layer().iter()) {
            assert!(ok_name(&m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name.clone()), "{} used twice", m.name);
        }
        assert!(e2e.iter().all(|(_, bound)| (0.0..=0.25).contains(bound)));
        assert!(per_layer().len() <= 128);
        let setup = e2e.iter().find(|(m, _)| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.0.unit, setup.0.better), ("s", Better::Lower));
        assert!(e2e.iter().all(|(_, b)| *b <= setup.1), "setup_s carries the largest bound");
    }

    fn sample_result() -> WorkloadResult {
        let mut r = WorkloadResult { attempted: 10, ..WorkloadResult::default() };
        for (m, _) in end_to_end() {
            r.end_to_end.insert(m.name, summary(&[1.0, 1.01, 0.99]));
        }
        for m in per_layer() {
            r.per_layer.insert(m.name, 2.0);
        }
        r
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let r = sample_result();
        for traced in [false, true] {
            let j = r.driver_line(traced).unwrap();
            let Json::Object(fields) = &j else { panic!("not an object") };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Object(metrics)) = j.get("metrics") else { panic!("no metrics") };
            let want = if traced { per_layer().len() } else { end_to_end().len() };
            assert_eq!(metrics.len(), want);
            for (_, entry) in metrics {
                assert!(entry.get("value").and_then(Json::as_f64).is_some());
                assert!(entry.get("unit").and_then(Json::as_str).is_some());
            }
        }
        let mut missing = r.clone();
        missing.per_layer.remove("caf.plans_per_op");
        assert!(missing.driver_line(true).unwrap_err().contains("caf.plans_per_op"));
    }

    #[test]
    fn results_document_keeps_its_schema_and_compares_with_itself() {
        let results: Vec<_> = Workload::ALL.into_iter().map(|w| (w, sample_result())).collect();
        let env = vec![("nproc".to_string(), Json::int(2))];
        let doc = parse(&results_json(env, &results).pretty()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_i64), Some(1));
        assert!(doc.get("env").and_then(|e| e.get("nproc")).is_some());
        for w in Workload::ALL {
            let wdoc =
                doc.get("workloads").and_then(|ws| ws.get(w.name())).expect("every workload");
            for key in ["correct", "attempted", "failed", "end_to_end", "per_layer"] {
                assert!(wdoc.get(key).is_some(), "{}: {key}", w.name());
            }
            let s = wdoc.get("end_to_end").and_then(|e| e.get("cpu_s")).unwrap();
            for key in ["unit", "median", "q1", "q3", "n", "values"] {
                assert!(s.get(key).is_some(), "summary {key}");
            }
        }
        let (report, bad) = compare(&doc, &doc).unwrap();
        assert!(!bad, "{report}");
        assert_eq!(report.matches("unchanged").count(), 4 * end_to_end().len());
    }

    #[test]
    fn compare_flags_a_regression_and_a_failed_side() {
        let base: Vec<_> = Workload::ALL.into_iter().map(|w| (w, sample_result())).collect();
        let mut worse = base.clone();
        worse[1].1.end_to_end.insert("cpu_s".into(), summary(&[2.0, 2.01, 1.99]));
        let doc =
            |r: &[(Workload, WorkloadResult)]| parse(&results_json(vec![], r).pretty()).unwrap();
        let (report, bad) = compare(&doc(&base), &doc(&worse)).unwrap();
        assert!(bad && report.contains("worse"), "{report}");
        let mut failed = base.clone();
        failed[0].1.failed = 3;
        let (report, bad) = compare(&doc(&base), &doc(&failed)).unwrap();
        assert!(bad && report.contains("not correct"), "{report}");
    }

    #[test]
    fn benchmark_json_is_the_manifest_the_tables_declare() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc,
            parse(&manifest().pretty()).unwrap(),
            "regenerate with `benchmark manifest`"
        );

        // The contract's limits the tables do not already pin.
        let Json::Object(fields) = &doc else { panic!("not an object") };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let command = doc.get("command").and_then(Json::as_array).unwrap();
        assert!(command.len() <= 32);
        assert!(command
            .iter()
            .all(|c| c.as_str().is_some_and(|c| c.len() <= 200 && !c.starts_with('/'))));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((2..=8).contains(&Workload::ALL.len()));
    }
}
