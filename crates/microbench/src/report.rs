//! Result containers and rendering for the reproduction harnesses.

use pgas_machine::json::Json;
use std::path::{Path, PathBuf};

/// The directory figures and baselines are written to: `REPRO_RESULTS_DIR`,
/// else `results/` of the workspace that contains the current directory,
/// else `results/` under the current directory. Resolved at run time, so a
/// copy of the repository writes into its own `results/` even when it runs
/// binaries built in another checkout.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("REPRO_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    let cwd = std::env::current_dir().unwrap_or_default();
    workspace_root(&cwd).unwrap_or(&cwd).join("results")
}

/// The nearest ancestor of `from` (itself included) whose `Cargo.toml`
/// declares a `[workspace]`.
fn workspace_root(from: &Path) -> Option<&Path> {
    from.ancestors().find(|dir| {
        std::fs::read_to_string(dir.join("Cargo.toml"))
            .is_ok_and(|toml| toml.lines().any(|line| line.trim() == "[workspace]"))
    })
}

/// One line on a figure panel: a labelled series of (x, y) points.
#[derive(Debug, Clone)]
pub struct Series {
    pub label: String,
    pub points: Vec<(f64, f64)>,
}

impl Series {
    pub fn new(label: impl Into<String>) -> Series {
        Series { label: label.into(), points: Vec::new() }
    }

    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// y value at the given x (exact match), if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|p| p.0 == x).map(|p| p.1)
    }

    /// Geometric-mean ratio of this series over `other` at common x values.
    /// The number used for "A is k× faster than B" claims.
    pub fn geomean_ratio_over(&self, other: &Series) -> f64 {
        let mut log_sum = 0.0;
        let mut n = 0;
        for &(x, y) in &self.points {
            if let Some(oy) = other.y_at(x) {
                if y > 0.0 && oy > 0.0 {
                    log_sum += (y / oy).ln();
                    n += 1;
                }
            }
        }
        assert!(n > 0, "series share no x values");
        (log_sum / n as f64).exp()
    }
}

/// One panel of a figure (e.g. "Put 1-pair, small sizes").
#[derive(Debug, Clone)]
pub struct Panel {
    pub title: String,
    pub xlabel: String,
    pub ylabel: String,
    pub series: Vec<Series>,
}

impl Panel {
    pub fn new(
        title: impl Into<String>,
        xlabel: impl Into<String>,
        ylabel: impl Into<String>,
    ) -> Panel {
        Panel {
            title: title.into(),
            xlabel: xlabel.into(),
            ylabel: ylabel.into(),
            series: Vec::new(),
        }
    }

    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as an aligned text table: one row per x, one column per series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let mut xs: Vec<f64> =
            self.series.iter().flat_map(|s| s.points.iter().map(|p| p.0)).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        out.push_str(&format!("{:>14}", self.xlabel));
        for s in &self.series {
            out.push_str(&format!(" {:>26}", s.label));
        }
        out.push_str(&format!("   [{}]\n", self.ylabel));
        for x in xs {
            out.push_str(&format!("{:>14}", trim_float(x)));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => out.push_str(&format!(" {:>26}", format_sig(y))),
                    None => out.push_str(&format!(" {:>26}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// A whole figure: several panels plus identification.
#[derive(Debug, Clone)]
pub struct Figure {
    pub id: String,
    pub caption: String,
    pub panels: Vec<Panel>,
    /// Optional critical-path attribution of a representative run of this
    /// figure, written as a sidecar `results/<id>.critpath.json` so a
    /// regression in the figure is explainable from the same artifact set.
    pub critpath: Option<Json>,
    /// Optional benchmark-baseline digest of the figure's probe run,
    /// aggregated by `repro_all` into `results/BENCH_<platform>.json`. Not
    /// written per-figure; the collector groups records by platform.
    pub bench: Option<Json>,
}

impl Figure {
    pub fn new(id: impl Into<String>, caption: impl Into<String>) -> Figure {
        Figure {
            id: id.into(),
            caption: caption.into(),
            panels: Vec::new(),
            critpath: None,
            bench: None,
        }
    }

    /// Attach a critical-path report (as JSON) to be emitted as a sidecar.
    pub fn with_critpath(mut self, report: Json) -> Figure {
        self.critpath = Some(report);
        self
    }

    /// Attach a bench-baseline record (`{figure, platform, digest}`) for the
    /// `repro_all` baseline collector.
    pub fn with_bench(mut self, record: Json) -> Figure {
        self.bench = Some(record);
        self
    }

    pub fn render(&self) -> String {
        let mut out = format!("# {} — {}\n\n", self.id, self.caption);
        for p in &self.panels {
            out.push_str(&p.render());
            out.push('\n');
        }
        out
    }

    /// Serialize to JSON for archival under `results/`.
    pub fn to_json(&self) -> String {
        let panels = self
            .panels
            .iter()
            .map(|p| {
                let series = p
                    .series
                    .iter()
                    .map(|s| {
                        let points = s
                            .points
                            .iter()
                            .map(|&(x, y)| Json::Array(vec![Json::float(x), Json::float(y)]))
                            .collect();
                        Json::Object(vec![
                            ("label".into(), Json::str(s.label.as_str())),
                            ("points".into(), Json::Array(points)),
                        ])
                    })
                    .collect();
                Json::Object(vec![
                    ("title".into(), Json::str(p.title.as_str())),
                    ("xlabel".into(), Json::str(p.xlabel.as_str())),
                    ("ylabel".into(), Json::str(p.ylabel.as_str())),
                    ("series".into(), Json::Array(series)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("id".into(), Json::str(self.id.as_str())),
            ("caption".into(), Json::str(self.caption.as_str())),
            ("panels".into(), Json::Array(panels)),
        ])
        .pretty()
    }

    /// Print to stdout and persist as `<id>.json` under [`results_dir`]
    /// (best effort).
    pub fn emit(&self) {
        println!("{}", self.render());
        let dir = results_dir();
        let dir = dir.as_path();
        if std::fs::create_dir_all(dir).is_ok() {
            let _ = std::fs::write(dir.join(format!("{}.json", self.id)), self.to_json());
            if let Some(cp) = &self.critpath {
                let _ = std::fs::write(dir.join(format!("{}.critpath.json", self.id)), cp.pretty());
            }
        }
    }
}

fn trim_float(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.2}")
    }
}

fn format_sig(y: f64) -> String {
    if y == 0.0 {
        "0".into()
    } else if y.abs() >= 1000.0 {
        format!("{y:.0}")
    } else if y.abs() >= 10.0 {
        format!("{y:.1}")
    } else {
        format!("{y:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_lookup_and_ratio() {
        let mut a = Series::new("a");
        let mut b = Series::new("b");
        for x in [1.0, 2.0, 4.0] {
            a.push(x, 10.0 * x);
            b.push(x, 5.0 * x);
        }
        assert_eq!(a.y_at(2.0), Some(20.0));
        assert_eq!(a.y_at(3.0), None);
        assert!((a.geomean_ratio_over(&b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn render_aligns_all_series() {
        let mut p = Panel::new("t", "bytes", "MB/s");
        let mut s1 = Series::new("one");
        s1.push(8.0, 100.0);
        s1.push(16.0, 200.0);
        let mut s2 = Series::new("two");
        s2.push(8.0, 50.0);
        p.series.push(s1);
        p.series.push(s2);
        let text = p.render();
        assert!(text.contains("one"));
        assert!(text.contains("two"));
        assert!(text.lines().count() >= 4);
        assert!(text.contains('-'), "missing point rendered as dash");
    }

    #[test]
    fn figure_json_roundtrips_structurally() {
        let mut fig = Figure::new("figX", "test");
        fig.panels.push(Panel::new("p", "x", "y"));
        let j = fig.to_json();
        assert!(j.contains("\"figX\""));
        assert!(j.contains("panels"));
        let parsed = pgas_machine::json::parse(&j).expect("emitted JSON is well-formed");
        assert_eq!(parsed.get("id").and_then(|v| v.as_str()), Some("figX"));
        assert_eq!(parsed.get("panels").and_then(|v| v.as_array()).map(|a| a.len()), Some(1));
    }

    #[test]
    fn the_workspace_root_is_found_from_a_subdirectory() {
        // A throwaway copy of the layout: a workspace manifest at the top
        // and a member package two levels below it.
        let top = std::env::temp_dir().join(format!("ws-root-{}", std::process::id()));
        let member = top.join("crates").join("member");
        std::fs::create_dir_all(member.join("src")).unwrap();
        std::fs::write(top.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/member\"]\n")
            .unwrap();
        std::fs::write(member.join("Cargo.toml"), "[package]\nname = \"member\"\n").unwrap();
        let found = workspace_root(&member.join("src")).map(Path::to_path_buf);
        let outside = workspace_root(&std::env::temp_dir()).map(Path::to_path_buf);
        std::fs::remove_dir_all(&top).unwrap();
        assert_eq!(found.as_deref(), Some(top.as_path()));
        assert_ne!(outside.as_deref(), Some(top.as_path()));
        // Tests run in their package's directory, two levels below this
        // repository's workspace manifest.
        let here = std::env::current_dir().unwrap();
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();
        assert_eq!(workspace_root(&here).map(|p| p.canonicalize().unwrap()), Some(repo));
    }

    #[test]
    #[should_panic(expected = "share no x")]
    fn ratio_requires_common_points() {
        let mut a = Series::new("a");
        a.push(1.0, 1.0);
        let mut b = Series::new("b");
        b.push(2.0, 1.0);
        a.geomean_ratio_over(&b);
    }
}
