//! Benchmark baselines: `results/BENCH_<platform>.json`.
//!
//! Every `repro_all` run distills each figure's probe (see [`crate::probes`])
//! into a [`RunDigest`] and groups the records by simulated platform into one
//! committed baseline file per platform. Because the simulator is
//! deterministic in virtual time, re-running `repro_all` reproduces these
//! files bit-identically — so `bench regress` can treat *any* difference
//! beyond the configured tolerance as a real performance change, and CI can
//! regenerate the records from scratch and compare against the committed
//! copies.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use pgas_machine::critdiff::RunDigest;
use pgas_machine::json::{parse, Json};

use crate::probes::ProbeOutcome;

/// One figure's baseline entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    pub figure: String,
    pub platform: String,
    pub digest: RunDigest,
}

impl BenchRecord {
    /// Distill a probe outcome into a record for `figure`.
    pub fn from_probe(figure: &str, probe: &ProbeOutcome) -> BenchRecord {
        BenchRecord {
            figure: figure.to_string(),
            platform: probe.platform.clone(),
            digest: probe.digest(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("figure".to_string(), Json::Str(self.figure.clone())),
            ("platform".to_string(), Json::Str(self.platform.clone())),
            ("digest".to_string(), self.digest.to_json()),
        ])
    }

    pub fn from_json(j: &Json) -> Result<BenchRecord, String> {
        let field = |key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("bench record missing `{key}`"))
        };
        Ok(BenchRecord {
            figure: field("figure")?,
            platform: field("platform")?,
            digest: RunDigest::from_json(j.get("digest").ok_or("bench record missing `digest`")?)?,
        })
    }
}

/// Path of the baseline file for one platform.
pub fn bench_path(dir: &Path, platform: &str) -> PathBuf {
    dir.join(format!("BENCH_{platform}.json"))
}

/// Serialize one platform's records (already filtered) to the file body.
fn platform_json(platform: &str, records: &[&BenchRecord]) -> Json {
    Json::Object(vec![
        ("platform".to_string(), Json::str(platform)),
        ("records".to_string(), Json::Array(records.iter().map(|r| r.to_json()).collect())),
    ])
}

/// Group records by platform and write one `BENCH_<platform>.json` per
/// platform into `dir`. Records are sorted by figure id so the files are
/// stable under job reordering. Returns the written paths.
pub fn write_baselines(dir: &Path, records: &[BenchRecord]) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut by_platform: BTreeMap<&str, Vec<&BenchRecord>> = BTreeMap::new();
    for r in records {
        by_platform.entry(&r.platform).or_default().push(r);
    }
    let mut written = Vec::new();
    for (platform, mut recs) in by_platform {
        recs.sort_by(|a, b| a.figure.cmp(&b.figure));
        let path = bench_path(dir, platform);
        let mut body = platform_json(platform, &recs).pretty();
        body.push('\n');
        std::fs::write(&path, body)?;
        written.push(path);
    }
    Ok(written)
}

/// Load every `BENCH_*.json` baseline under `dir`.
pub fn load_baselines(dir: &Path) -> Result<Vec<BenchRecord>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    let mut records = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let j = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for r in j
            .get("records")
            .and_then(|v| v.as_array())
            .ok_or_else(|| format!("{}: missing `records`", path.display()))?
        {
            records
                .push(BenchRecord::from_json(r).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    Ok(records)
}

/// Find the baseline record for one figure.
pub fn find<'a>(records: &'a [BenchRecord], figure: &str) -> Option<&'a BenchRecord> {
    records.iter().find(|r| r.figure == figure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_machine::critdiff::MetricDigest;
    use pgas_machine::PathCategory;

    fn record(figure: &str, platform: &str, makespan: u64) -> BenchRecord {
        BenchRecord {
            figure: figure.to_string(),
            platform: platform.to_string(),
            digest: RunDigest {
                makespan_ns: makespan,
                category_ns: [makespan, 0, 0, 0, 0],
                by_pe: vec![(0, PathCategory::Compute, makespan)],
                metrics: vec![MetricDigest {
                    name: "put_ns".to_string(),
                    peer_node: Some(1),
                    count: 4,
                    sum: 640,
                }],
                req_count: 0,
                req_phase_ns: [0; 6],
            },
        }
    }

    #[test]
    fn baselines_roundtrip_grouped_by_platform() {
        let dir =
            std::env::temp_dir().join(format!("pgas-bench-baseline-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let records = vec![
            record("fig9_dht", "titan", 500),
            record("fig2_put_latency", "stampede", 100),
            record("fig8_locks", "titan", 400),
        ];
        let written = write_baselines(&dir, &records).unwrap();
        assert_eq!(written.len(), 2, "one file per platform");
        assert!(bench_path(&dir, "stampede").exists());
        assert!(bench_path(&dir, "titan").exists());

        let loaded = load_baselines(&dir).unwrap();
        assert_eq!(loaded.len(), 3);
        // Within a platform, records come back sorted by figure id.
        let titan: Vec<&str> =
            loaded.iter().filter(|r| r.platform == "titan").map(|r| r.figure.as_str()).collect();
        assert_eq!(titan, ["fig8_locks", "fig9_dht"]);
        assert_eq!(find(&loaded, "fig2_put_latency").unwrap(), &records[1]);
        assert!(find(&loaded, "nope").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewriting_identical_records_is_bit_stable() {
        let dir =
            std::env::temp_dir().join(format!("pgas-bench-baseline-stable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let records = vec![record("fig8_locks", "titan", 400), record("fig9_dht", "titan", 500)];
        write_baselines(&dir, &records).unwrap();
        let first = std::fs::read_to_string(bench_path(&dir, "titan")).unwrap();
        // Shuffled input order must not change the file.
        let shuffled = vec![records[1].clone(), records[0].clone()];
        write_baselines(&dir, &shuffled).unwrap();
        let second = std::fs::read_to_string(bench_path(&dir, "titan")).unwrap();
        assert_eq!(first, second);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
