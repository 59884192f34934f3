//! Order statistics, process resource readings, and the counters a
//! finished simulation hands back.

use pgas_machine::json::Json;
use pgas_machine::SimOutcome;
use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so the
/// spreads `compare` reports are the ones the acceptance procedure takes.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub values: Vec<f64>,
}

impl Summary {
    pub fn of(values: Vec<f64>) -> Summary {
        let (q1, q3) = quartiles(&values);
        Summary { median: median(&values), q1, q3, values }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }

    pub fn to_json(&self, unit: &str) -> Json {
        Json::Object(vec![
            ("unit".into(), Json::str(unit)),
            ("median".into(), Json::float(self.median)),
            ("q1".into(), Json::float(self.q1)),
            ("q3".into(), Json::float(self.q3)),
            ("n".into(), Json::uint(self.values.len())),
            ("values".into(), Json::Array(self.values.iter().map(|&v| Json::float(v)).collect())),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Summary> {
        let values: Option<Vec<f64>> =
            j.get("values")?.as_array()?.iter().map(Json::as_f64).collect();
        Some(Summary {
            median: j.get("median")?.as_f64()?,
            q1: j.get("q1")?.as_f64()?,
            q3: j.get("q3")?.as_f64()?,
            values: values?,
        })
    }
}

/// Process-wide resource totals, threads that already exited included —
/// which `/proc/self/status` cannot give for context switches, and PE
/// threads are gone by the time a simulation call returns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rusage {
    pub user_s: f64,
    pub sys_s: f64,
    /// `VmHWM`, not `ru_maxrss`: a child's `ru_maxrss` starts at its
    /// parent's resident set at the fork, `VmHWM` at zero after the exec.
    pub peak_rss_kb: u64,
    pub voluntary_switches: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen longs
    /// (twelve this benchmark does not read, `ru_nvcsw`, `ru_nivcsw`).
    #[repr(C)]
    #[derive(Default)]
    pub struct RawRusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub unread: [i64; 12],
        pub nvcsw: i64,
        pub nivcsw: i64,
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    }
}

impl Rusage {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn now() -> Rusage {
        let mut raw = sys::RawRusage::default();
        // SAFETY: `raw` is a live, writable value whose layout is the
        // 64-bit Linux `struct rusage` (144 bytes: 2 x timeval{long,long}
        // + 14 x long, with ru_nvcsw and ru_nivcsw last); RUSAGE_SELF (0)
        // is a valid `who`, and the call writes nothing beyond the struct.
        let rc = unsafe { sys::getrusage(0, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        Rusage {
            user_s: secs(raw.utime),
            sys_s: secs(raw.stime),
            peak_rss_kb: vm_hwm_kb(),
            voluntary_switches: raw.nvcsw as u64,
        }
    }

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    pub fn now() -> Rusage {
        compile_error!("the benchmark reads getrusage with the 64-bit Linux struct layout");
    }

    /// Totals accrued since `earlier` (the RSS high-water mark is not a
    /// difference: it is the later reading).
    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            peak_rss_kb: self.peak_rss_kb,
            voluntary_switches: self.voluntary_switches - earlier.voluntary_switches,
        }
    }
}

/// This process's resident-set high-water mark, KiB (0 where `/proc` does
/// not say).
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim().trim_end_matches("kB").trim().parse().ok()
        })
        .unwrap_or(0)
}

/// Wall seconds and resource totals of one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, Rusage) {
    let before = Rusage::now();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, Rusage::now().since(&before))
}

/// What a finished simulation reports about itself, as every workload
/// and ladder rung reads it off the returned `SimOutcome`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    pub makespan_ns: u64,
    /// Puts + gets + AMOs + AMs the conduit executed (lock spinning and
    /// retries included: attempts, not useful operations).
    pub wire_ops: u64,
    pub amos: u64,
    pub retries: u64,
    pub retries_exhausted: u64,
    /// Strided-transfer plans the caf planner made.
    pub plans: u64,
    pub nodes: u64,
    pub nic_msgs: u64,
    pub nic_busy_ns: u64,
}

impl SimCounters {
    pub fn of<R>(out: &SimOutcome<R>) -> SimCounters {
        let s = &out.stats;
        SimCounters {
            makespan_ns: out.makespan_ns(),
            wire_ops: s.puts + s.gets + s.amos + s.ams,
            amos: s.amos,
            retries: s.retries,
            retries_exhausted: s.retries_exhausted,
            plans: s.plans,
            nodes: out.nics.len() as u64,
            nic_msgs: out.nics.iter().map(|n| n.messages).sum(),
            nic_busy_ns: out.nics.iter().map(|n| n.busy_ns).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        assert_eq!(quartiles(&[64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]), (2.0, 32.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn summary_round_trips_through_json_and_reports_spread() {
        let s = Summary::of(vec![90.0, 100.0, 110.0, 95.0, 105.0]);
        assert_eq!(s.median, 100.0);
        assert!((s.spread() - 0.15).abs() < 1e-12, "spread {}", s.spread());
        assert_eq!(Summary::from_json(&s.to_json("ms")), Some(s));
    }

    #[test]
    fn rusage_deltas_are_monotone_and_count_this_thread() {
        let (_, wall, used) = timed(|| {
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            x
        });
        assert!(wall > 0.0);
        assert!(used.user_s + used.sys_s > 0.0, "cpu {used:?}");
        assert!(used.peak_rss_kb > 100, "rss {used:?}");
    }
}
