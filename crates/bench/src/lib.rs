//! # repro-bench — regenerates every table and figure of the paper
//!
//! One function per table/figure, returning a [`pgas_microbench::Figure`]
//! that the bench targets print and archive under `results/`. All numbers
//! are *virtual-time* measurements from the simulated machines; the
//! reproduction target is the shape of each figure (who wins, by what
//! factor, where crossovers fall), not the absolute values of the 2015
//! testbeds. See EXPERIMENTS.md for the paper-vs-measured record.
//!
//! Every generator takes `quick: bool`: quick mode (used by tests and smoke
//! runs, or `REPRO_QUICK=1`) shrinks sweeps and iteration counts.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod figures;
pub mod probes;
pub mod tables;

pub use figures::*;
pub use tables::*;

use std::sync::OnceLock;

/// Read the quick-mode switch from the environment.
pub fn quick_from_env() -> bool {
    std::env::var("REPRO_QUICK").map(|v| v != "0").unwrap_or(false)
}

/// `var` read through `lookup` as a positive integer. A value that is set
/// but does not parse is reported through `warn` and ignored.
fn positive_var(
    var: &str,
    lookup: impl Fn(&str) -> Option<String>,
    warn: impl FnOnce(String),
) -> Option<usize> {
    let raw = lookup(var)?;
    let n = raw.parse().ok().filter(|&n: &usize| n > 0);
    if n.is_none() {
        warn(format!("warning: ignoring {var}={raw:?} (expected a positive integer)"));
    }
    n
}

/// [`positive_var`] of the process environment, read (and complained about)
/// once per `cell`.
fn env_positive(cell: &'static OnceLock<Option<usize>>, var: &str) -> Option<usize> {
    *cell.get_or_init(|| positive_var(var, |v| std::env::var(v).ok(), |line| eprintln!("{line}")))
}

/// Maximum image count for the scaling figures (8/9/10), overridable with
/// `REPRO_MAX_IMAGES`.
pub fn max_images_from_env(default: usize) -> usize {
    static MAX_IMAGES: OnceLock<Option<usize>> = OnceLock::new();
    env_positive(&MAX_IMAGES, "REPRO_MAX_IMAGES").unwrap_or(default)
}

/// A deferred figure job (name, generator), runnable on a worker thread.
pub type FigureJob = (&'static str, Box<dyn Fn() -> pgas_microbench::Figure + Send + Sync>);

/// Worker-thread count for [`run_figure_jobs`], overridable with
/// `REPRO_JOBS`. Each worker is one OS thread that runs its figure's PEs as
/// fibers, so workers beyond the host's cores only interleave.
pub fn figure_jobs_from_env(default: usize) -> usize {
    static JOBS: OnceLock<Option<usize>> = OnceLock::new();
    env_positive(&JOBS, "REPRO_JOBS").unwrap_or(default)
}

/// Host time one figure job took on the worker thread that ran it.
#[derive(Debug, Clone, Copy)]
pub struct JobTime {
    /// Wall seconds from the job's start to its end.
    pub wall_s: f64,
    /// CPU seconds of the worker thread over the job (user + system), where
    /// the OS reports them (`/proc/thread-self/stat`; 10 ms resolution).
    /// PEs run as fibers on the thread that launches them, so on that
    /// carrier this is the job's whole simulation cost.
    pub cpu_s: Option<f64>,
}

impl std::fmt::Display for JobTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} s wall", self.wall_s)?;
        match self.cpu_s {
            Some(cpu) => write!(f, ", {cpu:.2} s cpu"),
            None => write!(f, ", cpu n/a"),
        }
    }
}

/// User + system CPU seconds of the calling thread so far, if the OS says.
fn thread_cpu_s() -> Option<f64> {
    // Clock ticks per second of /proc's time fields (USER_HZ), 100 on Linux.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Fields 14 and 15 (utime, stime) count from field 3, which follows the
    // parenthesised command name (itself free to hold spaces).
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let mut ticks = || fields.next()?.parse::<u64>().ok();
    Some((ticks()? + ticks()?) as f64 / TICKS_PER_S)
}

/// Run `job`, timing it on the current thread.
fn timed<T>(job: impl FnOnce() -> T) -> (T, JobTime) {
    let (start, cpu_start) = (std::time::Instant::now(), thread_cpu_s());
    let out = job();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_start.zip(thread_cpu_s()).map(|(a, b)| b - a);
    (out, JobTime { wall_s, cpu_s })
}

/// Run figure generators sharded across `workers` threads, returning the
/// results in the original job order (emission stays serial and
/// deterministic at the caller), each with the host time its job took.
/// Work-stealing by atomic index: long jobs (the scaling figures) don't
/// serialize the short ones behind them.
pub fn run_figure_jobs(
    jobs: Vec<FigureJob>,
    workers: usize,
) -> Vec<(&'static str, pgas_microbench::Figure, JobTime)> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let slots: Vec<Mutex<Option<(pgas_microbench::Figure, JobTime)>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = workers.max(1).min(jobs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((_, job)) = jobs.get(i) else { break };
                *slots[i].lock().unwrap() = Some(timed(job));
            });
        }
    });
    jobs.iter()
        .zip(slots)
        .map(|((name, _), slot)| {
            let (fig, time) = slot.into_inner().unwrap().expect("job ran");
            (*name, fig, time)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_microbench::Figure;

    fn trivial_job(name: &'static str) -> FigureJob {
        (name, Box::new(move || Figure::new(name, name)))
    }

    #[test]
    fn sharded_jobs_return_in_original_order() {
        for workers in [1, 2, 4, 9] {
            let jobs: Vec<FigureJob> =
                ["a", "b", "c", "d", "e", "f", "g"].into_iter().map(trivial_job).collect();
            let done = run_figure_jobs(jobs, workers);
            let names: Vec<&str> = done.iter().map(|(n, ..)| *n).collect();
            assert_eq!(names, ["a", "b", "c", "d", "e", "f", "g"], "workers={workers}");
        }
    }

    #[test]
    fn each_job_reports_its_own_host_time() {
        // Two workers: the sleeper and the trivial job run side by side, so
        // a time taken at the end of the sweep would give both the same.
        let sleeper: FigureJob = (
            "sleeper",
            Box::new(|| {
                std::thread::sleep(std::time::Duration::from_millis(300));
                Figure::new("sleeper", "sleeper")
            }),
        );
        let done = run_figure_jobs(vec![sleeper, trivial_job("trivial")], 2);
        let (slept, trivial) = (done[0].2, done[1].2);
        assert!(slept.wall_s >= 0.3, "{slept}");
        assert!(trivial.wall_s < 0.1, "{trivial}");
        if let (Some(slept_cpu), Some(_)) = (slept.cpu_s, trivial.cpu_s) {
            assert!(slept_cpu < 0.1, "a sleeping thread burns no CPU: {slept}");
        }
    }

    #[test]
    fn unparsable_counts_warn_and_fall_back() {
        let parse = |raw: Option<&str>| {
            let mut warned = None;
            let n =
                positive_var("REPRO_MAX_IMAGES", |_| raw.map(String::from), |w| warned = Some(w));
            (n, warned)
        };
        assert_eq!(parse(None), (None, None));
        assert_eq!(parse(Some("64")), (Some(64), None));
        for bad in ["2k", "0", "-1", ""] {
            assert_eq!(
                parse(Some(bad)),
                (
                    None,
                    Some(format!(
                        "warning: ignoring REPRO_MAX_IMAGES={bad:?} (expected a positive integer)"
                    ))
                )
            );
        }
    }

    #[test]
    fn job_count_from_env_has_a_floor() {
        // Whatever the environment says, the default must be positive and a
        // parse failure must fall back to it.
        assert!(figure_jobs_from_env(3) >= 1);
    }
}
