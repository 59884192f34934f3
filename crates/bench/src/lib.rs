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

/// Read the quick-mode switch from the environment.
pub fn quick_from_env() -> bool {
    std::env::var("REPRO_QUICK").map(|v| v != "0").unwrap_or(false)
}

/// Maximum image count for the scaling figures (8/9/10), overridable with
/// `REPRO_MAX_IMAGES`.
pub fn max_images_from_env(default: usize) -> usize {
    std::env::var("REPRO_MAX_IMAGES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// A deferred figure job (name, generator), runnable on a worker thread.
pub type FigureJob = (&'static str, Box<dyn Fn() -> pgas_microbench::Figure + Send + Sync>);

/// Worker-thread count for [`run_figure_jobs`], overridable with
/// `REPRO_JOBS`. Each figure generator already launches one OS thread per
/// simulated PE, so the default stays modest.
pub fn figure_jobs_from_env(default: usize) -> usize {
    std::env::var("REPRO_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Run figure generators sharded across `workers` threads, returning the
/// results in the original job order (emission stays serial and
/// deterministic at the caller). Work-stealing by atomic index: long jobs
/// (the scaling figures) don't serialize the short ones behind them.
pub fn run_figure_jobs(
    jobs: Vec<FigureJob>,
    workers: usize,
) -> Vec<(&'static str, pgas_microbench::Figure)> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let slots: Vec<Mutex<Option<pgas_microbench::Figure>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = workers.max(1).min(jobs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((_, job)) = jobs.get(i) else { break };
                *slots[i].lock().unwrap() = Some(job());
            });
        }
    });
    jobs.iter()
        .zip(slots)
        .map(|((name, _), slot)| (*name, slot.into_inner().unwrap().expect("job ran")))
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
            let names: Vec<&str> = done.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, ["a", "b", "c", "d", "e", "f", "g"], "workers={workers}");
        }
    }

    #[test]
    fn job_count_from_env_has_a_floor() {
        // Whatever the environment says, the default must be positive and a
        // parse failure must fall back to it.
        assert!(figure_jobs_from_env(3) >= 1);
    }
}
