//! `bench` — the benchmark regression CLI.
//!
//! ```bash
//! cargo run --release -p repro-bench --bin bench -- regress            # gate
//! cargo run --release -p repro-bench --bin bench -- regress --tol 0.05 fig3_put_bandwidth
//! cargo run --release -p repro-bench --bin bench -- record             # re-record baselines
//! cargo run --release -p repro-bench --bin bench -- diff fig3_put_bandwidth
//! ```
//!
//! `regress` re-runs each figure's probe (seconds — probes ignore quick mode
//! and sweep sizes) and compares its [`RunDigest`] against the committed
//! `results/BENCH_<platform>.json` baseline. The simulator is deterministic
//! in virtual time, so an unchanged tree diffs to exactly zero; any delta
//! beyond `--tol` (default 0, i.e. bit-exact) fails with the makespan change
//! attributed to critical-path categories, PEs and metric series.
//!
//! `UPDATE_BASELINE=1` (or `--update`) re-records instead of failing —
//! the path to take after an *intentional* performance change.
//!
//! `diff` compares a probe run under the *current* environment (fault plans,
//! sanitizer modes, …) against the committed baseline without gating — see
//! the EXPERIMENTS.md walkthrough of `PGAS_FAULT_PLAN=drop1`.

#![forbid(unsafe_code)]

use pgas_machine::critdiff::CritDiff;
use pgas_machine::ResolvedKnobs;
use pgas_microbench::report::results_dir;
use repro_bench::baseline::{self, BenchRecord};
use repro_bench::probes::{probe_for, FIGURE_IDS};

fn usage() -> ! {
    eprintln!(
        "usage: bench <command> [options]\n\
         \n\
         commands:\n\
         \x20 regress [--tol FRAC] [--update] [FIGURE...]   gate probe digests against baselines\n\
         \x20 record  [FIGURE...]                           (re-)record baselines for figures\n\
         \x20 diff    FIGURE                                diff current-env probe vs baseline\n\
         \n\
         FIGURE defaults to all: {}\n\
         UPDATE_BASELINE=1 is equivalent to --update.\n\
         Baselines live in REPRO_RESULTS_DIR (default: workspace results/).",
        FIGURE_IDS.join(", ")
    );
    std::process::exit(2)
}

fn resolve_figures(named: &[String]) -> Vec<&'static str> {
    if named.is_empty() {
        return FIGURE_IDS.to_vec();
    }
    named
        .iter()
        .map(|n| {
            FIGURE_IDS.iter().copied().find(|id| id == n).unwrap_or_else(|| {
                eprintln!("unknown figure `{n}` (known: {})", FIGURE_IDS.join(", "));
                std::process::exit(2)
            })
        })
        .collect()
}

/// Probe the given figures and return their fresh records, each with the
/// knobs its probe ran under (for failure reports; baselines do not carry
/// them).
fn probe_records(figures: &[&'static str]) -> Vec<(BenchRecord, ResolvedKnobs)> {
    figures
        .iter()
        .map(|&id| {
            let probe = probe_for(id).expect("figure ids come from FIGURE_IDS");
            (BenchRecord::from_probe(id, &probe), probe.knobs)
        })
        .collect()
}

/// Merge fresh records into the committed baselines (replacing same-figure
/// entries, keeping the rest) and rewrite the BENCH files.
fn record(figures: &[&'static str]) {
    let dir = results_dir();
    let mut records = baseline::load_baselines(&dir).unwrap_or_default();
    for (fresh, _) in probe_records(figures) {
        records.retain(|r| r.figure != fresh.figure);
        records.push(fresh);
    }
    match baseline::write_baselines(&dir, &records) {
        Ok(paths) => {
            for p in paths {
                println!("baseline written: {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("baseline write failed: {e}");
            std::process::exit(1);
        }
    }
}

fn regress(tol: f64, update: bool, figures: &[&'static str]) {
    if update {
        record(figures);
        return;
    }
    let dir = results_dir();
    let committed = match baseline::load_baselines(&dir) {
        Ok(r) if !r.is_empty() => r,
        Ok(_) => {
            eprintln!(
                "no BENCH_*.json baselines under {} — run `bench record` or `repro_all` first",
                dir.display()
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("cannot load baselines: {e}");
            std::process::exit(2);
        }
    };
    let mut failures = 0usize;
    for (fresh, knobs) in probe_records(figures) {
        let Some(base) = baseline::find(&committed, &fresh.figure) else {
            eprintln!("{}: no committed baseline (run with --update to add)", fresh.figure);
            failures += 1;
            continue;
        };
        let diff = CritDiff::between(&base.digest, &fresh.digest);
        let regs = diff.regressions(tol);
        if regs.is_empty() {
            println!(
                "{}: ok ({} ns makespan, delta {:+} ns within tolerance)",
                fresh.figure,
                fresh.digest.makespan_ns,
                diff.makespan_delta_ns()
            );
        } else {
            failures += 1;
            println!("{}: REGRESSED", fresh.figure);
            println!("  knobs: {knobs}");
            for r in &regs {
                println!("  {r}");
            }
            print!("{}", indent(&diff.render()));
        }
    }
    if failures > 0 {
        eprintln!(
            "{failures} figure(s) regressed beyond tolerance {tol} \
             (set UPDATE_BASELINE=1 to re-record after an intentional change)"
        );
        std::process::exit(1);
    }
}

fn diff_one(figure: &'static str) {
    let dir = results_dir();
    let committed = match baseline::load_baselines(&dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot load baselines: {e}");
            std::process::exit(2);
        }
    };
    let Some(base) = baseline::find(&committed, figure) else {
        eprintln!("{figure}: no committed baseline under {}", dir.display());
        std::process::exit(2);
    };
    let probe = probe_for(figure).expect("figure ids come from FIGURE_IDS");
    let diff = CritDiff::between(&base.digest, &probe.digest());
    println!("# {figure}: baseline vs current environment\n");
    print!("{}", diff.render());
}

fn indent(text: &str) -> String {
    text.lines().map(|l| format!("  {l}\n")).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "regress" => {
            let mut tol = 0.0f64;
            let mut update = std::env::var("UPDATE_BASELINE").map(|v| v != "0").unwrap_or(false);
            let mut figures = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--tol" => {
                        tol = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
                    }
                    "--update" => update = true,
                    _ if a.starts_with('-') => usage(),
                    _ => figures.push(a.clone()),
                }
            }
            regress(tol, update, &resolve_figures(&figures));
        }
        "record" => {
            let figures: Vec<String> = args[1..].to_vec();
            if figures.iter().any(|a| a.starts_with('-')) {
                usage();
            }
            record(&resolve_figures(&figures));
        }
        "diff" => {
            let [figure] = &args[1..] else { usage() };
            let [figure] = resolve_figures(std::slice::from_ref(figure))[..] else {
                unreachable!()
            };
            diff_one(figure);
        }
        _ => usage(),
    }
}
