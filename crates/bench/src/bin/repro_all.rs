//! Regenerate every table and figure of the paper in one run and write a
//! combined report to `results/`, plus the per-platform benchmark baselines
//! (`results/BENCH_<platform>.json`) that `bench regress` compares against.
//!
//! ```bash
//! cargo run --release -p repro-bench --bin repro_all            # full
//! REPRO_QUICK=1 cargo run --release -p repro-bench --bin repro_all  # smoke
//! ```
//!
//! The baselines come from the figures' *probes*, which ignore quick mode —
//! a `REPRO_QUICK=1` run emits the same BENCH files as a full run.

#![forbid(unsafe_code)]

use repro_bench::baseline::BenchRecord;
use repro_bench::FigureJob;

fn main() {
    let quick = repro_bench::quick_from_env();
    let max = repro_bench::max_images_from_env(if quick { 32 } else { 256 });
    let himeno_max = repro_bench::max_images_from_env(if quick { 16 } else { 127 });
    let workers = repro_bench::figure_jobs_from_env(3);
    let dir = pgas_microbench::report::results_dir();
    let t0 = std::time::Instant::now();

    println!("# Tables\n");
    println!("## Table I\n\n{}", repro_bench::render_table1());
    println!("## Table II\n\n{}", repro_bench::render_table2());
    println!("## Table III\n\n{}", repro_bench::render_table3());

    // REPRO_ONLY=fig3,dht_tput re-emits just those figures (and merges only
    // their records into the committed baselines) — for targeted re-records
    // after a change that intentionally moves one figure.
    let only: Option<Vec<String>> = std::env::var("REPRO_ONLY")
        .ok()
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect());

    let mut jobs: Vec<FigureJob> = vec![
        ("fig2", Box::new(move || repro_bench::fig2_put_latency(quick))),
        ("fig3", Box::new(move || repro_bench::fig3_put_bandwidth(quick))),
        ("fig6", Box::new(move || repro_bench::fig6_xc30_caf(quick))),
        ("fig7", Box::new(move || repro_bench::fig7_stampede_caf(quick))),
        ("fig8", Box::new(move || repro_bench::fig8_locks(quick, max))),
        ("fig9", Box::new(move || repro_bench::fig9_dht(quick, max))),
        ("dht_tput", Box::new(move || repro_bench::dht_throughput(quick, max.min(64)))),
        ("fig10", Box::new(move || repro_bench::fig10_himeno(quick, himeno_max))),
        ("churn", Box::new(move || repro_bench::availability_churn(quick))),
        ("serving_slo", Box::new(move || repro_bench::serving_slo(quick))),
        ("abl1", Box::new(move || repro_bench::abl1_base_dim(quick))),
        ("abl2", Box::new(move || repro_bench::abl2_lock_algorithms(quick, max.min(64)))),
        ("ext1", Box::new(move || repro_bench::ext1_shmem_ptr_fastpath(quick))),
        ("supp", Box::new(move || repro_bench::supp_pt2pt(quick))),
    ];
    if let Some(only) = &only {
        jobs.retain(|(name, _)| only.iter().any(|o| o == name));
        if jobs.is_empty() {
            eprintln!("[repro_all] REPRO_ONLY matched no figures");
            std::process::exit(2);
        }
    }
    // Generators run sharded across worker threads (REPRO_JOBS, default 3);
    // emission stays serial and in job order so results/ is deterministic.
    eprintln!("[repro_all] sharding {} figures across {workers} workers", jobs.len());
    let mut records: Vec<BenchRecord> = if only.is_some() {
        repro_bench::baseline::load_baselines(&dir).unwrap_or_default()
    } else {
        Vec::new()
    };
    for (name, fig, took) in repro_bench::run_figure_jobs(jobs, workers) {
        fig.emit();
        if let Some(bench) = &fig.bench {
            match BenchRecord::from_json(bench) {
                Ok(r) => {
                    records.retain(|old| old.figure != r.figure);
                    records.push(r);
                }
                Err(e) => eprintln!("[repro_all] {name}: bad bench record: {e}"),
            }
        }
        eprintln!("[repro_all] {name} took {took}");
    }
    match repro_bench::baseline::write_baselines(&dir, &records) {
        Ok(paths) => {
            for p in paths {
                eprintln!("[repro_all] baseline written: {}", p.display());
            }
        }
        Err(e) => eprintln!("[repro_all] baseline write failed: {e}"),
    }
    eprintln!("[repro_all] total wall time {:?}", t0.elapsed());
}
