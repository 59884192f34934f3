//! Two-clock benchmark of the five-layer stack: host cost and virtual time,
//! end to end and per layer. See `benchmark/README.md`.

mod engine;
mod harness;
mod ladder;
mod measure;
mod probes;
mod report;
mod trace;
mod workloads;

use harness::Options;
use pgas_machine::json::{self, Json};
use report::WorkloadResult;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use workloads::Workload;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run of one workload; the last line printed is a JSON object with
      `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
      with --trace 0, per-layer metrics with --trace 1)
  benchmark run [--seed <n>] [--seconds <s>] [--quick]
      all four workloads, untraced then traced: prints every metric by
      name with its unit and writes benchmark/out/results.json
  benchmark compare <A.json> <B.json>
      verdict per (workload, end-to-end metric); exits non-zero on `worse`
  benchmark manifest
      print BENCHMARK.json as the metric and workload tables declare it
workloads: ladder_pair dht_locked serve_mixed himeno_halo";

/// `--flag value` pairs and bare `--switch`es after the subcommand.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg.strip_prefix("--").ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        let value = if key == "quick" {
            "1".to_string()
        } else {
            it.next().ok_or_else(|| format!("`--{key}` needs a value"))?.clone()
        };
        out.insert(key.to_string(), value);
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("`--{key} {v}` is not a valid value")),
        None => default.ok_or_else(|| format!("`--{key}` is required")),
    }
}

fn workload(flags: &BTreeMap<String, String>) -> Result<Workload, String> {
    let name: String = parsed(flags, "workload", None)?;
    Workload::from_name(&name).ok_or_else(|| format!("no workload `{name}`"))
}

fn options(
    flags: &BTreeMap<String, String>,
    default_seconds: Option<f64>,
) -> Result<Options, String> {
    let opts = Options {
        seed: parsed(flags, "seed", default_seconds.map(|_| 1))?,
        seconds: parsed(flags, "seconds", default_seconds)?,
        quick: flags.contains_key("quick"),
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err(format!("`--seconds {}` is outside (0, 60]", opts.seconds));
    }
    Ok(opts)
}

/// One driver run: measure, print the metrics for a reader, then the
/// contract's JSON object as the last line.
fn driver(flags: &BTreeMap<String, String>) -> Result<bool, String> {
    let w = workload(flags)?;
    let opts = options(flags, None)?;
    let traced = match parsed::<u8>(flags, "trace", None)? {
        0 => false,
        1 => true,
        other => return Err(format!("`--trace {other}` is neither 0 nor 1")),
    };
    let result = if traced { harness::traced(w, &opts)? } else { harness::end_to_end(w, &opts)? };
    let line = result.driver_line(traced)?;
    print!("{}", report::render(&[(w, result.clone())]));
    println!("{}", report::compact(&line));
    Ok(result.correct())
}

fn command_line(program: &str, args: &[&str]) -> String {
    // The recorded host: a missing tool (a checkout without git) is a
    // fact about the host, not an error.
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn run(flags: &BTreeMap<String, String>) -> Result<bool, String> {
    let opts = options(flags, Some(report::RUN_SECONDS as f64))?;
    let mut results: Vec<(Workload, WorkloadResult)> = Vec::new();
    let mut overheads = Vec::new();
    // The layer metrics do not depend on the workload: measure them once.
    let mut layer_tracer = trace::Tracer::new("layers");
    let layers = harness::layers(&opts, &mut layer_tracer)?;
    harness::write_trace("layers", &layer_tracer)?;
    for w in Workload::ALL {
        eprintln!("[benchmark] {}: untraced run", w.name());
        let mut result = harness::end_to_end(w, &opts)?;
        eprintln!("[benchmark] {}: traced run", w.name());
        let mut tracer = trace::Tracer::new(w.name());
        harness::merge(&mut result, harness::counters(w, &opts, &mut tracer)?);
        harness::write_trace(w.name(), &tracer)?;
        harness::merge(&mut result, layers.clone());
        overheads
            .push((w.name().to_string(), Json::float(result.per_layer["trace_overhead_share"])));
        results.push((w, result));
    }
    print!("{}", report::render(&results));

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = vec![
        ("nproc".to_string(), Json::uint(nproc)),
        ("rustc".to_string(), Json::str(command_line("rustc", &["--version"]))),
        ("git_rev".to_string(), Json::str(command_line("git", &["rev-parse", "HEAD"]))),
        ("seed".to_string(), Json::int(opts.seed as i64)),
        ("seconds".to_string(), Json::float(opts.seconds)),
        ("quick".to_string(), Json::Bool(opts.quick)),
        ("trace_overhead_share".to_string(), Json::Object(overheads)),
    ];
    let path = harness::out_dir()?.join("results.json");
    std::fs::write(&path, report::results_json(env, &results).pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(results.iter().all(|(_, r)| r.correct()))
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else { return Err("compare takes two results files".into()) };
    let read = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (report, bad) = report::compare(&read(a)?, &read(b)?)?;
    print!("{report}");
    Ok(!bad)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => run(&flags(&args[1..])?),
        Some("compare") => compare(&args[1..]),
        Some("manifest") => {
            println!("{}", report::manifest().pretty());
            Ok(true)
        }
        Some("spin") => {
            engine::spin();
            Ok(true)
        }
        Some("child") => {
            let f = flags(&args[1..])?;
            harness::child_main(
                workload(&f)?,
                parsed(&f, "seed", None)?,
                parsed(&f, "size", None)?,
                parsed(&f, "reps", None)?,
            );
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => driver(&flags(args)?),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    engine::scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let measures =
        !matches!(args.first().map(String::as_str), Some("compare" | "manifest" | "spin") | None);
    let outcome = match engine::refuse_debug_build() {
        Err(e) if measures => Err(e),
        _ => dispatch(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: an output failed its check");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
