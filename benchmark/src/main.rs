//! The repository's benchmark: four workloads against the live tier
//! (`crates/pubsub`) over loopback TCP, ten end-to-end metrics from an
//! untraced run and forty-six per-layer metrics from a traced one. See
//! `benchmark/README.md` for every definition and `BENCHMARK.json` for the
//! contract later changes are judged by.
//!
//! ```text
//! dynamoth-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! dynamoth-benchmark --all --seed <n> [--quick] [--repeat <N>]
//! dynamoth-benchmark trace-summary <benchmark/out/trace-<workload>.json>
//! ```

mod control;
mod cores;
mod drain;
mod gen;
mod json;
mod micro;
mod procfs;
mod raw;
mod run;
mod sched;
mod shape;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::{Command, ExitCode};

use json::Json;
use run::{Outcome, RunConfig};
use trace::Metric;
use workload::WORKLOAD_NAMES;

/// Measured seconds of a run when `--seconds` is not given; what
/// `BENCHMARK.json` passes.
const DEFAULT_SECONDS: u64 = 24;
/// Three rounds of one second per phase.
const QUICK_SECONDS: u64 = 9;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    /// `--trace`: `None` when not given (an untraced run; both with `--all`).
    traced: Option<bool>,
    all: bool,
    repeat: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dynamoth-benchmark --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]\n\
         \x20      dynamoth-benchmark --all --seed <n> [--seconds <s> | --quick] [--repeat <N>]\n\
         \x20      dynamoth-benchmark trace-summary <trace file>",
        WORKLOAD_NAMES.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: None,
        all: false,
        repeat: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(it.next()?.clone()),
            "--seed" => args.seed = it.next()?.parse().ok()?,
            "--seconds" => {
                args.seconds = it.next()?.parse().ok().filter(|s| (1..=60).contains(s))?
            }
            "--trace" => {
                args.traced = match it.next()?.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => return None,
                }
            }
            "--all" => args.all = true,
            "--quick" => args.seconds = QUICK_SECONDS,
            "--repeat" => args.repeat = it.next()?.parse().ok().filter(|n| *n >= 1)?,
            _ => return None,
        }
    }
    (args.all != args.workload.is_some()).then_some(args)
}

fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_owned(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let mut line = String::new();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .write(&mut line);
    line
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<36} {:>16.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn run_one(args: &Args, name: &str) -> ExitCode {
    let Some(workload) = workload::workload(name) else {
        eprintln!("unknown workload `{name}`");
        return usage();
    };
    let why = workload.why;
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced.unwrap_or(false),
    };
    let outcome = match run::run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {name} seed={} seconds={} trace={} cores={} io_loops=1 (loopback; more loops not measurable on this host)",
        args.seed,
        args.seconds,
        u8::from(cfg.traced),
        cores::available(),
    );
    println!("# {why}");
    if let Some(trace) = &outcome.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        match run::write_trace(trace, &dir) {
            Ok(path) => println!("# trace: {} spans -> {}", trace.spans.len(), path.display()),
            Err(e) => {
                eprintln!("{name}: writing the trace: {e}");
                return ExitCode::FAILURE;
            }
        }
        print_layer_table(trace);
    } else {
        print_metrics(&outcome.metrics);
    }
    for note in &outcome.notes {
        eprintln!("{name}: {note}");
    }
    println!("{}", result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every per-layer metric over `r1` and `r2` side by side; the result line
/// carries the `r2` column.
fn print_layer_table(trace: &trace::Trace) {
    let (Some(r1), Some(r2)) = (trace::summarize(trace, "r1"), trace::summarize(trace, "r2"))
    else {
        return;
    };
    println!(
        "{:<36} {:>16} {:>16} {:<6} n(r2)",
        "# per-layer", "r1", "r2", "unit"
    );
    for (a, b) in r1.iter().zip(&r2) {
        println!(
            "{:<36} {:>16.4} {:>16.4} {:<6} n={}",
            b.name, a.value, b.value, b.unit, b.samples
        );
    }
}

fn trace_summary(path: &str) -> ExitCode {
    let trace = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| trace::Trace::from_json(&text))
    {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed={} spans={} snapshots={}",
        trace.workload,
        trace.seed,
        trace.spans.len(),
        trace.snapshots.len()
    );
    print_layer_table(&trace);
    ExitCode::SUCCESS
}

/// One child run: this executable again, one workload, traced or not.
/// Returns its result line parsed, and whether it exited 0.
fn child(args: &Args, name: &str, seed: u64, traced: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    Ok((result, output.status.success()))
}

/// `--all`: every workload in a process of its own, untraced then traced
/// (or only the one `--trace` names); with `--repeat N`, N such sets on
/// seeds `seed..seed+N`, then the spread of every end-to-end metric.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    // (workload, metric) -> one value per repeat, in first-seen order.
    let mut table: Vec<((String, String), Vec<f64>)> = Vec::new();
    for rep in 0..args.repeat {
        let seed = args.seed + rep as u64;
        for name in WORKLOAD_NAMES {
            for traced in [false, true] {
                if args.traced.is_some_and(|only| only != traced) {
                    continue;
                }
                match child(args, name, seed, traced) {
                    Ok((result, success)) => {
                        ok &= success && result.get("correct") == Some(&Json::Bool(true));
                        let metrics = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
                        for (metric, v) in metrics.iter().filter(|_| !traced) {
                            let key = (name.to_owned(), metric.clone());
                            let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                            match table.iter_mut().find(|(k, _)| *k == key) {
                                Some((_, values)) => values.push(value),
                                None => table.push((key, vec![value])),
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ok = false;
                    }
                }
            }
        }
    }
    if args.repeat > 1 {
        println!(
            "\n| workload | metric | median | q1 | q3 | (q3-q1)/median | (max-min)/median |\n|---|---|---|---|---|---|---|"
        );
        for ((name, metric), values) in &table {
            let Some([q1, med, q3]) = stats::quartiles(values) else {
                continue;
            };
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            println!(
                "| {name} | {metric} | {med:.4} | {q1:.4} | {q3:.4} | {:.3} | {:.3} |",
                (q3 - q1) / med,
                (max - min) / med
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one run failed its correctness check");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, path] = argv.as_slice() {
        if cmd == "trace-summary" {
            return trace_summary(path);
        }
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    match &args.workload {
        Some(name) => run_one(&args, name),
        None => run_all(&args),
    }
}
