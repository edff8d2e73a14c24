//! The repo benchmark (see README.md beside this package).
//!
//! ```text
//! dbf-benchmark --workload NAME --seed N --seconds N --trace 0|1   one run
//! dbf-benchmark [--reps R] [--sets K] [--seed N] [--seconds N]     the suite
//! ```
//!
//! One run prints each metric by name with its unit, then — as the last
//! line — one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.  Both forms take `--quick` (smoke sizes) and `--out DIR`
//! (where traces, the report and checkpoint stores go).

mod diff;
mod fabric;
mod layers;
mod metrics;
mod reference;
mod serve;
mod spans;
mod stage;
mod stats;
mod suite;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// How long one run measures unless told otherwise: `run_seconds` of
/// `BENCHMARK.json`.
const RUN_SECONDS: u64 = 25;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    traced: bool,
    quick: bool,
    out: PathBuf,
    reps: usize,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
        reps: 5,
        sets: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            a.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value),
            "--seed" => a.seed = number()?,
            "--seconds" => a.seconds = Some(number()?.clamp(1, 150)),
            "--trace" => a.traced = number()? != 0,
            "--out" => a.out = PathBuf::from(value),
            "--reps" => a.reps = number()?.max(1) as usize,
            "--sets" => a.sets = number()?.max(1) as usize,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn one_run(args: &Args, name: &str, seconds: u64) -> Result<bool, String> {
    let all = workload::workloads(args.quick);
    let w = all.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })?;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    println!(
        "# dbf-benchmark workload={name} seed={} seconds={seconds} trace={} tier={}",
        args.seed,
        u8::from(args.traced),
        if args.quick { "quick" } else { "measured" }
    );
    let out = if args.traced {
        let trace = args.out.join(format!("trace-{name}.json"));
        workload::run_traced(w, args.seed, &args.out, &trace)
    } else {
        workload::run(w, args.seed, seconds as f64, &args.out)
    };
    for (metric, unit) in metrics::expected(args.traced) {
        if let Some(x) = out.values.get(metric) {
            println!("metric {metric} {x} {unit}");
        }
        if let Some(xs) = out.samples.get(metric) {
            let xs: Vec<String> = xs.iter().map(f64::to_string).collect();
            println!("samples {metric} {}", xs.join(" "));
        }
    }
    for (k, v) in &out.counts {
        println!("count {k} {v}");
    }
    for (metric, segments, longest_ms) in &out.segments {
        println!("info segments.{metric} {segments} longest_ms {longest_ms}");
    }
    if let Some((sweep_ms, factor)) = out.reference {
        println!("info reference.fastest_sweep_ms {sweep_ms}");
        println!("info reference.factor {factor}");
    }
    println!("info harness.wall_s {}", out.wall_s);
    println!("info harness.cpu_s {}", out.cpu_s);
    println!("info harness.wall_over_cpu {}", out.wall_s / out.cpu_s);
    let line = metrics::result_line(
        args.traced,
        &out.values,
        out.checks.attempted,
        out.checks.failed,
    )?;
    println!("{line}");
    Ok(out.checks.failed == 0)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match &args.workload {
        Some(name) => one_run(
            &args,
            name,
            args.seconds
                .unwrap_or(if args.quick { 2 } else { RUN_SECONDS }),
        ),
        None => Ok(suite::run(
            &suite::SuiteOpts {
                seed: args.seed,
                seconds: args
                    .seconds
                    .unwrap_or(if args.quick { 1 } else { RUN_SECONDS }),
                quick: args.quick,
                reps: args.reps,
                sets: args.sets,
            },
            &args.out,
        )),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dbf-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
