//! The `scenarios` command-line driver.
//!
//! ```text
//! scenarios list
//! scenarios show <builtin>
//! scenarios run <builtin|file.toml> [--engines sync,delta,sim,threaded]
//!                                   [--seeds 1,2,3] [--json] [--out FILE]
//!                                   [--trace FILE.jsonl] [--metrics]
//! scenarios profile <builtin|file.toml> [--engines LIST] [--seeds LIST]
//!                                       [--threads N]
//! scenarios run-all [--json] [--out FILE] [--check-bounds]
//! scenarios bounds <builtin|file.toml> [--json] [--out FILE]
//! scenarios bench [--out BENCH_scenarios.json]
//! scenarios list-sweeps
//! scenarios show-sweep <builtin>
//! scenarios sweep <builtin|file.toml> [--jobs N] [--json] [--timing]
//!                                     [--point K] [--replicate R] [--out FILE]
//! scenarios sweep-bench [--jobs N] [--out BENCH_sweeps.json]
//! scenarios fuzz [--cases N] [--seed S] [--case K] [--jobs J]
//!                [--corpus DIR] [--json] [--out FILE]
//! scenarios replay <dir>
//! scenarios gen-trace [--out FILE] [--nodes N] [--events N] [--seed S]
//!                     [--topology ring] [--algebra hopcount] [--queries PERMILLE]
//!                     [--weights PERMILLE]
//! scenarios scale-run [--nodes N] [--m M] [--seed S] [--algebra hopcount]
//!                     [--block W] [--json] [--out FILE]
//! scenarios serve --replay FILE [--threads N] [--batch N] [--json]
//!                 [--out BENCH_serve.json] [--trace FILE.jsonl]
//!                 [--deadline-ms auto|N|0] [--checkpoint DIR]
//!                 [--checkpoint-every N] [--recover DIR]
//!                 [--faults PLAN.toml] [--crash-at OFFSET]
//! scenarios chaos --replay FILE [--faults PLAN.toml] [--threads N]
//!                 [--batch N] [--checkpoint DIR] [--json] [--out FILE]
//! ```
//!
//! `run` and `sweep` exit non-zero when the differential verdict does not
//! match the expectation, so the binary doubles as an integration gate; on
//! failure both print the exact reproduction command.

use dbf_matrix::default_jobs;
use dbf_scenario::bench::{bench_json, bench_sweeps_json, BenchRecord};
use dbf_scenario::fuzz::replay_corpus;
use dbf_scenario::prelude::*;
use dbf_scenario::telemetry::{AggregatingSink, Tee, TraceSink};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    let engine_names = dbf_scenario::engine::descriptors()
        .iter()
        .map(|d| d.name)
        .collect::<Vec<_>>()
        .join(",");
    let fault_kinds = dbf_scenario::chaos::fault_kind_names()
        .collect::<Vec<_>>()
        .join(", ");
    eprintln!(
        "usage: scenarios <command> [options]\n\
         \n\
         commands:\n\
         \x20 list                       list built-in scenarios\n\
         \x20 list-engines               list registered execution engines\n\
         \x20 show <builtin>             print a built-in scenario as TOML\n\
         \x20 run <builtin|file.toml>    execute a scenario on its engines\n\
         \x20 profile <builtin|file.toml> execute a scenario and print the per-phase\n\
         \x20                            telemetry breakdown (wall times, band balance)\n\
         \x20 run-all                    execute every built-in scenario\n\
         \x20 bounds <builtin|file.toml> print the predicted per-phase convergence-bound\n\
         \x20                            table (the oracle the checker enforces)\n\
         \x20 bench                      run all builtins, write BENCH_scenarios.json\n\
         \x20 list-sweeps                list built-in parameter sweeps\n\
         \x20 show-sweep <builtin>       print a built-in sweep as TOML\n\
         \x20 sweep <builtin|file.toml>  expand and execute a parameter sweep\n\
         \x20 sweep-bench                run all built-in sweeps, write BENCH_sweeps.json\n\
         \x20 fuzz                       run random specs through the differential checker\n\
         \x20 replay <dir>               re-run every minimized corpus TOML in a directory\n\
         \x20 gen-trace                  write a seeded churn trace for the route server\n\
         \x20 scale-run                  converge one preferential-attachment fabric with\n\
         \x20                            the destination-blocked sigma engine (runs at\n\
         \x20                            sizes where the square state exceeds memory)\n\
         \x20 serve --replay FILE        replay a churn trace through the route server,\n\
         \x20                            coalescing changes into incremental reconvergences;\n\
         \x20                            optionally checkpointed, crash-recoverable, and\n\
         \x20                            deadline-bounded (stale answers while degraded)\n\
         \x20 chaos --replay FILE        run fault plans against the route server: inject\n\
         \x20                            the schedule, recover, and verify digest-identity\n\
         \x20                            plus measured<=bound (all built-in plans, or one\n\
         \x20                            --faults PLAN.toml)\n\
         \n\
         options:\n\
         \x20 --engines LIST   comma-separated subset of {engine_names}\n\
         \x20                  (run/run-all: engines an algebra does not support are skipped;\n\
         \x20                  run-all additionally skips the negative-control scenarios)\n\
         \x20 --seeds LIST     comma-separated seeds for the seeded engines\n\
         \x20 --json           print the full JSON report instead of a summary\n\
         \x20 --out FILE       also write the JSON report/benchmark to FILE\n\
         \x20 --jobs N         worker threads across runs for sweep/fuzz (default:\n\
         \x20                  hardware threads)\n\
         \x20 --threads N      worker threads within one run for the parallelizable\n\
         \x20                  engines (sync/incremental row sweeps; results are\n\
         \x20                  bit-identical for any value).  Default: hardware threads\n\
         \x20                  for run/run-all/bench, 1 for sweeps (which already\n\
         \x20                  parallelize across runs via --jobs)\n\
         \x20 --timing         include wall-clock stats in the sweep JSON\n\
         \x20 --point K        run only grid point K of a sweep\n\
         \x20 --replicate R    run only replicate R of a sweep\n\
         \x20 --trace FILE     run: write a schema-versioned JSONL event trace to FILE\n\
         \x20 --metrics        run: append the deterministic telemetry table to the\n\
         \x20                  summary (the JSON report always embeds a `metrics`\n\
         \x20                  section and a trailing non-deterministic `timing` one)\n\
         \x20 --check-bounds   run-all: additionally audit bound coverage — fail unless\n\
         \x20                  every positive scenario with a bounded-rounds engine\n\
         \x20                  carries predicted bounds and stays within them\n\
         \x20 --cases N        fuzz: how many random cases to run (default 100)\n\
         \x20 --seed S         fuzz: root seed of the case stream (default 1);\n\
         \x20                  gen-trace: seed of the generated event stream\n\
         \x20 --case K         fuzz: run only case K (reproduction mode)\n\
         \x20 --corpus DIR     fuzz: where minimized failures are written (default corpus)\n\
         \x20 --replay FILE    serve: the churn trace to replay\n\
         \x20 --batch N        serve: max change events coalesced into one\n\
         \x20                  reconvergence (default 64; results are identical for\n\
         \x20                  any value)\n\
         \x20 --nodes N        gen-trace: initial topology size (default 64);\n\
         \x20                  scale-run: fabric size (default 100000)\n\
         \x20 --events N       gen-trace: events to generate (default 100000)\n\
         \x20 --topology T     gen-trace: line|ring|star|complete (default ring)\n\
         \x20 --algebra A      gen-trace/scale-run: hopcount|shortest (default hopcount)\n\
         \x20 --queries P      gen-trace: queries per 1000 events (default 100)\n\
         \x20 --weights P      gen-trace: set_weight events per 1000 events (default 0;\n\
         \x20                  policy churn for the weighted algebras)\n\
         \x20 --deadline-ms D  serve: per-flush reconvergence deadline — auto (default:\n\
         \x20                  convergence bound x measured per-round cost), a fixed\n\
         \x20                  millisecond budget, or 0 to disable.  On overrun the\n\
         \x20                  server answers from the last stable table (stale: true)\n\
         \x20                  while reconvergence continues\n\
         \x20 --checkpoint DIR serve: arm a checkpoint + WAL store in DIR (snapshots of\n\
         \x20                  the converged table plus an append-only event log);\n\
         \x20                  chaos: base directory for the per-plan stores\n\
         \x20 --checkpoint-every N  serve: snapshot cadence in applied events (default 64)\n\
         \x20 --recover DIR    serve: restore the snapshot in DIR, replay the WAL tail,\n\
         \x20                  and continue the trace from the recorded offset\n\
         \x20 --faults FILE    serve/chaos: a TOML fault plan to inject (kinds:\n\
         \x20                  {fault_kinds})\n\
         \x20 --crash-at E     serve: crash the process just before event offset E\n\
         \x20                  (shorthand for a one-fault crash plan)\n\
         \x20 --m M            scale-run: as_graph attachment edges per node (default 2)\n\
         \x20 --block W        scale-run: destination-block width (default 1024;\n\
         \x20                  pure memory layout, the digest is identical for any W)"
    );
    ExitCode::from(2)
}

#[derive(Default)]
struct Options {
    engines: Option<Vec<EngineKind>>,
    seeds: Option<Vec<u64>>,
    json: bool,
    out: Option<String>,
    jobs: Option<usize>,
    threads: Option<usize>,
    timing: bool,
    point: Option<usize>,
    replicate: Option<usize>,
    cases: Option<usize>,
    seed: Option<u64>,
    case: Option<usize>,
    corpus: Option<String>,
    trace: Option<String>,
    metrics: bool,
    check_bounds: bool,
    replay: Option<String>,
    batch: Option<usize>,
    nodes: Option<usize>,
    events: Option<usize>,
    topology: Option<String>,
    algebra: Option<String>,
    queries: Option<u32>,
    m: Option<usize>,
    block: Option<usize>,
    weights: Option<u32>,
    deadline_ms: Option<String>,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    recover: Option<String>,
    faults: Option<String>,
    crash_at: Option<u64>,
}

/// The options `run-all` accepts: the scenario options plus the bound
/// audit.
const RUN_ALL_OPTS: &[&str] = &[
    "--engines",
    "--seeds",
    "--json",
    "--out",
    "--threads",
    "--check-bounds",
];
/// The options `bounds` accepts (a pure spec computation: no engine
/// options apply).
const BOUNDS_OPTS: &[&str] = &["--json", "--out"];
/// The options `run` accepts: the scenario options plus the telemetry
/// outputs.  `run-all` deliberately rejects `--trace` (one trace file per
/// run) and `--metrics`.
const RUN_OPTS: &[&str] = &[
    "--engines",
    "--seeds",
    "--json",
    "--out",
    "--threads",
    "--trace",
    "--metrics",
];
/// The options `profile` accepts.
const PROFILE_OPTS: &[&str] = &["--engines", "--seeds", "--threads"];
/// The options `sweep` accepts.
const SWEEP_OPTS: &[&str] = &[
    "--jobs",
    "--threads",
    "--json",
    "--timing",
    "--point",
    "--replicate",
    "--out",
];
/// The options the bench commands accept.
const BENCH_OPTS: &[&str] = &["--out", "--threads"];
const SWEEP_BENCH_OPTS: &[&str] = &["--jobs", "--threads", "--out"];
/// The options `fuzz` accepts.
const FUZZ_OPTS: &[&str] = &[
    "--cases", "--seed", "--case", "--jobs", "--corpus", "--json", "--out",
];
/// The options `replay` accepts.
const REPLAY_OPTS: &[&str] = &[];
/// The options `serve` accepts.
const SERVE_OPTS: &[&str] = &[
    "--replay",
    "--threads",
    "--batch",
    "--json",
    "--out",
    "--trace",
    "--deadline-ms",
    "--checkpoint",
    "--checkpoint-every",
    "--recover",
    "--faults",
    "--crash-at",
];
/// The options `chaos` accepts.
const CHAOS_OPTS: &[&str] = &[
    "--replay",
    "--threads",
    "--batch",
    "--json",
    "--out",
    "--faults",
    "--checkpoint",
];
/// The options `gen-trace` accepts.
const GEN_TRACE_OPTS: &[&str] = &[
    "--out",
    "--nodes",
    "--events",
    "--seed",
    "--topology",
    "--algebra",
    "--queries",
    "--weights",
];
/// The options `scale-run` accepts.
const SCALE_RUN_OPTS: &[&str] = &[
    "--nodes",
    "--m",
    "--seed",
    "--algebra",
    "--block",
    "--json",
    "--out",
];

/// The argument after `flag`, or the error naming what it should have been.
fn text<'a>(
    flag: &str,
    what: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs {what}"))
}

/// The argument after `flag`, parsed (a `String` field takes it verbatim).
fn value<'a, T>(
    flag: &str,
    what: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    text(flag, what, it)?
        .parse()
        .map_err(|e| format!("bad {flag}: {e}"))
}

/// Parse options, rejecting any flag the current command does not use —
/// a silently ignored `--seeds` on a sweep (which derives its own seeds)
/// would mislead far more than an error does.
fn parse_options(args: &[String], allowed: &[&str]) -> Result<Options, String> {
    let mut opts = Options::default();
    let it = &mut args.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") && !allowed.contains(&arg.as_str()) {
            return Err(format!(
                "option {arg} does not apply to this command (valid here: {})",
                allowed.join(", ")
            ));
        }
        match arg.as_str() {
            "--json" => opts.json = true,
            "--timing" => opts.timing = true,
            "--metrics" => opts.metrics = true,
            "--check-bounds" => opts.check_bounds = true,
            "--jobs" => opts.jobs = Some(value(arg, "a value", it)?),
            "--threads" => opts.threads = Some(value(arg, "a value", it)?),
            "--point" => opts.point = Some(value(arg, "a value", it)?),
            "--replicate" => opts.replicate = Some(value(arg, "a value", it)?),
            "--cases" => opts.cases = Some(value(arg, "a value", it)?),
            "--seed" => opts.seed = Some(value(arg, "a value", it)?),
            "--case" => opts.case = Some(value(arg, "a value", it)?),
            "--batch" => opts.batch = Some(value(arg, "a value", it)?),
            "--nodes" => opts.nodes = Some(value(arg, "a value", it)?),
            "--events" => opts.events = Some(value(arg, "a value", it)?),
            "--queries" => opts.queries = Some(value(arg, "a value", it)?),
            "--m" => opts.m = Some(value(arg, "a value", it)?),
            "--block" => opts.block = Some(value(arg, "a value", it)?),
            "--weights" => opts.weights = Some(value(arg, "a value", it)?),
            "--crash-at" => opts.crash_at = Some(value(arg, "an event offset", it)?),
            "--out" => opts.out = Some(value(arg, "a value", it)?),
            "--corpus" => opts.corpus = Some(value(arg, "a value", it)?),
            "--trace" => opts.trace = Some(value(arg, "a value", it)?),
            "--replay" => opts.replay = Some(value(arg, "a value", it)?),
            "--topology" => opts.topology = Some(value(arg, "a value", it)?),
            "--algebra" => opts.algebra = Some(value(arg, "a value", it)?),
            "--faults" => opts.faults = Some(value(arg, "a value", it)?),
            "--checkpoint" => opts.checkpoint = Some(value(arg, "a directory", it)?),
            "--recover" => opts.recover = Some(value(arg, "a directory", it)?),
            "--engines" => {
                let engines = text(arg, "a value", it)?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| EngineKind::parse(s.trim()).map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
                if engines.is_empty() {
                    return Err("--engines needs at least one engine".into());
                }
                opts.engines = Some(engines);
            }
            "--seeds" => {
                let seeds = text(arg, "a value", it)?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.trim()
                            .parse::<u64>()
                            .map_err(|e| format!("bad seed {s:?}: {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if seeds.is_empty() {
                    return Err("--seeds needs at least one seed".into());
                }
                opts.seeds = Some(seeds);
            }
            "--deadline-ms" => {
                let v = text(arg, "a value (auto|N|0)", it)?;
                if v != "auto" {
                    v.parse::<u64>()
                        .map_err(|e| format!("bad --deadline-ms {v:?} (auto|N|0): {e}"))?;
                }
                opts.deadline_ms = Some(v.clone());
            }
            "--checkpoint-every" => {
                let every: u64 = value(arg, "a value", it)?;
                if every == 0 {
                    return Err("--checkpoint-every must be >= 1".into());
                }
                opts.checkpoint_every = Some(every);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

fn load_scenario(name_or_path: &str) -> Result<Scenario, String> {
    if let Some(builtin) = builtins::by_name(name_or_path) {
        return Ok(builtin);
    }
    if name_or_path.ends_with(".toml") {
        let text = std::fs::read_to_string(name_or_path)
            .map_err(|e| format!("cannot read {name_or_path:?}: {e}"))?;
        return Scenario::from_toml_str(&text).map_err(|e| e.to_string());
    }
    Err(format!(
        "{name_or_path:?} is neither a built-in scenario nor a .toml file; \
         `scenarios list` shows the builtins"
    ))
}

fn apply_overrides(mut scenario: Scenario, opts: &Options) -> Scenario {
    if let Some(engines) = &opts.engines {
        // Keep only the engines that support this scenario's algebra
        // (protocol engines are algebra-gated): `run-all --engines
        // sync,rip,bgp` then exercises each engine exactly where it
        // applies.  Size recommendations are NOT enforced here — an
        // explicit `--engines` request outranks them.  If nothing
        // survives, pass the list through unchanged so validation reports
        // *why* instead of silently running nothing.
        let supported = dbf_scenario::engine::eligible_engines(&scenario, engines, true);
        scenario.engines = if supported.is_empty() {
            engines.clone()
        } else {
            supported
        };
    }
    if let Some(seeds) = &opts.seeds {
        scenario.seeds = seeds.clone();
    }
    scenario
}

fn emit(opts: &Options, json: &Json, summary: &str) -> Result<(), String> {
    if opts.json {
        println!("{json}");
    } else {
        println!("{summary}");
    }
    if let Some(path) = &opts.out {
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// The intra-run thread budget of the single-run commands: every available
/// core by default (a lone run has nothing else to share the machine
/// with), overridable with `--threads`.
fn run_threads(opts: &Options) -> usize {
    opts.threads.unwrap_or_else(default_jobs).max(1)
}

/// The [`RunConfig`] of the single-run commands.
fn run_config(opts: &Options) -> RunConfig {
    RunConfig {
        threads: run_threads(opts),
    }
}

/// Run a scenario with the aggregator attached, teeing the event stream
/// into a JSONL trace file when one was requested.  Returns the
/// differential report plus the deterministic/timing metrics.
fn run_traced(
    scenario: &Scenario,
    cfg: &RunConfig,
    trace: Option<&str>,
) -> Result<(ScenarioReport, telemetry::MetricsReport), String> {
    let mut agg = AggregatingSink::new();
    let report = match trace {
        Some(path) => {
            let mut tracer = TraceSink::to_file(path)
                .map_err(|e| format!("cannot create trace file {path:?}: {e}"))?;
            let mut tee = Tee {
                a: &mut agg,
                b: &mut tracer,
            };
            let report = run_scenario_traced(scenario, cfg, &mut tee).map_err(|e| e.to_string())?;
            tracer
                .finish()
                .map_err(|e| format!("cannot write trace file {path:?}: {e}"))?;
            eprintln!("wrote {path}");
            report
        }
        None => run_scenario_traced(scenario, cfg, &mut agg).map_err(|e| e.to_string())?,
    };
    Ok((report, agg.finish()))
}

fn cmd_run(target: &str, opts: &Options) -> Result<bool, String> {
    let scenario = apply_overrides(load_scenario(target)?, opts);
    let cfg = run_config(opts);
    let threads = cfg.threads;
    let (report, metrics) = run_traced(&scenario, &cfg, opts.trace.as_deref())?;
    let json = with_telemetry(report.to_json(), &metrics, threads);
    let mut summary = report.summary();
    if opts.metrics {
        summary.push('\n');
        summary.push_str(&metrics_table(&metrics));
    }
    emit(opts, &json, &summary)?;
    let met = report.expectation_met();
    if !met {
        // Pinpoint the runs that broke the verdict and print the exact
        // command that reproduces the failure.
        let reference = report
            .runs
            .iter()
            .find(|r| r.engine == "sync")
            .or(report.runs.first());
        for run in &report.runs {
            if let Some(err) = &run.error {
                // A worker panic is caught by the engine firewall in
                // dbf-scenario::run and surfaces here instead of aborting
                // the process.
                eprintln!("checker failure: engine {} panicked: {err}", run.engine);
                continue;
            }
            let last = run.phases.last();
            let stable = last.map(|p| p.sigma_stable).unwrap_or(false);
            let diverged = match (last, reference.and_then(|r| r.phases.last())) {
                (Some(p), Some(q)) => p.digest != q.digest,
                _ => false,
            };
            if !stable || diverged {
                eprintln!(
                    "checker failure: engine {} {}",
                    run.engine,
                    if stable {
                        "diverged from the reference fixed point"
                    } else {
                        "did not reach a sigma-stable state"
                    }
                );
            }
        }
        let engines = scenario
            .engines
            .iter()
            .map(|e| e.name())
            .collect::<Vec<_>>()
            .join(",");
        let seeds = scenario
            .seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        eprintln!(
            "reproduce with: scenarios run {target} --engines {engines} --seeds {seeds} \
             --threads {threads}"
        );
    }
    Ok(met)
}

/// `scenarios profile`: run with telemetry on and print the per-phase
/// breakdown — wall times, rows per round, settle p95 and the parallel
/// band balance — instead of the differential summary.
fn cmd_profile(target: &str, opts: &Options) -> Result<bool, String> {
    let scenario = apply_overrides(load_scenario(target)?, opts);
    let cfg = run_config(opts);
    let threads = cfg.threads;
    let (report, metrics) = run_traced(&scenario, &cfg, None)?;
    println!("scenario {} (threads={threads})", report.scenario);
    println!("{}", profile_table(&metrics));
    Ok(report.expectation_met())
}

fn load_sweep(name_or_path: &str) -> Result<Sweep, String> {
    if let Some(builtin) = sweeps::by_name(name_or_path) {
        return Ok(builtin);
    }
    if name_or_path.ends_with(".toml") {
        let text = std::fs::read_to_string(name_or_path)
            .map_err(|e| format!("cannot read {name_or_path:?}: {e}"))?;
        return Sweep::from_toml_str(&text).map_err(|e| e.to_string());
    }
    Err(format!(
        "{name_or_path:?} is neither a built-in sweep nor a .toml file; \
         `scenarios list-sweeps` shows the builtins"
    ))
}

fn run_one_sweep(sweep: &Sweep, target: &str, opts: &Options) -> Result<SweepReport, String> {
    let run_opts = SweepRunOptions {
        jobs: opts.jobs.unwrap_or_else(default_jobs),
        point: opts.point,
        replicate: opts.replicate,
        // Sweeps already parallelize across runs, so intra-run threads
        // default to 1; `--threads` opts in (e.g. for grids whose wall time
        // is one huge point, or single-cell reproductions).
        threads: opts.threads.unwrap_or(1),
    };
    let report = run_sweep(sweep, &run_opts).map_err(|e| e.to_string())?;
    for point in &report.points {
        for failure in &point.failures {
            eprintln!(
                "FAIL point #{} ({}) replicate {} seed {:#018x}: converges={} agreement={}",
                point.index,
                point.label,
                failure.replicate,
                failure.seed,
                failure.converges,
                failure.agreement,
            );
            eprintln!(
                "  reproduce with: scenarios sweep {target} --point {} --replicate {} --jobs 1",
                point.index, failure.replicate
            );
        }
    }
    Ok(report)
}

fn cmd_sweep(target: &str, opts: &Options) -> Result<bool, String> {
    let sweep = load_sweep(target)?;
    let report = run_one_sweep(&sweep, target, opts)?;
    emit(opts, &report.to_json(opts.timing), &report.summary())?;
    Ok(report.ok())
}

fn cmd_sweep_bench(opts: &Options) -> Result<bool, String> {
    let mut reports = Vec::new();
    let mut all_ok = true;
    for sweep in sweeps::all() {
        let report = run_one_sweep(&sweep, &sweep.name.clone(), opts)?;
        println!("{}", report.summary());
        all_ok &= report.ok();
        reports.push(report);
    }
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_sweeps.json".into());
    let json = bench_sweeps_json(&reports);
    std::fs::write(&path, format!("{json}\n"))
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(all_ok)
}

fn cmd_fuzz(opts: &Options) -> Result<bool, String> {
    let fuzz_opts = FuzzOptions {
        cases: opts.cases.unwrap_or(100),
        seed: opts.seed.unwrap_or(1),
        jobs: opts.jobs.unwrap_or_else(default_jobs),
        case: opts.case,
        corpus: Some(PathBuf::from(opts.corpus.as_deref().unwrap_or("corpus"))),
    };
    let report = run_fuzz(&fuzz_opts).map_err(|e| e.to_string())?;
    emit(opts, &report.to_json(), &report.summary())?;
    for failure in &report.failures {
        eprintln!(
            "fuzz failure: case #{} (seed {:#018x}); reproduce with: {}",
            failure.index, failure.case_seed, failure.repro
        );
        if let Some(path) = &failure.written_to {
            eprintln!("  minimized spec written to {path}");
        }
    }
    Ok(report.ok())
}

fn cmd_replay(dir: &str) -> Result<bool, String> {
    let results = replay_corpus(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    if results.is_empty() {
        println!("corpus {dir} holds no .toml specs");
        return Ok(true);
    }
    let mut all_ok = true;
    for outcome in results {
        // The per-run round counts are the case's convergence-time
        // fingerprint: a corpus case that converges in more rounds than
        // it used to is a regression signal even while the verdict holds.
        let rounds = outcome
            .rounds
            .iter()
            .map(|(engine, r)| format!("{engine}={r}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "replay {:<48} {}  rounds: {rounds}",
            outcome.path.display(),
            if outcome.expectation_met {
                "OK"
            } else {
                "MISMATCH"
            }
        );
        all_ok &= outcome.expectation_met;
    }
    Ok(all_ok)
}

/// `scenarios bounds`: evaluate the bound oracle on a spec and print the
/// per-phase table — no engine runs, everything is a pure function of the
/// spec.
fn cmd_bounds(target: &str, opts: &Options) -> Result<bool, String> {
    let scenario = load_scenario(target)?;
    scenario.validate().map_err(|e| e.to_string())?;
    let table = dbf_scenario::bound::bound_table(&scenario);
    let bounded: Vec<&str> = scenario
        .engines
        .iter()
        .filter(|&&k| dbf_scenario::engine::descriptor(k).bounded_rounds)
        .map(|k| k.name())
        .collect();
    let json = Json::Obj(vec![
        ("scenario".into(), Json::str(&scenario.name)),
        (
            "bounded_engines".into(),
            Json::Arr(bounded.iter().map(|&e| Json::str(e)).collect()),
        ),
        (
            "phases".into(),
            Json::Arr(
                table
                    .iter()
                    .map(|pb| {
                        Json::Obj(vec![
                            ("label".into(), Json::str(&pb.label)),
                            ("n".into(), Json::uint(pb.n)),
                            (
                                "height".into(),
                                pb.height.map_or(Json::Null, |h| {
                                    Json::Obj(vec![
                                        ("h".into(), Json::uint(h.height)),
                                        ("exact".into(), Json::Bool(h.exact)),
                                        ("provenance".into(), Json::str(h.provenance)),
                                    ])
                                }),
                            ),
                            ("window".into(), Json::uint(pb.window)),
                            ("lag".into(), Json::uint(pb.lag)),
                            (
                                "sync_bound".into(),
                                pb.sync_bound.map_or(Json::Null, Json::uint),
                            ),
                            (
                                "async_bound".into(),
                                pb.async_bound.map_or(Json::Null, Json::uint),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut summary = format!(
        "scenario {}: predicted rounds-to-converge per phase (bounded engines: {})",
        scenario.name,
        if bounded.is_empty() {
            "none".into()
        } else {
            bounded.join(",")
        },
    );
    for pb in &table {
        match &pb.height {
            Some(h) => summary.push_str(&format!(
                "\n  {:<20} n={:<5} h={:<5} ({}) w={:<3} lag={:<3} sync n·h={:<8} async n·h·(w+lag+1)={:<10} [{}]",
                pb.label,
                pb.n,
                h.height,
                if h.exact { "exact" } else { "declared" },
                pb.window,
                pb.lag,
                pb.sync_bound.unwrap_or(0),
                pb.async_bound.unwrap_or(0),
                h.provenance,
            )),
            None => summary.push_str(&format!(
                "\n  {:<20} n={:<5} unbounded (no convergence theorem for this algebra)",
                pb.label, pb.n,
            )),
        }
    }
    emit(opts, &json, &summary)?;
    Ok(true)
}

fn cmd_run_all(opts: &Options) -> Result<bool, String> {
    let mut reports = Vec::new();
    let mut all_met = true;
    for scenario in builtins::all() {
        // An engine-matrix run (`run-all --engines …`) quantifies over the
        // *positive* theorems: the negative controls (wedgie, bad gadget)
        // expect disagreement or divergence from their own specific engine
        // sets, which an override would invalidate.
        if let Some(requested) = &opts.engines {
            if !(scenario.expect.converges && scenario.expect.agreement) {
                if !opts.json {
                    println!(
                        "scenario {:<24} skipped (negative control; engine overrides apply to \
                         the positive theorems)",
                        scenario.name
                    );
                }
                continue;
            }
            // A scenario whose algebra none of the requested engines
            // support is skipped, not a hard error: `run-all --engines rip`
            // means "run rip everywhere it applies".
            if dbf_scenario::engine::eligible_engines(&scenario, requested, true).is_empty() {
                if !opts.json {
                    println!(
                        "scenario {:<24} skipped (none of the requested engines support \
                         its algebra)",
                        scenario.name
                    );
                }
                continue;
            }
        }
        let scenario = apply_overrides(scenario, opts);
        let cfg = run_config(opts);
        let report =
            run_scenario_with(&scenario, &cfg).map_err(|e| format!("{}: {e}", scenario.name))?;
        if !opts.json {
            println!("{}", report.summary());
        }
        all_met &= report.expectation_met();
        if opts.check_bounds {
            all_met &= audit_bounds(&scenario, &report, opts.json);
        }
        reports.push(report);
    }
    let json = Json::Arr(reports.iter().map(ScenarioReport::to_json).collect());
    if opts.json {
        println!("{json}");
    }
    if let Some(path) = &opts.out {
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(all_met)
}

/// The `--check-bounds` audit: a scenario that requests a bounded-rounds
/// engine on a theorem-covered algebra must actually carry predicted
/// bounds on those runs and stay within every one of them.  This catches
/// the annotation silently disappearing, which `expectation_met` alone
/// (trivially true with no bounds) would not.
fn audit_bounds(scenario: &Scenario, report: &ScenarioReport, quiet: bool) -> bool {
    let expects_bounds = scenario
        .engines
        .iter()
        .any(|&k| dbf_scenario::engine::descriptor(k).bounded_rounds)
        && dbf_scenario::bound::bound_table(scenario)
            .iter()
            .any(|pb| pb.sync_bound.is_some());
    let annotated = report
        .runs
        .iter()
        .flat_map(|r| &r.phases)
        .filter(|p| p.predicted_bound.is_some())
        .count();
    let worst = report
        .runs
        .iter()
        .flat_map(|r| &r.phases)
        .filter_map(|p| p.tightness())
        .fold(None::<f64>, |acc, t| Some(acc.map_or(t, |a| a.max(t))));
    let ok = report.verdict.bounds_ok && (!expects_bounds || annotated > 0);
    if !quiet {
        println!(
            "  bounds: {annotated} annotated phase runs, worst tightness {} -> {}",
            worst.map_or("n/a".into(), |t| format!("{t:.3}")),
            if ok { "ok" } else { "FAIL" },
        );
    }
    if !ok {
        eprintln!(
            "bound audit failure: scenario {} (bounds_ok={}, annotated={annotated})",
            report.scenario, report.verdict.bounds_ok,
        );
    }
    ok
}

fn cmd_bench(opts: &Options) -> Result<bool, String> {
    let mut records = Vec::new();
    let mut all_met = true;
    let cfg = run_config(opts);
    let threads = cfg.threads;
    for scenario in builtins::all() {
        // Bench runs are traced so the BENCH document carries the
        // deterministic settle summaries alongside the wall times.
        let (report, metrics) =
            run_traced(&scenario, &cfg, None).map_err(|e| format!("{}: {e}", scenario.name))?;
        println!("{}", report.summary());
        all_met &= report.expectation_met();
        records.push(BenchRecord {
            report,
            metrics: Some(metrics),
        });
    }
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_scenarios.json".into());
    let json = bench_json(&records, threads);
    std::fs::write(&path, format!("{json}\n"))
        .map_err(|e| format!("cannot write {path:?}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(all_met)
}

/// `scenarios gen-trace`: write a seeded churn trace in the line-oriented
/// text format the route server replays.
fn cmd_gen_trace(opts: &Options) -> Result<bool, String> {
    let n = opts.nodes.unwrap_or(64);
    let topology = match opts.topology.as_deref() {
        Some(family) => TopologySpec::sized(family, n).map_err(|e| e.to_string())?,
        None => TopologySpec::Ring { n },
    };
    // Any simple path has at most n-1 hops, so a limit of n never
    // truncates a real route while keeping the carrier finite.
    let algebra = opts.algebra.as_deref().unwrap_or("hopcount");
    let algebra = ServeAlgebra::named(algebra, n as u64).map_err(|e| e.to_string())?;
    let spec = TraceSpec {
        topology,
        algebra,
        events: opts.events.unwrap_or(100_000),
        seed: opts.seed.unwrap_or(1),
        query_permille: opts.queries.unwrap_or(100),
        // Off by default so traces regenerate byte-identically to the
        // pre-`set_weight` format for the same seed.
        weight_permille: opts.weights.unwrap_or(0),
    };
    let trace = generate_trace(&spec).map_err(|e| e.to_string())?;
    let path = opts.out.as_deref().unwrap_or("churn.trace");
    std::fs::write(path, trace.to_text()).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    eprintln!(
        "wrote {path} ({} events: {} changes, {} queries)",
        trace.events.len(),
        trace.change_count(),
        trace.query_count()
    );
    Ok(true)
}

/// `scenarios scale-run`: converge one preferential-attachment fabric
/// through the destination-blocked σ engine (`dbf_matrix::blocked`).
///
/// This is the path to fabrics whose square routing state does not fit in
/// memory: at the default `--nodes 100000` a square state would need
/// ~80 GB, while a 1024-wide destination slab streams through ~1.6 GB.
/// The emitted record (printed, and written via `--out`) is what
/// `BENCH_sweeps.json` carries under `scale_runs`.
fn cmd_scale_run(opts: &Options) -> Result<bool, String> {
    use dbf_algebra::prelude::{BoundedHopCount, NatInf, ShortestPaths};
    use dbf_matrix::{blocked_fixed_point, AdjacencyMatrix, BlockedOutcome};

    let n = opts.nodes.unwrap_or(100_000);
    let m = opts.m.unwrap_or(2);
    let seed = opts.seed.unwrap_or(1);
    let block = opts.block.unwrap_or(1024).max(1);
    let algebra = opts.algebra.as_deref().unwrap_or("hopcount");
    let carrier = ServeAlgebra::named(algebra, n as u64).map_err(|e| e.to_string())?;
    let fabric = TopologySpec::AsGraph { n, m, seed };
    let shape = dbf_scenario::run::build_shape(&fabric).map_err(|e| e.to_string())?;
    let links = shape.edge_count();
    let blocks_expected = n.div_ceil(block);
    eprintln!(
        "scale-run: as_graph(n={n}, m={m}, seed={seed}) has {links} directed edges; \
         {blocks_expected} destination blocks of width <= {block}"
    );
    let progress = |b: usize, rounds: usize, rows: u64| {
        eprintln!(
            "  block {}/{blocks_expected}: rounds={rounds} row_recomputations={rows}",
            b + 1
        );
    };
    // Any simple path visits at most n-1 nodes, so n rounds is a safe
    // per-block budget for every strictly-increasing algebra here.
    let t0 = std::time::Instant::now();
    let out: BlockedOutcome = match carrier {
        // The same finite carrier gen-trace uses: a limit of n never
        // truncates a real route.
        ServeAlgebra::Hopcount { limit } => {
            let topo = shape.with_weights(|_, _| 1u64);
            let adj = AdjacencyMatrix::from_topology(&topo);
            blocked_fixed_point(&BoundedHopCount::new(limit), &adj, block, n, progress)
        }
        ServeAlgebra::Shortest => {
            let rule = WeightRule::varied();
            let topo = shape.with_weights(|i, j| NatInf::fin(rule.weight(i, j)));
            let adj = AdjacencyMatrix::from_topology(&topo);
            blocked_fixed_point(&ShortestPaths::new(), &adj, block, n, progress)
        }
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let json = Json::Obj(vec![
        ("run".into(), Json::str("scale")),
        ("family".into(), Json::str(fabric.family())),
        ("nodes".into(), Json::uint(n as u64)),
        ("m".into(), Json::uint(m as u64)),
        ("seed".into(), Json::uint(seed)),
        ("algebra".into(), Json::str(algebra)),
        ("edges".into(), Json::uint(links as u64)),
        ("block".into(), Json::uint(block as u64)),
        ("blocks".into(), Json::uint(out.blocks as u64)),
        ("converged".into(), Json::Bool(out.converged)),
        ("rounds_max".into(), Json::uint(out.rounds_max as u64)),
        ("rounds_total".into(), Json::uint(out.rounds_total as u64)),
        (
            "row_recomputations".into(),
            Json::uint(out.row_recomputations as u64),
        ),
        ("state_digest".into(), Json::str(out.digest.clone())),
        ("wall_ms".into(), Json::Num((wall_ms * 10.0).round() / 10.0)),
    ]);
    let summary = format!(
        "scale-run: {algebra} on as_graph(n={n}, m={m}, seed={seed}) converged={} \
         in {} rounds (worst block) over {} blocks of width <= {block}\n\
         \x20 {} row recomputations, digest {}, {:.1} ms",
        out.converged, out.rounds_max, out.blocks, out.row_recomputations, out.digest, wall_ms,
    );
    emit(opts, &json, &summary)?;
    Ok(out.converged)
}

/// `scenarios serve`: replay a churn trace through the long-lived route
/// server and report throughput, coalescing and latency percentiles as
/// `BENCH_serve.json`.
fn cmd_serve(opts: &Options) -> Result<bool, String> {
    let path = opts
        .replay
        .as_deref()
        .ok_or("serve needs --replay FILE (generate one with `scenarios gen-trace`)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let trace = ChurnTrace::parse(&text).map_err(|e| e.to_string())?;
    let threads = run_threads(opts);
    let batch = opts.batch.unwrap_or(64).max(1);
    let serve_opts = serve_options(opts, threads, batch)?;
    let report = match opts.trace.as_deref() {
        Some(tp) => {
            let mut tracer = TraceSink::to_file(tp)
                .map_err(|e| format!("cannot create trace file {tp:?}: {e}"))?;
            let report =
                replay_trace_opts(&trace, &serve_opts, &mut tracer).map_err(|e| e.to_string())?;
            tracer
                .finish()
                .map_err(|e| format!("cannot write trace file {tp:?}: {e}"))?;
            eprintln!("wrote {tp}");
            report
        }
        None => replay_trace_opts(&trace, &serve_opts, &mut telemetry::NoopSink)
            .map_err(|e| e.to_string())?,
    };
    let json = serve_json(&report, threads, batch);
    emit(opts, &json, &serve_summary(&report, threads, batch))?;
    match &report.failure {
        None => Ok(true),
        // Mid-replay failure: the partial report is already emitted (and
        // written via --out); exit with the structured error so scripts
        // see both the data and a non-zero status.
        Some(f) => {
            let checkpoint = match f.last_checkpoint {
                Some(off) => format!("last checkpoint at offset {off}"),
                None => "no checkpoint written".into(),
            };
            let hint = match &serve_opts.checkpoint_dir {
                Some(dir) if f.kind == FaultKind::CrashAtEvent.name() => {
                    format!("; rerun with --recover {} to continue", dir.display())
                }
                _ => String::new(),
            };
            Err(format!(
                "serve failed ({}) at event offset {} ({checkpoint}): {}{hint}",
                f.kind, f.offset, f.message
            ))
        }
    }
}

/// Assemble the [`ServeOptions`] of a `serve` invocation from the CLI
/// flags: deadline policy (`auto` unless overridden), checkpoint store,
/// recovery, and the fault plan (`--faults FILE` and/or `--crash-at E`).
fn serve_options(opts: &Options, threads: usize, batch: usize) -> Result<ServeOptions, String> {
    let deadline = match opts.deadline_ms.as_deref() {
        // The bound-derived deadline is the documented default: the
        // convergence-bound oracle times the measured per-round cost,
        // with generous headroom, so an unloaded run never degrades.
        None | Some("auto") => DeadlineCfg::Auto,
        Some("0") => DeadlineCfg::Off,
        Some(ms) => DeadlineCfg::Millis(
            ms.parse::<u64>()
                .map_err(|e| format!("bad --deadline-ms: {e}"))?,
        ),
    };
    let recover = opts.recover.is_some();
    let checkpoint_dir = match (&opts.recover, &opts.checkpoint) {
        (Some(dir), _) | (None, Some(dir)) => Some(PathBuf::from(dir)),
        (None, None) => None,
    };
    if checkpoint_dir.is_none() && opts.checkpoint_every.is_some() {
        return Err("--checkpoint-every needs --checkpoint DIR (or --recover DIR)".into());
    }
    let mut plan = match opts.faults.as_deref() {
        None => None,
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read fault plan {path:?}: {e}"))?;
            Some(load_plan(&text).map_err(|e| e.to_string())?)
        }
    };
    if let Some(offset) = opts.crash_at {
        plan.get_or_insert_with(|| FaultPlan::new(0))
            .push(FaultKind::CrashAtEvent, offset);
    }
    Ok(ServeOptions {
        threads,
        batch_max: batch,
        deadline,
        checkpoint_dir,
        checkpoint_every: opts.checkpoint_every.unwrap_or(64),
        recover,
        faults: plan.map(std::sync::Arc::new),
    })
}

/// `scenarios chaos`: run fault plans against a churn trace, recover, and
/// verify digest-identity plus the convergence-bound oracle.  With
/// `--faults FILE` runs that one plan; without it, every built-in plan.
fn cmd_chaos(opts: &Options) -> Result<bool, String> {
    let path = opts
        .replay
        .as_deref()
        .ok_or("chaos needs --replay FILE (generate one with `scenarios gen-trace`)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let trace = ChurnTrace::parse(&text).map_err(|e| e.to_string())?;
    let threads = run_threads(opts);
    let batch = opts.batch.unwrap_or(64).max(1);
    let plans: Vec<(String, FaultPlan)> = match opts.faults.as_deref() {
        Some(file) => {
            let text = std::fs::read_to_string(file)
                .map_err(|e| format!("cannot read fault plan {file:?}: {e}"))?;
            vec![(
                file.to_string(),
                load_plan(&text).map_err(|e| e.to_string())?,
            )]
        }
        None => builtin_plan_names()
            .iter()
            .map(|name| {
                let plan = builtin_plan(name, trace.events.len()).expect("built-in plan");
                (name.to_string(), plan)
            })
            .collect(),
    };
    // Each plan gets a fresh store directory so a crashed run's WAL never
    // leaks into the next plan's recovery.  Without --checkpoint the stores
    // live in a temp directory this command removes again.
    let base = match &opts.checkpoint {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("dbf-chaos-{}", std::process::id())),
    };
    let run_plans = || -> Result<Vec<_>, String> {
        let mut outcomes = Vec::new();
        for (name, plan) in plans {
            let dir = base.join(name.replace(['/', '\\'], "_"));
            let outcome = run_chaos(
                &trace,
                &name,
                plan,
                threads,
                batch,
                &dir,
                &mut telemetry::NoopSink,
            )
            .map_err(|e| format!("{name}: {e}"))?;
            let verdict = if outcome.ok { "ok" } else { "FAILED" };
            eprintln!(
                "chaos {name}: {verdict} — {} ({} faults fired, {} stale answers)",
                outcome.detail, outcome.faults_fired, outcome.stale_answers
            );
            outcomes.push(outcome);
        }
        Ok(outcomes)
    };
    let outcomes = run_plans();
    if opts.checkpoint.is_none() {
        let _ = std::fs::remove_dir_all(&base);
    }
    let outcomes = outcomes?;
    let failed = outcomes.iter().filter(|o| !o.ok).count();
    let json = chaos_json(&outcomes, threads, batch);
    let summary = format!(
        "chaos: {} of {} plans verified (threads={threads}, batch<={batch})",
        outcomes.len() - failed,
        outcomes.len()
    );
    emit(opts, &json, &summary)?;
    if failed > 0 {
        return Err(format!("{failed} chaos plan(s) failed verification"));
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let result: Result<bool, String> = match command.as_str() {
        "list" => {
            for s in builtins::all() {
                println!(
                    "{:<22} {}",
                    s.name,
                    s.description.split('.').next().unwrap_or("")
                );
            }
            Ok(true)
        }
        "list-engines" => {
            for d in dbf_scenario::engine::descriptors() {
                let runs = match d.determinism {
                    dbf_scenario::engine::Determinism::Fixed => "once",
                    dbf_scenario::engine::Determinism::Seeded => "per-seed",
                };
                let max_n = d
                    .max_recommended_n
                    .map(|n| n.to_string())
                    .unwrap_or_else(|| "-".into());
                let par = if d.parallelizable { "yes" } else { "no" };
                let events = if d.events.is_empty() {
                    "-".into()
                } else {
                    d.events
                        .iter()
                        .map(|e| e.name())
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let det = if d.deterministic_counters { "" } else { "*" };
                println!(
                    "{:<12} runs={:<8} max_n={:<6} parallel={:<4} events={}{:<22} {}",
                    d.name, runs, max_n, par, det, events, d.summary
                );
            }
            Ok(true)
        }
        "show" => match args.get(1) {
            None => return usage(),
            Some(name) => match builtins::by_name(name) {
                None => Err(format!("unknown builtin {name:?}")),
                Some(s) => {
                    println!("{}", s.to_toml_string());
                    Ok(true)
                }
            },
        },
        "run" => match args.get(1) {
            None => return usage(),
            Some(target) => parse_options(&args[2..], RUN_OPTS).and_then(|o| cmd_run(target, &o)),
        },
        "profile" => match args.get(1) {
            None => return usage(),
            Some(target) => {
                parse_options(&args[2..], PROFILE_OPTS).and_then(|o| cmd_profile(target, &o))
            }
        },
        "run-all" => parse_options(&args[1..], RUN_ALL_OPTS).and_then(|o| cmd_run_all(&o)),
        "bounds" => match args.get(1) {
            None => return usage(),
            Some(target) => {
                parse_options(&args[2..], BOUNDS_OPTS).and_then(|o| cmd_bounds(target, &o))
            }
        },
        "bench" => parse_options(&args[1..], BENCH_OPTS).and_then(|o| cmd_bench(&o)),
        "list-sweeps" => {
            for s in sweeps::all() {
                println!(
                    "{:<28} {}",
                    s.name,
                    s.description.split('.').next().unwrap_or("")
                );
            }
            Ok(true)
        }
        "show-sweep" => match args.get(1) {
            None => return usage(),
            Some(name) => match sweeps::by_name(name) {
                None => Err(format!("unknown built-in sweep {name:?}")),
                Some(s) => {
                    println!("{}", s.to_toml_string());
                    Ok(true)
                }
            },
        },
        "sweep" => match args.get(1) {
            None => return usage(),
            Some(target) => {
                parse_options(&args[2..], SWEEP_OPTS).and_then(|o| cmd_sweep(target, &o))
            }
        },
        "sweep-bench" => {
            parse_options(&args[1..], SWEEP_BENCH_OPTS).and_then(|o| cmd_sweep_bench(&o))
        }
        "fuzz" => parse_options(&args[1..], FUZZ_OPTS).and_then(|o| cmd_fuzz(&o)),
        "replay" => match args.get(1) {
            None => return usage(),
            Some(dir) => parse_options(&args[2..], REPLAY_OPTS).and_then(|_| cmd_replay(dir)),
        },
        "gen-trace" => parse_options(&args[1..], GEN_TRACE_OPTS).and_then(|o| cmd_gen_trace(&o)),
        "scale-run" => parse_options(&args[1..], SCALE_RUN_OPTS).and_then(|o| cmd_scale_run(&o)),
        "serve" => parse_options(&args[1..], SERVE_OPTS).and_then(|o| cmd_serve(&o)),
        "chaos" => parse_options(&args[1..], CHAOS_OPTS).and_then(|o| cmd_chaos(&o)),
        _ => return usage(),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("differential verdict did not match the scenario expectation");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], allowed: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_options(&args, allowed)
    }

    #[test]
    fn a_flag_the_command_does_not_take_is_rejected_with_the_allow_list() {
        let err = parse(&["--seeds", "1,2"], SWEEP_OPTS)
            .err()
            .expect("rejected");
        assert_eq!(
            err,
            format!(
                "option --seeds does not apply to this command (valid here: {})",
                SWEEP_OPTS.join(", ")
            )
        );
    }

    #[test]
    fn a_missing_value_names_the_flag_and_what_it_needs() {
        for (args, allowed, want) in [
            (&["--jobs"][..], SWEEP_OPTS, "--jobs needs a value"),
            (&["--json", "--out"][..], RUN_OPTS, "--out needs a value"),
            (
                &["--recover"][..],
                SERVE_OPTS,
                "--recover needs a directory",
            ),
            (
                &["--crash-at"][..],
                SERVE_OPTS,
                "--crash-at needs an event offset",
            ),
            (
                &["--deadline-ms"][..],
                SERVE_OPTS,
                "--deadline-ms needs a value (auto|N|0)",
            ),
        ] {
            assert_eq!(parse(args, allowed).err().as_deref(), Some(want));
        }
    }

    #[test]
    fn a_bad_value_names_the_flag_and_the_parse_error() {
        for (args, allowed, want) in [
            (
                &["--jobs", "many"][..],
                SWEEP_OPTS,
                "bad --jobs: invalid digit found in string",
            ),
            (
                &["--queries", "-1"][..],
                GEN_TRACE_OPTS,
                "bad --queries: invalid digit found in string",
            ),
            (
                &["--crash-at", ""][..],
                SERVE_OPTS,
                "bad --crash-at: cannot parse integer from empty string",
            ),
            (
                &["--checkpoint-every", "0"][..],
                SERVE_OPTS,
                "--checkpoint-every must be >= 1",
            ),
        ] {
            assert_eq!(parse(args, allowed).err().as_deref(), Some(want));
        }
        let ok = parse(&["--jobs", "8", "--json", "--out", "f.json"], SWEEP_OPTS).expect("valid");
        assert_eq!(
            (ok.jobs, ok.json, ok.out.as_deref()),
            (Some(8), true, Some("f.json"))
        );
    }
}
