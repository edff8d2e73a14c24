//! The `scenarios` command-line driver.
//!
//! Run `scenarios` with no arguments for the synopsis of every command and
//! the help line of every flag.  Both are rendered from the two tables in
//! `mod tables`: the flag declarations (name, value kind, help line) and
//! `COMMANDS` (name, operand, one-line summary, the flags it takes,
//! handler).  The same tables drive `Args::parse`, the one reader of the
//! command line: it dispatches, refuses a flag the command does not take,
//! and names the flag whose value is missing or malformed.
//!
//! `run` and `sweep` exit non-zero when the differential verdict does not
//! match the expectation, so the binary doubles as an integration gate; on
//! failure both print the exact reproduction command.

use dbf_matrix::default_jobs;
use dbf_scenario::agg::bench_sweeps_json;
use dbf_scenario::fuzz::replay_corpus;
use dbf_scenario::prelude::*;
use dbf_scenario::telemetry::{AggregatingSink, Tee, TelemetrySink, TraceSink};
use std::any::Any;
use std::collections::HashMap;
use std::num::ParseIntError;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use tables::*;

/// One flag: its name, the placeholder its value goes by in the usage
/// text (empty for a switch), its help line, and the reader of its value.
struct Flag<T> {
    name: &'static str,
    meta: &'static str,
    help: &'static str,
    read: fn(&str) -> Result<T, String>,
}

/// A flag whatever its value type, as a command lists it.
trait AnyFlag {
    fn name(&self) -> &'static str;
    fn meta(&self) -> &'static str;
    fn help(&self) -> &'static str;
    /// Read the argument that follows the flag.
    fn read(&self, text: &str) -> Result<Box<dyn Any>, String>;

    /// The flag as the usage text writes it: name, then placeholder.
    fn synopsis(&self) -> String {
        match self.meta() {
            "" => self.name().to_string(),
            meta => format!("{} {meta}", self.name()),
        }
    }
}

impl<T: 'static> AnyFlag for Flag<T> {
    fn name(&self) -> &'static str {
        self.name
    }
    fn meta(&self) -> &'static str {
        self.meta
    }
    fn help(&self) -> &'static str {
        self.help
    }
    fn read(&self, text: &str) -> Result<Box<dyn Any>, String> {
        Ok(Box::new((self.read)(text)?))
    }
}

/// A command's handler: `Ok(true)` exits 0, `Ok(false)` (the verdict did
/// not match the expectation) 1, and `Err` 2.
type Handler = fn(&Args) -> Result<bool, String>;

/// One command: its name, the operand it takes before any flag, its
/// one-line summary, the flags it takes, and its handler.
struct Command {
    name: &'static str,
    operand: Option<&'static str>,
    summary: &'static str,
    flags: &'static [&'static dyn AnyFlag],
    run: Handler,
}

/// The two tables: one declaration per flag, one entry per command.  The
/// usage text lists the commands in table order and the flags in the
/// order the commands first name them; `{engines}` and `{fault_kinds}` in
/// a help line stand for the registered names.
#[rustfmt::skip]
mod tables {
    use super::*;

    const fn flag<T>(
        name: &'static str, meta: &'static str, read: fn(&str) -> Result<T, String>,
        help: &'static str,
    ) -> Flag<T> {
        Flag { name, meta, help, read }
    }

    pub const ENGINES: Flag<Vec<EngineKind>> =
        flag("--engines", "LIST", engine_list, "comma-separated subset of {engines}");
    pub const SEEDS: Flag<Vec<u64>> =
        flag("--seeds", "LIST", seed_list, "comma-separated seeds for the seeded engines");
    pub const JSON: Flag<()> =
        flag("--json", "", switch, "print the JSON report instead of the summary");
    pub const OUT: Flag<String> =
        flag("--out", "FILE", text, "write the JSON (gen-trace: the trace) to FILE");
    pub const THREADS: Flag<usize> =
        flag("--threads", "N", number, "threads per run (default: all cores; sweeps: 1)");
    pub const TRACE: Flag<String> =
        flag("--trace", "FILE", text, "write a JSONL event trace to FILE");
    pub const METRICS: Flag<()> =
        flag("--metrics", "", switch, "append the deterministic metrics table to the summary");
    pub const JOBS: Flag<usize> =
        flag("--jobs", "N", number, "worker threads across runs (default: all cores)");
    pub const TIMING: Flag<()> =
        flag("--timing", "", switch, "include wall-clock statistics in the JSON");
    pub const POINT: Flag<usize> = flag("--point", "K", number, "run only grid point K");
    pub const REPLICATE: Flag<usize> = flag("--replicate", "R", number, "run only replicate R");
    pub const CASES: Flag<usize> =
        flag("--cases", "N", number, "random cases to run (default 100)");
    pub const SEED: Flag<u64> =
        flag("--seed", "S", number, "seed of the fuzz cases, events or fabric (default 1)");
    pub const CASE: Flag<usize> =
        flag("--case", "K", number, "run only case K (reproduction mode)");
    pub const CORPUS: Flag<String> =
        flag("--corpus", "DIR", text, "where minimized failures go (default corpus)");
    pub const NODES: Flag<usize> =
        flag("--nodes", "N", number, "node count (default: gen-trace 64, scale-run 100000)");
    pub const EVENTS: Flag<usize> =
        flag("--events", "N", number, "events to generate (default 100000)");
    pub const TOPOLOGY: Flag<String> =
        flag("--topology", "T", text, "line|ring|star|complete (default ring)");
    pub const ALGEBRA: Flag<String> =
        flag("--algebra", "A", text, "hopcount|shortest (default hopcount)");
    pub const QUERIES: Flag<u32> =
        flag("--queries", "P", number, "queries per 1000 events (default 100)");
    pub const WEIGHTS: Flag<u32> =
        flag("--weights", "P", number, "set_weight events per 1000 events (default 0)");
    pub const M: Flag<usize> =
        flag("--m", "M", number, "as_graph attachment edges per node (default 2)");
    pub const BLOCK: Flag<usize> =
        flag("--block", "W", number, "block width (default 1024; any width, same digest)");
    pub const REPLAY: Flag<String> =
        flag("--replay", "FILE", text, "the churn trace to replay (required)");
    pub const BATCH: Flag<usize> =
        flag("--batch", "N", number, "max change events per reconvergence (default 64)");
    pub const DEADLINE_MS: Flag<DeadlineCfg> =
        flag("--deadline-ms", "auto|N|0", deadline, "per-flush deadline (default auto; 0: none)");
    pub const CHECKPOINT: Flag<String> =
        flag("--checkpoint", "DIR", text, "checkpoint + WAL store (chaos: the plans' stores)");
    pub const CHECKPOINT_EVERY: Flag<u64> =
        flag("--checkpoint-every", "N", positive, "snapshot every N applied events (default 64)");
    pub const RECOVER: Flag<String> =
        flag("--recover", "DIR", text, "recover from the store in DIR and continue the trace");
    pub const FAULTS: Flag<String> =
        flag("--faults", "FILE", text, "a TOML fault plan (kinds: {fault_kinds})");
    pub const CRASH_AT: Flag<u64> =
        flag("--crash-at", "OFFSET", number, "crash just before event OFFSET (a one-fault plan)");

    const fn cmd(
        name: &'static str, operand: Option<&'static str>, summary: &'static str,
        flags: &'static [&'static dyn AnyFlag], run: Handler,
    ) -> Command {
        Command { name, operand, summary, flags, run }
    }
    const SCENARIO: Option<&str> = Some("<builtin|file.toml>");
    const BUILTIN: Option<&str> = Some("<builtin>");

    pub const COMMANDS: &[Command] = &[
        cmd("list", None, "list the built-in scenarios", &[], cmd_list),
        cmd("list-engines", None, "list the registered engines", &[], cmd_list_engines),
        cmd("show", BUILTIN, "print a built-in scenario as TOML", &[], cmd_show),
        cmd("run", SCENARIO, "run a scenario on its engines and check that they agree",
            &[&ENGINES, &SEEDS, &JSON, &OUT, &THREADS, &TRACE, &METRICS], cmd_run),
        cmd("profile", SCENARIO, "run a scenario and print its per-phase telemetry",
            &[&ENGINES, &SEEDS, &THREADS], cmd_profile),
        cmd("run-all", None, "run every built-in scenario and audit its round bounds",
            &[&ENGINES, &SEEDS, &JSON, &OUT, &THREADS], cmd_run_all),
        cmd("bounds", SCENARIO, "print the predicted round bound of every phase",
            &[&JSON, &OUT], cmd_bounds),
        cmd("list-sweeps", None, "list the built-in sweeps", &[], cmd_list_sweeps),
        cmd("show-sweep", BUILTIN, "print a built-in sweep as TOML", &[], cmd_show_sweep),
        cmd("sweep", SCENARIO, "expand and run a parameter sweep",
            &[&JOBS, &THREADS, &JSON, &TIMING, &POINT, &REPLICATE, &OUT], cmd_sweep),
        cmd("sweep-bench", None, "run every built-in sweep, write BENCH_sweeps.json",
            &[&JOBS, &THREADS, &OUT], cmd_sweep_bench),
        cmd("fuzz", None, "run random specs through the differential checker",
            &[&CASES, &SEED, &CASE, &JOBS, &CORPUS, &JSON, &OUT], cmd_fuzz),
        cmd("replay", Some("<dir>"), "re-run every corpus TOML in a directory", &[], cmd_replay),
        cmd("gen-trace", None, "write a seeded churn trace for the route server",
            &[&OUT, &NODES, &EVENTS, &SEED, &TOPOLOGY, &ALGEBRA, &QUERIES, &WEIGHTS],
            cmd_gen_trace),
        cmd("scale-run", None, "converge one large fabric with the blocked sigma engine",
            &[&NODES, &M, &SEED, &ALGEBRA, &BLOCK, &JSON, &OUT], cmd_scale_run),
        cmd("serve", None, "replay a churn trace through the route server",
            &[&REPLAY, &THREADS, &BATCH, &JSON, &OUT, &TRACE, &DEADLINE_MS, &CHECKPOINT,
              &CHECKPOINT_EVERY, &RECOVER, &CRASH_AT], cmd_serve),
        cmd("chaos", None, "run fault plans against the route server and verify recovery",
            &[&REPLAY, &THREADS, &BATCH, &JSON, &OUT, &FAULTS, &CHECKPOINT], cmd_chaos),
    ];
}

// The readers of the flag values.  An error names what is wrong with the
// value; `Args::parse` adds the flag.

/// A switch: present or not.
fn switch(_: &str) -> Result<(), String> {
    Ok(())
}

/// A string, kept verbatim.
fn text(s: &str) -> Result<String, String> {
    Ok(s.to_string())
}

/// An unsigned integer that fits `T`.
fn number<T: FromStr<Err = ParseIntError>>(s: &str) -> Result<T, String> {
    s.parse().map_err(|e: ParseIntError| e.to_string())
}

fn positive(s: &str) -> Result<u64, String> {
    match number(s)? {
        0 => Err("must be at least 1".into()),
        n => Ok(n),
    }
}

fn engine_list(s: &str) -> Result<Vec<EngineKind>, String> {
    list(s, |e| EngineKind::parse(e).map_err(|e| e.to_string()))
}

fn seed_list(s: &str) -> Result<Vec<u64>, String> {
    list(s, |x| x.parse().map_err(|e| format!("seed {x:?}: {e}")))
}

/// `auto`, `0` (no deadline) or a millisecond budget; only the literal `0`
/// switches deadlines off, `00` is a zero budget.
fn deadline(s: &str) -> Result<DeadlineCfg, String> {
    Ok(match s {
        "auto" => DeadlineCfg::Auto,
        "0" => DeadlineCfg::Off,
        ms => DeadlineCfg::Millis(number(ms)?),
    })
}

/// The non-empty items of a comma-separated list, each trimmed and read.
fn list<T>(text: &str, read: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    let items = text
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| read(s.trim()))
        .collect::<Result<Vec<_>, _>>()?;
    if items.is_empty() {
        return Err("the list is empty".into());
    }
    Ok(items)
}

/// A command line, read against the flags of its command.
struct Args {
    /// The command's operand (empty for a command that takes none).
    operand: String,
    /// The flags given, each with its last value.
    given: HashMap<&'static str, Box<dyn Any>>,
}

impl Args {
    /// Read `argv` against `flags`, refusing any flag not among them — a
    /// silently ignored `--seeds` on a sweep (which derives its own seeds)
    /// would mislead far more than an error does.
    fn parse(flags: &[&dyn AnyFlag], operand: &str, argv: &[String]) -> Result<Args, String> {
        let mut given = HashMap::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let Some(flag) = flags.iter().find(|f| f.name() == arg.as_str()) else {
                if !arg.starts_with("--") {
                    return Err(format!("unknown option {arg:?}"));
                }
                let valid: Vec<&str> = flags.iter().map(|f| f.name()).collect();
                return Err(format!(
                    "option {arg} does not apply to this command (valid here: {})",
                    if valid.is_empty() {
                        "none".into()
                    } else {
                        valid.join(", ")
                    }
                ));
            };
            let text = match flag.meta() {
                "" => "",
                meta => it
                    .next()
                    .ok_or_else(|| format!("{} needs a value ({meta})", flag.name()))?,
            };
            let value = flag
                .read(text)
                .map_err(|e| format!("bad {}: {e}", flag.name()))?;
            given.insert(flag.name(), value);
        }
        Ok(Args {
            operand: operand.to_string(),
            given,
        })
    }

    fn get<T: 'static>(&self, flag: &Flag<T>) -> Option<&T> {
        let value = self.given.get(flag.name)?;
        Some(value.downcast_ref().expect("a value has its flag's type"))
    }

    fn on(&self, flag: &Flag<()>) -> bool {
        self.get(flag).is_some()
    }

    fn text(&self, flag: &Flag<String>) -> Option<&str> {
        self.get(flag).map(String::as_str)
    }
}

/// Append `head` and `words` to `out`, breaking before a word that would
/// pass column 80 and indenting the continuation to `indent`.
fn wrap(
    out: &mut String,
    head: &str,
    indent: usize,
    words: impl IntoIterator<Item = impl AsRef<str>>,
) {
    out.push_str(head);
    let mut col = head.chars().count();
    for word in words {
        let word = word.as_ref();
        let len = word.chars().count();
        if col > indent && col + 1 + len > 80 {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            col = indent;
        } else {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += len;
    }
    out.push('\n');
}

/// Every flag, once each, in the order the commands first name them.
fn every_flag() -> Vec<&'static dyn AnyFlag> {
    let mut every: Vec<&dyn AnyFlag> = Vec::new();
    for &flag in COMMANDS.iter().flat_map(|c| c.flags) {
        if !every.iter().any(|f| f.name() == flag.name()) {
            every.push(flag);
        }
    }
    every
}

/// The synopsis of every command and the help line of every flag,
/// rendered from the two tables.
fn usage_text() -> String {
    let mut out = String::from("usage: scenarios <command> [options]\n\ncommands:\n");
    for cmd in COMMANDS {
        let head = format!("  scenarios {}", cmd.name);
        let flags = cmd.flags.iter().map(|f| format!("[{}]", f.synopsis()));
        let words = cmd.operand.map(str::to_string).into_iter().chain(flags);
        wrap(&mut out, &head, head.len() + 1, words);
        wrap(&mut out, "     ", 6, cmd.summary.split_whitespace());
    }
    let engines = dbf_scenario::engine::descriptors()
        .iter()
        .map(|d| d.name)
        .collect::<Vec<_>>()
        .join(",");
    let fault_kinds = dbf_scenario::chaos::fault_kind_names()
        .collect::<Vec<_>>()
        .join(", ");
    out.push_str("\noptions:\n");
    let listed = every_flag();
    let width = listed.iter().map(|f| f.synopsis().len()).max().unwrap_or(0);
    for flag in listed {
        let help = flag
            .help()
            .replace("{engines}", &engines)
            .replace("{fault_kinds}", &fault_kinds);
        let head = format!("  {:<width$} ", flag.synopsis());
        wrap(&mut out, &head, width + 4, help.split_whitespace());
    }
    out
}

/// Print the usage text; the exit status of a usage error.
fn usage() -> u8 {
    eprint!("{}", usage_text());
    2
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

fn apply_overrides(mut scenario: Scenario, a: &Args) -> Scenario {
    if let Some(engines) = a.get(&ENGINES) {
        // Keep only the engines that support this scenario's algebra
        // (protocol engines are algebra-gated): `run-all --engines
        // sync,rip,bgp` then exercises each engine exactly where it
        // applies.  Size recommendations are NOT enforced here — an
        // explicit `--engines` request outranks them.  If nothing
        // survives, pass the list through unchanged so validation reports
        // *why* instead of silently running nothing.
        let supported = dbf_scenario::engine::eligible_engines(&scenario, engines, true);
        scenario.engines = if supported.is_empty() {
            engines.to_vec()
        } else {
            supported
        };
    }
    if let Some(seeds) = a.get(&SEEDS) {
        scenario.seeds = seeds.to_vec();
    }
    scenario
}

/// Write a JSON document to `path`, newline-terminated.
fn write_doc(path: &str, json: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{json}\n")).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Print the JSON report under `--json` and the summary otherwise, and
/// write the report to `--out` when one is given.
fn emit(a: &Args, json: &Json, summary: &str) -> Result<(), String> {
    if a.on(&JSON) {
        println!("{json}");
    } else {
        println!("{summary}");
    }
    match a.text(&OUT) {
        Some(path) => write_doc(path, json),
        None => Ok(()),
    }
}

/// The [`RunConfig`] of the single-run commands: every available core by
/// default (a lone run has nothing else to share the machine with),
/// overridable with `--threads`.
fn run_config(a: &Args) -> RunConfig {
    RunConfig {
        threads: a.get(&THREADS).copied().unwrap_or_else(default_jobs).max(1),
    }
}

/// Run `f` on a sink writing the JSONL trace file `path`, when one was
/// requested, and on a no-op sink otherwise.
fn with_trace<T>(
    path: Option<&str>,
    f: impl FnOnce(&mut dyn TelemetrySink) -> Result<T, SpecError>,
) -> Result<T, String> {
    let Some(path) = path else {
        return f(&mut telemetry::NoopSink).map_err(|e| e.to_string());
    };
    let mut tracer =
        TraceSink::to_file(path).map_err(|e| format!("cannot create trace file {path:?}: {e}"))?;
    let out = f(&mut tracer).map_err(|e| e.to_string())?;
    tracer
        .finish()
        .map_err(|e| format!("cannot write trace file {path:?}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(out)
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
    let report = with_trace(trace, |sink| {
        run_scenario_traced(
            scenario,
            cfg,
            &mut Tee {
                a: &mut agg,
                b: sink,
            },
        )
    })?;
    Ok((report, agg.finish()))
}

fn cmd_list(_: &Args) -> Result<bool, String> {
    for s in builtins::all() {
        println!(
            "{:<22} {}",
            s.name,
            s.description.split('.').next().unwrap_or("")
        );
    }
    Ok(true)
}

fn cmd_list_engines(_: &Args) -> Result<bool, String> {
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
        let events: Vec<_> = d.events.iter().map(|e| e.name()).collect();
        println!(
            "{:<12} runs={:<8} max_n={:<6} parallel={:<4} events={:<22} {}",
            d.name,
            runs,
            max_n,
            par,
            events.join(","),
            d.summary
        );
    }
    Ok(true)
}

fn cmd_show(a: &Args) -> Result<bool, String> {
    let name = &a.operand;
    let s = builtins::by_name(name).ok_or_else(|| format!("unknown builtin {name:?}"))?;
    println!("{}", s.to_toml_string());
    Ok(true)
}

fn cmd_list_sweeps(_: &Args) -> Result<bool, String> {
    for s in sweeps::all() {
        println!(
            "{:<28} {}",
            s.name,
            s.description.split('.').next().unwrap_or("")
        );
    }
    Ok(true)
}

fn cmd_show_sweep(a: &Args) -> Result<bool, String> {
    let name = &a.operand;
    let s = sweeps::by_name(name).ok_or_else(|| format!("unknown built-in sweep {name:?}"))?;
    println!("{}", s.to_toml_string());
    Ok(true)
}

fn cmd_run(a: &Args) -> Result<bool, String> {
    let target = &a.operand;
    let scenario = apply_overrides(load_scenario(target)?, a);
    let cfg = run_config(a);
    let threads = cfg.threads;
    let (report, metrics) = run_traced(&scenario, &cfg, a.text(&TRACE))?;
    let json = with_telemetry(report.to_json(), &metrics, Some(threads));
    let mut summary = report.summary();
    if a.on(&METRICS) {
        summary.push('\n');
        summary.push_str(&metrics_table(&metrics));
    }
    emit(a, &json, &summary)?;
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
fn cmd_profile(a: &Args) -> Result<bool, String> {
    let scenario = apply_overrides(load_scenario(&a.operand)?, a);
    let cfg = run_config(a);
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

fn run_one_sweep(sweep: &Sweep, target: &str, a: &Args) -> Result<SweepReport, String> {
    let run_opts = SweepRunOptions {
        jobs: a.get(&JOBS).copied().unwrap_or_else(default_jobs),
        point: a.get(&POINT).copied(),
        replicate: a.get(&REPLICATE).copied(),
        // Sweeps already parallelize across runs, so intra-run threads
        // default to 1; `--threads` opts in (e.g. for grids whose wall time
        // is one huge point, or single-cell reproductions).
        threads: a.get(&THREADS).copied().unwrap_or(1),
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

fn cmd_sweep(a: &Args) -> Result<bool, String> {
    let sweep = load_sweep(&a.operand)?;
    let report = run_one_sweep(&sweep, &a.operand, a)?;
    emit(a, &report.to_json(a.on(&TIMING)), &report.summary())?;
    Ok(report.ok())
}

fn cmd_sweep_bench(a: &Args) -> Result<bool, String> {
    let mut reports = Vec::new();
    let mut all_ok = true;
    for sweep in sweeps::all() {
        let report = run_one_sweep(&sweep, &sweep.name, a)?;
        println!("{}", report.summary());
        all_ok &= report.ok();
        reports.push(report);
    }
    let path = a.text(&OUT).unwrap_or("BENCH_sweeps.json");
    write_doc(path, &bench_sweeps_json(&reports))?;
    Ok(all_ok)
}

fn cmd_fuzz(a: &Args) -> Result<bool, String> {
    let fuzz_opts = FuzzOptions {
        cases: a.get(&CASES).copied().unwrap_or(100),
        seed: a.get(&SEED).copied().unwrap_or(1),
        jobs: a.get(&JOBS).copied().unwrap_or_else(default_jobs),
        case: a.get(&CASE).copied(),
        corpus: PathBuf::from(a.text(&CORPUS).unwrap_or("corpus")),
    };
    let report = run_fuzz(&fuzz_opts).map_err(|e| e.to_string())?;
    emit(a, &report.to_json(), &report.summary())?;
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

fn cmd_replay(a: &Args) -> Result<bool, String> {
    let dir = &a.operand;
    let results = replay_corpus(Path::new(dir)).map_err(|e| e.to_string())?;
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
fn cmd_bounds(a: &Args) -> Result<bool, String> {
    let scenario = load_scenario(&a.operand)?;
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
    emit(a, &json, &summary)?;
    Ok(true)
}

/// `scenarios run-all`: every builtin, traced, through the differential
/// checker and the bound audit.  Its JSON document (`BENCH_scenarios.json`
/// under `--out`) holds each scenario's `run --json` report without the
/// `timing` block.
fn cmd_run_all(a: &Args) -> Result<bool, String> {
    let json_out = a.on(&JSON);
    let cfg = run_config(a);
    let mut entries = Vec::new();
    let mut all_met = true;
    for scenario in builtins::all() {
        // An engine-matrix run (`run-all --engines …`) quantifies over the
        // *positive* theorems: the negative controls (wedgie, bad gadget)
        // expect disagreement or divergence from their own specific engine
        // sets, which an override would invalidate.
        if let Some(requested) = a.get(&ENGINES) {
            if !(scenario.expect.converges && scenario.expect.agreement) {
                if !json_out {
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
                if !json_out {
                    println!(
                        "scenario {:<24} skipped (none of the requested engines support \
                         its algebra)",
                        scenario.name
                    );
                }
                continue;
            }
        }
        let scenario = apply_overrides(scenario, a);
        let (report, metrics) =
            run_traced(&scenario, &cfg, None).map_err(|e| format!("{}: {e}", scenario.name))?;
        if !json_out {
            println!("{}", report.summary());
        }
        all_met &= report.expectation_met();
        all_met &= audit_bounds(&scenario, &report, json_out);
        entries.push(with_telemetry(report.to_json(), &metrics, None));
    }
    let json = Json::Obj(vec![
        ("suite".into(), Json::str("dbf-scenario builtins")),
        ("schema_version".into(), Json::Int(4)),
        ("threads".into(), Json::uint(cfg.threads as u64)),
        ("scenarios".into(), Json::Arr(entries)),
    ]);
    if json_out {
        println!("{json}");
    }
    if let Some(path) = a.text(&OUT) {
        write_doc(path, &json)?;
    }
    Ok(all_met)
}

/// The bound audit: a scenario that requests a bounded-rounds engine on a
/// theorem-covered algebra must actually carry predicted bounds on those
/// runs and stay within every one of them.  This catches the annotation
/// silently disappearing, which `expectation_met` alone (trivially true
/// with no bounds) would not.
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
        .filter_map(|r| r.totals().tightness)
        .reduce(f64::max);
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

/// `scenarios gen-trace`: write a seeded churn trace in the line-oriented
/// text format the route server replays.
fn cmd_gen_trace(a: &Args) -> Result<bool, String> {
    let n = a.get(&NODES).copied().unwrap_or(64);
    let topology = match a.text(&TOPOLOGY) {
        Some(family) => TopologySpec::sized(family, n).map_err(|e| e.to_string())?,
        None => TopologySpec::Ring { n },
    };
    // Any simple path has at most n-1 hops, so a limit of n never
    // truncates a real route while keeping the carrier finite.
    let algebra = a.text(&ALGEBRA).unwrap_or("hopcount");
    let algebra = ServeAlgebra::named(algebra, n as u64).map_err(|e| e.to_string())?;
    let spec = TraceSpec {
        topology,
        algebra,
        events: a.get(&EVENTS).copied().unwrap_or(100_000),
        seed: a.get(&SEED).copied().unwrap_or(1),
        query_permille: a.get(&QUERIES).copied().unwrap_or(100),
        // Off by default so traces regenerate byte-identically to the
        // pre-`set_weight` format for the same seed.
        weight_permille: a.get(&WEIGHTS).copied().unwrap_or(0),
    };
    let trace = generate_trace(&spec).map_err(|e| e.to_string())?;
    let path = a.text(&OUT).unwrap_or("churn.trace");
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
/// ~80 GB, while a 1024-wide destination slab streams through ~1.6 GB per
/// lane.  Blocks run one per lane, as many lanes as the machine has
/// hardware threads (two lanes: ~3.2 GB; `--block 512` halves it).
/// The emitted record (printed, and written via `--out`) is what
/// `BENCH_sweeps.json` carries under `scale_runs`.
fn cmd_scale_run(a: &Args) -> Result<bool, String> {
    use dbf_algebra::prelude::{BoundedHopCount, NatInf, ShortestPaths};
    use dbf_matrix::{blocked_fixed_point, AdjacencyMatrix, BlockedOutcome};

    let n = a.get(&NODES).copied().unwrap_or(100_000);
    let m = a.get(&M).copied().unwrap_or(2);
    let seed = a.get(&SEED).copied().unwrap_or(1);
    let block = a.get(&BLOCK).copied().unwrap_or(1024).max(1);
    let algebra = a.text(&ALGEBRA).unwrap_or("hopcount");
    let carrier = ServeAlgebra::named(algebra, n as u64).map_err(|e| e.to_string())?;
    let fabric = TopologySpec::AsGraph { n, m, seed };
    let shape = dbf_scenario::run::build_shape(&fabric).map_err(|e| e.to_string())?;
    let links = shape.edge_count();
    let blocks_expected = n.div_ceil(block);
    // Blocks run in waves, one per lane; each lane iterates two n × w slab
    // buffers of one route each (both carriers' routes are a `NatInf`).
    let lanes = dbf_matrix::default_jobs().min(blocks_expected);
    let slab_bytes = lanes * 2 * n * block.min(n) * std::mem::size_of::<NatInf>();
    eprintln!(
        "scale-run: as_graph(n={n}, m={m}, seed={seed}) has {links} directed edges; \
         {blocks_expected} destination blocks of width <= {block}, {lanes} lane(s) at a time; \
         slabs {slab_bytes} bytes ({:.1} MiB); row kernel {}",
        slab_bytes as f64 / (1024.0 * 1024.0),
        dbf_matrix::row_kernel()
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
    emit(a, &json, &summary)?;
    Ok(out.converged)
}

/// The input of `serve` and `chaos`: the `--replay` trace, the thread
/// budget and the batch cap.
fn replay_input(a: &Args, command: &str) -> Result<(ChurnTrace, usize, usize), String> {
    let path = a.text(&REPLAY).ok_or_else(|| {
        format!("{command} needs --replay FILE (generate one with `scenarios gen-trace`)")
    })?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let trace = ChurnTrace::parse(&text).map_err(|e| e.to_string())?;
    Ok((
        trace,
        run_config(a).threads,
        a.get(&BATCH).copied().unwrap_or(64).max(1),
    ))
}

/// The fault plan in the TOML file at `path`.
fn read_plan(path: &str) -> Result<FaultPlan, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read fault plan {path:?}: {e}"))?;
    load_plan(&text).map_err(|e| e.to_string())
}

/// `scenarios serve`: replay a churn trace through the long-lived route
/// server and report throughput, coalescing and latency percentiles as
/// `BENCH_serve.json`.
fn cmd_serve(a: &Args) -> Result<bool, String> {
    let (trace, threads, batch) = replay_input(a, "serve")?;
    let serve_opts = serve_options(a, threads, batch)?;
    let report = with_trace(a.text(&TRACE), |sink| {
        replay_trace_opts(&trace, &serve_opts, sink)
    })?;
    let json = serve_json(&report, threads, batch);
    emit(a, &json, &serve_summary(&report, threads, batch))?;
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
/// recovery, and a one-crash fault plan (`--crash-at OFFSET`).  Fault
/// plans of every kind run under `chaos`, the one command that applies
/// their WAL tampering.
fn serve_options(a: &Args, threads: usize, batch: usize) -> Result<ServeOptions, String> {
    let (recover, checkpoint) = (a.text(&RECOVER), a.text(&CHECKPOINT));
    // A recovered server keeps checkpointing into the store it recovered
    // from, so a second, different store would silently go unused.
    if let (Some(r), Some(c)) = (recover, checkpoint) {
        if Path::new(r) != Path::new(c) {
            return Err(format!(
                "--checkpoint {c} and --recover {r} name different stores; a recovered \
                 server checkpoints into the store it recovers from"
            ));
        }
    }
    let checkpoint_dir = recover.or(checkpoint).map(PathBuf::from);
    let every = a.get(&CHECKPOINT_EVERY).copied();
    if checkpoint_dir.is_none() && every.is_some() {
        return Err("--checkpoint-every needs --checkpoint DIR (or --recover DIR)".into());
    }
    Ok(ServeOptions {
        threads,
        batch_max: batch,
        // The bound-derived deadline is the documented default: the
        // convergence-bound oracle times the measured per-round cost,
        // with generous headroom, so an unloaded run never degrades.
        deadline: a.get(&DEADLINE_MS).copied().unwrap_or(DeadlineCfg::Auto),
        checkpoint_dir,
        checkpoint_every: every.unwrap_or(64),
        recover: recover.is_some(),
        faults: a
            .get(&CRASH_AT)
            .map(|&at| std::sync::Arc::new(FaultPlan::new(0).with(FaultKind::CrashAtEvent, at))),
    })
}

/// `scenarios chaos`: run fault plans against a churn trace, recover, and
/// verify digest-identity plus the convergence-bound oracle.  With
/// `--faults FILE` runs that one plan; without it, every built-in plan.
fn cmd_chaos(a: &Args) -> Result<bool, String> {
    let (trace, threads, batch) = replay_input(a, "chaos")?;
    let plans: Vec<(String, FaultPlan)> = match a.text(&FAULTS) {
        Some(file) => vec![(file.to_string(), read_plan(file)?)],
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
    let base = match a.text(&CHECKPOINT) {
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
    if a.text(&CHECKPOINT).is_none() {
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
    emit(a, &json, &summary)?;
    if failed > 0 {
        return Err(format!("{failed} chaos plan(s) failed verification"));
    }
    Ok(true)
}

/// Run the command line `argv` (without the program name) and return its
/// exit status: 0 when the verdict matched, 1 when it did not, 2 on a
/// usage or input error.
fn status(argv: &[String]) -> u8 {
    let Some(cmd) = argv
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == name.as_str()))
    else {
        return usage();
    };
    let rest = &argv[1..];
    let (operand, rest) = match (cmd.operand, rest.split_first()) {
        (None, _) => ("", rest),
        (Some(_), Some((operand, rest))) => (operand.as_str(), rest),
        (Some(_), None) => return usage(),
    };
    match Args::parse(cmd.flags, operand, rest).and_then(|a| (cmd.run)(&a)) {
        Ok(true) => 0,
        Ok(false) => {
            eprintln!("differential verdict did not match the scenario expectation");
            1
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            2
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(status(&argv))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// A value the flag accepts.
    fn accepted(flag: &dyn AnyFlag) -> &'static str {
        ["8", "sync,delta"]
            .into_iter()
            .find(|v| flag.read(v).is_ok())
            .unwrap_or_else(|| panic!("{} accepts no sample", flag.name()))
    }

    #[test]
    fn every_command_takes_exactly_the_flags_it_declares() {
        let every = every_flag();
        assert_eq!(every.len(), 31);
        for cmd in COMMANDS {
            let mut argv = Vec::new();
            for flag in cmd.flags {
                argv.push(flag.name());
                if !flag.meta().is_empty() {
                    argv.push(accepted(*flag));
                }
            }
            let args = Args::parse(cmd.flags, "", &strings(&argv))
                .unwrap_or_else(|e| panic!("{} {argv:?}: {e}", cmd.name));
            assert_eq!(args.given.len(), cmd.flags.len(), "{}", cmd.name);

            let valid: Vec<&str> = cmd.flags.iter().map(|f| f.name()).collect();
            let valid = if valid.is_empty() {
                "none".into()
            } else {
                valid.join(", ")
            };
            let others = every
                .iter()
                .filter(|f| cmd.flags.iter().all(|g| g.name() != f.name()));
            for flag in others {
                let err = Args::parse(cmd.flags, "", &strings(&[flag.name(), "1"])).err();
                assert_eq!(
                    err,
                    Some(format!(
                        "option {} does not apply to this command (valid here: {valid})",
                        flag.name()
                    ))
                );
                let argv: Vec<&str> = [cmd.name]
                    .into_iter()
                    .chain(cmd.operand.map(|_| "count-to-infinity"))
                    .chain([flag.name(), "1"])
                    .collect();
                assert_eq!(status(&strings(&argv)), 2, "{argv:?}");
            }
        }
        assert_eq!(
            Args::parse(&[], "", &strings(&["extra"])).err().as_deref(),
            Some("unknown option \"extra\"")
        );
    }

    #[test]
    fn the_readme_carries_the_usage_text() {
        let readme = include_str!("../../../../README.md");
        assert!(
            readme.contains(&format!("```text\n{}```", usage_text())),
            "README.md's CLI reference must be `scenarios` run with no arguments:\n{}",
            usage_text()
        );
    }

    #[test]
    fn a_missing_value_names_the_flag_and_what_it_needs() {
        for cmd in COMMANDS {
            for flag in cmd.flags.iter().filter(|f| !f.meta().is_empty()) {
                let missing = Args::parse(cmd.flags, "", &strings(&[flag.name()])).err();
                let want = format!("{} needs a value ({})", flag.name(), flag.meta());
                assert_eq!(missing, Some(want));
            }
        }
        let flags: [&dyn AnyFlag; 6] = [&JOBS, &JSON, &OUT, &RECOVER, &CRASH_AT, &DEADLINE_MS];
        for (argv, want) in [
            (&["--jobs"][..], "--jobs needs a value (N)"),
            (&["--json", "--out"], "--out needs a value (FILE)"),
            (&["--recover"], "--recover needs a value (DIR)"),
            (&["--crash-at"], "--crash-at needs a value (OFFSET)"),
            (&["--deadline-ms"], "--deadline-ms needs a value (auto|N|0)"),
        ] {
            let err = Args::parse(&flags, "", &strings(argv)).err();
            assert_eq!(err.as_deref(), Some(want));
        }
    }

    #[test]
    fn a_bad_value_names_the_flag_and_the_parse_error() {
        for cmd in COMMANDS {
            for flag in cmd.flags.iter().filter(|f| !f.meta().is_empty()) {
                if flag.read("-1").is_err() {
                    let err = Args::parse(cmd.flags, "", &strings(&[flag.name(), "-1"])).err();
                    let err = err.expect("refused");
                    assert!(err.starts_with(&format!("bad {}: ", flag.name())), "{err}");
                }
            }
        }
        // Every value but a file, a directory or a name the library reads
        // later (topology, algebra) is a number, a list or a deadline.
        let refusing = every_flag().into_iter().filter(|f| f.read("-1").is_err());
        assert_eq!(refusing.count(), 31 - 3 - 9);
        let flags: [&dyn AnyFlag; 8] = [
            &JOBS,
            &CHECKPOINT_EVERY,
            &QUERIES,
            &SEEDS,
            &CRASH_AT,
            &JSON,
            &OUT,
            &DEADLINE_MS,
        ];
        for (argv, want) in [
            (
                &["--jobs", "many"][..],
                "bad --jobs: invalid digit found in string",
            ),
            (
                &["--checkpoint-every", "0"],
                "bad --checkpoint-every: must be at least 1",
            ),
            (
                &["--queries", "4294967296"],
                "bad --queries: number too large to fit in target type",
            ),
            (&["--seeds", ","], "bad --seeds: the list is empty"),
            (
                &["--seeds", "1,x"],
                "bad --seeds: seed \"x\": invalid digit found in string",
            ),
            (
                &["--crash-at", ""],
                "bad --crash-at: cannot parse integer from empty string",
            ),
        ] {
            let err = Args::parse(&flags, "", &strings(argv)).err();
            assert_eq!(err.as_deref(), Some(want));
        }
        let argv = ["--jobs", "3", "--json", "--out", "f.json", "--jobs", "8"];
        let ok = Args::parse(&flags, "", &strings(&argv)).expect("valid");
        assert_eq!(
            (ok.get(&JOBS), ok.on(&JSON), ok.text(&OUT)),
            (Some(&8), true, Some("f.json")),
            "the last of a repeated flag wins"
        );
        for (text, want) in [
            ("auto", DeadlineCfg::Auto),
            ("0", DeadlineCfg::Off),
            ("00", DeadlineCfg::Millis(0)),
            ("250", DeadlineCfg::Millis(250)),
        ] {
            let ok = Args::parse(&flags, "", &strings(&["--deadline-ms", text])).expect("valid");
            assert_eq!(ok.get(&DEADLINE_MS), Some(&want), "{text}");
        }
    }
}
