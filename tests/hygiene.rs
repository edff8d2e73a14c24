//! The workspace's hygiene rules, as one table.
//!
//! Each rule keeps a shape that a simplification paid for — one σ solve,
//! one row kernel for σ and δ, one schedule value, one transpose, one
//! routing table in the route server — by refusing the lines that would
//! undo it.  A rule is a row of [`RULES`]: its name, its checks (the files
//! each reads, the part of a file it reads, what it refuses there, the
//! files where that is allowed, and why), and one planted violation.
//! [`every_rule_holds_on_this_tree`] runs the table on the repository;
//! [`every_plant_fails_its_own_rule`] runs it on a copy with each plant,
//! so a rule that stops catching what it was written for fails too.
//!
//! The tree is read once, into memory, from the repository root, and a
//! plant edits an in-memory copy: nothing here starts a process or writes
//! a file.  The walk skips what `.gitignore` lists (build and benchmark
//! output) and this file, whose patterns and plants would match
//! themselves.
//!
//! A pattern is a list of literals, any of which matches.  `\b` at either
//! end of a literal asks for a word boundary there, and a leading `^` for
//! the start of the line.  What a literal cannot say is a small predicate
//! over one line, tried on the lines that hold one of its needles.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

/// A shape the workspace keeps, the checks that refuse its undoing, and a
/// line that undoes it.
struct Rule {
    name: &'static str,
    checks: &'static [Check],
    plant: Plant,
}

/// One refusal.
struct Check {
    /// Globs over repository paths: `*` within a path component, `**`
    /// across them.  A glob that matches a directory reads everything
    /// under it.
    files: &'static [&'static str],
    /// Globs of the files where what the check refuses is allowed: it does
    /// not read them.
    allow: &'static [&'static str],
    scope: Scope,
    find: Find,
    message: &'static str,
}

/// The part of a file a check reads.
#[derive(Clone, Copy)]
enum Scope {
    /// Every line.
    File,
    /// The lines outside `#[cfg(test)]` items, each cut at its first `//`.
    /// An item runs from its column-0 attribute through its first line if
    /// that ends in `;`, else through the next column-0 `}`.
    NonTest,
    /// The lines before `mod tests {`.
    BeforeTests,
    /// The bodies of these methods: from `    fn NAME(` or
    /// `    pub fn NAME(` through the next line that is `    }`.
    Bodies(&'static [&'static str]),
}

/// What matches on one line.
enum Pat {
    /// Any of these literals.
    Lit(&'static [&'static str]),
    /// The predicate, on lines that hold one of the needles.
    Fn(&'static [&'static str], fn(&str) -> bool),
}

/// What a check refuses.
enum Find {
    /// A line in scope that matches.
    Line(Pat),
    /// A number of matching lines outside `min..=max`.
    Count(Pat, usize, usize),
    /// A literal of this list written other than exactly once in the scope
    /// of all the files together.
    Once(fn(&Tree) -> Vec<String>),
    /// A file at all.
    Exists,
    /// A file of more than this many lines.
    Longer(usize),
    /// A member manifest whose package no other manifest depends on.
    Orphans,
}

/// A line inserted into a file: after the first line that holds `after`,
/// or at the end when `after` is empty (the file may be new).
struct Plant {
    file: &'static str,
    after: &'static str,
    line: &'static str,
}

/// A check that reads every line of `files`, with nothing allowed.
const fn check(files: &'static [&'static str], find: Find, message: &'static str) -> Check {
    Check {
        files,
        allow: &[],
        scope: Scope::File,
        find,
        message,
    }
}

impl Check {
    /// The check, reading only `scope` of each file.
    const fn within(mut self, scope: Scope) -> Check {
        self.scope = scope;
        self
    }

    /// The check, not reading `allow`.
    const fn allowing(mut self, allow: &'static [&'static str]) -> Check {
        self.allow = allow;
        self
    }
}

/// A line holding any of `lits`.
const fn any(lits: &'static [&'static str]) -> Find {
    Find::Line(Pat::Lit(lits))
}

const fn plant(file: &'static str, after: &'static str, line: &'static str) -> Plant {
    Plant { file, after, line }
}

const MANIFESTS: &[&str] = &[
    "Cargo.toml",
    "crates/*/Cargo.toml",
    "crates/compat/*/Cargo.toml",
];
const CODE: &[&str] = &["crates", "src", "tests", "examples"];
const SERVER: &str = "crates/scenario/src/serve/server.rs";
const SERVER_ONLY: &[&str] = &[SERVER];
const FIELDS: &[&str] = &["crates/scenario/src/fields.rs"];
/// The scenario crate's sources as the literal counts read them: the serve
/// test modules and the scenario catalogue (whose phase labels are prose:
/// one is called "line") are not counted.
const SCENARIO_SRC: &[&str] = &["crates/scenario/src/**.rs"];
const SCENARIO_NOT_COUNTED: &[&str] = &["**/tests.rs", "**/resident_tests.rs", "**/builtins.rs"];

#[rustfmt::skip]
static RULES: &[Rule] = &[
    Rule {
        name: "no orphaned member",
        // Every member but dbf-bench (the paper's experiments and their
        // binary: nothing links it) is a dependency of some other
        // manifest, so a shim whose last consumer moved to std cannot
        // linger in the build.
        checks: &[
            check(MANIFESTS, Find::Orphans, "a workspace member is a dependency of no other manifest"),
        ],
        plant: plant("crates/compat/bytes/Cargo.toml", "", "name = \"bytes\""),
    },
    Rule {
        name: "no shim where std does the job",
        // Channels, mutexes and byte buffers come from std; the one
        // fan-out is dbf_matrix::WorkerPool::map.
        checks: &[
            check(CODE, any(&["crossbeam", "parking_lot", "bytes::"]),
                "the crossbeam/parking_lot/bytes stand-ins were removed: use std"),
        ],
        plant: plant("crates/matrix/src/pool.rs", "use std::collections::VecDeque;",
            "use crossbeam::channel::unbounded;"),
    },
    Rule {
        name: "one measurement path",
        // Speeds are recorded by benchmark/ (and diffed against the
        // parent); properties are asserted by tests tier 1 runs.  Nothing
        // times itself through a bench target.
        checks: &[
            check(&["Cargo.toml", "Cargo.lock", "crates", ".github"], any(&["criterion"]),
                "the bench-harness stand-in was removed: record speeds in benchmark/, assert \
                 properties in tests"),
            check(&["crates/*/benches", "crates/compat/*/benches", "benches"], Find::Exists,
                "a bench target: record speeds in benchmark/, assert properties in tests"),
            check(MANIFESTS, any(&["^[[bench]]"]),
                "a bench target: record speeds in benchmark/, assert properties in tests"),
        ],
        plant: plant("crates/matrix/benches/sigma.rs", "", "fn main() {}"),
    },
    Rule {
        name: "no n³ table in the asynchronous layer",
        // The message-level engines hear on |E|·n (link, destination)
        // slots (dbf_matrix::RibIn), not on a table indexed by every
        // possible sender.
        checks: &[
            check(&["crates/asynch/src", "crates/protocols/src"], any(&["Vec<Vec<Vec<"]),
                "a thrice-nested table in the asynchronous layer: index it per link \
                 (RibIn::slot) or flatten it"),
        ],
        plant: plant("crates/asynch/src/sim.rs", "pub struct EventSim<'a, A: RoutingAlgebra> {",
            "    heard: Vec<Vec<Vec<u64>>>,"),
    },
    Rule {
        name: "one phase loop and no row relabeling",
        // Every engine runs in the one phase loop (engine::run_engine), and
        // node relabeling was measured and removed: neither the per-engine
        // trait nor the relabeling types come back under another spelling.
        checks: &[
            check(&["crates", "README.md", "docs", ".github", ".claude"],
                any(&["row-order", "row_order", "RowOrder", "NodePermutation", "run_ordered",
                      "engine_for", "RelabelSink"]),
                "the per-engine trait and the row relabeling were removed: add an engine as a \
                 step in engine::run_engine; bring a workload on which a non-identity order \
                 wins before relabeling again"),
        ],
        plant: plant("crates/scenario/src/engine.rs", "impl<A: RoutingAlgebra> Problem<A> {",
            "    pub fn engine_for(&self, kind: EngineKind) {"),
    },
    Rule {
        name: "a route-server core that reads no clock and opens no file",
        // The server core reads the clock and waits only through
        // serve::Clock and touches no file, so a scripted clock makes a
        // deadline run reproducible.  The split that made it so stays
        // split, and nothing retries a σ round: a round is a pure function
        // of its inputs, so one that panicked would panic again.
        checks: &[
            check(SERVER_ONLY, any(&["Instant::now", "thread::sleep", "std::fs"]),
                "the server core takes time from its Clock and leaves files to \
                 serve::replay"),
            check(&["crates"], any(&["scoped_retry"]),
                "the pool does not retry: a failed round parks its flush as a structured kernel \
                 problem"),
            check(&["crates/scenario/src/serve.rs"], Find::Exists,
                "serve.rs is back: the route server lives in crates/scenario/src/serve/"),
            check(&["crates/scenario/src/serve/*.rs"], Find::Longer(1000),
                "a serve module over 1000 lines: split it along a seam, as serve.rs was"),
        ],
        plant: plant(SERVER, "let t0 = self.clock.now();",
            "        let wall = std::time::Instant::now();"),
    },
    Rule {
        name: "one schedule value and one event queue",
        // (α, β) has one representation and S1–S3 one decider:
        // dbf_async::Schedule, two flat vectors, and Schedule::certify.
        // The message-level engines pop simulated time from one queue, the
        // message loop's EventQueue, which holds the one reversed ordering
        // behind the loop (event_loop/queue.rs).
        // The S1 window of a random schedule is ScheduleParams::s1_window.
        checks: &[
            check(&["crates", "docs", "README.md"],
                any(&["ScheduleTrace", "check_s1_window", "check_s2\\b", "check_s3_lag"]),
                "the schedule recorder and the boolean axiom checkers were removed: call \
                 Schedule::certify(w, l)"),
            check(&["crates/asynch/src"], any(&["Vec<Vec<bool>>"]),
                "a nested activation table: alpha is one flat Vec<bool> beside the flat lags"),
            check(&["crates/asynch/src/sim.rs", "crates/protocols/src/rip.rs",
                    "crates/protocols/src/bgp.rs", "crates/asynch/src/event_loop.rs"],
                Find::Line(Pat::Fn(&[" Ord for"], impl_ord)),
                "a hand-written heap entry: schedule events on the message loop's EventQueue \
                 (Net::send, Net::schedule)"),
            check(&["crates"], Find::Count(Pat::Fn(&[".ceil() as "], s1_window), 0, 1),
                "the S1 window formula is written out twice: call ScheduleParams::s1_window"),
        ],
        plant: plant("crates/asynch/src/schedule.rs", "impl Schedule {",
            "    pub fn check_s2(&self, lag: usize) -> bool {"),
    },
    Rule {
        name: "one message loop",
        // sim, rip and bgp are protocol rules over dbf_async::event_loop:
        // it alone creates and pops the event queue, its Net::send alone
        // draws for the channel, and its Net::decide is the one decide
        // step over a RibIn.
        checks: &[
            check(&["crates/asynch/src", "crates/protocols/src"],
                any(&["EventQueue", "BinaryHeap", "queue.pop("]),
                "an event queue outside the message loop: run the engine as a \
                 dbf_async::event_loop::Protocol")
                .allowing(&["crates/asynch/src/event_loop.rs", "crates/asynch/src/event_loop/*.rs"]),
            check(&["crates/asynch/src/sim.rs", "crates/protocols/src"],
                any(&["gen_bool(", "fn decide(", "fn recompute_entry(", ".best("]),
                "a channel draw or a decide step outside the message loop: call Net::send or \
                 Net::decide")
                .within(Scope::NonTest),
        ],
        plant: plant("crates/protocols/src/rip.rs", "struct Rip {",
            "    queue: EventQueue<Event>,"),
    },
    Rule {
        name: "a resident serve kernel over a topology of sorted rows",
        // A flush costs its frontier: the route server keeps one resident
        // stepper and builds no stepper or table per flush, and a topology
        // is stored as sorted rows, not as a map of edges — nor are the
        // weight overrides the rebuild looks up once per edge.
        checks: &[
            check(&["crates/topology/src/graph.rs", "crates/scenario/src/serve/types.rs"],
                any(&["BTreeMap"]),
                "Topology and WeightOverrides store sorted rows: an edge map is back in \
                 topology/src/graph.rs or scenario/src/serve/types.rs"),
            check(SERVER_ONLY, Find::Count(Pat::Lit(&["fn flush(", "fn commit("]), 2, 2),
                "RouteServer::flush and ::commit not found in server.rs: update this check")
                .within(Scope::Bodies(&["flush", "commit"])),
            check(SERVER_ONLY, any(&["FixedPoint::new", "state.clone()"]),
                "a flush reseeds the resident stepper: no stepper or table is built per flush")
                .within(Scope::Bodies(&["flush", "commit"])),
        ],
        plant: plant(SERVER, "let before = self.kernel.share();",
            "        let fresh = FixedPoint::new(&new_adj, state, &dirty);"),
    },
    Rule {
        name: "one spec reader",
        // Scenarios, sweeps and fault plans decode through the checked
        // reader in fields.rs; a raw toml::Value accessor elsewhere is a
        // second decoder that can wrap a number or default a mistyped value.
        checks: &[
            check(&["crates/scenario/src"],
                any(&["as_integer(", "as_float(", "as_array(", "as_table(", "Value::as_"]),
                "a raw toml::Value accessor outside crates/scenario/src/fields.rs: decode \
                 through Fields/Item")
                .allowing(FIELDS),
        ],
        plant: plant("crates/scenario/src/spec.rs",
            "pub fn from_toml_str(input: &str) -> Result<Self, SpecError> {",
            "        let limit = doc.get(\"limit\").and_then(|v| v.as_integer());"),
    },
    Rule {
        name: "one declaration per spec vocabulary",
        // A type's keys are visited by one function (fields::Keys) that
        // both reads and writes TOML and a change's trace/WAL line, and a
        // variant's name lives in one table (fields::Named).  So each
        // change verb and each topology family is one string literal in
        // crates/scenario/src, CLI included.  Only fields.rs builds toml
        // values.
        checks: &[
            check(SCENARIO_SRC,
                Find::Once(|_| quoted(&[
                    "set_link", "set_edge", "remove_edge", "fail_link", "set_weight", "add_node",
                    "line", "ring", "star", "complete", "grid", "connected_random", "as_graph",
                    "leaf_spine", "tiered", "explicit",
                ])),
                "a vocabulary word is not one string literal in crates/scenario/src: name it \
                 once, in its type's Named table")
                .within(Scope::NonTest).allowing(SCENARIO_NOT_COUNTED),
            check(&["crates/scenario/src"],
                any(&["\\bValue::String(", "\\bValue::Integer(", "\\bValue::Float(",
                      "\\bValue::Boolean(", "\\bValue::Array(", "\\bValue::Table(",
                      "\\bTable::new("]),
                "a toml value built outside crates/scenario/src/fields.rs: declare the key in \
                 the type's Keys visit")
                .allowing(FIELDS),
        ],
        // RouteServer::restore follows a test-only impl block: counted,
        // because the scope ends each #[cfg(test)] item where it ends.
        plant: plant(SERVER, "let n = snap.nodes;", "        let verb = \"set_weight\";"),
    },
    Rule {
        name: "one spelling per fault kind",
        // FaultKind::name spells each kind; the plan reader, the CLI usage
        // and the telemetry all go through it.
        checks: &[
            check(&["crates/*/src/**.rs"],
                Find::Once(|_| quoted(&["crash", "truncate_wal", "corrupt_wal", "delay_flush"])),
                "a fault kind is not one string literal in crates/*/src: call FaultKind::name")
                .within(Scope::NonTest).allowing(&["**/tests.rs", "**/resident_tests.rs"]),
        ],
        plant: plant("crates/scenario/src/serve/replay.rs", "trace.algebra.validate()?;",
            "    let crashed = opts.faults.iter().any(|f| f.kind == \"crash\");"),
    },
    Rule {
        name: "a pool without a fault plane",
        // The fault plane is the faults this program can have and lives
        // beside its reader in chaos.rs.  A pool worker cannot die (every
        // job runs under catch_unwind) and a retried round fails again, so
        // the pool has no faults, no supervisor and no retry.
        checks: &[
            check(&["crates/matrix/src"],
                any(&["FaultPlan", "FaultKind", "arm_faults", "fn supervise"]),
                "dbf-matrix consults no fault plan: the fault plane lives in \
                 crates/scenario/src/chaos.rs"),
            check(&["crates/*/src"],
                any(&["PoolHandle", "with_pool", "pool_health", "kernel_retry", "note_retry",
                      "KillWorker", "StallBand", "FailEpoch"]),
                "the pool's fault kinds, its supervisor and the flush retry were removed: every \
                 caller uses the shared pool"),
        ],
        plant: plant("crates/matrix/src/pool.rs", "impl WorkerPool {", "    fn supervise(&self) {"),
    },
    Rule {
        name: "one renderer of the digest entry text",
        // dbf_matrix::blocked::fold_entry_text renders it; the per-entry
        // format string lives only in the tests that check the renderer.
        checks: &[
            check(&["crates/*/src"], any(&["({i},{j})="]),
                "render table entries through dbf_matrix::blocked::fold_entry_text, not a write! \
                 of the entry text"),
        ],
        plant: plant("crates/scenario/src/report.rs", "pub fn update(&mut self, s: &str) {",
            "        let entry = format!(\"({i},{j})={s};\");"),
    },
    Rule {
        name: "one reader of the command line",
        // Args::parse in scenarios.rs reads the command line, driven by the
        // commands and the flag declarations.  So each flag's name is one
        // string literal in crates/scenario/src: its declaration.
        checks: &[
            check(&["crates/scenario/src/bin/scenarios.rs"],
                Find::Count(Pat::Fn(&["flag(\"--"], |l| flag_names(l).next().is_some()),
                    30, usize::MAX),
                "the flag declarations were not found in scenarios.rs: update this check"),
            check(SCENARIO_SRC, Find::Once(declared_flags),
                "a flag is not one string literal in crates/scenario/src: read it through its \
                 declaration")
                .within(Scope::NonTest).allowing(SCENARIO_NOT_COUNTED),
            check(&["crates/scenario/src"], Find::Line(Pat::Fn(&["_OPTS"], opts_list)),
                "a per-command list of flag names: list the flags in the command's COMMANDS \
                 entry"),
            check(&["crates/scenario/src"], Find::Count(Pat::Lit(&["env::args"]), 1, 1),
                "argv is read once, in scenarios.rs's main: dispatch through Args::parse"),
        ],
        plant: plant("crates/scenario/src/bin/scenarios.rs",
            "let argv: Vec<String> = std::env::args().skip(1).collect();",
            "    let threads = argv.iter().any(|a| a == \"--threads\");"),
    },
    Rule {
        name: "one renderer of a scenario report",
        // ScenarioReport::to_json: `run --json` prints it and `run-all
        // --out BENCH_scenarios.json` collects it per builtin.  The second,
        // lossy renderer does not come back.
        checks: &[
            check(CODE, any(&["bench_json", "BenchRecord"]),
                "a second scenario-report renderer: BENCH_scenarios.json is run-all's document \
                 of ScenarioReport::to_json"),
            check(SCENARIO_SRC, Find::Once(|_| quoted(&["expectation_met"])),
                "\"expectation_met\" is not one string literal in crates/scenario/src: render \
                 reports through ScenarioReport::to_json")
                .within(Scope::NonTest).allowing(SCENARIO_NOT_COUNTED),
        ],
        plant: plant("crates/scenario/src/sweep.rs", "sweep.validate()?;",
            "    let met = \"expectation_met\";"),
    },
    Rule {
        name: "no option one value serves",
        // An option every caller set to one value is a constant, and a
        // public item only its own unit test reached was deleted.
        checks: &[
            check(&["crates/*/src"],
                any(&["triggered_updates", "update_interval", "ThreadedConfig", "fat_tree",
                      "binary_tree", "sigma_into", "with_round_budget", "EventClass::Faults",
                      "EventClass::Health", "fn replay_trace\\b", "reseed_from_above"]),
                "a removed option or unused public item is back: use the constant or the \
                 remaining entry point (the start from above comes back only with ROADMAP \
                 22(e)'s cheaper support check and a caller in the route server)"),
        ],
        plant: plant("crates/scenario/src/serve/replay.rs", "use std::sync::Arc;",
            "pub fn replay_trace(trace: &ChurnTrace) -> Result<ReplayReport, SpecError> {"),
    },
    Rule {
        name: "one message-engine outcome and no engine solves σ",
        // sim, rip and bgp all return dbf_matrix::MessageRun (tables and
        // MessageStats, no verdict); every engine's counters are a pure
        // function of (problems, seed); and no protocol engine solves σ or
        // tests stability to grade its own run outside its tests.
        checks: &[
            check(&["crates/*/src"],
                any(&["SimOutcome", "SimStats", "RipReport", "BgpReport", "ThreadedReport",
                      "ProtocolStats"]),
                "one message-engine outcome: return dbf_matrix::MessageRun and MessageStats"),
            check(&["crates/*/src", "crates/*/tests", "src", "tests"],
                any(&["run_threaded", "EngineKind::Threaded", "deterministic_counters",
                      "WALL_CLOCK_LIMIT"]),
                "the threaded engine was removed: every engine is deterministic in its seed, and \
                 δ runs the schedules"),
            check(&["crates/protocols/src/*.rs"], any(&["iterate_to_fixed_point", "is_stable"]),
                "a protocol engine judges its own run: return the tables and let the caller call \
                 is_stable")
                .within(Scope::NonTest),
        ],
        plant: plant("crates/protocols/src/bgp.rs",
            "pub fn run(mut self) -> MessageRun<BgpAlgebra> {",
            "        let settled = is_stable(&self.alg, &self.adj, &self.tables);"),
    },
    Rule {
        name: "one σ solve and δ does not judge",
        // FixedPoint::solve owns the budget rule, and every σ entry point
        // reaches it; IncrementalOutcome is only an alias of SyncOutcome.
        // δ reports and its caller's is_stable sweep judges it.
        checks: &[
            check(&["crates/*/src"], any(&[".verify("]),
                "a second σ budget rule: call FixedPoint::solve (or iterate_with), not verify")
                .allowing(&["crates/matrix/src/kernel.rs"]),
            check(&["crates"], any(&["struct IncrementalOutcome"]),
                "one σ outcome: IncrementalOutcome is a type alias of SyncOutcome"),
            check(&["crates/asynch/src/delta.rs"], any(&["is_stable"]),
                "δ judges its own run: return the state and let the caller call is_stable")
                .within(Scope::NonTest),
        ],
        plant: plant("crates/asynch/src/delta.rs",
            "let mut run = DeltaRun::new(alg, adj, x0, schedule);",
            "    let settled = is_stable(alg, adj, &run.state());"),
    },
    Rule {
        name: "one σ kernel told its rows by a mask and its threads by a count",
        // FixedPoint takes a dirty mask and a thread count: an empty
        // frontier is its one fixed-point certificate from any start, and
        // one thread is the band dispatcher's own case.
        checks: &[
            check(&["crates/matrix/src"],
                any(&["enum Start\\b", "trait Executor\\b", "struct Inline\\b"]),
                "the start enum, the executor trait and the inline executor were removed: pass \
                 FixedPoint a dirty mask and a thread count"),
        ],
        plant: plant("crates/matrix/src/kernel.rs", "use std::time::Instant;",
            "pub struct Inline;"),
    },
    Rule {
        name: "thread safety stated once on RoutingAlgebra",
        // RoutingAlgebra is Send + Sync, its Route and Edge too: a σ
        // engine needs no bound beyond the trait.
        checks: &[
            check(&["crates/*/src"],
                Find::Line(Pat::Fn(&["ParallelAlgebra", "Send", "Sync"], restated_bound)),
                "a restated thread-safety bound: RoutingAlgebra already is Send + Sync, with its \
                 Route and Edge"),
        ],
        plant: plant("crates/matrix/src/sync.rs", "    A: RoutingAlgebra,",
            "    A::Route: Send + Sync,"),
    },
    Rule {
        name: "CPU features detected and enabled only by σ's row kernel",
        // σ's fused row kernel is compiled once per vector width and picks
        // one per process from what the CPU reports: nothing else detects
        // or enables CPU features, and no build setting raises the
        // baseline for the whole program.  The pool's lifetime erasure and
        // the call into a detected width are the only unsafe code.
        checks: &[
            check(&["crates", "src", "tests", "examples", "benchmark"],
                any(&["is_x86_feature_detected", "target_feature("]),
                "CPU features are detected and enabled only in crates/matrix/src/sigma.rs")
                .allowing(&["crates/matrix/src/sigma.rs"]),
            check(&["crates", "src", "tests", "examples", "benchmark"],
                any(&["allow(unsafe_code)"]),
                "unsafe code is allowed only in dbf-matrix's pool.rs and sigma.rs")
                .allowing(&["crates/matrix/src/pool.rs", "crates/matrix/src/sigma.rs"]),
            check(&["**Cargo.toml", "**.cargo/config**", ".github/workflows/ci.yml"],
                any(&["target-cpu"]),
                "a global CPU target: σ's row kernel picks its vector width at run time"),
        ],
        plant: plant("crates/matrix/src/kernel.rs", "impl<A: RoutingAlgebra> FixedPoint<A> {",
            "    #[target_feature(enable = \"avx2\")]"),
    },
    Rule {
        name: "routing tables unshared only by their own module",
        // A clone shares its rows behind an Arc, and only table.rs asks
        // whether the Arc is shared before it writes.
        checks: &[
            check(&["crates/matrix/src"],
                any(&["Arc::make_mut", "Arc::get_mut", "Arc::try_unwrap"]),
                "only crates/matrix/src/table.rs unshares a routing table: write rows through \
                 Table / RoutingState")
                .allowing(&["crates/matrix/src/table.rs"]),
        ],
        plant: plant("crates/matrix/src/state.rs", "impl<A: RoutingAlgebra> RoutingState<A> {",
            "    let row = Arc::make_mut(&mut self.rows[i]);"),
    },
    Rule {
        name: "one transpose, owned by the adjacency",
        // AdjacencyMatrix builds dependants(k) with its rows and keeps it
        // in step; a second copy would have to follow every change.
        checks: &[
            check(CODE, any(&["fn rewire\\b", ".dependants()"]),
                "one transpose, owned by the adjacency: read adj.dependants(k) instead of \
                 caching or rewiring a copy"),
        ],
        plant: plant("crates/matrix/src/kernel.rs", "impl<A: RoutingAlgebra> FixedPoint<A> {",
            "    pub fn rewire(&mut self, adj: &AdjacencyMatrix<A>) {"),
    },
    Rule {
        name: "one routing table in the route server",
        // The resident stepper's rows are the table, and the table from
        // before a batch is a copy the flush in progress holds; a mirror
        // the commit copies rows into would keep the n × n table twice.
        checks: &[
            check(CODE, any(&["finish_into"]),
                "the server reads the stepper's rows; the pre-batch table lives in the flush in \
                 progress"),
        ],
        plant: plant(SERVER,
            "fn commit(&mut self, work: Flush<A>, tel: &mut dyn TelemetrySink) {",
            "        self.kernel.finish_into(&mut self.table);"),
    },
    Rule {
        name: "one row kernel for σ and δ",
        // δ's row is σ's row rule with each import read at its own
        // version: DeltaRun::step hands its version picks to dbf-matrix's
        // row kernel and folds nothing itself.
        checks: &[
            check(&["crates/asynch/src/delta.rs"], any(&["extend(", "choice(", "route_le("]),
                "δ's rows go through dbf-matrix's row kernel")
                .within(Scope::BeforeTests),
        ],
        plant: plant("crates/asynch/src/delta.rs", "let imports = self.adj.row(i);",
            "            let via = self.alg.extend(&imports[0].1, &current[0]);"),
    },
    Rule {
        name: "a snapshot holds the network, not its routing table",
        // The serve algebras are strictly increasing, so the table is the
        // unique fixed point of the snapshot's shape and overrides; a
        // route codec or a written `row` record would be a cache of
        // derived data that restore then has to check.
        checks: &[
            check(&["crates"], any(&["PersistRoute"]),
                "a snapshot holds no routes: there is no route codec to write"),
            check(&["crates/scenario/src/checkpoint.rs", SERVER], any(&["\"row "]),
                "a snapshot holds the network, not its routing table (no row records)")
                .within(Scope::BeforeTests),
        ],
        plant: plant(SERVER, "let s = &self.stats;", "        let rows = format!(\"row {offset}\");"),
    },
];

// ---------------------------------------------------------------------
// What a literal cannot say.

/// `impl.* Ord for`: a hand-written ordering.
fn impl_ord(line: &str) -> bool {
    line.find("impl")
        .is_some_and(|i| line[i + 4..].contains(" Ord for"))
}

/// `[A-Z]_OPTS\b`: a list of flag names.
fn opts_list(line: &str) -> bool {
    line.match_indices("_OPTS").any(|(i, m)| {
        line[..i].ends_with(|c: char| c.is_ascii_uppercase()) && boundary(line, i + m.len())
    })
}

/// `\.ceil\(\) as [a-z0-9]+\)? \* 4`: the S1 window formula.
fn s1_window(line: &str) -> bool {
    line.match_indices(".ceil() as ").any(|(i, m)| {
        let rest = &line[i + m.len()..];
        let ty = rest.len()
            - rest
                .trim_start_matches(|c: char| c.is_ascii_lowercase() || c.is_ascii_digit())
                .len();
        let rest = &rest[ty..];
        ty > 0 && rest.strip_prefix(')').unwrap_or(rest).starts_with(" * 4")
    })
}

/// `trait ParallelAlgebra`, `(::|[<,] ?)(Route|Edge): [^,>{;]*\b(Send|Sync)\b`
/// or `(Routing|Scenario)Algebra(<[^>]*>)? \+ (Send|Sync)`: a thread-safety
/// bound the trait already states.
fn restated_bound(line: &str) -> bool {
    let on_carrier = ["Route: ", "Edge: "].iter().any(|key| {
        line.match_indices(key).any(|(i, _)| {
            let before = &line[..i];
            let opened = ["::", "<", ",", "< ", ", "]
                .iter()
                .any(|o| before.ends_with(o));
            let from = i + key.len();
            let to = line[from..]
                .find([',', '>', '{', ';'])
                .map_or(line.len(), |e| from + e);
            opened
                && ["Send", "Sync"].iter().any(|t| {
                    line[from..to]
                        .match_indices(t)
                        .any(|(j, _)| boundary(line, from + j) && boundary(line, from + j + 4))
                })
        })
    });
    let on_trait = ["RoutingAlgebra", "ScenarioAlgebra"].iter().any(|name| {
        line.match_indices(name).any(|(i, _)| {
            let mut rest = &line[i + name.len()..];
            if let Some(generics) = rest.strip_prefix('<') {
                match generics.find('>') {
                    Some(end) => rest = &generics[end + 1..],
                    None => return false,
                }
            }
            rest.starts_with(" + Send") || rest.starts_with(" + Sync")
        })
    });
    line.contains("trait ParallelAlgebra") || on_carrier || on_trait
}

/// The names `flag("--[a-z-]+"` declares on a line, dashes included.
fn flag_names(line: &str) -> impl Iterator<Item = &str> {
    line.match_indices("flag(\"--").filter_map(move |(i, m)| {
        let name = &line[i + m.len() - 2..];
        let len = name.len()
            - name[2..]
                .trim_start_matches(|c: char| c.is_ascii_lowercase() || c == '-')
                .len();
        (len > 2 && name[len..].starts_with('"')).then(|| &name[..len])
    })
}

/// Each flag the command line declares, as a string literal.
fn declared_flags(tree: &Tree) -> Vec<String> {
    let decls = tree.get("crates/scenario/src/bin/scenarios.rs");
    let names = decls
        .into_iter()
        .flat_map(|text| text.lines().flat_map(flag_names));
    names.map(|name| format!("\"{name}\"")).collect()
}

fn quoted(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| format!("\"{w}\"")).collect()
}

/// Whether `line` has a word boundary at byte `at`.
fn boundary(line: &str, at: usize) -> bool {
    let word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    word(line[..at].chars().next_back()) != word(line[at..].chars().next())
}

// ---------------------------------------------------------------------
// The matching.

impl Pat {
    fn needles(&self) -> &'static [&'static str] {
        match self {
            Pat::Lit(lits) | Pat::Fn(lits, _) => lits,
        }
    }

    fn matches(&self, line: &str) -> bool {
        match self {
            Pat::Lit(lits) => lits.iter().any(|lit| holds(line, lit)),
            Pat::Fn(needles, f) => needles.iter().any(|n| line.contains(n)) && f(line),
        }
    }
}

/// The literal without its anchors.
fn bare(lit: &str) -> &str {
    let lit = lit.strip_prefix('^').unwrap_or(lit);
    let lit = lit.strip_prefix("\\b").unwrap_or(lit);
    lit.strip_suffix("\\b").unwrap_or(lit)
}

/// Whether `line` holds the literal `lit`, anchors honoured.
fn holds(line: &str, lit: &str) -> bool {
    if let Some(start) = lit.strip_prefix('^') {
        return line.starts_with(start);
    }
    let (open, close, core) = (lit.starts_with("\\b"), lit.ends_with("\\b"), bare(lit));
    line.match_indices(core)
        .any(|(i, _)| (!open || boundary(line, i)) && (!close || boundary(line, i + core.len())))
}

/// The lines of `text` in `scope`, numbered from 1.
fn scoped(text: &str, scope: Scope) -> Vec<(usize, &str)> {
    let lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    match scope {
        Scope::File => lines.collect(),
        Scope::BeforeTests => lines.take_while(|&(_, l)| l != "mod tests {").collect(),
        Scope::Bodies(names) => {
            let mut inside = false;
            let header = |l: &str| {
                let l = l.strip_prefix("    ").unwrap_or("");
                let l = l.strip_prefix("pub ").unwrap_or(l);
                names.iter().any(|name| {
                    l.strip_prefix("fn ")
                        .and_then(|l| l.strip_prefix(name))
                        .is_some_and(|l| l.starts_with('('))
                })
            };
            lines
                .filter(|&(_, l)| {
                    inside |= header(l);
                    let kept = inside;
                    inside &= l != "    }";
                    kept
                })
                .collect()
        }
        Scope::NonTest => {
            let (mut head, mut body, mut kept) = (false, false, Vec::new());
            for (n, mut line) in lines {
                if !head && !body {
                    match line.strip_prefix("#[cfg(test)]") {
                        None => {
                            kept.push((n, line.split("//").next().unwrap_or("")));
                            continue;
                        }
                        Some(rest) => (head, line) = (true, rest.trim_start()),
                    }
                }
                if body {
                    body = !line.starts_with('}');
                } else if !(line.is_empty() || line.starts_with("#[") || line.starts_with("//")) {
                    // the item's first line
                    let end = line.trim_end();
                    let closed =
                        end.ends_with('}') && end.matches('{').count() == end.matches('}').count();
                    (head, body) = (false, !(end.ends_with(';') || closed));
                }
            }
            kept
        }
    }
}

// ---------------------------------------------------------------------
// The tree.

/// The repository as the rules read it: path (from the root, `/`-joined)
/// to text.  Text borrowed from [`checked_out`] is as checked out.
type Tree<'a> = BTreeMap<&'a str, Cow<'a, str>>;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// What `.gitignore` lists, git's own directory, and this file.
const SKIPPED: &[&str] = &[
    ".git",
    "target",
    ".bench_build",
    "benchmark/target",
    "benchmark/out",
    file!(),
];

/// The working tree, read once per test binary.
fn checked_out() -> Tree<'static> {
    static FILES: OnceLock<BTreeMap<String, String>> = OnceLock::new();
    let files = FILES.get_or_init(|| {
        let mut files = BTreeMap::new();
        walk(Path::new(ROOT), "", &mut files);
        files
    });
    let borrowed = files
        .iter()
        .map(|(path, text)| (path.as_str(), Cow::Borrowed(text.as_str())));
    borrowed.collect()
}

/// Read every file under `dir` that some check reads.
fn walk(dir: &Path, rel: &str, files: &mut BTreeMap<String, String>) {
    for entry in fs::read_dir(dir).expect("a readable directory") {
        let entry = entry.expect("a readable directory entry");
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = if rel.is_empty() {
            name
        } else {
            format!("{rel}/{name}")
        };
        if SKIPPED.contains(&path.as_str()) {
            continue;
        }
        let kind = entry.file_type().expect("a file type");
        if kind.is_dir() {
            walk(&entry.path(), &path, files);
        } else if kind.is_file() && checks().any(|(_, c)| selects(c.files, &path)) {
            let bytes = fs::read(entry.path()).expect("a readable file");
            files.insert(path, String::from_utf8_lossy(&bytes).into_owned());
        }
    }
}

/// A copy of `tree` with `plant` in place.
///
/// # Panics
///
/// If the line the plant follows is not in its file.
fn planted<'a>(tree: &Tree<'a>, plant: &'a Plant) -> Tree<'a> {
    let old = tree.get(plant.file).map_or("", |t| t.as_ref());
    let at = if plant.after.is_empty() {
        old.len()
    } else {
        let mut end = 0;
        let found = old.split_inclusive('\n').any(|l| {
            end += l.len();
            l.contains(plant.after)
        });
        assert!(
            found,
            "{}: no line holds {:?} to plant after: update the plant",
            plant.file, plant.after
        );
        end
    };
    let text = format!("{}{}\n{}", &old[..at], plant.line, &old[at..]);
    let mut copy = tree.clone();
    copy.insert(plant.file, Cow::Owned(text));
    copy
}

/// The files of `tree` that `check` reads.
fn read_by<'t, 'a>(tree: &'t Tree<'a>, check: &Check) -> Vec<(&'a str, &'t Cow<'a, str>)> {
    let read = |path: &str| selects(check.files, path) && !selects(check.allow, path);
    tree.iter()
        .filter(|(path, _)| read(path))
        .map(|(path, text)| (*path, text))
        .collect()
}

/// Whether one of `globs` matches `path` or a directory above it.
fn selects(globs: &[&str], path: &str) -> bool {
    let dirs = path.match_indices('/').map(|(i, _)| &path[..i]);
    let mut candidates = std::iter::once(path).chain(dirs);
    candidates.any(|p| globs.iter().any(|g| glob(g.as_bytes(), p.as_bytes())))
}

fn glob(pat: &[u8], s: &[u8]) -> bool {
    match pat {
        [] => s.is_empty(),
        [b'*', b'*', rest @ ..] => (0..=s.len()).any(|i| glob(rest, &s[i..])),
        [b'*', rest @ ..] => (0..=s.len())
            .take_while(|&i| i == 0 || s[i - 1] != b'/')
            .any(|i| glob(rest, &s[i..])),
        [c, rest @ ..] => s.first() == Some(c) && glob(rest, &s[1..]),
    }
}

// ---------------------------------------------------------------------
// Running the table.

/// A line a check matched in one file (`line` 0: the file itself).  For
/// [`Find::Once`], `word` indexes the word it holds.
#[derive(Clone)]
struct Hit {
    word: usize,
    line: usize,
    text: String,
}

/// What one check matched, file by file, and the words it counted (for
/// [`Find::Once`]).
struct Found<'a> {
    words: Vec<String>,
    files: BTreeMap<&'a str, Vec<Hit>>,
}

fn checks() -> impl Iterator<Item = (&'static Rule, &'static Check)> {
    RULES
        .iter()
        .flat_map(|rule| rule.checks.iter().map(move |check| (rule, check)))
}

/// What each check, in table order, matches in `tree`.  A file as
/// checked out is not read again: its hits are taken from `standing`, the
/// findings on the checked-out tree, where they were counted for the same
/// words.
fn find<'a>(tree: &Tree<'a>, standing: Option<&[Found]>) -> Vec<Found<'a>> {
    let found = checks().enumerate().map(|(k, (_, check))| {
        let words = match check.find {
            Find::Once(words) => words(tree),
            _ => Vec::new(),
        };
        let known = standing.map(|s| &s[k]).filter(|known| known.words == words);
        let files = read_by(tree, check).into_iter().map(|(path, text)| {
            let reused = match (known, text) {
                (Some(known), Cow::Borrowed(_)) => known.files.get(path).cloned(),
                _ => None,
            };
            (path, reused.unwrap_or_else(|| scan(check, &words, text)))
        });
        let files = files.collect();
        Found { words, files }
    });
    found.collect()
}

/// What `check` matches in one file's `text`.
fn scan(check: &Check, words: &[String], text: &str) -> Vec<Hit> {
    let hit = |word, line, text: &str| Hit {
        word,
        line,
        text: text.trim().to_string(),
    };
    match &check.find {
        Find::Line(pat) | Find::Count(pat, ..) => {
            if !pat.needles().iter().any(|n| text.contains(bare(n))) {
                return Vec::new();
            }
            let lines = scoped(text, check.scope).into_iter();
            lines
                .filter(|(_, l)| pat.matches(l))
                .map(|(n, l)| hit(0, n, l))
                .collect()
        }
        Find::Once(_) => {
            let present: Vec<usize> = (0..words.len())
                .filter(|&k| text.contains(&words[k]))
                .collect();
            if present.is_empty() {
                return Vec::new();
            }
            let mut hits = Vec::new();
            for (n, line) in scoped(text, check.scope) {
                for &k in &present {
                    hits.extend(line.matches(&words[k]).map(|_| hit(k, n, line)));
                }
            }
            hits
        }
        Find::Exists => vec![hit(0, 0, "exists")],
        Find::Longer(max) => {
            let lines = text.matches('\n').count();
            let over = lines > *max;
            over.then(|| hit(0, 0, &format!("{lines} lines")))
                .into_iter()
                .collect()
        }
        Find::Orphans => Vec::new(),
    }
}

/// One refusal: a rule, where, and why (`line` 0 when the refusal is of
/// a file or of a count).
struct Violation {
    rule: &'static str,
    file: String,
    line: usize,
    text: String,
    message: &'static str,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            0 => write!(f, "{}: {}: {}", self.rule, self.file, self.text)?,
            n => write!(f, "{}: {}:{}: {}", self.rule, self.file, n, self.text)?,
        }
        write!(f, "\n    {}", self.message)
    }
}

/// Every violation of every rule in `tree`, whose checks found `found`.
fn violations(tree: &Tree, found: &[Found]) -> Vec<Violation> {
    let mut refused = Vec::new();
    for ((rule, check), Found { words, files }) in checks().zip(found) {
        let hits = files
            .iter()
            .flat_map(|(f, hits)| hits.iter().map(move |h| (*f, h)));
        let all = |word: Option<usize>| {
            let hits = hits
                .clone()
                .filter(move |(_, h)| word.is_none_or(|w| h.word == w));
            hits.map(|(f, h)| (f.to_string(), h.line, h.text.clone()))
        };
        let counted = |total: String| (check.files.join(" "), 0, total);
        let lines: Vec<(String, usize, String)> = match &check.find {
            Find::Line(_) | Find::Exists | Find::Longer(_) => all(None).collect(),
            Find::Count(_, min, max) => {
                let n = all(None).count();
                if (*min..=*max).contains(&n) {
                    Vec::new()
                } else {
                    let total = counted(format!("{n} matching lines, not {min}..={max}"));
                    std::iter::once(total).chain(all(None)).collect()
                }
            }
            Find::Once(_) => (0..words.len())
                .flat_map(|k| {
                    let n = all(Some(k)).count();
                    let total = counted(format!("{} is written {n} times", words[k]));
                    let wrong = (n != 1).then(|| std::iter::once(total).chain(all(Some(k))));
                    wrong.into_iter().flatten()
                })
                .collect(),
            Find::Orphans => orphans(&read_by(tree, check)),
        };
        refused.extend(lines.into_iter().map(|(file, line, text)| Violation {
            rule: rule.name,
            file,
            line,
            text,
            message: check.message,
        }));
    }
    refused
}

/// The member manifests (all but the root's) whose package no other
/// manifest of `files` names as a workspace dependency.  dbf-bench holds
/// the paper's experiments and their binary: nothing links it.
fn orphans(files: &[(&str, &Cow<str>)]) -> Vec<(String, usize, String)> {
    let members = files.iter().filter(|(path, _)| *path != "Cargo.toml");
    let orphaned = members.filter_map(|&(path, text)| {
        let named = text.lines().enumerate().find_map(|(i, l)| {
            let name = l.strip_prefix("name = \"")?.strip_suffix('"')?;
            Some((i + 1, name))
        });
        let (n, name) = named.unwrap_or((0, ""));
        let dependency = format!("{name}.workspace = true");
        let used = files
            .iter()
            .any(|&(other, t)| other != path && t.lines().any(|l| l.starts_with(&dependency)));
        let text = format!("{name} is a dependency of no other manifest");
        (name != "dbf-bench" && !used).then(|| (path.to_string(), n, text))
    });
    orphaned.collect()
}

/// The findings on the checked-out tree, made once per test binary.
fn standing() -> &'static [Found<'static>] {
    static STANDING: OnceLock<Vec<Found<'static>>> = OnceLock::new();
    STANDING.get_or_init(|| find(&checked_out(), None))
}

fn render(found: &[Violation]) -> String {
    found.iter().map(|v| format!("{v}\n")).collect()
}

// ---------------------------------------------------------------------

#[test]
fn every_rule_holds_on_this_tree() {
    let names: BTreeSet<&str> = RULES.iter().map(|r| r.name).collect();
    assert_eq!(names.len(), RULES.len(), "two rules share a name");
    let found = violations(&checked_out(), standing());
    assert!(
        found.is_empty(),
        "{} hygiene violations:\n{}",
        found.len(),
        render(&found)
    );
}

#[test]
fn every_plant_fails_its_own_rule() {
    let tree = checked_out();
    let before: BTreeSet<String> = violations(&tree, standing())
        .iter()
        .map(|v| v.to_string())
        .collect();
    let mut missed = Vec::new();
    for rule in RULES {
        let planted = planted(&tree, &rule.plant);
        let found = violations(&planted, &find(&planted, Some(standing())));
        let new = found
            .into_iter()
            .filter(|v| !before.contains(&v.to_string()));
        let (own, other): (Vec<_>, Vec<_>) = new.partition(|v| v.rule == rule.name);
        if !own.iter().any(|v| v.file == rule.plant.file) {
            missed.push(rule.name);
        }
        for v in other {
            println!("the plant of `{}` also trips {v}", rule.name);
        }
    }
    assert!(
        missed.is_empty(),
        "plants their own rule does not catch: {missed:?}"
    );
}

#[test]
fn the_predicates_read_as_the_patterns_they_stand_for() {
    assert!(holds("fn check_s2(s)", "check_s2\\b") && !holds("check_s2x", "check_s2\\b"));
    assert!(holds("x = Value::String(s)", "\\bValue::String("));
    assert!(!holds("MyValue::String(s)", "\\bValue::String("));
    assert!(holds("[[bench]]", "^[[bench]]") && !holds(" [[bench]]", "^[[bench]]"));
    assert!(impl_ord("impl<T> Ord for Entry<T> {") && !impl_ord("impl PartialOrd for E {"));
    assert!(opts_list("const RUN_OPTS: &[&str] = &[];") && !opts_list("const run_OPTS2: u8 = 0;"));
    assert!(s1_window("let w = (x.ceil() as usize) * 4;") && s1_window("y.ceil() as u64 * 4"));
    assert!(!s1_window("y.ceil() as usize * 3"));
    for bound in [
        "pub trait ParallelAlgebra: RoutingAlgebra {}",
        "    A::Route: Clone + Send,",
        "fn f<Route: Sync>() {}",
        "where A: RoutingAlgebra<Route = u64> + Sync,",
        "A: ScenarioAlgebra + Send,",
    ] {
        assert!(restated_bound(bound), "{bound}");
    }
    for fine in [
        "A::Route: Clone, B: Send",
        "A: RoutingAlgebra,",
        "Route: Sendable",
    ] {
        assert!(!restated_bound(fine), "{fine}");
    }
    assert_eq!(
        flag_names(r#"flag("--out", "FILE") flag("--A")"#).collect::<Vec<_>>(),
        ["--out"]
    );
    assert!(selects(&["crates/*/src"], "crates/matrix/src/lib.rs"));
    assert!(!selects(&["crates/*/src"], "crates/compat/rand/src/lib.rs"));
    assert!(selects(&["**Cargo.toml"], "benchmark/Cargo.toml"));
    assert!(selects(
        &["**/tests.rs"],
        "crates/scenario/src/serve/tests.rs"
    ));
    assert!(!selects(
        &["crates/protocols/src/*.rs"],
        "crates/protocols/src/x/y.rs"
    ));
}

#[test]
fn the_non_test_scope_ends_each_test_item_where_it_ends() {
    let text = "\
a // one
#[cfg(test)]
use b;
c
#[cfg(test)]
impl D {
    e;
}
f
#[cfg(test)]
mod tests {
    g
}
";
    let kept: Vec<_> = scoped(text, Scope::NonTest);
    assert_eq!(kept, [(1, "a "), (4, "c"), (9, "f")]);
    let before: Vec<_> = scoped(text, Scope::BeforeTests)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(before, (1..=10).collect::<Vec<_>>());
}
