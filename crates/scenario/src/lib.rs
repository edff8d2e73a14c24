//! # dbf-scenario — declarative scenarios with cross-engine differential
//! execution
//!
//! The repository has seven independent execution engines for the same
//! routing problems, all run by the one phase loop [`engine::run_engine`] —
//! the synchronous σ-iteration and its incremental dirty-row variant
//! (`dbf-matrix`), the schedule-driven asynchronous iterate δ and the
//! fault-injecting discrete-event simulator (`dbf-async`), the genuinely
//! concurrent threaded runtime, and the message-level RIP and BGP
//! protocol engines with their wire encodings (`dbf-protocols`).  The
//! central claim of the paper (Daggitt–Gurney–Griffin, SIGCOMM 2018) is
//! that for strictly-increasing algebras **all of them must agree**:
//! every schedule, fault pattern and interleaving reaches the same
//! σ-stable fixed point, and the 2020 follow-up extends this across
//! topology changes.
//!
//! This crate turns that claim into an executable, declarative oracle:
//!
//! * [`spec::Scenario`] — an experiment as *data*: topology (generator
//!   family or explicit edges), algebra (shortest / widest / hop-count /
//!   Section 7 BGP / Gao-Rexford / SPP gadgets), a timed script of
//!   topology changes and fault-profile phases, and the engines to run;
//!   TOML on disk with a lossless round trip;
//! * [`run::run_scenario`] — executes the spec on every requested engine,
//!   threading each epoch's final (stale) state into the next, and
//!   computes the **differential verdict**: did every run converge, and
//!   did they all land on the same fixed point?
//! * [`engine`] — the phase loop [`engine::run_engine`] and the registry:
//!   per-engine descriptors (name, determinism/seed handling, size
//!   capability, algebra support) that `run`, `spec`, `sweep`, `gen`, the
//!   builtins and the CLI all consult — adding an engine is one
//!   descriptor plus one step function;
//! * [`builtins`] — a library of ready-made scenarios covering
//!   count-to-infinity, the BGP wedgie, the BAD GADGET, flapping links,
//!   partition-and-heal, adversarial loss, widest-path fabrics, growing
//!   networks, policy-rich BGP and Gao-Rexford hierarchies;
//! * [`report`] — machine-readable reports (JSON) with per-phase rounds,
//!   work, message counts, wall time and state digests, plus the
//!   `BENCH_scenarios.json` emitter used to track performance across PRs;
//! * [`metrics`] — renders `dbf-telemetry` metrics into the CLI's JSON
//!   (deterministic `metrics` section, trailing non-deterministic `timing`
//!   section) and the `--metrics` / `profile` tables; every engine run can
//!   be observed through [`run::run_scenario_traced`];
//! * [`sweep`] / [`sweeps`] / [`agg`] — **parameter sweeps**: a base
//!   scenario plus axes (topology size up to 10⁴+ nodes, loss rate, delay
//!   bound) expands into a grid of runs, fanned out through
//!   `dbf_matrix::WorkerPool::map` (the workspace's one order-preserving
//!   parallel map) with deterministic per-run seeds and reduced to
//!   per-grid-point mean/median/p95 statistics — convergence *as a function of* network
//!   size and fault rate, with the differential checker on for every run;
//! * [`gen`] / [`fuzz`] — **property-based fuzzing**: seeded random
//!   generators for complete scenario specs and sweep grids, funnelled
//!   through the checker under the invariant "any strictly-increasing spec
//!   must agree across all engines" (the theorems' universal
//!   quantification, sampled).  Failures are minimized by a greedy spec
//!   shrinker and written to a corpus directory as self-reproducing TOML.
//! * [`serve`] — the **route server**: a long-lived daemon loop holding
//!   one converged table, coalescing a stream of churn events (including
//!   `set_weight` policy churn) into batched incremental reconvergences
//!   on the persistent worker pool and answering route queries from the
//!   converged table — replayable seeded churn traces, thread-count- and
//!   batch-size-invariant digests, and the `BENCH_serve.json`
//!   throughput/latency document.  A directory of small files: the trace
//!   format, the server (a state machine whose inputs include time — it
//!   reads a [`serve::Clock`], never the machine's), the replay driver
//!   and the report;
//! * [`checkpoint`] / [`chaos`] — **crash safety, proven**: periodic
//!   snapshots plus a write-ahead log make a replay killed at any event
//!   offset recoverable to a byte-identical report; bound-derived flush
//!   deadlines degrade to stale-flagged answers instead of blocking; and
//!   a deterministic fault plane ([`chaos::FaultPlan`]) driven by
//!   `scenarios chaos` injects process crashes, torn and corrupt WAL
//!   tails and flush delays, verifying digest-identical recovery or a
//!   clean structured failure for every plan.
//!
//! Running a built-in scenario through the differential oracle:
//!
//! ```
//! use dbf_scenario::prelude::*;
//!
//! let scenario = builtins::by_name("count-to-infinity").expect("built-in");
//! let report = run_scenario(&scenario).expect("the spec is valid");
//! // Theorem 7: every engine, schedule and fault pattern reaches the same
//! // σ-stable fixed point, before and after the link failure.
//! assert!(report.verdict.converges && report.verdict.agreement);
//! assert!(report.expectation_met());
//! ```
//!
//! Expanding and executing a sweep (here filtered to one cell; drop the
//! filters to run the whole grid):
//!
//! ```
//! use dbf_scenario::prelude::*;
//!
//! let sweep = sweeps::by_name("smoke").expect("built-in sweep");
//! assert_eq!(sweep.point_count(), 4); // 2 sizes × 2 loss rates
//! let opts = SweepRunOptions { jobs: 1, point: Some(0), replicate: Some(0), ..Default::default() };
//! let report = run_sweep(&sweep, &opts).expect("the sweep is valid");
//! assert!(report.ok());
//! assert_eq!(report.points[0].label, "n=4,loss=0");
//! ```
//!
//! The `scenarios` binary drives all of this from the command line:
//!
//! ```text
//! cargo run -p dbf-scenario --bin scenarios -- run count-to-infinity --json
//! cargo run -p dbf-scenario --bin scenarios -- run count-to-infinity --trace /tmp/trace.jsonl --metrics
//! cargo run -p dbf-scenario --bin scenarios -- profile widest-fabric --threads 2
//! cargo run -p dbf-scenario --bin scenarios -- run my_experiment.toml --engines sync,sim
//! cargo run -p dbf-scenario --bin scenarios -- run-all
//! cargo run -p dbf-scenario --bin scenarios -- bench --out BENCH_scenarios.json
//! cargo run -p dbf-scenario --bin scenarios -- sweep loss-rate-robustness --jobs 8
//! cargo run -p dbf-scenario --bin scenarios -- sweep-bench --out BENCH_sweeps.json
//! cargo run -p dbf-scenario --bin scenarios -- fuzz --cases 200 --seed 1 --jobs 8
//! cargo run -p dbf-scenario --bin scenarios -- gen-trace --out churn.trace --events 100000
//! cargo run -p dbf-scenario --bin scenarios -- serve --replay churn.trace --threads 4
//! cargo run -p dbf-scenario --bin scenarios -- serve --replay churn.trace --recover store
//! cargo run -p dbf-scenario --bin scenarios -- chaos --replay churn.trace --threads 4
//! ```
//!
//! Fuzzing one case programmatically (the differential oracle with a
//! generated input):
//!
//! ```
//! use dbf_scenario::prelude::*;
//!
//! let spec = gen::scenario_case(gen::case_seed(1, 0));
//! assert!(spec.validate().is_ok());
//! let report = run_scenario(&spec).expect("generated specs are valid");
//! // The fuzz invariant: strictly-increasing algebras always agree.
//! assert!(report.verdict.converges && report.verdict.agreement);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod bench;
pub mod bound;
pub mod builtins;
pub mod chaos;
pub mod checkpoint;
pub mod engine;
mod fields;
pub mod fuzz;
pub mod gen;
pub mod metrics;
pub mod report;
pub mod run;
pub mod serve;
pub mod spec;
pub mod sweep;
pub mod sweeps;

/// The instrumentation layer the engines report into (re-exported so CLI
/// and test code can name sinks without a separate dependency).
pub use dbf_telemetry as telemetry;

pub use agg::{PointReport, Stats, SweepReport};
pub use bound::{algebra_height, bound_for_engine, bound_table, schedule_window, PhaseBound};
pub use chaos::{
    builtin_plan, builtin_plan_names, chaos_json, load_plan, run_chaos, ChaosOutcome, FaultKind,
    FaultPlan,
};
pub use checkpoint::{CheckpointStore, PersistRoute, Snapshot, WalError};
pub use engine::{
    descriptor, descriptors, engine_seeds, planned_runs, run_engine, Determinism, EngineInfo,
    Problem, ScenarioAlgebra,
};
pub use fuzz::{run_fuzz, shrink_scenario, FuzzOptions, FuzzReport, ReplayOutcome};
pub use metrics::{metrics_json, metrics_table, profile_table, timing_json, with_telemetry};
pub use report::{Agreement, EngineRun, Json, PhaseOutcome, ScenarioReport};
pub use run::{run_scenario, run_scenario_traced, run_scenario_with, RunConfig};
pub use serve::{
    generate_trace, replay_trace, replay_trace_opts, serve_json, serve_summary, BoundRule,
    ChurnTrace, Clock, DeadlineCfg, RecoveryInfo, ReplayReport, RouteServer, ScriptedClock,
    ServeAlgebra, ServeAnswer, ServeEvent, ServeFailure, ServeOptions, ServeProblem, ServeStats,
    SystemClock, TraceSpec, WeightOverrides,
};
pub use spec::{
    AlgebraSpec, ChangeSpec, EngineKind, Expectation, FaultSpec, PhaseSpec, Scenario, ScheduleSpec,
    SpecError, SppGadget, TopologySpec, WeightRule,
};
pub use sweep::{run_sweep, Axis, AxisParam, AxisValue, GridPoint, Sweep, SweepRunOptions};

/// Commonly used items, suitable for a glob import.
pub mod prelude {
    pub use crate::agg::{PointReport, Stats, SweepReport};
    pub use crate::bound::{
        algebra_height, bound_for_engine, bound_table, schedule_window, PhaseBound,
    };
    pub use crate::builtins;
    pub use crate::chaos::{
        builtin_plan, builtin_plan_names, chaos_json, load_plan, run_chaos, ChaosOutcome,
        FaultKind, FaultPlan,
    };
    pub use crate::checkpoint::{CheckpointStore, PersistRoute, Snapshot, WalError};
    pub use crate::engine::{
        descriptor, descriptors, engine_seeds, planned_runs, run_engine, Determinism, EngineInfo,
        Problem, ScenarioAlgebra,
    };
    pub use crate::fuzz::{run_fuzz, shrink_scenario, FuzzOptions, FuzzReport, ReplayOutcome};
    pub use crate::gen;
    pub use crate::metrics::{
        metrics_json, metrics_table, profile_table, timing_json, with_telemetry,
    };
    pub use crate::report::{Agreement, EngineRun, Json, PhaseOutcome, ScenarioReport};
    pub use crate::run::{run_scenario, run_scenario_traced, run_scenario_with, RunConfig};
    pub use crate::serve::{
        generate_trace, replay_trace, replay_trace_opts, serve_json, serve_summary, BoundRule,
        ChurnTrace, Clock, DeadlineCfg, RecoveryInfo, ReplayReport, RouteServer, ScriptedClock,
        ServeAlgebra, ServeAnswer, ServeEvent, ServeFailure, ServeOptions, ServeProblem,
        ServeStats, SystemClock, TraceSpec, WeightOverrides,
    };
    pub use crate::spec::{
        AlgebraSpec, ChangeSpec, EngineKind, Expectation, FaultSpec, PhaseSpec, Scenario,
        ScheduleSpec, SpecError, SppGadget, TopologySpec, WeightRule,
    };
    pub use crate::sweep::{
        run_sweep, Axis, AxisParam, AxisValue, GridPoint, Sweep, SweepRunOptions,
    };
    pub use crate::sweeps;
    pub use crate::telemetry;
}
