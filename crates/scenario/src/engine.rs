//! The engine registry and the one phase loop every engine runs in.
//!
//! Every way this repository can execute a routing problem — the
//! synchronous σ-iteration, the incremental dirty-row σ, the
//! asynchronous iterate δ, the fault-injecting event simulator, and the
//! message-level RIP/BGP protocol engines — is one [`EngineKind`]
//! handed to [`run_engine`].  Theorems 7 and 11 say all of them land on
//! one fixed point, so they may differ only in *how one phase is
//! iterated*: the driver owns the run (label, carried state, telemetry
//! bracket, clock, digest, [`PhaseOutcome`]) and an engine is a step
//! function.  The registry turns the engine list into *data*: the
//! scenario runner, the TOML codec, the sweep deriver, the fuzz
//! generator and the `scenarios` CLI all consult [`descriptors`]
//! instead of matching on engine kinds, so adding an engine is one
//! descriptor, one step function and one arm in [`run_engine`].
//!
//! Running a single engine against a hand-built problem:
//!
//! ```
//! use dbf_algebra::prelude::*;
//! use dbf_matrix::AdjacencyMatrix;
//! use dbf_scenario::engine::{run_engine, Problem};
//! use dbf_scenario::spec::{EngineKind, FaultSpec};
//! use dbf_telemetry::NoopSink;
//! use dbf_topology::generators;
//!
//! let alg = BoundedHopCount::new(16);
//! let topo = generators::ring(5).with_weights(|_, _| 1u64);
//! let problems = vec![Problem::new(
//!     "ring",
//!     AdjacencyMatrix::from_topology(&topo),
//!     FaultSpec::default(),
//! )];
//!
//! // Any engine runs by kind; `rip` here exchanges real wire-encoded
//! // protocol messages and must land on the same fixed point as the
//! // synchronous reference.  After the seed comes the worker-thread
//! // count: parallelizable engines shard their row sweep across it and
//! // the result is bit-identical for every value.  The final argument is
//! // a telemetry sink; `NoopSink` keeps instrumentation off.
//! let a = run_engine(EngineKind::Sync, &alg, &problems, 1, 2, &mut NoopSink);
//! let b = run_engine(EngineKind::Rip, &alg, &problems, 1, 1, &mut NoopSink);
//! assert!(a.phases[0].sigma_stable && b.phases[0].sigma_stable);
//! assert_eq!(a.phases[0].digest, b.phases[0].digest);
//! assert!(b.phases[0].bytes.unwrap() > 0, "protocol engines report wire bytes");
//! assert!(a.phases[0].bytes.is_none(), "in-memory engines have no wire bytes");
//! ```

use crate::report::{Digest, EngineRun, PhaseOutcome};
use crate::spec::{AlgebraSpec, EngineKind, FaultSpec, Scenario, ScheduleSpec, SpecError};
use dbf_algebra::prelude::BoundedHopCount;
use dbf_algebra::RoutingAlgebra;
use dbf_async::run_delta_traced;
use dbf_async::schedule::{Schedule, ScheduleParams};
use dbf_async::sim::{EventSim, SimConfig};
use dbf_bgp::algebra::BgpAlgebra;
use dbf_matrix::blocked::fold_entry_text;
use dbf_matrix::{
    dirty_rows_after_change, is_stable, iterate_with, AdjacencyMatrix, MessageRun, RoutingState,
    WorkerPool,
};
use dbf_protocols::bgp::{BgpConfig, BgpEngine};
use dbf_protocols::rip::{RipConfig, RipEngine};
use dbf_telemetry::{EventClass, MessageCounters, TelemetrySink};
use std::any::Any;
use std::time::Instant;

/// The algebra bounds every engine can rely on beyond [`RoutingAlgebra`]'s
/// own (which is `Send + Sync`, routes and edges too): the incremental
/// engine compares adjacency rows (`Edge: PartialEq`), and the protocol
/// adapters downcast the algebra and adjacency (`'static`).
/// Blanket-implemented for every qualifying [`RoutingAlgebra`].
pub trait ScenarioAlgebra:
    RoutingAlgebra<Route: 'static, Edge: PartialEq + 'static> + Clone + 'static
{
}

impl<A> ScenarioAlgebra for A where
    A: RoutingAlgebra<Route: 'static, Edge: PartialEq + 'static> + Clone + 'static
{
}

/// One phase of a scenario as a concrete routing problem: a label, the
/// adjacency in force, and the fault profile driving the stochastic
/// engines.
pub struct Problem<A: RoutingAlgebra> {
    /// The phase label (copied into each [`PhaseOutcome`]).
    pub label: String,
    /// The adjacency matrix of edge functions in force during the phase.
    pub adj: AdjacencyMatrix<A>,
    /// The fault/schedule profile of the phase.
    pub faults: FaultSpec,
    /// The synchronous convergence bound `n·h` for this phase, when the
    /// bound oracle could compute one.  The σ engines derive their iterate
    /// budget from it ([`dbf_matrix::iteration_budget`]); `None` falls
    /// back to the generous quadratic horizon.
    pub round_budget: Option<u64>,
}

impl<A: RoutingAlgebra> Problem<A> {
    /// Build a problem phase (with no round budget: the σ engines use the
    /// quadratic fallback horizon).
    pub fn new(label: impl Into<String>, adj: AdjacencyMatrix<A>, faults: FaultSpec) -> Self {
        Self {
            label: label.into(),
            adj,
            faults,
            round_budget: None,
        }
    }
}

/// How an engine's outcome depends on the scenario seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Determinism {
    /// A pure function of the problem: executed once per scenario.
    Fixed,
    /// Seeded randomness (schedules, delays, jitter): executed once per
    /// scenario seed.
    Seeded,
}

/// Static metadata of one registered engine.  The non-generic face of the
/// registry: spec parsing, validation, sweeps, the fuzz generator and the
/// CLI consult this table and never match on [`EngineKind`] themselves.
pub struct EngineInfo {
    /// The engine's spec-level kind.
    pub kind: EngineKind,
    /// The canonical lowercase name used in TOML and on the CLI.
    pub name: &'static str,
    /// One line for `scenarios list-engines` and the docs.
    pub summary: &'static str,
    /// Seed handling (how many runs one scenario produces).
    pub determinism: Determinism,
    /// The largest node count the engine is recommended for; sweeps drop
    /// the engine from grid points above it (`None` = unbounded).
    pub max_recommended_n: Option<usize>,
    /// Can the engine shard its work across threads *within one run*?
    /// Parallelizable engines receive the run's thread budget (and must be
    /// bit-identical for every value of it); the rest always run on one
    /// thread.
    pub parallelizable: bool,
    /// The telemetry event classes the engine emits when run with an
    /// enabled sink, beyond the universal run/phase markers.
    pub events: &'static [EventClass],
    /// Whether the engine's `rounds` counter measures deterministic
    /// *logical rounds* that the convergence-rate theorems bound — σ
    /// iterations (arXiv 2106.01184: `rounds ≤ n·h`) or δ schedule time
    /// (arXiv 2507.07263's activation/staleness-parameterized bound).  The
    /// checker asserts `rounds ≤ predicted_bound` exactly for these
    /// engines; the event-driven engines count simulated wall time in
    /// different units.
    pub bounded_rounds: bool,
    /// Capability check: can this engine execute the given scenario?
    /// Engines tied to one algebra (the protocol adapters) reject the rest.
    pub supports: fn(&Scenario) -> Result<(), SpecError>,
}

fn supports_any(_spec: &Scenario) -> Result<(), SpecError> {
    Ok(())
}

/// The wire format carries node ids, entry counts and path lengths as u16,
/// so a network that ever grows past [`dbf_protocols::wire::MAX_NODES`]
/// (the initial shape plus every `add_node`) is rejected here rather than
/// silently corrupted (the engine constructors assert the same bound).
fn fits_wire_ids(engine: &str, spec: &Scenario) -> Result<(), SpecError> {
    let nodes = spec.phase_node_counts().last().copied().unwrap_or(0);
    let max = dbf_protocols::wire::MAX_NODES;
    if nodes > max {
        return Err(SpecError::new(format!(
            "engine {engine:?} encodes node ids, entry counts and path lengths as u16 on \
             the wire; {nodes} nodes (the initial topology plus every add_node) do not fit \
             (at most {max})"
        )));
    }
    Ok(())
}

fn supports_hopcount(spec: &Scenario) -> Result<(), SpecError> {
    match spec.algebra {
        // The wire format carries metrics as u32 with u32::MAX meaning ∞;
        // a larger hop limit would make huge-but-finite metrics ambiguous
        // on the wire, so it is rejected here rather than silently
        // corrupted (the engine constructor asserts the same bound).
        AlgebraSpec::Hopcount { limit } if limit >= dbf_protocols::wire::WIRE_INFINITY as u64 => {
            Err(SpecError::new(format!(
                "engine \"rip\" encodes metrics as u32 on the wire; hop limit {limit} \
                 does not fit (must be < {})",
                dbf_protocols::wire::WIRE_INFINITY
            )))
        }
        AlgebraSpec::Hopcount { .. } => fits_wire_ids("rip", spec),
        ref other => Err(SpecError::new(format!(
            "engine \"rip\" runs the RIP protocol machinery and requires the hopcount \
             algebra, got {other:?}"
        ))),
    }
}

fn supports_bgp(spec: &Scenario) -> Result<(), SpecError> {
    match spec.algebra {
        AlgebraSpec::Bgp { .. } => fits_wire_ids("bgp", spec),
        ref other => Err(SpecError::new(format!(
            "engine \"bgp\" runs the BGP protocol machinery and requires the bgp \
             algebra, got {other:?}"
        ))),
    }
}

/// The registered engines, in presentation order.  **This table and the
/// match in [`run_engine`] are the only places a new engine must be added.**
pub fn descriptors() -> &'static [EngineInfo] {
    static DESCRIPTORS: [EngineInfo; 6] = [
        EngineInfo {
            kind: EngineKind::Sync,
            name: "sync",
            summary: "synchronous σ-iteration to a fixed point (the reference semantics)",
            determinism: Determinism::Fixed,
            max_recommended_n: None,
            parallelizable: true,
            events: &[EventClass::Rounds, EventClass::Settle, EventClass::Bands],
            bounded_rounds: true,
            supports: supports_any,
        },
        EngineInfo {
            kind: EngineKind::Incremental,
            name: "incremental",
            summary: "dirty-row σ: after a topology change only perturbed rows recompute",
            determinism: Determinism::Fixed,
            max_recommended_n: None,
            parallelizable: true,
            events: &[EventClass::Rounds, EventClass::Settle],
            bounded_rounds: true,
            supports: supports_any,
        },
        EngineInfo {
            kind: EngineKind::Delta,
            name: "delta",
            summary: "the asynchronous iterate δ under seeded random or adversarial schedules",
            determinism: Determinism::Seeded,
            max_recommended_n: Some(512),
            parallelizable: false,
            events: &[EventClass::Rounds, EventClass::Settle],
            bounded_rounds: true,
            supports: supports_any,
        },
        EngineInfo {
            kind: EngineKind::Sim,
            name: "sim",
            summary: "discrete-event message simulator with loss, duplication and delay",
            determinism: Determinism::Seeded,
            max_recommended_n: Some(512),
            parallelizable: false,
            events: &[EventClass::Settle, EventClass::Messages],
            bounded_rounds: false,
            supports: supports_any,
        },
        EngineInfo {
            kind: EngineKind::Rip,
            name: "rip",
            summary: "RIP protocol machinery: periodic/triggered updates, split horizon, \
                      timeouts, wire-encoded messages (hopcount algebra only)",
            determinism: Determinism::Seeded,
            max_recommended_n: Some(256),
            parallelizable: false,
            events: &[EventClass::Messages],
            bounded_rounds: false,
            supports: supports_hopcount,
        },
        EngineInfo {
            kind: EngineKind::Bgp,
            name: "bgp",
            summary: "BGP protocol machinery: per-session RIBs, incremental announce/withdraw, \
                      wire-encoded messages (bgp algebra only)",
            determinism: Determinism::Seeded,
            max_recommended_n: Some(64),
            parallelizable: false,
            events: &[EventClass::Messages],
            bounded_rounds: false,
            supports: supports_bgp,
        },
    ];
    &DESCRIPTORS
}

/// The descriptor of one engine kind.
pub fn descriptor(kind: EngineKind) -> &'static EngineInfo {
    descriptors()
        .iter()
        .find(|d| d.kind == kind)
        .expect("every EngineKind is registered")
}

/// The seeds one engine consumes for a scenario: deterministic engines run
/// once (on the first seed, which they ignore), seeded engines once per
/// seed.  The δ engine additionally collapses to a single run when every
/// phase requests the adversarial-staleness schedule — that schedule is a
/// pure function of the phase parameters, so further seeds would only
/// duplicate the run byte-for-byte.
pub fn engine_seeds(kind: EngineKind, spec: &Scenario) -> &[u64] {
    let info = descriptor(kind);
    let collapsed = kind == EngineKind::Delta
        && spec
            .phases
            .iter()
            .all(|p| matches!(p.faults.schedule, ScheduleSpec::AdversarialStale { .. }));
    match info.determinism {
        Determinism::Fixed => &spec.seeds[..1],
        Determinism::Seeded if collapsed => &spec.seeds[..1],
        Determinism::Seeded => &spec.seeds[..],
    }
}

/// The number of engine runs a scenario will produce (used by reports and
/// tests; a pure function of the spec).
pub fn planned_runs(spec: &Scenario) -> usize {
    spec.engines
        .iter()
        .map(|&e| engine_seeds(e, spec).len())
        .sum()
}

/// The subset of `candidates` that can execute `spec` — the one
/// capability filter every consumer shares (builtins derive their engine
/// lists from it, the CLI's `--engines` overrides intersect through it,
/// and sweep derivation prunes grid points with it), so the semantics
/// cannot drift between call sites.
///
/// Algebra support is always required.  Engines whose
/// [`EngineInfo::max_recommended_n`] the spec's initial node count exceeds
/// are dropped unless `keep_oversized` (an *explicit* request outranks a
/// size recommendation; an automatically derived list does not).
pub fn eligible_engines(
    spec: &Scenario,
    candidates: &[EngineKind],
    keep_oversized: bool,
) -> Vec<EngineKind> {
    let n = spec.topology.initial_nodes();
    candidates
        .iter()
        .copied()
        .filter(|&e| (descriptor(e).supports)(spec).is_ok())
        .filter(|&e| {
            keep_oversized
                || match (descriptor(e).max_recommended_n, n) {
                    (Some(max), Some(n)) => n <= max,
                    _ => true,
                }
        })
        .collect()
}

/// The report label of one engine invocation: the registry name, tagged
/// with the seed for the engines that consume one.  The one source of the
/// label — the run's telemetry marker, the returned [`EngineRun`] and the
/// placeholder `run.rs` synthesizes for an engine that panicked all read it
/// here.
pub(crate) fn engine_label(kind: EngineKind, seed: u64) -> String {
    let info = descriptor(kind);
    match info.determinism {
        Determinism::Fixed => info.name.to_string(),
        Determinism::Seeded => format!("{}[{seed}]", info.name),
    }
}

/// The stable digest of a routing state (FNV-1a over the entry text
/// `(i,j)=r;` of every entry in row-major order, rendered by
/// [`fold_entry_text`]) — the currency of the differential checker.
pub fn state_digest<A: RoutingAlgebra>(state: &RoutingState<A>) -> String {
    let n = state.node_count();
    rows_digest(n, (0..n).map(|i| state.row(i)))
}

/// [`state_digest`] of the `n × n` table whose rows are `rows`, in order.
pub(crate) fn rows_digest<'r, R: std::fmt::Debug + Eq + 'r>(
    n: usize,
    rows: impl IntoIterator<Item = &'r [R]>,
) -> String {
    let mut d = Digest::default();
    fold_entry_text(rows, 0, n, |_, text| d.update(text));
    d.finish()
}

/// Execute a phase sequence on one engine: take every [`Problem`] to (per
/// phase) a claimed fixed point.
///
/// Deterministic engines receive the first scenario seed and ignore it;
/// `threads` is the intra-run worker-thread budget for parallelizable
/// engines; `tel` receives the run's telemetry events (pass
/// [`NoopSink`](dbf_telemetry::NoopSink) to keep instrumentation off — the
/// kernels skip all telemetry-only work for a disabled sink).
///
/// This function is the whole run: the label, the identity start, the
/// state carried from phase to phase, the `phase_start`/clock/`phase_end`
/// bracket, the digest and the assembly of every [`PhaseOutcome`].  An
/// engine contributes only what differs — how a [`FaultSpec`] maps to its
/// configuration (computed before the clock starts) and how one phase is
/// iterated.  The contract every engine honours (and that
/// `tests/engine_contract.rs` enforces for each registered kind):
///
/// * one [`PhaseOutcome`] per problem, in order, carrying that phase's
///   final-state digest produced by [`state_digest`];
/// * `sigma_stable` is true only if the phase's final state is genuinely
///   σ-stable on the phase's adjacency;
/// * on strictly-increasing algebras the final digest must agree with the
///   synchronous engine (Theorems 7/11 — this is what the differential
///   checker asserts);
/// * runs are deterministic in `(problems, seed)` — **including the thread
///   count**: a [parallelizable](EngineInfo::parallelizable) engine must
///   produce bit-identical outcomes for every `threads` value (only
///   `wall_ms` may differ), and non-parallelizable engines ignore it;
/// * telemetry is honest: exactly one `run_start` carrying the returned
///   label, one `phase_start`/`phase_end` pair per problem, in between
///   exactly the event classes the engine's [`EngineInfo::events`]
///   advertises, and every event except wall-clock durations is a pure
///   function of `(problems, seed)`.
pub fn run_engine<A: ScenarioAlgebra>(
    kind: EngineKind,
    alg: &A,
    problems: &[Problem<A>],
    seed: u64,
    threads: usize,
    tel: &mut dyn TelemetrySink,
) -> EngineRun {
    let run = Run {
        kind,
        alg,
        problems,
        seed,
        threads,
    };
    // **This match and [`descriptors`] are the only places a new engine
    // must be added.**
    match kind {
        EngineKind::Sync | EngineKind::Incremental => run.drive(tel, Phase::threads, Phase::sigma),
        EngineKind::Delta => run.drive(tel, Phase::schedule, Phase::delta),
        EngineKind::Sim => run.drive(tel, Phase::sim_config, Phase::sim),
        EngineKind::Rip => run.drive(tel, Phase::rip_config, Phase::rip),
        EngineKind::Bgp => run.drive(tel, Phase::bgp_config, Phase::bgp),
    }
}

/// The arguments of one [`run_engine`] call.
struct Run<'a, A: RoutingAlgebra> {
    kind: EngineKind,
    alg: &'a A,
    problems: &'a [Problem<A>],
    seed: u64,
    threads: usize,
}

/// One phase of a run, as an engine's step sees it.
struct Phase<'a, A: RoutingAlgebra> {
    kind: EngineKind,
    alg: &'a A,
    problem: &'a Problem<A>,
    /// The previous phase's adjacency, when that phase ended σ-stable: the
    /// carried state is then a fixed point of it.
    settled_on: Option<&'a AdjacencyMatrix<A>>,
    /// The phase's position in the run.
    index: usize,
    seed: u64,
    threads: usize,
}

/// What a step hands back: the state to carry on and the phase's readings.
struct Step<A: RoutingAlgebra> {
    state: RoutingState<A>,
    /// Is `state` σ-stable on the phase's adjacency?  Only the σ kernel's
    /// own proof answers here; `None` leaves the answer to the phase loop's
    /// [`is_stable`] sweep — the one judge of δ and every message engine —
    /// which runs after the clock has stopped so that `wall_ms` entries
    /// stay comparable across the benchmark trajectory.
    stable: Option<bool>,
    rounds: u64,
    work: u64,
    /// A message engine's counters: the phase's `messages` and `bytes`,
    /// and the `messages` telemetry event (sent only when the engine's
    /// descriptor lists that event class).
    counters: Option<MessageCounters>,
    /// Per node, when its table row last changed — for an engine that
    /// learns settle times only from its finished run (the σ kernel and δ
    /// emit theirs themselves).
    settled: Vec<u64>,
}

impl<'a, A: ScenarioAlgebra> Run<'a, A> {
    /// The one phase loop.  `plan` maps the phase's fault profile to the
    /// engine's configuration before the clock starts; `step` iterates the
    /// phase on the clock.
    fn drive<C>(
        &self,
        tel: &mut dyn TelemetrySink,
        plan: impl Fn(&Phase<'a, A>) -> C,
        step: impl Fn(&Phase<'a, A>, C, RoutingState<A>, &mut dyn TelemetrySink) -> Step<A>,
    ) -> EngineRun {
        let label = engine_label(self.kind, self.seed);
        let info = descriptor(self.kind);
        let sends_messages = info.events.contains(&EventClass::Messages);
        tel.run_start(&label, info.name);
        let mut state = RoutingState::identity(self.alg, self.problems[0].adj.node_count());
        let mut phases: Vec<PhaseOutcome> = Vec::with_capacity(self.problems.len());
        for (index, problem) in self.problems.iter().enumerate() {
            let n = problem.adj.node_count();
            // A node may have joined the network since the last phase.
            if state.node_count() < n {
                state = state.grown(self.alg, n);
            }
            let phase = Phase {
                kind: self.kind,
                alg: self.alg,
                problem,
                settled_on: match phases.last() {
                    Some(prev) if prev.sigma_stable => Some(&self.problems[index - 1].adj),
                    _ => None,
                },
                index,
                seed: self.seed,
                threads: self.threads,
            };
            let config = plan(&phase);
            tel.phase_start(&problem.label, n);
            let start = Instant::now();
            let out = step(&phase, config, state, &mut *tel);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            if tel.enabled() {
                if let Some(counters) = out.counters.as_ref().filter(|_| sends_messages) {
                    tel.messages(counters);
                }
                for (node, &t) in out.settled.iter().enumerate() {
                    tel.node_settled(node, t);
                }
            }
            tel.phase_end(&problem.label);
            state = out.state;
            phases.push(PhaseOutcome {
                label: problem.label.clone(),
                sigma_stable: out
                    .stable
                    .unwrap_or_else(|| is_stable(self.alg, &problem.adj, &state)),
                rounds: out.rounds,
                predicted_bound: None,
                work: out.work,
                messages: out.counters.map(|c| c.sent),
                bytes: out.counters.and_then(|c| c.bytes),
                wall_ms,
                digest: state_digest(&state),
            });
        }
        EngineRun {
            engine: label,
            phases,
            error: None,
        }
    }
}

/// Why a protocol adapter's downcast cannot fail.
const GATED: &str = "the engine's algebra gate (EngineInfo::supports) admitted this scenario";

/// The algebra-specific protocol adapters see the generic problem through
/// `Any`: the registry is generic over `A`, the RIP/BGP machinery is not.
fn downcast<Src: Any, Dst: Any>(value: &Src) -> &Dst {
    (value as &dyn Any).downcast_ref().expect(GATED)
}

/// [`downcast`] by value, for the run a protocol adapter hands back.
fn downcast_owned<Src: Any, Dst: Any>(value: Src) -> Dst {
    *(Box::new(value) as Box<dyn Any>).downcast().expect(GATED)
}

/// How a fault profile maps onto the δ-schedule generators: their
/// parameters with every clamp applied, and the S1 window `w` of the
/// schedule they produce (S3's `ℓ` is the parameters' `max_delay`).  The δ
/// engine builds its schedule from this pair and the bound oracle
/// ([`crate::bound::schedule_window`]) multiplies the same pair into
/// `n·h·(w + ℓ + 1)`, so the two cannot drift.
pub(crate) fn schedule_plan(faults: &FaultSpec) -> (ScheduleParams, usize) {
    let params = ScheduleParams {
        activation_prob: faults.activation.clamp(0.05, 1.0),
        max_delay: (faults.max_delay as usize).max(1),
        duplicate_prob: faults.duplicate.clamp(0.0, 1.0),
        reorder_prob: faults.reorder.clamp(0.0, 1.0),
    };
    let window = match faults.schedule {
        // The victim activates every `period` steps; everyone else is
        // synchronous.
        ScheduleSpec::AdversarialStale { period, .. } => (period as usize).max(1),
        ScheduleSpec::Random => params.s1_window(),
    };
    (params, window)
}

impl<A: ScenarioAlgebra> Phase<'_, A> {
    /// The phase's seed for a seeded engine: each engine strides the run
    /// seed by its own constant (the pinned counters depend on them).
    fn seed(&self, stride: u64) -> u64 {
        self.seed.wrapping_add(self.index as u64 * stride)
    }

    /// The σ engines' thread count.  More than one thread shards rounds
    /// over the process-wide pool, which this starts before the clock,
    /// like every other piece of setup.
    fn threads(&self) -> usize {
        if self.threads > 1 {
            WorkerPool::shared();
        }
        self.threads
    }

    /// Engines 1 and 2, the synchronous σ-iteration (`dbf-matrix`) — the
    /// reference semantics every other engine is checked against — and its
    /// incremental form, which reproduces the synchronous trajectory
    /// state-for-state while recomputing only the perturbed region after a
    /// topology change.  One kernel run; the two differ in the dirty mask
    /// they start from and in the two kernel counters they report (`work`
    /// is σ iterations for sync, row recomputations — a full round costs
    /// `n` of them — for incremental).
    fn sigma(
        &self,
        threads: usize,
        state: RoutingState<A>,
        tel: &mut dyn TelemetrySink,
    ) -> Step<A> {
        let adj = &self.problem.adj;
        let n = adj.node_count();
        // `bound + 1` rounds when the bound oracle annotated the problem
        // (the extra round turns an off-by-one in a bound formula into a
        // visible bound violation instead of a convergence failure),
        // otherwise the quadratic fallback.
        let budget = dbf_matrix::iteration_budget(n, self.problem.round_budget);
        let incremental = self.kind == EngineKind::Incremental;
        // The dirty-start optimisation is only sound from a fixed point of
        // the previous phase; a phase that failed to converge (budget
        // exhausted on a non-increasing algebra) poisons it.
        let dirty = match self.settled_on.filter(|_| incremental) {
            Some(old) => dirty_rows_after_change(old, adj),
            None => vec![true; n],
        };
        // A converged iteration *is* the stability proof, and a run that
        // exhausts its budget is decided by the kernel's boundary check.
        let out = iterate_with(self.alg, adj, state, &dirty, budget, threads, tel);
        let (rounds, work) = if incremental {
            (out.rounds as u64, out.row_recomputations)
        } else {
            (out.iterations as u64, out.iterations as u64)
        };
        Step {
            stable: Some(out.converged),
            state: out.state,
            rounds,
            work,
            counters: None,
            settled: Vec::new(),
        }
    }

    /// The δ engine's schedule for the phase, from [`schedule_plan`].
    fn schedule(&self) -> Schedule {
        let faults = &self.problem.faults;
        let n = self.problem.adj.node_count();
        let horizon = faults.horizon.max(1);
        let (params, window) = schedule_plan(faults);
        match faults.schedule {
            // The victim's S1 window is its activation period.
            ScheduleSpec::AdversarialStale { victim, .. } => {
                Schedule::adversarial_stale(n, horizon, victim % n.max(1), window, params.max_delay)
            }
            ScheduleSpec::Random => Schedule::random(n, horizon, params, self.seed(0x9E37)),
        }
    }

    /// Engine 3, the asynchronous iterate δ under seeded random (or
    /// worst-case adversarial-staleness) schedules (`dbf-async`).  δ only
    /// runs its schedule; the phase loop's [`is_stable`] sweep judges it.
    fn delta(
        &self,
        sched: Schedule,
        state: RoutingState<A>,
        tel: &mut dyn TelemetrySink,
    ) -> Step<A> {
        let out = run_delta_traced(self.alg, &self.problem.adj, &state, &sched, tel);
        Step {
            state: out.final_state,
            stable: None,
            // Quiescence time: how deep into the schedule the state kept
            // changing (the full horizon if it never settled).
            rounds: out.quiescent_from.unwrap_or(sched.horizon()) as u64,
            work: out.activations as u64,
            counters: None,
            settled: Vec::new(),
        }
    }

    fn sim_config(&self) -> SimConfig {
        let faults = &self.problem.faults;
        SimConfig {
            loss_prob: faults.loss.clamp(0.0, 1.0),
            duplicate_prob: faults.duplicate.clamp(0.0, 1.0),
            min_delay: faults.min_delay.max(1),
            max_delay: faults.max_delay.max(faults.min_delay.max(1)),
            seed: self.seed(0xA5A5),
            max_events: 2_000_000,
            refresh_rounds: 64,
        }
    }

    /// Engine 4, the fault-injecting discrete-event message simulator
    /// (`dbf-async`).  Settle times are in simulated time: when each
    /// node's table row last changed (deterministic in the seed).
    fn sim(&self, cfg: SimConfig, state: RoutingState<A>, _: &mut dyn TelemetrySink) -> Step<A> {
        self.messages(EventSim::with_initial_state(self.alg, &self.problem.adj, cfg, &state).run())
    }

    /// The adapter keeps the oracle sound by not forwarding the simulator's
    /// loss probability: RIP cures ghost routes with its route timeout, and
    /// a run whose horizon falls inside a loss-induced expiry/recovery
    /// window would read as a spurious disagreement.  Lossy RIP convergence
    /// is exercised directly by `dbf-protocols`' own tests; the scenario
    /// layer samples schedules via per-message delays and per-router timer
    /// jitter, which the seed controls.
    fn rip_config(&self) -> RipConfig {
        let faults = &self.problem.faults;
        let min_delay = faults.min_delay.clamp(1, 10);
        RipConfig {
            hop_limit: downcast::<A, BoundedHopCount>(self.alg).limit(),
            route_timeout: 150,
            split_horizon: dbf_protocols::rip::SplitHorizon::PoisonReverse,
            loss_prob: 0.0,
            min_delay,
            max_delay: faults.max_delay.clamp(min_delay, 10),
            // Generous: stale carried entries expire at `route_timeout` and
            // the hop limit bounds any counting episode after that.
            max_time: 6_000,
            seed: self.seed(0x51F1),
        }
    }

    /// Engine 5, the message-level RIP engine (`dbf-protocols::rip`) as a
    /// checker engine: routers exchange wire-encoded periodic and triggered
    /// updates with split horizon and route timeouts, each phase carrying
    /// the previous phase's (stale) tables, and the result is projected
    /// back into a [`RoutingState`] for the differential oracle.
    fn rip(&self, cfg: RipConfig, state: RoutingState<A>, _: &mut dyn TelemetrySink) -> Step<A> {
        let adj: &AdjacencyMatrix<BoundedHopCount> = downcast(&self.problem.adj);
        let run = RipEngine::from_adjacency(adj.clone(), cfg)
            .with_initial_state(downcast(&state))
            .run();
        self.messages(downcast_owned(run))
    }

    fn bgp_config(&self) -> BgpConfig {
        let faults = &self.problem.faults;
        let min_delay = faults.min_delay.clamp(1, 10);
        BgpConfig {
            min_delay,
            max_delay: faults.max_delay.clamp(min_delay, 12),
            // Fault knobs have no loss to map to (sessions are reliable);
            // noisy phases instead get session resets mid-run.
            session_resets: if faults.loss > 0.0 || faults.duplicate > 0.0 {
                2
            } else {
                0
            },
            max_time: 200_000,
            seed: self.seed(0xB690),
        }
    }

    /// Engine 6, the message-level BGP engine (`dbf-protocols::bgp`) as a
    /// checker engine: per-neighbour sessions with reliable in-order
    /// delivery, adj-RIB-in bookkeeping, incremental wire-encoded
    /// announcements and withdrawals, and seeded session resets.
    ///
    /// BGP is a *hard-state* protocol: a topology change tears sessions
    /// down and the loc-RIB is re-derived entirely from what the
    /// re-established sessions announce.  Each phase therefore starts from
    /// session establishment and ignores the carried tables — Theorem 11
    /// makes the fixed point unique, so the digests must (and do) agree
    /// with the stale-state-carrying engines.
    fn bgp(&self, cfg: BgpConfig, _: RoutingState<A>, _: &mut dyn TelemetrySink) -> Step<A> {
        let alg: &BgpAlgebra = downcast(self.alg);
        let adj: &AdjacencyMatrix<BgpAlgebra> = downcast(&self.problem.adj);
        let run = BgpEngine::from_parts(*alg, adj.clone(), cfg).run();
        self.messages(downcast_owned(run))
    }

    /// The readings of a message engine's run (sim, rip, bgp), which
    /// judges nothing itself: a run cut at its safety budget is unstable,
    /// and any other is left to the phase loop's [`is_stable`] sweep.
    /// `rounds` is the simulated time of the last table change and `work`
    /// the deliveries.
    fn messages(&self, run: MessageRun<A>) -> Step<A> {
        let stats = run.stats;
        Step {
            state: run.final_state,
            stable: run.truncated.then_some(false),
            rounds: stats.last_change_time,
            work: stats.counters.delivered,
            counters: Some(stats.counters),
            settled: run.node_last_change,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::schedule_window;

    /// Certify every schedule the δ engine's plan builds for `spec` — one
    /// per phase and scenario seed, through `Phase::schedule` itself, seed
    /// stride included — under the `(w, ℓ)` the bound oracle reads off the
    /// same phase.  Returns how many schedules that was.
    fn certify_planned_schedules(spec: &Scenario) -> usize {
        spec.validate()
            .expect("builtins and generated cases validate");
        let alg = BoundedHopCount::new(1);
        let gadget_nodes = match spec.algebra {
            AlgebraSpec::Spp { gadget } => gadget.algebra().node_count(),
            _ => 0,
        };
        let mut certified = 0;
        for &seed in engine_seeds(EngineKind::Delta, spec) {
            for (index, (phase, n)) in spec.phases.iter().zip(spec.phase_node_counts()).enumerate()
            {
                // The schedule depends on the problem only through its node
                // count and fault profile: a linkless network will do.
                let n = n.max(gadget_nodes);
                let problem = Problem::new(
                    phase.label.clone(),
                    AdjacencyMatrix::<BoundedHopCount>::from_fn(n, |_, _| None),
                    phase.faults,
                );
                let plan = Phase {
                    kind: EngineKind::Delta,
                    alg: &alg,
                    problem: &problem,
                    settled_on: None,
                    index,
                    seed,
                    threads: 1,
                };
                let (window, lag) = schedule_window(&phase.faults);
                plan.schedule()
                    .certify(window as usize, lag as usize)
                    .unwrap_or_else(|v| {
                        panic!(
                            "{} phase {:?} seed {seed}: not ({window}, {lag})-bounded: {v}",
                            spec.name, phase.label
                        )
                    });
                certified += 1;
            }
        }
        certified
    }

    /// The loop the bound oracle never closed: `n·h·(w + ℓ + 1)` is a
    /// theorem about `(w, ℓ)`-bounded executions, so the schedules δ is
    /// actually run under must be exactly that.
    #[test]
    fn the_schedules_delta_runs_certify_under_the_oracles_window() {
        let mut certified = 0;
        for spec in crate::builtins::all() {
            if spec.engines.contains(&EngineKind::Delta) {
                certified += certify_planned_schedules(&spec);
            }
        }
        assert!(certified >= 20, "only {certified} builtin schedules");
        let mut adversarial = 0;
        for seed in 0..200 {
            let spec = crate::gen::scenario_case(seed);
            assert!(spec.engines.contains(&EngineKind::Delta), "case {seed}");
            certify_planned_schedules(&spec);
            adversarial += spec
                .phases
                .iter()
                .filter(|p| matches!(p.faults.schedule, ScheduleSpec::AdversarialStale { .. }))
                .count();
        }
        assert!(adversarial >= 20, "only {adversarial} adversarial phases");
    }
}
