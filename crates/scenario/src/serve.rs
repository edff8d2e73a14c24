//! The long-lived route-server mode: ingest a continuous stream of
//! topology-churn events, coalesce overlapping changes into batches, and
//! reconverge incrementally between σ rounds — now crash-safe.
//!
//! Where [`crate::run`] executes a *finite* scenario script phase by
//! phase, a [`RouteServer`] stays up: events arrive one at a time, are
//! buffered into a pending batch, and only when the batch flushes does
//! the server recompute — the dirty-row mask is derived from the
//! *pre-batch vs post-batch* adjacency
//! ([`dbf_matrix::dirty_rows_after_change`]), so overlapping or mutually
//! cancelling changes coalesce maximally (a change that is undone within
//! the same batch dirties nothing).  The reconvergence itself is the
//! incremental dirty-row σ kernel running on a persistent
//! [`dbf_matrix::WorkerPool`], which makes the result bit-identical at
//! any thread count.
//!
//! Soundness of batching: rows whose adjacency row is unchanged keep
//! their old routing row, and the old state was a fixed point, so σ is
//! already stable there; only the dirtied rows (and whatever their
//! recomputation subsequently perturbs) can move.  This is exactly the
//! incremental engine's argument, applied to a batch of changes instead
//! of a phase script.
//!
//! A flush is triggered by three things: the pending batch reaching the
//! configured size cap, a route query arriving, or the event stream
//! ending.
//!
//! # Crash safety
//!
//! [`replay_trace_opts`] can arm a [`CheckpointStore`]: every applied
//! event is appended (and flushed) to a write-ahead log *before* it is
//! submitted, and every `checkpoint_every` events a snapshot of the
//! converged table, shape, weight overrides, pending batch, and
//! deterministic counters is atomically written (and the WAL
//! truncated).  Recovery (`recover: true`) restores the snapshot,
//! replays the WAL tail through the ordinary `submit` path, and
//! continues the trace from where the WAL ends.  Because the algebras
//! are strictly increasing (unique fixed point) and the replay path is
//! the production path, a run killed at *any* event offset and recovered
//! produces a `BENCH_serve.json` whose deterministic section is
//! byte-identical to an uninterrupted run's.
//!
//! # Deadlines and degraded mode
//!
//! A [`DeadlineCfg`] bounds how long one flush may reconverge.  On
//! overrun the server parks the half-converged work ([`is_degraded`]),
//! keeps answering queries from the last stable table (answers are
//! flagged [`ServeAnswer::stale`]), and advances the parked
//! reconvergence a round at a time as queries arrive — wall-clock only
//! decides *when* the new table is adopted, never *what* it contains,
//! so the deterministic counters and digests are unaffected.  Transient
//! kernel failures (a poisoned pool, an injected panic) are retried with
//! bounded exponential backoff and supervision in between; persistent
//! ones surface as a structured [`ServeProblem`].
//!
//! [`replay_trace`] drives a server from a seeded [`ChurnTrace`] — the
//! sustained-churn benchmark behind `scenarios serve --replay` and
//! `BENCH_serve.json` — and reports throughput, p50/p95/p99 convergence
//! and query latency, the coalesce ratio, and the pool's utilization
//! counters.  Its determinism currency is a pair of digests (final
//! routing state, concatenated query answers): on the strictly-increasing
//! algebras the trace format supports, both must be byte-identical across
//! `--threads 1/2/8` *and* across batch sizes *and* across crash/recover
//! splits.
//!
//! [`is_degraded`]: RouteServer::is_degraded

use crate::checkpoint::{CheckpointStore, PersistRoute, Snapshot, WalError};
use crate::engine::{state_digest, ScenarioAlgebra};
use crate::report::{Digest, Json};
use crate::run::build_shape;
use crate::spec::{finite_weight, ChangeSpec, SpecError, TopologySpec, WeightRule};
use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::prelude::*;
use dbf_matrix::{
    dirty_rows_after_change, iteration_budget, AdjacencyMatrix, FaultPlan, FixedPoint, PoolStats,
    Pooled, RoutingState, Start, WorkerPool,
};
use dbf_telemetry::{SettleSummary, TelemetrySink};
use dbf_topology::Topology;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Trace model
// ---------------------------------------------------------------------

/// One event of a churn trace: a topology change or a route query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeEvent {
    /// A topology change, reusing the scenario change vocabulary.
    Change(ChangeSpec),
    /// A route query: "what is `from`'s route to `to`?"  Forces the
    /// pending batch to flush and reconverge first (unless the server is
    /// degraded, in which case it answers stale — see
    /// [`RouteServer::query`]).
    Query {
        /// Querying node.
        from: usize,
        /// Destination node.
        to: usize,
    },
}

/// The algebras the serve trace format supports.  Both are strictly
/// increasing, so the fixed point is unique and replay digests are
/// comparable across thread counts *and* batch sizes.
///
/// The difference is the carrier: the hop-count carrier is *finite*, so
/// Theorem 7 guarantees reconvergence from any state and batches always
/// reconverge incrementally from the cached table.  Plain shortest paths
/// has an infinite carrier (the paper's Section 5 count-to-infinity
/// example), so the server falls back to a from-scratch reconvergence on
/// batches that worsen routes — see [`RouteServer::restart_on_removal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeAlgebra {
    /// Bounded hop count with the given limit (uniform weight 1 unless
    /// overridden by `set_weight` events).
    Hopcount {
        /// The hop limit.
        limit: u64,
    },
    /// Shortest paths with uniform weight 1 (unless overridden by
    /// `set_weight` events).
    Shortest,
}

impl ServeAlgebra {
    /// Stable tag used in trace files and checkpoint snapshots.
    pub fn tag(&self) -> String {
        match self {
            ServeAlgebra::Hopcount { limit } => format!("hopcount {limit}"),
            ServeAlgebra::Shortest => "shortest".to_string(),
        }
    }

    /// A hop limit must be one `BoundedHopCount::new` takes (at least 1)
    /// and a finite point of `ℕ∞` (`u64::MAX` stands for ∞).
    fn validate(&self) -> Result<(), SpecError> {
        match *self {
            ServeAlgebra::Hopcount { limit } if limit == 0 || NatInf::try_fin(limit).is_none() => {
                Err(SpecError::new(format!(
                    "hop-count limit {limit} is out of range (limits are 1..={}; u64::MAX stands for ∞)",
                    u64::MAX - 1
                )))
            }
            _ => Ok(()),
        }
    }
}

/// A replayable churn trace: the initial topology, the routing algebra,
/// and the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnTrace {
    /// The initial topology (generator families with a `n` only).
    pub topology: TopologySpec,
    /// The routing algebra.
    pub algebra: ServeAlgebra,
    /// The event stream, in arrival order.
    pub events: Vec<ServeEvent>,
}

/// The v1 trace header: no `set_weight` events.
const TRACE_HEADER: &str = "# dbf-churn-trace v1";
/// The v2 trace header: adds the `set_weight <from> <to> <w>` verb.
/// Emitted only when a trace actually contains weight events, so v1
/// traces keep round-tripping byte-identically.
const TRACE_HEADER_V2: &str = "# dbf-churn-trace v2";

/// Render a change in the trace's line vocabulary (shared by the trace
/// format, the WAL, and checkpoint pending-batch persistence).
pub(crate) fn change_to_line(c: &ChangeSpec) -> String {
    match c {
        ChangeSpec::SetLink { a, b } => format!("set_link {a} {b}"),
        ChangeSpec::SetEdge { from, to } => format!("set_edge {from} {to}"),
        ChangeSpec::RemoveEdge { from, to } => format!("remove_edge {from} {to}"),
        ChangeSpec::FailLink { a, b } => format!("fail_link {a} {b}"),
        ChangeSpec::AddNode => "add_node".to_string(),
        ChangeSpec::SetWeight { from, to, weight } => format!("set_weight {from} {to} {weight}"),
    }
}

/// Render an event in the trace's line vocabulary.
pub(crate) fn event_to_line(e: &ServeEvent) -> String {
    match e {
        ServeEvent::Change(c) => change_to_line(c),
        ServeEvent::Query { from, to } => format!("query {from} {to}"),
    }
}

/// Parse one event line of the trace vocabulary.  The error is a bare
/// message; callers attach file/line context.
pub(crate) fn parse_event_line(line: &str) -> Result<ServeEvent, String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    if toks.is_empty() {
        return Err("empty event line".to_string());
    }
    let word = toks[0];
    let arity = |want: usize| -> Result<(), String> {
        if toks.len() == want + 1 {
            Ok(())
        } else {
            Err(format!("{word} takes {want} operand(s)"))
        }
    };
    let num = |pos: usize| -> Result<usize, String> {
        toks[pos]
            .parse::<usize>()
            .map_err(|e| format!("bad operand {:?}: {e}", toks[pos]))
    };
    match word {
        "set_link" => {
            arity(2)?;
            Ok(ServeEvent::Change(ChangeSpec::SetLink {
                a: num(1)?,
                b: num(2)?,
            }))
        }
        "set_edge" => {
            arity(2)?;
            Ok(ServeEvent::Change(ChangeSpec::SetEdge {
                from: num(1)?,
                to: num(2)?,
            }))
        }
        "remove_edge" => {
            arity(2)?;
            Ok(ServeEvent::Change(ChangeSpec::RemoveEdge {
                from: num(1)?,
                to: num(2)?,
            }))
        }
        "fail_link" => {
            arity(2)?;
            Ok(ServeEvent::Change(ChangeSpec::FailLink {
                a: num(1)?,
                b: num(2)?,
            }))
        }
        "add_node" => {
            arity(0)?;
            Ok(ServeEvent::Change(ChangeSpec::AddNode))
        }
        "set_weight" => {
            arity(3)?;
            Ok(ServeEvent::Change(ChangeSpec::SetWeight {
                from: num(1)?,
                to: num(2)?,
                weight: finite_weight(num(3)? as u64)?,
            }))
        }
        "query" => {
            arity(2)?;
            Ok(ServeEvent::Query {
                from: num(1)?,
                to: num(2)?,
            })
        }
        other => Err(format!("unknown event {other:?}")),
    }
}

impl ChurnTrace {
    /// Render the trace in its line-oriented text format.
    ///
    /// ```text
    /// # dbf-churn-trace v1
    /// topology ring 32
    /// algebra hopcount 64
    /// set_link 3 9
    /// fail_link 0 1
    /// query 0 5
    /// add_node
    /// ```
    ///
    /// Traces containing `set_weight` events are emitted under the v2
    /// header; weightless traces stay on v1 so existing trace files
    /// round-trip byte-identically.
    pub fn to_text(&self) -> String {
        let has_weights = self
            .events
            .iter()
            .any(|e| matches!(e, ServeEvent::Change(ChangeSpec::SetWeight { .. })));
        let mut out = String::new();
        out.push_str(if has_weights {
            TRACE_HEADER_V2
        } else {
            TRACE_HEADER
        });
        out.push('\n');
        let topo = match &self.topology {
            TopologySpec::Line { n } => format!("line {n}"),
            TopologySpec::Ring { n } => format!("ring {n}"),
            TopologySpec::Star { n } => format!("star {n}"),
            TopologySpec::Complete { n } => format!("complete {n}"),
            other => panic!("unsupported serve topology {other:?} (validated on construction)"),
        };
        out.push_str(&format!("topology {topo}\n"));
        out.push_str(&format!("algebra {}\n", self.algebra.tag()));
        for ev in &self.events {
            out.push_str(&event_to_line(ev));
            out.push('\n');
        }
        out
    }

    /// Parse the text format produced by [`ChurnTrace::to_text`] (both
    /// the v1 and v2 headers are accepted).
    pub fn parse(text: &str) -> Result<ChurnTrace, SpecError> {
        let mut lines = text.lines().enumerate();
        let bad = |k: usize, msg: &str| SpecError::new(format!("trace line {}: {msg}", k + 1));
        match lines.next() {
            Some((_, l)) if l.trim() == TRACE_HEADER || l.trim() == TRACE_HEADER_V2 => {}
            _ => {
                return Err(SpecError::new(format!(
                    "not a churn trace (expected header {TRACE_HEADER:?} or {TRACE_HEADER_V2:?})"
                )))
            }
        }
        let mut topology = None;
        let mut algebra = None;
        let mut events = Vec::new();
        for (k, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            let word = toks[0];
            let num = |pos: usize| -> Result<usize, SpecError> {
                toks[pos]
                    .parse::<usize>()
                    .map_err(|e| bad(k, &format!("bad operand {:?}: {e}", toks[pos])))
            };
            match word {
                "topology" => {
                    if toks.len() != 3 {
                        return Err(bad(k, "topology takes 2 operand(s)"));
                    }
                    let n = num(2)?;
                    topology = Some(match toks[1] {
                        "line" => TopologySpec::Line { n },
                        "ring" => TopologySpec::Ring { n },
                        "star" => TopologySpec::Star { n },
                        "complete" => TopologySpec::Complete { n },
                        other => return Err(bad(k, &format!("unknown topology {other:?}"))),
                    });
                }
                "algebra" => {
                    algebra = Some(match &toks[1..] {
                        ["hopcount", _] => {
                            let algebra = ServeAlgebra::Hopcount {
                                limit: num(2)? as u64,
                            };
                            algebra.validate().map_err(|e| bad(k, &e.message))?;
                            algebra
                        }
                        ["shortest"] => ServeAlgebra::Shortest,
                        _ => return Err(bad(k, "expected `hopcount <limit>` or `shortest`")),
                    });
                }
                _ => events.push(parse_event_line(line).map_err(|e| bad(k, &e))?),
            }
        }
        Ok(ChurnTrace {
            topology: topology.ok_or_else(|| SpecError::new("trace has no topology line"))?,
            algebra: algebra.ok_or_else(|| SpecError::new("trace has no algebra line"))?,
            events,
        })
    }

    /// Number of change events in the trace.
    pub fn change_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ServeEvent::Change(_)))
            .count()
    }

    /// Number of query events in the trace.
    pub fn query_count(&self) -> usize {
        self.events.len() - self.change_count()
    }
}

// ---------------------------------------------------------------------
// Trace generation
// ---------------------------------------------------------------------

/// Parameters of the seeded churn-trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Initial topology (`line`/`ring`/`star`/`complete` only).
    pub topology: TopologySpec,
    /// Routing algebra.
    pub algebra: ServeAlgebra,
    /// How many events to generate.
    pub events: usize,
    /// Root seed of the event stream.
    pub seed: u64,
    /// Out of 1000 events, how many are queries (the rest are changes).
    pub query_permille: u32,
    /// Out of 1000 non-query events, how many are `set_weight` policy
    /// changes (weights 1..=8).  At 0 the generator draws no weight
    /// randomness at all, so pre-existing traces regenerate
    /// byte-identically.
    pub weight_permille: u32,
}

/// Generate a deterministic churn trace: link flaps, directed edge churn,
/// optional per-edge weight policy churn, and interleaved route queries
/// over the initial topology.  Node count stays fixed (`add_node` is
/// accepted by the replayer but not generated, so a 10⁶-event trace does
/// not grow the network without bound).
pub fn generate_trace(spec: &TraceSpec) -> Result<ChurnTrace, SpecError> {
    spec.algebra.validate()?;
    let shape = build_shape(&spec.topology)?;
    let n = shape.node_count();
    if n < 3 {
        return Err(SpecError::new("churn traces need at least 3 nodes"));
    }
    let mut rng = SplitMix64::new(spec.seed ^ 0x5e7e_5e7e_5e7e_5e7e);
    let mut events = Vec::with_capacity(spec.events);
    for _ in 0..spec.events {
        let pick_pair = |rng: &mut SplitMix64| {
            let a = rng.next_below(n as u64) as usize;
            let mut b = rng.next_below(n as u64) as usize;
            if a == b {
                b = (b + 1) % n;
            }
            (a, b)
        };
        if rng.next_below(1000) < spec.query_permille as u64 {
            let (from, to) = pick_pair(&mut rng);
            events.push(ServeEvent::Query { from, to });
        } else if spec.weight_permille > 0 && rng.next_below(1000) < spec.weight_permille as u64 {
            let (from, to) = pick_pair(&mut rng);
            let weight = 1 + rng.next_below(8);
            events.push(ServeEvent::Change(ChangeSpec::SetWeight {
                from,
                to,
                weight,
            }));
        } else {
            let (a, b) = pick_pair(&mut rng);
            let change = match rng.next_below(4) {
                0 => ChangeSpec::SetLink { a, b },
                1 => ChangeSpec::FailLink { a, b },
                2 => ChangeSpec::SetEdge { from: a, to: b },
                _ => ChangeSpec::RemoveEdge { from: a, to: b },
            };
            events.push(ServeEvent::Change(change));
        }
    }
    Ok(ChurnTrace {
        topology: spec.topology.clone(),
        algebra: spec.algebra,
        events,
    })
}

// ---------------------------------------------------------------------
// Structured outcomes
// ---------------------------------------------------------------------

/// A structured, classified failure from a [`RouteServer`] operation.
///
/// `kind` is a short stable slug (`out_of_range`, `budget`, `kernel`)
/// that mid-replay error reports and exit paths switch on; `message` is
/// the human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeProblem {
    /// Stable machine-readable classification.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ServeProblem {
    fn out_of_range(message: String) -> ServeProblem {
        ServeProblem {
            kind: "out_of_range",
            message,
        }
    }

    fn budget(batch: u64) -> ServeProblem {
        ServeProblem {
            kind: "budget",
            message: format!(
                "batch {batch} exhausted its iteration budget (non-increasing algebra?)"
            ),
        }
    }
}

impl fmt::Display for ServeProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl From<ServeProblem> for SpecError {
    fn from(p: ServeProblem) -> SpecError {
        SpecError::new(p.message)
    }
}

/// A query answer: the rendered route plus whether it was served from a
/// stale (pre-deadline-overrun) table while reconvergence continues in
/// the background.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeAnswer {
    /// The rendered route value.
    pub text: String,
    /// `true` when answered from the last stable table during degraded
    /// operation.
    pub stale: bool,
}

/// A structured mid-replay failure: what went wrong, at which event
/// offset, and where the last durable checkpoint is — enough for an
/// operator to `--recover` or to bisect the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeFailure {
    /// Failure class: `out_of_range`, `budget`, `kernel`, `crash`,
    /// `wal`, `checkpoint`, or `io`.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
    /// The trace event offset at which the replay stopped.
    pub offset: u64,
    /// Offset of the most recent durable snapshot, if any.
    pub last_checkpoint: Option<u64>,
}

/// How a replay was bootstrapped from a checkpoint store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Snapshot offset the run resumed from (`None`: no snapshot yet,
    /// recovery replayed the WAL from offset 0).
    pub snapshot_offset: Option<u64>,
    /// WAL records replayed on top of the snapshot.
    pub wal_replayed: u64,
}

/// Per-flush reconvergence deadline policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlineCfg {
    /// No deadline: every flush converges synchronously (the default for
    /// library use; digests never see staleness).
    #[default]
    Off,
    /// Derive the deadline from the convergence-bound oracle: predicted
    /// worst-case rounds × the measured per-round cost (EMA) × a 4×
    /// safety margin, floored at 1ms.
    Auto,
    /// A fixed per-flush deadline in milliseconds.
    Millis(u64),
}

/// The convergence-bound rule the server audits flushes against
/// (mirrors `crate::bound::algebra_height` for the serve algebras:
/// synchronous bound = n·h).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundRule {
    /// No bound auditing.
    #[default]
    None,
    /// Bounded hop count: height = limit + 2.
    Hopcount {
        /// The hop limit.
        limit: u64,
    },
    /// Shortest paths: height = (n−1)·w_max + 2, with w_max the largest
    /// weight currently in force (base weight 1 or a `set_weight`
    /// override).
    Shortest,
}

impl BoundRule {
    /// Predicted worst-case σ rounds for an `n`-node flush, if a rule is
    /// in force.
    fn rounds(&self, n: usize, overrides: &WeightOverrides) -> Option<u64> {
        let n = n as u64;
        match self {
            BoundRule::None => None,
            BoundRule::Hopcount { limit } => Some(n.saturating_mul(limit.saturating_add(2))),
            BoundRule::Shortest => {
                let w_max = overrides.values().copied().max().unwrap_or(1).max(1);
                let height = n.saturating_sub(1).saturating_mul(w_max).saturating_add(2);
                Some(n.saturating_mul(height))
            }
        }
    }
}

/// Which worker pool a server runs its σ sweeps on.
///
/// The process-wide shared pool is right for ordinary serving; chaos
/// runs use a dedicated pool so that injected fault epochs (which are
/// counted relative to pool arm time) are deterministic and cannot leak
/// into unrelated work.
#[derive(Clone, Default)]
pub enum PoolHandle {
    /// The lazily-created process-wide pool.
    #[default]
    Shared,
    /// A pool owned by this server/replay.
    Owned(Arc<WorkerPool>),
}

impl PoolHandle {
    /// The pool to run on.
    pub fn get(&self) -> &WorkerPool {
        match self {
            PoolHandle::Shared => WorkerPool::shared(),
            PoolHandle::Owned(p) => p,
        }
    }
}

/// Options for [`replay_trace_opts`]: the plain replay knobs plus the
/// crash-safety and chaos plane.
#[derive(Clone)]
pub struct ServeOptions {
    /// σ sweep worker budget (results are bit-identical for every value).
    pub threads: usize,
    /// How many change events coalesce into one reconvergence.
    pub batch_max: usize,
    /// Per-flush reconvergence deadline policy.
    pub deadline: DeadlineCfg,
    /// Arm a checkpoint + WAL store in this directory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot cadence, in applied events.
    pub checkpoint_every: u64,
    /// Restore the snapshot and replay the WAL tail before continuing
    /// the trace (requires `checkpoint_dir`).
    pub recover: bool,
    /// A deterministic fault schedule to run under.  Forces a dedicated
    /// pool so fault epochs are reproducible.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            threads: 1,
            batch_max: 16,
            deadline: DeadlineCfg::Off,
            checkpoint_dir: None,
            checkpoint_every: 64,
            recover: false,
            faults: None,
        }
    }
}

// ---------------------------------------------------------------------
// The route server
// ---------------------------------------------------------------------

/// Per-edge weight overrides installed by `set_weight` events, keyed by
/// directed edge.  Threaded into the rebuild closure so weight policy
/// survives arbitrary topology churn and checkpoint/restore.
pub type WeightOverrides = BTreeMap<(usize, usize), u64>;

/// Lifetime counters of a [`RouteServer`].
///
/// Everything up to `bound_ok` is deterministic (identical across thread
/// counts and crash/recover splits) and lands in the deterministic
/// section of `BENCH_serve.json`; the wall-clock-dependent counters
/// (`stale_answers`, `deadline_overruns`, `flush_retries`) and the
/// latency samples land in its `timing` section.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Change events ingested.
    pub changes: u64,
    /// Queries answered.
    pub queries: u64,
    /// Batches flushed (reconvergences run).
    pub batches: u64,
    /// Rows one-at-a-time processing would have dirtied (structural
    /// estimate: the endpoint rows of every event, summed).
    pub naive_dirty_rows: u64,
    /// Rows the coalesced pre-vs-post adjacency diff actually dirtied.
    pub batch_dirty_rows: u64,
    /// Incremental σ rounds across all flushes.
    pub rounds: u64,
    /// Row recomputations across all flushes.
    pub row_recomputations: u64,
    /// The most σ rounds any single flush took.
    pub worst_flush_rounds: u64,
    /// The predicted round bound at that worst flush (0: no rule).
    pub worst_flush_bound: u64,
    /// Flushes whose measured rounds respected the predicted bound.
    pub bound_ok: u64,
    /// Queries answered from a stale table during degraded operation
    /// (wall-clock dependent).
    pub stale_answers: u64,
    /// Flushes that overran their deadline and went degraded
    /// (wall-clock dependent).
    pub deadline_overruns: u64,
    /// Transient σ-kernel failures absorbed by retry (wall-clock
    /// dependent).
    pub flush_retries: u64,
    /// Per-flush convergence latency samples, microseconds
    /// (non-deterministic; excluded from replay digests).
    pub convergence_us: Vec<u64>,
    /// Per-query latency samples (flush + lookup), microseconds.
    pub query_us: Vec<u64>,
}

impl ServeStats {
    /// `batch_dirty_rows / naive_dirty_rows` — how much work coalescing
    /// saved (1.0 = nothing, 0.0 = every change was undone in-batch).
    pub fn coalesce_ratio(&self) -> f64 {
        if self.naive_dirty_rows == 0 {
            1.0
        } else {
            self.batch_dirty_rows as f64 / self.naive_dirty_rows as f64
        }
    }
}

/// A flush in progress — parked in `RouteServer::degraded` when the
/// server went over its deadline, kept the old stable table for queries,
/// and resumes this work incrementally.  It holds the fixed-point stepper
/// itself, so resuming costs nothing per round and the chunked trajectory
/// is the uninterrupted trajectory.
struct DegradedWork<A>
where
    A: ScenarioAlgebra,
    A::Route: Send + Sync + 'static,
    A::Edge: PartialEq + Send + Sync + 'static,
{
    adj: AdjacencyMatrix<A>,
    kernel: FixedPoint<A>,
    naive_dirty: u64,
    batch_dirty: u64,
    batch_len: u64,
    budget: usize,
    bound: Option<u64>,
    stale_served: u64,
    started: Instant,
}

/// A long-lived incremental route server over one algebra.
///
/// `rebuild` derives the weighted adjacency from the current weightless
/// shape and the `set_weight` override map; it must be a pure function
/// of the two so that replaying the same trace always rebuilds the same
/// matrices.
pub struct RouteServer<A, F>
where
    A: ScenarioAlgebra,
    A::Route: Send + Sync + 'static,
    A::Edge: PartialEq + Send + Sync + 'static,
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    alg: A,
    shape: Topology<()>,
    overrides: WeightOverrides,
    rebuild: F,
    adj: AdjacencyMatrix<A>,
    state: RoutingState<A>,
    threads: usize,
    batch_max: usize,
    removal_restart: bool,
    pending: Vec<ChangeSpec>,
    /// How many of `pending` are `add_node` (kept beside the batch so the
    /// per-event bounds check never rescans it).
    pending_adds: usize,
    stats: ServeStats,
    pool: PoolHandle,
    deadline: DeadlineCfg,
    bound: BoundRule,
    faults: Option<Arc<FaultPlan>>,
    degraded: Option<DegradedWork<A>>,
    ema_us_per_round: f64,
}

impl<A, F> RouteServer<A, F>
where
    A: ScenarioAlgebra,
    A::Route: Send + Sync + 'static,
    A::Edge: PartialEq + Send + Sync + 'static,
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    /// Build a server without converging it (state = identity).  Chain
    /// the builders, then call [`RouteServer::initial_converge`].
    pub fn raw(alg: A, shape: Topology<()>, rebuild: F, threads: usize, batch_max: usize) -> Self {
        let overrides = WeightOverrides::new();
        let adj = rebuild(&shape, &overrides);
        let n = adj.node_count();
        let state = RoutingState::identity(&alg, n);
        Self {
            alg,
            shape,
            overrides,
            rebuild,
            adj,
            state,
            threads: threads.max(1),
            batch_max: batch_max.max(1),
            removal_restart: false,
            pending: Vec::new(),
            pending_adds: 0,
            stats: ServeStats::default(),
            pool: PoolHandle::Shared,
            deadline: DeadlineCfg::Off,
            bound: BoundRule::None,
            faults: None,
            degraded: None,
            ema_us_per_round: 0.0,
        }
    }

    /// Bring up a server on `shape` and converge the initial table (a
    /// full sweep: every row starts dirty; not counted in the stats).
    pub fn new(
        alg: A,
        shape: Topology<()>,
        rebuild: F,
        threads: usize,
        batch_max: usize,
        tel: &mut dyn TelemetrySink,
    ) -> Result<Self, SpecError> {
        let mut s = Self::raw(alg, shape, rebuild, threads, batch_max);
        s.initial_converge(tel)?;
        Ok(s)
    }

    /// Converge the initial table (deadline-exempt: there is no previous
    /// stable table to serve from, so startup always runs to a fixed
    /// point).
    pub fn initial_converge(&mut self, tel: &mut dyn TelemetrySink) -> Result<(), SpecError> {
        let n = self.adj.node_count();
        let mut kernel =
            FixedPoint::new(&self.adj, self.state.clone(), Start::Dirty(&vec![true; n]));
        let converged = kernel_retry(
            &self.pool,
            &self.alg,
            &self.adj,
            &mut kernel,
            iteration_budget(n, None),
            self.threads,
            &mut self.stats.flush_retries,
            tel,
        )
        .map_err(SpecError::from)?;
        if !converged {
            return Err(SpecError::new(
                "initial convergence exhausted its iteration budget",
            ));
        }
        self.state = kernel.finish(tel);
        Ok(())
    }

    /// Reconverge from scratch (identity state, every row dirty) on any
    /// batch containing a route-worsening event (`remove_edge` /
    /// `fail_link` / `set_weight`), instead of incrementally from the
    /// cached table.
    ///
    /// This is required for algebras with an *infinite* carrier, such as
    /// plain shortest paths over ℕ∞: Theorem 7's termination guarantee
    /// needs a finite carrier, and reconverging from the old fixed point
    /// after a disconnection counts to infinity (the paper's Section 5) —
    /// route values climb one round at a time and never reach ∞, so the
    /// iteration budget exhausts.  Additions only improve routes, so
    /// addition-only batches stay incremental either way; the classic
    /// route-withdrawal full recomputation applies only where it must.
    pub fn restart_on_removal(mut self, on: bool) -> Self {
        self.removal_restart = on;
        self
    }

    /// Audit every flush against a convergence-bound rule (builder).
    pub fn with_bound(mut self, bound: BoundRule) -> Self {
        self.bound = bound;
        self
    }

    /// Set the per-flush deadline policy (builder).
    pub fn with_deadline(mut self, deadline: DeadlineCfg) -> Self {
        self.deadline = deadline;
        self
    }

    /// Run σ sweeps on this pool instead of the shared one (builder).
    pub fn with_pool(mut self, pool: PoolHandle) -> Self {
        self.pool = pool;
        self
    }

    /// Consult this fault plan's serve-side hooks (flush delays)
    /// (builder).
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// Current network size.
    pub fn node_count(&self) -> usize {
        self.adj.node_count()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Stats of the pool this server runs on.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.get().stats()
    }

    /// Is a deadline-overrun reconvergence still in flight (queries are
    /// being answered stale)?
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// The digest of the converged table.  Flush before calling this when
    /// comparing replays (the digest ignores pending events).
    pub fn digest(&self) -> String {
        state_digest(&self.state)
    }

    /// Ingest one event.  Changes are buffered (flushing when the batch
    /// cap is hit); queries answer from the converged table — or from
    /// the last stable table, flagged stale, while degraded.
    pub fn submit(
        &mut self,
        event: &ServeEvent,
        tel: &mut dyn TelemetrySink,
    ) -> Result<Option<ServeAnswer>, ServeProblem> {
        match event {
            ServeEvent::Change(c) => {
                self.push_change(*c, tel)?;
                Ok(None)
            }
            ServeEvent::Query { from, to } => self.query(*from, *to, tel).map(Some),
        }
    }

    /// Buffer a change, flushing when the batch cap is reached.
    pub fn push_change(
        &mut self,
        change: ChangeSpec,
        tel: &mut dyn TelemetrySink,
    ) -> Result<(), ServeProblem> {
        // Bounds are checked against the *post-pending* node count so a
        // buffered add_node can be referenced by the very next event.
        let n = self.shape.node_count() + self.pending_adds;
        if !change.in_bounds(n) {
            return Err(ServeProblem::out_of_range(format!(
                "change {change:?} is out of range for a {n}-node topology"
            )));
        }
        self.stats.changes += 1;
        self.pending_adds += usize::from(matches!(change, ChangeSpec::AddNode));
        self.pending.push(change);
        if self.pending.len() >= self.batch_max {
            self.flush(tel)?;
        }
        Ok(())
    }

    /// Answer a route query.  Normal operation flushes first and answers
    /// from the converged table; degraded operation advances the parked
    /// reconvergence one round, then answers from the last stable table
    /// with [`ServeAnswer::stale`] set.
    pub fn query(
        &mut self,
        from: usize,
        to: usize,
        tel: &mut dyn TelemetrySink,
    ) -> Result<ServeAnswer, ServeProblem> {
        let t0 = Instant::now();
        match self.degraded.take() {
            Some(work) => self.drive(work, Some(1), tel)?,
            None => self.flush(tel)?,
        }
        let stale = self.degraded.is_some();
        let n = self.adj.node_count();
        if from >= n || to >= n {
            if stale {
                // The in-flight batch may be growing the network; finish
                // it and re-check against the new table.
                self.complete_degraded(tel)?;
                return self.query(from, to, tel);
            }
            return Err(ServeProblem::out_of_range(format!(
                "query ({from}, {to}) is out of range for a {n}-node topology"
            )));
        }
        let text = format!("{:?}", self.state.get(from, to));
        if stale {
            self.stats.stale_answers += 1;
            if let Some(w) = self.degraded.as_mut() {
                w.stale_served += 1;
            }
        }
        self.stats.queries += 1;
        self.stats
            .query_us
            .push(t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        Ok(ServeAnswer { text, stale })
    }

    /// Reconverge on everything buffered since the last flush.  A no-op
    /// when nothing is pending.  If a degraded reconvergence is still in
    /// flight it is completed first (batches stay serialized).
    pub fn flush(&mut self, tel: &mut dyn TelemetrySink) -> Result<(), ServeProblem> {
        self.complete_degraded(tel)?;
        if self.pending.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();
        if let Some(plan) = &self.faults {
            if let Some(ms) = plan.flush_delay(self.stats.batches) {
                tel.fault_injected("delay_flush", self.stats.batches);
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        let batch: Vec<ChangeSpec> = std::mem::take(&mut self.pending);
        self.pending_adds = 0;
        // The structural one-at-a-time cost: each event would have
        // dirtied (at least) its endpoint rows.
        let naive_dirty: u64 = batch.iter().map(rows_touched).sum();
        for c in &batch {
            // Weight overrides follow the edge lifecycle: explicit edge
            // (re)creation or removal resets the edge to rule weight.
            match c {
                ChangeSpec::SetWeight { from, to, weight } => {
                    self.overrides.insert((*from, *to), *weight);
                }
                ChangeSpec::SetEdge { from, to } | ChangeSpec::RemoveEdge { from, to } => {
                    self.overrides.remove(&(*from, *to));
                }
                ChangeSpec::SetLink { a, b } | ChangeSpec::FailLink { a, b } => {
                    self.overrides.remove(&(*a, *b));
                    self.overrides.remove(&(*b, *a));
                }
                ChangeSpec::AddNode => {}
            }
            crate::run::apply_change(c, &mut self.shape);
        }
        let new_adj = (self.rebuild)(&self.shape, &self.overrides);
        let n = new_adj.node_count();
        let dirty = dirty_rows_after_change(&self.adj, &new_adj);
        let batch_dirty = dirty.iter().filter(|&&d| d).count() as u64;
        let worsened = batch.iter().any(|c| {
            matches!(
                c,
                ChangeSpec::RemoveEdge { .. }
                    | ChangeSpec::FailLink { .. }
                    | ChangeSpec::SetWeight { .. }
            )
        });
        // On an infinite carrier a removal (or a weight increase) can
        // leave the cached table unreachably optimistic
        // (count-to-infinity); restart from the identity unless the
        // batch coalesced to no adjacency change.
        let (x0, dirty) = if self.removal_restart && worsened && batch_dirty > 0 {
            (RoutingState::identity(&self.alg, n), vec![true; n])
        } else {
            let x0 = if self.state.node_count() < n {
                self.state.grown(&self.alg, n)
            } else {
                self.state.clone()
            };
            (x0, dirty)
        };
        let work = DegradedWork {
            budget: iteration_budget(n, None),
            bound: self.bound.rounds(n, &self.overrides),
            kernel: FixedPoint::new(&new_adj, x0, Start::Dirty(&dirty)),
            adj: new_adj,
            naive_dirty,
            batch_dirty,
            batch_len: batch.len() as u64,
            stale_served: 0,
            started: t0,
        };
        self.drive(work, None, tel)
    }

    /// Drive `work` towards its fixed point.  A fresh flush (`parked:
    /// None`) runs until it converges or overruns its deadline and is
    /// parked; a parked one (`Some(k)`) advances at most `k` rounds and is
    /// parked again unless it converged.
    ///
    /// With a deadline in force the stepper advances one round per call
    /// so the overrun check lands between rounds; the stepper is resumable
    /// (Jacobi staging — each round reads only the previous round's rows),
    /// so deterministic counters are unaffected by the chunk size.
    fn drive(
        &mut self,
        mut work: DegradedWork<A>,
        parked: Option<usize>,
        tel: &mut dyn TelemetrySink,
    ) -> Result<(), ServeProblem> {
        let deadline = match parked {
            None => self.deadline_duration(),
            Some(_) => None,
        };
        let chunk = parked.unwrap_or(if deadline.is_some() { 1 } else { work.budget });
        loop {
            let until = work.kernel.rounds().saturating_add(chunk).min(work.budget);
            let converged = kernel_retry(
                &self.pool,
                &self.alg,
                &work.adj,
                &mut work.kernel,
                until,
                self.threads,
                &mut self.stats.flush_retries,
                tel,
            )?;
            let rounds = work.kernel.rounds() as u64;
            if converged {
                if parked.is_some() {
                    tel.serve_restored(self.stats.batches, rounds, work.stale_served);
                }
                self.commit(work, tel);
                return Ok(());
            }
            if rounds >= work.budget as u64 {
                return Err(ServeProblem::budget(self.stats.batches));
            }
            let overrun = deadline.is_some_and(|d| work.started.elapsed() >= d);
            if overrun {
                self.stats.deadline_overruns += 1;
                tel.serve_degraded(self.stats.batches, rounds);
            }
            if overrun || parked.is_some() {
                self.degraded = Some(work);
                return Ok(());
            }
        }
    }

    /// Adopt a converged flush: fold its counters into the stats, audit
    /// the bound, update the per-round cost EMA, and install the new
    /// adjacency and table.
    fn commit(&mut self, work: DegradedWork<A>, tel: &mut dyn TelemetrySink) {
        let rounds = work.kernel.rounds() as u64;
        self.stats.batches += 1;
        self.stats.naive_dirty_rows += work.naive_dirty;
        self.stats.batch_dirty_rows += work.batch_dirty;
        self.stats.rounds += rounds;
        self.stats.row_recomputations += work.kernel.row_recomputations();
        if rounds > self.stats.worst_flush_rounds {
            self.stats.worst_flush_rounds = rounds;
            self.stats.worst_flush_bound = work.bound.unwrap_or(0);
        }
        if let Some(b) = work.bound {
            if rounds <= b {
                self.stats.bound_ok += 1;
            }
        }
        self.state = work.kernel.finish(tel);
        tel.serve_batch(
            self.stats.batches - 1,
            work.batch_len,
            work.naive_dirty,
            work.batch_dirty,
            rounds,
        );
        let us = work.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        if rounds > 0 {
            let per = us as f64 / rounds as f64;
            self.ema_us_per_round = if self.ema_us_per_round > 0.0 {
                0.8 * self.ema_us_per_round + 0.2 * per
            } else {
                per
            };
        }
        self.adj = work.adj;
        self.stats.convergence_us.push(us);
    }

    /// Run a parked reconvergence to completion (re-entering normal
    /// operation).  A no-op when not degraded.
    pub fn complete_degraded(&mut self, tel: &mut dyn TelemetrySink) -> Result<(), ServeProblem> {
        while let Some(work) = self.degraded.take() {
            self.drive(work, Some(64), tel)?;
        }
        Ok(())
    }

    /// Finish serving: complete any degraded work and flush the pending
    /// batch.
    pub fn finish(&mut self, tel: &mut dyn TelemetrySink) -> Result<(), ServeProblem> {
        self.complete_degraded(tel)?;
        self.flush(tel)
    }

    /// The effective deadline for the next flush, if any.
    fn deadline_duration(&self) -> Option<Duration> {
        match self.deadline {
            DeadlineCfg::Off => None,
            DeadlineCfg::Millis(ms) => Some(Duration::from_millis(ms.max(1))),
            DeadlineCfg::Auto => {
                let n = self.adj.node_count();
                let bound = self
                    .bound
                    .rounds(n, &self.overrides)
                    .unwrap_or(iteration_budget(n, None) as u64);
                // No measurement yet: assume 50µs/round, a generous
                // figure for the sizes the serve path handles.
                let per = if self.ema_us_per_round > 0.0 {
                    self.ema_us_per_round
                } else {
                    50.0
                };
                let us = (bound as f64 * per * 4.0).max(1_000.0);
                Some(Duration::from_micros(us as u64))
            }
        }
    }
}

/// Run the σ kernel up to `until` rounds in total, with supervision and
/// bounded-backoff retry: a panicking sweep (poisoned pool, injected
/// fault) is caught — the stepper commits nothing before a round's sweep
/// has returned, so it is exactly where the last good round left it — the
/// pool's dead workers are replaced, and the run is resumed up to 3 times
/// with 1/2/4ms backoff before surfacing a structured `kernel` problem.
/// Returns whether the fixed point was reached.
#[allow(clippy::too_many_arguments)]
fn kernel_retry<A>(
    pool: &PoolHandle,
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    kernel: &mut FixedPoint<A>,
    until: usize,
    threads: usize,
    retries: &mut u64,
    tel: &mut dyn TelemetrySink,
) -> Result<bool, ServeProblem>
where
    A: ScenarioAlgebra,
    A::Route: Send + Sync + 'static,
    A::Edge: PartialEq + Send + Sync + 'static,
{
    let mut attempt = 0u32;
    loop {
        let p = pool.get();
        p.supervise();
        let exec = Pooled { pool: p, threads };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            kernel.run(alg, adj, until, &exec, tel)
        }));
        match result {
            Ok(converged) => return Ok(converged),
            Err(payload) => {
                p.supervise();
                p.note_retry();
                attempt += 1;
                *retries += 1;
                if attempt >= 3 {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "σ sweep panicked".to_string());
                    return Err(ServeProblem {
                        kind: "kernel",
                        message: format!("σ kernel failed after {attempt} attempts: {msg}"),
                    });
                }
                std::thread::sleep(Duration::from_millis(1u64 << (attempt - 1)));
            }
        }
    }
}

/// The rows a change dirties under one-at-a-time processing (a
/// structural lower bound: both endpoint rows, or the joining row for
/// `add_node`).  The coalesce telemetry compares this against the
/// batched adjacency diff.
fn rows_touched(c: &ChangeSpec) -> u64 {
    match c {
        ChangeSpec::SetLink { .. } | ChangeSpec::FailLink { .. } => 2,
        ChangeSpec::SetEdge { .. } | ChangeSpec::RemoveEdge { .. } => 2,
        ChangeSpec::SetWeight { .. } => 2,
        ChangeSpec::AddNode => 1,
    }
}

// ---------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------

impl<A, F> RouteServer<A, F>
where
    A: ScenarioAlgebra,
    A::Route: PersistRoute + Send + Sync + 'static,
    A::Edge: PartialEq + Send + Sync + 'static,
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    /// Capture the server as a checkpoint snapshot at trace offset
    /// `offset`.  The *pending* batch is persisted as-is (never
    /// force-flushed) so that batching alignment — and hence every
    /// deterministic counter — is identical to an uninterrupted run.
    pub fn snapshot(&self, offset: u64, algebra: &str, answers: &Digest) -> Snapshot {
        // `Topology::edges` iterates in sorted `(i, j)` order already
        let edges: Vec<(usize, usize)> = self.shape.edges().map(|(i, j, _)| (i, j)).collect();
        let n = self.state.node_count();
        // ≈ 3 bytes a token at the serve sizes (`inf`, or a small decimal
        // and its space)
        let mut rows = String::with_capacity(n * (3 * n + 8));
        for i in 0..n {
            let _ = write!(rows, "row {i}");
            for r in self.state.row(i) {
                rows.push(' ');
                r.encode_into(&mut rows);
            }
            rows.push('\n');
        }
        let s = &self.stats;
        Snapshot {
            offset,
            algebra: algebra.to_string(),
            nodes: self.shape.node_count(),
            edges,
            overrides: self
                .overrides
                .iter()
                .map(|(&(a, b), &w)| (a, b, w))
                .collect(),
            pending: self.pending.iter().map(change_to_line).collect(),
            stats: [
                s.changes,
                s.queries,
                s.batches,
                s.naive_dirty_rows,
                s.batch_dirty_rows,
                s.rounds,
                s.row_recomputations,
                s.worst_flush_rounds,
                s.worst_flush_bound,
                s.bound_ok,
            ],
            answers_state: answers.value(),
            rows,
        }
    }

    /// Rebuild a server from a checkpoint snapshot: shape, weight
    /// overrides, the converged table (no reconvergence needed — the
    /// snapshot *is* a fixed point), the pending batch, and the
    /// deterministic counters.  Chain the builders afterwards.
    pub fn restore(
        alg: A,
        rebuild: F,
        snap: &Snapshot,
        threads: usize,
        batch_max: usize,
    ) -> Result<Self, String> {
        let mut shape = Topology::new(snap.nodes);
        for &(a, b) in &snap.edges {
            if a >= snap.nodes || b >= snap.nodes {
                return Err(format!("snapshot edge ({a}, {b}) is out of range"));
            }
            shape.set_edge(a, b, ());
        }
        let overrides: WeightOverrides = snap
            .overrides
            .iter()
            .map(|&(a, b, w)| ((a, b), w))
            .collect();
        let adj = rebuild(&shape, &overrides);
        if adj.node_count() != snap.nodes {
            return Err("snapshot adjacency does not match its node count".to_string());
        }
        // every token is at least a byte and its separator
        let mut table: Vec<A::Route> = Vec::with_capacity(snap.rows.len() / 2);
        let mut rows = 0;
        for line in snap.rows.lines() {
            // skip the line's own `row <i>` prefix
            for tok in line.split_whitespace().skip(2) {
                table.push(
                    A::Route::decode(tok)
                        .ok_or_else(|| format!("snapshot row {rows}: bad route token {tok:?}"))?,
                );
            }
            rows += 1;
            if table.len() != rows * snap.nodes {
                return Err(format!("snapshot row {} has the wrong width", rows - 1));
            }
        }
        if rows != snap.nodes {
            return Err("snapshot table does not match its node count".to_string());
        }
        let state = RoutingState::from_fn(snap.nodes, |i, j| table[i * snap.nodes + j].clone());
        let mut pending = Vec::with_capacity(snap.pending.len());
        for line in &snap.pending {
            match parse_event_line(line) {
                Ok(ServeEvent::Change(c)) => pending.push(c),
                Ok(ServeEvent::Query { .. }) => {
                    return Err(format!("snapshot pending line {line:?} is not a change"))
                }
                Err(e) => return Err(format!("snapshot pending line {line:?}: {e}")),
            }
        }
        let st = &snap.stats;
        let stats = ServeStats {
            changes: st[0],
            queries: st[1],
            batches: st[2],
            naive_dirty_rows: st[3],
            batch_dirty_rows: st[4],
            rounds: st[5],
            row_recomputations: st[6],
            worst_flush_rounds: st[7],
            worst_flush_bound: st[8],
            bound_ok: st[9],
            ..ServeStats::default()
        };
        Ok(Self {
            alg,
            shape,
            overrides,
            rebuild,
            adj,
            state,
            threads: threads.max(1),
            batch_max: batch_max.max(1),
            removal_restart: false,
            pending_adds: pending
                .iter()
                .filter(|c| matches!(c, ChangeSpec::AddNode))
                .count(),
            pending,
            stats,
            pool: PoolHandle::Shared,
            deadline: DeadlineCfg::Off,
            bound: BoundRule::None,
            faults: None,
            degraded: None,
            ema_us_per_round: 0.0,
        })
    }
}

// ---------------------------------------------------------------------
// Replay driver
// ---------------------------------------------------------------------

/// The result of replaying a churn trace through a [`RouteServer`].
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Final network size.
    pub nodes: usize,
    /// Total events ingested (on failure: the offset reached).
    pub events: u64,
    /// Lifetime server counters.
    pub stats: ServeStats,
    /// Digest of the final converged routing table.
    pub final_digest: String,
    /// Digest over every query answer, in arrival order — byte-identical
    /// replays answer byte-identically.
    pub answers_digest: String,
    /// Worker-pool lifetime counters (thread-count dependent, so they
    /// live in the timing side of the JSON).
    pub pool: PoolStats,
    /// Total replay wall time, milliseconds.
    pub wall_ms: f64,
    /// Why the replay stopped early, if it did.  A report with a failure
    /// is partial: its digests cover the work done up to `offset`.
    pub failure: Option<ServeFailure>,
    /// How this run was bootstrapped from a checkpoint store, if it was.
    pub recovery: Option<RecoveryInfo>,
    /// Snapshots written during this run.
    pub checkpoints: u64,
    /// Offset of the most recent durable snapshot.
    pub last_checkpoint: Option<u64>,
}

impl ReplayReport {
    /// Sustained throughput over the whole replay.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.events as f64 / (self.wall_ms / 1000.0)
        }
    }
}

/// Replay a churn trace through a route server with default options
/// (no deadline, no checkpoints, shared pool).  `batch_max` caps how
/// many change events coalesce into one reconvergence; `threads` is the
/// σ sweep's worker budget (results are bit-identical for every value).
pub fn replay_trace(
    trace: &ChurnTrace,
    threads: usize,
    batch_max: usize,
    tel: &mut dyn TelemetrySink,
) -> Result<ReplayReport, SpecError> {
    replay_trace_opts(
        trace,
        &ServeOptions {
            threads,
            batch_max,
            ..ServeOptions::default()
        },
        tel,
    )
}

/// Replay a churn trace with the full option set: deadlines, a
/// checkpoint + WAL store, recovery, and an injectable fault plan.
///
/// Configuration errors (bad topology, `recover` without a store,
/// initial convergence failure) are `Err`; *runtime* failures mid-replay
/// (crash faults, WAL corruption, out-of-range events, kernel failures)
/// return `Ok` with [`ReplayReport::failure`] set, so the caller can
/// still emit a partial `BENCH_serve.json` and exit cleanly.
pub fn replay_trace_opts(
    trace: &ChurnTrace,
    opts: &ServeOptions,
    tel: &mut dyn TelemetrySink,
) -> Result<ReplayReport, SpecError> {
    trace.algebra.validate()?;
    let shape = build_shape(&trace.topology)?;
    match trace.algebra {
        ServeAlgebra::Hopcount { limit } => {
            let rule = WeightRule::uniform(1);
            replay_with(
                BoundedHopCount::new(limit),
                shape,
                move |s: &Topology<()>, w: &WeightOverrides| {
                    AdjacencyMatrix::from_topology(&s.with_weights(|i, j| {
                        w.get(&(i, j)).copied().unwrap_or_else(|| rule.weight(i, j))
                    }))
                },
                BoundRule::Hopcount { limit },
                // Finite carrier: Theorem 7 applies, incremental always.
                false,
                trace,
                opts,
                tel,
            )
        }
        ServeAlgebra::Shortest => {
            let rule = WeightRule::uniform(1);
            replay_with(
                ShortestPaths::new(),
                shape,
                move |s: &Topology<()>, w: &WeightOverrides| {
                    AdjacencyMatrix::from_topology(&s.with_weights(|i, j| {
                        NatInf::fin(w.get(&(i, j)).copied().unwrap_or_else(|| rule.weight(i, j)))
                    }))
                },
                BoundRule::Shortest,
                // Infinite carrier: removals would count to infinity.
                true,
                trace,
                opts,
                tel,
            )
        }
    }
}

/// Everything a mid-replay return needs to assemble a (possibly partial)
/// report.
struct ReportCtx {
    t0: Instant,
    answers: Digest,
    recovery: Option<RecoveryInfo>,
    checkpoints: u64,
    last_checkpoint: Option<u64>,
}

impl ReportCtx {
    fn fold(&mut self, a: &ServeAnswer) {
        self.answers.update(&a.text);
        if a.stale {
            self.answers.update("!stale");
        }
        self.answers.update(";");
    }

    fn failure(&self, kind: &str, message: String, offset: u64) -> Option<ServeFailure> {
        Some(ServeFailure {
            kind: kind.to_string(),
            message,
            offset,
            last_checkpoint: self.last_checkpoint,
        })
    }

    /// A report for a failure before any server exists (corrupt store).
    fn empty_report(&self, failure: Option<ServeFailure>, pool: &PoolHandle) -> ReplayReport {
        ReplayReport {
            nodes: 0,
            events: 0,
            stats: ServeStats::default(),
            final_digest: String::new(),
            answers_digest: String::new(),
            pool: pool.get().stats(),
            wall_ms: self.t0.elapsed().as_secs_f64() * 1000.0,
            failure,
            recovery: self.recovery,
            checkpoints: self.checkpoints,
            last_checkpoint: self.last_checkpoint,
        }
    }

    fn report<A, F>(
        &self,
        server: &RouteServer<A, F>,
        events: u64,
        failure: Option<ServeFailure>,
    ) -> ReplayReport
    where
        A: ScenarioAlgebra,
        A::Route: Send + Sync + 'static,
        A::Edge: PartialEq + Send + Sync + 'static,
        F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
    {
        ReplayReport {
            nodes: server.node_count(),
            events,
            stats: server.stats().clone(),
            final_digest: server.digest(),
            answers_digest: self.answers.finish(),
            pool: server.pool_stats(),
            wall_ms: self.t0.elapsed().as_secs_f64() * 1000.0,
            failure,
            recovery: self.recovery,
            checkpoints: self.checkpoints,
            last_checkpoint: self.last_checkpoint,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn replay_with<A, F>(
    alg: A,
    shape: Topology<()>,
    rebuild: F,
    bound: BoundRule,
    removal_restart: bool,
    trace: &ChurnTrace,
    opts: &ServeOptions,
    tel: &mut dyn TelemetrySink,
) -> Result<ReplayReport, SpecError>
where
    A: ScenarioAlgebra,
    A::Route: PersistRoute + Send + Sync + 'static,
    A::Edge: PartialEq + Send + Sync + 'static,
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    let threads = opts.threads.max(1);
    let algebra_tag = trace.algebra.tag();
    // Chaos runs get a dedicated pool: fault epochs are counted relative
    // to arm time, so a fresh pool makes the schedule deterministic and
    // keeps injected faults away from unrelated work on the shared pool.
    let pool = if opts.faults.is_some() {
        PoolHandle::Owned(Arc::new(WorkerPool::new(threads.saturating_sub(1).max(1))))
    } else {
        PoolHandle::Shared
    };
    if let Some(plan) = &opts.faults {
        pool.get().arm_faults(plan.clone());
    }
    let mut store = match &opts.checkpoint_dir {
        Some(dir) => Some(
            CheckpointStore::open(dir)
                .map_err(|e| SpecError::new(format!("checkpoint dir {}: {e}", dir.display())))?,
        ),
        None => None,
    };
    if opts.recover && store.is_none() {
        return Err(SpecError::new(
            "recovery needs a checkpoint directory (--recover requires --checkpoint <dir>)",
        ));
    }

    let mut ctx = ReportCtx {
        t0: Instant::now(),
        answers: Digest::default(),
        recovery: None,
        checkpoints: 0,
        last_checkpoint: None,
    };
    let mut start: usize = 0;

    // --- recovery bootstrap -------------------------------------------
    let mut snap: Option<Snapshot> = None;
    let mut wal: Vec<(u64, String)> = Vec::new();
    if opts.recover {
        let st = store.as_mut().expect("checked above");
        snap = match st.load_snapshot() {
            Ok(s) => s,
            Err(e) => {
                let failure = ctx.failure("checkpoint", e, 0);
                return Ok(ctx.empty_report(failure, &pool));
            }
        };
        wal = match st.load_wal() {
            Ok(w) => w,
            Err(WalError::Corrupt { line, message }) => {
                let failure = ctx.failure(
                    "wal",
                    format!("WAL record {line} is corrupt: {message}"),
                    snap.as_ref().map(|s| s.offset).unwrap_or(0),
                );
                return Ok(ctx.empty_report(failure, &pool));
            }
            Err(WalError::Io(e)) => {
                let failure = ctx.failure("io", e, snap.as_ref().map(|s| s.offset).unwrap_or(0));
                return Ok(ctx.empty_report(failure, &pool));
            }
        };
    }

    let mut server = match &snap {
        Some(snap) => {
            if snap.algebra != algebra_tag {
                let failure = ctx.failure(
                    "checkpoint",
                    format!(
                        "snapshot algebra {:?} does not match the trace's {:?}",
                        snap.algebra, algebra_tag
                    ),
                    snap.offset,
                );
                return Ok(ctx.empty_report(failure, &pool));
            }
            let restored = match RouteServer::restore(alg, rebuild, snap, threads, opts.batch_max) {
                Ok(s) => s,
                Err(e) => {
                    let failure = ctx.failure("checkpoint", e, snap.offset);
                    return Ok(ctx.empty_report(failure, &pool));
                }
            };
            ctx.answers = Digest::from_state(snap.answers_state);
            ctx.last_checkpoint = Some(snap.offset);
            start = snap.offset as usize;
            restored
                .restart_on_removal(removal_restart)
                .with_bound(bound)
                .with_deadline(opts.deadline)
                .with_pool(pool.clone())
                .with_faults(opts.faults.clone())
        }
        None => {
            let mut fresh = RouteServer::raw(alg, shape, rebuild, threads, opts.batch_max)
                .restart_on_removal(removal_restart)
                .with_bound(bound)
                .with_deadline(opts.deadline)
                .with_pool(pool.clone())
                .with_faults(opts.faults.clone());
            fresh.initial_converge(tel)?;
            fresh
        }
    };

    // --- WAL tail replay ----------------------------------------------
    if opts.recover {
        let wal_len = wal.len() as u64;
        for (off, line) in &wal {
            if *off != start as u64 || start >= trace.events.len() {
                let failure = ctx.failure(
                    "wal",
                    format!("WAL offset {off} does not continue the trace at {start}"),
                    *off,
                );
                return Ok(ctx.report(&server, start as u64, failure));
            }
            // The WAL is a redo log over the same trace: the recorded
            // line must match the trace event at its offset, or the
            // store belongs to a different run.
            let expected = event_to_line(&trace.events[start]);
            if *line != expected {
                let failure = ctx.failure(
                    "wal",
                    format!("WAL event {off} diverges from the trace ({line:?} vs {expected:?})"),
                    *off,
                );
                return Ok(ctx.report(&server, start as u64, failure));
            }
            match server.submit(&trace.events[start], tel) {
                Ok(Some(a)) => ctx.fold(&a),
                Ok(None) => {}
                Err(p) => {
                    let failure = ctx.failure(p.kind, p.message, *off);
                    return Ok(ctx.report(&server, start as u64, failure));
                }
            }
            start += 1;
        }
        if let Some(st) = store.as_mut() {
            // Rewrite exactly the valid records so later appends don't
            // glue onto a torn tail.
            if let Err(e) = st.reset_wal(&wal) {
                let failure = ctx.failure("io", format!("WAL reset: {e}"), start as u64);
                return Ok(ctx.report(&server, start as u64, failure));
            }
        }
        let snap_offset = snap.as_ref().map(|s| s.offset);
        tel.serve_recovery(snap_offset.unwrap_or(0), wal_len);
        ctx.recovery = Some(RecoveryInfo {
            snapshot_offset: snap_offset,
            wal_replayed: wal_len,
        });
    }

    // --- main event loop ----------------------------------------------
    let every = opts.checkpoint_every.max(1);
    for k in start..trace.events.len() {
        let off = k as u64;
        if let Some(plan) = &opts.faults {
            if plan.crash_at_event(off) {
                tel.fault_injected("crash", off);
                let failure =
                    ctx.failure("crash", format!("injected crash before event {off}"), off);
                return Ok(ctx.report(&server, off, failure));
            }
        }
        if let Some(st) = store.as_mut() {
            // Write-ahead: the event is durable before it is applied, so
            // recovery can always redo it.
            if let Err(e) = st.append_wal(off, &event_to_line(&trace.events[k])) {
                let failure = ctx.failure("io", format!("WAL append: {e}"), off);
                return Ok(ctx.report(&server, off, failure));
            }
        }
        match server.submit(&trace.events[k], tel) {
            Ok(Some(a)) => ctx.fold(&a),
            Ok(None) => {}
            Err(p) => {
                let failure = ctx.failure(p.kind, p.message, off);
                return Ok(ctx.report(&server, off, failure));
            }
        }
        if let Some(st) = store.as_mut() {
            // Skip the snapshot while degraded: a snapshot must capture
            // a converged table, and forcing completion here would let
            // checkpoint cadence perturb the deadline machinery.
            if (off + 1).is_multiple_of(every) && !server.is_degraded() {
                let snapshot = server.snapshot(off + 1, &algebra_tag, &ctx.answers);
                if let Err(e) = st.write_snapshot(&snapshot) {
                    let failure = ctx.failure("io", format!("snapshot write: {e}"), off);
                    return Ok(ctx.report(&server, off, failure));
                }
                ctx.last_checkpoint = Some(off + 1);
                ctx.checkpoints += 1;
            }
        }
    }

    let total = trace.events.len() as u64;
    if let Err(p) = server.finish(tel) {
        let failure = ctx.failure(p.kind, p.message, total);
        return Ok(ctx.report(&server, total, failure));
    }
    let ps = server.pool_stats();
    tel.pool_utilization(ps.workers as u64, ps.epochs, ps.jobs, ps.worker_share());
    tel.pool_health(ps.workers as u64, ps.deaths, ps.restarts, ps.retries);
    if opts.faults.is_some() {
        pool.get().disarm_faults();
    }
    Ok(ctx.report(&server, total, None))
}

// ---------------------------------------------------------------------
// BENCH_serve.json
// ---------------------------------------------------------------------

fn summary_json(samples: &[u64]) -> Json {
    match SettleSummary::from_samples(samples) {
        None => Json::Null,
        Some(s) => Json::Obj(vec![
            ("count".into(), Json::uint(s.count)),
            ("p50".into(), Json::uint(s.p50)),
            ("p95".into(), Json::uint(s.p95)),
            ("p99".into(), Json::uint(s.p99)),
            ("max".into(), Json::uint(s.max)),
        ]),
    }
}

/// Render a replay as the `BENCH_serve.json` document.  Everything under
/// the top-level `"timing"` key (and only that) is non-deterministic —
/// the CI determinism check strips it and compares the rest byte for
/// byte across thread counts *and* across crash/recover splits, which is
/// why recovery bookkeeping (checkpoints written, WAL records replayed)
/// lives inside `timing` alongside the latency samples.  `"timing"` must
/// stay the *last* top-level key; the CI strip is a line-range deletion.
pub fn serve_json(report: &ReplayReport, threads: usize, batch: usize) -> Json {
    let s = &report.stats;
    let failure = match &report.failure {
        None => Json::Null,
        Some(f) => Json::Obj(vec![
            ("kind".into(), Json::str(&f.kind)),
            ("message".into(), Json::str(&f.message)),
            ("offset".into(), Json::uint(f.offset)),
            (
                "last_checkpoint".into(),
                match f.last_checkpoint {
                    None => Json::Null,
                    Some(o) => Json::uint(o),
                },
            ),
        ]),
    };
    let recovery = match &report.recovery {
        None => Json::Null,
        Some(r) => Json::Obj(vec![
            (
                "snapshot_offset".into(),
                match r.snapshot_offset {
                    None => Json::Null,
                    Some(o) => Json::uint(o),
                },
            ),
            ("wal_replayed".into(), Json::uint(r.wal_replayed)),
        ]),
    };
    Json::Obj(vec![
        ("schema_version".into(), Json::Int(2)),
        ("suite".into(), Json::str("dbf-serve")),
        ("threads".into(), Json::uint(threads as u64)),
        ("batch".into(), Json::uint(batch as u64)),
        (
            "trace".into(),
            Json::Obj(vec![
                ("nodes".into(), Json::uint(report.nodes as u64)),
                ("events".into(), Json::uint(report.events)),
                ("changes".into(), Json::uint(s.changes)),
                ("queries".into(), Json::uint(s.queries)),
            ]),
        ),
        (
            "serve".into(),
            Json::Obj(vec![
                ("batches".into(), Json::uint(s.batches)),
                ("naive_dirty_rows".into(), Json::uint(s.naive_dirty_rows)),
                ("batch_dirty_rows".into(), Json::uint(s.batch_dirty_rows)),
                (
                    "coalesce_ratio".into(),
                    Json::Num((s.coalesce_ratio() * 1e4).round() / 1e4),
                ),
                ("rounds".into(), Json::uint(s.rounds)),
                (
                    "row_recomputations".into(),
                    Json::uint(s.row_recomputations),
                ),
                (
                    "worst_flush_rounds".into(),
                    Json::uint(s.worst_flush_rounds),
                ),
                (
                    "worst_flush_bound".into(),
                    // a saturated bound must not read as −1
                    Json::uint(s.worst_flush_bound),
                ),
                ("bound_ok".into(), Json::uint(s.bound_ok)),
                ("final_digest".into(), Json::str(&report.final_digest)),
                ("answers_digest".into(), Json::str(&report.answers_digest)),
            ]),
        ),
        ("failure".into(), failure),
        (
            "timing".into(),
            Json::Obj(vec![
                ("wall_ms".into(), Json::Num(report.wall_ms)),
                ("events_per_sec".into(), Json::Num(report.events_per_sec())),
                ("stale_answers".into(), Json::uint(s.stale_answers)),
                ("deadline_overruns".into(), Json::uint(s.deadline_overruns)),
                ("flush_retries".into(), Json::uint(s.flush_retries)),
                ("checkpoints".into(), Json::uint(report.checkpoints)),
                ("recovery".into(), recovery),
                ("convergence_us".into(), summary_json(&s.convergence_us)),
                ("query_us".into(), summary_json(&s.query_us)),
                (
                    "pool".into(),
                    Json::Obj(vec![
                        ("workers".into(), Json::uint(report.pool.workers as u64)),
                        ("epochs".into(), Json::uint(report.pool.epochs)),
                        ("jobs".into(), Json::uint(report.pool.jobs)),
                        (
                            "worker_share".into(),
                            Json::Num((report.pool.worker_share() * 1e4).round() / 1e4),
                        ),
                        ("deaths".into(), Json::uint(report.pool.deaths)),
                        ("restarts".into(), Json::uint(report.pool.restarts)),
                        ("retries".into(), Json::uint(report.pool.retries)),
                    ]),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_matrix::FaultKind;
    use dbf_telemetry::NoopSink;

    fn small_trace() -> ChurnTrace {
        generate_trace(&TraceSpec {
            topology: TopologySpec::Ring { n: 12 },
            algebra: ServeAlgebra::Hopcount { limit: 24 },
            events: 300,
            seed: 7,
            query_permille: 150,
            weight_permille: 0,
        })
        .expect("generator accepts the spec")
    }

    fn weighted_trace() -> ChurnTrace {
        generate_trace(&TraceSpec {
            topology: TopologySpec::Ring { n: 10 },
            algebra: ServeAlgebra::Shortest,
            events: 200,
            seed: 11,
            query_permille: 150,
            weight_permille: 200,
        })
        .expect("generator accepts the spec")
    }

    fn hop_rebuild() -> impl Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<BoundedHopCount>
    {
        let rule = WeightRule::uniform(1);
        move |s: &Topology<()>, w: &WeightOverrides| {
            AdjacencyMatrix::from_topology(
                &s.with_weights(|i, j| {
                    w.get(&(i, j)).copied().unwrap_or_else(|| rule.weight(i, j))
                }),
            )
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dbf-serve-mod-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn traces_round_trip_through_the_text_format() {
        let trace = small_trace();
        let text = trace.to_text();
        assert!(text.starts_with(TRACE_HEADER), "weightless traces stay v1");
        let back = ChurnTrace::parse(&text).expect("own output parses");
        assert_eq!(trace, back);
    }

    #[test]
    fn weighted_traces_round_trip_under_the_v2_header() {
        let trace = weighted_trace();
        assert!(
            trace
                .events
                .iter()
                .any(|e| matches!(e, ServeEvent::Change(ChangeSpec::SetWeight { .. }))),
            "the weighted spec must actually generate set_weight events"
        );
        let text = trace.to_text();
        assert!(text.starts_with(TRACE_HEADER_V2));
        assert!(text.contains("set_weight "));
        let back = ChurnTrace::parse(&text).expect("own output parses");
        assert_eq!(trace, back);
    }

    #[test]
    fn the_generator_is_deterministic_in_its_seed() {
        assert_eq!(small_trace(), small_trace());
        let other = generate_trace(&TraceSpec {
            topology: TopologySpec::Ring { n: 12 },
            algebra: ServeAlgebra::Hopcount { limit: 24 },
            events: 300,
            seed: 8,
            query_permille: 150,
            weight_permille: 0,
        })
        .unwrap();
        assert_ne!(small_trace(), other);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ChurnTrace::parse("hello").is_err());
        assert!(ChurnTrace::parse("# dbf-churn-trace v1\nwarp 1 2\n").is_err());
        assert!(ChurnTrace::parse("# dbf-churn-trace v1\ntopology ring 5\n").is_err());
        assert!(ChurnTrace::parse(
            "# dbf-churn-trace v1\ntopology ring 5\nalgebra hopcount 9\nquery 1\n"
        )
        .is_err());
        assert!(ChurnTrace::parse(
            "# dbf-churn-trace v1\ntopology ring 5\nalgebra hopcount 9\nquery 1 2 3\n"
        )
        .is_err());
        assert!(ChurnTrace::parse(
            "# dbf-churn-trace v1\ntopology ring 5\nalgebra hopcount 9\nset_weight 1 2\n"
        )
        .is_err());
    }

    #[test]
    fn the_infinity_sentinel_is_not_a_trace_weight() {
        let with_weight = |w: u64| {
            ChurnTrace::parse(&format!(
                "{TRACE_HEADER_V2}\ntopology ring 5\nalgebra shortest\nset_weight 1 2 {w}\n"
            ))
        };
        let err = with_weight(u64::MAX).expect_err("u64::MAX stands for ∞");
        assert!(
            err.message.contains("line 4") && err.message.contains("out of range"),
            "{err}"
        );
        // the same parser reads a snapshot's pending batch back
        assert!(parse_event_line(&format!("set_weight 1 2 {}", u64::MAX)).is_err());
        let trace = with_weight(u64::MAX - 1).expect("the largest weight parses");
        assert_eq!(
            trace.events,
            vec![ServeEvent::Change(ChangeSpec::SetWeight {
                from: 1,
                to: 2,
                weight: u64::MAX - 1
            })]
        );
    }

    #[test]
    fn a_hop_limit_the_carrier_cannot_hold_is_not_a_trace_algebra() {
        let with_limit = |limit: u64| {
            ChurnTrace::parse(&format!(
                "{TRACE_HEADER}\ntopology ring 4\nalgebra hopcount {limit}\nfail_link 0 1\nquery 0 2\n"
            ))
        };
        for limit in [0, u64::MAX] {
            let err = with_limit(limit).expect_err("no such hop-count algebra");
            assert!(
                err.message.contains("line 3") && err.message.contains("out of range"),
                "{err}"
            );
            // the generator and a hand-built trace are held to the same rule
            let algebra = ServeAlgebra::Hopcount { limit };
            let spec = TraceSpec {
                topology: TopologySpec::Ring { n: 4 },
                algebra,
                events: 8,
                seed: 1,
                query_permille: 100,
                weight_permille: 0,
            };
            let err = generate_trace(&spec).expect_err("no such hop-count algebra");
            assert!(err.message.contains("out of range"), "{err}");
            let built = ChurnTrace {
                topology: TopologySpec::Ring { n: 4 },
                algebra,
                events: vec![ServeEvent::Query { from: 0, to: 2 }],
            };
            assert!(replay_trace(&built, 1, 16, &mut NoopSink).is_err());
        }
        // The largest limit is an algebra, and its bound saturates instead
        // of wrapping to a small number.
        let trace = with_limit(u64::MAX - 1).expect("the largest limit parses");
        let report = replay_trace(&trace, 1, 16, &mut NoopSink).expect("replay");
        assert!(report.failure.is_none());
        assert_eq!(report.stats.worst_flush_bound, u64::MAX);
    }

    #[test]
    fn flush_bounds_saturate() {
        let none = WeightOverrides::new();
        let huge = BoundRule::Hopcount {
            limit: u64::MAX - 1,
        };
        assert_eq!(huge.rounds(4, &none), Some(u64::MAX));
        assert_eq!(
            BoundRule::Hopcount { limit: 8 }.rounds(4, &none),
            Some(40),
            "n·(limit + 2)"
        );
        let heavy = WeightOverrides::from([((0, 1), u64::MAX - 1)]);
        assert_eq!(BoundRule::Shortest.rounds(4, &heavy), Some(u64::MAX));
        assert_eq!(
            BoundRule::Shortest.rounds(4, &none),
            Some(20),
            "n·((n−1)·1 + 2)"
        );
    }

    #[test]
    fn replay_digests_are_thread_count_invariant() {
        let trace = small_trace();
        let base = replay_trace(&trace, 1, 16, &mut NoopSink).expect("replay");
        assert!(base.failure.is_none());
        for threads in [2, 8] {
            let par = replay_trace(&trace, threads, 16, &mut NoopSink).expect("replay");
            assert_eq!(par.final_digest, base.final_digest, "threads={threads}");
            assert_eq!(par.answers_digest, base.answers_digest, "threads={threads}");
            assert_eq!(par.stats.batches, base.stats.batches);
            assert_eq!(par.stats.rounds, base.stats.rounds);
            assert_eq!(par.stats.batch_dirty_rows, base.stats.batch_dirty_rows);
            assert_eq!(par.stats.worst_flush_rounds, base.stats.worst_flush_rounds);
            assert_eq!(par.stats.bound_ok, base.stats.bound_ok);
        }
    }

    #[test]
    fn weighted_replays_are_thread_count_invariant_too() {
        let trace = weighted_trace();
        let base = replay_trace(&trace, 1, 16, &mut NoopSink).expect("replay");
        assert!(base.failure.is_none());
        for threads in [2, 4] {
            let par = replay_trace(&trace, threads, 16, &mut NoopSink).expect("replay");
            assert_eq!(par.final_digest, base.final_digest, "threads={threads}");
            assert_eq!(par.answers_digest, base.answers_digest, "threads={threads}");
            assert_eq!(par.stats.rounds, base.stats.rounds);
        }
    }

    #[test]
    fn batched_and_one_at_a_time_replays_converge_identically() {
        // Coalescing correctness: on a strictly-increasing algebra the
        // fixed point is unique, so any batching of the same event stream
        // must land on the same table and answer queries identically.
        let trace = small_trace();
        let one = replay_trace(&trace, 1, 1, &mut NoopSink).expect("replay");
        for batch in [4, 64, usize::MAX] {
            let b = replay_trace(&trace, 1, batch, &mut NoopSink).expect("replay");
            assert_eq!(b.final_digest, one.final_digest, "batch={batch}");
            assert_eq!(b.answers_digest, one.answers_digest, "batch={batch}");
            // Larger batches must never dirty more than one-at-a-time.
            assert!(b.stats.batch_dirty_rows <= one.stats.batch_dirty_rows);
        }
    }

    #[test]
    fn mutually_cancelling_changes_coalesce_to_nothing() {
        let shape = build_shape(&TopologySpec::Ring { n: 8 }).unwrap();
        let mut server = RouteServer::new(
            BoundedHopCount::new(16),
            shape,
            hop_rebuild(),
            1,
            64,
            &mut NoopSink,
        )
        .expect("server");
        let before = server.digest();
        server
            .push_change(ChangeSpec::FailLink { a: 0, b: 1 }, &mut NoopSink)
            .unwrap();
        server
            .push_change(ChangeSpec::SetLink { a: 0, b: 1 }, &mut NoopSink)
            .unwrap();
        server.flush(&mut NoopSink).unwrap();
        let s = server.stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.batch_dirty_rows, 0, "an undone change must dirty no rows");
        assert_eq!(s.naive_dirty_rows, 4);
        assert_eq!(s.rounds, 0);
        assert_eq!(server.digest(), before);
    }

    #[test]
    fn set_weight_reroutes_shortest_paths() {
        let shape = build_shape(&TopologySpec::Ring { n: 6 }).unwrap();
        let rule = WeightRule::uniform(1);
        let mut server = RouteServer::new(
            ShortestPaths::new(),
            shape,
            move |s: &Topology<()>, w: &WeightOverrides| {
                AdjacencyMatrix::from_topology(&s.with_weights(|i, j| {
                    NatInf::fin(w.get(&(i, j)).copied().unwrap_or_else(|| rule.weight(i, j)))
                }))
            },
            1,
            64,
            &mut NoopSink,
        )
        .expect("server")
        .restart_on_removal(true);
        let before = server.query(0, 1, &mut NoopSink).unwrap();
        assert_eq!(before.text, "1");
        // Make the direct hop expensive: the 5-hop way round (cost 5)
        // now beats the weighted direct edge (cost 9) in both directions.
        server
            .push_change(
                ChangeSpec::SetWeight {
                    from: 0,
                    to: 1,
                    weight: 9,
                },
                &mut NoopSink,
            )
            .unwrap();
        server
            .push_change(
                ChangeSpec::SetWeight {
                    from: 1,
                    to: 0,
                    weight: 9,
                },
                &mut NoopSink,
            )
            .unwrap();
        let after = server.query(0, 1, &mut NoopSink).unwrap();
        assert_eq!(after.text, "5", "the route must detour the ring");
        // Re-creating the link resets the edge to rule weight.
        server
            .push_change(ChangeSpec::SetLink { a: 0, b: 1 }, &mut NoopSink)
            .unwrap();
        let reset = server.query(0, 1, &mut NoopSink).unwrap();
        assert_eq!(reset.text, "1");
    }

    #[test]
    fn queries_force_a_flush_and_answer_from_the_converged_table() {
        let shape = build_shape(&TopologySpec::Line { n: 4 }).unwrap();
        let mut server = RouteServer::new(
            BoundedHopCount::new(16),
            shape,
            hop_rebuild(),
            1,
            1024, // the cap alone would never flush this test's two events
            &mut NoopSink,
        )
        .expect("server");
        let far = server.query(0, 3, &mut NoopSink).unwrap();
        assert!(!far.stale);
        server
            .push_change(ChangeSpec::SetLink { a: 0, b: 3 }, &mut NoopSink)
            .unwrap();
        let near = server.query(0, 3, &mut NoopSink).unwrap();
        assert_ne!(
            far.text, near.text,
            "the new direct link must shorten the route"
        );
        assert_eq!(server.stats().batches, 1, "the query itself flushed");
        // Re-querying with no intervening change is stable and free.
        assert_eq!(server.query(0, 3, &mut NoopSink).unwrap(), near);
        assert_eq!(server.stats().batches, 1);
    }

    #[test]
    fn node_growth_is_supported_mid_stream() {
        let shape = build_shape(&TopologySpec::Line { n: 3 }).unwrap();
        let mut server = RouteServer::new(
            BoundedHopCount::new(16),
            shape,
            hop_rebuild(),
            2,
            8,
            &mut NoopSink,
        )
        .expect("server");
        server
            .push_change(ChangeSpec::AddNode, &mut NoopSink)
            .unwrap();
        // The joining node is addressable within the same batch.
        server
            .push_change(ChangeSpec::SetLink { a: 2, b: 3 }, &mut NoopSink)
            .unwrap();
        let answer = server.query(0, 3, &mut NoopSink).unwrap();
        assert_eq!(server.node_count(), 4);
        assert!(
            !answer.text.contains("Invalid") && !answer.text.is_empty(),
            "the joined node must be reachable, got {}",
            answer.text
        );
    }

    #[test]
    fn out_of_range_events_fail_structurally_with_a_partial_report() {
        let trace = ChurnTrace {
            topology: TopologySpec::Ring { n: 5 },
            algebra: ServeAlgebra::Hopcount { limit: 10 },
            events: vec![
                ServeEvent::Query { from: 0, to: 2 },
                ServeEvent::Change(ChangeSpec::SetLink { a: 0, b: 9 }),
            ],
        };
        let report = replay_trace(&trace, 1, 8, &mut NoopSink).expect("partial report");
        let failure = report.failure.expect("out-of-range change must fail");
        assert_eq!(failure.kind, "out_of_range");
        assert_eq!(failure.offset, 1, "the failing event's offset is carried");
        assert_eq!(report.stats.queries, 1, "work before the failure is kept");
        let trace = ChurnTrace {
            topology: TopologySpec::Ring { n: 5 },
            algebra: ServeAlgebra::Shortest,
            events: vec![ServeEvent::Query { from: 0, to: 9 }],
        };
        let report = replay_trace(&trace, 1, 8, &mut NoopSink).expect("partial report");
        assert_eq!(report.failure.expect("must fail").kind, "out_of_range");
    }

    #[test]
    fn the_shortest_algebra_replays_deterministically_too() {
        let trace = ChurnTrace {
            algebra: ServeAlgebra::Shortest,
            ..small_trace()
        };
        let a = replay_trace(&trace, 1, 8, &mut NoopSink).expect("replay");
        let b = replay_trace(&trace, 4, 8, &mut NoopSink).expect("replay");
        assert_eq!(a.final_digest, b.final_digest);
        assert_eq!(a.answers_digest, b.answers_digest);
    }

    #[test]
    fn crash_recover_matches_the_uninterrupted_run() {
        for (tag, trace) in [("hop", small_trace()), ("wshort", weighted_trace())] {
            let clean = replay_trace(&trace, 2, 16, &mut NoopSink).expect("clean replay");
            let dir = temp_dir(tag);
            let crashed = replay_trace_opts(
                &trace,
                &ServeOptions {
                    threads: 2,
                    batch_max: 16,
                    checkpoint_dir: Some(dir.clone()),
                    checkpoint_every: 32,
                    faults: Some(Arc::new(
                        FaultPlan::new(1).with(FaultKind::CrashAtEvent, 150),
                    )),
                    ..ServeOptions::default()
                },
                &mut NoopSink,
            )
            .expect("crash run returns a partial report");
            let failure = crashed.failure.expect("the crash fault must fire");
            assert_eq!(failure.kind, "crash");
            assert_eq!(failure.offset, 150);
            assert_eq!(failure.last_checkpoint, Some(128));
            let recovered = replay_trace_opts(
                &trace,
                &ServeOptions {
                    threads: 2,
                    batch_max: 16,
                    checkpoint_dir: Some(dir.clone()),
                    checkpoint_every: 32,
                    recover: true,
                    ..ServeOptions::default()
                },
                &mut NoopSink,
            )
            .expect("recovery replay");
            assert!(recovered.failure.is_none(), "{:?}", recovered.failure);
            let info = recovered.recovery.expect("recovery info");
            assert_eq!(info.snapshot_offset, Some(128));
            assert_eq!(info.wal_replayed, 150 - 128);
            assert_eq!(recovered.final_digest, clean.final_digest, "{tag}");
            assert_eq!(recovered.answers_digest, clean.answers_digest, "{tag}");
            assert_eq!(recovered.stats.batches, clean.stats.batches, "{tag}");
            assert_eq!(recovered.stats.rounds, clean.stats.rounds, "{tag}");
            assert_eq!(recovered.stats.changes, clean.stats.changes);
            assert_eq!(recovered.stats.queries, clean.stats.queries);
            assert_eq!(
                recovered.stats.row_recomputations,
                clean.stats.row_recomputations
            );
            assert_eq!(
                recovered.stats.worst_flush_rounds,
                clean.stats.worst_flush_rounds
            );
            assert_eq!(recovered.stats.bound_ok, clean.stats.bound_ok);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_corrupted_wal_fails_recovery_cleanly() {
        let trace = small_trace();
        let dir = temp_dir("corrupt");
        let crashed = replay_trace_opts(
            &trace,
            &ServeOptions {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every: 64,
                faults: Some(Arc::new(
                    FaultPlan::new(2).with(FaultKind::CrashAtEvent, 100),
                )),
                ..ServeOptions::default()
            },
            &mut NoopSink,
        )
        .expect("crash run");
        assert_eq!(crashed.failure.expect("crash").kind, "crash");
        let mut store = CheckpointStore::open(&dir).expect("store");
        store.tamper_corrupt(5).expect("tamper");
        let recovered = replay_trace_opts(
            &trace,
            &ServeOptions {
                checkpoint_dir: Some(dir.clone()),
                recover: true,
                ..ServeOptions::default()
            },
            &mut NoopSink,
        )
        .expect("recovery returns a structured failure, not Err");
        let failure = recovered.failure.expect("corruption must be detected");
        assert_eq!(failure.kind, "wal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deadline_overrun_serves_stale_then_reconverges_identically() {
        // A ring with a failed link takes many σ rounds to reroute; an
        // injected 50ms pre-flush delay against a 5ms deadline guarantees
        // the overrun fires deterministically.
        let mut events = vec![ServeEvent::Change(ChangeSpec::FailLink { a: 0, b: 1 })];
        for _ in 0..4 {
            events.push(ServeEvent::Query { from: 0, to: 6 });
        }
        let trace = ChurnTrace {
            topology: TopologySpec::Ring { n: 12 },
            algebra: ServeAlgebra::Hopcount { limit: 24 },
            events,
        };
        let clean = replay_trace(&trace, 2, 1, &mut NoopSink).expect("clean");
        let degraded = replay_trace_opts(
            &trace,
            &ServeOptions {
                threads: 2,
                batch_max: 1,
                deadline: DeadlineCfg::Millis(5),
                faults: Some(Arc::new(
                    FaultPlan::new(3).with(FaultKind::DelayFlush { millis: 50 }, 0),
                )),
                ..ServeOptions::default()
            },
            &mut NoopSink,
        )
        .expect("degraded run");
        assert!(degraded.failure.is_none());
        assert!(
            degraded.stats.deadline_overruns >= 1,
            "the delayed flush must overrun its 5ms deadline"
        );
        assert!(
            degraded.stats.stale_answers >= 1,
            "queries during reconvergence must be served stale"
        );
        // Wall-clock decides when the new table is adopted, never what
        // it contains: the final table matches the clean run even though
        // some answers were stale.
        assert_eq!(degraded.final_digest, clean.final_digest);
        assert_eq!(degraded.stats.batches, clean.stats.batches);
    }

    #[test]
    fn recover_without_a_store_is_a_config_error() {
        let trace = small_trace();
        let err = replay_trace_opts(
            &trace,
            &ServeOptions {
                recover: true,
                ..ServeOptions::default()
            },
            &mut NoopSink,
        );
        assert!(err.is_err(), "recover without checkpoint dir must be Err");
    }

    #[test]
    fn serve_json_separates_deterministic_and_timing_sections() {
        let trace = small_trace();
        let report = replay_trace(&trace, 2, 16, &mut NoopSink).expect("replay");
        let json = serve_json(&report, 2, 16).to_string();
        assert!(json.contains("\"suite\": \"dbf-serve\""));
        assert!(json.contains("\"schema_version\": 2"));
        assert!(json.contains("\"final_digest\""));
        assert!(json.contains("\"answers_digest\""));
        assert!(json.contains("\"coalesce_ratio\""));
        assert!(json.contains("\"worst_flush_rounds\""));
        assert!(json.contains("\"bound_ok\""));
        assert!(json.contains("\"failure\": null"));
        let timing_pos = json.find("\"timing\"").expect("timing section");
        for key in [
            "wall_ms",
            "events_per_sec",
            "stale_answers",
            "deadline_overruns",
            "flush_retries",
            "checkpoints",
            "recovery",
            "convergence_us",
            "query_us",
            "pool",
        ] {
            let pos = json.find(&format!("\"{key}\"")).expect(key);
            assert!(
                pos > timing_pos,
                "{key} must live inside the timing section"
            );
        }
        let failure_pos = json.find("\"failure\"").expect("failure key");
        assert!(
            failure_pos < timing_pos,
            "failure is part of the deterministic section"
        );
    }
}
