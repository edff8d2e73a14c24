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
//! reconvergence a round at a time as queries arrive — the clock only
//! decides *when* the new table is adopted, never *what* it contains,
//! so the deterministic counters and digests are unaffected.  The server
//! reads time and waits only through its [`Clock`]: on the default
//! [`SystemClock`] that is the machine's, on a [`ScriptedClock`] a
//! deadline run is a pure function of (trace, options, script).  A σ
//! round that panics surfaces at once as a structured `kernel`
//! [`ServeProblem`] and parks the flush, as an overrun does: the round is a
//! pure function of its inputs, so stepping it again would panic again.
//!
//! [`replay_trace_opts`] drives a server from a seeded [`ChurnTrace`] — the
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
//! [`CheckpointStore`]: crate::checkpoint::CheckpointStore
//!
//! # Modules
//!
//! Every public name is re-exported here; the files are:
//!
//! * `trace` — the trace model, its line codec (shared with the WAL and
//!   the snapshot's pending batch) and the seeded generator;
//! * `server` — [`RouteServer`], the state machine: it owns the table,
//!   the pending batch and at most one flush in progress; its inputs are
//!   changes, queries and time (a [`Clock`]), and it touches no file;
//! * `types` — the options a server is built with and the outcomes it
//!   hands back;
//! * `clock` — [`SystemClock`] and [`ScriptedClock`];
//! * `replay` — the driver: feeds a trace to a server, owns the
//!   checkpoint store and the one exit every mid-replay failure takes;
//! * `report` — [`ReplayReport`] and its two renderings.

mod clock;
mod replay;
mod report;
mod server;
mod trace;
mod types;

#[cfg(test)]
mod resident_tests;
#[cfg(test)]
mod tests;

pub use clock::{Clock, ScriptedClock, SystemClock};
pub(crate) use replay::replay_clocked;
pub use replay::{replay_trace_opts, ServeOptions};
pub use report::{serve_json, serve_summary, RecoveryInfo, ReplayReport, ServeFailure};
pub use server::RouteServer;
pub use trace::{generate_trace, ChurnTrace, ServeAlgebra, ServeEvent, TraceSpec};
pub use types::{BoundRule, DeadlineCfg, ServeAnswer, ServeProblem, ServeStats, WeightOverrides};
