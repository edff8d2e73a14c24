//! # dbf-telemetry — zero-cost-when-off instrumentation for the DBF engines
//!
//! Every engine in the workspace computes rich per-round state — rows swept,
//! dirty frontiers, per-node settle times, messages and bytes on the wire,
//! parallel band assignments — and, before this crate existed, threw all of
//! it away, leaving only a final digest and a wall-clock number.  This crate
//! is the instrumentation substrate that keeps it:
//!
//! * [`TelemetrySink`] — an object-safe trait of *events*.  Every method has
//!   an empty default body, and [`TelemetrySink::enabled`] defaults to
//!   `true`; the shipped [`NoopSink`] overrides it to `false`.  Kernels that
//!   accept a sink are generic over `S: TelemetrySink + ?Sized`, so the
//!   `NoopSink` path monomorphizes to straight-line code with every event
//!   call (and every `Instant::now()` guarded behind `enabled()`) compiled
//!   out, while engines can hold a `&mut dyn TelemetrySink` and branch once
//!   per phase.
//! * [`AggregatingSink`] — folds the event stream into a [`MetricsReport`]:
//!   per-(run, phase) round counts, rows recomputed/changed, a per-node
//!   settle-round histogram summarized as p50/p95/p99, and uniform message
//!   counters — **all thread-invariant**, plus a separate timing side
//!   (round wall times and per-band sweep stats) that is allowed to vary
//!   with the thread count and OS scheduling.
//! * [`TraceSink`] — a schema-versioned JSONL trace writer
//!   ([`TRACE_SCHEMA_VERSION`]): one flat, single-line JSON object per
//!   event, in the deterministic order the coordinating thread emits them,
//!   for offline replay and analysis.
//! * [`Tee`] — fan a single event stream into two sinks (e.g. aggregate
//!   *and* trace in one run).
//!
//! Beyond the per-round engine events, the sink carries the route server's
//! lifecycle: `serve_batch` (one coalesced reconvergence), `serve_degraded`
//! / `serve_restored` (a flush overran its bound-derived deadline and
//! queries were answered stale until it completed), `serve_recovery`
//! (snapshot offset and WAL events replayed after a crash), and
//! `fault_injected` (the deterministic fault plane firing).
//!
//! The determinism contract is the load-bearing design point: events that
//! feed the `metrics` side of a report carry only quantities that are pure
//! functions of (problem, seed) — round indices, row counts, settle rounds,
//! message counters — while wall-clock durations and band geometry flow to
//! the `timing` side only.  See the repository's docs/ARCHITECTURE.md
//! "Observability" section for the full argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod sink;
mod trace;

pub use metrics::{
    nearest_rank, AggregatingSink, BandStats, MetricsReport, PhaseMetrics, PhaseTiming,
    SettleSummary,
};
pub use sink::{EventClass, MessageCounters, NoopSink, Tee, TelemetrySink};
pub use trace::{escape_into, TraceSink, TRACE_SCHEMA_VERSION};
