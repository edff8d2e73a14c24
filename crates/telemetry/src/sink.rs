//! The [`TelemetrySink`] event trait, the disabled [`NoopSink`], the
//! fan-out [`Tee`], uniform [`MessageCounters`], and the [`EventClass`]
//! taxonomy engines use to advertise what they emit.

/// Uniform message-plane counters for one engine phase.
///
/// Every message-driven engine reports the same four counts; `bytes` is
/// `Some` only for engines with a wire encoding (rip/bgp), `None` for
/// engines whose messages are in-memory events (the simulator, the
/// threaded runtime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageCounters {
    /// Messages sent (updates plus withdrawals where the protocol has them).
    pub sent: u64,
    /// Messages delivered and processed by a receiver.
    pub delivered: u64,
    /// Messages dropped in flight (loss faults).
    pub dropped: u64,
    /// Duplicate deliveries injected by the fault model.
    pub duplicated: u64,
    /// Wire bytes sent, when the engine has a wire encoding.
    pub bytes: Option<u64>,
}

impl MessageCounters {
    /// Accumulate another phase's counters into this one.  `bytes` stays
    /// `None` only if both sides lack a wire encoding.
    pub fn merge(&mut self, other: &MessageCounters) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.bytes = match (self.bytes, other.bytes) {
            (None, None) => None,
            (a, b) => Some(a.unwrap_or(0) + b.unwrap_or(0)),
        };
    }
}

/// The classes of telemetry events an engine can emit, used by the engine
/// registry to advertise per-engine observability coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Per-round events: `round_start` / `round_end`.
    Rounds,
    /// Per-node convergence events: `node_settled`.
    Settle,
    /// Message-plane counters: `messages`.
    Messages,
    /// Parallel band profiling: `band_sweep`.
    Bands,
    /// Fault-plane injections: `fault_injected`.
    Faults,
    /// Robustness health events: `serve_degraded`, `serve_restored`,
    /// `serve_recovery`.
    Health,
}

impl EventClass {
    /// Short lowercase name, as printed by `scenarios list-engines`.
    pub fn name(self) -> &'static str {
        match self {
            EventClass::Rounds => "rounds",
            EventClass::Settle => "settle",
            EventClass::Messages => "messages",
            EventClass::Bands => "bands",
            EventClass::Faults => "faults",
            EventClass::Health => "health",
        }
    }
}

/// An observer of engine execution events.
///
/// Every event method has an empty default body, so a sink implements only
/// what it cares about.  [`TelemetrySink::enabled`] defaults to `true`;
/// [`NoopSink`] overrides it to `false`, and instrumented kernels guard
/// any work done *only* to feed telemetry (wall-clock reads, per-row
/// bookkeeping) behind `enabled()` so the no-op path monomorphizes away.
///
/// The trait is object-safe: engines hold `&mut dyn TelemetrySink`, while
/// kernels are generic over `S: TelemetrySink + ?Sized` and work with both
/// a concrete `&mut NoopSink` and a `&mut dyn TelemetrySink`.
///
/// Determinism contract: every argument except the `wall_ns` durations is
/// a pure function of (problem, seed) for deterministic-counter engines —
/// sinks that feed the deterministic `metrics` report section must ignore
/// `wall_ns` (the shipped [`AggregatingSink`](crate::AggregatingSink)
/// routes it to the separate timing side).
pub trait TelemetrySink {
    /// Is this sink collecting anything?  Kernels use this to skip
    /// telemetry-only work; `NoopSink` returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// An engine run begins.  `run` is the report label (e.g. `delta[7]`),
    /// `engine` the registry name (e.g. `delta`).
    fn run_start(&mut self, _run: &str, _engine: &str) {}

    /// A phase of the current run begins on a network of `nodes` nodes.
    fn phase_start(&mut self, _label: &str, _nodes: usize) {}

    /// The current phase ended.
    fn phase_end(&mut self, _label: &str) {}

    /// A σ round (or δ time step) begins; `scheduled` rows are due for
    /// recomputation (the dirty-set size — `n` for full sweeps), of which
    /// `frontier` are on the active frontier (rows whose inputs changed
    /// last round and will actually be σ-recomputed; equal to `scheduled`
    /// for the dirty-row engines, `≤ scheduled` for full sweeps that
    /// short-circuit settled rows).
    fn round_start(&mut self, _round: u64, _scheduled: u64, _frontier: u64) {}

    /// A round ended: `recomputed` rows were swept, `changed` of them
    /// produced a different row.  `wall_ns` is non-deterministic.
    fn round_end(&mut self, _round: u64, _recomputed: u64, _changed: u64, _wall_ns: u64) {}

    /// One parallel worker band finished its sweep of `rows` rows with
    /// total degree `weight` in `wall_ns`.  Emitted by the coordinating
    /// thread in band-index order, so trace ordering stays deterministic.
    fn band_sweep(&mut self, _round: u64, _band: u64, _rows: u64, _weight: u64, _wall_ns: u64) {}

    /// Node `node`'s routing row changed for the last time in `round`
    /// (0 if it never changed).  Emitted once per node, in node order,
    /// after the phase's fixed point is reached.
    fn node_settled(&mut self, _node: usize, _round: u64) {}

    /// Message-plane counters for the current phase.
    fn messages(&mut self, _counters: &MessageCounters) {}

    /// A route-server batch reconverged: `events` churn events were
    /// coalesced into one incremental reconvergence that marked
    /// `batch_dirty` rows dirty (versus the `naive_dirty` row
    /// recomputations one-at-a-time processing would have scheduled) and
    /// settled in `rounds` dirty-σ rounds.
    fn serve_batch(
        &mut self,
        _batch: u64,
        _events: u64,
        _naive_dirty: u64,
        _batch_dirty: u64,
        _rounds: u64,
    ) {
    }

    /// A snapshot of the persistent worker pool's lifetime counters:
    /// `jobs` band jobs across `epochs` scoped hand-outs on `workers`
    /// parked threads, with `worker_share` of jobs executed on workers
    /// (the rest ran inline on the coordinator).  `worker_share` is
    /// scheduling-dependent and therefore non-deterministic.
    fn pool_utilization(&mut self, _workers: u64, _epochs: u64, _jobs: u64, _worker_share: f64) {}

    /// A scheduled fault fired: `kind` is the stable fault name (e.g.
    /// `crash`, `delay_flush`), `at` its trigger site.  Only emitted by
    /// chaos/fault-injected runs.
    fn fault_injected(&mut self, _kind: &str, _at: u64) {}

    /// A flush overran its reconvergence deadline: the server enters
    /// degraded mode and answers queries from the last stable table
    /// (flagged stale) while reconvergence continues.  `flush` is the
    /// batch index, `rounds_done` how many rounds fit in the deadline.
    fn serve_degraded(&mut self, _flush: u64, _rounds_done: u64) {}

    /// A degraded flush completed its reconvergence: `rounds_total` rounds
    /// overall, after `stale_answers` queries were served stale.
    fn serve_restored(&mut self, _flush: u64, _rounds_total: u64, _stale_answers: u64) {}

    /// The server recovered from a checkpoint directory: the snapshot put
    /// it at event `offset` and `wal_events` WAL-tail events were
    /// replayed on top before the trace resumed.
    fn serve_recovery(&mut self, _offset: u64, _wal_events: u64) {}
}

/// The disabled sink: `enabled()` is `false` and every event is a no-op.
/// Kernels monomorphized against `NoopSink` compile the instrumentation
/// out entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }
}

/// Fans one event stream into two sinks (e.g. aggregate and trace at the
/// same time).  Enabled if either side is.
pub struct Tee<'a> {
    /// First receiver.
    pub a: &'a mut dyn TelemetrySink,
    /// Second receiver.
    pub b: &'a mut dyn TelemetrySink,
}

impl TelemetrySink for Tee<'_> {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }
    fn run_start(&mut self, run: &str, engine: &str) {
        self.a.run_start(run, engine);
        self.b.run_start(run, engine);
    }
    fn phase_start(&mut self, label: &str, nodes: usize) {
        self.a.phase_start(label, nodes);
        self.b.phase_start(label, nodes);
    }
    fn phase_end(&mut self, label: &str) {
        self.a.phase_end(label);
        self.b.phase_end(label);
    }
    fn round_start(&mut self, round: u64, scheduled: u64, frontier: u64) {
        self.a.round_start(round, scheduled, frontier);
        self.b.round_start(round, scheduled, frontier);
    }
    fn round_end(&mut self, round: u64, recomputed: u64, changed: u64, wall_ns: u64) {
        self.a.round_end(round, recomputed, changed, wall_ns);
        self.b.round_end(round, recomputed, changed, wall_ns);
    }
    fn band_sweep(&mut self, round: u64, band: u64, rows: u64, weight: u64, wall_ns: u64) {
        self.a.band_sweep(round, band, rows, weight, wall_ns);
        self.b.band_sweep(round, band, rows, weight, wall_ns);
    }
    fn node_settled(&mut self, node: usize, round: u64) {
        self.a.node_settled(node, round);
        self.b.node_settled(node, round);
    }
    fn messages(&mut self, counters: &MessageCounters) {
        self.a.messages(counters);
        self.b.messages(counters);
    }
    fn serve_batch(
        &mut self,
        batch: u64,
        events: u64,
        naive_dirty: u64,
        batch_dirty: u64,
        rounds: u64,
    ) {
        self.a
            .serve_batch(batch, events, naive_dirty, batch_dirty, rounds);
        self.b
            .serve_batch(batch, events, naive_dirty, batch_dirty, rounds);
    }
    fn pool_utilization(&mut self, workers: u64, epochs: u64, jobs: u64, worker_share: f64) {
        self.a.pool_utilization(workers, epochs, jobs, worker_share);
        self.b.pool_utilization(workers, epochs, jobs, worker_share);
    }
    fn fault_injected(&mut self, kind: &str, at: u64) {
        self.a.fault_injected(kind, at);
        self.b.fault_injected(kind, at);
    }
    fn serve_degraded(&mut self, flush: u64, rounds_done: u64) {
        self.a.serve_degraded(flush, rounds_done);
        self.b.serve_degraded(flush, rounds_done);
    }
    fn serve_restored(&mut self, flush: u64, rounds_total: u64, stale_answers: u64) {
        self.a.serve_restored(flush, rounds_total, stale_answers);
        self.b.serve_restored(flush, rounds_total, stale_answers);
    }
    fn serve_recovery(&mut self, offset: u64, wal_events: u64) {
        self.a.serve_recovery(offset, wal_events);
        self.b.serve_recovery(offset, wal_events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_disabled_and_inert() {
        let mut s = NoopSink;
        assert!(!s.enabled());
        s.round_start(1, 5, 5);
        s.round_end(1, 5, 3, 42);
        s.node_settled(0, 2);
    }

    #[test]
    fn counters_merge_keeps_bytes_absent_only_when_both_sides_lack_them() {
        let mut a = MessageCounters {
            sent: 1,
            delivered: 1,
            dropped: 0,
            duplicated: 0,
            bytes: None,
        };
        a.merge(&MessageCounters::default());
        assert_eq!(a.bytes, None);
        a.merge(&MessageCounters {
            sent: 2,
            bytes: Some(64),
            ..MessageCounters::default()
        });
        assert_eq!(a.sent, 3);
        assert_eq!(a.bytes, Some(64));
    }
}
