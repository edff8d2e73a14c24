//! The replay driver: feed a [`ChurnTrace`] to a [`RouteServer`], keep the
//! checkpoint store in step with it, and report — whole or partial —
//! through one exit.

use super::clock::{Clock, SystemClock};
use super::report::{RecoveryInfo, ReplayReport, ServeFailure};
use super::server::RouteServer;
use super::trace::{event_to_line, serve_shape, ChurnTrace, ServeAlgebra, ServeEvent};
use super::types::{BoundRule, DeadlineCfg, ServeStats, WeightOverrides};
use crate::chaos::{FaultKind, FaultPlan};
use crate::checkpoint::{CheckpointStore, PersistRoute, Snapshot, WalError};
use crate::engine::ScenarioAlgebra;
use crate::report::Digest;
use crate::spec::{SpecError, WeightRule};
use dbf_algebra::prelude::*;
use dbf_matrix::{AdjacencyMatrix, WorkerPool};
use dbf_telemetry::TelemetrySink;
use dbf_topology::Topology;
use std::path::PathBuf;
use std::sync::Arc;

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
    /// A deterministic fault schedule to run under: crash points for the
    /// driver, flush delays for the server.
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

/// Replay a churn trace through a route server with default options
/// (no deadline, no checkpoints, no faults).  `batch_max` caps how
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
    replay_clocked(trace, opts, Arc::new(SystemClock::default()), tel)
}

/// [`replay_trace_opts`] on a clock of the caller's choosing: the server
/// and the driver's own wall time both read `clock`, so on a
/// [`ScriptedClock`](super::ScriptedClock) the whole report — `timing`
/// block included, bar the pool's thread-dependent counters — is a
/// function of (trace, options, script).
pub(crate) fn replay_clocked(
    trace: &ChurnTrace,
    opts: &ServeOptions,
    clock: Arc<dyn Clock>,
    tel: &mut dyn TelemetrySink,
) -> Result<ReplayReport, SpecError> {
    trace.algebra.validate()?;
    let shape = serve_shape(&trace.topology)?;
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
                clock,
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
                clock,
                tel,
            )
        }
    }
}

/// What a replay has done so far: with the server itself, everything a
/// (possibly partial) report is assembled from.
#[derive(Default)]
struct Progress {
    answers: Digest,
    recovery: Option<RecoveryInfo>,
    checkpoints: u64,
    last_checkpoint: Option<u64>,
    /// Trace events ingested so far — the offset of the next one.
    offset: usize,
}

/// What a recovering run read back from its store.
struct ReadBack {
    /// Offset of the snapshot the server was restored from, if there was one.
    snapshot_offset: Option<u64>,
    /// The WAL tail: `(offset, event line)` records to redo on top of it.
    wal: Vec<(u64, String)>,
}

impl Progress {
    /// A failure at the current offset.
    fn failure(&self, kind: &str, message: String) -> ServeFailure {
        ServeFailure {
            kind: kind.to_string(),
            message,
            offset: self.offset as u64,
            last_checkpoint: self.last_checkpoint,
        }
    }

    /// Stand the server up.  A recovering run reads the store back first:
    /// `make` is handed the snapshot to restore from (or `None` — then the
    /// server it returns has still to converge), and what was read comes
    /// back with the server.
    fn boot<S>(
        &mut self,
        store: Option<&CheckpointStore>,
        algebra_tag: &str,
        make: impl FnOnce(Option<&Snapshot>) -> Result<S, String>,
    ) -> Result<(S, ReadBack), ServeFailure> {
        let (snap, wal) = match store {
            None => (None, Vec::new()),
            Some(st) => {
                let snap = st
                    .load_snapshot()
                    .map_err(|e| self.failure("checkpoint", e))?;
                self.offset = snap.as_ref().map_or(0, |s| s.offset as usize);
                let wal = st.load_wal().map_err(|e| match e {
                    WalError::Corrupt { line, message } => {
                        self.failure("wal", format!("WAL record {line} is corrupt: {message}"))
                    }
                    WalError::Io(e) => self.failure("io", e),
                })?;
                (snap, wal)
            }
        };
        if let Some(snap) = &snap {
            if snap.algebra != algebra_tag {
                return Err(self.failure(
                    "checkpoint",
                    format!(
                        "snapshot algebra {:?} does not match the trace's {:?}",
                        snap.algebra, algebra_tag
                    ),
                ));
            }
        }
        let server = make(snap.as_ref()).map_err(|e| self.failure("checkpoint", e))?;
        if let Some(snap) = &snap {
            self.answers = Digest::from_state(snap.answers_state);
            self.last_checkpoint = Some(snap.offset);
        }
        let snapshot_offset = snap.map(|s| s.offset);
        Ok((
            server,
            ReadBack {
                snapshot_offset,
                wal,
            },
        ))
    }

    /// Submit the event at the current offset and fold its answer, if it
    /// has one, into the answers digest.
    fn submit<A, F>(
        &mut self,
        server: &mut RouteServer<A, F>,
        event: &ServeEvent,
        tel: &mut dyn TelemetrySink,
    ) -> Result<(), ServeFailure>
    where
        A: ScenarioAlgebra,
        F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
    {
        let answer = server
            .submit(event, tel)
            .map_err(|p| self.failure(p.kind, p.message))?;
        if let Some(a) = answer {
            self.answers.update(&a.text);
            if a.stale {
                self.answers.update("!stale");
            }
            self.answers.update(";");
        }
        Ok(())
    }

    /// Redo the WAL tail `read_back` holds (on a recovering run), then
    /// serve the rest of the trace, logging ahead and snapshotting when a
    /// store is armed, and finish.
    fn serve<A, F>(
        &mut self,
        server: &mut RouteServer<A, F>,
        mut store: Option<&mut CheckpointStore>,
        read_back: &ReadBack,
        trace: &ChurnTrace,
        opts: &ServeOptions,
        tel: &mut dyn TelemetrySink,
    ) -> Result<(), ServeFailure>
    where
        A: ScenarioAlgebra,
        A::Route: PersistRoute,
        F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
    {
        if opts.recover {
            let ReadBack {
                snapshot_offset,
                wal,
            } = read_back;
            for (off, line) in wal {
                if *off != self.offset as u64 || self.offset >= trace.events.len() {
                    return Err(ServeFailure {
                        offset: *off,
                        ..self.failure(
                            "wal",
                            format!(
                                "WAL offset {off} does not continue the trace at {}",
                                self.offset
                            ),
                        )
                    });
                }
                // The WAL is a redo log over the same trace: the recorded
                // line must match the trace event at its offset, or the
                // store belongs to a different run.
                let event = &trace.events[self.offset];
                let expected = event_to_line(event);
                if *line != expected {
                    return Err(self.failure(
                        "wal",
                        format!(
                            "WAL event {off} diverges from the trace ({line:?} vs {expected:?})"
                        ),
                    ));
                }
                self.submit(server, event, tel)?;
                self.offset += 1;
            }
            if let Some(st) = store.as_deref_mut() {
                // Rewrite exactly the valid records so later appends don't
                // glue onto a torn tail.
                st.reset_wal(wal)
                    .map_err(|e| self.failure("io", format!("WAL reset: {e}")))?;
            }
            let wal_replayed = wal.len() as u64;
            tel.serve_recovery(snapshot_offset.unwrap_or(0), wal_replayed);
            self.recovery = Some(RecoveryInfo {
                snapshot_offset: *snapshot_offset,
                wal_replayed,
            });
        }

        let every = opts.checkpoint_every.max(1);
        let algebra_tag = trace.algebra.tag();
        while let Some(event) = trace.events.get(self.offset) {
            let off = self.offset as u64;
            if let Some(plan) = &opts.faults {
                if plan.crash_at_event(off) {
                    let crash = FaultKind::CrashAtEvent.name();
                    tel.fault_injected(crash, off);
                    return Err(self.failure(crash, format!("injected crash before event {off}")));
                }
            }
            if let Some(st) = store.as_deref_mut() {
                // Write-ahead: the event is durable before it is applied, so
                // recovery can always redo it.
                st.append_wal(off, &event_to_line(event))
                    .map_err(|e| self.failure("io", format!("WAL append: {e}")))?;
            }
            self.submit(server, event, tel)?;
            if let Some(st) = store.as_deref_mut() {
                // Skip the snapshot while degraded: a snapshot must capture
                // a converged table (`snapshot` refuses a degraded server),
                // and forcing completion here would let checkpoint cadence
                // perturb the deadline machinery.
                if (off + 1).is_multiple_of(every) && !server.is_degraded() {
                    let snapshot = server.snapshot(off + 1, &algebra_tag, &self.answers);
                    st.write_snapshot(&snapshot)
                        .map_err(|e| self.failure("io", format!("snapshot write: {e}")))?;
                    self.last_checkpoint = Some(off + 1);
                    self.checkpoints += 1;
                }
            }
            self.offset += 1;
        }

        server
            .finish(tel)
            .map_err(|p| self.failure(p.kind, p.message))?;
        let ps = WorkerPool::shared().stats();
        tel.pool_utilization(ps.workers as u64, ps.epochs, ps.jobs, ps.worker_share());
        Ok(())
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
    clock: Arc<dyn Clock>,
    tel: &mut dyn TelemetrySink,
) -> Result<ReplayReport, SpecError>
where
    A: ScenarioAlgebra,
    A::Route: PersistRoute,
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    let threads = opts.threads.max(1);
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

    let t0 = clock.now();
    let make = |snap: Option<&Snapshot>| {
        let server = match snap {
            Some(snap) => RouteServer::restore(alg, rebuild, snap, threads, opts.batch_max)?,
            None => RouteServer::raw(alg, shape, rebuild, threads, opts.batch_max),
        };
        Ok(server
            .restart_on_removal(removal_restart)
            .with_bound(bound)
            .with_deadline(opts.deadline)
            .with_faults(opts.faults.clone())
            .with_clock(clock.clone()))
    };
    let mut run = Progress::default();
    let mut server = None;
    let recovering = store.as_ref().filter(|_| opts.recover);
    let failure = match run.boot(recovering, &trace.algebra.tag(), make) {
        Err(failure) => Some(failure),
        Ok((booted, read_back)) => {
            let server = server.insert(booted);
            if read_back.snapshot_offset.is_none() {
                server.initial_converge(tel)?;
            }
            run.serve(server, store.as_mut(), &read_back, trace, opts, tel)
                .err()
        }
    };
    // The one exit: whatever was reached is what is reported.
    let (nodes, events, stats, final_digest, answers_digest) = match &server {
        Some(s) => (
            s.node_count(),
            run.offset as u64,
            s.stats().clone(),
            s.digest(),
            run.answers.finish(),
        ),
        // The store could not be read back: nothing was served.
        None => (0, 0, ServeStats::default(), String::new(), String::new()),
    };
    Ok(ReplayReport {
        nodes,
        events,
        stats,
        final_digest,
        answers_digest,
        pool: WorkerPool::shared().stats(),
        wall_ms: clock.now().saturating_sub(t0).as_secs_f64() * 1000.0,
        failure,
        recovery: run.recovery,
        checkpoints: run.checkpoints,
        last_checkpoint: run.last_checkpoint,
    })
}
