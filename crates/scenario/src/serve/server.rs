//! [`RouteServer`]: the state machine.
//!
//! It is in one of two states — *idle* (a converged table and a pending
//! batch) or *degraded* (the same, plus one parked [`Flush`] whose
//! deadline passed; queries answer stale from the old table) — and
//! *converging* is the transient in between, inside [`RouteServer::flush`].
//! Its inputs are changes, queries, `finish`, and time: every reading of
//! the clock and every wait goes through its [`Clock`], and nothing here
//! opens a file (snapshots are values; the replay driver stores them).
//!
//! One [`FixedPoint`] stepper lives as long as the server, and its rows are
//! the one routing table.  A flush keeps a copy of them that costs a
//! pointer (the pre-batch table, in the [`Flush`]), rebuilds the adjacency
//! (its transpose, which the stepper's rounds read, comes with it), diffs
//! it against the last one, reseeds the stepper's frontier with the dirty
//! rows and iterates.  While degraded, stale answers come from the
//! pre-batch table; the commit drops it.

use super::clock::{Clock, SystemClock};
use super::trace::{admit, check_node_count, parse_event_line, ServeEvent};
use super::types::{
    BoundRule, DeadlineCfg, ServeAnswer, ServeProblem, ServeStats, WeightOverrides,
};
use crate::chaos::{FaultKind, FaultPlan};
use crate::checkpoint::Snapshot;
use crate::engine::{rows_digest, ScenarioAlgebra};
use crate::fields::Keys;
use crate::report::Digest;
use crate::spec::{ChangeSpec, SpecError};
use dbf_matrix::{
    dirty_rows_after_change, iteration_budget, AdjacencyMatrix, FixedPoint, Pooled, RoutingState,
    Start,
};
use dbf_telemetry::TelemetrySink;
use dbf_topology::Topology;
use std::sync::Arc;
use std::time::Duration;

/// A flush in progress: the table from before its batch and its
/// accounting.  Parked in `RouteServer::parked` when the server went over
/// its deadline (or its kernel failed), where its table answers queries;
/// the work itself is the resident stepper, so resuming costs nothing per
/// round and the chunked trajectory is the uninterrupted trajectory.
struct Flush<A: ScenarioAlgebra> {
    before: RoutingState<A>,
    naive_dirty: u64,
    batch_dirty: u64,
    batch_len: u64,
    budget: usize,
    bound: Option<u64>,
    stale_served: u64,
    /// The clock's reading when the flush began.
    started: Duration,
    /// Why the flush cannot finish, once its kernel or its budget failed.
    /// A σ round is a pure function of its inputs, so a failed flush is not
    /// stepped again: every later call reports this problem.
    failed: Option<ServeProblem>,
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
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    alg: A,
    shape: Topology<()>,
    overrides: WeightOverrides,
    rebuild: F,
    /// The adjacency of `shape` as of the last flush — the one `kernel`
    /// iterates.
    adj: AdjacencyMatrix<A>,
    /// The resident stepper, whose rows are the routing table: σ's fixed
    /// point on `adj` while idle, a flush's iteration in between.
    kernel: FixedPoint<A>,
    threads: usize,
    batch_max: usize,
    removal_restart: bool,
    pending: Vec<ChangeSpec>,
    /// How many of `pending` are `add_node` (kept beside the batch so the
    /// per-event bounds check never rescans it).
    pending_adds: usize,
    stats: ServeStats,
    deadline: DeadlineCfg,
    bound: BoundRule,
    faults: Option<Arc<FaultPlan>>,
    /// The flush that overran its deadline, if one is still in flight.
    parked: Option<Flush<A>>,
    ema_us_per_round: f64,
    clock: Arc<dyn Clock>,
}

impl<A, F> RouteServer<A, F>
where
    A: ScenarioAlgebra,
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    /// Build a server without converging it (table = identity).  Chain
    /// the builders, then call [`RouteServer::initial_converge`].
    pub fn raw(alg: A, shape: Topology<()>, rebuild: F, threads: usize, batch_max: usize) -> Self {
        let overrides = WeightOverrides::new();
        Self::assemble(alg, shape, overrides, rebuild, threads, batch_max)
    }

    /// The one place the field list is written: a server on `shape` and
    /// `overrides` stepping from the identity, with nothing pending,
    /// zeroed counters and every builder at its default.
    fn assemble(
        alg: A,
        shape: Topology<()>,
        overrides: WeightOverrides,
        rebuild: F,
        threads: usize,
        batch_max: usize,
    ) -> Self {
        let adj = rebuild(&shape, &overrides);
        let n = adj.node_count();
        let state = RoutingState::identity(&alg, n);
        let kernel = FixedPoint::new(&adj, state, Start::Dirty(&vec![false; n]));
        Self {
            alg,
            shape,
            overrides,
            rebuild,
            adj,
            kernel,
            threads: threads.max(1),
            batch_max: batch_max.max(1),
            removal_restart: false,
            pending: Vec::new(),
            pending_adds: 0,
            stats: ServeStats::default(),
            deadline: DeadlineCfg::Off,
            bound: BoundRule::None,
            faults: None,
            parked: None,
            ema_us_per_round: 0.0,
            clock: Arc::new(SystemClock::default()),
        }
    }

    /// Converge the initial table (a full sweep: every row starts dirty;
    /// not counted in the stats).  Deadline-exempt: there is no previous
    /// stable table to serve from, so startup always runs to a fixed
    /// point.  A server from [`RouteServer::restore`] needs it as much as
    /// one from [`RouteServer::raw`]: a snapshot holds no table.
    pub fn initial_converge(&mut self, tel: &mut dyn TelemetrySink) -> Result<(), SpecError> {
        let n = self.adj.node_count();
        self.kernel.reseed(Start::Dirty(&vec![true; n]));
        let converged = self
            .run_kernel(iteration_budget(n, None), tel)
            .map_err(SpecError::from)?;
        if !converged {
            return Err(SpecError::new(
                "initial convergence exhausted its iteration budget",
            ));
        }
        self.kernel.emit_settled(tel);
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

    /// Consult this fault plan's serve-side hooks (flush delays)
    /// (builder).
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// Read time and wait through this clock instead of the machine's
    /// (builder).  A replay driver that times itself shares the clock.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Current network size (of the table queries are answered from).
    pub fn node_count(&self) -> usize {
        self.answers().0
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Is a reconvergence still in flight — one that overran its deadline
    /// or whose kernel failed — so that queries are answered stale?
    pub fn is_degraded(&self) -> bool {
        self.parked.is_some()
    }

    /// The digest of the converged table.  Flush before calling this when
    /// comparing replays (the digest ignores pending events).
    pub fn digest(&self) -> String {
        let (n, row) = self.answers();
        rows_digest(n, (0..n).map(row))
    }

    /// The node count and rows every reader answers from: a parked flush's
    /// pre-batch table while degraded, the stepper's rows otherwise.
    fn answers<'a>(&'a self) -> (usize, impl Fn(usize) -> &'a [A::Route] + Copy + 'a) {
        let before = self.parked.as_ref().map(|work| &work.before);
        let n = before.map_or_else(|| self.adj.node_count(), RoutingState::node_count);
        let row = move |i| before.map_or_else(|| self.kernel.row(i), |t| t.row(i));
        (n, row)
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
        admit(&change, self.shape.node_count() + self.pending_adds)?;
        self.stats.changes = self.stats.changes.saturating_add(1);
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
        let t0 = self.clock.now();
        match self.parked.take() {
            // Stepping a failed flush would fail again: answer stale.
            Some(work) if work.failed.is_some() => self.parked = Some(work),
            Some(work) => self.drive(work, Some(1), tel)?,
            None => self.flush(tel)?,
        }
        let stale = self.parked.is_some();
        let (n, row) = self.answers();
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
        let text = format!("{:?}", row(from)[to]);
        if stale {
            self.stats.stale_answers += 1;
            if let Some(w) = self.parked.as_mut() {
                w.stale_served += 1;
            }
        }
        self.stats.queries = self.stats.queries.saturating_add(1);
        let took = self.clock.now().saturating_sub(t0);
        self.stats.query_us.push(micros(took));
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
        let t0 = self.clock.now();
        if let Some(plan) = &self.faults {
            if let Some(ms) = plan.flush_delay(self.stats.batches) {
                let delay = FaultKind::DelayFlush { millis: ms }.name();
                tel.fault_injected(delay, self.stats.batches);
                self.clock.sleep(Duration::from_millis(ms));
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
        let before = self.kernel.share();
        self.kernel.grow(&self.alg, n);
        self.adj = new_adj;
        // On an infinite carrier a removal (or a weight increase) can
        // leave the cached table unreachably optimistic
        // (count-to-infinity); restart from the identity unless the
        // batch coalesced to no adjacency change.
        if self.removal_restart && worsened && batch_dirty > 0 {
            self.kernel.restart_from_identity(&self.alg);
        } else {
            self.kernel.reseed(Start::Dirty(&dirty));
        }
        let work = Flush {
            before,
            budget: iteration_budget(n, None),
            bound: self.bound.rounds(n, &self.overrides),
            naive_dirty,
            batch_dirty,
            batch_len: batch.len() as u64,
            stale_served: 0,
            started: t0,
            failed: None,
        };
        self.drive(work, None, tel)
    }

    /// Drive the resident stepper towards the fixed point of `work`'s
    /// batch.  A fresh flush (`parked: None`) runs until it converges or
    /// overruns its deadline and is parked; a parked one (`Some(k)`)
    /// advances at most `k` rounds and is parked again unless it
    /// converged.  A flush that fails (its kernel, or its budget) is parked
    /// with its problem: the table stays the last converged one, queries
    /// answer stale from it, and every later call reports the same problem
    /// without stepping again.
    ///
    /// With a deadline in force the stepper advances one round per call
    /// so the overrun check lands between rounds; the stepper is resumable
    /// (Jacobi staging — each round reads only the previous round's rows),
    /// so deterministic counters are unaffected by the chunk size.
    fn drive(
        &mut self,
        mut work: Flush<A>,
        parked: Option<usize>,
        tel: &mut dyn TelemetrySink,
    ) -> Result<(), ServeProblem> {
        if let Some(problem) = work.failed.clone() {
            self.parked = Some(work);
            return Err(problem);
        }
        let deadline = match parked {
            None => self.deadline_duration(work.before.node_count()),
            Some(_) => None,
        };
        let chunk = parked.unwrap_or(if deadline.is_some() { 1 } else { work.budget });
        loop {
            let until = self.kernel.rounds().saturating_add(chunk).min(work.budget);
            let converged = self.run_kernel(until, tel);
            let rounds = self.kernel.rounds() as u64;
            let problem = match converged {
                Ok(true) => {
                    if parked.is_some() {
                        tel.serve_restored(self.stats.batches, rounds, work.stale_served);
                    }
                    self.commit(work, tel);
                    return Ok(());
                }
                Ok(false) if rounds >= work.budget as u64 => {
                    Some(ServeProblem::budget(self.stats.batches))
                }
                Ok(false) => None,
                Err(problem) => Some(problem),
            };
            if let Some(problem) = problem {
                work.failed = Some(problem.clone());
                self.parked = Some(work);
                return Err(problem);
            }
            let overrun =
                deadline.is_some_and(|d| self.clock.now().saturating_sub(work.started) >= d);
            if overrun {
                self.stats.deadline_overruns += 1;
                tel.serve_degraded(self.stats.batches, rounds);
            }
            if overrun || parked.is_some() {
                self.parked = Some(work);
                return Ok(());
            }
        }
    }

    /// Adopt a converged flush: fold its counters into the stats (they
    /// saturate: a restored server's come from a file), audit the bound,
    /// update the per-round cost EMA, and drop the pre-batch table.
    fn commit(&mut self, work: Flush<A>, tel: &mut dyn TelemetrySink) {
        let rounds = self.kernel.rounds() as u64;
        let rows = self.kernel.row_recomputations();
        let s = &mut self.stats;
        s.batches = s.batches.saturating_add(1);
        s.naive_dirty_rows = s.naive_dirty_rows.saturating_add(work.naive_dirty);
        s.batch_dirty_rows = s.batch_dirty_rows.saturating_add(work.batch_dirty);
        s.rounds = s.rounds.saturating_add(rounds);
        s.row_recomputations = s.row_recomputations.saturating_add(rows);
        if rounds > self.stats.worst_flush_rounds {
            self.stats.worst_flush_rounds = rounds;
            self.stats.worst_flush_bound = work.bound.unwrap_or(0);
        }
        if let Some(b) = work.bound {
            if rounds <= b {
                self.stats.bound_ok = self.stats.bound_ok.saturating_add(1);
            }
        }
        self.kernel.emit_settled(tel);
        tel.serve_batch(
            self.stats.batches - 1,
            work.batch_len,
            work.naive_dirty,
            work.batch_dirty,
            rounds,
        );
        let us = micros(self.clock.now().saturating_sub(work.started));
        if rounds > 0 {
            let per = us as f64 / rounds as f64;
            self.ema_us_per_round = if self.ema_us_per_round > 0.0 {
                0.8 * self.ema_us_per_round + 0.2 * per
            } else {
                per
            };
        }
        self.stats.convergence_us.push(us);
    }

    /// Run a parked reconvergence to completion (re-entering normal
    /// operation).  A no-op when not degraded.
    pub fn complete_degraded(&mut self, tel: &mut dyn TelemetrySink) -> Result<(), ServeProblem> {
        while let Some(work) = self.parked.take() {
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

    /// Step the resident kernel until it converges or has run `until`
    /// rounds in total; whether it converged.  A round whose sweep panics
    /// (an algebra whose `extend` panics) is caught and becomes a `kernel`
    /// problem; the stepper commits nothing before a round's sweep has
    /// returned, so it stays where the last good round left it.
    fn run_kernel(
        &mut self,
        until: usize,
        tel: &mut dyn TelemetrySink,
    ) -> Result<bool, ServeProblem> {
        let exec = Pooled::shared(self.threads);
        let (alg, adj, kernel) = (&self.alg, &self.adj, &mut self.kernel);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            kernel.run(alg, adj, until, &exec, tel)
        }))
        .map_err(|payload| ServeProblem::kernel(&*payload))
    }

    /// The effective deadline for a flush from an `n`-node table, if any.
    fn deadline_duration(&self, n: usize) -> Option<Duration> {
        match self.deadline {
            DeadlineCfg::Off => None,
            DeadlineCfg::Millis(ms) => Some(Duration::from_millis(ms.max(1))),
            DeadlineCfg::Auto => {
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

#[cfg(test)]
impl<A, F> RouteServer<A, F>
where
    A: ScenarioAlgebra,
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    /// The table readers answer from (the pre-batch one while degraded),
    /// copied out.
    pub(super) fn table(&self) -> RoutingState<A> {
        let (n, row) = self.answers();
        RoutingState::from_fn(n, |i, j| row(i)[j].clone())
    }

    /// While a flush is parked: for each row of its pre-batch table,
    /// whether the stepper holds that row's memory and whether it holds
    /// its routes.
    pub(super) fn pre_batch_rows(&self) -> Option<Vec<(bool, bool)>> {
        let before = &self.parked.as_ref()?.before;
        let rows = (0..before.node_count()).map(|i| {
            let (old, now) = (before.row(i), self.kernel.row(i));
            (std::ptr::eq(old, now), old == now)
        });
        Some(rows.collect())
    }

    /// The resident kernel's invariant: while idle its rows are σ's fixed
    /// point on the adjacency, solved from scratch.
    pub(super) fn assert_resident(&self) {
        if self.is_degraded() {
            return;
        }
        let n = self.adj.node_count();
        let identity = RoutingState::identity(&self.alg, n);
        let cold = dbf_matrix::iterate_to_fixed_point(
            &self.alg,
            &self.adj,
            &identity,
            iteration_budget(n, None),
        );
        assert!(cold.converged);
        assert!(
            cold.state == self.table(),
            "the table is not σ's fixed point"
        );
    }
}

/// A span of the clock as a latency sample, microseconds.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
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

impl<A, F> RouteServer<A, F>
where
    A: ScenarioAlgebra,
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    /// Capture the server as a checkpoint snapshot at trace offset
    /// `offset`: the network (shape and weight overrides), not its
    /// routing table, which is their unique fixed point.  The *pending*
    /// batch is persisted as-is (never force-flushed) so that batching
    /// alignment — and hence every deterministic counter — is identical to
    /// an uninterrupted run.
    ///
    /// # Panics
    ///
    /// Panics on a degraded server ([`RouteServer::is_degraded`]): its
    /// shape is already post-batch, but the parked flush's batch is no
    /// longer in `pending` and its counters are not yet in the stats, so a
    /// server restored from the snapshot would count that batch in none of
    /// its counters and drift from an uninterrupted run.  Snapshot an idle
    /// server — the replay driver skips the cadence while degraded;
    /// elsewhere call [`RouteServer::complete_degraded`] first.
    pub fn snapshot(&self, offset: u64, algebra: &str, answers: &Digest) -> Snapshot {
        assert!(
            !self.is_degraded(),
            "snapshot of a degraded server: its parked batch is in neither the pending \
             batch nor the counters (complete_degraded first)"
        );
        // `Topology::edges` iterates in sorted `(i, j)` order already
        let edges: Vec<(usize, usize)> = self.shape.edges().map(|(i, j, _)| (i, j)).collect();
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
            pending: self.pending.iter().map(Keys::to_line).collect(),
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
        }
    }

    /// Rebuild a server from a checkpoint snapshot: what
    /// [`RouteServer::raw`] builds on the snapshot's shape and weight
    /// overrides, plus its pending batch and its deterministic counters.
    /// The table is the identity until [`RouteServer::initial_converge`]
    /// runs, as on a fresh server: both serve algebras are strictly
    /// increasing, so it converges to the one fixed point the snapshotted
    /// server held.  Chain the builders afterwards.
    pub fn restore(
        alg: A,
        rebuild: F,
        snap: &Snapshot,
        threads: usize,
        batch_max: usize,
    ) -> Result<Self, String> {
        let n = snap.nodes;
        check_node_count(n).map_err(|e| format!("snapshot: {}", e.message))?;
        let mut shape = Topology::new(n);
        for &(a, b) in &snap.edges {
            if a >= n || b >= n || a == b {
                return Err(format!("snapshot edge ({a}, {b}) is not a link"));
            }
            shape.set_edge(a, b, ());
        }
        // refused where a live `set_weight` is, so a forged one cannot round-trip
        let mut overrides = WeightOverrides::new();
        for &(from, to, weight) in &snap.overrides {
            admit(&ChangeSpec::SetWeight { from, to, weight }, n)
                .map_err(|p| format!("snapshot override {from} {to} {weight}: {}", p.message))?;
            overrides.insert((from, to), weight);
        }
        let mut pending = Vec::with_capacity(snap.pending.len());
        let mut adds = 0;
        for line in &snap.pending {
            let change = match parse_event_line(line) {
                Ok(ServeEvent::Change(c)) => c,
                Ok(ServeEvent::Query { .. }) => {
                    return Err(format!("snapshot pending line {line:?} is not a change"))
                }
                Err(e) => return Err(format!("snapshot pending line {line:?}: {e}")),
            };
            admit(&change, n + adds)
                .map_err(|p| format!("snapshot pending line {line:?}: {}", p.message))?;
            adds += change.added_nodes();
            pending.push(change);
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
        let mut server = Self::assemble(alg, shape, overrides, rebuild, threads, batch_max);
        if server.adj.node_count() != n {
            return Err("snapshot adjacency does not match its node count".to_string());
        }
        server.pending_adds = adds;
        server.pending = pending;
        server.stats = stats;
        Ok(server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::resident_tests::degraded_server;
    use crate::serve::tests::hop_rebuild;
    use crate::serve::ScriptedClock;
    use dbf_algebra::prelude::BoundedHopCount;
    use dbf_telemetry::NoopSink;

    /// Everything about a server that no snapshot carries — what the
    /// builders set and what the constructor defaults — in comparable
    /// form.  The destructuring is exhaustive: a new field has to be
    /// sorted into one half or the other here before this compiles.
    fn settings<A, F>(server: &RouteServer<A, F>) -> impl PartialEq + std::fmt::Debug
    where
        A: ScenarioAlgebra,
        F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
    {
        let RouteServer {
            // restored from the snapshot (or derived from what is)
            alg: _,
            rebuild: _,
            shape: _,
            overrides: _,
            adj: _,
            kernel: _,
            pending: _,
            pending_adds: _,
            stats: _,
            // not in a snapshot
            threads,
            batch_max,
            removal_restart,
            deadline,
            bound,
            faults,
            parked,
            ema_us_per_round,
            clock,
        } = server;
        (
            (*threads, *batch_max, *removal_restart),
            (*deadline, *bound, faults.as_ref().map(Arc::as_ptr)),
            (parked.is_none(), *ema_us_per_round),
            Arc::as_ptr(clock).cast::<()>(),
        )
    }

    #[test]
    #[should_panic(expected = "snapshot of a degraded server")]
    fn a_degraded_server_refuses_to_snapshot() {
        // Its shape is post-batch and its table pre-batch: a server
        // restored from that would answer, as fresh, from a table that is
        // not the fixed point of its shape.
        degraded_server(&[ChangeSpec::FailLink { a: 0, b: 1 }]).snapshot(
            1,
            "hopcount 24",
            &Digest::default(),
        );
    }

    #[test]
    fn a_restored_server_differs_from_a_fresh_one_only_in_what_the_snapshot_holds() {
        let shape = crate::run::build_shape(&crate::spec::TopologySpec::Ring { n: 8 }).unwrap();
        let alg = BoundedHopCount::new(16);
        let mut donor = RouteServer::raw(alg, shape.clone(), hop_rebuild(), 1, 64);
        donor.initial_converge(&mut NoopSink).unwrap();
        for change in [
            ChangeSpec::FailLink { a: 0, b: 1 },
            ChangeSpec::SetWeight {
                from: 2,
                to: 3,
                weight: 4,
            },
        ] {
            donor.push_change(change, &mut NoopSink).unwrap();
        }
        donor.flush(&mut NoopSink).unwrap();
        donor
            .push_change(ChangeSpec::AddNode, &mut NoopSink)
            .unwrap();
        let answers = Digest::default();
        let snap = donor.snapshot(3, "hopcount 16", &answers);

        let faults = Some(Arc::new(FaultPlan::new(1)));
        let clock: Arc<dyn Clock> = Arc::new(ScriptedClock::new(Duration::ZERO));
        let fresh = RouteServer::raw(alg, shape, hop_rebuild(), 3, 5);
        let restored = RouteServer::restore(alg, hop_rebuild(), &snap, 3, 5).expect("restores");
        let build = |s: RouteServer<_, _>| {
            s.restart_on_removal(true)
                .with_bound(BoundRule::Hopcount { limit: 16 })
                .with_deadline(DeadlineCfg::Millis(7))
                .with_faults(faults.clone())
                .with_clock(clock.clone())
        };
        let (fresh, restored) = (build(fresh), build(restored));
        assert_eq!(settings(&fresh), settings(&restored));
        // ... and the restored half is the donor's, to the byte.
        assert_eq!(restored.snapshot(3, "hopcount 16", &answers), snap);
        assert_eq!(restored.pending_adds, 1);
    }
}
