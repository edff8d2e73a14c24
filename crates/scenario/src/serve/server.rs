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
//! One [`FixedPoint`] stepper lives as long as the server and holds the
//! table σ iterates; `state` is the answer table beside it.  While idle the
//! two are equal.  A flush rebuilds the adjacency, diffs it against the
//! last one, rewires the stepper's dependants from the dirty rows, reseeds
//! its frontier and iterates; the commit copies the rows that moved into
//! `state`.  While degraded, `state` is the pre-batch table the stale
//! answers come from.

use super::clock::{Clock, SystemClock};
use super::trace::{admit, check_node_count, parse_event_line, ServeEvent};
use super::types::{
    BoundRule, DeadlineCfg, ServeAnswer, ServeProblem, ServeStats, WeightOverrides,
};
use crate::chaos::{FaultKind, FaultPlan};
use crate::checkpoint::{PersistRoute, Snapshot};
use crate::engine::{state_digest, ScenarioAlgebra};
use crate::fields::Keys;
use crate::report::Digest;
use crate::spec::{ChangeSpec, SpecError};
use dbf_matrix::{
    dirty_rows_after_change, iteration_budget, sigma_row_into_changed, AdjacencyMatrix, FixedPoint,
    Pooled, RoutingState, Start,
};
use dbf_telemetry::TelemetrySink;
use dbf_topology::Topology;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// The accounting of a flush in progress — parked in `RouteServer::parked`
/// when the server went over its deadline (or its kernel failed), kept the
/// old stable table for queries, and resumes the work incrementally.  The
/// work itself is the server's resident stepper, so resuming costs
/// nothing per round and the chunked trajectory is the uninterrupted
/// trajectory.
struct Flush {
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
    /// The resident stepper: its rows are `state` whenever the server is
    /// idle, and a flush's iteration in between.
    kernel: FixedPoint<A>,
    /// The answer table: σ's fixed point on `adj` while idle, the
    /// pre-batch table while degraded.
    state: RoutingState<A>,
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
    parked: Option<Flush>,
    ema_us_per_round: f64,
    clock: Arc<dyn Clock>,
}

impl<A, F> RouteServer<A, F>
where
    A: ScenarioAlgebra,
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    /// Build a server without converging it (state = identity).  Chain
    /// the builders, then call [`RouteServer::initial_converge`].
    pub fn raw(alg: A, shape: Topology<()>, rebuild: F, threads: usize, batch_max: usize) -> Self {
        let overrides = WeightOverrides::new();
        Self::assemble(alg, shape, overrides, rebuild, None, threads, batch_max)
    }

    /// The one place the field list is written: a server on `shape` and
    /// `overrides` holding `state` (the identity when `None`), with
    /// nothing pending, zeroed counters and every builder at its default.
    fn assemble(
        alg: A,
        shape: Topology<()>,
        overrides: WeightOverrides,
        rebuild: F,
        state: Option<RoutingState<A>>,
        threads: usize,
        batch_max: usize,
    ) -> Self {
        let adj = rebuild(&shape, &overrides);
        let n = adj.node_count();
        let state = state.unwrap_or_else(|| RoutingState::identity(&alg, n));
        let kernel = FixedPoint::new(&adj, state.clone(), Start::Dirty(&vec![false; n]));
        Self {
            alg,
            shape,
            overrides,
            rebuild,
            adj,
            kernel,
            state,
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
        self.kernel.reseed(Start::Dirty(&vec![true; n]));
        let converged = self
            .run_kernel(iteration_budget(n, None), tel)
            .map_err(SpecError::from)?;
        if !converged {
            return Err(SpecError::new(
                "initial convergence exhausted its iteration budget",
            ));
        }
        self.kernel.finish_into(&mut self.state, tel);
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
        self.state.node_count()
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
        let n = self.state.node_count();
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
        self.kernel.grow(&self.alg, n);
        self.kernel.rewire(&self.adj, &new_adj, &dirty);
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
        mut work: Flush,
        parked: Option<usize>,
        tel: &mut dyn TelemetrySink,
    ) -> Result<(), ServeProblem> {
        if let Some(problem) = work.failed.clone() {
            self.parked = Some(work);
            return Err(problem);
        }
        let deadline = match parked {
            None => self.deadline_duration(),
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
    /// update the per-round cost EMA, and copy the changed rows.
    fn commit(&mut self, work: Flush, tel: &mut dyn TelemetrySink) {
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
        let n = self.adj.node_count();
        if self.state.node_count() < n {
            self.state = self.state.grown(&self.alg, n);
        }
        self.kernel.finish_into(&mut self.state, tel);
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

    /// The effective deadline for the next flush, if any.
    fn deadline_duration(&self) -> Option<Duration> {
        match self.deadline {
            DeadlineCfg::Off => None,
            DeadlineCfg::Millis(ms) => Some(Duration::from_millis(ms.max(1))),
            DeadlineCfg::Auto => {
                let n = self.state.node_count();
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
    /// The answer table (the pre-batch one while degraded).
    pub(super) fn table(&self) -> &RoutingState<A> {
        &self.state
    }

    /// The resident kernel's invariants: its dependants are the
    /// adjacency's (as multisets) at all times, and while idle its rows
    /// are the table and the table is σ's fixed point on the adjacency,
    /// solved from scratch.
    pub(super) fn assert_resident(&self) {
        let mut deps = self.kernel.dependants().to_vec();
        deps.iter_mut().for_each(|d| d.sort_unstable());
        assert_eq!(deps, self.adj.dependants(), "rewired dependants");
        if self.is_degraded() {
            return;
        }
        let n = self.adj.node_count();
        let rows = self.kernel.rows();
        for i in 0..n {
            assert!(
                rows[i * n..(i + 1) * n] == *self.state.row(i),
                "kernel row {i}"
            );
        }
        let identity = RoutingState::identity(&self.alg, n);
        let cold = dbf_matrix::iterate_to_fixed_point(
            &self.alg,
            &self.adj,
            &identity,
            iteration_budget(n, None),
        );
        assert!(cold.converged);
        assert!(cold.state == self.state, "the table is not σ's fixed point");
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
    A::Route: PersistRoute,
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    /// Capture the server as a checkpoint snapshot at trace offset
    /// `offset`.  The *pending* batch is persisted as-is (never
    /// force-flushed) so that batching alignment — and hence every
    /// deterministic counter — is identical to an uninterrupted run.
    ///
    /// # Panics
    ///
    /// Panics on a degraded server ([`RouteServer::is_degraded`]): its
    /// shape is already post-batch while its table is still the pre-batch
    /// one, and the parked batch is in neither `pending` nor the table, so
    /// a server restored from the pair would answer, as fresh, from a table
    /// that is not the fixed point of its shape.  Snapshot an idle server —
    /// the replay driver skips the cadence while degraded; elsewhere call
    /// [`RouteServer::complete_degraded`] first.
    pub fn snapshot(&self, offset: u64, algebra: &str, answers: &Digest) -> Snapshot {
        assert!(
            !self.is_degraded(),
            "snapshot of a degraded server: its table is not the fixed point of its shape \
             (complete_degraded first)"
        );
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
            rows,
        }
    }

    /// Rebuild a server from a checkpoint snapshot: shape, weight
    /// overrides, the converged table, the pending batch, and the
    /// deterministic counters.  Nothing reconverges, but the table is
    /// checked: one σ sweep over the rebuilt adjacency must leave it as it
    /// is.  Both serve algebras are strictly increasing, so a σ-stable
    /// table is the unique fixed point, and a stale or forged one is
    /// refused, naming the first row σ would change.  Chain the builders
    /// afterwards.
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
        let overrides: WeightOverrides = snap
            .overrides
            .iter()
            .map(|&(a, b, w)| ((a, b), w))
            .collect();
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
            if table.len() != rows * n {
                return Err(format!("snapshot row {} has the wrong width", rows - 1));
            }
        }
        if rows != n {
            return Err("snapshot table does not match its node count".to_string());
        }
        let state = RoutingState::from_fn(n, |i, j| table[i * n + j].clone());
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
        let mut server = Self::assemble(
            alg,
            shape,
            overrides,
            rebuild,
            Some(state),
            threads,
            batch_max,
        );
        if server.adj.node_count() != n {
            return Err("snapshot adjacency does not match its node count".to_string());
        }
        let mut row = vec![server.alg.invalid(); n];
        let (alg, adj, table) = (&server.alg, &server.adj, &server.state);
        if let Some(i) = (0..n).find(|&i| sigma_row_into_changed(alg, adj, table, i, &mut row)) {
            return Err(format!("snapshot row {i} is not its shape's fixed point"));
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
            state: _,
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

    /// A ring-12 hop-count server whose first flush is delayed 50 ms on a
    /// scripted clock against a 5 ms deadline, with one link failure
    /// pushed and flushed: it is degraded, the failure parked.
    fn degraded_server() -> RouteServer<
        BoundedHopCount,
        impl Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<BoundedHopCount>,
    > {
        let shape = crate::run::build_shape(&crate::spec::TopologySpec::Ring { n: 12 }).unwrap();
        let plan = FaultPlan::new(3).with(FaultKind::DelayFlush { millis: 50 }, 0);
        let mut server = RouteServer::raw(BoundedHopCount::new(24), shape, hop_rebuild(), 1, 64)
            .with_deadline(DeadlineCfg::Millis(5))
            .with_faults(Some(Arc::new(plan)))
            .with_clock(Arc::new(ScriptedClock::new(Duration::from_micros(10))));
        server.initial_converge(&mut NoopSink).unwrap();
        server
            .push_change(ChangeSpec::FailLink { a: 0, b: 1 }, &mut NoopSink)
            .unwrap();
        server.flush(&mut NoopSink).unwrap();
        assert!(server.is_degraded());
        server
    }

    #[test]
    #[should_panic(expected = "snapshot of a degraded server")]
    fn a_degraded_server_refuses_to_snapshot() {
        // Its shape is post-batch and its table pre-batch: a server
        // restored from that would answer, as fresh, from a table that is
        // not the fixed point of its shape.
        degraded_server().snapshot(1, "hopcount 24", &Digest::default());
    }

    #[test]
    fn a_restored_server_differs_from_a_fresh_one_only_in_what_the_snapshot_holds() {
        let shape = crate::run::build_shape(&crate::spec::TopologySpec::Ring { n: 8 }).unwrap();
        let alg = BoundedHopCount::new(16);
        let mut donor =
            RouteServer::new(alg, shape.clone(), hop_rebuild(), 1, 64, &mut NoopSink).unwrap();
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
