//! The fixed-point kernel: one resumable Jacobi stepper behind every σ
//! engine in this crate.
//!
//! The paper has exactly one synchronous operator, `σ(X) = A(X) ⊕ I`
//! (Section 2.2), and iterating it is one loop.  What varies between the
//! engines is only *which rows* a round recomputes, *who* recomputes them,
//! *which columns* the rows hold and *who watches* — four independent
//! arguments of [`FixedPoint`], not four families of functions:
//!
//! * **frontier** ([`Start`]) — row `i` of `σ(X)` reads only the rows `k`
//!   with `A_ik` present, so a row none of whose imports changed last
//!   round provably satisfies `σ(X)[i] = X[i]`.  A round therefore
//!   recomputes exactly the current [`Frontier`] and the next frontier is
//!   the dependants of the rows that changed ("Dynamic Asynchronous
//!   Iterations", arXiv 2012.01686).  A full sweep is the frontier of
//!   every row; reconvergence after a topology change starts from
//!   [`crate::incremental::dirty_rows_after_change`].
//! * **executor** ([`Executor`]) — a round's work list is recomputed
//!   [`Inline`] or sharded over a worker pool
//!   ([`crate::parallel::Pooled`]).  Every row is staged by exactly one
//!   worker from the previous round's values and applied afterwards in
//!   ascending row order by the calling thread, so the trajectory is a
//!   pure function of the problem — thread-count-invariant by
//!   construction.  The cold solve ([`crate::sync::iterate_traced`]) is
//!   pooled on every core, the scenario engines and the route server at
//!   their thread count; reconvergence ([`crate::incremental`]) and each
//!   block of [`crate::blocked`] run inline.
//! * **column window** — σ is column-separable, so the row store may hold
//!   all `n` destination columns (a [`RoutingState`]) or an `n × w` slab
//!   of columns `j0..j0+w` ([`FixedPoint::identity_slab`], the memory
//!   layout behind [`crate::blocked`]).
//! * **sink** — `round_start`/`round_end` per round, `band_sweep` per
//!   parallel band and `node_settled` per node at [`FixedPoint::finish`];
//!   the telemetry-only work sits behind `tel.enabled()`, so the
//!   [`dbf_telemetry::NoopSink`] monomorphisation is the plain loop.
//!
//! [`FixedPoint::solve`] is the one budget rule of every σ entry point: a
//! run that reaches its budget unconverged is decided by one uncommitted
//! round, so a fixed point landing exactly on the budget reads as
//! converged.  Only the route server steps in deadline chunks instead.
//!
//! Each row is recomputed by the fused row kernel of `sigma.rs`, the one
//! every engine path runs, δ's included.  It folds routes that own heap
//! data in place, keeping the current route unless a candidate beats it,
//! and every other route through `choice`; ⊕ is selective, so both give
//! the same row.
//!
//! Rows are *staged*: a round writes the recomputed work list into a
//! buffer reused across rounds and only then applies the rows that
//! changed, so every recomputation reads the previous round's values
//! (Jacobi order) and a round that panics in a worker leaves the stepper
//! exactly as it was — the route server parks the flush there.  When a
//! work list covers all `n` rows the staging buffer *is* `σ(state)`, so
//! it replaces the row store instead of being copied into it; a cold
//! start therefore costs two `n · w` buffers.  A whole-row store is
//! copy-on-write (`table.rs`): the stepper shares every row with the
//! state it was started from until a round changes that row (a round over
//! half the rows copies the table first), so a reconvergence from a
//! borrowed fixed point costs the rows it touches plus its peak frontier
//! of staging.  A whole-row stepper that converges drops a staging buffer
//! of 32 MiB or more — a whole table after a whole-row round (the base it
//! swapped out), or the staging of a frontier that covered almost every
//! row — so a large resident stepper holds one table between iterations;
//! a slab keeps its buffer for the next block.
//!
//! The stepper caches nothing derived from the adjacency: a round reads
//! the next frontier from [`AdjacencyMatrix::dependants`] of the adjacency
//! it is passed.  So a stepper can stay *resident* across adjacency
//! changes, as the route server keeps one for its lifetime:
//! [`FixedPoint::grow`] when nodes join, then [`FixedPoint::reseed`] the
//! frontier over the rows it already holds (or
//! [`FixedPoint::restart_from_identity`]) and step on the new adjacency;
//! [`FixedPoint::share`] hands out a copy of its rows that costs a pointer.
//! Nothing is rebuilt per change but what changed.

use crate::adjacency::AdjacencyMatrix;
use crate::frontier::Frontier;
use crate::lines::Lines;
use crate::sigma::sigma_row_window_changed;
use crate::state::RoutingState;
use crate::table::{Rows, Table};
use dbf_algebra::RoutingAlgebra;
use dbf_telemetry::TelemetrySink;
use std::mem::size_of;
use std::ops::Range;
use std::time::Instant;

/// The size from which a converged whole-row stepper releases its
/// staging buffer.  A smaller buffer is not worth releasing: glibc keeps
/// a freed buffer below 32 MiB (its largest mmap threshold) in the heap,
/// so the resident size would not fall, and a resident stepper's next
/// round over every row would allocate and fill it again — on the 64-node
/// serve probes that cost +10 % `query_p99_us`.
const RELEASE_STAGING_BYTES: usize = 32 << 20;

/// The rows the first round recomputes — and with them what certifies the
/// fixed point.  Either way [`crate::sync::iterate_with`] reports the run
/// as one [`crate::sync::SyncOutcome`].
#[derive(Clone, Copy, Debug)]
pub enum Start<'a> {
    /// Every row: the start state is arbitrary.  The iteration is
    /// converged once a round changes nothing — even when that verifying
    /// round runs over an empty frontier — and `round_start` reports all
    /// `n` rows as scheduled.
    AllRows,
    /// The rows marked `true`: every other row is promised to satisfy
    /// `σ(X)[i] = X[i]` already.  The iteration is converged once the
    /// frontier is empty, and `round_start` reports the frontier as
    /// scheduled.
    Dirty(&'a [bool]),
}

/// A dirty mask, or every row when there is none.
impl<'a> From<Option<&'a [bool]>> for Start<'a> {
    fn from(mask: Option<&'a [bool]>) -> Self {
        mask.map_or(Start::AllRows, Start::Dirty)
    }
}

/// One round's read-only inputs, as an [`Executor`] sees them: recompute
/// the rows of `worklist` (ascending, deduplicated) of the `n × w` row
/// store `rows`.
pub struct Sweep<'a, A: RoutingAlgebra> {
    pub(crate) alg: &'a A,
    pub(crate) adj: &'a AdjacencyMatrix<A>,
    pub(crate) rows: Rows<'a, A::Route>,
    pub(crate) w: usize,
    pub(crate) j0: usize,
    pub(crate) worklist: &'a [usize],
    pub(crate) round: u64,
}

impl<A: RoutingAlgebra> Sweep<'_, A> {
    /// Recompute the work-list positions `range`: `stage` receives one
    /// `w`-wide row per position and `flags` whether it differs from the
    /// current one.
    pub(crate) fn recompute(
        &self,
        range: Range<usize>,
        stage: &mut [A::Route],
        flags: &mut [bool],
    ) {
        let slots = stage.chunks_mut(self.w.max(1));
        for ((&i, slot), flag) in self.worklist[range].iter().zip(slots).zip(flags) {
            *flag = sigma_row_window_changed(self.alg, self.adj, self.rows, self.j0, i, slot);
        }
    }
}

/// How a round's work list is recomputed: the executor fills
/// `staging[pos·w .. (pos+1)·w]` with the new row `worklist[pos]` and
/// `changed[pos]` with whether it differs from the current one, and may
/// report its band geometry to the timing side of `tel`.  The two
/// executors are [`Inline`] and [`crate::parallel::Pooled`]; a [`Sweep`]
/// is opaque outside this crate.
pub trait Executor<A: RoutingAlgebra> {
    /// Recompute every row of `job` into `staging` / `changed`.
    fn sweep<S: TelemetrySink + ?Sized>(
        &self,
        job: &Sweep<'_, A>,
        staging: &mut [A::Route],
        changed: &mut [bool],
        tel: &mut S,
    );
}

/// The calling thread recomputes the whole work list itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct Inline;

impl<A: RoutingAlgebra> Executor<A> for Inline {
    fn sweep<S: TelemetrySink + ?Sized>(
        &self,
        job: &Sweep<'_, A>,
        staging: &mut [A::Route],
        changed: &mut [bool],
        _tel: &mut S,
    ) {
        job.recompute(0..job.worklist.len(), staging, changed);
    }
}

/// A resumable Jacobi iteration of σ: the row store, the frontier pair,
/// the staging buffers and the counters of one run.  [`FixedPoint::step`]
/// advances one round, [`FixedPoint::run`] loops it up to a round budget
/// and [`FixedPoint::solve`] adds the budget-boundary check; a caller that
/// stops calling — a deadline, a budget — can resume later and reproduces
/// the uninterrupted trajectory, event for event.
///
/// The algebra, adjacency, executor and sink are arguments of every call
/// rather than fields, so the stepper can be parked next to the adjacency
/// it iterates.  Switching to another adjacency of the stepper's node
/// count is a change of problem: [`FixedPoint::reseed`] it with (at
/// least) the rows whose import lists differ before stepping again.
pub struct FixedPoint<A: RoutingAlgebra> {
    n: usize,
    w: usize,
    j0: usize,
    /// The `n × w` row store: columns `j0..j0+w` of the current state.
    /// Whole rows may share rows with the state the stepper started from
    /// (`table.rs`); a slab is its own.
    rows: Table<A::Route>,
    /// One staged row per work-list position; grows to the peak frontier.
    staging: Lines<A::Route>,
    changed: Vec<bool>,
    frontier: Frontier,
    next: Frontier,
    full_sweep: bool,
    /// The last committed round changed no row.
    quiet: bool,
    rounds: usize,
    row_recomputations: u64,
    /// Per node, the last round its row changed (sized once a live sink
    /// is seen; telemetry only).
    settled: Vec<u64>,
}

impl<A: RoutingAlgebra> FixedPoint<A> {
    /// Iterate the whole-row state `x0` (taken over, not copied) on `adj`.
    /// Rows `x0` shares with another state stay shared until a round
    /// changes them.
    ///
    /// # Panics
    ///
    /// Panics if `adj`, `x0` and a [`Start::Dirty`] mask do not agree on
    /// the node count.
    pub fn new(adj: &AdjacencyMatrix<A>, x0: RoutingState<A>, start: Start<'_>) -> Self {
        let n = adj.node_count();
        assert_eq!(
            n,
            x0.node_count(),
            "adjacency and state dimensions must match"
        );
        let mut kernel = Self::over(adj, x0.into_table(), n);
        kernel.reseed(start);
        kernel
    }

    /// Iterate destination columns `j0..j0+w` from the identity: ∞̄
    /// everywhere, 0̄ where a row owns one of the window's destinations.
    ///
    /// # Panics
    ///
    /// Panics if the window does not lie inside `0..n`.
    pub fn identity_slab(alg: &A, adj: &AdjacencyMatrix<A>, j0: usize, w: usize) -> Self {
        let mut kernel = Self::over(adj, Table::default(), 0);
        kernel.reset_slab(alg, j0, w);
        kernel
    }

    /// Start over on another identity slab, reusing every buffer (they
    /// only reallocate when the window widens).
    pub fn reset_slab(&mut self, alg: &A, j0: usize, w: usize) {
        self.fill_identity(alg, j0, w);
        self.reseed(Start::AllRows);
    }

    /// Start over from the identity in place: every row is reset to its
    /// identity row and recomputed in the first round, and — as under
    /// [`Start::Dirty`] — the iteration is converged once the frontier
    /// empties.
    ///
    /// # Panics
    ///
    /// Panics on a slab.
    pub fn restart_from_identity(&mut self, alg: &A) {
        self.assert_whole_rows();
        self.fill_identity(alg, 0, self.n);
        self.seed(false, |_| true);
    }

    fn fill_identity(&mut self, alg: &A, j0: usize, w: usize) {
        assert!(j0 + w <= self.n, "column window out of range");
        let rows = self.rows.refill(self.n, w, alg.invalid());
        for i in j0..j0 + w {
            rows[i * w + (i - j0)] = alg.trivial();
        }
        (self.j0, self.w) = (j0, w);
    }

    fn over(adj: &AdjacencyMatrix<A>, rows: Table<A::Route>, w: usize) -> Self {
        let n = adj.node_count();
        FixedPoint {
            n,
            w,
            j0: 0,
            rows,
            staging: Lines::default(),
            changed: Vec::new(),
            frontier: Frontier::new(n),
            next: Frontier::new(n),
            full_sweep: false,
            quiet: false,
            rounds: 0,
            row_recomputations: 0,
            settled: Vec::new(),
        }
    }

    /// Begin a new iteration over the rows the stepper holds: the frontier
    /// becomes `start`, and the counters and the settle record are zeroed.
    /// A resident stepper whose adjacency changed
    /// is reseeded with the rows the change can perturb
    /// ([`crate::incremental::dirty_rows_after_change`]).
    ///
    /// # Panics
    ///
    /// Panics if a [`Start::Dirty`] mask is not one flag per node.
    pub fn reseed(&mut self, start: Start<'_>) {
        match start {
            Start::AllRows => self.seed(true, |_| true),
            Start::Dirty(mask) => {
                assert_eq!(self.n, mask.len(), "dirty mask length must match");
                self.seed(false, |i| mask[i]);
            }
        }
    }

    fn seed(&mut self, full_sweep: bool, dirty: impl Fn(usize) -> bool) {
        self.frontier.clear();
        for i in (0..self.n).filter(|&i| dirty(i)) {
            self.frontier.insert(i);
        }
        self.full_sweep = full_sweep;
        self.quiet = false;
        self.rounds = 0;
        self.row_recomputations = 0;
        self.settled.clear();
    }

    /// Grow a whole-row stepper to `n` nodes: every row gains the new
    /// columns and the new rows join, all with the identity pattern (∞̄,
    /// 0̄ on the diagonal — what [`RoutingState::grown`] writes).  Step it
    /// on an adjacency of `n` nodes from here on.
    ///
    /// # Panics
    ///
    /// Panics on a slab or if `n` is below the current node count.
    pub fn grow(&mut self, alg: &A, n: usize) {
        self.assert_whole_rows();
        let old = self.n;
        assert!(n >= old, "a stepper cannot shrink");
        if n == old {
            return;
        }
        let rows = std::mem::take(&mut self.rows);
        self.rows = RoutingState::from_table(old, rows)
            .grown(alg, n)
            .into_table();
        (self.n, self.w) = (n, n);
        self.frontier.grow(n);
        self.next.grow(n);
    }

    /// Rounds committed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Committed rounds that changed at least one row — the number of
    /// applications of σ that moved the state.  Only the last round of an
    /// iteration can be quiet: a quiet round empties the frontier.
    pub fn iterations(&self) -> usize {
        self.rounds - usize::from(self.quiet)
    }

    /// Rows recomputed so far, verifying sweeps included.  A full
    /// synchronous round costs `n` of these.
    pub fn row_recomputations(&self) -> u64 {
        self.row_recomputations
    }

    /// Has the iteration reached its fixed point (see [`Start`] for what
    /// certifies that)?
    pub fn is_converged(&self) -> bool {
        if self.full_sweep {
            self.quiet
        } else {
            self.frontier.is_empty()
        }
    }

    /// The width `w` of the column window.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Row `i` of the current `n × w` row store.
    pub fn row(&self, i: usize) -> &[A::Route] {
        assert!(i < self.n, "row index out of range");
        self.rows.row(i)
    }

    /// The current `n × w` row store, row by row.
    pub fn rows(&self) -> impl Iterator<Item = &[A::Route]> + '_ {
        (0..self.n).map(|i| self.rows.row(i))
    }

    /// Step until the fixed point is reached or `budget` rounds have been
    /// committed in total; returns [`FixedPoint::is_converged`].  Calling
    /// it again with a larger budget resumes where it stopped.
    pub fn run<E, S>(
        &mut self,
        alg: &A,
        adj: &AdjacencyMatrix<A>,
        budget: usize,
        exec: &E,
        tel: &mut S,
    ) -> bool
    where
        E: Executor<A>,
        S: TelemetrySink + ?Sized,
    {
        while !self.is_converged() && self.rounds < budget {
            self.step(alg, adj, exec, tel);
        }
        self.is_converged()
    }

    /// [`FixedPoint::run`] to `budget`; a run that stops there unconverged
    /// is decided by one uncommitted [`FixedPoint::verify`] round over the
    /// frontier, for either [`Start`].  Returns whether the state is stable.
    pub fn solve<E, S>(
        &mut self,
        alg: &A,
        adj: &AdjacencyMatrix<A>,
        budget: usize,
        exec: &E,
        tel: &mut S,
    ) -> bool
    where
        E: Executor<A>,
        S: TelemetrySink + ?Sized,
    {
        self.run(alg, adj, budget, exec, tel) || self.verify(alg, adj, exec, tel)
    }

    /// One Jacobi round: recompute the frontier from the current rows,
    /// apply the rows that changed and make their dependants the next
    /// frontier.  Returns the number of rows that changed.
    pub fn step<E, S>(&mut self, alg: &A, adj: &AdjacencyMatrix<A>, exec: &E, tel: &mut S) -> u64
    where
        E: Executor<A>,
        S: TelemetrySink + ?Sized,
    {
        self.round(alg, adj, exec, tel, true)
    }

    /// One *uncommitted* round: sweep the frontier and emit the round's
    /// events exactly like [`FixedPoint::step`], but leave the rows, the
    /// frontier and the round count alone (its rows still count in
    /// [`FixedPoint::row_recomputations`]).  Returns whether nothing would
    /// have changed — what [`FixedPoint::solve`] uses at the budget
    /// boundary.
    pub fn verify<E, S>(&mut self, alg: &A, adj: &AdjacencyMatrix<A>, exec: &E, tel: &mut S) -> bool
    where
        E: Executor<A>,
        S: TelemetrySink + ?Sized,
    {
        self.round(alg, adj, exec, tel, false) == 0
    }

    fn round<E, S>(
        &mut self,
        alg: &A,
        adj: &AdjacencyMatrix<A>,
        exec: &E,
        tel: &mut S,
        commit: bool,
    ) -> u64
    where
        E: Executor<A>,
        S: TelemetrySink + ?Sized,
    {
        debug_assert_eq!(
            adj.node_count(),
            self.n,
            "not the adjacency this was built on"
        );
        let (n, w) = (self.n, self.w);
        let on = tel.enabled();
        let t0 = on.then(Instant::now);
        if on {
            self.settled.resize(n, 0);
        }
        let round = self.rounds as u64 + 1;
        // Sorted, so the rows a round recomputes — and the order changed
        // rows are applied in — are a pure function of the dirty set.
        let worklist = self.frontier.sorted();
        let len = worklist.len();
        let scheduled = if self.full_sweep { n } else { len };
        tel.round_start(round, scheduled as u64, len as u64);
        // A round over half the rows reads most of them: one copy of a
        // shared base costs less than reading them around an overlay.
        if commit && 2 * len >= n {
            self.rows.unshare();
        }
        let need = len * w;
        if self.staging.len() < need {
            // Staged rows are dead between rounds: the old buffer goes
            // before a larger one is filled, so growth never holds both.
            self.staging.clear();
            self.staging.resize(need, alg.invalid());
        }
        self.changed.clear();
        self.changed.resize(len, false);
        let job = Sweep {
            alg,
            adj,
            rows: self.rows.view(),
            w,
            j0: self.j0,
            worklist,
            round,
        };
        exec.sweep(&job, &mut self.staging[..need], &mut self.changed, tel);
        // Nothing above this line moved the iteration: a sweep that
        // unwinds out of a worker can simply be stepped again.
        let whole = commit && len == n;
        if whole {
            // Every row was staged, so the staging buffer is σ(rows).
            self.staging.truncate(need);
            self.rows.replace(&mut self.staging);
        }
        if commit && !whole {
            let staged = self.staging.chunks(w.max(1));
            let moved = worklist.iter().zip(staged).zip(&self.changed);
            self.rows
                .set_rows(moved.filter(|&(_, &c)| c).map(|((&i, row), _)| (i, row)));
        }
        let mut changed_rows = 0u64;
        for (pos, &i) in worklist.iter().enumerate() {
            if !self.changed[pos] {
                continue;
            }
            changed_rows += 1;
            if on {
                self.settled[i] = round;
            }
            if commit {
                for &d in adj.dependants(i) {
                    self.next.insert(d);
                }
            }
        }
        self.row_recomputations += len as u64;
        if commit {
            self.rounds += 1;
            self.quiet = changed_rows == 0;
            std::mem::swap(&mut self.frontier, &mut self.next);
            self.next.clear();
            // A converged whole-row stepper may stay resident for good (the
            // route server's does): it keeps no large staging buffer, be it
            // a whole table or a wide frontier's.  A slab keeps its buffer
            // for the next block.
            let whole_rows = self.j0 == 0 && w == n;
            if self.is_converged()
                && whole_rows
                && self.staging.len() * size_of::<A::Route>() >= RELEASE_STAGING_BYTES
            {
                self.staging = Lines::default();
            }
        }
        let wall_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        tel.round_end(round, len as u64, changed_rows, wall_ns);
        changed_rows
    }

    /// Stop iterating: emit `node_settled` for every node, in node order
    /// (the round its row last changed, 0 if it never moved), and hand the
    /// whole-row state back.
    ///
    /// # Panics
    ///
    /// Panics on a slab (read a slab through [`FixedPoint::rows`]).
    pub fn finish<S: TelemetrySink + ?Sized>(mut self, tel: &mut S) -> RoutingState<A> {
        self.assert_whole_rows();
        self.emit_settled(tel);
        RoutingState::from_table(self.n, self.rows)
    }

    /// A copy of the whole-row state that shares every row with the stepper
    /// (its overlay is folded in first, so the copy costs a pointer); later
    /// rounds write to the stepper alone.
    ///
    /// # Panics
    ///
    /// Panics on a slab.
    pub fn share(&mut self) -> RoutingState<A> {
        self.assert_whole_rows();
        self.rows.fold();
        RoutingState::from_table(self.n, self.rows.clone())
    }

    /// Emit [`FixedPoint::finish`]'s `node_settled` events without stopping:
    /// how a resident stepper ends an iteration.
    pub fn emit_settled<S: TelemetrySink + ?Sized>(&mut self, tel: &mut S) {
        if tel.enabled() {
            self.settled.resize(self.n, 0);
            for (node, &round) in self.settled.iter().enumerate() {
                tel.node_settled(node, round);
            }
        }
    }

    fn assert_whole_rows(&self) {
        assert!(
            self.j0 == 0 && self.w == self.n,
            "only a whole-row kernel holds a RoutingState"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::dirty_rows_after_change;
    use crate::sync::iterate_to_fixed_point;
    use dbf_algebra::prelude::*;
    use dbf_telemetry::NoopSink;
    use dbf_topology::generators;

    #[test]
    fn a_shared_copy_of_a_resident_stepper_costs_a_pointer_cycle_after_cycle() {
        // Flush-shaped cycles: take a copy, reconverge after a link cut
        // (the rounds write rows), drop the copy, take the next one.
        let alg = BoundedHopCount::new(32);
        let shape = generators::as_graph(64, 2, 1);
        let full = AdjacencyMatrix::from_topology(&shape.with_weights(|_, _| 1));
        let n = full.node_count();
        let fixed = iterate_to_fixed_point(&alg, &full, &RoutingState::identity(&alg, n), 200);
        let mut stepper = FixedPoint::new(&full, fixed.state, Start::Dirty(&vec![false; n]));
        let mut adj = full.clone();
        let mut overlaid = 0;
        for (a, b, _) in shape.edges().filter(|&(a, b, _)| a < b).step_by(5) {
            let copy = stepper.share();
            assert_eq!(copy.table().overlay_rows(), 0, "cut {a}-{b}");
            assert!((0..n).all(|i| copy.table().shares_row(&stepper.rows, i)));
            let pre: Vec<Vec<_>> = stepper.rows().map(<[_]>::to_vec).collect();
            let mut next = full.clone();
            next.set(a, b, None);
            next.set(b, a, None);
            stepper.reseed(Start::Dirty(&dirty_rows_after_change(&adj, &next)));
            assert!(stepper.run(&alg, &next, 200, &Inline, &mut NoopSink));
            assert!(
                (0..n).all(|i| copy.row(i) == pre[i]),
                "cut {a}-{b}: the copy holds the rows from before the cycle"
            );
            drop(copy);
            overlaid += usize::from(stepper.rows.overlay_rows() > 0);
            adj = next;
        }
        assert!(overlaid > 2, "{overlaid} cycles left rows in the overlay");
    }

    #[test]
    fn a_converged_whole_row_stepper_holds_no_large_whole_table_of_staging() {
        // A 2049-node star on hop counts: the staging of a round over
        // n − 1 rows is the release size, a round over n − 2 rows is just
        // under it, and the star settles in a few whole-row rounds.
        let alg = BoundedHopCount::new(4);
        let shape = generators::star(2049);
        let full = AdjacencyMatrix::from_topology(&shape.with_weights(|_, _| 1));
        let n = full.node_count();
        let bytes = |rows: usize| rows * n * size_of::<NatInf>();
        assert!(bytes(n - 2) < RELEASE_STAGING_BYTES && RELEASE_STAGING_BYTES <= bytes(n - 1));
        let cold = |adj: &AdjacencyMatrix<BoundedHopCount>| {
            iterate_to_fixed_point(&alg, adj, &RoutingState::identity(&alg, n), 20).state
        };
        let mut stepper = FixedPoint::new(&full, RoutingState::identity(&alg, n), Start::AllRows);
        assert!(stepper.run(&alg, &full, 20, &Inline, &mut NoopSink));
        assert!(stepper.rounds() > 2, "the solve ran whole-row rounds");
        assert!(stepper.staging.len() < n * n, "converged from the identity");

        // Reseeded after a link cut: the reconvergence lands on the cold
        // solve, and lets its staging go again.
        let mut cut = full.clone();
        cut.set(0, 1, None);
        cut.set(1, 0, None);
        stepper.reseed(Start::Dirty(&dirty_rows_after_change(&full, &cut)));
        assert!(stepper.run(&alg, &cut, 20, &Inline, &mut NoopSink));
        assert!(stepper.share() == cold(&cut), "after the cut");
        assert!(stepper.staging.len() < n * n, "after the cut");

        // The hub stops importing from leaf 1, which still imports from
        // the hub: the hub's row changes, then every leaf's but one is
        // recomputed — a round over n − 1 rows, nearly a whole table of
        // staging, which goes too.
        let mut one_way = full.clone();
        one_way.set(0, 1, None);
        let dirty = dirty_rows_after_change(&full, &one_way);
        let mut stepper = FixedPoint::new(&full, cold(&full), Start::Dirty(&dirty));
        assert!(stepper.run(&alg, &one_way, 20, &Inline, &mut NoopSink));
        assert!(stepper.share() == cold(&one_way), "one way");
        assert!(stepper.staging.is_empty(), "a round over n − 1 rows");

        // A small table's staging stays for the next round over every row.
        let small = AdjacencyMatrix::from_topology(&generators::star(64).with_weights(|_, _| 1));
        let mut stepper = FixedPoint::new(&small, RoutingState::identity(&alg, 64), Start::AllRows);
        assert!(stepper.run(&alg, &small, 20, &Inline, &mut NoopSink));
        assert_eq!(stepper.staging.len(), 64 * 64);
    }
}
