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
//! Rows are *staged*: a round writes the recomputed work list into a
//! buffer reused across rounds and only then applies the rows that
//! changed, so every recomputation reads the previous round's values
//! (Jacobi order) and a round that panics in a worker leaves the stepper
//! exactly as it was — the route server parks the flush there.  When a
//! work list covers all `n` rows the staging buffer *is* `σ(state)`, so
//! the two buffers are swapped instead of copied; a cold start therefore
//! costs two `n · w` buffers, a reconvergence one plus its peak frontier.
//!
//! A stepper can also stay *resident* across adjacency changes, as the
//! route server keeps one for its lifetime: [`FixedPoint::grow`] when nodes
//! join, [`FixedPoint::rewire`] its cached dependants from the rows whose
//! import lists changed, then [`FixedPoint::reseed`] the frontier over the
//! rows it already holds (or [`FixedPoint::restart_from_identity`]) and
//! step as usual; [`FixedPoint::finish_into`] hands a mirror table exactly
//! the rows that moved.  Nothing is rebuilt per change but what changed.

use crate::adjacency::AdjacencyMatrix;
use crate::frontier::Frontier;
use crate::lines::Lines;
use crate::sigma::sigma_row_window_changed;
use crate::state::RoutingState;
use dbf_algebra::RoutingAlgebra;
use dbf_telemetry::TelemetrySink;
use std::ops::Range;
use std::time::Instant;

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
    pub(crate) rows: &'a [A::Route],
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
            *flag =
                sigma_row_window_changed(self.alg, self.adj, self.rows, self.w, self.j0, i, slot);
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
/// it iterates; passing a different adjacency than the one it was built
/// from (or last [`FixedPoint::rewire`]d to) is a caller bug.
pub struct FixedPoint<A: RoutingAlgebra> {
    n: usize,
    w: usize,
    j0: usize,
    /// The `n × w` row store: columns `j0..j0+w` of the current state.
    rows: Lines<A::Route>,
    /// One staged row per work-list position; grows to the peak frontier.
    staging: Lines<A::Route>,
    changed: Vec<bool>,
    frontier: Frontier,
    next: Frontier,
    /// `dependants[k]` = the rows that read row `k`.
    dependants: Vec<Vec<usize>>,
    /// The rows a committed round changed since the iteration began.
    touched: Frontier,
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
        let mut kernel = Self::over(adj, x0.into_entries(), n);
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
        let mut kernel = Self::over(adj, Lines::default(), 0);
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
    /// empties.  Every row counts as changed ([`FixedPoint::finish_into`]).
    ///
    /// # Panics
    ///
    /// Panics on a slab.
    pub fn restart_from_identity(&mut self, alg: &A) {
        self.assert_whole_rows();
        self.fill_identity(alg, 0, self.n);
        self.seed(false, |_| true);
        for i in 0..self.n {
            self.touched.insert(i);
        }
    }

    fn fill_identity(&mut self, alg: &A, j0: usize, w: usize) {
        assert!(j0 + w <= self.n, "column window out of range");
        self.rows.clear();
        self.rows.resize(self.n * w, alg.invalid());
        for i in j0..j0 + w {
            self.rows[i * w + (i - j0)] = alg.trivial();
        }
        (self.j0, self.w) = (j0, w);
    }

    fn over(adj: &AdjacencyMatrix<A>, rows: Lines<A::Route>, w: usize) -> Self {
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
            dependants: adj.dependants(),
            touched: Frontier::new(n),
            full_sweep: false,
            quiet: false,
            rounds: 0,
            row_recomputations: 0,
            settled: Vec::new(),
        }
    }

    /// Begin a new iteration over the rows the stepper holds: the frontier
    /// becomes `start`, and the counters, the settle record and the set of
    /// changed rows are zeroed.  A resident stepper whose adjacency changed
    /// is [`FixedPoint::rewire`]d first and reseeded with the rows the
    /// change can perturb.
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
        self.touched.clear();
    }

    /// Grow a whole-row stepper to `n` nodes: every row gains the new
    /// columns and the new rows join, all with the identity pattern (∞̄,
    /// 0̄ on the diagonal — what [`RoutingState::grown`] writes); the new
    /// nodes read and are read by nobody until [`FixedPoint::rewire`].
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
        self.rows = RoutingState::from_entries(old, rows)
            .grown(alg, n)
            .into_entries();
        (self.n, self.w) = (n, n);
        self.dependants.resize_with(n, Vec::new);
        for f in [&mut self.frontier, &mut self.next, &mut self.touched] {
            f.grow(n);
        }
    }

    /// Follow an adjacency change from `old` to `new` (of this stepper's
    /// node count; `old` may have fewer nodes): for every row `dirty`
    /// marks — at least every row whose import list changed, as
    /// [`crate::incremental::dirty_rows_after_change`] returns them — the
    /// neighbours it stopped importing from lose it as a dependant and the
    /// ones it started importing from gain it.  The cost grows with the
    /// dirty rows' degrees, not with `|E|`; the dependants equal
    /// `new.dependants()` up to order, which no round observes (a frontier
    /// is sorted).
    ///
    /// # Panics
    ///
    /// Panics if `new` or `dirty` does not match the node count.
    pub fn rewire(&mut self, old: &AdjacencyMatrix<A>, new: &AdjacencyMatrix<A>, dirty: &[bool]) {
        assert_eq!(new.node_count(), self.n, "not this stepper's adjacency");
        assert_eq!(dirty.len(), self.n, "dirty mask length must match");
        let reads =
            |row: &[(usize, A::Edge)], k: usize| row.binary_search_by_key(&k, |e| e.0).is_ok();
        for i in (0..self.n).filter(|&i| dirty[i]) {
            let before = if i < old.node_count() {
                old.row(i)
            } else {
                &[]
            };
            let after = new.row(i);
            for &(k, _) in before.iter().filter(|e| !reads(after, e.0)) {
                let readers = &mut self.dependants[k];
                let at = readers.iter().position(|&d| d == i);
                readers.swap_remove(at.expect("a row is a dependant of each of its imports"));
            }
            for &(k, _) in after.iter().filter(|e| !reads(before, e.0)) {
                self.dependants[k].push(i);
            }
        }
    }

    /// `dependants()[k]` = the rows that read row `k`, in no particular
    /// order.
    pub fn dependants(&self) -> &[Vec<usize>] {
        &self.dependants
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

    /// The current `n × w` row store, row-major.
    pub fn rows(&self) -> &[A::Route] {
        &self.rows
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
        let need = len * w;
        if self.staging.len() < need {
            self.staging.resize(need, alg.invalid());
        }
        self.changed.clear();
        self.changed.resize(len, false);
        let job = Sweep {
            alg,
            adj,
            rows: &self.rows,
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
            std::mem::swap(&mut self.rows, &mut self.staging);
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
                if !whole {
                    self.rows[i * w..(i + 1) * w]
                        .clone_from_slice(&self.staging[pos * w..(pos + 1) * w]);
                }
                self.touched.insert(i);
                for &d in &self.dependants[i] {
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
        RoutingState::from_entries(self.n, self.rows)
    }

    /// [`FixedPoint::finish`] for a stepper that stays resident: emit the
    /// same `node_settled` events, then copy into `state` — a table that
    /// held these rows when the iteration began — every row that changed
    /// since (every row after [`FixedPoint::restart_from_identity`]), so
    /// that it holds them again.  The stepper is left as it was.
    ///
    /// # Panics
    ///
    /// Panics on a slab or if `state` does not have this node count.
    pub fn finish_into<S: TelemetrySink + ?Sized>(
        &mut self,
        state: &mut RoutingState<A>,
        tel: &mut S,
    ) {
        self.assert_whole_rows();
        assert_eq!(state.node_count(), self.n, "state dimensions must match");
        self.emit_settled(tel);
        let n = self.n;
        for &i in self.touched.sorted() {
            state
                .row_mut(i)
                .clone_from_slice(&self.rows[i * n..(i + 1) * n]);
        }
    }

    fn emit_settled<S: TelemetrySink + ?Sized>(&mut self, tel: &mut S) {
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
