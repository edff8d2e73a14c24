//! Incremental (dirty-row) synchronous iteration.
//!
//! A full sweep recomputes every node's table in round 1 even though after
//! a topology change only the region around the edit is perturbed at all
//! ("Dynamic Asynchronous Iterations" makes exactly this observation).
//! This module starts the fixed-point kernel ([`crate::kernel`]) from a
//! *dirty mask* instead:
//!
//! * row `i` of `σ(X)` depends only on the rows `k` with `A_ik` present
//!   (node `i`'s import neighbourhood), so a row whose inputs have not
//!   changed since its last recomputation cannot change either;
//! * each round recomputes exactly the dirty rows **from the previous
//!   round's values** (Jacobi order, buffered writes), marks the dependants
//!   of every row that actually changed dirty for the next round, and stops
//!   when no row is dirty.
//!
//! Because clean rows provably satisfy `σ(X)[i] = X[i]`, the produced
//! sequence of states is *identical* to the full synchronous iteration —
//! for every algebra, not just the strictly-increasing ones — while the
//! work per round is the active frontier.  Starting from a fixed point of
//! a previous topology, [`dirty_rows_after_change`] computes the only rows
//! the edit can perturb, which is what makes reconvergence after a change
//! `O(perturbed region)` instead of `O(n · |E|)` per round.
//!
//! The memory follows the same rule.  [`iterate_dirty_traced`] borrows its
//! start state, and the state it returns shares every row the iteration
//! did not change with it (a [`RoutingState`] is copy-on-write): a
//! reconvergence copies the rows it touches and stages its peak frontier,
//! never the `n²` table.

use crate::adjacency::AdjacencyMatrix;
use crate::state::RoutingState;
use crate::sync::{iterate_with, SyncOutcome};
use dbf_algebra::RoutingAlgebra;
use dbf_telemetry::{NoopSink, TelemetrySink};

/// The outcome of an incremental iteration run: the one σ outcome,
/// under the name `benchmark/` still uses.
pub type IncrementalOutcome<A> = SyncOutcome<A>;

/// The rows a topology change can perturb directly: every row whose import
/// neighbourhood (its adjacency row) differs between `old` and `new`, plus
/// every row that did not exist in `old`.
///
/// Starting [`iterate_dirty_to_fixed_point`] from a fixed point of `old`
/// with exactly these rows dirty reconverges to the fixed point of `new`:
/// an untouched row `i` satisfies `σ_new(X)[i] = σ_old(X)[i] = X[i]`, so it
/// only needs recomputing once a dirty neighbour's table actually changes.
pub fn dirty_rows_after_change<A>(old: &AdjacencyMatrix<A>, new: &AdjacencyMatrix<A>) -> Vec<bool>
where
    A: RoutingAlgebra,
    A::Edge: PartialEq,
{
    (0..new.node_count())
        .map(|i| i >= old.node_count() || old.row(i) != new.row(i))
        .collect()
}

/// Iterate `σ` from `x0`, recomputing only dirty rows, until no row is
/// dirty or `max_rounds` rounds have been performed; a run that stops on
/// the budget is decided by one uncommitted round over the dirty rows
/// ([`crate::kernel::FixedPoint::solve`]).
///
/// `dirty0` marks the rows that must be recomputed at least once: pass
/// all-`true` for a fresh start (the result then equals
/// [`crate::sync::iterate_to_fixed_point`] state-for-state, round-for-round)
/// or [`dirty_rows_after_change`] when `x0` is the fixed point of a
/// previous topology.
///
/// # Panics
///
/// Panics if `adj`, `x0` and `dirty0` do not agree on the node count.
pub fn iterate_dirty_to_fixed_point<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x0: &RoutingState<A>,
    dirty0: &[bool],
    max_rounds: usize,
) -> IncrementalOutcome<A> {
    iterate_dirty_traced(alg, adj, x0, dirty0, max_rounds, &mut NoopSink)
}

/// [`iterate_dirty_to_fixed_point`] with a telemetry sink: per-round
/// `round_start`/`round_end` events carrying the dirty-set size (the work
/// list is exactly the dirty rows), and per-node `node_settled` events once
/// the loop stops.  The outcome is identical to the untraced iteration for
/// every sink; with [`NoopSink`] the instrumentation compiles out.  A
/// caller that shards rounds over a worker pool calls [`iterate_with`]
/// with its thread count.
///
/// # Panics
///
/// Panics if `adj`, `x0` and `dirty0` do not agree on the node count.
pub fn iterate_dirty_traced<A, S>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x0: &RoutingState<A>,
    dirty0: &[bool],
    max_rounds: usize,
    tel: &mut S,
) -> IncrementalOutcome<A>
where
    A: RoutingAlgebra,
    S: TelemetrySink + ?Sized,
{
    // The clone shares x0's rows: only the rows a round changes are copied.
    iterate_with(alg, adj, x0.clone(), dirty0, max_rounds, 1, tel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{is_stable, iterate_to_fixed_point};
    use dbf_algebra::prelude::*;
    use dbf_topology::generators;

    fn weighted_ring(n: usize) -> AdjacencyMatrix<ShortestPaths> {
        let topo =
            generators::ring(n).with_weights(|i, j| NatInf::fin(((i * 7 + j * 13) % 9 + 1) as u64));
        AdjacencyMatrix::from_topology(&topo)
    }

    #[test]
    fn all_dirty_start_matches_full_sync_round_for_round() {
        let alg = ShortestPaths::new();
        let adj = weighted_ring(9);
        let x0 = RoutingState::identity(&alg, 9);
        let full = iterate_to_fixed_point(&alg, &adj, &x0, 200);
        let inc = iterate_dirty_to_fixed_point(&alg, &adj, &x0, &[true; 9], 200);
        assert!(full.converged && inc.converged);
        assert_eq!(inc.state, full.state);
        // An all-true mask is the cold solve: one certificate (an empty
        // frontier), so the same rounds and the same rows recomputed.
        assert_eq!(inc.rounds, full.rounds);
        assert_eq!(inc.row_recomputations, full.row_recomputations);
    }

    #[test]
    fn change_phase_recomputes_only_the_perturbed_region() {
        // A long line: failing the far-end link must not recompute the rows
        // at the other end (bad news propagates a bounded number of hops on
        // the bounded hop-count algebra).
        let alg = BoundedHopCount::new(8);
        let n = 64;
        let old_topo = generators::line(n).with_weights(|_, _| 1u64);
        let old_adj = AdjacencyMatrix::<BoundedHopCount>::from_topology(&old_topo);
        let fixed = iterate_to_fixed_point(&alg, &old_adj, &RoutingState::identity(&alg, n), 400);
        assert!(fixed.converged);

        let mut new_adj = old_adj.clone();
        new_adj.set(0, 1, None);
        new_adj.set(1, 0, None);
        let dirty = dirty_rows_after_change(&old_adj, &new_adj);
        assert_eq!(
            dirty.iter().filter(|&&d| d).count(),
            2,
            "only the two endpoints' import sets changed"
        );

        let inc = iterate_dirty_to_fixed_point(&alg, &new_adj, &fixed.state, &dirty, 400);
        let full = iterate_to_fixed_point(&alg, &new_adj, &fixed.state, 400);
        assert!(inc.converged && full.converged);
        assert_eq!(inc.state, full.state);
        assert!(is_stable(&alg, &new_adj, &inc.state));
        // The full iteration recomputes n rows per round; the dirty engine
        // only touches the frontier around the failed link.
        let full_row_equivalents = (full.iterations as u64 + 1) * n as u64;
        assert!(
            inc.row_recomputations < full_row_equivalents / 2,
            "incremental {} vs full {}",
            inc.row_recomputations,
            full_row_equivalents
        );
    }

    #[test]
    fn widest_paths_agree_with_full_sync() {
        // Widest paths is increasing but not strictly, so its fixed point is
        // not guaranteed unique — the incremental engine must still land on
        // the *same* one as full σ because it reproduces the trajectory.
        let alg = WidestPaths::new();
        let topo = generators::leaf_spine(3, 6)
            .with_weights(|i, j| NatInf::fin(((i * 11 + j * 5) % 90 + 10) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let x0 = RoutingState::identity(&alg, 9);
        let full = iterate_to_fixed_point(&alg, &adj, &x0, 200);
        let inc = iterate_dirty_to_fixed_point(&alg, &adj, &x0, &[true; 9], 200);
        assert!(full.converged && inc.converged);
        assert_eq!(inc.state, full.state);

        let mut cut = adj.clone();
        cut.set(0, 6, None);
        cut.set(6, 0, None);
        let dirty = dirty_rows_after_change(&adj, &cut);
        let inc2 = iterate_dirty_to_fixed_point(&alg, &cut, &inc.state, &dirty, 200);
        let full2 = iterate_to_fixed_point(&alg, &cut, &full.state, 200);
        assert_eq!(inc2.state, full2.state);
        assert!(inc2.converged);
    }

    #[test]
    fn growing_networks_mark_fresh_rows_dirty() {
        let alg = ShortestPaths::new();
        let small = weighted_ring(5);
        let fixed = iterate_to_fixed_point(&alg, &small, &RoutingState::identity(&alg, 5), 100);
        // Node 5 joins and links to node 0 (both directions, weight 1).
        let mut grown = AdjacencyMatrix::<ShortestPaths>::empty(6);
        for i in 0..5 {
            for (j, w) in small.row(i) {
                grown.set(i, *j, Some(*w));
            }
        }
        grown.set(0, 5, Some(NatInf::fin(1)));
        grown.set(5, 0, Some(NatInf::fin(1)));
        let dirty = dirty_rows_after_change(&small, &grown);
        assert!(dirty[0] && dirty[5], "both endpoints of the new link");
        let state0 = fixed.state.grown(&alg, 6);
        let inc = iterate_dirty_to_fixed_point(&alg, &grown, &state0, &dirty, 100);
        let full = iterate_to_fixed_point(&alg, &grown, &state0, 100);
        assert!(inc.converged);
        assert_eq!(inc.state, full.state);
    }

    #[test]
    fn the_sharded_engine_reproduces_the_sequential_trajectory() {
        // Fresh start and change-phase start, across thread counts: state,
        // round count and row-recomputation count must all be identical to
        // the sequential dirty engine (which itself matches full σ).
        let alg = ShortestPaths::new();
        let adj = weighted_ring(23);
        let x0 = RoutingState::identity(&alg, 23);
        let sharded =
            |adj: &AdjacencyMatrix<ShortestPaths>, x0: &RoutingState<_>, dirty: &[bool], t| {
                iterate_with(&alg, adj, x0.clone(), dirty, 300, t, &mut NoopSink)
            };
        let seq = iterate_dirty_to_fixed_point(&alg, &adj, &x0, &[true; 23], 300);
        for threads in [2, 3, 8] {
            let par = sharded(&adj, &x0, &[true; 23], threads);
            assert_eq!(par.state, seq.state, "threads={threads}");
            assert_eq!(par.rounds, seq.rounds, "threads={threads}");
            assert_eq!(
                par.row_recomputations, seq.row_recomputations,
                "threads={threads}"
            );
            assert!(par.converged);
        }

        let mut cut = adj.clone();
        cut.set(0, 1, None);
        cut.set(1, 0, None);
        let dirty = dirty_rows_after_change(&adj, &cut);
        let seq2 = iterate_dirty_to_fixed_point(&alg, &cut, &seq.state, &dirty, 300);
        let par2 = sharded(&cut, &seq.state, &dirty, 4);
        assert_eq!(par2.state, seq2.state);
        assert_eq!(par2.rounds, seq2.rounds);
        assert_eq!(par2.row_recomputations, seq2.row_recomputations);
        assert!(is_stable(&alg, &cut, &par2.state));
    }

    /// The rows whose `node_settled` round is not 0: every row a round
    /// changed.
    #[derive(Default)]
    struct Touched(Vec<bool>);

    impl TelemetrySink for Touched {
        fn node_settled(&mut self, node: usize, round: u64) {
            self.0.resize(self.0.len().max(node + 1), false);
            self.0[node] = round > 0;
        }
    }

    #[test]
    fn the_output_shares_every_row_it_did_not_touch_with_its_input() {
        let alg = WidestPaths::new();
        let shape = generators::as_graph(64, 2, 1);
        let topo = shape.with_weights(|i, j| NatInf::fin(((i * 11 + j * 5) % 90 + 10) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let n = adj.node_count();
        let fixed = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 200);
        let mut moved_somewhere = 0;
        for (a, b, _) in shape.edges().filter(|&(a, b, _)| a < b).step_by(5) {
            let mut cut = adj.clone();
            cut.set(a, b, None);
            cut.set(b, a, None);
            let dirty = dirty_rows_after_change(&adj, &cut);
            let mut touched = Touched::default();
            let out = iterate_dirty_traced(&alg, &cut, &fixed.state, &dirty, 200, &mut touched);
            assert!(out.converged);
            let moved = touched.0.iter().filter(|&&t| t).count();
            if moved > n / 2 {
                continue; // the table unshared itself (`table.rs`)
            }
            moved_somewhere += usize::from(moved > 0);
            for i in 0..n {
                let shared = out.state.table().shares_row(fixed.state.table(), i);
                assert_eq!(shared, !touched.0[i], "link {a}-{b}, row {i}");
            }
            assert_eq!(out.state.table().overlay_rows(), moved);
        }
        assert!(moved_somewhere > 2, "{moved_somewhere} cuts moved a row");
    }

    #[test]
    fn a_zero_round_budget_reports_non_convergence() {
        let alg = ShortestPaths::new();
        let adj = weighted_ring(4);
        let x0 = RoutingState::identity(&alg, 4);
        let out = iterate_dirty_to_fixed_point(&alg, &adj, &x0, &[true; 4], 0);
        assert!(!out.converged);
        assert_eq!(out.rounds, 0);
        // ... and a clean start over a clean mask is trivially converged.
        let fixed = iterate_to_fixed_point(&alg, &adj, &x0, 100).state;
        let out = iterate_dirty_to_fixed_point(&alg, &adj, &fixed, &[false; 4], 0);
        assert!(out.converged);
        assert_eq!(out.row_recomputations, 0);
    }
}
