//! Synchronous fixed-point iteration (Section 2.3) and stability testing
//! (Definition 4).
//!
//! [`iterate_with`] is the one σ iteration behind every entry point.  The
//! cold solve ([`iterate_to_fixed_point`], [`iterate_traced`]) shards its
//! rounds over the shared pool on every core, with the outcome and the
//! deterministic events of a one-thread run.

use crate::adjacency::AdjacencyMatrix;
use crate::kernel::{Executor, FixedPoint, Start};
use crate::parallel::Pooled;
use crate::pool::default_jobs;
use crate::sigma::sigma_row_into_changed;
use crate::state::RoutingState;
use dbf_algebra::RoutingAlgebra;
use dbf_telemetry::{NoopSink, TelemetrySink};

/// The outcome of a σ iteration run from either [`Start`].
#[derive(Clone, Debug)]
pub struct SyncOutcome<A: RoutingAlgebra> {
    /// The final state (a fixed point when `converged` is true).
    pub state: RoutingState<A>,
    /// The number of applications of `σ` that changed the state.
    pub iterations: usize,
    /// Rounds committed; a round recomputes the current frontier.
    pub rounds: usize,
    /// Rows recomputed across all rounds, the budget-boundary check
    /// included.  A full synchronous round costs `n` of these, so
    /// `row_recomputations / n` is comparable to `iterations`.
    pub row_recomputations: u64,
    /// Whether the final state is a fixed point ([`FixedPoint::solve`]).
    pub converged: bool,
}

/// The σ iteration budget for an `n`-node problem.
///
/// When the caller knows a convergence bound (the `n·h` of arXiv
/// 2106.01184, computed by `dbf-scenario`'s bound oracle), the budget is
/// `bound + 1`: the theorem says the fixed point arrives within `bound`
/// changing rounds, and the single extra round of headroom means an
/// off-by-one in a bound formula is observed as a *bound violation*
/// (`iterations = bound + 1` with `converged` still true) instead of a
/// spurious convergence failure.  Without a bound the generous quadratic
/// horizon `4n² + 64` is used — large enough for every increasing algebra
/// in the repository while still terminating the genuinely oscillating
/// gadgets.
///
/// Both branches saturate instead of overflowing: at the 10⁵-node scale
/// the route server targets, `4n²` is `4·10¹⁰` — past `u32::MAX`, so on a
/// 32-bit `usize` the unchecked product would wrap to a tiny (or zero)
/// budget and convergence would be misreported.  A saturated budget merely
/// means "iterate until the fixed point", which is always safe.
pub fn iteration_budget(n: usize, predicted_bound: Option<u64>) -> usize {
    match predicted_bound {
        Some(bound) => usize::try_from(bound)
            .unwrap_or(usize::MAX)
            .saturating_add(1),
        None => n.saturating_mul(n).saturating_mul(4).saturating_add(64),
    }
}

/// Is `X` stable, i.e. a fixed point of `σ` (Definition 4)?  Equivalently:
/// no node can improve any of its selected routes by unilaterally
/// re-running its selection — a *local* optimum.
///
/// Checked row by row with the fused row kernel into one row-sized buffer
/// — no second `n²` state is materialised, and the first row that would
/// change ends the test.
pub fn is_stable<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x: &RoutingState<A>,
) -> bool {
    let mut row = vec![alg.invalid(); adj.node_count()];
    (0..adj.node_count()).all(|i| !sigma_row_into_changed(alg, adj, x, i, &mut row))
}

/// Iterate `σ` from `x0` until a fixed point is reached or `max_iterations`
/// rounds have been performed.
///
/// For strictly increasing algebras with finite carriers (Theorem 7) and for
/// increasing path algebras (Theorem 11) a fixed point is always reached;
/// for other algebras (for example the non-increasing longest-paths algebra
/// on a cyclic topology, or a BAD-GADGET-style policy configuration) the
/// iteration may never converge, which the caller observes as
/// `converged == false`.
pub fn iterate_to_fixed_point<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x0: &RoutingState<A>,
    max_iterations: usize,
) -> SyncOutcome<A> {
    iterate_traced(alg, adj, x0, max_iterations, &mut NoopSink)
}

/// [`iterate_to_fixed_point`] with a telemetry sink: emits
/// `round_start`/`round_end` per σ round (rows recomputed, rows changed)
/// and, once the loop stops, a `node_settled` event per node carrying the
/// last round in which its row changed.
///
/// Rounds are sharded over [`default_jobs`] threads ([`Pooled`], which
/// adds a `band_sweep` per band to a live sink).  The outcome is identical
/// for every thread count and every sink — instrumentation never alters
/// the trajectory — and with [`NoopSink`] the instrumentation compiles
/// out ([`iterate_to_fixed_point`] forwards here).
pub fn iterate_traced<A, S>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x0: &RoutingState<A>,
    max_iterations: usize,
    tel: &mut S,
) -> SyncOutcome<A>
where
    A: RoutingAlgebra,
    S: TelemetrySink + ?Sized,
{
    let (exec, x0, start) = (Pooled::shared(default_jobs()), x0.clone(), Start::AllRows);
    iterate_with(alg, adj, x0, start, max_iterations, &exec, tel)
}

/// The one σ iteration behind every entry point: the kernel from `x0`
/// (taken over, not copied) over the rows `start` names, solved within
/// `budget` rounds ([`FixedPoint::solve`]) by `exec` —
/// [`crate::kernel::Inline`], or [`Pooled`] with the same outcome and
/// deterministic events.  From [`Start::AllRows`] a round that changes
/// nothing certifies the fixed point, so `iterations` counts the rounds
/// before it.
///
/// # Panics
///
/// Panics if `adj`, `x0` and a [`Start::Dirty`] mask disagree on `n`.
pub fn iterate_with<A, E, S>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x0: RoutingState<A>,
    start: Start<'_>,
    budget: usize,
    exec: &E,
    tel: &mut S,
) -> SyncOutcome<A>
where
    A: RoutingAlgebra,
    E: Executor<A>,
    S: TelemetrySink + ?Sized,
{
    let mut kernel = FixedPoint::new(adj, x0, start);
    let converged = kernel.solve(alg, adj, budget, exec, tel);
    SyncOutcome {
        iterations: kernel.iterations(),
        rounds: kernel.rounds(),
        row_recomputations: kernel.row_recomputations(),
        converged,
        state: kernel.finish(tel),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_algebra::instances::longest::LongestPaths;
    use dbf_algebra::prelude::*;
    use dbf_topology::generators;

    #[test]
    fn iteration_budget_saturates_at_route_server_scale() {
        // The legacy horizon, where it fits.
        assert_eq!(iteration_budget(0, None), 64);
        assert_eq!(iteration_budget(10, None), 464);
        // n = 10⁵ (the serve-mode target): 4n² = 4·10¹⁰ must not wrap.
        // On 64-bit it is exact; on 32-bit it saturates instead of
        // wrapping to a tiny budget.
        let big = iteration_budget(100_000, None);
        if usize::BITS >= 64 {
            assert_eq!(big as u128, 4u128 * 100_000 * 100_000 + 64);
        } else {
            assert_eq!(big, usize::MAX);
        }
        // Degenerate extreme: no panic, full saturation.
        assert_eq!(iteration_budget(usize::MAX, None), usize::MAX);
        // The bound-driven branch saturates too (bound + 1 at the top).
        assert_eq!(iteration_budget(5, Some(9)), 10);
        assert_eq!(iteration_budget(5, Some(u64::MAX)), usize::MAX);
    }

    #[test]
    fn shortest_paths_on_a_ring_converges_to_ring_distances() {
        let alg = ShortestPaths::new();
        let topo = generators::ring(6).with_weights(|_, _| NatInf::fin(1));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 6), 100);
        assert!(out.converged);
        assert!(is_stable(&alg, &adj, &out.state));
        // ring distance = min(|i-j|, 6-|i-j|)
        for i in 0..6u64 {
            for j in 0..6u64 {
                let d = (i as i64 - j as i64).unsigned_abs();
                let expected = d.min(6 - d);
                assert_eq!(
                    out.state.get(i as usize, j as usize),
                    &NatInf::fin(expected),
                    "distance {i}→{j}"
                );
            }
        }
    }

    #[test]
    fn convergence_takes_about_diameter_rounds_on_a_line() {
        let alg = ShortestPaths::new();
        let n = 10;
        let topo = generators::line(n).with_weights(|_, _| NatInf::fin(1));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 100);
        assert!(out.converged);
        assert!(out.iterations >= n - 1, "needs at least diameter rounds");
        assert!(
            out.iterations <= n + 1,
            "distributive algebras converge in O(n)"
        );
    }

    #[test]
    fn widest_paths_reaches_a_stable_state() {
        let alg = WidestPaths::new();
        let topo =
            generators::complete(5).with_weights(|i, j| NatInf::fin(((i * 5 + j) % 7 + 1) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 5), 100);
        assert!(out.converged);
        assert!(is_stable(&alg, &adj, &out.state));
    }

    #[test]
    fn longest_paths_on_a_cycle_converges_to_a_nonsensical_state() {
        // The non-increasing negative example.  Because ℕ∞ addition
        // saturates, the longest-path iteration on a cycle does reach a
        // fixed point — but it is the degenerate all-∞ state, claiming
        // arbitrarily long routes around the cycle rather than the true
        // longest *simple* path lengths.  (The genuinely oscillating
        // non-increasing examples are the BGP gadgets in `dbf-bgp`.)
        let alg = LongestPaths::new();
        let topo = generators::ring(4).with_weights(|_, _| NatInf::fin(1));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 4), 50);
        assert!(out.converged);
        for (i, j, r) in out.state.entries() {
            if i != j {
                assert_eq!(r, &NatInf::INF, "entry ({i},{j}) saturates");
            }
        }
        // The true longest *simple* path between adjacent ring nodes has
        // only 3 hops, so claiming ∞ is nonsense — the algebra satisfies
        // Definition 1 but, being non-increasing, none of the paper's
        // guarantees (or classical optimality) apply to it.
    }

    #[test]
    fn stability_detects_fixed_points_and_non_fixed_points() {
        let alg = ShortestPaths::new();
        let topo = generators::line(3).with_weights(|_, _| NatInf::fin(1));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let start = RoutingState::identity(&alg, 3);
        assert!(!is_stable(&alg, &adj, &start));
        let out = iterate_to_fixed_point(&alg, &adj, &start, 10);
        assert!(is_stable(&alg, &adj, &out.state));
    }

    #[test]
    fn convergence_from_garbage_states_for_finite_algebras() {
        // Theorem 7 in miniature: a finite strictly increasing algebra
        // (bounded hop count) reaches the same fixed point from the clean
        // state and from a garbage state.
        let alg = BoundedHopCount::new(7);
        let topo = generators::ring(5).with_weights(|_, _| 1u64);
        let adj = AdjacencyMatrix::from_topology(&topo);
        let from_clean = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 5), 100);
        let garbage = RoutingState::<BoundedHopCount>::from_fn(5, |i, j| {
            if i == j {
                NatInf::fin(0)
            } else {
                NatInf::fin(((i * 3 + j) % 7) as u64)
            }
        });
        let from_garbage = iterate_to_fixed_point(&alg, &adj, &garbage, 100);
        assert!(from_clean.converged && from_garbage.converged);
        assert_eq!(from_clean.state, from_garbage.state);
    }

    #[test]
    fn iteration_budget_prefers_the_bound_and_falls_back_quadratically() {
        assert_eq!(iteration_budget(10, Some(40)), 41);
        assert_eq!(iteration_budget(10, None), 4 * 100 + 64);
        // Saturates instead of overflowing on absurd declared bounds.
        assert_eq!(iteration_budget(2, Some(u64::MAX)), usize::MAX);
    }

    #[test]
    fn zero_iteration_budget_reports_instability() {
        let alg = ShortestPaths::new();
        let topo = generators::line(3).with_weights(|_, _| NatInf::fin(1));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 3), 0);
        assert!(!out.converged);
        assert_eq!(out.iterations, 0);
    }
}
