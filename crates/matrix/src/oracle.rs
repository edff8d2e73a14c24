//! An exhaustive all-simple-paths optimum, used as an independent oracle for
//! the fixed points computed by the Bellman-Ford iteration.
//!
//! For **distributive** algebras the classical theory says the DBF fixed
//! point equals the *globally* optimal route matrix — the best route over
//! all possible paths — so the oracle and the fixed point must agree
//! exactly.  For **policy-rich** (non-distributive) algebras the protocol
//! only reaches a *locally* optimal stable state (Section 1 / Definition 4
//! of the paper), which can be strictly worse than the global optimum on
//! some entries but never better.  Both facts are exercised by tests and by
//! the Table 2 experiment.
//!
//! The oracle enumerates every simple path, so it is exponential and meant
//! for the small reference networks used in tests and experiments.

use crate::adjacency::AdjacencyMatrix;
use crate::state::RoutingState;
use dbf_algebra::RoutingAlgebra;
use dbf_paths::enumerate::all_simple_paths_to;
use dbf_paths::path::Path;
use dbf_paths::path_algebra::path_weight;

/// The globally optimal routing state: entry `(i, j)` is the ⊕-best weight
/// over **all** simple paths from `i` to `j` in the adjacency.
pub fn exhaustive_path_optimum<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
) -> RoutingState<A> {
    let n = adj.node_count();
    // Pre-compute the simple paths towards every destination once.
    let paths_to: Vec<_> = (0..n)
        .map(|j| all_simple_paths_to(j, n, |a, b| adj.get(a, b).is_some()))
        .collect();
    RoutingState::from_fn(n, |i, j| {
        if i == j {
            return alg.trivial();
        }
        let mut best = alg.invalid();
        for p in &paths_to[j] {
            if p.source() == Some(i) {
                let w = path_weight(alg, &Path::Simple(p.clone()), |a, b| adj.get(a, b).cloned());
                best = alg.choice(&best, &w);
            }
        }
        best
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::iterate_to_fixed_point;
    use dbf_algebra::instances::filtered::{FilterPolicy, FilteredShortestPaths};
    use dbf_algebra::prelude::*;
    use dbf_topology::generators;

    #[test]
    fn distributive_fixed_point_equals_global_optimum() {
        let alg = ShortestPaths::new();
        let topo = generators::connected_random(7, 0.4, 3)
            .with_weights(|i, j| NatInf::fin(((i * 3 + j * 5) % 9 + 1) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let oracle = exhaustive_path_optimum(&alg, &adj);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 7), 200);
        assert!(out.converged);
        assert_eq!(
            out.state, oracle,
            "shortest paths is distributive: local = global optimum"
        );
    }

    #[test]
    fn widest_paths_fixed_point_equals_global_optimum() {
        let alg = WidestPaths::new();
        let topo = generators::connected_random(6, 0.5, 11)
            .with_weights(|i, j| NatInf::fin(((i * 7 + j) % 13 + 1) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let oracle = exhaustive_path_optimum(&alg, &adj);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 6), 200);
        assert!(out.converged);
        assert_eq!(out.state, oracle);
    }

    #[test]
    fn policy_rich_fixed_point_is_locally_but_not_necessarily_globally_optimal() {
        // Conditional policies (Eq 2 of the paper) break distributivity, so
        // the stable state need only be a local optimum: every entry is at
        // least as bad as the global optimum and the state is stable.
        let alg = FilteredShortestPaths::new();
        let topo = generators::connected_random(6, 0.5, 17).with_weights(|i, j| {
            if (i + j) % 3 == 0 {
                FilterPolicy::if_below(4, FilterPolicy::Add(10), FilterPolicy::Add(1))
            } else {
                FilterPolicy::Add(1 + ((i * 2 + j) % 4) as u64)
            }
        });
        let adj = AdjacencyMatrix::from_topology(&topo);
        let oracle = exhaustive_path_optimum(&alg, &adj);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 6), 500);
        assert!(out.converged);
        for (i, j, r) in out.state.entries() {
            assert!(
                alg.route_le(oracle.get(i, j), r),
                "entry ({i},{j}): the global optimum {:?} must be at least as good as the \
                 locally optimal fixed point {r:?}",
                oracle.get(i, j)
            );
        }
    }

    #[test]
    fn oracle_of_a_disconnected_pair_is_invalid() {
        let alg = ShortestPaths::new();
        let mut topo = dbf_topology::Topology::new(4);
        topo.set_link(0, 1, NatInf::fin(1));
        topo.set_link(2, 3, NatInf::fin(1));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let oracle = exhaustive_path_optimum(&alg, &adj);
        assert_eq!(oracle.get(0, 2), &NatInf::INF);
        assert_eq!(oracle.get(0, 1), &NatInf::fin(1));
        assert_eq!(oracle.get(1, 1), &NatInf::fin(0));
    }
}
