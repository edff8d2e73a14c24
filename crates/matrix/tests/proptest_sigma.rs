//! Property-based tests for the synchronous operator `σ` (Section 2.2–2.3).

use dbf_algebra::prelude::*;
use dbf_matrix::prelude::*;
use dbf_topology::generators;
use proptest::prelude::*;

const N: usize = 5;

fn nat_inf() -> impl Strategy<Value = NatInf> {
    prop_oneof![
        8 => (0u64..500).prop_map(NatInf::fin),
        1 => Just(NatInf::ZERO),
        1 => Just(NatInf::INF),
    ]
}

/// An arbitrary routing state over ℕ∞ on N nodes.
fn state() -> impl Strategy<Value = Vec<NatInf>> {
    proptest::collection::vec(nat_inf(), N * N)
}

/// An arbitrary unit-or-more weighted adjacency on N nodes (dense bitmask
/// selects which directed links exist).
fn adjacency() -> impl Strategy<Value = (u32, Vec<u64>)> {
    (any::<u32>(), proptest::collection::vec(1u64..9, N * N))
}

fn build_adj(mask: u32, weights: &[u64]) -> AdjacencyMatrix<ShortestPaths> {
    AdjacencyMatrix::from_fn(N, |i, j| {
        let k = i * N + j;
        if i != j && (mask >> (k % 32)) & 1 == 1 {
            Some(NatInf::fin(weights[k]))
        } else {
            None
        }
    })
}

fn build_state(entries: &[NatInf]) -> RoutingState<ShortestPaths> {
    RoutingState::from_fn(N, |i, j| entries[i * N + j])
}

/// Row `i` of the fused kernel against the two-pass [`sigma_row_into`],
/// once on `x` as given and once with `x`'s row `i` already at its σ value
/// (so the change flag is exercised both ways).
fn fused_row_matches_two_pass<A>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    mut x: RoutingState<A>,
    i: usize,
) -> TestCaseResult
where
    A: RoutingAlgebra<Route = NatInf>,
{
    let mut plain = vec![alg.invalid(); N];
    sigma_row_into(alg, adj, &x, i, &mut plain);
    for _ in 0..2 {
        // a garbage buffer: every entry must be overwritten
        let mut fused = vec![NatInf::fin(77); N];
        let changed = sigma_row_into_changed(alg, adj, &x, i, &mut fused);
        prop_assert_eq!(&fused, &plain);
        prop_assert_eq!(changed, plain[..] != *x.row(i));
        x.row_mut(i).copy_from_slice(&plain);
    }
    Ok(())
}

proptest! {
    /// The four row shapes the fused kernel distinguishes — no import (the
    /// identity row), one (written and compared in a single pass), two
    /// (written, then folded-and-compared) and many (written, folded,
    /// folded-and-compared) — under `min`/`+` and under `max`/`min`, whose
    /// `∞̄` is `0`: writing the first import must equal folding it into `∞̄`.
    #[test]
    fn fused_row_kernel_matches_the_two_pass_row_at_every_degree(
        degree in prop_oneof![Just(0usize), Just(1), Just(2), Just(N - 1)],
        i in 0..N,
        w in proptest::collection::vec(1u64..600, N),
        entries in state(),
    ) {
        let imports = |a: usize, k: usize| a == i && k != i && (k + N - i - 1) % N < degree;
        let edge = |a: usize, k: usize| imports(a, k).then(|| NatInf::fin(w[k]));
        let shortest = AdjacencyMatrix::<ShortestPaths>::from_fn(N, edge);
        prop_assert_eq!(shortest.row(i).len(), degree);
        fused_row_matches_two_pass(&ShortestPaths::new(), &shortest, build_state(&entries), i)?;
        let widest = AdjacencyMatrix::<WidestPaths>::from_fn(N, edge);
        let x = RoutingState::<WidestPaths>::from_fn(N, |a, b| entries[a * N + b]);
        fused_row_matches_two_pass(&WidestPaths::new(), &widest, x, i)?;
    }

    /// Lemma 1: after one application of σ every diagonal entry is the
    /// trivial route, whatever the starting state and topology.
    #[test]
    fn lemma1_diagonal_is_trivial((mask, w) in adjacency(), entries in state()) {
        let alg = ShortestPaths::new();
        let adj = build_adj(mask, &w);
        let next = sigma(&alg, &adj, &build_state(&entries));
        for i in 0..N {
            prop_assert_eq!(next.get(i, i), &alg.trivial());
        }
    }

    /// σ's output never invents routes better than any neighbour can offer:
    /// every off-diagonal entry is either ∞̄ or the extension of some
    /// neighbour's entry.
    #[test]
    fn sigma_entries_are_justified((mask, w) in adjacency(), entries in state()) {
        let alg = ShortestPaths::new();
        let adj = build_adj(mask, &w);
        let x = build_state(&entries);
        let next = sigma(&alg, &adj, &x);
        for i in 0..N {
            for j in 0..N {
                if i == j {
                    continue;
                }
                let r = next.get(i, j);
                if alg.is_invalid(r) {
                    continue;
                }
                let justified = (0..N).any(|k| {
                    k != i && adj.get(i, k).is_some() && &adj.apply(&alg, i, k, x.get(k, j)) == r
                });
                prop_assert!(justified, "entry ({i},{j}) = {r:?} is not offered by any neighbour");
            }
        }
    }

    /// The fixed point reached from the clean state is genuinely stable and
    /// agrees with the δ run of the synchronous schedule.
    #[test]
    fn fixed_points_are_stable((mask, w) in adjacency()) {
        let alg = ShortestPaths::new();
        let adj = build_adj(mask, &w);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, N), 200);
        prop_assert!(out.converged);
        prop_assert!(is_stable(&alg, &adj, &out.state));
        prop_assert_eq!(sigma(&alg, &adj, &out.state), out.state);
    }

    /// σ_k composes: σ^{a+b}(X) = σ^a(σ^b(X)).
    #[test]
    fn sigma_k_composes((mask, w) in adjacency(), entries in state(), a in 0usize..4, b in 0usize..4) {
        let alg = ShortestPaths::new();
        let adj = build_adj(mask, &w);
        let x = build_state(&entries);
        let lhs = sigma_k(&alg, &adj, &x, a + b);
        let rhs = sigma_k(&alg, &adj, &sigma_k(&alg, &adj, &x, b), a);
        prop_assert_eq!(lhs, rhs);
    }

    /// For the strictly increasing bounded hop-count algebra the fixed point
    /// from *any* starting state equals the fixed point from the clean state
    /// (the synchronous shadow of Theorem 7's absolute convergence).
    #[test]
    fn hopcount_fixed_point_is_unique(entries in proptest::collection::vec(0u64..12, N * N), seed in 0u64..50) {
        let alg = BoundedHopCount::new(9);
        let shape = generators::connected_random(N, 0.45, seed);
        let adj = AdjacencyMatrix::<BoundedHopCount>::from_fn(N, |i, j| {
            if shape.has_edge(i, j) { Some(1u64) } else { None }
        });
        let clean = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, N), 300);
        prop_assert!(clean.converged);
        let garbage = RoutingState::<BoundedHopCount>::from_fn(N, |i, j| {
            if i == j {
                NatInf::fin(0)
            } else {
                let v = entries[i * N + j];
                if v >= 10 { NatInf::INF } else { NatInf::fin(v) }
            }
        });
        let from_garbage = iterate_to_fixed_point(&alg, &adj, &garbage, 300);
        prop_assert!(from_garbage.converged);
        prop_assert_eq!(from_garbage.state, clean.state);
    }

    /// The frontier-driven fixed-point loop walks the **exact** naive σ
    /// trajectory: from any start state on any topology, its result equals
    /// `σ^k(x0)` at the iteration count it reports, every counted round
    /// really changed the state (no phantom or skipped rounds), and the
    /// sharded parallel loop agrees bit-for-bit.
    #[test]
    fn frontier_loop_matches_the_naive_sigma_trajectory((mask, w) in adjacency(), entries in state()) {
        let alg = ShortestPaths::new();
        let adj = build_adj(mask, &w);
        let x0 = build_state(&entries);
        let budget = 64;
        let out = iterate_to_fixed_point(&alg, &adj, &x0, budget);
        // Endpoint: the frontier loop lands exactly on σ^iterations(x0).
        prop_assert_eq!(&out.state, &sigma_k(&alg, &adj, &x0, out.iterations));
        if out.converged {
            prop_assert!(is_stable(&alg, &adj, &out.state));
            // Round count is tight: one σ fewer does not reach the fixed
            // point (unless x0 was already stable).
            if out.iterations > 0 {
                let prefix = sigma_k(&alg, &adj, &x0, out.iterations - 1);
                prop_assert!(
                    prefix != out.state || out.iterations == 1,
                    "a counted round changed nothing"
                );
            }
        }
        let par = par_iterate_to_fixed_point(&alg, &adj, &x0, budget, 3);
        prop_assert_eq!(par.state, out.state);
        prop_assert_eq!(par.iterations, out.iterations);
        prop_assert_eq!(par.converged, out.converged);
    }

    /// The exhaustive oracle is never worse than the σ fixed point (local
    /// optimality), and for the distributive shortest-paths algebra it is
    /// equal.
    #[test]
    fn oracle_bounds_the_fixed_point(seed in 0u64..40) {
        let alg = ShortestPaths::new();
        let topo = generators::connected_random(N, 0.5, seed)
            .with_weights(|i, j| NatInf::fin(((i * 3 + j + seed as usize) % 7 + 1) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, N), 200);
        prop_assert!(out.converged);
        let oracle = exhaustive_path_optimum(&alg, &adj);
        prop_assert_eq!(&out.state, &oracle);
        for (i, j, r) in out.state.entries() {
            prop_assert!(alg.route_le(oracle.get(i, j), r));
        }
    }
}
