//! Recorded table digests: the text every digest hashes is
//! `({i},{j})={route:?};` per entry, and these values were recorded from the
//! `write!`-per-entry renderers.  A different value here means the digest
//! text moved — every recorded digest in the repository (scale runs,
//! benchmark `count` lines, pinned counters) would move with it.

use dbf_algebra::prelude::{NatInf, ShortestPaths, WidestPaths};
use dbf_matrix::prelude::{
    blocked_fixed_point, iterate_to_fixed_point, lift_topology, AdjacencyMatrix, RoutingState,
};
use dbf_paths::PathVector;
use dbf_scenario::engine::state_digest;
use dbf_topology::generators;

fn weight(i: usize, j: usize) -> NatInf {
    NatInf::fin(((i * 7 + j * 3) % 11 + 1) as u64)
}

/// Widest paths on 130 nodes: row and column indices cross 9 → 10 and
/// 99 → 100 inside a block at both widths, every diagonal entry is `∞`
/// and the unreachable ones are `0`.
#[test]
fn blocked_digests_of_widest_paths_at_n_130() {
    let topo = generators::random_gnp(130, 0.03, 7).with_weights(weight);
    let alg = WidestPaths::new();
    let adj = AdjacencyMatrix::from_topology(&topo);
    let whole = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 130), 500);
    assert!(whole.state.entries().any(|(_, _, r)| *r == NatInf::fin(0)));
    assert!(whole.state.entries().any(|(_, _, r)| *r == NatInf::INF));
    // The blocked digest is block-width-invariant, so one value for both.
    for block in [16, 7] {
        let out = blocked_fixed_point(&alg, &adj, block, 500, |_, _, _| {});
        assert!(out.converged, "block={block}");
        assert_eq!(out.digest, "03dcefadc0ac6dc6", "block={block}");
    }
}

#[test]
fn state_digest_of_a_shortest_paths_table() {
    let topo = generators::random_gnp(110, 0.03, 11).with_weights(weight);
    let alg = ShortestPaths::new();
    let adj = AdjacencyMatrix::from_topology(&topo);
    let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 110), 500);
    assert!(out.converged);
    assert!(out.state.entries().any(|(_, _, r)| *r == NatInf::INF));
    assert_eq!(state_digest(&out.state), "b2a43a6369b6caff");
}

/// A path-vector lifting: `∞⊥` for the unreachable pairs and multi-hop
/// `value@[a→b→…]` text for the rest.
#[test]
fn state_digest_of_a_path_vector_table() {
    let n = 24;
    let topo = generators::random_gnp(n, 0.12, 5).with_weights(weight);
    let alg = PathVector::new(ShortestPaths::new(), n);
    let adj = lift_topology(&alg, &topo);
    let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 500);
    assert!(out.converged);
    let routes = || out.state.entries().map(|(_, _, r)| r);
    assert!(routes().any(|r| r.is_invalid()));
    assert!(routes().any(|r| r.path_len() > Some(2)));
    assert_eq!(state_digest(&out.state), "75f0f7c31a1e847c");
}
