//! Most-reliable paths at the bottom of the `f64` carrier.
//!
//! Two nodes whose only route to a lost destination runs through each other
//! start from a stale 0.9 each, linked at p = 0.95.  Synchronous σ decays
//! that belief by 0.95 a round; it must end at the invalid route (0), the
//! fixed point the identity start reaches.  Were `extend` to round a
//! subnormal product back onto itself (0.95 × 5e-324 = 5e-324 in IEEE
//! round-to-nearest), σ would stop on a ghost route of 4.4e-323 instead:
//! a second fixed point, which Theorem 7 rules out for a strictly
//! increasing algebra.

use dbf_algebra::prelude::*;
use dbf_matrix::prelude::*;

#[test]
fn a_lost_destination_decays_to_invalid_not_to_a_subnormal_ghost() {
    let alg = MostReliablePaths::new();
    // Nodes 0 and 1 are linked both ways; node 2 has no link at all.
    let adj = AdjacencyMatrix::from_fn(3, |i, j| (i + j == 1).then(|| alg.edge(0.95)));
    let stale = RoutingState::from_fn(3, |i, j| match (i, j) {
        _ if i == j => alg.trivial(),
        (0 | 1, 2) => Reliability::new(0.9),
        _ => alg.invalid(),
    });
    let out = iterate_to_fixed_point(&alg, &adj, &stale, 20_000);
    assert!(out.converged, "no fixed point within 20 000 rounds");
    for i in 0..2 {
        let r = out.state.get(i, 2);
        assert_eq!(
            *r,
            alg.invalid(),
            "node {i} kept a ghost route of {:e} to the lost node after {} rounds",
            r.value(),
            out.iterations
        );
    }
    // 0.9 × 0.95^k first falls to the smallest normal double or below at
    // k = 13 809, and that product is flushed to 0.
    assert_eq!(out.iterations, 13_809);
    let fresh = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 3), 20_000);
    assert!(fresh.converged);
    assert_eq!(
        out.state, fresh.state,
        "the stale start found a second fixed point"
    );
}
