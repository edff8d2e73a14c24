//! Contraction checkers (Definitions 10–12) and the constructive
//! convergence bound of Lemma 2.
//!
//! Theorem 4 of the paper reduces absolute convergence of the asynchronous
//! iterate `δ` to three checkable facts about the *synchronous* operator
//! `σ` under a bounded state ultrametric `D`:
//!
//! 1. `D` is bounded;
//! 2. `σ` is **strictly contracting on orbits**:
//!    `X ≠ σ(X) ⇒ D(X, σX) > D(σX, σ²X)`;
//! 3. `σ` is **strictly contracting on its fixed point**:
//!    `X ≠ X* ⇒ D(X*, X) > D(X*, σX)`.
//!
//! This module provides executable checkers for those conditions (and for
//! the stronger "strictly contracting on every pair" property that holds in
//! the distance-vector case, Lemma 6), plus [`orbit_distance_chain`], the
//! strictly decreasing chain of Lemma 2 whose length bounds the number of
//! synchronous iterations to the fixed point.

use crate::ultrametric::{state_distance, RouteUltrametric};
use dbf_algebra::RoutingAlgebra;
use dbf_matrix::{sigma, AdjacencyMatrix, RoutingState};
use std::fmt;

/// A witnessed violation of a contraction property.
#[derive(Debug, Clone)]
pub struct ContractionViolation {
    /// Which property was violated.
    pub property: &'static str,
    /// Human-readable description of the witnessing states and distances.
    pub witness: String,
}

impl fmt::Display for ContractionViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violated: {}", self.property, self.witness)
    }
}

impl std::error::Error for ContractionViolation {}

/// Check that `σ` is strictly contracting (Lemma 6's conclusion) on every
/// pair of distinct states in the sample:
/// `X ≠ Y ⇒ D(X, Y) > D(σX, σY)`.
pub fn check_strictly_contracting<A, M>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    metric: &M,
    states: &[RoutingState<A>],
) -> Result<(), ContractionViolation>
where
    A: RoutingAlgebra,
    M: RouteUltrametric<A>,
{
    let images: Vec<RoutingState<A>> = states.iter().map(|x| sigma(alg, adj, x)).collect();
    for (ix, x) in states.iter().enumerate() {
        for (iy, y) in states.iter().enumerate() {
            if x == y {
                continue;
            }
            let before = state_distance(metric, x, y);
            let after = state_distance(metric, &images[ix], &images[iy]);
            if after >= before {
                return Err(ContractionViolation {
                    property: "strictly contracting (D(X,Y) > D(σX,σY))",
                    witness: format!("states #{ix} and #{iy}: before={before}, after={after}"),
                });
            }
        }
    }
    Ok(())
}

/// Check that `σ` is strictly contracting **on orbits** (Definition 11) for
/// every state in the sample: `X ≠ σX ⇒ D(X, σX) > D(σX, σ²X)`.
pub fn check_strictly_contracting_on_orbits<A, M>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    metric: &M,
    states: &[RoutingState<A>],
) -> Result<(), ContractionViolation>
where
    A: RoutingAlgebra,
    M: RouteUltrametric<A>,
{
    for (ix, x) in states.iter().enumerate() {
        let sx = sigma(alg, adj, x);
        if sx == *x {
            continue;
        }
        let ssx = sigma(alg, adj, &sx);
        let before = state_distance(metric, x, &sx);
        let after = state_distance(metric, &sx, &ssx);
        if after >= before {
            return Err(ContractionViolation {
                property: "strictly contracting on orbits (D(X,σX) > D(σX,σ²X))",
                witness: format!("state #{ix}: D(X,σX)={before}, D(σX,σ²X)={after}"),
            });
        }
    }
    Ok(())
}

/// Check that `σ` is strictly contracting **on its fixed point**
/// (Definition 12) for every state in the sample:
/// `X ≠ X* ⇒ D(X*, X) > D(X*, σX)`.
pub fn check_contracting_on_fixed_point<A, M>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    metric: &M,
    fixed_point: &RoutingState<A>,
    states: &[RoutingState<A>],
) -> Result<(), ContractionViolation>
where
    A: RoutingAlgebra,
    M: RouteUltrametric<A>,
{
    let sfp = sigma(alg, adj, fixed_point);
    if sfp != *fixed_point {
        return Err(ContractionViolation {
            property: "fixed point",
            witness: "the supplied state X* is not actually a fixed point of σ".to_string(),
        });
    }
    for (ix, x) in states.iter().enumerate() {
        if x == fixed_point {
            continue;
        }
        let sx = sigma(alg, adj, x);
        let before = state_distance(metric, fixed_point, x);
        let after = state_distance(metric, fixed_point, &sx);
        if after >= before {
            return Err(ContractionViolation {
                property: "strictly contracting on the fixed point (D(X*,X) > D(X*,σX))",
                witness: format!("state #{ix}: D(X*,X)={before}, D(X*,σX)={after}"),
            });
        }
    }
    Ok(())
}

/// The orbit distance chain of Lemma 2: the sequence
/// `D(X, σX), D(σX, σ²X), …` computed until it reaches `0` (a fixed point)
/// or `max_steps` entries have been produced.
///
/// For a metric under which `σ` is strictly contracting on orbits this chain
/// is strictly decreasing, so its length — and therefore the number of
/// synchronous iterations to the fixed point — is at most `D(X, σX) ≤ d_max`.
pub fn orbit_distance_chain<A, M>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    metric: &M,
    x0: &RoutingState<A>,
    max_steps: usize,
) -> Vec<u64>
where
    A: RoutingAlgebra,
    M: RouteUltrametric<A>,
{
    let mut chain = Vec::new();
    let mut cur = x0.clone();
    for _ in 0..max_steps {
        let next = sigma(alg, adj, &cur);
        let d = state_distance(metric, &cur, &next);
        if d == 0 {
            break;
        }
        chain.push(d);
        cur = next;
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::height::HeightMetric;
    use crate::path_metric::PathVectorMetric;
    use dbf_algebra::algebra::SplitMix64;
    use dbf_algebra::prelude::*;
    use dbf_algebra::{FiniteCarrier, SampleableAlgebra};
    use dbf_matrix::prelude::*;
    use dbf_paths::prelude::*;
    use dbf_topology::generators;

    /// Random (generally inconsistent) states of a finite-carrier algebra.
    fn random_hopcount_states(
        alg: &BoundedHopCount,
        n: usize,
        count: usize,
        seed: u64,
    ) -> Vec<RoutingState<BoundedHopCount>> {
        let carrier = alg.all_routes();
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|_| {
                RoutingState::from_fn(n, |_i, _j| {
                    carrier[rng.next_below(carrier.len() as u64) as usize]
                })
            })
            .collect()
    }

    #[test]
    fn lemma6_distance_vector_sigma_is_strictly_contracting() {
        let alg = BoundedHopCount::new(6);
        let topo = generators::ring(4).with_weights(|_, _| 1u64);
        let adj = AdjacencyMatrix::from_topology(&topo);
        let metric = HeightMetric::new(alg);
        let mut states = random_hopcount_states(&alg, 4, 12, 99);
        states.push(RoutingState::identity(&alg, 4));
        check_strictly_contracting(&alg, &adj, &metric, &states).unwrap();
        check_strictly_contracting_on_orbits(&alg, &adj, &metric, &states).unwrap();
        let fp = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 4), 100);
        assert!(fp.converged);
        check_contracting_on_fixed_point(&alg, &adj, &metric, &fp.state, &states).unwrap();
    }

    #[test]
    fn lemma2_the_orbit_chain_is_strictly_decreasing_and_bounded() {
        let alg = BoundedHopCount::new(8);
        let topo = generators::line(6).with_weights(|_, _| 1u64);
        let adj = AdjacencyMatrix::from_topology(&topo);
        let metric = HeightMetric::new(alg);
        for (k, x0) in random_hopcount_states(&alg, 6, 6, 3)
            .into_iter()
            .chain(std::iter::once(RoutingState::identity(&alg, 6)))
            .enumerate()
        {
            let chain = orbit_distance_chain(&alg, &adj, &metric, &x0, 200);
            for w in chain.windows(2) {
                assert!(
                    w[0] > w[1],
                    "chain must strictly decrease (state {k}): {chain:?}"
                );
            }
            if let Some(first) = chain.first() {
                assert!(*first <= metric.bound());
                assert!(chain.len() as u64 <= *first, "Lemma 2 bound");
            }
        }
    }

    #[test]
    fn lemma9_and_10_path_vector_contraction_on_orbits_and_fixed_point() {
        type Pv = PathVector<ShortestPaths>;
        let pv: Pv = PathVector::new(ShortestPaths::new(), 4);
        let topo =
            generators::ring(4).with_weights(|i, j| NatInf::fin(((i * 2 + j) % 4 + 1) as u64));
        let adj = lift_topology(&pv, &topo);
        let metric = PathVectorMetric::new(pv, &adj);
        let pv: Pv = PathVector::new(ShortestPaths::new(), 4);

        // A mixture of inconsistent sampled states and the clean state.
        let sampled_routes = pv.sample_routes(5, 64);
        let mut rng = SplitMix64::new(17);
        let mut states: Vec<RoutingState<Pv>> = (0..8)
            .map(|_| {
                RoutingState::from_fn(4, |i, j| {
                    if i == j {
                        pv.trivial()
                    } else {
                        sampled_routes[rng.next_below(sampled_routes.len() as u64) as usize].clone()
                    }
                })
            })
            .collect();
        states.push(RoutingState::identity(&pv, 4));

        // Lemma 9: strictly contracting on orbits.
        check_strictly_contracting_on_orbits(&pv, &adj, &metric, &states).unwrap();

        // Lemma 10: strictly contracting on the fixed point.
        let fp = iterate_to_fixed_point(&pv, &adj, &RoutingState::identity(&pv, 4), 100);
        assert!(fp.converged);
        check_contracting_on_fixed_point(&pv, &adj, &metric, &fp.state, &states).unwrap();
    }

    #[test]
    fn a_non_increasing_algebra_fails_the_contraction_check() {
        // Shortest paths with a zero-weight (identity) edge is increasing
        // but not strictly increasing; with the height metric over a
        // *truncated* carrier this breaks strict contraction, and the
        // checker reports it.  (We use the bounded hop-count algebra with a
        // zero-hop edge to stay within a finite carrier.)
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct LazyHop;
        impl RoutingAlgebra for LazyHop {
            type Route = NatInf;
            type Edge = u64;
            fn choice(&self, a: &NatInf, b: &NatInf) -> NatInf {
                (*a).min(*b)
            }
            fn extend(&self, f: &u64, r: &NatInf) -> NatInf {
                r.as_fin()
                    .map(|h| h + f)
                    .filter(|&nh| nh <= 4)
                    .map_or(NatInf::INF, NatInf::fin)
            }
            fn trivial(&self) -> NatInf {
                NatInf::ZERO
            }
            fn invalid(&self) -> NatInf {
                NatInf::INF
            }
        }
        impl FiniteCarrier for LazyHop {
            fn all_routes(&self) -> Vec<NatInf> {
                let mut v: Vec<NatInf> = (0..=4).map(NatInf::fin).collect();
                v.push(NatInf::INF);
                v
            }
        }

        let alg = LazyHop;
        let metric = HeightMetric::new(alg);
        // Nodes 0 and 1 are joined by zero-weight (identity) edges and node
        // 2 is unreachable: stale routes towards 2 bounce between 0 and 1
        // forever without changing, so the disagreement between two such
        // states never shrinks.
        let mut topo = dbf_topology::Topology::new(3);
        topo.set_link(0, 1, 0u64);
        let adj = AdjacencyMatrix::from_topology(&topo);
        let mut x = RoutingState::identity(&alg, 3);
        x.set(0, 2, NatInf::fin(1));
        x.set(1, 2, NatInf::fin(1));
        let mut y = RoutingState::identity(&alg, 3);
        y.set(0, 2, NatInf::fin(2));
        y.set(1, 2, NatInf::fin(2));
        let err = check_strictly_contracting(&alg, &adj, &metric, &[x, y]);
        assert!(
            err.is_err(),
            "zero-weight edges must break strict contraction"
        );
    }

    #[test]
    fn violation_display_is_informative() {
        let v = ContractionViolation {
            property: "strictly contracting",
            witness: "states #0 and #1".to_string(),
        };
        assert!(v.to_string().contains("strictly contracting"));
        assert!(v.to_string().contains("#1"));
    }
}
