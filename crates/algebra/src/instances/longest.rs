//! The longest-paths algebra `(ℕ∞, max, F₊, 0, ∞)` (Table 2, row 2).
//!
//! The choice operator is `max`, so *larger is preferred*: the trivial route
//! `0̄` is `∞` (annihilator of `max`) and the invalid route `∞̄` is `0`
//! (identity of `max`).  Edge functions add their weight to valid routes and
//! fix the invalid route.
//!
//! The algebra satisfies the required laws of Definition 1 but it is **not
//! increasing**: extending a valid route makes it numerically larger and
//! therefore *more* preferred, violating `a ≤ f(a)`.  It is included as the
//! canonical negative example — none of the convergence theorems apply, and
//! the experiments show the synchronous iteration failing to reach a fixed
//! point on cyclic topologies.

use crate::algebra::{RoutingAlgebra, SampleableAlgebra, SplitMix64};
use crate::instances::nat_inf::NatInf;

/// The longest-paths routing algebra (a non-increasing negative example).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LongestPaths {
    _priv: (),
}

impl LongestPaths {
    /// Create the algebra.
    pub fn new() -> Self {
        Self { _priv: () }
    }

    /// An additive edge of weight `w`.
    pub fn edge(&self, w: u64) -> NatInf {
        NatInf::fin(w)
    }
}

impl RoutingAlgebra for LongestPaths {
    type Route = NatInf;
    type Edge = NatInf;

    fn choice(&self, a: &NatInf, b: &NatInf) -> NatInf {
        (*a).max(*b)
    }

    fn extend(&self, f: &NatInf, r: &NatInf) -> NatInf {
        // The invalid route (0) is a fixed point of every edge function:
        // you cannot lengthen a route that does not exist.
        if *r == NatInf::ZERO {
            NatInf::ZERO
        } else {
            f.saturating_add(*r)
        }
    }

    fn trivial(&self) -> NatInf {
        NatInf::INF
    }

    fn invalid(&self) -> NatInf {
        NatInf::ZERO
    }
}

impl SampleableAlgebra for LongestPaths {
    fn sample_routes(&self, seed: u64, count: usize) -> Vec<NatInf> {
        let mut rng = SplitMix64::new(seed);
        let mut out = vec![self.trivial(), self.invalid()];
        while out.len() < count.max(2) {
            out.push(NatInf::fin(1 + rng.next_below(1_000)));
        }
        out
    }

    fn sample_edges(&self, seed: u64, count: usize) -> Vec<NatInf> {
        let mut rng = SplitMix64::new(seed ^ 0xA11E);
        (0..count.max(1))
            .map(|_| NatInf::fin(1 + rng.next_below(100)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn preference_order_is_reversed() {
        let alg = LongestPaths::new();
        // larger is preferred
        assert!(alg.route_lt(&NatInf::fin(9), &NatInf::fin(3)));
        assert!(alg.route_le(&alg.trivial(), &NatInf::fin(3)));
        assert!(alg.route_le(&NatInf::fin(3), &alg.invalid()));
    }

    #[test]
    fn invalid_route_is_fixed_by_extension() {
        let alg = LongestPaths::new();
        assert_eq!(alg.extend(&alg.edge(5), &alg.invalid()), alg.invalid());
        assert_eq!(alg.extend(&alg.edge(5), &NatInf::fin(2)), NatInf::fin(7));
    }

    #[test]
    fn required_laws_hold_on_samples() {
        let alg = LongestPaths::new();
        let routes = alg.sample_routes(5, 64);
        let edges = alg.sample_edges(5, 16);
        properties::check_required_laws(&alg, &routes, &edges)
            .expect("longest paths satisfies the Definition 1 laws");
    }

    #[test]
    fn longest_paths_is_not_increasing() {
        let alg = LongestPaths::new();
        let routes = alg.sample_routes(9, 64);
        let edges = alg.sample_edges(9, 16);
        assert!(
            properties::check_increasing(&alg, &edges, &routes).is_err(),
            "extending a valid route makes it more preferred, so the algebra must fail the \
             increasing check"
        );
    }
}
