//! The widest-paths (maximum bottleneck bandwidth) algebra
//! `(ℕ∞, max, F_min, 0, ∞)` (Table 2, row 3).
//!
//! A route is the bottleneck bandwidth of a path; the choice operator is
//! `max` (larger bandwidth preferred), edge functions take the `min` of the
//! route with the edge capacity, the trivial route is `∞` (a node reaches
//! itself with unbounded bandwidth) and the invalid route is `0`.
//!
//! The algebra is **increasing but not strictly increasing**
//! (`min(w, a) = a` whenever `a ≤ w`), and it is distributive.  It is the
//! paper's example (Section 8.1) of a non-distributive-free algebra that
//! nevertheless converges faster than the general `O(n²)` bound — and here
//! it serves as the canonical increasing-but-not-strict algebra for
//! exercising Theorem 11 through the path-vector lifting.

#![warn(clippy::missing_inline_in_public_items)]

use crate::algebra::{Distributive, Increasing, RoutingAlgebra, SampleableAlgebra, SplitMix64};
use crate::instances::nat_inf::NatInf;

/// The widest-paths routing algebra.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WidestPaths {
    _priv: (),
}

impl WidestPaths {
    /// Create the algebra.
    #[inline]
    pub fn new() -> Self {
        Self { _priv: () }
    }

    /// An edge of capacity `c` (the route is throttled to `min(c, route)`).
    #[inline]
    pub fn edge(&self, c: u64) -> NatInf {
        NatInf::fin(c)
    }
}

impl RoutingAlgebra for WidestPaths {
    type Route = NatInf;
    type Edge = NatInf;

    #[inline]
    fn choice(&self, a: &NatInf, b: &NatInf) -> NatInf {
        (*a).max(*b)
    }

    #[inline]
    fn extend(&self, f: &NatInf, r: &NatInf) -> NatInf {
        // min with the capacity; the invalid route 0 is automatically fixed.
        (*f).min(*r)
    }

    #[inline]
    fn trivial(&self) -> NatInf {
        NatInf::INF
    }

    #[inline]
    fn invalid(&self) -> NatInf {
        NatInf::ZERO
    }
}

impl Increasing for WidestPaths {}
impl Distributive for WidestPaths {}

// Sampling allocates and draws from an RNG: cold by construction.
#[allow(clippy::missing_inline_in_public_items)]
impl SampleableAlgebra for WidestPaths {
    fn sample_routes(&self, seed: u64, count: usize) -> Vec<NatInf> {
        let mut rng = SplitMix64::new(seed);
        let mut out = vec![self.trivial(), self.invalid()];
        while out.len() < count.max(2) {
            out.push(NatInf::fin(1 + rng.next_below(10_000)));
        }
        out
    }

    fn sample_edges(&self, seed: u64, count: usize) -> Vec<NatInf> {
        let mut rng = SplitMix64::new(seed ^ 0x71DE);
        let mut out = vec![NatInf::INF];
        while out.len() < count.max(1) {
            out.push(NatInf::fin(1 + rng.next_below(10_000)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn wider_routes_are_preferred() {
        let alg = WidestPaths::new();
        assert!(alg.route_lt(&NatInf::fin(100), &NatInf::fin(10)));
        assert_eq!(
            alg.choice(&NatInf::fin(100), &NatInf::fin(10)),
            NatInf::fin(100)
        );
    }

    #[test]
    fn extension_is_bottleneck() {
        let alg = WidestPaths::new();
        assert_eq!(
            alg.extend(&alg.edge(30), &NatInf::fin(100)),
            NatInf::fin(30)
        );
        assert_eq!(
            alg.extend(&alg.edge(300), &NatInf::fin(100)),
            NatInf::fin(100)
        );
        assert_eq!(alg.extend(&alg.edge(300), &alg.invalid()), alg.invalid());
        // An edge of unbounded capacity is the identity on valid routes.
        assert_eq!(alg.extend(&NatInf::INF, &NatInf::fin(7)), NatInf::fin(7));
    }

    #[test]
    fn required_laws_hold_on_samples() {
        let alg = WidestPaths::new();
        let routes = alg.sample_routes(13, 64);
        let edges = alg.sample_edges(13, 16);
        properties::check_required_laws(&alg, &routes, &edges).unwrap();
    }

    #[test]
    fn increasing_but_not_strictly() {
        let alg = WidestPaths::new();
        let routes = alg.sample_routes(17, 64);
        let edges = alg.sample_edges(17, 16);
        properties::check_increasing(&alg, &edges, &routes).unwrap();
        assert!(
            properties::check_strictly_increasing(&alg, &edges, &routes).is_err(),
            "a wide edge leaves narrow routes unchanged, so strict increase must fail"
        );
    }

    #[test]
    fn distributive_on_samples() {
        let alg = WidestPaths::new();
        let routes = alg.sample_routes(19, 64);
        let edges = alg.sample_edges(19, 16);
        properties::check_distributive(&alg, &edges, &routes).unwrap();
    }
}
