//! The classical shortest-paths algebra `(ℕ∞, min, F₊, 0, ∞)` (Table 2).
//!
//! Routes are distances, the choice operator is `min`, edge functions add a
//! weight, the trivial route is distance `0` and the invalid route is `∞`.
//!
//! With all edge weights `≥ 1` the algebra is *strictly increasing* and
//! *distributive*, but its carrier is infinite — this is exactly the algebra
//! the paper uses to motivate path-vector protocols: Theorem 7 does not
//! apply (infinite carrier), and indeed plain distance-vector shortest paths
//! suffers count-to-infinity when started from arbitrary states (Section 5).

#![warn(clippy::missing_inline_in_public_items)]

use crate::algebra::{
    Distributive, Increasing, RoutingAlgebra, SampleableAlgebra, SplitMix64, StrictlyIncreasing,
};
use crate::instances::nat_inf::NatInf;

/// The shortest-paths routing algebra.
///
/// Edge functions are additive weights.  For the algebra to be strictly
/// increasing every weight used in a network must be at least
/// [`ShortestPaths::MIN_STRICT_WEIGHT`]; [`ShortestPaths::edge`] enforces
/// this, while [`ShortestPaths::raw_edge`] permits arbitrary weights
/// (including `0`, which breaks strict monotonicity) for use in negative
/// tests and property-checker demonstrations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShortestPaths {
    _priv: (),
}

impl ShortestPaths {
    /// The smallest weight for which edge functions are strictly increasing.
    pub const MIN_STRICT_WEIGHT: u64 = 1;

    /// Create the algebra.
    #[inline]
    pub fn new() -> Self {
        Self { _priv: () }
    }

    /// An additive edge of weight `w ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`; use [`Self::raw_edge`] if you deliberately need a
    /// non-increasing edge.
    #[inline]
    pub fn edge(&self, w: u64) -> NatInf {
        assert!(
            w >= Self::MIN_STRICT_WEIGHT,
            "shortest-path edge weights must be >= 1 to keep the algebra strictly increasing; \
             use raw_edge for experimental zero-weight edges"
        );
        NatInf::fin(w)
    }

    /// An additive edge of arbitrary weight, including `0` (the identity
    /// function, which violates strict increase) and `∞` (the constant-∞
    /// filter).
    #[inline]
    pub fn raw_edge(&self, w: NatInf) -> NatInf {
        w
    }

    /// The always-filtering edge (constant `∞` function), used to model a
    /// missing or administratively down link.
    #[inline]
    pub fn unreachable_edge(&self) -> NatInf {
        NatInf::INF
    }
}

impl RoutingAlgebra for ShortestPaths {
    type Route = NatInf;
    type Edge = NatInf;

    #[inline]
    fn choice(&self, a: &NatInf, b: &NatInf) -> NatInf {
        (*a).min(*b)
    }

    #[inline]
    fn extend(&self, f: &NatInf, r: &NatInf) -> NatInf {
        // ∞ absorbs, so it is a fixed point of every edge function.
        f.saturating_add(*r)
    }

    #[inline]
    fn trivial(&self) -> NatInf {
        NatInf::ZERO
    }

    #[inline]
    fn invalid(&self) -> NatInf {
        NatInf::INF
    }
}

// With positive weights f_w(a) = w + a > a for finite a, and distance
// addition distributes over min.
impl Increasing for ShortestPaths {}
impl StrictlyIncreasing for ShortestPaths {}
impl Distributive for ShortestPaths {}

// Sampling allocates and draws from an RNG: cold by construction.
#[allow(clippy::missing_inline_in_public_items)]
impl SampleableAlgebra for ShortestPaths {
    fn sample_routes(&self, seed: u64, count: usize) -> Vec<NatInf> {
        let mut rng = SplitMix64::new(seed);
        let mut out = vec![self.trivial(), self.invalid()];
        while out.len() < count.max(2) {
            out.push(NatInf::fin(rng.next_below(1_000)));
        }
        out
    }

    fn sample_edges(&self, seed: u64, count: usize) -> Vec<NatInf> {
        let mut rng = SplitMix64::new(seed ^ 0xD1F7);
        let mut out = vec![NatInf::INF];
        while out.len() < count.max(1) {
            out.push(NatInf::fin(1 + rng.next_below(100)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn choice_is_min() {
        let alg = ShortestPaths::new();
        assert_eq!(alg.choice(&NatInf::fin(3), &NatInf::fin(8)), NatInf::fin(3));
        assert_eq!(alg.choice(&NatInf::INF, &NatInf::fin(8)), NatInf::fin(8));
    }

    #[test]
    fn extension_adds_weight_and_fixes_infinity() {
        let alg = ShortestPaths::new();
        let f = alg.edge(4);
        assert_eq!(alg.extend(&f, &NatInf::fin(6)), NatInf::fin(10));
        assert_eq!(alg.extend(&f, &NatInf::INF), NatInf::INF);
        assert_eq!(
            alg.extend(&alg.unreachable_edge(), &NatInf::fin(6)),
            NatInf::INF
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn zero_weight_edge_is_rejected() {
        let _ = ShortestPaths::new().edge(0);
    }

    #[test]
    fn raw_edge_permits_zero_weight() {
        let alg = ShortestPaths::new();
        let id = alg.raw_edge(NatInf::fin(0));
        assert_eq!(alg.extend(&id, &NatInf::fin(5)), NatInf::fin(5));
    }

    #[test]
    fn required_laws_hold_on_samples() {
        let alg = ShortestPaths::new();
        let routes = alg.sample_routes(7, 64);
        let edges = alg.sample_edges(7, 16);
        properties::check_required_laws(&alg, &routes, &edges)
            .expect("shortest paths satisfies the Definition 1 laws");
    }

    #[test]
    fn strictly_increasing_and_distributive_on_samples() {
        let alg = ShortestPaths::new();
        let routes = alg.sample_routes(11, 64);
        let edges = alg.sample_edges(11, 16);
        properties::check_strictly_increasing(&alg, &edges, &routes).unwrap();
        properties::check_distributive(&alg, &edges, &routes).unwrap();
    }

    #[test]
    fn zero_weight_edge_breaks_strict_increase() {
        let alg = ShortestPaths::new();
        let routes = alg.sample_routes(3, 32);
        let edges = vec![alg.raw_edge(NatInf::fin(0))];
        assert!(properties::check_strictly_increasing(&alg, &edges, &routes).is_err());
        // ... but it is still (non-strictly) increasing.
        properties::check_increasing(&alg, &edges, &routes).unwrap();
    }
}
