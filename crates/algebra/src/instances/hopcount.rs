//! The bounded hop-count algebra — a **finite, strictly increasing** algebra
//! modelling RIP-style distance-vector routing.
//!
//! Section 5 of the paper notes that RIP sidesteps the count-to-infinity
//! problem by "artificially limit\[ing\] the maximum hop count to 16, hence
//! ensuring that the set S is finite".  This module is exactly that
//! construction: routes are hop counts in `{0, 1, …, limit}` plus `∞`, every
//! edge adds at least one hop, and any count exceeding the limit collapses
//! to `∞`.  It therefore satisfies both hypotheses of Theorem 7 (finite
//! carrier + strictly increasing), making it the work-horse algebra of the
//! distance-vector convergence experiments.

#![warn(clippy::missing_inline_in_public_items)]

use crate::algebra::{
    Distributive, FiniteCarrier, Increasing, RoutingAlgebra, SampleableAlgebra, SplitMix64,
    StrictlyIncreasing,
};
use crate::instances::nat_inf::NatInf;

/// The bounded hop-count algebra with a configurable limit (RIP uses 15
/// reachable hops with 16 meaning unreachable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedHopCount {
    limit: u64,
}

impl BoundedHopCount {
    /// The classic RIP limit: paths longer than 15 hops are unreachable.
    pub const RIP_LIMIT: u64 = 15;

    /// Create the algebra with the given maximum reachable hop count.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0` (the algebra would contain only `0̄` and `∞̄`
    /// and no edge could be strictly increasing on `0̄`... it can, but such a
    /// degenerate network can reach nothing, so we forbid it).
    #[inline]
    pub fn new(limit: u64) -> Self {
        assert!(limit >= 1, "hop-count limit must be at least 1");
        Self { limit }
    }

    /// The RIP algebra (limit 15).
    #[inline]
    pub fn rip() -> Self {
        Self::new(Self::RIP_LIMIT)
    }

    /// The configured hop limit.
    #[inline]
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// An edge that adds `hops ≥ 1` hops.
    ///
    /// # Panics
    ///
    /// Panics if `hops == 0`.
    #[inline]
    pub fn edge(&self, hops: u64) -> u64 {
        assert!(hops >= 1, "hop-count edges must add at least one hop");
        hops
    }

    /// The single-hop edge (the common case).
    #[inline]
    pub fn hop(&self) -> u64 {
        1
    }
}

impl RoutingAlgebra for BoundedHopCount {
    type Route = NatInf;
    type Edge = u64;

    #[inline]
    fn choice(&self, a: &NatInf, b: &NatInf) -> NatInf {
        (*a).min(*b)
    }

    #[inline]
    fn extend(&self, f: &u64, r: &NatInf) -> NatInf {
        // Branch-free: ∞ absorbs the addition and then exceeds the limit
        // like any other over-long count.
        let nh = r.saturating_add(NatInf::saturated(*f));
        if nh > NatInf::saturated(self.limit) {
            NatInf::INF
        } else {
            nh
        }
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

impl Increasing for BoundedHopCount {}
impl StrictlyIncreasing for BoundedHopCount {}
impl Distributive for BoundedHopCount {}

// Enumerating a carrier allocates: cold by construction.
#[allow(clippy::missing_inline_in_public_items)]
impl FiniteCarrier for BoundedHopCount {
    fn all_routes(&self) -> Vec<NatInf> {
        let mut routes: Vec<NatInf> = (0..=self.limit).map(NatInf::fin).collect();
        routes.push(NatInf::INF);
        routes
    }
}

// Sampling allocates and draws from an RNG: cold by construction.
#[allow(clippy::missing_inline_in_public_items)]
impl SampleableAlgebra for BoundedHopCount {
    fn sample_routes(&self, seed: u64, count: usize) -> Vec<NatInf> {
        let all = self.all_routes();
        if count >= all.len() {
            return all;
        }
        let mut rng = SplitMix64::new(seed);
        let mut out = vec![self.trivial(), self.invalid()];
        while out.len() < count.max(2) {
            out.push(NatInf::fin(rng.next_below(self.limit + 1)));
        }
        out
    }

    fn sample_edges(&self, seed: u64, count: usize) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed ^ 0x40F5);
        (0..count.max(1)).map(|_| 1 + rng.next_below(3)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn carrier_is_finite_and_complete() {
        let alg = BoundedHopCount::new(4);
        let all = alg.all_routes();
        assert_eq!(all.len(), 6); // 0..=4 plus ∞
        assert!(all.contains(&alg.trivial()));
        assert!(all.contains(&alg.invalid()));
        assert_eq!(alg.carrier_size(), 6);
    }

    #[test]
    fn extension_saturates_to_invalid_past_the_limit() {
        let alg = BoundedHopCount::rip();
        assert_eq!(alg.extend(&1, &NatInf::fin(14)), NatInf::fin(15));
        assert_eq!(alg.extend(&1, &NatInf::fin(15)), NatInf::INF);
        assert_eq!(alg.extend(&1, &NatInf::INF), NatInf::INF);
        assert_eq!(alg.extend(&7, &NatInf::fin(10)), NatInf::INF);
    }

    #[test]
    fn required_and_optional_laws_hold_exhaustively() {
        let alg = BoundedHopCount::new(6);
        let routes = alg.all_routes();
        let edges = vec![1u64, 2, 3];
        properties::check_required_laws(&alg, &routes, &edges).unwrap();
        properties::check_strictly_increasing(&alg, &edges, &routes).unwrap();
        properties::check_distributive(&alg, &edges, &routes).unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn zero_hop_edge_rejected() {
        let _ = BoundedHopCount::rip().edge(0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_limit_rejected() {
        let _ = BoundedHopCount::new(0);
    }

    #[test]
    fn rip_defaults() {
        let alg = BoundedHopCount::rip();
        assert_eq!(alg.limit(), 15);
        assert_eq!(alg.hop(), 1);
        assert_eq!(alg.carrier_size(), 17);
    }
}
