//! Shortest paths with route filtering and conditional policies — the
//! canonical **policy-rich** (distributivity-violating) algebra of
//! Section 1 of the paper.
//!
//! Edge functions are small policy programs over distance routes:
//!
//! * `Add(w)` — the plain additive edge of the shortest-paths algebra;
//! * `Reject` — route filtering (`h(r) = ∞̄` in the paper's terminology);
//! * `IfBelow { threshold, then_pol, else_pol }` — the conditional route map
//!   `f(r) = if P(r) then g(r) else h(r)` of Equation 2, with the predicate
//!   `P(r) = r < threshold` standing in for "does this route carry community
//!   17?".
//!
//! As the paper shows, such conditionals readily violate distributivity
//! (Equation 1) while preserving the *strictly increasing* property as long
//! as every leaf policy is strictly increasing — both facts are demonstrated
//! by the tests and by experiment E1.

use crate::algebra::{
    Increasing, RoutingAlgebra, SampleableAlgebra, SplitMix64, StrictlyIncreasing,
};
use crate::instances::nat_inf::NatInf;

/// A policy applied when a route is imported across an edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterPolicy {
    /// Add a fixed weight to the route (must be `≥ 1` for strict increase).
    Add(u64),
    /// Filter the route: the result is the invalid route.
    Reject,
    /// Conditional route map: if the incoming distance is strictly below
    /// `threshold` apply `then_pol`, otherwise apply `else_pol`
    /// (Equation 2 of the paper).
    IfBelow {
        /// The predicate threshold.
        threshold: u64,
        /// Policy applied when the predicate holds.
        then_pol: Box<FilterPolicy>,
        /// Policy applied when the predicate fails.
        else_pol: Box<FilterPolicy>,
    },
}

impl FilterPolicy {
    /// Convenience constructor for the conditional policy.
    pub fn if_below(threshold: u64, then_pol: FilterPolicy, else_pol: FilterPolicy) -> Self {
        FilterPolicy::IfBelow {
            threshold,
            then_pol: Box::new(then_pol),
            else_pol: Box::new(else_pol),
        }
    }

    /// True if every leaf `Add` weight is at least one, which is sufficient
    /// for the policy to be strictly increasing on valid routes.
    pub fn is_structurally_strictly_increasing(&self) -> bool {
        match self {
            FilterPolicy::Add(w) => *w >= 1,
            FilterPolicy::Reject => true,
            FilterPolicy::IfBelow {
                then_pol, else_pol, ..
            } => {
                then_pol.is_structurally_strictly_increasing()
                    && else_pol.is_structurally_strictly_increasing()
            }
        }
    }

    /// The nesting depth of the policy program (a crude complexity measure
    /// used by the benchmarks).
    pub fn depth(&self) -> usize {
        match self {
            FilterPolicy::Add(_) | FilterPolicy::Reject => 1,
            FilterPolicy::IfBelow {
                then_pol, else_pol, ..
            } => 1 + then_pol.depth().max(else_pol.depth()),
        }
    }
}

/// Shortest paths with filtering and conditional policies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilteredShortestPaths {
    _priv: (),
}

impl FilteredShortestPaths {
    /// Create the algebra.
    pub fn new() -> Self {
        Self { _priv: () }
    }

    /// Apply a policy to a (valid, finite) distance.
    fn apply(&self, pol: &FilterPolicy, dist: u64) -> NatInf {
        match pol {
            FilterPolicy::Add(w) => NatInf::saturated(dist.saturating_add(*w)),
            FilterPolicy::Reject => NatInf::INF,
            FilterPolicy::IfBelow {
                threshold,
                then_pol,
                else_pol,
            } => {
                if dist < *threshold {
                    self.apply(then_pol, dist)
                } else {
                    self.apply(else_pol, dist)
                }
            }
        }
    }
}

impl RoutingAlgebra for FilteredShortestPaths {
    type Route = NatInf;
    type Edge = FilterPolicy;

    fn choice(&self, a: &NatInf, b: &NatInf) -> NatInf {
        (*a).min(*b)
    }

    fn extend(&self, f: &FilterPolicy, r: &NatInf) -> NatInf {
        match r.as_fin() {
            None => NatInf::INF,
            Some(d) => self.apply(f, d),
        }
    }

    fn trivial(&self) -> NatInf {
        NatInf::ZERO
    }

    fn invalid(&self) -> NatInf {
        NatInf::INF
    }
}

// The marker impls assert the laws for policies whose leaf `Add` weights are
// all >= 1 (see `FilterPolicy::is_structurally_strictly_increasing`); the
// sampled edges below respect that invariant and the property checkers
// verify it.
impl Increasing for FilteredShortestPaths {}
impl StrictlyIncreasing for FilteredShortestPaths {}

impl SampleableAlgebra for FilteredShortestPaths {
    fn sample_routes(&self, seed: u64, count: usize) -> Vec<NatInf> {
        let mut rng = SplitMix64::new(seed);
        let mut out = vec![self.trivial(), self.invalid()];
        while out.len() < count.max(2) {
            out.push(NatInf::fin(rng.next_below(200)));
        }
        out
    }

    fn sample_edges(&self, seed: u64, count: usize) -> Vec<FilterPolicy> {
        let mut rng = SplitMix64::new(seed ^ 0xF117);
        let mut out = Vec::with_capacity(count.max(1));
        while out.len() < count.max(1) {
            let pol = match rng.next_below(4) {
                0 => FilterPolicy::Add(1 + rng.next_below(20)),
                1 => FilterPolicy::Reject,
                2 => FilterPolicy::if_below(
                    rng.next_below(100),
                    FilterPolicy::Add(1 + rng.next_below(20)),
                    FilterPolicy::Add(1 + rng.next_below(20)),
                ),
                _ => FilterPolicy::if_below(
                    rng.next_below(100),
                    FilterPolicy::Add(1 + rng.next_below(20)),
                    FilterPolicy::Reject,
                ),
            };
            out.push(pol);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn plain_add_behaves_like_shortest_paths() {
        let alg = FilteredShortestPaths::new();
        assert_eq!(
            alg.extend(&FilterPolicy::Add(3), &NatInf::fin(4)),
            NatInf::fin(7)
        );
    }

    #[test]
    fn reject_filters_routes() {
        let alg = FilteredShortestPaths::new();
        assert_eq!(
            alg.extend(&FilterPolicy::Reject, &NatInf::fin(4)),
            NatInf::INF
        );
        assert_eq!(alg.extend(&FilterPolicy::Reject, &NatInf::INF), NatInf::INF);
    }

    #[test]
    fn conditional_dispatches_on_threshold() {
        let alg = FilteredShortestPaths::new();
        let pol = FilterPolicy::if_below(10, FilterPolicy::Add(1), FilterPolicy::Add(100));
        assert_eq!(alg.extend(&pol, &NatInf::fin(5)), NatInf::fin(6));
        assert_eq!(alg.extend(&pol, &NatInf::fin(50)), NatInf::fin(150));
    }

    #[test]
    fn required_laws_hold_on_samples() {
        let alg = FilteredShortestPaths::new();
        let routes = alg.sample_routes(37, 64);
        let edges = alg.sample_edges(37, 24);
        properties::check_required_laws(&alg, &routes, &edges).unwrap();
    }

    #[test]
    fn strictly_increasing_but_not_distributive() {
        let alg = FilteredShortestPaths::new();
        let routes = alg.sample_routes(41, 64);
        let edges = alg.sample_edges(41, 24);
        properties::check_strictly_increasing(&alg, &edges, &routes).unwrap();

        // The section 1 example: the conditional policy violates Eq 1.
        // f(r) = if r < 5 then r + 100 else r + 1
        let f = FilterPolicy::if_below(5, FilterPolicy::Add(100), FilterPolicy::Add(1));
        let a = NatInf::fin(3); // P(a) holds
        let b = NatInf::fin(7); // P(b) fails
        let lhs = alg.extend(&f, &alg.choice(&a, &b)); // f(best(a,b)) = f(3) = 103
        let rhs = alg.choice(&alg.extend(&f, &a), &alg.extend(&f, &b)); // best(103, 8) = 8
        assert_ne!(lhs, rhs, "conditional policies violate distributivity");
        assert!(properties::check_distributive(&alg, &[f], &[a, b]).is_err());
    }

    #[test]
    fn conditional_of_strictly_increasing_policies_is_strictly_increasing() {
        // The closure property claimed in Section 1: if g and h are strictly
        // increasing then so is `if P then g else h`.
        let alg = FilteredShortestPaths::new();
        let g = FilterPolicy::Add(7);
        let h = FilterPolicy::Reject;
        let f = FilterPolicy::if_below(42, g, h);
        assert!(f.is_structurally_strictly_increasing());
        let routes = alg.sample_routes(43, 128);
        properties::check_strictly_increasing(&alg, &[f], &routes).unwrap();
    }

    #[test]
    fn policy_depth_is_computed() {
        let pol = FilterPolicy::if_below(
            5,
            FilterPolicy::if_below(2, FilterPolicy::Add(1), FilterPolicy::Reject),
            FilterPolicy::Add(3),
        );
        assert_eq!(pol.depth(), 3);
        assert_eq!(FilterPolicy::Reject.depth(), 1);
    }
}
