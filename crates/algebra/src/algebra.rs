//! The core [`RoutingAlgebra`] trait, the derived route order, and marker
//! traits for the optional algebraic laws of Table 1 of the paper.

use std::cmp::Ordering;
use std::fmt::Debug;

/// A routing algebra `(S, ⊕, F, 0̄, ∞̄)` (Definition 1 of the paper).
///
/// Implementations carry any configuration needed by the algebra (for
/// example a hop-count limit), so all operations take `&self`.
///
/// # Required laws
///
/// Every implementation must satisfy the minimal properties of Definition 1:
///
/// * `choice` (⊕) is associative, commutative and **selective**
///   (`a ⊕ b ∈ {a, b}`),
/// * [`trivial`](Self::trivial) (0̄) is an annihilator for ⊕,
/// * [`invalid`](Self::invalid) (∞̄) is an identity for ⊕,
/// * [`invalid`](Self::invalid) is a fixed point of every edge function.
///
/// These laws are *checked*, not assumed: see [`crate::properties`], which
/// provides exhaustive checkers for finite carriers and sampling checkers
/// for infinite ones.
///
/// # Thread safety
///
/// An algebra, its routes and its edges are `Send + Sync`: σ rows of one
/// round are independent, so the σ engines share the algebra and the
/// adjacency read-only across worker threads and each worker writes the
/// routes of its own rows.
pub trait RoutingAlgebra: Send + Sync {
    /// The set of routes `S`.
    type Route: Clone + Eq + Debug + Send + Sync;

    /// The representation of edge functions (policies) `f ∈ F`.
    ///
    /// An `Edge` value denotes a function `S → S`, applied with
    /// [`extend`](Self::extend).  Missing links are *not* represented here:
    /// adjacency structures use `Option<Edge>` and treat `None` as the
    /// constant-∞̄ function, exactly as the paper represents missing edges.
    type Edge: Clone + Debug + Send + Sync;

    /// The choice operator `⊕`: returns the preferred of the two routes.
    fn choice(&self, a: &Self::Route, b: &Self::Route) -> Self::Route;

    /// Apply the edge function `f` to the route `r`, producing `f(r)`.
    fn extend(&self, f: &Self::Edge, r: &Self::Route) -> Self::Route;

    /// The trivial route `0̄` from a node to itself (the minimum of `≤`).
    fn trivial(&self) -> Self::Route;

    /// The invalid route `∞̄` (the maximum of `≤`).
    fn invalid(&self) -> Self::Route;

    /// Is `r` the invalid route?
    fn is_invalid(&self, r: &Self::Route) -> bool {
        *r == self.invalid()
    }

    /// Is `r` the trivial route?
    fn is_trivial(&self, r: &Self::Route) -> bool {
        *r == self.trivial()
    }

    /// The derived preference order: `a ≤ b ⇔ a ⊕ b = a` (smaller is
    /// better).
    fn route_le(&self, a: &Self::Route, b: &Self::Route) -> bool {
        self.choice(a, b) == *a
    }

    /// The strict derived order: `a < b ⇔ a ≤ b ∧ a ≠ b`.
    fn route_lt(&self, a: &Self::Route, b: &Self::Route) -> bool {
        a != b && self.route_le(a, b)
    }

    /// Total comparison of routes under the derived order.
    ///
    /// Because ⊕ is associative, commutative and selective, `≤` is a total
    /// order, so this is a genuine [`Ordering`].
    fn route_cmp(&self, a: &Self::Route, b: &Self::Route) -> Ordering {
        if a == b {
            Ordering::Equal
        } else if self.route_le(a, b) {
            Ordering::Less
        } else {
            Ordering::Greater
        }
    }

    /// The best (⊕-fold) of an iterator of routes; `∞̄` if empty.
    fn choice_all<I>(&self, routes: I) -> Self::Route
    where
        I: IntoIterator<Item = Self::Route>,
    {
        let mut acc = self.invalid();
        for r in routes {
            acc = self.choice(&acc, &r);
        }
        acc
    }
}

/// Extension trait giving convenient, allocation-free access to the derived
/// order as key-extraction for sorting collections of routes.
pub trait RouteOrdering: RoutingAlgebra {
    /// Sort a slice of routes from most preferred to least preferred.
    fn sort_routes(&self, routes: &mut [Self::Route]) {
        routes.sort_by(|a, b| self.route_cmp(a, b));
    }

    /// The most preferred route of a non-empty slice, or `∞̄` when empty.
    fn best_of(&self, routes: &[Self::Route]) -> Self::Route {
        self.choice_all(routes.iter().cloned())
    }

    /// True iff the slice is sorted from most to least preferred.
    fn is_sorted_by_preference(&self, routes: &[Self::Route]) -> bool {
        routes
            .windows(2)
            .all(|w| self.route_cmp(&w[0], &w[1]) != Ordering::Greater)
    }
}

impl<A: RoutingAlgebra + ?Sized> RouteOrdering for A {}

/// Marker trait: the algebra is **increasing** (Definition 2):
/// `∀ f ∈ F, a ∈ S. a ≤ f(a)`.
///
/// Increasing algebras are the ones for which the path-vector convergence
/// theorem (Theorem 11) applies once a `path` function is available.
/// Implementations assert the law; [`crate::properties::check_increasing`]
/// verifies it executably.
pub trait Increasing: RoutingAlgebra {}

/// Marker trait: the algebra is **strictly increasing** (Definition 3):
/// `∀ f ∈ F, a ∈ S \ {∞̄}. a < f(a)`.
///
/// Strictly increasing algebras with finite carriers are exactly the ones
/// for which the distance-vector convergence theorem (Theorem 7) applies.
pub trait StrictlyIncreasing: Increasing {}

/// Marker trait: the algebra is **distributive**:
/// `∀ f ∈ F, a b ∈ S. f(a ⊕ b) = f(a) ⊕ f(b)` (Equation 1 of the paper).
///
/// Distributive algebras are the classical ("policy-poor") case in which
/// Bellman-Ford computes *globally* optimal routes; policy-rich algebras
/// deliberately violate this law and only achieve local optima.
pub trait Distributive: RoutingAlgebra {}

/// An algebra whose carrier `S` is finite and can be enumerated.
///
/// Finiteness is the second hypothesis of Theorem 7 and is what makes the
/// height function `h(x) = |{y ∈ S | x ≤ y}|` of Section 4.1 well defined.
pub trait FiniteCarrier: RoutingAlgebra {
    /// Every route in `S`, in no particular order, without duplicates.
    fn all_routes(&self) -> Vec<Self::Route>;

    /// The size of the carrier, `|S|`.
    fn carrier_size(&self) -> usize {
        self.all_routes().len()
    }
}

/// An algebra able to produce representative samples of routes and edge
/// functions from a deterministic seed.
///
/// This is how infinite-carrier algebras participate in the property
/// checkers and property-based tests: the laws are checked on large sampled
/// subsets rather than exhaustively.  Samples must be deterministic in
/// `seed` so that failures are reproducible.
pub trait SampleableAlgebra: RoutingAlgebra {
    /// A deterministic sample of routes containing at least `0̄` and `∞̄`.
    fn sample_routes(&self, seed: u64, count: usize) -> Vec<Self::Route>;

    /// A deterministic sample of edge functions.
    fn sample_edges(&self, seed: u64, count: usize) -> Vec<Self::Edge>;
}

/// A tiny, dependency-free, deterministic pseudo-random number generator
/// (SplitMix64) used by [`SampleableAlgebra`] implementations.
///
/// Using an internal generator keeps the core crate free of the `rand`
/// dependency while still giving well-distributed, reproducible samples.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value uniformly distributed in `[0, bound)`; `0` when `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// A uniformly distributed `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A boolean that is true with probability `p`.
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::nat_inf::NatInf;
    use crate::instances::shortest::ShortestPaths;

    #[test]
    fn derived_order_is_total_on_samples() {
        let alg = ShortestPaths::new();
        let routes = [NatInf::fin(0), NatInf::fin(3), NatInf::fin(7), NatInf::INF];
        for a in &routes {
            for b in &routes {
                let ab = alg.route_cmp(a, b);
                let ba = alg.route_cmp(b, a);
                assert_eq!(ab, ba.reverse(), "antisymmetry of route_cmp");
                if a == b {
                    assert_eq!(ab, Ordering::Equal);
                }
            }
        }
    }

    #[test]
    fn trivial_is_minimum_invalid_is_maximum() {
        let alg = ShortestPaths::new();
        let samples = [
            NatInf::fin(0),
            NatInf::fin(1),
            NatInf::fin(100),
            NatInf::INF,
        ];
        for r in &samples {
            assert!(alg.route_le(&alg.trivial(), r), "0̄ ≤ {r:?}");
            assert!(alg.route_le(r, &alg.invalid()), "{r:?} ≤ ∞̄");
        }
    }

    #[test]
    fn choice_all_of_empty_is_invalid() {
        let alg = ShortestPaths::new();
        assert_eq!(alg.choice_all(std::iter::empty()), alg.invalid());
    }

    #[test]
    fn choice_all_picks_minimum() {
        let alg = ShortestPaths::new();
        let routes = vec![NatInf::fin(9), NatInf::fin(2), NatInf::fin(5)];
        assert_eq!(alg.choice_all(routes), NatInf::fin(2));
    }

    #[test]
    fn sort_routes_orders_by_preference() {
        let alg = ShortestPaths::new();
        let mut routes = vec![NatInf::INF, NatInf::fin(4), NatInf::fin(1)];
        alg.sort_routes(&mut routes);
        assert_eq!(routes, vec![NatInf::fin(1), NatInf::fin(4), NatInf::INF]);
        assert!(alg.is_sorted_by_preference(&routes));
    }

    #[test]
    fn best_of_empty_is_invalid() {
        let alg = ShortestPaths::new();
        assert_eq!(alg.best_of(&[]), NatInf::INF);
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_f64_in_unit_interval() {
        let mut g = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn splitmix_below_respects_bound() {
        let mut g = SplitMix64::new(1);
        for _ in 0..1000 {
            assert!(g.next_below(17) < 17);
        }
        assert_eq!(g.next_below(0), 0);
    }
}
