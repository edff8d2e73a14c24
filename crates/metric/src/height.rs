//! The distance-vector ultrametric of Section 4.1, built from the height
//! function over a finite carrier.
//!
//! For a finite carrier `S`, the **height** of a route is
//! `h(x) = |{y ∈ S | x ≤ y}|`: the trivial route has the maximum height
//! `H = |S|` and the invalid route has the minimum height `1`.  The route
//! distance is then
//!
//! ```text
//! d(x, y) = 0                    if x = y
//!         = max(h(x), h(y))      otherwise
//! ```
//!
//! — a disagreement involving a *desirable* route matters more than one
//! between undesirable routes, because desirable routes are the ones other
//! nodes will adopt and propagate.  Lemma 5 shows `d` is an ultrametric and
//! Lemma 6 shows `σ` is strictly contracting under the induced state
//! distance whenever the algebra is strictly increasing; both are verified
//! executably by this crate's tests and by experiment F1.

use crate::ultrametric::RouteUltrametric;
use dbf_algebra::{FiniteCarrier, RoutingAlgebra};

/// The height-based route ultrametric over a finite carrier.
#[derive(Clone, Debug)]
pub struct HeightMetric<A: RoutingAlgebra> {
    alg: A,
    /// The carrier sorted from most preferred (the trivial route) to least
    /// preferred (the invalid route).
    sorted: Vec<A::Route>,
}

impl<A: FiniteCarrier> HeightMetric<A> {
    /// Build the metric by enumerating and sorting the algebra's carrier.
    pub fn new(alg: A) -> Self {
        let routes = dbf_algebra::distinct_routes(&alg);
        Self::from_routes(alg, routes)
    }
}

impl<A: RoutingAlgebra> HeightMetric<A> {
    /// Build the metric from an explicit finite set of routes (used by the
    /// path-vector metric, whose "carrier" is the finite set of consistent
    /// routes of a concrete network rather than the full algebra carrier).
    pub fn from_routes(alg: A, mut routes: Vec<A::Route>) -> Self {
        routes.sort_by(|a, b| alg.route_cmp(a, b));
        routes.dedup();
        Self {
            alg,
            sorted: routes,
        }
    }

    /// The maximum height `H = h(0̄)`.
    pub fn max_height(&self) -> u64 {
        self.sorted.len() as u64
    }

    /// The height `h(x) = |{y | x ≤ y}|` of a route.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in the carrier the metric was built from.
    pub fn height(&self, x: &A::Route) -> u64 {
        let idx = self
            .sorted
            .binary_search_by(|probe| self.alg.route_cmp(probe, x))
            .unwrap_or_else(|_| panic!("route {x:?} is not in the carrier of this height metric"));
        (self.sorted.len() - idx) as u64
    }

    /// Does the carrier contain this route?
    pub fn contains(&self, x: &A::Route) -> bool {
        self.sorted
            .binary_search_by(|probe| self.alg.route_cmp(probe, x))
            .is_ok()
    }

    /// The carrier, sorted from most to least preferred.
    pub fn carrier(&self) -> &[A::Route] {
        &self.sorted
    }

    /// The underlying algebra.
    pub fn algebra(&self) -> &A {
        &self.alg
    }
}

impl<A: RoutingAlgebra> RouteUltrametric<A> for HeightMetric<A> {
    fn route_distance(&self, x: &A::Route, y: &A::Route) -> u64 {
        if x == y {
            0
        } else {
            self.height(x).max(self.height(y))
        }
    }

    fn bound(&self) -> u64 {
        self.max_height()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ultrametric::check_ultrametric_axioms;
    use dbf_algebra::prelude::*;

    fn metric(limit: u64) -> HeightMetric<BoundedHopCount> {
        HeightMetric::new(BoundedHopCount::new(limit))
    }

    #[test]
    fn heights_of_distinguished_routes() {
        let m = metric(6);
        let alg = BoundedHopCount::new(6);
        // carrier = {0,…,6, ∞}: 8 routes
        assert_eq!(m.max_height(), 8);
        assert_eq!(m.height(&alg.trivial()), 8, "h(0̄) = H");
        assert_eq!(m.height(&alg.invalid()), 1, "h(∞̄) = 1");
        assert_eq!(m.height(&NatInf::fin(3)), 5);
        assert!(m.contains(&NatInf::fin(6)));
        assert!(!m.contains(&NatInf::fin(7)));
        assert_eq!(m.carrier().len(), 8);
        assert_eq!(m.algebra().limit(), 6);
    }

    #[test]
    fn heights_decrease_as_preference_decreases() {
        let m = metric(9);
        let alg = BoundedHopCount::new(9);
        let carrier = alg.all_routes();
        for a in &carrier {
            for b in &carrier {
                if alg.route_lt(a, b) {
                    assert!(
                        m.height(a) > m.height(b),
                        "more preferred routes must be higher: {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn distance_follows_the_paper_definition() {
        let m = metric(6);
        assert_eq!(m.route_distance(&NatInf::fin(2), &NatInf::fin(2)), 0);
        // d(x, y) = max(h(x), h(y)) = h(best of the two)
        assert_eq!(
            m.route_distance(&NatInf::fin(2), &NatInf::INF),
            m.height(&NatInf::fin(2))
        );
        assert_eq!(
            m.route_distance(&NatInf::fin(2), &NatInf::fin(5)),
            m.height(&NatInf::fin(2))
        );
        assert!(
            m.route_distance(&NatInf::fin(0), &NatInf::fin(1))
                > m.route_distance(&NatInf::fin(5), &NatInf::fin(6))
        );
    }

    #[test]
    fn the_height_metric_is_a_bounded_ultrametric() {
        // Lemma 5, exhaustively on the whole carrier.
        let m = metric(7);
        let carrier = BoundedHopCount::new(7).all_routes();
        check_ultrametric_axioms::<BoundedHopCount, _>(&m, &carrier).unwrap();
    }

    #[test]
    #[should_panic(expected = "not in the carrier")]
    fn heights_of_foreign_routes_panic() {
        let m = metric(3);
        let _ = m.height(&NatInf::fin(200));
    }

    #[test]
    fn from_routes_builds_a_metric_over_an_explicit_set() {
        let alg = ShortestPaths::new();
        let m = HeightMetric::from_routes(
            alg,
            vec![
                NatInf::INF,
                NatInf::fin(10),
                NatInf::fin(3),
                NatInf::fin(10),
            ],
        );
        // deduplicated and sorted: [3, 10, ∞]
        assert_eq!(m.max_height(), 3);
        assert_eq!(m.height(&NatInf::fin(3)), 3);
        assert_eq!(m.height(&NatInf::fin(10)), 2);
        assert_eq!(m.height(&NatInf::INF), 1);
    }
}
