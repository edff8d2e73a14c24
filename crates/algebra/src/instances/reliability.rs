//! The most-reliable-paths algebra `([0,1], max, F_×, 0, 1)` (Table 2,
//! row 4).
//!
//! A route is the probability that every link on the path is up; the choice
//! operator is `max` (more reliable preferred), edge functions multiply by
//! the link's reliability, the trivial route has probability `1` and the
//! invalid route probability `0`.
//!
//! With link reliabilities strictly below `1` the algebra is strictly
//! increasing (every hop strictly reduces the probability) and it is
//! distributive.

use crate::algebra::{
    Distributive, Increasing, RoutingAlgebra, SampleableAlgebra, SplitMix64, StrictlyIncreasing,
};
use std::fmt;

/// A probability in `[0, 1]` with total equality (no NaN permitted), used as
/// both the route and the edge type of [`MostReliablePaths`].
#[derive(Clone, Copy, PartialEq)]
pub struct Reliability(f64);

impl Reliability {
    /// The zero probability (the invalid route).
    pub const ZERO: Reliability = Reliability(0.0);
    /// The unit probability (the trivial route).
    pub const ONE: Reliability = Reliability(1.0);

    /// Construct a reliability, clamping into `[0, 1]`.  A negative zero
    /// becomes `0.0`: the two are `==` but print differently, and equal
    /// routes must print the same text (the table digests rely on it).
    ///
    /// # Panics
    ///
    /// Panics if `p` is NaN.
    pub fn new(p: f64) -> Self {
        assert!(!p.is_nan(), "reliability must not be NaN");
        Reliability(p.clamp(0.0, 1.0) + 0.0)
    }

    /// The inner probability.
    pub fn value(&self) -> f64 {
        self.0
    }
}

// `Reliability` never holds NaN (enforced by the constructor), so `PartialEq`
// is total and promoting it to `Eq`/`Ord` is sound.
impl Eq for Reliability {}

impl PartialOrd for Reliability {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Reliability {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("Reliability is never NaN")
    }
}

impl fmt::Debug for Reliability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

impl fmt::Display for Reliability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

/// The most-reliable-paths routing algebra.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MostReliablePaths {
    _priv: (),
}

impl MostReliablePaths {
    /// Create the algebra.
    pub fn new() -> Self {
        Self { _priv: () }
    }

    /// An edge whose link is up with probability `p` (clamped to `[0, 1]`).
    ///
    /// For the algebra to be strictly increasing, `p` must be strictly less
    /// than `1`.
    pub fn edge(&self, p: f64) -> Reliability {
        Reliability::new(p)
    }
}

impl RoutingAlgebra for MostReliablePaths {
    type Route = Reliability;
    type Edge = Reliability;

    fn choice(&self, a: &Reliability, b: &Reliability) -> Reliability {
        *a.max(b)
    }

    fn extend(&self, f: &Reliability, r: &Reliability) -> Reliability {
        Reliability::new(f.0 * r.0)
    }

    fn trivial(&self) -> Reliability {
        Reliability::ONE
    }

    fn invalid(&self) -> Reliability {
        Reliability::ZERO
    }
}

impl Increasing for MostReliablePaths {}
impl StrictlyIncreasing for MostReliablePaths {}
impl Distributive for MostReliablePaths {}

impl SampleableAlgebra for MostReliablePaths {
    fn sample_routes(&self, seed: u64, count: usize) -> Vec<Reliability> {
        let mut rng = SplitMix64::new(seed);
        let mut out = vec![self.trivial(), self.invalid()];
        while out.len() < count.max(2) {
            out.push(Reliability::new(rng.next_f64()));
        }
        out
    }

    fn sample_edges(&self, seed: u64, count: usize) -> Vec<Reliability> {
        let mut rng = SplitMix64::new(seed ^ 0x5E11);
        (0..count.max(1))
            // Strictly between 0 and 1 so the algebra stays strictly
            // increasing on valid routes.
            .map(|_| Reliability::new(0.05 + 0.9 * rng.next_f64()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn constructor_clamps() {
        assert_eq!(Reliability::new(2.0), Reliability::ONE);
        assert_eq!(Reliability::new(-0.5), Reliability::ZERO);
        // `==` routes print the same text: no negative zero survives.
        assert_eq!(format!("{:?}", Reliability::new(-0.0)), "0.000000");
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn constructor_rejects_nan() {
        let _ = Reliability::new(f64::NAN);
    }

    #[test]
    fn more_reliable_routes_preferred() {
        let alg = MostReliablePaths::new();
        let hi = Reliability::new(0.9);
        let lo = Reliability::new(0.4);
        assert_eq!(alg.choice(&hi, &lo), hi);
        assert!(alg.route_lt(&hi, &lo));
    }

    #[test]
    fn extension_multiplies() {
        let alg = MostReliablePaths::new();
        let r = alg.extend(&alg.edge(0.5), &Reliability::new(0.5));
        assert!((r.value() - 0.25).abs() < 1e-12);
        assert_eq!(alg.extend(&alg.edge(0.5), &alg.invalid()), alg.invalid());
    }

    #[test]
    fn required_laws_hold_on_samples() {
        let alg = MostReliablePaths::new();
        let routes = alg.sample_routes(23, 64);
        let edges = alg.sample_edges(23, 16);
        properties::check_required_laws(&alg, &routes, &edges).unwrap();
    }

    #[test]
    fn strictly_increasing_with_lossy_links() {
        let alg = MostReliablePaths::new();
        let routes = alg.sample_routes(29, 64);
        let edges = alg.sample_edges(29, 16);
        properties::check_strictly_increasing(&alg, &edges, &routes).unwrap();
    }

    #[test]
    fn perfect_link_breaks_strict_increase() {
        let alg = MostReliablePaths::new();
        let routes = alg.sample_routes(31, 32);
        let edges = vec![alg.edge(1.0)];
        assert!(properties::check_strictly_increasing(&alg, &edges, &routes).is_err());
        properties::check_increasing(&alg, &edges, &routes).unwrap();
    }
}
