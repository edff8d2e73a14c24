//! Ultrametrics over routes and routing states (Definition 9 and Lemma 3).

use dbf_algebra::properties::Violation;
use dbf_algebra::RoutingAlgebra;
use dbf_matrix::RoutingState;

/// A (bounded) ultrametric over the routes of an algebra.
///
/// The three axioms of Definition 9 are
///
/// * **M1** — `d(x, y) = 0 ⇔ x = y`,
/// * **M2** — `d(x, y) = d(y, x)`,
/// * **M3** — `d(x, z) ≤ max(d(x, y), d(y, z))` (the strong triangle
///   inequality).
///
/// Implementations must also be bounded (Definition 13); the bound is what
/// makes the orbit-distance chain of Lemma 2 finite.
pub trait RouteUltrametric<A: RoutingAlgebra> {
    /// The distance between two routes.
    fn route_distance(&self, x: &A::Route, y: &A::Route) -> u64;

    /// An upper bound `d_max` on every distance (Definition 13).
    fn bound(&self) -> u64;
}

/// The state ultrametric `D(X, Y) = maxᵢⱼ d(Xᵢⱼ, Yᵢⱼ)` (Lemma 3): if `d` is
/// an ultrametric over routes then `D` is an ultrametric over routing
/// states.
pub fn state_distance<A, M>(metric: &M, x: &RoutingState<A>, y: &RoutingState<A>) -> u64
where
    A: RoutingAlgebra,
    M: RouteUltrametric<A> + ?Sized,
{
    assert_eq!(
        x.node_count(),
        y.node_count(),
        "state dimension mismatch in state_distance"
    );
    let mut best = 0;
    for (i, j, xr) in x.entries() {
        let d = metric.route_distance(xr, y.get(i, j));
        best = best.max(d);
    }
    best
}

/// Check the ultrametric axioms M1–M3 and the bound on the given route
/// sample, returning the first violation found.
pub fn check_ultrametric_axioms<A, M>(metric: &M, routes: &[A::Route]) -> Result<(), Violation>
where
    A: RoutingAlgebra,
    M: RouteUltrametric<A> + ?Sized,
{
    for x in routes {
        for y in routes {
            let dxy = metric.route_distance(x, y);
            // M1
            if (dxy == 0) != (x == y) {
                return Err(Violation {
                    law: "M1 (d(x,y) = 0 ⇔ x = y)",
                    witness: format!("x={x:?} y={y:?} d={dxy}"),
                });
            }
            // M2
            let dyx = metric.route_distance(y, x);
            if dxy != dyx {
                return Err(Violation {
                    law: "M2 (d(x,y) = d(y,x))",
                    witness: format!("x={x:?} y={y:?}: d(x,y)={dxy} d(y,x)={dyx}"),
                });
            }
            // bound
            if dxy > metric.bound() {
                return Err(Violation {
                    law: "bounded (d(x,y) ≤ d_max)",
                    witness: format!("x={x:?} y={y:?}: d={dxy} > {}", metric.bound()),
                });
            }
            // M3
            for z in routes {
                let dxz = metric.route_distance(x, z);
                let dyz = metric.route_distance(y, z);
                if dxz > dxy.max(dyz) {
                    return Err(Violation {
                        law: "M3 (d(x,z) ≤ max(d(x,y), d(y,z)))",
                        witness: format!(
                            "x={x:?} y={y:?} z={z:?}: d(x,z)={dxz} > max({dxy}, {dyz})"
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_algebra::prelude::*;
    use dbf_matrix::RoutingState;

    /// A trivial discrete metric used to exercise the state lifting without
    /// depending on the concrete metrics defined elsewhere in the crate.
    struct Discrete;

    impl RouteUltrametric<ShortestPaths> for Discrete {
        fn route_distance(&self, x: &NatInf, y: &NatInf) -> u64 {
            u64::from(x != y)
        }
        fn bound(&self) -> u64 {
            1
        }
    }

    #[test]
    fn discrete_metric_satisfies_the_axioms() {
        let routes = vec![NatInf::fin(0), NatInf::fin(1), NatInf::fin(7), NatInf::INF];
        check_ultrametric_axioms::<ShortestPaths, _>(&Discrete, &routes).unwrap();
    }

    #[test]
    fn state_distance_is_max_over_entries() {
        let alg = ShortestPaths::new();
        let x = RoutingState::identity(&alg, 3);
        let mut y = x.clone();
        assert_eq!(state_distance(&Discrete, &x, &y), 0);
        y.set(0, 1, NatInf::fin(5));
        assert_eq!(state_distance(&Discrete, &x, &y), 1);
        assert_eq!(state_distance(&Discrete, &y, &x), 1);
    }

    #[test]
    fn axiom_checker_catches_broken_metrics() {
        /// Violates M2 (asymmetric).
        struct Asym;
        impl RouteUltrametric<ShortestPaths> for Asym {
            fn route_distance(&self, x: &NatInf, y: &NatInf) -> u64 {
                if x == y {
                    0
                } else if x.is_inf() {
                    2
                } else {
                    1
                }
            }
            fn bound(&self) -> u64 {
                2
            }
        }
        let routes = vec![NatInf::fin(0), NatInf::INF];
        let err = check_ultrametric_axioms::<ShortestPaths, _>(&Asym, &routes).unwrap_err();
        assert!(err.law.contains("M2"));

        /// Violates M1 (zero distance between distinct routes).
        struct Degenerate;
        impl RouteUltrametric<ShortestPaths> for Degenerate {
            fn route_distance(&self, _x: &NatInf, _y: &NatInf) -> u64 {
                0
            }
            fn bound(&self) -> u64 {
                0
            }
        }
        let err = check_ultrametric_axioms::<ShortestPaths, _>(&Degenerate, &routes).unwrap_err();
        assert!(err.law.contains("M1"));

        /// Violates M3: an ordinary metric that is not an ultrametric.
        struct Linear;
        impl RouteUltrametric<ShortestPaths> for Linear {
            fn route_distance(&self, x: &NatInf, y: &NatInf) -> u64 {
                match (x.as_fin(), y.as_fin()) {
                    (Some(a), Some(b)) => a.abs_diff(b),
                    (None, None) => 0,
                    _ => 1_000,
                }
            }
            fn bound(&self) -> u64 {
                1_000
            }
        }
        let routes = vec![NatInf::fin(0), NatInf::fin(3), NatInf::fin(9)];
        let err = check_ultrametric_axioms::<ShortestPaths, _>(&Linear, &routes).unwrap_err();
        assert!(err.law.contains("M3"));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn state_distance_rejects_mismatched_dimensions() {
        let alg = ShortestPaths::new();
        let x = RoutingState::identity(&alg, 2);
        let y = RoutingState::identity(&alg, 3);
        let _ = state_distance(&Discrete, &x, &y);
    }
}
