//! Integration tests reproducing the paper's tables directly:
//!
//! * **Table 1** — the algebraic property matrix for every bundled algebra
//!   (which laws are required, which optional ones each algebra satisfies);
//! * **Table 2** — each example algebra solves its stated path problem:
//!   the DBF fixed point matches an independent exhaustive-path oracle for
//!   the distributive algebras.

use dbf_routing::algebra::combinators::prod::DirectProduct;
use dbf_routing::algebra::instances::longest::LongestPaths;
use dbf_routing::algebra::properties::PropertyReport;
use dbf_routing::prelude::*;
use dbf_routing::topology::generators;

#[test]
fn table1_property_matrix_for_the_bundled_algebras() {
    // (name, report, expect_increasing, expect_strictly, expect_distributive)
    let rows = vec![
        (
            PropertyReport::analyse("shortest-paths", &ShortestPaths::new(), 1, 48, 16),
            true,
            true,
            true,
        ),
        (
            PropertyReport::analyse("longest-paths", &LongestPaths::new(), 2, 48, 16),
            false,
            false,
            true,
        ),
        (
            PropertyReport::analyse("widest-paths", &WidestPaths::new(), 3, 48, 16),
            true,
            false,
            true,
        ),
        (
            PropertyReport::analyse("most-reliable", &MostReliablePaths::new(), 4, 48, 16),
            true,
            true,
            true,
        ),
        (
            PropertyReport::analyse_exhaustive("hop-count(15)", &BoundedHopCount::rip(), 5, 16),
            true,
            true,
            true,
        ),
        (
            PropertyReport::analyse(
                "filtered-shortest",
                &FilteredShortestPaths::new(),
                6,
                48,
                24,
            ),
            true,
            true,
            false,
        ),
        (
            PropertyReport::analyse(
                "stratified-shortest",
                &StratifiedShortestPaths::new(),
                7,
                48,
                24,
            ),
            true,
            true,
            false,
        ),
        (
            PropertyReport::analyse("bgp-section7", &BgpAlgebra::new(5), 8, 48, 24),
            true,
            true,
            false,
        ),
        (
            PropertyReport::analyse("gao-rexford", &GaoRexford::new(5), 9, 48, 24),
            true,
            true,
            false,
        ),
        (
            PropertyReport::analyse(
                "path-vector(shortest)",
                &PathVector::new(ShortestPaths::new(), 5),
                10,
                48,
                24,
            ),
            true,
            true,
            false,
        ),
    ];

    for (report, incr, strict, distr) in rows {
        assert!(
            report.satisfies_required_laws(),
            "{}: every bundled algebra must satisfy the Definition 1 laws",
            report.algebra
        );
        assert_eq!(
            report.increasing.holds(),
            incr,
            "{}: increasing",
            report.algebra
        );
        assert_eq!(
            report.strictly_increasing.holds(),
            strict,
            "{}: strictly increasing",
            report.algebra
        );
        assert_eq!(
            report.distributive.holds(),
            distr,
            "{}: distributive",
            report.algebra
        );
    }

    // The deliberately broken direct product is rejected by the checkers.
    let broken = PropertyReport::analyse(
        "direct-product (broken)",
        &DirectProduct::new(WidestPaths::new(), ShortestPaths::new()),
        11,
        32,
        8,
    );
    assert!(!broken.satisfies_required_laws());
    assert!(!broken.selective.holds());
}

#[test]
fn table2_algebras_solve_their_path_problems() {
    let shape = generators::connected_random(6, 0.5, 13);

    // shortest paths: min-plus
    {
        let alg = ShortestPaths::new();
        let topo = shape.with_weights(|i, j| NatInf::fin(((i * 7 + j * 3) % 9 + 1) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 6), 100);
        assert!(out.converged);
        assert_eq!(out.state, exhaustive_path_optimum(&alg, &adj));
    }

    // widest paths: max-min (bottleneck bandwidth)
    {
        let alg = WidestPaths::new();
        let topo = shape.with_weights(|i, j| NatInf::fin(((i * 5 + j) % 50 + 10) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 6), 100);
        assert!(out.converged);
        assert_eq!(out.state, exhaustive_path_optimum(&alg, &adj));
    }

    // most reliable paths: max-times
    {
        let alg = MostReliablePaths::new();
        let topo =
            shape.with_weights(|i, j| alg.edge(0.5 + 0.45 * (((i * 3 + j) % 10) as f64) / 10.0));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 6), 100);
        assert!(out.converged);
        assert_eq!(out.state, exhaustive_path_optimum(&alg, &adj));
        // reachability sanity: every pair on a connected graph has a
        // non-zero success probability
        for (i, j, r) in out.state.entries() {
            if i != j {
                assert!(r.value() > 0.0, "({i},{j}) should be reachable");
            }
        }
    }

    // bounded hop count (the RIP algebra): agrees with unbounded shortest
    // paths under unit weights because the network is small
    {
        let alg = BoundedHopCount::rip();
        let topo = shape.with_weights(|_, _| 1u64);
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 6), 100);
        assert!(out.converged);

        let unit = ShortestPaths::new();
        let unit_topo = shape.with_weights(|_, _| NatInf::fin(1));
        let unit_adj = AdjacencyMatrix::from_topology(&unit_topo);
        let unit_out =
            iterate_to_fixed_point(&unit, &unit_adj, &RoutingState::identity(&unit, 6), 100);
        for (i, j, r) in out.state.entries() {
            assert_eq!(r, unit_out.state.get(i, j), "hop counts agree at ({i},{j})");
        }
    }

    // longest paths (the non-increasing row of Table 2): satisfies the
    // required laws but its fixed point on a cyclic graph is the degenerate
    // all-∞ state, unlike the exhaustive simple-path optimum
    {
        let alg = LongestPaths::new();
        let topo = shape.with_weights(|_, _| NatInf::fin(1));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 6), 400);
        if out.converged {
            for (i, j, r) in out.state.entries() {
                if i != j {
                    assert_eq!(r, &NatInf::INF);
                }
            }
        }
    }
}
