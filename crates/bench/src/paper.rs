//! The paper's artifacts, one deterministic experiment each: Tables 1–2,
//! Figures 1–2, and the behaviour Theorems 7 and 11 (and the sections
//! around them) predict.  Each writes the rows `expected/<id>.txt` pins.

use crate::*;
use dbf_algebra::combinators::prod::DirectProduct;
use dbf_algebra::instances::longest::LongestPaths;
use dbf_algebra::properties::{check_increasing, check_strictly_increasing, PropertyReport};
use dbf_async::convergence::{check_absolute_convergence, schedule_ensemble};
use dbf_async::prelude::*;
use dbf_bgp::policy::Policy;
use dbf_metric::prelude::*;
use dbf_paths::prelude::*;
use dbf_protocols::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Display;

/// Every deterministic experiment, in the order a bare `experiments` runs
/// them.
pub const EXPERIMENTS: [(&str, Experiment); 13] = [
    ("table1", table1),
    ("table2", table2),
    ("figure1", figure1),
    ("figure2", figure2),
    ("eq1", eq1),
    ("theorem7", theorem7),
    ("count_to_infinity", count_to_infinity),
    ("theorem11", theorem11),
    ("section7", section7),
    ("gadgets", gadgets),
    ("gao_rexford", gao_rexford),
    ("rate", rate),
    ("robustness", robustness),
];

/// Widest paths' capacities in T2: `(11 i + 5 j) mod 90 + 10`.
const CAPACITIES: WeightRule = WeightRule {
    mul_i: 11,
    mul_j: 5,
    modulus: 90,
    base: 10,
};

/// Most reliable paths' T2 links succeed with probability `0.5 + 0.045 k`,
/// `k = (3 i + j) mod 10`.
const RELIABILITIES: WeightRule = WeightRule {
    mul_i: 3,
    mul_j: 1,
    modulus: 10,
    base: 0,
};

/// Did a message engine's run end on σ's fixed point?  The engines report
/// their tables; the verdict is the caller's.
fn on_fixed_point<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    state: &RoutingState<A>,
) -> bool {
    let n = adj.node_count();
    let x0 = RoutingState::identity(alg, n);
    let reference = iterate_to_fixed_point(alg, adj, &x0, iteration_budget(n, None));
    reference.converged && *state == reference.state
}

/// T1 — Table 1: the algebraic property matrix of every bundled algebra.
fn table1(out: &mut String) -> fmt::Result {
    writeln!(
        out,
        "\n== Experiment T1 (Table 1): algebraic property matrix =="
    )?;
    writeln!(out, "{}", PropertyReport::summary_header())?;
    let reports = [
        PropertyReport::analyse("shortest-paths", &ShortestPaths::new(), 1, 64, 16),
        PropertyReport::analyse("longest-paths", &LongestPaths::new(), 2, 64, 16),
        PropertyReport::analyse("widest-paths", &WidestPaths::new(), 3, 64, 16),
        PropertyReport::analyse("most-reliable-paths", &MostReliablePaths::new(), 4, 64, 16),
        PropertyReport::analyse_exhaustive("bounded-hop-count(15)", &BoundedHopCount::rip(), 5, 16),
        PropertyReport::analyse(
            "filtered-shortest-paths",
            &FilteredShortestPaths::new(),
            6,
            64,
            24,
        ),
        PropertyReport::analyse(
            "stratified-shortest-paths",
            &StratifiedShortestPaths::new(),
            7,
            64,
            24,
        ),
        PropertyReport::analyse("bgp-section7(5)", &BgpAlgebra::new(5), 8, 64, 24),
        PropertyReport::analyse("gao-rexford(5)", &GaoRexford::new(5), 9, 64, 24),
        PropertyReport::analyse(
            "path-vector(shortest,5)",
            &PathVector::new(ShortestPaths::new(), 5),
            10,
            64,
            24,
        ),
        PropertyReport::analyse(
            "direct-product (broken)",
            &DirectProduct::new(WidestPaths::new(), ShortestPaths::new()),
            11,
            48,
            12,
        ),
    ];
    for r in &reports {
        writeln!(out, "{}", r.summary_row())?;
    }
    writeln!(
        out,
        "(✓/✗ per property; the direct product demonstrates the checkers rejecting a non-algebra)"
    )
}

/// σ from the identity, with T2's budget.
fn solve<A: RoutingAlgebra>(alg: &A, adj: &AdjacencyMatrix<A>) -> SyncOutcome<A> {
    iterate_to_fixed_point(
        alg,
        adj,
        &RoutingState::identity(alg, adj.node_count()),
        200,
    )
}

/// A T2 row for an algebra whose fixed point is the exhaustive simple-path
/// optimum (enumerated up to n = 8).
fn optimum_row<A: RoutingAlgebra>(name: &str, alg: &A, topo: &Topology<A::Edge>) -> (String, String)
where
    A::Edge: Clone,
{
    let n = topo.node_count();
    let adj = AdjacencyMatrix::from_topology(topo);
    let fixed = solve(alg, &adj);
    let oracle = if n <= 8 {
        (fixed.state == exhaustive_path_optimum(alg, &adj)).to_string()
    } else {
        "skipped".into()
    };
    (
        format!("{name}, n={n}"),
        format!(
            "iterations={} converged={} oracle={oracle}",
            fixed.iterations, fixed.converged
        ),
    )
}

/// T2 — Table 2: each example algebra solves its path problem.  The
/// distributive algebras' fixed points are the exhaustive-path optimum;
/// hop count is shortest paths under unit weights; longest paths, which is
/// not increasing, ends on the degenerate all-∞ state (its trivial route
/// everywhere), since every graph here contains a cycle.
fn table2(out: &mut String) -> fmt::Result {
    let mut rows = Vec::new();
    for n in [6usize, 10, 14] {
        let varied = random_network(n, 21, WeightRule::varied(), NatInf::fin);
        rows.push(optimum_row(
            "shortest paths",
            &ShortestPaths::new(),
            &varied,
        ));
        let capacities = random_network(n, 22, CAPACITIES, NatInf::fin);
        rows.push(optimum_row(
            "widest paths",
            &WidestPaths::new(),
            &capacities,
        ));
        let reliable = MostReliablePaths::new();
        let links = random_network(n, 23, RELIABILITIES, |k| {
            reliable.edge(0.5 + 0.045 * k as f64)
        });
        rows.push(optimum_row("most reliable paths", &reliable, &links));

        let hops = random_network(n, 24, WeightRule::uniform(1), |w| w);
        let unit = random_network(n, 24, WeightRule::uniform(1), NatInf::fin);
        let hop_count = solve(
            &BoundedHopCount::new(15),
            &AdjacencyMatrix::from_topology(&hops),
        );
        let shortest = solve(
            &ShortestPaths::new(),
            &AdjacencyMatrix::from_topology(&unit),
        );
        let agrees = hop_count
            .state
            .entries()
            .all(|(i, j, r)| r == shortest.state.get(i, j));
        rows.push((
            format!("bounded hop count, n={n}"),
            format!(
                "iterations={} converged={} equals-unit-shortest={agrees}",
                hop_count.iterations, hop_count.converged
            ),
        ));
        let longest = solve(&LongestPaths::new(), &AdjacencyMatrix::from_topology(&unit));
        let degenerate = longest.state.entries().all(|(_, _, r)| *r == NatInf::INF);
        rows.push((
            format!("longest paths, n={n}"),
            format!(
                "iterations={} converged={} degenerate-all-∞={degenerate}",
                longest.iterations, longest.converged
            ),
        ));
    }
    write_table(
        out,
        "Experiment T2 (Table 2): example algebras solve their path problems",
        ("workload", "result"),
        &rows,
    )
}

/// One Figure 1 row: the algebra, then each link of the chain.
fn chain_row(out: &mut String, cells: [&dyn Display; 5]) -> fmt::Result {
    let [algebra, strictly, ultra, contraction, absolute] = cells;
    writeln!(
        out,
        "{algebra:<30} {strictly:>10} {ultra:>12} {contraction:>12} {absolute:>12}"
    )
}

/// F1 — Figure 1: the implication chain, exercised per algebra.
fn figure1(out: &mut String) -> fmt::Result {
    writeln!(out, "\n== Experiment F1 (Figure 1): strictly increasing ⇒ ultrametric ⇒ contraction ⇒ absolute convergence ==")?;
    chain_row(
        out,
        [
            &"algebra",
            &"strictly↑",
            &"ultrametric",
            &"contraction",
            &"abs.conv",
        ],
    )?;

    // Distance-vector instance: bounded hop count.
    {
        let n = 5;
        let alg = BoundedHopCount::new(8);
        let adj =
            AdjacencyMatrix::from_topology(&random_network(n, 31, WeightRule::uniform(1), |w| w));
        let routes = alg.all_routes();
        let strictly = check_strictly_increasing(&alg, &alg.sample_edges(1, 8), &routes).is_ok();
        let metric = HeightMetric::new(alg);
        let ultra = check_ultrametric_axioms::<BoundedHopCount, _>(&metric, &routes).is_ok();
        let states = random_states(&alg, n, 6, 33);
        let contraction =
            check_strictly_contracting_on_orbits(&alg, &adj, &metric, &states).is_ok();
        let schedules = schedule_ensemble(n, 300, 3, 35);
        let absolute = check_absolute_convergence(&alg, &adj, &states, &schedules).is_ok();
        let name = "hop-count (Theorem 7)";
        chain_row(out, [&name, &strictly, &ultra, &contraction, &absolute])?;
    }

    // Path-vector instance: the Section 7 algebra.
    {
        let n = 4;
        let (alg, adj) = policy_rich_network(n, 37);
        let routes = alg.sample_routes(2, 48);
        let strictly = check_strictly_increasing(&alg, &alg.sample_edges(2, 16), &routes).is_ok();
        let metric = PathVectorMetric::new(alg, &adj);
        let ultra = check_ultrametric_axioms::<BgpAlgebra, _>(&metric, &routes).is_ok();
        let states = random_states(&alg, n, 5, 39);
        let contraction =
            check_strictly_contracting_on_orbits(&alg, &adj, &metric, &states).is_ok();
        let schedules = schedule_ensemble(n, 250, 3, 41);
        let absolute = check_absolute_convergence(&alg, &adj, &states, &schedules).is_ok();
        let name = "bgp-section7 (Theorem 11)";
        chain_row(out, [&name, &strictly, &ultra, &contraction, &absolute])?;
    }

    // Negative control: the DISAGREE gadget breaks the chain at the first
    // link and at the last.
    let alg = SppAlgebra::disagree();
    let mut routes = vec![alg.trivial(), alg.invalid()];
    routes.push(alg.extend(&alg.edge(1, 0), &alg.trivial()));
    routes.push(alg.extend(&alg.edge(2, 0), &alg.trivial()));
    let edges: Vec<_> = (0..3)
        .flat_map(|i| (0..3).filter(move |&j| j != i).map(move |j| (i, j)))
        .map(|(i, j)| alg.edge(i, j))
        .collect();
    let increasing = check_increasing(&alg, &edges, &routes).is_ok();
    let x0 = RoutingState::identity(&alg, 3);
    let schedules = disagree_schedules(50);
    let absolute = check_absolute_convergence(&alg, &alg.adjacency(), &[x0], &schedules).is_ok();
    let name = "DISAGREE gadget (control)";
    chain_row(out, [&name, &increasing, &"—", &"—", &absolute])
}

/// F2 — Figure 2: the structure of the path-vector ultrametric.
fn figure2(out: &mut String) -> fmt::Result {
    let mut rows = Vec::new();
    for n in [3usize, 4, 5] {
        let alg = PathVector::new(ShortestPaths::new(), n);
        let adj = lift_topology(
            &alg,
            &random_network(n, 43, WeightRule::varied(), NatInf::fin),
        );
        let metric = PathVectorMetric::new(alg, &adj);
        let mut routes = alg.sample_routes(5, 48);
        routes.extend(metric.consistent_routes().iter().take(24).cloned());
        let axioms =
            check_ultrametric_axioms::<PathVector<ShortestPaths>, _>(&metric, &routes).is_ok();
        rows.push((
            format!("path-vector(shortest), n={n}"),
            format!(
                "|S_c|=H_c={} H_i={} bound={} M1–M3+bounded={}",
                metric.consistent_height_max(),
                metric.inconsistent_height_max(),
                metric.bound(),
                axioms
            ),
        ));
    }
    write_table(
        out,
        "Experiment F2 (Figure 2): consistent/inconsistent ultrametric structure",
        ("metric", "quantities"),
        &rows,
    )
}

/// E1 — the Equation 1 distributivity violation of Section 1.
fn eq1(out: &mut String) -> fmt::Result {
    let alg = FilteredShortestPaths::new();
    let f = FilterPolicy::if_below(5, FilterPolicy::Add(100), FilterPolicy::Add(1));
    let a = NatInf::fin(3);
    let b = NatInf::fin(7);
    let lhs = alg.extend(&f, &alg.choice(&a, &b));
    let rhs = alg.choice(&alg.extend(&f, &a), &alg.extend(&f, &b));
    let strictly = check_strictly_increasing(&alg, &[f], &alg.sample_routes(1, 64)).is_ok();
    write_table(
        out,
        "Experiment E1 (Section 1, Eq 1): conditional policies violate distributivity",
        ("expression", "value"),
        &[
            ("policy f".into(), "if r < 5 then r+100 else r+1".into()),
            ("a, b".into(), format!("{a:?}, {b:?}")),
            ("sender side   f(a ⊕ b)".into(), format!("{lhs:?}")),
            ("receiver side f(a) ⊕ f(b)".into(), format!("{rhs:?}")),
            ("distributive?".into(), format!("{}", lhs == rhs)),
            ("strictly increasing still?".into(), format!("{strictly}")),
        ],
    )
}

/// E2 — Theorem 7: distance-vector absolute convergence.
fn theorem7(out: &mut String) -> fmt::Result {
    let mut rows = Vec::new();
    for n in [5usize, 8, 12] {
        let alg = BoundedHopCount::new(15);
        let adj =
            AdjacencyMatrix::from_topology(&random_network(n, 51, WeightRule::uniform(1), |w| w));
        let states = random_states(&alg, n, 4, 53);
        let schedules = schedule_ensemble(n, 400, 4, 55);
        let runs = states.len() * schedules.len();
        let result = check_absolute_convergence(&alg, &adj, &states, &schedules);
        rows.push((
            format!("hop-count(15) on G(n={n})"),
            match result {
                Ok(r) => format!(
                    "unique fixed point over {} runs ({} states × {} schedules)",
                    r.runs,
                    states.len(),
                    schedules.len()
                ),
                Err(e) => format!("FAILED after {runs} runs: {e}"),
            },
        ));
    }
    write_table(
        out,
        "Experiment E2 (Theorem 7): finite strictly increasing ⇒ absolute convergence of δ",
        ("workload", "outcome"),
        &rows,
    )
}

/// E3 — count-to-infinity and its cures.  Nodes 0 and 1 are linked; node
/// 2 has gone, but both still hold a stale route to it through the other.
/// Unbounded distance-vector counts up forever; RIP's hop limit (Theorem
/// 7's finite carrier) stops the count; the path-vector lifting (Theorem
/// 11) drops the looping routes after one exchange.
fn count_to_infinity(out: &mut String) -> fmt::Result {
    // unbounded DV
    let alg = ShortestPaths::new();
    let adj = AdjacencyMatrix::<ShortestPaths>::from_fn(3, |i, j| {
        if matches!((i, j), (0, 1) | (1, 0)) {
            Some(NatInf::fin(1))
        } else {
            None
        }
    });
    let mut stale = RoutingState::identity(&alg, 3);
    stale.set(0, 2, NatInf::fin(5));
    stale.set(1, 2, NatInf::fin(5));
    let unbounded = run_delta(&alg, &adj, &stale, &Schedule::synchronous(3, 300));

    // RIP cure
    let mut shape = Topology::new(3);
    shape.set_link(0, 1, ());
    let rip = RipEngine::new(
        &shape,
        RipConfig {
            split_horizon: SplitHorizon::Off,
            route_timeout: u64::MAX / 4,
            max_time: 20_000,
            ..RipConfig::default()
        },
    )
    .with_stale_route(0, 2, NatInf::fin(5), Some(1))
    .with_stale_route(1, 2, NatInf::fin(5), Some(0))
    .run();
    let rip_adj = AdjacencyMatrix::from_topology(&shape.with_weights(|_, _| 1u64));
    let rip_converged = on_fixed_point(&BoundedHopCount::rip(), &rip_adj, &rip.final_state);

    // path-vector cure
    let pv = PathVector::new(ShortestPaths::new(), 3);
    let mut topo3 = Topology::new(3);
    topo3.set_link(0, 1, NatInf::fin(1));
    let adj_pv = lift_topology(&pv, &topo3);
    let stale_pv = RoutingState::from_fn(3, |i, j| {
        if i == j {
            pv.trivial()
        } else if j == 2 && i < 2 {
            pv.lift_route(
                NatInf::fin(5),
                SimplePath::from_nodes(vec![i, 1 - i, 2]).unwrap(),
            )
        } else {
            pv.invalid()
        }
    });
    let pv_out = run_delta(&pv, &adj_pv, &stale_pv, &Schedule::synchronous(3, 50));

    write_table(
        out,
        "Experiment E3 (Section 5 motivation): count-to-infinity and its cures",
        ("protocol", "behaviour from the stale state"),
        &[
            (
                "unbounded distance-vector".into(),
                format!(
                    "after 300 rounds metric(0→2) = {:?}, stable = {}",
                    unbounded.final_state.get(0, 2),
                    unbounded.sigma_stable
                ),
            ),
            (
                "RIP (hop limit 15)".into(),
                format!(
                    "metric(0→2) = {:?}, converged = {}, table changes = {}",
                    rip.final_state.get(0, 2),
                    rip_converged,
                    rip.stats.table_changes
                ),
            ),
            (
                "path-vector lifting".into(),
                format!(
                    "route(0→2) = {:?}, stable = {}, quiescent from step {:?}",
                    pv_out.final_state.get(0, 2),
                    pv_out.sigma_stable,
                    pv_out.quiescent_from
                ),
            ),
        ],
    )
}

/// E4 — Theorem 11: path-vector absolute convergence from inconsistent
/// states.
fn theorem11(out: &mut String) -> fmt::Result {
    let mut rows = Vec::new();
    for n in [4usize, 6, 8] {
        let alg = PathVector::new(ShortestPaths::new(), n);
        let adj = lift_topology(
            &alg,
            &random_network(n, 61, WeightRule::varied(), NatInf::fin),
        );
        let states = random_states(&alg, n, 3, 63);
        let schedules = schedule_ensemble(n, 350, 3, 65);
        rows.push((
            format!("path-vector(shortest) on G(n={n})"),
            match check_absolute_convergence(&alg, &adj, &states, &schedules) {
                Ok(r) => format!("unique fixed point over {} runs", r.runs),
                Err(e) => format!("FAILED: {e}"),
            },
        ));
    }
    // widest paths is increasing but not strictly — the lifting still works
    {
        let n = 5;
        let pv = PathVector::new(WidestPaths::new(), n);
        let topo = generators::connected_random(n, 0.4, 67)
            .with_weights(|i, j| NatInf::fin(((i + j) % 30 + 5) as u64));
        let adj = lift_topology(&pv, &topo);
        let states = random_states(&pv, n, 3, 69);
        let schedules = schedule_ensemble(n, 350, 3, 71);
        rows.push((
            format!("path-vector(widest) on G(n={n})"),
            match check_absolute_convergence(&pv, &adj, &states, &schedules) {
                Ok(r) => format!("unique fixed point over {} runs", r.runs),
                Err(e) => format!("FAILED: {e}"),
            },
        ));
    }
    write_table(
        out,
        "Experiment E4 (Theorem 11): increasing path algebras ⇒ absolute convergence of δ",
        ("workload", "outcome"),
        &rows,
    )
}

/// E5 — the Section 7 safe-by-design algebra under arbitrary policies,
/// protocol machinery and faults.
fn section7(out: &mut String) -> fmt::Result {
    let mut rows = Vec::new();
    for seed in 0..4u64 {
        let n = 7;
        let (alg, adj) = policy_rich_network(n, 100 + seed);
        let states = random_states(&alg, n, 2, seed);
        let schedules = schedule_ensemble(n, 300, 3, seed ^ 0xF);
        let delta_ok = check_absolute_convergence(&alg, &adj, &states, &schedules).is_ok();

        let topo = policy_rich_topology(n, 100 + seed);
        let engine = BgpEngine::new(
            &topo,
            BgpConfig {
                seed,
                session_resets: 3,
                ..BgpConfig::default()
            },
        )
        .run();
        rows.push((
            format!("random policies (seed {seed}), n={n}"),
            format!(
                "δ absolute convergence = {delta_ok}; engine converged = {} ({} updates, {} withdrawals)",
                on_fixed_point(&alg, &adj, &engine.final_state),
                engine.stats.counters.sent - engine.stats.withdrawals,
                engine.stats.withdrawals
            ),
        ));
    }
    write_table(
        out,
        "Experiment E5 (Section 7): the safe-by-design policy language cannot break convergence",
        ("configuration", "outcome"),
        &rows,
    )
}

/// E6 — what unconstrained BGP permits: wedgies and oscillation.  DISAGREE
/// lands in a different stable state depending on which node moves first;
/// with increasing preferences (each node prefers its direct route) both
/// schedules give one state.
fn gadgets(out: &mut String) -> fmt::Result {
    let [node1_first, node2_first] = disagree_schedules(60);
    let both = |alg: &SppAlgebra| {
        let x0 = RoutingState::identity(alg, 3);
        let adj = alg.adjacency();
        [&node1_first, &node2_first].map(|s| run_delta(alg, &adj, &x0, s))
    };
    let [wedge_a, wedge_b] = both(&SppAlgebra::disagree());
    let increasing = SppAlgebra::new(
        3,
        0,
        BTreeMap::from([
            ((1, vec![1, 0]), 0),
            ((1, vec![1, 2, 0]), 1),
            ((2, vec![2, 0]), 0),
            ((2, vec![2, 1, 0]), 1),
        ]),
    );
    let [cured_a, cured_b] = both(&increasing);

    let bad = SppAlgebra::bad_gadget();
    let bad_out = iterate_to_fixed_point(
        &bad,
        &bad.adjacency(),
        &RoutingState::identity(&bad, 4),
        1_000,
    );
    let good = SppAlgebra::good_gadget();
    let good_out = iterate_to_fixed_point(
        &good,
        &good.adjacency(),
        &RoutingState::identity(&good, 4),
        1_000,
    );

    write_table(
        out,
        "Experiment E6 (Section 1 / related work): unconstrained policies permit wedgies and oscillation",
        ("gadget", "behaviour"),
        &[
            (
                "DISAGREE, node 1 first".into(),
                format!("stable={}, 2→0 via {:?}", wedge_a.sigma_stable, wedge_a.final_state.get(2, 0).simple_path().unwrap()),
            ),
            (
                "DISAGREE, node 2 first".into(),
                format!("stable={}, 2→0 via {:?}", wedge_b.sigma_stable, wedge_b.final_state.get(2, 0).simple_path().unwrap()),
            ),
            (
                "DISAGREE verdict".into(),
                format!("two distinct stable states (wedgie) = {}", wedge_a.final_state != wedge_b.final_state),
            ),
            (
                "DISAGREE, increasing preferences".into(),
                format!(
                    "stable={}, one state under both schedules = {}",
                    cured_a.sigma_stable && cured_b.sigma_stable,
                    cured_a.final_state == cured_b.final_state
                ),
            ),
            (
                "BAD GADGET".into(),
                format!("converged after 1000 synchronous rounds = {}", bad_out.converged),
            ),
            (
                "GOOD GADGET".into(),
                format!("converged = {} in {} rounds", good_out.converged, good_out.iterations),
            ),
        ],
    )
}

/// E7 — Gao-Rexford inside the increasing framework.
fn gao_rexford(out: &mut String) -> fmt::Result {
    let mut rows = Vec::new();
    for (tiers, seed) in [(vec![2usize, 4, 8], 81u64), (vec![3, 6, 12, 24], 83)] {
        let (alg, adj, topo) = gao_rexford_network(&tiers, seed);
        let n = topo.node_count();
        let iterations = sync_iterations(&alg, &adj);
        let states = random_states(&alg, n, 2, seed);
        let schedules = schedule_ensemble(n, 400, 2, seed ^ 0x3);
        let absolute = check_absolute_convergence(&alg, &adj, &states, &schedules).is_ok();
        rows.push((
            format!("hierarchy {tiers:?} (n={n})"),
            format!("σ iterations={iterations}, absolute convergence={absolute}"),
        ));
    }
    // Increasing is strictly more general: the GR algebra converges even on
    // a topology with a provider/customer *cycle*, which the original
    // Gao-Rexford argument excludes.
    {
        let n = 3;
        let alg = GaoRexford::new(n);
        let mut adj = AdjacencyMatrix::<GaoRexford>::empty(n);
        // 0 is 1's provider, 1 is 2's provider, 2 is 0's provider: a cycle.
        for (prov, cust) in [(0usize, 1usize), (1, 2), (2, 0)] {
            adj.set(
                prov,
                cust,
                Some(alg.edge(prov, cust, Relationship::Customer)),
            );
            adj.set(
                cust,
                prov,
                Some(alg.edge(cust, prov, Relationship::Provider)),
            );
        }
        let cycle = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 100);
        rows.push((
            "provider cycle 0→1→2→0 (violates GR's topology assumption)".into(),
            format!(
                "still converges = {} in {} iterations",
                cycle.converged, cycle.iterations
            ),
        ));
    }
    write_table(
        out,
        "Experiment E7 (Gao-Rexford): GR conditions implemented inside the increasing framework",
        ("configuration", "outcome"),
        &rows,
    )
}

/// E8 — convergence rate (Section 8.1): σ iterations vs n, and path-hunting
/// message complexity after a failure.
fn rate(out: &mut String) -> fmt::Result {
    let mut rows = Vec::new();
    for n in [4usize, 8, 12, 16, 20] {
        // distributive reference: shortest paths on a line (diameter n-1)
        let alg = ShortestPaths::new();
        let line = generators::line(n).with_weights(|_, _| NatInf::fin(1));
        let adj = AdjacencyMatrix::from_topology(&line);
        let distributive = sync_iterations(&alg, &adj);

        // policy-rich: the Section 7 algebra on the same line with random
        // policies
        let (bgp_alg, bgp_adj) = {
            let alg = BgpAlgebra::new(n);
            let mut rng = SplitMix64::new(n as u64);
            let topo = generators::line(n).with_weights(|_, _| random_policy(&mut rng, 1));
            let adj = alg.adjacency_from_topology(&topo);
            (alg, adj)
        };
        let policy_rich = sync_iterations(&bgp_alg, &bgp_adj);

        // worst observed over adversarial stale states for the hop-count
        // algebra with limit scaled to n (the count-to-the-limit regime)
        let hop_alg = BoundedHopCount::new(n as u64 + 2);
        let hop_adj = AdjacencyMatrix::from_topology(&generators::line(n).with_weights(|_, _| 1));
        let mut worst_from_stale = 0usize;
        for seed in 0..4u64 {
            for x0 in random_states(&hop_alg, n, 2, seed) {
                let run = iterate_to_fixed_point(&hop_alg, &hop_adj, &x0, 8 * n * n + 64);
                if run.converged {
                    worst_from_stale = worst_from_stale.max(run.iterations);
                }
            }
        }

        rows.push((
            format!("n={n}"),
            format!(
                "shortest(line)={distributive}  bgp-policies(line)={policy_rich}  hop-count worst-from-stale={worst_from_stale}"
            ),
        ));
    }
    write_table(
        out,
        "Experiment E8 (Section 8.1): synchronous iterations to the fixed point",
        ("network size", "σ iterations"),
        &rows,
    )?;

    // message complexity of path hunting after a failure in the BGP engine
    let mut rows = Vec::new();
    for n in [4usize, 6, 8, 10] {
        let shape = generators::complete(n);
        let topo = dbf_protocols::bgp::uniform_policies(&shape, Policy::identity());
        let baseline = BgpEngine::new(
            &topo,
            BgpConfig {
                seed: 7,
                ..BgpConfig::default()
            },
        )
        .run();
        rows.push((
            format!("full mesh n={n}"),
            format!(
                "updates={} withdrawals={} table changes={}",
                baseline.stats.counters.sent - baseline.stats.withdrawals,
                baseline.stats.withdrawals,
                baseline.stats.table_changes
            ),
        ));
    }
    write_table(
        out,
        "Experiment E8b: message complexity of the BGP-like engine on full meshes",
        ("network", "traffic"),
        &rows,
    )
}

/// E9 — robustness of the message-level simulator to loss/duplication
/// sweeps.
fn robustness(out: &mut String) -> fmt::Result {
    let mut rows = Vec::new();
    let (alg, adj) = policy_rich_network(7, 91);
    let reference = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 7), 300);
    for loss in [0.0f64, 0.1, 0.2, 0.3, 0.5] {
        let mut agree = 0;
        let mut messages = 0u64;
        let seeds = 4u64;
        for seed in 0..seeds {
            let cfg = SimConfig {
                loss_prob: loss,
                duplicate_prob: loss / 2.0,
                min_delay: 1,
                max_delay: 15,
                seed,
                ..SimConfig::default()
            };
            let sim = EventSim::new(&alg, &adj, cfg).run();
            if is_stable(&alg, &adj, &sim.final_state) && sim.final_state == reference.state {
                agree += 1;
            }
            messages += sim.stats.counters.sent;
        }
        rows.push((
            format!("loss={loss:.1} duplication={:.2}", loss / 2.0),
            format!(
                "agree-with-fixed-point {agree}/{seeds}, mean messages {}",
                messages / seeds
            ),
        ));
    }
    write_table(
        out,
        "Experiment E9 (Section 3): convergence under loss/duplication/reordering sweeps",
        ("fault injection", "outcome"),
        &rows,
    )
}
