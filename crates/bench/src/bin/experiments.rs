//! The experiment driver: regenerates every table and figure of the paper
//! (and the behavioural claims of its theorems) as printed tables.
//!
//! Usage:
//!
//! ```text
//! cargo run -p dbf-bench --bin experiments             # run everything
//! cargo run -p dbf-bench --bin experiments -- table1   # run one experiment
//! ```
//!
//! Experiment identifiers: see [`EXPERIMENTS`]; an unknown one is an error
//! (exit status 2) that lists them.

use dbf_algebra::combinators::prod::DirectProduct;
use dbf_algebra::instances::longest::LongestPaths;
use dbf_algebra::prelude::*;
use dbf_algebra::properties::PropertyReport;
use dbf_async::convergence::{check_absolute_convergence, schedule_ensemble};
use dbf_async::prelude::*;
use dbf_bench::*;
use dbf_bgp::policy::Policy;
use dbf_bgp::prelude::*;
use dbf_matrix::prelude::*;
use dbf_metric::prelude::*;
use dbf_paths::prelude::*;
use dbf_protocols::prelude::*;
use dbf_scenario::run::policy_for_edge;
use dbf_telemetry::NoopSink;
use dbf_topology::generators;
use std::time::Instant;

/// Every experiment, in the order a bare `experiments` runs them.
const EXPERIMENTS: [(&str, fn()); 14] = [
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
    ("engines", engines),
];

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = which
        .iter()
        .find(|w| !EXPERIMENTS.iter().any(|(name, _)| name == w))
    {
        eprintln!(
            "unknown experiment {unknown:?}\nusage: experiments [NAME...]   NAME one of: {}",
            EXPERIMENTS.map(|(name, _)| name).join(", ")
        );
        std::process::exit(2);
    }
    for (name, run) in EXPERIMENTS {
        if which.is_empty() || which.iter().any(|w| w == name) {
            run();
        }
    }
}

/// T1 — Table 1: the algebraic property matrix of every bundled algebra.
fn table1() {
    println!("\n== Experiment T1 (Table 1): algebraic property matrix ==");
    println!("{}", PropertyReport::summary_header());
    let reports = vec![
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
        println!("{}", r.summary_row());
    }
    println!(
        "(✓/✗ per property; the direct product demonstrates the checkers rejecting a non-algebra)"
    );
}

/// T2 — Table 2: each example algebra solves its path problem; the fixed
/// point of the distributive algebras equals the exhaustive-path optimum.
fn table2() {
    let mut rows = Vec::new();
    for n in [6usize, 10, 14] {
        {
            let (alg, adj) = shortest_paths_network(n, 21);
            let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 200);
            let matches = n <= 8 && out.state == exhaustive_path_optimum(&alg, &adj);
            rows.push((
                format!("shortest paths, n={n}"),
                format!(
                    "iterations={} converged={} oracle={}",
                    out.iterations,
                    out.converged,
                    if n <= 8 {
                        matches.to_string()
                    } else {
                        "skipped".into()
                    }
                ),
            ));
        }
        {
            let (alg, adj) = widest_paths_network(n, 22);
            let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 200);
            let matches = n <= 8 && out.state == exhaustive_path_optimum(&alg, &adj);
            rows.push((
                format!("widest paths, n={n}"),
                format!(
                    "iterations={} converged={} oracle={}",
                    out.iterations,
                    out.converged,
                    if n <= 8 {
                        matches.to_string()
                    } else {
                        "skipped".into()
                    }
                ),
            ));
        }
        {
            let (alg, adj) = reliability_network(n, 23);
            let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 200);
            rows.push((
                format!("most reliable paths, n={n}"),
                format!("iterations={} converged={}", out.iterations, out.converged),
            ));
        }
        {
            let (alg, adj) = hopcount_network(n, 15, 24);
            let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 200);
            rows.push((
                format!("bounded hop count, n={n}"),
                format!("iterations={} converged={}", out.iterations, out.converged),
            ));
        }
    }
    print_table(
        "Experiment T2 (Table 2): example algebras solve their path problems",
        ("workload", "result"),
        &rows,
    );
}

/// F1 — Figure 1: the implication chain, exercised per algebra.
fn figure1() {
    println!("\n== Experiment F1 (Figure 1): strictly increasing ⇒ ultrametric ⇒ contraction ⇒ absolute convergence ==");
    println!(
        "{:<30} {:>10} {:>12} {:>12} {:>12}",
        "algebra", "strictly↑", "ultrametric", "contraction", "abs.conv"
    );

    // Distance-vector instance: bounded hop count.
    {
        let n = 5;
        let (alg, adj) = hopcount_network(n, 8, 31);
        let routes = alg.all_routes();
        let strictly = dbf_algebra::properties::check_strictly_increasing(
            &alg,
            &alg.sample_edges(1, 8),
            &routes,
        )
        .is_ok();
        let metric = HeightMetric::new(alg);
        let ultra = check_ultrametric_axioms::<BoundedHopCount, _>(&metric, &routes).is_ok();
        let states = random_states(&alg, n, 6, 33);
        let contraction =
            check_strictly_contracting_on_orbits(&alg, &adj, &metric, &states).is_ok();
        let schedules = schedule_ensemble(n, 300, 3, 35);
        let absolute = check_absolute_convergence(&alg, &adj, &states, &schedules).is_ok();
        println!(
            "{:<30} {:>10} {:>12} {:>12} {:>12}",
            "hop-count (Theorem 7)", strictly, ultra, contraction, absolute
        );
    }

    // Path-vector instance: the Section 7 algebra.
    {
        let n = 4;
        let (alg, adj) = policy_rich_network(n, 37);
        let routes = alg.sample_routes(2, 48);
        let strictly = dbf_algebra::properties::check_strictly_increasing(
            &alg,
            &alg.sample_edges(2, 16),
            &routes,
        )
        .is_ok();
        let metric = PathVectorMetric::new(alg, &adj);
        let ultra = check_ultrametric_axioms::<BgpAlgebra, _>(&metric, &routes).is_ok();
        let states = random_states(&alg, n, 5, 39);
        let contraction =
            check_strictly_contracting_on_orbits(&alg, &adj, &metric, &states).is_ok();
        let schedules = schedule_ensemble(n, 250, 3, 41);
        let absolute = check_absolute_convergence(&alg, &adj, &states, &schedules).is_ok();
        println!(
            "{:<30} {:>10} {:>12} {:>12} {:>12}",
            "bgp-section7 (Theorem 11)", strictly, ultra, contraction, absolute
        );
    }

    // Negative control: the DISAGREE gadget breaks the chain at the first
    // link and at the last.
    {
        let alg = SppAlgebra::disagree();
        let adj = alg.adjacency();
        let mut routes = vec![alg.trivial(), alg.invalid()];
        routes.push(alg.extend(&alg.edge(1, 0), &alg.trivial()));
        routes.push(alg.extend(&alg.edge(2, 0), &alg.trivial()));
        let edges: Vec<_> = (0..3)
            .flat_map(|i| (0..3).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| alg.edge(i, j))
            .collect();
        let increasing = dbf_algebra::properties::check_increasing(&alg, &edges, &routes).is_ok();
        let x0 = RoutingState::identity(&alg, 3);
        let mut a = Schedule::synchronous(3, 50);
        let mut b = Schedule::synchronous(3, 50);
        for t in 1..=8 {
            a.set_activation(t, 2, false);
            b.set_activation(t, 1, false);
        }
        let absolute = check_absolute_convergence(&alg, &adj, &[x0], &[a, b]).is_ok();
        println!(
            "{:<30} {:>10} {:>12} {:>12} {:>12}",
            "DISAGREE gadget (control)", increasing, "—", "—", absolute
        );
    }
}

/// F2 — Figure 2: the structure of the path-vector ultrametric.
fn figure2() {
    let mut rows = Vec::new();
    for n in [3usize, 4, 5] {
        let (alg, adj) = path_vector_network(n, 43);
        let metric = PathVectorMetric::new(alg, &adj);
        let alg = PathVector::new(ShortestPaths::new(), n);
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
    print_table(
        "Experiment F2 (Figure 2): consistent/inconsistent ultrametric structure",
        ("metric", "quantities"),
        &rows,
    );
}

/// E1 — the Equation 1 distributivity violation of Section 1.
fn eq1() {
    let alg = FilteredShortestPaths::new();
    let f = FilterPolicy::if_below(5, FilterPolicy::Add(100), FilterPolicy::Add(1));
    let a = NatInf::fin(3);
    let b = NatInf::fin(7);
    let lhs = alg.extend(&f, &alg.choice(&a, &b));
    let rhs = alg.choice(&alg.extend(&f, &a), &alg.extend(&f, &b));
    print_table(
        "Experiment E1 (Section 1, Eq 1): conditional policies violate distributivity",
        ("expression", "value"),
        &[
            ("policy f".into(), "if r < 5 then r+100 else r+1".into()),
            ("a, b".into(), format!("{a:?}, {b:?}")),
            ("sender side   f(a ⊕ b)".into(), format!("{lhs:?}")),
            ("receiver side f(a) ⊕ f(b)".into(), format!("{rhs:?}")),
            ("distributive?".into(), format!("{}", lhs == rhs)),
            (
                "strictly increasing still?".into(),
                format!(
                    "{}",
                    dbf_algebra::properties::check_strictly_increasing(
                        &alg,
                        &[f],
                        &alg.sample_routes(1, 64)
                    )
                    .is_ok()
                ),
            ),
        ],
    );
}

/// E2 — Theorem 7: distance-vector absolute convergence.
fn theorem7() {
    let mut rows = Vec::new();
    for n in [5usize, 8, 12] {
        let (alg, adj) = hopcount_network(n, 15, 51);
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
    print_table(
        "Experiment E2 (Theorem 7): finite strictly increasing ⇒ absolute convergence of δ",
        ("workload", "outcome"),
        &rows,
    );
}

/// E3 — count-to-infinity and its cures.
fn count_to_infinity() {
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
    let mut shape = dbf_topology::Topology::new(3);
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

    // path-vector cure
    let pv = PathVector::new(ShortestPaths::new(), 3);
    let mut topo3 = dbf_topology::Topology::new(3);
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

    print_table(
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
                    rip.converged,
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
    );
}

/// E4 — Theorem 11: path-vector absolute convergence from inconsistent
/// states.
fn theorem11() {
    let mut rows = Vec::new();
    for n in [4usize, 6, 8] {
        let (alg, adj) = path_vector_network(n, 61);
        let states = random_states(&alg, n, 3, 63);
        let schedules = schedule_ensemble(n, 350, 3, 65);
        let result = check_absolute_convergence(&alg, &adj, &states, &schedules);
        rows.push((
            format!("path-vector(shortest) on G(n={n})"),
            match result {
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
        let pv = PathVector::new(WidestPaths::new(), n);
        let states = random_states(&pv, n, 3, 69);
        let schedules = schedule_ensemble(n, 350, 3, 71);
        let result = check_absolute_convergence(&pv, &adj, &states, &schedules);
        rows.push((
            format!("path-vector(widest) on G(n={n})"),
            match result {
                Ok(r) => format!("unique fixed point over {} runs", r.runs),
                Err(e) => format!("FAILED: {e}"),
            },
        ));
    }
    print_table(
        "Experiment E4 (Theorem 11): increasing path algebras ⇒ absolute convergence of δ",
        ("workload", "outcome"),
        &rows,
    );
}

/// E5 — the Section 7 safe-by-design algebra under arbitrary policies,
/// protocol machinery and faults.
fn section7() {
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
                engine.converged,
                engine.stats.updates_sent,
                engine.stats.withdrawals_sent
            ),
        ));
    }
    print_table(
        "Experiment E5 (Section 7): the safe-by-design policy language cannot break convergence",
        ("configuration", "outcome"),
        &rows,
    );
}

/// E6 — what unconstrained BGP permits: wedgies and oscillation.
fn gadgets() {
    // DISAGREE under two schedules
    let alg = SppAlgebra::disagree();
    let adj = alg.adjacency();
    let x0 = RoutingState::identity(&alg, 3);
    let mut a = Schedule::synchronous(3, 60);
    let mut b = Schedule::synchronous(3, 60);
    for t in 1..=10 {
        a.set_activation(t, 2, false);
        b.set_activation(t, 1, false);
    }
    let out_a = run_delta(&alg, &adj, &x0, &a);
    let out_b = run_delta(&alg, &adj, &x0, &b);

    // BAD GADGET
    let bad = SppAlgebra::bad_gadget();
    let bad_out = iterate_to_fixed_point(
        &bad,
        &bad.adjacency(),
        &RoutingState::identity(&bad, 4),
        1_000,
    );

    // GOOD GADGET
    let good = SppAlgebra::good_gadget();
    let good_out = iterate_to_fixed_point(
        &good,
        &good.adjacency(),
        &RoutingState::identity(&good, 4),
        1_000,
    );

    print_table(
        "Experiment E6 (Section 1 / related work): unconstrained policies permit wedgies and oscillation",
        ("gadget", "behaviour"),
        &[
            (
                "DISAGREE, node 1 first".into(),
                format!("stable={}, 2→0 via {:?}", out_a.sigma_stable, out_a.final_state.get(2, 0).simple_path().unwrap()),
            ),
            (
                "DISAGREE, node 2 first".into(),
                format!("stable={}, 2→0 via {:?}", out_b.sigma_stable, out_b.final_state.get(2, 0).simple_path().unwrap()),
            ),
            (
                "DISAGREE verdict".into(),
                format!("two distinct stable states (wedgie) = {}", out_a.final_state != out_b.final_state),
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
    );
}

/// E7 — Gao-Rexford inside the increasing framework.
fn gao_rexford() {
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
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 100);
        rows.push((
            "provider cycle 0→1→2→0 (violates GR's topology assumption)".into(),
            format!(
                "still converges = {} in {} iterations",
                out.converged, out.iterations
            ),
        ));
    }
    print_table(
        "Experiment E7 (Gao-Rexford): GR conditions implemented inside the increasing framework",
        ("configuration", "outcome"),
        &rows,
    );
}

/// E8 — convergence rate (Section 8.1): σ iterations vs n, and path-hunting
/// message complexity after a failure.
fn rate() {
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
            let mut rng = dbf_algebra::algebra::SplitMix64::new(n as u64);
            let topo = generators::line(n)
                .with_weights(|_, _| dbf_bgp::algebra::random_policy(&mut rng, 1));
            let adj = alg.adjacency_from_topology(&topo);
            (alg, adj)
        };
        let policy_rich = sync_iterations(&bgp_alg, &bgp_adj);

        // worst observed over adversarial stale states for the hop-count
        // algebra with limit scaled to n (the count-to-the-limit regime)
        let (hop_alg, hop_adj) = {
            let alg = BoundedHopCount::new(n as u64 + 2);
            let line = generators::line(n);
            let adj = AdjacencyMatrix::<BoundedHopCount>::from_fn(n, |i, j| {
                if line.has_edge(i, j) {
                    Some(1u64)
                } else {
                    None
                }
            });
            (alg, adj)
        };
        let mut worst_from_stale = 0usize;
        for seed in 0..4u64 {
            for x0 in random_states(&hop_alg, n, 2, seed) {
                let out = iterate_to_fixed_point(&hop_alg, &hop_adj, &x0, 8 * n * n + 64);
                if out.converged {
                    worst_from_stale = worst_from_stale.max(out.iterations);
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
    print_table(
        "Experiment E8 (Section 8.1): synchronous iterations to the fixed point",
        ("network size", "σ iterations"),
        &rows,
    );

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
                baseline.stats.updates_sent,
                baseline.stats.withdrawals_sent,
                baseline.stats.table_changes
            ),
        ));
    }
    print_table(
        "Experiment E8b: message complexity of the BGP-like engine on full meshes",
        ("network", "traffic"),
        &rows,
    );
}

/// E9 — robustness of the message-level simulator to loss/duplication
/// sweeps.
fn robustness() {
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
            let out = EventSim::new(&alg, &adj, cfg).run();
            if out.sigma_stable && out.final_state == reference.state {
                agree += 1;
            }
            messages += out.stats.sent;
        }
        rows.push((
            format!("loss={loss:.1} duplication={:.2}", loss / 2.0),
            format!(
                "agree-with-fixed-point {agree}/{seeds}, mean messages {}",
                messages / seeds
            ),
        ));
    }
    print_table(
        "Experiment E9 (Section 3): convergence under loss/duplication/reordering sweeps",
        ("fault injection", "outcome"),
        &rows,
    );
}

/// δ's cost per time step on a 400-step random schedule: a fresh run up to
/// the step at which the state stops changing, then the steps left once
/// every row is down to one version.
fn delta_step_cost<A: RoutingAlgebra>(alg: &A, adj: &AdjacencyMatrix<A>) -> String {
    let n = adj.node_count();
    let x0 = RoutingState::identity(alg, n);
    let schedule = Schedule::random(n, 400, ScheduleParams::default(), 1);
    let quiet_from = run_delta(alg, adj, &x0, &schedule)
        .quiescent_from
        .expect("a 400-step horizon is enough");
    let settled = quiet_from + schedule.max_lag();
    let mut run = DeltaRun::new(alg, adj, &x0, &schedule);
    let mut ns_per_step = |until: usize| {
        let steps = until - run.time();
        let t0 = Instant::now();
        for _ in 0..steps {
            run.step(&mut NoopSink);
        }
        t0.elapsed().as_nanos() / steps.max(1) as u128
    };
    let active = ns_per_step(quiet_from);
    ns_per_step(settled); // histories drain: neither regime
    let quiet = ns_per_step(schedule.horizon());
    format!(
        "{active} ns per step over the {quiet_from} active steps, {quiet} ns over the {} quiet ones",
        schedule.horizon() - settled
    )
}

/// What a delivered message costs the two seeded message-level engines on
/// the `policy-rich-bgp` builtin's network — at n = 20, the size the repo
/// benchmark's `policy-diff` workload records, and at n = 40, which nothing
/// else runs — under the builtin's second-phase faults; and what a time
/// step costs δ before and after the state goes quiet.  One `Instant`
/// around one run each: numbers to read, not to gate on.
fn engines() {
    let network = |n| {
        let alg = BgpAlgebra::new(n);
        let topo = generators::connected_random(n, 0.4, 5)
            .with_weights(|i, j| policy_for_edge(0xBEEF, i, j, 2));
        (alg, alg.adjacency_from_topology(&topo))
    };
    let mut rows = Vec::new();
    for n in [20usize, 40] {
        let (alg, adj) = network(n);
        let reference = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 4 * n);

        let cfg = SimConfig {
            loss_prob: 0.2,
            duplicate_prob: 0.2,
            seed: 1,
            refresh_rounds: 64,
            ..SimConfig::default()
        };
        let t0 = Instant::now();
        let out = EventSim::new(&alg, &adj, cfg).run();
        let ns = t0.elapsed().as_nanos() as u64;
        rows.push((
            format!("sim, n={n} (20 % loss and duplication)"),
            format!(
                "delivered={} sent={} {} ns per delivered message, on σ's fixed point = {}",
                out.stats.delivered,
                out.stats.sent,
                ns / out.stats.delivered,
                out.sigma_stable && out.final_state == reference.state
            ),
        ));

        let cfg = BgpConfig {
            max_delay: 5,
            session_resets: 2,
            max_time: 200_000,
            seed: 1,
            ..BgpConfig::default()
        };
        let t0 = Instant::now();
        let report = BgpEngine::from_parts(alg, adj, cfg).run();
        let ns = t0.elapsed().as_nanos() as u64;
        rows.push((
            format!("bgp, n={n} (2 session resets)"),
            format!(
                "delivered={} sent={} bytes={} {} ns per delivered message, on σ's fixed point = {}",
                report.stats.updates_processed,
                report.stats.messages_sent(),
                report.stats.bytes_sent,
                ns / report.stats.updates_processed,
                report.converged && report.final_state == reference.state
            ),
        ));
    }
    let (alg, adj) = network(20);
    rows.push(("δ, the n=20 network".into(), delta_step_cost(&alg, &adj)));
    let ring = generators::ring(64).with_weights(|_, _| 1u64);
    rows.push((
        "δ, ring of 64, hop count".into(),
        delta_step_cost(
            &BoundedHopCount::new(64),
            &AdjacencyMatrix::from_topology(&ring),
        ),
    ));
    print_table(
        "Experiment engines: cost per delivered message (sim, bgp) and per time step (δ)",
        ("engine, workload", "one run"),
        &rows,
    );
}
