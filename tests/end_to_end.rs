//! End-to-end integration tests spanning every crate in the workspace:
//! the same routing problems are solved by the synchronous iterate, the
//! asynchronous iterate, the message-level simulator and the protocol
//! engines, and all of them must agree.

use dbf_routing::algebra::algebra::SplitMix64;
use dbf_routing::asynch::convergence::{schedule_ensemble, state_ensemble};
use dbf_routing::bgp::algebra::random_policy;
use dbf_routing::bgp::policy::Policy;
use dbf_routing::prelude::*;
use dbf_routing::topology::{generators, Topology};

/// Every execution model agrees on a widest-paths problem (an increasing but
/// not strictly increasing algebra, exercised through the path-vector
/// lifting where strictness is needed).
#[test]
fn all_execution_models_agree_on_widest_paths() {
    let alg = WidestPaths::new();
    let topo = generators::connected_random(7, 0.4, 9)
        .with_weights(|i, j| NatInf::fin(((i * 11 + j * 3) % 40 + 10) as u64));
    let adj = AdjacencyMatrix::from_topology(&topo);
    let clean = RoutingState::identity(&alg, 7);

    let reference = iterate_to_fixed_point(&alg, &adj, &clean, 200);
    assert!(reference.converged);

    // asynchronous iterate under several schedules
    for seed in 0..3 {
        let sched = Schedule::random(7, 400, ScheduleParams::harsh(), seed);
        let out = run_delta(&alg, &adj, &clean, &sched);
        assert!(is_stable(&alg, &adj, &out.final_state));
        assert_eq!(out.final_state, reference.state);
    }

    // message-level simulator with faults
    let sim = EventSim::new(&alg, &adj, SimConfig::adversarial(3)).run();
    assert!(is_stable(&alg, &adj, &sim.final_state));
    assert_eq!(sim.final_state, reference.state);
}

/// The RIP-like engine, the hop-count algebra's δ and the σ fixed point all
/// agree on a mid-sized random topology.
#[test]
fn rip_engine_agrees_with_the_algebraic_model() {
    let shape = generators::connected_random(9, 0.3, 31);
    let alg = BoundedHopCount::rip();
    let adj = AdjacencyMatrix::<BoundedHopCount>::from_fn(9, |i, j| {
        if shape.has_edge(i, j) {
            Some(1u64)
        } else {
            None
        }
    });
    let reference = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 9), 100);
    assert!(reference.converged);

    // protocol engine (with loss)
    let report = RipEngine::new(&shape, RipConfig::lossy(5, 0.15)).run();
    assert!(is_stable(&alg, &adj, &report.final_state));
    assert_eq!(report.final_state, reference.state);

    // asynchronous iterate from a garbage state
    let pool = alg.all_routes();
    let states = state_ensemble(&alg, 9, &pool, 2, 5);
    let schedules = schedule_ensemble(9, 400, 2, 6);
    let result = check_absolute_convergence(&alg, &adj, &states, &schedules).unwrap();
    assert_eq!(result.fixed_point, reference.state);
}

/// The BGP-like protocol engine and the Section 7 algebra's synchronous
/// fixed point agree under randomly generated policies, and the policy-rich
/// stable state is only locally (not globally) optimal.
#[test]
fn bgp_engine_agrees_with_the_section7_algebra() {
    let n = 6;
    let shape = generators::connected_random(n, 0.45, 77);
    let mut rng = SplitMix64::new(123);
    let topo: Topology<Policy> = shape.with_weights(|_, _| random_policy(&mut rng, 2));

    let alg = dbf_routing::bgp::BgpAlgebra::new(n);
    let adj = alg.adjacency_from_topology(&topo);
    let reference = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 200);
    assert!(reference.converged);

    let report = BgpEngine::new(
        &topo,
        BgpConfig {
            seed: 9,
            session_resets: 3,
            ..BgpConfig::default()
        },
    )
    .run();
    assert!(is_stable(&alg, &adj, &report.final_state));
    assert_eq!(report.final_state, reference.state);

    // local optimality: the fixed point is stable but no better than the
    // exhaustive all-paths optimum
    let oracle = exhaustive_path_optimum(&alg, &adj);
    for (i, j, r) in reference.state.entries() {
        assert!(
            alg.route_le(oracle.get(i, j), r),
            "({i},{j}): global optimum must be at least as preferred"
        );
    }
}

/// Dynamic-network reconvergence across the whole stack: a policy change and
/// a link failure mid-run, with the final state checked against the new
/// topology's fixed point.
#[test]
fn dynamic_policy_and_topology_changes_reconverge() {
    let n = 6;
    let alg = dbf_routing::bgp::BgpAlgebra::new(n);
    let shape = generators::ring(n);
    let base: Topology<Policy> = shape.with_weights(|_, _| Policy::identity());

    // epoch 2: node 0 starts filtering everything from node 1
    let mut filtered = base.clone();
    filtered.set_edge(0, 1, Policy::Reject);
    // epoch 3: additionally, the link between 3 and 4 fails
    let mut failed = filtered.clone();
    failed.remove_link(3, 4);

    let epochs = [
        (
            "baseline",
            &base,
            Schedule::random(n, 300, ScheduleParams::default(), 1),
        ),
        (
            "policy change: 0 filters 1",
            &filtered,
            Schedule::random(n, 300, ScheduleParams::harsh(), 2),
        ),
        (
            "link 3–4 fails",
            &failed,
            Schedule::random(n, 400, ScheduleParams::harsh(), 3),
        ),
    ];
    let mut last = RoutingState::identity(&alg, n);
    for (label, topo, schedule) in &epochs {
        let adj = alg.adjacency_from_topology(topo);
        let outcome = run_delta(&alg, &adj, &last, schedule);
        assert!(
            is_stable(&alg, &adj, &outcome.final_state),
            "epoch '{label}' must reconverge"
        );
        last = outcome.final_state;
    }
    let reference = iterate_to_fixed_point(
        &alg,
        &alg.adjacency_from_topology(&failed),
        &RoutingState::identity(&alg, n),
        200,
    );
    assert_eq!(last, reference.state);
}

/// The ultrametric machinery certifies convergence for the same systems the
/// simulations exercise: the Figure 1 implication chain end-to-end.
#[test]
fn metric_certificates_match_observed_convergence() {
    // Distance-vector case (Theorem 7): hop count on a grid.
    let alg = BoundedHopCount::new(8);
    let topo = generators::grid(2, 3).with_weights(|_, _| 1u64);
    let adj = AdjacencyMatrix::from_topology(&topo);
    let metric = HeightMetric::new(alg);
    let pool = alg.all_routes();
    let states = state_ensemble(&alg, 6, &pool, 6, 21);
    check_strictly_contracting_on_orbits(&alg, &adj, &metric, &states).unwrap();
    let fp = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 6), 100);
    check_contracting_on_fixed_point(&alg, &adj, &metric, &fp.state, &states).unwrap();
    // Lemma 2's bound on synchronous convergence time holds for every start.
    for x0 in &states {
        let chain = orbit_distance_chain(&alg, &adj, &metric, x0, 200);
        assert!(chain.len() as u64 <= metric.bound());
    }

    // Path-vector case (Theorem 11): the Section 7 algebra on a ring.
    let n = 4;
    let bgp = dbf_routing::bgp::BgpAlgebra::new(n);
    let topo = generators::ring(n).with_weights(|_, _| Policy::IncrPrefBy(1));
    let adj = bgp.adjacency_from_topology(&topo);
    let metric = PathVectorMetric::new(bgp, &adj);
    let bgp = dbf_routing::bgp::BgpAlgebra::new(n);
    let pool = bgp.sample_routes(3, 32);
    let states = state_ensemble(&bgp, n, &pool, 5, 33);
    check_strictly_contracting_on_orbits(&bgp, &adj, &metric, &states).unwrap();
    let fp = iterate_to_fixed_point(&bgp, &adj, &RoutingState::identity(&bgp, n), 100);
    check_contracting_on_fixed_point(&bgp, &adj, &metric, &fp.state, &states).unwrap();
    // ... and δ indeed converges absolutely for those same states.
    let schedules = schedule_ensemble(n, 250, 2, 41);
    let result = check_absolute_convergence(&bgp, &adj, &states, &schedules).unwrap();
    assert_eq!(result.fixed_point, fp.state);
}
