//! Asynchronous convergence (and divergence) of the BGP-flavoured algebras.
//!
//! These tests tie the crate's algebras to the asynchronous machinery of
//! `dbf-async`:
//!
//! * the Section 7 safe-by-design algebra converges absolutely, whatever the
//!   policies, the starting state and the schedule (Theorem 11 in action);
//! * the Gao-Rexford algebra converges on provider/customer hierarchies;
//! * the DISAGREE gadget reaches *different* stable states under different
//!   schedules — the BGP wedgie the paper's absolute convergence rules out;
//! * the BAD GADGET never stabilises at all.

use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::prelude::*;
use dbf_async::convergence::{
    check_absolute_convergence, schedule_ensemble, state_ensemble, ConvergenceFailure,
};
use dbf_async::prelude::*;
use dbf_bgp::algebra::random_policy;
use dbf_bgp::prelude::*;
use dbf_matrix::prelude::*;
use dbf_topology::generators;

/// A randomly policed network for the Section 7 algebra: every link of a
/// connected random graph gets a random (but by construction safe) policy.
fn random_policy_network(n: usize, seed: u64) -> (BgpAlgebra, AdjacencyMatrix<BgpAlgebra>) {
    let alg = BgpAlgebra::new(n);
    let shape = generators::connected_random(n, 0.4, seed);
    let mut rng = SplitMix64::new(seed ^ 0xC0FFEE);
    let topo = shape.with_weights(|_, _| random_policy(&mut rng, 2));
    let adj = alg.adjacency_from_topology(&topo);
    (alg, adj)
}

#[test]
fn section7_algebra_converges_absolutely_under_arbitrary_policies() {
    let (alg, adj) = random_policy_network(5, 11);
    let pool = alg.sample_routes(3, 32);
    let states = state_ensemble(&alg, 5, &pool, 3, 17);
    let schedules = schedule_ensemble(5, 260, 4, 23);
    let result = check_absolute_convergence(&alg, &adj, &states, &schedules)
        .expect("the safe-by-design algebra must converge absolutely");
    // ... and the unique fixed point is the synchronous one.
    let sync = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 5), 200);
    assert!(sync.converged);
    assert_eq!(result.fixed_point, sync.state);

    // ... and as the network grows: 4, 6 and 8 nodes, one harsh schedule
    // from a state of inconsistent routes.
    for n in [4, 6, 8] {
        let (alg, adj) = random_policy_network(n, 67);
        let stale = &state_ensemble(&alg, n, &alg.sample_routes(69, 64), 1, 69)[1];
        let harsh = Schedule::random(n, 300, ScheduleParams::harsh(), 65);
        let out = run_delta(&alg, &adj, stale, &harsh);
        assert!(is_stable(&alg, &adj, &out.final_state), "n = {n}");
        let sync = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 200);
        assert_eq!(out.final_state, sync.state, "n = {n}");
    }
}

#[test]
fn section7_algebra_survives_the_message_level_simulator() {
    let (alg, adj) = random_policy_network(6, 29);
    let reference = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 6), 300);
    assert!(reference.converged);
    for seed in 0..4 {
        let out = EventSim::new(&alg, &adj, SimConfig::adversarial(seed)).run();
        assert!(!out.truncated, "seed {seed} exhausted its event budget");
        assert!(
            is_stable(&alg, &adj, &out.final_state),
            "seed {seed} failed to stabilise"
        );
        assert_eq!(out.final_state, reference.state, "seed {seed} diverged");
    }
    // Faults only ever cost messages: up to every second one lost and every
    // fourth duplicated, the outcome stays put.
    for loss in [0.0, 0.1, 0.3, 0.5] {
        let cfg = SimConfig {
            loss_prob: loss,
            duplicate_prob: loss / 2.0,
            min_delay: 1,
            max_delay: 15,
            seed: 5,
            ..SimConfig::default()
        };
        let out = EventSim::new(&alg, &adj, cfg).run();
        assert!(
            is_stable(&alg, &adj, &out.final_state) && !out.truncated,
            "loss {loss}"
        );
        assert_eq!(out.final_state, reference.state, "loss {loss}");
    }
}

#[test]
fn gao_rexford_hierarchies_converge() {
    // Three tiers of 11 nodes, then four tiers of 45.
    for (tiers, seed) in [(&[2, 3, 6][..], 7), (&[3, 6, 12, 24][..], 81)] {
        let (topo, _tiers) = generators::tiered_hierarchy(tiers, 0.4, 0.25, seed);
        let n = topo.node_count();
        let alg = GaoRexford::new(n);
        let adj = alg.adjacency_from_hierarchy(&topo);
        let pool = alg.sample_routes(5, 32);
        let states = state_ensemble(&alg, n, &pool, 2, 3);
        let schedules = schedule_ensemble(n, 300, 2, 5);
        let result = check_absolute_convergence(&alg, &adj, &states, &schedules)
            .expect("Gao-Rexford policies are increasing, so they converge absolutely");
        // Every node that has any route to a destination holds a valley-free
        // one: once the route has left a customer edge (class Peer/Provider
        // at some holder) it can only keep going down — here we simply check
        // the final state is the synchronous fixed point and stable.
        let sync = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 400);
        assert!(sync.converged, "{tiers:?}");
        assert_eq!(result.fixed_point, sync.state, "{tiers:?}");
    }
}

#[test]
fn disagree_is_a_wedgie_under_different_schedules() {
    let alg = SppAlgebra::disagree();
    let adj = alg.adjacency();
    let x0 = RoutingState::identity(&alg, 3);

    // Schedule A: node 2 sleeps for the first 10 steps, so node 1 commits to
    // its direct route first and node 2 then happily routes through it.
    let mut sched_a = Schedule::synchronous(3, 60);
    for t in 1..=10 {
        sched_a.set_activation(t, 2, false);
    }
    // Schedule B: the mirror image.
    let mut sched_b = Schedule::synchronous(3, 60);
    for t in 1..=10 {
        sched_b.set_activation(t, 1, false);
    }

    let out_a = run_delta(&alg, &adj, &x0, &sched_a);
    let out_b = run_delta(&alg, &adj, &x0, &sched_b);
    assert!(
        is_stable(&alg, &adj, &out_a.final_state),
        "schedule A must stabilise"
    );
    assert!(
        is_stable(&alg, &adj, &out_b.final_state),
        "schedule B must stabilise"
    );
    assert_ne!(
        out_a.final_state, out_b.final_state,
        "DISAGREE reaches different stable states depending on timing (a wedgie)"
    );
    // node 1 got its preferred route under A, node 2 under B
    assert_eq!(
        out_a.final_state.get(2, 0).simple_path().unwrap().nodes(),
        &[2, 1, 0]
    );
    assert_eq!(
        out_b.final_state.get(1, 0).simple_path().unwrap().nodes(),
        &[1, 2, 0]
    );

    // The ensemble checker reports exactly this as a failure of absolute
    // convergence.
    let err = check_absolute_convergence(&alg, &adj, &[x0], &[sched_a, sched_b]);
    match err {
        Err(ConvergenceFailure::MultipleFixedPoints { .. }) => {}
        other => panic!("expected a wedgie (multiple fixed points), got {other:?}"),
    }
}

#[test]
fn bad_gadget_never_stabilises() {
    let alg = SppAlgebra::bad_gadget();
    let adj = alg.adjacency();
    let x0 = RoutingState::identity(&alg, 4);
    for (label, sched) in [
        ("synchronous", Schedule::synchronous(4, 300)),
        ("round-robin", Schedule::round_robin(4, 300)),
        (
            "random",
            Schedule::random(4, 300, ScheduleParams::default(), 1),
        ),
    ] {
        let out = run_delta(&alg, &adj, &x0, &sched);
        assert!(
            !is_stable(&alg, &adj, &out.final_state),
            "{label}: BAD GADGET must not reach a stable state"
        );
    }
}

#[test]
fn making_disagree_increasing_removes_the_wedgie() {
    // The constructive message of the paper: the wedgie disappears as soon
    // as the preferences respect the increasing condition.  Re-rank the
    // DISAGREE preferences so that each node prefers its direct route and
    // re-run exactly the same two schedules: both now reach the same state.
    use std::collections::BTreeMap;
    let mut prefs = BTreeMap::new();
    prefs.insert((1usize, vec![1usize, 0usize]), 0u32);
    prefs.insert((1, vec![1, 2, 0]), 1);
    prefs.insert((2, vec![2, 0]), 0);
    prefs.insert((2, vec![2, 1, 0]), 1);
    let alg = SppAlgebra::new(3, 0, prefs);
    let adj = alg.adjacency();
    let x0 = RoutingState::identity(&alg, 3);

    let mut sched_a = Schedule::synchronous(3, 60);
    let mut sched_b = Schedule::synchronous(3, 60);
    for t in 1..=10 {
        sched_a.set_activation(t, 2, false);
        sched_b.set_activation(t, 1, false);
    }
    let result = check_absolute_convergence(&alg, &adj, &[x0], &[sched_a, sched_b])
        .expect("direct-route preferences are increasing, so the wedgie disappears");
    assert_eq!(
        result.fixed_point.get(1, 0).simple_path().unwrap().nodes(),
        &[1, 0]
    );
}
