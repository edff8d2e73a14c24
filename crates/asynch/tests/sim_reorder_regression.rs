//! Regression tests for event-simulator livelocks found by `scenarios
//! fuzz`: message reordering poisoning `adv` slots in ways the
//! drain-triggered refresh could never repair.

use dbf_async::sim::{EventSim, SimConfig};
use dbf_matrix::prelude::*;

use dbf_algebra::prelude::*;

/// Fuzz seed 0x872ba3f16c0d1136 (minimized): a 5-node *line* — a tree, so
/// no routing loop can exist in the topology — with `min_delay = 2` lets a
/// cold-start ∞-advert overtake the sender's real advert.  The poisoned
/// slot made a reachable destination look unreachable, igniting
/// count-to-infinity churn that kept the event queue occupied forever, so
/// the (then drain-triggered) S3 refresh never fired and the run hit its
/// 2,000,000-event cap.  Receivers now discard superseded adverts (and the
/// refresh fires on delivered-event slices as a second line of defence),
/// so the run converges in a few hundred messages.
#[test]
fn reordered_cold_start_adverts_on_a_line_do_not_livelock() {
    let alg = ShortestPaths::new();
    let topo = dbf_topology::generators::line(5)
        .with_weights(|i, j| NatInf::fin((i as u64 * 7 + j as u64 * 13) % 9 + 1));
    let adj = AdjacencyMatrix::from_topology(&topo);
    let reference = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 5), 200);
    assert!(reference.converged);
    let cfg = SimConfig {
        loss_prob: 0.0,
        duplicate_prob: 0.0,
        min_delay: 2,
        max_delay: 5,
        seed: 4579570613188052289,
        max_events: 100_000,
        refresh_rounds: 64,
    };
    let out = EventSim::new(&alg, &adj, cfg).run();
    assert!(!out.truncated, "the reordering livelock is fixed");
    assert!(is_stable(&alg, &adj, &out.final_state));
    assert_eq!(out.final_state, reference.state);
    let delivered = out.stats.counters.delivered;
    assert!(
        delivered < 10_000,
        "convergence is prompt, got {delivered} deliveries"
    );
}

/// The same failure mode across many seeds and both delay profiles: the
/// simulator must reach the σ fixed point on trees and cyclic graphs alike.
#[test]
fn reordering_never_prevents_convergence_on_reachable_graphs() {
    let alg = ShortestPaths::new();
    for (name, topo) in [
        (
            "line",
            dbf_topology::generators::line(6)
                .with_weights(|i, j| NatInf::fin((i as u64 * 7 + j as u64 * 13) % 9 + 1)),
        ),
        (
            "ring",
            dbf_topology::generators::ring(6)
                .with_weights(|i, j| NatInf::fin((i as u64 * 5 + j as u64 * 3) % 7 + 1)),
        ),
        (
            "star",
            dbf_topology::generators::star(6)
                .with_weights(|i, j| NatInf::fin((i as u64 + j as u64) % 4 + 1)),
        ),
    ] {
        let n = topo.node_count();
        let adj: AdjacencyMatrix<ShortestPaths> = AdjacencyMatrix::from_topology(&topo);
        let reference = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 400);
        assert!(reference.converged, "{name}");
        for seed in 0..20u64 {
            let cfg = SimConfig {
                loss_prob: 0.0,
                duplicate_prob: 0.0,
                min_delay: 2,
                max_delay: 7,
                seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FFEE,
                max_events: 200_000,
                refresh_rounds: 64,
            };
            let out = EventSim::new(&alg, &adj, cfg).run();
            assert!(!out.truncated, "{name} seed {seed} livelocked");
            assert!(
                is_stable(&alg, &adj, &out.final_state),
                "{name} seed {seed} not stable"
            );
            assert_eq!(out.final_state, reference.state, "{name} seed {seed}");
        }
    }
}
