//! Dynamic networks: link failures, stale state and re-convergence
//! (Section 3.2 of the paper).
//!
//! A data-center-style leaf–spine fabric running the bounded hop-count
//! algebra loses a spine; the routing state it is left with is stale and
//! partially nonsense, yet — because the algebra is finite and strictly
//! increasing — the asynchronous computation re-converges to the unique
//! fixed point of the *new* topology, under a harsh schedule, without any
//! coordination.
//!
//! Run with: `cargo run --example dynamic_reconvergence`

use dbf_routing::prelude::*;
use dbf_routing::topology::generators;

fn main() {
    // 3 spines (0..3), 6 leaves (3..9).
    let fabric = generators::leaf_spine(3, 6).with_weights(|_, _| 1u64);
    let alg = BoundedHopCount::new(10);

    // Epoch 1: converge on the full fabric.
    let adj_full = AdjacencyMatrix::from_topology(&fabric);

    // Epoch 2: spine 0 dies — every link incident to it disappears.
    let mut degraded = fabric.clone();
    for leaf in 3..9 {
        degraded.remove_link(0, leaf);
    }
    let adj_degraded = AdjacencyMatrix::from_topology(&degraded);

    // Section 3.2: a topology change starts a fresh instance of the problem
    // from whatever state the computation had reached.
    let epochs = [
        (
            "full fabric",
            &adj_full,
            Schedule::random(9, 400, ScheduleParams::default(), 1),
        ),
        (
            "spine 0 fails",
            &adj_degraded,
            Schedule::random(9, 600, ScheduleParams::harsh(), 2),
        ),
    ];
    let mut after = RoutingState::identity(&alg, 9);
    for (label, adj, schedule) in &epochs {
        let outcome = run_delta(&alg, adj, &after, schedule);
        println!(
            "epoch '{label}': σ-stable = {}, activations = {}",
            is_stable(&alg, adj, &outcome.final_state),
            outcome.activations
        );
        after = outcome.final_state;
    }

    // Leaf-to-leaf traffic still flows (through the surviving spines)…
    println!(
        "\nleaf 3 → leaf 8 hop count after the failure: {}",
        after.get(3, 8)
    );
    assert_eq!(after.get(3, 8), &NatInf::fin(2));
    // …and the re-converged state is exactly the fixed point of the new
    // topology, as absolute convergence demands.
    let reference =
        iterate_to_fixed_point(&alg, &adj_degraded, &RoutingState::identity(&alg, 9), 100);
    assert_eq!(after, reference.state);
    println!("re-converged state matches the fixed point of the degraded fabric");

    // The dead spine is unreachable from everyone.
    for leaf in 3..9 {
        assert_eq!(after.get(leaf, 0), &NatInf::INF);
    }
    println!("spine 0 is correctly unreachable from every leaf");
}
