//! Quickstart: the same routing problem solved synchronously, under an
//! adversarial asynchronous schedule, and by the message-level simulator —
//! all three agree, as Theorem 7/11 of the paper promise.
//!
//! Run with: `cargo run --example quickstart`

use dbf_routing::prelude::*;
use dbf_routing::topology::generators;

fn main() {
    // A small service-provider-ish topology: a ring of six routers with a
    // chord, and per-link latencies.
    let mut shape = generators::ring(6);
    shape.set_link(0, 3, ());
    let latency = |i: usize, j: usize| NatInf::fin(((i * 3 + j * 5) % 7 + 1) as u64);
    let topo = shape.with_weights(latency);

    let alg = ShortestPaths::new();
    let adj = AdjacencyMatrix::from_topology(&topo);
    let clean = RoutingState::identity(&alg, 6);

    // 1. The synchronous model: repeated application of σ.
    let sync = iterate_to_fixed_point(&alg, &adj, &clean, 100);
    println!(
        "synchronous:  converged in {} rounds of σ (stable = {})",
        sync.iterations, sync.converged
    );

    // 2. The asynchronous iterate δ under a harsh schedule: messages are
    //    delayed, duplicated and reordered, nodes activate sporadically.
    let schedule = Schedule::random(6, 400, ScheduleParams::harsh(), 2024);
    let asynchronous = run_delta(&alg, &adj, &clean, &schedule);
    println!(
        "asynchronous: {} activations, σ-stable = {}, same answer = {}",
        asynchronous.activations,
        is_stable(&alg, &adj, &asynchronous.final_state),
        asynchronous.final_state == sync.state
    );

    // 3. The message-level simulator with loss, duplication and reordering.
    let sim = EventSim::new(&alg, &adj, SimConfig::adversarial(7)).run();
    println!(
        "simulator:    {} messages ({} lost, {} duplicated), same answer = {}",
        sim.stats.counters.sent,
        sim.stats.counters.dropped,
        sim.stats.counters.duplicated,
        sim.final_state == sync.state
    );

    // Print node 0's routing table.
    println!("\nnode 0's routing table (destination: best latency):");
    for dest in 0..6 {
        println!("  → {dest}: {}", sync.state.get(0, dest));
    }

    assert_eq!(asynchronous.final_state, sync.state);
    assert_eq!(sim.final_state, sync.state);
    println!("\nall three computations agree — absolute convergence in action");
}
