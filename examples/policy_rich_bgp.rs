//! A policy-rich BGP-like network written in the Section 7 safe-by-design
//! policy language: route filtering, community tagging and conditional
//! preference manipulation — and still guaranteed to converge, even with
//! session resets and arbitrary message timing.
//!
//! The scenario is the classic "backup link" intent: AS 0 buys transit from
//! two upstreams (1 and 2), wants all traffic to prefer upstream 1, and
//! tags routes learned from upstream 2 so that its own customers can
//! recognise them.
//!
//! Run with: `cargo run --example policy_rich_bgp`

use dbf_routing::bgp::policy::{Condition, Policy};
use dbf_routing::prelude::*;
use dbf_routing::topology::Topology;

const BACKUP: u32 = 200;

fn main() {
    // Topology: 0 is the customer AS; 1 and 2 are its upstreams; 3 is a
    // remote destination reachable through either upstream; 4 is 0's own
    // customer.
    //
    //        3
    //       / \
    //      1   2
    //       \ /
    //        0
    //        |
    //        4
    let mut topo: Topology<Policy> = Topology::new(5);
    let id = Policy::identity;
    topo.set_link(1, 3, id());
    topo.set_link(2, 3, id());
    topo.set_link(0, 1, id());
    topo.set_link(0, 2, id());
    topo.set_link(0, 4, id());

    // Import policy at 0 for routes from upstream 2: tag them as backup and
    // deprefer them.
    topo.set_edge(
        0,
        2,
        Policy::AddComm(BACKUP).then(Policy::when(
            Condition::InComm(BACKUP),
            Policy::IncrPrefBy(50),
        )),
    );
    // 0's customer (AS 4) filters anything still carrying the backup tag —
    // a conditional policy, i.e. exactly the kind of route map that breaks
    // distributivity.
    topo.set_edge(
        4,
        0,
        Policy::when(Condition::InComm(BACKUP), Policy::Reject),
    );

    println!("running the BGP-like engine with session resets...\n");
    let report = BgpEngine::new(
        &topo,
        BgpConfig {
            session_resets: 4,
            seed: 11,
            ..BgpConfig::default()
        },
    )
    .run();
    // The engine reports its tables; whether they are σ's fixed point is
    // ours to judge.
    let alg = BgpAlgebra::new(5);
    let adj = alg.adjacency_from_topology(&topo);
    let fixed = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 5), 100);
    let stats = report.stats;

    println!(
        "converged = {} after {} updates ({} withdrawals, {} table changes)\n",
        fixed.converged && report.final_state == fixed.state,
        stats.counters.sent - stats.withdrawals,
        stats.withdrawals,
        stats.table_changes
    );

    for (who, label) in [
        (0usize, "AS 0 (dual-homed customer)"),
        (4usize, "AS 4 (0's customer)"),
    ] {
        println!("{label} routing table:");
        for dest in 0..5 {
            let r = report.final_state.get(who, dest);
            println!("  → {dest}: {r:?}");
        }
        println!();
    }

    // The intent was honoured: 0 reaches 3 via upstream 1 (level 0, no tag)…
    let r03 = report.final_state.get(0, 3);
    assert_eq!(r03.simple_path().unwrap().nodes(), &[0, 1, 3]);
    // …and the backup path via 2 exists in principle but was depreffed, so
    // the chosen route carries no backup tag, and 4 is therefore not cut off.
    let r43 = report.final_state.get(4, 3);
    assert!(
        !r43.is_invalid(),
        "AS 4 still reaches 3 through the primary path"
    );
    println!("intent honoured: primary via AS 1, backup depreffed, customer unaffected");
}
