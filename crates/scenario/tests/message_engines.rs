//! The two seeded message-level engines land on σ's fixed point on the
//! `policy-rich-bgp` builtin's network at the repo benchmark's size and at
//! twice it.
//!
//! `connected_random(n, 0.4, 5)` with depth-2 Section 7 policies from
//! policy seed `0xBEEF`, n = 20 (what `policy-diff` runs) and n = 40 (where
//! the degree doubles and no builtin or workload reaches), under the
//! builtin's second-phase faults: 20 % loss and duplication for the event
//! simulator, two session resets for the BGP wire engine.

use dbf_algebra::instances::nat_inf::NatInf;
use dbf_async::prelude::*;
use dbf_bgp::prelude::*;
use dbf_matrix::prelude::*;
use dbf_protocols::prelude::*;
use dbf_scenario::run::policy_for_edge;
use dbf_topology::{generators, Topology};

/// Every counter a message engine keeps, in one printable record.
#[derive(Debug)]
#[allow(dead_code)] // the fields are read through `Debug`
struct Counters {
    sent: u64,
    delivered: u64,
    lost: u64,
    duplicated: u64,
    bytes: Option<u64>,
    withdrawals: u64,
    table_changes: u64,
    last_change_time: u64,
    finish_time: u64,
    rounds: u64,
}

impl From<&MessageStats> for Counters {
    fn from(s: &MessageStats) -> Self {
        Counters {
            sent: s.counters.sent,
            delivered: s.counters.delivered,
            lost: s.counters.dropped,
            duplicated: s.counters.duplicated,
            bytes: s.counters.bytes,
            withdrawals: s.withdrawals,
            table_changes: s.table_changes,
            last_change_time: s.last_change_time,
            finish_time: s.finish_time,
            rounds: s.refreshes,
        }
    }
}

/// The counters of sim and bgp on the `policy-rich-bgp` network at n = 20
/// (seed 1, the faults of the test below), and of rip on the
/// `count-to-infinity` network: converged from the identity, then carried
/// across the loss of node 3's only link.  Then the paths the scenario
/// layer never takes: sim cut at its event budget (with its settle
/// times), RIP's loss draw, its two other split-horizon modes and its
/// count-to-infinity from stale routes, and BGP's session resets over
/// one-way links.
const PINNED_COUNTERS: &str = "\
sim Counters { sent: 21943, delivered: 21145, lost: 4330, duplicated: 3532, bytes: None, withdrawals: 0, table_changes: 1006, last_change_time: 62, finish_time: 67, rounds: 3 }
bgp Counters { sent: 6774, delivered: 6774, lost: 0, duplicated: 0, bytes: Some(145570), withdrawals: 0, table_changes: 781, last_change_time: 32493, finish_time: 99906, rounds: 0 }
rip Counters { sent: 556, delivered: 556, lost: 0, duplicated: 0, bytes: Some(15568), withdrawals: 0, table_changes: 12, last_change_time: 10, finish_time: 1999, rounds: 268 }
rip Counters { sent: 448, delivered: 448, lost: 0, duplicated: 0, bytes: Some(12544), withdrawals: 0, table_changes: 27, last_change_time: 215, finish_time: 2000, rounds: 268 }
sim truncated: true settled: [7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 6, 7, 7, 7] Counters { sent: 8057, delivered: 5000, lost: 1637, duplicated: 1258, bytes: None, withdrawals: 0, table_changes: 544, last_change_time: 7, finish_time: 7, rounds: 0 }
rip Counters { sent: 5380, delivered: 4025, lost: 1353, duplicated: 0, bytes: Some(279760), withdrawals: 0, table_changes: 86, last_change_time: 1438, finish_time: 6000, rounds: 1601 }
rip Counters { sent: 1871, delivered: 1865, lost: 0, duplicated: 0, bytes: Some(108518), withdrawals: 0, table_changes: 121, last_change_time: 13, finish_time: 2000, rounds: 602 }
rip Counters { sent: 1865, delivered: 1859, lost: 0, duplicated: 0, bytes: Some(76316), withdrawals: 0, table_changes: 116, last_change_time: 13, finish_time: 2000, rounds: 602 }
rip Counters { sent: 1349, delivered: 1349, lost: 0, duplicated: 0, bytes: Some(29678), withdrawals: 0, table_changes: 17, last_change_time: 36, finish_time: 19999, rounds: 2001 }
bgp Counters { sent: 263, delivered: 263, lost: 0, duplicated: 0, bytes: Some(4927), withdrawals: 113, table_changes: 178, last_change_time: 49546, finish_time: 49550, rounds: 0 }
";

#[test]
fn every_message_engine_counter_matches_the_recorded_table() {
    let n = 20;
    let alg = BgpAlgebra::new(n);
    let topo = generators::connected_random(n, 0.4, 5)
        .with_weights(|i, j| policy_for_edge(0xBEEF, i, j, 2));
    let adj = alg.adjacency_from_topology(&topo);
    let mut actual = String::new();

    let cfg = SimConfig {
        loss_prob: 0.2,
        duplicate_prob: 0.2,
        seed: 1,
        refresh_rounds: 64,
        ..SimConfig::default()
    };
    let sim = EventSim::new(&alg, &adj, cfg).run();
    actual.push_str(&format!("sim {:?}\n", Counters::from(&sim.stats)));

    let cfg = BgpConfig {
        max_delay: 5,
        session_resets: 2,
        max_time: 200_000,
        seed: 1,
        ..BgpConfig::default()
    };
    let bgp = BgpEngine::from_parts(alg, adj, cfg).run();
    actual.push_str(&format!("bgp {:?}\n", Counters::from(&bgp.stats)));

    let mut shape = Topology::new(4);
    for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 2)] {
        shape.set_link(a, b, ());
    }
    let cfg = RipConfig {
        seed: 1,
        ..RipConfig::default()
    };
    let baseline = RipEngine::new(&shape, cfg).run();
    actual.push_str(&format!("rip {:?}\n", Counters::from(&baseline.stats)));
    shape.remove_link(2, 3);
    let cut = RipEngine::new(&shape, cfg)
        .with_initial_state(&baseline.final_state)
        .run();
    actual.push_str(&format!("rip {:?}\n", Counters::from(&cut.stats)));

    let cfg = SimConfig {
        loss_prob: 0.2,
        duplicate_prob: 0.2,
        seed: 1,
        max_events: 5_000,
        ..SimConfig::default()
    };
    let alg = BgpAlgebra::new(n);
    let adj = alg.adjacency_from_topology(&topo);
    let sim = EventSim::new(&alg, &adj, cfg).run();
    actual.push_str(&format!(
        "sim truncated: {} settled: {:?} {:?}\n",
        sim.truncated,
        sim.node_last_change,
        Counters::from(&sim.stats)
    ));

    let lossy = RipEngine::new(
        &generators::connected_random(8, 0.3, 3),
        RipConfig::lossy(1, 0.25),
    );
    actual.push_str(&format!("rip {:?}\n", Counters::from(&lossy.run().stats)));
    for split_horizon in [SplitHorizon::Off, SplitHorizon::Simple] {
        let cfg = RipConfig {
            split_horizon,
            seed: 1,
            ..RipConfig::default()
        };
        let run = RipEngine::new(&generators::grid(3, 3), cfg).run();
        actual.push_str(&format!("rip {:?}\n", Counters::from(&run.stats)));
    }
    let mut pair = Topology::new(3);
    pair.set_link(0, 1, ());
    let cfg = RipConfig {
        split_horizon: SplitHorizon::Off,
        max_time: 20_000,
        route_timeout: 1_000_000,
        seed: 1,
        ..RipConfig::default()
    };
    let counting = RipEngine::new(&pair, cfg)
        .with_stale_route(0, 2, NatInf::fin(3), Some(1))
        .with_stale_route(1, 2, NatInf::fin(3), Some(0))
        .run();
    actual.push_str(&format!("rip {:?}\n", Counters::from(&counting.stats)));

    let mut ring: Topology<Policy> = Topology::new(5);
    for i in 0..5 {
        ring.set_edge(i, (i + 1) % 5, Policy::AddComm(i as u32));
    }
    let cfg = BgpConfig {
        session_resets: 8,
        seed: 2,
        ..BgpConfig::default()
    };
    let bgp = BgpEngine::new(&ring, cfg).run();
    actual.push_str(&format!("bgp {:?}\n", Counters::from(&bgp.stats)));

    assert!(
        actual == PINNED_COUNTERS,
        "message-engine counters moved; the runs produced:\n{actual}"
    );
}

#[test]
fn sim_and_bgp_land_on_sigmas_fixed_point_at_the_benchmark_size_and_twice_it() {
    for n in [20usize, 40] {
        let alg = BgpAlgebra::new(n);
        let topo = generators::connected_random(n, 0.4, 5)
            .with_weights(|i, j| policy_for_edge(0xBEEF, i, j, 2));
        let adj = alg.adjacency_from_topology(&topo);
        let x0 = RoutingState::identity(&alg, n);
        let reference = iterate_to_fixed_point(&alg, &adj, &x0, 4 * n);
        assert!(reference.converged);

        let cfg = SimConfig {
            loss_prob: 0.2,
            duplicate_prob: 0.2,
            seed: 1,
            refresh_rounds: 64,
            ..SimConfig::default()
        };
        let out = EventSim::new(&alg, &adj, cfg).run();
        let stable = is_stable(&alg, &adj, &out.final_state);
        assert!(stable && !out.truncated, "sim at n = {n}");
        assert!(
            out.final_state == reference.state,
            "sim missed σ's fixed point at n = {n}"
        );
        assert!(out.stats.counters.dropped > 0 && out.stats.counters.duplicated > 0);

        let cfg = BgpConfig {
            max_delay: 5,
            session_resets: 2,
            max_time: 200_000,
            seed: 1,
            ..BgpConfig::default()
        };
        let report = BgpEngine::from_parts(alg, adj, cfg).run();
        assert!(!report.truncated, "bgp ran out of time at n = {n}");
        assert!(
            report.final_state == reference.state,
            "bgp missed σ's fixed point at n = {n}"
        );
    }
}
