//! A BGP-like path-vector protocol engine over the Section 7 algebra.
//!
//! The engine models the operational shape of BGP rather than its exact
//! wire behaviour, as rules over the one message loop:
//!
//! * every router originates one destination (itself);
//! * routers maintain an **adj-RIB-in** per neighbour (the last route each
//!   neighbour announced per destination, stored as imported — after the
//!   neighbour's import policy) and a **loc-RIB** (the selected best
//!   routes);
//! * selection applies the configured import [`Policy`] of the Section 7
//!   algebra and its decision procedure (level, then path length, then
//!   tie-break), with loop detection on the AS path;
//! * only *changes* to the loc-RIB are advertised, as incremental
//!   announcements or explicit withdrawals;
//! * sessions deliver messages reliably and in order (per neighbour pair),
//!   as BGP's TCP transport does, but with per-message delays so different
//!   sessions interleave arbitrarily; sessions can also be **reset**, which
//!   clears the adj-RIB-in on both sides and forces a full re-advertisement
//!   — the "hard-state" analogue of the paper's arbitrary starting states.
//!
//! Because every expressible policy keeps the algebra increasing, the
//! engine converges to the unique fixed point no matter the policies,
//! delays or session resets — which is what the tests verify.

use crate::wire::{BgpUpdate, MAX_NODES};
use dbf_async::event_loop::{Channel, MessageLoop, Net, Protocol};
use dbf_bgp::algebra::BgpAlgebra;
use dbf_bgp::policy::Policy;
use dbf_matrix::{AdjacencyMatrix, MessageRun, RibIn, RoutingState};
use dbf_paths::NodeId;
use dbf_topology::Topology;
use rand::Rng;
use std::rc::Rc;

/// Configuration of the BGP-like engine.
#[derive(Debug, Clone, Copy)]
pub struct BgpConfig {
    /// Minimum per-message session delay.
    pub min_delay: u64,
    /// Maximum per-message session delay (sessions stay in order; different
    /// sessions interleave).
    pub max_delay: u64,
    /// Number of randomly timed session resets to inject.
    pub session_resets: usize,
    /// Simulation end time.
    pub max_time: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BgpConfig {
    fn default() -> Self {
        Self {
            min_delay: 1,
            max_delay: 10,
            session_resets: 0,
            max_time: 100_000,
            seed: 0,
        }
    }
}

/// The BGP-like engine's protocol rules.
struct Bgp {
    alg: BgpAlgebra,
    /// `adj.dependants(j)`: the neighbours that import from node `j` (the
    /// peers `j` announces to), in ascending order.
    adj: AdjacencyMatrix<BgpAlgebra>,
    config: BgpConfig,
    /// In-order delivery: per ordered pair (from, to), the time the last
    /// message on that session arrives.
    session_clock: Vec<Vec<u64>>,
    /// adj-RIB-in: `rib_in[i]` holds, per neighbour `k` and `dest`, the
    /// last route `k` announced to `i` for `dest`, as imported by `A_ik`.
    rib_in: Vec<RibIn<BgpAlgebra>>,
    /// loc-RIB: `loc_rib.get(i, dest)` = node `i`'s selected route.
    loc_rib: RoutingState<BgpAlgebra>,
}

/// The BGP-like engine.
pub struct BgpEngine(MessageLoop<Bgp>);

impl Protocol for Bgp {
    type Alg = BgpAlgebra;
    /// A wire-encoded [`BgpUpdate`]: an announcement (route present) or a
    /// withdrawal (route absent), encoded once per announcement and shared
    /// by its listeners' messages.  Delivery decodes the bytes again, so
    /// the decoder of [`crate::wire`] runs on every session message.
    type Msg = Rc<[u8]>;
    /// Tear down and re-establish the session between two endpoints.
    type Timer = (NodeId, NodeId);
    const ENCODED: bool = true;

    fn wire_size(msg: &Rc<[u8]>) -> usize {
        msg.len()
    }

    fn receive(&mut self, net: &mut Net<Self>, from: NodeId, to: NodeId, bytes: Rc<[u8]>) {
        let update =
            BgpUpdate::decode(&bytes).expect("the engine only delivers messages it encoded");
        let route = update
            .to_route()
            .expect("the engine only announces simple paths");
        let (dest, imports) = (update.dest, self.adj.row(to));
        // An update over a link `to` has no import policy for (a reset
        // re-advertises in both directions) is processed and dropped: no
        // decision could read it.
        if let Some(link) = self.rib_in[to].link(imports, from) {
            self.rib_in[to].import(&self.alg, imports, link, dest, &route);
            if net.decide(&self.alg, &self.rib_in[to], &mut self.loc_rib, to, dest) {
                self.announce(net, to, dest, None);
            }
        }
    }

    /// Clear what each endpoint heard from the other and re-advertise, as
    /// a BGP session reset does.
    fn fire(&mut self, net: &mut Net<Self>, (a, b): (NodeId, NodeId)) {
        // Edges are directed: a reset clears both directions whether or
        // not the reverse link exists.
        for (i, k) in [(a, b), (b, a)] {
            let imports = self.adj.row(i);
            if let Some(link) = self.rib_in[i].link(imports, k) {
                self.rib_in[i].withdraw(&self.alg, imports, link);
            }
        }
        let n = self.adj.node_count();
        for dest in 0..n {
            for node in [a, b] {
                if net.decide(&self.alg, &self.rib_in[node], &mut self.loc_rib, node, dest) {
                    self.announce(net, node, dest, None);
                }
            }
        }
        for (x, y) in [(a, b), (b, a)] {
            for dest in 0..n {
                self.announce(net, x, dest, Some(y));
            }
        }
    }

    fn into_state(self) -> RoutingState<BgpAlgebra> {
        self.loc_rib
    }
}

impl BgpEngine {
    /// Create an engine from a topology whose directed edges carry import
    /// policies (`topo.edge(i, j)` = the policy node `i` applies to routes
    /// announced by `j`).
    pub fn new(topo: &Topology<Policy>, config: BgpConfig) -> Self {
        let alg = BgpAlgebra::new(topo.node_count());
        let adj = alg.adjacency_from_topology(topo);
        Self::from_parts(alg, adj, config)
    }

    /// Create an engine directly from an algebra and its adjacency of edge
    /// functions — the constructor the scenario layer uses, so the engine
    /// selects routes with *exactly* the algebra instance σ iterates.
    ///
    /// # Panics
    ///
    /// Panics if the network has more than [`MAX_NODES`] nodes (ids and
    /// path lengths are u16 wire fields).
    pub fn from_parts(
        alg: BgpAlgebra,
        adj: AdjacencyMatrix<BgpAlgebra>,
        config: BgpConfig,
    ) -> Self {
        let n = adj.node_count();
        assert!(
            n <= MAX_NODES,
            "{n} nodes do not fit the u16 wire fields (at most {MAX_NODES})"
        );
        let channel = Channel {
            loss: None,
            duplicate: None,
            min_delay: config.min_delay,
            max_delay: config.max_delay,
        };
        let mut run = MessageLoop {
            proto: Bgp {
                loc_rib: RoutingState::identity(&alg, n),
                rib_in: (0..n).map(|i| RibIn::new(&alg, i, adj.row(i), n)).collect(),
                alg,
                adj,
                config,
                session_clock: vec![vec![0; n]; n],
            },
            net: Net::new(config.seed, channel),
        };
        let (bgp, net) = (&mut run.proto, &mut run.net);
        // Session establishment: everyone announces its own prefix.
        for i in 0..n {
            bgp.announce(net, i, i, None);
        }
        // Inject session resets at random times over the first half of the
        // run.
        for _ in 0..config.session_resets {
            let a = net.rng.gen_range(0..n);
            let neighbors = bgp.adj.row(a);
            if neighbors.is_empty() {
                continue;
            }
            let b = neighbors[net.rng.gen_range(0..neighbors.len())].0;
            let at = net.rng.gen_range(1..=config.max_time / 2);
            net.schedule(at, (a, b));
        }
        Self(run)
    }

    /// Run the engine until no message is left, or to `max_time`: a run
    /// cut there with messages still queued is truncated.
    pub fn run(mut self) -> MessageRun<BgpAlgebra> {
        let truncated = self.0.drain(self.0.proto.config.max_time, u64::MAX);
        self.0.finish(truncated)
    }
}

impl Bgp {
    /// Send node `i`'s loc-RIB entry for `dest` — an announcement, or a
    /// withdrawal — to `only`, or else to every peer importing from `i`,
    /// each on its in-order session.  The update is encoded once.
    fn announce(&mut self, net: &mut Net<Self>, i: NodeId, dest: NodeId, only: Option<NodeId>) {
        let route = self.loc_rib.get(i, dest);
        let encoded: Rc<[u8]> = BgpUpdate::from_route(i, dest, route).encode().into();
        let withdrawal = route.is_invalid();
        let peers = only
            .as_ref()
            .map_or(self.adj.dependants(i), std::slice::from_ref);
        for &to in peers {
            net.stats.withdrawals += u64::from(withdrawal);
            let session = &mut self.session_clock[i][to];
            net.send(i, to, Rc::clone(&encoded), Some(session));
        }
    }
}

/// Attach the same import policy to every directed edge of a shape — a
/// convenience used by tests, examples and experiments.
pub fn uniform_policies(shape: &Topology<()>, policy: Policy) -> Topology<Policy> {
    shape.with_weights(|_, _| policy.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_algebra::algebra::SplitMix64;
    use dbf_bgp::algebra::random_policy;
    use dbf_bgp::policy::Condition;
    use dbf_matrix::iterate_to_fixed_point;
    use dbf_topology::generators;

    /// Did the run end on σ's fixed point for `topo`'s policies?
    fn converged(topo: &Topology<Policy>, run: &MessageRun<BgpAlgebra>) -> bool {
        let n = topo.node_count();
        let alg = BgpAlgebra::new(n);
        let adj = alg.adjacency_from_topology(topo);
        let x0 = RoutingState::identity(&alg, n);
        let reference = iterate_to_fixed_point(&alg, &adj, &x0, 2 * n * n + 16);
        reference.converged && run.final_state == reference.state
    }

    #[test]
    fn plain_policies_converge_to_shortest_as_paths() {
        let shape = generators::ring(6);
        let topo = uniform_policies(&shape, Policy::identity());
        let report = BgpEngine::new(&topo, BgpConfig::default()).run();
        assert!(converged(&topo, &report));
        // ring: the AS path to the node two hops away has two edges
        let r = report.final_state.get(0, 2);
        assert_eq!(r.simple_path().unwrap().len(), 2);
        assert!(report.stats.counters.sent > 0);
    }

    #[test]
    fn random_safe_policies_always_converge() {
        for seed in 0..4 {
            let shape = generators::connected_random(7, 0.35, seed);
            let mut rng = SplitMix64::new(seed ^ 0xABCD);
            let topo = shape.with_weights(|_, _| random_policy(&mut rng, 2));
            let cfg = BgpConfig {
                seed,
                ..BgpConfig::default()
            };
            let report = BgpEngine::new(&topo, cfg).run();
            assert!(converged(&topo, &report), "seed {seed} failed to converge");
        }
    }

    #[test]
    fn session_resets_do_not_change_the_outcome() {
        let shape = generators::grid(2, 3);
        let mut rng = SplitMix64::new(99);
        let topo = shape.with_weights(|_, _| random_policy(&mut rng, 1));
        let calm = BgpEngine::new(
            &topo,
            BgpConfig {
                seed: 1,
                ..BgpConfig::default()
            },
        )
        .run();
        let stormy = BgpEngine::new(
            &topo,
            BgpConfig {
                seed: 2,
                session_resets: 6,
                ..BgpConfig::default()
            },
        )
        .run();
        assert!(converged(&topo, &calm) && converged(&topo, &stormy));
        assert_eq!(calm.final_state, stormy.final_state);
        assert!(stormy.stats.counters.sent > calm.stats.counters.sent);
    }

    #[test]
    fn session_resets_on_one_way_links_are_harmless() {
        // A directed ring: node i imports from i+1 and nothing flows the
        // other way, so every reset clears, and re-advertises over, a
        // direction no import policy exists for.  Those updates are
        // processed and dropped.
        let n = 5;
        let mut topo: Topology<Policy> = Topology::new(n);
        for i in 0..n {
            topo.set_edge(i, (i + 1) % n, Policy::AddComm(i as u32));
        }
        let run = |seed, session_resets| {
            let cfg = BgpConfig {
                seed,
                session_resets,
                ..BgpConfig::default()
            };
            BgpEngine::new(&topo, cfg).run()
        };
        let (calm, stormy) = (run(1, 0), run(2, 8));
        assert!(converged(&topo, &calm) && converged(&topo, &stormy));
        assert_eq!(calm.final_state, stormy.final_state);
        let r = stormy.final_state.get(0, 3);
        assert_eq!(r.simple_path().unwrap().nodes(), &[0, 1, 2, 3]);
        // Each reset re-advertises a full table in both directions.
        assert!(
            stormy.stats.counters.delivered >= calm.stats.counters.delivered + 8 * 2 * n as u64,
            "{:?} vs {:?}",
            stormy.stats,
            calm.stats
        );
    }

    #[test]
    fn filtering_policies_black_hole_the_filtered_destination_only() {
        // Node 0 rejects everything it hears from node 1 about destinations
        // carrying community 7 — but nothing tags community 7, so this is a
        // no-op; then a second run where node 0 rejects *all* routes from
        // node 1, which on a line topology cuts 0 off from everything
        // beyond 1.
        let shape = generators::line(4);
        let mut topo = uniform_policies(&shape, Policy::identity());
        topo.set_edge(0, 1, Policy::when(Condition::InComm(7), Policy::Reject));
        let report = BgpEngine::new(&topo, BgpConfig::default()).run();
        assert!(converged(&topo, &report));
        assert!(!report.final_state.get(0, 3).is_invalid());

        let mut topo2 = uniform_policies(&shape, Policy::identity());
        topo2.set_edge(0, 1, Policy::Reject);
        let report2 = BgpEngine::new(&topo2, BgpConfig::default()).run();
        assert!(converged(&topo2, &report2));
        assert!(report2.final_state.get(0, 1).is_invalid());
        assert!(report2.final_state.get(0, 3).is_invalid());
        // the rest of the line is unaffected
        assert!(!report2.final_state.get(1, 3).is_invalid());
    }

    #[test]
    fn community_tagging_policies_affect_downstream_decisions() {
        // Node 0's import from node 2 tags routes with community 5 and then
        // deprefers anything carrying that tag.  The result is policy-rich
        // (non-shortest-path) routing: node 0 prefers the *longer* untagged
        // path around the square over the depreffed direct link to 2.
        let mut topo: Topology<Policy> = Topology::new(4);
        // square: 0-1, 1-3, 2-3, 0-2
        topo.set_link(0, 1, Policy::identity());
        topo.set_link(1, 3, Policy::identity());
        topo.set_link(2, 3, Policy::identity());
        topo.set_link(0, 2, Policy::identity());
        topo.set_edge(
            0,
            2,
            Policy::AddComm(5).then(Policy::when(Condition::InComm(5), Policy::IncrPrefBy(10))),
        );
        let report = BgpEngine::new(&topo, BgpConfig::default()).run();
        assert!(converged(&topo, &report));
        // 0 reaches 3 via 1 (untagged, level 0) rather than via 2 (level 10)
        let r = report.final_state.get(0, 3);
        assert_eq!(r.simple_path().unwrap().nodes(), &[0, 1, 3]);
        assert_eq!(r.level(), Some(0));
        // 0's route to 2 itself avoids the depreffed tagged link and takes
        // the three-hop untagged path instead
        let r2 = report.final_state.get(0, 2);
        assert_eq!(r2.simple_path().unwrap().nodes(), &[0, 1, 3, 2]);
        assert_eq!(r2.level(), Some(0));
        assert!(r2.communities().unwrap().is_empty());
    }

    #[test]
    fn statistics_are_populated() {
        let shape = generators::star(5);
        let topo = uniform_policies(&shape, Policy::identity());
        let report = BgpEngine::new(
            &topo,
            BgpConfig {
                seed: 7,
                ..BgpConfig::default()
            },
        )
        .run();
        assert!(converged(&topo, &report));
        assert!(!report.truncated);
        let c = report.stats.counters;
        assert!(c.delivered > 0);
        assert!(report.stats.finish_time >= report.stats.last_change_time);
        assert_eq!(c.dropped, 0, "sessions are reliable");
        // Every session message crossed the wire codec (a withdrawal is the
        // 5-byte minimum).
        assert!(c.bytes.unwrap() >= 5 * c.sent);
    }

    #[test]
    fn a_run_cut_at_max_time_with_messages_queued_is_truncated() {
        let topo = uniform_policies(&generators::ring(6), Policy::identity());
        let cfg = BgpConfig {
            max_time: 3,
            ..BgpConfig::default()
        };
        let cut = BgpEngine::new(&topo, cfg).run();
        assert!(cut.truncated && !converged(&topo, &cut));
        assert!(cut.stats.finish_time <= 3);
    }

    #[test]
    #[should_panic(expected = "do not fit the u16 wire fields")]
    fn a_network_wider_than_the_wire_ids_is_rejected_at_construction() {
        let n = MAX_NODES + 1;
        let _ = BgpEngine::from_parts(
            BgpAlgebra::new(n),
            AdjacencyMatrix::empty(n),
            BgpConfig::default(),
        );
    }

    #[test]
    fn from_parts_matches_the_topology_constructor() {
        let shape = generators::ring(5);
        let mut rng = SplitMix64::new(31);
        let topo = shape.with_weights(|_, _| random_policy(&mut rng, 1));
        let alg = BgpAlgebra::new(5);
        let adj = alg.adjacency_from_topology(&topo);
        let cfg = BgpConfig {
            seed: 3,
            ..BgpConfig::default()
        };
        let a = BgpEngine::new(&topo, cfg).run();
        let b = BgpEngine::from_parts(alg, adj, cfg).run();
        assert!(converged(&topo, &a) && converged(&topo, &b));
        assert_eq!(a.final_state, b.final_state);
        assert_eq!(a.stats, b.stats);
    }
}
