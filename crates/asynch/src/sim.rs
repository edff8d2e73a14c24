//! A message-level discrete-event simulator with loss, duplication,
//! reordering and bounded delay.
//!
//! The schedule model of Section 3.1 is deliberately abstract; this module
//! provides the concrete, operational counterpart: nodes keep routing
//! tables, advertise changed routes to their neighbours as messages, and a
//! fault-injecting network delivers those messages late, twice, out of
//! order, or not at all.  Every execution of the simulator corresponds to
//! *some* schedule `(α, β)` — a node processing a message at time `t` that
//! was sent at time `s` is an activation at `t` using data generated at
//! `s < t`, lost messages simply mean that data is never used, and
//! duplicates mean it is used twice — so Theorems 7 and 11 apply verbatim.
//!
//! The simulator follows the standard DBF message-passing formulation: node
//! `i` remembers, for every neighbour `k` and destination `j`, the last
//! route `k` advertised for `j` (`adv[k][j]`), and recomputes
//! `table[j] = I_ij ⊕ ⨁_k A_ik(adv[k][j])` whenever an advertisement
//! arrives.  Changed table entries are re-advertised to every neighbour.
//! What a node stores is the *imported* `A_ik(adv[k][j])` (a
//! [`RibIn`]), so a delivery costs one import and a fold over what is
//! already there.
//!
//! Like the real protocols it models (BGP's ordered transport, RIP's
//! freshest-route rule), a receiver discards an advert that has been
//! *superseded* by a newer one from the same sender for the same
//! destination: reordering still scrambles the interleaving across links
//! and destinations — the asynchrony the theorems quantify over — but an
//! overtaken stale advert cannot masquerade as current information forever,
//! which is what schedule axiom S3 rules out.
//!
//! These are protocol rules over the one message loop
//! ([`crate::event_loop`]); a run ends in its [`MessageRun`] and judges
//! nothing: whether its tables are σ's fixed point is the caller's question.
//! The one stability test here is the refresh timer's ([`EventSim::run`]).

use crate::event_loop::{Channel, MessageLoop, Net, Protocol};
use dbf_algebra::RoutingAlgebra;
use dbf_matrix::{is_stable, AdjacencyMatrix, MessageRun, RibIn, RoutingState};
use dbf_paths::NodeId;
use std::rc::Rc;

/// Fault-injection and scheduling parameters of the simulated network.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Probability that a message is silently dropped.
    pub loss_prob: f64,
    /// Probability that a message is delivered twice.
    pub duplicate_prob: f64,
    /// Minimum link delay (simulated time units).
    pub min_delay: u64,
    /// Maximum link delay; different in-flight messages on the same link may
    /// overtake each other, which is exactly message reordering.
    pub max_delay: u64,
    /// RNG seed (the simulator is deterministic in the seed).
    pub seed: u64,
    /// Safety limit on the number of delivered events.
    pub max_events: usize,
    /// How many periodic full-table refresh rounds a node may perform after
    /// the network goes quiet without having reached a stable state.
    ///
    /// This is the operational counterpart of schedule axioms S1 and S3:
    /// real protocols either retransmit (BGP's reliable transport) or
    /// periodically re-advertise (RIP's update timer), so a *lost* message
    /// delays convergence but does not silently break it.  Without any
    /// refresh, a lossy network could permanently withhold information,
    /// which the paper's model explicitly excludes.
    pub refresh_rounds: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            loss_prob: 0.0,
            duplicate_prob: 0.0,
            min_delay: 1,
            max_delay: 5,
            seed: 0,
            max_events: 1_000_000,
            refresh_rounds: 16,
        }
    }
}

impl SimConfig {
    /// A lossy, duplicating, heavily reordering network.
    pub fn adversarial(seed: u64) -> Self {
        Self {
            loss_prob: 0.2,
            duplicate_prob: 0.2,
            min_delay: 1,
            max_delay: 20,
            seed,
            max_events: 2_000_000,
            refresh_rounds: 64,
        }
    }
}

#[derive(Debug, Clone)]
struct Advert<R> {
    /// The advert's send generation.  Receivers discard a message
    /// that has been superseded by a newer advert from the same sender for
    /// the same destination — the miniature of BGP's ordered transport and
    /// RIP's freshest-route rule.  Without this, a delayed cold-start
    /// ∞-advert can overtake the real one and permanently poison the
    /// receiver's `adv` slot (the sender's table never changes again, so
    /// nothing overwrites it), which `scenarios fuzz` exposed as
    /// count-to-infinity livelocks on plain *trees*.
    gen: u64,
    dest: NodeId,
    /// One advert, shared by every listener's copy and duplicate.
    route: Rc<R>,
}

/// The simulator's protocol rules.
struct Sim<'a, A: RoutingAlgebra> {
    alg: &'a A,
    /// `adj.dependants(j)`: the nodes that import from `j` (`A_ij`
    /// present), i.e. the peers `j` announces to, in ascending order.
    adj: &'a AdjacencyMatrix<A>,
    /// `tables.get(i, j)`: node `i`'s current best route to `j`.
    tables: RoutingState<A>,
    /// `ribs[i]`: what node `i` has heard, as imported — per link `k` and
    /// destination `j`, `A_ik` of the last route `k` advertised for `j`.
    ribs: Vec<RibIn<A>>,
    /// How many adverts have been sent, by any node: each advert's
    /// generation.  Receivers compare only generations of one sender's
    /// adverts for one destination, which this stamp orders as sent.
    adverts: u64,
    /// `seen_gen[i][ribs[i].slot(k's link, j)]`: the newest generation node
    /// `i` has accepted from neighbour `k` for destination `j`; older
    /// arrivals are superseded and ignored.
    seen_gen: Vec<Vec<u64>>,
}

impl<A: RoutingAlgebra> Protocol for Sim<'_, A> {
    type Alg = A;
    type Msg = Advert<A::Route>;
    type Timer = std::convert::Infallible;

    fn receive(&mut self, net: &mut Net<Self>, from: NodeId, to: NodeId, msg: Advert<A::Route>) {
        let imports = self.adj.row(to);
        let rib = &mut self.ribs[to];
        let link = rib
            .link(imports, from)
            .expect("adverts travel to importers only");
        let seen = &mut self.seen_gen[to][rib.slot(link, msg.dest)];
        // A superseded advert (an older generation overtaken in flight)
        // is discarded; a duplicate of the newest generation is
        // re-applied, which is idempotent.
        if msg.gen < *seen {
            return;
        }
        *seen = msg.gen;
        rib.import(self.alg, imports, link, msg.dest, &msg.route);
        if net.decide(self.alg, &self.ribs[to], &mut self.tables, to, msg.dest) {
            self.advertise(net, to, msg.dest);
        }
    }

    fn into_state(self) -> RoutingState<A> {
        self.tables
    }
}

impl<A: RoutingAlgebra> Sim<'_, A> {
    /// Announce `from`'s route for `dest` to everyone importing from it,
    /// stamped with its next generation.  The channel draws for each
    /// listener in ascending order.
    fn advertise(&mut self, net: &mut Net<Self>, from: NodeId, dest: NodeId) {
        self.adverts += 1;
        let gen = self.adverts;
        let route = Rc::new(self.tables.get(from, dest).clone());
        let msg = Advert { gen, dest, route };
        for &to in self.adj.dependants(from) {
            net.send(from, to, msg.clone(), None);
        }
    }

    fn advertise_full_table(&mut self, net: &mut Net<Self>, i: NodeId) {
        for dest in 0..self.adj.node_count() {
            self.advertise(net, i, dest);
        }
    }
}

/// The message-level simulator.
pub struct EventSim<'a, A: RoutingAlgebra> {
    config: SimConfig,
    run: MessageLoop<Sim<'a, A>>,
}

impl<'a, A: RoutingAlgebra> EventSim<'a, A> {
    /// Create a simulator over the given network, starting from the clean
    /// state in which every node knows only the trivial route to itself.
    pub fn new(alg: &'a A, adj: &'a AdjacencyMatrix<A>, config: SimConfig) -> Self {
        let initial = RoutingState::identity(alg, adj.node_count());
        Self::with_initial_state(alg, adj, config, &initial)
    }

    /// Create a simulator whose nodes start with the given (possibly stale
    /// or inconsistent) tables — the "arbitrary starting state" of the
    /// convergence theorems.
    pub fn with_initial_state(
        alg: &'a A,
        adj: &'a AdjacencyMatrix<A>,
        config: SimConfig,
        initial: &RoutingState<A>,
    ) -> Self {
        let n = adj.node_count();
        assert_eq!(n, initial.node_count(), "initial state dimension mismatch");
        let ribs: Vec<RibIn<A>> = (0..n).map(|i| RibIn::new(alg, i, adj.row(i), n)).collect();
        let seen_gen = ribs.iter().map(|rib| vec![0; rib.slot_count()]).collect();
        let channel = Channel {
            loss: Some(config.loss_prob),
            duplicate: Some(config.duplicate_prob),
            min_delay: config.min_delay,
            max_delay: config.max_delay,
        };
        let mut run = MessageLoop {
            proto: Sim {
                alg,
                adj,
                tables: initial.clone(),
                ribs,
                adverts: 0,
                seen_gen,
            },
            net: Net::new(config.seed, channel),
        };
        run.net.settled = vec![0; n];
        // Every node initially advertises its whole table to its neighbours
        // (the protocol's cold-start announcements).
        for i in 0..n {
            run.proto.advertise_full_table(&mut run.net, i);
        }
        Self { config, run }
    }

    /// Run the simulation: deliver messages until the network quiesces; if
    /// the state is not σ-stable, perform a periodic full-table refresh —
    /// as RIP's update timer or BGP's retransmission would — and continue,
    /// up to `refresh_rounds` times.
    ///
    /// The refresh timer fires every `32·n²` *delivered events*, not only
    /// when the event queue drains.  This matters: a reordered cold-start
    /// advertisement can permanently poison a neighbour's `adv` slot (the
    /// sender's table never changes again, so the stale entry is never
    /// overwritten), and the resulting churn can keep the queue occupied
    /// indefinitely — schedule axiom S3 ("stale information is eventually
    /// replaced") would silently fail exactly when it is needed most.
    /// `scenarios fuzz` found this as a livelock on a 5-node *line*: an
    /// in-flight ∞-advert overtook the real one, made a reachable
    /// destination look unreachable, and fed a count-to-infinity loop that
    /// never let the queue drain.  The trigger is event-count-based rather
    /// than simulated-time-based because churn density is unbounded: a
    /// livelocked network can pack millions of deliveries into a few ticks
    /// of simulated time, burning the whole event budget before any clock
    /// deadline arrives.
    ///
    /// The run is truncated when it spent `max_events` before going quiet.
    pub fn run(mut self) -> MessageRun<A> {
        // Generous relative to a healthy cold start (O(n·|E|) ≤ O(n³)
        // deliveries for bounded metrics), so fast convergences drain
        // inside the first slice and see zero refresh overhead, while
        // sustained churn is interrupted and repaired promptly.
        let n = self.run.proto.adj.node_count();
        let slice = (32 * n * n).max(2048) as u64;
        let max_events = self.config.max_events as u64;
        let truncated = loop {
            let stats = &self.run.net.stats;
            let can_refresh = (stats.refreshes as usize) < self.config.refresh_rounds;
            // While refreshes remain, deliver in bounded event slices so
            // the refresh can interrupt sustained churn; once the refresh
            // budget is spent, drain to quiescence (the event budget is the
            // backstop for genuinely diverging runs).
            let done = stats.counters.delivered;
            let pause = if can_refresh { done + slice } else { u64::MAX };
            let queued = self.run.drain(u64::MAX, pause.min(max_events));
            if queued && self.run.net.stats.counters.delivered >= max_events {
                break true;
            }
            let sim = &self.run.proto;
            if is_stable(sim.alg, sim.adj, &sim.tables) || !can_refresh {
                // Stable with messages still in flight (they may yet
                // destabilise us), or churning with no refreshes left:
                // keep delivering.
                if !queued {
                    break false;
                }
                continue;
            }
            self.run.net.stats.refreshes += 1;
            // A refresh is an *activation* of every node (the finite form of
            // schedule axiom S1), not just a retransmission: each node
            // re-runs its decision over everything it has heard and then
            // re-advertises.  Without the recomputation, a node that
            // receives no messages at all — newly isolated by a topology
            // change, say — would keep stale routes forever.
            let MessageLoop { proto: sim, net } = &mut self.run;
            for i in 0..n {
                for dest in 0..n {
                    // No per-entry advert: the full-table advertisement
                    // below covers every destination.
                    net.decide(sim.alg, &sim.ribs[i], &mut sim.tables, i, dest);
                }
                sim.advertise_full_table(net, i);
            }
        };
        self.run.finish(truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_algebra::prelude::*;
    use dbf_matrix::prelude::*;
    use dbf_paths::prelude::*;
    use dbf_topology::generators;

    #[test]
    fn reliable_network_converges_to_the_sigma_fixed_point() {
        let alg = ShortestPaths::new();
        let topo = generators::connected_random(8, 0.3, 2)
            .with_weights(|i, j| NatInf::fin(((i * 3 + j) % 5 + 1) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = EventSim::new(&alg, &adj, SimConfig::default()).run();
        assert!(!out.truncated);
        assert!(is_stable(&alg, &adj, &out.final_state));
        let reference = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 8), 200);
        assert_eq!(out.final_state, reference.state);
        assert!(out.stats.counters.delivered > 0);
        assert_eq!(out.stats.counters.dropped, 0);
    }

    #[test]
    fn lossy_duplicating_reordering_network_still_converges_to_the_same_state() {
        // The headline claim, exercised operationally: with a strictly
        // increasing algebra the protocol converges to the same unique
        // answer even when messages are lost, duplicated and reordered
        // (periodic refresh stands in for S1/S3's "stale information is
        // eventually replaced", exactly as RIP's update timer or BGP's
        // reliable transport do in practice).
        let alg = ShortestPaths::new();
        let topo = generators::ring(6).with_weights(|i, j| NatInf::fin(((i + j) % 4 + 1) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let reference = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 6), 200);
        for seed in 0..10 {
            let out = EventSim::new(&alg, &adj, SimConfig::adversarial(seed)).run();
            assert!(!out.truncated, "seed {seed} exhausted its event budget");
            assert!(
                is_stable(&alg, &adj, &out.final_state),
                "seed {seed} did not stabilise"
            );
            assert_eq!(
                out.final_state, reference.state,
                "seed {seed} stabilised on a different state"
            );
            assert!(
                out.stats.counters.dropped > 0 || out.stats.counters.duplicated > 0,
                "faults were injected"
            );
        }
    }

    #[test]
    fn path_vector_simulation_from_a_stale_state_converges() {
        type Pv = PathVector<ShortestPaths>;
        let pv: Pv = PathVector::new(ShortestPaths::new(), 5);
        let topo = generators::ring(5).with_weights(|_, _| NatInf::fin(1));
        let adj = lift_topology(&pv, &topo);
        // A stale state full of routes along paths that do not exist.
        let pool = pv.sample_routes(31, 32);
        let stale = RoutingState::from_fn(5, |i, j| {
            if i == j {
                pv.trivial()
            } else {
                pool[(i * 5 + j) % pool.len()].clone()
            }
        });
        let out = EventSim::with_initial_state(&pv, &adj, SimConfig::adversarial(7), &stale).run();
        assert!(!out.truncated);
        assert!(is_stable(&pv, &adj, &out.final_state));
        let reference = iterate_to_fixed_point(&pv, &adj, &RoutingState::identity(&pv, 5), 200);
        assert_eq!(out.final_state, reference.state);
        assert!(out.stats.table_changes > 0);
    }

    #[test]
    fn statistics_are_consistent() {
        let alg = ShortestPaths::new();
        let topo = generators::line(4).with_weights(|_, _| NatInf::fin(1));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = EventSim::new(
            &alg,
            &adj,
            SimConfig {
                seed: 3,
                ..SimConfig::default()
            },
        )
        .run();
        let s = out.stats.counters;
        assert_eq!(s.dropped, 0);
        assert!(
            s.delivered >= s.sent - s.dropped,
            "duplication can only add deliveries"
        );
        assert!(out.stats.finish_time >= out.stats.last_change_time);
        assert!(out.stats.table_changes > 0);
    }

    #[test]
    fn event_budget_truncation_is_reported() {
        let alg = ShortestPaths::new();
        let topo = generators::complete(5).with_weights(|_, _| NatInf::fin(1));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let cfg = SimConfig {
            max_events: 10,
            ..SimConfig::default()
        };
        let out = EventSim::new(&alg, &adj, cfg).run();
        assert!(out.truncated);
        assert_eq!(out.stats.counters.delivered, 10);
    }

    #[test]
    fn unreachable_destinations_stay_invalid() {
        let alg = ShortestPaths::new();
        let mut topo = dbf_topology::Topology::new(4);
        topo.set_link(0, 1, NatInf::fin(1));
        topo.set_link(2, 3, NatInf::fin(1));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = EventSim::new(&alg, &adj, SimConfig::default()).run();
        assert!(is_stable(&alg, &adj, &out.final_state));
        assert_eq!(out.final_state.get(0, 2), &NatInf::INF);
        assert_eq!(out.final_state.get(0, 1), &NatInf::fin(1));
    }
}
