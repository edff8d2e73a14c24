//! A RIP-like distance-vector protocol engine.
//!
//! The engine is a discrete-event simulation of the protocol machinery RFC
//! 1058/2453 describe, over the finite strictly-increasing bounded-hop-count
//! algebra:
//!
//! * **periodic updates** — every router advertises its full table every
//!   [`UPDATE_INTERVAL`] ticks (with per-router jitter);
//! * **triggered updates** — a changed entry is advertised immediately;
//! * **split horizon** — optionally plain or with poisoned reverse;
//! * **route timeout** — an entry not refreshed within `route_timeout` ticks
//!   is declared unreachable;
//! * **hop limit** — metrics saturate at `hop_limit` (classically 15), with
//!   anything beyond meaning "unreachable";
//! * **fault injection** — updates can be lost and delayed (and therefore
//!   reordered) with configurable probability.
//!
//! Because the underlying algebra is finite and strictly increasing, the
//! paper's Theorem 7 promises convergence to a unique answer from any
//! starting state under any of these conditions — the engine's tests check
//! exactly that against the synchronous fixed point.

use crate::wire::{RipUpdate, MAX_NODES, WIRE_INFINITY};
use dbf_algebra::instances::hopcount::BoundedHopCount;
use dbf_algebra::instances::nat_inf::NatInf;
use dbf_matrix::{AdjacencyMatrix, EventQueue, MessageRun, MessageStats, RoutingState};
use dbf_paths::NodeId;
use dbf_telemetry::MessageCounters;
use dbf_topology::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Encode a metric for the wire (`∞` ⇒ [`WIRE_INFINITY`]).
///
/// Finite metrics are bounded by the hop limit, which the constructor
/// asserts fits in a `u32` — so the conversion is lossless, never a clamp
/// to some *different* finite value.
fn metric_to_wire(m: NatInf) -> u32 {
    match m.as_fin() {
        None => WIRE_INFINITY,
        Some(v) => u32::try_from(v).expect("hop metrics fit the wire (asserted at construction)"),
    }
}

/// Decode a wire metric (`WIRE_INFINITY` ⇒ `∞`).
fn metric_from_wire(m: u32) -> NatInf {
    if m == WIRE_INFINITY {
        NatInf::INF
    } else {
        NatInf::fin(m as u64)
    }
}

/// The split-horizon behaviour of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitHorizon {
    /// Advertise everything to everyone.
    Off,
    /// Do not advertise a route back to the neighbour it was learned from.
    Simple,
    /// Advertise such routes back with an infinite metric ("poisoned
    /// reverse").
    PoisonReverse,
}

/// Ticks between a router's periodic full-table updates (RFC 2453's 30 s).
pub const UPDATE_INTERVAL: u64 = 30;

/// Configuration of the RIP-like engine.
#[derive(Debug, Clone, Copy)]
pub struct RipConfig {
    /// The largest advertisable metric; anything larger is unreachable.
    pub hop_limit: u64,
    /// Ticks after which a route that has not been refreshed is dropped.
    pub route_timeout: u64,
    /// Split-horizon behaviour.
    pub split_horizon: SplitHorizon,
    /// Probability that an update message is lost.
    pub loss_prob: f64,
    /// Minimum link delay in ticks.
    pub min_delay: u64,
    /// Maximum link delay in ticks.
    pub max_delay: u64,
    /// Simulation end time (ticks).
    pub max_time: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RipConfig {
    fn default() -> Self {
        Self {
            hop_limit: BoundedHopCount::RIP_LIMIT,
            route_timeout: 180,
            split_horizon: SplitHorizon::PoisonReverse,
            loss_prob: 0.0,
            min_delay: 1,
            max_delay: 3,
            max_time: 2_000,
            seed: 0,
        }
    }
}

impl RipConfig {
    /// A lossy, slow network.
    pub fn lossy(seed: u64, loss_prob: f64) -> Self {
        Self {
            loss_prob,
            max_delay: 8,
            seed,
            max_time: 6_000,
            ..Self::default()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A periodic update timer fires at a router.
    Periodic(NodeId),
    /// A routing update from `from` arrives at `to`.
    Delivery {
        /// The sender.
        from: NodeId,
        /// The recipient.
        to: NodeId,
        /// Index into the message store.
        msg: usize,
    },
}

#[derive(Debug, Clone)]
struct TableEntry {
    metric: NatInf,
    next_hop: Option<NodeId>,
    refreshed_at: u64,
}

/// The RIP-like engine.
pub struct RipEngine {
    config: RipConfig,
    /// The routing problem: `adj.get(i, j)` is the hop cost node `i` pays to
    /// import routes announced by `j` (1 for plain topologies), and
    /// `adj.dependants(i)` the routers that import from `i` (the
    /// recipients of `i`'s advertisements).
    adj: AdjacencyMatrix<BoundedHopCount>,
    n: usize,
    rng: StdRng,
    now: u64,
    queue: EventQueue<Event>,
    /// Wire-encoded updates in flight; delivery decodes them again, so the
    /// encode/decode path of [`crate::wire`] runs on every message.
    messages: Vec<Vec<u8>>,
    tables: Vec<Vec<TableEntry>>,
    stats: MessageStats,
}

impl RipEngine {
    /// Create an engine over an (undirected) topology shape; every link has
    /// a cost of one hop.
    pub fn new(topo: &Topology<()>, config: RipConfig) -> Self {
        let adj = AdjacencyMatrix::<BoundedHopCount>::from_fn(topo.node_count(), |i, j| {
            if topo.has_edge(i, j) {
                Some(1u64)
            } else {
                None
            }
        });
        Self::from_adjacency(adj, config)
    }

    /// Create an engine directly over a bounded-hop-count adjacency matrix
    /// (`A_ij` = the hop cost node `i` pays on routes announced by `j`).
    /// This is the constructor the scenario layer uses: directed edges and
    /// non-unit hop costs are respected exactly as `σ` sees them.
    ///
    /// # Panics
    ///
    /// Panics if `config.hop_limit` does not fit the u32 wire metric
    /// (metrics above [`WIRE_INFINITY`] would be ambiguous on the wire), or
    /// if the network has more than [`MAX_NODES`] nodes (ids and entry
    /// counts are u16 wire fields).
    pub fn from_adjacency(adj: AdjacencyMatrix<BoundedHopCount>, config: RipConfig) -> Self {
        assert!(
            config.hop_limit < WIRE_INFINITY as u64,
            "hop limit {} does not fit the u32 wire metric",
            config.hop_limit
        );
        let n = adj.node_count();
        assert!(
            n <= MAX_NODES,
            "{n} nodes do not fit the u16 wire fields (at most {MAX_NODES})"
        );
        let mut tables = Vec::with_capacity(n);
        for i in 0..n {
            let mut row = Vec::with_capacity(n);
            for j in 0..n {
                row.push(TableEntry {
                    metric: if i == j { NatInf::fin(0) } else { NatInf::INF },
                    next_hop: None,
                    refreshed_at: 0,
                });
            }
            tables.push(row);
        }
        let mut engine = Self {
            config,
            adj,
            n,
            rng: StdRng::seed_from_u64(config.seed),
            now: 0,
            queue: EventQueue::default(),
            messages: Vec::new(),
            tables,
            stats: MessageStats {
                counters: MessageCounters {
                    bytes: Some(0),
                    ..MessageCounters::default()
                },
                ..MessageStats::default()
            },
        };
        // Stagger the first periodic update of each router.
        for i in 0..n {
            let jitter = engine.rng.gen_range(0..UPDATE_INTERVAL);
            engine.queue.push(jitter, Event::Periodic(i));
        }
        engine
    }

    /// Seed the engine with a stale routing-table entry (for arbitrary
    /// starting-state experiments): node `at` believes it reaches `dest`
    /// with the given metric via `next_hop`.
    pub fn with_stale_route(
        mut self,
        at: NodeId,
        dest: NodeId,
        metric: NatInf,
        next_hop: Option<NodeId>,
    ) -> Self {
        assert!(at < self.n && dest < self.n, "node out of range");
        assert_ne!(
            at, dest,
            "a node's route to itself is always the trivial route"
        );
        self.tables[at][dest] = TableEntry {
            metric,
            next_hop,
            refreshed_at: 0,
        };
        self
    }

    /// Seed every table from a (possibly stale) routing state, as when the
    /// protocol keeps running across a topology change.  Next hops are
    /// unknown for carried entries, so they are seeded ownerless: a
    /// neighbour whose advert matches the metric claims the entry (and its
    /// refresh timer), and entries no advert ever matches expire at
    /// `route_timeout` — the protocol's own cure for routes that were
    /// better than the new topology allows.
    pub fn with_initial_state(mut self, state: &RoutingState<BoundedHopCount>) -> Self {
        assert_eq!(state.node_count(), self.n, "state dimension mismatch");
        for i in 0..self.n {
            for j in 0..self.n {
                if i == j {
                    continue;
                }
                self.tables[i][j] = TableEntry {
                    metric: *state.get(i, j),
                    next_hop: None,
                    refreshed_at: 0,
                };
            }
        }
        self
    }

    /// Build the advertisement `from` sends to `to`, honouring split
    /// horizon.
    fn build_advert(&self, from: NodeId, to: NodeId) -> Vec<(NodeId, NatInf)> {
        let mut entries = Vec::with_capacity(self.n);
        for dest in 0..self.n {
            let entry = &self.tables[from][dest];
            let metric = match self.config.split_horizon {
                SplitHorizon::Off => entry.metric,
                SplitHorizon::Simple => {
                    if entry.next_hop == Some(to) {
                        continue;
                    }
                    entry.metric
                }
                SplitHorizon::PoisonReverse => {
                    if entry.next_hop == Some(to) {
                        NatInf::INF
                    } else {
                        entry.metric
                    }
                }
            };
            entries.push((dest, metric));
        }
        entries
    }

    fn send_advert(&mut self, from: NodeId, to: NodeId) {
        let entries = self.build_advert(from, to);
        let update = RipUpdate {
            from,
            entries: entries
                .into_iter()
                .map(|(dest, m)| (dest, metric_to_wire(m)))
                .collect(),
        };
        let encoded = update.encode();
        self.stats.counters.sent += 1;
        *self.stats.counters.bytes.get_or_insert(0) += encoded.len() as u64;
        if self.rng.gen_bool(self.config.loss_prob.clamp(0.0, 1.0)) {
            self.stats.counters.dropped += 1;
            return;
        }
        let delay = self
            .rng
            .gen_range(self.config.min_delay..=self.config.max_delay.max(self.config.min_delay));
        self.messages.push(encoded);
        let msg = self.messages.len() - 1;
        self.queue
            .push(self.now + delay, Event::Delivery { from, to, msg });
    }

    fn broadcast(&mut self, from: NodeId) {
        // i imports from j, so j advertises to i
        for idx in 0..self.adj.dependants(from).len() {
            let to = self.adj.dependants(from)[idx];
            self.send_advert(from, to);
        }
    }

    /// Age out routes that have not been refreshed.  Ownerless entries
    /// (seeded from a carried stale state) expire too: if no neighbour's
    /// advertisements ever justified the metric, the route is a ghost.
    fn expire_routes(&mut self, i: NodeId) -> bool {
        let mut changed = false;
        for dest in 0..self.n {
            if dest == i {
                continue;
            }
            let entry = &mut self.tables[i][dest];
            if entry.metric.is_fin()
                && self.now.saturating_sub(entry.refreshed_at) > self.config.route_timeout
            {
                entry.metric = NatInf::INF;
                entry.next_hop = None;
                changed = true;
                self.stats.table_changes += 1;
                self.stats.last_change_time = self.now;
            }
        }
        changed
    }

    fn process_advert(&mut self, from: NodeId, to: NodeId, msg: usize) -> bool {
        let mut changed = false;
        let update = RipUpdate::decode(&self.messages[msg])
            .expect("the engine only delivers messages it encoded");
        // The hop cost of the link the advert crossed (`A_{to,from}`); the
        // link exists because `to` listens to `from`.
        let Some(&hops) = self.adj.get(to, from) else {
            return false;
        };
        for (dest, advertised) in update.entries {
            if dest == to {
                continue;
            }
            // across the link, saturating at the hop limit
            let candidate = metric_from_wire(advertised)
                .as_fin()
                .map(|m| m.saturating_add(hops))
                .filter(|&nm| nm <= self.config.hop_limit)
                .map_or(NatInf::INF, NatInf::fin);
            let entry = &mut self.tables[to][dest];
            let via_current_next_hop = entry.next_hop == Some(from);
            if via_current_next_hop {
                // The current next hop re-advertised: always adopt (it may
                // be worse — that is how bad news propagates), refresh the
                // timer.
                entry.refreshed_at = self.now;
                if candidate != entry.metric {
                    entry.metric = candidate;
                    if candidate.is_inf() {
                        entry.next_hop = None;
                    }
                    changed = true;
                    self.stats.table_changes += 1;
                    self.stats.last_change_time = self.now;
                }
            } else if candidate < entry.metric {
                entry.metric = candidate;
                entry.next_hop = Some(from);
                entry.refreshed_at = self.now;
                changed = true;
                self.stats.table_changes += 1;
                self.stats.last_change_time = self.now;
            } else if candidate == entry.metric && entry.next_hop.is_none() && candidate.is_fin() {
                // A carried stale entry whose metric a live advert confirms:
                // the advertiser claims ownership (and the refresh timer),
                // so correct carried routes survive without an expiry flap.
                entry.next_hop = Some(from);
                entry.refreshed_at = self.now;
            }
        }
        changed
    }

    /// Run the engine to `max_time`.  That is the end of a run, not a
    /// budget — periodic updates never stop — so a run is never truncated.
    pub fn run(mut self) -> MessageRun<BoundedHopCount> {
        while let Some((at, event)) = self.queue.pop() {
            if at > self.config.max_time {
                break;
            }
            self.now = at;
            match event {
                Event::Periodic(i) => {
                    self.stats.refreshes += 1;
                    self.expire_routes(i);
                    self.broadcast(i);
                    self.queue
                        .push(self.now + UPDATE_INTERVAL, Event::Periodic(i));
                }
                Event::Delivery { from, to, msg } => {
                    self.stats.counters.delivered += 1;
                    // A triggered update: a changed table is advertised at once.
                    if self.process_advert(from, to, msg) {
                        self.broadcast(to);
                    }
                }
            }
        }
        self.stats.finish_time = self.now;
        MessageRun {
            final_state: RoutingState::from_fn(self.n, |i, j| self.tables[i][j].metric),
            stats: self.stats,
            truncated: false,
            node_last_change: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_matrix::iterate_to_fixed_point;
    use dbf_topology::generators;

    /// σ's fixed point of the hop-count algebra on `topo`, which a run
    /// must end on to have converged.
    fn reference(topo: &Topology<()>, limit: u64) -> RoutingState<BoundedHopCount> {
        let alg = BoundedHopCount::new(limit);
        let adj = AdjacencyMatrix::<BoundedHopCount>::from_fn(topo.node_count(), |i, j| {
            if topo.has_edge(i, j) {
                Some(1u64)
            } else {
                None
            }
        });
        let out = iterate_to_fixed_point(
            &alg,
            &adj,
            &RoutingState::identity(&alg, topo.node_count()),
            200,
        );
        assert!(out.converged);
        out.state
    }

    #[test]
    fn reliable_network_converges_to_hop_distances() {
        let topo = generators::ring(6);
        let report = RipEngine::new(&topo, RipConfig::default()).run();
        assert_eq!(report.final_state, reference(&topo, 15));
        assert!(report.stats.counters.sent > 0);
        assert_eq!(report.stats.counters.dropped, 0);
        assert!(report.stats.refreshes > 0);
    }

    #[test]
    fn lossy_network_still_converges() {
        let topo = generators::connected_random(8, 0.3, 3);
        for seed in 0..3 {
            let report = RipEngine::new(&topo, RipConfig::lossy(seed, 0.25)).run();
            assert_eq!(report.final_state, reference(&topo, 15), "seed {seed}");
            assert!(
                report.stats.counters.dropped > 0,
                "seed {seed} lost nothing"
            );
        }
    }

    #[test]
    fn all_split_horizon_modes_converge() {
        let topo = generators::grid(3, 3);
        for mode in [
            SplitHorizon::Off,
            SplitHorizon::Simple,
            SplitHorizon::PoisonReverse,
        ] {
            let cfg = RipConfig {
                split_horizon: mode,
                ..RipConfig::default()
            };
            let report = RipEngine::new(&topo, cfg).run();
            assert_eq!(report.final_state, reference(&topo, 15), "{mode:?}");
        }
    }

    #[test]
    fn stale_state_with_unreachable_destination_counts_to_the_hop_limit() {
        // The count-to-infinity behaviour that motivates the hop limit: two
        // routers believe they can reach a destination that no longer
        // exists; they bounce the route between each other, incrementing the
        // metric, until it hits the limit and is declared unreachable.
        let mut topo = Topology::new(3);
        topo.set_link(0, 1, ());
        // node 2 is disconnected, yet nodes 0 and 1 hold stale routes to it
        // that point at each other.
        let cfg = RipConfig {
            split_horizon: SplitHorizon::Off, // make the pathology visible
            max_time: 20_000,
            route_timeout: 1_000_000, // disable timeouts so counting is the only cure
            ..RipConfig::default()
        };
        let report = RipEngine::new(&topo, cfg)
            .with_stale_route(0, 2, NatInf::fin(3), Some(1))
            .with_stale_route(1, 2, NatInf::fin(3), Some(0))
            .run();
        assert_eq!(
            report.final_state,
            reference(&topo, 15),
            "the hop limit must eventually cure count-to-infinity"
        );
        assert_eq!(report.final_state.get(0, 2), &NatInf::INF);
        assert_eq!(report.final_state.get(1, 2), &NatInf::INF);
        // the cure required many advertisements
        assert!(report.stats.table_changes > 5);
    }

    #[test]
    fn split_horizon_reduces_messages_on_a_line() {
        let topo = generators::line(8);
        let base = RipConfig::default();
        let with = RipEngine::new(
            &topo,
            RipConfig {
                split_horizon: SplitHorizon::Simple,
                ..base
            },
        )
        .run();
        let without = RipEngine::new(
            &topo,
            RipConfig {
                split_horizon: SplitHorizon::Off,
                ..base
            },
        )
        .run();
        let fixed = reference(&topo, 15);
        assert!(with.final_state == fixed && without.final_state == fixed);
        assert!(
            with.stats.table_changes <= without.stats.table_changes,
            "split horizon should not increase table churn"
        );
    }

    #[test]
    fn bad_news_settles_within_two_update_periods_on_a_line() {
        // Node 7 has left line(8): nodes 0–5 still hold the routes to it
        // they learned along the line, and node 6, whose link went down,
        // holds ∞.  Triggered updates carry the ∞ down the line at message
        // speed; periodic updates alone wait up to a period at every hop.
        let mut topo = generators::line(8);
        topo.remove_link(6, 7);
        let mut engine = RipEngine::new(&topo, RipConfig::default());
        for i in 0..6 {
            engine = engine.with_stale_route(i, 7, NatInf::fin(7 - i as u64), Some(i + 1));
        }
        let report = engine.run();
        assert_eq!(report.final_state, reference(&topo, 15));
        assert!(
            report.stats.last_change_time < 2 * UPDATE_INTERVAL,
            "{:?}",
            report.stats
        );
    }

    #[test]
    fn report_exposes_statistics() {
        let topo = generators::star(5);
        let report = RipEngine::new(&topo, RipConfig::default()).run();
        assert!(report.stats.finish_time > 0);
        assert_eq!(report.stats.counters.dropped, 0);
        assert_eq!(report.stats.withdrawals, 0, "RIP withdraws nothing");
        // Every update crossed the wire codec, so bytes were counted.
        let c = report.stats.counters;
        assert!(c.bytes.unwrap() > 4 * c.sent);
    }

    #[test]
    fn carried_stale_states_reconverge_after_a_topology_change() {
        // The scenario-engine usage: converge on a ring, remove a link, keep
        // running from the stale tables.  Ownerless carried entries must be
        // claimed (when still correct) or timed out (when the change made
        // them too good), and the final tables must be the new fixed point.
        let ring = generators::ring(6);
        let before = RipEngine::new(&ring, RipConfig::default()).run();
        assert_eq!(before.final_state, reference(&ring, 15));

        let mut cut = ring.clone();
        cut.remove_link(0, 5);
        let report = RipEngine::new(&cut, RipConfig::default())
            .with_initial_state(&before.final_state)
            .run();
        assert_eq!(report.final_state, reference(&cut, 15));
    }

    #[test]
    #[should_panic(expected = "do not fit the u16 wire fields")]
    fn a_network_wider_than_the_wire_ids_is_rejected_at_construction() {
        let adj = AdjacencyMatrix::<BoundedHopCount>::empty(MAX_NODES + 1);
        let _ = RipEngine::from_adjacency(adj, RipConfig::default());
    }

    #[test]
    fn adjacency_construction_respects_direction_and_weights() {
        // A directed 3-line with a 2-hop cost on the back edge: the σ fixed
        // point is asymmetric and the engine must reproduce it exactly.
        let mut adj = AdjacencyMatrix::<BoundedHopCount>::empty(3);
        adj.set(1, 0, Some(1)); // 1 imports from 0
        adj.set(0, 1, Some(2)); // 0 imports from 1 at cost 2
        adj.set(2, 1, Some(1));
        adj.set(1, 2, Some(1));
        let report = RipEngine::from_adjacency(adj.clone(), RipConfig::default()).run();
        let alg = BoundedHopCount::new(15);
        let reference =
            dbf_matrix::iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 3), 50);
        assert!(reference.converged);
        assert_eq!(report.final_state, reference.state);
        assert_eq!(report.final_state.get(0, 2), &NatInf::fin(3));
        assert_eq!(report.final_state.get(2, 0), &NatInf::fin(2));
    }
}
