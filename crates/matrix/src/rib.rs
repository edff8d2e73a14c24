//! One node's adj-RIB-in: the *imported* candidate per link and destination.
//!
//! The message-level engines (the event simulator and the BGP engine) both
//! run the operational form of `σ`: node `i` remembers the last route each
//! neighbour `k` announced for `j` and holds
//! `table[j] = I_ij ⊕ ⨁_k A_ik(adv[k][j])`.  `A_ik` is a function, so
//! `A_ik(adv[k][j])` can only change when *that* advert changes: a router
//! stores the post-import route and pays one `extend` per delivered
//! message, not one per neighbour.  [`RibIn`] is that store — the `deg × n`
//! slots a node can ever hear on, against the `n²` of a table indexed by
//! every possible sender — and the one selection fold the engines share.
//!
//! [`EventQueue`] is the other thing those engines share: simulated time.
//! The event simulator and the RIP and BGP engines each deliver what they
//! scheduled earliest-first, ties in the order scheduled.
//!
//! And every message engine — those three — ends the same way, in a
//! [`MessageRun`]: the tables it left and what it cost ([`MessageStats`]),
//! with no verdict.  Whether the tables are σ's fixed point is the caller's
//! question, answered once by [`is_stable`](crate::is_stable).

use crate::state::RoutingState;
use dbf_algebra::RoutingAlgebra;
use dbf_paths::NodeId;
use dbf_telemetry::MessageCounters;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// How a message-level engine's run ended: its routers' tables and what
/// the run cost.  It carries no verdict; the caller judges `final_state`.
#[derive(Clone, Debug)]
pub struct MessageRun<A: RoutingAlgebra> {
    /// The final tables (row `i` is router `i`'s).
    pub final_state: RoutingState<A>,
    /// The run's counters.
    pub stats: MessageStats,
    /// The run hit its safety budget — the simulator's event cap, BGP's
    /// end time with messages still queued — instead of going quiet.  (RIP
    /// never goes quiet, so its runs are never truncated.)
    pub truncated: bool,
    /// Per node, the simulated time its table last changed (0 if it never
    /// did): the asynchronous convergence frontier.  Only the event
    /// simulator records it; the other engines leave it empty.
    pub node_last_change: Vec<u64>,
}

/// The counters of one message-level run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Messages sent (withdrawals included), delivered, dropped and
    /// duplicated, and wire bytes for the engines that encode their
    /// updates: what the `messages` telemetry event carries.
    pub counters: MessageCounters,
    /// How many of the messages sent were withdrawals (BGP only).
    pub withdrawals: u64,
    /// Routing-table entry changes across all routers.
    pub table_changes: u64,
    /// The simulated time of the last table change.
    pub last_change_time: u64,
    /// The simulated time at which the run finished.
    pub finish_time: u64,
    /// Full-table rounds: the simulator's refreshes, RIP's periodic
    /// updates.
    pub refreshes: u64,
}

/// A discrete-event queue: items come out by ascending time, and items
/// scheduled for the same time in the order they were pushed — so a run is
/// a function of what was pushed, never of the heap's internals.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// How many items have been pushed: the next one's tie-breaker.
    seq: u64,
}

#[derive(Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Schedule `item` for time `at`.
    pub fn push(&mut self, at: u64, item: T) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Entry { at, seq, item });
    }

    /// The earliest item and its time.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|e| (e.at, e.item))
    }

    /// Is nothing scheduled?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

// `BinaryHeap` is a max-heap: the ordering is reversed to pop the earliest
// `(at, seq)` first.  `seq` is unique per queue, so this is a total order.
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Entry<T> {}

/// Node `i`'s adj-RIB-in over its import row `adj.row(i)`.
///
/// The row is not stored: every method that needs it takes it again, so an
/// engine may own its adjacency and its RIBs side by side.  Passing a row
/// other than the one given to [`RibIn::new`] is a caller bug.
pub struct RibIn<A: RoutingAlgebra> {
    node: NodeId,
    deg: usize,
    /// `slots[j · deg + link]`: `A_ik(advert)` for the `link`-th import `k`
    /// and destination `j` — the candidates of one destination are
    /// contiguous, which is what [`RibIn::best`] folds over.
    slots: Vec<A::Route>,
    trivial: A::Route,
    invalid: A::Route,
}

impl<A: RoutingAlgebra> RibIn<A> {
    /// The RIB of `node`, importing over `imports` (`adj.row(node)`) in a
    /// network of `n` nodes, before anything has been heard.
    ///
    /// An unheard link holds `A_ik(∞̄)`, not `∞̄`: the cache then equals what
    /// a fold over raw adverts computes even for an algebra that breaks the
    /// `f(∞̄) = ∞̄` law.
    pub fn new(alg: &A, node: NodeId, imports: &[(NodeId, A::Edge)], n: usize) -> Self {
        let invalid = alg.invalid();
        let unheard: Vec<A::Route> = imports
            .iter()
            .map(|(_, f)| alg.extend(f, &invalid))
            .collect();
        let mut slots = Vec::with_capacity(n * unheard.len());
        for _ in 0..n {
            slots.extend_from_slice(&unheard);
        }
        Self {
            node,
            deg: unheard.len(),
            slots,
            trivial: alg.trivial(),
            invalid,
        }
    }

    /// The link on which `k` is heard — its position in the sorted import
    /// row — or `None` when the node does not import from `k`.  Edges are
    /// directed, so a node can be sent an advert over a link it has no
    /// import policy for; such an advert is dropped, as no selection could
    /// ever read it.
    pub fn link(&self, imports: &[(NodeId, A::Edge)], k: NodeId) -> Option<usize> {
        debug_assert_eq!(imports.len(), self.deg, "not this node's import row");
        imports.binary_search_by_key(&k, |&(k, _)| k).ok()
    }

    /// The number of slots, `deg · n`.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The index of `(link, j)` among the slots, for a side table an engine
    /// keeps per link and destination.
    pub fn slot(&self, link: usize, j: NodeId) -> usize {
        debug_assert!(link < self.deg, "link out of range");
        j * self.deg + link
    }

    /// Record that the neighbour on `link` now announces `advert` for `j`:
    /// one `extend`.
    pub fn import(
        &mut self,
        alg: &A,
        imports: &[(NodeId, A::Edge)],
        link: usize,
        j: NodeId,
        advert: &A::Route,
    ) {
        debug_assert_eq!(imports.len(), self.deg, "not this node's import row");
        let slot = self.slot(link, j);
        self.slots[slot] = alg.extend(&imports[link].1, advert);
    }

    /// Forget everything heard on `link` (a session reset): every
    /// destination is back to the unheard `A_ik(∞̄)`.
    pub fn withdraw(&mut self, alg: &A, imports: &[(NodeId, A::Edge)], link: usize) {
        debug_assert_eq!(imports.len(), self.deg, "not this node's import row");
        let unheard = alg.extend(&imports[link].1, &self.invalid);
        for slot in self.slots.iter_mut().skip(link).step_by(self.deg) {
            *slot = unheard.clone();
        }
    }

    /// The node's selection for `j`: `0̄` for itself, else the ⊕-best of the
    /// imported candidates (`∞̄` when it imports from no one).
    ///
    /// The fold keeps `best` unless `cand` is strictly preferred, which is
    /// `best = best ⊕ cand` exactly: ⊕ is selective, and `a ⊕ b = a` is the
    /// definition of `a ≤ b`.  It runs by reference — the caller clones the
    /// winner only when its table entry actually changes.
    pub fn best(&self, alg: &A, j: NodeId) -> &A::Route {
        if j == self.node {
            return &self.trivial;
        }
        let mut best = &self.invalid;
        for cand in &self.slots[j * self.deg..(j + 1) * self.deg] {
            if !alg.route_le(best, cand) {
                best = cand;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::AdjacencyMatrix;
    use dbf_algebra::prelude::*;

    /// Node 1 of a directed 4-node graph importing from 0 (weight 5) and
    /// 3 (weight 1); nothing imports from 2.
    fn setup() -> (ShortestPaths, AdjacencyMatrix<ShortestPaths>) {
        let mut adj = AdjacencyMatrix::empty(4);
        adj.set(1, 0, Some(NatInf::fin(5)));
        adj.set(1, 3, Some(NatInf::fin(1)));
        (ShortestPaths::new(), adj)
    }

    #[test]
    fn events_pop_by_time_then_in_the_order_pushed() {
        let mut q = EventQueue::default();
        assert!(q.is_empty() && q.pop().is_none());
        for (at, item) in [(5, 'a'), (2, 'b'), (5, 'c'), (2, 'd'), (0, 'e'), (5, 'f')] {
            q.push(at, item);
        }
        // Popping and pushing interleave: a later push for an earlier time
        // still comes out first, behind nothing but its own time's elders.
        assert_eq!(q.pop(), Some((0, 'e')));
        q.push(2, 'g');
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let want = [(2, 'b'), (2, 'd'), (2, 'g'), (5, 'a'), (5, 'c'), (5, 'f')];
        assert_eq!(rest, want);
        assert!(q.is_empty());
    }

    #[test]
    fn selection_is_the_best_imported_candidate() {
        let (alg, adj) = setup();
        let imports = adj.row(1);
        let mut rib = RibIn::new(&alg, 1, imports, 4);
        assert_eq!(rib.slot_count(), 8);
        assert_eq!(rib.best(&alg, 2), &NatInf::INF, "nothing heard yet");
        assert_eq!(rib.best(&alg, 1), &NatInf::fin(0), "the diagonal is 0̄");

        let via0 = rib.link(imports, 0).unwrap();
        let via3 = rib.link(imports, 3).unwrap();
        rib.import(&alg, imports, via0, 2, &NatInf::fin(1));
        assert_eq!(rib.best(&alg, 2), &NatInf::fin(6));
        rib.import(&alg, imports, via3, 2, &NatInf::fin(2));
        assert_eq!(rib.best(&alg, 2), &NatInf::fin(3));
        // A newer advert replaces the link's candidate, for better or worse.
        rib.import(&alg, imports, via3, 2, &NatInf::fin(9));
        assert_eq!(rib.best(&alg, 2), &NatInf::fin(6));
        // An advert for the node itself never displaces 0̄.
        rib.import(&alg, imports, via3, 1, &NatInf::fin(0));
        assert_eq!(rib.best(&alg, 1), &NatInf::fin(0));
    }

    #[test]
    fn withdrawing_a_link_forgets_every_destination_heard_on_it() {
        let (alg, adj) = setup();
        let imports = adj.row(1);
        let mut rib = RibIn::new(&alg, 1, imports, 4);
        for j in [0, 2, 3] {
            rib.import(&alg, imports, 0, j, &NatInf::fin(j as u64));
            rib.import(&alg, imports, 1, j, &NatInf::fin(10));
        }
        rib.withdraw(&alg, imports, 1);
        for j in [0, 2, 3] {
            assert_eq!(rib.best(&alg, j), &NatInf::fin(5 + j as u64));
        }
        rib.withdraw(&alg, imports, 0);
        assert_eq!(rib.best(&alg, 3), &NatInf::INF);
    }

    #[test]
    fn a_sender_outside_the_import_row_has_no_link() {
        let (alg, adj) = setup();
        assert_eq!(RibIn::new(&alg, 1, adj.row(1), 4).link(adj.row(1), 2), None);
        let isolated = RibIn::new(&alg, 2, adj.row(2), 4);
        assert_eq!(isolated.link(adj.row(2), 1), None);
        assert_eq!(isolated.slot_count(), 0);
        assert_eq!(isolated.best(&alg, 0), &NatInf::INF);
        assert_eq!(isolated.best(&alg, 2), &NatInf::fin(0));
    }

    /// Shortest paths, except that every edge turns ∞̄ into a finite route.
    struct Leaky;

    impl RoutingAlgebra for Leaky {
        type Route = NatInf;
        type Edge = NatInf;
        fn choice(&self, a: &NatInf, b: &NatInf) -> NatInf {
            *a.min(b)
        }
        fn extend(&self, f: &NatInf, r: &NatInf) -> NatInf {
            if *r == NatInf::INF {
                NatInf::fin(100)
            } else {
                ShortestPaths::new().extend(f, r)
            }
        }
        fn trivial(&self) -> NatInf {
            NatInf::fin(0)
        }
        fn invalid(&self) -> NatInf {
            NatInf::INF
        }
    }

    #[test]
    fn an_unheard_link_holds_the_import_of_the_invalid_route() {
        let mut adj: AdjacencyMatrix<Leaky> = AdjacencyMatrix::empty(3);
        adj.set(0, 1, Some(NatInf::fin(1)));
        let imports = adj.row(0);
        let mut rib = RibIn::new(&Leaky, 0, imports, 3);
        assert_eq!(rib.best(&Leaky, 2), &NatInf::fin(100));
        rib.import(&Leaky, imports, 0, 2, &NatInf::fin(4));
        assert_eq!(rib.best(&Leaky, 2), &NatInf::fin(5));
        rib.withdraw(&Leaky, imports, 0);
        assert_eq!(rib.best(&Leaky, 2), &NatInf::fin(100));
    }
}
