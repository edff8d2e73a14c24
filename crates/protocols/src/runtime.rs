//! A genuinely concurrent Distributed Bellman-Ford runtime.
//!
//! The simulators in `dbf-async` model asynchrony; this module *is*
//! asynchronous: every router runs on its own OS thread, exchanging
//! advertisement messages over unbounded `std::sync::mpsc` channels.  Delivery
//! order between different senders is whatever the operating system's
//! scheduler produces, so every run is a fresh sample from the space of
//! schedules of Section 3 — and, for increasing algebras, every run must
//! still arrive at the same fixed point (which the tests check against the
//! synchronous reference).
//!
//! Termination uses a global in-flight message counter: a message is counted
//! before it is sent and un-counted only after its receiver has finished
//! processing it (including sending any consequent messages), so the counter
//! can only reach zero when the whole computation has quiesced.  A second
//! counter tracks routers that have completed their *first* idle
//! recomputation (the S1 activation that wipes stale routes on routers no
//! message will ever reach): a router may only halt once every router has
//! settled, because before that point a first recomputation can still emit
//! messages out of an `in_flight == 0` lull — and a message sent to a router
//! that already halted is never processed, wedging the counter above zero
//! until the wall-clock limit.  (This exact hang was found by
//! `scenarios fuzz`: a spec whose topology change removes a router's last
//! in-edge made the other routers exit before the isolated router's first
//! recomputation announced its wiped table.)

use dbf_algebra::RoutingAlgebra;
use dbf_matrix::{AdjacencyMatrix, MessageRun, MessageStats, RibIn, RoutingState};
use dbf_paths::NodeId;
use dbf_telemetry::MessageCounters;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::time::Duration;

/// How long an idle router waits for a message before re-checking the
/// global quiescence condition.
const IDLE_POLL: Duration = Duration::from_millis(2);

/// Hard wall-clock cap on a run.
const WALL_CLOCK_LIMIT: Duration = Duration::from_secs(20);

struct Advert<R> {
    from: NodeId,
    dest: NodeId,
    route: R,
}

/// Run one genuinely concurrent DBF computation over the given adjacency,
/// starting from `initial` (row `i` is handed to router `i`).  The run is
/// truncated when it hit the wall-clock cap before quiescence; its counters
/// are the messages sent and delivered and the table changes.
///
/// # Panics
///
/// A panic on a router thread (an algebra's `extend`/`choice` panicking,
/// say) is re-raised here with its own payload once every thread has been
/// joined; the surviving routers halt at the wall-clock limit at the latest.
pub fn run_threaded<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    initial: &RoutingState<A>,
) -> MessageRun<A> {
    let n = adj.node_count();
    assert_eq!(n, initial.node_count(), "initial state dimension mismatch");

    // One mailbox per router.
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..n).map(|_| channel::<Advert<A::Route>>()).unzip();
    let in_flight = &AtomicI64::new(0);
    // Routers that have completed their cold-start announcements; quiescence
    // is only meaningful once every router has started.
    let started = &AtomicU64::new(0);
    // Routers that have completed their first full idle recomputation (and
    // sent any updates it produced).  Until every router has, the in-flight
    // counter may transiently read zero while a table change is still coming.
    let settled = &AtomicU64::new(0);
    let messages_sent = &AtomicU64::new(0);
    let table_changes = &AtomicU64::new(0);

    // Who does each router announce to?  Everyone that imports from it.
    let mut exports = adj.dependants();

    let start = std::time::Instant::now();
    // Scoped threads: every router borrows the algebra, the adjacency and
    // the counters, owns its mailbox's receiver, and hands its final row
    // back through its join handle.  Each is joined explicitly, so a panic
    // arrives as that router's own payload.
    let joined: Vec<std::thread::Result<Vec<A::Route>>> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(n);
        for (i, rx) in receivers.into_iter().enumerate() {
            // Every router keeps a sender to every mailbox, its own
            // included, so `rx` cannot read `Disconnected` while it runs.
            let txs = senders.clone();
            let mut table: Vec<A::Route> = initial.row(i).to_vec();
            let listeners: Vec<NodeId> = std::mem::take(&mut exports[i]);

            handles.push(s.spawn(move || {
                // Last advert heard, per neighbour per destination, as
                // imported.
                let imports = adj.row(i);
                let mut rib = RibIn::new(alg, i, imports, n);

                let send_route = |dest: NodeId, route: &A::Route| {
                    for &k in &listeners {
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        messages_sent.fetch_add(1, Ordering::SeqCst);
                        // Unbounded channel: send only fails once the receiving
                        // router has halted, which cannot happen before global
                        // quiescence (or the wall-clock limit, where the message
                        // no longer matters).
                        let _ = txs[k].send(Advert {
                            from: i,
                            dest,
                            route: route.clone(),
                        });
                    }
                };

                // Best-response selection for one destination, over everything
                // heard so far: update the entry and announce it if it moved.
                let decide = |rib: &RibIn<A>, entry: &mut A::Route, dest: NodeId| -> bool {
                    let best = rib.best(alg, dest);
                    if best == entry {
                        return false;
                    }
                    *entry = best.clone();
                    table_changes.fetch_add(1, Ordering::SeqCst);
                    send_route(dest, entry);
                    true
                };

                // Cold start: advertise the whole initial table.
                for (dest, route) in table.iter().enumerate() {
                    send_route(dest, route);
                }
                started.fetch_add(1, Ordering::SeqCst);

                // `adverts` changed since the last idle recomputation?  Starts
                // true so every router performs at least one full decision
                // (schedule axiom S1) before it may quiesce.
                let mut dirty = true;
                let mut has_settled = false;

                loop {
                    match rx.recv_timeout(IDLE_POLL) {
                        Ok(advert) => {
                            let dest = advert.dest;
                            // A router announces only to those importing
                            // from it, so the link exists.
                            if let Some(link) = rib.link(imports, advert.from) {
                                rib.import(alg, imports, link, dest, &advert.route);
                                dirty = true;
                                decide(&rib, &mut table[dest], dest);
                            }
                            // Only now is this message fully accounted for.
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                        }
                        Err(_) => {
                            let all_started = started.load(Ordering::SeqCst) as usize == n;
                            // Idle: re-run the full decision over everything
                            // heard so far — the operational form of schedule
                            // axiom S1 (every node activates even when no
                            // messages arrive; a newly isolated router must
                            // still drop its stale routes).  Only once everyone
                            // has started (so cold-start adverts are not racing
                            // a premature wipe of a stale initial table), and
                            // only when an advert actually arrived since the
                            // last recomputation (the inputs are otherwise
                            // unchanged, so the result would be too).
                            let mut changed = false;
                            if dirty && all_started {
                                for (dest, entry) in table.iter_mut().enumerate() {
                                    changed |= decide(&rib, entry, dest);
                                }
                                dirty = false;
                                if !has_settled {
                                    // Counted only after the recomputation's
                                    // updates are on the wire, so a peer that
                                    // reads `settled == n` and then
                                    // `in_flight == 0` cannot miss them.
                                    has_settled = true;
                                    settled.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            // Then quiesce when every router has performed its
                            // first full decision, everything heard has been
                            // decided on and nothing is in flight anywhere — or
                            // bail out at the wall-clock limit.  (After every
                            // router settles, a table change can only be a
                            // response to an in-flight message, so observing
                            // `settled == n && in_flight == 0` really is global
                            // quiescence.)
                            let all_settled = settled.load(Ordering::SeqCst) as usize == n;
                            if (!changed
                                && !dirty
                                && all_settled
                                && in_flight.load(Ordering::SeqCst) == 0)
                                || start.elapsed() > WALL_CLOCK_LIMIT
                            {
                                break;
                            }
                        }
                    }
                }
                table
            }));
        }
        handles.into_iter().map(|h| h.join()).collect()
    });
    let truncated = start.elapsed() > WALL_CLOCK_LIMIT;
    let rows: Vec<Vec<A::Route>> = joined
        .into_iter()
        .map(|row| row.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .collect();
    let sent = messages_sent.load(Ordering::SeqCst);
    MessageRun {
        final_state: RoutingState::from_fn(n, |i, j| rows[i][j].clone()),
        stats: MessageStats {
            counters: MessageCounters {
                sent,
                delivered: sent - in_flight.load(Ordering::SeqCst).max(0) as u64,
                ..MessageCounters::default()
            },
            table_changes: table_changes.load(Ordering::SeqCst),
            ..MessageStats::default()
        },
        truncated,
        node_last_change: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_algebra::prelude::*;
    use dbf_bgp::prelude::*;
    use dbf_matrix::prelude::*;
    use dbf_topology::generators;

    #[test]
    fn threaded_shortest_paths_matches_the_synchronous_fixed_point() {
        let alg = ShortestPaths::new();
        let topo = generators::connected_random(8, 0.35, 4)
            .with_weights(|i, j| NatInf::fin(((i * 5 + j) % 7 + 1) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let x0 = RoutingState::identity(&alg, 8);
        let reference = iterate_to_fixed_point(&alg, &adj, &x0, 200);
        for _run in 0..3 {
            let report = run_threaded(&alg, &adj, &x0);
            assert!(!report.truncated);
            assert!(is_stable(&alg, &adj, &report.final_state));
            assert_eq!(report.final_state, reference.state);
            assert!(report.stats.counters.sent > 0);
        }
    }

    #[test]
    fn threaded_policy_rich_bgp_algebra_converges() {
        use dbf_algebra::algebra::SplitMix64;
        use dbf_bgp::algebra::random_policy;
        let n = 6;
        let alg = BgpAlgebra::new(n);
        let shape = generators::ring(n);
        let mut rng = SplitMix64::new(0xFEED);
        let topo = shape.with_weights(|_, _| random_policy(&mut rng, 1));
        let adj = alg.adjacency_from_topology(&topo);
        let x0 = RoutingState::identity(&alg, n);
        let reference = iterate_to_fixed_point(&alg, &adj, &x0, 200);
        assert!(reference.converged);
        let report = run_threaded(&alg, &adj, &x0);
        assert!(!report.truncated);
        assert!(is_stable(&alg, &adj, &report.final_state));
        assert_eq!(report.final_state, reference.state);
    }

    #[test]
    fn routers_stripped_of_every_in_edge_do_not_wedge_quiescence() {
        // Regression for a hang found by `scenarios fuzz` (seed
        // 0x09a23c3a0ffedfe9): start from the fixed point of a 3-ring, then
        // run on the topology with edges 1→2, 0→1 and 1→0 removed — router
        // 1 can no longer import from anyone, so its stale routes are
        // dropped only by its first idle recomputation.  Before quiescence
        // required every router to settle, routers 0 and 2 could observe
        // `in_flight == 0` and halt first; router 1's late update then sat
        // in a dead mailbox and wedged the counter above zero until the
        // wall-clock limit.  The race was timing-dependent, hence the
        // repetitions.
        let alg = ShortestPaths::new();
        let ring = generators::ring(3).with_weights(|_, _| NatInf::fin(1));
        let ring_adj = AdjacencyMatrix::from_topology(&ring);
        let stale = iterate_to_fixed_point(&alg, &ring_adj, &RoutingState::identity(&alg, 3), 100);
        assert!(stale.converged);
        let mut adj = ring_adj.clone();
        adj.set(1, 2, None);
        adj.set(0, 1, None);
        adj.set(1, 0, None);
        for _run in 0..10 {
            let report = run_threaded(&alg, &adj, &stale.state);
            assert!(!report.truncated, "quiescence must not wedge");
            assert!(is_stable(&alg, &adj, &report.final_state));
            // Router 1 imports from no one: everything except its self-route
            // must have been dropped.
            assert_eq!(report.final_state.get(1, 1), &alg.trivial());
            assert_eq!(report.final_state.get(1, 0), &alg.invalid());
            assert_eq!(report.final_state.get(1, 2), &alg.invalid());
        }
    }

    /// Shortest paths whose every extension panics.
    #[derive(Debug, Clone)]
    struct Exploding;

    impl RoutingAlgebra for Exploding {
        type Route = NatInf;
        type Edge = NatInf;
        fn choice(&self, a: &NatInf, b: &NatInf) -> NatInf {
            *a.min(b)
        }
        fn extend(&self, _f: &NatInf, _r: &NatInf) -> NatInf {
            panic!("extend exploded")
        }
        fn trivial(&self) -> NatInf {
            NatInf::fin(0)
        }
        fn invalid(&self) -> NatInf {
            NatInf::INF
        }
    }

    #[test]
    fn a_router_panic_is_re_raised_with_its_own_payload() {
        let adj = AdjacencyMatrix::<Exploding>::from_topology(
            &generators::line(2).with_weights(|_, _| NatInf::fin(1)),
        );
        let x0 = RoutingState::identity(&Exploding, 2);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_threaded(&Exploding, &adj, &x0)
        }))
        .expect_err("the router panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"extend exploded"));
    }

    #[test]
    fn threaded_runs_from_stale_states_reconverge() {
        let alg = BoundedHopCount::new(10);
        let topo = generators::ring(6).with_weights(|_, _| 1u64);
        let adj = AdjacencyMatrix::from_topology(&topo);
        let reference =
            iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 6), 100).state;
        let stale = RoutingState::<BoundedHopCount>::from_fn(6, |i, j| {
            if i == j {
                NatInf::fin(0)
            } else {
                NatInf::fin(((i + 2 * j) % 9) as u64)
            }
        });
        let report = run_threaded(&alg, &adj, &stale);
        assert!(!report.truncated);
        assert!(is_stable(&alg, &adj, &report.final_state));
        assert_eq!(report.final_state, reference);
    }
}
