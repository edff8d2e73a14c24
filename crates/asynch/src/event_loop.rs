//! The one message loop every message-level engine runs on.
//!
//! [`EventSim`](crate::EventSim) and `dbf-protocols`' `RipEngine` and
//! `BgpEngine` are one operational DBF under different protocol rules.
//! The loop owns what they share: simulated time and its event queue, the
//! seeded RNG, the channel's draws, the counters and the [`MessageRun`].
//! A [`Protocol`] fills the rest: *when* a node sends (on a change, on a
//! refresh between event slices, or on a timer of its own), *what* it
//! sends, which [`Channel`] it sends over, and the receiver's rule.  The
//! loop is generic over the protocol, so a delivery is a static call; it
//! pops simulated time in one place ([`MessageLoop::drain`]) and draws for
//! the channel in one function ([`Net::send`]).

mod queue;

use dbf_algebra::RoutingAlgebra;
use dbf_matrix::{MessageRun, MessageStats, RibIn, RoutingState};
use dbf_paths::NodeId;
use queue::EventQueue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One engine's protocol rules over the loop.
pub trait Protocol: Sized {
    /// The algebra the routers select in.
    type Alg: RoutingAlgebra;
    /// What one message carries; a duplicate is a clone.
    type Msg: Clone;
    /// What a node's own timer carries.
    type Timer;
    /// Messages are wire-encoded: the run counts their bytes, from zero.
    const ENCODED: bool = false;

    /// The wire size of `msg`, counted when [`Protocol::ENCODED`].
    fn wire_size(_msg: &Self::Msg) -> usize {
        0
    }

    /// The receiver's rule: `msg`, sent by `from`, arrives at `to`.
    fn receive(&mut self, net: &mut Net<Self>, from: NodeId, to: NodeId, msg: Self::Msg);

    /// A timer set by [`Net::schedule`] fires (a protocol that sets none
    /// keeps the default).
    fn fire(&mut self, _net: &mut Net<Self>, _timer: Self::Timer) {}

    /// The routers' tables at the end of a run.
    fn into_state(self) -> RoutingState<Self::Alg>;
}

/// The channel messages cross.  Per message it draws loss, then
/// duplication, then one delay per copy; a draw it does not make leaves
/// the RNG stream alone.
#[derive(Debug, Clone, Copy)]
pub struct Channel {
    /// Probability that a message is lost; `None` for a channel that never
    /// loses, and draws nothing for it.
    pub loss: Option<f64>,
    /// Probability that a message arrives twice; `None` as for `loss`.
    pub duplicate: Option<f64>,
    /// Minimum delay.
    pub min_delay: u64,
    /// Maximum delay (at least `min_delay`).
    pub max_delay: u64,
}

/// A message and its sender and recipient, or a timer.
enum Event<P: Protocol> {
    Message(NodeId, NodeId, P::Msg),
    Timer(P::Timer),
}

/// The network a protocol runs in: the clock, the queue, the channel, the
/// RNG and the counters.
pub struct Net<P: Protocol> {
    now: u64,
    queue: EventQueue<Event<P>>,
    channel: Channel,
    /// The run's one random stream: the channel's draws and the protocol's
    /// own (timer jitter, reset placement), in the order they are made.
    pub rng: StdRng,
    /// The run's counters.
    pub stats: MessageStats,
    /// Per node, when its table last changed (only the simulator's).
    pub(crate) settled: Vec<u64>,
}

impl<P: Protocol> Net<P> {
    /// A network at time 0 with nothing queued.
    pub fn new(seed: u64, channel: Channel) -> Self {
        let mut stats = MessageStats::default();
        stats.counters.bytes = P::ENCODED.then_some(0);
        Self {
            now: 0,
            queue: EventQueue::default(),
            channel,
            rng: StdRng::seed_from_u64(seed),
            stats,
            settled: Vec::new(),
        }
    }

    /// The simulated time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Fire `timer` at time `at`.
    pub fn schedule(&mut self, at: u64, timer: P::Timer) {
        self.queue.push(at, Event::Timer(timer));
    }

    /// Send `msg` from `from` to `to` across the channel.  With a
    /// `session` clock the message also arrives after everything sent on
    /// that session before it (an in-order transport).
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: P::Msg, mut session: Option<&mut u64>) {
        let ch = self.channel;
        self.stats.counters.sent += 1;
        if P::ENCODED {
            *self.stats.counters.bytes.get_or_insert(0) += P::wire_size(&msg) as u64;
        }
        if ch.loss.is_some_and(|p| self.rng.gen_bool(p)) {
            self.stats.counters.dropped += 1;
            return;
        }
        let twice = ch.duplicate.is_some_and(|p| self.rng.gen_bool(p));
        self.stats.counters.duplicated += u64::from(twice);
        let delays = ch.min_delay..=ch.max_delay.max(ch.min_delay);
        for msg in std::iter::repeat_n(msg, 1 + usize::from(twice)) {
            let mut at = self.now + self.rng.gen_range(delays.clone());
            if let Some(clock) = session.as_deref_mut() {
                at = at.max(*clock + 1);
                *clock = at;
            }
            self.queue.push(at, Event::Message(from, to, msg));
        }
    }

    /// Count a change to node `i`'s table, now.
    pub fn changed(&mut self, i: NodeId) {
        self.stats.table_changes += 1;
        self.stats.last_change_time = self.now;
        if let Some(t) = self.settled.get_mut(i) {
            *t = self.now;
        }
    }

    /// The decide step: node `i` re-selects its route to `dest` from its
    /// RIB into `table`.  Returns whether the route changed.
    pub fn decide(
        &mut self,
        alg: &P::Alg,
        rib: &RibIn<P::Alg>,
        table: &mut RoutingState<P::Alg>,
        i: NodeId,
        dest: NodeId,
    ) -> bool {
        let best = rib.best(alg, dest);
        if best == table.get(i, dest) {
            return false;
        }
        table.set(i, dest, best.clone());
        self.changed(i);
        true
    }
}

/// A protocol and the network it runs in: one engine.
pub struct MessageLoop<P: Protocol> {
    /// The protocol's state.
    pub proto: P,
    /// The network.
    pub net: Net<P>,
}

impl<P: Protocol> MessageLoop<P> {
    /// Deliver events earliest-first, ties in the order scheduled, until
    /// none is left, the next is due after `until`, or `deliveries`
    /// messages have been delivered.  Returns whether events are left.
    pub fn drain(&mut self, until: u64, deliveries: u64) -> bool {
        let net = &mut self.net;
        while net.stats.counters.delivered < deliveries {
            let Some((at, event)) = net.queue.pop_until(until) else {
                break;
            };
            net.now = at;
            match event {
                Event::Message(from, to, msg) => {
                    net.stats.counters.delivered += 1;
                    self.proto.receive(net, from, to, msg);
                }
                Event::Timer(timer) => self.proto.fire(net, timer),
            }
        }
        !net.queue.is_empty()
    }

    /// End the run: the tables, the counters, and whether it was cut at
    /// its budget.
    pub fn finish(self, truncated: bool) -> MessageRun<P::Alg> {
        MessageRun {
            final_state: self.proto.into_state(),
            stats: MessageStats {
                finish_time: self.net.now,
                ..self.net.stats
            },
            truncated,
            node_last_change: self.net.settled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_algebra::prelude::*;

    /// A protocol that logs what reaches it, and when.
    #[derive(Default)]
    struct Log(Vec<(u64, char)>);

    impl Protocol for Log {
        type Alg = ShortestPaths;
        type Msg = char;
        type Timer = char;

        fn receive(&mut self, net: &mut Net<Self>, _: NodeId, _: NodeId, msg: char) {
            self.0.push((net.now(), msg));
        }

        fn fire(&mut self, net: &mut Net<Self>, timer: char) {
            self.0.push((net.now(), timer));
        }

        fn into_state(self) -> RoutingState<ShortestPaths> {
            RoutingState::identity(&ShortestPaths::new(), 1)
        }
    }

    fn channel(min_delay: u64, max_delay: u64) -> Channel {
        Channel {
            loss: None,
            duplicate: None,
            min_delay,
            max_delay,
        }
    }

    fn logger(channel: Channel) -> MessageLoop<Log> {
        let net = Net::new(7, channel);
        MessageLoop {
            proto: Log::default(),
            net,
        }
    }

    #[test]
    fn events_pop_by_time_then_in_the_order_pushed() {
        let mut run = logger(channel(1, 1));
        assert!(!run.drain(u64::MAX, u64::MAX));
        for (at, timer) in [(5, 'a'), (2, 'b'), (5, 'c'), (2, 'd'), (0, 'e'), (5, 'f')] {
            run.net.schedule(at, timer);
        }
        assert!(run.drain(0, u64::MAX), "events due later stay queued");
        // A later push for an earlier time still comes out first, behind
        // nothing but its own time's elders.
        run.net.schedule(2, 'g');
        assert!(run.drain(4, u64::MAX));
        assert!(!run.drain(u64::MAX, u64::MAX));
        let order: String = run.proto.0.iter().map(|&(_, c)| c).collect();
        assert_eq!(order, "ebdgacf");
        assert_eq!(run.net.now(), 5);
    }

    #[test]
    fn a_channel_draws_only_what_it_models() {
        // No loss and no duplication: one delay draw per message, so the
        // stream after k sends is a fresh one advanced by k draws.
        let mut run = logger(channel(3, 9));
        for c in ['x', 'y', 'z'] {
            run.net.send(0, 1, c, None);
        }
        let mut fresh = StdRng::seed_from_u64(7);
        for _ in 0..3 {
            fresh.gen_range(3..=9u64);
        }
        assert_eq!(
            run.net.rng.gen_range(0..u64::MAX),
            fresh.gen_range(0..u64::MAX)
        );
        let c = run.net.stats.counters;
        assert_eq!((c.sent, c.dropped, c.duplicated, c.bytes), (3, 0, 0, None));

        // Certain loss drops everything and queues nothing; certain
        // duplication delivers everything twice.
        let mut lossy = logger(Channel {
            loss: Some(1.0),
            ..channel(1, 1)
        });
        lossy.net.send(0, 1, 'x', None);
        assert!(!lossy.drain(u64::MAX, u64::MAX));
        assert_eq!(lossy.net.stats.counters.dropped, 1);
        let mut twice = logger(Channel {
            duplicate: Some(1.0),
            ..channel(1, 1)
        });
        twice.net.send(0, 1, 'x', None);
        twice.drain(u64::MAX, u64::MAX);
        assert_eq!(twice.proto.0, [(1, 'x'), (1, 'x')]);
        assert_eq!(twice.net.stats.counters.delivered, 2);
    }

    #[test]
    fn a_session_delivers_in_the_order_sent() {
        let mut run = logger(channel(1, 50));
        let mut clock = 0;
        for c in 'a'..='t' {
            run.net.send(0, 1, c, Some(&mut clock));
        }
        run.drain(u64::MAX, u64::MAX);
        let order: String = run.proto.0.iter().map(|&(_, c)| c).collect();
        assert_eq!(order, ('a'..='t').collect::<String>());
        assert!(run.proto.0.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(clock, run.net.now());
    }

    #[test]
    fn a_delivery_budget_counts_messages_not_timers() {
        let mut run = logger(channel(1, 1));
        run.net.schedule(0, 't');
        for c in ['x', 'y', 'z'] {
            run.net.send(0, 1, c, None);
        }
        assert!(run.drain(u64::MAX, 2), "one message is left");
        assert_eq!(run.proto.0, [(0, 't'), (1, 'x'), (1, 'y')]);
        let out = run.finish(true);
        assert!(out.truncated && out.node_last_change.is_empty());
        assert_eq!(out.stats.counters.delivered, 2);
        assert_eq!(out.stats.finish_time, 1);
    }
}
