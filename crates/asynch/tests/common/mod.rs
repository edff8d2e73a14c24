//! The δ oracle shared by `delta_reference.rs` and `proptest_async.rs`:
//! Section 3.1 transcribed.  It keeps the last `max_lag + 1` *whole
//! states*, recomputes every entry of every activated row, and folds `A_ik`
//! over **all** `k`, links or not — the evaluator `dbf_async::delta` used
//! before it kept per-row versions.

use dbf_algebra::RoutingAlgebra;
use dbf_async::Schedule;
use dbf_matrix::{AdjacencyMatrix, RoutingState};
use dbf_telemetry::TelemetrySink;
use std::collections::VecDeque;

/// The telemetry a δ run emits, wall time dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    RoundStart(u64, u64, u64),
    RoundEnd(u64, u64, u64),
    NodeSettled(usize, u64),
}

#[derive(Default)]
pub struct Recorder(pub Vec<Event>);

impl TelemetrySink for Recorder {
    fn round_start(&mut self, round: u64, scheduled: u64, frontier: u64) {
        self.0.push(Event::RoundStart(round, scheduled, frontier));
    }
    fn round_end(&mut self, round: u64, recomputed: u64, changed: u64, _wall_ns: u64) {
        self.0.push(Event::RoundEnd(round, recomputed, changed));
    }
    fn node_settled(&mut self, node: usize, round: u64) {
        self.0.push(Event::NodeSettled(node, round));
    }
}

pub struct Observed<A: RoutingAlgebra> {
    pub final_state: RoutingState<A>,
    pub quiescent_from: Option<usize>,
    pub activations: usize,
    pub events: Vec<Event>,
}

/// The dense windowed evaluator: `history[k]` is the whole state at time
/// `t − 1 − (history.len() − 1 − k)`.
pub fn oracle<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x0: &RoutingState<A>,
    schedule: &Schedule,
) -> Observed<A> {
    let n = adj.node_count();
    let window = schedule.max_lag() + 1;
    let mut history = VecDeque::from([x0.clone()]);
    let mut events = Vec::new();
    let mut last_changed = vec![0u64; n];
    let mut quiescent_from = Some(0);
    let mut activations = 0;
    for t in 1..=schedule.horizon() {
        let mut next = history.back().unwrap().clone();
        let active: Vec<usize> = (0..n).filter(|&i| schedule.activates(t, i)).collect();
        events.push(Event::RoundStart(
            t as u64,
            active.len() as u64,
            active.len() as u64,
        ));
        let mut rows_changed = 0;
        for &i in &active {
            activations += 1;
            let mut node_changed = false;
            for j in 0..n {
                let mut new_route = alg.invalid();
                for k in (0..n).filter(|&k| k != i) {
                    let offset = t - 1 - schedule.data_time(t, i, k);
                    let snapshot = &history[history.len() - 1 - offset];
                    new_route = alg.choice(&new_route, &adj.apply(alg, i, k, snapshot.get(k, j)));
                }
                if i == j {
                    new_route = alg.trivial();
                }
                node_changed |= &new_route != next.get(i, j);
                next.set(i, j, new_route);
            }
            if node_changed {
                rows_changed += 1;
                last_changed[i] = t as u64;
            }
        }
        events.push(Event::RoundEnd(t as u64, active.len() as u64, rows_changed));
        if rows_changed > 0 {
            quiescent_from = None;
        } else if quiescent_from.is_none() {
            quiescent_from = Some(t);
        }
        history.push_back(next);
        while history.len() > window {
            history.pop_front();
        }
    }
    events.extend(
        last_changed
            .iter()
            .enumerate()
            .map(|(node, &round)| Event::NodeSettled(node, round)),
    );
    Observed {
        final_state: history.pop_back().unwrap(),
        quiescent_from,
        activations,
        events,
    }
}
