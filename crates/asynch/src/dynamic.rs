//! Dynamic networks (Section 3.2): topology changes as new problem
//! instances.
//!
//! The paper's treatment of network dynamics is deliberately simple: when
//! the topology (or a policy) changes at time `t`, the continuing
//! computation is viewed as a *fresh* instance of the routing problem whose
//! adjacency is the updated one and whose starting state is the current
//! state `δᵗ(X)` — which may now contain stale routes along paths that no
//! longer exist.  This is exactly why the convergence theorems must hold
//! from *arbitrary* states, not just states consistent with the current
//! topology.
//!
//! [`DynamicRun`] drives that model: a sequence of epochs, each with its own
//! adjacency and schedule, where each epoch starts from the previous epoch's
//! final state.

use crate::delta::{run_delta, DeltaOutcome};
use crate::schedule::Schedule;
use dbf_algebra::RoutingAlgebra;
use dbf_matrix::{AdjacencyMatrix, RoutingState};

/// One epoch of a dynamic-network run: an adjacency (the network as it is
/// during the epoch) and the schedule driving the asynchronous computation
/// within the epoch.
#[derive(Clone, Debug)]
pub struct DynamicEvent<A: RoutingAlgebra> {
    /// A label describing the change that started this epoch (for reports).
    pub label: String,
    /// The adjacency in force during the epoch.
    pub adjacency: AdjacencyMatrix<A>,
    /// The schedule driving the epoch.
    pub schedule: Schedule,
}

/// The outcome of one epoch.
#[derive(Clone, Debug)]
pub struct EpochOutcome<A: RoutingAlgebra> {
    /// The label of the epoch's triggering event.
    pub label: String,
    /// The δ outcome of the epoch.
    pub outcome: DeltaOutcome<A>,
}

/// A dynamic-network run: a starting state and a sequence of epochs.
#[derive(Clone, Debug, Default)]
pub struct DynamicRun<A: RoutingAlgebra> {
    events: Vec<DynamicEvent<A>>,
}

impl<A: RoutingAlgebra> DynamicRun<A> {
    /// An empty run.
    pub fn new() -> Self {
        Self { events: Vec::new() }
    }

    /// Append an epoch.
    pub fn push_epoch(
        &mut self,
        label: impl Into<String>,
        adjacency: AdjacencyMatrix<A>,
        schedule: Schedule,
    ) -> &mut Self {
        self.events.push(DynamicEvent {
            label: label.into(),
            adjacency,
            schedule,
        });
        self
    }

    /// The number of epochs.
    pub fn epoch_count(&self) -> usize {
        self.events.len()
    }

    /// Execute the run: each epoch starts from the previous epoch's final
    /// state (the paper's "new instance of the problem" with the current
    /// state as the new starting state).
    pub fn execute(&self, alg: &A, x0: &RoutingState<A>) -> Vec<EpochOutcome<A>> {
        let mut state = x0.clone();
        let mut outcomes = Vec::with_capacity(self.events.len());
        for ev in &self.events {
            let out = run_delta(alg, &ev.adjacency, &state, &ev.schedule);
            state = out.final_state.clone();
            outcomes.push(EpochOutcome {
                label: ev.label.clone(),
                outcome: out,
            });
        }
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleParams;
    use dbf_algebra::prelude::*;
    use dbf_matrix::prelude::*;
    use dbf_topology::{generators, TopologyChange};

    #[test]
    fn reconvergence_after_a_link_failure() {
        // A ring loses a link; the protocol must re-converge to the line
        // distances from the stale ring state.
        let alg = BoundedHopCount::new(10);
        let ring = generators::ring(6).with_weights(|_, _| 1u64);
        let line = TopologyChange::FailLink { a: 0, b: 5 }.apply(&ring);

        let adj_ring = AdjacencyMatrix::from_topology(&ring);
        let adj_line = AdjacencyMatrix::from_topology(&line);

        let mut run = DynamicRun::new();
        run.push_epoch(
            "initial ring",
            adj_ring.clone(),
            Schedule::random(6, 300, ScheduleParams::default(), 1),
        );
        run.push_epoch(
            "link 0–5 fails",
            adj_line.clone(),
            Schedule::random(6, 400, ScheduleParams::harsh(), 2),
        );
        assert_eq!(run.epoch_count(), 2);

        let outcomes = run.execute(&alg, &RoutingState::identity(&alg, 6));
        assert!(outcomes[0].outcome.sigma_stable, "ring epoch converged");
        assert!(
            outcomes[1].outcome.sigma_stable,
            "post-failure epoch reconverged"
        );

        // After the failure the network is a line: hop distance = |i - j|.
        let reference =
            iterate_to_fixed_point(&alg, &adj_line, &RoutingState::identity(&alg, 6), 100);
        assert_eq!(outcomes[1].outcome.final_state, reference.state);
        // and the distances really did change: 0→5 is now 5 hops, not 1
        assert_eq!(outcomes[0].outcome.final_state.get(0, 5), &NatInf::fin(1));
        assert_eq!(outcomes[1].outcome.final_state.get(0, 5), &NatInf::fin(5));
    }

    #[test]
    fn reconvergence_after_adding_a_shortcut() {
        let alg = BoundedHopCount::new(12);
        let line = generators::line(7).with_weights(|_, _| 1u64);
        let mut with_chord = line.clone();
        with_chord.set_link(0, 6, 1u64);

        let mut run = DynamicRun::new();
        run.push_epoch(
            "line",
            AdjacencyMatrix::from_topology(&line),
            Schedule::random(7, 300, ScheduleParams::default(), 4),
        );
        run.push_epoch(
            "chord 0–6 added",
            AdjacencyMatrix::from_topology(&with_chord),
            Schedule::random(7, 300, ScheduleParams::default(), 5),
        );
        let outcomes = run.execute(&alg, &RoutingState::identity(&alg, 7));
        assert!(outcomes[1].outcome.sigma_stable);
        assert_eq!(outcomes[0].outcome.final_state.get(0, 6), &NatInf::fin(6));
        assert_eq!(outcomes[1].outcome.final_state.get(0, 6), &NatInf::fin(1));
        assert_eq!(outcomes[1].outcome.final_state.get(1, 6), &NatInf::fin(2));
    }

    #[test]
    fn a_partition_leaves_unreachable_destinations_invalid() {
        let alg = BoundedHopCount::new(10);
        let ring = generators::ring(4).with_weights(|_, _| 1u64);
        // Fail two links, partitioning {0,1} from {2,3}.
        let cut = TopologyChange::apply_all(
            &[
                TopologyChange::FailLink { a: 1, b: 2 },
                TopologyChange::FailLink { a: 3, b: 0 },
            ],
            &ring,
        );
        let mut run = DynamicRun::new();
        run.push_epoch(
            "ring",
            AdjacencyMatrix::from_topology(&ring),
            Schedule::synchronous(4, 30),
        );
        run.push_epoch(
            "partition",
            AdjacencyMatrix::from_topology(&cut),
            Schedule::random(4, 400, ScheduleParams::default(), 8),
        );
        let outcomes = run.execute(&alg, &RoutingState::identity(&alg, 4));
        let final_state = &outcomes[1].outcome.final_state;
        assert!(outcomes[1].outcome.sigma_stable);
        assert_eq!(
            final_state.get(0, 2),
            &NatInf::INF,
            "0 can no longer reach 2"
        );
        assert_eq!(final_state.get(0, 1), &NatInf::fin(1), "0 still reaches 1");
        assert_eq!(final_state.get(2, 3), &NatInf::fin(1), "2 still reaches 3");
    }

    #[test]
    fn empty_runs_do_nothing() {
        let alg = BoundedHopCount::new(4);
        let run: DynamicRun<BoundedHopCount> = DynamicRun::new();
        let outcomes = run.execute(&alg, &RoutingState::identity(&alg, 3));
        assert!(outcomes.is_empty());
    }
}
