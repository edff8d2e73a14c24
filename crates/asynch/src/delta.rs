//! The asynchronous iterate `δ` (Section 3.1).
//!
//! Given a schedule `(α, β)`, a starting state `X` and the adjacency `A`,
//! the asynchronous state at time `t` is
//!
//! ```text
//! δ⁰(X)ᵢⱼ = Xᵢⱼ
//! δᵗ(X)ᵢⱼ = ⨁ₖ A_ik( δ^{β(t,i,k)}(X)ₖⱼ ) ⊕ Iᵢⱼ      if i ∈ α(t)
//!         = δ^{t−1}(X)ᵢⱼ                               otherwise
//! ```
//!
//! Setting `α(t) = {0, …, n−1}` and `β(t, i, j) = t − 1` recovers the
//! synchronous iterate `σ` exactly (verified by a test below).

use crate::schedule::Schedule;
use dbf_algebra::RoutingAlgebra;
use dbf_matrix::{AdjacencyMatrix, RoutingState};
use dbf_paths::NodeId;
use dbf_telemetry::{NoopSink, TelemetrySink};
use std::collections::VecDeque;
use std::time::Instant;

/// The result of running `δ` to a schedule's horizon.  It holds no
/// verdict: whether the final state is a fixed point of `σ` — genuinely
/// stable, not merely unchanged because the schedule stopped delivering
/// fresh data — is the caller's [`dbf_matrix::is_stable`] question.
#[derive(Clone, Debug)]
pub struct DeltaOutcome<A: RoutingAlgebra> {
    /// The state at the end of the schedule.
    pub final_state: RoutingState<A>,
    /// The first time step after which the state never changed again
    /// (within the horizon), if the state stopped changing at all.
    pub quiescent_from: Option<usize>,
    /// The number of (node, time) pairs with `i ∈ α(t)`: how often the
    /// schedule asked a node to recompute its table row.
    pub activations: usize,
    /// The row evaluations actually performed: the activations whose
    /// imports were not all the very versions the node's previous
    /// evaluation read.  `recomputations ÷ activations` is the share of
    /// attempts that did any work.
    pub recomputations: usize,
}

/// Run the asynchronous iterate `δ` under a schedule.
pub fn run_delta<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x0: &RoutingState<A>,
    schedule: &Schedule,
) -> DeltaOutcome<A> {
    run_delta_traced(alg, adj, x0, schedule, &mut NoopSink)
}

/// [`run_delta`] with a telemetry sink: each time step `t` is reported as a
/// round (`round_start` carries the number of nodes `α(t)` activates,
/// `round_end` the number whose row actually changed), and once the horizon
/// is reached every node reports the last time step its row changed via
/// `node_settled` — the asynchronous convergence frontier.
///
/// The outcome is identical to the untraced run for every sink; with
/// [`NoopSink`] the instrumentation compiles out ([`run_delta`] forwards
/// here).
pub fn run_delta_traced<A, S>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x0: &RoutingState<A>,
    schedule: &Schedule,
    tel: &mut S,
) -> DeltaOutcome<A>
where
    A: RoutingAlgebra,
    S: TelemetrySink + ?Sized,
{
    let mut run = DeltaRun::new(alg, adj, x0, schedule);
    for _ in 0..schedule.horizon() {
        run.step(tel);
    }
    run.finish(tel)
}

/// One retained version of a node's table row.
struct Version<R> {
    /// The time step that wrote it (0 for the start state).  A row gets at
    /// most one version per step, so this is also the version's identity.
    written: usize,
    row: Vec<R>,
}

/// Index of the version of a row that is live at time `beta`: the newest
/// one written at or before it.
fn live_at<R>(versions: &VecDeque<Version<R>>, beta: usize) -> usize {
    versions
        .iter()
        .rposition(|v| v.written <= beta)
        .expect("history is pruned only below what max_lag can reach")
}

/// The evaluator of `δ`, one time step per [`DeltaRun::step`].
///
/// `δᵗ(X)ᵢ` is a pure function of the rows `δ^{β(t,i,k)}(X)ₖ` of `i`'s
/// imports `k`, so the evaluator keeps, per row, only the versions a read
/// can still reach (`max_lag` steps back) and recomputes a row only when
/// one of those inputs is a different version from the one it last read.
pub struct DeltaRun<'a, A: RoutingAlgebra> {
    alg: &'a A,
    adj: &'a AdjacencyMatrix<A>,
    schedule: &'a Schedule,
    max_lag: usize,
    /// Steps taken so far.
    t: usize,
    /// `history[k]`: the versions of row `k`, oldest first, never empty.
    history: Vec<VecDeque<Version<A::Route>>>,
    /// `last_read[i]`: the write times of the versions of `adj.row(i)`'s
    /// imports that `i`'s last evaluation read (`None` before the first).
    last_read: Vec<Option<Vec<usize>>>,
    /// Rows written during the current step.  They join `history` when the
    /// step ends, so no read at `t` can see data written at `t` (S2).
    staged: Vec<(NodeId, Vec<A::Route>)>,
    /// Per activation: which version of each import is read.
    picks: Vec<usize>,
    /// The row being evaluated, and retired rows to evaluate into next.
    scratch: Vec<A::Route>,
    spare: Vec<Vec<A::Route>>,
    last_changed: Vec<u64>,
    quiescent_from: Option<usize>,
    activations: usize,
    recomputations: usize,
}

impl<'a, A: RoutingAlgebra> DeltaRun<'a, A> {
    /// An evaluator at time 0, holding `x0`.
    ///
    /// # Panics
    ///
    /// Panics if `adj`, `x0` and `schedule` disagree on the node count.
    pub fn new(
        alg: &'a A,
        adj: &'a AdjacencyMatrix<A>,
        x0: &RoutingState<A>,
        schedule: &'a Schedule,
    ) -> Self {
        let n = adj.node_count();
        assert_eq!(n, x0.node_count(), "adjacency/state dimension mismatch");
        assert_eq!(
            n,
            schedule.node_count(),
            "adjacency/schedule dimension mismatch"
        );
        let history = (0..n)
            .map(|i| {
                VecDeque::from([Version {
                    written: 0,
                    row: x0.row(i).to_vec(),
                }])
            })
            .collect();
        Self {
            alg,
            adj,
            schedule,
            max_lag: schedule.max_lag(),
            t: 0,
            history,
            last_read: vec![None; n],
            staged: Vec::new(),
            picks: Vec::new(),
            scratch: vec![alg.invalid(); n],
            spare: Vec::new(),
            last_changed: vec![0; n],
            quiescent_from: Some(0),
            activations: 0,
            recomputations: 0,
        }
    }

    /// The number of steps taken.
    pub fn time(&self) -> usize {
        self.t
    }

    /// How many versions of row `i` are retained.
    pub fn retained_versions(&self, i: NodeId) -> usize {
        self.history[i].len()
    }

    /// Advance one time step.
    ///
    /// # Panics
    ///
    /// Panics past the schedule's horizon, or on a read that violates S2.
    pub fn step<S: TelemetrySink + ?Sized>(&mut self, tel: &mut S) {
        let t = self.t + 1;
        let n = self.adj.node_count();
        let on = tel.enabled();
        let t0 = on.then(Instant::now);
        if on {
            // For δ the activation set *is* the frontier, so the two
            // round_start arguments coincide.
            let active = (0..n).filter(|&i| self.schedule.activates(t, i)).count() as u64;
            tel.round_start(t as u64, active, active);
        }

        // No read at `t` or later reaches below `oldest`: a version that was
        // superseded by then is dead.
        let oldest = t.saturating_sub(self.max_lag);
        for versions in &mut self.history {
            while versions.len() > 1 && versions[1].written <= oldest {
                let dead = versions.pop_front().expect("len > 1");
                self.spare.push(dead.row);
            }
        }

        let mut activated = 0u64;
        for i in 0..n {
            if !self.schedule.activates(t, i) {
                continue;
            }
            activated += 1;
            let imports = self.adj.row(i);
            let lags = self.schedule.lags(t, i);
            self.picks.clear();
            self.picks.extend(imports.iter().map(|(k, _)| {
                let lag = lags[*k] as usize;
                assert!(
                    (1..=t).contains(&lag),
                    "S2 violated: β({t}, {i}, {k}) ≥ {t}"
                );
                live_at(&self.history[*k], t - lag)
            }));
            let read = || {
                imports
                    .iter()
                    .zip(&self.picks)
                    .map(|((k, _), &p)| self.history[*k][p].written)
            };
            // Same inputs, same row: the node's current row is what that
            // evaluation produced, so it cannot change.
            if self.last_read[i]
                .as_ref()
                .is_some_and(|last| read().eq(last.iter().copied()))
            {
                continue;
            }
            let last = self.last_read[i].get_or_insert_with(Vec::new);
            last.clear();
            last.extend(read());
            self.recomputations += 1;

            let out = &mut self.scratch;
            for r in out.iter_mut() {
                *r = self.alg.invalid();
            }
            for ((k, f), &p) in imports.iter().zip(&self.picks) {
                let src = &self.history[*k][p].row;
                for (d, s) in out.iter_mut().zip(src) {
                    // `*d = d ⊕ f(s)` without cloning the winner.
                    let c = self.alg.extend(f, s);
                    if !self.alg.route_le(d, &c) {
                        *d = c;
                    }
                }
            }
            out[i] = self.alg.trivial();

            let current = &self.history[i].back().expect("never empty").row;
            if out != current {
                let next = self
                    .spare
                    .pop()
                    .unwrap_or_else(|| vec![self.alg.invalid(); n]);
                let row = std::mem::replace(&mut self.scratch, next);
                self.staged.push((i, row));
            }
        }
        self.activations += activated as usize;

        let rows_changed = self.staged.len() as u64;
        for (i, row) in self.staged.drain(..) {
            self.history[i].push_back(Version { written: t, row });
            self.last_changed[i] = t as u64;
        }
        let wall_ns = t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        tel.round_end(t as u64, activated, rows_changed, wall_ns);

        if rows_changed > 0 {
            self.quiescent_from = None;
        } else if self.quiescent_from.is_none() {
            self.quiescent_from = Some(t);
        }
        self.t = t;
    }

    /// Report the settle times and assemble the outcome from each row's
    /// newest version.
    pub fn finish<S: TelemetrySink + ?Sized>(self, tel: &mut S) -> DeltaOutcome<A> {
        if tel.enabled() {
            for (node, &round) in self.last_changed.iter().enumerate() {
                tel.node_settled(node, round);
            }
        }
        let newest = |i: NodeId| &self.history[i].back().expect("never empty").row;
        let final_state = RoutingState::from_fn(self.adj.node_count(), |i, j| newest(i)[j].clone());
        DeltaOutcome {
            final_state,
            quiescent_from: self.quiescent_from,
            activations: self.activations,
            recomputations: self.recomputations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleParams;
    use dbf_algebra::prelude::*;
    use dbf_matrix::prelude::*;
    use dbf_topology::generators;

    fn ring_setup(n: usize) -> (ShortestPaths, AdjacencyMatrix<ShortestPaths>) {
        let alg = ShortestPaths::new();
        let topo = generators::ring(n).with_weights(|_, _| NatInf::fin(1));
        (alg, AdjacencyMatrix::from_topology(&topo))
    }

    #[test]
    fn synchronous_delta_equals_sigma_iteration() {
        let (alg, adj) = ring_setup(5);
        let x0 = RoutingState::identity(&alg, 5);
        let horizon = 7;
        let sched = Schedule::synchronous(5, horizon);
        let delta_out = run_delta(&alg, &adj, &x0, &sched);
        let sigma_out = sigma_k(&alg, &adj, &x0, horizon);
        assert_eq!(delta_out.final_state, sigma_out);
        assert!(is_stable(&alg, &adj, &delta_out.final_state));
        assert_eq!(delta_out.activations, 5 * horizon);
    }

    #[test]
    fn random_schedules_reach_the_same_fixed_point() {
        let (alg, adj) = ring_setup(6);
        let x0 = RoutingState::identity(&alg, 6);
        let reference = iterate_to_fixed_point(&alg, &adj, &x0, 100);
        assert!(reference.converged);
        for seed in 0..6 {
            let sched = Schedule::random(6, 400, ScheduleParams::default(), seed);
            let out = run_delta(&alg, &adj, &x0, &sched);
            assert!(
                is_stable(&alg, &adj, &out.final_state),
                "seed {seed} did not stabilise"
            );
            assert_eq!(
                out.final_state, reference.state,
                "seed {seed} reached a different state"
            );
            assert!(out.quiescent_from.is_some());
        }
    }

    #[test]
    fn harsh_schedules_still_converge_for_strictly_increasing_finite_algebras() {
        // Theorem 7 exercised through δ: bounded hop count from a garbage
        // starting state under harsh schedules.
        let alg = BoundedHopCount::new(8);
        let topo = generators::connected_random(6, 0.4, 5).with_weights(|_, _| 1u64);
        let adj = AdjacencyMatrix::from_topology(&topo);
        let reference = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 6), 100);
        assert!(reference.converged);
        let garbage = RoutingState::<BoundedHopCount>::from_fn(6, |i, j| {
            if i == j {
                NatInf::fin(0)
            } else {
                NatInf::fin(((i * 5 + j * 3) % 9) as u64)
            }
        });
        for seed in 0..4 {
            let sched = Schedule::random(6, 600, ScheduleParams::harsh(), seed);
            let out = run_delta(&alg, &adj, &garbage, &sched);
            assert!(is_stable(&alg, &adj, &out.final_state), "seed {seed}");
            assert_eq!(out.final_state, reference.state, "seed {seed}");
        }
    }

    #[test]
    fn inactive_nodes_keep_their_entries() {
        let (alg, adj) = ring_setup(4);
        let x0 = RoutingState::identity(&alg, 4);
        // Only node 0 ever activates.
        let mut sched = Schedule::synchronous(4, 10);
        for t in 1..=10 {
            for i in 1..4 {
                sched.set_activation(t, i, false);
            }
        }
        let out = run_delta(&alg, &adj, &x0, &sched);
        // Node 2's row is untouched.
        assert_eq!(out.final_state.row(2), x0.row(2));
        // Node 0 learned its one-hop neighbours but nothing further (its
        // neighbours never recomputed, so they never offered longer routes).
        assert_eq!(out.final_state.get(0, 1), &NatInf::fin(1));
        assert_eq!(out.final_state.get(0, 2), &NatInf::INF);
        assert!(!is_stable(&alg, &adj, &out.final_state));
    }

    #[test]
    fn round_robin_converges_more_slowly_but_converges() {
        let (alg, adj) = ring_setup(5);
        let x0 = RoutingState::identity(&alg, 5);
        let reference = iterate_to_fixed_point(&alg, &adj, &x0, 100);
        let sched = Schedule::round_robin(5, 200);
        let out = run_delta(&alg, &adj, &x0, &sched);
        assert!(is_stable(&alg, &adj, &out.final_state));
        assert_eq!(out.final_state, reference.state);
        // one activation per step
        assert_eq!(out.activations, 200);
    }

    #[test]
    fn quiescence_time_is_reported() {
        let (alg, adj) = ring_setup(4);
        let x0 = RoutingState::identity(&alg, 4);
        let sched = Schedule::synchronous(4, 50);
        let out = run_delta(&alg, &adj, &x0, &sched);
        let q = out.quiescent_from.expect("synchronous run must quiesce");
        // a 4-ring converges in 2 rounds of σ; quiescence observed at the
        // first unchanged application, i.e. round 3
        assert!(q <= 4, "quiesced at {q}");
    }

    #[test]
    fn unchanged_inputs_are_not_recomputed() {
        let (alg, adj) = ring_setup(4);
        let x0 = RoutingState::identity(&alg, 4);
        let out = run_delta(&alg, &adj, &x0, &Schedule::synchronous(4, 50));
        assert_eq!(out.activations, 4 * 50);
        // Rows change at t = 1, 2; the evaluations at t = 3 read new
        // versions and find nothing to change; from t = 4 on every
        // activation reads what it read before.
        assert_eq!(out.recomputations, 4 * 3);
        assert_eq!(out.quiescent_from, Some(3));
    }

    #[test]
    #[should_panic(expected = "S2 violated")]
    fn reads_from_the_present_are_rejected() {
        let (alg, adj) = ring_setup(4);
        let x0 = RoutingState::identity(&alg, 4);
        let mut sched = Schedule::synchronous(4, 10);
        sched.set_data_time(3, 0, 1, 3);
        let _ = run_delta(&alg, &adj, &x0, &sched);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_schedule_is_rejected() {
        let (alg, adj) = ring_setup(4);
        let x0 = RoutingState::identity(&alg, 4);
        let sched = Schedule::synchronous(5, 10);
        let _ = run_delta(&alg, &adj, &x0, &sched);
    }
}
