//! Absolute-convergence testing (Definitions 6–8).
//!
//! * `δ` **converges from `X`** when every schedule eventually reaches a
//!   stable state and stays there;
//! * `δ` **converges** when it converges from every starting state;
//! * `δ` **converges absolutely** when it always reaches the *same* stable
//!   state from every starting state under every schedule.
//!
//! These are `∀`-statements over infinite sets, so they cannot be checked
//! exhaustively; [`check_absolute_convergence`] instead runs `δ` over an
//! ensemble of starting states × schedules and verifies that every run
//! reaches one and the same σ-stable state.  A single failing run is a
//! *refutation* of absolute convergence; an all-pass result is evidence in
//! exactly the sense the paper's experiments use it (the proof itself is the
//! job of Theorem 7 / Theorem 11, mirrored by this repository's contraction
//! checkers in `dbf-metric`).

use crate::delta::run_delta;
use crate::schedule::Schedule;
use dbf_algebra::RoutingAlgebra;
use dbf_matrix::{is_stable, AdjacencyMatrix, RoutingState};
use std::fmt;

/// A successful absolute-convergence check.
#[derive(Clone, Debug)]
pub struct AbsoluteConvergence<A: RoutingAlgebra> {
    /// The unique stable state every run converged to.
    pub fixed_point: RoutingState<A>,
    /// How many (state, schedule) runs were performed.
    pub runs: usize,
}

/// Why an absolute-convergence check failed.
#[derive(Clone, Debug)]
pub enum ConvergenceFailure {
    /// Some run ended the schedule in a state that is not σ-stable.
    NotStable {
        /// Index of the starting state.
        state_index: usize,
        /// Index of the schedule.
        schedule_index: usize,
    },
    /// Two runs converged to different stable states (a "BGP wedgie": the
    /// outcome depends on the order of events).
    MultipleFixedPoints {
        /// Index of the starting state of the first run.
        first_state: usize,
        /// Index of the schedule of the first run.
        first_schedule: usize,
        /// Index of the starting state of the second run.
        second_state: usize,
        /// Index of the schedule of the second run.
        second_schedule: usize,
    },
}

impl fmt::Display for ConvergenceFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvergenceFailure::NotStable {
                state_index,
                schedule_index,
            } => write!(
                f,
                "run (state #{state_index}, schedule #{schedule_index}) did not reach a σ-stable state"
            ),
            ConvergenceFailure::MultipleFixedPoints {
                first_state,
                first_schedule,
                second_state,
                second_schedule,
            } => write!(
                f,
                "run (state #{second_state}, schedule #{second_schedule}) reached a different stable \
                 state than run (state #{first_state}, schedule #{first_schedule}) — the outcome \
                 depends on the schedule (wedgie behaviour)"
            ),
        }
    }
}

impl std::error::Error for ConvergenceFailure {}

/// Run `δ` for every combination of starting state and schedule and check
/// that all runs reach the same σ-stable state.
pub fn check_absolute_convergence<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    states: &[RoutingState<A>],
    schedules: &[Schedule],
) -> Result<AbsoluteConvergence<A>, ConvergenceFailure> {
    let mut witness: Option<(usize, usize, RoutingState<A>)> = None;
    let mut runs = 0usize;
    for (si, x0) in states.iter().enumerate() {
        for (ci, sched) in schedules.iter().enumerate() {
            runs += 1;
            let out = run_delta(alg, adj, x0, sched);
            if !is_stable(alg, adj, &out.final_state) {
                return Err(ConvergenceFailure::NotStable {
                    state_index: si,
                    schedule_index: ci,
                });
            }
            match &witness {
                None => witness = Some((si, ci, out.final_state)),
                Some((fs, fc, reference)) => {
                    if out.final_state != *reference {
                        return Err(ConvergenceFailure::MultipleFixedPoints {
                            first_state: *fs,
                            first_schedule: *fc,
                            second_state: si,
                            second_schedule: ci,
                        });
                    }
                }
            }
        }
    }
    let (_, _, fixed_point) = witness.expect("at least one state and one schedule are required");
    Ok(AbsoluteConvergence { fixed_point, runs })
}

/// A convenience ensemble of schedules covering the synchronous, round-robin,
/// random and harsh-random regimes, deterministic in `seed`.
pub fn schedule_ensemble(n: usize, horizon: usize, count: usize, seed: u64) -> Vec<Schedule> {
    use crate::schedule::ScheduleParams;
    let mut out = vec![
        Schedule::synchronous(n, horizon),
        Schedule::round_robin(n, horizon),
    ];
    for k in 0..count {
        let params = if k % 2 == 0 {
            ScheduleParams::default()
        } else {
            ScheduleParams::harsh()
        };
        out.push(Schedule::random(
            n,
            horizon,
            params,
            seed.wrapping_add(k as u64),
        ));
    }
    out
}

/// A convenience ensemble of starting states: the clean (identity) state plus
/// `count` pseudo-random states whose entries are drawn from `route_pool`
/// (diagonals are kept trivial, as Lemma 1 forces after one activation
/// anyway), deterministic in `seed`.
pub fn state_ensemble<A: RoutingAlgebra>(
    alg: &A,
    n: usize,
    route_pool: &[A::Route],
    count: usize,
    seed: u64,
) -> Vec<RoutingState<A>> {
    use dbf_algebra::algebra::SplitMix64;
    let mut rng = SplitMix64::new(seed);
    let mut out = vec![RoutingState::identity(alg, n)];
    for _ in 0..count {
        out.push(RoutingState::from_fn(n, |i, j| {
            if i == j {
                alg.trivial()
            } else {
                route_pool[rng.next_below(route_pool.len() as u64) as usize].clone()
            }
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleParams;
    use dbf_algebra::prelude::*;
    use dbf_algebra::FiniteCarrier;
    use dbf_matrix::prelude::*;
    use dbf_paths::prelude::*;
    use dbf_topology::generators;

    #[test]
    fn theorem7_hopcount_converges_absolutely_on_a_random_network() {
        let alg = BoundedHopCount::new(9);
        let topo = generators::connected_random(5, 0.4, 21).with_weights(|_, _| 1u64);
        let adj = AdjacencyMatrix::from_topology(&topo);
        let states = state_ensemble(&alg, 5, &alg.all_routes(), 4, 7);
        let schedules = schedule_ensemble(5, 300, 4, 11);
        let result = check_absolute_convergence(&alg, &adj, &states, &schedules)
            .expect("Theorem 7: finite strictly increasing algebras converge absolutely");
        assert_eq!(result.runs, states.len() * schedules.len());
        // and the unique fixed point is the synchronous one
        let sync = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 5), 100);
        assert_eq!(result.fixed_point, sync.state);

        // ... and as the network grows: RIP's limit on sparser graphs of
        // 4, 8 and 16 nodes, one harsh schedule from a garbage state.
        for n in [4, 8, 16] {
            let alg = BoundedHopCount::rip();
            let topo = generators::connected_random(n, 0.35, 51).with_weights(|_, _| 1u64);
            let adj = AdjacencyMatrix::from_topology(&topo);
            let garbage = &state_ensemble(&alg, n, &alg.sample_routes(53, 64), 1, 53)[1];
            let harsh = Schedule::random(n, 300, ScheduleParams::harsh(), 55);
            let out = run_delta(&alg, &adj, garbage, &harsh);
            assert!(is_stable(&alg, &adj, &out.final_state), "n = {n}");
            let sync = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 100);
            assert_eq!(out.final_state, sync.state, "n = {n}");
        }
    }

    #[test]
    fn theorem11_path_vector_converges_absolutely_from_inconsistent_states() {
        type Pv = PathVector<ShortestPaths>;
        let pv: Pv = PathVector::new(ShortestPaths::new(), 4);
        let topo =
            generators::ring(4).with_weights(|i, j| NatInf::fin(((i + 2 * j) % 3 + 1) as u64));
        let adj = lift_topology(&pv, &topo);
        let pool = pv.sample_routes(13, 32);
        let states = state_ensemble(&pv, 4, &pool, 3, 3);
        let schedules = schedule_ensemble(4, 250, 3, 29);
        let result = check_absolute_convergence(&pv, &adj, &states, &schedules)
            .expect("Theorem 11: increasing path algebras converge absolutely");
        let sync = iterate_to_fixed_point(&pv, &adj, &RoutingState::identity(&pv, 4), 100);
        assert_eq!(result.fixed_point, sync.state);

        // ... and on random graphs of 4, 6 and 8 nodes, one harsh schedule
        // from a state of inconsistent routes.
        for n in [4, 6, 8] {
            let pv: Pv = PathVector::new(ShortestPaths::new(), n);
            let topo = generators::connected_random(n, 0.35, 61)
                .with_weights(|i, j| NatInf::fin(((i * 7 + j * 13) % 9 + 1) as u64));
            let adj = lift_topology(&pv, &topo);
            let stale = &state_ensemble(&pv, n, &pv.sample_routes(63, 64), 1, 63)[1];
            let harsh = Schedule::random(n, 300, ScheduleParams::harsh(), 65);
            let out = run_delta(&pv, &adj, stale, &harsh);
            assert!(is_stable(&pv, &adj, &out.final_state), "n = {n}");
            let sync = iterate_to_fixed_point(&pv, &adj, &RoutingState::identity(&pv, n), 100);
            assert_eq!(out.final_state, sync.state, "n = {n}");
        }
    }

    #[test]
    fn unbounded_shortest_paths_fails_from_stale_states() {
        // The count-to-infinity motivation for Section 5: plain shortest
        // paths (infinite carrier) does *not* converge from arbitrary stale
        // states within a bounded horizon once the destination is
        // unreachable — the stale routes keep being re-advertised at larger
        // and larger distances.
        let alg = ShortestPaths::new();
        let mut topo = dbf_topology::Topology::new(3);
        topo.set_link(0, 1, NatInf::fin(1));
        // node 2 is unreachable, but stale routes towards it exist
        let adj = AdjacencyMatrix::from_topology(&topo);
        let mut stale = RoutingState::identity(&alg, 3);
        stale.set(0, 2, NatInf::fin(5));
        stale.set(1, 2, NatInf::fin(5));
        let schedules = vec![Schedule::synchronous(3, 200)];
        let err = check_absolute_convergence(&alg, &adj, &[stale], &schedules);
        match err {
            Err(ConvergenceFailure::NotStable { .. }) => {}
            other => panic!("expected a count-to-infinity non-convergence, got {other:?}"),
        }
    }

    #[test]
    fn failure_display_mentions_the_offending_runs() {
        let f = ConvergenceFailure::MultipleFixedPoints {
            first_state: 0,
            first_schedule: 1,
            second_state: 2,
            second_schedule: 3,
        };
        let s = f.to_string();
        assert!(s.contains("schedule #3"));
        assert!(s.contains("wedgie"));
        let g = ConvergenceFailure::NotStable {
            state_index: 4,
            schedule_index: 5,
        };
        assert!(g.to_string().contains("state #4"));
    }
}
