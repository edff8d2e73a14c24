//! Property-based tests for schedules (S1–S3), the asynchronous iterate `δ`
//! and the event simulator.

mod common;

use dbf_algebra::prelude::*;
use dbf_async::prelude::*;
use dbf_matrix::prelude::*;
use dbf_paths::prelude::*;
use dbf_topology::generators;
use proptest::prelude::*;

fn params() -> impl Strategy<Value = ScheduleParams> {
    (0.2f64..1.0, 1usize..8, 0.0f64..0.4, 0.0f64..0.4).prop_map(
        |(activation_prob, max_delay, duplicate_prob, reorder_prob)| ScheduleParams {
            activation_prob,
            max_delay,
            duplicate_prob,
            reorder_prob,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// δ under the synchronous schedule is exactly σ iteration, for any
    /// horizon.
    #[test]
    fn synchronous_delta_is_sigma(n in 3usize..6, horizon in 1usize..10, seed in 0u64..200) {
        let alg = ShortestPaths::new();
        let topo = generators::connected_random(n, 0.5, seed)
            .with_weights(|i, j| NatInf::fin(((i + 2 * j) % 5 + 1) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let x0 = RoutingState::identity(&alg, n);
        let delta = run_delta(&alg, &adj, &x0, &Schedule::synchronous(n, horizon));
        prop_assert_eq!(delta.final_state, sigma_k(&alg, &adj, &x0, horizon));
    }

    /// Theorem 7, sampled: the hop-count algebra reaches the same σ-stable
    /// state under arbitrary random schedules and garbage starts.
    #[test]
    fn hopcount_delta_converges_absolutely(seed in 0u64..100, p in params()) {
        let n = 5;
        let alg = BoundedHopCount::new(8);
        let topo = generators::connected_random(n, 0.5, seed).with_weights(|_, _| 1u64);
        let adj = AdjacencyMatrix::from_topology(&topo);
        let reference = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 200);
        prop_assert!(reference.converged);

        let garbage = RoutingState::<BoundedHopCount>::from_fn(n, |i, j| {
            if i == j {
                NatInf::fin(0)
            } else {
                NatInf::fin((i as u64 * 31 + j as u64 * 17 + seed) % 9)
            }
        });
        let sched = Schedule::random(n, 400, p, seed ^ 0xA5);
        let out = run_delta(&alg, &adj, &garbage, &sched);
        prop_assert!(
            is_stable(&alg, &adj, &out.final_state),
            "schedule params {p:?} broke convergence"
        );
        prop_assert_eq!(out.final_state, reference.state);
    }

    /// Whatever the activation rate, delay, duplication and reordering, δ is
    /// the dense windowed evaluator's iterate: same state, same quiescence
    /// time, same activation count, same telemetry — on path-vector routes
    /// from a garbage start, where rows keep changing long enough for the
    /// version history to fill.
    #[test]
    fn delta_matches_the_dense_oracle(n in 3usize..7, p in params(), seed in 0u64..500) {
        let pv = PathVector::new(ShortestPaths::new(), n);
        let topo = generators::connected_random(n, 0.4, seed)
            .with_weights(|i, j| NatInf::fin(((i + 3 * j) % 4 + 1) as u64));
        let adj = lift_topology(&pv, &topo);
        let pool = pv.sample_routes(seed, 24);
        let garbage = &dbf_async::convergence::state_ensemble(&pv, n, &pool, 1, seed)[1];
        let sched = Schedule::random(n, 80, p, seed ^ 0x5EED);

        let want = common::oracle(&pv, &adj, garbage, &sched);
        let mut recorder = common::Recorder::default();
        let got = run_delta_traced(&pv, &adj, garbage, &sched, &mut recorder);
        prop_assert!(got.final_state == want.final_state, "params {p:?}");
        prop_assert_eq!(got.quiescent_from, want.quiescent_from);
        prop_assert_eq!(got.activations, want.activations);
        prop_assert_eq!(recorder.0, want.events);
        prop_assert!(got.recomputations <= got.activations);
    }

    /// The event simulator's outcome is independent of loss/duplication
    /// rates (only its cost changes).
    #[test]
    fn simulator_outcome_is_fault_independent(seed in 0u64..50, loss in 0.0f64..0.4) {
        let n = 5;
        let alg = ShortestPaths::new();
        let topo = generators::connected_random(n, 0.5, seed)
            .with_weights(|i, j| NatInf::fin(((i * 3 + j) % 6 + 1) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let reference = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 200);

        let cfg = SimConfig {
            loss_prob: loss,
            duplicate_prob: loss / 2.0,
            min_delay: 1,
            max_delay: 10,
            seed,
            ..SimConfig::default()
        };
        let out = EventSim::new(&alg, &adj, cfg).run();
        prop_assert!(!out.truncated);
        prop_assert!(is_stable(&alg, &adj, &out.final_state));
        prop_assert_eq!(out.final_state, reference.state);
        let c = out.stats.counters;
        prop_assert!(c.delivered <= c.sent + c.duplicated);
    }
}

// ---------------------------------------------------------------------------
// `Schedule::certify` accepts every fault profile the generator emits under
// the SAME `(w, ℓ)` parameters the convergence bounds are computed from
// (`dbf_scenario::bound::schedule_window` uses `w = params.s1_window()` for
// random schedules, `w = period` for adversarial-stale ones, and
// `ℓ = max_delay.max(1)`).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every random fault profile — activation rate, delay, duplication,
    /// reordering — yields a schedule that certifies S1(w), S2 and S3(ℓ).
    #[test]
    fn recorded_random_schedules_certify(n in 2usize..7, p in params(), seed in 0u64..1000) {
        let horizon = 120;
        let s = Schedule::random(n, horizon, p, seed);
        prop_assert_eq!(s.certify(p.s1_window(), p.max_delay.max(1)), Ok(()));
        prop_assert!(s.max_lag() >= 1);
    }

    /// The adversarial-stale profile — one node activating every `period`
    /// steps on maximally stale data — certifies against exactly the
    /// `(w, ℓ) = (period, max_lag)` the bound oracle assigns it.
    #[test]
    fn recorded_adversarial_schedules_certify(
        n in 2usize..7,
        period in 1usize..6,
        max_lag in 1usize..9,
        seed in 0u64..50,
    ) {
        let horizon = 60;
        let victim = (seed as usize) % n;
        let s = Schedule::adversarial_stale(n, horizon, victim, period, max_lag);
        prop_assert_eq!(s.certify(period, max_lag), Ok(()));
        // Tightness of the certificate: the victim really is `max_lag`
        // stale once the horizon allows it, so any smaller ℓ is refused.
        if max_lag > 1 && horizon > max_lag {
            prop_assert!(matches!(
                s.certify(period, max_lag - 1),
                Err(AxiomViolation::S3 { .. })
            ));
        }
    }

    /// Corrupting a single cell of a certified schedule flips certification
    /// and the witness names the corrupted coordinate.
    #[test]
    fn corrupted_traces_are_rejected_with_a_witness(
        n in 2usize..6,
        t in 10usize..40,
        coord in (0usize..25, 0usize..25),
        seed in 0u64..100,
    ) {
        let horizon = 40;
        let lag = 4;
        let (i, j) = (coord.0 % n, coord.1 % n);
        let mut s = Schedule::random(n, horizon, ScheduleParams::default(), seed);

        // S3 corruption: a read staler than the bound.
        s.set_data_time(t, i, j, t - lag - 1);
        match s.certify(horizon, lag) {
            Err(AxiomViolation::S3 { t: wt, i: wi, j: wj, .. }) => {
                // An earlier organic violation cannot exist (the generator
                // respects the default max_delay = 4 = lag), so the witness
                // is exactly the corrupted cell.
                prop_assert_eq!((wt, wi, wj), (t, i, j));
            }
            other => prop_assert!(false, "expected an S3 witness, got {other:?}"),
        }

        // S2 corruption: a read from the future.
        s.set_data_time(t, i, j, t);
        prop_assert!(matches!(
            s.certify(horizon, lag),
            Err(AxiomViolation::S2 { .. })
        ));
    }
}
