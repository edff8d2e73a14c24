//! The δ oracle table: the versioned-history evaluator of
//! `dbf_async::delta` held, observable by observable, to the dense windowed
//! evaluator it replaced.
//!
//! The oracle (`common/mod.rs`) is Section 3.1 transcribed: whole states
//! in a window, every entry of every activated row, `A_ik` folded over all
//! `k`.  The evaluator under test keeps per-row versions, folds over the
//! links that exist and skips an activation whose inputs are the versions
//! it read last time — none of which may be observable.

mod common;

use common::{oracle, Recorder};
use dbf_algebra::prelude::*;
use dbf_algebra::SampleableAlgebra;
use dbf_async::convergence::state_ensemble;
use dbf_async::prelude::*;
use dbf_bgp::algebra::random_policy;
use dbf_bgp::prelude::*;
use dbf_matrix::prelude::*;
use dbf_paths::prelude::*;
use dbf_topology::Topology;

const N: usize = 6;

/// A 6-ring with two chords, made awkward: node 5 imports from nobody
/// (its row of `A` is empty, though 0 and 4 import from it) and the link
/// 1–2 is one-way (2 imports from 1, 1 does not import from 2).
fn shape() -> Topology<()> {
    let mut shape = Topology::new(N);
    for i in 0..N {
        shape.set_link(i, (i + 1) % N, ());
    }
    shape.set_link(0, 3, ());
    shape.set_link(1, 4, ());
    for j in shape.out_neighbors(5) {
        shape.remove_edge(5, j);
    }
    shape.remove_edge(1, 2);
    assert!(shape.out_neighbors(5).is_empty() && shape.has_edge(0, 5));
    assert!(shape.has_edge(2, 1) && !shape.has_edge(1, 2));
    shape
}

/// Synchronous, round-robin, random (default and harsh) and adversarially
/// stale schedules — the last one asking for a lag far beyond its horizon,
/// so nothing is ever pruned.
fn schedules() -> Vec<(&'static str, Schedule)> {
    vec![
        ("synchronous", Schedule::synchronous(N, 40)),
        ("round-robin", Schedule::round_robin(N, 120)),
        (
            "random default",
            Schedule::random(N, 150, ScheduleParams::default(), 3),
        ),
        (
            "random harsh",
            Schedule::random(N, 200, ScheduleParams::harsh(), 4),
        ),
        (
            "adversarial stale",
            Schedule::adversarial_stale(N, 60, 2, 4, 7),
        ),
        (
            "adversarial stale, lag > horizon",
            Schedule::adversarial_stale(N, 12, 0, 3, 50),
        ),
    ]
}

/// Hold the evaluator to the oracle from the identity state and from a
/// garbage state drawn from `pool`, under every schedule.
fn hold_to_oracle<A: RoutingAlgebra>(
    what: &str,
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    pool: &[A::Route],
) {
    let starts = state_ensemble(alg, N, pool, 1, 0xD1CE);
    assert_eq!(starts.len(), 2, "identity and one garbage state");
    for (name, schedule) in schedules() {
        for (s, x0) in starts.iter().enumerate() {
            let case = format!("{what}, {name}, start #{s}");
            let want = oracle(alg, adj, x0, &schedule);
            let mut recorder = Recorder::default();
            let got = run_delta_traced(alg, adj, x0, &schedule, &mut recorder);
            assert!(got.final_state == want.final_state, "{case}: final state");
            assert_eq!(got.quiescent_from, want.quiescent_from, "{case}");
            assert_eq!(got.activations, want.activations, "{case}");
            assert_eq!(recorder.0, want.events, "{case}: telemetry");
            assert!(got.recomputations <= got.activations, "{case}");
            // Telemetry off takes the same path.
            let plain = run_delta(alg, adj, x0, &schedule);
            assert!(plain.final_state == got.final_state, "{case}: untraced");
            assert_eq!(plain.recomputations, got.recomputations, "{case}");
        }
    }
}

#[test]
fn hopcount_matches_the_dense_evaluator() {
    let alg = BoundedHopCount::new(9);
    let adj = AdjacencyMatrix::from_topology(&shape().with_weights(|_, _| 1u64));
    hold_to_oracle("hopcount", &alg, &adj, &alg.sample_routes(7, 16));
}

#[test]
fn shortest_paths_matches_the_dense_evaluator() {
    // Unbounded, so the garbage start counts to infinity towards node 5's
    // unreachable side: no convergence, and still the same iterate.
    let alg = ShortestPaths::new();
    let topo = shape().with_weights(|i, j| NatInf::fin(((i * 3 + j) % 5 + 1) as u64));
    let adj = AdjacencyMatrix::from_topology(&topo);
    hold_to_oracle("shortest", &alg, &adj, &alg.sample_routes(7, 16));
}

#[test]
fn path_vector_matches_the_dense_evaluator() {
    let pv = PathVector::new(ShortestPaths::new(), N);
    let topo = shape().with_weights(|i, j| NatInf::fin(((i + 2 * j) % 4 + 1) as u64));
    let adj = lift_topology(&pv, &topo);
    hold_to_oracle("path-vector", &pv, &adj, &pv.sample_routes(7, 32));
}

#[test]
fn bgp_matches_the_dense_evaluator() {
    let alg = BgpAlgebra::new(N);
    let mut rng = dbf_algebra::algebra::SplitMix64::new(0xC0FFEE);
    let topo = shape().with_weights(|_, _| random_policy(&mut rng, 2));
    let adj = alg.adjacency_from_topology(&topo);
    hold_to_oracle("bgp", &alg, &adj, &alg.sample_routes(7, 32));
}

/// Under a schedule whose staleness never exceeds `ℓ`, no row ever holds
/// more than `ℓ + 1` versions, and once the state has been quiet for `ℓ`
/// steps every row holds exactly one.
#[test]
fn history_is_bounded_by_the_lag_and_collapses_after_quiescence() {
    let alg = BoundedHopCount::new(9);
    let adj = AdjacencyMatrix::from_topology(&shape().with_weights(|_, _| 1u64));
    let garbage = &state_ensemble(&alg, N, &alg.sample_routes(7, 16), 1, 0xD1CE)[1];
    let mut most = 0;
    for (name, schedule) in schedules() {
        let lag = schedule.max_lag();
        let mut run = DeltaRun::new(&alg, &adj, garbage, &schedule);
        for _ in 0..schedule.horizon() {
            run.step(&mut dbf_telemetry::NoopSink);
            for i in 0..N {
                let kept = run.retained_versions(i);
                assert!(kept <= lag + 1, "{name}: row {i} holds {kept} at lag {lag}");
                most = most.max(kept);
            }
        }
        let retained: Vec<usize> = (0..N).map(|i| run.retained_versions(i)).collect();
        let out = run.finish(&mut dbf_telemetry::NoopSink);
        if let Some(q) = out.quiescent_from.filter(|q| q + lag <= schedule.horizon()) {
            assert_eq!(retained, vec![1; N], "{name}: quiescent from {q}");
        }
    }
    assert!(most > 2, "some schedule must actually build up history");
}
