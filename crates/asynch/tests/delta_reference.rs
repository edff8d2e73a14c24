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
use dbf_telemetry::NoopSink;
use dbf_topology::{generators, Topology, TopologyChange};

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
            run.step(&mut NoopSink);
            for i in 0..N {
                let kept = run.retained_versions(i);
                assert!(kept <= lag + 1, "{name}: row {i} holds {kept} at lag {lag}");
                most = most.max(kept);
            }
        }
        let retained: Vec<usize> = (0..N).map(|i| run.retained_versions(i)).collect();
        let out = run.finish(&mut NoopSink);
        if let Some(q) = out.quiescent_from.filter(|q| q + lag <= schedule.horizon()) {
            assert_eq!(retained, vec![1; N], "{name}: quiescent from {q}");
        }
    }
    assert!(most > 2, "some schedule must actually build up history");
}

/// On a 400-step random schedule δ lands on σ's fixed point, evaluates
/// fewer than a quarter of its activations (the rest read the versions
/// they read last time), and `max_lag` steps past quiescence every row is
/// down to one version.
fn lands_on_sigmas_fixed_point_mostly_idle<A: RoutingAlgebra>(
    label: &str,
    alg: &A,
    adj: &AdjacencyMatrix<A>,
) {
    let n = adj.node_count();
    let x0 = RoutingState::identity(alg, n);
    let schedule = Schedule::random(n, 400, ScheduleParams::default(), 1);
    let whole = run_delta(alg, adj, &x0, &schedule);
    let reference = iterate_to_fixed_point(alg, adj, &x0, 4 * n);
    assert!(
        reference.converged && is_stable(alg, adj, &whole.final_state),
        "{label}"
    );
    assert!(
        whole.final_state == reference.state,
        "{label}: δ missed σ's fixed point"
    );
    assert!(
        whole.recomputations * 4 < whole.activations,
        "{label}: {} of {} activations were evaluated; the run is mostly quiet",
        whole.recomputations,
        whole.activations
    );

    let quiet_from = whole.quiescent_from.expect("a 400-step horizon is enough");
    let settled = quiet_from + schedule.max_lag();
    assert!(settled <= schedule.horizon(), "{label}: quiet too late");
    let mut run = DeltaRun::new(alg, adj, &x0, &schedule);
    for _ in 0..settled {
        run.step(&mut NoopSink);
    }
    assert!(
        (0..n).all(|i| run.retained_versions(i) == 1),
        "{label}: history outlives quiescence + max_lag"
    );
}

#[test]
fn delta_lands_on_sigmas_fixed_point_and_then_costs_nothing() {
    // The `policy-diff` shape: a dense random graph under Section 7 routes.
    let n = 20;
    let bgp = BgpAlgebra::new(n);
    let mut rng = dbf_algebra::algebra::SplitMix64::new(0xC0FFEE);
    let topo =
        generators::connected_random(n, 0.4, 5).with_weights(|_, _| random_policy(&mut rng, 2));
    lands_on_sigmas_fixed_point_mostly_idle(
        "dense random 20, bgp",
        &bgp,
        &bgp.adjacency_from_topology(&topo),
    );

    // A sparse integer one.
    let ring = generators::ring(64).with_weights(|_, _| 1u64);
    lands_on_sigmas_fixed_point_mostly_idle(
        "ring 64, hop count",
        &BoundedHopCount::new(64),
        &AdjacencyMatrix::from_topology(&ring),
    );
}

/// Section 3.2's dynamic network, written out: each epoch is a fresh δ run
/// on the epoch's adjacency from the state the previous epoch ended in.
fn run_epochs(alg: &BoundedHopCount, epochs: &[(&Topology<u64>, Schedule)]) -> Vec<Epoch> {
    let mut state = RoutingState::identity(alg, epochs[0].0.node_count());
    let mut outcomes = Vec::new();
    for (topo, schedule) in epochs {
        let adj = AdjacencyMatrix::from_topology(topo);
        state = run_delta(alg, &adj, &state, schedule).final_state;
        outcomes.push(Epoch {
            stable: is_stable(alg, &adj, &state),
            state: state.clone(),
        });
    }
    outcomes
}

/// Where an epoch's δ run ended, and whether that is σ-stable on the
/// epoch's adjacency.
struct Epoch {
    state: RoutingState<BoundedHopCount>,
    stable: bool,
}

#[test]
fn reconvergence_after_a_link_failure() {
    // A ring loses a link; the protocol must re-converge to the line
    // distances from the stale ring state.
    let alg = BoundedHopCount::new(10);
    let ring = generators::ring(6).with_weights(|_, _| 1u64);
    let line = TopologyChange::FailLink { a: 0, b: 5 }.apply(&ring);
    let outcomes = run_epochs(
        &alg,
        &[
            (
                &ring,
                Schedule::random(6, 300, ScheduleParams::default(), 1),
            ),
            (&line, Schedule::random(6, 400, ScheduleParams::harsh(), 2)),
        ],
    );
    assert!(outcomes[0].stable, "ring epoch converged");
    assert!(outcomes[1].stable, "post-failure epoch reconverged");

    // After the failure the network is a line: hop distance = |i - j|.
    let reference = iterate_to_fixed_point(
        &alg,
        &AdjacencyMatrix::from_topology(&line),
        &RoutingState::identity(&alg, 6),
        100,
    );
    assert_eq!(outcomes[1].state, reference.state);
    // and the distances really did change: 0→5 is now 5 hops, not 1
    assert_eq!(outcomes[0].state.get(0, 5), &NatInf::fin(1));
    assert_eq!(outcomes[1].state.get(0, 5), &NatInf::fin(5));
}

#[test]
fn reconvergence_after_adding_a_shortcut() {
    let alg = BoundedHopCount::new(12);
    let line = generators::line(7).with_weights(|_, _| 1u64);
    let mut with_chord = line.clone();
    with_chord.set_link(0, 6, 1u64);
    let outcomes = run_epochs(
        &alg,
        &[
            (
                &line,
                Schedule::random(7, 300, ScheduleParams::default(), 4),
            ),
            (
                &with_chord,
                Schedule::random(7, 300, ScheduleParams::default(), 5),
            ),
        ],
    );
    assert!(outcomes[1].stable);
    assert_eq!(outcomes[0].state.get(0, 6), &NatInf::fin(6));
    assert_eq!(outcomes[1].state.get(0, 6), &NatInf::fin(1));
    assert_eq!(outcomes[1].state.get(1, 6), &NatInf::fin(2));
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
    let outcomes = run_epochs(
        &alg,
        &[
            (&ring, Schedule::synchronous(4, 30)),
            (&cut, Schedule::random(4, 400, ScheduleParams::default(), 8)),
        ],
    );
    let final_state = &outcomes[1].state;
    assert!(outcomes[1].stable);
    assert_eq!(
        final_state.get(0, 2),
        &NatInf::INF,
        "0 can no longer reach 2"
    );
    assert_eq!(final_state.get(0, 1), &NatInf::fin(1), "0 still reaches 1");
    assert_eq!(final_state.get(2, 3), &NatInf::fin(1), "2 still reaches 3");
}
