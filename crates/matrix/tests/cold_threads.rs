//! The cold whole-state solve is the one-thread solve, at any lane count.
//!
//! `iterate_traced` (and `iterate_to_fixed_point`, which forwards to it)
//! shards every round over `default_jobs()` threads.  Each cell here runs
//! one problem at one round budget through `iterate_traced`, the untraced
//! entry point and `iterate_with` on t ∈ {1, 2, 3, 7} threads, and holds
//! every outcome — state, `iterations`, `rounds`, `row_recomputations`,
//! `converged` — and the aggregated deterministic metrics to a one-thread
//! `iterate_with` run on the calling thread.  Band geometry is timing-side
//! and may differ; the test checks only that more than one lane really
//! cut the rounds.

use dbf_algebra::prelude::*;
use dbf_matrix::prelude::*;
use dbf_telemetry::{AggregatingSink, MetricsReport, TelemetrySink};
use dbf_topology::generators;

const LANES: [usize; 4] = [1, 2, 3, 7];

/// The comparable part of a `SyncOutcome` (it has no `PartialEq`).
type Summary<A> = (RoutingState<A>, usize, usize, u64, bool);

fn summary<A: RoutingAlgebra>(out: SyncOutcome<A>) -> Summary<A> {
    let SyncOutcome {
        state,
        iterations,
        rounds,
        row_recomputations,
        converged,
    } = out;
    (state, iterations, rounds, row_recomputations, converged)
}

/// One cold solve under `run`, with a fresh aggregating sink.
fn traced<A: RoutingAlgebra>(
    run: impl FnOnce(&mut dyn TelemetrySink) -> SyncOutcome<A>,
) -> (Summary<A>, MetricsReport) {
    let mut sink = AggregatingSink::new();
    let out = run(&mut sink);
    (summary(out), sink.finish())
}

/// Every entry point and lane count at every budget of interest equals
/// the inline solve.  Returns the inline solve's `iterations`.
fn assert_thread_invariant<A: RoutingAlgebra>(
    label: &str,
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x0: &RoutingState<A>,
) -> usize {
    let n = adj.node_count();
    let unlimited = iteration_budget(n, None);
    let all = vec![true; n];
    let on = |lanes: usize, budget: usize| {
        traced(|tel| iterate_with(alg, adj, x0.clone(), &all, budget, lanes, tel))
    };
    let ((_, settle, ..), _) = on(1, unlimited);
    assert!(settle >= 3, "{label}: the problem must take a few rounds");
    for budget in [0, 1, settle - 1, settle, unlimited] {
        let (want, want_report) = on(1, budget);
        let cell = format!("{label} budget={budget}");
        assert_eq!(want.4, budget >= settle, "{cell}: converged");
        let (got, report) = traced(|tel| iterate_traced(alg, adj, x0, budget, tel));
        assert_eq!(got, want, "{cell}: iterate_traced");
        assert_eq!(report.phases, want_report.phases, "{cell}: iterate_traced");
        let untraced = iterate_to_fixed_point(alg, adj, x0, budget);
        assert_eq!(summary(untraced), want, "{cell}: iterate_to_fixed_point");
        for lanes in LANES {
            let (got, report) = on(lanes, budget);
            assert_eq!(got, want, "{cell} lanes={lanes}");
            assert_eq!(report.phases, want_report.phases, "{cell} lanes={lanes}");
            let bands = report.timing[0].bands.len();
            if lanes == 1 {
                assert_eq!(bands, 0, "{cell}: one lane sweeps on the calling thread");
            } else {
                assert!(bands > 1, "{cell} lanes={lanes}: the rounds were not cut");
            }
        }
    }
    settle
}

#[test]
fn a_hub_skewed_widest_fabric_solves_the_same_on_every_lane_count() {
    // Preferential attachment: a few hubs import from most of the graph.
    let n = 120;
    let alg = WidestPaths::new();
    let topo = generators::as_graph(n, 2, 7)
        .with_weights(|i, j| NatInf::fin(((i * 13 + j * 7) % 97 + 3) as u64));
    let adj = AdjacencyMatrix::from_topology(&topo);
    let max_degree = (0..n).map(|i| adj.row(i).len()).max().unwrap();
    assert!(max_degree >= 10, "hub degree {max_degree}");
    assert_thread_invariant(
        "as_graph widest",
        &alg,
        &adj,
        &RoutingState::identity(&alg, n),
    );
}

#[test]
fn a_ring_hop_count_solves_the_same_on_every_lane_count() {
    let n = 41;
    let alg = BoundedHopCount::new(32);
    let adj = AdjacencyMatrix::from_topology(&generators::ring(n).with_weights(|_, _| 1u64));
    let settle = assert_thread_invariant(
        "ring hopcount",
        &alg,
        &adj,
        &RoutingState::identity(&alg, n),
    );
    assert_eq!(settle, n / 2, "a ring settles in its radius");
}
