//! The resident kernel, differentially: across random traces on both
//! algebras — nodes joining, restart-on-removal and a scripted-clock
//! deadline run — after every event, while the server is idle, its one
//! stepper's rows must be a from-scratch solve; a stale answer must come
//! from the pre-batch table, which shares with the stepper every row the
//! parked flush has left alone.  And on a scripted clock: what a degraded
//! server reads while its parked batch adds a node.

use super::tests::hop_rebuild;
use super::*;
use crate::chaos::{FaultKind, FaultPlan};
use crate::engine::ScenarioAlgebra;
use crate::spec::{ChangeSpec, TopologySpec, WeightRule};
use dbf_algebra::prelude::*;
use dbf_matrix::AdjacencyMatrix;
use dbf_telemetry::NoopSink;
use dbf_topology::Topology;
use std::sync::Arc;
use std::time::Duration;

fn shortest_rebuild() -> impl Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<ShortestPaths>
{
    let rule = WeightRule::uniform(1);
    move |s: &Topology<()>, w: &WeightOverrides| {
        AdjacencyMatrix::from_topology(&s.with_weights(|i, j| {
            NatInf::fin(w.get(&(i, j)).copied().unwrap_or_else(|| rule.weight(i, j)))
        }))
    }
}

/// A ring-10 churn trace with two nodes joining mid-stream, each linked
/// and queried right away; `set_weight` churn on shortest paths.
fn churn(algebra: ServeAlgebra, seed: u64) -> ChurnTrace {
    let mut trace = generate_trace(&TraceSpec {
        topology: TopologySpec::Ring { n: 10 },
        algebra,
        events: 240,
        seed,
        query_permille: 200,
        weight_permille: if algebra == ServeAlgebra::Shortest {
            150
        } else {
            0
        },
    })
    .expect("generator accepts the spec");
    for (at, node, peer) in [(160, 11, 4), (50, 10, 2)] {
        let joined = [
            ServeEvent::Change(ChangeSpec::AddNode),
            ServeEvent::Change(ChangeSpec::SetLink { a: node, b: peer }),
            ServeEvent::Query { from: 0, to: node },
        ];
        trace.events.splice(at..at, joined);
    }
    trace
}

/// What a server runs under besides its trace.
#[derive(Clone, Copy, Debug)]
enum Setting {
    Plain,
    /// A 5 ms deadline on a scripted clock, and flushes 0, 2, 5, 9 and
    /// 14 delayed 50 ms: each of those overruns and serves stale.
    Deadline,
}

fn configure<A, F>(server: RouteServer<A, F>, setting: Setting) -> RouteServer<A, F>
where
    A: ScenarioAlgebra,
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    match setting {
        Setting::Plain => server,
        Setting::Deadline => {
            let mut plan = FaultPlan::new(5);
            for flush in [0, 2, 5, 9, 14] {
                plan.push(FaultKind::DelayFlush { millis: 50 }, flush);
            }
            server
                .with_deadline(DeadlineCfg::Millis(5))
                .with_faults(Some(Arc::new(plan)))
                .with_clock(Arc::new(ScriptedClock::new(Duration::from_micros(10))))
        }
    }
}

/// Serve `trace`, checking the resident invariants after every event and
/// every stale answer against the table from before its batch.  Returns
/// the stats and how many times a parked flush's stepper was seen still
/// sharing rows with its pre-batch table.
fn serve_checked<A, F>(mut server: RouteServer<A, F>, trace: &ChurnTrace) -> (ServeStats, usize)
where
    A: ScenarioAlgebra,
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    server.initial_converge(&mut NoopSink).expect("converges");
    server.assert_resident();
    let mut pre_batch = server.table();
    let mut sharing = 0;
    for event in &trace.events {
        if !server.is_degraded() {
            pre_batch = server.table();
        }
        let answer = server.submit(event, &mut NoopSink).expect("in range");
        if let (Some(answer), ServeEvent::Query { from, to }) = (answer, event) {
            if answer.stale {
                assert_eq!(answer.text, format!("{:?}", pre_batch.get(*from, *to)));
            }
        }
        // Every row the parked flush has left as it was is the same memory
        // in its pre-batch table and in the stepper — unless the stepper
        // holds none of that memory: it grew, restarted from the identity,
        // ran a round over half the rows or wrote more than half of them
        // (`table.rs`).
        if let Some(rows) = server
            .pre_batch_rows()
            .filter(|r| r.iter().any(|&(same, _)| same))
        {
            for (i, &(same_memory, same_routes)) in rows.iter().enumerate() {
                assert!(same_memory || !same_routes, "row {i} was copied");
            }
            sharing += 1;
        }
        server.assert_resident();
    }
    server.finish(&mut NoopSink).expect("finishes");
    server.assert_resident();
    assert_eq!(server.node_count(), 12);
    (server.stats().clone(), sharing)
}

fn check_both_algebras(setting: Setting) -> Vec<(ServeStats, usize)> {
    let mut stats = Vec::new();
    for seed in 1..=3 {
        let trace = churn(ServeAlgebra::Hopcount { limit: 24 }, seed);
        let shape = super::trace::serve_shape(&trace.topology).unwrap();
        let server = RouteServer::raw(BoundedHopCount::new(24), shape, hop_rebuild(), 2, 4);
        stats.push(serve_checked(configure(server, setting), &trace));

        let trace = churn(ServeAlgebra::Shortest, seed);
        let shape = super::trace::serve_shape(&trace.topology).unwrap();
        let server = RouteServer::raw(ShortestPaths::new(), shape, shortest_rebuild(), 2, 4)
            .restart_on_removal(true);
        stats.push(serve_checked(configure(server, setting), &trace));
    }
    stats
}

#[test]
fn the_resident_kernel_is_a_fresh_solve_after_every_event() {
    let stats = check_both_algebras(Setting::Plain);
    assert!(stats
        .iter()
        .all(|(s, _)| s.batches > 20 && s.stale_answers == 0));
}

#[test]
fn a_deadline_run_answers_stale_from_the_pre_batch_table() {
    let stats = check_both_algebras(Setting::Deadline);
    for (s, _) in &stats {
        assert!(s.deadline_overruns >= 1, "{s:?}");
    }
    assert!(stats.iter().any(|(s, _)| s.stale_answers > 0));
    // hop count and shortest paths alternate; a shortest-paths run may
    // restart every flush it parks
    let sharing: Vec<usize> = stats.iter().map(|&(_, sharing)| sharing).collect();
    for algebra in 0..2 {
        let seen = sharing.iter().skip(algebra).step_by(2).sum::<usize>();
        assert!(seen > 0, "{sharing:?}");
    }
}

/// A converged ring-12 hop-count server whose first flush is delayed
/// 50 ms on a scripted clock against a 5 ms deadline.
fn delayed_server() -> RouteServer<
    BoundedHopCount,
    impl Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<BoundedHopCount>,
> {
    let shape = crate::run::build_shape(&TopologySpec::Ring { n: 12 }).unwrap();
    let plan = FaultPlan::new(3).with(FaultKind::DelayFlush { millis: 50 }, 0);
    let mut server = RouteServer::raw(BoundedHopCount::new(24), shape, hop_rebuild(), 1, 64)
        .with_deadline(DeadlineCfg::Millis(5))
        .with_faults(Some(Arc::new(plan)))
        .with_clock(Arc::new(ScriptedClock::new(Duration::from_micros(10))));
    server.initial_converge(&mut NoopSink).unwrap();
    server
}

/// [`delayed_server`] with `batch` pushed and flushed: it is degraded,
/// the batch parked.
pub(super) fn degraded_server(
    batch: &[ChangeSpec],
) -> RouteServer<
    BoundedHopCount,
    impl Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<BoundedHopCount>,
> {
    let mut server = delayed_server();
    for &change in batch {
        server.push_change(change, &mut NoopSink).unwrap();
    }
    server.flush(&mut NoopSink).unwrap();
    assert!(server.is_degraded());
    server
}

#[test]
fn a_parked_batch_that_adds_a_node_is_read_from_the_pre_batch_table() {
    let batch = [
        ChangeSpec::FailLink { a: 0, b: 1 },
        ChangeSpec::AddNode,
        ChangeSpec::SetLink { a: 6, b: 12 },
    ];
    let mut pre = delayed_server();
    let before = pre.digest();
    let row: Vec<String> = (0..12)
        .map(|to| pre.query(0, to, &mut NoopSink).unwrap().text)
        .collect();
    let mut server = degraded_server(&batch);
    assert_eq!(server.node_count(), 12, "the pre-batch node count");
    assert_eq!(server.digest(), before, "the pre-batch digest");
    let answer = server.query(0, 7, &mut NoopSink).unwrap();
    assert!(answer.stale && server.is_degraded());
    assert_eq!(answer.text, row[7], "the pre-batch table answers");
    assert_eq!(server.digest(), before);

    let answer = server.query(0, 12, &mut NoopSink).unwrap();
    assert!(!answer.stale, "a query to the new node completes the flush");
    assert!(!server.is_degraded());
    assert_eq!(server.node_count(), 13);
    let mut shape = crate::run::build_shape(&TopologySpec::Ring { n: 12 }).unwrap();
    batch
        .iter()
        .for_each(|c| crate::run::apply_change(c, &mut shape));
    let mut cold = RouteServer::raw(BoundedHopCount::new(24), shape, hop_rebuild(), 1, 64);
    cold.initial_converge(&mut NoopSink).unwrap();
    assert_eq!(server.digest(), cold.digest(), "a cold solve's table");
    assert_eq!(answer.text, cold.query(0, 12, &mut NoopSink).unwrap().text);
}
