//! The resident kernel, differentially: across random traces on both
//! algebras — nodes joining, restart-on-removal and a scripted-clock
//! deadline run — after every event, while the server is idle, its one
//! stepper's rows must be the table and the table a from-scratch solve; a
//! stale answer must come from the pre-batch table.

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
/// every stale answer against the table from before its batch.
fn serve_checked<A, F>(mut server: RouteServer<A, F>, trace: &ChurnTrace) -> ServeStats
where
    A: ScenarioAlgebra,
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    server.initial_converge(&mut NoopSink).expect("converges");
    server.assert_resident();
    let mut pre_batch = server.table().clone();
    for event in &trace.events {
        if !server.is_degraded() {
            pre_batch = server.table().clone();
        }
        let answer = server.submit(event, &mut NoopSink).expect("in range");
        if let (Some(answer), ServeEvent::Query { from, to }) = (answer, event) {
            if answer.stale {
                assert_eq!(answer.text, format!("{:?}", pre_batch.get(*from, *to)));
            }
        }
        server.assert_resident();
    }
    server.finish(&mut NoopSink).expect("finishes");
    server.assert_resident();
    assert_eq!(server.node_count(), 12);
    server.stats().clone()
}

fn check_both_algebras(setting: Setting) -> Vec<ServeStats> {
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
    assert!(stats.iter().all(|s| s.batches > 20 && s.stale_answers == 0));
}

#[test]
fn a_deadline_run_answers_stale_from_the_pre_batch_table() {
    let stats = check_both_algebras(Setting::Deadline);
    for s in &stats {
        assert!(s.deadline_overruns >= 1, "{s:?}");
    }
    assert!(stats.iter().any(|s| s.stale_answers > 0));
}
