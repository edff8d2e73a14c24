//! Golden digests of the route server's telemetry stream.
//!
//! A flush emits `round_start`/`round_end` per σ round, `node_settled` per
//! node once it converges and `serve_batch` per batch; a change to how the
//! server holds its kernel must emit exactly the same stream.  The digests
//! below were recorded from the server that built a fresh `FixedPoint` per
//! flush (the commit before the resident kernel), with the two fields a
//! replay cannot reproduce taken out: every `wall_ns`, and the
//! `pool_utilization`/`pool_health` lines (the shared pool's counters are
//! process-wide).  On a mismatch the test prints the stream it saw.

use dbf_scenario::prelude::*;
use dbf_scenario::report::Digest;
use dbf_scenario::telemetry::TraceSink;

/// `(lines, FNV-1a digest)` of the stripped stream.
const HOPCOUNT_WITH_GROWTH: (usize, &str) = (1131, "b858c2427e2a258f");
const SHORTEST_WITH_RESTARTS: (usize, &str) = (764, "2ce3c485074f6fc7");

/// A ring-12 hop-count trace with two nodes joining mid-stream: each
/// `add_node` is followed by links to the new node and queries to it.
fn hopcount_with_growth() -> ChurnTrace {
    let mut trace = generate_trace(&TraceSpec {
        topology: TopologySpec::Ring { n: 12 },
        algebra: ServeAlgebra::Hopcount { limit: 24 },
        events: 300,
        seed: 7,
        query_permille: 150,
        weight_permille: 0,
    })
    .expect("generator accepts the spec");
    for (at, node, peer) in [(200, 13, 5), (60, 12, 3)] {
        let joined = [
            ServeEvent::Change(ChangeSpec::AddNode),
            ServeEvent::Change(ChangeSpec::SetLink { a: node, b: peer }),
            ServeEvent::Query { from: 0, to: node },
            ServeEvent::Change(ChangeSpec::SetEdge { from: node, to: 0 }),
            ServeEvent::Query { from: node, to: 7 },
        ];
        trace.events.splice(at..at, joined);
    }
    trace
}

/// A ring-10 shortest-path trace with `set_weight` churn: its removals and
/// weight changes restart the flush from the identity.
fn shortest_with_restarts() -> ChurnTrace {
    generate_trace(&TraceSpec {
        topology: TopologySpec::Ring { n: 10 },
        algebra: ServeAlgebra::Shortest,
        events: 200,
        seed: 11,
        query_permille: 150,
        weight_permille: 200,
    })
    .expect("generator accepts the spec")
}

/// The replay's JSONL stream minus wall times and pool counters.
fn stripped_stream(trace: &ChurnTrace, batch: usize) -> String {
    let mut buf = Vec::new();
    let mut sink = TraceSink::new(&mut buf);
    let opts = ServeOptions {
        threads: 1,
        batch_max: batch,
        ..ServeOptions::default()
    };
    let report = replay_trace_opts(trace, &opts, &mut sink).expect("replay");
    sink.finish().expect("in-memory trace");
    assert!(report.failure.is_none(), "{:?}", report.failure);
    let text = String::from_utf8(buf).expect("utf-8 trace");
    let mut out = String::new();
    for line in text.lines() {
        if line.contains("\"ev\":\"pool_") {
            continue;
        }
        match line.find(",\"wall_ns\":") {
            Some(at) => {
                out.push_str(&line[..at]);
                out.push('}');
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

fn check(name: &str, trace: &ChurnTrace, batch: usize, pinned: (usize, &str)) {
    let stream = stripped_stream(trace, batch);
    let mut digest = Digest::default();
    digest.update(&stream);
    let got = (stream.lines().count(), digest.finish());
    assert!(
        got.0 == pinned.0 && got.1 == pinned.1,
        "{name}: the serve telemetry stream moved: got {got:?}, pinned {pinned:?}; the stream:\n{stream}"
    );
}

#[test]
fn the_hopcount_stream_with_node_growth_is_pinned() {
    let trace = hopcount_with_growth();
    let adds = trace
        .events
        .iter()
        .filter(|e| matches!(e, ServeEvent::Change(ChangeSpec::AddNode)))
        .count();
    assert_eq!(adds, 2);
    check("hopcount", &trace, 8, HOPCOUNT_WITH_GROWTH);
}

#[test]
fn the_shortest_stream_with_weights_and_restarts_is_pinned() {
    let trace = shortest_with_restarts();
    assert!(trace
        .events
        .iter()
        .any(|e| matches!(e, ServeEvent::Change(ChangeSpec::SetWeight { .. }))));
    check("shortest", &trace, 8, SHORTEST_WITH_RESTARTS);
}
