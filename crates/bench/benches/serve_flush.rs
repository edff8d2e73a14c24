//! Bench: what one route-server flush costs beside the σ kernel, and one
//! checkpoint encode.
//!
//! ROADMAP 1b's "flush wall vs. dirty rows" rung, kept as a regression
//! guard for the shape the write path had before PR 14: a copy of the
//! whole shape per buffered event, so a flush cost `batch × |E|`.  Now the
//! batch is folded into the shape in place and only the `rebuild`
//! contract and the row diff are `O(|E|)`, once per flush.  Two servers on
//! the n = 64 ring make the difference visible: the bare ring (|E| = 128)
//! and the churn trace's steady state (|E| ≈ 2 000).
//!
//! * `one_event` — a link flap: `set_link`, flush, `fail_link`, flush
//!   (two one-event flushes, each with real reconvergence work);
//! * `64_events` — one flush of 32 `set_link`s and the 32 `fail_link`s
//!   that undo them: the batch coalesces to no adjacency change, so the
//!   kernel does nothing and what is timed is the flush glue alone;
//! * `checkpoint_encode` — `snapshot()` + `to_text()` on the dense server
//!   (the file-system half of a checkpoint is not timed).

use criterion::{criterion_group, criterion_main, Criterion};
use dbf_algebra::prelude::*;
use dbf_matrix::AdjacencyMatrix;
use dbf_scenario::prelude::*;
use dbf_scenario::report::Digest;
use dbf_telemetry::NoopSink;
use dbf_topology::Topology;
use std::hint::black_box;
use std::time::Duration;

const N: usize = 64;
const LIMIT: u64 = 128;

type Rebuild = fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<BoundedHopCount>;

fn rebuild(shape: &Topology<()>, overrides: &WeightOverrides) -> AdjacencyMatrix<BoundedHopCount> {
    AdjacencyMatrix::from_topology(
        &shape.with_weights(|i, j| overrides.get(&(i, j)).copied().unwrap_or(1)),
    )
}

/// A converged server on the n = 64 ring, after `churn` events of the
/// generated churn trace (0: the bare ring; 12 500: its steady state).
fn server(churn: usize) -> RouteServer<BoundedHopCount, Rebuild> {
    let trace = generate_trace(&TraceSpec {
        topology: TopologySpec::Ring { n: N },
        algebra: ServeAlgebra::Hopcount { limit: LIMIT },
        events: churn,
        seed: 1,
        query_permille: 0,
        weight_permille: 0,
    })
    .expect("generator accepts the spec");
    let shape = dbf_scenario::run::build_shape(&trace.topology).expect("ring");
    let mut server = RouteServer::new(
        BoundedHopCount::new(LIMIT),
        shape,
        rebuild as Rebuild,
        1,
        usize::MAX,
        &mut NoopSink,
    )
    .expect("initial convergence");
    for ev in &trace.events {
        server.submit(ev, &mut NoopSink).expect("in-bounds event");
    }
    server.flush(&mut NoopSink).expect("flush");
    server
}

fn bench_flush(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_flush");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);

    for (label, churn) in [("ring_128_edges", 0), ("steady_2000_edges", 12_500)] {
        let mut s = server(churn);
        let flap = [
            ServeEvent::Change(ChangeSpec::SetLink { a: 0, b: N / 2 }),
            ServeEvent::Change(ChangeSpec::FailLink { a: 0, b: N / 2 }),
        ];
        group.bench_function(format!("one_event/{label}"), |b| {
            b.iter(|| {
                for ev in &flap {
                    s.submit(ev, &mut NoopSink).expect("in bounds");
                    s.flush(&mut NoopSink).expect("flush");
                }
                black_box(s.stats().batches)
            })
        });

        // 32 links set, then the same 32 failed: whatever the shape held,
        // the second half decides, so after the first flush every further
        // one is a no-op on the adjacency.
        let links = (0..32).map(|k| (k, (k + 7) % N));
        let cancelling: Vec<ServeEvent> = links
            .clone()
            .map(|(a, b)| ServeEvent::Change(ChangeSpec::SetLink { a, b }))
            .chain(links.map(|(a, b)| ServeEvent::Change(ChangeSpec::FailLink { a, b })))
            .collect();
        group.bench_function(format!("64_events/{label}"), |b| {
            b.iter(|| {
                for ev in &cancelling {
                    s.submit(ev, &mut NoopSink).expect("in bounds");
                }
                s.flush(&mut NoopSink).expect("flush");
                black_box(s.stats().batches)
            })
        });
        let settled = s.digest();
        for ev in &cancelling {
            s.submit(ev, &mut NoopSink).expect("in bounds");
        }
        s.flush(&mut NoopSink).expect("flush");
        assert_eq!(s.digest(), settled, "a cancelling batch moved the table");
    }
    group.finish();
}

fn bench_checkpoint_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint_encode");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);

    let s = server(12_500);
    let answers = Digest::default();
    group.bench_function("snapshot_to_text", |b| {
        b.iter(|| black_box(s.snapshot(0, "hopcount 128", &answers).to_text()).len())
    });
    let text = s.snapshot(0, "hopcount 128", &answers).to_text();
    assert_eq!(
        Snapshot::parse(&text).expect("own output parses").to_text(),
        text,
        "the snapshot codec does not round-trip"
    );
    group.finish();
}

criterion_group!(benches, bench_flush, bench_checkpoint_encode);
criterion_main!(benches);
