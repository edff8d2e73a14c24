//! Bench: the persistent worker pool vs. spawning fresh scoped threads
//! for every parallel epoch.
//!
//! The route server's workload is *many short epochs*: each churn batch
//! is an incremental reconvergence of a few rounds, each round one
//! scoped hand-out of a handful of band jobs.  Before the pool, every
//! round paid a `thread::scope` spawn+join; with parked workers the
//! per-epoch cost is a mutex push and a condvar wake.  The two
//! micro-benchmarks isolate that difference, and the `churn_reconverge`
//! group measures it end-to-end on the serve-shaped workload (repeated
//! single-link flaps on a ring, dirty-row σ reconvergence each time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbf_algebra::prelude::*;
use dbf_matrix::prelude::*;
use dbf_telemetry::NoopSink;
use dbf_topology::generators;
use std::hint::black_box;
use std::time::Duration;

const EPOCHS: usize = 64;
const JOBS_PER_EPOCH: usize = 4;

fn bench_epoch_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool_reuse");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);

    group.bench_function("persistent_pool", |b| {
        let pool = WorkerPool::shared();
        b.iter(|| {
            for _ in 0..EPOCHS {
                pool.scoped(|scope| {
                    for j in 0..JOBS_PER_EPOCH {
                        scope.execute(move || {
                            black_box(j * j);
                        });
                    }
                })
                .expect("no job panics");
            }
        })
    });

    group.bench_function("spawn_per_epoch", |b| {
        b.iter(|| {
            for _ in 0..EPOCHS {
                std::thread::scope(|scope| {
                    for j in 0..JOBS_PER_EPOCH {
                        scope.spawn(move || {
                            black_box(j * j);
                        });
                    }
                });
            }
        })
    });
    group.finish();
}

fn bench_churn_reconverge(c: &mut Criterion) {
    let mut group = c.benchmark_group("churn_reconverge");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);

    let n = 256usize;
    let alg = BoundedHopCount::new(n as u64);
    let up = AdjacencyMatrix::from_topology(&generators::ring(n).with_weights(|_, _| 1u64));
    let down = AdjacencyMatrix::from_topology(&generators::line(n).with_weights(|_, _| 1u64));
    let clean = RoutingState::identity(&alg, n);
    let converged = par_iterate_to_fixed_point(&alg, &up, &clean, 4 * n, 4);
    assert!(converged.converged);

    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("link_flap", threads), &threads, |b, &t| {
            b.iter(|| {
                // One flap = fail the ring-closing link, reconverge the
                // dirty rows, restore it, reconverge again — the route
                // server's per-batch inner loop.
                let mut state = converged.state.clone();
                for (old, new) in [(&up, &down), (&down, &up)] {
                    let dirty = dirty_rows_after_change(old, new);
                    let out = iterate_dirty_with(
                        &alg,
                        new,
                        &state,
                        &dirty,
                        4 * n,
                        &Pooled::shared(t),
                        &mut NoopSink,
                    );
                    assert!(out.converged);
                    state = out.state;
                }
                black_box(state.node_count())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_epoch_cost, bench_churn_reconverge);
criterion_main!(benches);
