//! Bench: what one time step of the asynchronous iterate `δ` costs, while
//! rows are still changing and after the state has gone quiet.
//!
//! `δ` re-evaluates an activated row only when one of its imports is a
//! different version from the one it last read, so a step costs
//! `Σ_{i ∈ α(t), inputs changed} deg(i)·n` — and next to nothing once
//! nothing changes, which is most of a 400-step horizon.  Two workloads:
//! the `policy-diff` shape (dense random graph, n = 20, Section 7 routes —
//! heap-backed, expensive to extend and to copy) and a sparse integer one
//! (ring, n = 64, hop count).  `active_Q_steps` is a fresh run up to the
//! step `Q` at which the state stops changing; `quiet_32_steps` is 32
//! further steps of a run already past it.

use criterion::{criterion_group, criterion_main, Criterion};
use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::prelude::*;
use dbf_async::prelude::*;
use dbf_bgp::algebra::random_policy;
use dbf_bgp::prelude::*;
use dbf_matrix::prelude::*;
use dbf_telemetry::NoopSink;
use dbf_topology::generators;
use std::hint::black_box;
use std::time::Duration;

const SAMPLES: usize = 10;
const QUIET_STEPS: usize = 32;

fn bench_case<A: RoutingAlgebra>(
    c: &mut Criterion,
    label: &str,
    alg: &A,
    adj: &AdjacencyMatrix<A>,
) {
    let mut group = c.benchmark_group(format!("delta_eval/{label}"));
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(SAMPLES);

    let n = adj.node_count();
    let x0 = RoutingState::identity(alg, n);
    // `Schedule::random` draws step by step, so a shorter horizon with the
    // same seed is a prefix of a longer one.
    let schedule = |horizon| Schedule::random(n, horizon, ScheduleParams::default(), 1);

    let probe = schedule(400);
    let whole = run_delta(alg, adj, &x0, &probe);
    let reference = iterate_to_fixed_point(alg, adj, &x0, 4 * n);
    assert!(reference.converged && whole.sigma_stable);
    assert!(
        whole.final_state == reference.state,
        "{label}: δ missed σ's fixed point"
    );
    let quiet_from = whole.quiescent_from.expect("a 400-step horizon is enough");
    assert!(
        whole.recomputations * 4 < whole.activations,
        "{label}: {} of {} activations were evaluated; the run is mostly quiet",
        whole.recomputations,
        whole.activations
    );

    let active = schedule(quiet_from);
    group.bench_function(format!("active_{quiet_from}_steps"), |b| {
        b.iter(|| {
            let mut run = DeltaRun::new(alg, adj, &x0, &active);
            for _ in 0..quiet_from {
                run.step(&mut NoopSink);
            }
            black_box(run.time())
        })
    });

    // Far enough past quiescence that every row is down to one version,
    // with room for the warm-up call and every sample.
    let settled = quiet_from + probe.max_lag();
    let long = schedule(settled + (SAMPLES + 1) * QUIET_STEPS);
    let mut run = DeltaRun::new(alg, adj, &x0, &long);
    for _ in 0..settled {
        run.step(&mut NoopSink);
    }
    assert!((0..n).all(|i| run.retained_versions(i) == 1));
    group.bench_function(format!("quiet_{QUIET_STEPS}_steps"), |b| {
        b.iter(|| {
            for _ in 0..QUIET_STEPS {
                run.step(&mut NoopSink);
            }
            black_box(run.time())
        })
    });
    group.finish();
}

fn bench(c: &mut Criterion) {
    let n = 20;
    let bgp = BgpAlgebra::new(n);
    let mut rng = SplitMix64::new(0xC0FFEE);
    let topo =
        generators::connected_random(n, 0.4, 5).with_weights(|_, _| random_policy(&mut rng, 2));
    bench_case(
        c,
        "dense_random_20_bgp",
        &bgp,
        &bgp.adjacency_from_topology(&topo),
    );

    let hops = BoundedHopCount::new(64);
    let ring = generators::ring(64).with_weights(|_, _| 1u64);
    bench_case(
        c,
        "ring_64_hopcount",
        &hops,
        &AdjacencyMatrix::from_topology(&ring),
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
