//! Bench: what one delivered message costs the two seeded message-level
//! engines, the event simulator (`sim`) and the BGP wire engine (`bgp`).
//!
//! Both keep an adj-RIB-in of *imported* candidates (`dbf_matrix::RibIn`),
//! so a delivery is one `extend` and a by-reference fold over `deg` cached
//! candidates — the cost should follow the messages, not messages ×
//! degree.  The workload is the `policy-rich-bgp` builtin's network
//! (`connected_random(n, 0.4, 5)`, depth-2 Section 7 policies from policy
//! seed `0xBEEF`) at the benchmark's n = 20 and at n = 40, where the
//! degree doubles, under the builtin's second-phase faults: 20 % loss and
//! duplication for `sim`, two session resets for `bgp`.  Each run is
//! checked against σ's fixed point; the `delivered`/`sent` line gives the
//! divisor for the whole-run times criterion prints.

use criterion::{criterion_group, criterion_main, Criterion};
use dbf_async::prelude::*;
use dbf_bgp::prelude::*;
use dbf_matrix::prelude::*;
use dbf_protocols::prelude::*;
use dbf_scenario::run::policy_for_edge;
use dbf_topology::generators;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("message_engines");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);

    for n in [20usize, 40] {
        let alg = BgpAlgebra::new(n);
        let topo = generators::connected_random(n, 0.4, 5)
            .with_weights(|i, j| policy_for_edge(0xBEEF, i, j, 2));
        let adj = alg.adjacency_from_topology(&topo);
        let x0 = RoutingState::identity(&alg, n);
        let reference = iterate_to_fixed_point(&alg, &adj, &x0, 4 * n);
        assert!(reference.converged);

        let sim = || {
            let cfg = SimConfig {
                loss_prob: 0.2,
                duplicate_prob: 0.2,
                seed: 1,
                refresh_rounds: 64,
                ..SimConfig::default()
            };
            EventSim::new(&alg, &adj, cfg).run()
        };
        let bgp = || {
            let cfg = BgpConfig {
                max_delay: 5,
                session_resets: 2,
                max_time: 200_000,
                seed: 1,
                ..BgpConfig::default()
            };
            BgpEngine::from_parts(alg, adj.clone(), cfg).run()
        };

        let t0 = Instant::now();
        let out = sim();
        let sim_ns = t0.elapsed().as_nanos() as u64;
        assert!(out.sigma_stable && !out.truncated);
        assert!(
            out.final_state == reference.state,
            "sim missed σ's fixed point at n = {n}"
        );
        println!(
            "message_engines/sim_{n}: delivered={} sent={} ({} ns per delivered message)",
            out.stats.delivered,
            out.stats.sent,
            sim_ns / out.stats.delivered
        );

        let t0 = Instant::now();
        let report = bgp();
        let bgp_ns = t0.elapsed().as_nanos() as u64;
        assert!(report.converged, "bgp missed σ's fixed point at n = {n}");
        assert!(report.final_state == reference.state);
        println!(
            "message_engines/bgp_{n}: delivered={} sent={} bytes={} ({} ns per delivered message)",
            report.stats.updates_processed,
            report.stats.messages_sent(),
            report.stats.bytes_sent,
            bgp_ns / report.stats.updates_processed
        );

        group.bench_function(format!("sim_{n}"), |b| {
            b.iter(|| black_box(sim().stats.delivered))
        });
        group.bench_function(format!("bgp_{n}"), |b| {
            b.iter(|| black_box(bgp().stats.updates_processed))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
