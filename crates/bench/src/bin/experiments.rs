//! The experiment driver: prints every table and figure of the paper (and
//! the behavioural claims of its theorems), then what the message-level
//! engines cost.
//!
//! Usage:
//!
//! ```text
//! cargo run -p dbf-bench --bin experiments             # run everything
//! cargo run -p dbf-bench --bin experiments -- table1   # run one experiment
//! ```
//!
//! The deterministic experiments are [`dbf_bench::EXPERIMENTS`], whose
//! output `crates/bench/expected/` pins; `engines` times itself and is
//! read, not compared.  An unknown name is an error (exit status 2) that
//! lists them.

use dbf_algebra::prelude::*;
use dbf_async::prelude::*;
use dbf_bench::{render, write_table, Experiment, EXPERIMENTS};
use dbf_bgp::prelude::*;
use dbf_matrix::prelude::*;
use dbf_protocols::prelude::*;
use dbf_scenario::run::policy_for_edge;
use dbf_telemetry::NoopSink;
use dbf_topology::generators;
use std::fmt;
use std::time::Instant;

/// Every experiment, in the order a bare `experiments` runs them.
fn experiments() -> impl Iterator<Item = (&'static str, Experiment)> {
    EXPERIMENTS
        .into_iter()
        .chain([("engines", engines as Experiment)])
}

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = which
        .iter()
        .find(|w| !experiments().any(|(name, _)| name == w.as_str()))
    {
        let names: Vec<_> = experiments().map(|(name, _)| name).collect();
        eprintln!(
            "unknown experiment {unknown:?}\nusage: experiments [NAME...]   NAME one of: {}",
            names.join(", ")
        );
        std::process::exit(2);
    }
    for (name, run) in experiments() {
        if which.is_empty() || which.iter().any(|w| w == name) {
            print!("{}", render(run));
        }
    }
}

/// δ's cost per time step on a 400-step random schedule: a fresh run up to
/// the step at which the state stops changing, then the steps left once
/// every row is down to one version.
fn delta_step_cost<A: RoutingAlgebra>(alg: &A, adj: &AdjacencyMatrix<A>) -> String {
    let n = adj.node_count();
    let x0 = RoutingState::identity(alg, n);
    let schedule = Schedule::random(n, 400, ScheduleParams::default(), 1);
    let quiet_from = run_delta(alg, adj, &x0, &schedule)
        .quiescent_from
        .expect("a 400-step horizon is enough");
    let settled = quiet_from + schedule.max_lag();
    let mut run = DeltaRun::new(alg, adj, &x0, &schedule);
    let mut ns_per_step = |until: usize| {
        let steps = until - run.time();
        let t0 = Instant::now();
        for _ in 0..steps {
            run.step(&mut NoopSink);
        }
        t0.elapsed().as_nanos() / steps.max(1) as u128
    };
    let active = ns_per_step(quiet_from);
    ns_per_step(settled); // histories drain: neither regime
    let quiet = ns_per_step(schedule.horizon());
    format!(
        "{active} ns per step over the {quiet_from} active steps, {quiet} ns over the {} quiet ones",
        schedule.horizon() - settled
    )
}

/// What a delivered message costs the two seeded message-level engines on
/// the `policy-rich-bgp` builtin's network — at n = 20, the size the repo
/// benchmark's `policy-diff` workload records, and at n = 40, which nothing
/// else runs — under the builtin's second-phase faults; and what a time
/// step costs δ before and after the state goes quiet.  One `Instant`
/// around one run each: numbers to read, not to gate on.
fn engines(out: &mut String) -> fmt::Result {
    let network = |n| {
        let alg = BgpAlgebra::new(n);
        let topo = generators::connected_random(n, 0.4, 5)
            .with_weights(|i, j| policy_for_edge(0xBEEF, i, j, 2));
        (alg, alg.adjacency_from_topology(&topo))
    };
    let mut rows = Vec::new();
    for n in [20usize, 40] {
        let (alg, adj) = network(n);
        let reference = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 4 * n);

        let cfg = SimConfig {
            loss_prob: 0.2,
            duplicate_prob: 0.2,
            seed: 1,
            refresh_rounds: 64,
            ..SimConfig::default()
        };
        let t0 = Instant::now();
        let out = EventSim::new(&alg, &adj, cfg).run();
        let ns = t0.elapsed().as_nanos() as u64;
        rows.push((
            format!("sim, n={n} (20 % loss and duplication)"),
            format!(
                "delivered={} sent={} {} ns per delivered message, on σ's fixed point = {}",
                out.stats.counters.delivered,
                out.stats.counters.sent,
                ns / out.stats.counters.delivered,
                reference.converged && out.final_state == reference.state
            ),
        ));

        let cfg = BgpConfig {
            max_delay: 5,
            session_resets: 2,
            max_time: 200_000,
            seed: 1,
            ..BgpConfig::default()
        };
        let t0 = Instant::now();
        let report = BgpEngine::from_parts(alg, adj, cfg).run();
        let ns = t0.elapsed().as_nanos() as u64;
        rows.push((
            format!("bgp, n={n} (2 session resets)"),
            format!(
                "delivered={} sent={} bytes={} {} ns per delivered message, on σ's fixed point = {}",
                report.stats.counters.delivered,
                report.stats.counters.sent,
                report.stats.counters.bytes.unwrap_or(0),
                ns / report.stats.counters.delivered,
                reference.converged && report.final_state == reference.state
            ),
        ));
    }
    let (alg, adj) = network(20);
    rows.push(("δ, the n=20 network".into(), delta_step_cost(&alg, &adj)));
    let ring = generators::ring(64).with_weights(|_, _| 1u64);
    rows.push((
        "δ, ring of 64, hop count".into(),
        delta_step_cost(
            &BoundedHopCount::new(64),
            &AdjacencyMatrix::from_topology(&ring),
        ),
    ));
    write_table(
        out,
        "Experiment engines: cost per delivered message (sim, bgp) and per time step (δ)",
        ("engine, workload", "one run"),
        &rows,
    )
}
