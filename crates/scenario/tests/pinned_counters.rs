//! Pinned per-phase counters of the seeded engines.
//!
//! `delta`, `sim`, `bgp` and `rip` draw from a seeded RNG in an order the
//! code fixes: which peers a node announces to and in what order, which
//! imports a decision folds over.  A refactor that reorders a draw or a
//! listener list still converges to the same fixed point, so agreement
//! tests pass while every count quietly shifts.  The first 28 lines of the
//! table were recorded at the commit before the engines moved to cached
//! export lists and sparse imports (PR 15), the rest at the commit before
//! the message-level engines moved to one adj-RIB-in of imported
//! candidates (PR 20); a difference is a behaviour change, not noise.

use dbf_scenario::prelude::*;
use dbf_scenario::run::build_shape;
use dbf_scenario::telemetry::TelemetrySink;

const PINNED: &str = include_str!("fixtures/pinned_counters.txt");

fn phase_lines(name: &str, report: &ScenarioReport, out: &mut String) {
    for run in &report.runs {
        for (k, p) in run.phases.iter().enumerate() {
            out.push_str(&format!(
                "{name} {} phase={k} rounds={} work={} messages={:?} bytes={:?} digest={}\n",
                run.engine, p.rounds, p.work, p.messages, p.bytes, p.digest
            ));
        }
    }
}

/// `policy-rich-bgp` resized as the repo benchmark's `policy-diff` workload
/// runs it: `connected_random(20, 0.4, 5)`, node 0's first link failing,
/// schedule seeds 1 and 1001.
fn policy_rich_at_20() -> Scenario {
    let mut spec = builtins::policy_rich_bgp();
    spec.name = "policy-rich-bgp@20".into();
    spec.topology = TopologySpec::ConnectedRandom {
        n: 20,
        p: 0.4,
        seed: 5,
    };
    let shape = build_shape(&spec.topology).expect("the topology is valid");
    let b = shape.out_neighbors(0)[0];
    spec.phases[1].changes = vec![ChangeSpec::FailLink { a: 0, b }];
    spec.seeds = vec![1, 1001];
    spec
}

/// Collects every `node_settled` event as one line per run and phase: for
/// `sim` these are `MessageRun::node_last_change`, in simulated time.
#[derive(Default)]
struct SettleLines {
    name: String,
    run: String,
    phase: usize,
    times: Vec<u64>,
    out: String,
}

impl TelemetrySink for SettleLines {
    fn run_start(&mut self, run: &str, _engine: &str) {
        self.run = run.to_string();
        self.phase = 0;
    }
    fn node_settled(&mut self, _node: usize, round: u64) {
        self.times.push(round);
    }
    fn phase_end(&mut self, _label: &str) {
        self.out.push_str(&format!(
            "{} {} phase={} settle={:?}\n",
            self.name, self.run, self.phase, self.times
        ));
        self.times.clear();
        self.phase += 1;
    }
}

#[test]
fn seeded_engine_counters_match_the_recorded_table() {
    let mut actual = String::new();
    for builtin in [
        builtins::policy_rich_bgp,
        builtins::count_to_infinity,
        builtins::bgp_wedgie,
    ] {
        for kind in [
            EngineKind::Delta,
            EngineKind::Sim,
            EngineKind::Bgp,
            EngineKind::Rip,
        ] {
            let mut spec = builtin();
            let name = spec.name.clone();
            spec.engines = vec![kind];
            spec.seeds = vec![1, 2];
            if (descriptor(kind).supports)(&spec).is_err() {
                continue;
            }
            let report = run_scenario(&spec).expect("a builtin runs");
            phase_lines(&name, &report, &mut actual);
        }
    }

    // The message-level engines at the benchmark's size, and `sim` on the
    // other path algebras (`bgp-wedgie` under two more adversarial seeds).
    let mut wedgie = builtins::bgp_wedgie();
    wedgie.seeds = vec![3, 4];
    let mut mesh = builtins::gao_rexford_mesh();
    mesh.seeds = vec![1, 2];
    for (base, kinds) in [
        (policy_rich_at_20(), &[EngineKind::Sim, EngineKind::Bgp][..]),
        (mesh.clone(), &[EngineKind::Sim][..]),
        (wedgie, &[EngineKind::Sim][..]),
    ] {
        for &kind in kinds {
            let mut spec = base.clone();
            spec.engines = vec![kind];
            (descriptor(kind).supports)(&spec).expect("the registry lists the engine");
            let report = run_scenario(&spec).expect("the spec runs");
            phase_lines(&spec.name, &report, &mut actual);
        }
    }

    // `EventSim`'s per-node settle times.
    mesh.engines = vec![EngineKind::Sim];
    let mut settle = SettleLines {
        name: mesh.name.clone(),
        ..SettleLines::default()
    };
    run_scenario_traced(&mesh, &RunConfig::default(), &mut settle).expect("the spec runs");
    actual.push_str(&settle.out);

    assert!(
        actual == PINNED,
        "seeded engine counters moved; the run produced:\n{actual}"
    );
}
