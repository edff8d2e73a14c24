//! The differential stage: the builtin `policy-rich-bgp` scenario resized,
//! run on five engines, both phases, and judged by the differential
//! verdict — the paper's own subject (path-vector routes through
//! `dbf-bgp`/`dbf-paths`, δ and the event simulator of `dbf-async`, the
//! BGP wire engine of `dbf-protocols`).
//!
//! The topology and policies are fixed (`connected_random(n, 0.4,
//! TOPOLOGY_SEED)`, the builtin's policy seed); the seed picks the two
//! schedule seeds the stochastic engines run under.  Wall time differs by
//! ±15 % between topology seeds at one size, but only by a few percent
//! between schedule seeds.

use crate::metrics::Values;
use crate::spans::{SpanSink, Spans};
use crate::stage::{timed, Checks, MarkSink, Marks, Reduce, Rep, Series};
use dbf_scenario::run::build_shape;
use dbf_scenario::{
    builtins, run_scenario_traced, run_scenario_with, ChangeSpec, EngineKind, EngineRun, RunConfig,
    Scenario, ScenarioReport, TopologySpec,
};

/// The builtin scenario's own topology seed.
const TOPOLOGY_SEED: u64 = 5;

/// The engines compared.  `threaded` is left out: its wall is the OS
/// scheduler's, not the program's.
const ENGINES: [EngineKind; 5] = [
    EngineKind::Sync,
    EngineKind::Incremental,
    EngineKind::Delta,
    EngineKind::Sim,
    EngineKind::Bgp,
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffCfg {
    pub n: usize,
}

fn scenario(cfg: &DiffCfg, seed: u64, engines: &[EngineKind]) -> Scenario {
    let mut spec = builtins::policy_rich_bgp();
    spec.topology = TopologySpec::ConnectedRandom {
        n: cfg.n,
        p: 0.4,
        seed: TOPOLOGY_SEED,
    };
    // The builtin fails link 0–1; on the resized graph fail node 0's
    // first link instead, so the second phase always changes something.
    let shape = build_shape(&spec.topology).expect("the topology is valid");
    let b = shape.out_neighbors(0)[0];
    spec.phases[1].changes = vec![ChangeSpec::FailLink { a: 0, b }];
    spec.phases[1].label = format!("link 0-{b} fails");
    spec.engines = engines.to_vec();
    spec.seeds = vec![seed, seed.wrapping_add(1000)];
    spec.validate()
        .expect("the resized builtin is a valid spec");
    spec
}

fn check(report: &ScenarioReport, checks: &mut Checks) {
    let unsettled = |r: &&EngineRun| r.error.is_some() || r.phases.iter().any(|p| !p.sigma_stable);
    checks.ops(
        report.runs.len() as u64,
        report.runs.iter().filter(unsettled).count() as u64,
        "engine runs σ-stable in every phase",
    );
    let v = &report.verdict;
    checks.check(
        v.converges && v.agreement,
        "every engine lands on the same fixed point",
    );
    checks.check(v.bounds_ok, "every phase within its predicted round bound");
}

fn counts(report: &ScenarioReport) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for run in &report.runs {
        let sum =
            |f: fn(&dbf_scenario::PhaseOutcome) -> u64| -> u64 { run.phases.iter().map(f).sum() };
        let key = |what: &str| format!("diff.{}.{what}", run.engine);
        out.push((key("rounds"), sum(|p| p.rounds).to_string()));
        out.push((key("work"), sum(|p| p.work).to_string()));
        out.push((
            key("messages"),
            sum(|p| p.messages.unwrap_or(0)).to_string(),
        ));
        let digest = run
            .phases
            .last()
            .map_or(String::new(), |p| p.digest.clone());
        out.push((key("digest"), digest));
    }
    out
}

/// One untraced repetition: build the spec, run it, judge it.  The run is
/// cut into segments at every engine-run, phase and round boundary the
/// library reports.
pub fn rep(cfg: &DiffCfg, seed: u64) -> Rep {
    let (spec, setup_s) = timed(|| scenario(cfg, seed, &ENGINES));
    let mut sink = MarkSink(Marks::start());
    let report = run_scenario_traced(&spec, &RunConfig::default(), &mut sink)
        .expect("a validated spec runs");
    let ns = sink.0.finish();
    let mut checks = Checks::default();
    check(&report, &mut checks);
    Rep {
        setup_s,
        series: vec![Series {
            reduce: Reduce::Seconds("diff_wall_s"),
            ns,
        }],
        checks,
        counts: counts(&report),
    }
}

/// The traced pass.  Returns the untraced and traced wall of the whole
/// differential run.
pub fn traced(
    cfg: &DiffCfg,
    seed: u64,
    spans: &mut Spans,
    checks: &mut Checks,
    v: &mut Values,
) -> (f64, f64) {
    let run_cfg = RunConfig::default();
    let all = scenario(cfg, seed, &ENGINES);
    let (plain, untraced_s) =
        timed(|| run_scenario_with(&all, &run_cfg).expect("a validated spec runs"));
    check(&plain, checks);
    let (report, traced_s) = spans.time("diff", |spans| {
        let mut sink = SpanSink::new(spans);
        let report = run_scenario_traced(&all, &run_cfg, &mut sink).expect("a validated spec runs");
        sink.finish();
        report
    });
    checks.check(
        counts(&report) == counts(&plain),
        "the traced run's counters and digests equal the untraced run's",
    );

    // One engine at a time, timed from outside.
    let mut engines_s = 0.0;
    for kind in ENGINES {
        let spec = scenario(cfg, seed, &[kind]);
        let (r, s) = spans.time(&format!("only:{}", kind.name()), |_| {
            run_scenario_with(&spec, &run_cfg).expect("a validated spec runs")
        });
        engines_s += s;
        let sum = |f: fn(&dbf_scenario::PhaseOutcome) -> u64| -> f64 {
            r.runs
                .iter()
                .flat_map(|run| &run.phases)
                .map(f)
                .sum::<u64>() as f64
        };
        match kind {
            EngineKind::Sync => {
                v.insert("scenario.run.sync_busy_s", s);
            }
            EngineKind::Delta => {
                v.insert("async.delta.busy_s", s);
                v.insert("async.delta.work", sum(|p| p.work));
            }
            EngineKind::Sim => {
                v.insert("async.sim.busy_s", s);
                v.insert("async.sim.messages", sum(|p| p.messages.unwrap_or(0)));
            }
            EngineKind::Bgp => {
                v.insert("protocols.bgp.busy_s", s);
                v.insert("protocols.bgp.messages", sum(|p| p.messages.unwrap_or(0)));
                v.insert("protocols.bgp.bytes", sum(|p| p.bytes.unwrap_or(0)));
            }
            _ => {}
        }
    }
    v.insert("scenario.run.verdict_residual_s", untraced_s - engines_s);
    (untraced_s, traced_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_differential_run_passes_and_repeats() {
        let cfg = DiffCfg { n: 6 };
        let (a, b) = (rep(&cfg, 1), rep(&cfg, 1));
        assert_eq!(a.checks.failed, 0);
        assert_eq!(
            a.checks.attempted,
            8 + 2,
            "2 σ runs + 3 engines × 2 seeds, 2 verdicts"
        );
        assert_eq!(a.counts, b.counts);
        assert_ne!(
            a.counts,
            rep(&cfg, 2).counts,
            "the seed picks the schedules"
        );
    }

    #[test]
    fn a_disagreeing_report_counts_failed_operations() {
        let cfg = DiffCfg { n: 6 };
        let spec = scenario(&cfg, 1, &ENGINES);
        let mut report = run_scenario_with(&spec, &RunConfig::default()).unwrap();
        report.verdict.agreement = false;
        report.runs[0].phases[0].sigma_stable = false;
        let mut checks = Checks::default();
        check(&report, &mut checks);
        assert_eq!(checks.failed, 2);
    }
}
