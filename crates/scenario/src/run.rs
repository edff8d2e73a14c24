//! Scenario execution: build the per-phase routing problems from a spec,
//! run them on every requested engine, and compute the differential
//! verdict.
//!
//! The differential checker is the executable form of the paper's
//! absolute-convergence theorems: for strictly-increasing algebras every
//! engine — synchronous σ-iteration, the schedule-driven asynchronous
//! iterate δ, the fault-injecting event simulator and the RIP/BGP
//! protocol engines — must end every phase in the *same*
//! σ-stable state (Theorems 7/11); for the non-increasing SPP gadgets it
//! exhibits exactly the wedgies and oscillation the theorems rule out.

use crate::engine::{descriptor, engine_label, engine_seeds, run_engine, Problem, ScenarioAlgebra};
use crate::report::{Agreement, EngineRun, PhaseOutcome, ScenarioReport};
use crate::spec::{
    AlgebraSpec, ChangeSpec, EngineKind, FaultSpec, Scenario, SpecError, TopologySpec, WeightRule,
};
use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::prelude::*;
use dbf_bgp::algebra::{random_policy, BgpAlgebra};
use dbf_bgp::gao_rexford::GaoRexford;
use dbf_bgp::policy::Policy;
use dbf_bgp::spp::SppAlgebra;
use dbf_matrix::AdjacencyMatrix;
use dbf_telemetry::{NoopSink, TelemetrySink};
use dbf_topology::generators;
use dbf_topology::Topology;

/// Run-time knobs that are *not* part of the scenario spec: they may change
/// how fast a report is produced, never what it contains (wall-clock timing
/// aside), so they live outside the TOML codec and the digest streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Worker threads available to engines whose registry descriptor is
    /// [parallelizable](crate::engine::EngineInfo::parallelizable) — the
    /// sync and incremental σ engines shard their row sweeps across this
    /// many OS threads *within a single run*.  `0`/`1` means sequential.
    /// Results are bit-identical for every value.
    pub threads: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self { threads: 1 }
    }
}

/// Execute a scenario on its requested engines and return the report
/// (single-threaded engines; see [`run_scenario_with`] for the `threads`
/// knob).
pub fn run_scenario(spec: &Scenario) -> Result<ScenarioReport, SpecError> {
    run_scenario_with(spec, &RunConfig::default())
}

/// Execute a scenario on its requested engines under the given run-time
/// configuration and return the report.
pub fn run_scenario_with(spec: &Scenario, cfg: &RunConfig) -> Result<ScenarioReport, SpecError> {
    run_scenario_traced(spec, cfg, &mut NoopSink)
}

/// Execute a scenario with a telemetry sink observing every engine run.
///
/// The sink receives the full event stream — run/phase markers, σ rounds,
/// per-node settle times, message counters, parallel band sweeps — from
/// every engine the spec requests, in deterministic order.  Passing
/// [`NoopSink`] makes this identical to [`run_scenario_with`]: the kernels
/// skip all telemetry-only work when the sink is disabled.
pub fn run_scenario_traced(
    spec: &Scenario,
    cfg: &RunConfig,
    tel: &mut dyn TelemetrySink,
) -> Result<ScenarioReport, SpecError> {
    spec.validate()?;
    match &spec.algebra {
        AlgebraSpec::Shortest { weights } => {
            let alg = ShortestPaths::new();
            let mut problems = weighted_problems(spec, *weights, NatInf::fin);
            Ok(execute(&alg, &mut problems, spec, cfg, tel))
        }
        AlgebraSpec::Widest { weights } => {
            let alg = WidestPaths::new();
            let mut problems = weighted_problems(spec, *weights, NatInf::fin);
            Ok(execute(&alg, &mut problems, spec, cfg, tel))
        }
        AlgebraSpec::Hopcount { limit } => {
            let alg = BoundedHopCount::new(*limit);
            let mut problems = weighted_problems(spec, WeightRule::uniform(1), |w| w);
            Ok(execute(&alg, &mut problems, spec, cfg, tel))
        }
        AlgebraSpec::Bgp {
            policy_depth,
            policy_seed,
        } => {
            let shapes = shape_phases(spec);
            let n_max = shapes
                .iter()
                .map(|(_, t, _)| t.node_count())
                .max()
                .unwrap_or(0);
            let alg = BgpAlgebra::new(n_max);
            let mut problems: Vec<Problem<BgpAlgebra>> = shapes
                .into_iter()
                .map(|(label, shape, faults)| {
                    let topo: Topology<Policy> = shape
                        .with_weights(|i, j| policy_for_edge(*policy_seed, i, j, *policy_depth));
                    Problem {
                        label,
                        adj: alg.adjacency_from_topology(&topo),
                        faults,
                        round_budget: None,
                    }
                })
                .collect();
            Ok(execute(&alg, &mut problems, spec, cfg, tel))
        }
        AlgebraSpec::GaoRexford => {
            let mut problems = gao_rexford_problems(spec);
            let n = problems.first().map(|p| p.adj.node_count()).unwrap_or(0);
            let alg = GaoRexford::new(n);
            Ok(execute(&alg, &mut problems, spec, cfg, tel))
        }
        AlgebraSpec::Spp { gadget } => {
            let alg = gadget.algebra();
            let adj = alg.adjacency();
            let mut problems: Vec<Problem<SppAlgebra>> = spec
                .phases
                .iter()
                .map(|p| Problem {
                    label: p.label.clone(),
                    adj: adj.clone(),
                    faults: p.faults,
                    round_budget: None,
                })
                .collect();
            Ok(execute(&alg, &mut problems, spec, cfg, tel))
        }
    }
}

/// Derive the per-edge import policy of a BGP scenario.  Each directed
/// edge gets its own deterministic stream so that topology changes do not
/// reshuffle the policies of unrelated edges.
pub fn policy_for_edge(seed: u64, i: usize, j: usize, depth: usize) -> Policy {
    if depth == 0 {
        return Policy::identity();
    }
    let mix = seed
        ^ ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        ^ ((j as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
    let mut rng = SplitMix64::new(mix);
    random_policy(&mut rng, depth)
}

/// Build the initial `Topology<()>` shape of a spec, once the family's
/// size rule (the one [`Scenario::validate`] asks) admits it.
pub fn build_shape(spec: &TopologySpec) -> Result<Topology<()>, SpecError> {
    spec.check_shape()?;
    Ok(match spec {
        TopologySpec::Line { n } => generators::line(*n),
        TopologySpec::Ring { n } => generators::ring(*n),
        TopologySpec::Star { n } => generators::star(*n),
        TopologySpec::Complete { n } => generators::complete(*n),
        TopologySpec::Grid { rows, cols } => generators::grid(*rows, *cols),
        TopologySpec::ConnectedRandom { n, p, seed } => generators::connected_random(*n, *p, *seed),
        TopologySpec::AsGraph { n, m, seed } => generators::as_graph(*n, *m, *seed),
        TopologySpec::LeafSpine { spines, leaves } => generators::leaf_spine(*spines, *leaves),
        TopologySpec::Explicit { nodes, links } => {
            let mut t = Topology::new(*nodes);
            for &(a, b) in links {
                t.set_link(a, b, ());
            }
            t
        }
        // A hierarchy carries edge relationships and a gadget its algebra's.
        TopologySpec::Tiered { .. } | TopologySpec::Gadget => {
            return Err(SpecError::new(format!("{spec:?} has no weightless shape")))
        }
    })
}

/// Apply a spec-level change to a weightless shape, in place.  (Shared
/// with the route server, which folds the same change vocabulary into its
/// shape one batch at a time.)
pub(crate) fn apply_change(c: &ChangeSpec, shape: &mut Topology<()>) {
    match *c {
        ChangeSpec::SetLink { a, b } => shape.set_link(a, b, ()),
        // The weight itself lives outside the weightless shape: the route
        // server records it in its weight-override map and the rebuilt
        // adjacency picks it up.  Here it only ensures the edge exists.
        ChangeSpec::SetEdge { from, to } | ChangeSpec::SetWeight { from, to, .. } => {
            shape.set_edge(from, to, ())
        }
        ChangeSpec::RemoveEdge { from, to } => {
            shape.remove_edge(from, to);
        }
        ChangeSpec::FailLink { a, b } => shape.remove_link(a, b),
        ChangeSpec::AddNode => {
            shape.add_node();
        }
    }
}

/// The sequence of shapes a validated spec's phases run on: each phase
/// applies its changes in place to the previous shape (one copy per phase,
/// for the stored shape).
fn shape_phases(spec: &Scenario) -> Vec<(String, Topology<()>, FaultSpec)> {
    let mut shape = build_shape(&spec.topology).expect("validate admits the shape");
    let mut out = Vec::with_capacity(spec.phases.len());
    for phase in &spec.phases {
        // Apply change-by-change so that a SetLink may reference a node an
        // earlier AddNode in the same phase introduced.
        for c in &phase.changes {
            apply_change(c, &mut shape);
        }
        out.push((phase.label.clone(), shape.clone(), phase.faults));
    }
    out
}

fn weighted_problems<A, F>(spec: &Scenario, rule: WeightRule, to_edge: F) -> Vec<Problem<A>>
where
    A: RoutingAlgebra,
    F: Fn(u64) -> A::Edge,
{
    shape_phases(spec)
        .into_iter()
        .map(|(label, shape, faults)| {
            let topo = shape.with_weights(|i, j| to_edge(rule.weight(i, j)));
            Problem {
                label,
                adj: AdjacencyMatrix::from_topology(&topo),
                faults,
                round_budget: None,
            }
        })
        .collect()
}

/// The phases of a validated Gao-Rexford spec: a tiered hierarchy that
/// only loses edges.
fn gao_rexford_problems(spec: &Scenario) -> Vec<Problem<GaoRexford>> {
    let TopologySpec::Tiered {
        tiers,
        p_peer,
        p_extra,
        seed,
    } = &spec.topology
    else {
        unreachable!("validate pairs gao_rexford with a tiered topology");
    };
    let (mut topo, _tier_of) = generators::tiered_hierarchy(tiers, *p_peer, *p_extra, *seed);
    let alg = GaoRexford::new(topo.node_count());
    let mut out = Vec::with_capacity(spec.phases.len());
    for phase in &spec.phases {
        for c in &phase.changes {
            match *c {
                ChangeSpec::RemoveEdge { from, to } => {
                    topo.remove_edge(from, to);
                }
                ChangeSpec::FailLink { a, b } => topo.remove_link(a, b),
                _ => unreachable!("validate admits only removals on gao_rexford"),
            }
        }
        out.push(Problem {
            label: phase.label.clone(),
            adj: alg.adjacency_from_hierarchy(&topo),
            faults: phase.faults,
            round_budget: None,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Engine execution
// ---------------------------------------------------------------------

/// Run every requested engine over the phase problems and compute the
/// differential verdict.  Pure registry dispatch: the engine list is data,
/// and every engine — including the protocol adapters and any future
/// addition — arrives here through [`crate::engine::run_engine`].  The
/// thread budget reaches exactly the engines whose descriptor opts into
/// intra-run parallelism; everything else stays sequential by construction.
///
/// Before anything runs, the bound oracle ([`crate::bound::bound_table`])
/// evaluates the convergence-rate theorems on the spec: the synchronous
/// `n·h` bound becomes each problem's σ iterate budget, and every run of a
/// `bounded_rounds` engine gets its phases annotated with the predicted
/// bound so the verdict can assert `rounds ≤ bound` alongside the
/// cross-engine digest comparison.
fn execute<A: ScenarioAlgebra>(
    alg: &A,
    problems: &mut [Problem<A>],
    spec: &Scenario,
    cfg: &RunConfig,
    tel: &mut dyn TelemetrySink,
) -> ScenarioReport {
    let bounds = crate::bound::bound_table(spec);
    for (p, pb) in problems.iter_mut().zip(&bounds) {
        p.round_budget = pb.sync_bound;
    }
    let mut runs = Vec::new();
    for &kind in &spec.engines {
        let threads = if descriptor(kind).parallelizable {
            cfg.threads.max(1)
        } else {
            1
        };
        for &seed in engine_seeds(kind, spec) {
            let mut run = guarded(kind, seed, &*problems, || {
                run_engine(kind, alg, &*problems, seed, threads, &mut *tel)
            });
            for (phase, pb) in run.phases.iter_mut().zip(&bounds) {
                phase.predicted_bound = crate::bound::bound_for_engine(kind, pb);
            }
            runs.push(run);
        }
    }
    let verdict = differential_verdict(&runs, problems.len());
    ScenarioReport {
        scenario: spec.name.clone(),
        description: spec.description.clone(),
        phase_labels: problems.iter().map(|p| p.label.clone()).collect(),
        runs,
        verdict,
        expected_converges: spec.expect.converges,
        expected_agreement: spec.expect.agreement,
    }
}

/// Run one engine invocation with a panic firewall.  A panic out of
/// `run_engine` — typically a σ sweep worker's, re-raised with its original
/// payload by the persistent [`dbf_matrix::pool::WorkerPool`] — becomes an
/// errored [`EngineRun`] instead of aborting the process, so `scenarios
/// run` can still print the report, pinpoint the failing engine, and hand
/// the user a reproduction command.
fn guarded<A: ScenarioAlgebra>(
    kind: EngineKind,
    seed: u64,
    problems: &[Problem<A>],
    f: impl FnOnce() -> EngineRun,
) -> EngineRun {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(run) => run,
        Err(payload) => panicked_run(
            engine_label(kind, seed),
            problems,
            panic_message(payload.as_ref())
                .unwrap_or("<non-string panic payload>")
                .to_string(),
        ),
    }
}

/// Synthesize the report entry for a panicked engine: one never-σ-stable
/// placeholder outcome per phase (the verdict indexes `phases[k]` across
/// runs, so the vector must be full length), carrying the panic message.
fn panicked_run<A: ScenarioAlgebra>(
    engine: String,
    problems: &[Problem<A>],
    message: String,
) -> EngineRun {
    let phases = problems
        .iter()
        .map(|p| PhaseOutcome {
            label: p.label.clone(),
            sigma_stable: false,
            rounds: 0,
            predicted_bound: None,
            work: 0,
            messages: None,
            bytes: None,
            wall_ms: 0.0,
            digest: "----------------".into(),
        })
        .collect();
    EngineRun {
        engine,
        phases,
        error: Some(message),
    }
}

/// A panic payload's message, when it carries a string (as `panic!` with
/// a message does).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}

/// The cross-engine oracle: per phase, every run must be σ-stable and all
/// runs must land on the same state digest — and every bound-annotated
/// phase must have converged within its predicted round bound.
fn differential_verdict(runs: &[EngineRun], phase_count: usize) -> Agreement {
    let per_phase: Vec<bool> = (0..phase_count)
        .map(|k| {
            let mut digests = runs.iter().map(|r| &r.phases[k].digest);
            let all_stable = runs.iter().all(|r| r.phases[k].sigma_stable);
            let first = digests.next();
            all_stable
                && match first {
                    None => true,
                    Some(d0) => digests.all(|d| d == d0),
                }
        })
        .collect();
    let last = phase_count.saturating_sub(1);
    let converges = runs
        .iter()
        .all(|r| r.phases.get(last).map(|p| p.sigma_stable).unwrap_or(false));
    let agreement = converges && per_phase.get(last).copied().unwrap_or(false);
    let bounds_ok = runs
        .iter()
        .all(|r| r.phases.iter().all(|p| p.within_bound()));
    Agreement {
        per_phase,
        converges,
        agreement,
        bounds_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EngineKind, Expectation, PhaseSpec};

    fn hopcount_ring() -> Scenario {
        Scenario {
            name: "t-hopcount-ring".into(),
            description: String::new(),
            topology: TopologySpec::Ring { n: 5 },
            algebra: AlgebraSpec::Hopcount { limit: 12 },
            engines: vec![EngineKind::Sync, EngineKind::Delta, EngineKind::Sim],
            seeds: vec![1, 2],
            phases: vec![
                PhaseSpec::quiet("baseline"),
                PhaseSpec {
                    label: "fail 0-4".into(),
                    changes: vec![ChangeSpec::FailLink { a: 0, b: 4 }],
                    faults: FaultSpec::adversarial(),
                },
            ],
            expect: Expectation::default(),
        }
    }

    #[test]
    fn cross_engine_agreement_on_a_strictly_increasing_algebra() {
        let report = run_scenario(&hopcount_ring()).unwrap();
        assert!(report.verdict.converges, "{}", report.summary());
        assert!(report.verdict.agreement, "{}", report.summary());
        assert!(report.expectation_met());
        // sync + 2×delta + 2×sim
        assert_eq!(report.runs.len(), 5);
        assert!(report.verdict.per_phase.iter().all(|&b| b));
    }

    #[test]
    fn the_thread_knob_never_changes_a_report() {
        // Parallelizable engines shard their row sweep; everything the
        // report contains except wall time must be a pure function of the
        // spec.  (tests/parallel.rs covers the JSON-level contract.)
        let mut spec = hopcount_ring();
        spec.engines.push(EngineKind::Incremental);
        let base = run_scenario(&spec).unwrap();
        for threads in [2, 8] {
            let par = run_scenario_with(&spec, &RunConfig { threads }).unwrap();
            assert_eq!(par.verdict, base.verdict, "threads={threads}");
            for (a, b) in base.runs.iter().zip(par.runs.iter()) {
                assert_eq!(a.engine, b.engine);
                for (p, q) in a.phases.iter().zip(b.phases.iter()) {
                    assert_eq!(p.digest, q.digest, "{} {}", a.engine, p.label);
                    assert_eq!(p.work, q.work, "{} {}", a.engine, p.label);
                    assert_eq!(p.sigma_stable, q.sigma_stable);
                }
            }
        }
    }

    #[test]
    fn link_failures_change_the_fixed_point() {
        let report = run_scenario(&hopcount_ring()).unwrap();
        let sync = &report.runs[0];
        assert_ne!(
            sync.phases[0].digest, sync.phases[1].digest,
            "failing a ring link must change the routing state"
        );
    }

    #[test]
    fn the_shape_pipeline_applies_changes_in_order() {
        let mut spec = hopcount_ring();
        spec.phases.push(PhaseSpec {
            label: "heal".into(),
            changes: vec![ChangeSpec::SetLink { a: 0, b: 4 }],
            faults: FaultSpec::default(),
        });
        let shapes = shape_phases(&spec);
        assert_eq!(shapes.len(), 3);
        assert!(shapes[0].1.has_edge(0, 4));
        assert!(!shapes[1].1.has_edge(0, 4));
        assert!(shapes[2].1.has_edge(0, 4));
        // healing restores the original fixed point
        let report = run_scenario(&spec).unwrap();
        let sync = &report.runs[0];
        assert_eq!(sync.phases[0].digest, sync.phases[2].digest);
    }

    #[test]
    fn out_of_range_changes_are_rejected() {
        let mut spec = hopcount_ring();
        spec.phases[1].changes = vec![ChangeSpec::FailLink { a: 0, b: 99 }];
        assert!(run_scenario(&spec).is_err());
    }

    #[test]
    fn redundant_changes_execute_as_no_ops() {
        // Removing absent edges and re-adding existing links — the exact
        // scripts the fuzz generator produces — must never panic, and a
        // script that is a semantic no-op must leave the fixed point
        // untouched.
        let mut spec = hopcount_ring();
        spec.phases[1].changes = vec![
            ChangeSpec::RemoveEdge { from: 0, to: 2 }, // absent in the ring
            ChangeSpec::RemoveEdge { from: 0, to: 2 }, // twice
            ChangeSpec::FailLink { a: 1, b: 3 },       // absent link
            ChangeSpec::SetLink { a: 0, b: 1 },        // already present
        ];
        let report = run_scenario(&spec).unwrap();
        assert!(report.verdict.agreement, "{}", report.summary());
        let sync = &report.runs[0];
        assert_eq!(
            sync.phases[0].digest, sync.phases[1].digest,
            "a no-op script must not move the fixed point"
        );
    }

    #[test]
    fn adversarial_stale_schedules_still_agree_on_increasing_algebras() {
        // Satellite of the fuzzing issue: the worst-case staleness schedule
        // is now a spec-level option, and Theorem 7 still applies — the
        // starved victim converges to the same fixed point as everyone
        // else.
        let mut spec = hopcount_ring();
        for phase in &mut spec.phases {
            phase.faults = FaultSpec {
                horizon: 300,
                ..FaultSpec::adversarial_stale(1, 4)
            };
        }
        let report = run_scenario(&spec).unwrap();
        assert!(report.verdict.converges, "{}", report.summary());
        assert!(report.verdict.agreement, "{}", report.summary());
        // sync + ONE delta (the adversarial schedule is deterministic, so
        // the two seeds would be byte-identical δ runs) + 2×sim.
        assert_eq!(report.runs.len(), 4, "{}", report.summary());
    }

    #[test]
    fn growing_networks_are_supported() {
        let mut spec = hopcount_ring();
        spec.topology = TopologySpec::Line { n: 4 };
        spec.phases = vec![
            PhaseSpec::quiet("line"),
            PhaseSpec {
                label: "node joins".into(),
                changes: vec![ChangeSpec::AddNode, ChangeSpec::SetLink { a: 3, b: 4 }],
                faults: FaultSpec::default(),
            },
        ];
        let report = run_scenario(&spec).unwrap();
        assert!(report.verdict.agreement, "{}", report.summary());
    }

    #[test]
    fn a_panicking_engine_becomes_an_errored_run_not_an_abort() {
        let problems: Vec<Problem<BoundedHopCount>> = Vec::new();
        let run = guarded(EngineKind::Sync, 1, &problems, || panic!("band 2 exploded"));
        assert_eq!(run.engine, "sync");
        assert_eq!(run.error.as_deref(), Some("band 2 exploded"));
        // Formatted panics (String payloads) survive too.
        let n = 3;
        let run = guarded(EngineKind::Delta, 7, &problems, || {
            panic!("band {n} exploded")
        });
        assert_eq!(run.engine, "delta[7]");
        assert_eq!(run.error.as_deref(), Some("band 3 exploded"));
    }

    #[test]
    fn a_panicked_run_flips_the_verdict_and_is_named_in_the_summary() {
        let mut report = run_scenario(&hopcount_ring()).unwrap();
        let mut dead = report.runs[0].clone();
        dead.engine = "sim[9]".into();
        dead.error = Some("band 2 exploded".into());
        for p in &mut dead.phases {
            p.sigma_stable = false;
            p.rounds = 0;
            p.predicted_bound = None;
            p.work = 0;
            p.digest = "----------------".into();
        }
        report.runs.push(dead);
        report.verdict = differential_verdict(&report.runs, report.phase_labels.len());
        assert!(!report.verdict.converges);
        assert!(!report.verdict.agreement);
        assert!(report.summary().contains("ENGINE-PANIC: band 2 exploded"));
    }

    #[test]
    fn per_edge_bgp_policies_are_stable_under_unrelated_changes() {
        let a = policy_for_edge(9, 2, 3, 2);
        let b = policy_for_edge(9, 2, 3, 2);
        let c = policy_for_edge(9, 3, 2, 2);
        assert_eq!(a, b);
        // different edges draw from different streams (they *may* collide,
        // but not for this seed)
        assert_ne!(a, c);
        assert_eq!(policy_for_edge(9, 0, 1, 0), Policy::identity());
    }
}
