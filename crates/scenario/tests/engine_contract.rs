//! The shared engine-conformance suite.
//!
//! Every engine in the registry is held to the same contract, over at
//! least three scenarios it supports:
//!
//! 1. **σ-stability** — every phase of every run ends in a σ-stable state;
//! 2. **agreement with sync** — on strictly-increasing algebras the
//!    engine's per-phase digests equal the synchronous reference's
//!    (Theorems 7/11 as a per-engine obligation);
//! 3. **determinism** — two runs with the same seed produce the same
//!    digests and the same rounds, work, message and byte counts.
//!
//! A newly registered engine is picked up automatically: the suite
//! iterates `EngineKind::all()`, so failing to meet the contract is a test
//! failure, not a code-review hope.

use dbf_scenario::prelude::*;

/// At least three positive scenarios the engine supports: the builtin
/// library first, topped up with synthesized specs for algebra-gated
/// engines whose builtin coverage is thinner (bgp has one builtin).
fn conformance_scenarios(kind: EngineKind) -> Vec<Scenario> {
    let mut specs: Vec<Scenario> = builtins::all()
        .into_iter()
        .filter(|s| s.expect.converges && s.expect.agreement)
        .filter(|s| (descriptor(kind).supports)(s).is_ok())
        .collect();
    for extra in synthesized_specs() {
        if specs.len() >= 3 {
            break;
        }
        if (descriptor(kind).supports)(&extra).is_ok()
            && !specs.iter().any(|s| s.name == extra.name)
        {
            specs.push(extra);
        }
    }
    specs.truncate(3);
    specs
}

/// Hand-rolled positive specs covering the algebra-gated engines.
fn synthesized_specs() -> Vec<Scenario> {
    let bgp = |name: &str, topology: TopologySpec, changes: Vec<ChangeSpec>| Scenario {
        name: name.into(),
        description: "engine-contract fixture".into(),
        topology,
        algebra: AlgebraSpec::Bgp {
            policy_depth: 2,
            policy_seed: 0x5EED,
        },
        engines: vec![EngineKind::Sync],
        seeds: vec![11],
        phases: vec![
            PhaseSpec::quiet("baseline"),
            PhaseSpec {
                label: "change".into(),
                changes,
                faults: FaultSpec::default(),
            },
        ],
        expect: Expectation::default(),
    };
    vec![
        bgp(
            "contract-bgp-ring",
            TopologySpec::Ring { n: 6 },
            vec![ChangeSpec::FailLink { a: 0, b: 5 }],
        ),
        bgp(
            "contract-bgp-grid",
            TopologySpec::Grid { rows: 2, cols: 3 },
            vec![ChangeSpec::FailLink { a: 0, b: 1 }],
        ),
        bgp(
            "contract-bgp-line",
            TopologySpec::Line { n: 5 },
            vec![ChangeSpec::SetLink { a: 0, b: 4 }],
        ),
    ]
}

fn digests(run: &EngineRun) -> Vec<&str> {
    run.phases.iter().map(|p| p.digest.as_str()).collect()
}

#[test]
fn every_registered_engine_meets_the_contract() {
    for kind in EngineKind::all() {
        let specs = conformance_scenarios(kind);
        assert!(
            specs.len() >= 3,
            "engine {kind:?} needs at least 3 conformance scenarios, found {}",
            specs.len()
        );
        for mut spec in specs {
            // Run the engine side by side with the synchronous reference.
            spec.engines = if kind == EngineKind::Sync {
                vec![EngineKind::Sync]
            } else {
                vec![EngineKind::Sync, kind]
            };
            let name = spec.name.clone();
            let report =
                run_scenario(&spec).unwrap_or_else(|e| panic!("engine {kind:?} on {name}: {e}"));

            // 1. σ-stability, every engine, every phase.
            for run in &report.runs {
                for phase in &run.phases {
                    assert!(
                        phase.sigma_stable,
                        "engine {kind:?} on {name}: run {} phase {:?} is not σ-stable",
                        run.engine, phase.label
                    );
                }
            }
            // 2. Agreement with sync in every phase.
            assert!(
                report.verdict.per_phase.iter().all(|&ok| ok),
                "engine {kind:?} on {name} disagrees with sync:\n{}",
                report.summary()
            );

            // 3. Determinism for a fixed seed: identical digests and
            //    identical counters.
            let again = run_scenario(&spec).unwrap();
            assert_eq!(report.runs.len(), again.runs.len(), "{name}");
            for (a, b) in report.runs.iter().zip(again.runs.iter()) {
                assert_eq!(a.engine, b.engine, "{name}");
                assert_eq!(
                    digests(a),
                    digests(b),
                    "engine {kind:?} on {name}: digests must be deterministic"
                );
                for (pa, pb) in a.phases.iter().zip(b.phases.iter()) {
                    assert_eq!(
                        (pa.rounds, pa.work, pa.messages, pa.bytes),
                        (pb.rounds, pb.work, pb.messages, pb.bytes),
                        "engine {kind:?} on {name}: counters must be deterministic"
                    );
                }
            }
        }
    }
}

#[test]
fn protocol_engines_reject_networks_wider_than_the_u16_wire_fields() {
    // Decided from the spec alone — nothing this size has to run.
    const MAX: usize = dbf_protocols::wire::MAX_NODES;
    let hopcount = builtins::by_name("count-to-infinity").expect("a hopcount builtin");
    let bgp = synthesized_specs().remove(0);
    for (kind, mut spec) in [(EngineKind::Rip, hopcount), (EngineKind::Bgp, bgp)] {
        let supports = descriptor(kind).supports;
        spec.topology = TopologySpec::Ring { n: MAX };
        spec.phases = vec![PhaseSpec::quiet("baseline")];
        assert!(supports(&spec).is_ok(), "{kind:?}: {MAX} nodes fit");
        spec.phases.push(PhaseSpec {
            label: "grow".into(),
            changes: vec![ChangeSpec::AddNode],
            faults: FaultSpec::default(),
        });
        let err = supports(&spec).expect_err("one add_node too many");
        assert!(
            err.message.contains("u16 on the wire") && err.message.contains("65536 nodes"),
            "{kind:?}: {err}"
        );
        spec.phases.pop();
        spec.topology = TopologySpec::Line { n: MAX + 1 };
        assert!(
            supports(&spec).is_err(),
            "{kind:?}: too wide from the start"
        );
    }
}

/// The registry advertises each engine's telemetry coverage honestly:
/// every engine emits at least one event class, and exactly the
/// message-driven engines advertise message events.
#[test]
fn registry_advertises_telemetry_coverage() {
    for d in descriptors() {
        assert!(!d.events.is_empty(), "engine {}: no event class", d.name);
        let has_messages = d.events.contains(&telemetry::EventClass::Messages);
        let is_message_engine =
            matches!(d.kind, EngineKind::Sim | EngineKind::Rip | EngineKind::Bgp);
        assert_eq!(has_messages, is_message_engine, "engine {}: events", d.name);
        // Exactly the round-counting engines (σ rounds or δ steps, not
        // simulated-time units) advertise a convergence-bound theorem.
        let counts_rounds = matches!(
            d.kind,
            EngineKind::Sync | EngineKind::Incremental | EngineKind::Delta
        );
        assert_eq!(
            d.bounded_rounds, counts_rounds,
            "engine {}: bounded_rounds must track whether \"rounds\" means σ/δ steps",
            d.name
        );
    }
}

/// The registry's run planning is what the reports and CLI rely on:
/// deterministic engines contribute one run, seeded engines one per seed
/// (with the δ adversarial collapse).
#[test]
fn planned_runs_matches_actual_runs_for_every_engine() {
    for kind in EngineKind::all() {
        let Some(mut spec) = conformance_scenarios(kind).into_iter().next() else {
            continue;
        };
        spec.engines = vec![kind];
        spec.seeds = vec![5, 6];
        let report = run_scenario(&spec).unwrap();
        assert_eq!(
            report.runs.len(),
            planned_runs(&spec),
            "engine {kind:?}: planned vs actual run count"
        );
    }
}

/// The bound oracle as a per-engine obligation: every engine whose
/// registry descriptor advertises `bounded_rounds` must, on **every**
/// builtin it supports, get each phase annotated with the predicted bound
/// from the spec-level table and finish within it.  Engines whose
/// "rounds" are simulated-time units must never be annotated — a bound
/// on the wrong clock would be a category error, not a loose estimate.
#[test]
fn bounded_engines_stay_within_the_predicted_bound_on_every_builtin() {
    for kind in EngineKind::all() {
        let bounded = descriptor(kind).bounded_rounds;
        let specs: Vec<Scenario> = if bounded {
            builtins::all()
                .into_iter()
                .filter(|s| s.expect.converges && s.expect.agreement)
                .filter(|s| (descriptor(kind).supports)(s).is_ok())
                .collect()
        } else {
            // The message-level engines are orders of magnitude slower;
            // their obligation (no annotation) is clock-semantic, not
            // scenario-dependent, so the conformance trio suffices.
            conformance_scenarios(kind)
        };
        for mut spec in specs {
            spec.engines = vec![kind];
            let name = spec.name.clone();
            let table = bound_table(&spec);
            let report =
                run_scenario(&spec).unwrap_or_else(|e| panic!("engine {kind:?} on {name}: {e}"));
            for run in &report.runs {
                assert_eq!(run.phases.len(), table.len(), "{name}");
                for (phase, pb) in run.phases.iter().zip(&table) {
                    let expected = bound_for_engine(kind, pb);
                    assert_eq!(
                        phase.predicted_bound, expected,
                        "engine {kind:?} on {name} phase {:?}: annotation must equal the oracle",
                        phase.label
                    );
                    if !bounded {
                        assert_eq!(
                            phase.predicted_bound, None,
                            "engine {kind:?} on {name}: unbounded engines must not be annotated"
                        );
                    }
                    assert!(
                        phase.within_bound(),
                        "engine {kind:?} on {name} phase {:?}: {} rounds exceeds bound {:?}",
                        phase.label,
                        phase.rounds,
                        phase.predicted_bound
                    );
                }
            }
            assert!(report.verdict.bounds_ok, "{name}: {}", report.summary());
        }
    }
}

/// Bound annotations are pure functions of the spec and seed, so they
/// must be byte-identical across the intra-run `--threads` knob — the
/// same contract the digests already obey.  (The `--jobs` half of the
/// guarantee lives in `tests/sweep.rs`, where the aggregated JSON — now
/// carrying tightness statistics — is compared byte-for-byte across job
/// counts.)
#[test]
fn predicted_bounds_are_identical_across_thread_counts() {
    let mut spec = builtins::by_name("widest-fabric").unwrap();
    spec.engines = vec![EngineKind::Sync, EngineKind::Incremental, EngineKind::Delta];
    let snapshot = |threads: usize| -> Vec<(String, Option<u64>, Option<String>)> {
        let report = run_scenario_with(&spec, &RunConfig { threads }).unwrap();
        assert!(report.verdict.bounds_ok, "threads={threads}");
        report
            .runs
            .iter()
            .flat_map(|r| {
                r.phases.iter().map(move |p| {
                    (
                        format!("{}/{}", r.engine, p.label),
                        p.predicted_bound,
                        // Compare the *rendered* ratio, i.e. exactly what the
                        // BENCH emitters serialize.
                        p.tightness().map(|t| format!("{t:.6}")),
                    )
                })
            })
            .collect()
    };
    let sequential = snapshot(1);
    let parallel = snapshot(8);
    assert_eq!(sequential, parallel, "bounds must not depend on --threads");
    assert!(
        sequential.iter().any(|(_, b, _)| b.is_some()),
        "the fixture must actually exercise annotated phases"
    );
}

/// The driver's bracket, stated in one place for every engine: a recording
/// sink sees exactly one `run_start`, whose label is the one the returned
/// [`EngineRun`] carries, then one `phase_start`/`phase_end` pair per
/// problem, in order, with the problem's label and node count — whatever
/// else the engine emits in between.
#[test]
fn every_engine_brackets_each_phase_under_the_label_it_returns() {
    use dbf_algebra::prelude::BoundedHopCount;
    use dbf_bgp::algebra::BgpAlgebra;
    use dbf_bgp::policy::Policy;
    use dbf_matrix::AdjacencyMatrix;
    use dbf_scenario::engine::run_engine;
    use dbf_topology::generators;

    #[derive(Default)]
    struct Markers(Vec<String>);
    impl telemetry::TelemetrySink for Markers {
        fn run_start(&mut self, run: &str, engine: &str) {
            self.0.push(format!("run {run} {engine}"));
        }
        fn phase_start(&mut self, label: &str, nodes: usize) {
            self.0.push(format!("start {label} {nodes}"));
        }
        fn phase_end(&mut self, label: &str) {
            self.0.push(format!("end {label}"));
        }
    }

    fn check<A: ScenarioAlgebra>(kind: EngineKind, alg: &A, adjs: [AdjacencyMatrix<A>; 2]) {
        // The second phase has one node more: the carried state grows.
        let problems = adjs.map(|adj| {
            let label = format!("ring of {}", adj.node_count());
            Problem::new(label, adj, FaultSpec::default())
        });
        let mut tel = Markers::default();
        let run = run_engine(kind, alg, &problems, 7, 1, &mut tel);
        let mut expected = vec![format!("run {} {}", run.engine, descriptor(kind).name)];
        for p in &problems {
            expected.push(format!("start {} {}", p.label, p.adj.node_count()));
            expected.push(format!("end {}", p.label));
        }
        assert_eq!(tel.0, expected, "engine {kind:?}");
        let labels: Vec<&str> = run.phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["ring of 5", "ring of 6"], "engine {kind:?}");
    }

    for kind in EngineKind::all() {
        if kind == EngineKind::Bgp {
            let alg = BgpAlgebra::new(6);
            let ring = |n| generators::ring(n).with_weights(|_, _| Policy::identity());
            let adjs = [5, 6].map(|n| alg.adjacency_from_topology(&ring(n)));
            check(kind, &alg, adjs);
        } else {
            let ring = |n| generators::ring(n).with_weights(|_, _| 1u64);
            let adjs = [5, 6].map(|n| AdjacencyMatrix::from_topology(&ring(n)));
            check(kind, &BoundedHopCount::new(16), adjs);
        }
    }
}

/// The incremental engine's reason to exist: on the topology-change phase
/// of a fabric scenario it must recompute dramatically fewer rows than the
/// full σ sweep touches — while landing on the identical digest (that part
/// is already enforced above; this pins the work asymmetry).
#[test]
fn incremental_sigma_is_cheaper_than_full_sigma_on_change_phases() {
    let sweep = sweeps::by_name("widest-fabric-scaling").unwrap();
    let grid = sweep.grid();
    // n=100: big enough that the frontier is a small fraction of the
    // network, small enough for a debug-profile test.
    let mut spec = sweep.derive_scenario(&grid[1], 0).unwrap();
    spec.engines = vec![EngineKind::Sync, EngineKind::Incremental];
    let report = run_scenario(&spec).unwrap();
    assert!(report.verdict.agreement, "{}", report.summary());
    let n = 100u64;
    let sync = &report.runs[0];
    let inc = &report.runs[1];
    let change = sync.phases.len() - 1;
    assert_eq!(sync.phases[change].digest, inc.phases[change].digest);
    // Full σ recomputes n rows per round (plus the final stability round);
    // the dirty-row engine touches only the perturbed region.
    let full_row_equivalents = (sync.phases[change].work + 1) * n;
    assert!(
        inc.phases[change].work * 10 <= full_row_equivalents,
        "incremental change-phase work {} vs full-σ row equivalents {}",
        inc.phases[change].work,
        full_row_equivalents
    );
}
