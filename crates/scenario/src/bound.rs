//! Convergence-bound oracles: predict rounds-to-converge from the spec.
//!
//! The paper's convergence-rate companions give closed-form round bounds:
//! *"Formally Verified Convergence of Policy-Rich DBF"* (arXiv 2106.01184)
//! proves the synchronous iteration σ fixes within **`n·h`** rounds, where
//! `h` is the algebra height (the longest strict preference chain, see
//! [`dbf_algebra::height`]); the asynchronous follow-up (arXiv 2507.07263)
//! extends this to schedules satisfying the finite S1/S3 strengthenings —
//! if every node activates at least once per `w`-step window and data is
//! never more than `ℓ` steps stale, the asynchronous iterate δ quiesces
//! within **`n·h·(w + ℓ + 1)`** steps.
//!
//! [`bound_table`] evaluates both formulas as a *pure function of the
//! scenario spec* — no engine is run — tracking the per-phase node count
//! (AddNode changes grow it) and reading each phase's `(w, ℓ)` from the same
//! mapping of its fault parameters the δ engine builds its schedules from
//! ([`schedule_window`]).  [`bound_for_engine`] then selects the applicable
//! bound per engine: synchronous-round engines (sync, incremental) get `n·h`,
//! the schedule-driven δ engine gets the asynchronous bound, and engines
//! whose round counters are in different units (the event simulator and
//! the protocol adapters) get none — the registry's `bounded_rounds`
//! capability gates this.
//!
//! The checker (`crate::run`) asserts `rounds ≤ bound` for every gated
//! engine and folds violations into the differential verdict, so a bound
//! miss fails a scenario the same way a cross-engine disagreement does —
//! and is shrunk by the fuzzer into a replayable corpus case.

use crate::engine::{descriptor, schedule_plan};
use crate::spec::{AlgebraSpec, EngineKind, FaultSpec, Scenario};
use dbf_algebra::HeightBound;

/// The predicted convergence bounds of one phase, derived from the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseBound {
    /// The phase label (mirrors `PhaseSpec::label`).
    pub label: String,
    /// Nodes participating in this phase (grows across `AddNode` changes).
    pub n: u64,
    /// The algebra height `h` with its provenance, or `None` when no
    /// theorem applies (the non-increasing SPP gadgets).
    pub height: Option<HeightBound>,
    /// S1 finite form: every node activates within every `w`-step window.
    pub window: u64,
    /// S3 finite form: data is never more than `ℓ` steps stale.
    pub lag: u64,
    /// `n·h` — the synchronous bound of arXiv 2106.01184.
    pub sync_bound: Option<u64>,
    /// `n·h·(w + ℓ + 1)` — the asynchronous bound of arXiv 2507.07263.
    pub async_bound: Option<u64>,
}

/// The algebra height `h` for an `n`-node phase.
///
/// Exact heights enumerate the reachable carrier structurally (hop limits,
/// path-weight ranges, capacity counts) and are cross-checked against the
/// brute-force [`dbf_algebra::carrier_height`] by the property tests.
/// Policy algebras whose tie-breaks compare paths lexicographically (BGP,
/// Gao-Rexford) have chains too irregular to enumerate cheaply, so they
/// carry *declared* upper bounds with provenance — still sound inputs to
/// the round formulas as long as the declaration dominates the chains the
/// engines actually traverse, which the conformance suite enforces on
/// every builtin scenario and corpus case.
pub fn algebra_height(alg: &AlgebraSpec, n: u64) -> Option<HeightBound> {
    match alg {
        // Carrier {0, …, limit, ∞}: a (limit + 2)-element chain.
        AlgebraSpec::Hopcount { limit } => Some(HeightBound::exact(
            limit.saturating_add(2),
            "hop limit + 2: carrier {0..limit, ∞}",
        )),
        // Reachable distances are sums of ≤ n−1 edge weights, each at most
        // `base + modulus − 1`, so the chain is {0..(n−1)·w_max, ∞}.
        AlgebraSpec::Shortest { weights } => {
            // Saturating: a rule this overflows for is one `validate`
            // rejects, and an unvalidated spec must not get a wrapped
            // (unsound) height.
            let w_max = weights.base.saturating_add(weights.modulus.max(1) - 1);
            Some(HeightBound::exact(
                n.saturating_sub(1).saturating_mul(w_max).saturating_add(2),
                "(n−1)·w_max + 2: longest simple path weight",
            ))
        }
        // A path capacity is the min of its edge capacities, so finite
        // values are a subset of the edge weights: at most `modulus`
        // distinct residues, and never more than the n·(n−1) directed
        // edges; plus 0̄ and ∞̄.
        AlgebraSpec::Widest { weights } => {
            let edges = n.saturating_mul(n.saturating_sub(1)).max(1);
            Some(HeightBound::exact(
                weights.modulus.max(1).min(edges).saturating_add(2),
                "distinct edge capacities + {0̄, ∞̄}",
            ))
        }
        // Declared: levels move by at most `policy_depth` per import and
        // the level-then-length decision makes each strict preference step
        // drop a level or lengthen the path, so (depth + 2) level bands ×
        // (n + 1) path lengths dominates the chains σ traverses.
        AlgebraSpec::Bgp { policy_depth, .. } => Some(HeightBound::declared(
            (*policy_depth as u64 + 2).saturating_mul(n.saturating_add(1)),
            "declared: (policy_depth + 2)·(n + 1) level×length bands",
        )),
        // Declared: customer ≺ peer ≺ provider classes × path lengths.
        AlgebraSpec::GaoRexford => Some(HeightBound::declared(
            3u64.saturating_mul(n).saturating_add(2),
            "declared: 3 relationship classes × n path lengths + {0̄, ∞̄}",
        )),
        // Non-increasing SPP gadgets: no convergence theorem, no bound.
        AlgebraSpec::Spp { .. } => None,
    }
}

/// The `(w, ℓ)` pair of a phase's δ-schedules, read off the one mapping
/// the δ engine builds them from (`engine::schedule_plan`).  That every
/// schedule the engine runs certifies under exactly this pair is a test
/// over the builtins and generated specs
/// (`engine::tests::the_schedules_delta_runs_certify_under_the_oracles_window`).
pub fn schedule_window(faults: &FaultSpec) -> (u64, u64) {
    let (params, window) = schedule_plan(faults);
    (window as u64, params.max_delay as u64)
}

/// Evaluate the bound formulas for every phase of a spec.
///
/// Pure in the spec: the same TOML yields byte-identical bounds at any
/// `--threads`/`--jobs` setting, which the engine-contract tests pin.
pub fn bound_table(spec: &Scenario) -> Vec<PhaseBound> {
    let mut out = Vec::with_capacity(spec.phases.len());
    for (phase, n) in spec.phases.iter().zip(spec.phase_node_counts()) {
        let n = n as u64;
        let height = algebra_height(&spec.algebra, n);
        let (window, lag) = schedule_window(&phase.faults);
        let sync_bound = height.map(|h| n.saturating_mul(h.height));
        let async_bound =
            sync_bound.map(|b| b.saturating_mul(window.saturating_add(lag).saturating_add(1)));
        out.push(PhaseBound {
            label: phase.label.clone(),
            n,
            height,
            window,
            lag,
            sync_bound,
            async_bound,
        });
    }
    out
}

/// The bound the checker holds an engine's `rounds` counter to, or `None`
/// when the registry says the counter is not in bounded σ-round units.
pub fn bound_for_engine(kind: EngineKind, phase: &PhaseBound) -> Option<u64> {
    if !descriptor(kind).bounded_rounds {
        return None;
    }
    match kind {
        EngineKind::Sync | EngineKind::Incremental => phase.sync_bound,
        EngineKind::Delta => phase.async_bound,
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChangeSpec, PhaseSpec, TopologySpec, WeightRule};

    fn spec_with(algebra: AlgebraSpec, phases: Vec<PhaseSpec>) -> Scenario {
        Scenario {
            name: "t-bounds".into(),
            description: String::new(),
            topology: TopologySpec::Ring { n: 5 },
            algebra,
            engines: vec![EngineKind::Sync],
            seeds: vec![1],
            phases,
            expect: Default::default(),
        }
    }

    #[test]
    fn hopcount_bounds_are_n_times_h() {
        let spec = spec_with(
            AlgebraSpec::Hopcount { limit: 12 },
            vec![PhaseSpec::quiet("baseline")],
        );
        let table = bound_table(&spec);
        assert_eq!(table.len(), 1);
        let pb = &table[0];
        assert_eq!(pb.n, 5);
        let h = pb.height.unwrap();
        assert!(h.exact);
        assert_eq!(h.height, 14);
        assert_eq!(pb.sync_bound, Some(70));
        // default faults: activation 0.6 → window ⌈1/0.6⌉·4 = 8; the lag
        // is the spec's delay bound.
        let defaults = FaultSpec::default();
        assert_eq!(pb.window, 8);
        assert_eq!(pb.lag, defaults.max_delay.max(1));
        assert_eq!(pb.async_bound, Some(70 * (8 + pb.lag + 1)));
    }

    #[test]
    fn add_node_grows_the_per_phase_n() {
        let spec = spec_with(
            AlgebraSpec::Hopcount { limit: 4 },
            vec![
                PhaseSpec::quiet("base"),
                PhaseSpec {
                    label: "join".into(),
                    changes: vec![ChangeSpec::AddNode, ChangeSpec::AddNode],
                    faults: FaultSpec::default(),
                },
            ],
        );
        let table = bound_table(&spec);
        assert_eq!(table[0].n, 5);
        assert_eq!(table[1].n, 7);
        assert!(table[1].sync_bound.unwrap() > table[0].sync_bound.unwrap());
    }

    #[test]
    fn adversarial_stale_windows_come_from_the_period() {
        let spec = spec_with(
            AlgebraSpec::Hopcount { limit: 4 },
            vec![PhaseSpec {
                label: "starve".into(),
                changes: vec![],
                faults: FaultSpec::adversarial_stale(1, 4),
            }],
        );
        let pb = &bound_table(&spec)[0];
        assert_eq!(pb.window, 4);
        assert_eq!(pb.lag, FaultSpec::adversarial_stale(1, 4).max_delay.max(1));
    }

    #[test]
    fn spp_gadgets_have_no_bound() {
        let spec = Scenario {
            topology: TopologySpec::Gadget,
            ..spec_with(
                AlgebraSpec::Spp {
                    gadget: crate::spec::SppGadget::Bad,
                },
                vec![PhaseSpec::quiet("osc")],
            )
        };
        let pb = &bound_table(&spec)[0];
        assert!(pb.height.is_none());
        assert_eq!(pb.sync_bound, None);
        assert_eq!(pb.async_bound, None);
    }

    #[test]
    fn declared_heights_say_so() {
        let h = algebra_height(
            &AlgebraSpec::Bgp {
                policy_depth: 2,
                policy_seed: 7,
            },
            5,
        )
        .unwrap();
        assert!(!h.exact);
        assert_eq!(h.height, 4 * 6);
        let g = algebra_height(&AlgebraSpec::GaoRexford, 5).unwrap();
        assert!(!g.exact);
        assert_eq!(g.height, 17);
    }

    #[test]
    fn shortest_heights_track_the_weight_rule() {
        let uniform = algebra_height(
            &AlgebraSpec::Shortest {
                weights: WeightRule::uniform(3),
            },
            5,
        )
        .unwrap();
        assert_eq!(uniform.height, 4 * 3 + 2);
        let varied = algebra_height(
            &AlgebraSpec::Shortest {
                weights: WeightRule::varied(),
            },
            5,
        )
        .unwrap();
        // varied: base 1, modulus 9 → w_max = 9.
        assert_eq!(varied.height, 4 * 9 + 2);
    }

    #[test]
    fn a_weight_rule_past_the_finite_range_saturates_and_is_rejected_by_validate() {
        let weights = WeightRule {
            modulus: 9,
            base: u64::MAX - 3,
            ..WeightRule::varied()
        };
        let algebra = AlgebraSpec::Shortest { weights };
        // `base + modulus − 1` does not fit: no panic, no wrapped height.
        assert_eq!(algebra_height(&algebra, 5).unwrap().height, u64::MAX);
        let spec = spec_with(algebra, vec![PhaseSpec::quiet("p")]);
        assert_eq!(bound_table(&spec)[0].sync_bound, Some(u64::MAX));
        let err = spec.validate().expect_err("the rule derives no weight");
        assert!(err.message.contains("overflows"), "{err}");
    }

    #[test]
    fn engine_gating_follows_the_registry() {
        let spec = spec_with(
            AlgebraSpec::Hopcount { limit: 4 },
            vec![PhaseSpec::quiet("p")],
        );
        let pb = &bound_table(&spec)[0];
        assert_eq!(bound_for_engine(EngineKind::Sync, pb), pb.sync_bound);
        assert_eq!(bound_for_engine(EngineKind::Incremental, pb), pb.sync_bound);
        assert_eq!(bound_for_engine(EngineKind::Delta, pb), pb.async_bound);
        for unbounded in [EngineKind::Sim, EngineKind::Rip, EngineKind::Bgp] {
            assert_eq!(bound_for_engine(unbounded, pb), None, "{unbounded:?}");
        }
    }
}
