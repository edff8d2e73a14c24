//! Seeded random generation of complete [`Scenario`] specs and [`Sweep`]
//! grids — the input side of the fuzzing oracle (see [`crate::fuzz`]).
//!
//! The paper's convergence theorems are universally quantified: *every*
//! strictly-increasing algebra reaches the same fixed point under *any*
//! admissible schedule, fault pattern and topology-change script.  That
//! makes the differential checker an oracle for unbounded random inputs:
//! this module samples the quantifier.  Every generated spec
//!
//! * uses a **strictly increasing** algebra (shortest paths, bounded hop
//!   count, the Section 7 BGP algebra, or Gao-Rexford) — the hypothesis of
//!   Theorems 7/11.  Widest paths is deliberately excluded: `min`/`max` is
//!   increasing but not *strictly* (an edge of capacity ≥ the route leaves
//!   it unchanged), so the uniqueness half of the theorem does not apply
//!   and cross-engine disagreement would not witness a bug;
//! * draws a topology family and size, a timed script of
//!   [`ChangeSpec`] edits (including deliberately redundant ones —
//!   removing absent edges, re-adding existing links — which must be
//!   defined no-ops), and per-phase fault profiles covering loss,
//!   duplication, reordering, delay bounds and worst-case
//!   [`ScheduleSpec::AdversarialStale`] staleness;
//! * is valid by construction: [`scenario_case`] output always passes
//!   [`Scenario::validate`].
//!
//! Generation is a pure function of the seed, so a failing case is
//! reproducible from its seed alone.

use crate::spec::{
    AlgebraSpec, ChangeSpec, EngineKind, Expectation, FaultSpec, PhaseSpec, Scenario, ScheduleSpec,
    TopologySpec, WeightRule,
};
use crate::sweep::{Axis, AxisParam, AxisValue, Sweep};
use dbf_algebra::algebra::SplitMix64;

/// The seed of fuzz case `index` in the stream rooted at `root`: a pure
/// function, so one case can be re-run without regenerating its
/// predecessors (`scenarios fuzz --seed S --case K`).
pub fn case_seed(root: u64, index: u64) -> u64 {
    let mut rng = SplitMix64::new(root ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    rng.next_u64()
}

fn pick(rng: &mut SplitMix64, bound: usize) -> usize {
    rng.next_below(bound.max(1) as u64) as usize
}

fn range_u64(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo + 1)
}

fn range_f64(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// A random sized topology family on `n ∈ [3, 8]` nodes.
fn random_topology(rng: &mut SplitMix64) -> TopologySpec {
    let n = 3 + pick(rng, 6); // 3..=8
    match pick(rng, 7) {
        0 => TopologySpec::Line { n },
        1 => TopologySpec::Ring { n },
        2 => TopologySpec::Star { n },
        3 => TopologySpec::Complete {
            n: 3 + pick(rng, 3),
        },
        4 => TopologySpec::Grid {
            rows: 2 + pick(rng, 2),
            cols: 2 + pick(rng, 2),
        },
        5 => TopologySpec::ConnectedRandom {
            n,
            p: range_f64(rng, 0.1, 0.5),
            seed: rng.next_u64(),
        },
        _ => TopologySpec::LeafSpine {
            spines: 2 + pick(rng, 2),
            leaves: 2 + pick(rng, 3),
        },
    }
}

/// A random strictly-increasing algebra (see the module docs for why
/// widest paths and the SPP gadgets are excluded).
fn random_algebra(rng: &mut SplitMix64) -> AlgebraSpec {
    match pick(rng, 4) {
        0 => AlgebraSpec::Shortest {
            weights: if rng.next_bool(0.5) {
                WeightRule::varied()
            } else {
                WeightRule::uniform(1 + rng.next_below(4))
            },
        },
        1 => AlgebraSpec::Hopcount {
            limit: range_u64(rng, 4, 16),
        },
        2 => AlgebraSpec::Bgp {
            policy_depth: pick(rng, 3),
            policy_seed: rng.next_u64(),
        },
        _ => AlgebraSpec::GaoRexford,
    }
}

/// A random fault profile.  Horizons are generous enough that every
/// generated spec converges within them (a too-short horizon would read as
/// a convergence failure and poison the oracle with false positives).
fn random_faults(rng: &mut SplitMix64, n: usize) -> FaultSpec {
    let min_delay = range_u64(rng, 1, 2);
    let schedule = if rng.next_bool(1.0 / 6.0) {
        ScheduleSpec::AdversarialStale {
            victim: pick(rng, n),
            period: range_u64(rng, 2, 4),
        }
    } else {
        ScheduleSpec::Random
    };
    FaultSpec {
        loss: range_f64(rng, 0.0, 0.3),
        duplicate: range_f64(rng, 0.0, 0.3),
        reorder: range_f64(rng, 0.0, 0.4),
        activation: range_f64(rng, 0.3, 1.0),
        min_delay,
        max_delay: min_delay + rng.next_below(7),
        horizon: range_u64(rng, 200, 400) as usize,
        schedule,
    }
}

/// Which change-script vocabulary an algebra admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChangePolicy {
    /// Additions and removals (finite algebras: reconvergence after a
    /// disconnection is bounded by the carrier).
    Any,
    /// Removals only (the Gao-Rexford constraint: relationships of fresh
    /// links would be ambiguous).
    RemovalsOnly,
    /// Additions only.  Used for unbounded metrics (plain shortest paths):
    /// a removal that disconnects a destination causes genuine
    /// count-to-infinity — the algebra is not finite, so Theorem 7's
    /// convergence-in-bounded-time hypothesis does not hold and a
    /// non-converging run would be a false positive, not an engine bug.
    AdditionsOnly,
}

/// A random change script entry on an `n`-node topology.
fn random_change(rng: &mut SplitMix64, n: usize, policy: ChangePolicy) -> ChangeSpec {
    let two_nodes = |rng: &mut SplitMix64| {
        let a = pick(rng, n);
        let mut b = pick(rng, n);
        if a == b {
            b = (a + 1) % n;
        }
        (a, b)
    };
    let variant = match policy {
        ChangePolicy::Any => pick(rng, 5),
        ChangePolicy::RemovalsOnly => pick(rng, 2),
        ChangePolicy::AdditionsOnly => 2 + pick(rng, 3),
    };
    match variant {
        0 => {
            let (a, b) = two_nodes(rng);
            ChangeSpec::FailLink { a, b }
        }
        1 => {
            let (from, to) = two_nodes(rng);
            ChangeSpec::RemoveEdge { from, to }
        }
        2 => {
            let (a, b) = two_nodes(rng);
            ChangeSpec::SetLink { a, b }
        }
        3 => {
            let (from, to) = two_nodes(rng);
            ChangeSpec::SetEdge { from, to }
        }
        _ => ChangeSpec::AddNode,
    }
}

/// Generate a complete random scenario from a seed.
///
/// The output is deterministic in the seed, always validates, and always
/// uses a strictly-increasing algebra, so the differential-checker
/// invariant (`converges && agreement`) must hold for every output — any
/// failure is an engine bug (or a real counterexample to the theorems).
pub fn scenario_case(seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(seed);
    let algebra = random_algebra(&mut rng);
    let topology = match algebra {
        AlgebraSpec::GaoRexford => TopologySpec::Tiered {
            tiers: vec![
                1 + pick(&mut rng, 2),
                2 + pick(&mut rng, 2),
                2 + pick(&mut rng, 3),
            ],
            p_peer: range_f64(&mut rng, 0.2, 0.5),
            p_extra: range_f64(&mut rng, 0.1, 0.4),
            seed: rng.next_u64(),
        },
        _ => random_topology(&mut rng),
    };
    let policy = match algebra {
        AlgebraSpec::GaoRexford => ChangePolicy::RemovalsOnly,
        AlgebraSpec::Shortest { .. } | AlgebraSpec::Widest { .. } => ChangePolicy::AdditionsOnly,
        AlgebraSpec::Hopcount { .. } | AlgebraSpec::Bgp { .. } | AlgebraSpec::Spp { .. } => {
            ChangePolicy::Any
        }
    };
    let mut nodes = topology
        .initial_nodes()
        .expect("generated families are sized");

    let phase_count = 1 + pick(&mut rng, 3); // 1..=3
    let mut phases = Vec::with_capacity(phase_count);
    for k in 0..phase_count {
        let change_count = if k == 0 { 0 } else { pick(&mut rng, 4) }; // 0..=3
        let mut changes = Vec::with_capacity(change_count);
        for _ in 0..change_count {
            let c = random_change(&mut rng, nodes, policy);
            if matches!(c, ChangeSpec::AddNode) {
                nodes += 1;
            }
            changes.push(c);
        }
        phases.push(PhaseSpec {
            label: format!("phase-{k}"),
            changes,
            faults: random_faults(&mut rng, nodes),
        });
    }

    let mut engines = vec![EngineKind::Sync, EngineKind::Delta, EngineKind::Sim];
    // The incremental dirty-row σ works on every algebra; sample it often
    // so change-script reconvergence is fuzzed against the full iteration.
    if rng.next_bool(0.5) {
        engines.push(EngineKind::Incremental);
    }
    // The protocol engines are algebra-gated (the registry's `supports`
    // would reject anything else), so only matching specs sample them.
    match algebra {
        AlgebraSpec::Hopcount { .. } if rng.next_bool(0.25) => engines.push(EngineKind::Rip),
        AlgebraSpec::Bgp { .. } if rng.next_bool(0.25) => engines.push(EngineKind::Bgp),
        _ => {}
    }
    let seeds = if rng.next_bool(0.5) {
        vec![rng.next_below(1 << 32)]
    } else {
        vec![rng.next_below(1 << 32), rng.next_below(1 << 32)]
    };

    let scenario = Scenario {
        name: format!("fuzz-{seed:016x}"),
        description: "randomly generated fuzz case".into(),
        topology,
        algebra,
        engines,
        seeds,
        phases,
        expect: Expectation::default(),
    };
    debug_assert!(
        scenario.validate().is_ok(),
        "generated scenario must validate: {:?}",
        scenario.validate()
    );
    scenario
}

/// Generate a small random sweep from a seed: a quiet base scenario on a
/// resizable topology plus an `n × loss` (or `n × max_delay`) grid — the
/// cheap batch driver for coverage of size/fault combinations.
pub fn sweep_case(seed: u64) -> Sweep {
    let mut rng = SplitMix64::new(seed);
    let algebra = match pick(&mut rng, 3) {
        0 => AlgebraSpec::Shortest {
            weights: WeightRule::varied(),
        },
        1 => AlgebraSpec::Hopcount {
            limit: range_u64(&mut rng, 6, 16),
        },
        _ => AlgebraSpec::Bgp {
            policy_depth: pick(&mut rng, 2),
            policy_seed: rng.next_u64(),
        },
    };
    // Only families the `n` axis can resize, and no change scripts: the
    // grid resizes the topology, which would invalidate node references.
    let topology = match pick(&mut rng, 3) {
        0 => TopologySpec::Ring { n: 4 },
        1 => TopologySpec::Line { n: 4 },
        _ => TopologySpec::Star { n: 4 },
    };
    let base = Scenario {
        name: format!("fuzz-sweep-base-{seed:016x}"),
        description: "randomly generated sweep base".into(),
        topology,
        algebra,
        engines: vec![EngineKind::Sync, EngineKind::Delta, EngineKind::Sim],
        seeds: vec![1],
        phases: vec![PhaseSpec {
            label: "run".into(),
            changes: Vec::new(),
            faults: random_faults(&mut rng, 4),
        }],
        expect: Expectation::default(),
    };
    let n_values: Vec<AxisValue> = {
        let lo = 3 + pick(&mut rng, 3) as u64; // 3..=5
        vec![AxisValue::Int(lo), AxisValue::Int(lo + 2)]
    };
    let second = if rng.next_bool(0.5) {
        Axis {
            param: AxisParam::Loss,
            values: vec![
                AxisValue::Float(0.0),
                AxisValue::Float(range_f64(&mut rng, 0.05, 0.25)),
            ],
        }
    } else {
        Axis {
            param: AxisParam::MaxDelay,
            values: vec![AxisValue::Int(2), AxisValue::Int(range_u64(&mut rng, 5, 9))],
        }
    };
    let sweep = Sweep {
        name: format!("fuzz-sweep-{seed:016x}"),
        description: "randomly generated fuzz sweep".into(),
        base,
        base_ref: None,
        replicates: 1 + pick(&mut rng, 2),
        axes: vec![
            Axis {
                param: AxisParam::N,
                values: n_values,
            },
            second,
        ],
    };
    debug_assert!(
        sweep.validate().is_ok(),
        "generated sweep must validate: {:?}",
        sweep.validate()
    );
    sweep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_scenarios_always_validate() {
        for i in 0..500 {
            let s = scenario_case(case_seed(42, i));
            s.validate()
                .unwrap_or_else(|e| panic!("case {i} invalid: {e}\n{s:?}"));
        }
    }

    #[test]
    fn generated_sweeps_always_validate() {
        for i in 0..100 {
            let s = sweep_case(case_seed(7, i));
            s.validate()
                .unwrap_or_else(|e| panic!("sweep case {i} invalid: {e}\n{s:?}"));
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        assert_eq!(scenario_case(99), scenario_case(99));
        assert_eq!(sweep_case(99), sweep_case(99));
        assert_ne!(scenario_case(1), scenario_case(2));
        assert_eq!(case_seed(1, 5), case_seed(1, 5));
        assert_ne!(case_seed(1, 5), case_seed(1, 6));
        assert_ne!(case_seed(1, 5), case_seed(2, 5));
    }

    #[test]
    fn generated_specs_round_trip_through_toml() {
        for i in 0..50 {
            let s = scenario_case(case_seed(3, i));
            let back = Scenario::from_toml_str(&s.to_toml_string())
                .unwrap_or_else(|e| panic!("case {i} reparse failed: {e}"));
            assert_eq!(s, back);
        }
    }

    #[test]
    fn the_generator_reaches_the_interesting_corners() {
        let mut saw_adversarial = false;
        let mut saw_add_node = false;
        let mut saw_gao = false;
        let mut saw_incremental = false;
        let mut saw_rip = false;
        let mut saw_bgp = false;
        for i in 0..300 {
            let s = scenario_case(case_seed(11, i));
            saw_gao |= matches!(s.algebra, AlgebraSpec::GaoRexford);
            saw_incremental |= s.engines.contains(&EngineKind::Incremental);
            saw_rip |= s.engines.contains(&EngineKind::Rip);
            saw_bgp |= s.engines.contains(&EngineKind::Bgp);
            for p in &s.phases {
                saw_adversarial |=
                    matches!(p.faults.schedule, ScheduleSpec::AdversarialStale { .. });
                saw_add_node |= p.changes.iter().any(|c| matches!(c, ChangeSpec::AddNode));
            }
        }
        assert!(saw_adversarial, "adversarial schedules are generated");
        assert!(saw_add_node, "growing networks are generated");
        assert!(saw_gao, "gao-rexford specs are generated");
        assert!(saw_incremental, "the incremental engine is sampled");
        assert!(saw_rip, "the rip protocol engine is sampled");
        assert!(saw_bgp, "the bgp protocol engine is sampled");
    }
}
