//! The built-in scenario library.
//!
//! Each scenario is a self-contained demonstration of one phenomenon the
//! paper discusses; together they cover the positive theorems (cross-engine
//! agreement for strictly-increasing algebras under loss, duplication,
//! reordering, partitions, healing, growth and policy richness) and the
//! negative controls (the DISAGREE wedgie and the BAD GADGET oscillation
//! that non-increasing algebras permit).

use crate::spec::{
    AlgebraSpec, ChangeSpec, EngineKind, Expectation, FaultSpec, PhaseSpec, Scenario, SppGadget,
    TopologySpec, WeightRule,
};

/// Fill a scenario's engine list with **every registered engine that
/// supports it** (algebra capability and recommended size both consulted).
/// The positive builtins go through this, so a newly registered engine is
/// automatically subjected to the whole differential suite — engine lists
/// are data derived from the registry, not code.
fn on_all_supported_engines(mut s: Scenario) -> Scenario {
    let all: Vec<EngineKind> = EngineKind::all().collect();
    s.engines = crate::engine::eligible_engines(&s, &all, false);
    s
}

fn phase(label: &str, changes: Vec<ChangeSpec>, faults: FaultSpec) -> PhaseSpec {
    PhaseSpec {
        label: label.into(),
        changes,
        faults,
    }
}

/// RIP-style count-to-infinity, cured by the hop limit: a destination
/// becomes unreachable and the stale routes must count up to the limit
/// before every engine agrees it is gone (Theorem 7 in its most hostile
/// classical setting).
pub fn count_to_infinity() -> Scenario {
    on_all_supported_engines(Scenario {
        name: "count-to-infinity".into(),
        description: "A destination becomes unreachable; the finite strictly-increasing \
                      hop-count algebra counts the stale routes up to the limit and every \
                      engine agrees the destination is gone."
            .into(),
        topology: TopologySpec::Explicit {
            nodes: 4,
            links: vec![(0, 1), (1, 2), (2, 3), (0, 2)],
        },
        algebra: AlgebraSpec::Hopcount { limit: 16 },
        engines: Vec::new(), // derived from the registry by on_all_supported_engines
        seeds: vec![1, 2],
        phases: vec![
            phase("baseline", vec![], FaultSpec::default()),
            phase(
                "node 3 cut off",
                vec![ChangeSpec::FailLink { a: 2, b: 3 }],
                FaultSpec::default(),
            ),
        ],
        expect: Expectation::default(),
    })
}

/// The RFC 4264 BGP wedgie: the DISAGREE gadget has two stable states and
/// which one a run reaches depends on message timing — the differential
/// checker must observe *disagreement* between seeds.
pub fn bgp_wedgie() -> Scenario {
    Scenario {
        name: "bgp-wedgie".into(),
        description: "The DISAGREE gadget (two stable states): runs stabilise, but \
                      different schedules reach different fixed points — the wedgie \
                      behaviour that strictly-increasing algebras rule out."
            .into(),
        topology: TopologySpec::Gadget,
        algebra: AlgebraSpec::Spp {
            gadget: SppGadget::Disagree,
        },
        engines: vec![EngineKind::Delta],
        seeds: vec![0, 1, 2, 3, 4, 5, 6, 7],
        phases: vec![phase("race", vec![], FaultSpec::adversarial())],
        expect: Expectation {
            converges: true,
            agreement: false,
        },
    }
}

/// The BAD GADGET: no stable state at all — the synchronous iterate
/// oscillates forever, so the run must report non-convergence.
pub fn bad_gadget() -> Scenario {
    Scenario {
        name: "bad-gadget".into(),
        description: "The Griffin–Shepherd–Wilfong BAD GADGET has no stable state; the \
                      σ-iteration oscillates and the checker reports non-convergence."
            .into(),
        topology: TopologySpec::Gadget,
        algebra: AlgebraSpec::Spp {
            gadget: SppGadget::Bad,
        },
        engines: vec![EngineKind::Sync],
        seeds: vec![1],
        phases: vec![phase("oscillate", vec![], FaultSpec::default())],
        expect: Expectation {
            converges: false,
            agreement: false,
        },
    }
}

/// A link that flaps twice: fail → heal → fail → heal, reconverging each
/// time (the dynamic-network semantics of Section 3.2 / the 2020 paper).
pub fn flapping_link() -> Scenario {
    let flap_faults = FaultSpec {
        loss: 0.1,
        duplicate: 0.1,
        ..FaultSpec::default()
    };
    on_all_supported_engines(Scenario {
        name: "flapping-link".into(),
        description: "A ring link fails, heals, fails and heals again; every epoch \
                      reconverges from the stale state of the previous one."
            .into(),
        topology: TopologySpec::Ring { n: 6 },
        algebra: AlgebraSpec::Hopcount { limit: 16 },
        engines: Vec::new(), // derived from the registry by on_all_supported_engines
        seeds: vec![3],
        phases: vec![
            phase("baseline", vec![], FaultSpec::default()),
            phase(
                "flap down",
                vec![ChangeSpec::FailLink { a: 0, b: 5 }],
                flap_faults,
            ),
            phase(
                "flap up",
                vec![ChangeSpec::SetLink { a: 0, b: 5 }],
                flap_faults,
            ),
            phase(
                "down again",
                vec![ChangeSpec::FailLink { a: 0, b: 5 }],
                flap_faults,
            ),
            phase(
                "up again",
                vec![ChangeSpec::SetLink { a: 0, b: 5 }],
                FaultSpec::default(),
            ),
        ],
        expect: Expectation::default(),
    })
}

/// A ring partitions into two components and later heals; unreachable
/// destinations go invalid, then recover.
pub fn partition_and_heal() -> Scenario {
    on_all_supported_engines(Scenario {
        name: "partition-and-heal".into(),
        description: "Two link failures partition a ring; destinations across the cut \
                      become invalid everywhere, then the partition heals and all \
                      engines reconverge to the original fixed point."
            .into(),
        topology: TopologySpec::Ring { n: 6 },
        algebra: AlgebraSpec::Hopcount { limit: 16 },
        engines: Vec::new(), // derived from the registry by on_all_supported_engines
        seeds: vec![5],
        phases: vec![
            phase("baseline", vec![], FaultSpec::default()),
            phase(
                "partition",
                vec![
                    ChangeSpec::FailLink { a: 1, b: 2 },
                    ChangeSpec::FailLink { a: 4, b: 5 },
                ],
                FaultSpec::default(),
            ),
            phase(
                "heal",
                vec![
                    ChangeSpec::SetLink { a: 1, b: 2 },
                    ChangeSpec::SetLink { a: 4, b: 5 },
                ],
                FaultSpec::default(),
            ),
        ],
        expect: Expectation::default(),
    })
}

/// Heavy loss, duplication and reordering on a random graph: the faults
/// cost work but never change the answer.
pub fn adversarial_loss() -> Scenario {
    on_all_supported_engines(Scenario {
        name: "adversarial-loss".into(),
        description: "Shortest paths on a random connected graph under 25% loss, 25% \
                      duplication and heavy reordering: every engine still reaches the \
                      unique fixed point."
            .into(),
        topology: TopologySpec::ConnectedRandom {
            n: 8,
            p: 0.35,
            seed: 7,
        },
        algebra: AlgebraSpec::Shortest {
            weights: WeightRule::varied(),
        },
        engines: Vec::new(), // derived from the registry by on_all_supported_engines
        seeds: vec![1, 2, 3],
        phases: vec![phase("storm", vec![], FaultSpec::adversarial())],
        expect: Expectation::default(),
    })
}

/// Widest paths (increasing but not strictly) on a leaf-spine fabric.
pub fn widest_fabric() -> Scenario {
    on_all_supported_engines(Scenario {
        name: "widest-fabric".into(),
        description: "Bottleneck-bandwidth (widest-paths) routing on a leaf–spine \
                      fabric with a spine failure mid-run."
            .into(),
        topology: TopologySpec::LeafSpine {
            spines: 3,
            leaves: 5,
        },
        algebra: AlgebraSpec::Widest {
            weights: WeightRule {
                mul_i: 11,
                mul_j: 5,
                modulus: 90,
                base: 10,
            },
        },
        engines: Vec::new(), // derived from the registry by on_all_supported_engines
        seeds: vec![2],
        phases: vec![
            phase("baseline", vec![], FaultSpec::default()),
            phase(
                "spine 0 loses leaf 3",
                vec![ChangeSpec::FailLink { a: 0, b: 6 }],
                FaultSpec {
                    loss: 0.15,
                    duplicate: 0.15,
                    ..FaultSpec::default()
                },
            ),
        ],
        expect: Expectation::default(),
    })
}

/// The network grows mid-computation: a node joins and is wired into the
/// ring (the dynamic case of the 2020 follow-up paper).
pub fn growing_network() -> Scenario {
    on_all_supported_engines(Scenario {
        name: "growing-network".into(),
        description: "A line network gains a node mid-run and closes into a ring; \
                      states grow with the network and all engines agree on the new \
                      fixed point."
            .into(),
        topology: TopologySpec::Line { n: 5 },
        algebra: AlgebraSpec::Hopcount { limit: 16 },
        engines: Vec::new(), // derived from the registry by on_all_supported_engines
        seeds: vec![4],
        phases: vec![
            phase("line", vec![], FaultSpec::default()),
            phase(
                "node joins",
                vec![ChangeSpec::AddNode, ChangeSpec::SetLink { a: 4, b: 5 }],
                FaultSpec::default(),
            ),
            phase(
                "ring closes",
                vec![ChangeSpec::SetLink { a: 5, b: 0 }],
                FaultSpec::default(),
            ),
        ],
        expect: Expectation::default(),
    })
}

/// The Section 7 policy-rich BGP algebra with random safe-by-design
/// policies: convergence is impossible to break by construction.
pub fn policy_rich_bgp() -> Scenario {
    on_all_supported_engines(Scenario {
        name: "policy-rich-bgp".into(),
        description: "Random safe-by-design Section 7 policies on a random graph, \
                      with a policy-relevant link failing mid-run: Theorem 11 says no \
                      expressible policy can prevent agreement."
            .into(),
        topology: TopologySpec::ConnectedRandom {
            n: 6,
            p: 0.4,
            seed: 5,
        },
        algebra: AlgebraSpec::Bgp {
            policy_depth: 2,
            policy_seed: 0xBEEF,
        },
        engines: Vec::new(), // derived from the registry by on_all_supported_engines
        seeds: vec![1, 2],
        phases: vec![
            phase("baseline", vec![], FaultSpec::default()),
            phase(
                "link 0-1 fails",
                vec![ChangeSpec::FailLink { a: 0, b: 1 }],
                FaultSpec {
                    loss: 0.2,
                    duplicate: 0.2,
                    ..FaultSpec::default()
                },
            ),
        ],
        expect: Expectation::default(),
    })
}

/// Shortest paths on a preferential-attachment AS graph: the heavy-tailed
/// degree profile (a few hubs, many degree-`m` leaves) is the shape the
/// frontier and band-balancing machinery is built for, and failing the
/// link between the two oldest (best-connected) nodes forces a global
/// change-phase reconvergence through the hubs.
pub fn as_hierarchy() -> Scenario {
    on_all_supported_engines(Scenario {
        name: "as-hierarchy".into(),
        description: "Shortest paths on a preferential-attachment AS graph; the \
                      hub–hub link between the two oldest nodes fails mid-run and \
                      every engine reconverges through the remaining hubs."
            .into(),
        topology: TopologySpec::AsGraph {
            n: 64,
            m: 2,
            seed: 9,
        },
        algebra: AlgebraSpec::Shortest {
            weights: WeightRule::varied(),
        },
        engines: Vec::new(), // derived from the registry by on_all_supported_engines
        seeds: vec![1, 2],
        phases: vec![
            phase("baseline", vec![], FaultSpec::default()),
            phase(
                "hub link 0-1 fails",
                vec![ChangeSpec::FailLink { a: 0, b: 1 }],
                FaultSpec::default(),
            ),
        ],
        expect: Expectation::default(),
    })
}

/// Gao-Rexford routing over a provider/customer hierarchy, with a peering
/// link failing mid-run.
pub fn gao_rexford_mesh() -> Scenario {
    on_all_supported_engines(Scenario {
        name: "gao-rexford-mesh".into(),
        description: "Valley-free customer/peer/provider routing on a tiered AS \
                      hierarchy; strictly increasing, so all engines agree before and \
                      after a link failure."
            .into(),
        topology: TopologySpec::Tiered {
            tiers: vec![2, 3, 5],
            p_peer: 0.35,
            p_extra: 0.25,
            seed: 11,
        },
        algebra: AlgebraSpec::GaoRexford,
        engines: Vec::new(), // derived from the registry by on_all_supported_engines
        seeds: vec![1, 2],
        phases: vec![
            phase("baseline", vec![], FaultSpec::default()),
            phase(
                "top peering lost",
                vec![ChangeSpec::FailLink { a: 0, b: 1 }],
                FaultSpec {
                    loss: 0.1,
                    duplicate: 0.1,
                    ..FaultSpec::default()
                },
            ),
        ],
        expect: Expectation::default(),
    })
}

/// All built-in scenarios, in presentation order.
pub fn all() -> Vec<Scenario> {
    vec![
        count_to_infinity(),
        bgp_wedgie(),
        bad_gadget(),
        flapping_link(),
        partition_and_heal(),
        adversarial_loss(),
        widest_fabric(),
        growing_network(),
        as_hierarchy(),
        policy_rich_bgp(),
        gao_rexford_mesh(),
    ]
}

/// Look up a built-in scenario by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_validate_and_have_unique_names() {
        let scenarios = all();
        assert!(
            scenarios.len() >= 8,
            "the library promises at least 8 scenarios"
        );
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "names must be unique");
        for s in &scenarios {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(!s.description.is_empty(), "{} needs a description", s.name);
        }
        assert!(by_name("count-to-infinity").is_some());
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn builtins_round_trip_through_toml() {
        for s in all() {
            let text = s.to_toml_string();
            let back = Scenario::from_toml_str(&text)
                .unwrap_or_else(|e| panic!("{}: {e}\n---\n{text}", s.name));
            assert_eq!(s, back, "{} must round-trip", s.name);
        }
    }
}
