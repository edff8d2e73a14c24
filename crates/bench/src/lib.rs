//! The paper's tables and figures as experiments, and the workload
//! builders they share.
//!
//! [`EXPERIMENTS`] holds one function per paper artifact that writes the
//! artifact's rows into a `String`.  The `experiments` binary prints them;
//! `tests/expected.rs` and, for the two tables, `tests/paper_tables.rs`
//! compare each with `expected/<id>.txt` byte for byte, so the output is
//! pinned.  Every builder is deterministic in its
//! seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod paper;

pub use paper::EXPERIMENTS;

use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::prelude::*;
use dbf_async::prelude::Schedule;
use dbf_bgp::algebra::random_policy;
use dbf_bgp::prelude::*;
use dbf_matrix::prelude::*;
use dbf_scenario::WeightRule;
use dbf_topology::generators::{self, TierRelation};
use dbf_topology::Topology;
use std::fmt::{self, Write as _};

/// An experiment: writes its table into the string it is given.
pub type Experiment = fn(&mut String) -> fmt::Result;

/// What `run` writes.
pub fn render(run: Experiment) -> String {
    let mut out = String::new();
    run(&mut out).expect("writing to a String cannot fail");
    out
}

/// A connected random graph on `n` nodes (edge probability 0.35) whose
/// edge `i → j` carries `edge(rule.weight(i, j))`.
pub fn random_network<E>(
    n: usize,
    seed: u64,
    rule: WeightRule,
    edge: impl Fn(u64) -> E,
) -> Topology<E> {
    generators::connected_random(n, 0.35, seed).with_weights(|i, j| edge(rule.weight(i, j)))
}

/// A Section 7 policy-rich network as a policy topology: a connected
/// random graph whose every directed edge carries a random
/// (safe-by-design) policy.
pub fn policy_rich_topology(n: usize, seed: u64) -> Topology<dbf_bgp::policy::Policy> {
    let shape = generators::connected_random(n, 0.4, seed);
    let mut rng = SplitMix64::new(seed ^ 0x5EC7);
    shape.with_weights(|_, _| random_policy(&mut rng, 2))
}

/// The same network as an algebra and its adjacency.
pub fn policy_rich_network(n: usize, seed: u64) -> (BgpAlgebra, AdjacencyMatrix<BgpAlgebra>) {
    let alg = BgpAlgebra::new(n);
    let adj = alg.adjacency_from_topology(&policy_rich_topology(n, seed));
    (alg, adj)
}

/// A Gao-Rexford problem on a tiered provider/customer hierarchy.
pub fn gao_rexford_network(
    tiers: &[usize],
    seed: u64,
) -> (
    GaoRexford,
    AdjacencyMatrix<GaoRexford>,
    Topology<TierRelation>,
) {
    let (topo, _tier_of) = generators::tiered_hierarchy(tiers, 0.35, 0.25, seed);
    let alg = GaoRexford::new(topo.node_count());
    let adj = alg.adjacency_from_hierarchy(&topo);
    (alg, adj, topo)
}

/// The two schedules that split DISAGREE (`SppAlgebra::disagree`) into its
/// two stable states: synchronous over `horizon` steps, except that for
/// the first ten steps node 2 (in the first) or node 1 (in the second)
/// stays silent.
pub fn disagree_schedules(horizon: usize) -> [Schedule; 2] {
    [2, 1].map(|silent| {
        let mut schedule = Schedule::synchronous(3, horizon);
        for t in 1..=10 {
            schedule.set_activation(t, silent, false);
        }
        schedule
    })
}

/// Random starting states (diagonals kept trivial) drawn from an algebra's
/// route sampler — the "arbitrary starting state" of the convergence
/// theorems.
pub fn random_states<A: SampleableAlgebra>(
    alg: &A,
    n: usize,
    count: usize,
    seed: u64,
) -> Vec<RoutingState<A>> {
    let pool = alg.sample_routes(seed, 64);
    dbf_async::convergence::state_ensemble(alg, n, &pool, count, seed ^ 0x57A7E)
}

/// The length of the synchronous convergence run (`σ` iterations to the
/// fixed point) from the clean state.
pub fn sync_iterations<A: RoutingAlgebra>(alg: &A, adj: &AdjacencyMatrix<A>) -> usize {
    let n = adj.node_count();
    let budget = iteration_budget(n, None);
    let out = iterate_to_fixed_point(alg, adj, &RoutingState::identity(alg, n), budget);
    assert!(
        out.converged,
        "workload did not converge within {budget} rounds"
    );
    out.iterations
}

/// Write a two-column table of (label, value) rows under a heading.
pub fn write_table(
    out: &mut String,
    title: &str,
    header: (&str, &str),
    rows: &[(String, String)],
) -> fmt::Result {
    writeln!(out, "\n== {title} ==")?;
    writeln!(out, "{:<44} {}", header.0, header.1)?;
    for (a, b) in rows {
        writeln!(out, "{a:<44} {b}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_paths::prelude::PathVector;

    #[test]
    fn workloads_build_and_converge() {
        let varied = |n, seed| random_network(n, seed, WeightRule::varied(), NatInf::fin);
        let adj = AdjacencyMatrix::from_topology(&varied(8, 1));
        assert!(sync_iterations(&ShortestPaths::new(), &adj) >= 1);
        let hops =
            AdjacencyMatrix::from_topology(&random_network(8, 4, WeightRule::uniform(1), |w| w));
        assert!(sync_iterations(&BoundedHopCount::new(15), &hops) >= 1);
        let pv = PathVector::new(ShortestPaths::new(), 6);
        assert!(sync_iterations(&pv, &lift_topology(&pv, &varied(6, 5))) >= 1);
        let (alg, adj) = policy_rich_network(6, 6);
        assert!(sync_iterations(&alg, &adj) >= 1);
        let (alg, adj, topo) = gao_rexford_network(&[2, 3, 5], 7);
        assert_eq!(adj.node_count(), topo.node_count());
        assert!(sync_iterations(&alg, &adj) >= 1);
    }

    #[test]
    fn random_states_have_trivial_diagonals() {
        let alg = BoundedHopCount::new(10);
        let states = random_states(&alg, 6, 3, 11);
        assert_eq!(states.len(), 4); // clean + 3 random
        for s in &states {
            for i in 0..6 {
                assert_eq!(s.get(i, i), &alg.trivial());
            }
        }
    }
}
