//! Every counter the library's σ entry points report, pinned per round
//! budget.
//!
//! Two problems — hop count (limit 16) on ring(6) and shortest paths on a
//! weighted ring(10), both from the identity, plus the weighted ring's
//! reconvergence after link 0—1 fails — are solved through
//! `iterate_to_fixed_point`, `par_iterate_to_fixed_point` (2 threads),
//! `iterate_dirty_to_fixed_point` (every row dirty, and the rows
//! `dirty_rows_after_change` marks) and `blocked_fixed_point` (widths 1, 3
//! and n), at every budget from 0 to two rounds past the one the full
//! sweep settles in.  Each line holds what the call reports: a digest of
//! the returned state (or the blocked digest) and its counters.
//!
//! A dirty start that runs out of budget before its frontier empties is
//! left out: the table pins only the cells on which every σ entry point
//! shares one budget rule.

use dbf_algebra::prelude::*;
use dbf_matrix::prelude::*;
use dbf_topology::generators;
use std::fmt::Debug;

const PINNED: &str = include_str!("sigma_counters.txt");

/// FNV-1a over every entry's `Debug` text, in row-major order.
fn digest<A: RoutingAlgebra>(state: &RoutingState<A>) -> String
where
    A::Route: Debug,
{
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (_, _, r) in state.entries() {
        for b in format!("{r:?};").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// One problem's lines: every entry point at every budget.
fn lines<A>(
    name: &str,
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x0: &RoutingState<A>,
    dirty: &[bool],
    out: &mut String,
) where
    A: ParallelAlgebra,
    A::Route: Send + Sync + Debug,
    A::Edge: Sync,
{
    let n = adj.node_count();
    let unlimited = iteration_budget(n, None);
    let settle = iterate_to_fixed_point(alg, adj, x0, unlimited).iterations + 1;
    let dirty_settle = iterate_dirty_to_fixed_point(alg, adj, x0, dirty, unlimited).rounds;
    let identity_start = *x0 == RoutingState::identity(alg, n);
    for budget in 0..=settle + 2 {
        let mut line = |entry: &str, text: String| {
            out.push_str(&format!("{name} {entry} budget={budget} {text}\n"));
        };
        let sync = iterate_to_fixed_point(alg, adj, x0, budget);
        line(
            "sync",
            format!(
                "digest={} iterations={} converged={}",
                digest(&sync.state),
                sync.iterations,
                sync.converged
            ),
        );
        let par = par_iterate_to_fixed_point(alg, adj, x0, budget, 2);
        line(
            "par2",
            format!(
                "digest={} iterations={} converged={}",
                digest(&par.state),
                par.iterations,
                par.converged
            ),
        );
        if budget >= dirty_settle {
            let inc = iterate_dirty_to_fixed_point(alg, adj, x0, dirty, budget);
            line(
                "dirty",
                format!(
                    "digest={} rounds={} row_recomputations={} converged={}",
                    digest(&inc.state),
                    inc.rounds,
                    inc.row_recomputations,
                    inc.converged
                ),
            );
        }
        if identity_start {
            for width in [1, 3, n] {
                let b = blocked_fixed_point(alg, adj, width, budget, |_, _, _| {});
                line(
                    &format!("blocked{width}"),
                    format!(
                        "digest={} blocks={} rounds_total={} rounds_max={} row_recomputations={} converged={}",
                        b.digest, b.blocks, b.rounds_total, b.rounds_max, b.row_recomputations, b.converged
                    ),
                );
            }
        }
    }
}

fn weighted_ring(n: usize) -> AdjacencyMatrix<ShortestPaths> {
    let topo =
        generators::ring(n).with_weights(|i, j| NatInf::fin(((i * 7 + j * 13) % 9 + 1) as u64));
    AdjacencyMatrix::from_topology(&topo)
}

fn table() -> String {
    let mut out = String::new();

    let alg = BoundedHopCount::new(16);
    let topo = generators::ring(6).with_weights(|_, _| 1u64);
    let adj = AdjacencyMatrix::<BoundedHopCount>::from_topology(&topo);
    let x0 = RoutingState::identity(&alg, 6);
    lines("hop-ring6", &alg, &adj, &x0, &[true; 6], &mut out);

    let alg = ShortestPaths::new();
    let adj = weighted_ring(10);
    let x0 = RoutingState::identity(&alg, 10);
    lines("shortest-ring10", &alg, &adj, &x0, &[true; 10], &mut out);

    let fixed = iterate_to_fixed_point(&alg, &adj, &x0, 100).state;
    let mut cut = adj.clone();
    cut.set(0, 1, None);
    cut.set(1, 0, None);
    let dirty = dirty_rows_after_change(&adj, &cut);
    lines("shortest-ring10-cut", &alg, &cut, &fixed, &dirty, &mut out);
    out
}

#[test]
fn every_sigma_entry_point_reports_its_pinned_counters_at_every_budget() {
    let got = table();
    for (k, (got, want)) in got.lines().zip(PINNED.lines()).enumerate() {
        assert_eq!(got, want, "line {}", k + 1);
    }
    assert_eq!(got.lines().count(), PINNED.lines().count(), "line count");
}
