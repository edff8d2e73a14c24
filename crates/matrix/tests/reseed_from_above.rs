//! `FixedPoint::reseed_from_above` against a cold solve.
//!
//! A resident stepper starts at σ's fixed point on a random graph of at
//! most 12 nodes and then takes random batches of changes — links
//! removed, failed both ways, raised, lowered and added, nodes joining —
//! under bounded hop count and under shortest paths, both distributive and
//! strictly increasing.  After each step:
//!
//! * every entry is an upper bound of the new network's cold solve, `X*`;
//! * every row outside the frontier (the dirty rows and the rows with an
//!   invalidated entry) satisfies `σ(X)_i = X_i`, checked through
//!   `sigma_row_into`, and the first round recomputes exactly the
//!   frontier;
//! * a batch that only adds or lowers links invalidates nothing;
//! * every round's rows stay upper bounds of `X*`, and the run lands on
//!   it;
//! * the run takes no more rounds than a restart: `FixedPoint::new` from
//!   the identity with every row dirty.

use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::prelude::*;
use dbf_matrix::prelude::*;
use dbf_telemetry::{NoopSink, TelemetrySink};
use proptest::prelude::*;

const MAX_NODES: usize = 12;

/// Link weights, `w[i][k]` the weight of node `i`'s import from `k`.
type Weights = Vec<Vec<Option<u64>>>;

/// The frontier each round recomputes, from `round_start`.
#[derive(Default)]
struct Frontiers(Vec<u64>);

impl TelemetrySink for Frontiers {
    fn round_start(&mut self, _round: u64, _scheduled: u64, frontier: u64) {
        self.0.push(frontier);
    }
}

fn below(rng: &mut SplitMix64, bound: usize) -> usize {
    rng.next_below(bound as u64) as usize
}

/// Some present link `(i, k)`, if there is one.
fn some_link(rng: &mut SplitMix64, w: &Weights) -> Option<(usize, usize)> {
    let links: Vec<(usize, usize)> = (0..w.len())
        .flat_map(|i| (0..w.len()).map(move |k| (i, k)))
        .filter(|&(i, k)| w[i][k].is_some())
        .collect();
    (!links.is_empty()).then(|| links[below(rng, links.len())])
}

/// One random batch applied to `w`; whether it only added or lowered
/// links (a node joining adds its links).
fn change(rng: &mut SplitMix64, w: &mut Weights) -> bool {
    let mut improving = true;
    for _ in 0..1 + below(rng, 3) {
        let n = w.len();
        match below(rng, 6) {
            0 => {
                if let Some((i, k)) = some_link(rng, w) {
                    w[i][k] = None;
                    improving = false;
                }
            }
            1 => {
                if let Some((i, k)) = some_link(rng, w) {
                    (w[i][k], w[k][i]) = (None, None);
                    improving = false;
                }
            }
            2 => {
                if let Some((i, k)) = some_link(rng, w) {
                    w[i][k] = w[i][k].map(|x| x + 1 + rng.next_below(3));
                    improving = false;
                }
            }
            3 => {
                if let Some((i, k)) = some_link(rng, w) {
                    w[i][k] = w[i][k].map(|x| 1 + rng.next_below(x));
                }
            }
            4 => {
                let (i, k) = (below(rng, n), below(rng, n));
                if i != k && w[i][k].is_none() {
                    w[i][k] = Some(1 + rng.next_below(4));
                }
            }
            _ if n < MAX_NODES => {
                let peer = below(rng, n);
                for row in w.iter_mut() {
                    row.push(None);
                }
                w.push(vec![None; n + 1]);
                (w[n][peer], w[peer][n]) = (Some(1), Some(1 + rng.next_below(4)));
            }
            _ => {}
        }
    }
    improving
}

fn cold<A: RoutingAlgebra>(alg: &A, adj: &AdjacencyMatrix<A>) -> RoutingState<A> {
    let n = adj.node_count();
    let solved = iterate_to_fixed_point(
        alg,
        adj,
        &RoutingState::identity(alg, n),
        iteration_budget(n, None),
    );
    assert!(solved.converged);
    solved.state
}

fn table<A: RoutingAlgebra>(kernel: &FixedPoint<A>) -> RoutingState<A> {
    let rows: Vec<&[A::Route]> = kernel.rows().collect();
    RoutingState::from_fn(rows.len(), |i, j| rows[i][j].clone())
}

/// Every entry of `x` is at least `bound`'s.
fn above<A: RoutingAlgebra>(alg: &A, x: &RoutingState<A>, bound: &RoutingState<A>) -> bool {
    x.entries()
        .all(|(i, j, r)| alg.route_le(bound.get(i, j), r))
}

/// Run `batches` random batches from `seed` on the algebra `alg`, whose
/// edges `edge` makes from a weight.
fn run<A>(alg: &A, edge: impl Fn(u64) -> A::Edge, seed: u64, batches: usize) -> TestCaseResult
where
    A: RoutingAlgebra,
    A::Edge: PartialEq,
{
    let mut rng = SplitMix64::new(seed);
    let n = 4 + below(&mut rng, MAX_NODES - 3);
    let mut w: Weights = vec![vec![None; n]; n];
    for _ in 0..2 * n {
        let (i, k) = (below(&mut rng, n), below(&mut rng, n));
        if i != k {
            w[i][k] = Some(1 + rng.next_below(4));
        }
    }
    let build = |w: &Weights| AdjacencyMatrix::from_fn(w.len(), |i, k| w[i][k].map(&edge));
    let mut adj = build(&w);
    let mut kernel = FixedPoint::new(&adj, cold(alg, &adj), &vec![false; n]);
    for batch in 0..batches {
        let improving = change(&mut rng, &mut w);
        let next = build(&w);
        let n = next.node_count();
        let want = cold(alg, &next);
        kernel.grow(alg, n);
        let before = table(&kernel);
        let dirty = dirty_rows_after_change(&adj, &next);
        let dirtied = kernel.reseed_from_above(alg, &adj, &next);
        prop_assert_eq!(dirtied, dirty.iter().filter(|&&d| d).count());

        let x = table(&kernel);
        prop_assert!(
            above(alg, &x, &want),
            "batch {}: the step left an entry below X*",
            batch
        );
        let invalidated: Vec<bool> = (0..n)
            .map(|i| (0..n).any(|j| *x.get(i, j) != *before.get(i, j)))
            .collect();
        for i in 0..n {
            prop_assert!(
                x.row(i)
                    .iter()
                    .zip(before.row(i))
                    .all(|(now, was)| *now == *was || alg.is_invalid(now)),
                "batch {}: row {} changed other than to ∞̄",
                batch,
                i
            );
        }
        prop_assert!(
            !improving || !invalidated.contains(&true),
            "batch {}: a batch that adds or lowers links invalidated an entry",
            batch
        );
        let frontier: Vec<usize> = (0..n).filter(|&i| dirty[i] || invalidated[i]).collect();
        let mut out = vec![alg.invalid(); n];
        for i in (0..n).filter(|i| !frontier.contains(i)) {
            sigma_row_into(alg, &next, &x, i, &mut out);
            prop_assert!(
                out == x.row(i),
                "batch {}: row {} is not σ-stable",
                batch,
                i
            );
        }

        let budget = iteration_budget(n, None);
        let mut rounds = Frontiers::default();
        while !kernel.is_converged() && kernel.rounds() < budget {
            kernel.step(alg, &next, 1, &mut rounds);
            prop_assert!(
                above(alg, &table(&kernel), &want),
                "batch {}: round {} went below X*",
                batch,
                kernel.rounds()
            );
        }
        prop_assert!(kernel.is_converged(), "batch {}: no fixed point", batch);
        prop_assert!(
            table(&kernel) == want,
            "batch {}: not the cold solve",
            batch
        );
        if let Some(&first) = rounds.0.first() {
            prop_assert_eq!(
                first,
                frontier.len() as u64,
                "batch {}: first frontier",
                batch
            );
        } else {
            prop_assert!(
                frontier.is_empty(),
                "batch {}: a frontier never stepped",
                batch
            );
        }
        let mut restart = FixedPoint::new(&next, RoutingState::identity(alg, n), &vec![true; n]);
        prop_assert!(restart.run(alg, &next, budget, 1, &mut NoopSink));
        prop_assert!(
            kernel.rounds() <= restart.rounds(),
            "batch {}: {} rounds, a restart takes {}",
            batch,
            kernel.rounds(),
            restart.rounds()
        );
        adj = next;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hop_count_descends_from_an_invalidated_fixed_point(seed in any::<u64>(), batches in 1usize..10) {
        run(&BoundedHopCount::new(8), |w| w, seed, batches)?;
    }

    #[test]
    fn shortest_paths_descend_from_an_invalidated_fixed_point(seed in any::<u64>(), batches in 1usize..10) {
        run(&ShortestPaths::new(), NatInf::fin, seed, batches)?;
    }
}
