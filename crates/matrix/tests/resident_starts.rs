//! The resident stepper's two starts against a cold solve.
//!
//! A resident stepper starts at σ's fixed point on a random graph of at
//! most 12 nodes and then takes random batches of changes — links
//! removed, failed both ways, raised, lowered and added, nodes joining —
//! under bounded hop count and under shortest paths, both distributive and
//! strictly increasing.  Each batch is an epoch change of a dynamic
//! asynchronous iteration (arXiv 2012.01686), and σ descends to the new
//! fixed point `X*` from any start at or above it (arXiv 1701.07434).  A
//! second resident stepper takes the same batches from the identity.
//!
//! * **Identity restart, every batch:** `grow`, then `restart` from the
//!   identity.  Every round's rows are upper bounds of `X*`, and the run
//!   lands on it.
//! * **Warm start, add-or-lower batch:** the old fixed point after `grow`
//!   is an upper bound of `X*`.  After `reseed` with the dirty rows the
//!   first round recomputes exactly the dirty rows, every round's rows
//!   stay upper bounds of `X*`, and the run lands on it in no more rounds
//!   than the restart.
//! * **Warm start, worsening batch:** the run lands on `X*`.  Hop count
//!   may climb on the way, so no bound is asserted; shortest paths, whose
//!   carrier is infinite, would count to infinity after a removal, so it
//!   restarts as the route server does (`restart_on_removal`).

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

/// Step `kernel` on `adj` to its fixed point, one round at a time, into
/// `tel`; with `floor`, check after every round that no entry went below
/// it.
fn descend<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    kernel: &mut FixedPoint<A>,
    floor: Option<&RoutingState<A>>,
    tel: &mut impl TelemetrySink,
) -> Result<(), String> {
    let budget = iteration_budget(adj.node_count(), None);
    while !kernel.is_converged() && kernel.rounds() < budget {
        kernel.step(alg, adj, 1, tel);
        if floor.is_some_and(|want| !above(alg, &table(kernel), want)) {
            return Err(format!("round {} went below X*", kernel.rounds()));
        }
    }
    if kernel.is_converged() {
        Ok(())
    } else {
        Err("no fixed point".into())
    }
}

/// Run `batches` random batches from `seed` on the algebra `alg`, whose
/// edges `edge` makes from a weight; `climbs` says whether a warm start
/// after a worsening batch reconverges (a finite carrier) or counts to
/// infinity and is restarted instead.
fn run<A>(
    alg: &A,
    edge: impl Fn(u64) -> A::Edge,
    climbs: bool,
    seed: u64,
    batches: usize,
) -> TestCaseResult
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
    let mut warm = FixedPoint::new(&adj, cold(alg, &adj), &vec![false; n]);
    let mut restarted = FixedPoint::new(&adj, RoutingState::identity(alg, n), &vec![true; n]);
    for batch in 0..batches {
        let improving = change(&mut rng, &mut w);
        let next = build(&w);
        let n = next.node_count();
        let want = cold(alg, &next);

        restarted.grow(alg, n);
        restarted.restart(alg, 0, n);
        let descent = descend(alg, &next, &mut restarted, Some(&want), &mut NoopSink);
        prop_assert!(descent.is_ok(), "batch {}: restart: {:?}", batch, descent);
        prop_assert!(
            table(&restarted) == want,
            "batch {}: the restart is not the cold solve",
            batch
        );

        warm.grow(alg, n);
        let dirty = dirty_rows_after_change(&adj, &next);
        if improving {
            prop_assert!(
                above(alg, &table(&warm), &want),
                "batch {}: an add-or-lower batch left the old fixed point below X*",
                batch
            );
        }
        let from_above = improving || !climbs;
        if improving || climbs {
            warm.reseed(&dirty);
        } else {
            warm.restart(alg, 0, n);
        }
        let mut rounds = Frontiers::default();
        let descent = descend(
            alg,
            &next,
            &mut warm,
            from_above.then_some(&want),
            &mut rounds,
        );
        prop_assert!(
            descent.is_ok(),
            "batch {}: warm start: {:?}",
            batch,
            descent
        );
        prop_assert!(
            table(&warm) == want,
            "batch {}: the warm start is not the cold solve",
            batch
        );
        if improving {
            let dirtied = dirty.iter().filter(|&&d| d).count() as u64;
            prop_assert_eq!(
                rounds.0.first().copied().unwrap_or(0),
                dirtied,
                "batch {}: first frontier",
                batch
            );
            prop_assert!(
                warm.rounds() <= restarted.rounds(),
                "batch {}: {} rounds, a restart takes {}",
                batch,
                warm.rounds(),
                restarted.rounds()
            );
        }
        adj = next;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hop_count_reconverges_from_both_resident_starts(seed in any::<u64>(), batches in 1usize..10) {
        run(&BoundedHopCount::new(8), |w| w, true, seed, batches)?;
    }

    #[test]
    fn shortest_paths_reconverge_from_both_resident_starts(seed in any::<u64>(), batches in 1usize..10) {
        run(&ShortestPaths::new(), NatInf::fin, false, seed, batches)?;
    }
}
