//! Copy-on-write routing states against a deep-copied model.
//!
//! A `RoutingState` clone shares its rows with the original until one of
//! them writes a row, and the fixed-point kernel iterates a state that may
//! share rows with the one it was started from.  Random sequences of
//! clones, entry and row writes, kernel runs (`FixedPoint::new` + `finish`,
//! partial or complete, from a dirty mask, from every row or restarted
//! from the identity) and dirty-row
//! reconvergences run over a pool of states that share rows in every
//! pattern, beside a `Vec<Vec<_>>` model of each.  After every operation:
//!
//! * every state still equals its model, so a write through one state
//!   never shows in another;
//! * a kernel run on a state gives what it gives on a fresh, unshared copy
//!   of the same entries — the same rows and the same counters;
//! * every row starts on a 64-byte line (`n · 8` bytes is a multiple of
//!   the line), as the row kernel's wide builds expect.

use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::prelude::*;
use dbf_matrix::prelude::*;
use dbf_telemetry::NoopSink;
use dbf_topology::generators;
use proptest::prelude::*;

/// A multiple of 8, so that every row of 8-byte routes is whole lines.
const N: usize = 16;
const LIMIT: u64 = 12;

type Model = Vec<Vec<NatInf>>;
type State = RoutingState<BoundedHopCount>;

fn model_of(x: &State) -> Model {
    (0..N).map(|i| x.row(i).to_vec()).collect()
}

/// A fresh state holding `m`'s entries, sharing nothing.
fn fresh(m: &Model) -> State {
    RoutingState::from_fn(N, |i, j| m[i][j])
}

fn route(rng: &mut SplitMix64) -> NatInf {
    match rng.next_below(LIMIT + 2) {
        v if v <= LIMIT => NatInf::fin(v),
        _ => NatInf::INF,
    }
}

fn mask(rng: &mut SplitMix64) -> Vec<bool> {
    let density = 1 + rng.next_below(4);
    (0..N).map(|_| rng.next_below(4) < density).collect()
}

/// A ring with chords, and the same graph with one chord and one ring
/// link cut — the two adjacencies a reconvergence moves between.
fn adjacencies() -> [AdjacencyMatrix<BoundedHopCount>; 2] {
    let mut topo = generators::ring(N).with_weights(|_, _| 1u64);
    for (a, b) in [(0, 8), (3, 11), (5, 13)] {
        topo.set_link(a, b, 1);
    }
    let whole = AdjacencyMatrix::from_topology(&topo);
    topo.remove_link(0, 8);
    topo.remove_link(4, 5);
    [whole, AdjacencyMatrix::from_topology(&topo)]
}

fn aligned(x: &State) -> bool {
    (0..N).all(|i| (x.row(i).as_ptr() as usize).is_multiple_of(64))
}

/// Run one random sequence of `ops` operations from `seed`.
fn run(seed: u64, ops: usize) -> TestCaseResult {
    let alg = BoundedHopCount::new(LIMIT);
    let adjs = adjacencies();
    let mut rng = SplitMix64::new(seed);
    let first = RoutingState::identity(&alg, N);
    let mut pool: Vec<(State, Model)> = vec![(first.clone(), model_of(&first))];
    for step in 0..ops {
        let k = rng.next_below(pool.len() as u64) as usize;
        let adj = &adjs[rng.next_below(2) as usize];
        match rng.next_below(7) {
            0 | 1 => {
                let copy = pool[k].clone();
                if pool.len() < 6 {
                    pool.push(copy);
                } else {
                    pool[rng.next_below(6) as usize] = copy;
                }
            }
            2 => {
                let (i, j, r) = (
                    rng.next_below(N as u64) as usize,
                    rng.next_below(N as u64) as usize,
                    route(&mut rng),
                );
                pool[k].0.set(i, j, r);
                pool[k].1[i][j] = r;
            }
            3 => {
                let i = rng.next_below(N as u64) as usize;
                let row: Vec<NatInf> = (0..N).map(|_| route(&mut rng)).collect();
                pool[k].0.row_mut(i).copy_from_slice(&row);
                pool[k].1[i] = row;
            }
            4 => {
                // A kernel run, stopped after a few rounds or at the end,
                // sometimes restarted from the identity first.
                let dirty = mask(&mut rng);
                let start = if rng.next_below(3) == 0 {
                    Start::AllRows
                } else {
                    Start::Dirty(&dirty)
                };
                let restart = rng.next_below(4) == 0;
                let budget = rng.next_below(6) as usize;
                let solve = |x: State| {
                    let mut kernel = FixedPoint::new(adj, x, start);
                    if restart {
                        kernel.restart_from_identity(&alg);
                    }
                    kernel.run(&alg, adj, budget, &Inline, &mut NoopSink);
                    let counters = (kernel.rounds(), kernel.row_recomputations());
                    (kernel.finish(&mut NoopSink), counters)
                };
                let (got, got_counters) = solve(pool[k].0.clone());
                let (want, want_counters) = solve(fresh(&pool[k].1));
                prop_assert!(got == want, "step {}: kernel rows", step);
                prop_assert_eq!(got_counters, want_counters, "step {}: counters", step);
                let model = model_of(&want);
                pool.push((got, model));
            }
            5 => {
                let dirty = mask(&mut rng);
                let budget = 4 * N * N;
                let got = iterate_dirty_to_fixed_point(&alg, adj, &pool[k].0, &dirty, budget);
                let want =
                    iterate_dirty_to_fixed_point(&alg, adj, &fresh(&pool[k].1), &dirty, budget);
                prop_assert!(got.state == want.state, "step {}: reconverged rows", step);
                prop_assert_eq!(
                    (
                        got.rounds,
                        got.iterations,
                        got.row_recomputations,
                        got.converged
                    ),
                    (
                        want.rounds,
                        want.iterations,
                        want.row_recomputations,
                        want.converged
                    ),
                    "step {}: counters",
                    step
                );
                let model = model_of(&want.state);
                pool.push((got.state, model));
            }
            _ => {
                if pool.len() > 1 {
                    pool.swap_remove(k);
                }
            }
        }
        if pool.len() > 6 {
            pool.remove(0);
        }
        for (x, m) in &pool {
            prop_assert!(
                (0..N).all(|i| x.row(i) == &m[i][..]),
                "step {}: a state differs from its model",
                step
            );
            prop_assert!(aligned(x), "step {}: a row off its cache line", step);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn shared_rows_behave_like_deep_copies(seed in any::<u64>(), ops in 1usize..80) {
        run(seed, ops)?;
    }
}

/// The fabric stage's reconvergences in small: widest paths on
/// `as_graph(256, 2)`, four links failed and restored from the fixed
/// point.  Reconverging from the borrowed fixed point — whose rows the
/// output shares — and from a deep copy of it follow one trajectory.
#[test]
fn a_reconvergence_from_a_borrowed_table_follows_the_deep_copys_trajectory() {
    let n = 256;
    let shape = generators::as_graph(n, 2, 1);
    let topo = shape.with_weights(|i, j| NatInf::fin(((11 * i + 5 * j) % 90 + 10) as u64));
    let alg = WidestPaths::new();
    let adj = AdjacencyMatrix::<WidestPaths>::from_topology(&topo);
    let budget = iteration_budget(n, None);
    let fixed = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), budget);
    assert!(fixed.converged);
    let deep = |x: &RoutingState<WidestPaths>| RoutingState::from_fn(n, |i, j| *x.get(i, j));
    let reconverge = |old: &AdjacencyMatrix<WidestPaths>,
                      new: &AdjacencyMatrix<WidestPaths>,
                      from: &RoutingState<WidestPaths>| {
        let dirty = dirty_rows_after_change(old, new);
        let shared = iterate_dirty_to_fixed_point(&alg, new, from, &dirty, budget);
        let copied = iterate_dirty_to_fixed_point(&alg, new, &deep(from), &dirty, budget);
        assert!(shared.state == copied.state, "reconverged rows");
        assert_eq!(
            (
                shared.rounds,
                shared.iterations,
                shared.row_recomputations,
                shared.converged
            ),
            (
                copied.rounds,
                copied.iterations,
                copied.row_recomputations,
                copied.converged
            ),
        );
        assert!(shared.converged);
        shared
    };
    let links: Vec<(usize, usize)> = shape
        .edges()
        .filter(|&(i, j, _)| i < j)
        .map(|(i, j, _)| (i, j))
        .step_by(97)
        .take(4)
        .collect();
    assert_eq!(links.len(), 4);
    for (a, b) in links {
        let mut cut = topo.clone();
        cut.remove_link(a, b);
        let cut = AdjacencyMatrix::<WidestPaths>::from_topology(&cut);
        let down = reconverge(&adj, &cut, &fixed.state);
        assert!(is_stable(&alg, &cut, &down.state));
        let up = reconverge(&cut, &adj, &down.state);
        assert!(
            up.state == fixed.state,
            "the restored table is the cold one"
        );
    }
}
