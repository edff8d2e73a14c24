//! The fixed-point kernel walks the naive σ trajectory, whatever drives it.
//!
//! One table: thread count {1, 2, 3, 8} × dirty mask {all rows,
//! `dirty_rows_after_change`} × column window {whole, slabs of 1, 3, n} ×
//! driving {`run`, `step` by `step`, stop-and-resume at every round,
//! `solve`} × every round budget from zero past convergence.  Each cell
//! must reproduce — state, `rounds`/`iterations`, `row_recomputations`,
//! convergence flag and the deterministic event stream — a reference kept
//! here that knows nothing about frontiers' storage, staging or pools: it
//! applies the whole-state `sigma` until the frontier is empty and derives
//! the counters from the definitions.  `solve`'s reference also verifies
//! at the budget boundary.

use dbf_algebra::prelude::*;
use dbf_matrix::prelude::*;
use dbf_telemetry::TelemetrySink;
use dbf_topology::generators;
use std::collections::BTreeSet;

/// A deterministic telemetry event (`wall_ns` dropped).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    RoundStart {
        round: u64,
        scheduled: u64,
        frontier: u64,
    },
    RoundEnd {
        round: u64,
        recomputed: u64,
        changed: u64,
    },
    Settled {
        node: usize,
        round: u64,
    },
}

/// Records the deterministic events, and per round the rows its bands
/// covered (band geometry itself is timing-side and thread-count-dependent).
#[derive(Default)]
struct Recorder {
    events: Vec<Event>,
    band_rows: Vec<(u64, u64)>,
}

impl TelemetrySink for Recorder {
    fn round_start(&mut self, round: u64, scheduled: u64, frontier: u64) {
        self.events.push(Event::RoundStart {
            round,
            scheduled,
            frontier,
        });
    }
    fn round_end(&mut self, round: u64, recomputed: u64, changed: u64, _wall_ns: u64) {
        let banded: u64 = self
            .band_rows
            .iter()
            .filter(|(r, _)| *r == round)
            .map(|(_, rows)| rows)
            .sum();
        assert!(
            banded == 0 || banded == recomputed,
            "round {round}: bands cover {banded} of {recomputed} rows"
        );
        self.events.push(Event::RoundEnd {
            round,
            recomputed,
            changed,
        });
    }
    fn band_sweep(&mut self, round: u64, _band: u64, rows: u64, _weight: u64, _wall_ns: u64) {
        self.band_rows.push((round, rows));
    }
    fn node_settled(&mut self, node: usize, round: u64) {
        self.events.push(Event::Settled { node, round });
    }
}

/// Everything a run is compared on.
#[derive(Debug, PartialEq, Eq)]
struct Trajectory<R> {
    /// The `n × w` window of the final state, row-major.
    rows: Vec<R>,
    rounds: usize,
    iterations: usize,
    row_recomputations: u64,
    converged: bool,
    events: Vec<Event>,
}

fn window<A: RoutingAlgebra>(x: &RoutingState<A>, (j0, w): (usize, usize)) -> Vec<A::Route> {
    (0..x.node_count())
        .flat_map(|i| x.row(i)[j0..j0 + w].to_vec())
        .collect()
}

/// The reference: whole-state `sigma` until the frontier is empty.
/// `mask` is the initial frontier; the window only selects which columns
/// count as a row having changed — σ is column-separable, so columns
/// `j0..j0+w` of `σʳ(x0)` are what a slab holds after `r` rounds.
fn reference<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x0: &RoutingState<A>,
    mask: &[bool],
    win: (usize, usize),
    budget: usize,
) -> Trajectory<A::Route> {
    let n = adj.node_count();
    let mut x = x0.clone();
    let mut frontier: BTreeSet<usize> = (0..n).filter(|&i| mask[i]).collect();
    let mut events = Vec::new();
    let mut settled = vec![0u64; n];
    let (mut rounds, mut row_recomputations, mut quiet) = (0usize, 0u64, false);
    while !frontier.is_empty() && rounds < budget {
        let round = rounds as u64 + 1;
        events.push(Event::RoundStart {
            round,
            scheduled: frontier.len() as u64,
            frontier: frontier.len() as u64,
        });
        let y = sigma(alg, adj, &x);
        let (j0, w) = win;
        let changed: Vec<usize> = (0..n)
            .filter(|&i| y.row(i)[j0..j0 + w] != x.row(i)[j0..j0 + w])
            .collect();
        assert!(
            changed.iter().all(|i| frontier.contains(i)),
            "frontier invariant: a row outside the frontier changed"
        );
        for &i in &changed {
            settled[i] = round;
        }
        events.push(Event::RoundEnd {
            round,
            recomputed: frontier.len() as u64,
            changed: changed.len() as u64,
        });
        row_recomputations += frontier.len() as u64;
        rounds += 1;
        quiet = changed.is_empty();
        frontier = (0..n)
            .filter(|&d| changed.iter().any(|&k| adj.get(d, k).is_some()))
            .collect();
        x = y;
    }
    if win == (0, n) {
        events.extend(
            settled
                .iter()
                .enumerate()
                .map(|(node, &round)| Event::Settled { node, round }),
        );
    }
    Trajectory {
        rows: window(&x, win),
        rounds,
        iterations: rounds - usize::from(quiet),
        row_recomputations,
        converged: frontier.is_empty(),
        events,
    }
}

/// [`reference`] under `FixedPoint::solve`'s budget rule, which decides
/// an unconverged stop by one uncommitted round: a run that stops
/// unconverged gets round `budget + 1` of the reference — its events,
/// settle rounds and recomputations — but keeps the state, rounds and
/// iterations it stopped with, and is converged iff that round changes no
/// row.
fn solve_reference<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x0: &RoutingState<A>,
    mask: &[bool],
    win: (usize, usize),
    budget: usize,
) -> Trajectory<A::Route> {
    let stop = reference(alg, adj, x0, mask, win, budget);
    if stop.converged {
        return stop;
    }
    let next = reference(alg, adj, x0, mask, win, budget + 1);
    let boundary = budget as u64 + 1;
    let changed = next
        .events
        .iter()
        .find_map(|e| match *e {
            Event::RoundEnd { round, changed, .. } if round == boundary => Some(changed),
            _ => None,
        })
        .expect("an unconverged stop leaves a frontier to sweep");
    Trajectory {
        row_recomputations: next.row_recomputations,
        converged: changed == 0,
        events: next.events,
        ..stop
    }
}

#[derive(Clone, Copy, Debug)]
enum Drive {
    Run,
    StepByStep,
    ResumeEveryRound,
    Solve,
}

/// Drive a freshly built kernel to `budget` the given way on `threads`
/// threads and collect what the reference collects.
fn drive<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    mut kernel: FixedPoint<A>,
    budget: usize,
    how: Drive,
    threads: usize,
) -> Trajectory<A::Route> {
    let mut tel = Recorder::default();
    let converged = match how {
        Drive::Run => kernel.run(alg, adj, budget, threads, &mut tel),
        Drive::StepByStep => {
            while !kernel.is_converged() && kernel.rounds() < budget {
                kernel.step(alg, adj, threads, &mut tel);
            }
            kernel.is_converged()
        }
        Drive::ResumeEveryRound => (0..=budget).any(|b| kernel.run(alg, adj, b, threads, &mut tel)),
        Drive::Solve => kernel.solve(alg, adj, budget, threads, &mut tel),
    };
    let (rounds, iterations) = (kernel.rounds(), kernel.iterations());
    let row_recomputations = kernel.row_recomputations();
    let rows = if kernel.width() == adj.node_count() {
        window(&kernel.finish(&mut tel), (0, adj.node_count()))
    } else {
        kernel.rows().flatten().cloned().collect()
    };
    Trajectory {
        rows,
        rounds,
        iterations,
        row_recomputations,
        converged,
        events: tel.events,
    }
}

/// Every thread count × driving mode × budget for one (problem, mask,
/// window) row of the table.  Returns the converged reference so callers
/// can pin the shape of the case.
fn check_cell<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x0: &RoutingState<A>,
    mask: &[bool],
    win: (usize, usize),
    label: &str,
) -> Trajectory<A::Route> {
    let n = adj.node_count();
    let build = || {
        if win == (0, n) {
            FixedPoint::new(adj, x0.clone(), mask)
        } else {
            assert!(
                mask.iter().all(|&d| d),
                "{label}: a slab starts on every row"
            );
            FixedPoint::identity_slab(alg, adj, win.0, win.1)
        }
    };
    let settled = reference(alg, adj, x0, mask, win, usize::MAX);
    assert!(settled.converged, "{label}: the reference must converge");
    for budget in 0..=settled.rounds + 2 {
        let plain = reference(alg, adj, x0, mask, win, budget);
        let solved = solve_reference(alg, adj, x0, mask, win, budget);
        for how in [
            Drive::Run,
            Drive::StepByStep,
            Drive::ResumeEveryRound,
            Drive::Solve,
        ] {
            let expected = if matches!(how, Drive::Solve) {
                &solved
            } else {
                &plain
            };
            for threads in [1, 2, 3, 8] {
                let got = drive(alg, adj, build(), budget, how, threads);
                assert_eq!(
                    got, *expected,
                    "{label} budget={budget} {how:?} threads={threads}"
                );
            }
        }
    }
    settled
}

fn weighted_ring(n: usize) -> AdjacencyMatrix<ShortestPaths> {
    let topo =
        generators::ring(n).with_weights(|i, j| NatInf::fin(((i * 7 + j * 13) % 9 + 1) as u64));
    AdjacencyMatrix::from_topology(&topo)
}

#[test]
fn every_way_of_driving_the_kernel_walks_the_naive_sigma_trajectory() {
    // Shortest paths on a weighted ring, from the identity: whole row and
    // slabs of 1, 3 and n columns (a ragged last slab included).
    let alg = ShortestPaths::new();
    let n = 10;
    let adj = weighted_ring(n);
    let identity = RoutingState::identity(&alg, n);
    let all = vec![true; n];
    let cold = check_cell(&alg, &adj, &identity, &all, (0, n), "ring/all/whole");
    for w in [1, 3, n] {
        for j0 in (0..n).step_by(w) {
            let win = (j0, w.min(n - j0));
            let label = format!("ring/all/{win:?}");
            check_cell(&alg, &adj, &identity, &all, win, &label);
        }
    }

    // Reconvergence after a link failure, from the old fixed point.
    let fixed = RoutingState::<ShortestPaths>::from_fn(n, |i, j| cold.rows[i * n + j]);
    let mut cut = adj.clone();
    cut.set(0, 1, None);
    cut.set(1, 0, None);
    let dirty = dirty_rows_after_change(&adj, &cut);
    assert_eq!(dirty.iter().filter(|&&d| d).count(), 2);
    let re = check_cell(
        &alg,
        &cut,
        &fixed,
        &dirty,
        (0, n),
        "ring/dirty-after-cut/whole",
    );
    assert!(re.row_recomputations < (re.rounds * n) as u64);

    // Widest paths on a skewed fabric from a garbage state: hub rows make
    // the pool's bands uneven, and not every row moves every round.
    let alg = WidestPaths::new();
    let topo = generators::leaf_spine(3, 8)
        .with_weights(|i, j| NatInf::fin(((i * 11 + j * 5) % 90 + 10) as u64));
    let adj = AdjacencyMatrix::from_topology(&topo);
    let garbage = RoutingState::<WidestPaths>::from_fn(11, |i, j| {
        if i == j {
            NatInf::INF
        } else {
            NatInf::fin(((i * 3 + j) % 40) as u64)
        }
    });
    let all = vec![true; 11];
    check_cell(&alg, &adj, &garbage, &all, (0, 11), "fabric/all/whole");

    // Shortest paths with weights a third of the way to the ∞ sentinel:
    // two hops still add, the third lands on `u64::MAX` (or past it, on
    // the heavier edges) and saturates to ∞ mid-run, so the far side of
    // the ring stays unreachable.
    let alg = ShortestPaths::new();
    let n = 7;
    let third = u64::MAX / 3;
    let topo = generators::ring(n).with_weights(|i, _| NatInf::fin(third + (i % 2) as u64));
    let adj = AdjacencyMatrix::from_topology(&topo);
    let (identity, all) = (RoutingState::identity(&alg, n), vec![true; n]);
    let far = check_cell(&alg, &adj, &identity, &all, (0, n), "ring/near-sentinel");
    assert_eq!(far.rows[2], NatInf::fin(2 * third + 1), "0 → 1 → 2 adds");
    assert_eq!(far.rows[3], NatInf::INF, "0 → 1 → 2 → 3 saturates");
    assert_eq!(far.iterations, 2);
    let label = "ring/near-sentinel/slab";
    check_cell(&alg, &adj, &identity, &all, (2, 3), label);
}

#[test]
fn a_changed_row_without_dependants_ends_the_iteration_on_the_empty_frontier() {
    // Node 0 imports from node 1 and nobody imports from node 0: round 1
    // changes row 0 only, so the next frontier is empty.  The iteration
    // stops there, at the naive σ fixed point, with no verifying round:
    // every round it ran changed a row.
    let alg = ShortestPaths::new();
    let n = 4;
    let mut adj = AdjacencyMatrix::<ShortestPaths>::empty(n);
    adj.set(0, 1, Some(NatInf::fin(2)));
    let identity = RoutingState::identity(&alg, n);

    let all = vec![true; n];
    let sink = check_cell(&alg, &adj, &identity, &all, (0, n), "sink-row/all");
    assert_eq!((sink.rounds, sink.iterations), (1, 1));
    assert_eq!(sink.row_recomputations, n as u64);
    let naive = sigma(&alg, &adj, &identity);
    assert!(
        is_stable(&alg, &adj, &naive),
        "one σ round is the fixed point"
    );
    assert_eq!(sink.rows, window(&naive, (0, n)));
    let out = iterate_to_fixed_point(&alg, &adj, &identity, 10);
    assert_eq!((out.iterations, out.rounds, out.converged), (1, 1, true));
    assert_eq!(out.state, naive);

    // A clean mask is converged before any round, even on a zero budget.
    let clean = vec![false; n];
    let idle = check_cell(&alg, &adj, &naive, &clean, (0, n), "sink-row/clean");
    assert_eq!((idle.rounds, idle.converged), (0, true));
}

#[test]
fn the_frontier_reconverges_a_large_fabric_like_a_full_scan_at_half_the_rows() {
    // The incremental engine's bread and butter at the
    // `widest-fabric-scaling` size: a converged 4-spine, 996-leaf fabric
    // loses the spine–leaf link 0 — 65, leaf 65's one wide uplink (95
    // against 10, 15 and 20), so its row really moves.  The dirty-row work
    // queue must land on the state the recompute-everything loop lands
    // on, for at most half the row recomputations.
    let n = 1_000;
    let alg = WidestPaths::new();
    let topo = generators::leaf_spine(4, n - 4)
        .with_weights(|i, j| NatInf::fin(((i * 11 + j * 5) % 90 + 10) as u64));
    let adj = AdjacencyMatrix::from_topology(&topo);
    let baseline = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 4 * n);
    assert!(baseline.converged);

    let mut changed = adj.clone();
    changed.set(0, 65, None);
    changed.set(65, 0, None);
    let dirty = dirty_rows_after_change(&adj, &changed);
    let budget = 4 * n;

    // The scan baseline is this file's reference from every row: the
    // whole-state σ trajectory, costed at `n` row recomputations per
    // changing round.
    let all = vec![true; n];
    let scan = reference(&alg, &changed, &baseline.state, &all, (0, n), budget);
    let frontier = iterate_dirty_to_fixed_point(&alg, &changed, &baseline.state, &dirty, budget);
    assert!(scan.converged && frontier.converged);
    assert!(
        window(&frontier.state, (0, n)) == scan.rows,
        "frontier and full-scan fixed points differ"
    );
    assert!(
        frontier.state != baseline.state,
        "the failure must move the table"
    );
    let scan_work = (n * scan.iterations.max(1)) as u64;
    assert!(
        2 * frontier.row_recomputations <= scan_work,
        "the frontier did {} row recomputations, the full scan {scan_work}",
        frontier.row_recomputations
    );
}

#[test]
fn sigma_is_equivariant_under_relabeling() {
    // For any node permutation P, σ_{PAP⁻¹}(PXP⁻¹) = P σ_A(X) P⁻¹: the
    // ⊕-fold over a row's imports is order-independent (⊕ is associative,
    // commutative and selective) and route values are untouched, so the
    // row kernel may not depend on how the nodes happen to be numbered.
    let alg = WidestPaths::new();
    let topo = generators::leaf_spine(4, 17)
        .with_weights(|i, j| NatInf::fin(((i * 11 + j * 5) % 90 + 10) as u64));
    let adj = AdjacencyMatrix::<WidestPaths>::from_topology(&topo);
    let n = adj.node_count();
    let x = RoutingState::identity(&alg, n);
    let one = sigma(&alg, &adj, &x);
    let full = iterate_to_fixed_point(&alg, &adj, &x, 200);
    assert!(full.converged);
    // `to[old] = new`: hubs moved to the back, and a stride coprime to n.
    let reversed: Vec<usize> = (0..n).rev().collect();
    let strided: Vec<usize> = (0..n).map(|i| i * 8 % n).collect();
    for (name, to) in [("reversed", reversed), ("strided", strided)] {
        let mut from = vec![usize::MAX; n];
        for (old, &new) in to.iter().enumerate() {
            from[new] = old;
        }
        assert!(from.iter().all(|&old| old < n), "{name}: not a permutation");
        let padj =
            AdjacencyMatrix::<WidestPaths>::from_fn(n, |i, j| adj.get(from[i], from[j]).copied());
        assert_eq!(padj.link_count(), adj.link_count(), "{name}");
        let relabeled = |x: &RoutingState<WidestPaths>| {
            RoutingState::<WidestPaths>::from_fn(n, |i, j| *x.get(from[i], from[j]))
        };
        let restored = |x: &RoutingState<WidestPaths>| {
            RoutingState::<WidestPaths>::from_fn(n, |i, j| *x.get(to[i], to[j]))
        };
        // One round commutes ...
        let pone = sigma(&alg, &padj, &relabeled(&x));
        assert_eq!(restored(&pone), one, "{name}: one σ round");
        // ... and so does the whole fixed-point iteration.
        let pfull = iterate_to_fixed_point(&alg, &padj, &relabeled(&x), 200);
        assert!(pfull.converged, "{name}");
        assert_eq!(pfull.iterations, full.iterations, "{name}: same rounds");
        assert_eq!(restored(&pfull.state), full.state, "{name}");
    }
}

#[test]
fn a_resident_stepper_walks_what_a_fresh_one_per_change_walks() {
    // One stepper kept alive across 60 random adjacency changes — edges
    // set, cleared and re-weighted, nodes joining, every seventh change a
    // restart from the identity — against a stepper built fresh for each
    // change from the previous fixed point and started the same way: same
    // events, counters and rows, and its table the one the fresh stepper
    // hands back.  The resident one is only grown and reseeded; its rounds
    // read the new adjacency's dependants.
    // A finite carrier: a removal reconverges from the old table without
    // counting to infinity.
    let alg = BoundedHopCount::new(16);
    let ring = generators::ring(7).with_weights(|i, j| ((i + j) % 3 + 1) as u64);
    let mut adj = AdjacencyMatrix::<BoundedHopCount>::from_topology(&ring);
    let mut resident = FixedPoint::new(&adj, RoutingState::identity(&alg, 7), &[true; 7]);
    let mut solved = RoutingState::identity(&alg, 7);
    let mut seed = 0x2545_f491_4f6c_dd1du64;
    let mut draw = |below: usize| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % below as u64) as usize
    };
    for step in 0..60 {
        let mut next = adj.clone();
        if draw(8) == 0 {
            // a node joins, linked both ways to one peer
            let (n, peer) = (adj.node_count(), draw(adj.node_count()));
            next = AdjacencyMatrix::from_fn(n + 1, |i, j| match (i < n && j < n, (i, j)) {
                (true, _) => adj.get(i, j).copied(),
                (false, link) => (link == (n, peer) || link == (peer, n)).then_some(1),
            });
        }
        let n = next.node_count();
        for _ in 0..1 + draw(3) {
            let (i, j, w) = (draw(n), draw(n), draw(4) as u64);
            if i != j {
                next.set(i, j, (w > 0).then_some(w));
            }
        }
        let mut dirty = dirty_rows_after_change(&adj, &next);
        let restart = step % 7 == 6;
        let start = if restart {
            dirty.fill(true);
            RoutingState::identity(&alg, n)
        } else {
            solved.grown(&alg, n)
        };
        let mut fresh = FixedPoint::new(&next, start, &dirty);
        resident.grow(&alg, n);
        if restart {
            resident.restart(&alg, 0, n);
        } else {
            resident.reseed(&dirty);
        }
        let (mut seen, mut want) = (Recorder::default(), Recorder::default());
        let budget = 4 * n * n + 64;
        assert!(fresh.run(&alg, &next, budget, 1, &mut want));
        assert!(resident.run(&alg, &next, budget, 1, &mut seen));
        assert_eq!(resident.rounds(), fresh.rounds(), "step {step}");
        assert_eq!(
            resident.row_recomputations(),
            fresh.row_recomputations(),
            "step {step}"
        );
        assert!(resident.rows().eq(fresh.rows()), "step {step}");
        resident.emit_settled(&mut seen);
        solved = fresh.finish(&mut want);
        assert_eq!(seen.events, want.events, "step {step}: event stream");
        assert_eq!(
            resident.share(),
            solved,
            "step {step}: the table is the fresh one"
        );
        adj = next;
    }
    assert!(adj.node_count() > 7, "some node joined");
}
