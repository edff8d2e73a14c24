//! The synchronous iteration operator `σ(X) = A(X) ⊕ I` (Section 2.2).
//!
//! [`sigma`] and [`sigma_row_into`] are the plain reference.  Every engine
//! path — cold, blocked, incremental, the route server, [`crate::is_stable`]
//! and the asynchronous iterate δ of `dbf-async` — recomputes rows through
//! one fused row kernel instead.  The kernel reads each import's row
//! through an accessor given the import's position and node, so σ passes
//! the current rows and δ passes the version of each row that the import
//! reads ([`sigma_row_from_changed`]).  Its body is generic and compiled up
//! to three times: for the target's baseline, for AVX2 and for AVX-512 (F
//! and VL).  The widest build the CPU reports is picked once per process
//! ([`row_kernel`] names it).  There are no intrinsics and no per-algebra
//! code: the algebras' `#[inline]` leaf ops are inlined into each build,
//! and LLVM vectorizes what it can — the `u64` min/max and saturating adds
//! of the integer carriers, which baseline x86-64 (SSE2) runs one entry at
//! a time.  Every build computes the same rows and the same change flags,
//! so digests and counts do not depend on the machine.
//!
//! The fold `d ← d ⊕ c` is chosen by the route type.  A route that owns
//! heap data (path-vector, BGP, Gao-Rexford and SPP routes) keeps `d`
//! unless `c` beats it, in place, so no winner is cloned; every other route
//! folds through `choice`, which vectorizes.  The two are the same value
//! because ⊕ is selective (`d ⊕ c ∈ {d, c}`, a law of [`RoutingAlgebra`]).
//!
//! A 64-byte access straddles two cache lines unless its address is a
//! multiple of 64, and `malloc` only promises 16.  So the state and the
//! kernel's row buffers start on a line (`lines.rs`): where each row
//! starts within a line is then a function of its index and width, not of
//! what the process allocated before, and the wide builds' speed does not
//! change from one process to the next.

use crate::adjacency::AdjacencyMatrix;
use crate::state::RoutingState;
use crate::table::Rows;
use dbf_algebra::RoutingAlgebra;
use dbf_paths::NodeId;
use std::sync::OnceLock;

/// Recompute node `i`'s entire next table `σ(X)[i][·]` into `out` (a slice
/// of length `n`).
///
/// This is one row of [`sigma`]; the fixed-point kernel recomputes
/// rows with the fused, windowed form below.  The write streams over `out`
/// once per present link, so the cost is `O(deg(i) · n)`.
///
/// # Panics
///
/// Panics if `adj` and `x` disagree on the node count or if `out` is not
/// exactly `n` entries long.
pub fn sigma_row_into<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x: &RoutingState<A>,
    i: NodeId,
    out: &mut [A::Route],
) {
    let n = adj.node_count();
    assert_eq!(
        n,
        x.node_count(),
        "adjacency and state dimensions must match"
    );
    assert_eq!(n, out.len(), "output row length must match");
    for r in out.iter_mut() {
        *r = alg.invalid();
    }
    for (k, f) in adj.row(i) {
        let src = x.row(*k);
        for (d, s) in out.iter_mut().zip(src.iter()) {
            let candidate = alg.extend(f, s);
            *d = alg.choice(d, &candidate);
        }
    }
    out[i] = alg.trivial();
}

/// [`sigma_row_into`] fused with the change test: recompute node `i`'s
/// next table into `out` and report whether it differs from the current
/// row `X[i][·]` — the comparison happens *during* the final streaming
/// write, so the fixed-point kernel needs no second full-row `Eq` pass over
/// a row that was just computed.  This is the windowed row kernel over
/// the whole-row window `(0, n)`.
///
/// # Panics
///
/// Panics if `adj` and `x` disagree on the node count or if `out` is not
/// exactly `n` entries long.
pub fn sigma_row_into_changed<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x: &RoutingState<A>,
    i: NodeId,
    out: &mut [A::Route],
) -> bool {
    let n = adj.node_count();
    assert_eq!(
        n,
        x.node_count(),
        "adjacency and state dimensions must match"
    );
    assert_eq!(n, out.len(), "output row length must match");
    sigma_row_window_changed(alg, adj, x.table().view(), 0, i, out)
}

/// σ's row rule with each import read from a row of the caller's choice:
/// recompute `⨁ₖ A_ik(src(p, k)) ⊕ Iᵢ` into `out`, where `k` is the
/// import at position `p` of `adj.row(i)`, and report whether the row
/// differs from `old`.  With `src(p, k)` the version of row `k` that `i`
/// reads at time `t`, this is one row of the asynchronous iterate δ
/// (Section 3.1); with `src(_, k) = X[k]` it is [`sigma_row_into_changed`].
/// It runs the same kernel builds as every σ engine path.
///
/// # Panics
///
/// Panics if `old`, `out` or a source row is not exactly `n` entries long.
pub fn sigma_row_from_changed<'r, A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    i: NodeId,
    src: impl Fn(usize, NodeId) -> &'r [A::Route],
    old: &[A::Route],
    out: &mut [A::Route],
) -> bool
where
    A::Route: 'r,
{
    let n = adj.node_count();
    assert_eq!(n, old.len(), "current row length must match");
    assert_eq!(n, out.len(), "output row length must match");
    let src = |p, k| {
        let row = src(p, k);
        assert_eq!(n, row.len(), "source row length must match");
        row
    };
    row_window_at(level(), alg, adj, src, old, 0, i, out)
}

/// The windowed form of the row kernel that every σ engine path runs:
/// recompute `σ(cur)[i][j0..j0+w]` into `out` and report whether it
/// differs from `cur`'s row `i`, where `cur` holds the `n` rows of
/// destination columns `j0..j0+w` of the state (σ is column-separable, so
/// a column window iterates on its own — see [`crate::blocked`]).  The
/// square state is the window `(0, n)`.  Every row is read through
/// [`Rows::row`], so a row the table shares with another state reads like
/// its own.
pub(crate) fn sigma_row_window_changed<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    cur: Rows<'_, A::Route>,
    j0: usize,
    i: NodeId,
    out: &mut [A::Route],
) -> bool {
    row_window_at(level(), alg, adj, |_, k| cur.row(k), cur.row(i), j0, i, out)
}

/// The vector widths the fused row kernel is compiled for, narrowest
/// first.  A level implies every level before it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    /// The target's baseline (SSE2 on x86-64: no 64-bit unsigned compare,
    /// so `u64` min/max and saturating adds run one entry at a time).
    Portable,
    /// 256-bit AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX2 plus AVX-512F/VL (unsigned 64-bit min/max, mask compares).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => "avx512",
        }
    }
}

/// The widest level this host runs, detected once per process.
fn level() -> Level {
    static LEVEL: OnceLock<Level> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
                Level::Avx512
            } else {
                Level::Avx2
            };
        }
        Level::Portable
    })
}

/// Which build of the fused row kernel σ and δ run in this process:
/// `"avx512"`, `"avx2"` or `"portable"`.  Chosen once, from what the CPU
/// reports; every build gives the same rows, digests and counts.
pub fn row_kernel() -> &'static str {
    level().name()
}

/// The row kernel at level `want`, capped at [`level`].  Every level
/// computes the same row and the same flag.
#[allow(unsafe_code, clippy::too_many_arguments)]
fn row_window_at<'r, A: RoutingAlgebra>(
    want: Level,
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    src: impl Fn(usize, NodeId) -> &'r [A::Route],
    old: &[A::Route],
    j0: usize,
    i: NodeId,
    out: &mut [A::Route],
) -> bool
where
    A::Route: 'r,
{
    match want.min(level()) {
        Level::Portable => row_window(alg, adj, src, old, j0, i, out),
        // SAFETY: the level is at most `level()`, which is `Avx2` only if
        // `is_x86_feature_detected!` reported avx2 and `Avx512` only if it
        // also reported avx512f and avx512vl — every feature the wrapper
        // enables is present on this CPU.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { row_window_avx2(alg, adj, src, old, j0, i, out) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx512 => unsafe { row_window_avx512(alg, adj, src, old, j0, i, out) },
    }
}

/// [`row_window`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn row_window_avx2<'r, A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    src: impl Fn(usize, NodeId) -> &'r [A::Route],
    old: &[A::Route],
    j0: usize,
    i: NodeId,
    out: &mut [A::Route],
) -> bool
where
    A::Route: 'r,
{
    row_window(alg, adj, src, old, j0, i, out)
}

/// [`row_window`] compiled for AVX-512 (F and VL, on top of AVX2).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512vl")]
fn row_window_avx512<'r, A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    src: impl Fn(usize, NodeId) -> &'r [A::Route],
    old: &[A::Route],
    j0: usize,
    i: NodeId,
    out: &mut [A::Route],
) -> bool
where
    A::Route: 'r,
{
    row_window(alg, adj, src, old, j0, i, out)
}

/// The row kernel's one body: `out = ⨁ₚ A_ik(src(p, k)) ⊕ Iᵢ` over the
/// imports `(k, A_ik)` at positions `p` of `adj.row(i)`, and whether `out`
/// differs from `old`.  It is `inline(always)`, and so are [`fold`] and
/// [`commit_row`], so that each wrapper above compiles all of it — and the
/// algebra's `#[inline]` leaf ops — for its own vector width.
#[inline(always)]
fn row_window<'r, A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    src: impl Fn(usize, NodeId) -> &'r [A::Route],
    old: &[A::Route],
    j0: usize,
    i: NodeId,
    out: &mut [A::Route],
) -> bool
where
    A::Route: 'r,
{
    // Window-local position of the diagonal entry.  For a row outside the
    // window the subtraction wraps (or lands at `>= w`), so it matches no
    // local column and no override happens.
    let diag = i.wrapping_sub(j0);
    let trivial = alg.trivial();
    let imports = adj.row(i);
    match imports.split_last() {
        // No imports: the row is ∞̄ everywhere except the diagonal.
        None => commit_row(out, old, old, diag, trivial, |d, _| *d = alg.invalid()),
        Some(((last_k, last_f), rest)) => {
            // The first import *writes* `out` rather than folding into a
            // row pre-filled with ∞̄ (`∞̄ ⊕ x = x` is a required law), the
            // middle ones fold into it, and the last import's pass doubles
            // as the write-out-and-compare pass (the adjacency row never
            // contains `i`, so `last_k != i` and the diagonal override
            // cannot alias the source row).
            let last = src(rest.len(), *last_k);
            match rest.split_first() {
                None => commit_row(out, last, old, diag, trivial, |d, s| {
                    *d = alg.extend(last_f, s)
                }),
                Some(((first_k, first_f), middle)) => {
                    for (d, s) in out.iter_mut().zip(src(0, *first_k)) {
                        *d = alg.extend(first_f, s);
                    }
                    for (p, (k, f)) in middle.iter().enumerate() {
                        for (d, s) in out.iter_mut().zip(src(p + 1, *k)) {
                            fold(alg, d, alg.extend(f, s));
                        }
                    }
                    commit_row(out, last, old, diag, trivial, |d, s| {
                        fold(alg, d, alg.extend(last_f, s))
                    })
                }
            }
        }
    }
}

/// `*d = d ⊕ c`.  A route that owns heap data (a path, a BGP route) is
/// kept unless `c` beats it, so the winner is never cloned: ⊕ is selective
/// (`d ⊕ c ∈ {d, c}`, a law of [`RoutingAlgebra`]), so `d ⊕ c = d` exactly
/// when `d ≤ c`, and both forms give the same value.  Every other route —
/// the integer and reliability carriers — keeps `choice`, which LLVM
/// vectorizes.  `needs_drop` is a constant for each route type, so each
/// build compiles one of the two.
#[inline(always)]
fn fold<A: RoutingAlgebra>(alg: &A, d: &mut A::Route, c: A::Route) {
    if std::mem::needs_drop::<A::Route>() {
        if !alg.route_le(d, &c) {
            *d = c;
        }
    } else {
        *d = alg.choice(d, &c);
    }
}

/// The write-out-and-compare pass of the row kernel: `step(&mut out[j],
/// &src[j])` updates `out[j]` in place (`0̄` at the window-local diagonal
/// `diag`), and the result says whether the finished row differs from
/// `old`.
#[inline(always)]
fn commit_row<R: Clone + PartialEq>(
    out: &mut [R],
    src: &[R],
    old: &[R],
    diag: usize,
    trivial: R,
    step: impl Fn(&mut R, &R),
) -> bool {
    let mut changed = false;
    for (j, ((d, s), o)) in out.iter_mut().zip(src).zip(old).enumerate() {
        if j == diag {
            *d = trivial.clone();
        } else {
            step(d, s);
        }
        changed |= *d != *o;
    }
    changed
}

/// One synchronous round of the Distributed Bellman-Ford computation:
/// every node simultaneously recomputes its table from its neighbours'
/// current tables.
///
/// This is the plain whole-state σ the fixed-point kernel is tested
/// against, one [`sigma_row_into`] per node.
///
/// # Panics
///
/// Panics if `adj` and `x` disagree on the node count.
pub fn sigma<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x: &RoutingState<A>,
) -> RoutingState<A> {
    let n = adj.node_count();
    assert_eq!(
        n,
        x.node_count(),
        "adjacency and state dimensions must match"
    );
    let mut out = RoutingState::uniform(n, alg.invalid());
    for i in 0..n {
        sigma_row_into(alg, adj, x, i, out.row_mut(i));
    }
    out
}

/// The `k`-fold iterate `σᵏ(X)`.
pub fn sigma_k<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x: &RoutingState<A>,
    k: usize,
) -> RoutingState<A> {
    let mut cur = x.clone();
    for _ in 0..k {
        cur = sigma(alg, adj, &cur);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lines::Lines;
    use crate::table::Table;
    use dbf_algebra::algebra::SplitMix64;
    use dbf_algebra::prelude::*;
    use dbf_topology::generators;

    fn line3() -> (ShortestPaths, AdjacencyMatrix<ShortestPaths>) {
        let alg = ShortestPaths::new();
        let topo = generators::line(3).with_weights(|_, _| NatInf::fin(1));
        (alg, AdjacencyMatrix::from_topology(&topo))
    }

    #[test]
    fn diagonal_is_always_trivial_after_one_round() {
        // Lemma 1 of the paper.
        let (alg, adj) = line3();
        let garbage = RoutingState::<ShortestPaths>::uniform(3, NatInf::fin(42));
        let next = sigma(&alg, &adj, &garbage);
        for i in 0..3 {
            assert_eq!(next.get(i, i), &NatInf::fin(0));
        }
    }

    #[test]
    fn one_round_learns_one_hop_routes() {
        let (alg, adj) = line3();
        let x0 = RoutingState::identity(&alg, 3);
        let x1 = sigma(&alg, &adj, &x0);
        assert_eq!(x1.get(0, 1), &NatInf::fin(1));
        assert_eq!(x1.get(1, 2), &NatInf::fin(1));
        // two-hop destination not learned yet
        assert_eq!(x1.get(0, 2), &NatInf::INF);
        let x2 = sigma(&alg, &adj, &x1);
        assert_eq!(x2.get(0, 2), &NatInf::fin(2));
    }

    #[test]
    fn sigma_k_composes() {
        let (alg, adj) = line3();
        let x0 = RoutingState::identity(&alg, 3);
        let a = sigma_k(&alg, &adj, &x0, 3);
        let b = sigma(&alg, &adj, &sigma(&alg, &adj, &sigma(&alg, &adj, &x0)));
        assert_eq!(a, b);
        assert_eq!(sigma_k(&alg, &adj, &x0, 0), x0);
    }

    #[test]
    fn fused_change_test_matches_the_two_pass_form() {
        let (alg, adj) = line3();
        // A state mid-convergence: some rows will change, some will not.
        let x = sigma(&alg, &adj, &RoutingState::identity(&alg, 3));
        let mut fused = vec![alg.invalid(); 3];
        let mut plain = vec![alg.invalid(); 3];
        for i in 0..3 {
            let changed = sigma_row_into_changed(&alg, &adj, &x, i, &mut fused);
            sigma_row_into(&alg, &adj, &x, i, &mut plain);
            assert_eq!(fused, plain, "row {i} values");
            assert_eq!(changed, plain[..] != *x.row(i), "row {i} change flag");
        }
        // An import-free node: row = identity pattern, so starting from the
        // identity state nothing changes.
        let lonely: AdjacencyMatrix<ShortestPaths> = AdjacencyMatrix::empty(2);
        let id = RoutingState::identity(&alg, 2);
        let mut out = vec![alg.invalid(); 2];
        assert!(!sigma_row_into_changed(&alg, &lonely, &id, 0, &mut out));
        assert_eq!(out, vec![NatInf::fin(0), NatInf::INF]);
        let garbage = RoutingState::<ShortestPaths>::uniform(2, NatInf::fin(9));
        assert!(sigma_row_into_changed(&alg, &lonely, &garbage, 0, &mut out));
    }

    /// Every row-kernel level this host runs, portable first.
    fn host_levels() -> Vec<Level> {
        let mut levels = vec![Level::Portable];
        #[cfg(target_arch = "x86_64")]
        levels.extend(
            [Level::Avx2, Level::Avx512]
                .into_iter()
                .filter(|&l| l <= level()),
        );
        levels
    }

    /// Row `i` of the window `(j0, w)` at every host level, against a plain
    /// fold of the same import rows: once with the current row as in `x`
    /// and once with it already at its new value, so the change flag is
    /// exercised both ways.  Import `p` reads row `k` of `x` (σ's shape) or,
    /// given `sources`, its own garbage row `sources[p]` (δ's shape, where
    /// each import is read at its own version).  `out` starts as `garbage`:
    /// every entry must be overwritten.
    fn levels_agree<A: RoutingAlgebra>(
        alg: &A,
        adj: &AdjacencyMatrix<A>,
        x: &mut RoutingState<A>,
        sources: &[Vec<A::Route>],
        (i, j0, w): (NodeId, usize, usize),
        garbage: &A::Route,
    ) {
        let n = adj.node_count();
        let imports = adj.row(i);
        let mut plain = vec![alg.invalid(); n];
        if sources.is_empty() {
            sigma_row_into(alg, adj, x, i, &mut plain);
        } else {
            for ((_, f), row) in imports.iter().zip(sources) {
                for (d, s) in plain.iter_mut().zip(row) {
                    *d = alg.choice(d, &alg.extend(f, s));
                }
            }
            plain[i] = alg.trivial();
        }
        let want = &plain[j0..j0 + w];
        for pass in 0..2 {
            let window: Vec<A::Route> = (0..n)
                .flat_map(|k| x.row(k)[j0..j0 + w].iter().cloned())
                .collect();
            let window = Table::new(n, w, Lines::from_slice(&window));
            let window = window.view();
            let read = |p: usize, k: NodeId| match sources.get(p) {
                Some(row) => {
                    assert_eq!(k, imports[p].0, "import {p} is node {}", imports[p].0);
                    &row[j0..j0 + w]
                }
                None => window.row(k),
            };
            let old = window.row(i);
            let changed = want != old;
            for level in host_levels() {
                let mut out = vec![garbage.clone(); w];
                let flag = row_window_at(level, alg, adj, read, old, j0, i, &mut out);
                let at = format!(
                    "{} row {i} of window ({j0}, {w}) on pass {pass}",
                    level.name()
                );
                assert_eq!(out, want, "{at}: values");
                assert_eq!(flag, changed, "{at}: change flag");
            }
            x.row_mut(i)[j0..j0 + w].clone_from_slice(want);
        }
    }

    /// Hold every host level to the portable row on seeded garbage states
    /// drawn from `routes`, at every width that leaves a different
    /// remainder of a 2-, 4- or 8-lane loop and on both sides of 64; with
    /// 0, 1, 2 and 9 or more imports; with the diagonal before, on the left
    /// edge of, inside, on the right edge of and after the window, and in
    /// the square window.  With `per_import`, each import reads its own
    /// garbage row, drawn from a second stream so that the states, links
    /// and spots are the same either way.
    fn all_levels_agree<A: RoutingAlgebra>(
        alg: &A,
        routes: &[A::Route],
        per_import: bool,
        mut edge: impl FnMut(NodeId, NodeId, &mut SplitMix64) -> A::Edge,
    ) {
        let mut rng = SplitMix64::new(0x5167_a0b1);
        let mut own = SplitMix64::new(0xde17a);
        let pick =
            |rng: &mut SplitMix64| routes[rng.next_below(routes.len() as u64) as usize].clone();
        for w in (1..=17).chain(63..=65) {
            let n = w + 12;
            let mut x = RoutingState::<A>::from_fn(n, |_, _| pick(&mut rng));
            let spots = [
                (0, 12, w),
                (5, 5, w),
                (2 + w / 2, 2, w),
                (2 + w, 3, w),
                (n - 1, 0, w),
                (n / 2, 0, n),
            ];
            for imports in [0, 1, 2, 9, 11] {
                for spot in spots {
                    let i = spot.0;
                    let mut others: Vec<NodeId> = (0..n).filter(|&k| k != i).collect();
                    for t in 0..imports {
                        let u = t + rng.next_below((others.len() - t) as u64) as usize;
                        others.swap(t, u);
                    }
                    let from = &others[..imports];
                    let adj = AdjacencyMatrix::from_fn(n, |a, b| {
                        (a == i && from.contains(&b)).then(|| edge(a, b, &mut rng))
                    });
                    let garbage = pick(&mut rng);
                    let sources: Vec<Vec<A::Route>> = if per_import {
                        (0..imports)
                            .map(|_| (0..n).map(|_| pick(&mut own)).collect())
                            .collect()
                    } else {
                        Vec::new()
                    };
                    levels_agree(alg, &adj, &mut x, &sources, spot, &garbage);
                }
            }
        }
    }

    /// [`all_levels_agree`] on integer, reliability and path routes, so
    /// that both folds (`choice`, and in place for routes that own heap
    /// data) run at every level.
    fn every_route_set_agrees(per_import: bool) {
        let levels: Vec<_> = host_levels().into_iter().map(Level::name).collect();
        println!("row kernel levels covered: {}", levels.join(", "));
        assert_eq!(levels.last(), Some(&row_kernel()));
        let top = u64::MAX - 1;

        // Hop count: the limit compare on both sides of the limit, and the
        // saturating add at the largest finite value and at ∞.
        let hops = BoundedHopCount::new(5);
        let counts: Vec<_> = [0, 1, 3, 4, 5, 6, 7, top]
            .map(NatInf::fin)
            .into_iter()
            .chain([NatInf::INF])
            .collect();
        let hop_edges = [1, 1, 2, 4, top, u64::MAX];
        all_levels_agree(&hops, &counts, per_import, |_, _, r| {
            hop_edges[r.next_below(hop_edges.len() as u64) as usize]
        });

        // Shortest paths: u64::MAX − 1 plus a positive weight saturates to
        // ∞, and ∞ absorbs every weight, ∞ included.
        let sums: Vec<_> = [0, 1, 2, 100, top - 1, top]
            .map(NatInf::fin)
            .into_iter()
            .chain([NatInf::INF])
            .collect();
        let weights: Vec<_> = [0, 1, 7, 1, top]
            .map(NatInf::fin)
            .into_iter()
            .chain([NatInf::INF])
            .collect();
        all_levels_agree(&ShortestPaths::new(), &sums, per_import, |_, _, r| {
            weights[r.next_below(weights.len() as u64) as usize]
        });

        // Widest paths: max of mins, with ∞ as the trivial route.
        let widths: Vec<_> = [0, 1, 50, 9_999, top]
            .map(NatInf::fin)
            .into_iter()
            .chain([NatInf::INF])
            .collect();
        all_levels_agree(&WidestPaths::new(), &widths, per_import, |_, _, r| {
            widths[r.next_below(widths.len() as u64) as usize]
        });

        // Most reliable paths: subnormal routes, and products that land on
        // or just above MIN_POSITIVE, where `extend` flushes to zero.
        let tiny = f64::MIN_POSITIVE;
        let odds: Vec<_> = [
            0.0,
            1.0,
            0.5,
            5e-324,
            tiny / 4.0,
            tiny,
            tiny * 2.0,
            tiny / 0.95,
            1e-300,
        ]
        .map(Reliability::new)
        .to_vec();
        let links = [0.5, 0.95, 1.0 - f64::EPSILON / 2.0, 0.05].map(Reliability::new);
        all_levels_agree(&MostReliablePaths::new(), &odds, per_import, |_, _, r| {
            links[r.next_below(links.len() as u64) as usize]
        });

        // A path algebra: routes own their paths, so nothing vectorizes and
        // the fold keeps the current route unless the candidate beats it,
        // but the wrappers still compile the whole body.
        let pv = dbf_paths::PathVector::new(ShortestPaths::new(), 80);
        let paths = pv.sample_routes(7, 24);
        all_levels_agree(&pv, &paths, per_import, |a, b, r| {
            pv.edge(a, b, NatInf::fin(1 + r.next_below(5)))
        });
    }

    #[test]
    fn every_row_kernel_level_computes_the_portable_row() {
        every_route_set_agrees(false);
    }

    /// δ's input shape: import `p` is read through the accessor at its
    /// position, from a row no other import reads.
    #[test]
    fn every_row_kernel_level_reads_each_import_from_its_own_row() {
        every_route_set_agrees(true);
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn dimension_mismatch_is_rejected() {
        let (alg, adj) = line3();
        let x = RoutingState::identity(&alg, 4);
        let _ = sigma(&alg, &adj, &x);
    }
}
