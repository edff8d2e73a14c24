//! The synchronous iteration operator `σ(X) = A(X) ⊕ I` (Section 2.2).

use crate::adjacency::AdjacencyMatrix;
use crate::state::RoutingState;
use dbf_algebra::RoutingAlgebra;
use dbf_paths::NodeId;

/// One synchronous round `σ(X)`, written into an existing state buffer.
///
/// This is the allocation-free work-horse behind [`sigma`], the plain
/// whole-state σ the fixed-point kernel is tested against.  It sweeps
/// row-wise: node `i`'s next table is the ⊕-fold of `A_ik` applied pointwise to
/// neighbour `k`'s *entire current table*, so both the read of `X[k][·]`
/// and the write of `σ(X)[i][·]` stream over contiguous memory — at
/// `n = 10⁴` this is the difference between being memory-bandwidth-bound
/// and being cache-miss-bound.
///
/// # Panics
///
/// Panics if `adj`, `x` and `out` do not all have the same node count.
pub fn sigma_into<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x: &RoutingState<A>,
    out: &mut RoutingState<A>,
) {
    let n = adj.node_count();
    assert_eq!(
        n,
        x.node_count(),
        "adjacency and state dimensions must match"
    );
    assert_eq!(n, out.node_count(), "output state dimension must match");
    for i in 0..n {
        sigma_row_into(alg, adj, x, i, out.row_mut(i));
    }
}

/// Recompute node `i`'s entire next table `σ(X)[i][·]` into `out` (a slice
/// of length `n`).
///
/// This is one row of [`sigma_into`]; the fixed-point kernel recomputes
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
    sigma_row_window_changed(alg, adj, x.as_slice(), n, 0, i, out)
}

/// The one fused row kernel: recompute `σ(cur)[i][j0..j0+w]` into `out`
/// and report whether it differs from `cur`'s row `i`, where `cur` is a
/// row-major `n × w` store holding destination columns `j0..j0+w` of the
/// state (σ is column-separable, so a column window iterates on its own —
/// see [`crate::blocked`]).  The square state is the window `(0, n)`.  The
/// diagonal override applies when `i` lies inside the window.
pub(crate) fn sigma_row_window_changed<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    cur: &[A::Route],
    w: usize,
    j0: usize,
    i: NodeId,
    out: &mut [A::Route],
) -> bool {
    let old = &cur[i * w..(i + 1) * w];
    // Window-local position of the diagonal entry.  For a row outside the
    // window the subtraction wraps (or lands at `>= w`), so it matches no
    // local column and no override happens.
    let diag = i.wrapping_sub(j0);
    let trivial = alg.trivial();
    match adj.row(i).split_last() {
        // No imports: the row is ∞̄ everywhere except the diagonal.
        None => commit_row(out, old, old, diag, trivial, |_, _| alg.invalid()),
        Some(((last_k, last_f), rest)) => {
            // The first import *writes* `out` rather than folding into a
            // row pre-filled with ∞̄ (`∞̄ ⊕ x = x` is a required law), the
            // middle ones fold into it, and the last import's pass doubles
            // as the write-out-and-compare pass (the adjacency row never
            // contains `i`, so `last_k != i` and the diagonal override
            // cannot alias the source row).
            let row = |k: NodeId| &cur[k * w..(k + 1) * w];
            let last = row(*last_k);
            match rest.split_first() {
                None => commit_row(out, last, old, diag, trivial, |_, s| alg.extend(last_f, s)),
                Some(((first_k, first_f), middle)) => {
                    for (d, s) in out.iter_mut().zip(row(*first_k)) {
                        *d = alg.extend(first_f, s);
                    }
                    for (k, f) in middle {
                        for (d, s) in out.iter_mut().zip(row(*k)) {
                            *d = alg.choice(d, &alg.extend(f, s));
                        }
                    }
                    commit_row(out, last, old, diag, trivial, |d, s| {
                        alg.choice(d, &alg.extend(last_f, s))
                    })
                }
            }
        }
    }
}

/// The write-out-and-compare pass of the row kernel: `out[j]` becomes
/// `value(out[j], src[j])` (`0̄` at the window-local diagonal `diag`), and
/// the result says whether the finished row differs from `old`.
#[inline]
fn commit_row<R: Clone + PartialEq>(
    out: &mut [R],
    src: &[R],
    old: &[R],
    diag: usize,
    trivial: R,
    value: impl Fn(&R, &R) -> R,
) -> bool {
    let mut changed = false;
    for (j, ((d, s), o)) in out.iter_mut().zip(src).zip(old).enumerate() {
        let v = if j == diag {
            trivial.clone()
        } else {
            value(d, s)
        };
        changed |= v != *o;
        *d = v;
    }
    changed
}

/// One synchronous round of the Distributed Bellman-Ford computation:
/// every node simultaneously recomputes its table from its neighbours'
/// current tables.
pub fn sigma<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x: &RoutingState<A>,
) -> RoutingState<A> {
    assert_eq!(
        adj.node_count(),
        x.node_count(),
        "adjacency and state dimensions must match"
    );
    let mut out = RoutingState::uniform(x.node_count(), alg.invalid());
    sigma_into(alg, adj, x, &mut out);
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
    fn sigma_into_reuses_a_buffer_and_matches_sigma() {
        let (alg, adj) = line3();
        let x = RoutingState::<ShortestPaths>::from_fn(3, |i, j| NatInf::fin((2 * i + j) as u64));
        let fresh = sigma(&alg, &adj, &x);
        // Start from a garbage buffer to prove every entry is overwritten.
        let mut buf = RoutingState::<ShortestPaths>::uniform(3, NatInf::fin(77));
        sigma_into(&alg, &adj, &x, &mut buf);
        assert_eq!(buf, fresh);
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

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn dimension_mismatch_is_rejected() {
        let (alg, adj) = line3();
        let x = RoutingState::identity(&alg, 4);
        let _ = sigma(&alg, &adj, &x);
    }
}
