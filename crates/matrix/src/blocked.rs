//! Destination-blocked σ: fixed points at scales where the square routing
//! state no longer fits in memory.
//!
//! σ is column-separable — `σ(X)[i][j] = (⨁_k A_ik(X[k][j])) ⊕ I[i][j]`
//! touches only column `j` of `X` — so the fixed point over all `n`
//! destinations is the concatenation of independent fixed points over
//! destination *blocks*.  A block of `w` destinations iterates an `n × w`
//! slab (two buffers of `n·w` routes) instead of the square `n × n` state:
//! at `n = 10⁵`, where a single square buffer would be ~160 GB, a
//! 1024-wide slab is ~1.6 GB and the whole computation streams through
//! memory block by block.
//!
//! Each block is the fixed-point kernel ([`crate::kernel`]) over a column
//! window instead of the whole row — the same stepper, the same windowed
//! row kernel and the same full-sweep contract as
//! [`crate::sync::iterate_traced`].  The per-block trajectory is therefore
//! exactly what the square iteration would produce for those columns —
//! blocking changes memory traffic, never results.
//!
//! Results are digested, not materialised: the [`BlockedOutcome`] carries
//! an FNV-1a digest of the per-destination column digests in destination
//! order, where column `j`'s digest is FNV-1a over `({i},{j})={route:?};`
//! for rows `i` in order.  Every column lives entirely inside one block,
//! so the combined digest is **invariant under the block width** — `--block`
//! is a pure memory-layout choice, like `--row-order` and `--threads`.

use crate::adjacency::AdjacencyMatrix;
use crate::kernel::{FixedPoint, Inline};
use dbf_algebra::RoutingAlgebra;
use dbf_telemetry::NoopSink;

/// The outcome of a destination-blocked fixed-point computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedOutcome {
    /// FNV-1a digest of the per-column digests in destination order
    /// (see the module docs) — identical for every block width.
    pub digest: String,
    /// Destination blocks processed (`⌈n / block⌉`).
    pub blocks: usize,
    /// σ rounds summed across all blocks.
    pub rounds_total: u64,
    /// The worst single block's round count — the answer to "how many
    /// synchronous rounds does this fabric need?", since blocks of a
    /// converging algebra all see the same propagation depth.
    pub rounds_max: usize,
    /// Row recomputations summed across all blocks (each costs
    /// `O(deg(i) · w)` route operations).
    pub row_recomputations: u64,
    /// Whether **every** block reached its fixed point within the budget.
    pub converged: bool,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv_update(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Iterate σ to the fixed point over destination blocks of width `block`,
/// digesting each block's converged slab instead of keeping it.
///
/// `max_rounds` is the per-block round budget; a block that exhausts it
/// clears `converged` but the remaining blocks still run (the digest then
/// covers the states `max_rounds` rounds left, exactly like a non-converged
/// square iteration).  Progress can be observed via `on_block`, called
/// after each block with `(block_index, rounds, row_recomputations)`.
///
/// # Panics
///
/// Panics if `block` is zero or the adjacency is empty.
pub fn blocked_fixed_point<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    block: usize,
    max_rounds: usize,
    mut on_block: impl FnMut(usize, usize, u64),
) -> BlockedOutcome {
    let n = adj.node_count();
    assert!(block > 0, "block width must be positive");
    assert!(n > 0, "blocked iteration needs at least one node");
    let mut digest = FNV_OFFSET;
    let mut blocks = 0usize;
    let mut rounds_total = 0u64;
    let mut rounds_max = 0usize;
    let mut work = 0u64;
    let mut converged = true;

    // One stepper for all blocks: its buffers are reused and only
    // reallocate when the final ragged block shrinks the window.
    let mut j0 = 0usize;
    let mut kernel = FixedPoint::identity_slab(alg, adj, j0, block.min(n));
    loop {
        let w = kernel.width();
        let block_converged = kernel.run(alg, adj, max_rounds, &Inline, &mut NoopSink)
            || kernel.verify(alg, adj, &Inline, &mut NoopSink);

        // Digest column by column: each destination's column is complete
        // inside this block, so hashing columns independently and folding
        // them in destination order makes the digest block-width-invariant.
        let mut cols = vec![FNV_OFFSET; w];
        for (i, row) in kernel.rows().chunks(w).enumerate() {
            for (jl, r) in row.iter().enumerate() {
                let j = j0 + jl;
                fnv_update(&mut cols[jl], format!("({i},{j})={r:?};").as_bytes());
            }
        }
        for h in &cols {
            fnv_update(&mut digest, format!("{h:016x}").as_bytes());
        }
        blocks += 1;
        rounds_total += kernel.iterations() as u64;
        rounds_max = rounds_max.max(kernel.iterations());
        work += kernel.row_recomputations();
        converged &= block_converged;
        on_block(blocks - 1, kernel.iterations(), kernel.row_recomputations());
        j0 += w;
        if j0 == n {
            break;
        }
        kernel.reset_slab(alg, j0, block.min(n - j0));
    }

    BlockedOutcome {
        digest: format!("{digest:016x}"),
        blocks,
        rounds_total,
        rounds_max,
        row_recomputations: work,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::RoutingState;
    use crate::sync::iterate_to_fixed_point;
    use dbf_algebra::prelude::*;
    use dbf_topology::generators;

    fn ring_adj(n: usize) -> (BoundedHopCount, AdjacencyMatrix<BoundedHopCount>) {
        let topo = generators::ring(n).with_weights(|_, _| 1u64);
        (
            BoundedHopCount::new(16),
            AdjacencyMatrix::from_topology(&topo),
        )
    }

    /// The square-state digest in the blocked convention (folded
    /// per-column digests), for cross-checking.
    fn square_digest<A: RoutingAlgebra>(state: &RoutingState<A>) -> String {
        let n = state.node_count();
        let mut h = FNV_OFFSET;
        for j in 0..n {
            let mut col = FNV_OFFSET;
            for i in 0..n {
                let r = state.get(i, j);
                fnv_update(&mut col, format!("({i},{j})={r:?};").as_bytes());
            }
            fnv_update(&mut h, format!("{col:016x}").as_bytes());
        }
        format!("{h:016x}")
    }

    #[test]
    fn blocked_matches_the_square_fixed_point_at_every_block_width() {
        let n = 17;
        let (alg, adj) = ring_adj(n);
        let square = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 200);
        assert!(square.converged);
        for block in [1usize, 4, 7, 16, 17, 64] {
            let out = blocked_fixed_point(&alg, &adj, block, 200, |_, _, _| {});
            assert!(out.converged, "block={block}");
            assert_eq!(out.blocks, n.div_ceil(block));
            assert_eq!(
                out.digest,
                square_digest(&square.state),
                "block={block}: blocked and square fixed points differ \
                 (the digest must also be block-width-invariant)"
            );
            // Every block sees the ring's full propagation depth, so the
            // worst block takes exactly as many rounds as the square run.
            assert_eq!(out.rounds_max, square.iterations, "block={block}");
        }
    }

    #[test]
    fn blocked_shortest_paths_agree_too() {
        let n = 12;
        let topo = generators::as_graph(n, 2, 3)
            .with_weights(|i, j| NatInf::fin(((i * 7 + j * 3) % 11 + 1) as u64));
        let alg = ShortestPaths::new();
        let adj = AdjacencyMatrix::from_topology(&topo);
        let square = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 200);
        assert!(square.converged);
        let out = blocked_fixed_point(&alg, &adj, 5, 200, |_, _, _| {});
        assert!(out.converged);
        assert_eq!(out.digest, square_digest(&square.state));
    }

    #[test]
    fn a_block_that_exhausts_its_budget_reports_non_convergence() {
        let (alg, adj) = ring_adj(9);
        let out = blocked_fixed_point(&alg, &adj, 4, 1, |_, _, _| {});
        assert!(!out.converged);
        assert_eq!(out.blocks, 3);
    }
}
