//! Deterministic multi-threaded σ: a round's work list sharded across
//! worker threads.
//!
//! One Jacobi round computes every row of the next state from the
//! *previous* state only, so the row sweep is embarrassingly parallel: the
//! round's sorted work list is cut into contiguous bands, each band is
//! recomputed by exactly one worker into its disjoint slice of the
//! kernel's staging buffer, and the calling thread applies the changed
//! rows afterwards — the result is **bit-identical** to the sequential
//! sweep for every thread count: no reduction order, no scheduling
//! dependence, nothing for a thread to race on.  [`Pooled`] is that band
//! dispatcher, as an [`Executor`] of the fixed-point kernel
//! ([`crate::kernel`]); the differential checker treats a pooled run
//! exactly like an inline one: same digests, same counts, same JSON.
//!
//! The cold whole-state solve ([`crate::sync::iterate_traced`], and so
//! [`crate::sync::iterate_to_fixed_point`]) runs `Pooled` on
//! [`crate::pool::default_jobs`] threads, the rule that sizes the shared
//! pool; [`par_iterate_to_fixed_point`] names the thread count instead,
//! and the scenario engines and the route server pass their `--threads`.
//! The [`crate::incremental`] entry points stay [`Inline`]: a
//! reconvergence's frontiers are a few rows, less work than a pool epoch
//! per round costs.
//!
//! Bands are balanced by *work*, not by row count: one row of `σ(X)` costs
//! `O(deg(i) · n)`, and real fabrics are skewed (a leaf–spine spine imports
//! from thousands of leaves while a leaf imports from four spines), so
//! equal-row bands would leave most workers idle behind the one holding the
//! hubs.  The internal `balanced_chunks` planner cuts the work list at
//! cumulative-degree boundaries instead.
//!
//! Bands run on a persistent [`WorkerPool`]: workers are spawned once and
//! parked between rounds, each round hands them an epoch-stamped band work
//! list, and the calling thread executes the first band itself — so
//! `threads = t` uses up to `t` OS threads without any per-round
//! spawn/join cost.  A worker panic does not abort the process: the pool
//! returns the payload to the coordinator, which re-raises it here so the
//! layer above can report it (an engine error, or the route server's
//! `kernel` problem).

use crate::adjacency::AdjacencyMatrix;
use crate::kernel::{Executor, Inline, Start, Sweep};
use crate::pool::WorkerPool;
use crate::state::RoutingState;
use crate::sync::{iterate_with, SyncOutcome};
use dbf_algebra::RoutingAlgebra;
use dbf_telemetry::{NoopSink, TelemetrySink};
use std::ops::Range;
use std::time::Instant;

/// Partition `0..len` into at most `parts` non-empty contiguous ranges of
/// approximately equal total `weight`.  Cuts fall where the cumulative
/// weight crosses `k/parts` of the total, so a few heavy items early (hub
/// rows) shrink the first range instead of starving the later workers.
pub(crate) fn balanced_chunks(
    len: usize,
    parts: usize,
    weight: impl Fn(usize) -> u64,
) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let total: u64 = (0..len).map(&weight).sum();
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0usize);
    let mut acc = 0u64;
    let mut pos = 0usize;
    for k in 1..parts {
        let target = total * k as u64 / parts as u64;
        // Every range gets at least one item, and enough items are left
        // over for the remaining ranges to be non-empty too.  A row is
        // taken only while that lands the cut *nearer* the target than
        // stopping would (closest-cut): crossing-then-cutting instead
        // would glue two heavy hub rows into one band.
        let min_end = bounds[k - 1] + 1;
        let max_end = len - (parts - k);
        while pos < max_end && (pos < min_end || (acc < target && 2 * (target - acc) > weight(pos)))
        {
            acc += weight(pos);
            pos += 1;
        }
        bounds.push(pos);
    }
    bounds.push(len);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Shard every round over up to `threads` threads: the calling thread and
/// workers of the process-wide [`WorkerPool::shared`].  `threads <= 1`, or
/// a work list of fewer than two rows, runs [`Inline`] without waking the
/// pool.
#[derive(Clone, Copy, Debug)]
pub struct Pooled {
    threads: usize,
}

impl Pooled {
    /// Up to `threads` threads a round.  Starts the shared pool if nothing
    /// has yet, so a caller that builds its executor before its clock
    /// starts does not time the spawn.
    pub fn shared(threads: usize) -> Self {
        WorkerPool::shared();
        Pooled { threads }
    }
}

impl<A: RoutingAlgebra> Executor<A> for Pooled {
    /// Each worker owns one contiguous, degree-weighted segment of the
    /// work list and writes its disjoint slice of `staging`/`changed`, so
    /// the staged rows are independent of the thread count by
    /// construction.  With a live sink every band also times itself into
    /// its own slot and, after the join, the *coordinating* thread emits
    /// one `band_sweep` per band in band order — workers never touch the
    /// sink, so trace ordering is deterministic.
    fn sweep<S: TelemetrySink + ?Sized>(
        &self,
        job: &Sweep<'_, A>,
        staging: &mut [A::Route],
        changed: &mut [bool],
        tel: &mut S,
    ) {
        let len = job.worklist.len();
        if self.threads <= 1 || len < 2 {
            return Inline.sweep(job, staging, changed, tel);
        }
        let weight = |pos: usize| job.adj.row(job.worklist[pos]).len() as u64 + 1;
        let chunks = balanced_chunks(len, self.threads, weight);
        let on = tel.enabled();
        let mut walls = vec![0u64; chunks.len()];
        let band =
            |range: Range<usize>, stage: &mut [A::Route], flags: &mut [bool], wall: &mut u64| {
                let t0 = on.then(Instant::now);
                job.recompute(range, stage, flags);
                *wall = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            };
        let (mut stage_rest, mut flag_rest) = (staging, changed);
        let mut wall_rest = walls.as_mut_slice();
        let mut first = None;
        let outcome = WorkerPool::shared().scoped(|scope| {
            for range in chunks.iter().cloned() {
                let (stage, tail) =
                    std::mem::take(&mut stage_rest).split_at_mut(range.len() * job.w);
                stage_rest = tail;
                let (flags, tail) = std::mem::take(&mut flag_rest).split_at_mut(range.len());
                flag_rest = tail;
                let (wall, tail) = std::mem::take(&mut wall_rest)
                    .split_first_mut()
                    .expect("one wall slot per band");
                wall_rest = tail;
                if first.is_none() {
                    // The calling thread works too instead of idling at the
                    // join, so `threads` means `threads`, not `threads + 1`.
                    first = Some((range, stage, flags, wall));
                } else {
                    scope.execute(move || band(range, stage, flags, wall));
                }
            }
            if let Some((range, stage, flags, wall)) = first.take() {
                band(range, stage, flags, wall);
            }
        });
        if let Err(payload) = outcome {
            // Re-raise the worker's own panic (payload intact) instead of
            // aborting behind a generic expect message: the layer above
            // catches it and reports it.
            std::panic::resume_unwind(payload);
        }
        if on {
            for (b, range) in chunks.iter().enumerate() {
                let weight = range.clone().map(weight).sum();
                tel.band_sweep(job.round, b as u64, range.len() as u64, weight, walls[b]);
            }
        }
    }
}

/// [`crate::sync::iterate_traced`] with an explicit thread count instead
/// of [`crate::pool::default_jobs`], and no sink.
///
/// The returned outcome is identical for every thread count (see
/// [`Pooled`]).
pub fn par_iterate_to_fixed_point<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    x0: &RoutingState<A>,
    max_iterations: usize,
    threads: usize,
) -> SyncOutcome<A> {
    let (exec, x0, start) = (Pooled::shared(threads), x0.clone(), Start::AllRows);
    iterate_with(alg, adj, x0, start, max_iterations, &exec, &mut NoopSink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::FixedPoint;
    use crate::sigma::sigma;
    use dbf_algebra::prelude::*;
    use dbf_topology::generators;

    fn widest_fabric(spines: usize, leaves: usize) -> (WidestPaths, AdjacencyMatrix<WidestPaths>) {
        let alg = WidestPaths::new();
        let topo = generators::leaf_spine(spines, leaves)
            .with_weights(|i, j| NatInf::fin(((i * 11 + j * 5) % 90 + 10) as u64));
        (alg, AdjacencyMatrix::from_topology(&topo))
    }

    #[test]
    fn balanced_chunks_cover_everything_without_overlap() {
        for (len, parts) in [(1, 1), (1, 8), (7, 3), (64, 8), (10, 10), (10, 100)] {
            let chunks = balanced_chunks(len, parts, |_| 1);
            assert!(chunks.len() <= parts.max(1), "len={len} parts={parts}");
            assert!(chunks.iter().all(|r| !r.is_empty()));
            let flat: Vec<usize> = chunks.iter().cloned().flatten().collect();
            assert_eq!(
                flat,
                (0..len).collect::<Vec<_>>(),
                "len={len} parts={parts}"
            );
        }
        assert!(balanced_chunks(0, 4, |_| 1).is_empty());
    }

    #[test]
    fn balanced_chunks_weight_by_degree_not_row_count() {
        // Four hub rows followed by a thousand light rows — the leaf-spine
        // degree profile.  Equal-ROW chunking would put all four hubs plus
        // 247 light rows in the first chunk (weight 4247 of 5000); the
        // weighted cut must keep every chunk within 2× the ideal share
        // (the contiguous-partition optimum for this input is 2000, since
        // all the light mass trails the hubs).
        let weight = |i: usize| if i < 4 { 1000 } else { 1 };
        let chunks = balanced_chunks(1004, 4, weight);
        assert_eq!(chunks.len(), 4);
        let chunk_weight = |r: &Range<usize>| -> u64 { r.clone().map(weight).sum() };
        let weights: Vec<u64> = chunks.iter().map(chunk_weight).collect();
        let total: u64 = weights.iter().sum();
        let max = *weights.iter().max().unwrap();
        assert!(
            max <= 2 * total / 4,
            "no chunk may exceed 2x the ideal share: {weights:?}"
        );
        // ... and with one worker per hub plus light tail (8 parts), every
        // hub lands in its own chunk.
        let chunks = balanced_chunks(1004, 8, weight);
        for (k, r) in chunks.iter().take(4).enumerate() {
            assert_eq!(*r, k..k + 1, "hub {k} gets a dedicated chunk: {chunks:?}");
        }
    }

    #[test]
    fn par_sigma_matches_sequential_sigma_for_every_thread_count() {
        let (alg, adj) = widest_fabric(4, 29);
        let n = adj.node_count();
        let x =
            RoutingState::<WidestPaths>::from_fn(n, |i, j| NatInf::fin(((i * 3 + j) % 40) as u64));
        let expected = sigma(&alg, &adj, &x);
        for threads in [1, 2, 3, 5, 8] {
            let mut kernel = FixedPoint::new(&adj, x.clone(), Start::AllRows);
            kernel.step(&alg, &adj, &Pooled::shared(threads), &mut NoopSink);
            assert_eq!(kernel.finish(&mut NoopSink), expected, "threads={threads}");
        }
    }

    #[test]
    fn par_iterate_reproduces_the_sequential_outcome_exactly() {
        let alg = ShortestPaths::new();
        let topo = generators::ring(37)
            .with_weights(|i, j| NatInf::fin(((i * 7 + j * 13) % 9 + 1) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let x0 = RoutingState::identity(&alg, 37);
        let seq = par_iterate_to_fixed_point(&alg, &adj, &x0, 500, 1);
        for threads in [2, 4, 8] {
            let par = par_iterate_to_fixed_point(&alg, &adj, &x0, 500, threads);
            assert_eq!(par.state, seq.state, "threads={threads}");
            assert_eq!(par.iterations, seq.iterations, "threads={threads}");
            assert_eq!(par.converged, seq.converged);
        }
    }

    #[test]
    fn budget_boundaries_agree_with_the_sequential_iteration() {
        let (alg, adj) = widest_fabric(3, 13);
        let x0 = RoutingState::identity(&alg, 16);
        for budget in 0..6 {
            let seq = par_iterate_to_fixed_point(&alg, &adj, &x0, budget, 1);
            let par = par_iterate_to_fixed_point(&alg, &adj, &x0, budget, 4);
            assert_eq!(par.state, seq.state, "budget={budget}");
            assert_eq!(par.iterations, seq.iterations, "budget={budget}");
            assert_eq!(par.converged, seq.converged, "budget={budget}");
        }
    }

    #[test]
    fn traced_outcome_and_deterministic_events_are_thread_invariant() {
        use dbf_telemetry::AggregatingSink;
        let (alg, adj) = widest_fabric(4, 29);
        let n = adj.node_count();
        let x0 = RoutingState::identity(&alg, n);
        let untraced = par_iterate_to_fixed_point(&alg, &adj, &x0, 500, 4);
        let mut deterministic_sides = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut sink = AggregatingSink::new();
            let (exec, x0, start) = (Pooled::shared(threads), x0.clone(), Start::AllRows);
            let out = iterate_with(&alg, &adj, x0, start, 500, &exec, &mut sink);
            assert_eq!(out.state, untraced.state, "threads={threads}");
            assert_eq!(out.iterations, untraced.iterations, "threads={threads}");
            let report = sink.finish();
            deterministic_sides.push(report.phases);
        }
        assert_eq!(deterministic_sides[0], deterministic_sides[1]);
        assert_eq!(deterministic_sides[0], deterministic_sides[2]);
        let phase = &deterministic_sides[0][0];
        // Rounds include the sweep that detects the fixed point.
        assert_eq!(phase.rounds, untraced.iterations as u64 + 1);
        // Row-skip: round 1 sweeps all n rows, later rounds only the
        // dependants of last round's changed rows — so the recomputation
        // total sits strictly between one full sweep and rounds·n.
        assert!(phase.rows_recomputed >= n as u64);
        assert!(phase.rows_recomputed <= phase.rounds * n as u64);
        assert_eq!(phase.peak_frontier, n as u64, "round 1 sweeps every row");
        let settle = phase.settle.expect("σ engines emit settle events");
        assert_eq!(settle.count, n as u64);
        assert!(settle.max <= untraced.iterations as u64);
    }

    #[test]
    fn pooled_sweep_is_thread_invariant_and_flags_changes() {
        let alg = BoundedHopCount::new(12);
        let n = 24;
        let topo = generators::line(n).with_weights(|_, _| 1u64);
        let adj = AdjacencyMatrix::<BoundedHopCount>::from_topology(&topo);
        let x0 = RoutingState::identity(&alg, n);
        let worklist: Vec<usize> = (0..n).collect();
        let job = Sweep {
            alg: &alg,
            adj: &adj,
            rows: x0.table().view(),
            w: n,
            j0: 0,
            worklist: &worklist,
            round: 1,
        };
        let sweep = |threads: usize| {
            let mut stage = vec![alg.invalid(); n * n];
            let mut flags = vec![false; n];
            Pooled::shared(threads).sweep(&job, &mut stage, &mut flags, &mut NoopSink);
            (stage, flags)
        };
        let (seq_stage, seq_flags) = sweep(1);
        for threads in [2, 3, 8] {
            assert_eq!(
                sweep(threads),
                (seq_stage.clone(), seq_flags.clone()),
                "threads={threads}"
            );
        }
        // The flags are exactly "the staged table differs from the current
        // one", and from the identity every line node learns a new route.
        for (pos, &i) in worklist.iter().enumerate() {
            let slot = &seq_stage[pos * n..(pos + 1) * n];
            assert_eq!(seq_flags[pos], slot != x0.row(i), "row {i}");
            assert!(seq_flags[pos], "row {i} learns one-hop routes");
        }
    }
}
