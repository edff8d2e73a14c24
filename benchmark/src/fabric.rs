//! The fabric stage: widest paths on a preferential-attachment graph —
//! `dbf-matrix` alone, no serve layer.  Three measurements on one input:
//! a cold whole-state σ from the identity, the destination-blocked σ, and
//! single-link changes reconverged incrementally from the fixed point.
//!
//! The graph is fixed (`as_graph(n, 2, SHAPE_SEED)` with the `(11i+5j)
//! mod 90 + 10` capacities, and the links that fail drawn from the same
//! constant); the seed picks the node labelling.  Round counts differ by
//! ±20 % between `as_graph` seeds and the frontier (hence time and peak
//! memory) of a reconvergence by 4× between links, which would drown any
//! regression bound; σ is equivariant under relabelling, so every seed
//! does the same rounds and row recomputations on a different memory
//! layout.
//!
//! Widest paths is increasing but not strictly, so the fixed point is not
//! unique: after a link *fails*, reconvergence from the old table may
//! keep a stale bottleneck alive around a cycle and legitimately differ
//! from a cold solve.  Each chosen link is therefore failed **and
//! restored**: the failed table must be σ-stable, and the restored one
//! must equal the cold fixed point again (it lies between the identity
//! and the old fixed point, and σ is monotone).

use crate::metrics::Values;
use crate::spans::{Round, SpanSink, Spans};
use crate::stage::{p50_p99, timed, timed_ns, Checks, MarkSink, Marks, Reduce, Rep, Series};
use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::prelude::*;
use dbf_matrix::{
    blocked_fixed_point, dirty_rows_after_change, is_stable, iterate_dirty_traced, iterate_traced,
    iteration_budget, par_iterate_to_fixed_point, sigma_row_into_changed, AdjacencyMatrix,
    IncrementalOutcome, RoutingState, WorkerPool,
};
use dbf_scenario::engine::state_digest;
use dbf_scenario::telemetry::{NoopSink, TelemetrySink};
use dbf_topology::{generators, Topology};
use std::hint::black_box;
use std::time::Instant;

/// The one `as_graph` shape every seed relabels.
const SHAPE_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricCfg {
    pub n: usize,
    /// Destination-block width of the blocked σ.
    pub block: usize,
    /// Links failed and restored per repetition.
    pub changes: usize,
}

type Widest = AdjacencyMatrix<WidestPaths>;

/// One generated problem.
pub struct Fabric {
    alg: WidestPaths,
    topo: Topology<NatInf>,
    adj: Widest,
    /// The undirected links to fail and restore.
    links: Vec<(usize, usize)>,
}

impl Fabric {
    pub fn generate(cfg: &FabricCfg, seed: u64) -> Fabric {
        let n = cfg.n;
        let shape = generators::as_graph(n, 2, SHAPE_SEED);
        let mut rng = SplitMix64::new(seed);
        // Fisher–Yates: `label[old] = new`.
        let mut label: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            label.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let mut topo = Topology::new(n);
        for (i, j, _) in shape.edges() {
            let capacity = NatInf::fin(((11 * i + 5 * j) % 90 + 10) as u64);
            topo.set_edge(label[i], label[j], capacity);
        }
        let mut pairs: Vec<(usize, usize)> = shape
            .edges()
            .filter(|&(i, j, _)| i < j)
            .map(|(i, j, _)| (i, j))
            .collect();
        pairs.sort_unstable();
        let mut pick = SplitMix64::new(SHAPE_SEED);
        let links = (0..cfg.changes)
            .map(|_| pairs[pick.next_below(pairs.len() as u64) as usize])
            .map(|(i, j)| (label[i], label[j]))
            .collect();
        let adj = AdjacencyMatrix::from_topology(&topo);
        Fabric {
            alg: WidestPaths::new(),
            topo,
            adj,
            links,
        }
    }

    fn budget(&self) -> usize {
        iteration_budget(self.adj.node_count(), None)
    }

    fn identity(&self) -> RoutingState<WidestPaths> {
        RoutingState::identity(&self.alg, self.adj.node_count())
    }

    fn without(&self, (a, b): (usize, usize)) -> Topology<NatInf> {
        let mut t = self.topo.clone();
        t.remove_link(a, b);
        t
    }
}

/// One incremental reconvergence, as a flush does it: rebuild the
/// adjacency from the changed topology, diff it against the old one,
/// iterate the dirty rows from the old fixed point.
fn reconverge<S: TelemetrySink + ?Sized>(
    f: &Fabric,
    old: &Widest,
    new_topo: &Topology<NatInf>,
    from: &RoutingState<WidestPaths>,
    tel: &mut S,
) -> (Widest, IncrementalOutcome<WidestPaths>) {
    let adj = AdjacencyMatrix::from_topology(new_topo);
    let dirty = dirty_rows_after_change(old, &adj);
    let out = iterate_dirty_traced(&f.alg, &adj, from, &dirty, f.budget(), tel);
    (adj, out)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// The digest `blocked_fixed_point` documents, recomputed from a whole
/// state: FNV-1a over the per-destination column digests in destination
/// order, column `j`'s digest being FNV-1a over `({i},{j})={route:?};`
/// for rows `i` in order.
pub fn column_digest<A: RoutingAlgebra>(state: &RoutingState<A>) -> String {
    let n = state.node_count();
    let mut cols = vec![FNV_OFFSET; n];
    for i in 0..n {
        for (j, r) in state.row(i).iter().enumerate() {
            fnv(&mut cols[j], format!("({i},{j})={r:?};").as_bytes());
        }
    }
    let mut h = FNV_OFFSET;
    for c in cols {
        fnv(&mut h, format!("{c:016x}").as_bytes());
    }
    format!("{h:016x}")
}

/// Fail and restore every chosen link from `fixed`, timing each
/// reconvergence and checking each resulting table.  Returns the
/// nanoseconds of every reconvergence, in order, and (rows recomputed,
/// rounds) over all of them.
fn fail_and_restore<S: TelemetrySink + ?Sized>(
    f: &Fabric,
    fixed: &RoutingState<WidestPaths>,
    tel: &mut S,
    checks: &mut Checks,
) -> (Vec<u64>, u64, u64) {
    let (mut ns, mut rows, mut rounds) = (Vec::new(), 0, 0);
    for &link in &f.links {
        let failed_topo = f.without(link);
        let ((failed_adj, down), t) = timed_ns(|| reconverge(f, &f.adj, &failed_topo, fixed, tel));
        ns.push(t);
        let ((_, up), t) = timed_ns(|| reconverge(f, &failed_adj, &f.topo, &down.state, tel));
        ns.push(t);
        rows += down.row_recomputations + up.row_recomputations;
        rounds += (down.rounds + up.rounds) as u64;
        checks.check(
            down.converged && is_stable(&f.alg, &failed_adj, &down.state),
            "table after a link failure is σ-stable",
        );
        checks.check(
            up.converged && up.state == *fixed,
            "table after the link's restoration equals the cold fixed point",
        );
    }
    (ns, rows, rounds)
}

/// The fabric stage on one seeded problem, repetition after repetition.
pub struct Runner {
    cfg: FabricCfg,
    seed: u64,
    /// The fixed point last digested, with its `state_digest` and its
    /// column digest.
    digested: Option<(RoutingState<WidestPaths>, String, String)>,
}

impl Runner {
    pub fn new(cfg: &FabricCfg, seed: u64) -> Runner {
        Runner {
            cfg: *cfg,
            seed,
            digested: None,
        }
    }

    /// One untraced repetition: generate, then the three measurements,
    /// each cut into segments — σ rounds, destination blocks, single
    /// reconvergences.
    pub fn rep(&mut self) -> Rep {
        let (f, setup_s) = timed(|| Fabric::generate(&self.cfg, self.seed));
        let mut checks = Checks::default();

        let mut sink = MarkSink(Marks::start());
        let cold = iterate_traced(&f.alg, &f.adj, &f.identity(), f.budget(), &mut sink);
        let cold_ns = sink.0.finish();

        let mut marks = Marks::start();
        let blocked = blocked_fixed_point(&f.alg, &f.adj, self.cfg.block, f.budget(), |_, _, _| {
            marks.mark()
        });
        let blocked_ns = marks.finish();

        checks.check(cold.converged, "cold σ reaches a fixed point");
        // Digesting a table costs a third of solving it: do it once, and
        // again only if a repetition ever lands somewhere else (which the
        // run then reports, the counts differing).
        if !matches!(&self.digested, Some((state, ..)) if *state == cold.state) {
            self.digested = Some((
                cold.state.clone(),
                state_digest(&cold.state),
                column_digest(&cold.state),
            ));
        }
        let (_, sync_digest, column) = self.digested.as_ref().expect("set just above");
        checks.check(
            blocked.converged && blocked.digest == *column,
            "blocked σ digest equals the column digest of the whole-state result",
        );
        let (reconverge_ns, rows, rounds) =
            fail_and_restore(&f, &cold.state, &mut NoopSink, &mut checks);
        let counts = [
            ("fabric.sync.iterations", cold.iterations.to_string()),
            ("fabric.sync.digest", sync_digest.clone()),
            (
                "fabric.blocked.rounds_total",
                blocked.rounds_total.to_string(),
            ),
            (
                "fabric.blocked.row_recomputations",
                blocked.row_recomputations.to_string(),
            ),
            ("fabric.blocked.digest", blocked.digest.clone()),
            ("fabric.incremental.rounds", rounds.to_string()),
            ("fabric.incremental.row_recomputations", rows.to_string()),
        ];
        let series = |name, ns| Series {
            reduce: Reduce::Seconds(name),
            ns,
        };
        Rep {
            setup_s,
            series: vec![
                series("cold_converge_s", cold_ns),
                series("blocked_converge_s", blocked_ns),
                series("reconverge_s", reconverge_ns),
            ],
            checks,
            counts: counts
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn busy_s(rounds: &[Round]) -> f64 {
    rounds.iter().map(|r| r.ns).sum::<u64>() as f64 / 1e9
}

/// Entries per second of the row kernel on row `i`.
fn row_entries_per_s(f: &Fabric, state: &RoutingState<WidestPaths>, i: usize) -> f64 {
    let n = f.adj.node_count();
    let mut out = vec![f.alg.invalid(); n];
    let reps = (4_000_000 / (n * f.adj.row(i).len().max(1))).max(8);
    let t = Instant::now();
    for _ in 0..reps {
        black_box(sigma_row_into_changed(
            &f.alg,
            &f.adj,
            black_box(state),
            i,
            &mut out,
        ));
    }
    (reps * n) as f64 / t.elapsed().as_secs_f64()
}

/// Median seconds of `f` over `reps` calls.
fn median_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(|| black_box(f())).1).collect();
    crate::stats::median(&samples)
}

/// `dbf-matrix::adjacency` / `state` ladders on one shape: build from a
/// topology, diff against a one-link change, clone a table — recorded
/// under `names`, in that order.
pub fn adjacency_ladder<A>(
    alg: &A,
    topo: &Topology<A::Edge>,
    names: [&'static str; 3],
    v: &mut Values,
) where
    A: RoutingAlgebra,
    A::Edge: PartialEq,
{
    let adj = AdjacencyMatrix::<A>::from_topology(topo);
    let mut other = adj.clone();
    if let Some(&(k, _)) = adj.row(0).first() {
        other.set(0, k, None);
    }
    let state = RoutingState::identity(alg, adj.node_count());
    let build = median_of(9, || AdjacencyMatrix::<A>::from_topology(topo));
    let diff = median_of(9, || dirty_rows_after_change(&adj, &other));
    let clone = median_of(9, || state.clone());
    for (name, s) in names.into_iter().zip([build, diff, clone]) {
        v.insert(name, s * 1e6);
    }
}

/// The traced pass.  Returns the untraced and traced wall of the cold σ.
pub fn traced(
    cfg: &FabricCfg,
    seed: u64,
    spans: &mut Spans,
    checks: &mut Checks,
    v: &mut Values,
) -> (f64, f64) {
    let (f, generate_s) = spans.time("generate", |_| Fabric::generate(cfg, seed));
    v.insert("topology.generate_s", generate_s);
    let n = cfg.n;

    // dbf-matrix::sync — untraced, then with the span sink.
    let (plain, untraced_s) =
        timed(|| iterate_traced(&f.alg, &f.adj, &f.identity(), f.budget(), &mut NoopSink));
    let id = spans.open("cold");
    let t = Instant::now();
    let mut sink = SpanSink::new(spans);
    let cold = iterate_traced(&f.alg, &f.adj, &f.identity(), f.budget(), &mut sink);
    let rounds = sink.finish();
    let traced_s = t.elapsed().as_secs_f64();
    spans.close(id);
    checks.check(
        cold.converged && cold.state == plain.state && cold.iterations == plain.iterations,
        "traced cold σ equals the untraced one",
    );
    let round_ns: Vec<u64> = rounds.iter().map(|r| r.ns).collect();
    v.insert("matrix.sync.rounds", rounds.len() as f64);
    v.insert(
        "matrix.sync.row_recomputations",
        rounds.iter().map(|r| r.recomputed).sum::<u64>() as f64,
    );
    v.insert("matrix.sync.round_ms_p50", p50_p99(&round_ns).0 / 1e6);
    v.insert(
        "matrix.sync.round_ms_max",
        ms(round_ns.iter().copied().max().unwrap_or(0)),
    );
    v.insert("matrix.sync.busy_s", busy_s(&rounds));
    v.insert(
        "matrix.sync.first_round_share",
        round_ns.first().map_or(0.0, |&r| r as f64 / 1e9) / busy_s(&rounds),
    );

    // dbf-matrix::blocked — one span per block, stamped from `on_block`.
    let id = spans.open("blocked");
    let mut block_ns = Vec::new();
    let mut open = spans.open("block");
    let (blocked, blocked_s) = timed(|| {
        blocked_fixed_point(&f.alg, &f.adj, cfg.block, f.budget(), |_, _, _| {
            block_ns.push(spans.close(open));
            open = spans.open("block");
        })
    });
    spans.close(id);
    checks.check(
        blocked.converged && blocked.digest == column_digest(&cold.state),
        "blocked σ digest equals the column digest of the whole-state result",
    );
    v.insert("matrix.blocked.blocks", blocked.blocks as f64);
    v.insert("matrix.blocked.rounds_total", blocked.rounds_total as f64);
    v.insert(
        "matrix.blocked.row_recomputations",
        blocked.row_recomputations as f64,
    );
    v.insert("matrix.blocked.block_s_p50", p50_p99(&block_ns).0 / 1e9);
    v.insert(
        "matrix.blocked.block_s_max",
        block_ns.iter().copied().max().unwrap_or(0) as f64 / 1e9,
    );
    v.insert(
        "matrix.blocked.rows_per_s",
        blocked.row_recomputations as f64 / blocked_s,
    );
    let (_, digest_s) = spans.time("state_digest", |_| black_box(state_digest(&cold.state)));
    v.insert("scenario.digest.state_digest_ms", digest_s * 1e3);

    // dbf-matrix::incremental / frontier.
    let id = spans.open("reconverge");
    let mut sink = SpanSink::new(spans);
    fail_and_restore(&f, &cold.state, &mut sink, checks);
    let rounds = sink.finish();
    spans.close(id);
    let recomputed: u64 = rounds.iter().map(|r| r.recomputed).sum();
    let changed: u64 = rounds.iter().map(|r| r.changed).sum();
    v.insert("matrix.incremental.rounds", rounds.len() as f64);
    v.insert("matrix.incremental.row_recomputations", recomputed as f64);
    v.insert("matrix.incremental.busy_s", busy_s(&rounds));
    v.insert(
        "matrix.incremental.useful_row_share",
        changed as f64 / recomputed.max(1) as f64,
    );

    // dbf-matrix::sigma — the hub row and a median-degree row.
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_by_key(|&i| f.adj.row(i).len());
    v.insert(
        "matrix.sigma.row_entries_per_s.hub",
        row_entries_per_s(&f, &cold.state, by_degree[n - 1]),
    );
    v.insert(
        "matrix.sigma.row_entries_per_s.median",
        row_entries_per_s(&f, &cold.state, by_degree[n / 2]),
    );
    adjacency_ladder(
        &f.alg,
        &f.topo,
        [
            "matrix.adjacency.build_us.fabric",
            "matrix.adjacency.diff_us.fabric",
            "matrix.state.clone_us.fabric",
        ],
        v,
    );

    // dbf-matrix::parallel / pool — the cold stage again on two threads.
    let (par, t2_s) = spans.time("cold_t2", |_| {
        par_iterate_to_fixed_point(&f.alg, &f.adj, &f.identity(), f.budget(), 2)
    });
    checks.check(
        par.converged && par.state == cold.state,
        "two-thread cold σ equals the sequential one",
    );
    v.insert("matrix.parallel.speedup_t2", untraced_s / t2_s);
    let pool = WorkerPool::shared();
    let stats = pool.stats();
    v.insert("matrix.pool.epochs", stats.epochs as f64);
    v.insert("matrix.pool.jobs", stats.jobs as f64);
    v.insert("matrix.pool.worker_share", stats.worker_share());
    let epoch_s = median_of(200, || {
        pool.scoped(|_| ()).expect("an empty epoch cannot panic")
    });
    v.insert("matrix.pool.epoch_us", epoch_s * 1e6);
    (untraced_s, traced_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_digest_is_the_blocked_digest_at_n_32() {
        let cfg = FabricCfg {
            n: 32,
            block: 5,
            changes: 2,
        };
        let f = Fabric::generate(&cfg, 9);
        let cold = iterate_traced(&f.alg, &f.adj, &f.identity(), f.budget(), &mut NoopSink);
        assert!(cold.converged);
        for block in [1, 5, 32, 100] {
            let b = blocked_fixed_point(&f.alg, &f.adj, block, f.budget(), |_, _, _| {});
            assert_eq!(b.digest, column_digest(&cold.state), "block width {block}");
        }
        // And it is a digest of the table, not of its shape.
        let mut other = cold.state.clone();
        other.set(3, 4, NatInf::fin(1));
        assert_ne!(column_digest(&other), column_digest(&cold.state));
    }

    #[test]
    fn every_seed_relabels_the_same_problem() {
        let cfg = FabricCfg {
            n: 48,
            block: 16,
            changes: 3,
        };
        let (a, b) = (Runner::new(&cfg, 1).rep(), Runner::new(&cfg, 2).rep());
        assert_eq!(a.checks.failed + b.checks.failed, 0);
        let get = |r: &Rep, k: &str| r.counts.iter().find(|c| c.0 == k).map(|c| c.1.clone());
        // Whole-state counts are labelling-invariant (the blocked ones are
        // not quite: which destinations share a block depends on labels).
        for k in [
            "fabric.sync.iterations",
            "fabric.incremental.rounds",
            "fabric.incremental.row_recomputations",
        ] {
            assert_eq!(get(&a, k), get(&b, k), "{k} is labelling-invariant");
        }
        assert_ne!(get(&a, "fabric.sync.digest"), get(&b, "fabric.sync.digest"));
        // The same seed gives the same input.
        assert_eq!(a.counts, Runner::new(&cfg, 1).rep().counts);
    }
}
