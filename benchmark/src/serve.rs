//! The serve stage: a seeded churn trace replayed through the route
//! server, closed loop, one client.
//!
//! The harness is that client ([`Client`]): it makes, per event, the
//! calls the library's own replay driver makes — WAL append, `submit`,
//! a snapshot every 64 events — and times each event from the outside.
//! Untraced, an event is one segment (see `stage.rs`); traced, every
//! call is its own span and each flush is *mirrored* with the same
//! public calls on the same inputs to say where a flush's time goes.
//!
//! Every answer is checked against an oracle the harness owns: the
//! destination column of the fixed point, solved in place (Gauss–Seidel
//! order — a different schedule from the server's Jacobi rounds, which
//! the paper's theorem says must land on the same unique fixed point).

use crate::metrics::Values;
use crate::spans::{SpanSink, Spans};
use crate::stage::{
    fresh_dir, p50_p99, put_percentiles, timed, timed_ns, Checks, Reduce, Rep, Series,
};
use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::prelude::*;
use dbf_matrix::{
    dirty_rows_after_change, iterate_dirty_to_fixed_point, iterate_to_fixed_point,
    iteration_budget, AdjacencyMatrix, RoutingState,
};
use dbf_scenario::engine::{state_digest, ScenarioAlgebra};
use dbf_scenario::report::Digest;
use dbf_scenario::run::build_shape;
use dbf_scenario::telemetry::NoopSink;
use dbf_scenario::{
    generate_trace, replay_trace_opts, BoundRule, ChangeSpec, CheckpointStore, ChurnTrace,
    ReplayReport, RouteServer, ServeAlgebra, ServeEvent, ServeOptions, TopologySpec, TraceSpec,
    WeightOverrides,
};
use dbf_topology::{Topology, TopologyChange};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The one event stream every seed relabels.
const STREAM_SEED: u64 = 1;

/// One serve input shape: the trace generator's parameters plus how the
/// server is run on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeCfg {
    pub nodes: usize,
    pub shortest: bool,
    pub events: usize,
    pub query_permille: u32,
    pub weight_permille: u32,
    pub batch_max: usize,
    /// Arm a checkpoint + WAL store (`checkpoint_every` stays the
    /// library default, 64).
    pub durable: bool,
}

impl ServeCfg {
    fn algebra(&self) -> ServeAlgebra {
        if self.shortest {
            ServeAlgebra::Shortest
        } else {
            // The limit `gen-trace` uses: no simple path has more hops.
            ServeAlgebra::Hopcount {
                limit: self.nodes as u64,
            }
        }
    }

    /// The trace a seed stands for: one fixed event stream on a ring,
    /// with the ring's nodes relabelled by a seed-chosen rotation and
    /// reflection.  The server's work is equivariant under a symmetry of
    /// the ring — same batches, same rounds, same row recomputations, on
    /// other rows — so seeds differ in what must not matter.  (Streams
    /// drawn per seed differ by ±6 % in flushes, and the flush latencies
    /// of `serve-ingest`, ≈120 draws from a geometric distribution, by
    /// ±40 % in their 99th percentile.)
    fn trace(&self, seed: u64) -> ChurnTrace {
        let mut trace = generate_trace(&TraceSpec {
            topology: TopologySpec::Ring { n: self.nodes },
            algebra: self.algebra(),
            events: self.events,
            seed: STREAM_SEED,
            query_permille: self.query_permille,
            weight_permille: self.weight_permille,
        })
        .expect("ring traces of at least 3 nodes are valid");
        let n = self.nodes;
        let mut rng = SplitMix64::new(seed);
        let shift = rng.next_below(n as u64) as usize;
        let flip = rng.next_below(2) == 1;
        // Nodes an `add_node` event appends keep their names.
        let label = |i: usize| match (i < n, flip) {
            (false, _) => i,
            (true, false) => (shift + i) % n,
            (true, true) => (shift + n - i) % n,
        };
        for ev in &mut trace.events {
            *ev = match *ev {
                ServeEvent::Query { from, to } => ServeEvent::Query {
                    from: label(from),
                    to: label(to),
                },
                ServeEvent::Change(c) => ServeEvent::Change(match c {
                    ChangeSpec::SetLink { a, b } => ChangeSpec::SetLink {
                        a: label(a),
                        b: label(b),
                    },
                    ChangeSpec::FailLink { a, b } => ChangeSpec::FailLink {
                        a: label(a),
                        b: label(b),
                    },
                    ChangeSpec::SetEdge { from, to } => ChangeSpec::SetEdge {
                        from: label(from),
                        to: label(to),
                    },
                    ChangeSpec::RemoveEdge { from, to } => ChangeSpec::RemoveEdge {
                        from: label(from),
                        to: label(to),
                    },
                    ChangeSpec::SetWeight { from, to, weight } => ChangeSpec::SetWeight {
                        from: label(from),
                        to: label(to),
                        weight,
                    },
                    ChangeSpec::AddNode => ChangeSpec::AddNode,
                }),
            };
        }
        trace
    }

    fn options(&self, store: Option<PathBuf>) -> ServeOptions {
        ServeOptions {
            threads: 1,
            batch_max: self.batch_max,
            checkpoint_dir: store,
            ..ServeOptions::default()
        }
    }
}

/// The algebra-specific half of a serve run: the algebra value, how a
/// trace weight becomes an edge, and the server settings
/// `replay_trace_opts` pairs with it.
struct Flavor<A: RoutingAlgebra> {
    alg: A,
    edge: fn(u64) -> A::Edge,
    bound: BoundRule,
    restart_on_removal: bool,
}

/// Call a function generic over the algebra with the trace's flavor.
macro_rules! with_flavor {
    ($algebra:expr, $f:ident ( $($arg:expr),* )) => {
        match $algebra {
            ServeAlgebra::Hopcount { limit } => $f(
                &Flavor {
                    alg: BoundedHopCount::new(limit),
                    edge: |w| w,
                    bound: BoundRule::Hopcount { limit },
                    restart_on_removal: false,
                },
                $($arg),*
            ),
            ServeAlgebra::Shortest => $f(
                &Flavor {
                    alg: ShortestPaths::new(),
                    edge: NatInf::fin,
                    bound: BoundRule::Shortest,
                    restart_on_removal: true,
                },
                $($arg),*
            ),
        }
    };
}

/// The server's view of the network, kept by the harness with the same
/// public calls a flush makes: the weightless shape and the `set_weight`
/// overrides (which follow the edge lifecycle).
struct Mirror {
    shape: Topology<()>,
    overrides: WeightOverrides,
}

impl Mirror {
    fn new(topology: &TopologySpec) -> Mirror {
        Mirror {
            shape: build_shape(topology).expect("the trace's topology is valid"),
            overrides: WeightOverrides::new(),
        }
    }

    /// Fold a change into the override map and lower it to the shape
    /// edits a flush makes for it.
    fn lower(&mut self, c: &ChangeSpec) -> Vec<TopologyChange<()>> {
        let set = |from, to| TopologyChange::SetEdge {
            from,
            to,
            weight: (),
        };
        match *c {
            ChangeSpec::SetWeight { from, to, weight } => {
                self.overrides.insert((from, to), weight);
                vec![set(from, to)]
            }
            ChangeSpec::SetEdge { from, to } => {
                self.overrides.remove(&(from, to));
                vec![set(from, to)]
            }
            ChangeSpec::RemoveEdge { from, to } => {
                self.overrides.remove(&(from, to));
                vec![TopologyChange::RemoveEdge { from, to }]
            }
            ChangeSpec::SetLink { a, b } => {
                self.overrides.remove(&(a, b));
                self.overrides.remove(&(b, a));
                vec![set(a, b), set(b, a)]
            }
            ChangeSpec::FailLink { a, b } => {
                self.overrides.remove(&(a, b));
                self.overrides.remove(&(b, a));
                vec![TopologyChange::FailLink { a, b }]
            }
            ChangeSpec::AddNode => vec![TopologyChange::AddNode],
        }
    }

    /// Apply a change the way a flush does: `apply_all`, which copies the
    /// shape per edit.
    fn apply_as_flush(&mut self, c: &ChangeSpec) {
        let lowered = self.lower(c);
        self.shape = TopologyChange::apply_all(&lowered, &self.shape);
    }

    /// Apply a change in place (the oracle's path: same result, no
    /// copies).
    fn apply(&mut self, c: &ChangeSpec) {
        for edit in self.lower(c) {
            match edit {
                TopologyChange::SetEdge { from, to, .. } => self.shape.set_edge(from, to, ()),
                TopologyChange::RemoveEdge { from, to } => {
                    self.shape.remove_edge(from, to);
                }
                TopologyChange::FailLink { a, b } => self.shape.remove_link(a, b),
                TopologyChange::AddNode => {
                    self.shape.add_node();
                }
            }
        }
    }

    fn adjacency<A: RoutingAlgebra>(&self, edge: fn(u64) -> A::Edge) -> AdjacencyMatrix<A> {
        rebuild(&self.shape, &self.overrides, edge)
    }
}

/// The rebuild rule `replay_trace_opts` gives its servers: uniform weight
/// 1 unless overridden.
fn rebuild<A: RoutingAlgebra>(
    shape: &Topology<()>,
    overrides: &WeightOverrides,
    edge: fn(u64) -> A::Edge,
) -> AdjacencyMatrix<A> {
    AdjacencyMatrix::from_topology(
        &shape.with_weights(|i, j| edge(overrides.get(&(i, j)).copied().unwrap_or(1))),
    )
}

/// Column `to` of the fixed point: `x[to] = 0̄`, `x[i] = ⨁ₖ A_ik(x[k])`,
/// swept in place until nothing moves.
fn column_fixed_point<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    to: usize,
) -> Vec<A::Route> {
    let n = adj.node_count();
    let mut x = vec![alg.invalid(); n];
    x[to] = alg.trivial();
    for _ in 0..iteration_budget(n, None) {
        let mut moved = false;
        for i in (0..n).filter(|&i| i != to) {
            let best = alg.choice_all(adj.row(i).iter().map(|(k, f)| alg.extend(f, &x[*k])));
            if best != x[i] {
                x[i] = best;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    x
}

/// What a correct replay of a trace must produce.
struct Expected {
    /// The rendered answer of every query, in arrival order.
    answers: Vec<String>,
    /// Digest over those answers, folded the way the replay driver does.
    answers_digest: String,
    /// Digest of a from-scratch solve on the final topology.
    final_digest: String,
}

fn expected<A: RoutingAlgebra>(flavor: &Flavor<A>, trace: &ChurnTrace) -> Expected {
    let mut mirror = Mirror::new(&trace.topology);
    let mut adj = mirror.adjacency(flavor.edge);
    let mut stale = false;
    let mut answers = Vec::new();
    let mut digest = Digest::default();
    for ev in &trace.events {
        match ev {
            ServeEvent::Change(c) => {
                mirror.apply(c);
                stale = true;
            }
            ServeEvent::Query { from, to } => {
                if stale {
                    adj = mirror.adjacency(flavor.edge);
                    stale = false;
                }
                let text = format!("{:?}", column_fixed_point(&flavor.alg, &adj, *to)[*from]);
                digest.update(&text);
                digest.update(";");
                answers.push(text);
            }
        }
    }
    let adj = mirror.adjacency(flavor.edge);
    let n = adj.node_count();
    let cold = iterate_to_fixed_point(
        &flavor.alg,
        &adj,
        &RoutingState::identity(&flavor.alg, n),
        iteration_budget(n, None),
    );
    Expected {
        answers,
        answers_digest: digest.finish(),
        final_digest: state_digest(&cold.state),
    }
}

/// How many of the server's answers differ from the oracle's (a missing
/// or surplus answer counts as wrong).
fn wrong_answers(expected: &[String], got: &[String]) -> u64 {
    let differing = expected.iter().zip(got).filter(|(e, g)| e != g).count();
    (differing + expected.len().abs_diff(got.len())) as u64
}

type Rebuild<A> = Box<dyn Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>>;

/// The server's one client: a converged server, its checkpoint store if
/// the workload arms one, and the answers so far.  Per event it makes the
/// calls the library's replay driver makes, in its order: [`Client::log`]
/// (the event is durable before it is applied), [`Client::submit`],
/// [`Client::checkpoint`].
struct Client<A>
where
    A: ScenarioAlgebra<Route = NatInf>,
    A::Edge: PartialEq + Send + Sync + 'static,
{
    server: RouteServer<A, Rebuild<A>>,
    store: Option<(PathBuf, CheckpointStore)>,
    /// The trace's event lines, as the WAL records them (rendered only
    /// when there is a store to append them to).
    lines: Vec<String>,
    /// Snapshot cadence in applied events (the library's default).
    checkpoint_every: u64,
    tag: String,
    answers: Digest,
    got: Vec<String>,
    problems: u64,
}

impl<A> Client<A>
where
    A: ScenarioAlgebra<Route = NatInf>,
    A::Edge: PartialEq + Send + Sync + 'static,
{
    /// Bring a server up on the trace's topology: shape, adjacency and
    /// the initial convergence.
    fn bring_up(
        flavor: &Flavor<A>,
        cfg: &ServeCfg,
        trace: &ChurnTrace,
        store_dir: Option<PathBuf>,
    ) -> Self {
        let edge = flavor.edge;
        let shape = build_shape(&trace.topology).expect("the trace's topology is valid");
        let rebuild: Rebuild<A> = Box::new(move |s, w| rebuild(s, w, edge));
        let mut server = RouteServer::raw(flavor.alg.clone(), shape, rebuild, 1, cfg.batch_max)
            .restart_on_removal(flavor.restart_on_removal)
            .with_bound(flavor.bound);
        server
            .initial_converge(&mut NoopSink)
            .expect("the initial table converges");
        let store = store_dir.map(|dir| {
            let store = CheckpointStore::open(&dir).expect("the store directory opens");
            (dir, store)
        });
        // Three header lines, then one line per event.
        let lines = match store {
            Some(_) => trace.to_text().lines().skip(3).map(str::to_owned).collect(),
            None => Vec::new(),
        };
        Client {
            server,
            store,
            lines,
            checkpoint_every: cfg.options(None).checkpoint_every,
            tag: trace.algebra.tag(),
            answers: Digest::default(),
            got: Vec::new(),
            problems: 0,
        }
    }

    /// Append event `k` to the WAL (nothing without a store).
    fn log(&mut self, k: usize) {
        if let Some((_, store)) = self.store.as_mut() {
            store
                .append_wal(k as u64, &self.lines[k])
                .expect("WAL append");
        }
    }

    fn submit(&mut self, ev: &ServeEvent) {
        match self.server.submit(ev, &mut NoopSink) {
            Ok(Some(a)) => {
                self.answers.update(&a.text);
                self.answers.update(";");
                self.got.push(a.text);
            }
            Ok(None) => {}
            Err(p) => {
                eprintln!("submit of {ev:?}: {p}");
                self.problems += 1;
            }
        }
    }

    /// Is a snapshot due once event `k` is applied?
    fn checkpoint_due(&self, k: usize) -> bool {
        self.store.is_some() && (k as u64 + 1).is_multiple_of(self.checkpoint_every)
    }

    /// Write the snapshot that subsumes the WAL up to and including
    /// event `k`.
    fn checkpoint(&mut self, k: usize) {
        if let Some((_, store)) = self.store.as_mut() {
            let snap = self.server.snapshot(k as u64 + 1, &self.tag, &self.answers);
            store.write_snapshot(&snap).expect("snapshot write");
        }
    }

    /// One event, as the replay driver serves it.
    fn step(&mut self, k: usize, ev: &ServeEvent) {
        self.log(k);
        self.submit(ev);
        if self.checkpoint_due(k) {
            self.checkpoint(k);
        }
    }

    /// Flush what is still buffered when the trace ends.
    fn finish(&mut self) {
        if let Err(p) = self.server.finish(&mut NoopSink) {
            eprintln!("the final flush: {p}");
            self.problems += 1;
        }
    }

    /// Hold the finished replay against the oracle and remove the store.
    fn check(self, trace: &ChurnTrace, want: &Expected, checks: &mut Checks) {
        let s = self.server.stats();
        checks.ops(
            trace.events.len() as u64,
            s.stale_answers + self.problems,
            "events served fresh and without error",
        );
        checks.ops(
            want.answers.len() as u64,
            wrong_answers(&want.answers, &self.got),
            "answers equal to the oracle's",
        );
        checks.check(
            self.answers.finish() == want.answers_digest,
            "answers digest equals the oracle's",
        );
        checks.check(
            self.server.digest() == want.final_digest,
            "final table equals a from-scratch solve of the final topology",
        );
        checks.ops(
            s.batches,
            s.batches - s.bound_ok,
            "flushes within the predicted round bound",
        );
        if let Some((dir, _)) = self.store {
            std::fs::remove_dir_all(dir).expect("the store directory is removable");
        }
    }

    fn counts(&self) -> Vec<(String, String)> {
        let s = self.server.stats();
        [
            ("serve.batches", s.batches.to_string()),
            ("serve.rounds", s.rounds.to_string()),
            ("serve.row_recomputations", s.row_recomputations.to_string()),
            ("serve.coalesce_ratio", format!("{:.6}", s.coalesce_ratio())),
            ("serve.queries", s.queries.to_string()),
            ("serve.final_digest", self.server.digest()),
            ("serve.answers_digest", self.answers.finish()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

fn replay(trace: &ChurnTrace, opts: &ServeOptions) -> ReplayReport {
    replay_trace_opts(trace, opts, &mut NoopSink).expect("the serve configuration is valid")
}

/// The serve stage on one seeded trace, repetition after repetition.
pub struct Runner {
    cfg: ServeCfg,
    seed: u64,
    /// The oracle's expectations, worked out once (the trace is the same
    /// every repetition).
    want: Option<Expected>,
}

impl Runner {
    pub fn new(cfg: &ServeCfg, seed: u64) -> Runner {
        Runner {
            cfg: *cfg,
            seed,
            want: None,
        }
    }

    /// One untraced repetition: generate, bring up, serve, check.
    pub fn rep(&mut self, scratch: &Path) -> Rep {
        let algebra = self.cfg.algebra();
        with_flavor!(algebra, rep_with(self, scratch))
    }
}

fn rep_with<A>(flavor: &Flavor<A>, runner: &mut Runner, scratch: &Path) -> Rep
where
    A: ScenarioAlgebra<Route = NatInf>,
    A::Edge: PartialEq + Send + Sync + 'static,
{
    let cfg = runner.cfg;
    let store = cfg
        .durable
        .then(|| fresh_dir(scratch, "store").expect("the scratch directory is writable"));
    let ((trace, mut client), setup_s) = timed(|| {
        let trace = cfg.trace(runner.seed);
        let client = Client::bring_up(flavor, &cfg, &trace, store);
        (trace, client)
    });

    let mut ns = Vec::with_capacity(trace.events.len());
    for (k, ev) in trace.events.iter().enumerate() {
        ns.push(timed_ns(|| client.step(k, ev)).1);
    }
    // The flush of a trailing partial batch belongs to the last event.
    let (_, t) = timed_ns(|| client.finish());
    if let Some(last) = ns.last_mut() {
        *last += t;
    }
    let queries = trace
        .events
        .iter()
        .zip(&ns)
        .filter(|(ev, _)| matches!(ev, ServeEvent::Query { .. }))
        .map(|(_, &t)| t)
        .collect();

    let want = runner.want.get_or_insert_with(|| expected(flavor, &trace));
    let counts = client.counts();
    let mut checks = Checks::default();
    client.check(&trace, want, &mut checks);
    Rep {
        setup_s,
        series: vec![
            Series {
                reduce: Reduce::PerSecond("events_per_s"),
                ns,
            },
            Series {
                reduce: Reduce::P50P99Us("query_p50_us", "query_p99_us"),
                ns: queries,
            },
        ],
        checks,
        counts,
    }
}

/// What a `submit` did, known before it is made from the pending count.
#[derive(Clone, Copy, PartialEq)]
enum Call {
    Ingest,
    Flush,
    Lookup,
}

/// The batch partition the server will make of `events`: which submits
/// buffer, which flush (cap reached, or a query with changes pending) and
/// which only look up.
fn classify(events: &[ServeEvent], batch_max: usize) -> Vec<Call> {
    let mut pending = 0usize;
    events
        .iter()
        .map(|ev| match ev {
            ServeEvent::Change(_) if pending + 1 >= batch_max => {
                pending = 0;
                Call::Flush
            }
            ServeEvent::Change(_) => {
                pending += 1;
                Call::Ingest
            }
            ServeEvent::Query { .. } if pending > 0 => {
                pending = 0;
                Call::Flush
            }
            ServeEvent::Query { .. } => Call::Lookup,
        })
        .collect()
}

/// Nanosecond samples of the harness-driven server, by call kind.
#[derive(Default)]
struct Driven {
    ingest: Vec<u64>,
    flush: Vec<u64>,
    lookup: Vec<u64>,
    wal_append: Vec<u64>,
    snapshot: Vec<u64>,
    wal_bytes: u64,
    snapshot_bytes: u64,
    /// Seconds the mirror spent in each step of a flush, in the order
    /// apply, rebuild, diff, clone, iterate.
    mirror_step_s: [f64; 5],
}

/// The harness's own copy of the server, advanced one flush at a time
/// with the public calls a flush makes.
struct FlushMirror<A: RoutingAlgebra> {
    mirror: Mirror,
    adj: AdjacencyMatrix<A>,
    state: RoutingState<A>,
    step_s: [f64; 5],
}

impl<A> FlushMirror<A>
where
    A: RoutingAlgebra,
    A::Edge: PartialEq,
{
    fn new(flavor: &Flavor<A>, topology: &TopologySpec) -> Self {
        let mirror = Mirror::new(topology);
        let adj = mirror.adjacency(flavor.edge);
        let n = adj.node_count();
        let x0 = RoutingState::identity(&flavor.alg, n);
        let state = iterate_to_fixed_point(&flavor.alg, &adj, &x0, iteration_budget(n, None)).state;
        FlushMirror {
            mirror,
            adj,
            state,
            step_s: [0.0; 5],
        }
    }

    /// Mirror one flush of `batch`: apply it to the shape, rebuild the
    /// adjacency, diff it against the old one, clone (or reset) the table,
    /// iterate the dirty rows — each step its own span.
    fn flush(&mut self, flavor: &Flavor<A>, batch: &[ChangeSpec], spans: &mut Spans) {
        let alg = &flavor.alg;
        let id = spans.open("mirror_flush");
        let mirror = &mut self.mirror;
        self.step_s[0] += spans
            .time("apply", |_| {
                batch.iter().for_each(|c| mirror.apply_as_flush(c))
            })
            .1;
        let (new_adj, t) = spans.time("rebuild", |_| mirror.adjacency(flavor.edge));
        self.step_s[1] += t;
        let (dirty, t) = spans.time("diff", |_| dirty_rows_after_change(&self.adj, &new_adj));
        self.step_s[2] += t;
        let n = new_adj.node_count();
        let worsened = batch.iter().any(|c| {
            matches!(
                c,
                ChangeSpec::RemoveEdge { .. }
                    | ChangeSpec::FailLink { .. }
                    | ChangeSpec::SetWeight { .. }
            )
        });
        let restart = flavor.restart_on_removal && worsened && dirty.contains(&true);
        let ((x0, dirty), t) = spans.time("clone", |_| {
            if restart {
                (RoutingState::identity(alg, n), vec![true; n])
            } else {
                (self.state.clone(), dirty)
            }
        });
        self.step_s[3] += t;
        let (out, t) = spans.time("iterate", |_| {
            iterate_dirty_to_fixed_point(alg, &new_adj, &x0, &dirty, iteration_budget(n, None))
        });
        self.step_s[4] += t;
        spans.close(id);
        self.adj = new_adj;
        self.state = out.state;
    }
}

/// Serve the trace with every call its own span (WAL append, the submit
/// by what it does, snapshot), and mirror every flush right after the
/// server makes it, so both see the same machine.
#[allow(clippy::too_many_arguments)]
fn drive<A>(
    flavor: &Flavor<A>,
    cfg: &ServeCfg,
    trace: &ChurnTrace,
    want: &Expected,
    scratch: &Path,
    spans: &mut Spans,
    checks: &mut Checks,
    v: &mut Values,
) -> Driven
where
    A: ScenarioAlgebra<Route = NatInf>,
    A::Edge: PartialEq + Send + Sync + 'static,
{
    let dir = cfg
        .durable
        .then(|| fresh_dir(scratch, "driven").expect("the scratch directory is writable"));
    let mut client = Client::bring_up(flavor, cfg, trace, dir);
    let mut mirror = FlushMirror::new(flavor, &trace.topology);
    let calls = classify(&trace.events, cfg.batch_max);
    let file_len = |p: PathBuf| std::fs::metadata(p).map_or(0, |m| m.len());

    let mut d = Driven::default();
    let mut batch: Vec<ChangeSpec> = Vec::new();
    let run = spans.open("drive");
    for (k, ev) in trace.events.iter().enumerate() {
        if cfg.durable {
            let id = spans.open("wal_append");
            client.log(k);
            d.wal_append.push(spans.close(id));
        }
        if let ServeEvent::Change(c) = ev {
            batch.push(*c);
        }
        let (name, sink) = match calls[k] {
            Call::Ingest => ("ingest", &mut d.ingest),
            Call::Flush => ("flush", &mut d.flush),
            Call::Lookup => ("lookup", &mut d.lookup),
        };
        let id = spans.open(name);
        client.submit(ev);
        sink.push(spans.close(id));
        if calls[k] == Call::Flush {
            mirror.flush(flavor, &batch, spans);
            batch.clear();
        }
        if client.checkpoint_due(k) {
            if let Some((_, store)) = &client.store {
                d.wal_bytes += file_len(store.wal_path());
            }
            let id = spans.open("snapshot");
            client.checkpoint(k);
            d.snapshot.push(spans.close(id));
        }
    }
    if !batch.is_empty() {
        let id = spans.open("flush");
        client.finish();
        d.flush.push(spans.close(id));
        mirror.flush(flavor, &batch, spans);
    }
    spans.close(run);
    if let Some((_, store)) = &client.store {
        d.wal_bytes += file_len(store.wal_path());
        d.snapshot_bytes = file_len(store.snapshot_path());
    }

    checks.check(
        state_digest(&mirror.state) == want.final_digest,
        "mirrored flushes land on the server's final table",
    );
    d.mirror_step_s = mirror.step_s;
    let s = client.server.stats();
    v.insert("scenario.serve.batches", s.batches as f64);
    v.insert(
        "scenario.serve.events_per_batch",
        s.changes as f64 / s.batches.max(1) as f64,
    );
    v.insert("scenario.serve.rounds", s.rounds as f64);
    v.insert(
        "scenario.serve.row_recomputations",
        s.row_recomputations as f64,
    );
    v.insert("scenario.serve.coalesce_ratio", s.coalesce_ratio());
    v.insert("scenario.serve.stale_answers", s.stale_answers as f64);
    v.insert(
        "scenario.serve.deadline_overruns",
        s.deadline_overruns as f64,
    );
    v.insert("scenario.serve.flush_retries", s.flush_retries as f64);
    client.check(trace, want, checks);
    d
}

/// Crash at a fixed offset and recover: replay a prefix of the trace with
/// the store armed, then time restore + WAL tail on the same prefix.
fn recover_ms(cfg: &ServeCfg, trace: &ChurnTrace, scratch: &Path, checks: &mut Checks) -> f64 {
    // Mid-trace, 37 events past a snapshot, so there is a WAL tail.
    let offset = (trace.events.len() / 2 / 64 * 64 + 37).min(trace.events.len());
    let prefix = ChurnTrace {
        topology: trace.topology.clone(),
        algebra: trace.algebra,
        events: trace.events[..offset].to_vec(),
    };
    let dir = fresh_dir(scratch, "recover").expect("the scratch directory is writable");
    let whole = replay(&prefix, &cfg.options(Some(dir.clone())));
    let opts = ServeOptions {
        recover: true,
        ..cfg.options(Some(dir.clone()))
    };
    let (recovered, s) = timed(|| replay(&prefix, &opts));
    std::fs::remove_dir_all(dir).expect("the store directory is removable");
    checks.check(
        recovered.failure.is_none()
            && recovered.recovery.is_some()
            && recovered.final_digest == whole.final_digest
            && recovered.answers_digest == whole.answers_digest,
        "recovery lands on the uninterrupted run's digests",
    );
    s * 1e3
}

fn traced_with<A>(
    flavor: &Flavor<A>,
    cfg: &ServeCfg,
    trace: &ChurnTrace,
    scratch: &Path,
    spans: &mut Spans,
    checks: &mut Checks,
    v: &mut Values,
) -> Expected
where
    A: ScenarioAlgebra<Route = NatInf>,
    A::Edge: PartialEq + Send + Sync + 'static,
{
    let want = expected(flavor, trace);
    let d = drive(flavor, cfg, trace, &want, scratch, spans, checks, v);
    put_percentiles(
        v,
        "scenario.serve.ingest_us_p50",
        "scenario.serve.ingest_us_p99",
        &d.ingest,
        1e3,
    );
    put_percentiles(
        v,
        "scenario.serve.flush_us_p50",
        "scenario.serve.flush_us_p99",
        &d.flush,
        1e3,
    );
    v.insert("scenario.serve.lookup_us_p50", p50_p99(&d.lookup).0 / 1e3);
    put_percentiles(
        v,
        "scenario.checkpoint.wal_append_us_p50",
        "scenario.checkpoint.wal_append_us_p99",
        &d.wal_append,
        1e3,
    );
    v.insert(
        "scenario.checkpoint.snapshot_ms_p50",
        p50_p99(&d.snapshot).0 / 1e6,
    );
    v.insert("scenario.checkpoint.wal_bytes", d.wal_bytes as f64);
    v.insert(
        "scenario.checkpoint.snapshot_bytes",
        d.snapshot_bytes as f64,
    );
    v.insert("scenario.checkpoint.snapshots", d.snapshot.len() as f64);

    let step = d.mirror_step_s;
    let flush_s = d.flush.iter().sum::<u64>() as f64 / 1e9;
    let names = [
        "scenario.serve.share.apply",
        "scenario.serve.share.rebuild",
        "scenario.serve.share.diff",
        "scenario.serve.share.clone",
        "scenario.serve.share.iterate",
    ];
    for (name, s) in names.into_iter().zip(step) {
        v.insert(name, s / flush_s);
    }
    v.insert(
        "scenario.serve.share.residual",
        1.0 - step.iter().sum::<f64>() / flush_s,
    );
    want
}

/// The traced pass.  Returns the untraced and traced wall of the
/// library's own replay (their difference is the telemetry overhead).
pub fn traced(
    cfg: &ServeCfg,
    seed: u64,
    scratch: &Path,
    spans: &mut Spans,
    checks: &mut Checks,
    v: &mut Values,
) -> (f64, f64) {
    let trace = cfg.trace(seed);
    let store = || {
        cfg.durable
            .then(|| fresh_dir(scratch, "store").expect("the scratch directory is writable"))
    };
    let (untraced, untraced_s) = timed(|| replay(&trace, &cfg.options(store())));
    let id = spans.open("replay");
    let t = Instant::now();
    let mut sink = SpanSink::new(spans);
    let report = replay_trace_opts(&trace, &cfg.options(store()), &mut sink)
        .expect("the serve configuration is valid");
    sink.finish();
    let traced_s = t.elapsed().as_secs_f64();
    spans.close(id);
    checks.check(
        report.final_digest == untraced.final_digest
            && report.answers_digest == untraced.answers_digest,
        "the traced replay lands on the untraced digests",
    );
    if cfg.durable {
        let (_, plain_s) = timed(|| replay(&trace, &cfg.options(None)));
        v.insert(
            "scenario.checkpoint.share",
            (untraced_s - plain_s) / untraced_s,
        );
        v.insert(
            "scenario.checkpoint.recover_ms",
            recover_ms(cfg, &trace, scratch, checks),
        );
        let dir = scratch.join(format!("store-{}", std::process::id()));
        std::fs::remove_dir_all(dir).expect("the store directory is removable");
    } else {
        v.insert("scenario.checkpoint.share", 0.0);
        v.insert("scenario.checkpoint.recover_ms", 0.0);
    }
    let want = with_flavor!(
        trace.algebra,
        traced_with(cfg, &trace, scratch, spans, checks, v)
    );
    checks.check(
        untraced.failure.is_none()
            && untraced.final_digest == want.final_digest
            && untraced.answers_digest == want.answers_digest,
        "the library's own replay driver lands on the oracle's digests",
    );
    (untraced_s, traced_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(shortest: bool) -> ServeCfg {
        ServeCfg {
            nodes: 8,
            shortest,
            events: 400,
            query_permille: 100,
            weight_permille: if shortest { 100 } else { 0 },
            batch_max: 8,
            durable: false,
        }
    }

    /// Serve `trace` to its end with a fresh client.
    fn served<A>(
        flavor: &Flavor<A>,
        cfg: &ServeCfg,
        trace: &ChurnTrace,
        store: Option<PathBuf>,
    ) -> Client<A>
    where
        A: ScenarioAlgebra<Route = NatInf>,
        A::Edge: PartialEq + Send + Sync + 'static,
    {
        let mut client = Client::bring_up(flavor, cfg, trace, store);
        for (k, ev) in trace.events.iter().enumerate() {
            client.step(k, ev);
        }
        client.finish();
        client
    }

    #[test]
    fn the_oracle_agrees_with_the_server_on_both_algebras() {
        for shortest in [false, true] {
            let cfg = small(shortest);
            let mut runner = Runner::new(&cfg, 7);
            let (a, b) = (runner.rep(Path::new(".")), runner.rep(Path::new(".")));
            assert_eq!(a.checks.failed + b.checks.failed, 0);
            assert!(a.checks.attempted > cfg.events as u64);
            assert_eq!(a.counts, b.counts);
            // One segment per event, and the queries among them.
            assert_eq!(a.series[0].ns.len(), cfg.events);
            assert_eq!(a.series[1].ns.len(), b.series[1].ns.len());
            assert!(a.series[1].ns.len() > 10);
        }
    }

    #[test]
    fn the_client_serves_what_the_library_replay_serves() {
        fn compare<A>(flavor: &Flavor<A>, cfg: &ServeCfg, trace: &ChurnTrace, dir: &Path)
        where
            A: ScenarioAlgebra<Route = NatInf>,
            A::Edge: PartialEq + Send + Sync + 'static,
        {
            let store = cfg.durable.then(|| fresh_dir(dir, "client").unwrap());
            let client = served(flavor, cfg, trace, store.clone());
            let library = replay(trace, &cfg.options(None));
            assert_eq!(client.server.digest(), library.final_digest);
            assert_eq!(client.answers.finish(), library.answers_digest);
            assert_eq!(client.server.stats().batches, library.stats.batches);
            assert_eq!(client.server.stats().rounds, library.stats.rounds);
            if let Some(store) = store {
                // The store the client leaves is one the library recovers from.
                let opts = ServeOptions {
                    recover: true,
                    ..cfg.options(Some(store.clone()))
                };
                let recovered = replay(trace, &opts);
                assert!(recovered.failure.is_none() && recovered.recovery.is_some());
                assert_eq!(recovered.final_digest, library.final_digest);
                assert_eq!(recovered.answers_digest, library.answers_digest);
                std::fs::remove_dir_all(store).unwrap();
            }
        }
        let dir = std::env::temp_dir();
        for (shortest, durable) in [(false, false), (true, true)] {
            let cfg = ServeCfg {
                durable,
                ..small(shortest)
            };
            let trace = cfg.trace(5);
            with_flavor!(trace.algebra, compare(&cfg, &trace, &dir));
        }
    }

    #[test]
    fn a_corrupted_answer_is_a_failed_operation() {
        fn corrupt<A>(flavor: &Flavor<A>, cfg: &ServeCfg, trace: &ChurnTrace)
        where
            A: ScenarioAlgebra<Route = NatInf>,
            A::Edge: PartialEq + Send + Sync + 'static,
        {
            let want = expected(flavor, trace);
            assert!(want.answers.len() > 10);
            let mut got = want.answers.clone();
            assert_eq!(wrong_answers(&want.answers, &got), 0);
            got[5] = "Fin(99)".to_string();
            assert_eq!(wrong_answers(&want.answers, &got), 1);
            got.pop();
            assert_eq!(wrong_answers(&want.answers, &got), 2);

            // The same through the client: a clean replay passes every
            // check, one flipped answer is one failed operation.
            let mut checks = Checks::default();
            served(flavor, cfg, trace, None).check(trace, &want, &mut checks);
            assert_eq!(checks.failed, 0);
            let mut client = served(flavor, cfg, trace, None);
            client.got[5] = "Fin(99)".to_string();
            let mut checks = Checks::default();
            client.check(trace, &want, &mut checks);
            assert_eq!(checks.failed, 1);
        }
        let cfg = small(false);
        let trace = cfg.trace(3);
        with_flavor!(trace.algebra, corrupt(&cfg, &trace));
    }

    #[test]
    fn classify_reproduces_the_servers_batch_partition() {
        let cfg = small(false);
        let trace = cfg.trace(11);
        let report = replay(&trace, &cfg.options(None));
        let calls = classify(&trace.events, cfg.batch_max);
        let flushes = calls.iter().filter(|&&c| c == Call::Flush).count() as u64;
        // The replay's final `finish` may flush one more, partial batch.
        assert!(report.stats.batches == flushes || report.stats.batches == flushes + 1);
    }
}
