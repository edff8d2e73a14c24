//! Store files are input from outside the program: recovery reads back a
//! snapshot and a WAL that a dead process wrote, or that something else
//! did.  Token and byte mutants of recorded stores — each half resealed, so
//! that the snapshot digest and the WAL checksums hold and the parsers
//! behind them are reached — never panic and never allocate by a number
//! nobody checked.  A mutant whose seals are broken fails with a
//! `checkpoint` or `wal` failure, or (a torn final record, a change no
//! parser can see) recovers to the clean run's table; a resealed one fails
//! with a structured error or restores a server whose table is σ's fixed
//! point of its shape.

use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::prelude::{BoundedHopCount, NatInf, ShortestPaths};
use dbf_matrix::{iterate_to_fixed_point, iteration_budget, AdjacencyMatrix, RoutingState};
use dbf_scenario::engine::{state_digest, ScenarioAlgebra};
use dbf_scenario::report::Digest;
use dbf_scenario::telemetry::NoopSink;
use dbf_scenario::{
    generate_trace, replay_trace_opts, ChurnTrace, PersistRoute, RouteServer, ServeAlgebra,
    ServeOptions, Snapshot, TopologySpec, TraceSpec, WeightOverrides,
};
use dbf_scenario::{FaultKind, FaultPlan};
use dbf_topology::Topology;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbf-store-input-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// A store a crashed replay left behind, and where the clean run lands.
struct Store {
    name: &'static str,
    trace: ChurnTrace,
    opts: ServeOptions,
    snapshot: String,
    wal: String,
    clean_digest: String,
}

/// Replay `trace` until the crash at `crash_at`, snapshotting every
/// `every` events, and keep what the store holds.
fn record(name: &'static str, trace: ChurnTrace, every: u64, crash_at: u64) -> Store {
    let dir = temp_dir(name);
    let opts = ServeOptions {
        batch_max: 8,
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: every,
        ..ServeOptions::default()
    };
    let crash = FaultPlan::new(1).with(FaultKind::CrashAtEvent, crash_at);
    let crashed = ServeOptions {
        faults: Some(Arc::new(crash)),
        ..opts.clone()
    };
    let report = replay_trace_opts(&trace, &crashed, &mut NoopSink).expect("a partial report");
    assert_eq!(report.failure.expect("the crash fires").kind, "crash");
    let read = |file: &str| std::fs::read_to_string(dir.join(file)).expect(file);
    let (snapshot, wal) = (read("snapshot.ckpt"), read("events.wal"));
    Store {
        clean_digest: clean_digest(&trace, &opts),
        name,
        trace,
        opts,
        snapshot,
        wal,
    }
}

fn clean_digest(trace: &ChurnTrace, opts: &ServeOptions) -> String {
    let clean = ServeOptions {
        checkpoint_dir: None,
        ..opts.clone()
    };
    let report = replay_trace_opts(trace, &clean, &mut NoopSink).expect("clean replay");
    assert!(report.failure.is_none());
    report.final_digest
}

fn churn(algebra: ServeAlgebra, seed: u64) -> ChurnTrace {
    generate_trace(&TraceSpec {
        topology: TopologySpec::Ring { n: 8 },
        algebra,
        events: 48,
        seed,
        query_permille: 250,
        weight_permille: if algebra == ServeAlgebra::Shortest {
            250
        } else {
            0
        },
    })
    .expect("generator accepts the spec")
}

fn fixture() -> Store {
    let dir = temp_dir("fixture");
    let fixture = |file: &str| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint-v1");
        std::fs::read_to_string(path.join(file)).expect(file)
    };
    let trace = ChurnTrace::parse(&fixture("churn.trace")).expect("fixture trace");
    let opts = ServeOptions {
        batch_max: 16,
        checkpoint_dir: Some(dir),
        checkpoint_every: 12,
        ..ServeOptions::default()
    };
    Store {
        clean_digest: clean_digest(&trace, &opts),
        name: "fixture",
        trace,
        opts,
        snapshot: fixture("snapshot.ckpt"),
        wal: fixture("events.wal"),
    }
}

/// Values a token mutation writes in place of a token: negatives, zero,
/// a node past the route server's cap, the ∞ sentinel and its neighbour,
/// words where numbers go.
const NEAR_MISSES: [&str; 10] = [
    "-1",
    "0",
    "1",
    "7",
    "4097",
    "18446744073709551615",
    "18446744073709551614",
    "inf",
    "row",
    "add_node",
];

/// One seeded mutation of a store file: at the byte level (flip a bit,
/// delete a byte, repeat a byte) or the token level (a token replaced by a
/// near miss, a line dropped or repeated).
fn mutate(text: &str, rng: &mut SplitMix64) -> String {
    let mut lines: Vec<String> = text.split_inclusive('\n').map(str::to_string).collect();
    let at = rng.next_below(lines.len() as u64) as usize;
    let pick = |rng: &mut SplitMix64, len: usize| rng.next_below(len.max(1) as u64) as usize;
    match rng.next_below(6) {
        0 | 1 => {
            let mut bytes = std::mem::take(&mut lines[at]).into_bytes();
            if !bytes.is_empty() {
                let k = pick(rng, bytes.len());
                match rng.next_below(3) {
                    0 => bytes[k] ^= 1 << rng.next_below(7),
                    1 => drop(bytes.remove(k)),
                    _ => bytes.insert(k, bytes[k]),
                }
            }
            lines[at] = String::from_utf8_lossy(&bytes).into_owned();
        }
        2 | 3 => {
            let mut tokens: Vec<&str> = lines[at].split(' ').collect();
            let k = pick(rng, tokens.len());
            tokens[k] = NEAR_MISSES[pick(rng, NEAR_MISSES.len())];
            lines[at] = tokens.join(" ");
            if !lines[at].ends_with('\n') && at + 1 < lines.len() {
                lines[at].push('\n');
            }
        }
        4 if lines.len() > 1 => drop(lines.remove(at)),
        _ => {
            let line = lines[at].clone();
            lines.insert(at, line);
        }
    }
    lines.concat()
}

/// Recompute the snapshot's integrity digest over everything before its
/// last `digest` line (adding one if the mutation dropped it).
fn reseal_snapshot(text: &str) -> String {
    let body = &text[..text.rfind("digest ").unwrap_or(text.len())];
    let mut d = Digest::default();
    d.update(body);
    format!("{body}digest {}\n", d.finish())
}

/// Recompute every WAL record's checksum: FNV over `"<offset> <line>"`.
fn reseal_wal(text: &str) -> String {
    let mut out = String::new();
    for line in text.split_inclusive('\n') {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match (
            &tokens[..],
            tokens.get(1).and_then(|t| t.parse::<u64>().ok()),
        ) {
            (["e", off, _, event @ ..], Some(offset)) if !event.is_empty() => {
                let event = event.join(" ");
                let mut d = Digest::default();
                d.update(&format!("{offset} {event}"));
                let sum = d.value() & 0xffff_ffff;
                out.push_str(&format!("e {off} {sum:08x} {event}"));
                if line.ends_with('\n') {
                    out.push('\n');
                }
            }
            _ => out.push_str(line),
        }
    }
    out
}

/// The rebuild a serve replay of this algebra uses: uniform weight 1
/// unless overridden.
fn rebuild<A: ScenarioAlgebra>(
    edge: fn(u64) -> A::Edge,
) -> impl Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A> + Clone {
    move |shape: &Topology<()>, w: &WeightOverrides| {
        let weight = |i, j| edge(w.get(&(i, j)).copied().unwrap_or(1));
        AdjacencyMatrix::from_topology(&shape.with_weights(weight))
    }
}

/// If `snap` restores, the restored table is σ's fixed point of the
/// restored shape, solved from scratch: the idle half of the server's
/// resident invariant, through the public API.
fn restores_to_a_fixed_point<A>(alg: A, edge: fn(u64) -> A::Edge, snap: &Snapshot)
where
    A: ScenarioAlgebra + Clone,
    A::Route: PersistRoute,
{
    let Ok(server) = RouteServer::restore(alg.clone(), rebuild(edge), snap, 1, 8) else {
        return;
    };
    let back = server.snapshot(snap.offset, &snap.algebra, &Digest::default());
    let mut shape = Topology::new(back.nodes);
    for &(a, b) in &back.edges {
        shape.set_edge(a, b, ());
    }
    let overrides = back
        .overrides
        .iter()
        .map(|&(a, b, w)| ((a, b), w))
        .collect();
    let adj = rebuild(edge)(&shape, &overrides);
    let n = back.nodes;
    let identity = RoutingState::identity(&alg, n);
    let cold = iterate_to_fixed_point(&alg, &adj, &identity, iteration_budget(n, None));
    assert!(cold.converged);
    assert_eq!(state_digest(&cold.state), server.digest(), "restored table");
}

/// Recover from `cases` mutants of `store`; returns how many recovered.
fn attack(store: &Store, seed: u64, cases: usize) -> usize {
    let dir = store.opts.checkpoint_dir.clone().expect("a store");
    let recover = ServeOptions {
        recover: true,
        ..store.opts.clone()
    };
    let mut rng = SplitMix64::new(seed);
    let mut recovered = 0;
    for case in 0..cases {
        let (mut snapshot, mut wal) = (store.snapshot.clone(), store.wal.clone());
        let on_snapshot = rng.next_below(2) == 0;
        for _ in 0..=rng.next_below(3) {
            let file = if on_snapshot { &mut snapshot } else { &mut wal };
            *file = mutate(file, &mut rng);
        }
        let sealed = case % 2 == 1;
        if sealed {
            (snapshot, wal) = (reseal_snapshot(&snapshot), reseal_wal(&wal));
        }
        std::fs::write(dir.join("snapshot.ckpt"), &snapshot).expect("write snapshot");
        std::fs::write(dir.join("events.wal"), &wal).expect("write WAL");
        let what = || format!("{} mutant {case} (sealed: {sealed})", store.name);
        let run = catch_unwind(AssertUnwindSafe(|| {
            replay_trace_opts(&store.trace, &recover, &mut NoopSink)
        }));
        let report = run
            .unwrap_or_else(|_| panic!("{} panicked:\n{snapshot}\n{wal}", what()))
            .unwrap_or_else(|e| panic!("{}: not a structured failure: {e}", what()));
        match (&report.failure, sealed) {
            (None, true) => recovered += 1,
            (None, false) => {
                recovered += 1;
                assert_eq!(report.final_digest, store.clean_digest, "{}", what());
            }
            (Some(f), false) => assert!(
                ["checkpoint", "wal"].contains(&f.kind.as_str()),
                "{}: {f:?}",
                what()
            ),
            (Some(_), true) => {}
        }
        if let (true, Ok(snap)) = (sealed, Snapshot::parse(&snapshot)) {
            let restored = catch_unwind(AssertUnwindSafe(|| match store.trace.algebra {
                ServeAlgebra::Hopcount { limit } => {
                    restores_to_a_fixed_point(BoundedHopCount::new(limit), |w| w, &snap)
                }
                ServeAlgebra::Shortest => {
                    restores_to_a_fixed_point(ShortestPaths::new(), NatInf::fin, &snap)
                }
            }));
            restored.unwrap_or_else(|_| panic!("{}: restore panicked:\n{snapshot}", what()));
        }
    }
    recovered
}

#[test]
fn mutated_stores_recover_or_fail_structurally() {
    let stores = [
        record(
            "hopcount",
            churn(ServeAlgebra::Hopcount { limit: 10 }, 11),
            16,
            44,
        ),
        record("shortest", churn(ServeAlgebra::Shortest, 12), 16, 44),
        fixture(),
    ];
    for (k, store) in stores.iter().enumerate() {
        assert!(store.wal.lines().count() > 2, "{}: a WAL tail", store.name);
        let recovered = attack(store, 0x5707e + k as u64, 2000);
        println!("{}: {recovered} of 2000 mutants recovered", store.name);
        assert!(
            (1..2000).contains(&recovered),
            "{}: both outcomes",
            store.name
        );
        std::fs::remove_dir_all(store.opts.checkpoint_dir.as_ref().unwrap()).ok();
    }
}
