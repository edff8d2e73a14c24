//! Integration tests for the route-server daemon: the `gen-trace` /
//! `serve --replay` CLI loop, the coalescing invariants, and the
//! determinism contract — everything a serve report contains except the
//! `timing` block must be **byte-identical** across `--threads 1/2/8`
//! and across batch sizes (the fixed point of a strictly-increasing
//! algebra is unique, so how the event stream is partitioned into
//! reconvergences cannot change where it lands).

use dbf_scenario::prelude::*;
use dbf_scenario::telemetry::NoopSink;
use dbf_scenario::{FaultKind, FaultPlan};
use std::process::Command;
use std::sync::Arc;

fn scenarios_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dbf-serve-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn ring_trace(algebra: ServeAlgebra, events: usize) -> ChurnTrace {
    generate_trace(&TraceSpec {
        topology: TopologySpec::Ring { n: 16 },
        algebra,
        events,
        seed: 42,
        query_permille: 150,
        weight_permille: 0,
    })
    .expect("generator accepts the spec")
}

/// Drop the `timing` block and the `threads` field — the only parts of
/// `BENCH_serve.json` allowed to differ across thread counts.  This is
/// the same stripping the CI determinism gate applies.
fn strip_timing(json: &str) -> String {
    let mut out = Vec::new();
    let mut in_timing = false;
    for l in json.lines() {
        if l == "  \"timing\": {" {
            in_timing = true;
            continue;
        }
        if in_timing {
            if l == "  }" {
                in_timing = false;
            }
            continue;
        }
        if l.trim_start().starts_with("\"threads\"") {
            continue;
        }
        out.push(l.trim_end_matches(','));
    }
    out.join("\n")
}

#[test]
fn serve_cli_replay_is_byte_identical_across_thread_counts() {
    let dir = temp_dir("threads");
    let trace_path = dir.join("churn.trace");
    let gen = scenarios_bin()
        .args([
            "gen-trace",
            "--out",
            trace_path.to_str().unwrap(),
            "--nodes",
            "16",
            "--events",
            "600",
            "--seed",
            "9",
            "--queries",
            "100",
        ])
        .output()
        .expect("run gen-trace");
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );

    let mut stripped = Vec::new();
    for threads in ["1", "2", "8"] {
        let out_path = dir.join(format!("serve_{threads}.json"));
        let run = scenarios_bin()
            .args([
                "serve",
                "--replay",
                trace_path.to_str().unwrap(),
                "--threads",
                threads,
                "--batch",
                "32",
                "--out",
                out_path.to_str().unwrap(),
            ])
            .output()
            .expect("run serve");
        assert!(
            run.status.success(),
            "threads={threads}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let json = std::fs::read_to_string(&out_path).expect("read BENCH_serve.json");
        assert!(json.contains("\"suite\": \"dbf-serve\""));
        stripped.push(strip_timing(&json));
    }
    assert_eq!(
        stripped[0], stripped[1],
        "threads=2 diverged from threads=1"
    );
    assert_eq!(
        stripped[0], stripped[2],
        "threads=8 diverged from threads=1"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coalescing_lands_on_the_same_fixed_point_for_every_batch_size() {
    for algebra in [ServeAlgebra::Hopcount { limit: 32 }, ServeAlgebra::Shortest] {
        let trace = ring_trace(algebra, 400);
        let one = replay_trace(&trace, 1, 1, &mut NoopSink).expect("replay");
        for batch in [7, 64, usize::MAX] {
            let b = replay_trace(&trace, 2, batch, &mut NoopSink).expect("replay");
            assert_eq!(
                b.final_digest, one.final_digest,
                "{algebra:?} batch={batch}: tables diverged"
            );
            assert_eq!(
                b.answers_digest, one.answers_digest,
                "{algebra:?} batch={batch}: query answers diverged"
            );
        }
    }
}

/// A trace that grows the network inside one batch (`generate_trace` never
/// emits `add_node`).  Between the queries at offsets 1 and 11 sit nine
/// changes: two `add_node`s, links to the new nodes — each only in bounds
/// once the pending `add_node` before it is counted — weights on the new
/// link, a `fail_link` and a re-`set_link` that clears those weights.
fn growth_trace(algebra: &str) -> ChurnTrace {
    ChurnTrace::parse(&format!(
        "# dbf-churn-trace v2\n\
         topology ring 8\n\
         algebra {algebra}\n\
         set_link 0 4\n\
         query 0 4\n\
         add_node\n\
         set_link 8 2\n\
         set_weight 8 2 5\n\
         set_weight 2 8 3\n\
         fail_link 8 2\n\
         set_link 8 2\n\
         add_node\n\
         set_edge 9 8\n\
         set_weight 3 4 6\n\
         query 8 0\n\
         query 9 2\n\
         query 2 9\n\
         fail_link 3 4\n\
         query 3 4\n"
    ))
    .expect("hand-written trace parses")
}

#[test]
fn a_batch_that_grows_the_network_lands_where_one_event_at_a_time_does() {
    for algebra in ["hopcount 32", "shortest"] {
        let trace = growth_trace(algebra);
        let one = replay_trace(&trace, 1, 1, &mut NoopSink).expect("replay");
        assert_eq!(one.nodes, 10);
        for batch in [2, 64] {
            let b = replay_trace(&trace, 2, batch, &mut NoopSink).expect("replay");
            assert_eq!(b.final_digest, one.final_digest, "{algebra} batch={batch}");
            assert_eq!(
                b.answers_digest, one.answers_digest,
                "{algebra} batch={batch}"
            );
            if batch == 64 {
                assert_eq!(b.stats.batches, 3, "the growth is one flush");
            }
        }
    }
}

#[test]
fn a_kill_mid_growth_batch_recovers_with_its_pending_add_nodes() {
    for algebra in ["hopcount 32", "shortest"] {
        let trace = growth_trace(algebra);
        let clean = replay_trace(&trace, 1, 64, &mut NoopSink).expect("clean replay");
        // Snapshots land after events 4 and 8, both inside the growth
        // batch; the WAL tail then holds an event that names a node only a
        // *persisted* pending `add_node` makes addressable.
        for crash_at in [5, 10] {
            let dir = temp_dir(&format!("growth-{}-{crash_at}", &algebra[..4]));
            let opts = ServeOptions {
                threads: 1,
                batch_max: 64,
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every: 4,
                ..ServeOptions::default()
            };
            let crashed = replay_trace_opts(
                &trace,
                &ServeOptions {
                    faults: Some(Arc::new(
                        FaultPlan::new(1).with(FaultKind::CrashAtEvent, crash_at),
                    )),
                    ..opts.clone()
                },
                &mut NoopSink,
            )
            .expect("crash run returns a partial report");
            assert_eq!(crashed.failure.expect("the crash fires").kind, "crash");
            let snapshot = std::fs::read_to_string(dir.join("snapshot.ckpt")).expect("snapshot");
            assert!(snapshot.contains("pending add_node\n"), "{snapshot}");

            let recovered = replay_trace_opts(
                &trace,
                &ServeOptions {
                    recover: true,
                    ..opts
                },
                &mut NoopSink,
            )
            .expect("recovery replay");
            assert!(recovered.failure.is_none(), "{:?}", recovered.failure);
            assert_eq!(recovered.nodes, 10);
            assert_eq!(recovered.final_digest, clean.final_digest, "{algebra}");
            assert_eq!(recovered.answers_digest, clean.answers_digest, "{algebra}");
            assert_eq!(recovered.stats.batches, clean.stats.batches, "{algebra}");
            assert_eq!(recovered.stats.rounds, clean.stats.rounds, "{algebra}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// ~60 events that exercise everything a snapshot carries: growth
/// (`add_node` and links to the new nodes), weight overrides and their
/// clearing, removals (restarts, on `shortest`), and queries between them.
fn eventful_trace(algebra: &str) -> ChurnTrace {
    let mut text = format!("# dbf-churn-trace v2\ntopology ring 6\nalgebra {algebra}\n");
    let mut rng = dbf_algebra::algebra::SplitMix64::new(23);
    let mut n = 6;
    for k in 0..60 {
        let (a, b) = (rng.next_below(n) as usize, rng.next_below(n - 1) as usize);
        let b = if b >= a { b + 1 } else { b };
        text += &match k % 10 {
            3 => {
                n += 1;
                format!("add_node\nset_link {} {a}\n", n - 1)
            }
            0 | 5 => format!("set_weight {a} {b} {}\n", 1 + rng.next_below(7)),
            1 | 6 => format!("fail_link {a} {b}\n"),
            2 | 7 => format!("query {a} {b}\n"),
            4 => format!("set_edge {a} {b}\n"),
            8 => format!("remove_edge {a} {b}\n"),
            _ => format!("set_link {a} {b}\n"),
        };
    }
    ChurnTrace::parse(&text).expect("generated trace parses")
}

#[test]
fn a_crash_at_every_offset_recovers_to_the_uninterrupted_report() {
    for algebra in ["hopcount 24", "shortest"] {
        let trace = eventful_trace(algebra);
        assert!(trace.events.len() > 60 && trace.query_count() >= 12);
        let dir = temp_dir(&format!("every-offset-{}", &algebra[..4]));
        let opts = ServeOptions {
            threads: 1,
            batch_max: 5,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 7,
            ..ServeOptions::default()
        };
        let clean = replay_trace_opts(
            &trace,
            &ServeOptions {
                checkpoint_dir: None,
                ..opts.clone()
            },
            &mut NoopSink,
        )
        .expect("clean replay");
        assert!(clean.failure.is_none(), "{:?}", clean.failure);
        assert_eq!(clean.nodes, 12);
        let want = strip_timing(&serve_json(&clean, 1, 5).to_string());
        // `len` is a crash point too: after the last event, before `finish`.
        for crash_at in 0..=trace.events.len() as u64 {
            std::fs::remove_dir_all(&dir).ok();
            let crashed = replay_trace_opts(
                &trace,
                &ServeOptions {
                    faults: Some(Arc::new(
                        FaultPlan::new(1).with(FaultKind::CrashAtEvent, crash_at),
                    )),
                    ..opts.clone()
                },
                &mut NoopSink,
            )
            .expect("crash run returns a partial report");
            if crash_at < trace.events.len() as u64 {
                let failure = crashed.failure.expect("the crash fires");
                assert_eq!((failure.kind.as_str(), failure.offset), ("crash", crash_at));
                assert_eq!(
                    failure.last_checkpoint,
                    Some(crash_at / 7 * 7).filter(|&o| o > 0)
                );
            } else {
                // the crash hook sits before an event: none is left to fire it
                assert!(crashed.failure.is_none());
            }
            let recovered = replay_trace_opts(
                &trace,
                &ServeOptions {
                    recover: true,
                    ..opts.clone()
                },
                &mut NoopSink,
            )
            .expect("recovery replay");
            let info = recovered.recovery.expect("recovery info");
            assert_eq!(
                info.snapshot_offset.unwrap_or(0) + info.wal_replayed,
                crash_at.min(trace.events.len() as u64),
                "{algebra} crash_at={crash_at}: recovery resumes where the crash was"
            );
            assert_eq!(
                strip_timing(&serve_json(&recovered, 1, 5).to_string()),
                want,
                "{algebra} crash_at={crash_at}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One line-level mutation of `lines`: flip a byte of a line, delete a
/// line, insert a line from a small vocabulary of near-misses, or
/// duplicate a line.
fn mutate(lines: &mut Vec<String>, rng: &mut dbf_algebra::algebra::SplitMix64) {
    const INSERTS: [&str; 10] = [
        "add_node",
        "topology complete 3",
        "topology star 70",
        "algebra shortest",
        "algebra hopcount 3",
        "set_weight 0 1 0",
        "set_weight 1 0 18446744073709551614",
        "query 99 0",
        "fail_link 0 0",
        "",
    ];
    let at = rng.next_below(lines.len() as u64) as usize;
    match rng.next_below(4) {
        0 => {
            let mut bytes = std::mem::take(&mut lines[at]).into_bytes();
            if !bytes.is_empty() {
                let k = rng.next_below(bytes.len() as u64) as usize;
                bytes[k] ^= 1 << rng.next_below(7);
            }
            lines[at] = String::from_utf8_lossy(&bytes).into_owned();
        }
        1 if lines.len() > 1 => {
            lines.remove(at);
        }
        2 => lines.insert(at, INSERTS[rng.next_below(10) as usize].to_string()),
        _ => lines.insert(at, lines[at].clone()),
    }
}

#[test]
fn the_trace_parser_and_the_server_survive_mutated_traces() {
    let seed = generate_trace(&TraceSpec {
        topology: TopologySpec::Ring { n: 8 },
        algebra: ServeAlgebra::Hopcount { limit: 12 },
        events: 40,
        seed: 3,
        query_permille: 200,
        weight_permille: 250,
    })
    .expect("generator accepts the spec")
    .to_text();
    assert!(seed.starts_with("# dbf-churn-trace v2"));
    let mut rng = dbf_algebra::algebra::SplitMix64::new(0xf022);
    let (mut parsed, mut replayed, mut failed) = (0, 0, 0);
    for case in 0..2000 {
        let mut lines: Vec<String> = seed.lines().map(str::to_string).collect();
        for _ in 0..=rng.next_below(3) {
            mutate(&mut lines, &mut rng);
        }
        let text = lines.join("\n");
        // `parse` returns; it does not panic, abort or hang.
        let Ok(trace) = ChurnTrace::parse(&text) else {
            continue;
        };
        parsed += 1;
        if trace.topology.initial_nodes().is_none_or(|n| n > 64) {
            continue;
        }
        // What parses replays to a report — a shape the family refuses
        // (`ring 2`) is the one configuration error left — and a replay
        // that stops early says why in a known vocabulary.
        match replay_trace(&trace, 1, 4, &mut NoopSink) {
            Ok(report) => {
                replayed += 1;
                if let Some(f) = &report.failure {
                    failed += 1;
                    assert!(
                        ["out_of_range", "budget"].contains(&f.kind.as_str()),
                        "case {case}: {f:?}\n{text}"
                    );
                    assert!(f.offset < trace.events.len() as u64, "case {case}\n{text}");
                } else {
                    assert_eq!(report.events, trace.events.len() as u64);
                }
            }
            Err(e) => assert!(
                e.message.contains("needs at least"),
                "case {case}: {e}\n{text}"
            ),
        }
    }
    // The mutations are gentle enough that all three outcomes are common.
    assert!(parsed > 400 && parsed < 1900, "{parsed} parsed");
    assert!(
        replayed > 400 && failed > 50,
        "{replayed} replayed, {failed} failed"
    );
}

#[test]
fn queries_after_convergence_are_stable_until_the_next_change() {
    let trace = ring_trace(ServeAlgebra::Hopcount { limit: 32 }, 200);
    let shape = dbf_scenario::run::build_shape(&trace.topology).unwrap();
    let rule = WeightRule::uniform(1);
    let mut server =
        RouteServer::new(
            dbf_algebra::prelude::BoundedHopCount::new(32),
            shape,
            move |s: &dbf_topology::Topology<()>, w: &WeightOverrides| {
                dbf_matrix::AdjacencyMatrix::from_topology(&s.with_weights(|i, j| {
                    w.get(&(i, j)).copied().unwrap_or_else(|| rule.weight(i, j))
                }))
            },
            2,
            16,
            &mut NoopSink,
        )
        .expect("server");
    for ev in &trace.events {
        server.submit(ev, &mut NoopSink).expect("in-bounds event");
    }
    server.flush(&mut NoopSink).expect("final flush");
    // With no further churn, the table and every answer are frozen.
    let digest = server.digest();
    let first = server.query(0, 8, &mut NoopSink).expect("query");
    let batches = server.stats().batches;
    for _ in 0..5 {
        assert_eq!(server.query(0, 8, &mut NoopSink).expect("query"), first);
    }
    assert_eq!(
        server.digest(),
        digest,
        "queries must not perturb the table"
    );
    assert_eq!(
        server.stats().batches,
        batches,
        "queries with nothing pending must not trigger reconvergence"
    );
}

#[test]
fn serve_cli_rejects_missing_and_malformed_traces() {
    let run = scenarios_bin().args(["serve"]).output().expect("run serve");
    assert!(!run.status.success());
    assert!(String::from_utf8_lossy(&run.stderr).contains("--replay"));

    let dir = temp_dir("malformed");
    let bad = dir.join("bad.trace");
    std::fs::write(&bad, "not a trace\n").unwrap();
    let run = scenarios_bin()
        .args(["serve", "--replay", bad.to_str().unwrap()])
        .output()
        .expect("run serve");
    assert!(!run.status.success());
    assert!(String::from_utf8_lossy(&run.stderr).contains("not a churn trace"));

    // A header naming a hop-count algebra that does not exist — no hops at
    // all, or the ∞ sentinel as the limit — is a usage error, not a panic.
    for limit in ["0", "18446744073709551615"] {
        std::fs::write(
            &bad,
            format!("# dbf-churn-trace v1\ntopology ring 4\nalgebra hopcount {limit}\nquery 0 2\n"),
        )
        .unwrap();
        let run = scenarios_bin()
            .args(["serve", "--replay", bad.to_str().unwrap()])
            .output()
            .expect("run serve");
        assert_eq!(run.status.code(), Some(2), "limit {limit}");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains("trace line 3") && stderr.contains("out of range"),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_cli_refuses_a_node_count_it_cannot_hold() {
    // Four lines that used to build 4·10⁹ links until the allocator (or the
    // OOM killer) aborted the process: now a usage error, at once.
    let dir = temp_dir("toomany");
    let big = dir.join("big.trace");
    std::fs::write(
        &big,
        "# dbf-churn-trace v1\ntopology line 4000000000\nalgebra hopcount 16\nquery 0 1\n",
    )
    .unwrap();
    let started = std::time::Instant::now();
    let runs = [
        scenarios_bin()
            .args(["serve", "--replay", big.to_str().unwrap()])
            .output()
            .expect("run serve"),
        scenarios_bin()
            .args(["gen-trace", "--nodes", "4000000000", "--out"])
            .arg(dir.join("never.trace"))
            .output()
            .expect("run gen-trace"),
    ];
    assert!(started.elapsed() < std::time::Duration::from_secs(5));
    for run in runs {
        assert_eq!(run.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains("more than a route server holds"),
            "{stderr}"
        );
    }
    assert!(!dir.join("never.trace").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_trace_round_trips_through_the_text_format() {
    let dir = temp_dir("roundtrip");
    let path = dir.join("churn.trace");
    let gen = scenarios_bin()
        .args([
            "gen-trace",
            "--out",
            path.to_str().unwrap(),
            "--nodes",
            "12",
            "--events",
            "100",
            "--algebra",
            "shortest",
            "--topology",
            "complete",
        ])
        .output()
        .expect("run gen-trace");
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    let trace = ChurnTrace::parse(&text).expect("generated traces parse");
    assert_eq!(trace.algebra, ServeAlgebra::Shortest);
    assert_eq!(trace.topology, TopologySpec::Complete { n: 12 });
    assert_eq!(trace.events.len(), 100);
    assert_eq!(trace.to_text(), text, "to_text/parse round trip");
    std::fs::remove_dir_all(&dir).ok();
}
