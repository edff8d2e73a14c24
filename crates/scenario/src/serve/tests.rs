use super::trace::{parse_event_line, TRACE_HEADER, TRACE_HEADER_V2};
use super::*;
use crate::chaos::{FaultKind, FaultPlan};
use crate::checkpoint::CheckpointStore;
use crate::report::Digest;
use crate::run::build_shape;
use crate::spec::{ChangeSpec, TopologySpec, WeightRule};
use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::prelude::*;
use dbf_matrix::AdjacencyMatrix;
use dbf_telemetry::NoopSink;
use dbf_topology::Topology;
use std::sync::Arc;
use std::time::Duration;

fn small_trace() -> ChurnTrace {
    generate_trace(&TraceSpec {
        topology: TopologySpec::Ring { n: 12 },
        algebra: ServeAlgebra::Hopcount { limit: 24 },
        events: 300,
        seed: 7,
        query_permille: 150,
        weight_permille: 0,
    })
    .expect("generator accepts the spec")
}

fn weighted_trace() -> ChurnTrace {
    generate_trace(&TraceSpec {
        topology: TopologySpec::Ring { n: 10 },
        algebra: ServeAlgebra::Shortest,
        events: 200,
        seed: 11,
        query_permille: 150,
        weight_permille: 200,
    })
    .expect("generator accepts the spec")
}

pub(super) fn hop_rebuild(
) -> impl Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<BoundedHopCount> {
    let rule = WeightRule::uniform(1);
    move |s: &Topology<()>, w: &WeightOverrides| {
        AdjacencyMatrix::from_topology(
            &s.with_weights(|i, j| w.get(&(i, j)).copied().unwrap_or_else(|| rule.weight(i, j))),
        )
    }
}

/// Replay `trace` with no deadline, store or faults.
fn replay(
    trace: &ChurnTrace,
    threads: usize,
    batch_max: usize,
) -> Result<ReplayReport, crate::spec::SpecError> {
    let opts = ServeOptions {
        threads,
        batch_max,
        ..ServeOptions::default()
    };
    replay_trace_opts(trace, &opts, &mut NoopSink)
}

/// A server on `shape` with its initial table converged, as the replay
/// driver brings one up.
fn converged<A, F>(
    alg: A,
    shape: Topology<()>,
    rebuild: F,
    threads: usize,
    batch_max: usize,
) -> RouteServer<A, F>
where
    A: crate::engine::ScenarioAlgebra,
    F: Fn(&Topology<()>, &WeightOverrides) -> AdjacencyMatrix<A>,
{
    let mut server = RouteServer::raw(alg, shape, rebuild, threads, batch_max);
    server.initial_converge(&mut NoopSink).expect("server");
    server
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("dbf-serve-mod-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn traces_round_trip_through_the_text_format() {
    let trace = small_trace();
    let text = trace.to_text();
    assert!(text.starts_with(TRACE_HEADER), "weightless traces stay v1");
    let back = ChurnTrace::parse(&text).expect("own output parses");
    assert_eq!(trace, back);
}

#[test]
fn weighted_traces_round_trip_under_the_v2_header() {
    let trace = weighted_trace();
    assert!(
        trace
            .events
            .iter()
            .any(|e| matches!(e, ServeEvent::Change(ChangeSpec::SetWeight { .. }))),
        "the weighted spec must actually generate set_weight events"
    );
    let text = trace.to_text();
    assert!(text.starts_with(TRACE_HEADER_V2));
    assert!(text.contains("set_weight "));
    let back = ChurnTrace::parse(&text).expect("own output parses");
    assert_eq!(trace, back);
}

#[test]
fn the_generator_is_deterministic_in_its_seed() {
    assert_eq!(small_trace(), small_trace());
    let other = generate_trace(&TraceSpec {
        topology: TopologySpec::Ring { n: 12 },
        algebra: ServeAlgebra::Hopcount { limit: 24 },
        events: 300,
        seed: 8,
        query_permille: 150,
        weight_permille: 0,
    })
    .unwrap();
    assert_ne!(small_trace(), other);
}

#[test]
fn parse_rejects_garbage() {
    assert!(ChurnTrace::parse("hello").is_err());
    assert!(ChurnTrace::parse("# dbf-churn-trace v1\nwarp 1 2\n").is_err());
    assert!(ChurnTrace::parse("# dbf-churn-trace v1\ntopology ring 5\n").is_err());
    assert!(ChurnTrace::parse(
        "# dbf-churn-trace v1\ntopology ring 5\nalgebra hopcount 9\nquery 1\n"
    )
    .is_err());
    assert!(ChurnTrace::parse(
        "# dbf-churn-trace v1\ntopology ring 5\nalgebra hopcount 9\nquery 1 2 3\n"
    )
    .is_err());
    assert!(ChurnTrace::parse(
        "# dbf-churn-trace v1\ntopology ring 5\nalgebra hopcount 9\nset_weight 1 2\n"
    )
    .is_err());
}

#[test]
fn the_infinity_sentinel_is_not_a_trace_weight() {
    let with_weight = |w: u64| {
        ChurnTrace::parse(&format!(
            "{TRACE_HEADER_V2}\ntopology ring 5\nalgebra shortest\nset_weight 1 2 {w}\n"
        ))
    };
    let err = with_weight(u64::MAX).expect_err("u64::MAX stands for ∞");
    assert!(
        err.message.contains("line 4") && err.message.contains("out of range"),
        "{err}"
    );
    // the same parser reads a snapshot's pending batch back
    assert!(parse_event_line(&format!("set_weight 1 2 {}", u64::MAX)).is_err());
    let trace = with_weight(u64::MAX - 1).expect("the largest weight parses");
    assert_eq!(
        trace.events,
        vec![ServeEvent::Change(ChangeSpec::SetWeight {
            from: 1,
            to: 2,
            weight: u64::MAX - 1
        })]
    );
}

#[test]
fn a_hop_limit_the_carrier_cannot_hold_is_not_a_trace_algebra() {
    let with_limit = |limit: u64| {
        ChurnTrace::parse(&format!(
            "{TRACE_HEADER}\ntopology ring 4\nalgebra hopcount {limit}\nfail_link 0 1\nquery 0 2\n"
        ))
    };
    for limit in [0, u64::MAX] {
        let err = with_limit(limit).expect_err("no such hop-count algebra");
        assert!(
            err.message.contains("line 3") && err.message.contains("out of range"),
            "{err}"
        );
        // the generator and a hand-built trace are held to the same rule
        let algebra = ServeAlgebra::Hopcount { limit };
        let spec = TraceSpec {
            topology: TopologySpec::Ring { n: 4 },
            algebra,
            events: 8,
            seed: 1,
            query_permille: 100,
            weight_permille: 0,
        };
        let err = generate_trace(&spec).expect_err("no such hop-count algebra");
        assert!(err.message.contains("out of range"), "{err}");
        let built = ChurnTrace {
            topology: TopologySpec::Ring { n: 4 },
            algebra,
            events: vec![ServeEvent::Query { from: 0, to: 2 }],
        };
        assert!(replay(&built, 1, 16).is_err());
    }
    // The largest limit is an algebra, and its bound saturates instead
    // of wrapping to a small number.
    let trace = with_limit(u64::MAX - 1).expect("the largest limit parses");
    let report = replay(&trace, 1, 16).expect("replay");
    assert!(report.failure.is_none());
    assert_eq!(report.stats.worst_flush_bound, u64::MAX);
}

/// The server's bound is `n · algebra_height`, and so still the formula
/// it wrote out for itself before: `n·(limit + 2)` and
/// `n·((n−1)·w_max + 2)`, saturating.
#[test]
fn the_flush_bound_is_n_times_the_oracles_height() {
    let written_out = |rule: BoundRule, n: u64, overrides: &WeightOverrides| match rule {
        BoundRule::None => None,
        BoundRule::Hopcount { limit } => Some(n.saturating_mul(limit.saturating_add(2))),
        BoundRule::Shortest => {
            let w_max = overrides.values().copied().max().unwrap_or(1).max(1);
            let height = n.saturating_sub(1).saturating_mul(w_max).saturating_add(2);
            Some(n.saturating_mul(height))
        }
    };
    let mut rng = SplitMix64::new(31);
    let draw = |rng: &mut SplitMix64| match rng.next_below(4) {
        0 => rng.next_below(8),
        1 => u64::MAX - rng.next_below(3),
        _ => {
            let bits = 1 + rng.next_below(63);
            rng.next_below(1 << bits)
        }
    };
    for _ in 0..2_000 {
        let n = draw(&mut rng).min(1 << 40) as usize;
        let limit = draw(&mut rng).min(u64::MAX - 1);
        let overrides: WeightOverrides = (0..rng.next_below(4))
            .map(|k| {
                (
                    (k as usize, k as usize + 1),
                    draw(&mut rng).clamp(1, u64::MAX - 1),
                )
            })
            .collect();
        for rule in [
            BoundRule::None,
            BoundRule::Hopcount { limit },
            BoundRule::Shortest,
        ] {
            assert_eq!(
                rule.rounds(n, &overrides),
                written_out(rule, n as u64, &overrides),
                "{rule:?} n={n} {overrides:?}"
            );
        }
    }
}

#[test]
fn flush_bounds_saturate() {
    let none = WeightOverrides::new();
    let huge = BoundRule::Hopcount {
        limit: u64::MAX - 1,
    };
    assert_eq!(huge.rounds(4, &none), Some(u64::MAX));
    assert_eq!(
        BoundRule::Hopcount { limit: 8 }.rounds(4, &none),
        Some(40),
        "n·(limit + 2)"
    );
    let heavy = WeightOverrides::from([((0, 1), u64::MAX - 1)]);
    assert_eq!(BoundRule::Shortest.rounds(4, &heavy), Some(u64::MAX));
    assert_eq!(
        BoundRule::Shortest.rounds(4, &none),
        Some(20),
        "n·((n−1)·1 + 2)"
    );
}

#[test]
fn replay_digests_are_thread_count_invariant() {
    let trace = small_trace();
    let base = replay(&trace, 1, 16).expect("replay");
    assert!(base.failure.is_none());
    for threads in [2, 8] {
        let par = replay(&trace, threads, 16).expect("replay");
        assert_eq!(par.final_digest, base.final_digest, "threads={threads}");
        assert_eq!(par.answers_digest, base.answers_digest, "threads={threads}");
        assert_eq!(par.stats.batches, base.stats.batches);
        assert_eq!(par.stats.rounds, base.stats.rounds);
        assert_eq!(par.stats.batch_dirty_rows, base.stats.batch_dirty_rows);
        assert_eq!(par.stats.worst_flush_rounds, base.stats.worst_flush_rounds);
        assert_eq!(par.stats.bound_ok, base.stats.bound_ok);
    }
}

#[test]
fn weighted_replays_are_thread_count_invariant_too() {
    let trace = weighted_trace();
    let base = replay(&trace, 1, 16).expect("replay");
    assert!(base.failure.is_none());
    for threads in [2, 4] {
        let par = replay(&trace, threads, 16).expect("replay");
        assert_eq!(par.final_digest, base.final_digest, "threads={threads}");
        assert_eq!(par.answers_digest, base.answers_digest, "threads={threads}");
        assert_eq!(par.stats.rounds, base.stats.rounds);
    }
}

#[test]
fn batched_and_one_at_a_time_replays_converge_identically() {
    // Coalescing correctness: on a strictly-increasing algebra the
    // fixed point is unique, so any batching of the same event stream
    // must land on the same table and answer queries identically.
    let trace = small_trace();
    let one = replay(&trace, 1, 1).expect("replay");
    for batch in [4, 64, usize::MAX] {
        let b = replay(&trace, 1, batch).expect("replay");
        assert_eq!(b.final_digest, one.final_digest, "batch={batch}");
        assert_eq!(b.answers_digest, one.answers_digest, "batch={batch}");
        // Larger batches must never dirty more than one-at-a-time.
        assert!(b.stats.batch_dirty_rows <= one.stats.batch_dirty_rows);
    }
}

#[test]
fn mutually_cancelling_changes_coalesce_to_nothing() {
    let shape = build_shape(&TopologySpec::Ring { n: 8 }).unwrap();
    let mut server = converged(BoundedHopCount::new(16), shape, hop_rebuild(), 1, 64);
    let before = server.digest();
    server
        .push_change(ChangeSpec::FailLink { a: 0, b: 1 }, &mut NoopSink)
        .unwrap();
    server
        .push_change(ChangeSpec::SetLink { a: 0, b: 1 }, &mut NoopSink)
        .unwrap();
    server.flush(&mut NoopSink).unwrap();
    let s = server.stats();
    assert_eq!(s.batches, 1);
    assert_eq!(s.batch_dirty_rows, 0, "an undone change must dirty no rows");
    assert_eq!(s.naive_dirty_rows, 4);
    assert_eq!(s.rounds, 0);
    assert_eq!(server.digest(), before);
}

#[test]
fn set_weight_reroutes_shortest_paths() {
    let shape = build_shape(&TopologySpec::Ring { n: 6 }).unwrap();
    let rule = WeightRule::uniform(1);
    let mut server = converged(
        ShortestPaths::new(),
        shape,
        move |s: &Topology<()>, w: &WeightOverrides| {
            AdjacencyMatrix::from_topology(&s.with_weights(|i, j| {
                NatInf::fin(w.get(&(i, j)).copied().unwrap_or_else(|| rule.weight(i, j)))
            }))
        },
        1,
        64,
    )
    .restart_on_removal(true);
    let before = server.query(0, 1, &mut NoopSink).unwrap();
    assert_eq!(before.text, "1");
    // Make the direct hop expensive: the 5-hop way round (cost 5)
    // now beats the weighted direct edge (cost 9) in both directions.
    server
        .push_change(
            ChangeSpec::SetWeight {
                from: 0,
                to: 1,
                weight: 9,
            },
            &mut NoopSink,
        )
        .unwrap();
    server
        .push_change(
            ChangeSpec::SetWeight {
                from: 1,
                to: 0,
                weight: 9,
            },
            &mut NoopSink,
        )
        .unwrap();
    let after = server.query(0, 1, &mut NoopSink).unwrap();
    assert_eq!(after.text, "5", "the route must detour the ring");
    // Re-creating the link resets the edge to rule weight.
    server
        .push_change(ChangeSpec::SetLink { a: 0, b: 1 }, &mut NoopSink)
        .unwrap();
    let reset = server.query(0, 1, &mut NoopSink).unwrap();
    assert_eq!(reset.text, "1");
}

#[test]
fn queries_force_a_flush_and_answer_from_the_converged_table() {
    let shape = build_shape(&TopologySpec::Line { n: 4 }).unwrap();
    // The cap alone would never flush this test's two events.
    let mut server = converged(BoundedHopCount::new(16), shape, hop_rebuild(), 1, 1024);
    let far = server.query(0, 3, &mut NoopSink).unwrap();
    assert!(!far.stale);
    server
        .push_change(ChangeSpec::SetLink { a: 0, b: 3 }, &mut NoopSink)
        .unwrap();
    let near = server.query(0, 3, &mut NoopSink).unwrap();
    assert_ne!(
        far.text, near.text,
        "the new direct link must shorten the route"
    );
    assert_eq!(server.stats().batches, 1, "the query itself flushed");
    // Re-querying with no intervening change is stable and free.
    assert_eq!(server.query(0, 3, &mut NoopSink).unwrap(), near);
    assert_eq!(server.stats().batches, 1);
}

#[test]
fn node_growth_is_supported_mid_stream() {
    let shape = build_shape(&TopologySpec::Line { n: 3 }).unwrap();
    let mut server = converged(BoundedHopCount::new(16), shape, hop_rebuild(), 2, 8);
    server
        .push_change(ChangeSpec::AddNode, &mut NoopSink)
        .unwrap();
    // The joining node is addressable within the same batch.
    server
        .push_change(ChangeSpec::SetLink { a: 2, b: 3 }, &mut NoopSink)
        .unwrap();
    let answer = server.query(0, 3, &mut NoopSink).unwrap();
    assert_eq!(server.node_count(), 4);
    assert!(
        !answer.text.contains("Invalid") && !answer.text.is_empty(),
        "the joined node must be reachable, got {}",
        answer.text
    );
}

#[test]
fn out_of_range_events_fail_structurally_with_a_partial_report() {
    let trace = ChurnTrace {
        topology: TopologySpec::Ring { n: 5 },
        algebra: ServeAlgebra::Hopcount { limit: 10 },
        events: vec![
            ServeEvent::Query { from: 0, to: 2 },
            ServeEvent::Change(ChangeSpec::SetLink { a: 0, b: 9 }),
        ],
    };
    let report = replay(&trace, 1, 8).expect("partial report");
    let failure = report.failure.expect("out-of-range change must fail");
    assert_eq!(failure.kind, "out_of_range");
    assert_eq!(failure.offset, 1, "the failing event's offset is carried");
    assert_eq!(report.stats.queries, 1, "work before the failure is kept");
    let trace = ChurnTrace {
        topology: TopologySpec::Ring { n: 5 },
        algebra: ServeAlgebra::Shortest,
        events: vec![ServeEvent::Query { from: 0, to: 9 }],
    };
    let report = replay(&trace, 1, 8).expect("partial report");
    assert_eq!(report.failure.expect("must fail").kind, "out_of_range");
}

#[test]
fn the_shortest_algebra_replays_deterministically_too() {
    let trace = ChurnTrace {
        algebra: ServeAlgebra::Shortest,
        ..small_trace()
    };
    let a = replay(&trace, 1, 8).expect("replay");
    let b = replay(&trace, 4, 8).expect("replay");
    assert_eq!(a.final_digest, b.final_digest);
    assert_eq!(a.answers_digest, b.answers_digest);
}

#[test]
fn crash_recover_matches_the_uninterrupted_run() {
    for (tag, trace) in [("hop", small_trace()), ("wshort", weighted_trace())] {
        let clean = replay(&trace, 2, 16).expect("clean replay");
        let dir = temp_dir(tag);
        let crashed = replay_trace_opts(
            &trace,
            &ServeOptions {
                threads: 2,
                batch_max: 16,
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every: 32,
                faults: Some(Arc::new(
                    FaultPlan::new(1).with(FaultKind::CrashAtEvent, 150),
                )),
                ..ServeOptions::default()
            },
            &mut NoopSink,
        )
        .expect("crash run returns a partial report");
        let failure = crashed.failure.expect("the crash fault must fire");
        assert_eq!(failure.kind, "crash");
        assert_eq!(failure.offset, 150);
        assert_eq!(failure.last_checkpoint, Some(128));
        let recovered = replay_trace_opts(
            &trace,
            &ServeOptions {
                threads: 2,
                batch_max: 16,
                checkpoint_dir: Some(dir.clone()),
                checkpoint_every: 32,
                recover: true,
                ..ServeOptions::default()
            },
            &mut NoopSink,
        )
        .expect("recovery replay");
        assert!(recovered.failure.is_none(), "{:?}", recovered.failure);
        let info = recovered.recovery.expect("recovery info");
        assert_eq!(info.snapshot_offset, Some(128));
        assert_eq!(info.wal_replayed, 150 - 128);
        assert_eq!(recovered.final_digest, clean.final_digest, "{tag}");
        assert_eq!(recovered.answers_digest, clean.answers_digest, "{tag}");
        assert_eq!(recovered.stats.batches, clean.stats.batches, "{tag}");
        assert_eq!(recovered.stats.rounds, clean.stats.rounds, "{tag}");
        assert_eq!(recovered.stats.changes, clean.stats.changes);
        assert_eq!(recovered.stats.queries, clean.stats.queries);
        assert_eq!(
            recovered.stats.row_recomputations,
            clean.stats.row_recomputations
        );
        assert_eq!(
            recovered.stats.worst_flush_rounds,
            clean.stats.worst_flush_rounds
        );
        assert_eq!(recovered.stats.bound_ok, clean.stats.bound_ok);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A crash inside `write_snapshot`, between emptying the WAL and writing
/// its header, leaves the new snapshot beside an empty (or header-torn)
/// log: recovery restores the snapshot, replays nothing and serves the rest
/// of the trace to the uninterrupted run's digests.
#[test]
fn a_wal_emptied_after_a_snapshot_recovers_to_the_uninterrupted_run() {
    let trace = small_trace();
    let clean = replay(&trace, 2, 16).expect("clean replay");
    for (tag, left) in [("emptied", ""), ("torn-header", "# dbf-w")] {
        let dir = temp_dir(tag);
        let opts = |faults, recover| ServeOptions {
            threads: 2,
            batch_max: 16,
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 32,
            faults,
            recover,
            ..ServeOptions::default()
        };
        let plan = FaultPlan::new(1).with(FaultKind::CrashAtEvent, 128);
        let crashed = replay_trace_opts(&trace, &opts(Some(Arc::new(plan)), false), &mut NoopSink)
            .expect("crash run returns a partial report");
        assert_eq!(
            crashed.failure.expect("the crash fault must fire").kind,
            "crash"
        );
        let store = CheckpointStore::open(&dir).expect("store");
        std::fs::write(store.wal_path(), left).expect("empty the WAL");
        let recovered =
            replay_trace_opts(&trace, &opts(None, true), &mut NoopSink).expect("recovery replay");
        assert!(
            recovered.failure.is_none(),
            "{tag}: {:?}",
            recovered.failure
        );
        let info = recovered.recovery.expect("recovery info");
        assert_eq!(info.snapshot_offset, Some(128), "{tag}");
        assert_eq!(info.wal_replayed, 0, "{tag}");
        assert_eq!(recovered.final_digest, clean.final_digest, "{tag}");
        assert_eq!(recovered.answers_digest, clean.answers_digest, "{tag}");
        assert_eq!(recovered.stats.batches, clean.stats.batches, "{tag}");
        assert_eq!(recovered.stats.rounds, clean.stats.rounds, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_corrupted_wal_fails_recovery_cleanly() {
    let trace = small_trace();
    let dir = temp_dir("corrupt");
    let crashed = replay_trace_opts(
        &trace,
        &ServeOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 64,
            faults: Some(Arc::new(
                FaultPlan::new(2).with(FaultKind::CrashAtEvent, 100),
            )),
            ..ServeOptions::default()
        },
        &mut NoopSink,
    )
    .expect("crash run");
    assert_eq!(crashed.failure.expect("crash").kind, "crash");
    let mut store = CheckpointStore::open(&dir).expect("store");
    store.tamper_corrupt(5).expect("tamper");
    let recovered = replay_trace_opts(
        &trace,
        &ServeOptions {
            checkpoint_dir: Some(dir.clone()),
            recover: true,
            ..ServeOptions::default()
        },
        &mut NoopSink,
    )
    .expect("recovery returns a structured failure, not Err");
    let failure = recovered.failure.expect("corruption must be detected");
    assert_eq!(failure.kind, "wal");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A ring with a failed link takes many σ rounds to reroute: one
/// `fail_link`, then `queries` queries across the cut.
fn slow_reroute_trace(queries: usize) -> ChurnTrace {
    let mut events = vec![ServeEvent::Change(ChangeSpec::FailLink { a: 0, b: 1 })];
    events.resize(1 + queries, ServeEvent::Query { from: 0, to: 6 });
    ChurnTrace {
        topology: TopologySpec::Ring { n: 12 },
        algebra: ServeAlgebra::Hopcount { limit: 24 },
        events,
    }
}

/// One event per batch, a 5ms deadline, and the first flush delayed 50ms.
fn delayed_flush_opts(threads: usize) -> ServeOptions {
    ServeOptions {
        threads,
        batch_max: 1,
        deadline: DeadlineCfg::Millis(5),
        faults: Some(Arc::new(
            FaultPlan::new(3).with(FaultKind::DelayFlush { millis: 50 }, 0),
        )),
        ..ServeOptions::default()
    }
}

#[test]
fn deadline_overrun_serves_stale_then_reconverges_identically() {
    // The one wall-clock run of the deadline machinery (the scripted-clock
    // test below pins the numbers): an injected 50ms pre-flush delay
    // against a 5ms deadline guarantees the overrun fires.
    let trace = slow_reroute_trace(4);
    let clean = replay(&trace, 2, 1).expect("clean");
    let degraded =
        replay_trace_opts(&trace, &delayed_flush_opts(2), &mut NoopSink).expect("degraded run");
    assert!(degraded.failure.is_none());
    assert!(
        degraded.stats.deadline_overruns >= 1,
        "the delayed flush must overrun its 5ms deadline"
    );
    assert!(
        degraded.stats.stale_answers >= 1,
        "queries during reconvergence must be served stale"
    );
    // Wall-clock decides when the new table is adopted, never what
    // it contains: the final table matches the clean run even though
    // some answers were stale.
    assert_eq!(degraded.final_digest, clean.final_digest);
    assert_eq!(degraded.stats.batches, clean.stats.batches);
}

#[test]
fn recover_without_a_store_is_a_config_error() {
    let trace = small_trace();
    let err = replay_trace_opts(
        &trace,
        &ServeOptions {
            recover: true,
            ..ServeOptions::default()
        },
        &mut NoopSink,
    );
    assert!(err.is_err(), "recover without checkpoint dir must be Err");
}

#[test]
fn serve_json_separates_deterministic_and_timing_sections() {
    let trace = small_trace();
    let report = replay(&trace, 2, 16).expect("replay");
    let json = serve_json(&report, 2, 16).to_string();
    assert!(json.contains("\"suite\": \"dbf-serve\""));
    assert!(json.contains("\"schema_version\": 2"));
    assert!(json.contains("\"final_digest\""));
    assert!(json.contains("\"answers_digest\""));
    assert!(json.contains("\"coalesce_ratio\""));
    assert!(json.contains("\"worst_flush_rounds\""));
    assert!(json.contains("\"bound_ok\""));
    assert!(json.contains("\"failure\": null"));
    let timing_pos = json.find("\"timing\"").expect("timing section");
    for key in [
        "wall_ms",
        "events_per_sec",
        "stale_answers",
        "deadline_overruns",
        "checkpoints",
        "recovery",
        "convergence_us",
        "query_us",
        "pool",
    ] {
        let pos = json.find(&format!("\"{key}\"")).expect(key);
        assert!(
            pos > timing_pos,
            "{key} must live inside the timing section"
        );
    }
    let failure_pos = json.find("\"failure\"").expect("failure key");
    assert!(
        failure_pos < timing_pos,
        "failure is part of the deterministic section"
    );
}

/// `serve_json` without the `pool` block — the one part of `timing` that
/// depends on which thread happened to run a job.
fn without_pool_block(report: &ReplayReport) -> String {
    let json = serve_json(report, 0, 1).to_string();
    let mut out = Vec::new();
    let mut in_pool = false;
    for line in json.lines() {
        if line == "    \"pool\": {" {
            in_pool = true;
        } else if in_pool {
            in_pool = line != "    }";
        } else {
            out.push(line);
        }
    }
    assert!(!in_pool && out.len() < json.lines().count(), "{json}");
    out.join("\n")
}

#[test]
fn on_a_scripted_clock_a_deadline_run_is_a_pure_function_of_its_inputs() {
    // 16 queries: the first ones are answered stale while the parked flush
    // advances a round each, the rest from the new table.
    let trace = slow_reroute_trace(16);
    let run = |threads: usize| {
        let clock = Arc::new(ScriptedClock::new(Duration::from_micros(10)));
        replay_clocked(&trace, &delayed_flush_opts(threads), clock, &mut NoopSink)
            .expect("degraded run")
    };
    let one = run(1);
    assert!(one.failure.is_none());
    // Exact, where the wall-clock run can only say `>= 1`: the delayed
    // flush is the one overrun, and the reroute's 10 rounds are the one
    // before it was parked, one per stale query, and the one the ninth
    // query converges on (so that query is answered from the new table).
    assert_eq!(one.stats.deadline_overruns, 1);
    assert_eq!(one.stats.stale_answers, 8);
    assert_eq!(one.stats.rounds, 10);
    assert_eq!(one.stats.queries, 16);
    assert_eq!(one.stats.query_us[8], 20, "two readings and the commit's");
    // 50 ms of injected delay and 10 µs a reading — two per query, the
    // flush's start, overrun check and commit, the driver's own start.
    assert_eq!(one.wall_ms, 50.36);
    let clean = replay(&trace, 1, 1).expect("clean");
    assert_eq!(one.final_digest, clean.final_digest);
    assert_ne!(one.answers_digest, clean.answers_digest, "stale answers");

    let json = without_pool_block(&one);
    assert!(json.contains("\"stale_answers\": 8") && json.contains("\"wall_ms\": 50.36"));
    assert_eq!(without_pool_block(&run(1)), json, "two runs");
    assert_eq!(without_pool_block(&run(4)), json, "threads 1 vs 4");
}

/// Hop count, except that `extend` panics across an edge of weight
/// [`Fragile::BROKEN`]: a round that fails the same way however often it
/// is stepped, as every σ round whose algebra panics does.
#[derive(Clone, Copy, Debug)]
struct Fragile(BoundedHopCount);

impl Fragile {
    const BROKEN: u64 = 13;
}

impl RoutingAlgebra for Fragile {
    type Route = NatInf;
    type Edge = u64;

    fn choice(&self, a: &NatInf, b: &NatInf) -> NatInf {
        self.0.choice(a, b)
    }

    fn extend(&self, f: &u64, r: &NatInf) -> NatInf {
        assert!(*f != Self::BROKEN, "extend across the broken edge");
        self.0.extend(f, r)
    }

    fn trivial(&self) -> NatInf {
        self.0.trivial()
    }

    fn invalid(&self) -> NatInf {
        self.0.invalid()
    }
}

#[test]
fn a_panicking_round_fails_its_flush_at_once_and_parks_it() {
    for threads in [1, 2] {
        // Only `sleep` moves this clock: a backoff would show.
        let clock = Arc::new(ScriptedClock::new(Duration::ZERO));
        let shape = build_shape(&TopologySpec::Ring { n: 12 }).unwrap();
        let rebuild = |s: &Topology<()>, w: &WeightOverrides| {
            AdjacencyMatrix::from_topology(
                &s.with_weights(|i, j| w.get(&(i, j)).copied().unwrap_or(1)),
            )
        };
        let alg = Fragile(BoundedHopCount::new(24));
        let mut server =
            RouteServer::raw(alg, shape, rebuild, threads, 64).with_clock(clock.clone());
        server.initial_converge(&mut NoopSink).expect("converges");
        let before = server.digest();
        let table: Vec<String> = (0..12)
            .map(|to| server.query(0, to, &mut NoopSink).unwrap().text)
            .collect();
        let broken = ChangeSpec::SetWeight {
            from: 3,
            to: 4,
            weight: Fragile::BROKEN,
        };
        server.push_change(broken, &mut NoopSink).unwrap();
        let problem = server.flush(&mut NoopSink).expect_err("the round panics");
        assert_eq!(problem.kind, "kernel", "threads {threads}");
        assert!(problem.message.contains("broken edge"), "{problem}");
        assert_eq!(clock.now(), Duration::ZERO, "no backoff, no second attempt");
        assert!(server.is_degraded());
        for (to, text) in table.iter().enumerate() {
            let answer = server.query(0, to, &mut NoopSink).expect("answered");
            assert!(answer.stale, "0 → {to}");
            assert_eq!(&answer.text, text, "the pre-batch table answers");
        }
        assert_eq!(server.digest(), before);
        assert_eq!(server.finish(&mut NoopSink), Err(problem));
    }
}

/// Ring 4 minus the links {0,1} and {3,0} leaves node 0 unreachable; with
/// weight 0 on 1←2 and 2←1 the stale route to 0 circulated that cycle
/// forever, and which table the server ended on depended on the order of
/// the changes.
fn cut_off_node_0(weight: u64, cuts_first: bool) -> String {
    let weights = format!("set_weight 1 2 {weight}\nset_weight 2 1 {weight}\nquery 2 0\n");
    let cuts = "fail_link 0 1\nfail_link 3 0\nquery 1 0\n";
    let (a, b) = if cuts_first {
        (cuts, weights.as_str())
    } else {
        (weights.as_str(), cuts)
    };
    format!("{TRACE_HEADER_V2}\ntopology ring 4\nalgebra hopcount 16\n{a}{b}query 1 0\nquery 2 0\nquery 3 0\n")
}

#[test]
fn a_zero_weight_is_not_strictly_increasing_and_is_refused() {
    for cuts_first in [false, true] {
        let err = ChurnTrace::parse(&cut_off_node_0(0, cuts_first)).expect_err("weight 0");
        assert!(
            err.message.contains("trace line") && err.message.contains("strictly increasing"),
            "{err}"
        );
    }
    // With the smallest weight there is the order cannot matter: one fixed
    // point, and node 0 is unreachable in it.
    let mut digests = Vec::new();
    for cuts_first in [false, true] {
        let trace = ChurnTrace::parse(&cut_off_node_0(1, cuts_first)).expect("weight 1");
        let report = replay(&trace, 1, 64).expect("replay");
        assert!(report.failure.is_none(), "{:?}", report.failure);
        digests.push(report.final_digest);
    }
    assert_eq!(digests[0], digests[1]);
    let trace = ChurnTrace::parse(&cut_off_node_0(1, false)).unwrap();
    let shape = build_shape(&trace.topology).unwrap();
    let mut server = converged(BoundedHopCount::new(16), shape, hop_rebuild(), 1, 64);
    let mut last = None;
    for event in &trace.events {
        last = server.submit(event, &mut NoopSink).expect("in range");
    }
    let unreachable = last.expect("the trace ends on a query");
    assert!(!unreachable.stale);
    for from in 1..4 {
        let answer = server.query(from, 0, &mut NoopSink).unwrap();
        assert_eq!(answer.text, unreachable.text, "{from} → 0");
    }
    assert_ne!(
        server.query(1, 2, &mut NoopSink).unwrap().text,
        unreachable.text
    );

    // The other ways a weight reaches a server: a change handed to it, and
    // a snapshot's pending batch (the WAL holds trace lines, so a zero
    // there fails to match its trace before it is ever applied).
    let zero = ChangeSpec::SetWeight {
        from: 1,
        to: 2,
        weight: 0,
    };
    let problem = server
        .push_change(zero, &mut NoopSink)
        .expect_err("weight 0");
    assert_eq!(problem.kind, "out_of_range");
    assert!(problem.message.contains("strictly increasing"), "{problem}");
    assert!(parse_event_line("set_weight 1 2 0").is_err());
    let mut snap = server.snapshot(0, "hopcount 16", &Digest::default());
    snap.pending.push("set_weight 1 2 0".to_string());
    let err = RouteServer::restore(BoundedHopCount::new(16), hop_rebuild(), &snap, 1, 64)
        .err()
        .expect("a zero weight in the pending batch");
    assert!(err.contains("strictly increasing"), "{err}");
}

#[test]
fn a_node_count_the_server_cannot_hold_is_refused_before_anything_is_built() {
    use super::trace::MAX_NODES;
    let huge = 4_000_000_000usize;
    let err = ChurnTrace::parse(&format!(
        "{TRACE_HEADER}\ntopology line {huge}\nalgebra hopcount 16\nquery 0 1\n"
    ))
    .expect_err("4·10⁹ nodes");
    assert!(
        err.message.contains("trace line 2") && err.message.contains("more than a route server"),
        "{err}"
    );
    let spec = |n| TraceSpec {
        topology: TopologySpec::Complete { n },
        algebra: ServeAlgebra::Shortest,
        events: 4,
        seed: 1,
        query_permille: 100,
        weight_permille: 0,
    };
    assert!(generate_trace(&spec(huge)).is_err());
    assert!(generate_trace(&spec(MAX_NODES + 1)).is_err());
    // a hand-built trace meets the same check at replay
    let built = ChurnTrace {
        topology: TopologySpec::Line { n: huge },
        algebra: ServeAlgebra::Shortest,
        events: vec![],
    };
    assert!(replay(&built, 1, 16).is_err());
    // ... and so does growth: the node past the cap is an out-of-range event
    let at_cap = ChurnTrace::parse(&format!(
        "{TRACE_HEADER}\ntopology line {MAX_NODES}\nalgebra hopcount 4\nadd_node\n"
    ))
    .expect("the cap itself parses");
    let shape = super::trace::serve_shape(&at_cap.topology).expect("and builds");
    let mut server = RouteServer::raw(BoundedHopCount::new(4), shape, hop_rebuild(), 1, 64);
    let problem = server
        .push_change(ChangeSpec::AddNode, &mut NoopSink)
        .expect_err("one node too many");
    assert_eq!(problem.kind, "out_of_range");
}

#[test]
fn a_snapshot_override_off_the_nodes_or_on_the_diagonal_is_refused() {
    let shortest = |s: &Topology<()>, w: &WeightOverrides| {
        AdjacencyMatrix::from_topology(
            &s.with_weights(|i, j| NatInf::fin(w.get(&(i, j)).copied().unwrap_or(1))),
        )
    };
    let shape = build_shape(&TopologySpec::Ring { n: 10 }).unwrap();
    let mut server = RouteServer::raw(ShortestPaths::new(), shape, shortest, 1, 64);
    server.initial_converge(&mut NoopSink).unwrap();
    let snap = server.snapshot(0, "shortest", &Digest::default());
    for (a, b, w) in [(0, 99, 1000), (3, 3, 5)] {
        let mut forged = snap.clone();
        forged.overrides = vec![(a, b, w)];
        let err = RouteServer::restore(ShortestPaths::new(), shortest, &forged, 1, 64)
            .err()
            .unwrap_or_else(|| panic!("override {a} {b} {w} restored"));
        assert!(err.contains(&format!("override {a} {b} {w}")), "{err}");
    }
    // `set_weight` on a non-edge is admitted live, so a snapshot may hold
    // one
    let mut kept = snap;
    kept.overrides = vec![(0, 5, 7)];
    let restored = RouteServer::restore(ShortestPaths::new(), shortest, &kept, 1, 64)
        .expect("an override on a non-edge");
    assert_eq!(restored.snapshot(0, "shortest", &Digest::default()), kept);
}
