//! The on-disk checkpoint format is frozen: `fixtures/checkpoint-v1/` holds
//! a `snapshot.ckpt` + `events.wal` pair written by the encoder as it was
//! before it became a streaming one (PR 14's parent commit), from
//! `churn.trace` killed at offset 15 with a snapshot every 12 events.  The
//! snapshot has weight overrides, a pending batch (with an `add_node` in
//! it) and `inf` entries; the WAL has a three-record tail.  Stores written
//! by older builds must keep recovering, so today's encoder has to write
//! these bytes and today's decoder has to read them.

use dbf_scenario::prelude::*;
use dbf_scenario::telemetry::NoopSink;
use dbf_scenario::{FaultKind, FaultPlan};
use std::sync::Arc;

const TRACE: &str = include_str!("fixtures/checkpoint-v1/churn.trace");
const SNAPSHOT: &str = include_str!("fixtures/checkpoint-v1/snapshot.ckpt");
const WAL: &str = include_str!("fixtures/checkpoint-v1/events.wal");

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dbf-ckpt-format-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The options the fixture was written under.
fn fixture_opts(dir: &std::path::Path) -> ServeOptions {
    ServeOptions {
        threads: 1,
        batch_max: 16,
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: 12,
        ..ServeOptions::default()
    }
}

#[test]
fn the_encoder_reproduces_the_parent_encoders_files_byte_for_byte() {
    let trace = ChurnTrace::parse(TRACE).expect("fixture trace parses");
    let dir = temp_dir("encode");
    let crashed = replay_trace_opts(
        &trace,
        &ServeOptions {
            faults: Some(Arc::new(
                FaultPlan::new(1).with(FaultKind::CrashAtEvent, 15),
            )),
            ..fixture_opts(&dir)
        },
        &mut NoopSink,
    )
    .expect("crash run returns a partial report");
    assert_eq!(crashed.failure.expect("the crash fires").kind, "crash");
    let store = CheckpointStore::open(&dir).expect("open store");
    let snapshot = std::fs::read_to_string(store.snapshot_path()).expect("snapshot written");
    let wal = std::fs::read_to_string(store.wal_path()).expect("WAL written");
    assert_eq!(snapshot, SNAPSHOT, "snapshot.ckpt moved");
    assert_eq!(wal, WAL, "events.wal moved");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_fixture_snapshot_round_trips_through_parse() {
    // dense enough to exercise every record kind
    for record in ["override ", "pending add_node", " inf", "edge "] {
        assert!(
            SNAPSHOT.contains(record),
            "fixture lost its {record:?} lines"
        );
    }
    let snap = Snapshot::parse(SNAPSHOT).expect("fixture snapshot parses and verifies");
    assert_eq!(snap.offset, 12);
    assert_eq!(snap.nodes, 7);
    assert_eq!(snap.pending.len(), 4);
    assert_eq!(snap.overrides, vec![(0, 1, 9), (1, 2, 7), (3, 2, 4)]);
    assert_eq!(snap.to_text(), SNAPSHOT);
}

#[test]
fn recovery_from_the_fixture_lands_on_the_uninterrupted_digests() {
    let trace = ChurnTrace::parse(TRACE).expect("fixture trace parses");
    let clean = replay_trace(&trace, 1, 16, &mut NoopSink).expect("clean replay");
    let dir = temp_dir("recover");
    std::fs::write(dir.join("snapshot.ckpt"), SNAPSHOT).expect("copy snapshot");
    std::fs::write(dir.join("events.wal"), WAL).expect("copy WAL");
    let recovered = replay_trace_opts(
        &trace,
        &ServeOptions {
            recover: true,
            ..fixture_opts(&dir)
        },
        &mut NoopSink,
    )
    .expect("recovery replay");
    assert!(recovered.failure.is_none(), "{:?}", recovered.failure);
    let info = recovered.recovery.expect("recovery info");
    assert_eq!(info.snapshot_offset, Some(12));
    assert_eq!(info.wal_replayed, 3);
    assert_eq!(recovered.final_digest, clean.final_digest);
    assert_eq!(recovered.answers_digest, clean.answers_digest);
    assert_eq!(recovered.stats.batches, clean.stats.batches);
    assert_eq!(recovered.stats.rounds, clean.stats.rounds);
    assert_eq!(
        recovered.stats.row_recomputations,
        clean.stats.row_recomputations
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_route_token_of_the_infinity_sentinel_fails_recovery_cleanly() {
    // `u64::MAX` is how ∞ is represented in memory, never how it is
    // written (`inf`): a table carrying it as a number is damaged, and
    // recovery must say so rather than panic or read it as ∞.  (Editing
    // through `Snapshot` re-seals the integrity digest, so the decoder is
    // what has to catch it.)
    let mut snap = Snapshot::parse(SNAPSHOT).expect("fixture snapshot parses");
    snap.rows = snap.rows.replacen(" inf", &format!(" {}", u64::MAX), 1);
    let trace = ChurnTrace::parse(TRACE).expect("fixture trace parses");
    let dir = temp_dir("sentinel");
    std::fs::write(dir.join("snapshot.ckpt"), snap.to_text()).expect("write snapshot");
    std::fs::write(dir.join("events.wal"), WAL).expect("copy WAL");
    let report = replay_trace_opts(
        &trace,
        &ServeOptions {
            recover: true,
            ..fixture_opts(&dir)
        },
        &mut NoopSink,
    )
    .expect("a structured failure, not an error");
    let failure = report.failure.expect("recovery refuses the table");
    assert_eq!(failure.kind, "checkpoint");
    assert!(
        failure
            .message
            .contains("bad route token \"18446744073709551615\""),
        "{}",
        failure.message
    );
    std::fs::remove_dir_all(&dir).ok();
}
