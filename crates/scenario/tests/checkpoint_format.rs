//! The on-disk checkpoint format is frozen per version.
//!
//! `fixtures/checkpoint-v1/` holds a `snapshot.ckpt` + `events.wal` pair
//! written by the encoder as it was before it became a streaming one (PR
//! 14's parent commit), from `churn.trace` killed at offset 15 with a
//! snapshot every 12 events.  The snapshot has weight overrides, a pending
//! batch (with an `add_node` in it) and the routing table's `row` records,
//! `inf` entries among them; the WAL has a three-record tail.  Stores
//! written by older builds must keep recovering, so today's decoder has to
//! read these bytes.
//!
//! `fixtures/checkpoint-v2/` is the same trace, crash point and cadence
//! under the format today's encoder writes: a snapshot holds the network,
//! not its routing table.  It is checked against the v1 pair rather than
//! trusted: its snapshot is the v1 snapshot without the `row` lines, under
//! the v2 header and resealed, and its WAL is v1's byte for byte.

use dbf_scenario::prelude::*;
use dbf_scenario::report::Digest;
use dbf_scenario::telemetry::NoopSink;
use dbf_scenario::{FaultKind, FaultPlan};
use std::sync::Arc;

const TRACE: &str = include_str!("fixtures/checkpoint-v1/churn.trace");
const SNAPSHOT_V1: &str = include_str!("fixtures/checkpoint-v1/snapshot.ckpt");
const WAL_V1: &str = include_str!("fixtures/checkpoint-v1/events.wal");
const SNAPSHOT_V2: &str = include_str!("fixtures/checkpoint-v2/snapshot.ckpt");
const WAL_V2: &str = include_str!("fixtures/checkpoint-v2/events.wal");

/// Both pinned stores: `(version, snapshot, WAL)`.
const STORES: [(&str, &str, &str); 2] = [("v1", SNAPSHOT_V1, WAL_V1), ("v2", SNAPSHOT_V2, WAL_V2)];

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dbf-ckpt-format-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The options the fixtures were written under.
fn fixture_opts(dir: &std::path::Path) -> ServeOptions {
    ServeOptions {
        threads: 1,
        batch_max: 16,
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every: 12,
        ..ServeOptions::default()
    }
}

/// `body` sealed with a `digest` line over it, as the encoder seals it.
fn reseal(body: &str) -> String {
    let mut d = Digest::default();
    d.update(body);
    format!("{body}digest {}\n", d.finish())
}

/// The document without its `digest` line.
fn body(snapshot: &str) -> &str {
    &snapshot[..snapshot.rfind("digest ").expect("a sealed snapshot")]
}

#[test]
fn the_encoder_reproduces_the_parent_encoders_files_byte_for_byte() {
    // The WAL is the v1 encoder's file byte for byte; the snapshot is the
    // v2 fixture, which `the_v2_fixture_is_the_v1_fixture_without_its_table`
    // holds to the v1 encoder's file with only its table taken out.
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
    assert_eq!(snapshot, SNAPSHOT_V2, "snapshot.ckpt moved");
    assert_eq!(wal, WAL_V2, "events.wal moved");
    assert_eq!(wal, WAL_V1, "events.wal moved from the v1 encoder's");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_v2_fixture_is_the_v1_fixture_without_its_table() {
    let rows = body(SNAPSHOT_V1)
        .lines()
        .filter(|l| l.starts_with("row "))
        .count();
    assert_eq!(rows, 7, "the v1 fixture holds its table");
    let untabled: String = body(SNAPSHOT_V1)
        .split_inclusive('\n')
        .filter(|l| !l.starts_with("row "))
        .collect();
    let want = reseal(&untabled.replacen("# dbf-checkpoint v1\n", "# dbf-checkpoint v2\n", 1));
    assert_eq!(SNAPSHOT_V2, want);
    assert_eq!(WAL_V2, WAL_V1);
}

#[test]
fn the_fixture_snapshot_round_trips_through_parse() {
    // dense enough to exercise every record kind
    for record in ["override ", "pending add_node", "edge "] {
        for (version, snapshot, _) in STORES {
            assert!(
                snapshot.contains(record),
                "{version} fixture lost its {record:?} lines"
            );
        }
    }
    let v1 = Snapshot::parse(SNAPSHOT_V1).expect("the v1 fixture parses and verifies");
    let v2 = Snapshot::parse(SNAPSHOT_V2).expect("the v2 fixture parses and verifies");
    assert_eq!(v1, v2, "a v1 snapshot's rows are derived data");
    assert_eq!(v2.offset, 12);
    assert_eq!(v2.nodes, 7);
    assert_eq!(v2.pending.len(), 4);
    assert_eq!(v2.overrides, vec![(0, 1, 9), (1, 2, 7), (3, 2, 4)]);
    assert_eq!(v2.to_text(), SNAPSHOT_V2);
}

/// Recover from `snapshot` and `wal` and hold the report to the
/// uninterrupted run's digests and counters.
fn recovers_to_the_uninterrupted_run(name: &str, snapshot: &str, wal: &str) {
    let trace = ChurnTrace::parse(TRACE).expect("fixture trace parses");
    let plain = ServeOptions {
        threads: 1,
        batch_max: 16,
        ..ServeOptions::default()
    };
    let clean = replay_trace_opts(&trace, &plain, &mut NoopSink).expect("clean replay");
    let dir = temp_dir(name);
    std::fs::write(dir.join("snapshot.ckpt"), snapshot).expect("write snapshot");
    std::fs::write(dir.join("events.wal"), wal).expect("write WAL");
    let recovered = replay_trace_opts(
        &trace,
        &ServeOptions {
            recover: true,
            ..fixture_opts(&dir)
        },
        &mut NoopSink,
    )
    .expect("recovery replay");
    assert!(
        recovered.failure.is_none(),
        "{name}: {:?}",
        recovered.failure
    );
    let info = recovered.recovery.expect("recovery info");
    assert_eq!(info.snapshot_offset, Some(12), "{name}");
    assert_eq!(info.wal_replayed, 3, "{name}");
    assert_eq!(recovered.final_digest, clean.final_digest, "{name}");
    assert_eq!(recovered.answers_digest, clean.answers_digest, "{name}");
    assert_eq!(recovered.stats.batches, clean.stats.batches, "{name}");
    assert_eq!(recovered.stats.rounds, clean.stats.rounds, "{name}");
    assert_eq!(
        recovered.stats.row_recomputations, clean.stats.row_recomputations,
        "{name}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_from_the_fixture_lands_on_the_uninterrupted_digests() {
    // The v1 fixture is the reader's pin: stores written by older builds
    // keep recovering.
    recovers_to_the_uninterrupted_run("recover-v1", SNAPSHOT_V1, WAL_V1);
}

#[test]
fn recovery_from_the_v2_fixture_lands_on_the_uninterrupted_digests() {
    recovers_to_the_uninterrupted_run("recover-v2", SNAPSHOT_V2, WAL_V2);
}

#[test]
fn a_resealed_v1_store_whose_table_is_forged_recovers_to_the_clean_digests() {
    // A v1 table is derived data the reader skips: a row 0 that is not
    // the fixed point (every route shortened to 1), or that carries the
    // ∞ sentinel `u64::MAX` as a number, cannot be served, because the
    // restored server converges from the network the snapshot holds.
    let row0 = "row 0 0 6 5 1 2 1 inf\n";
    assert!(SNAPSHOT_V1.contains(row0));
    let sentinel = format!("row 0 0 6 5 1 2 1 {}\n", u64::MAX);
    for (name, forged_row) in [("forged", "row 0 0 1 1 1 1 1 1\n"), ("sentinel", &sentinel)] {
        let forged = reseal(&body(SNAPSHOT_V1).replacen(row0, forged_row, 1));
        assert!(Snapshot::parse(&forged).is_ok(), "{name}: the seal holds");
        recovers_to_the_uninterrupted_run(name, &forged, WAL_V1);
    }
}
