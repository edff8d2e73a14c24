//! What a replay reports — [`ReplayReport`] — and its two renderings:
//! the `BENCH_serve.json` document and the summary `scenarios serve`
//! prints.

use super::types::ServeStats;
use crate::metrics::settle_json;
use crate::report::Json;
use dbf_matrix::PoolStats;
use dbf_telemetry::SettleSummary;

/// A structured mid-replay failure: what went wrong, at which event
/// offset, and where the last durable checkpoint is — enough for an
/// operator to `--recover` or to bisect the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeFailure {
    /// Failure class: `out_of_range`, `budget`, `kernel`, `crash`,
    /// `wal`, `checkpoint`, or `io`.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
    /// The trace event offset at which the replay stopped.
    pub offset: u64,
    /// Offset of the most recent durable snapshot, if any.
    pub last_checkpoint: Option<u64>,
}

/// How a replay was bootstrapped from a checkpoint store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Snapshot offset the run resumed from (`None`: no snapshot yet,
    /// recovery replayed the WAL from offset 0).
    pub snapshot_offset: Option<u64>,
    /// WAL records replayed on top of the snapshot.
    pub wal_replayed: u64,
}

/// The result of replaying a churn trace through a
/// [`RouteServer`](super::RouteServer).
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Final network size.
    pub nodes: usize,
    /// Total events ingested (on failure: the offset reached).
    pub events: u64,
    /// Lifetime server counters.
    pub stats: ServeStats,
    /// Digest of the final converged routing table.
    pub final_digest: String,
    /// Digest over every query answer, in arrival order — byte-identical
    /// replays answer byte-identically.
    pub answers_digest: String,
    /// Worker-pool lifetime counters (thread-count dependent, so they
    /// live in the timing side of the JSON).
    pub pool: PoolStats,
    /// Total replay wall time, milliseconds.
    pub wall_ms: f64,
    /// Why the replay stopped early, if it did.  A report with a failure
    /// is partial: its digests cover the work done up to `offset`.
    pub failure: Option<ServeFailure>,
    /// How this run was bootstrapped from a checkpoint store, if it was.
    pub recovery: Option<RecoveryInfo>,
    /// Snapshots written during this run.
    pub checkpoints: u64,
    /// Offset of the most recent durable snapshot.
    pub last_checkpoint: Option<u64>,
}

impl ReplayReport {
    /// Sustained throughput over the whole replay.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.events as f64 / (self.wall_ms / 1000.0)
        }
    }
}

/// Render a replay as the `BENCH_serve.json` document.  Everything under
/// the top-level `"timing"` key (and only that) is non-deterministic —
/// the CI determinism check strips it and compares the rest byte for
/// byte across thread counts *and* across crash/recover splits, which is
/// why recovery bookkeeping (checkpoints written, WAL records replayed)
/// lives inside `timing` alongside the latency samples.  `"timing"` must
/// stay the *last* top-level key; the CI strip is a line-range deletion.
pub fn serve_json(report: &ReplayReport, threads: usize, batch: usize) -> Json {
    let s = &report.stats;
    let failure = match &report.failure {
        None => Json::Null,
        Some(f) => Json::Obj(vec![
            ("kind".into(), Json::str(&f.kind)),
            ("message".into(), Json::str(&f.message)),
            ("offset".into(), Json::uint(f.offset)),
            (
                "last_checkpoint".into(),
                match f.last_checkpoint {
                    None => Json::Null,
                    Some(o) => Json::uint(o),
                },
            ),
        ]),
    };
    let recovery = match &report.recovery {
        None => Json::Null,
        Some(r) => Json::Obj(vec![
            (
                "snapshot_offset".into(),
                match r.snapshot_offset {
                    None => Json::Null,
                    Some(o) => Json::uint(o),
                },
            ),
            ("wal_replayed".into(), Json::uint(r.wal_replayed)),
        ]),
    };
    Json::Obj(vec![
        ("schema_version".into(), Json::Int(2)),
        ("suite".into(), Json::str("dbf-serve")),
        ("threads".into(), Json::uint(threads as u64)),
        ("batch".into(), Json::uint(batch as u64)),
        (
            "trace".into(),
            Json::Obj(vec![
                ("nodes".into(), Json::uint(report.nodes as u64)),
                ("events".into(), Json::uint(report.events)),
                ("changes".into(), Json::uint(s.changes)),
                ("queries".into(), Json::uint(s.queries)),
            ]),
        ),
        (
            "serve".into(),
            Json::Obj(vec![
                ("batches".into(), Json::uint(s.batches)),
                ("naive_dirty_rows".into(), Json::uint(s.naive_dirty_rows)),
                ("batch_dirty_rows".into(), Json::uint(s.batch_dirty_rows)),
                (
                    "coalesce_ratio".into(),
                    Json::Num((s.coalesce_ratio() * 1e4).round() / 1e4),
                ),
                ("rounds".into(), Json::uint(s.rounds)),
                (
                    "row_recomputations".into(),
                    Json::uint(s.row_recomputations),
                ),
                (
                    "worst_flush_rounds".into(),
                    Json::uint(s.worst_flush_rounds),
                ),
                (
                    "worst_flush_bound".into(),
                    // a saturated bound must not read as −1
                    Json::uint(s.worst_flush_bound),
                ),
                ("bound_ok".into(), Json::uint(s.bound_ok)),
                ("final_digest".into(), Json::str(&report.final_digest)),
                ("answers_digest".into(), Json::str(&report.answers_digest)),
            ]),
        ),
        ("failure".into(), failure),
        (
            "timing".into(),
            Json::Obj(vec![
                ("wall_ms".into(), Json::Num(report.wall_ms)),
                ("events_per_sec".into(), Json::Num(report.events_per_sec())),
                ("stale_answers".into(), Json::uint(s.stale_answers)),
                ("deadline_overruns".into(), Json::uint(s.deadline_overruns)),
                ("checkpoints".into(), Json::uint(report.checkpoints)),
                ("recovery".into(), recovery),
                (
                    "convergence_us".into(),
                    settle_json(SettleSummary::from_samples(&s.convergence_us)),
                ),
                (
                    "query_us".into(),
                    settle_json(SettleSummary::from_samples(&s.query_us)),
                ),
                (
                    "pool".into(),
                    Json::Obj(vec![
                        ("workers".into(), Json::uint(report.pool.workers as u64)),
                        ("epochs".into(), Json::uint(report.pool.epochs)),
                        ("jobs".into(), Json::uint(report.pool.jobs)),
                        (
                            "worker_share".into(),
                            Json::Num((report.pool.worker_share() * 1e4).round() / 1e4),
                        ),
                    ]),
                ),
            ]),
        ),
    ])
}

/// Render a replay as the human-readable summary `scenarios serve` prints
/// beside (or instead of) the JSON document.
pub fn serve_summary(report: &ReplayReport, threads: usize, batch: usize) -> String {
    let s = &report.stats;
    let mut out = format!(
        "serve: {} events ({} changes, {} queries) on {} nodes (threads={threads}, batch<={batch})\n\
         \x20 {} batches dirtied {} rows (one-at-a-time estimate {}, coalesce ratio {:.3})\n\
         \x20 {} rounds, {} row recomputations\n\
         \x20 final digest {}  answers digest {}\n\
         \x20 {:.0} events/sec over {:.1} ms",
        report.events,
        s.changes,
        s.queries,
        report.nodes,
        s.batches,
        s.batch_dirty_rows,
        s.naive_dirty_rows,
        s.coalesce_ratio(),
        s.rounds,
        s.row_recomputations,
        report.final_digest,
        report.answers_digest,
        report.events_per_sec(),
        report.wall_ms,
    );
    for (label, samples) in [("convergence", &s.convergence_us), ("query", &s.query_us)] {
        if let Some(sum) = SettleSummary::from_samples(samples) {
            out.push_str(&format!(
                "\n  {label} latency us: p50={} p95={} p99={} max={} ({} samples)",
                sum.p50, sum.p95, sum.p99, sum.max, sum.count
            ));
        }
    }
    out.push_str(&format!(
        "\n  pool: {} workers, {} epochs, {} jobs ({:.0}% on workers)",
        report.pool.workers,
        report.pool.epochs,
        report.pool.jobs,
        report.pool.worker_share() * 100.0,
    ));
    if let Some(rec) = &report.recovery {
        let snap = match rec.snapshot_offset {
            Some(off) => format!("snapshot at offset {off}"),
            None => "no snapshot".into(),
        };
        out.push_str(&format!(
            "\n  recovered: {snap}, {} WAL events replayed",
            rec.wal_replayed
        ));
    }
    if report.checkpoints > 0 || report.last_checkpoint.is_some() {
        let last = match report.last_checkpoint {
            Some(off) => format!(" (last at offset {off})"),
            None => String::new(),
        };
        out.push_str(&format!(
            "\n  checkpoints: {} snapshots written{last}",
            report.checkpoints
        ));
    }
    if s.stale_answers > 0 || s.deadline_overruns > 0 {
        out.push_str(&format!(
            "\n  degradation: {} deadline overruns, {} stale answers",
            s.deadline_overruns, s.stale_answers
        ));
    }
    if let Some(f) = &report.failure {
        out.push_str(&format!(
            "\n  FAILED ({}) at event offset {}: {}",
            f.kind, f.offset, f.message
        ));
    }
    out
}
