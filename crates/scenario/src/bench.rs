//! The `BENCH_scenarios.json` / `BENCH_sweeps.json` emitters: stable,
//! machine-readable records of how much work each built-in scenario and
//! sweep costs per engine, so future PRs have a performance trajectory to
//! compare against.

use crate::agg::SweepReport;
use crate::metrics::settle_json;
use crate::report::{Json, ScenarioReport};
use dbf_telemetry::MetricsReport;

/// One benchmark record: a scenario's differential report plus the
/// deterministic telemetry metrics collected while it ran (when the run
/// was traced — the emitter degrades gracefully without them).
pub struct BenchRecord {
    /// The differential report.
    pub report: ScenarioReport,
    /// Per-run/per-phase telemetry metrics (settle histograms, round
    /// counts) from an [`dbf_telemetry::AggregatingSink`].
    pub metrics: Option<MetricsReport>,
}

/// Aggregate a set of benchmark records into the `BENCH_scenarios.json`
/// document.
///
/// Per scenario and engine run the document records total rounds, total
/// work, total messages, total wire bytes and total wall-clock
/// milliseconds, plus a per-phase breakdown (so e.g. the incremental
/// engine's advantage on the *topology-change* phases is directly visible
/// next to the full σ engine's numbers) and the differential verdict.
/// Phases of traced runs additionally carry the per-node settle-time
/// summary (p50/p95/p99 — deterministic, unlike the wall times).
/// `threads` records the intra-run worker budget the parallelizable
/// engines were given, so wall-time entries in the trajectory are
/// comparable across PRs.
///
/// Schema v3 adds the bound oracle's outputs: the verdict-level
/// `bounds_ok`, per-phase `predicted_bound` and `tightness`
/// (`rounds / bound` — how much of the theorem's budget the run actually
/// used), and a per-engine worst-case `tightness` so bound slack is
/// trackable across PRs like wall time is.
pub fn bench_json(records: &[BenchRecord], threads: usize) -> Json {
    Json::Obj(vec![
        ("suite".into(), Json::str("dbf-scenario builtins")),
        ("schema_version".into(), Json::Int(3)),
        ("threads".into(), Json::uint(threads.max(1) as u64)),
        (
            "scenarios".into(),
            Json::Arr(
                records
                    .iter()
                    .map(|rec| {
                        let r = &rec.report;
                        Json::Obj(vec![
                            ("name".into(), Json::str(&r.scenario)),
                            ("phases".into(), Json::uint(r.phase_labels.len() as u64)),
                            ("converges".into(), Json::Bool(r.verdict.converges)),
                            ("agreement".into(), Json::Bool(r.verdict.agreement)),
                            ("bounds_ok".into(), Json::Bool(r.verdict.bounds_ok)),
                            ("expectation_met".into(), Json::Bool(r.expectation_met())),
                            (
                                "engines".into(),
                                Json::Arr(
                                    r.runs
                                        .iter()
                                        .map(|run| {
                                            let t = run.totals();
                                            Json::Obj(vec![
                                                ("engine".into(), Json::str(&run.engine)),
                                                ("rounds".into(), Json::uint(t.rounds)),
                                                ("work".into(), Json::uint(t.work)),
                                                ("messages".into(), Json::uint(t.messages)),
                                                ("bytes".into(), Json::uint(t.bytes)),
                                                (
                                                    "tightness".into(),
                                                    t.tightness.map_or(Json::Null, |t| {
                                                        Json::Num((t * 10_000.0).round() / 10_000.0)
                                                    }),
                                                ),
                                                (
                                                    "wall_ms".into(),
                                                    Json::Num(
                                                        (t.wall_ms * 1000.0).round() / 1000.0,
                                                    ),
                                                ),
                                                (
                                                    "phases".into(),
                                                    Json::Arr(
                                                        run.phases
                                                            .iter()
                                                            .map(|p| {
                                                                let settle = rec
                                                                    .metrics
                                                                    .as_ref()
                                                                    .and_then(|m| {
                                                                        m.phases.iter().find(|e| {
                                                                            e.run == run.engine
                                                                                && e.phase
                                                                                    == p.label
                                                                        })
                                                                    })
                                                                    .and_then(|e| {
                                                                        e.settle.as_ref()
                                                                    });
                                                                Json::Obj(vec![
                                                                    (
                                                                        "label".into(),
                                                                        Json::str(&p.label),
                                                                    ),
                                                                    (
                                                                        "rounds".into(),
                                                                        Json::uint(p.rounds),
                                                                    ),
                                                                    (
                                                                        "predicted_bound".into(),
                                                                        p.predicted_bound.map_or(
                                                                            Json::Null,
                                                                            Json::uint,
                                                                        ),
                                                                    ),
                                                                    (
                                                                        "tightness".into(),
                                                                        p.tightness().map_or(
                                                                            Json::Null,
                                                                            |t| {
                                                                                Json::Num(
                                                                                    (t * 10_000.0)
                                                                                        .round()
                                                                                        / 10_000.0,
                                                                                )
                                                                            },
                                                                        ),
                                                                    ),
                                                                    (
                                                                        "work".into(),
                                                                        Json::uint(p.work),
                                                                    ),
                                                                    (
                                                                        "settle".into(),
                                                                        settle_json(
                                                                            settle.copied(),
                                                                        ),
                                                                    ),
                                                                    (
                                                                        "wall_ms".into(),
                                                                        Json::Num(
                                                                            (p.wall_ms * 1000.0)
                                                                                .round()
                                                                                / 1000.0,
                                                                        ),
                                                                    ),
                                                                ])
                                                            })
                                                            .collect(),
                                                    ),
                                                ),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Aggregate a set of sweep reports into the `BENCH_sweeps.json` document.
///
/// Each entry is the sweep's full aggregated report *including* the
/// per-point wall-clock statistics (the whole purpose of the trajectory
/// file), so unlike the `scenarios sweep --json` output this document is
/// not byte-stable across machines or runs.
pub fn bench_sweeps_json(reports: &[SweepReport]) -> Json {
    Json::Obj(vec![
        ("suite".into(), Json::str("dbf-scenario sweeps")),
        ("schema_version".into(), Json::Int(3)),
        (
            "sweeps".into(),
            Json::Arr(reports.iter().map(|r| r.to_json(true)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Agreement, EngineRun, PhaseOutcome};
    use dbf_telemetry::{PhaseMetrics, SettleSummary};

    #[test]
    fn bench_document_aggregates_work() {
        let report = ScenarioReport {
            scenario: "s".into(),
            description: String::new(),
            phase_labels: vec!["a".into(), "b".into()],
            runs: vec![EngineRun {
                engine: "sim[1]".into(),
                phases: vec![
                    PhaseOutcome {
                        label: "a".into(),
                        sigma_stable: true,
                        rounds: 40,
                        predicted_bound: Some(160),
                        work: 10,
                        messages: Some(100),
                        bytes: Some(640),
                        wall_ms: 0.5,
                        digest: "d".into(),
                    },
                    PhaseOutcome {
                        label: "b".into(),
                        sigma_stable: true,
                        rounds: 20,
                        predicted_bound: None,
                        work: 5,
                        messages: Some(50),
                        bytes: None,
                        wall_ms: 0.25,
                        digest: "d".into(),
                    },
                ],
                error: None,
            }],
            verdict: Agreement {
                per_phase: vec![true, true],
                converges: true,
                agreement: true,
                bounds_ok: true,
            },
            expected_converges: true,
            expected_agreement: true,
        };
        let metrics = MetricsReport {
            phases: vec![PhaseMetrics {
                run: "sim[1]".into(),
                phase: "a".into(),
                rounds: 0,
                rows_recomputed: 0,
                rows_changed: 0,
                max_scheduled: 0,
                peak_frontier: 0,
                settle: SettleSummary::from_samples(&[1, 2, 3, 40]),
                messages: None,
            }],
            ..MetricsReport::default()
        };
        let text = bench_json(
            &[BenchRecord {
                report,
                metrics: Some(metrics),
            }],
            4,
        )
        .to_string();
        assert!(text.contains("\"rounds\": 60"), "{text}");
        assert!(text.contains("\"work\": 15"));
        assert!(text.contains("\"messages\": 150"));
        assert!(text.contains("\"bytes\": 640"), "None sums as 0");
        assert!(text.contains("\"schema_version\": 3"));
        assert!(text.contains("\"threads\": 4"));
        assert!(text.contains("\"expectation_met\": true"));
        assert!(text.contains("\"bounds_ok\": true"));
        // Phase "a": 40 rounds against a bound of 160 → tightness 0.25;
        // the engine-level tightness is the max over bounded phases, and
        // phase "b" (no theorem) serializes bound and tightness as null.
        assert!(text.contains("\"predicted_bound\": 160"), "{text}");
        assert!(text.contains("\"predicted_bound\": null"), "{text}");
        assert!(text.contains("\"tightness\": 0.25"), "{text}");
        // Phase "a" carries its settle summary; phase "b" (no metrics
        // entry) serializes settle as null.
        assert!(text.contains("\"p95\": 40"), "{text}");
        assert!(text.contains("\"settle\": null"), "{text}");
    }
}
