//! Rendering [`MetricsReport`]s into the `scenarios` CLI's JSON and
//! human-readable output.
//!
//! The report splits into two sections with different determinism
//! contracts, and the renderer keeps them apart:
//!
//! * **`metrics`** — round counts, rows recomputed/changed, dirty-set
//!   peaks, per-node settle histograms and message counters.  Every value
//!   is a pure function of `(spec, seed)`: the section is byte-identical
//!   across `--threads` and `--jobs` values (asserted by
//!   `tests/telemetry.rs`).
//! * **`timing`** — wall-clock nanoseconds and per-band sweep geometry.
//!   Inherently machine- and scheduling-dependent; always emitted as the
//!   *last* top-level key so consumers can strip it textually.

use crate::report::Json;
use dbf_telemetry::{MetricsReport, PhaseMetrics, PhaseTiming, SettleSummary};

/// A percentile summary as JSON (`null` when there were no samples): the
/// one rendering the metrics section and `BENCH_serve.json` share.
pub(crate) fn settle_json(s: Option<SettleSummary>) -> Json {
    s.map_or(Json::Null, |s| {
        Json::Obj(vec![
            ("count".into(), Json::uint(s.count)),
            ("p50".into(), Json::uint(s.p50)),
            ("p95".into(), Json::uint(s.p95)),
            ("p99".into(), Json::uint(s.p99)),
            ("max".into(), Json::uint(s.max)),
        ])
    })
}

fn phase_metrics_json(p: &PhaseMetrics) -> Json {
    Json::Obj(vec![
        ("run".into(), Json::str(&p.run)),
        ("phase".into(), Json::str(&p.phase)),
        ("rounds".into(), Json::uint(p.rounds)),
        ("rows_recomputed".into(), Json::uint(p.rows_recomputed)),
        ("rows_changed".into(), Json::uint(p.rows_changed)),
        ("max_scheduled".into(), Json::uint(p.max_scheduled)),
        ("peak_frontier".into(), Json::uint(p.peak_frontier)),
        ("settle".into(), settle_json(p.settle)),
        (
            "messages".into(),
            p.messages.map_or(Json::Null, |m| {
                Json::Obj(vec![
                    ("sent".into(), Json::uint(m.sent)),
                    ("delivered".into(), Json::uint(m.delivered)),
                    ("dropped".into(), Json::uint(m.dropped)),
                    ("duplicated".into(), Json::uint(m.duplicated)),
                    ("bytes".into(), m.bytes.map_or(Json::Null, Json::uint)),
                ])
            }),
        ),
    ])
}

fn phase_timing_json(t: &PhaseTiming) -> Json {
    Json::Obj(vec![
        ("run".into(), Json::str(&t.run)),
        ("phase".into(), Json::str(&t.phase)),
        ("round_wall_ns".into(), Json::uint(t.round_wall_ns)),
        (
            "bands".into(),
            Json::Arr(
                t.bands
                    .iter()
                    .map(|b| {
                        Json::Obj(vec![
                            ("band".into(), Json::uint(b.band)),
                            ("sweeps".into(), Json::uint(b.sweeps)),
                            ("rows".into(), Json::uint(b.rows)),
                            ("weight".into(), Json::uint(b.weight)),
                            ("wall_ns".into(), Json::uint(b.wall_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The deterministic `metrics` section: byte-identical across thread
/// counts and job counts for the same `(spec, seed)`.
///
/// Schema v2 adds `peak_frontier`: the largest *active* frontier any round
/// carried (rows whose inputs changed), alongside `max_scheduled` (rows the
/// engine swept, frontier plus copies).
pub fn metrics_json(report: &MetricsReport) -> Json {
    Json::Obj(vec![
        ("schema_version".into(), Json::Int(2)),
        (
            "phases".into(),
            Json::Arr(report.phases.iter().map(phase_metrics_json).collect()),
        ),
    ])
}

/// The non-deterministic `timing` section: wall times and band geometry.
pub fn timing_json(report: &MetricsReport, threads: usize) -> Json {
    Json::Obj(vec![
        ("threads".into(), Json::uint(threads.max(1) as u64)),
        (
            "phases".into(),
            Json::Arr(report.timing.iter().map(phase_timing_json).collect()),
        ),
    ])
}

/// Append the telemetry sections to a scenario-report JSON object:
/// `metrics` (deterministic) and, given the run's thread count, `timing`
/// (always the final top-level key, so a textual strip of the `timing`
/// block recovers the canonical byte-stable document).  Without `timing`
/// the object is the run's entry in `scenarios run-all`'s document.
pub fn with_telemetry(scenario_json: Json, report: &MetricsReport, threads: Option<usize>) -> Json {
    match scenario_json {
        Json::Obj(mut fields) => {
            fields.push(("metrics".into(), metrics_json(report)));
            if let Some(threads) = threads {
                fields.push(("timing".into(), timing_json(report, threads)));
            }
            Json::Obj(fields)
        }
        other => other,
    }
}

/// A compact human table of the deterministic metrics (`--metrics`).
pub fn metrics_table(report: &MetricsReport) -> String {
    let mut out = String::from(
        "run            phase                rounds  recomputed     changed  maxsched  \
         settle p50/p95/p99/max  messages sent/dropped",
    );
    for p in &report.phases {
        out.push_str(&format!(
            "\n{:<14} {:<20} {:>6} {:>11} {:>11} {:>9}",
            p.run, p.phase, p.rounds, p.rows_recomputed, p.rows_changed, p.max_scheduled
        ));
        match p.settle {
            Some(s) => out.push_str(&format!("  {:>6}/{}/{}/{}", s.p50, s.p95, s.p99, s.max)),
            None => out.push_str("  -"),
        }
        match p.messages {
            Some(m) => out.push_str(&format!("  {}/{}", m.sent, m.dropped)),
            None => out.push_str("  -"),
        }
    }
    out
}

/// The per-phase breakdown table of `scenarios profile`: deterministic
/// counters joined with wall times and the parallel band balance.
pub fn profile_table(report: &MetricsReport) -> String {
    let mut out = String::from(
        "run            phase                rounds     wall_ms  rows/round  settle p95",
    );
    for (p, t) in report.phases.iter().zip(report.timing.iter()) {
        let wall_ms = t.round_wall_ns as f64 / 1e6;
        let rows_per_round = if p.rounds > 0 {
            p.rows_recomputed as f64 / p.rounds as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "\n{:<14} {:<20} {:>6} {:>11.3} {:>11.1}",
            p.run, p.phase, p.rounds, wall_ms, rows_per_round
        ));
        match p.settle {
            Some(s) => out.push_str(&format!(" {:>11}", s.p95)),
            None => out.push_str(&format!(" {:>11}", "-")),
        }
        if !t.bands.is_empty() {
            let total_wall: u64 = t.bands.iter().map(|b| b.wall_ns).sum();
            for b in &t.bands {
                let share = if total_wall > 0 {
                    100.0 * b.wall_ns as f64 / total_wall as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "\n    band {:<3} rows={:<8} weight={:<10} wall={:.3}ms ({:.0}%)",
                    b.band,
                    b.rows,
                    b.weight,
                    b.wall_ns as f64 / 1e6,
                    share
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_telemetry::{AggregatingSink, TelemetrySink};

    fn sample_report() -> MetricsReport {
        let mut sink = AggregatingSink::new();
        sink.run_start("sync", "sync");
        sink.phase_start("baseline", 3);
        sink.round_start(1, 3, 2);
        sink.band_sweep(1, 0, 2, 9, 120);
        sink.band_sweep(1, 1, 1, 4, 60);
        sink.round_end(1, 3, 2, 200);
        for node in 0..3 {
            sink.node_settled(node, 1);
        }
        sink.phase_end("baseline");
        sink.finish()
    }

    #[test]
    fn metrics_json_has_the_deterministic_fields_only() {
        let text = metrics_json(&sample_report()).to_string();
        assert!(text.contains("\"schema_version\": 2"));
        assert!(text.contains("\"rounds\": 1"));
        assert!(text.contains("\"rows_recomputed\": 3"));
        assert!(text.contains("\"peak_frontier\": 2"));
        assert!(text.contains("\"p95\": 1"));
        assert!(text.contains("\"messages\": null"));
        assert!(!text.contains("wall"), "no wall clocks in metrics: {text}");
        assert!(!text.contains("band"), "no band geometry in metrics");
    }

    #[test]
    fn timing_json_carries_bands_and_threads() {
        let text = timing_json(&sample_report(), 2).to_string();
        assert!(text.contains("\"threads\": 2"));
        assert!(text.contains("\"round_wall_ns\": 200"));
        assert!(text.contains("\"weight\": 9"));
    }

    #[test]
    fn with_telemetry_appends_timing_last() {
        let base = Json::Obj(vec![("scenario".into(), Json::str("s"))]);
        let text = with_telemetry(base.clone(), &sample_report(), Some(1)).to_string();
        let metrics_at = text.find("\"metrics\"").expect("metrics present");
        let timing_at = text.find("\"timing\"").expect("timing present");
        assert!(metrics_at < timing_at);
        assert!(
            text.rfind("\"timing\"") == Some(timing_at),
            "timing is the final top-level key"
        );
        let untimed = with_telemetry(base, &sample_report(), None).to_string();
        assert!(untimed.contains("\"metrics\"") && !untimed.contains("\"timing\""));
    }

    #[test]
    fn tables_render_without_panicking() {
        let m = metrics_table(&sample_report());
        assert!(m.contains("sync"));
        assert!(m.contains("baseline"));
        let p = profile_table(&sample_report());
        assert!(p.contains("band 0"));
        assert!(p.contains("%"));
    }
}
