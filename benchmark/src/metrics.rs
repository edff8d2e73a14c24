//! The metric registry: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound.  These tables
//! are the single source of the names; `BENCHMARK.json` must list exactly
//! them (a test checks it).

use std::collections::BTreeMap;

/// One end-to-end metric: `(name, unit, better, bound)`.  `bound` is the
/// share of the parent's median by which the metric may worsen.
pub const END_TO_END: [(&str, &str, &str, f64); 9] = [
    ("setup_s", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("query_p50_us", "us", "lower", 0.25),
    ("query_p99_us", "us", "lower", 0.25),
    ("cold_converge_s", "s", "lower", 0.25),
    ("blocked_converge_s", "s", "lower", 0.25),
    ("reconverge_s", "s", "lower", 0.25),
    ("diff_wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
];

/// One per-layer metric: `(name, unit, better)`.  Layers are the repo's
/// modules; README.md says which end-to-end metric each should move.
pub const PER_LAYER: [(&str, &str, &str); 76] = [
    // dbf-algebra / dbf-bgp
    ("algebra.extend_choice_ns.hopcount", "ns", "lower"),
    ("algebra.extend_choice_ns.shortest", "ns", "lower"),
    ("algebra.extend_choice_ns.widest", "ns", "lower"),
    ("algebra.extend_choice_ns.bgp", "ns", "lower"),
    ("algebra.extend_choice_ns.gao_rexford", "ns", "lower"),
    // dbf-topology
    ("topology.apply_change_us", "us", "lower"),
    ("topology.generate_s", "s", "lower"),
    // dbf-matrix::adjacency / state, on the serve shape and the fabric
    ("matrix.adjacency.build_us.serve", "us", "lower"),
    ("matrix.adjacency.build_us.fabric", "us", "lower"),
    ("matrix.adjacency.diff_us.serve", "us", "lower"),
    ("matrix.adjacency.diff_us.fabric", "us", "lower"),
    ("matrix.state.clone_us.serve", "us", "lower"),
    ("matrix.state.clone_us.fabric", "us", "lower"),
    // dbf-matrix::sigma
    ("matrix.sigma.row_entries_per_s.hub", "1/s", "higher"),
    ("matrix.sigma.row_entries_per_s.median", "1/s", "higher"),
    // dbf-matrix::sync
    ("matrix.sync.rounds", "count", "lower"),
    ("matrix.sync.row_recomputations", "count", "lower"),
    ("matrix.sync.round_ms_p50", "ms", "lower"),
    ("matrix.sync.round_ms_max", "ms", "lower"),
    ("matrix.sync.busy_s", "s", "lower"),
    ("matrix.sync.first_round_share", "ratio", "lower"),
    // dbf-matrix::incremental / frontier
    ("matrix.incremental.rounds", "count", "lower"),
    ("matrix.incremental.row_recomputations", "count", "lower"),
    ("matrix.incremental.busy_s", "s", "lower"),
    ("matrix.incremental.useful_row_share", "ratio", "higher"),
    // dbf-matrix::blocked
    ("matrix.blocked.blocks", "count", "lower"),
    ("matrix.blocked.rounds_total", "count", "lower"),
    ("matrix.blocked.row_recomputations", "count", "lower"),
    ("matrix.blocked.block_s_p50", "s", "lower"),
    ("matrix.blocked.block_s_max", "s", "lower"),
    ("matrix.blocked.rows_per_s", "1/s", "higher"),
    ("scenario.digest.state_digest_ms", "ms", "lower"),
    // dbf-matrix::parallel / pool
    ("matrix.parallel.speedup_t2", "ratio", "higher"),
    ("matrix.pool.epoch_us", "us", "lower"),
    ("matrix.pool.epochs", "count", "lower"),
    ("matrix.pool.jobs", "count", "lower"),
    ("matrix.pool.worker_share", "ratio", "higher"),
    // dbf-async
    ("async.delta.busy_s", "s", "lower"),
    ("async.delta.work", "count", "lower"),
    ("async.sim.busy_s", "s", "lower"),
    ("async.sim.messages", "count", "lower"),
    // dbf-protocols
    ("protocols.bgp.busy_s", "s", "lower"),
    ("protocols.bgp.messages", "count", "lower"),
    ("protocols.bgp.bytes", "count", "lower"),
    // dbf-scenario::run
    ("scenario.run.sync_busy_s", "s", "lower"),
    ("scenario.run.verdict_residual_s", "s", "lower"),
    // dbf-scenario::serve
    ("scenario.serve.ingest_us_p50", "us", "lower"),
    ("scenario.serve.ingest_us_p99", "us", "lower"),
    ("scenario.serve.flush_us_p50", "us", "lower"),
    ("scenario.serve.flush_us_p99", "us", "lower"),
    ("scenario.serve.lookup_us_p50", "us", "lower"),
    ("scenario.serve.batches", "count", "lower"),
    ("scenario.serve.events_per_batch", "count", "higher"),
    ("scenario.serve.rounds", "count", "lower"),
    ("scenario.serve.row_recomputations", "count", "lower"),
    ("scenario.serve.coalesce_ratio", "ratio", "lower"),
    ("scenario.serve.stale_answers", "count", "lower"),
    ("scenario.serve.deadline_overruns", "count", "lower"),
    ("scenario.serve.flush_retries", "count", "lower"),
    ("scenario.serve.share.apply", "ratio", "lower"),
    ("scenario.serve.share.rebuild", "ratio", "lower"),
    ("scenario.serve.share.diff", "ratio", "lower"),
    ("scenario.serve.share.clone", "ratio", "lower"),
    ("scenario.serve.share.iterate", "ratio", "lower"),
    ("scenario.serve.share.residual", "ratio", "lower"),
    // dbf-scenario::checkpoint (all 0 when the workload arms no store)
    ("scenario.checkpoint.wal_append_us_p50", "us", "lower"),
    ("scenario.checkpoint.wal_append_us_p99", "us", "lower"),
    ("scenario.checkpoint.wal_bytes", "count", "lower"),
    ("scenario.checkpoint.snapshot_ms_p50", "ms", "lower"),
    ("scenario.checkpoint.snapshot_bytes", "count", "lower"),
    ("scenario.checkpoint.snapshots", "count", "lower"),
    ("scenario.checkpoint.recover_ms", "ms", "lower"),
    ("scenario.checkpoint.share", "ratio", "lower"),
    // dbf-telemetry
    ("telemetry.overhead_share", "ratio", "lower"),
    // the harness itself
    ("harness.cpu_s", "s", "lower"),
    ("harness.wall_over_cpu", "ratio", "lower"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The registry entries (name, unit) a run in this mode must print.
pub fn expected(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|&(n, u, _, _)| (n, u)).collect()
    }
}

/// The one-line result object the driver reads: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, the metrics being every
/// registry entry of the mode.  `Err` names a metric the run did not
/// measure (a harness bug, never printed as a result).
pub fn result_line(
    traced: bool,
    values: &Values,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit) in expected(traced) {
        let v = values
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(MANIFEST.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(MANIFEST.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            MANIFEST.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the registry does not know"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let largest = END_TO_END.iter().map(|m| m.3).fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].0, "setup_s");
        assert_eq!(
            END_TO_END[0].3, largest,
            "setup_s carries the largest bound"
        );
        assert!(largest <= 0.25);
    }

    #[test]
    fn result_line_refuses_a_missing_metric() {
        let mut v = Values::new();
        for (name, _, _, _) in END_TO_END {
            v.insert(name, 1.5);
        }
        let line = result_line(false, &v, 10, 0).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        v.remove("diff_wall_s");
        assert!(result_line(false, &v, 10, 0).is_err());
        assert!(result_line(true, &v, 10, 0).is_err());
    }
}
