//! Integration tests for the sweep subsystem: grid expansion, the
//! aggregator's determinism guarantee (`--jobs 1` and `--jobs 8` must emit
//! byte-identical aggregated JSON), the `scenarios sweep` CLI and the
//! `BENCH_sweeps.json` emitter.

use dbf_scenario::agg::bench_sweeps_json;
use dbf_scenario::prelude::*;
use std::process::Command;

fn scenarios_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
}

#[test]
fn every_builtin_sweep_has_a_well_formed_grid() {
    for sweep in sweeps::all() {
        sweep
            .validate()
            .unwrap_or_else(|e| panic!("{}: {e}", sweep.name));
        let expected: usize = sweep.axes.iter().map(|a| a.values.len()).product();
        let grid = sweep.grid();
        assert_eq!(grid.len(), expected, "{}", sweep.name);
        assert_eq!(sweep.point_count(), expected, "{}", sweep.name);
        // Labels are unique (each point is a distinct assignment).
        let mut labels: Vec<String> = grid.iter().map(GridPoint::label).collect();
        labels.sort();
        let before = labels.len();
        labels.dedup();
        assert_eq!(before, labels.len(), "{} labels must be unique", sweep.name);
        // Every cell derives a valid scenario.
        for point in &grid {
            for r in 0..sweep.replicates {
                sweep
                    .derive_scenario(point, r)
                    .unwrap_or_else(|e| panic!("{} {}: {e}", sweep.name, point.label()));
            }
        }
    }
}

/// The capability-driven engine pruning must keep the determinism
/// contract: `widest-fabric-scaling` (which now derives per-point engine
/// lists from `EngineInfo::max_recommended_n` instead of a hand-tuned
/// list) still produces byte-identical aggregated JSON across job counts.
/// Restricted to the n=10 grid point so the test stays seconds, not
/// minutes — the pruning logic itself is size-independent.
#[test]
fn widest_fabric_scaling_json_is_byte_identical_across_job_counts() {
    let sweep = sweeps::by_name("widest-fabric-scaling").unwrap();
    let run = |jobs: usize| {
        run_sweep(
            &sweep,
            &SweepRunOptions {
                jobs,
                point: Some(0),
                ..SweepRunOptions::default()
            },
        )
        .expect("widest-fabric-scaling point 0 runs")
    };
    let sequential = run(1).to_json(false).to_string();
    let parallel = run(8).to_json(false).to_string();
    assert_eq!(sequential, parallel);
    assert!(
        sequential.contains("\"ok\": true"),
        "the differential checker holds on the derived engine set:\n{sequential}"
    );
}

/// The determinism contract behind the parallel executor: identical seeds
/// must produce byte-identical aggregated JSON regardless of the job
/// count, because the seeds are derived from `(sweep, point, replicate)`
/// and the aggregation order is the grid order, never the completion order.
#[test]
fn aggregated_json_is_byte_identical_across_job_counts() {
    let sweep = sweeps::by_name("smoke").unwrap();
    let run = |jobs: usize| {
        run_sweep(
            &sweep,
            &SweepRunOptions {
                jobs,
                ..SweepRunOptions::default()
            },
        )
        .expect("smoke sweep runs")
    };
    let sequential = run(1);
    let parallel = run(8);
    assert!(sequential.ok(), "{}", sequential.summary());
    let a = sequential.to_json(false).to_string();
    let b = parallel.to_json(false).to_string();
    assert_eq!(a, b, "deterministic sections must match byte-for-byte");
    // The full reports (minus timing) are structurally equal too.
    for (p, q) in sequential.points.iter().zip(parallel.points.iter()) {
        assert_eq!(p.seeds, q.seeds);
        assert_eq!(p.work, q.work);
        assert_eq!(p.messages, q.messages);
        assert_eq!(p.sync_rounds, q.sync_rounds);
    }
}

#[test]
fn point_and_replicate_filters_reproduce_a_single_cell() {
    let sweep = sweeps::by_name("smoke").unwrap();
    let full = run_sweep(
        &sweep,
        &SweepRunOptions {
            jobs: 1,
            ..SweepRunOptions::default()
        },
    )
    .unwrap();
    let cell = run_sweep(
        &sweep,
        &SweepRunOptions {
            jobs: 1,
            point: Some(2),
            replicate: Some(1),
            ..SweepRunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(cell.points.len(), 1);
    let point = &cell.points[0];
    assert_eq!(point.index, 2);
    assert_eq!(point.replicates, 1);
    // The filtered run uses the same derived seed as the full grid run.
    let full_point = full.points.iter().find(|p| p.index == 2).unwrap();
    assert_eq!(point.seeds[0], full_point.seeds[1]);
}

#[test]
fn bench_sweeps_document_includes_timing_and_every_sweep() {
    let report = run_sweep(
        &sweeps::by_name("smoke").unwrap(),
        &SweepRunOptions {
            jobs: 2,
            ..SweepRunOptions::default()
        },
    )
    .unwrap();
    let doc = bench_sweeps_json(&[report]).to_string();
    assert!(doc.contains("\"suite\": \"dbf-scenario sweeps\""));
    assert!(doc.contains("\"schema_version\": 3"));
    assert!(doc.contains("\"sweep\": \"smoke\""));
    assert!(doc.contains("\"wall_ms\":"), "the trajectory keeps timing");
    assert!(doc.contains("\"p95\":"));
    assert!(doc.contains("\"tightness\""), "v3 carries bound tightness");
}

#[test]
fn cli_sweep_runs_builtins_and_emits_identical_json_across_jobs() {
    let run = |jobs: &str| {
        let out = scenarios_bin()
            .args(["sweep", "smoke", "--json", "--jobs", jobs])
            .output()
            .expect("spawn scenarios");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let a = run("1");
    let b = run("8");
    assert_eq!(a, b, "CLI JSON must be byte-identical across --jobs");
    assert!(a.contains("\"sweep\": \"smoke\""));
    assert!(a.contains("\"ok\": true"));
    assert!(a.contains("\"p95\":"));
    assert!(
        !a.contains("wall_ms"),
        "timing must stay out of the deterministic JSON"
    );
    // --timing opts into the non-deterministic section.
    let timed = scenarios_bin()
        .args(["sweep", "smoke", "--json", "--timing"])
        .output()
        .expect("spawn scenarios");
    assert!(timed.status.success());
    assert!(String::from_utf8_lossy(&timed.stdout).contains("wall_ms"));
}

#[test]
fn cli_sweep_loads_toml_files_and_lists_builtins() {
    let dir = std::env::temp_dir().join("dbf-sweep-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mini.toml");
    std::fs::write(
        &path,
        r#"
name = "mini"
description = "a handwritten sweep over a builtin base"
base = "count-to-infinity"
replicates = 2

[[axes]]
param = "loss"
values = [0.0, 0.2]
"#,
    )
    .unwrap();
    let out = scenarios_bin()
        .args(["sweep", path.to_str().unwrap(), "--jobs", "2"])
        .output()
        .expect("spawn scenarios");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("sweep mini"), "{stdout}");
    assert!(stdout.contains("loss=0.2"), "{stdout}");

    let list = scenarios_bin().arg("list-sweeps").output().unwrap();
    assert!(list.status.success());
    let listing = String::from_utf8_lossy(&list.stdout);
    for sweep in sweeps::all() {
        assert!(listing.contains(&sweep.name), "missing {}", sweep.name);
    }

    let show = scenarios_bin()
        .args(["show-sweep", "smoke"])
        .output()
        .unwrap();
    assert!(show.status.success());
    let shown = String::from_utf8_lossy(&show.stdout);
    let reparsed = Sweep::from_toml_str(&shown).expect("show-sweep output parses");
    assert_eq!(reparsed.name, "smoke");
}
