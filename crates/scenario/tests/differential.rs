//! Integration tests for the scenario subsystem: every built-in scenario
//! runs on all of its engines, the differential checker's verdict matches
//! the spec's expectation, and the `scenarios` CLI emits well-formed JSON.

use dbf_scenario::prelude::*;
use std::process::Command;

/// The acceptance test of the subsystem: every built-in scenario executes
/// on every engine it requests and the cross-engine oracle returns the
/// expected verdict — agreement for every strictly-increasing algebra
/// scenario, disagreement for the wedgie, non-convergence for the BAD
/// GADGET.
#[test]
fn every_builtin_meets_its_differential_expectation() {
    for scenario in builtins::all() {
        let report = run_scenario(&scenario)
            .unwrap_or_else(|e| panic!("{} failed to run: {e}", scenario.name));
        assert!(
            report.expectation_met(),
            "{}:\n{}",
            scenario.name,
            report.summary()
        );
        // Positive scenarios assert the full Theorem 7/11 statement: every
        // phase, not just the last, ends in cross-engine agreement.
        if scenario.expect.converges && scenario.expect.agreement {
            assert!(
                report.verdict.per_phase.iter().all(|&ok| ok),
                "{} must agree in every phase:\n{}",
                scenario.name,
                report.summary()
            );
        }
        // The registry is the single source of truth for how many runs each
        // engine contributes (deterministic engines once, seeded engines
        // once per seed).
        assert_eq!(
            report.runs.len(),
            planned_runs(&scenario),
            "{}",
            scenario.name
        );
    }
}

/// The wedgie scenario must actually *witness* both stable states across
/// its seeds — otherwise the disagreement expectation would be vacuous.
#[test]
fn the_wedgie_witnesses_two_distinct_fixed_points() {
    let report = run_scenario(&builtins::by_name("bgp-wedgie").unwrap()).unwrap();
    let mut digests: Vec<&str> = report
        .runs
        .iter()
        .map(|r| r.phases.last().unwrap().digest.as_str())
        .collect();
    assert!(report
        .runs
        .iter()
        .all(|r| r.phases.last().unwrap().sigma_stable));
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(
        digests.len(),
        2,
        "DISAGREE has exactly two stable states and the seeds should find both"
    );
}

fn scenarios_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
}

#[test]
fn cli_lists_every_builtin() {
    let out = scenarios_bin()
        .arg("list")
        .output()
        .expect("spawn scenarios");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for scenario in builtins::all() {
        assert!(
            stdout.contains(&scenario.name),
            "list output is missing {}",
            scenario.name
        );
    }
}

/// Crude but dependency-free JSON well-formedness check: balanced
/// braces/brackets outside strings.
fn assert_balanced_json(text: &str) {
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "unbalanced JSON:\n{text}");
    }
    assert_eq!(depth, 0, "unbalanced JSON:\n{text}");
    assert!(!in_string, "unterminated string in JSON:\n{text}");
}

#[test]
fn cli_run_emits_machine_readable_json() {
    let out = scenarios_bin()
        .args(["run", "count-to-infinity", "--json"])
        .output()
        .expect("spawn scenarios");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_balanced_json(&stdout);
    for key in [
        "\"scenario\": \"count-to-infinity\"",
        "\"runs\":",
        "\"engine\": \"sync\"",
        "\"engine\": \"rip[1]\"",
        "\"sigma_stable\": true",
        "\"digest\":",
        "\"verdict\":",
        "\"agreement\": true",
        "\"expectation_met\": true",
    ] {
        assert!(
            stdout.contains(key),
            "JSON output is missing {key}:\n{stdout}"
        );
    }
}

#[test]
fn cli_runs_scenarios_from_toml_files() {
    let scenario = builtins::by_name("partition-and-heal").unwrap();
    let dir = std::env::temp_dir().join("dbf-scenario-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("partition.toml");
    std::fs::write(&path, scenario.to_toml_string()).unwrap();

    let out = scenarios_bin()
        .args([
            "run",
            path.to_str().unwrap(),
            "--engines",
            "sync,sim",
            "--seeds",
            "9",
        ])
        .output()
        .expect("spawn scenarios");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("agreement=true"), "{stdout}");
    assert!(
        stdout.contains("sim[9]"),
        "--seeds must reach the sim engine: {stdout}"
    );
    assert!(
        !stdout.contains("delta["),
        "--engines must filter engines: {stdout}"
    );

    // An engine the registry does not hold is refused, naming the six it does.
    let text = scenario.to_toml_string();
    let line = text
        .lines()
        .find(|l| l.starts_with("engines = "))
        .expect("the spec lists its engines");
    std::fs::write(&path, text.replace(line, "engines = [\"threaded\"]")).unwrap();
    let out = scenarios_bin()
        .args(["run", path.to_str().unwrap()])
        .output()
        .expect("spawn scenarios");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(
            "engines[0]: \"threaded\" is not one of sync, incremental, delta, sim, rip, bgp"
        ),
        "{stderr}"
    );
}

#[test]
fn cli_bounds_json_never_prints_a_negative_bound() {
    // A hop limit of i64::MAX is a valid spec (heights count the ∞ route
    // too, so h is one more); its bounds saturate at u64::MAX and every
    // one of them must reach the JSON clamped, not wrapped negative.
    let mut scenario = builtins::by_name("count-to-infinity").unwrap();
    scenario.algebra = AlgebraSpec::Hopcount {
        limit: i64::MAX as u64,
    };
    scenario.engines = vec![EngineKind::Sync, EngineKind::Incremental];
    let dir = std::env::temp_dir().join("dbf-scenario-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge-hop-limit.toml");
    std::fs::write(&path, scenario.to_toml_string()).unwrap();

    let out = scenarios_bin()
        .args(["bounds", path.to_str().unwrap(), "--json"])
        .output()
        .expect("spawn scenarios");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_balanced_json(&stdout);
    let max = format!(": {}", i64::MAX);
    for key in ["\"h\"", "\"sync_bound\"", "\"async_bound\""] {
        let lines: Vec<&str> = stdout.lines().filter(|l| l.contains(key)).collect();
        assert!(!lines.is_empty(), "no {key} in:\n{stdout}");
        for line in lines {
            assert!(line.contains(&max), "{key} must clamp at i64::MAX: {line}");
        }
    }
    assert!(!stdout.contains(": -"), "a negative number in:\n{stdout}");
}

#[test]
fn cli_refuses_a_horizon_delta_cannot_hold() {
    // `scenarios show count-to-infinity` with one number edited used to ask
    // the allocator for 96 GB (120 GB at 5·10⁹) of activation rows and
    // abort, past the runner's panic firewall: now a usage error, at once.
    let dir = std::env::temp_dir().join("dbf-scenario-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("huge-horizon.toml");
    let started = std::time::Instant::now();
    for horizon in [4_000_000_000usize, 5_000_000_000] {
        let mut scenario = builtins::by_name("count-to-infinity").unwrap();
        scenario.phases[0].faults.horizon = horizon;
        std::fs::write(&path, scenario.to_toml_string()).unwrap();
        let out = scenarios_bin()
            .args(["run", path.to_str().unwrap()])
            .args(["--engines", "sync,delta", "--threads", "1"])
            .output()
            .expect("spawn scenarios");
        assert_eq!(out.status.code(), Some(2), "horizon {horizon}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("horizon {horizon} over 4 nodes"))
                && stderr.contains("more than a delta schedule holds"),
            "{stderr}"
        );
    }
    assert!(started.elapsed() < std::time::Duration::from_secs(5));
}

/// `run-all --out` writes the benchmark document: one `run --json` report
/// per builtin (digests, σ-stability and the metrics section included),
/// and the bound audit runs on every invocation.
#[test]
fn cli_run_all_writes_one_run_report_per_builtin() {
    let dir = std::env::temp_dir().join("dbf-scenario-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_scenarios.json");
    let out = scenarios_bin()
        .args(["run-all", "--out", path.to_str().unwrap()])
        .output()
        .expect("spawn scenarios");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.matches("  bounds: ").count(),
        builtins::all().len(),
        "{stdout}"
    );
    let doc = std::fs::read_to_string(&path).unwrap();
    assert_balanced_json(&doc);
    assert!(doc.contains("\"suite\": \"dbf-scenario builtins\""));
    assert!(doc.contains("\"schema_version\": 4"));
    let entries: Vec<&str> = doc.split("\"scenario\": ").skip(1).collect();
    assert_eq!(
        entries.len(),
        builtins::all().len(),
        "one entry per builtin"
    );
    for (entry, scenario) in entries.iter().zip(builtins::all()) {
        assert!(
            entry.starts_with(&format!("\"{}\",", scenario.name)),
            "{entry}"
        );
        for key in ["\"digest\": ", "\"sigma_stable\": ", "\"metrics\": {"] {
            assert!(entry.contains(key), "{} lacks {key}", scenario.name);
        }
        assert!(!entry.contains("\"timing\""), "{}", scenario.name);
    }

    for argv in [&["bench"][..], &["run-all", "--check-bounds"]] {
        let out = scenarios_bin()
            .args(argv)
            .output()
            .expect("spawn scenarios");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
    }
}

/// A scenario written by hand in TOML (not via the serializer) parses and
/// runs — guarding the file-format contract, not just the round trip.
#[test]
fn handwritten_toml_scenarios_run() {
    let text = r#"
name = "handwritten"
description = "bounded hop count on a line, written by hand"
engines = ["sync", "sim"]
seeds = [4]

[topology]
family = "line"
n = 5

[algebra]
# NOTE: unbounded "shortest" would genuinely fail to reconverge here —
# partitioning a network with stale routes is exactly the count-to-infinity
# pathology of the paper's Section 5; the hop limit is the classical cure.
kind = "hopcount"
limit = 16

[expect]
converges = true
agreement = true

[[phases]]
label = "quiet"

[[phases]]
label = "middle link lost"
changes = [{ op = "fail_link", a = 2, b = 3 }]
[phases.faults]
loss = 0.2
duplicate = 0.1
max_delay = 8
"#;
    let scenario = Scenario::from_toml_str(text).expect("handwritten TOML parses");
    assert_eq!(scenario.phases.len(), 2);
    assert_eq!(scenario.phases[1].changes.len(), 1);
    assert!((scenario.phases[1].faults.loss - 0.2).abs() < 1e-12);
    let report = run_scenario(&scenario).unwrap();
    assert!(report.expectation_met(), "{}", report.summary());
    // the failed link partitions the line: destinations across the cut must
    // be invalid, which still counts as (and must be) cross-engine agreement
    assert!(report.verdict.agreement);
}
