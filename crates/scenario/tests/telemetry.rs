//! Integration tests for the telemetry layer's two contracts:
//!
//! 1. **Determinism** — the `metrics` section of a traced run is a pure
//!    function of `(spec, seed)`: byte-identical across `--threads 1/2/8`
//!    (and, for sweeps, across `--jobs`); only the trailing `timing`
//!    section may move.
//! 2. **Observation does not perturb** — running with the aggregator (or
//!    no sink at all) produces the exact same differential report.
//!
//! Plus the JSONL trace writer's on-disk schema: every line is a flat,
//! schema-versioned JSON object.

use dbf_scenario::prelude::*;
use dbf_scenario::telemetry::AggregatingSink;
use std::process::Command;

fn scenarios_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
}

fn fabric_scenario() -> Scenario {
    let mut s = builtins::by_name("widest-fabric").expect("built-in");
    s.engines = vec![EngineKind::Sync, EngineKind::Incremental];
    s
}

/// Run a scenario traced and return (report, metrics-section JSON text).
fn traced_metrics(spec: &Scenario, threads: usize) -> (ScenarioReport, String) {
    let mut sink = AggregatingSink::new();
    let report =
        run_scenario_traced(spec, &RunConfig { threads }, &mut sink).expect("spec is valid");
    let metrics = metrics_json(&sink.finish()).to_string();
    (report, metrics)
}

#[test]
fn metrics_section_is_byte_identical_across_thread_counts() {
    let spec = fabric_scenario();
    let (base_report, base) = traced_metrics(&spec, 1);
    assert!(base_report.verdict.agreement, "{}", base_report.summary());
    assert!(base.contains("\"rows_recomputed\""));
    for threads in [2usize, 8] {
        let (report, metrics) = traced_metrics(&spec, threads);
        assert_eq!(
            metrics, base,
            "metrics must not depend on threads={threads}"
        );
        assert_eq!(report.verdict, base_report.verdict);
    }
}

#[test]
fn metrics_cover_every_engine_kind_it_advertises() {
    // A traced run of every builtin: each engine whose descriptor
    // advertises an event class must actually produce the corresponding
    // metrics, and `bytes` is Some exactly for the wire-encoded engines.
    let spec = builtins::by_name("count-to-infinity").expect("built-in");
    let mut sink = AggregatingSink::new();
    let report =
        run_scenario_traced(&spec, &RunConfig::default(), &mut sink).expect("spec is valid");
    let metrics = sink.finish();
    for d in descriptors() {
        if !spec.engines.contains(&d.kind) {
            continue;
        }
        let phases: Vec<_> = metrics
            .phases
            .iter()
            .filter(|p| {
                report
                    .runs
                    .iter()
                    .any(|r| r.engine == p.run && r.engine.starts_with(d.name))
            })
            .collect();
        let wants = |class| d.events.contains(&class);
        if wants(telemetry::EventClass::Rounds) {
            assert!(
                phases.iter().any(|p| p.rounds > 0),
                "engine {} advertises rounds but reported none",
                d.name
            );
        }
        if wants(telemetry::EventClass::Settle) {
            assert!(
                phases.iter().any(|p| p.settle.is_some()),
                "engine {} advertises settle histograms but reported none",
                d.name
            );
        }
        if wants(telemetry::EventClass::Messages) {
            assert!(
                phases.iter().any(|p| p.messages.is_some()),
                "engine {} advertises message counters but reported none",
                d.name
            );
        }
    }
    // The simulator has messages but no wire encoding: counters with
    // bytes: None.
    let sim = metrics
        .phases
        .iter()
        .find(|p| p.run.starts_with("sim"))
        .expect("sim phase metrics");
    assert!(sim.messages.expect("sim counters").bytes.is_none());
}

#[test]
fn rip_and_bgp_report_wire_bytes() {
    for (name, kind, scenario) in [
        ("rip", EngineKind::Rip, "count-to-infinity"),
        ("bgp", EngineKind::Bgp, "policy-rich-bgp"),
    ] {
        let spec = builtins::by_name(scenario).expect("built-in");
        assert!(
            spec.engines.contains(&kind),
            "{scenario} no longer runs {name}; pick another host scenario"
        );
        let mut sink = AggregatingSink::new();
        run_scenario_traced(&spec, &RunConfig::default(), &mut sink).expect("spec is valid");
        let metrics = sink.finish();
        let phase = metrics
            .phases
            .iter()
            .find(|p| p.run.starts_with(name))
            .unwrap_or_else(|| panic!("no {name} run in {scenario}"));
        let counters = phase.messages.expect("protocol engines have counters");
        assert!(
            counters.bytes.expect("wire-encoded engines report bytes") > 0,
            "{name} sent no bytes"
        );
    }
}

#[test]
fn tracing_does_not_perturb_the_run() {
    // The observation contract: attaching the aggregator must not change
    // the differential outcome or any deterministic counter.
    let spec = fabric_scenario();
    let cfg = RunConfig { threads: 2 };
    let untraced = run_scenario_with(&spec, &cfg).expect("spec is valid");
    let mut sink = AggregatingSink::new();
    let traced = run_scenario_traced(&spec, &cfg, &mut sink).expect("spec is valid");
    let strip_wall = |json: &Json| {
        json.to_string()
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"wall_ms\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_wall(&untraced.to_json()),
        strip_wall(&traced.to_json()),
        "tracing changed the report"
    );
}

#[test]
fn cli_trace_file_is_flat_versioned_jsonl() {
    let dir = std::env::temp_dir().join(format!("dbf-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    let out = scenarios_bin()
        .args([
            "run",
            "count-to-infinity",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn scenarios");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    std::fs::remove_dir_all(&dir).ok();
    assert!(!text.is_empty());
    let mut events = std::collections::BTreeSet::new();
    for line in text.lines() {
        assert!(line.starts_with("{\"v\":2,\"ev\":\""), "bad line: {line}");
        assert!(line.ends_with('}'), "bad line: {line}");
        assert!(!line[1..].contains('{'), "nested object: {line}");
        let ev = line["{\"v\":2,\"ev\":\"".len()..]
            .split('"')
            .next()
            .unwrap()
            .to_string();
        events.insert(ev);
    }
    for required in ["run_start", "phase_start", "round_start", "phase_end"] {
        assert!(events.contains(required), "no {required} event: {events:?}");
    }
}

#[test]
fn cli_profile_prints_the_band_breakdown() {
    let out = scenarios_bin()
        .args(["profile", "widest-fabric", "--threads", "2"])
        .output()
        .expect("spawn scenarios");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("scenario widest-fabric"), "{text}");
    assert!(text.contains("wall_ms"), "{text}");
    assert!(
        text.contains("band 0"),
        "two threads shard into bands: {text}"
    );
}

#[test]
fn cli_rejects_trace_outside_run() {
    let out = scenarios_bin()
        .args(["run-all", "--trace", "/tmp/nope.jsonl"])
        .output()
        .expect("spawn scenarios");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace"));
}
