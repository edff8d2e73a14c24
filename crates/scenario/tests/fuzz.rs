//! Integration tests for the fuzzing subsystem: the `scenarios fuzz` CLI,
//! its determinism contract, the shrinker's corpus output and the
//! worst-case staleness schedule option.

use dbf_scenario::fuzz::{run_fuzz, violates_invariant, FuzzOptions};
use dbf_scenario::gen;
use dbf_scenario::prelude::*;
use std::process::Command;

fn scenarios_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dbf-fuzz-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A corpus directory for green runs, which write nothing: it is never
/// created.
fn unwritten_corpus() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dbf-fuzz-test-unwritten-{}", std::process::id()))
}

/// The acceptance test: a fuzz run over the generated case stream is
/// green — every strictly-increasing random spec agrees across all engines
/// — and the report is byte-identical for any worker count.
#[test]
fn fuzz_runs_are_green_and_deterministic_across_job_counts() {
    let report_j1 = run_fuzz(&FuzzOptions {
        cases: 24,
        seed: 20260728,
        jobs: 1,
        case: None,
        corpus: unwritten_corpus(),
    })
    .unwrap();
    assert!(report_j1.ok(), "{}", report_j1.summary());
    let report_j8 = run_fuzz(&FuzzOptions {
        cases: 24,
        seed: 20260728,
        jobs: 8,
        case: None,
        corpus: unwritten_corpus(),
    })
    .unwrap();
    assert_eq!(
        report_j1.to_json().to_string(),
        report_j8.to_json().to_string(),
        "fuzz reports must be byte-identical across job counts"
    );
    assert!(!unwritten_corpus().exists(), "a green run writes no corpus");
    // The stream mixes scenario and sweep cases.
    assert!(report_j1.results.iter().any(|r| r.kind == "sweep"));
    assert!(report_j1.results.iter().any(|r| r.kind == "scenario"));
}

#[test]
fn single_case_reproduction_runs_exactly_one_case() {
    let report = run_fuzz(&FuzzOptions {
        cases: 24,
        seed: 20260728,
        jobs: 1,
        case: Some(5),
        corpus: unwritten_corpus(),
    })
    .unwrap();
    assert_eq!(report.results.len(), 1);
    assert_eq!(report.results[0].index, 5);
    assert_eq!(report.results[0].case_seed, gen::case_seed(20260728, 5));
    assert!(run_fuzz(&FuzzOptions {
        cases: 10,
        seed: 1,
        jobs: 1,
        case: Some(10),
        corpus: unwritten_corpus(),
    })
    .is_err());
}

/// End-to-end shrinking through the public API: inject a known-bad spec
/// (the deliberately non-increasing BAD GADGET), minimize it, write it to a
/// corpus directory, and replay it with `scenarios run` using the recorded
/// reproduction command.
#[test]
fn minimized_failures_replay_from_the_corpus_file() {
    let bad = Scenario {
        name: "inject-bad".into(),
        description: "deliberately failing".into(),
        topology: TopologySpec::Gadget,
        algebra: AlgebraSpec::Spp {
            gadget: SppGadget::Bad,
        },
        engines: vec![EngineKind::Sync, EngineKind::Delta],
        seeds: vec![1, 2],
        phases: vec![PhaseSpec::quiet("a"), PhaseSpec::quiet("b")],
        expect: Expectation::default(),
    };
    assert!(violates_invariant(&bad));
    let (minimized, steps) = shrink_scenario(&bad, &violates_invariant);
    assert!(steps > 0);
    assert!(violates_invariant(&minimized), "minimized spec still fails");
    assert!(minimized.phases.len() < bad.phases.len() || minimized.seeds.len() < bad.seeds.len());

    // Write it the way `scenarios fuzz` does and replay via the CLI; the
    // corpus spec keeps the default expectation (converges + agrees), so
    // replaying it exits non-zero while the invariant is still violated —
    // i.e. a corpus file is a failing regression test until the bug it
    // witnesses is fixed.
    let dir = temp_dir("replay");
    let path = dir.join("injected.min.toml");
    std::fs::write(
        &path,
        format!(
            "# reproduce: scenarios run {}\n{}",
            path.display(),
            minimized.to_toml_string()
        ),
    )
    .unwrap();
    let out = scenarios_bin()
        .args(["run", path.to_str().unwrap()])
        .output()
        .expect("spawn scenarios");
    assert!(
        !out.status.success(),
        "replaying a still-unfixed corpus spec must fail"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("reproduce with"), "{stderr}");

    // The `replay` subcommand reports the mismatch as well.
    let out = scenarios_bin()
        .args(["replay", dir.to_str().unwrap()])
        .output()
        .expect("spawn scenarios");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("MISMATCH"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CLI smoke path used by CI: a small deterministic fuzz run exits
/// zero and emits byte-identical JSON for `--jobs 1` and `--jobs 8`.
#[test]
fn cli_fuzz_smoke_is_deterministic() {
    let dir = temp_dir("cli");
    let run = |jobs: &str| {
        let out = scenarios_bin()
            .args([
                "fuzz", "--cases", "16", "--seed", "3", "--jobs", jobs, "--json", "--corpus",
            ])
            .arg(dir.join("corpus"))
            .output()
            .expect("spawn scenarios");
        assert!(
            out.status.success(),
            "fuzz must be green\nstdout: {}\nstderr: {}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let j1 = run("1");
    let j8 = run("8");
    assert_eq!(j1, j8, "CLI fuzz JSON must not depend on --jobs");
    assert!(j1.contains("\"ok\": true"));
    // A green run writes nothing to the corpus.
    assert!(
        !dir.join("corpus").exists(),
        "no corpus files on a green run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_rejects_fuzz_options_on_other_commands() {
    let out = scenarios_bin()
        .args(["run", "count-to-infinity", "--cases", "5"])
        .output()
        .expect("spawn scenarios");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--cases"));
}

/// Satellite check: the worst-case staleness schedule is reachable from
/// TOML and still satisfies Theorem 7 on a strictly-increasing algebra.
#[test]
fn adversarial_stale_specs_agree_end_to_end() {
    let text = r#"
        name = "stale-victim"
        description = "worst-case staleness from TOML"
        engines = ["sync", "delta", "sim"]
        seeds = [5, 6]

        [topology]
        family = "ring"
        n = 5

        [algebra]
        kind = "hopcount"
        limit = 12

        [[phases]]
        label = "starved"

        [phases.faults]
        schedule = "adversarial_stale"
        victim = 3
        period = 4
        horizon = 300
        max_delay = 6
    "#;
    let spec = Scenario::from_toml_str(text).expect("parses");
    assert_eq!(
        spec.phases[0].faults.schedule,
        ScheduleSpec::AdversarialStale {
            victim: 3,
            period: 4
        }
    );
    let report = run_scenario(&spec).unwrap();
    assert!(report.verdict.converges, "{}", report.summary());
    assert!(report.verdict.agreement, "{}", report.summary());
}
