//! CLI-level chaos tests: `scenarios chaos` runs every built-in fault
//! plan (worker kill, band stall, epoch failure, process crash, WAL
//! truncation, WAL corruption, flush delay) against one trace and
//! verifies each ends in a verified recovery — digest-identical to the
//! unfaulted run, `measured <= bound` — or, for the corruption plan, the
//! clean structured failure it is *required* to produce.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scenarios_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbf-chaos-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn gen_trace(dir: &Path, weights: &str) -> PathBuf {
    let path = dir.join("churn.trace");
    let gen = scenarios_bin()
        .args([
            "gen-trace",
            "--out",
            path.to_str().unwrap(),
            "--nodes",
            "12",
            "--events",
            "300",
            "--seed",
            "11",
            "--queries",
            "150",
            "--weights",
            weights,
        ])
        .output()
        .expect("run gen-trace");
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    path
}

#[test]
fn every_builtin_plan_ends_verified() {
    let dir = temp_dir("builtins");
    // set_weight churn included: policy changes flow through the fault
    // plans exactly like structural ones.
    let trace = gen_trace(&dir, "100");
    let out = dir.join("chaos.json");
    let run = scenarios_bin()
        .args([
            "chaos",
            "--replay",
            trace.to_str().unwrap(),
            "--threads",
            "4",
            "--batch",
            "16",
            "--checkpoint",
            dir.join("stores").to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("run chaos");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "chaos suite failed:\n{stderr}");
    let json = std::fs::read_to_string(&out).expect("chaos report");
    assert!(json.contains("\"suite\": \"dbf-chaos\""));
    assert!(json.contains("\"ok\": true"));
    assert!(!json.contains("\"ok\": false"));
    for plan in [
        "worker-kill",
        "band-stall",
        "fail-epoch",
        "process-crash",
        "wal-truncate",
        "wal-corrupt",
        "flush-delay",
    ] {
        assert!(json.contains(plan), "plan {plan} missing from the report");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_plan_file_drives_one_verified_run() {
    let dir = temp_dir("plan-file");
    let trace = gen_trace(&dir, "0");
    let plan = dir.join("plan.toml");
    std::fs::write(&plan, "seed = 3\n\n[[fault]]\nkind = \"crash\"\nat = 140\n").unwrap();
    let out = dir.join("chaos.json");
    let run = scenarios_bin()
        .args([
            "chaos",
            "--replay",
            trace.to_str().unwrap(),
            "--faults",
            plan.to_str().unwrap(),
            "--threads",
            "2",
            "--checkpoint",
            dir.join("stores").to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ])
        .output()
        .expect("run chaos");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let json = std::fs::read_to_string(&out).unwrap();
    assert!(json.contains("\"crashed\": true"));
    assert!(json.contains("\"ok\": true"));
    assert!(
        dir.join("stores").exists(),
        "a --checkpoint directory is the caller's: it stays"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn without_checkpoint_the_stores_in_the_temp_dir_are_removed() {
    let dir = temp_dir("tmp-stores");
    let trace = gen_trace(&dir, "0");
    let plan = dir.join("plan.toml");
    std::fs::write(&plan, "seed = 3\n\n[[fault]]\nkind = \"crash\"\nat = 140\n").unwrap();
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).unwrap();
    let run = scenarios_bin()
        .env("TMPDIR", &tmp)
        .args([
            "chaos",
            "--replay",
            trace.to_str().unwrap(),
            "--faults",
            plan.to_str().unwrap(),
            "--threads",
            "2",
        ])
        .output()
        .expect("run chaos");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let left: Vec<_> = std::fs::read_dir(&tmp).unwrap().flatten().collect();
    assert!(left.is_empty(), "chaos left {left:?} in the temp dir");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_malformed_plan_file_is_rejected() {
    let dir = temp_dir("bad-plan");
    let trace = gen_trace(&dir, "0");
    let plan = dir.join("plan.toml");
    std::fs::write(&plan, "[[fault]]\nkind = \"meteor-strike\"\nat = 1\n").unwrap();
    let run = scenarios_bin()
        .args([
            "chaos",
            "--replay",
            trace.to_str().unwrap(),
            "--faults",
            plan.to_str().unwrap(),
        ])
        .output()
        .expect("run chaos");
    assert!(!run.status.success());
    assert!(String::from_utf8_lossy(&run.stderr).contains("meteor-strike"));
    std::fs::remove_dir_all(&dir).ok();
}
