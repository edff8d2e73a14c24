//! CLI-level crash-recovery tests: kill a `scenarios serve` replay at a
//! mid-trace offset via the fault plane, recover with `--recover`, and
//! require the recovered `BENCH_serve.json` to be byte-identical (minus
//! the `timing` block) to an uninterrupted run — the determinism
//! invariant the checkpoint + WAL layer exists to uphold.  The unique
//! fixed point of a strictly-increasing algebra makes this checkable:
//! *where* the replay was split cannot change where it lands.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scenarios_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbf-recover-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Drop the `timing` block and the `threads` field — the same stripping
/// the CI determinism gate applies to `BENCH_serve.json`.
fn strip_timing(json: &str) -> String {
    let mut out = Vec::new();
    let mut in_timing = false;
    for l in json.lines() {
        if l == "  \"timing\": {" {
            in_timing = true;
            continue;
        }
        if in_timing {
            if l == "  }" {
                in_timing = false;
            }
            continue;
        }
        if l.trim_start().starts_with("\"threads\"") {
            continue;
        }
        out.push(l.trim_end_matches(','));
    }
    out.join("\n")
}

fn gen_trace(dir: &Path, algebra: &str, weights: &str) -> PathBuf {
    let path = dir.join(format!("churn-{algebra}.trace"));
    let gen = scenarios_bin()
        .args([
            "gen-trace",
            "--out",
            path.to_str().unwrap(),
            "--nodes",
            "12",
            "--events",
            "400",
            "--seed",
            "7",
            "--queries",
            "150",
            "--algebra",
            algebra,
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

fn serve(trace: &Path, threads: &str, out: &Path, extra: &[&str]) -> std::process::Output {
    let mut args = vec![
        "serve",
        "--replay",
        trace.to_str().unwrap(),
        "--threads",
        threads,
        "--batch",
        "16",
        "--out",
        out.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    scenarios_bin().args(args).output().expect("run serve")
}

#[test]
fn kill_at_offset_then_recover_matches_the_uninterrupted_run() {
    let dir = temp_dir("kill-recover");
    // Hopcount structural churn and shortest-paths policy churn
    // (`--weights` emits set_weight events) both go through the full
    // crash/recover cycle, at one and two threads.
    for (algebra, weights) in [("hopcount", "0"), ("shortest", "200")] {
        let trace = gen_trace(&dir, algebra, weights);
        for threads in ["1", "2"] {
            let clean_out = dir.join(format!("clean-{algebra}-{threads}.json"));
            let clean = serve(&trace, threads, &clean_out, &[]);
            assert!(
                clean.status.success(),
                "clean run: {}",
                String::from_utf8_lossy(&clean.stderr)
            );

            let store = dir.join(format!("store-{algebra}-{threads}"));
            let crash_out = dir.join(format!("crash-{algebra}-{threads}.json"));
            let crashed = serve(
                &trace,
                threads,
                &crash_out,
                &[
                    "--checkpoint",
                    store.to_str().unwrap(),
                    "--checkpoint-every",
                    "32",
                    "--crash-at",
                    "250",
                ],
            );
            assert!(
                !crashed.status.success(),
                "the crash fault must fail the run"
            );
            let stderr = String::from_utf8_lossy(&crashed.stderr);
            assert!(
                stderr.contains("crash") && stderr.contains("offset 250"),
                "structured crash error expected, got: {stderr}"
            );
            assert!(
                stderr.contains("--recover"),
                "the error must hint at recovery: {stderr}"
            );
            // The partial report is still written, with the failure
            // recorded and the offset it stopped at.
            let partial = std::fs::read_to_string(&crash_out).expect("partial report");
            assert!(partial.contains("\"kind\": \"crash\""));

            let rec_out = dir.join(format!("rec-{algebra}-{threads}.json"));
            let recovered = serve(
                &trace,
                threads,
                &rec_out,
                &["--recover", store.to_str().unwrap()],
            );
            assert!(
                recovered.status.success(),
                "recovery: {}",
                String::from_utf8_lossy(&recovered.stderr)
            );
            let clean_json = std::fs::read_to_string(&clean_out).unwrap();
            let rec_json = std::fs::read_to_string(&rec_out).unwrap();
            assert!(rec_json.contains("\"recovery\""));
            assert_eq!(
                strip_timing(&rec_json),
                strip_timing(&clean_json),
                "{algebra} threads={threads}: recovered run diverged from the uninterrupted run"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_corrupted_wal_is_a_clean_structured_failure_not_a_wrong_answer() {
    let dir = temp_dir("wal-corrupt");
    let trace = gen_trace(&dir, "hopcount", "0");
    let store = dir.join("store");
    let crash_out = dir.join("crash.json");
    let crashed = serve(
        &trace,
        "1",
        &crash_out,
        &[
            "--checkpoint",
            store.to_str().unwrap(),
            "--checkpoint-every",
            "32",
            "--crash-at",
            "250",
        ],
    );
    assert!(!crashed.status.success());

    // Flip one byte in the WAL body, as a torn disk would.
    let wal_path = store.join("events.wal");
    let mut wal = std::fs::read(&wal_path).expect("read WAL");
    let header_end = wal.iter().position(|&b| b == b'\n').unwrap() + 1;
    wal[header_end + 5] ^= 0x20;
    std::fs::write(&wal_path, wal).expect("rewrite WAL");

    let rec_out = dir.join("rec.json");
    let recovered = serve(
        &trace,
        "1",
        &rec_out,
        &["--recover", store.to_str().unwrap()],
    );
    assert!(
        !recovered.status.success(),
        "recovery from a corrupt WAL must fail"
    );
    let stderr = String::from_utf8_lossy(&recovered.stderr);
    assert!(
        stderr.contains("wal"),
        "the failure must name the WAL: {stderr}"
    );
    let report = std::fs::read_to_string(&rec_out).expect("partial report");
    assert!(report.contains("\"kind\": \"wal\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_from_an_empty_store_replays_from_the_start() {
    let dir = temp_dir("no-store");
    let trace = gen_trace(&dir, "hopcount", "0");
    let rec_out = dir.join("rec.json");
    // An empty directory is a valid (cold) store: recovery simply finds
    // no snapshot and replays from the start — still deterministic.
    let store = dir.join("cold");
    std::fs::create_dir_all(&store).unwrap();
    let cold = serve(
        &trace,
        "1",
        &rec_out,
        &["--recover", store.to_str().unwrap()],
    );
    assert!(
        cold.status.success(),
        "cold-store recovery replays from offset 0: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
