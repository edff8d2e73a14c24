//! The command line as a user meets it: every command refuses an argument
//! it does not take (or an engine the registry does not hold), and `serve`
//! refuses two different stores and a fault plan.

use std::path::PathBuf;
use std::process::Command;

fn scenarios_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenarios"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbf-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn commands_without_options_refuse_extra_arguments() {
    for (command, extra, named) in [
        (
            &["show", "count-to-infinity"][..],
            &["--json"][..],
            "option --json",
        ),
        (&["list"], &["--bogus"], "option --bogus"),
        (&["list-engines"], &["extra"], "\"extra\""),
        (&["list-sweeps"], &["--json"], "option --json"),
        (&["show-sweep", "smoke"], &["smoke"], "\"smoke\""),
        (
            &["run", "count-to-infinity", "--threads", "1"],
            &["--engines", "threaded"],
            "\"threaded\" is not one of sync, incremental, delta, sim, rip, bgp",
        ),
    ] {
        let out = scenarios_bin()
            .args(command)
            .args(extra)
            .output()
            .expect("spawn scenarios");
        assert_eq!(out.status.code(), Some(2), "{command:?} {extra:?}");
        assert!(
            out.stdout.is_empty(),
            "{command:?} {extra:?} printed to stdout"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{command:?} {extra:?}: {stderr}");
        let out = scenarios_bin()
            .args(command)
            .output()
            .expect("spawn scenarios");
        assert_eq!(out.status.code(), Some(0), "{command:?}");
        assert!(!out.stdout.is_empty(), "{command:?}");
    }
}

#[test]
fn serve_refuses_a_checkpoint_and_a_recover_store_that_differ() {
    let dir = temp_dir("stores");
    let trace = dir.join("t.trace");
    std::fs::write(
        &trace,
        "# dbf-churn-trace v1\ntopology ring 4\nalgebra hopcount 8\nquery 0 1\n",
    )
    .unwrap();
    let serve = |checkpoint: &PathBuf, recover: &PathBuf| {
        scenarios_bin()
            .args(["serve", "--threads", "1", "--replay"])
            .arg(&trace)
            .arg("--checkpoint")
            .arg(checkpoint)
            .arg("--recover")
            .arg(recover)
            .output()
            .expect("spawn scenarios")
    };
    let (a, b) = (dir.join("storeA"), dir.join("storeB"));
    let out = serve(&a, &b);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--checkpoint") && stderr.contains("--recover"),
        "{stderr}"
    );
    assert!(!a.exists() && !b.exists(), "a refused run writes no store");
    // One store named twice is a recovery (here a cold start).
    let out = serve(&b, &b);
    assert_eq!(out.status.code(), Some(0));
    assert!(b.exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// `chaos` is the one command that runs fault plans: it is the one that
/// applies a plan's WAL tampering.  `serve` keeps only `--crash-at`, and a
/// plan handed to it is refused before anything runs.
#[test]
fn serve_refuses_a_fault_plan_and_writes_no_store() {
    let dir = temp_dir("faults");
    let trace = dir.join("t.trace");
    std::fs::write(
        &trace,
        "# dbf-churn-trace v1\ntopology ring 4\nalgebra hopcount 8\n\
         query 0 1\nquery 0 2\nquery 0 3\nquery 1 2\n",
    )
    .unwrap();
    let plan = dir.join("plan.toml");
    std::fs::write(
        &plan,
        "seed = 1\n\n[[fault]]\nkind = \"crash\"\nat = 2\n\n\
         [[fault]]\nkind = \"truncate_wal\"\nbytes = 7\n",
    )
    .unwrap();
    let store = dir.join("store");
    let out = scenarios_bin()
        .args(["serve", "--threads", "1", "--replay"])
        .arg(&trace)
        .arg("--checkpoint")
        .arg(&store)
        .arg("--faults")
        .arg(&plan)
        .output()
        .expect("spawn scenarios");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--faults"), "{stderr}");
    assert!(!store.exists(), "a refused run writes no store");
    std::fs::remove_dir_all(&dir).ok();
}
