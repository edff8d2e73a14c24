//! The whole benchmark in one command: every workload in its own child
//! process, repetitions interleaved across workloads, then one traced run
//! each; medians, quartiles and sample counts per metric; the exact-count
//! gate; and a comparison between run sets.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{summary, Summary};
use crate::workload::workloads;
use dbf_scenario::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

pub struct SuiteOpts {
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    /// Untraced child runs per workload and set (at least 5 measured).
    pub reps: usize,
    /// Run sets; every later set is held against the first.
    pub sets: usize,
}

/// What one child run printed.
#[derive(Default)]
struct Child {
    metrics: BTreeMap<String, (f64, String)>,
    counts: BTreeMap<String, String>,
    info: BTreeMap<String, f64>,
    ok: bool,
}

fn run_child(opts: &SuiteOpts, out: &Path, workload: &str, traced: bool) -> Child {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out);
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end; its stderr (failed checks) is
    // passed on.
    let output = cmd.output().expect("the child process starts");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let mut child = Child {
        ok: output.status.success(),
        ..Child::default()
    };
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["metric", name, value, unit, ..] => {
                if let Ok(x) = value.parse() {
                    child
                        .metrics
                        .insert(name.to_string(), (x, unit.to_string()));
                }
            }
            ["count", name, value] => {
                child.counts.insert(name.to_string(), value.to_string());
            }
            ["info", name, value] => {
                if let Ok(x) = value.parse() {
                    child.info.insert(name.to_string(), x);
                }
            }
            _ => {}
        }
    }
    child
}

/// One set's results for one workload.
#[derive(Default)]
struct WorkloadSet {
    samples: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<String, String>,
    per_layer: BTreeMap<String, f64>,
    wall_over_cpu: Vec<f64>,
    /// Runs whose wall clock outran their CPU time by over 10 %: waiting
    /// (disk, a stolen core), not the program — noted, not failed.
    flags: Vec<String>,
    problems: Vec<String>,
}

fn run_set(opts: &SuiteOpts, out: &Path, set: usize) -> BTreeMap<&'static str, WorkloadSet> {
    let names: Vec<&'static str> = workloads(opts.quick).iter().map(|w| w.name).collect();
    let mut results: BTreeMap<&'static str, WorkloadSet> = BTreeMap::new();
    // Repetition-major order: a slow minute on the machine lands on one
    // repetition of every workload, not on every repetition of one.
    for rep in 0..opts.reps {
        for &name in &names {
            eprintln!("set {set} repetition {rep}: {name}");
            let child = run_child(opts, out, name, false);
            let r = results.entry(name).or_default();
            if !child.ok {
                r.problems
                    .push(format!("repetition {rep} failed its checks"));
            }
            for (metric, (x, _)) in child.metrics {
                r.samples.entry(metric).or_default().push(x);
            }
            if let Some(&x) = child.info.get("harness.wall_over_cpu") {
                r.wall_over_cpu.push(x);
                if x > 1.1 {
                    r.flags
                        .push(format!("repetition {rep}: wall/cpu = {x:.2} > 1.1"));
                }
            }
            if rep == 0 {
                r.counts = child.counts;
            } else if r.counts != child.counts {
                r.problems
                    .push(format!("repetition {rep}: counts differ from repetition 0"));
            }
        }
    }
    for &name in &names {
        eprintln!("set {set} traced run: {name}");
        let child = run_child(opts, out, name, true);
        let r = results.entry(name).or_default();
        if !child.ok {
            r.problems.push("the traced run failed its checks".into());
        }
        r.per_layer = child
            .metrics
            .into_iter()
            .map(|(k, (x, _))| (k, x))
            .collect();
    }
    results
}

fn summary_json(s: &Summary) -> Json {
    Json::Obj(vec![
        ("median".into(), Json::Num(s.median)),
        ("q1".into(), Json::Num(s.q1)),
        ("q3".into(), Json::Num(s.q3)),
        ("n".into(), Json::Int(s.n as i64)),
        ("spread".into(), Json::Num(s.spread())),
    ])
}

/// Problems of set `b` held against the first set `a`: medians beyond a
/// metric's bound, or any count that differs.
fn compare(a: &WorkloadSet, b: &WorkloadSet, set: usize) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, _, better, bound) in END_TO_END {
        let (Some(xa), Some(xb)) = (a.samples.get(name), b.samples.get(name)) else {
            continue;
        };
        let (ma, mb) = (summary(xa).median, summary(xb).median);
        let worse = if better == "lower" {
            mb / ma - 1.0
        } else {
            ma / mb - 1.0
        };
        if worse > bound {
            problems.push(format!(
                "set {set}: {name} median {mb} is {:.1} % worse than set 0's {ma} (bound {:.0} %)",
                worse * 100.0,
                bound * 100.0
            ));
        }
    }
    if a.counts != b.counts {
        problems.push(format!("set {set}: counts differ from set 0"));
    }
    problems
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Run the suite, print every metric, write `<out>/report.json`; returns
/// whether every check held.
pub fn run(opts: &SuiteOpts, out: &Path) -> bool {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let machine = Json::Obj(vec![
        ("nproc".into(), Json::Int(nproc as i64)),
        ("threads_used".into(), Json::Int(1)),
        (
            "build_profile".into(),
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("rustc".into(), Json::str(rustc_version())),
        ("seed".into(), Json::Int(opts.seed as i64)),
        ("seconds".into(), Json::Int(opts.seconds as i64)),
        ("repetitions".into(), Json::Int(opts.reps as i64)),
        (
            "tier".into(),
            Json::str(if opts.quick { "quick" } else { "measured" }),
        ),
        (
            "sizes".into(),
            Json::Arr(
                workloads(opts.quick)
                    .iter()
                    .map(|w| {
                        Json::str(format!(
                            "{}: {:?} + probes {:?}",
                            w.name, w.primary, w.probes
                        ))
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{machine}");

    let sets: Vec<_> = (0..opts.sets).map(|k| run_set(opts, out, k)).collect();
    let mut all_ok = true;
    let mut sets_json = Vec::new();
    for (k, set) in sets.iter().enumerate() {
        let mut workloads_json = Vec::new();
        for (name, r) in set {
            let mut problems = r.problems.clone();
            if k > 0 {
                problems.extend(compare(&sets[0][name], r, k));
            }
            println!("\n== set {k} · {name} ==");
            let mut e2e = Vec::new();
            for (metric, unit, _, bound) in END_TO_END {
                let s = summary(r.samples.get(metric).map_or(&[][..], |v| v));
                println!(
                    "{metric:<22} {:>14.4} {unit:<4} q1 {:.4} q3 {:.4} n {} spread {:.1} % (bound {:.0} %)",
                    s.median, s.q1, s.q3, s.n, s.spread() * 100.0, bound * 100.0
                );
                e2e.push((metric.to_string(), summary_json(&s)));
            }
            let mut layers = Vec::new();
            for (metric, unit, _) in PER_LAYER {
                let x = r.per_layer.get(metric).copied().unwrap_or(f64::NAN);
                println!("{metric:<44} {x:>16.4} {unit}");
                layers.push((metric.to_string(), Json::Num(x)));
            }
            for f in &r.flags {
                println!("FLAG: {f}");
            }
            for p in &problems {
                println!("PROBLEM: {p}");
            }
            all_ok &= problems.is_empty();
            workloads_json.push((
                name.to_string(),
                Json::Obj(vec![
                    ("end_to_end".into(), Json::Obj(e2e)),
                    ("per_layer".into(), Json::Obj(layers)),
                    (
                        "counts".into(),
                        Json::Obj(
                            r.counts
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::str(v)))
                                .collect(),
                        ),
                    ),
                    (
                        "wall_over_cpu".into(),
                        Json::Arr(r.wall_over_cpu.iter().map(|&x| Json::Num(x)).collect()),
                    ),
                    (
                        "flags".into(),
                        Json::Arr(r.flags.iter().map(Json::str).collect()),
                    ),
                    (
                        "problems".into(),
                        Json::Arr(problems.iter().map(Json::str).collect()),
                    ),
                ]),
            ));
        }
        sets_json.push(Json::Obj(workloads_json));
    }
    let report = Json::Obj(vec![
        ("machine".into(), machine),
        ("ok".into(), Json::Bool(all_ok)),
        ("sets".into(), Json::Arr(sets_json)),
    ]);
    let path = out.join("report.json");
    match std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, format!("{report}\n"))) {
        Ok(()) => println!("\nreport: {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            all_ok = false;
        }
    }
    println!(
        "{}",
        if all_ok {
            "all checks held"
        } else {
            "CHECKS FAILED"
        }
    );
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(events_per_s: &[f64], batches: &str) -> WorkloadSet {
        let mut s = WorkloadSet::default();
        s.samples
            .insert("events_per_s".into(), events_per_s.to_vec());
        s.counts.insert("serve.batches".into(), batches.into());
        s
    }

    #[test]
    fn a_set_is_held_to_the_bound_and_to_exact_counts() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.0 == "events_per_s")
            .expect("a registry entry")
            .3;
        let a = set(&[100.0, 101.0, 99.0], "7");
        // Higher is better: a median lower by less than the bound passes,
        // one lower by more is a problem, a higher one never is.
        let at = |share: f64| 100.0 / (1.0 + share);
        assert!(compare(&a, &set(&[at(bound * 0.9)], "7"), 1).is_empty());
        let slow = compare(&a, &set(&[at(bound * 1.1)], "7"), 1);
        assert_eq!(slow.len(), 1, "{slow:?}");
        assert!(compare(&a, &set(&[150.0, 151.0, 149.0], "7"), 1).is_empty());
        let moved = compare(&a, &set(&[100.0, 101.0, 99.0], "8"), 1);
        assert_eq!(moved, ["set 1: counts differ from set 0"]);
    }
}
