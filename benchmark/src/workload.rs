//! The four workloads and how one run of one workload is measured.
//!
//! The driver wants every end-to-end metric from every workload, so each
//! workload runs all three stage kinds: its **primary** stage at the
//! measured size, which takes most of the window, and the two it is not
//! about as small **probes** beside it.  A workload's `setup_s` is its
//! primary stage's alone; `peak_rss_mb` is the whole process's.

use crate::diff::{self, DiffCfg};
use crate::fabric::{self, FabricCfg};
use crate::layers;
use crate::metrics::Values;
use crate::reference::Reference;
use crate::serve::{self, ServeCfg};
use crate::spans::Spans;
use crate::stage::{Checks, Rep, Series};
use crate::stats::median;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One of the three kinds of measured work, at one size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stage {
    Serve(ServeCfg),
    Fabric(FabricCfg),
    Diff(DiffCfg),
}

/// A stage bound to its seeded input, run repetition after repetition.
enum Runner {
    Serve(serve::Runner),
    Fabric(fabric::Runner),
    Diff(DiffCfg, u64),
}

impl Runner {
    fn rep(&mut self, scratch: &Path) -> Rep {
        match self {
            Runner::Serve(r) => r.rep(scratch),
            Runner::Fabric(r) => r.rep(),
            Runner::Diff(cfg, seed) => diff::rep(cfg, *seed),
        }
    }
}

impl Stage {
    fn runner(&self, seed: u64) -> Runner {
        match self {
            Stage::Serve(cfg) => Runner::Serve(serve::Runner::new(cfg, seed)),
            Stage::Fabric(cfg) => Runner::Fabric(fabric::Runner::new(cfg, seed)),
            Stage::Diff(cfg) => Runner::Diff(*cfg, seed),
        }
    }

    /// The traced pass; returns (untraced, traced) wall of the stage's
    /// library entry point.
    fn traced(
        &self,
        seed: u64,
        scratch: &Path,
        spans: &mut Spans,
        checks: &mut Checks,
        v: &mut Values,
    ) -> (f64, f64) {
        match self {
            Stage::Serve(cfg) => serve::traced(cfg, seed, scratch, spans, checks, v),
            Stage::Fabric(cfg) => fabric::traced(cfg, seed, spans, checks, v),
            Stage::Diff(cfg) => diff::traced(cfg, seed, spans, checks, v),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub primary: Stage,
    pub probes: [Stage; 2],
}

/// The workloads at the measured tier, or at the `--quick` smoke tier.
///
/// ISSUE sizes → measured tier (the contract caps a run at ~35 s, and a
/// run needs a dozen repetitions inside it): events ÷ 8 and ÷ 12.5, fabric
/// n 4096 → 1024, policy n 40 → 20.  The blocked σ runs n/16-wide blocks,
/// not n/4, so that a block is a segment of tens of milliseconds.
/// `--quick`: n = 16 / 512 / 12, 5 000 events.
pub fn workloads(quick: bool) -> [Workload; 4] {
    let (nodes, scale) = if quick { (16, 5) } else { (64, 1) };
    let churn = ServeCfg {
        nodes,
        shortest: false,
        events: if quick { 5_000 } else { 12_500 },
        query_permille: 100,
        weight_permille: 0,
        batch_max: 64,
        durable: false,
    };
    let ingest = ServeCfg {
        shortest: true,
        events: if quick { 5_000 } else { 16_000 },
        query_permille: 5,
        weight_permille: 100,
        batch_max: 4096,
        durable: true,
        ..churn
    };
    let fabric = |n: usize| FabricCfg {
        n,
        block: n / 16,
        changes: 4,
    };
    let serve_probe = Stage::Serve(ServeCfg {
        events: 2_500 / scale,
        ..churn
    });
    let fabric_probe = Stage::Fabric(fabric(if quick { 128 } else { 512 }));
    let diff_probe = Stage::Diff(DiffCfg {
        n: if quick { 8 } else { 12 },
    });
    [
        Workload {
            name: "serve-churn",
            why: "read-heavy serving: every query forces a flush, so thousands of small incremental reconvergences; serve flush glue and adjacency/state copies dominate, the sigma kernel does little",
            primary: Stage::Serve(churn),
            probes: [fabric_probe, diff_probe],
        },
        Workload {
            name: "serve-ingest",
            why: "writes beside reads on the same layer: per-event ingest, WAL appends and snapshots, large coalesced batches and restart-on-removal on the infinite carrier; shows work moved between ingest and flush",
            primary: Stage::Serve(ingest),
            probes: [fabric_probe, diff_probe],
        },
        Workload {
            name: "fabric-converge",
            why: "dbf-matrix alone, no serve: cold whole-state sigma on a hub-skewed graph with a thinning frontier, the blocked path the scale runs use, and tiny-frontier reconvergence where fixed O(n^2) costs show",
            primary: Stage::Fabric(fabric(if quick { 512 } else { 1024 })),
            probes: [serve_probe, diff_probe],
        },
        Workload {
            name: "policy-diff",
            why: "the paper's own subject: path-vector routes through dbf-bgp, delta and the event simulator, and the BGP wire engine; the integer sigma kernel is under 1 % here, so a matrix win must not move it",
            primary: Stage::Diff(DiffCfg {
                n: if quick { 12 } else { 20 },
            }),
            probes: [serve_probe, fabric_probe],
        },
    ]
}

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Values,
    /// Per repetition, what each end-to-end value would have been on that
    /// repetition alone (whole-operation times, interference included).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub checks: Checks,
    /// Deterministic counters and digests of each stage: pure functions
    /// of (workload, seed, tier).
    pub counts: Vec<(String, String)>,
    /// Per measured operation: its first metric's name, how many segments
    /// it was cut into, and the longest of them in milliseconds.
    pub segments: Vec<(&'static str, usize, f64)>,
    /// The run's fastest reference sweep (ms) and the factor every
    /// reported time was multiplied by (untraced runs only).
    pub reference: Option<(f64, f64)>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// One stage's progress through a run: the fastest repetition of every
/// segment so far, and the first repetition's counts.
struct Progress {
    runner: Runner,
    best: Vec<Series>,
    counts: Vec<(String, String)>,
}

/// The untraced run: every end-to-end metric, measured for `seconds`.
///
/// Each stage gets one input, made from the seed, and repeats it round-
/// robin with the others until the time is up, so every stage sees the
/// whole window.  A timing is the sum over the operation's segments of
/// each segment's fastest repetition (see `stage.rs`); `setup_s` is the
/// median set-up of the primary stage.
pub fn run(w: &Workload, seed: u64, seconds: f64, scratch: &Path) -> Outcome {
    let clock = Clock::start();
    let mut out = Outcome::default();
    let mut stages: Vec<Progress> = std::iter::once(&w.primary)
        .chain(&w.probes)
        .map(|stage| Progress {
            runner: stage.runner(seed),
            best: Vec::new(),
            counts: Vec::new(),
        })
        .collect();
    let mut setup = Vec::new();
    let mut k = 0u64;
    let mut reference = Reference::new();
    while k < 3 || clock.wall.elapsed().as_secs_f64() < seconds {
        for (i, p) in stages.iter_mut().enumerate() {
            reference.read(2);
            let rep = p.runner.rep(scratch);
            if i == 0 {
                setup.push(rep.setup_s);
            }
            out.checks.merge(rep.checks);
            for series in &rep.series {
                for (name, x) in series.metrics(1.0) {
                    out.samples.entry(name).or_default().push(x);
                }
            }
            if k == 0 {
                p.best = rep.series;
                p.counts = rep.counts;
            } else {
                let same_work = p.best.len() == rep.series.len()
                    && p.best
                        .iter_mut()
                        .zip(&rep.series)
                        .all(|(b, s)| b.fold_min(s))
                    && rep.counts == p.counts;
                out.checks.check(
                    same_work,
                    "a repetition does the same work, in the same segments, as the first",
                );
            }
        }
        k += 1;
    }
    let factor = reference.factor();
    out.reference = Some((reference.fastest_ms(), factor));
    for p in stages {
        for series in &p.best {
            let metrics = series.metrics(factor);
            let longest = series.ns.iter().copied().max().unwrap_or(0);
            out.segments
                .push((metrics[0].0, series.ns.len(), longest as f64 / 1e6));
            out.values.extend(metrics);
        }
        out.counts.extend(p.counts);
    }
    out.values.insert("setup_s", median(&setup) * factor);
    out.samples.insert("setup_s", setup);
    out.values.insert("peak_rss_mb", peak_rss_mb());
    (out.wall_s, out.cpu_s) = clock.stop();
    out
}

/// The traced run: every per-layer metric, one pass over each stage,
/// spans written to `trace`.
pub fn run_traced(w: &Workload, seed: u64, scratch: &Path, trace: &Path) -> Outcome {
    let clock = Clock::start();
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let serve_nodes = std::iter::once(&w.primary)
        .chain(&w.probes)
        .find_map(|s| match s {
            Stage::Serve(cfg) => Some(cfg.nodes),
            _ => None,
        })
        .expect("every workload runs a serve stage");
    layers::ladder(serve_nodes, &mut spans, &mut out.values);
    for (k, stage) in std::iter::once(&w.primary).chain(&w.probes).enumerate() {
        let (untraced_s, traced_s) =
            stage.traced(seed, scratch, &mut spans, &mut out.checks, &mut out.values);
        if k == 0 {
            out.values.insert(
                "telemetry.overhead_share",
                (traced_s - untraced_s) / untraced_s,
            );
        }
    }
    (out.wall_s, out.cpu_s) = clock.stop();
    out.values.insert("harness.cpu_s", out.cpu_s);
    out.values
        .insert("harness.wall_over_cpu", out.wall_s / out.cpu_s);
    if let Err(e) = spans.write(trace, w.name) {
        out.checks
            .check(false, &format!("writing {}: {e}", trace.display()));
    }
    out
}

/// Wall and CPU clocks of this process.
struct Clock {
    wall: Instant,
    cpu_s: f64,
}

impl Clock {
    fn start() -> Clock {
        Clock {
            wall: Instant::now(),
            cpu_s: cpu_seconds(),
        }
    }

    /// (wall, cpu) seconds since the start.
    fn stop(self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            // Never 0: the ratio wall/cpu is reported.
            (cpu_seconds() - self.cpu_s).max(0.01),
        )
    }
}

/// User + system CPU seconds of this process, from `/proc/self/stat`
/// (fields 14 and 15, in `USER_HZ` = 100 ticks); 0 where there is no
/// procfs.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// `VmHWM` of this process in MB (its peak resident set so far).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_tiers_define_the_four_permanent_workloads() {
        for quick in [false, true] {
            let names: Vec<&str> = workloads(quick).iter().map(|w| w.name).collect();
            assert_eq!(
                names,
                [
                    "serve-churn",
                    "serve-ingest",
                    "fabric-converge",
                    "policy-diff"
                ]
            );
            for w in workloads(quick) {
                // One stage of each kind, so every metric is measured.
                let kinds: Vec<u8> = std::iter::once(&w.primary)
                    .chain(&w.probes)
                    .map(|s| match s {
                        Stage::Serve(_) => 0,
                        Stage::Fabric(_) => 1,
                        Stage::Diff(_) => 2,
                    })
                    .collect();
                let mut sorted = kinds.clone();
                sorted.sort_unstable();
                assert_eq!(sorted, [0, 1, 2], "{}", w.name);
                assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            }
        }
    }

    #[test]
    fn the_process_clocks_read_something() {
        assert!(peak_rss_mb() > 0.0);
        let busy = Instant::now();
        while busy.elapsed().as_millis() < 30 {}
        assert!(cpu_seconds() > 0.0);
    }
}
