//! What the three stage kinds (serve replay, fabric convergence,
//! differential run) share: the outcome of one repetition, segment
//! timing, the check counter, and the small clock/file helpers.
//!
//! **Segment timing.**  On the shared box this was sized on, interference
//! comes in millisecond bursts that slow whatever runs by up to 1.5×,
//! during spells that last minutes: an operation of 100 ms never sees a
//! quiet machine in such a spell, a segment of a few milliseconds often
//! does.  So every measured operation is cut into short segments at
//! boundaries the harness can see from outside (one `submit`, one σ
//! round, one destination block, one engine phase), the same input is
//! run again and again, and the operation's time is the sum over its
//! segments of each segment's *fastest* repetition — the time the
//! operation takes on an undisturbed machine.  Every repetition does the
//! same work in the same order (the engines are deterministic), so
//! segment `k` of one repetition is segment `k` of every other.

use crate::metrics::Values;
use dbf_scenario::telemetry::{SettleSummary, TelemetrySink};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Operations attempted and failed, in the contract's sense.  A failed
/// check is a failed operation; every miss is also explained on stderr.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count `n` operations of which `bad` failed.
    pub fn ops(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            eprintln!("FAILED: {bad} of {n} {what}");
        }
    }

    /// Count one check.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.ops(1, u64::from(!ok), what);
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// How a series of segment times becomes end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reduce {
    /// Seconds: the sum of the segments.
    Seconds(&'static str),
    /// Segments per second of their summed time.
    PerSecond(&'static str),
    /// Nearest-rank p50 and p99 of the segments, in microseconds.
    P50P99Us(&'static str, &'static str),
}

/// The segment times (ns) of one measured operation in one repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub reduce: Reduce,
    pub ns: Vec<u64>,
}

impl Series {
    /// Keep, segment by segment, the faster of `self` and `other`.
    /// `false` (and `self` untouched) if the two differ in shape, which
    /// means the repetitions did not do the same work.
    pub fn fold_min(&mut self, other: &Series) -> bool {
        if self.reduce != other.reduce || self.ns.len() != other.ns.len() {
            return false;
        }
        for (best, &x) in self.ns.iter_mut().zip(&other.ns) {
            *best = (*best).min(x);
        }
        true
    }

    pub fn total_s(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// The end-to-end values this series stands for, every time in it
    /// multiplied by `factor` (see `reference.rs`; 1 leaves them as
    /// measured).
    pub fn metrics(&self, factor: f64) -> Vec<(&'static str, f64)> {
        match self.reduce {
            Reduce::Seconds(name) => vec![(name, self.total_s() * factor)],
            Reduce::PerSecond(name) => {
                vec![(name, self.ns.len() as f64 / (self.total_s() * factor))]
            }
            Reduce::P50P99Us(p50, p99) => {
                let (a, b) = p50_p99(&self.ns);
                vec![(p50, a / 1e3 * factor), (p99, b / 1e3 * factor)]
            }
        }
    }
}

/// One untraced repetition of a stage on its input.
#[derive(Debug, Default)]
pub struct Rep {
    /// Input generation, adjacency build and (serve) initial convergence.
    pub setup_s: f64,
    pub series: Vec<Series>,
    pub checks: Checks,
    /// Deterministic counters and digests: pure functions of the input.
    pub counts: Vec<(String, String)>,
}

/// Cuts an operation into segments: every [`Marks::mark`] ends one.
pub struct Marks {
    last: Instant,
    ns: Vec<u64>,
}

impl Marks {
    pub fn start() -> Marks {
        Marks {
            last: Instant::now(),
            ns: Vec::new(),
        }
    }

    pub fn mark(&mut self) {
        let now = Instant::now();
        self.ns.push((now - self.last).as_nanos() as u64);
        self.last = now;
    }

    /// End the last segment and hand back all of them.
    pub fn finish(mut self) -> Vec<u64> {
        self.mark();
        self.ns
    }
}

/// A telemetry sink that does nothing but end a segment at every run,
/// phase and round boundary the library reports.
pub struct MarkSink(pub Marks);

impl TelemetrySink for MarkSink {
    fn run_start(&mut self, _run: &str, _engine: &str) {
        self.0.mark();
    }

    fn phase_start(&mut self, _label: &str, _nodes: usize) {
        self.0.mark();
    }

    fn phase_end(&mut self, _label: &str) {
        self.0.mark();
    }

    fn round_end(&mut self, _round: u64, _recomputed: u64, _changed: u64, _wall_ns: u64) {
        self.0.mark();
    }
}

/// Time `f`, returning its result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Time `f`, returning its result and the nanoseconds it took.
pub fn timed_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// p50 and p99 (nearest rank, as the library's own reports compute them)
/// of integer samples; zeros for an empty set.
pub fn p50_p99(samples: &[u64]) -> (f64, f64) {
    SettleSummary::from_samples(samples).map_or((0.0, 0.0), |s| (s.p50 as f64, s.p99 as f64))
}

/// Record p50/p99 of nanosecond samples under `p50`/`p99`, scaled to the
/// metric's unit (`per_unit` nanoseconds per unit).
pub fn put_percentiles(
    v: &mut Values,
    p50: &'static str,
    p99: &'static str,
    ns: &[u64],
    per_unit: f64,
) {
    let (a, b) = p50_p99(ns);
    v.insert(p50, a / per_unit);
    v.insert(p99, b / per_unit);
}

/// A fresh, empty directory `<scratch>/<name>-<pid>` (checkpoint stores
/// live here; two benchmark processes never share one).
pub fn fresh_dir(scratch: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = scratch.join(format!("{name}-{}", std::process::id()));
    match std::fs::remove_dir_all(&dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fold_keeps_each_segments_fastest_repetition() {
        let series = |ns: &[u64]| Series {
            reduce: Reduce::Seconds("cold_converge_s"),
            ns: ns.to_vec(),
        };
        let mut best = series(&[5_000_000_000, 2_000_000_000, 9_000_000_000]);
        assert!(best.fold_min(&series(&[6_000_000_000, 1_000_000_000, 9_000_000_000])));
        assert_eq!(best.ns, [5_000_000_000, 1_000_000_000, 9_000_000_000]);
        assert_eq!(best.metrics(1.0), [("cold_converge_s", 15.0)]);
        // A repetition of another shape did other work: refused.
        assert!(!best.fold_min(&series(&[1, 1])));
        assert_eq!(best.ns.len(), 3);
    }

    #[test]
    fn series_reduce_to_rates_and_percentiles() {
        let events = Series {
            reduce: Reduce::PerSecond("events_per_s"),
            ns: vec![250_000_000; 8],
        };
        assert_eq!(events.metrics(1.0), [("events_per_s", 4.0)]);
        // At half the reference speed the same work would have taken half as long.
        assert_eq!(events.metrics(0.5), [("events_per_s", 8.0)]);
        let queries = Series {
            reduce: Reduce::P50P99Us("query_p50_us", "query_p99_us"),
            ns: (1..=100).map(|k| k * 1_000).collect(),
        };
        assert_eq!(
            queries.metrics(1.0),
            [("query_p50_us", 50.0), ("query_p99_us", 99.0)]
        );
        assert_eq!(
            queries.metrics(2.0),
            [("query_p50_us", 100.0), ("query_p99_us", 198.0)]
        );
    }

    #[test]
    fn marks_cut_an_operation_into_segments() {
        let mut sink = MarkSink(Marks::start());
        sink.run_start("sync", "sync");
        sink.phase_start("baseline", 4);
        sink.round_start(1, 4, 4);
        sink.round_end(1, 4, 3, 0);
        sink.phase_end("baseline");
        assert_eq!(sink.0.finish().len(), 5);
    }
}
