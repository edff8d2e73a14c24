//! Statistical aggregation of sweep runs.
//!
//! Each `(grid point, replicate)` cell of a sweep produces one
//! [`crate::report::ScenarioReport`]; this module reduces the replicates of
//! every grid point to descriptive statistics (mean / median / p95 / min /
//! max) over the deterministic work metrics, and keeps wall-clock timing in
//! a separate section so the aggregated JSON is byte-identical for any
//! `--jobs` value.

use crate::report::{Json, ScenarioReport};
use crate::sweep::GridPoint;
use dbf_telemetry::nearest_rank;

/// Descriptive statistics over the replicate samples of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (average of the middle two for even sample counts).
    pub median: f64,
    /// 95th percentile ([`nearest_rank`]).
    pub p95: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Stats {
    /// Compute the statistics of a non-empty sample set.
    ///
    /// # Panics
    ///
    /// Panics when `samples` is empty (a sweep always has ≥ 1 replicate).
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "stats need at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are finite"));
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Self {
            mean,
            median,
            p95: sorted[nearest_rank(95, n)],
            min: sorted[0],
            max: sorted[n - 1],
        }
    }

    /// Render as a JSON object.
    pub fn to_json(self) -> Json {
        Json::Obj(vec![
            ("mean".into(), Json::Num(self.mean)),
            ("median".into(), Json::Num(self.median)),
            ("p95".into(), Json::Num(self.p95)),
            ("min".into(), Json::Num(self.min)),
            ("max".into(), Json::Num(self.max)),
        ])
    }
}

/// The metrics extracted from one replicate's scenario report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicateMetrics {
    /// Replicate index within the grid point.
    pub replicate: usize,
    /// The derived seed of the run (for reproduction commands).
    pub seed: u64,
    /// Total engine work across all runs and phases (σ rounds, δ
    /// activations, message deliveries).
    pub work: u64,
    /// Total messages sent across all runs and phases (engines without a
    /// message concept contribute nothing).
    pub messages: u64,
    /// Total logical rounds across all runs and phases (σ iterations,
    /// worklist rounds, δ quiescence times, last-change times).
    pub rounds: u64,
    /// σ rounds to convergence (the `sync` run's work), when the scenario
    /// ran the synchronous engine.
    pub sync_rounds: Option<u64>,
    /// Worst (largest) `rounds / predicted_bound` ratio across all
    /// bound-annotated phases of all runs — how close the run came to the
    /// theorem's budget.  `None` when no phase carried a bound (e.g. the
    /// SPP negative controls).  Deterministic: both numerator and
    /// denominator are pure functions of the spec and seed.
    pub tightness: Option<f64>,
    /// Wall-clock milliseconds across all runs and phases
    /// (non-deterministic; excluded from the canonical JSON).
    pub wall_ms: f64,
    /// Did every run of the final phase stabilise?
    pub converges: bool,
    /// Did every run of the final phase agree?
    pub agreement: bool,
    /// Did every bound-annotated phase converge within its predicted
    /// bound?
    pub bounds_ok: bool,
    /// Did the differential verdict match the scenario's expectation?
    pub expectation_met: bool,
}

impl ReplicateMetrics {
    /// Reduce one scenario report to its sweep metrics.
    pub fn from_report(replicate: usize, seed: u64, report: &ScenarioReport) -> Self {
        let mut work = 0u64;
        let mut messages = 0u64;
        let mut rounds = 0u64;
        let mut wall_ms = 0f64;
        let mut sync_rounds = None;
        let mut tightness: Option<f64> = None;
        for run in &report.runs {
            let t = run.totals();
            tightness = tightness.into_iter().chain(t.tightness).reduce(f64::max);
            work += t.work;
            messages += t.messages;
            rounds += t.rounds;
            wall_ms += t.wall_ms;
            if run.engine == "sync" {
                sync_rounds = Some(t.work);
            }
        }
        Self {
            replicate,
            seed,
            work,
            messages,
            rounds,
            sync_rounds,
            tightness,
            wall_ms,
            converges: report.verdict.converges,
            agreement: report.verdict.agreement,
            bounds_ok: report.verdict.bounds_ok,
            expectation_met: report.expectation_met(),
        }
    }
}

/// A replicate whose differential verdict did not match the expectation,
/// with everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepFailure {
    /// Replicate index within the grid point.
    pub replicate: usize,
    /// The derived seed of the failing run.
    pub seed: u64,
    /// The observed convergence verdict.
    pub converges: bool,
    /// The observed agreement verdict.
    pub agreement: bool,
    /// The observed bound verdict (false when a phase exceeded its
    /// predicted round bound).
    pub bounds_ok: bool,
}

/// The aggregated outcome of one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointReport {
    /// Position in the full grid (names the point in `--point` commands).
    pub index: usize,
    /// Compact label, e.g. `n=64,loss=0.2`.
    pub label: String,
    /// The `(param name, value-as-json)` assignments of the point.
    pub params: Vec<(String, Json)>,
    /// How many replicates ran.
    pub replicates: usize,
    /// The per-replicate seeds, in replicate order.
    pub seeds: Vec<u64>,
    /// Did every replicate meet its differential expectation?
    pub ok: bool,
    /// Work statistics over the replicates.
    pub work: Stats,
    /// Message statistics over the replicates.
    pub messages: Stats,
    /// Logical-round statistics over the replicates.
    pub rounds: Stats,
    /// σ-rounds-to-convergence statistics, when the sync engine ran in
    /// every replicate.
    pub sync_rounds: Option<Stats>,
    /// Predicted-vs-actual tightness statistics (worst per-replicate
    /// `rounds / bound` ratio), when every replicate carried a bound.
    pub tightness: Option<Stats>,
    /// Wall-clock statistics (non-deterministic; timing section only).
    pub wall_ms: Stats,
    /// The replicates that missed their expectation.
    pub failures: Vec<SweepFailure>,
}

impl PointReport {
    /// Aggregate the replicates of one grid point.  `metrics` must be
    /// sorted by replicate index and non-empty.
    pub fn aggregate(point: &GridPoint, metrics: Vec<ReplicateMetrics>) -> Self {
        assert!(!metrics.is_empty(), "a grid point needs >= 1 replicate");
        let samples =
            |f: &dyn Fn(&ReplicateMetrics) -> f64| -> Vec<f64> { metrics.iter().map(f).collect() };
        let work = Stats::from_samples(&samples(&|m| m.work as f64));
        let messages = Stats::from_samples(&samples(&|m| m.messages as f64));
        let rounds = Stats::from_samples(&samples(&|m| m.rounds as f64));
        let wall_ms = Stats::from_samples(&samples(&|m| m.wall_ms));
        let sync_rounds = if metrics.iter().all(|m| m.sync_rounds.is_some()) {
            Some(Stats::from_samples(&samples(&|m| {
                m.sync_rounds.unwrap_or(0) as f64
            })))
        } else {
            None
        };
        let tightness = if metrics.iter().all(|m| m.tightness.is_some()) {
            Some(Stats::from_samples(&samples(&|m| {
                m.tightness.unwrap_or(0.0)
            })))
        } else {
            None
        };
        let failures: Vec<SweepFailure> = metrics
            .iter()
            .filter(|m| !m.expectation_met)
            .map(|m| SweepFailure {
                replicate: m.replicate,
                seed: m.seed,
                converges: m.converges,
                agreement: m.agreement,
                bounds_ok: m.bounds_ok,
            })
            .collect();
        Self {
            index: point.index,
            label: point.label(),
            params: point
                .assignments
                .iter()
                .map(|(p, v)| (p.name().to_string(), v.to_json()))
                .collect(),
            replicates: metrics.len(),
            seeds: metrics.iter().map(|m| m.seed).collect(),
            ok: failures.is_empty(),
            work,
            messages,
            rounds,
            sync_rounds,
            tightness,
            wall_ms,
            failures,
        }
    }

    fn to_json(&self, include_timing: bool) -> Json {
        let mut fields = vec![
            ("index".into(), Json::uint(self.index as u64)),
            ("label".into(), Json::str(&self.label)),
            (
                "params".into(),
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
            ),
            ("replicates".into(), Json::uint(self.replicates as u64)),
            (
                "seeds".into(),
                Json::Arr(
                    self.seeds
                        .iter()
                        .map(|&s| Json::str(format!("{s:#018x}")))
                        .collect(),
                ),
            ),
            ("ok".into(), Json::Bool(self.ok)),
        ];
        let mut stats = vec![
            ("work".into(), self.work.to_json()),
            ("messages".into(), self.messages.to_json()),
            ("rounds".into(), self.rounds.to_json()),
        ];
        if let Some(s) = self.sync_rounds {
            stats.push(("sync_rounds".into(), s.to_json()));
        }
        if let Some(s) = self.tightness {
            stats.push(("tightness".into(), s.to_json()));
        }
        fields.push(("stats".into(), Json::Obj(stats)));
        if include_timing {
            fields.push(("wall_ms".into(), self.wall_ms.to_json()));
        }
        if !self.failures.is_empty() {
            fields.push((
                "failures".into(),
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                ("replicate".into(), Json::uint(f.replicate as u64)),
                                ("seed".into(), Json::str(format!("{:#018x}", f.seed))),
                                ("converges".into(), Json::Bool(f.converges)),
                                ("agreement".into(), Json::Bool(f.agreement)),
                                ("bounds_ok".into(), Json::Bool(f.bounds_ok)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::Obj(fields)
    }
}

/// The aggregated report of one sweep execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The sweep name.
    pub sweep: String,
    /// The sweep description.
    pub description: String,
    /// The base scenario's name.
    pub base: String,
    /// Replicates per grid point (as specified; `--replicate` filtering
    /// reduces the per-point count in [`PointReport::replicates`]).
    pub replicates: usize,
    /// Intra-run worker threads the parallelizable engines were given.
    /// Execution metadata, not spec: it can only move wall-clock numbers,
    /// so it is emitted with the timing section and kept out of the
    /// canonical (byte-stable) JSON.
    pub threads: usize,
    /// Aggregated grid points, in grid order.
    pub points: Vec<PointReport>,
}

impl SweepReport {
    /// Did every replicate of every grid point meet its expectation?
    pub fn ok(&self) -> bool {
        self.points.iter().all(|p| p.ok)
    }

    /// Render as JSON.
    ///
    /// Without timing this document is **byte-identical** for any `--jobs`
    /// *and* `--threads` value: every included metric is a pure function of
    /// the sweep spec.  `include_timing` adds per-point `wall_ms`
    /// statistics and the intra-run thread count (useful for the
    /// `BENCH_sweeps.json` trajectory, unavoidably non-deterministic).
    pub fn to_json(&self, include_timing: bool) -> Json {
        let mut fields = vec![
            ("sweep".into(), Json::str(&self.sweep)),
            ("description".into(), Json::str(&self.description)),
            ("base".into(), Json::str(&self.base)),
            ("replicates".into(), Json::uint(self.replicates as u64)),
        ];
        if include_timing {
            fields.push(("threads".into(), Json::uint(self.threads as u64)));
        }
        fields.push(("ok".into(), Json::Bool(self.ok())));
        fields.push((
            "points".into(),
            Json::Arr(
                self.points
                    .iter()
                    .map(|p| p.to_json(include_timing))
                    .collect(),
            ),
        ));
        Json::Obj(fields)
    }

    /// A compact human-readable table.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "sweep {:<28} base={} replicates={} points={} {}",
            self.sweep,
            self.base,
            self.replicates,
            self.points.len(),
            if self.ok() { "OK" } else { "FAIL" },
        );
        for p in &self.points {
            out.push_str(&format!(
                "\n  #{:<3} {:<24} work mean={:<10.1} p95={:<10.1} msgs mean={:<10.1} wall mean={:.1}ms {}",
                p.index,
                p.label,
                p.work.mean,
                p.work.p95,
                p.messages.mean,
                p.wall_ms.mean,
                if p.ok { "ok" } else { "FAIL" },
            ));
        }
        out
    }
}

/// Aggregate a set of sweep reports into the `BENCH_sweeps.json` document.
///
/// Each entry is the sweep's full aggregated report *including* the
/// per-point wall-clock statistics (the whole purpose of the trajectory
/// file), so unlike the `scenarios sweep --json` output this document is
/// not byte-stable across machines or runs.
pub fn bench_sweeps_json(reports: &[SweepReport]) -> Json {
    Json::Obj(vec![
        ("suite".into(), Json::str("dbf-scenario sweeps")),
        ("schema_version".into(), Json::Int(3)),
        (
            "sweeps".into(),
            Json::Arr(reports.iter().map(|r| r.to_json(true)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{AxisParam, AxisValue};

    #[test]
    fn stats_on_known_samples() {
        // 1..=20: mean 10.5, median 10.5, p95 = 19 (nearest rank:
        // ceil(0.95·20) = 19th of the sorted samples), min 1, max 20.
        let samples: Vec<f64> = (1..=20).map(|x| x as f64).collect();
        let s = Stats::from_samples(&samples);
        assert_eq!(s.mean, 10.5);
        assert_eq!(s.median, 10.5);
        assert_eq!(s.p95, 19.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 20.0);

        // Odd count with unsorted input.
        let s = Stats::from_samples(&[5.0, 1.0, 3.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.p95, 5.0);
        assert_eq!(s.mean, 3.0);

        // A single sample is every statistic.
        let s = Stats::from_samples(&[7.0]);
        assert_eq!(
            (s.mean, s.median, s.p95, s.min, s.max),
            (7.0, 7.0, 7.0, 7.0, 7.0)
        );
    }

    #[test]
    fn aggregation_separates_ok_and_failures() {
        let point = GridPoint {
            index: 3,
            assignments: vec![(AxisParam::N, AxisValue::Int(8))],
        };
        let metric = |replicate: usize, ok: bool| ReplicateMetrics {
            replicate,
            seed: 100 + replicate as u64,
            work: 10 * (replicate as u64 + 1),
            messages: 5,
            rounds: 6,
            sync_rounds: Some(4),
            tightness: Some(0.5 * (replicate as f64 + 1.0)),
            wall_ms: 1.0,
            converges: ok,
            agreement: ok,
            bounds_ok: ok,
            expectation_met: ok,
        };
        let report = PointReport::aggregate(&point, vec![metric(0, true), metric(1, false)]);
        assert_eq!(report.label, "n=8");
        assert!(!report.ok);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].replicate, 1);
        assert_eq!(report.failures[0].seed, 101);
        assert!(!report.failures[0].bounds_ok);
        assert_eq!(report.work.mean, 15.0);
        assert_eq!(report.work.max, 20.0);
        assert_eq!(report.sync_rounds.unwrap().mean, 4.0);
        assert_eq!(report.rounds.mean, 6.0);
        assert_eq!(report.tightness.unwrap().max, 1.0);
        let text = report.to_json(false).to_string();
        assert!(text.contains("\"failures\""));
        assert!(text.contains("\"tightness\""));
        assert!(!text.contains("wall_ms"), "timing excluded by default");
        let timed = report.to_json(true).to_string();
        assert!(timed.contains("wall_ms"));
    }
}
