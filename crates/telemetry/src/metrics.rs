//! The counter/histogram aggregator: folds a telemetry event stream into a
//! [`MetricsReport`] with a deterministic side (round counts, row counts,
//! settle histograms, message counters) and a timing side (wall times and
//! band geometry, which may vary with thread count and scheduling).

use crate::sink::{MessageCounters, TelemetrySink};

/// The 0-based position of the `p`-th percentile among `n ≥ 1` sorted
/// samples, by the nearest-rank rule: the smallest sample with at least
/// `p` % of the samples at or below it.  The one rule settle summaries and
/// the sweep aggregator share.
pub fn nearest_rank(p: u64, n: usize) -> usize {
    (p * n as u64).div_ceil(100).max(1) as usize - 1
}

/// Summary of a per-node settle-round histogram ([`nearest_rank`]
/// percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SettleSummary {
    /// Number of nodes observed.
    pub count: u64,
    /// Median settle round.
    pub p50: u64,
    /// 95th-percentile settle round.
    pub p95: u64,
    /// 99th-percentile settle round.
    pub p99: u64,
    /// Worst-case settle round (the convergence frontier's far edge).
    pub max: u64,
}

impl SettleSummary {
    /// Nearest-rank percentile summary of `samples`; `None` when empty.
    pub fn from_samples(samples: &[u64]) -> Option<SettleSummary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = |p| sorted[nearest_rank(p, sorted.len())];
        Some(SettleSummary {
            count: sorted.len() as u64,
            p50: rank(50),
            p95: rank(95),
            p99: rank(99),
            max: *sorted.last().expect("non-empty"),
        })
    }
}

/// Aggregated per-band sweep statistics for one phase (timing side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BandStats {
    /// Band index (band 0 runs on the coordinating thread).
    pub band: u64,
    /// Number of sweeps this band performed (one per round).
    pub sweeps: u64,
    /// Total rows swept across all rounds.
    pub rows: u64,
    /// Total degree weight swept across all rounds.
    pub weight: u64,
    /// Total wall time the band's worker spent sweeping, in nanoseconds.
    pub wall_ns: u64,
}

/// Deterministic counters for one (run, phase) pair.  Every field is a
/// pure function of (problem, seed) — byte-identical across thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseMetrics {
    /// Engine-run label (e.g. `sync`, `delta[7]`).
    pub run: String,
    /// Phase label.
    pub phase: String,
    /// Number of σ rounds / δ time steps executed (including the sweep
    /// that detects the fixed point).
    pub rounds: u64,
    /// Total rows recomputed across all rounds.
    pub rows_recomputed: u64,
    /// Total rows whose recomputation produced a different row.
    pub rows_changed: u64,
    /// Largest `scheduled` count seen at any round start.  Every emitter
    /// passes its frontier there, so this equals `peak_frontier`.
    pub max_scheduled: u64,
    /// Largest active-frontier size seen at any round start (rows whose
    /// inputs changed last round).
    pub peak_frontier: u64,
    /// Per-node settle-round histogram summary, for engines that emit
    /// `node_settled`.
    pub settle: Option<SettleSummary>,
    /// Message-plane counters, for message-driven engines.
    pub messages: Option<MessageCounters>,
}

/// Non-deterministic timing data for one (run, phase) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Engine-run label.
    pub run: String,
    /// Phase label.
    pub phase: String,
    /// Total wall time across all rounds, in nanoseconds.
    pub round_wall_ns: u64,
    /// Per-band sweep statistics (empty unless the phase ran the parallel
    /// σ kernel with more than one band).
    pub bands: Vec<BandStats>,
}

/// The aggregator's output: phase-by-phase deterministic metrics plus the
/// matching timing entries, in event-arrival (run, phase) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsReport {
    /// Deterministic per-phase counters.
    pub phases: Vec<PhaseMetrics>,
    /// Per-phase timing (same order as `phases`).
    pub timing: Vec<PhaseTiming>,
}

#[derive(Debug, Default)]
struct PhaseAgg {
    run: String,
    phase: String,
    rounds: u64,
    rows_recomputed: u64,
    rows_changed: u64,
    max_scheduled: u64,
    peak_frontier: u64,
    settle: Vec<u64>,
    messages: Option<MessageCounters>,
    round_wall_ns: u64,
    bands: Vec<BandStats>,
}

/// Folds the event stream into a [`MetricsReport`].
///
/// One entry is opened per `phase_start`; events arriving before any
/// `phase_start` (e.g. when a kernel is driven directly, outside an
/// engine) open an anonymous entry.  Entries appear in arrival order,
/// which the sequential engine loop makes deterministic.
#[derive(Debug, Default)]
pub struct AggregatingSink {
    entries: Vec<PhaseAgg>,
    current_run: String,
    current_engine: String,
}

impl AggregatingSink {
    /// A fresh, empty aggregator.
    pub fn new() -> AggregatingSink {
        AggregatingSink::default()
    }

    fn entry(&mut self) -> &mut PhaseAgg {
        if self.entries.is_empty() {
            self.entries.push(PhaseAgg {
                run: self.current_run.clone(),
                ..PhaseAgg::default()
            });
        }
        self.entries.last_mut().expect("just ensured non-empty")
    }

    /// Consume the sink and produce the final report.
    pub fn finish(self) -> MetricsReport {
        let mut report = MetricsReport::default();
        for e in self.entries {
            report.phases.push(PhaseMetrics {
                run: e.run.clone(),
                phase: e.phase.clone(),
                rounds: e.rounds,
                rows_recomputed: e.rows_recomputed,
                rows_changed: e.rows_changed,
                max_scheduled: e.max_scheduled,
                peak_frontier: e.peak_frontier,
                settle: SettleSummary::from_samples(&e.settle),
                messages: e.messages,
            });
            report.timing.push(PhaseTiming {
                run: e.run,
                phase: e.phase,
                round_wall_ns: e.round_wall_ns,
                bands: e.bands,
            });
        }
        report
    }
}

impl TelemetrySink for AggregatingSink {
    fn run_start(&mut self, run: &str, engine: &str) {
        self.current_run = run.to_string();
        self.current_engine = engine.to_string();
    }

    fn phase_start(&mut self, label: &str, _nodes: usize) {
        self.entries.push(PhaseAgg {
            run: self.current_run.clone(),
            phase: label.to_string(),
            ..PhaseAgg::default()
        });
    }

    fn round_start(&mut self, _round: u64, scheduled: u64, frontier: u64) {
        let e = self.entry();
        e.max_scheduled = e.max_scheduled.max(scheduled);
        e.peak_frontier = e.peak_frontier.max(frontier);
    }

    fn round_end(&mut self, _round: u64, recomputed: u64, changed: u64, wall_ns: u64) {
        let e = self.entry();
        e.rounds += 1;
        e.rows_recomputed += recomputed;
        e.rows_changed += changed;
        e.round_wall_ns += wall_ns;
    }

    fn band_sweep(&mut self, _round: u64, band: u64, rows: u64, weight: u64, wall_ns: u64) {
        let e = self.entry();
        let idx = band as usize;
        if e.bands.len() <= idx {
            e.bands.resize_with(idx + 1, BandStats::default);
        }
        let b = &mut e.bands[idx];
        b.band = band;
        b.sweeps += 1;
        b.rows += rows;
        b.weight += weight;
        b.wall_ns += wall_ns;
    }

    fn node_settled(&mut self, _node: usize, round: u64) {
        self.entry().settle.push(round);
    }

    fn messages(&mut self, counters: &MessageCounters) {
        let e = self.entry();
        match &mut e.messages {
            Some(m) => m.merge(counters),
            slot @ None => *slot = Some(*counters),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settle_summary_uses_nearest_rank_percentiles() {
        let s = SettleSummary::from_samples(&[4, 1, 2, 3, 5]).unwrap();
        assert_eq!((s.count, s.p50, s.p95, s.p99, s.max), (5, 3, 5, 5, 5));
        assert_eq!(SettleSummary::from_samples(&[]), None);
        let one = SettleSummary::from_samples(&[7]).unwrap();
        assert_eq!((one.p50, one.p99, one.max), (7, 7, 7));
    }

    #[test]
    fn nearest_rank_is_the_ceiling_of_p_percent_of_n() {
        assert_eq!(nearest_rank(95, 20), 18, "the 19th of 20");
        assert_eq!((nearest_rank(50, 1), nearest_rank(99, 1)), (0, 0));
        // The same rule computed in floating point.
        for n in 1..=100_000usize {
            let float = ((0.95 * n as f64).ceil() as usize).clamp(1, n) - 1;
            assert_eq!(nearest_rank(95, n), float, "n = {n}");
        }
    }

    #[test]
    fn aggregator_folds_rounds_bands_and_settles_per_phase() {
        let mut sink = AggregatingSink::new();
        sink.run_start("sync", "sync");
        sink.phase_start("baseline", 4);
        sink.round_start(1, 4, 4);
        sink.band_sweep(1, 0, 2, 10, 100);
        sink.band_sweep(1, 1, 2, 8, 90);
        sink.round_end(1, 4, 3, 200);
        sink.round_start(2, 4, 3);
        sink.round_end(2, 4, 0, 150);
        for (node, round) in [(0, 1), (1, 1), (2, 0), (3, 1)] {
            sink.node_settled(node, round);
        }
        sink.phase_end("baseline");
        sink.phase_start("change", 4);
        sink.round_start(1, 2, 1);
        sink.round_end(1, 2, 1, 50);
        sink.phase_end("change");

        let report = sink.finish();
        assert_eq!(report.phases.len(), 2);
        let base = &report.phases[0];
        assert_eq!(
            (base.rounds, base.rows_recomputed, base.rows_changed),
            (2, 8, 3)
        );
        assert_eq!(base.max_scheduled, 4);
        assert_eq!(base.peak_frontier, 4);
        let settle = base.settle.unwrap();
        assert_eq!((settle.count, settle.p50, settle.max), (4, 1, 1));
        assert_eq!(report.phases[1].max_scheduled, 2);
        assert_eq!(report.phases[1].peak_frontier, 1);
        let t = &report.timing[0];
        assert_eq!(t.round_wall_ns, 350);
        assert_eq!(t.bands.len(), 2);
        assert_eq!(
            (t.bands[1].rows, t.bands[1].weight, t.bands[1].wall_ns),
            (2, 8, 90)
        );
    }

    #[test]
    fn events_without_a_phase_open_an_anonymous_entry() {
        let mut sink = AggregatingSink::new();
        sink.round_start(1, 3, 3);
        sink.round_end(1, 3, 3, 10);
        let report = sink.finish();
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].phase, "");
        assert_eq!(report.phases[0].rounds, 1);
    }
}
