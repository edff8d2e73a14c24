//! Observed-schedule recording: reconstruct `(α, β)` from an execution
//! and audit the axioms **S1–S3** with explicit witnesses.
//!
//! The checkers on [`Schedule`] answer "does this schedule satisfy the
//! finite axiom strengthenings?" with a bare boolean.  The convergence
//! *bounds* (arXiv 2507.07263) make quantitative promises — `δ` reaches
//! the fixed point within `n·h·(w + ℓ + 1)` steps — that only hold when
//! the execution really was generated under an `(w, ℓ)`-bounded
//! schedule.  [`ScheduleTrace`] is the evidence side of that contract: a
//! recorder that an executor (or a test harness) feeds with activation
//! and data-read events, and that afterwards either certifies the
//! finite axioms for a given `(w, ℓ)` or names the first violation.
//!
//! Two entry points:
//!
//! * [`ScheduleTrace::record`] replays an existing [`Schedule`] through
//!   the recorder (used by the property tests to audit every fault
//!   profile the generator emits);
//! * [`ScheduleTrace::begin_step`] / [`ScheduleTrace::activation`] /
//!   [`ScheduleTrace::read`] record an execution incrementally, exactly
//!   as an asynchronous evaluator observes it.
//!
//! A recorded trace converts back into a [`Schedule`] via
//! [`ScheduleTrace::into_schedule`]; the round trip is lossless, which
//! the tests check property-style.

use crate::schedule::Schedule;

/// The first axiom violation found in a trace, with enough context to
/// reproduce it.  `t` is 1-based, matching [`Schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxiomViolation {
    /// S1 (finite form): `node` never activated in the `window`-step
    /// span starting at time `start + 1`.
    S1 {
        /// The starved node.
        node: usize,
        /// 0-based offset of the first step of the silent window.
        start: usize,
        /// The window width `w` that was being checked.
        window: usize,
    },
    /// S2: a data read observed the present or the future
    /// (`β(t, i, j) ≥ t`).
    S2 {
        /// The time of the offending read.
        t: usize,
        /// The reading node.
        i: usize,
        /// The node read from.
        j: usize,
        /// The observed (impossible) data time.
        beta: usize,
    },
    /// S3 (finite form): a read was staler than the lag bound
    /// (`t − β(t, i, j) > ℓ`).
    S3 {
        /// The time of the offending read.
        t: usize,
        /// The reading node.
        i: usize,
        /// The node read from.
        j: usize,
        /// The observed data time.
        beta: usize,
        /// The lag bound `ℓ` that was being checked.
        lag: usize,
    },
}

impl std::fmt::Display for AxiomViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::S1 {
                node,
                start,
                window,
            } => write!(
                f,
                "S1 violated: node {node} silent through steps {}..={} (window {window})",
                start + 1,
                start + window
            ),
            Self::S2 { t, i, j, beta } => {
                write!(f, "S2 violated: β({t}, {i}, {j}) = {beta} ≥ {t}")
            }
            Self::S3 { t, i, j, beta, lag } => write!(
                f,
                "S3 violated: β({t}, {i}, {j}) = {beta} lags {} > {lag}",
                t - beta
            ),
        }
    }
}

/// An incremental recorder for the schedule `(α, β)` an execution
/// actually followed.
#[derive(Debug, Clone)]
pub struct ScheduleTrace {
    n: usize,
    /// `activations[t-1][i]` — recorded α.
    activations: Vec<Vec<bool>>,
    /// `reads[t-1][i·n + j]` — recorded β, `None` until the read happens
    /// (a node that does not activate reads nothing; the reconstruction
    /// fills those cells with the freshest legal time `t − 1`).
    reads: Vec<Vec<Option<usize>>>,
}

impl ScheduleTrace {
    /// An empty trace over `n` nodes, at time 0 (no steps recorded).
    pub fn new(n: usize) -> Self {
        Self {
            n,
            activations: Vec::new(),
            reads: Vec::new(),
        }
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// How many steps have been recorded; the trace covers times
    /// `1..=horizon()`.
    pub fn horizon(&self) -> usize {
        self.activations.len()
    }

    /// Open the next time step. Subsequent [`Self::activation`] and
    /// [`Self::read`] calls attach to it.
    pub fn begin_step(&mut self) {
        self.activations.push(vec![false; self.n]);
        self.reads.push(vec![None; self.n * self.n]);
    }

    /// Record that node `i` activated during the current step.
    pub fn activation(&mut self, i: usize) {
        let t = self.horizon();
        assert!(t > 0, "begin_step before recording events");
        self.activations[t - 1][i] = true;
    }

    /// Record that node `i` read node `j`'s state as of time `beta`
    /// during the current step.
    pub fn read(&mut self, i: usize, j: usize, beta: usize) {
        let t = self.horizon();
        assert!(t > 0, "begin_step before recording events");
        assert!(i < self.n && j < self.n, "node index out of range");
        self.reads[t - 1][i * self.n + j] = Some(beta);
    }

    /// Replay a whole [`Schedule`] through a fresh recorder.
    pub fn record(schedule: &Schedule) -> Self {
        let n = schedule.node_count();
        let mut trace = Self::new(n);
        for t in 1..=schedule.horizon() {
            trace.begin_step();
            for i in 0..n {
                if schedule.activates(t, i) {
                    trace.activation(i);
                }
                for j in 0..n {
                    trace.read(i, j, schedule.data_time(t, i, j));
                }
            }
        }
        trace
    }

    /// The largest observed staleness `max (t − β)`, or 1 for a trace
    /// with no recorded reads (matching [`Schedule::max_lag`]).
    pub fn max_lag(&self) -> usize {
        let mut lag = 1;
        for (t0, step) in self.reads.iter().enumerate() {
            for beta in step.iter().flatten() {
                lag = lag.max((t0 + 1).saturating_sub(*beta));
            }
        }
        lag
    }

    /// Audit the finite axioms against an activation window `w` and a
    /// staleness bound `ℓ` — the same `(w, ℓ)` the convergence bound
    /// `n·h·(w + ℓ + 1)` is computed from.  Returns the first violation
    /// in S2, S3, S1 order (pointwise checks before the windowed one).
    pub fn certify(&self, window: usize, lag: usize) -> Result<(), AxiomViolation> {
        let horizon = self.horizon();
        for t in 1..=horizon {
            for i in 0..self.n {
                for j in 0..self.n {
                    let Some(beta) = self.reads[t - 1][i * self.n + j] else {
                        continue;
                    };
                    if beta >= t {
                        return Err(AxiomViolation::S2 { t, i, j, beta });
                    }
                    if t - beta > lag {
                        return Err(AxiomViolation::S3 { t, i, j, beta, lag });
                    }
                }
            }
        }
        let window = window.max(1);
        if horizon < window {
            // Too short to contain a full window: require at least one
            // activation each, the degenerate form S1 collapses to.
            for i in 0..self.n {
                if !self.activations.iter().any(|row| row[i]) {
                    return Err(AxiomViolation::S1 {
                        node: i,
                        start: 0,
                        window,
                    });
                }
            }
            return Ok(());
        }
        for start in 0..=(horizon - window) {
            for i in 0..self.n {
                if !(start..start + window).any(|t0| self.activations[t0][i]) {
                    return Err(AxiomViolation::S1 {
                        node: i,
                        start,
                        window,
                    });
                }
            }
        }
        Ok(())
    }

    /// Reconstruct the observed [`Schedule`].  Cells with no recorded
    /// read get the freshest legal time `t − 1` (an unread cell
    /// constrains nothing, so the reconstruction picks the value that
    /// keeps every axiom the trace satisfied).
    pub fn into_schedule(self) -> Schedule {
        let horizon = self.horizon();
        let mut schedule = Schedule::synchronous(self.n, horizon);
        for t in 1..=horizon {
            for i in 0..self.n {
                schedule.set_activation(t, i, self.activations[t - 1][i]);
                for j in 0..self.n {
                    let beta = self.reads[t - 1][i * self.n + j].unwrap_or(t - 1);
                    schedule.set_data_time(t, i, j, beta);
                }
            }
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleParams;

    #[test]
    fn recording_a_schedule_round_trips() {
        let original = Schedule::random(4, 60, ScheduleParams::default(), 7);
        let trace = ScheduleTrace::record(&original);
        assert_eq!(trace.horizon(), 60);
        assert_eq!(trace.max_lag(), original.max_lag());
        assert_eq!(trace.into_schedule(), original);
    }

    #[test]
    fn incremental_recording_matches_replay() {
        let schedule = Schedule::round_robin(3, 12);
        let mut trace = ScheduleTrace::new(3);
        for t in 1..=12 {
            trace.begin_step();
            for i in 0..3 {
                if schedule.activates(t, i) {
                    trace.activation(i);
                }
                for j in 0..3 {
                    trace.read(i, j, schedule.data_time(t, i, j));
                }
            }
        }
        assert_eq!(trace.into_schedule(), schedule);
    }

    #[test]
    fn unread_cells_reconstruct_to_fresh_data() {
        let mut trace = ScheduleTrace::new(2);
        trace.begin_step();
        trace.activation(0);
        trace.read(0, 1, 0);
        // Node 1 neither activates nor reads at t = 1.
        trace.begin_step();
        trace.activation(1);
        let schedule = trace.into_schedule();
        assert_eq!(schedule.data_time(1, 0, 1), 0);
        assert_eq!(schedule.data_time(1, 1, 0), 0, "unread → t − 1");
        assert_eq!(schedule.data_time(2, 1, 0), 1, "unread → t − 1");
        assert!(schedule.check_s2());
    }

    #[test]
    fn certify_names_the_first_violation() {
        // S2: a read from the future.
        let mut trace = ScheduleTrace::new(2);
        trace.begin_step();
        trace.activation(0);
        trace.activation(1);
        trace.read(0, 1, 3);
        let err = trace.certify(1, 5).unwrap_err();
        assert_eq!(
            err,
            AxiomViolation::S2 {
                t: 1,
                i: 0,
                j: 1,
                beta: 3
            }
        );
        assert!(err.to_string().contains("S2 violated"));

        // S3: staler than the lag bound.
        let mut trace = ScheduleTrace::new(1);
        for _ in 0..8 {
            trace.begin_step();
            trace.activation(0);
        }
        trace.read(0, 0, 1); // at t = 8: lag 7
        let err = trace.certify(1, 4).unwrap_err();
        assert_eq!(
            err,
            AxiomViolation::S3 {
                t: 8,
                i: 0,
                j: 0,
                beta: 1,
                lag: 4
            }
        );
        assert!(err.to_string().contains("lags 7 > 4"));

        // S1: a node that goes silent.
        let mut trace = ScheduleTrace::new(2);
        for t in 0..10 {
            trace.begin_step();
            trace.activation(0);
            if t < 2 {
                trace.activation(1);
            }
        }
        let err = trace.certify(3, 5).unwrap_err();
        assert_eq!(
            err,
            AxiomViolation::S1 {
                node: 1,
                start: 2,
                window: 3
            }
        );
        assert!(err.to_string().contains("node 1 silent"));
    }

    #[test]
    fn short_traces_fall_back_to_at_least_one_activation() {
        let mut trace = ScheduleTrace::new(2);
        trace.begin_step();
        trace.activation(0);
        // Horizon 1 < window 8: node 1 never activated at all.
        let err = trace.certify(8, 4).unwrap_err();
        assert!(matches!(err, AxiomViolation::S1 { node: 1, .. }));

        let mut trace = ScheduleTrace::new(2);
        trace.begin_step();
        trace.activation(0);
        trace.activation(1);
        assert!(trace.certify(8, 4).is_ok());
    }
}
