//! Schedules `(α, β)` — the paper's model of asynchronous execution
//! (Definition 5).
//!
//! A schedule over `n` nodes and a finite horizon `T` consists of
//!
//! * the **activation function** `α(t) ⊆ {0, …, n−1}` for `t ∈ {1, …, T}`:
//!   the set of nodes that recompute their routing tables at time `t`; and
//! * the **data-flow function** `β(t, i, j) < t`: the time at which the data
//!   node `i` uses from node `j` at time `t` was generated.
//!
//! The paper's axioms are liveness properties over an infinite time domain:
//!
//! * **S1** — every node activates infinitely often;
//! * **S2** — information only travels forward in time (`β(t, i, j) < t`);
//! * **S3** — stale information is eventually replaced.
//!
//! On a finite horizon we use the standard finite strengthenings: S1 becomes
//! "every node activates at least once in every window of `w` steps" and S3
//! becomes "data is never more than `ℓ` steps stale"; S2 is enforced by
//! construction.  [`Schedule::certify`] decides all three for a given
//! `(w, ℓ)` — the pair the convergence bound `n·h·(w + ℓ + 1)` of arXiv
//! 2507.07263 is computed from, which holds only for an execution that
//! really was `(w, ℓ)`-bounded — and names the first violation.  Any finite
//! execution satisfying these extends to an infinite schedule satisfying
//! S1–S3 (repeat it synchronously after the horizon), so the theorems apply.
//!
//! Nothing in the model requires the data-flow function to be monotone:
//! `β` may jump backwards (reordering), repeat old values (duplication) or
//! skip values entirely (loss).  The random generator exercises all three.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for randomly generated schedules.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleParams {
    /// Probability that a given node activates at a given time step.
    pub activation_prob: f64,
    /// Maximum staleness of the data used by an activation (in steps).
    pub max_delay: usize,
    /// Probability that a data read re-uses the *previous* read's timestamp
    /// (message duplication / no fresh message arrived).
    pub duplicate_prob: f64,
    /// Probability that a data read skips forward non-monotonically
    /// (reordering: a newer value is observed before an older one that then
    /// reappears later).
    pub reorder_prob: f64,
}

impl Default for ScheduleParams {
    fn default() -> Self {
        Self {
            activation_prob: 0.6,
            max_delay: 4,
            duplicate_prob: 0.15,
            reorder_prob: 0.15,
        }
    }
}

impl ScheduleParams {
    /// A harsher environment: rare activations, long delays, frequent
    /// duplication and reordering.
    pub fn harsh() -> Self {
        Self {
            activation_prob: 0.3,
            max_delay: 10,
            duplicate_prob: 0.3,
            reorder_prob: 0.3,
        }
    }

    /// The S1 window of the schedules [`Schedule::random`] generates from
    /// these parameters: a node idle for `⌈1 / activation_prob⌉ · 4` steps
    /// is forced to activate, so every window of that many steps holds an
    /// activation of every node.
    pub fn s1_window(&self) -> usize {
        ((1.0 / self.activation_prob.clamp(0.05, 1.0)).ceil() as usize) * 4
    }
}

/// The first axiom violation [`Schedule::certify`] found, with enough
/// context to reproduce it.  `t` is 1-based, matching [`Schedule`].
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

/// A finite-horizon schedule `(α, β)`: two flat vectors, one allocation
/// each for the whole horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    n: usize,
    horizon: usize,
    /// The activation function: `active[(t−1)·n + i]` — does node `i`
    /// activate at time `t`?
    active: Vec<bool>,
    /// The data-flow function as staleness: `lags[((t−1)·n + i)·n + j] =
    /// t − β(t, i, j)`.  The subtraction wraps, so a cell that violates S2
    /// (`β ≥ t`, which only [`Schedule::set_data_time`] can write) still
    /// reads back as the `β` that was stored: it holds a lag of `0` or one
    /// above `t`.
    lags: Vec<u32>,
}

impl Schedule {
    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The horizon `T` (times run from `1` to `T`).
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Does node `i` activate at time `t` (`1 ≤ t ≤ T`)?
    pub fn activates(&self, t: usize, i: usize) -> bool {
        self.active[self.cell(t, i)]
    }

    /// The data-flow function `β(t, i, j)`.
    pub fn data_time(&self, t: usize, i: usize, j: usize) -> usize {
        (t as u32).wrapping_sub(self.lags(t, i)[j]) as usize
    }

    /// Node `i`'s reads at time `t` as staleness: entry `j` is
    /// `t − β(t, i, j)`.  The one accessor everything that reads `β` goes
    /// through.
    pub(crate) fn lags(&self, t: usize, i: usize) -> &[u32] {
        let start = self.cell(t, i) * self.n;
        &self.lags[start..start + self.n]
    }

    /// Where `(t, i)` sits in `active`; node `i`'s `n` reads at time `t`
    /// start at `n` times that in `lags`.
    fn cell(&self, t: usize, i: usize) -> usize {
        assert!((1..=self.horizon).contains(&t), "time out of range");
        assert!(i < self.n, "node out of range");
        (t - 1) * self.n + i
    }

    /// The maximum staleness `max_t (t − β(t, i, j))` over the whole
    /// schedule (at least 1).  The δ evaluator uses this to bound how much
    /// history it must retain.
    pub fn max_lag(&self) -> usize {
        self.lags.iter().copied().max().unwrap_or(1).max(1) as usize
    }

    /// A schedule over `horizon` steps in which every node is `active` (or
    /// none is) at every step and every read is of the previous step
    /// (`β(t, i, j) = t − 1`).
    fn with_fresh_reads(n: usize, horizon: usize, active: bool) -> Self {
        assert!(
            u32::try_from(horizon).is_ok(),
            "a schedule's times are stored in 32 bits"
        );
        Self {
            n,
            horizon,
            active: vec![active; horizon * n],
            lags: vec![1; horizon * n * n],
        }
    }

    /// The fully synchronous schedule: every node activates at every step
    /// and always uses the previous step's data (`β(t, i, j) = t − 1`).
    /// Running `δ` under this schedule recovers `σ` exactly.
    pub fn synchronous(n: usize, horizon: usize) -> Self {
        Self::with_fresh_reads(n, horizon, true)
    }

    /// A round-robin schedule: exactly one node activates per step (node
    /// `t mod n`), always reading the freshest available data.
    pub fn round_robin(n: usize, horizon: usize) -> Self {
        let mut sched = Self::with_fresh_reads(n, horizon, false);
        for t0 in 0..horizon {
            sched.active[t0 * n + t0 % n] = true;
        }
        sched
    }

    /// A random schedule with message delay, duplication and reordering,
    /// deterministic in `seed`.
    ///
    /// Every node is forced to activate at least once in every
    /// [`params.s1_window()`](ScheduleParams::s1_window)-step window (so
    /// S1's finite form holds by construction), and `β` never lags more
    /// than `params.max_delay` behind (so S3's finite form holds too).
    ///
    /// The draws — per step, each node's activation (none when the window
    /// forces it), then per `(i, j)` cell duplicate, reorder unless
    /// duplicated, and the data time unless duplicated — are what every
    /// pinned δ counter hangs on.
    pub fn random(n: usize, horizon: usize, params: ScheduleParams, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sched = Self::with_fresh_reads(n, horizon, false);
        // Steps since last activation, to enforce the S1 window.
        let mut since_active = vec![0usize; n];
        let window = params.s1_window();
        let cells = n * n;

        for t in 1..=horizon {
            let step = &mut sched.active[(t - 1) * n..t * n];
            for (active, since) in step.iter_mut().zip(&mut since_active) {
                *since += 1;
                let forced = *since >= window;
                if forced || rng.gen_bool(params.activation_prob.clamp(0.0, 1.0)) {
                    *active = true;
                    *since = 0;
                }
            }
            let oldest = t.saturating_sub(params.max_delay.max(1));
            let newest = t - 1;
            for cell in (t - 1) * cells..t * cells {
                // The previous step's read, used for duplication.
                let prev_beta = if t > 1 {
                    t - 1 - sched.lags[cell - cells] as usize
                } else {
                    0
                };
                let beta = if rng.gen_bool(params.duplicate_prob.clamp(0.0, 1.0)) {
                    // duplication: observe exactly the same data again
                    prev_beta.min(newest)
                } else if rng.gen_bool(params.reorder_prob.clamp(0.0, 1.0)) {
                    // reordering: jump to an arbitrary (possibly older
                    // than previously seen) time in the window
                    rng.gen_range(oldest..=newest)
                } else {
                    // "normal" progress: somewhere between the last
                    // observation and now
                    let lo = prev_beta.clamp(oldest, newest);
                    rng.gen_range(lo..=newest)
                };
                // S3's finite form: never read data older than the lag
                // bound (stale information is eventually replaced).
                sched.lags[cell] = (t - beta.max(oldest)) as u32;
            }
        }
        sched
    }

    /// An adversarial schedule in which one node (`victim`) activates only
    /// every `period` steps and always reads the stalest data the lag bound
    /// allows, while everyone else runs synchronously.
    pub fn adversarial_stale(
        n: usize,
        horizon: usize,
        victim: usize,
        period: usize,
        max_lag: usize,
    ) -> Self {
        let mut sched = Self::synchronous(n, horizon);
        for t in 1..=horizon {
            let cell = sched.cell(t, victim);
            if t % period != 0 {
                sched.active[cell] = false;
            }
            // β = max(t − max_lag, 0)
            sched.lags[cell * n..(cell + 1) * n].fill(t.min(max_lag) as u32);
        }
        sched
    }

    /// Decide the finite axioms against an activation window `w` and a
    /// staleness bound `ℓ` — the same `(w, ℓ)` the convergence bound
    /// `n·h·(w + ℓ + 1)` is computed from.  Returns the first violation
    /// in S2, S3, S1 order (pointwise checks before the windowed one).
    pub fn certify(&self, window: usize, lag: usize) -> Result<(), AxiomViolation> {
        for t in 1..=self.horizon {
            for i in 0..self.n {
                for j in 0..self.n {
                    let beta = self.data_time(t, i, j);
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
        // A horizon too short to contain a full window is its own window:
        // S1 collapses to at least one activation each.
        let span = window.min(self.horizon);
        for start in 0..=(self.horizon - span) {
            for node in 0..self.n {
                if !(start..start + span).any(|t0| self.active[t0 * self.n + node]) {
                    return Err(AxiomViolation::S1 {
                        node,
                        start,
                        window,
                    });
                }
            }
        }
        Ok(())
    }

    /// Overwrite `β(t, i, j)` (used by tests to build deliberately broken
    /// schedules).
    pub fn set_data_time(&mut self, t: usize, i: usize, j: usize, beta: usize) {
        assert!(j < self.n, "node out of range");
        let beta = u32::try_from(beta).expect("a schedule's times are stored in 32 bits");
        let cell = self.cell(t, i) * self.n + j;
        self.lags[cell] = (t as u32).wrapping_sub(beta);
    }

    /// Overwrite an activation entry (used by tests).
    pub fn set_activation(&mut self, t: usize, i: usize, active: bool) {
        let cell = self.cell(t, i);
        self.active[cell] = active;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_schedule_shape() {
        let s = Schedule::synchronous(3, 5);
        assert_eq!(s.node_count(), 3);
        assert_eq!(s.horizon(), 5);
        for t in 1..=5 {
            for i in 0..3 {
                assert!(s.activates(t, i));
                for j in 0..3 {
                    assert_eq!(s.data_time(t, i, j), t - 1);
                }
            }
        }
        assert_eq!(s.max_lag(), 1);
        assert_eq!(s.certify(1, 1), Ok(()));
    }

    #[test]
    fn round_robin_activates_one_node_per_step() {
        let s = Schedule::round_robin(4, 12);
        for t in 1..=12 {
            let active: Vec<usize> = (0..4).filter(|&i| s.activates(t, i)).collect();
            assert_eq!(active, vec![(t - 1) % 4]);
        }
        assert_eq!(s.certify(4, 1), Ok(()));
        assert!(matches!(s.certify(3, 1), Err(AxiomViolation::S1 { .. })));
    }

    #[test]
    fn random_schedules_satisfy_the_finite_axioms() {
        for seed in 0..5 {
            let params = ScheduleParams::default();
            let s = Schedule::random(5, 200, params, seed);
            let certified = s.certify(params.s1_window(), params.max_delay);
            assert_eq!(certified, Ok(()), "seed {seed}");
        }
    }

    #[test]
    fn random_schedules_are_deterministic_in_the_seed() {
        let a = Schedule::random(4, 50, ScheduleParams::default(), 9);
        let b = Schedule::random(4, 50, ScheduleParams::default(), 9);
        let c = Schedule::random(4, 50, ScheduleParams::default(), 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn harsh_schedules_really_reorder_and_duplicate() {
        let s = Schedule::random(4, 300, ScheduleParams::harsh(), 3);
        // duplication: some β value repeats for the same (i, j)
        let mut duplicated = false;
        // reordering: β goes backwards for some (i, j)
        let mut reordered = false;
        for i in 0..4 {
            for j in 0..4 {
                let mut prev = 0;
                let mut seen_gap = false;
                for t in 1..=300 {
                    let b = s.data_time(t, i, j);
                    if t > 1 && b == prev && s.data_time(t - 1, i, j) == prev {
                        duplicated = true;
                    }
                    if b < prev {
                        reordered = true;
                    }
                    if b > prev + 1 {
                        seen_gap = true;
                    }
                    prev = b;
                }
                let _ = seen_gap;
            }
        }
        assert!(duplicated, "harsh schedules should duplicate data");
        assert!(reordered, "harsh schedules should reorder data");
    }

    #[test]
    fn adversarial_schedule_has_a_lazy_victim() {
        let s = Schedule::adversarial_stale(4, 40, 2, 5, 8);
        let victim_activations = (1..=40).filter(|&t| s.activates(t, 2)).count();
        assert_eq!(victim_activations, 8);
        assert_eq!(s.certify(5, 8), Ok(()));
        // other nodes are fully synchronous
        assert_eq!((1..=40).filter(|&t| s.activates(t, 0)).count(), 40);
    }

    #[test]
    fn certify_names_the_first_violation() {
        // S2: a read from the future.
        let mut s = Schedule::synchronous(2, 1);
        s.set_data_time(1, 0, 1, 3);
        let err = s.certify(1, 5).unwrap_err();
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
        let mut s = Schedule::synchronous(1, 8);
        s.set_data_time(8, 0, 0, 1); // lag 7
        let err = s.certify(1, 4).unwrap_err();
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
        let mut s = Schedule::synchronous(2, 10);
        for t in 3..=10 {
            s.set_activation(t, 1, false);
        }
        let err = s.certify(3, 5).unwrap_err();
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
        // Horizon 1 < window 8: node 1 never activated at all.
        let mut s = Schedule::synchronous(2, 1);
        s.set_activation(1, 1, false);
        let err = s.certify(8, 4).unwrap_err();
        assert_eq!(
            err,
            AxiomViolation::S1 {
                node: 1,
                start: 0,
                window: 8
            }
        );
        assert_eq!(Schedule::synchronous(2, 1).certify(8, 4), Ok(()));
    }

    #[test]
    fn broken_schedules_are_detected() {
        let mut s = Schedule::synchronous(3, 10);
        // S2 violation: data from the future
        s.set_data_time(4, 1, 2, 7);
        assert!(matches!(s.certify(1, 10), Err(AxiomViolation::S2 { .. })));

        let mut s = Schedule::synchronous(3, 10);
        // node 1 never activates after step 2
        for t in 3..=10 {
            s.set_activation(t, 1, false);
        }
        assert!(matches!(s.certify(4, 10), Err(AxiomViolation::S1 { .. })));

        let mut s = Schedule::synchronous(3, 10);
        // very stale data at step 9
        s.set_data_time(9, 0, 2, 0);
        assert!(matches!(s.certify(1, 4), Err(AxiomViolation::S3 { .. })));
    }

    #[test]
    fn lag_storage_reads_back_every_data_time() {
        // Legal cells, the stalest legal cell, and both kinds of S2
        // violation (β = t and β > t) survive the `t − β` encoding.
        let mut s = Schedule::synchronous(3, 10);
        for (t, beta) in [(7, 6), (7, 0), (7, 7), (4, 9), (1, 1)] {
            s.set_data_time(t, 1, 2, beta);
            assert_eq!(s.data_time(t, 1, 2), beta, "β({t}, 1, 2)");
            let s2 = matches!(s.certify(1, 10), Err(AxiomViolation::S2 { .. }));
            assert_eq!(s2, beta >= t);
            s.set_data_time(t, 1, 2, t - 1);
        }
        assert_eq!(s, Schedule::synchronous(3, 10));
        assert_eq!(Schedule::synchronous(3, 0).max_lag(), 1);
    }

    #[test]
    #[should_panic(expected = "time out of range")]
    fn out_of_range_time_panics() {
        let s = Schedule::synchronous(2, 3);
        let _ = s.activates(4, 0);
    }
}
