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
//! "every node activates at least once in every window of `w` steps"
//! ([`Schedule::check_s1_window`]) and S3 becomes "data is never more than
//! `ℓ` steps stale" ([`Schedule::check_s3_lag`]); S2 is enforced by
//! construction and re-checked by [`Schedule::check_s2`].  Any finite
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
}

/// Times up to the horizon are stored as 32-bit lags.
fn assert_fits(horizon: usize) {
    assert!(
        u32::try_from(horizon).is_ok(),
        "a schedule's times are stored in 32 bits"
    );
}

/// A finite-horizon schedule `(α, β)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    n: usize,
    horizon: usize,
    /// `activations[t-1][i]`: does node `i` activate at time `t`?
    activations: Vec<Vec<bool>>,
    /// The data-flow function as staleness: `lags[((t−1)·n + i)·n + j] =
    /// t − β(t, i, j)`, one flat allocation for the whole horizon.  The
    /// subtraction wraps, so a cell that violates S2 (`β ≥ t`, which only
    /// [`Schedule::set_data_time`] can write) still reads back as the `β`
    /// that was stored: it holds a lag of `0` or one above `t`.
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
        assert!((1..=self.horizon).contains(&t), "time out of range");
        self.activations[t - 1][i]
    }

    /// The data-flow function `β(t, i, j)`.
    pub fn data_time(&self, t: usize, i: usize, j: usize) -> usize {
        (t as u32).wrapping_sub(self.lags(t, i)[j]) as usize
    }

    /// Node `i`'s reads at time `t` as staleness: entry `j` is
    /// `t − β(t, i, j)`.  The one accessor everything that reads `β` goes
    /// through.
    pub(crate) fn lags(&self, t: usize, i: usize) -> &[u32] {
        let start = self.row_start(t, i);
        &self.lags[start..start + self.n]
    }

    /// Where node `i`'s `n` reads at time `t` start in `lags`.
    fn row_start(&self, t: usize, i: usize) -> usize {
        assert!((1..=self.horizon).contains(&t), "time out of range");
        assert!(i < self.n, "node out of range");
        ((t - 1) * self.n + i) * self.n
    }

    /// The maximum staleness `max_t (t − β(t, i, j))` over the whole
    /// schedule (at least 1).  The δ evaluator uses this to bound how much
    /// history it must retain.
    pub fn max_lag(&self) -> usize {
        self.lags.iter().copied().max().unwrap_or(1).max(1) as usize
    }

    /// A schedule over `horizon` steps in which every read is of the
    /// previous step (`β(t, i, j) = t − 1`).
    fn with_fresh_reads(n: usize, horizon: usize, activations: Vec<Vec<bool>>) -> Self {
        assert_fits(horizon);
        Self {
            n,
            horizon,
            activations,
            lags: vec![1; horizon * n * n],
        }
    }

    /// The fully synchronous schedule: every node activates at every step
    /// and always uses the previous step's data (`β(t, i, j) = t − 1`).
    /// Running `δ` under this schedule recovers `σ` exactly.
    pub fn synchronous(n: usize, horizon: usize) -> Self {
        Self::with_fresh_reads(n, horizon, vec![vec![true; n]; horizon])
    }

    /// A round-robin schedule: exactly one node activates per step (node
    /// `t mod n`), always reading the freshest available data.
    pub fn round_robin(n: usize, horizon: usize) -> Self {
        let mut activations = vec![vec![false; n]; horizon];
        for (t0, step) in activations.iter_mut().enumerate() {
            step[t0 % n] = true;
        }
        Self::with_fresh_reads(n, horizon, activations)
    }

    /// A random schedule with message delay, duplication and reordering,
    /// deterministic in `seed`.
    ///
    /// Every node is forced to activate at least once in every
    /// `⌈1 / activation_prob⌉ · 4`-step window (so S1's finite form holds by
    /// construction), and `β` never lags more than `params.max_delay` behind
    /// (so S3's finite form holds too).
    pub fn random(n: usize, horizon: usize, params: ScheduleParams, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sched = Self::with_fresh_reads(n, horizon, vec![vec![false; n]; horizon]);
        // Steps since last activation, to enforce the S1 window.
        let mut since_active = vec![0usize; n];
        let window = ((1.0 / params.activation_prob.clamp(0.05, 1.0)).ceil() as usize) * 4;

        for t in 1..=horizon {
            for (i, since) in since_active.iter_mut().enumerate() {
                *since += 1;
                let forced = *since >= window;
                if forced || rng.gen_bool(params.activation_prob.clamp(0.0, 1.0)) {
                    sched.activations[t - 1][i] = true;
                    *since = 0;
                }
            }
            for i in 0..n {
                for j in 0..n {
                    let oldest = t.saturating_sub(params.max_delay.max(1));
                    let newest = t - 1;
                    // The previous step's read, used for duplication.
                    let prev_beta = if t > 1 {
                        sched.data_time(t - 1, i, j)
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
                    let beta = beta.max(oldest);
                    sched.set_data_time(t, i, j, beta);
                }
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
            if t % period != 0 {
                sched.activations[t - 1][victim] = false;
            }
            for j in 0..n {
                sched.set_data_time(t, victim, j, t.saturating_sub(max_lag));
            }
        }
        sched
    }

    /// S1 (finite form): every node activates at least once in every window
    /// of `window` consecutive steps.
    pub fn check_s1_window(&self, window: usize) -> bool {
        if self.horizon < window {
            return self
                .activations
                .iter()
                .fold(vec![false; self.n], |mut acc, row| {
                    for (a, b) in acc.iter_mut().zip(row) {
                        *a |= *b;
                    }
                    acc
                })
                .into_iter()
                .all(|x| x);
        }
        for start in 0..=(self.horizon - window) {
            for i in 0..self.n {
                let active = (start..start + window).any(|t0| self.activations[t0][i]);
                if !active {
                    return false;
                }
            }
        }
        true
    }

    /// S2: information only travels forward in time (`β(t, i, j) < t`).
    pub fn check_s2(&self) -> bool {
        for t in 1..=self.horizon {
            for i in 0..self.n {
                for j in 0..self.n {
                    if self.data_time(t, i, j) >= t {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// S3 (finite form): data is never more than `max_lag` steps stale.
    pub fn check_s3_lag(&self, max_lag: usize) -> bool {
        self.max_lag() <= max_lag
    }

    /// Overwrite `β(t, i, j)` (used by tests to build deliberately broken
    /// schedules).
    pub fn set_data_time(&mut self, t: usize, i: usize, j: usize, beta: usize) {
        assert!(j < self.n, "node out of range");
        let beta = u32::try_from(beta).expect("a schedule's times are stored in 32 bits");
        let cell = self.row_start(t, i) + j;
        self.lags[cell] = (t as u32).wrapping_sub(beta);
    }

    /// Overwrite an activation entry (used by tests).
    pub fn set_activation(&mut self, t: usize, i: usize, active: bool) {
        assert!((1..=self.horizon).contains(&t), "time out of range");
        self.activations[t - 1][i] = active;
    }

    /// Extend the schedule by `extra` synchronous steps (every node active,
    /// reading the previous step).  Used by convergence drivers that need a
    /// little more time.
    pub fn extend_synchronously(&mut self, extra: usize) {
        let horizon = self.horizon + extra;
        assert_fits(horizon);
        self.activations.resize(horizon, vec![true; self.n]);
        self.lags.resize(horizon * self.n * self.n, 1);
        self.horizon = horizon;
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
        assert!(s.check_s1_window(1));
        assert!(s.check_s2());
        assert!(s.check_s3_lag(1));
    }

    #[test]
    fn round_robin_activates_one_node_per_step() {
        let s = Schedule::round_robin(4, 12);
        for t in 1..=12 {
            let active: Vec<usize> = (0..4).filter(|&i| s.activates(t, i)).collect();
            assert_eq!(active, vec![(t - 1) % 4]);
        }
        assert!(s.check_s1_window(4));
        assert!(!s.check_s1_window(3));
        assert!(s.check_s2());
    }

    #[test]
    fn random_schedules_satisfy_the_finite_axioms() {
        for seed in 0..5 {
            let params = ScheduleParams::default();
            let s = Schedule::random(5, 200, params, seed);
            assert!(s.check_s2(), "seed {seed}");
            assert!(s.check_s3_lag(params.max_delay.max(1)), "seed {seed}");
            let window = ((1.0 / params.activation_prob).ceil() as usize) * 4;
            assert!(s.check_s1_window(window), "seed {seed}");
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
        assert!(s.check_s2());
        assert!(s.max_lag() <= 8 + 1);
        // other nodes are fully synchronous
        assert_eq!((1..=40).filter(|&t| s.activates(t, 0)).count(), 40);
    }

    #[test]
    fn broken_schedules_are_detected() {
        let mut s = Schedule::synchronous(3, 10);
        // S2 violation: data from the future
        s.set_data_time(4, 1, 2, 7);
        assert!(!s.check_s2());

        let mut s = Schedule::synchronous(3, 10);
        // node 1 never activates after step 2
        for t in 3..=10 {
            s.set_activation(t, 1, false);
        }
        assert!(!s.check_s1_window(4));

        let mut s = Schedule::synchronous(3, 10);
        // very stale data at step 9
        s.set_data_time(9, 0, 2, 0);
        assert!(!s.check_s3_lag(4));
    }

    #[test]
    fn lag_storage_reads_back_every_data_time() {
        // Legal cells, the stalest legal cell, and both kinds of S2
        // violation (β = t and β > t) survive the `t − β` encoding.
        let mut s = Schedule::synchronous(3, 10);
        for (t, beta) in [(7, 6), (7, 0), (7, 7), (4, 9), (1, 1)] {
            s.set_data_time(t, 1, 2, beta);
            assert_eq!(s.data_time(t, 1, 2), beta, "β({t}, 1, 2)");
            assert_eq!(s.check_s2(), beta < t);
            s.set_data_time(t, 1, 2, t - 1);
        }
        assert_eq!(s, Schedule::synchronous(3, 10));
        assert_eq!(Schedule::synchronous(3, 0).max_lag(), 1);
    }

    #[test]
    fn extension_preserves_axioms() {
        let mut s = Schedule::random(3, 30, ScheduleParams::default(), 1);
        let before = s.horizon();
        s.extend_synchronously(10);
        assert_eq!(s.horizon(), before + 10);
        assert!(s.check_s2());
        for t in before + 1..=before + 10 {
            for i in 0..3 {
                assert!(s.activates(t, i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "time out of range")]
    fn out_of_range_time_panics() {
        let s = Schedule::synchronous(2, 3);
        let _ = s.activates(4, 0);
    }
}
