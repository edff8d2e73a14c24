//! The server's vocabulary: the options a `RouteServer` is built with and
//! the outcomes it hands back.

use crate::bound::algebra_height;
use crate::spec::{AlgebraSpec, SpecError, WeightRule};
use std::collections::BTreeMap;
use std::fmt;

/// A structured, classified failure from a [`RouteServer`](super::RouteServer)
/// operation.
///
/// `kind` is a short stable slug (`out_of_range`, `budget`, `kernel`)
/// that mid-replay error reports and exit paths switch on; `message` is
/// the human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeProblem {
    /// Stable machine-readable classification.
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ServeProblem {
    pub(super) fn out_of_range(message: String) -> ServeProblem {
        ServeProblem {
            kind: "out_of_range",
            message,
        }
    }

    /// A σ round panicked: the panic's own message, when it has one.
    pub(super) fn kernel(payload: &(dyn std::any::Any + Send)) -> ServeProblem {
        let msg = crate::run::panic_message(payload).unwrap_or("σ sweep panicked");
        ServeProblem {
            kind: "kernel",
            message: format!("σ kernel failed: {msg}"),
        }
    }

    pub(super) fn budget(batch: u64) -> ServeProblem {
        ServeProblem {
            kind: "budget",
            message: format!(
                "batch {batch} exhausted its iteration budget (non-increasing algebra?)"
            ),
        }
    }
}

impl fmt::Display for ServeProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl From<ServeProblem> for SpecError {
    fn from(p: ServeProblem) -> SpecError {
        SpecError::new(p.message)
    }
}

/// A query answer: the rendered route plus whether it was served from a
/// stale (pre-deadline-overrun) table while reconvergence continues in
/// the background.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeAnswer {
    /// The rendered route value.
    pub text: String,
    /// `true` when answered from the last stable table during degraded
    /// operation.
    pub stale: bool,
}

/// Per-flush reconvergence deadline policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlineCfg {
    /// No deadline: every flush converges synchronously (the default for
    /// library use; digests never see staleness).
    #[default]
    Off,
    /// Derive the deadline from the convergence-bound oracle: predicted
    /// worst-case rounds × the measured per-round cost (EMA) × a 4×
    /// safety margin, floored at 1ms.
    Auto,
    /// A fixed per-flush deadline in milliseconds.
    Millis(u64),
}

/// The convergence-bound rule the server audits flushes against: the
/// synchronous bound `n·h`, with `h` from [`algebra_height`] for the
/// serve algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundRule {
    /// No bound auditing.
    #[default]
    None,
    /// Bounded hop count: height = limit + 2.
    Hopcount {
        /// The hop limit.
        limit: u64,
    },
    /// Shortest paths: height = (n−1)·w_max + 2, with w_max the largest
    /// weight currently in force (base weight 1 or a `set_weight`
    /// override).
    Shortest,
}

impl BoundRule {
    /// Predicted worst-case σ rounds for an `n`-node flush, if a rule is
    /// in force.
    pub(super) fn rounds(&self, n: usize, overrides: &WeightOverrides) -> Option<u64> {
        let alg = match *self {
            BoundRule::None => return None,
            BoundRule::Hopcount { limit } => AlgebraSpec::Hopcount { limit },
            BoundRule::Shortest => {
                let w_max = overrides.values().copied().max().unwrap_or(1).max(1);
                AlgebraSpec::Shortest {
                    weights: WeightRule::uniform(w_max),
                }
            }
        };
        let n = n as u64;
        algebra_height(&alg, n).map(|h| n.saturating_mul(h.height))
    }
}

/// Per-edge weight overrides installed by `set_weight` events, keyed by
/// directed edge.  Threaded into the rebuild closure so weight policy
/// survives arbitrary topology churn and checkpoint/restore.
pub type WeightOverrides = BTreeMap<(usize, usize), u64>;

/// Lifetime counters of a [`RouteServer`](super::RouteServer).
///
/// Everything up to `bound_ok` is deterministic (identical across thread
/// counts and crash/recover splits) and lands in the deterministic
/// section of `BENCH_serve.json`; the wall-clock-dependent counters
/// (`stale_answers`, `deadline_overruns`) and the latency samples land in
/// its `timing` section.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Change events ingested.
    pub changes: u64,
    /// Queries answered.
    pub queries: u64,
    /// Batches flushed (reconvergences run).
    pub batches: u64,
    /// Rows one-at-a-time processing would have dirtied (structural
    /// estimate: the endpoint rows of every event, summed).
    pub naive_dirty_rows: u64,
    /// Rows the coalesced pre-vs-post adjacency diff actually dirtied.
    pub batch_dirty_rows: u64,
    /// Incremental σ rounds across all flushes.
    pub rounds: u64,
    /// Row recomputations across all flushes.
    pub row_recomputations: u64,
    /// The most σ rounds any single flush took.
    pub worst_flush_rounds: u64,
    /// The predicted round bound at that worst flush (0: no rule).
    pub worst_flush_bound: u64,
    /// Flushes whose measured rounds respected the predicted bound.
    pub bound_ok: u64,
    /// Queries answered from a stale table during degraded operation
    /// (wall-clock dependent).
    pub stale_answers: u64,
    /// Flushes that overran their deadline and went degraded
    /// (wall-clock dependent).
    pub deadline_overruns: u64,
    /// Always 0: a failed σ round is not retried (it would fail again).
    /// Kept only while the repo benchmark still reads it.
    pub flush_retries: u64,
    /// Per-flush convergence latency samples, microseconds
    /// (non-deterministic; excluded from replay digests).
    pub convergence_us: Vec<u64>,
    /// Per-query latency samples (flush + lookup), microseconds.
    pub query_us: Vec<u64>,
}

impl ServeStats {
    /// `batch_dirty_rows / naive_dirty_rows` — how much work coalescing
    /// saved (1.0 = nothing, 0.0 = every change was undone in-batch).
    pub fn coalesce_ratio(&self) -> f64 {
        if self.naive_dirty_rows == 0 {
            1.0
        } else {
            self.batch_dirty_rows as f64 / self.naive_dirty_rows as f64
        }
    }
}
