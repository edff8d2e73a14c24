//! Time as an input.  The server core never asks the machine what time
//! it is or waits on it: it asks its [`Clock`].  Under [`SystemClock`]
//! that is the wall clock; under [`ScriptedClock`] a deadline run —
//! overruns, stale answers, the `Auto` EMA, a delayed flush — is a pure
//! function of (trace, options, script).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The server's only source of time and its only way to wait.
pub trait Clock: Send + Sync {
    /// Time since the clock's origin (monotonic).
    fn now(&self) -> Duration;
    /// Let `d` pass.
    fn sleep(&self, d: Duration);
}

/// The machine's monotonic clock; `sleep` blocks the thread.
#[derive(Debug, Clone, Copy)]
pub struct SystemClock {
    origin: Instant,
}

impl Default for SystemClock {
    /// A clock whose origin is now.
    fn default() -> SystemClock {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A clock that only moves when it is read or slept on: every `now()`
/// advances it by one fixed tick, `sleep(d)` advances it by `d` and
/// returns at once.  The number of reads a replay makes is a function of
/// its trace and options (two per query, two per flush, one per σ round
/// under a deadline), never of the thread count, so everything a run
/// derives from time is reproducible.
#[derive(Debug)]
pub struct ScriptedClock {
    tick_ns: u64,
    now_ns: AtomicU64,
}

impl ScriptedClock {
    /// A clock at zero that advances `tick` per reading.
    pub fn new(tick: Duration) -> ScriptedClock {
        ScriptedClock {
            tick_ns: nanos(tick),
            now_ns: AtomicU64::new(0),
        }
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

// `Relaxed`: the counter publishes no other data.
impl Clock for ScriptedClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.now_ns.fetch_add(self.tick_ns, Ordering::Relaxed))
    }

    fn sleep(&self, d: Duration) {
        self.now_ns.fetch_add(nanos(d), Ordering::Relaxed);
    }
}
