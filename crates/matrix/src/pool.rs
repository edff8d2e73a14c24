//! A persistent worker pool for the parallel σ kernels: parked workers,
//! epoch-stamped band work lists.
//!
//! The first parallel σ implementation spawned a fresh set of scoped
//! threads *every round* (a `thread::scope` inside the round), which costs
//! two thread creations plus two joins per worker per round — measurable
//! once rounds are short, and fatal to the route-server goal of
//! sustaining 10⁵+ events against a warm routing table.  This module
//! replaces that with a pool that is created once and reused: workers park
//! on a condvar, the coordinator hands each σ round (or sweep batch, or
//! fuzz shard) to them as an **epoch** of jobs, and the scope call returns
//! when the epoch has drained.
//!
//! Determinism is unaffected by construction: the pool only decides *which
//! OS thread* runs a band, never *what* the band computes — band
//! partitioning stays a pure function of `(n, threads, degree profile)` in
//! [`crate::parallel`], and each job writes to a disjoint borrow.  The
//! existing determinism suites (parallel σ, sweep, fuzz) therefore prove
//! the pool bit-identical to the per-round-spawn implementation.
//!
//! ## Epochs
//!
//! Every [`WorkerPool::scoped`] call opens a new epoch.  Jobs are stamped
//! with their epoch before they enter the shared queue, and completion is
//! tracked per epoch, so concurrent scopes (two tests, or a sweep executor
//! fanning out whole runs while one run shards its own rows) never observe
//! each other's work.  While a scope waits for its epoch to drain, the
//! coordinating thread *steals back* queued jobs of its own epoch and runs
//! them inline — so a pool with fewer workers than requested bands (or
//! even zero workers) still completes every epoch, just with less overlap.
//!
//! ## Fan-out
//!
//! [`WorkerPool::map`] is the one order-preserving parallel map in the
//! workspace (sweep replicates and fuzz cases run through it): one epoch
//! per call, in which `jobs − 1` pool jobs and the caller each loop
//! claiming the next item index with one atomic add and writing the result
//! into that index's slot.  Output order is input order for any `jobs`,
//! which is what keeps `--jobs 1` and `--jobs 8` reports byte-identical.
//! A task may itself open epochs on the same pool (a sweep run sharding
//! its σ rows): the nested coordinator steals its own jobs back, so the
//! nesting cannot deadlock however busy the workers are.
//!
//! ## Panics
//!
//! A panicking job does **not** take down the pool or the process: the
//! worker catches the payload, records it against the job's epoch, keeps
//! serving later epochs, and [`WorkerPool::scoped`] returns the payload as
//! `Err`, as a joined thread would.  The engine
//! layer above turns that into a reported engine error with a reproduction
//! command instead of an abort, and the route server into a structured
//! `kernel` problem.  Every job runs under that catch, so a worker leaves
//! its loop only when the pool shuts down: there is no worker to replace
//! and no job to hand back, and the pool never retries.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// One queued unit of work: the job itself plus the epoch it belongs to
/// and the completion state it reports into.
struct Task {
    epoch: u64,
    job: Job,
    scope: Arc<EpochState>,
}

#[derive(Default)]
struct EpochSync {
    pending: usize,
    panic: Option<PanicPayload>,
}

/// Per-epoch completion tracking: outstanding job count, the first panic
/// payload (if any), and the condvar the coordinator parks on.
struct EpochState {
    sync: Mutex<EpochSync>,
    done: Condvar,
}

struct PoolState {
    queue: VecDeque<Task>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    worker_jobs: Vec<AtomicU64>,
    inline_jobs: AtomicU64,
}

/// A snapshot of the pool's lifetime counters, used by the route server's
/// pool-utilization telemetry and by the reuse tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of persistent worker threads (excluding coordinators).
    pub workers: usize,
    /// Number of epochs ([`WorkerPool::scoped`] calls) opened so far.
    pub epochs: u64,
    /// Total jobs submitted across all epochs.
    pub jobs: u64,
    /// Jobs executed by each worker thread, by worker index.
    pub worker_jobs: Vec<u64>,
    /// Jobs stolen back and executed inline by waiting coordinators.
    pub inline_jobs: u64,
}

impl PoolStats {
    /// Fraction of jobs executed by parked workers rather than inline by
    /// the coordinator — `1.0` means every band ran on a pool thread.
    pub fn worker_share(&self) -> f64 {
        if self.jobs == 0 {
            return 1.0;
        }
        let on_workers: u64 = self.worker_jobs.iter().sum();
        on_workers as f64 / self.jobs as f64
    }
}

/// The default fan-out width: one job per available hardware thread.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A persistent pool of parked worker threads executing epoch-stamped job
/// lists; see the module docs for the design.
pub struct WorkerPool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
    epochs: AtomicU64,
    jobs: AtomicU64,
}

fn worker_loop(index: usize, inner: Arc<Inner>) {
    loop {
        let task = {
            let mut st = inner.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(task) = st.queue.pop_front() {
                    break task;
                }
                if st.shutdown {
                    return;
                }
                st = inner.work_ready.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        inner.worker_jobs[index].fetch_add(1, Ordering::Relaxed);
        run_task(task);
    }
}

/// Run one job, catching its panic and folding the outcome into its
/// epoch's completion state.  Used identically by workers and by
/// coordinators stealing their own epoch's jobs back.
fn run_task(task: Task) {
    let outcome = catch_unwind(AssertUnwindSafe(task.job));
    let mut sync = task.scope.sync.lock().unwrap_or_else(|p| p.into_inner());
    if let Err(payload) = outcome {
        sync.panic.get_or_insert(payload);
    }
    sync.pending -= 1;
    if sync.pending == 0 {
        task.scope.done.notify_all();
    }
}

impl WorkerPool {
    /// Create a pool with `workers` persistent threads.  `workers = 0` is
    /// legal: every job is then executed inline by the waiting
    /// coordinator, which keeps single-threaded environments working.
    pub fn new(workers: usize) -> WorkerPool {
        let inner = Arc::new(Inner {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            worker_jobs: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            inline_jobs: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|index| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dbf-pool-{index}"))
                    .spawn(move || worker_loop(index, inner))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        WorkerPool {
            inner,
            handles,
            epochs: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
        }
    }

    /// The process-wide shared pool, created on first use with one worker
    /// per available hardware thread beyond the coordinator (and at least
    /// one, so the cross-thread paths are exercised even on a single
    /// core).  The kernel's [`Pooled`](crate::parallel::Pooled) executor
    /// and the scenario sweep/fuzz executors share this instance;
    /// requesting more bands than there are workers is fine — the surplus
    /// jobs queue and the coordinator helps drain them.
    pub fn shared() -> &'static WorkerPool {
        static SHARED: OnceLock<WorkerPool> = OnceLock::new();
        SHARED.get_or_init(|| WorkerPool::new(default_jobs().saturating_sub(1).max(1)))
    }

    /// Open an epoch: run `f` with a scope whose jobs may borrow from the
    /// enclosing stack, and return once every job submitted in the scope
    /// has completed.
    ///
    /// A panic in `f` itself resumes on the caller (after the epoch
    /// drains), while the first *job* panic is returned as `Err(payload)`
    /// — the pool and its workers survive either way.
    pub fn scoped<'pool, 'scope, F, R>(&'pool self, f: F) -> std::thread::Result<R>
    where
        'pool: 'scope,
        F: FnOnce(&PoolScope<'pool, 'scope>) -> R,
    {
        let epoch = self.epochs.fetch_add(1, Ordering::Relaxed) + 1;
        let scope = PoolScope {
            pool: self,
            epoch,
            state: Arc::new(EpochState {
                sync: Mutex::new(EpochSync::default()),
                done: Condvar::new(),
            }),
            _not_sync: PhantomData,
            _scope: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // The epoch must drain before this frame returns — the jobs
        // borrow from it.  This holds on the panic path too.
        scope.wait_all();
        let job_panic = {
            let mut sync = scope.state.sync.lock().unwrap_or_else(|p| p.into_inner());
            sync.panic.take()
        };
        match result {
            // The scope closure's own panic takes precedence over job
            // panics.
            Err(payload) => resume_unwind(payload),
            Ok(value) => match job_panic {
                None => Ok(value),
                Some(payload) => Err(payload),
            },
        }
    }

    /// Apply `f` to every item on up to `jobs` threads (the caller
    /// included) and return the results in input order, so callers observe
    /// the same output for any `jobs`.
    ///
    /// `jobs` is clamped to `1..=items.len()`.  With one job, or fewer
    /// than two items, the items are processed inline on the calling
    /// thread and no epoch is opened.  A panicking task ends the loop that
    /// ran it; the remaining loops still drain every other item, and the
    /// first panic is then re-raised on the caller with its own payload.
    pub fn map<T, R, F>(&self, jobs: usize, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let jobs = jobs.clamp(1, n.max(1));
        if jobs == 1 {
            return items.into_iter().map(f).collect();
        }
        let inputs: Vec<Mutex<Option<T>>> =
            items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // Relaxed: the counter only hands out distinct indices; the items
        // themselves are published by their slot mutexes.
        let next = AtomicUsize::new(0);
        let drain = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let item = inputs[i].lock().unwrap_or_else(|p| p.into_inner()).take();
            let result = f(item.expect("an index is claimed once"));
            *outputs[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(result);
        };
        let outcome = self.scoped(|scope| {
            for _ in 1..jobs {
                scope.execute(drain);
            }
            drain();
        });
        if let Err(payload) = outcome {
            resume_unwind(payload);
        }
        outputs
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("every slot is filled once the epoch drains")
            })
            .collect()
    }

    /// Lifetime counters (workers, epochs, job placement); cheap to call.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.inner.worker_jobs.len(),
            epochs: self.epochs.load(Ordering::Relaxed),
            jobs: self.jobs.load(Ordering::Relaxed),
            worker_jobs: self
                .inner
                .worker_jobs
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            inline_jobs: self.inner.inline_jobs.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap_or_else(|p| p.into_inner());
            st.shutdown = true;
        }
        self.inner.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The job-submission surface handed to the [`WorkerPool::scoped`]
/// closure.  Deliberately `!Send`/`!Sync`: jobs cannot capture the scope
/// and submit further jobs from worker threads, so once the closure has
/// returned the epoch's queue only shrinks (see `wait_all`).
pub struct PoolScope<'pool, 'scope> {
    pool: &'pool WorkerPool,
    epoch: u64,
    state: Arc<EpochState>,
    _not_sync: PhantomData<*mut ()>,
    _scope: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> PoolScope<'_, 'scope> {
    /// Submit one job to the epoch.  The job may borrow anything that
    /// outlives `'scope`; it runs on a parked worker, or inline on the
    /// coordinator while it waits for the epoch to drain.
    #[allow(unsafe_code)]
    pub fn execute<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: the job's borrows live for 'scope, which outlives the
        // enclosing `scoped` call; `scoped` does not return (even when
        // the scope closure panics) until `wait_all` has observed
        // `pending == 0`, and `pending` is incremented below *before*
        // the job becomes visible to any worker.  The erased-lifetime box
        // therefore never outlives the data it borrows.
        let job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        {
            let mut sync = self.state.sync.lock().unwrap_or_else(|p| p.into_inner());
            sync.pending += 1;
        }
        self.pool.jobs.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = self
                .pool
                .inner
                .state
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            st.queue.push_back(Task {
                epoch: self.epoch,
                job,
                scope: Arc::clone(&self.state),
            });
        }
        self.pool.inner.work_ready.notify_one();
    }

    /// Remove one of *this* epoch's still-queued jobs, if any.
    fn steal_own(&self) -> Option<Task> {
        let mut st = self
            .pool
            .inner
            .state
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        let pos = st.queue.iter().position(|t| t.epoch == self.epoch)?;
        st.queue.remove(pos)
    }

    /// Block until the epoch has drained: run this epoch's still-queued
    /// jobs inline rather than idling, then wait for the ones workers hold.
    ///
    /// No job of this epoch can enter the queue once the search comes up
    /// empty: `execute` is only reachable from the scope closure, which has
    /// returned, and jobs cannot capture the scope.
    fn wait_all(&self) {
        while let Some(task) = self.steal_own() {
            self.pool.inner.inline_jobs.fetch_add(1, Ordering::Relaxed);
            run_task(task);
        }
        let mut sync = self.state.sync.lock().unwrap_or_else(|p| p.into_inner());
        while sync.pending > 0 {
            sync = self
                .state
                .done
                .wait(sync)
                .unwrap_or_else(|p| p.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn jobs_borrow_the_stack_and_all_complete() {
        let pool = WorkerPool::new(3);
        let data: Vec<u64> = (0..100).collect();
        let mut partials = [0u64; 4];
        pool.scoped(|scope| {
            for (k, slot) in partials.iter_mut().enumerate() {
                let chunk = &data[k * 25..(k + 1) * 25];
                scope.execute(move || *slot = chunk.iter().sum());
            }
        })
        .expect("no job panicked");
        assert_eq!(partials.iter().sum::<u64>(), (0..100).sum::<u64>());
    }

    #[test]
    fn the_pool_is_reused_across_epochs_without_respawning() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.scoped(|scope| {
                for _ in 0..4 {
                    scope.execute(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
            .expect("no job panicked");
        }
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        let stats = pool.stats();
        assert_eq!(stats.workers, 2, "the worker set never changes");
        assert_eq!(stats.epochs, 50);
        assert_eq!(stats.jobs, 200);
        let placed: u64 = stats.worker_jobs.iter().sum::<u64>() + stats.inline_jobs;
        assert_eq!(placed, 200, "every job ran exactly once somewhere");
    }

    #[test]
    fn a_zero_worker_pool_completes_epochs_inline() {
        let pool = WorkerPool::new(0);
        let mut results = vec![0usize; 8];
        pool.scoped(|scope| {
            for (i, slot) in results.iter_mut().enumerate() {
                scope.execute(move || *slot = i * i);
            }
        })
        .expect("no job panicked");
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49]);
        let stats = pool.stats();
        assert_eq!(stats.inline_jobs, 8, "all jobs ran on the coordinator");
    }

    #[test]
    fn a_job_panic_surfaces_as_err_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let survivors = AtomicUsize::new(0);
        let outcome = pool.scoped(|scope| {
            for i in 0..6 {
                scope.execute(move || {
                    if i == 3 {
                        panic!("band 3 exploded");
                    }
                });
                scope.execute(|| {
                    survivors.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        let payload = outcome.expect_err("the job panic must surface");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-string payload");
        assert!(msg.contains("band 3 exploded"), "payload: {msg}");
        assert_eq!(
            survivors.load(Ordering::SeqCst),
            6,
            "the remaining jobs of the epoch still ran"
        );
        // The next epoch works: no worker died with the panic.
        let mut x = 0u32;
        pool.scoped(|scope| scope.execute(|| x = 41))
            .expect("the pool survived the panic");
        assert_eq!(x + 1, 42);
        assert_eq!(pool.stats().workers, 2);
    }

    #[test]
    #[should_panic(expected = "the scope closure itself")]
    fn a_panic_in_the_scope_closure_resumes_after_the_epoch_drains() {
        let pool = WorkerPool::new(1);
        let _ = pool.scoped(|scope| {
            scope.execute(|| {});
            panic!("the scope closure itself");
        });
    }

    #[test]
    fn concurrent_scopes_do_not_observe_each_other() {
        let pool = Arc::new(WorkerPool::new(2));
        let totals: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|k| {
                    let pool = Arc::clone(&pool);
                    s.spawn(move || {
                        let mut parts = [0u64; 3];
                        pool.scoped(|scope| {
                            for (b, slot) in parts.iter_mut().enumerate() {
                                scope.execute(move || *slot = k * 100 + b as u64);
                            }
                        })
                        .expect("no job panicked");
                        parts.iter().sum::<u64>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("scope thread ok"))
                .collect()
        });
        assert_eq!(totals, vec![3, 303, 603, 903]);
    }

    #[test]
    fn worker_share_is_well_defined_without_jobs() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.stats().worker_share(), 1.0);
    }

    #[test]
    fn repeated_panics_drain_every_epoch_and_leave_the_pool_usable() {
        // The panic firewall must hold across many consecutive failing
        // epochs, not just one: each epoch drains fully (all non-panicking
        // jobs run), surfaces exactly one Err, and the next epoch starts
        // from a healthy pool.
        let pool = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        for round in 0..20 {
            let outcome = pool.scoped(|scope| {
                for i in 0..5 {
                    scope.execute(move || {
                        if i == 2 {
                            panic!("round {round} band {i}");
                        }
                    });
                    scope.execute(|| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            assert!(outcome.is_err(), "round {round} must surface its panic");
        }
        assert_eq!(
            ran.load(Ordering::SeqCst),
            20 * 5,
            "every non-panicking job of every epoch still ran"
        );
        let mut x = 0u32;
        pool.scoped(|scope| scope.execute(|| x = 7))
            .expect("the pool is healthy after 20 panicking epochs");
        assert_eq!(x, 7);
        assert_eq!(pool.stats().workers, 2);
    }

    #[test]
    fn concurrent_panicking_scopes_stay_isolated_and_the_shared_pool_survives() {
        // Several coordinators drive panicking epochs on one pool at once:
        // each scope sees only its own epoch's panic, every epoch drains,
        // and the pool serves a clean epoch afterwards.
        let pool = Arc::new(WorkerPool::new(3));
        let clean_jobs = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for k in 0..6usize {
                let pool = Arc::clone(&pool);
                let clean_jobs = Arc::clone(&clean_jobs);
                s.spawn(move || {
                    let outcome = pool.scoped(|scope| {
                        for b in 0..4usize {
                            scope.execute(move || {
                                if b == k % 4 {
                                    panic!("scope {k} band {b}");
                                }
                            });
                            scope.execute(|| {
                                clean_jobs.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                    let payload = outcome.expect_err("each scope sees its own panic");
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default();
                    assert!(
                        msg.contains(&format!("scope {k} ")),
                        "scope {k} got a foreign panic: {msg}"
                    );
                });
            }
        });
        assert_eq!(clean_jobs.load(Ordering::SeqCst), 6 * 4);
        let mut x = 0u32;
        pool.scoped(|scope| scope.execute(|| x = 1))
            .expect("the pool survived six concurrent panicking scopes");
        assert_eq!(x, 1);
    }

    // ---- `WorkerPool::map`: the fan-out contract sweep and fuzz rely on ----

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 8] {
            let got = WorkerPool::shared().map(jobs, items.clone(), |x| x * x);
            assert_eq!(got, expected, "jobs = {jobs}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let results = WorkerPool::shared().map(4, (0..57).collect::<Vec<_>>(), |x| {
            counter.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(results, (0..57).collect::<Vec<_>>());
        assert_eq!(counter.load(Ordering::SeqCst), 57);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = WorkerPool::shared();
        let empty: Vec<u32> = pool.map(8, Vec::new(), |x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(pool.map(8, vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn jobs_zero_clamps_to_one_and_runs_inline() {
        // Regression: `jobs = 0` must behave exactly like `jobs = 1` —
        // every item processed inline on the calling thread.
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..32).collect();
        let got = WorkerPool::shared().map(0, items.clone(), |x| {
            assert_eq!(std::thread::current().id(), caller, "inline means inline");
            x * 2
        });
        assert_eq!(got, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_lists_return_without_spawning_for_any_geometry() {
        let pool = WorkerPool::new(2);
        for jobs in [0, 1, 8] {
            let empty: Vec<u32> = pool.map(jobs, Vec::new(), |x: u32| x);
            assert!(empty.is_empty(), "jobs = {jobs}");
            assert_eq!(pool.map(jobs, vec![1u32], |x| x), vec![1], "jobs = {jobs}");
        }
        assert_eq!(pool.stats().epochs, 0, "nothing to fan out opens no epoch");
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn order_is_preserved_under_uneven_task_durations() {
        // Early tasks sleep longest, so with naive completion-order
        // collection the results would come back reversed.
        let items: Vec<u64> = (0..24).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 10).collect();
        let got = WorkerPool::shared().map(6, items, |x| {
            std::thread::sleep(Duration::from_millis(24 - x));
            x * 10
        });
        assert_eq!(got, expected);
    }

    #[test]
    fn jobs_1_and_jobs_8_produce_identical_results() {
        let items: Vec<u64> = (0..200).collect();
        let f = |x: u64| x.wrapping_mul(0x9E37_79B9).rotate_left(7);
        let sequential = WorkerPool::shared().map(1, items.clone(), f);
        let parallel = WorkerPool::shared().map(8, items, f);
        assert_eq!(sequential, parallel);
    }

    #[test]
    #[should_panic(expected = "task 13 exploded")]
    fn a_panicking_task_propagates_when_the_worker_scope_joins() {
        WorkerPool::shared().map(4, (0..57).collect::<Vec<i32>>(), |x| {
            if x == 13 {
                panic!("task 13 exploded");
            }
            x
        });
    }

    #[test]
    fn the_re_raised_payload_is_the_tasks_own() {
        // Not a wrapper message, not a "slot unfilled" expect: the very
        // `&str` the task panicked with — whichever thread ran the task.
        for jobs in [2, 8] {
            let payload = catch_unwind(|| {
                WorkerPool::shared().map(jobs, (0..57).collect::<Vec<i32>>(), |x| {
                    if x == 13 {
                        panic!("task 13 exploded");
                    }
                    x
                })
            })
            .expect_err("the task panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 13 exploded"));
        }
    }

    #[test]
    fn surviving_tasks_still_run_when_one_panics() {
        // A panicking task ends the loop that claimed it, but the panic is
        // only re-raised after the other loop has drained the remaining
        // items — no task is silently dropped without a panic surfacing.
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::shared().map(2, (0..40).collect::<Vec<i32>>(), |x| {
                if x == 0 {
                    panic!("first task dies");
                }
                ran.fetch_add(1, Ordering::SeqCst);
                x
            });
        }));
        assert!(result.is_err(), "the panic must propagate to the caller");
        assert_eq!(
            ran.load(Ordering::SeqCst),
            39,
            "the surviving loop drains every other item"
        );
    }

    #[test]
    fn a_map_task_can_fan_out_on_the_same_pool() {
        // The sweep-inside-jobs nesting: every outer task opens its own
        // epochs on the pool its loop is running on — a nested `map`, and a
        // σ iteration whose rounds are `Pooled` sweeps — while the workers
        // are all busy with outer loops.  Each nested coordinator steals its
        // own jobs back, so this completes on any worker count.
        use crate::parallel::par_iterate_to_fixed_point;
        use dbf_algebra::prelude::*;
        let alg = BoundedHopCount::new(12);
        let topo = dbf_topology::generators::ring(9).with_weights(|_, _| 1u64);
        let adj = crate::AdjacencyMatrix::<BoundedHopCount>::from_topology(&topo);
        let x0 = crate::RoutingState::identity(&alg, 9);
        let reference = crate::iterate_to_fixed_point(&alg, &adj, &x0, 50);
        assert!(reference.converged);
        let pool = WorkerPool::shared();
        let got = pool.map(4, (0..12u64).collect(), |k| {
            let inner: u64 = pool.map(3, (0..10u64).collect(), |x| x + k).iter().sum();
            let sigma = par_iterate_to_fixed_point(&alg, &adj, &x0, 50, 3);
            (inner, sigma.state == reference.state)
        });
        let expected: Vec<(u64, bool)> = (0..12u64).map(|k| (45 + 10 * k, true)).collect();
        assert_eq!(got, expected);
    }
}
