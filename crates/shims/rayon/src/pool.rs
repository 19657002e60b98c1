//! The work pool behind the shim: plain `std::thread` workers pulling boxed
//! jobs off one shared injector queue.
//!
//! The scheduling model is *fork-and-help*: a thread that submits a batch of
//! scoped tasks ([`Pool::run_all`]) never blocks on a condition variable
//! while its batch is outstanding — it loops popping **any** queued job and
//! running it, which is what makes nested fork-join (a pool worker whose job
//! itself calls [`join_in`]) deadlock-free: every waiting thread is also an
//! executing thread.  Workers with nothing to do park on a condvar.
//!
//! Scoped lifetimes are erased with a transmute when a job enters the queue;
//! soundness rests on a single invariant, upheld by `run_all` on every path
//! including unwinding: **the submitting frame does not return until every
//! job of its batch has finished running**, so the borrows captured by the
//! jobs are live for as long as any thread can touch them.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
#[cfg(feature = "telemetry")]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A boxed, lifetime-erased job.  Jobs never unwind: `run_all` wraps every
/// task in `catch_unwind` before queueing it.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is pushed; workers park here when idle.
    available: Condvar,
    threads: usize,
    #[cfg(feature = "telemetry")]
    metrics: PoolCounters,
}

/// Relaxed-atomic scheduler metrics, compiled only under the `telemetry`
/// feature so the disabled build keeps the exact pre-telemetry hot path.
#[cfg(feature = "telemetry")]
struct PoolCounters {
    /// Total jobs run to completion, on any thread.
    jobs_executed: AtomicU64,
    /// Jobs run by a *helping submitter* inside `run_all_with`'s drain loop
    /// (the fork-and-help equivalent of a work steal).
    helper_jobs: AtomicU64,
    /// Highest queue length observed right after a batch was pushed.
    queue_depth_hwm: AtomicUsize,
    /// Busy nanoseconds per slot: slot 0 is the submitting/helping thread
    /// (and the inline `threads <= 1` path), slots `1..` are the workers.
    busy_nanos: Vec<AtomicU64>,
}

#[cfg(feature = "telemetry")]
impl PoolCounters {
    fn new(threads: usize) -> PoolCounters {
        PoolCounters {
            jobs_executed: AtomicU64::new(0),
            helper_jobs: AtomicU64::new(0),
            queue_depth_hwm: AtomicUsize::new(0),
            busy_nanos: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record_job(&self, slot: usize, nanos: u64, helper: bool) {
        self.jobs_executed.fetch_add(1, Ordering::Relaxed);
        if helper {
            self.helper_jobs.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(busy) = self.busy_nanos.get(slot) {
            busy.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    fn note_queue_depth(&self, depth: usize) {
        self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }
}

/// Point-in-time copy of the pool's scheduler metrics.
#[cfg(feature = "telemetry")]
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Total pool width (including the always-helping submitter slot).
    pub threads: usize,
    /// Jobs run to completion on any thread.
    pub jobs_executed: u64,
    /// Jobs stolen and run by helping submitters.
    pub helper_jobs: u64,
    /// Highest injector-queue length observed after a batch push.
    pub queue_depth_hwm: usize,
    /// Busy nanoseconds per slot (slot 0 = submitters, `1..` = workers).
    pub busy_nanos: Vec<u64>,
}

/// A handle to a pool of worker threads (plus the shared queue).
///
/// The workspace uses one lazily-created global pool; unit tests create
/// small private pools to pin down cross-thread behaviour regardless of the
/// environment.  Worker threads live for the life of the process.
pub(crate) struct Pool {
    shared: Arc<Shared>,
}

impl Pool {
    /// Spawns a pool of `threads` total workers.  `threads == 1` spawns no
    /// OS threads at all: every operation runs inline on the caller.
    ///
    /// There is deliberately no shutdown path: workers run for the life of
    /// the process, and dropping a `Pool` handle parks its workers forever.
    /// That is the right trade for the two intended uses — the global
    /// singleton, and short-lived test pools whose few threads die with the
    /// test binary — and it keeps `run_all`'s pinning argument free of
    /// teardown races.  Do not create per-request pools.
    pub(crate) fn start(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            threads,
            #[cfg(feature = "telemetry")]
            metrics: PoolCounters::new(threads),
        });
        // The submitting thread always helps, so `threads` total parallelism
        // needs `threads - 1` dedicated workers.
        for i in 1..threads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("dyntree-worker-{i}"))
                .spawn(move || worker_loop(&shared, i))
                .expect("failed to spawn pool worker");
        }
        Pool { shared }
    }

    /// Total worker count (including the always-helping submitter).
    pub(crate) fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Runs every task to completion, fanning them out to the pool while the
    /// calling thread helps.  If any task panics, the first captured payload
    /// is resumed on the caller — after *all* tasks have finished, so scoped
    /// borrows never outlive their referents.
    pub(crate) fn run_all<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        self.run_all_with(tasks, || ());
    }

    /// [`run_all`](Self::run_all) plus a `local` closure the **calling
    /// thread** runs concurrently with the batch (the fork half of
    /// fork-join: `join` submits only the right side and keeps the left one
    /// here).  Panic precedence on the caller: `local`'s payload first,
    /// else the batch's first captured payload — in both cases only after
    /// the whole batch is quiescent.
    pub(crate) fn run_all_with<'scope, R>(
        &self,
        tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>,
        local: impl FnOnce() -> R,
    ) -> R {
        if self.shared.threads <= 1 || tasks.is_empty() {
            // Inline path: no queue traffic, identical panic semantics.
            // `local` runs first (join's left-before-right sequential order),
            // and later tasks still run after an earlier panic.
            let local_result = catch_unwind(AssertUnwindSafe(local));
            let mut first_panic = None;
            for task in tasks {
                #[cfg(feature = "telemetry")]
                let start = std::time::Instant::now();
                if let Err(p) = catch_unwind(AssertUnwindSafe(task)) {
                    first_panic.get_or_insert(p);
                }
                #[cfg(feature = "telemetry")]
                self.shared
                    .metrics
                    .record_job(0, elapsed_nanos(start), false);
            }
            return match local_result {
                Err(p) => resume_unwind(p),
                Ok(r) => {
                    if let Some(p) = first_panic {
                        resume_unwind(p);
                    }
                    r
                }
            };
        }

        let batch = Batch {
            remaining: AtomicUsize::new(tasks.len()),
            panic: Mutex::new(None),
        };
        let batch_ref: &Batch = &batch;
        {
            let mut q = self.shared.queue.lock().unwrap();
            for task in tasks {
                let wrapped: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    if let Err(p) = catch_unwind(AssertUnwindSafe(task)) {
                        batch_ref.panic.lock().unwrap().get_or_insert(p);
                    }
                    batch_ref.remaining.fetch_sub(1, Ordering::Release);
                });
                // SAFETY: erases the scoped lifetime.  The loop below keeps
                // this frame alive (helping, never returning or unwinding)
                // until `remaining` reaches zero, i.e. until every wrapped
                // job — and therefore every borrow it captures — is done.
                let job: Job =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(wrapped) };
                q.push_back(job);
            }
            #[cfg(feature = "telemetry")]
            self.shared.metrics.note_queue_depth(q.len());
            self.shared.available.notify_all();
        }

        // The caller's own share of the fork runs while workers start on
        // the batch.  Its panic must not escape yet: the batch jobs borrow
        // this frame's state, so we stay pinned until they all finish.
        let local_result = catch_unwind(AssertUnwindSafe(local));

        // Help until the batch drains.  Jobs popped here may belong to other
        // batches (nested forks); running them is what prevents deadlock.
        let mut idle_spins = 0u32;
        while batch.remaining.load(Ordering::Acquire) > 0 {
            let job = self.shared.queue.lock().unwrap().pop_front();
            match job {
                Some(job) => {
                    #[cfg(feature = "telemetry")]
                    let start = std::time::Instant::now();
                    job();
                    #[cfg(feature = "telemetry")]
                    self.shared
                        .metrics
                        .record_job(0, elapsed_nanos(start), true);
                    idle_spins = 0;
                }
                None => {
                    // Some worker is still running one of our jobs: back off
                    // politely (yield first, then micro-sleeps) instead of
                    // burning the core it may need.
                    idle_spins += 1;
                    if idle_spins < 64 {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                }
            }
        }
        let first_panic = batch.panic.lock().unwrap().take();
        match local_result {
            Err(p) => resume_unwind(p),
            Ok(r) => {
                if let Some(p) = first_panic {
                    resume_unwind(p);
                }
                r
            }
        }
    }
}

#[cfg(feature = "telemetry")]
impl Pool {
    /// Copies the pool's scheduler metrics.
    pub(crate) fn metrics(&self) -> PoolMetrics {
        let m = &self.shared.metrics;
        PoolMetrics {
            threads: self.shared.threads,
            jobs_executed: m.jobs_executed.load(Ordering::Relaxed),
            helper_jobs: m.helper_jobs.load(Ordering::Relaxed),
            queue_depth_hwm: m.queue_depth_hwm.load(Ordering::Relaxed),
            busy_nanos: m
                .busy_nanos
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Zeroes the pool's scheduler metrics (for per-run attribution).
    pub(crate) fn reset_metrics(&self) {
        let m = &self.shared.metrics;
        m.jobs_executed.store(0, Ordering::Relaxed);
        m.helper_jobs.store(0, Ordering::Relaxed);
        m.queue_depth_hwm.store(0, Ordering::Relaxed);
        for b in &m.busy_nanos {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Metrics of the process-wide pool (creating it on first use).
#[cfg(feature = "telemetry")]
pub fn global_pool_metrics() -> PoolMetrics {
    global().metrics()
}

/// Zeroes the global pool's metrics, so the next read attributes work to a
/// single run.  Racing in-flight jobs only smear a few nanos — acceptable
/// for a profiling aid.
#[cfg(feature = "telemetry")]
pub fn reset_global_pool_metrics() {
    global().reset_metrics();
}

/// Completion state of one `run_all` batch, shared between the submitting
/// frame (on whose stack it lives) and the workers running its jobs.
struct Batch {
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

fn worker_loop(shared: &Shared, index: usize) {
    #[cfg(not(feature = "telemetry"))]
    let _ = index;
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = shared.available.wait(q).unwrap();
            }
        };
        // Jobs are panic-wrapped by `run_all`, so this cannot unwind.
        #[cfg(feature = "telemetry")]
        let start = std::time::Instant::now();
        job();
        #[cfg(feature = "telemetry")]
        shared
            .metrics
            .record_job(index, elapsed_nanos(start), false);
    }
}

#[cfg(feature = "telemetry")]
fn elapsed_nanos(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Fork-join over an explicit pool: runs `oper_a` on the calling thread and
/// offers `oper_b` to the pool, helping until both finish.
pub(crate) fn join_in<A, B, RA, RB>(pool: &Pool, oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if pool.threads() <= 1 {
        let ra = oper_a();
        let rb = oper_b();
        return (ra, rb);
    }
    let mut rb = None;
    let ra = {
        let task: Box<dyn FnOnce() + Send + '_> = Box::new(|| rb = Some(oper_b()));
        // Only the right side enters the queue; the left side runs here, as
        // documented (and as real rayon does).
        pool.run_all_with(vec![task], oper_a)
    };
    // run_all_with resumed any panic, so the right slot is filled here.
    (ra, rb.unwrap())
}

// ---------------------------------------------------------------------------
// The global pool
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool, created on first use from `DYNTREE_THREADS` (or
/// the machine's available parallelism).
pub(crate) fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::start(configured_threads()))
}

fn configured_threads() -> usize {
    if let Ok(s) = std::env::var("DYNTREE_THREADS") {
        let t = s.trim();
        if !t.is_empty() {
            // A malformed value must not fall through to full machine
            // parallelism: the CI thread matrix relies on this variable
            // actually pinning the width, and a silently ignored typo would
            // turn the 1-thread determinism leg into a vacuous check.
            match t.parse::<usize>() {
                Ok(n) => return n.max(1),
                Err(_) => panic!("DYNTREE_THREADS must be a non-negative integer, got {s:?}"),
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of threads in the global pool (≥ 1).  Grain checks such as the
/// workspace's `ParallelConfig` use this to route small batches down the
/// sequential paths.
pub fn current_num_threads() -> usize {
    global().threads()
}

/// Mirrors rayon's global-pool builder closely enough for the workspace's
/// benchmark binaries to pin the pool size before first use.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings (`DYNTREE_THREADS` / machine size).
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests an explicit pool size (0 keeps the environment default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Installs the global pool.  Errors if it was already created (by an
    /// earlier build or by first use of any parallel operation).
    pub fn build_global(self) -> Result<(), GlobalPoolAlreadyInitialized> {
        let threads = if self.num_threads == 0 {
            configured_threads()
        } else {
            self.num_threads
        };
        // Spawn workers only inside get_or_init: a start-then-set-fails
        // sequence would leak parked worker threads (nothing would ever
        // reach their queue) every time the pool already existed.
        let mut installed = false;
        GLOBAL.get_or_init(|| {
            installed = true;
            Pool::start(threads)
        });
        if installed {
            Ok(())
        } else {
            Err(GlobalPoolAlreadyInitialized)
        }
    }
}

/// Error from [`ThreadPoolBuilder::build_global`] when the pool exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalPoolAlreadyInitialized;

impl std::fmt::Display for GlobalPoolAlreadyInitialized {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("the global thread pool was already initialized")
    }
}

impl std::error::Error for GlobalPoolAlreadyInitialized {}

#[cfg(all(test, feature = "telemetry"))]
mod metric_tests {
    use super::*;

    #[test]
    fn pool_metrics_account_every_job() {
        let pool = Pool::start(3);
        let n = 64;
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
            .map(|_| {
                let counter = &counter;
                Box::new(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_all(tasks);
        assert_eq!(counter.load(Ordering::Relaxed), n);
        let m = pool.metrics();
        assert_eq!(m.threads, 3);
        assert_eq!(m.busy_nanos.len(), 3);
        assert_eq!(m.jobs_executed, n as u64);
        assert!(m.helper_jobs <= m.jobs_executed);
        assert!(m.queue_depth_hwm >= 1 && m.queue_depth_hwm <= n);
        pool.reset_metrics();
        let m = pool.metrics();
        assert_eq!(
            (m.jobs_executed, m.helper_jobs, m.queue_depth_hwm),
            (0, 0, 0)
        );
        assert!(m.busy_nanos.iter().all(|&b| b == 0));
    }

    #[test]
    fn inline_pool_counts_jobs_in_slot_zero() {
        let pool = Pool::start(1);
        let hits = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..5)
            .map(|_| {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_all(tasks);
        let m = pool.metrics();
        assert_eq!(m.jobs_executed, 5);
        assert_eq!(m.helper_jobs, 0);
        assert_eq!(m.busy_nanos.len(), 1);
    }
}
