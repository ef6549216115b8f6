//! Persistent work-stealing thread pool shared by every fan-out in the
//! system: query scatter across segments, batched queries, vacuum merge
//! workers, cluster scatter-gather, and parallel index builds.
//!
//! * **Warm workers.** A lazily-started global pool ([`global`]), sized by
//!   the `TV_THREADS` env var or `available_parallelism`, owns
//!   process-lifetime worker threads. Components that need their own width
//!   build an injectable instance with [`WorkerPool::new`] (the cluster
//!   runtime sizes one by server count so an injected fault delay cannot
//!   starve unrelated requests).
//! * **Dynamic claiming.** Batch tasks are claimed one at a time from a
//!   shared queue — whichever worker finishes first takes the next task, so
//!   a slow segment no longer starves a statically-chunked sibling.
//! * **Caller participation.** The batch API keeps the *submitting* thread
//!   draining the same queue it published. A batch therefore completes even
//!   when every pool worker is busy, which makes nested batches (a pool
//!   worker running a batch of its own) deadlock-free by construction.
//!   `width <= 1` degrades to a strictly sequential in-order loop —
//!   crash-injection tests rely on that ordering.
//! * **A helper is woken only when it pays.** Handing a batch to a sleeping
//!   worker costs its caller tens of microseconds — more than a small
//!   segment search. The pool keeps the two facts that decide whether a batch
//!   should leave its thread, how many lanes are occupied and what a
//!   hand-off has been costing, and [`WorkerPool::run_gauged`] weighs them
//!   against the caller's measured task time ([`TaskGauge`]).
//!   [`WorkerPool::run`] is for batches known to be worth it (merges,
//!   rebuilds, builds: milliseconds a task) and fans out on task count alone.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fan-out must save this many times the measured hand-off before it is
/// made. One hand-off is the least of what a fan-out costs its caller: the
/// helper that started late finishes last and has to wake the caller in
/// turn, and tasks run slower side by side than alone. Traced on an idle
/// 2-core host, fanned time minus half the serial time — the whole cost —
/// was 43 µs for 4 × 26 µs searches (saving 53: speed-up 1.10), 44 µs for
/// 4 × 23 µs (saving 47: 1.03), 60 µs for 4 × 45 µs (saving 90: 1.20) and
/// 69 µs for 4 × 67 µs (saving 135: 1.32), where the hand-off reads
/// 22–30 µs between batches that keep fanning out and 45–95 µs after
/// milliseconds of idleness. The first two are the ones that cost a third
/// of the throughput beside a writer or a second client, so the line is
/// drawn between the pairs, 3 × 22–30 µs = 66–90 µs: they stay on their
/// thread whatever state the workers are in, and the fourth fans out. The
/// third fans out from a warm reading only; its gain (30 µs in 180, single
/// client) is what keeping the first two inline costs.
const HANDOFF_MARGIN: u64 = 3;

/// One gauged batch in this many, counting those that get as far as weighing
/// the hand-off (a lane free, the gauge measured) and starting with the
/// first, measures it with a detached ping: batches that stay inline would
/// otherwise never learn that it got cheaper. A ping costs its sender a
/// wake-up call, so this is also the share of one a small query pays.
const PING_EVERY: u64 = 64;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `old` moved an eighth of the way to `sample`; a first sample is taken
/// whole. A sample counts for at most twice `old`, so a descheduled thread
/// moves the estimate by an eighth whatever it measured, while a real change
/// is still followed geometrically (100× in 40 samples either way). Never 0,
/// which means "not measured yet".
fn ewma(old: u64, sample: u64) -> u64 {
    if old == 0 {
        return sample.max(1);
    }
    let sample = sample.min(old.saturating_mul(2));
    (old - old / 8 + sample / 8).max(1)
}

/// Helpers a batch of `n` tasks could use beside its caller, `width` lanes
/// allowed.
fn helpers_wanted(width: usize, n: usize) -> usize {
    width.saturating_sub(1).min(n.saturating_sub(1))
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A caller-owned running estimate of what one task of a recurring batch
/// costs to compute: an EWMA over every task [`WorkerPool::run_gauged`] runs
/// under it, timed around the task on whichever thread ran it. One gauge per
/// kind of work (the embedding service's segment searches share one, the
/// graph's segment scans have another).
#[derive(Debug, Default)]
pub struct TaskGauge(AtomicU64);

impl TaskGauge {
    /// A gauge that has measured nothing: its first batch runs inline.
    #[must_use]
    pub const fn new() -> Self {
        TaskGauge(AtomicU64::new(0))
    }

    /// Estimated compute time of one task, in nanoseconds (0 = unmeasured).
    #[must_use]
    pub fn task_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Fold one task's compute time into the estimate. Concurrent updates
    /// may drop a sample; the value is a statistic, nothing is published
    /// through it.
    pub fn record(&self, took: Duration) {
        let old = self.0.load(Ordering::Relaxed);
        self.0.store(ewma(old, nanos(took)), Ordering::Relaxed);
    }
}

/// A reading of the pool's scheduling state and counters.
#[derive(Debug, Clone, Copy)]
pub struct PoolStats {
    /// Worker threads, which is also the number of lanes.
    pub width: usize,
    /// Lanes occupied now: workers running a job plus threads inside
    /// [`WorkerPool::run`] / [`WorkerPool::run_gauged`].
    pub busy_lanes: usize,
    /// What a hand-off costs, in nanoseconds: EWMA, over every fan-out and
    /// ping, of the time from queueing jobs until the publisher is back from
    /// the wake-up calls and a worker has started on one.
    pub handoff_ns: u64,
    /// Batches that ran wholly on their calling thread.
    pub runs_inline: u64,
    /// Batches that published helper jobs.
    pub runs_fanned: u64,
    /// Helper jobs that woke to a batch already finished.
    pub helper_jobs_unclaimed: u64,
}

/// State shared by the pool handle, its workers and its in-flight jobs.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    shutdown: AtomicBool,
    width: usize,
    // Scheduling statistics: plain relaxed atomics, nothing is published
    // through them.
    busy: AtomicUsize,
    /// EWMA, in thousandths of a lane, of the lanes other threads held at
    /// the moment each gauged batch entered.
    others_busy_milli: AtomicU64,
    handoff_ns: AtomicU64,
    weighed: AtomicU64,
    runs_inline: AtomicU64,
    runs_fanned: AtomicU64,
    helper_jobs_unclaimed: AtomicU64,
}

impl Shared {
    fn publish(&self, job: Job) {
        lock(&self.queue).push_back(job);
        self.ready.notify_one();
    }

    /// Lanes a batch entering now may count on besides its own: those free
    /// this instant, and no more than were free on average (to the nearest
    /// lane) over the last few batches — a second client between two
    /// queries has not given its core up.
    fn free_lanes(&self) -> usize {
        let others = self.busy.load(Ordering::Relaxed).saturating_sub(1);
        let old = self.others_busy_milli.load(Ordering::Relaxed);
        let avg = old - old / 8 + others as u64 * 1000 / 8;
        self.others_busy_milli.store(avg, Ordering::Relaxed);
        let lanes = self.width - 1;
        let free_on_average = (lanes as u64 * 1000 + 500).saturating_sub(avg) / 1000;
        lanes.saturating_sub(others).min(free_on_average as usize)
    }
}

thread_local! {
    /// Address of the pool whose `busy` count already includes this thread
    /// (0 = none): a batch run from inside another batch's task, or from a
    /// worker's job, occupies the lane its thread already holds.
    static LANE: Cell<usize> = const { Cell::new(0) };
}

/// Occupies one lane of a pool for as long as it lives.
struct Lane<'a> {
    shared: &'a Shared,
    outer: usize,
}

impl<'a> Lane<'a> {
    fn enter(shared: &'a Shared) -> Self {
        let me = std::ptr::from_ref(shared) as usize;
        let outer = LANE.replace(me);
        if outer != me {
            shared.busy.fetch_add(1, Ordering::Relaxed);
        }
        Lane { shared, outer }
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        if LANE.replace(self.outer) != self.outer {
            self.shared.busy.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// One hand-off being timed: from just before a job is queued until both
/// sides are at work — the publisher back from the wake-up call, a worker
/// started on the job. Either can be the slow one: where waking a sleeping
/// thread is cheap for the waker, the sleeper takes a while to run; under a
/// hypervisor the wake-up call itself is the expensive part (22–37 µs for
/// the caller on the 2-vCPU sandbox, the woken thread running 1–12 µs in).
struct Handoff {
    published: Instant,
    /// Which sides have arrived: [`PUBLISHER`], [`HELPER`].
    arrived: AtomicUsize,
}

const PUBLISHER: usize = 1;
const HELPER: usize = 2;
const BOTH: usize = PUBLISHER | HELPER;

impl Handoff {
    fn start() -> Self {
        Handoff {
            published: Instant::now(),
            arrived: AtomicUsize::new(0),
        }
    }

    /// Called by the publisher once its jobs are queued and by each job as
    /// it starts; the call that completes the pair is the sample. A sample
    /// under half the estimate halves it, so one taken while the machine
    /// was busy (or the pool's threads still starting) is forgotten in a
    /// few hand-offs.
    fn arrive(&self, side: usize, shared: &Shared) {
        let before = self.arrived.fetch_or(side, Ordering::Relaxed);
        if before != BOTH && before | side == BOTH {
            let sample = nanos(self.published.elapsed());
            let old = shared.handoff_ns.load(Ordering::Relaxed);
            let new = if sample < old / 2 {
                old / 2
            } else {
                ewma(old, sample)
            };
            shared.handoff_ns.store(new, Ordering::Relaxed);
        }
    }
}

/// What the helpers of one fanned batch share with its caller.
struct Gate {
    /// Helpers dereference the batch (a stack borrow) only while holding
    /// the read lock; the caller closes the gate (write lock) before the
    /// batch leaves scope, so a helper job still sitting in the queue at
    /// that point sees it closed and never touches the batch.
    open: RwLock<bool>,
    handoff: Handoff,
}

/// A fixed-width pool of persistent worker threads.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Start a pool with `width` worker threads (clamped to at least 1).
    #[must_use]
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            width,
            busy: AtomicUsize::new(0),
            others_busy_milli: AtomicU64::new(0),
            handoff_ns: AtomicU64::new(0),
            weighed: AtomicU64::new(0),
            runs_inline: AtomicU64::new(0),
            runs_fanned: AtomicU64::new(0),
            helper_jobs_unclaimed: AtomicU64::new(0),
        });
        let workers = (0..width)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tv-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn width(&self) -> usize {
        self.shared.width
    }

    /// Occupancy, hand-off estimate and batch counters, read now.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let s = &self.shared;
        PoolStats {
            width: s.width,
            busy_lanes: s.busy.load(Ordering::Relaxed),
            handoff_ns: s.handoff_ns.load(Ordering::Relaxed),
            runs_inline: s.runs_inline.load(Ordering::Relaxed),
            runs_fanned: s.runs_fanned.load(Ordering::Relaxed),
            helper_jobs_unclaimed: s.helper_jobs_unclaimed.load(Ordering::Relaxed),
        }
    }

    /// Fire-and-forget: enqueue a job for any free worker. Panics inside
    /// the job are caught so a poisoned job cannot kill a pool worker.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.publish(Box::new(job));
    }

    /// Measure one hand-off without waiting for the job to run.
    fn ping(&self) {
        let ours = Arc::new(Handoff::start());
        let (theirs, shared) = (Arc::clone(&ours), Arc::clone(&self.shared));
        self.spawn(move || theirs.arrive(HELPER, &shared));
        ours.arrive(PUBLISHER, &self.shared);
    }

    /// Run `f` over every task with up to `width` threads (the caller plus
    /// `width - 1` pool workers), returning results **in task order**.
    ///
    /// Tasks are claimed dynamically — no static chunking. `width <= 1` or
    /// a single task runs strictly sequentially on the caller, preserving
    /// task order for deterministic crash-injection. A panic inside `f` is
    /// re-raised on the caller after the whole batch settles.
    pub fn run<T, R>(&self, tasks: Vec<T>, width: usize, f: impl Fn(T) -> R + Sync) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        let _lane = Lane::enter(&self.shared);
        let helpers = helpers_wanted(width, tasks.len()).min(self.shared.width);
        self.execute(tasks, helpers, f)
    }

    /// [`run`](Self::run) for batches that may be too small to be worth a
    /// hand-off: same results in the same order, but helpers are woken only
    /// when a lane is free **and** the time sharing the batch would save,
    /// `gauge × tasks × (1 − 1/lanes)`, exceeds [`HANDOFF_MARGIN`] times the
    /// pool's measured hand-off. Every task is timed into `gauge` on
    /// whichever thread runs it. While either estimate is missing — the
    /// first batch under a gauge, a pool whose first ping has not landed —
    /// batches stay inline.
    pub fn run_gauged<T, R>(
        &self,
        gauge: &TaskGauge,
        tasks: Vec<T>,
        width: usize,
        f: impl Fn(T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        let _lane = Lane::enter(&self.shared);
        let helpers = self.helpers_worth_waking(gauge.task_ns(), tasks.len(), width);
        self.execute(tasks, helpers, |task| {
            let start = Instant::now();
            let out = f(task);
            gauge.record(start.elapsed());
            out
        })
    }

    /// How many helpers a batch of `n` tasks of `task_ns` each should wake,
    /// the caller already holding its lane.
    fn helpers_worth_waking(&self, task_ns: u64, n: usize, width: usize) -> usize {
        let s = &self.shared;
        let helpers = helpers_wanted(width, n).min(s.free_lanes());
        if helpers == 0 || task_ns == 0 {
            return 0;
        }
        if s.weighed
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(PING_EVERY)
        {
            self.ping();
        }
        let (n, lanes) = (n as u64, helpers as u64 + 1);
        let saved = task_ns.saturating_mul(n) / lanes * (lanes - 1);
        let handoff = s.handoff_ns.load(Ordering::Relaxed);
        if handoff != 0 && saved > handoff.saturating_mul(HANDOFF_MARGIN) {
            helpers
        } else {
            0
        }
    }

    /// Run the batch on the caller plus `helpers` woken workers.
    fn execute<T, R>(&self, tasks: Vec<T>, helpers: usize, f: impl Fn(T) -> R + Sync) -> Vec<R>
    where
        T: Send,
        R: Send,
    {
        if helpers == 0 {
            self.shared.runs_inline.fetch_add(1, Ordering::Relaxed);
            return tasks.into_iter().map(f).collect();
        }
        self.shared.runs_fanned.fetch_add(1, Ordering::Relaxed);
        let n = tasks.len();
        let batch = Batch {
            pending: Mutex::new(tasks.into_iter().enumerate().collect()),
            results: Mutex::new((0..n).map(|_| None).collect()),
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
            f,
        };
        let gate = Arc::new(Gate {
            open: RwLock::new(true),
            handoff: Handoff::start(),
        });
        for _ in 0..helpers {
            let gate = Arc::clone(&gate);
            let shared = Arc::clone(&self.shared);
            let batch_ref = &batch;
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                gate.handoff.arrive(HELPER, &shared);
                let open = gate.open.read().unwrap_or_else(PoisonError::into_inner);
                if *open {
                    batch_ref.work();
                } else {
                    shared.helper_jobs_unclaimed.fetch_add(1, Ordering::Relaxed);
                }
            });
            // SAFETY: lifetime erasure only — layout of a boxed trait
            // object does not depend on its lifetime bound. The job borrows
            // `batch` (and `f`/`tasks` inside it); the gate protocol (see
            // `Gate::open`) plus the caller blocking until `remaining == 0`
            // guarantee the borrow is never dereferenced after this function
            // returns. Everything else the job captures it owns.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(job)
            };
            self.shared.publish(job);
        }
        gate.handoff.arrive(PUBLISHER, &self.shared);
        batch.work();
        {
            let mut rem = lock(&batch.remaining);
            while *rem > 0 {
                rem = batch.done.wait(rem).unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Blocks until in-flight helpers drop their read locks.
        *gate.open.write().unwrap_or_else(PoisonError::into_inner) = false;
        if let Some(payload) = lock(&batch.panic).take() {
            resume_unwind(payload);
        }
        let out = lock(&batch.results)
            .iter_mut()
            .map(|slot| slot.take().expect("every task ran to completion"))
            .collect();
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Set the flag under the queue lock: a worker checks it under that
        // lock just before it waits, so a store made without it can land
        // between the check and the wait, the notification finds nobody,
        // and `join` below never returns.
        {
            let _queue = lock(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One in-flight batch: a task queue, an in-order result buffer, and a
/// completion latch. Caller and helper workers all drain it via [`work`].
struct Batch<T, R, F> {
    pending: Mutex<VecDeque<(usize, T)>>,
    results: Mutex<Vec<Option<R>>>,
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    f: F,
}

impl<T, R, F: Fn(T) -> R + Sync> Batch<T, R, F> {
    fn work(&self) {
        loop {
            let Some((i, task)) = lock(&self.pending).pop_front() else {
                break;
            };
            match catch_unwind(AssertUnwindSafe(|| (self.f)(task))) {
                Ok(r) => lock(&self.results)[i] = Some(r),
                Err(payload) => {
                    let mut slot = lock(&self.panic);
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            let mut rem = lock(&self.remaining);
            *rem -= 1;
            if *rem == 0 {
                self.done.notify_all();
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    // A batch run from inside a job rides on this worker's lane, which is
    // counted busy for as long as the job runs.
    LANE.set(std::ptr::from_ref(shared) as usize);
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = shared.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            Some(job) => {
                shared.busy.fetch_add(1, Ordering::Relaxed);
                let _ = catch_unwind(AssertUnwindSafe(job));
                shared.busy.fetch_sub(1, Ordering::Relaxed);
            }
            None => break,
        }
    }
}

static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();

/// Worker count for the global pool: `TV_THREADS` if set and valid, else
/// `available_parallelism`.
#[must_use]
pub fn default_width() -> usize {
    width_from(std::env::var("TV_THREADS").ok())
}

fn width_from(var: Option<String>) -> usize {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
}

/// The lazily-started process-wide pool. First call starts the workers;
/// they live for the rest of the process.
#[must_use]
pub fn global() -> Arc<WorkerPool> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(WorkerPool::new(default_width()))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_task_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<usize> = (0..64).collect();
        let out = pool.run(tasks, 4, |i| i * 3);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn width_one_is_strictly_sequential_in_order() {
        let pool = WorkerPool::new(4);
        let order = Mutex::new(Vec::new());
        let out = pool.run((0..16).collect(), 1, |i: usize| {
            lock(&order).push(i);
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        assert_eq!(*lock(&order), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn borrows_non_static_state() {
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..100).collect();
        let slice = &data[..];
        let out = pool.run((0..100usize).collect(), 3, |i| slice[i] + 1);
        assert_eq!(out.iter().sum::<u64>(), (1..=100).sum::<u64>());
    }

    #[test]
    fn nested_batches_complete() {
        // Inner batches run while every pool worker may be busy with outer
        // tasks: caller participation must keep them moving.
        let pool = Arc::new(WorkerPool::new(2));
        let p2 = Arc::clone(&pool);
        let out = pool.run((0..8usize).collect(), 4, move |i| {
            p2.run((0..8usize).collect(), 4, |j| i * j)
                .iter()
                .sum::<usize>()
        });
        let inner: usize = (0..8).sum();
        assert_eq!(out, (0..8).map(|i| i * inner).collect::<Vec<_>>());
    }

    #[test]
    fn panic_in_task_propagates_after_batch_settles() {
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..8usize).collect(), 3, |i| {
                if i == 3 {
                    panic!("boom");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        assert!(caught.is_err());
        // Every non-panicking task still ran.
        assert_eq!(completed.load(Ordering::Relaxed), 7);
        // The pool survives for subsequent batches.
        let out = pool.run((0..4usize).collect(), 2, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    /// A gauge that already reads `d` a task.
    fn gauge_reading(d: Duration) -> TaskGauge {
        let gauge = TaskGauge::new();
        gauge.record(d);
        gauge
    }

    /// A pool that already knows its hand-off, so that what a test sees
    /// decided does not depend on how busy its sibling tests kept the machine
    /// when the first ping went out.
    fn pool_with_handoff(width: usize, d: Duration) -> WorkerPool {
        let pool = WorkerPool::new(width);
        pool.shared.handoff_ns.store(nanos(d), Ordering::Relaxed);
        pool
    }

    /// A helper's lane is given back just after its batch returns.
    fn wait_until_idle(pool: &WorkerPool) {
        let start = Instant::now();
        while pool.stats().busy_lanes != 0 {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "{:?}",
                pool.stats()
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn small_batches_stay_on_their_thread() {
        // Both estimates are set, not measured, so the decision is the
        // policy's alone: no sibling test can inflate a reading. The hand-off
        // is the cheapest this host reads (22 µs); the weighing counter is
        // past 0 so no ping re-measures it within these 63 decisions.
        let pool = pool_with_handoff(2, Duration::from_micros(22));
        pool.shared.weighed.store(1, Ordering::Relaxed);
        let _lane = Lane::enter(&pool.shared);
        // Four 5 µs tasks on two lanes save 10 µs, under 3 × 22 µs.
        let small = nanos(Duration::from_micros(5));
        let fanned = (0..62)
            .filter(|_| pool.helpers_worth_waking(small, 4, 2) > 0)
            .count();
        assert!(fanned <= 10, "{fanned} of 62 small batches fanned out");
        // Four 34 µs tasks save 68 µs, past the line: they fan out.
        let large = nanos(Duration::from_micros(34));
        assert_eq!(pool.helpers_worth_waking(large, 4, 2), 1);
    }

    #[test]
    fn long_tasks_fan_out_on_an_idle_pool() {
        let pool = pool_with_handoff(2, Duration::from_micros(50));
        let gauge = TaskGauge::new();
        let timed = |width: usize| {
            let start = Instant::now();
            let out = pool.run_gauged(&gauge, (0..4usize).collect(), width, |i| {
                // Asleep, not spinning: the speed-up must not depend on how
                // many cores the test machine has free.
                std::thread::sleep(Duration::from_millis(2));
                i
            });
            assert_eq!(out, vec![0, 1, 2, 3]);
            start.elapsed()
        };
        let serial = timed(1);
        assert_eq!(pool.stats().runs_fanned, 0);
        // One that starts before the last one's helper is back in the pool
        // finds the lane taken.
        let fastest = (0..5).map(|_| timed(2)).min().expect("five runs");
        assert!(pool.stats().runs_fanned >= 3, "{:?}", pool.stats());
        assert!(
            fastest < serial.mul_f64(0.75),
            "fanned {fastest:?} vs serial {serial:?}"
        );
    }

    #[test]
    fn occupied_lanes_keep_a_batch_inline() {
        let pool = Arc::new(pool_with_handoff(2, Duration::from_micros(50)));
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let holders: Vec<_> = (0..2)
            .map(|_| {
                let (pool, entered) = (Arc::clone(&pool), entered_tx.clone());
                let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
                let thread = std::thread::spawn(move || {
                    pool.run(vec![release_rx], 1, |release| {
                        entered.send(()).unwrap();
                        release.recv().unwrap();
                    });
                });
                (thread, release_tx)
            })
            .collect();
        entered_rx.recv().unwrap();
        entered_rx.recv().unwrap();
        assert_eq!(pool.stats().busy_lanes, 2);

        // The batch `long_tasks_fan_out_on_an_idle_pool` fans out.
        let gauge = gauge_reading(Duration::from_millis(2));
        let me = std::thread::current().id();
        let ran_on = pool.run_gauged(&gauge, vec![(); 4], 2, |()| std::thread::current().id());
        assert_eq!(ran_on, vec![me; 4]);
        assert_eq!(pool.stats().runs_fanned, 0);

        for (thread, release) in holders {
            release.send(()).unwrap();
            thread.join().unwrap();
        }
        wait_until_idle(&pool);
    }

    #[test]
    fn gauge_relearns_a_hundredfold_change_within_16_batches() {
        let pool = WorkerPool::new(1);
        let gauge = TaskGauge::new();
        let (short, long) = (Duration::from_micros(20), Duration::from_millis(2));
        // Batches until the gauge reads within a factor of two of `cost`.
        let batches_to_learn = |cost: Duration| {
            let want = nanos(cost);
            (1..=16).find(|_| {
                pool.run_gauged(&gauge, vec![(); 4], 1, |()| spin(cost));
                (want / 2..=want * 2).contains(&gauge.task_ns())
            })
        };
        assert!(batches_to_learn(short).is_some());
        let up = batches_to_learn(long);
        assert!(up.is_some(), "gauge reads {} ns", gauge.task_ns());
        let down = batches_to_learn(short);
        assert!(down.is_some(), "gauge reads {} ns", gauge.task_ns());
    }

    #[test]
    fn nested_gauged_batches_complete() {
        // Every outer task fans a gauged batch out from inside a worker (or
        // the caller) while the other lanes are doing the same.
        let pool = pool_with_handoff(4, Duration::from_micros(50));
        let gauge = gauge_reading(Duration::from_millis(50));
        let out = pool.run((0..8usize).collect(), 2, |i| {
            pool.run_gauged(&gauge, (0..8usize).collect(), 4, |j| {
                // Four workers and this test's thread: a thread running a
                // batch inside a batch holds one lane, not two.
                assert!(pool.stats().busy_lanes <= 5);
                i * j
            })
            .iter()
            .sum::<usize>()
        });
        let inner: usize = (0..8).sum();
        assert_eq!(out, (0..8).map(|i| i * inner).collect::<Vec<_>>());
        // The outer batch and some inner ones, from worker and caller alike.
        assert!(pool.stats().runs_fanned > 1, "{:?}", pool.stats());
        wait_until_idle(&pool);
    }

    #[test]
    fn panic_in_gauged_task_propagates_after_batch_settles() {
        let pool = pool_with_handoff(2, Duration::from_micros(50));
        for gauge in [
            TaskGauge::new(),                         // stays inline
            gauge_reading(Duration::from_millis(50)), // fans out
        ] {
            let completed = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.run_gauged(&gauge, (0..8usize).collect(), 2, |i| {
                    assert!(i != 7, "boom");
                    completed.fetch_add(1, Ordering::Relaxed);
                })
            }));
            assert!(caught.is_err());
            assert_eq!(completed.load(Ordering::Relaxed), 7);
            wait_until_idle(&pool);
        }
        assert_eq!(pool.stats().runs_fanned, 1);
        assert_eq!(pool.run(vec![1, 2], 2, |i| i + 1), vec![2, 3]);
    }

    #[test]
    fn spawn_runs_detached_jobs() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..10 {
            let tx = tx.clone();
            pool.spawn(move || {
                let _ = tx.send(i);
            });
        }
        let mut got: Vec<i32> = (0..10).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn width_parsing() {
        assert_eq!(width_from(Some("8".into())), 8);
        assert_eq!(width_from(Some(" 3 ".into())), 3);
        // Invalid or zero falls back to available parallelism (>= 1).
        assert!(width_from(Some("0".into())) >= 1);
        assert!(width_from(Some("nope".into())) >= 1);
        assert!(width_from(None) >= 1);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.width() >= 1);
    }
}
