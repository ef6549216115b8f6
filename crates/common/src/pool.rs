//! Persistent work-stealing thread pool shared by every fan-out in the
//! system: query scatter across segments, batched queries, vacuum merge
//! workers, cluster scatter-gather, and parallel index builds.
//!
//! Before this module, every fan-out spawned fresh OS threads per call
//! (`thread::scope` in the embedding service, one dedicated thread per
//! simulated server in the cluster runtime) and split work by *static
//! chunking*, so one slow segment pinned its whole chunk to one worker
//! while the others sat idle. The pool fixes both:
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
//! * **Caller participation.** The batch API ([`WorkerPool::run`]) keeps
//!   the *submitting* thread draining the same queue it published. A batch
//!   therefore completes even when every pool worker is busy, which makes
//!   nested batches (a pool worker running a batch of its own)
//!   deadlock-free by construction. `width <= 1` degrades to a strictly
//!   sequential in-order loop — crash-injection tests rely on that
//!   ordering.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared injector queue the workers block on.
struct Injector {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

/// A fixed-width pool of persistent worker threads.
pub struct WorkerPool {
    injector: Arc<Injector>,
    workers: Vec<JoinHandle<()>>,
    width: usize,
}

impl WorkerPool {
    /// Start a pool with `width` worker threads (clamped to at least 1).
    #[must_use]
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        let injector = Arc::new(Injector {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..width)
            .map(|i| {
                let inj = Arc::clone(&injector);
                std::thread::Builder::new()
                    .name(format!("tv-pool-{i}"))
                    .spawn(move || worker_loop(&inj))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            injector,
            workers,
            width,
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Fire-and-forget: enqueue a job for any free worker. Panics inside
    /// the job are caught so a poisoned job cannot kill a pool worker.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.spawn_boxed(Box::new(job));
    }

    fn spawn_boxed(&self, job: Job) {
        lock(&self.injector.queue).push_back(job);
        self.injector.ready.notify_one();
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
        let n = tasks.len();
        if width <= 1 || n <= 1 {
            return tasks.into_iter().map(f).collect();
        }
        let batch = Batch {
            pending: Mutex::new(tasks.into_iter().enumerate().collect()),
            results: Mutex::new((0..n).map(|_| None).collect()),
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
            f,
        };
        // Helpers dereference `&batch` (a stack borrow) only while holding
        // the gate's read lock; the caller closes the gate (write lock)
        // before `batch` leaves scope, so a helper job still sitting in the
        // queue at that point sees the closed gate and never touches it.
        let gate: Arc<RwLock<bool>> = Arc::new(RwLock::new(true));
        let helpers = (width - 1).min(n - 1).min(self.width);
        for _ in 0..helpers {
            let gate = Arc::clone(&gate);
            let batch_ref = &batch;
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let open = gate.read().unwrap_or_else(PoisonError::into_inner);
                if *open {
                    batch_ref.work();
                }
            });
            // SAFETY: lifetime erasure only — layout of a boxed trait
            // object does not depend on its lifetime bound. The job borrows
            // `batch` (and `f`/`tasks` inside it); the gate protocol above
            // plus the caller blocking until `remaining == 0` guarantee the
            // borrow is never dereferenced after `run` returns.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(job)
            };
            self.spawn_boxed(job);
        }
        batch.work();
        {
            let mut rem = lock(&batch.remaining);
            while *rem > 0 {
                rem = batch.done.wait(rem).unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Blocks until in-flight helpers drop their read locks.
        *gate.write().unwrap_or_else(PoisonError::into_inner) = false;
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
            let _queue = lock(&self.injector.queue);
            self.injector.shutdown.store(true, Ordering::Release);
        }
        self.injector.ready.notify_all();
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

fn worker_loop(inj: &Injector) {
    loop {
        let job = {
            let mut q = lock(&inj.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if inj.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = inj.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            Some(job) => {
                let _ = catch_unwind(AssertUnwindSafe(job));
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
