//! Admission control: a semaphore-bounded executor pool behind a bounded
//! FIFO queue, plus per-tenant token-bucket rate limits.
//!
//! The contract:
//!
//! * at most `executor_permits` requests execute concurrently;
//! * at most `queue_capacity` more may wait, strictly FIFO (a later arrival
//!   can never overtake an earlier one);
//! * anything beyond that is rejected immediately with
//!   [`TvError::Overloaded`] — shedding load at the door is what keeps tail
//!   latency bounded under a burst;
//! * a tenant over its token-bucket rate is likewise rejected with
//!   [`TvError::Overloaded`] while other tenants proceed;
//! * a queued request whose [`Deadline`] expires leaves the queue with
//!   [`TvError::Timeout`] instead of occupying an executor it can no longer
//!   use.
//!
//! Three steps make it up, usable apart: [`AdmissionController::charge`]
//! (the token bucket; never waits), [`AdmissionController::try_admit`] (a
//! permit only if one is free *and* nobody is queued; never waits) and
//! [`AdmissionController::acquire`] (the FIFO wait).
//! [`AdmissionController::admit`] is `charge` then `acquire`. The gateway
//! calls the steps itself: it needs to tell a rate-limit rejection from a
//! full queue, and a direct top-k that `try_admit` turns away coalesces with
//! other waiting top-ks before it queues (see `batch`).

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};
use tv_common::{Deadline, TvError, TvResult};

/// Per-tenant token-bucket rate limit.
#[derive(Debug, Clone, Copy)]
pub struct RateLimitConfig {
    /// Bucket capacity (maximum burst size).
    pub burst: f64,
    /// Sustained refill rate in requests per second.
    pub per_sec: f64,
}

/// Admission-control tuning.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Maximum concurrently executing requests (the executor pool size).
    pub executor_permits: usize,
    /// Maximum requests waiting behind the executing ones.
    pub queue_capacity: usize,
    /// Optional per-tenant rate limit (None = unlimited).
    pub rate_limit: Option<RateLimitConfig>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            executor_permits: std::thread::available_parallelism().map_or(4, |n| n.get()),
            queue_capacity: 64,
            rate_limit: None,
        }
    }
}

struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
}

struct Inner {
    active: usize,
    queue: VecDeque<u64>,
    next_ticket: u64,
}

/// The admission controller.
pub struct AdmissionController {
    config: AdmissionConfig,
    inner: Mutex<Inner>,
    cv: Condvar,
    buckets: Mutex<HashMap<String, TokenBucket>>,
}

/// The tenant's token bucket was empty: the typed outcome of
/// [`AdmissionController::charge`]. Converts into the
/// [`TvError::Overloaded`] callers see.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RateLimited {
    /// The throttled tenant.
    pub tenant: String,
}

impl From<RateLimited> for TvError {
    fn from(r: RateLimited) -> Self {
        TvError::Overloaded(format!("tenant '{}' is over its rate limit", r.tenant))
    }
}

/// What admission observed for one granted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitInfo {
    /// Queue depth at enqueue time (0 = granted without queuing).
    pub queued_at_depth: usize,
}

/// RAII execution permit; dropping it frees an executor slot and wakes the
/// queue head.
pub struct Permit<'a> {
    ctl: &'a AdmissionController,
}

impl std::fmt::Debug for Permit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit").finish_non_exhaustive()
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut inner = self.ctl.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.active = inner.active.saturating_sub(1);
        drop(inner);
        self.ctl.cv.notify_all();
    }
}

impl AdmissionController {
    /// New controller.
    #[must_use]
    pub(crate) fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            inner: Mutex::new(Inner {
                active: 0,
                queue: VecDeque::new(),
                next_ticket: 0,
            }),
            cv: Condvar::new(),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Requests currently waiting in the queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }

    /// Requests currently executing.
    #[cfg(test)]
    pub(crate) fn active(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).active
    }

    /// Take one token from `tenant`'s bucket. Every request pays this
    /// before it asks for a permit, whichever way it then gets one.
    ///
    /// Note a rate-limited tenant's rejected request still consumed its
    /// token: probing while throttled keeps you throttled.
    pub(crate) fn charge(&self, tenant: &str) -> Result<(), RateLimited> {
        let Some(rl) = self.config.rate_limit else {
            return Ok(());
        };
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        let bucket = buckets
            .entry(tenant.to_string())
            .or_insert_with(|| TokenBucket {
                tokens: rl.burst,
                last_refill: now,
            });
        let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * rl.per_sec).min(rl.burst);
        bucket.last_refill = now;
        if bucket.tokens < 1.0 {
            return Err(RateLimited {
                tenant: tenant.to_string(),
            });
        }
        bucket.tokens -= 1.0;
        Ok(())
    }

    /// A permit if an executor is free and nobody is queued ahead (so taking
    /// it overtakes no one), else `None`. Never waits.
    #[must_use]
    pub(crate) fn try_admit(&self) -> Option<Permit<'_>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.take_idle(&mut inner).then(|| Permit { ctl: self })
    }

    /// Claim an executor if one is free and nobody is queued ahead.
    fn take_idle(&self, inner: &mut Inner) -> bool {
        let idle = inner.active < self.config.executor_permits && inner.queue.is_empty();
        if idle {
            inner.active += 1;
        }
        idle
    }

    /// Admit one request for `tenant`: [`charge`](Self::charge), then
    /// [`acquire`](Self::acquire). Errors are immediate
    /// ([`TvError::Overloaded`]) except the deadline path
    /// ([`TvError::Timeout`]), which fires while queued.
    pub fn admit(&self, tenant: &str, deadline: Deadline) -> TvResult<(Permit<'_>, AdmitInfo)> {
        self.charge(tenant)?;
        self.acquire(tenant, deadline)
    }

    /// Take a permit, blocking (FIFO) while the pool is saturated; the
    /// request has been charged already. `tenant` only labels the timeout.
    pub(crate) fn acquire(
        &self,
        tenant: &str,
        deadline: Deadline,
    ) -> TvResult<(Permit<'_>, AdmitInfo)> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());

        if self.take_idle(&mut inner) {
            return Ok((Permit { ctl: self }, AdmitInfo { queued_at_depth: 0 }));
        }

        // Bounded queue: shed anything beyond capacity.
        if inner.queue.len() >= self.config.queue_capacity {
            return Err(TvError::Overloaded(format!(
                "admission queue full ({} waiting)",
                inner.queue.len()
            )));
        }
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        inner.queue.push_back(ticket);
        let depth = inner.queue.len();

        loop {
            if deadline.expired() {
                inner.queue.retain(|&t| t != ticket);
                drop(inner);
                self.cv.notify_all();
                return Err(TvError::Timeout(format!(
                    "deadline expired while queued (tenant '{tenant}')"
                )));
            }
            // Only the queue head may claim a permit — that is the FIFO
            // guarantee.
            if inner.queue.front() == Some(&ticket) && inner.active < self.config.executor_permits {
                inner.queue.pop_front();
                inner.active += 1;
                drop(inner);
                // Wake the next head: more than one permit may be free.
                self.cv.notify_all();
                return Ok((
                    Permit { ctl: self },
                    AdmitInfo {
                        queued_at_depth: depth,
                    },
                ));
            }
            inner = match deadline.remaining() {
                Some(rem) => {
                    // Bounded wait so an expiring deadline is noticed.
                    let wait = rem.min(Duration::from_millis(20));
                    self.cv
                        .wait_timeout(inner, wait)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
                None => self.cv.wait(inner).unwrap_or_else(|e| e.into_inner()),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn config(permits: usize, queue: usize) -> AdmissionConfig {
        AdmissionConfig {
            executor_permits: permits,
            queue_capacity: queue,
            rate_limit: None,
        }
    }

    #[test]
    fn fast_path_grants_up_to_permits() {
        let ctl = AdmissionController::new(config(2, 4));
        let (p1, i1) = ctl.admit("a", Deadline::none()).unwrap();
        let (p2, i2) = ctl.admit("a", Deadline::none()).unwrap();
        assert_eq!((i1.queued_at_depth, i2.queued_at_depth), (0, 0));
        assert_eq!(ctl.active(), 2);
        drop(p1);
        drop(p2);
        assert_eq!(ctl.active(), 0);
    }

    #[test]
    fn try_admit_overtakes_nobody_and_never_waits() {
        let ctl = Arc::new(AdmissionController::new(config(1, 4)));
        let gate = ctl.try_admit().expect("an idle pool grants at once");
        assert_eq!(ctl.active(), 1);
        assert!(ctl.try_admit().is_none(), "no free executor");
        let queued = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || drop(ctl.acquire("w", Deadline::none()).unwrap()))
        };
        while ctl.queue_depth() < 1 {
            std::thread::yield_now();
        }
        drop(gate);
        // Whether or not the waiter has claimed the freed permit yet, it may
        // not be overtaken: the pool is busy or the queue is not empty.
        if let Some(permit) = ctl.try_admit() {
            assert_eq!(ctl.queue_depth(), 0);
            drop(permit);
        }
        queued.join().unwrap();
        assert_eq!((ctl.active(), ctl.queue_depth()), (0, 0));
    }

    #[test]
    fn charge_is_typed_and_acquire_alone_charges_nothing() {
        let ctl = AdmissionController::new(AdmissionConfig {
            executor_permits: 8,
            queue_capacity: 8,
            rate_limit: Some(RateLimitConfig {
                burst: 1.0,
                per_sec: 0.001,
            }),
        });
        assert_eq!(ctl.charge("t"), Ok(()));
        let limited = ctl.charge("t").unwrap_err();
        assert_eq!(limited.tenant, "t");
        assert!(matches!(TvError::from(limited), TvError::Overloaded(_)));
        // The bucket is empty, yet a charged request still gets its permit.
        assert!(ctl.acquire("t", Deadline::none()).is_ok());
        assert!(ctl.try_admit().is_some());
        assert!(ctl.admit("t", Deadline::none()).is_err());
    }

    #[test]
    fn queue_bound_holds_under_burst_with_rejections_and_no_deadlock() {
        let permits = 2;
        let capacity = 3;
        let burst = 24;
        let ctl = Arc::new(AdmissionController::new(config(permits, capacity)));
        let rejected = Arc::new(AtomicUsize::new(0));
        let completed = Arc::new(AtomicUsize::new(0));
        let max_in_flight = Arc::new(AtomicUsize::new(0));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..burst {
            let ctl = Arc::clone(&ctl);
            let rejected = Arc::clone(&rejected);
            let completed = Arc::clone(&completed);
            let max_in_flight = Arc::clone(&max_in_flight);
            let in_flight = Arc::clone(&in_flight);
            handles.push(std::thread::spawn(move || {
                match ctl.admit("burst", Deadline::none()) {
                    Ok((_permit, _)) => {
                        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        max_in_flight.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(5));
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(TvError::Overloaded(_)) => {
                        rejected.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }));
        }
        for h in handles {
            h.join().unwrap(); // no deadlock: every thread finishes
        }
        let r = rejected.load(Ordering::SeqCst);
        let c = completed.load(Ordering::SeqCst);
        assert_eq!(r + c, burst);
        // A 24-request instantaneous burst against 2 permits + 3 queue
        // slots must shed load.
        assert!(r > 0, "expected rejections under burst");
        assert!(c >= permits + capacity, "queued requests must complete");
        assert!(max_in_flight.load(Ordering::SeqCst) <= permits);
        assert_eq!(ctl.active(), 0);
        assert_eq!(ctl.queue_depth(), 0);
    }

    #[test]
    fn fifo_order_preserved() {
        let n = 6;
        let ctl = Arc::new(AdmissionController::new(config(1, n)));
        // Occupy the only permit so every worker queues.
        let (gate, _) = ctl.admit("main", Deadline::none()).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..n {
            let worker_ctl = Arc::clone(&ctl);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let (_permit, info) = worker_ctl.admit("w", Deadline::none()).unwrap();
                assert!(info.queued_at_depth > 0);
                order.lock().unwrap().push(i);
            }));
            // Wait until worker i is actually queued so arrival order is
            // deterministic.
            while ctl.queue_depth() < i + 1 {
                std::thread::yield_now();
            }
        }
        drop(gate);
        for h in handles {
            h.join().unwrap();
        }
        let got = order.lock().unwrap().clone();
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "FIFO violated");
    }

    #[test]
    fn rate_limited_tenant_throttled_while_others_proceed() {
        let ctl = AdmissionController::new(AdmissionConfig {
            executor_permits: 8,
            queue_capacity: 8,
            rate_limit: Some(RateLimitConfig {
                burst: 3.0,
                per_sec: 1.0,
            }),
        });
        // Tenant "noisy" burns its burst...
        let mut permits = Vec::new();
        for _ in 0..3 {
            permits.push(ctl.admit("noisy", Deadline::none()).unwrap());
        }
        // ...and is then rejected.
        assert!(matches!(
            ctl.admit("noisy", Deadline::none()),
            Err(TvError::Overloaded(_))
        ));
        // A different tenant still gets in immediately.
        let (ok, info) = ctl.admit("quiet", Deadline::none()).unwrap();
        assert_eq!(info.queued_at_depth, 0);
        drop(ok);
        drop(permits);
        // After ~1s of refill the noisy tenant recovers one token.
        std::thread::sleep(Duration::from_millis(1100));
        assert!(ctl.admit("noisy", Deadline::none()).is_ok());
    }

    #[test]
    fn queued_request_times_out_and_leaves_queue() {
        let ctl = AdmissionController::new(config(1, 4));
        let (gate, _) = ctl.admit("main", Deadline::none()).unwrap();
        let err = ctl
            .admit("late", Deadline::after(Duration::from_millis(40)))
            .unwrap_err();
        assert!(matches!(err, TvError::Timeout(_)));
        assert_eq!(ctl.queue_depth(), 0, "timed-out ticket must leave queue");
        drop(gate);
        // Queue is clean: the next request is a fast-path grant.
        let (_p, info) = ctl.admit("next", Deadline::none()).unwrap();
        assert_eq!(info.queued_at_depth, 0);
    }
}
