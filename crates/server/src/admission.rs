//! Admission control: a semaphore-bounded executor pool behind one bounded
//! FIFO queue, plus per-tenant token-bucket rate limits. A queue entry is
//! one request, or one batch of direct top-ks with the same [`BatchKey`]
//! that coalesced while they waited.
//!
//! The contract:
//!
//! * at most `executor_permits` requests execute concurrently, a batch
//!   under one permit;
//! * at most `queue_capacity` entries wait, strictly FIFO: only the head
//!   entry claims a freed permit, so a later entry never overtakes an
//!   earlier one;
//! * a direct top-k that must wait joins, in place, a queued batch of its
//!   key with fewer than `max_batch` members still waiting: it takes no
//!   slot of its own, so at most `queue_capacity × max_batch` requests wait;
//! * anything beyond that is rejected immediately with
//!   [`TvError::Overloaded`] — shedding load at the door is what keeps tail
//!   latency bounded under a burst;
//! * a tenant over its token-bucket rate is likewise rejected with
//!   [`TvError::Overloaded`] while other tenants proceed;
//! * a queued request whose [`Deadline`] expires leaves the queue with
//!   [`TvError::Timeout`] instead of occupying an executor it can no longer
//!   use; a batch member that leaves gives up its own place in the batch
//!   only, and never costs the others theirs.
//!
//! When a batch reaches the head and a permit is free, its first member
//! still waiting runs every waiting member's query under that permit and
//! hands each the reply to its own query. The executor
//! (`EmbeddingService::top_k_many_each`) issues exactly the per-segment
//! searches a one-by-one loop would, so a batch is bit-identical to solo
//! runs: batching changes scheduling, never answers.
//!
//! The steps are usable apart: [`AdmissionController::charge`] (the token
//! bucket; never waits), [`AdmissionController::try_admit`] (a permit only
//! if one is free *and* nobody is queued; never waits),
//! [`AdmissionController::acquire`] (the FIFO wait of one request) and
//! [`AdmissionController::queue_top_k`] (the FIFO wait of a direct top-k
//! that `try_admit` turned away). [`AdmissionController::admit`] is
//! `charge` then `acquire`. The gateway calls the steps itself: it needs to
//! tell a rate-limit rejection from a full queue.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tv_common::{Deadline, Tid, TvError, TvResult};
use tv_embedding::TypedNeighbor;
use tv_hnsw::SearchStats;

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
    /// Maximum concurrently executing requests (the executor pool size;
    /// 0 is taken as 1).
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

/// What makes two direct top-ks coalescible: same attributes, same `k` and
/// `ef`, same read snapshot.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct BatchKey {
    /// Embedding attribute ids being searched.
    pub attr_ids: Vec<u32>,
    /// Result count.
    pub k: usize,
    /// Search beam width.
    pub ef: usize,
    /// Read snapshot.
    pub tid: Tid,
}

/// What the executor returns for one query: its merged top-k (or its
/// error) and the work counters of its own searches.
pub(crate) type Reply = (TvResult<Vec<TypedNeighbor>>, SearchStats);

/// A top-k's share of the batch it ran in.
pub(crate) struct Answer {
    /// The reply to this member's own query.
    pub reply: Reply,
    /// How many queries ran together.
    pub batch_size: usize,
    /// When the batch began to run.
    pub started: Instant,
}

/// A direct top-k waiting in a batch.
struct Member {
    /// Its query; `None` once the member has left.
    query: Option<Vec<f32>>,
    deadline: Deadline,
    /// Where the member that runs the batch sends this one its answer.
    answer: Sender<Answer>,
}

struct Batch {
    key: BatchKey,
    /// In join order. A member that leaves stays as a `None` query, so the
    /// others keep their indices.
    members: Vec<Member>,
}

impl Batch {
    fn waiting(&self) -> usize {
        self.members.iter().filter(|m| m.query.is_some()).count()
    }
}

/// One place in the queue.
struct Entry {
    ticket: u64,
    /// Queue depth when it was enqueued.
    depth: usize,
    /// `None`: one request, member 0.
    batch: Option<Batch>,
}

impl Entry {
    /// Requests waiting in this entry.
    fn waiting(&self) -> usize {
        self.batch.as_ref().map_or(1, Batch::waiting)
    }

    /// The member that claims the entry's permit: the first still waiting.
    fn first_waiting(&self) -> Option<usize> {
        match &self.batch {
            None => Some(0),
            Some(batch) => batch.members.iter().position(|m| m.query.is_some()),
        }
    }
}

struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
}

struct Inner {
    active: usize,
    queue: VecDeque<Entry>,
    next_ticket: u64,
}

/// The admission controller.
pub struct AdmissionController {
    config: AdmissionConfig,
    max_batch: usize,
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
        let mut inner = self.ctl.lock();
        inner.active = inner.active.saturating_sub(1);
        drop(inner);
        self.ctl.cv.notify_all();
    }
}

/// How a queued direct top-k's wait ended.
pub(crate) enum TopKTurn<'a> {
    /// The caller runs its batch.
    Run(BatchRun<'a>),
    /// Another member ran it.
    Answered(Answer),
}

/// A batch whose turn came, held by the member that runs it.
pub(crate) struct BatchRun<'a> {
    permit: Permit<'a>,
    /// Queue depth the batch was enqueued at.
    pub queued_at_depth: usize,
    /// Every waiting member's query in join order, the runner's own first.
    pub queries: Vec<Vec<f32>>,
    /// The most permissive of those members' deadlines.
    pub deadline: Deadline,
    /// The other members' answer channels, in the order of `queries[1..]`.
    others: Vec<Sender<Answer>>,
    started: Instant,
}

impl BatchRun<'_> {
    /// Hand each member the reply to its query (`replies` in the order of
    /// the queries; a member left without one gets an error), then release
    /// the executor. Returns the runner's own answer.
    pub(crate) fn answer(self, replies: Vec<Reply>) -> Answer {
        let (batch_size, started) = (self.others.len() + 1, self.started);
        let mut answers = replies.into_iter().map(|reply| Answer {
            reply,
            batch_size,
            started,
        });
        let own = answers.next().expect("one reply per query");
        for (member, answer) in self.others.into_iter().zip(answers) {
            // A member that left while the batch ran takes no reply.
            let _ = member.send(answer);
        }
        drop(self.permit);
        own
    }
}

impl AdmissionController {
    /// New controller; a queued batch holds at most `max_batch` waiting
    /// top-ks. Both `max_batch` and the permit count are clamped to at
    /// least 1: with no permit nothing could ever run.
    #[must_use]
    pub(crate) fn new(config: AdmissionConfig, max_batch: usize) -> Self {
        AdmissionController {
            config: AdmissionConfig {
                executor_permits: config.executor_permits.max(1),
                ..config
            },
            max_batch: max_batch.max(1),
            inner: Mutex::new(Inner {
                active: 0,
                queue: VecDeque::new(),
                next_ticket: 0,
            }),
            cv: Condvar::new(),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Entries waiting in the queue (a batch is one).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Requests waiting in the queue: each queued request, and each member
    /// of a queued batch that has not left it.
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.lock().queue.iter().map(Entry::waiting).sum()
    }

    /// Requests currently executing.
    #[cfg(test)]
    pub(crate) fn active(&self) -> usize {
        self.lock().active
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
        let mut inner = self.lock();
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
        let mut inner = self.lock();
        if self.take_idle(&mut inner) {
            return Ok((Permit { ctl: self }, AdmitInfo { queued_at_depth: 0 }));
        }
        let ticket = self.enqueue(&mut inner, None)?;
        let entry = self
            .wait_turn(inner, ticket, 0, deadline, tenant)?
            .expect("only its own request takes a one-request entry off the queue");
        Ok((
            Permit { ctl: self },
            AdmitInfo {
                queued_at_depth: entry.depth,
            },
        ))
    }

    /// The FIFO wait of a direct top-k that found no free executor (see
    /// [`try_admit`](Self::try_admit)), charged already: it joins the
    /// earliest queued batch of `key` that has room, or queues a new batch
    /// at the back. When the batch's turn comes its first waiting member
    /// gets [`TopKTurn::Run`] and the others [`TopKTurn::Answered`]. Each
    /// member bounds its wait, queued or while the batch runs, by its own
    /// `deadline`.
    pub(crate) fn queue_top_k(
        &self,
        tenant: &str,
        key: BatchKey,
        query: Vec<f32>,
        deadline: Deadline,
    ) -> TvResult<TopKTurn<'_>> {
        let (answer, answered) = channel();
        let member = Member {
            query: Some(query),
            deadline,
            answer,
        };
        let mut inner = self.lock();
        let max_batch = self.max_batch;
        let open = inner.queue.iter_mut().find_map(|entry| {
            let ticket = entry.ticket;
            let batch = entry.batch.as_mut()?;
            (batch.key == key && batch.waiting() < max_batch).then_some((ticket, batch))
        });
        let (ticket, index) = match open {
            Some((ticket, batch)) => {
                batch.members.push(member);
                (ticket, batch.members.len() - 1)
            }
            None => {
                let members = vec![member];
                let batch = Some(Batch { key, members });
                (self.enqueue(&mut inner, batch)?, 0)
            }
        };
        match self.wait_turn(inner, ticket, index, deadline, tenant)? {
            Some(entry) => Ok(TopKTurn::Run(self.start(entry))),
            None => Self::await_answer(&answered, deadline).map(TopKTurn::Answered),
        }
    }

    /// Put a new entry at the back of the queue, or shed it if the queue is
    /// full. Returns its ticket.
    fn enqueue(&self, inner: &mut Inner, batch: Option<Batch>) -> TvResult<u64> {
        if inner.queue.len() >= self.config.queue_capacity {
            return Err(TvError::Overloaded(format!(
                "admission queue full ({} waiting)",
                inner.queue.len()
            )));
        }
        let ticket = inner.next_ticket;
        inner.next_ticket += 1;
        let depth = inner.queue.len() + 1;
        inner.queue.push_back(Entry {
            ticket,
            depth,
            batch,
        });
        Ok(ticket)
    }

    /// Wait until entry `ticket` is the queue head, an executor is free and
    /// `member` is the entry's first waiting member; then take the entry off
    /// the queue and claim the executor for it. `None` once another member
    /// took the entry. When `deadline` expires first, `member` leaves.
    fn wait_turn(
        &self,
        mut inner: MutexGuard<'_, Inner>,
        ticket: u64,
        member: usize,
        deadline: Deadline,
        tenant: &str,
    ) -> TvResult<Option<Entry>> {
        loop {
            let Some(pos) = inner.queue.iter().position(|e| e.ticket == ticket) else {
                return Ok(None);
            };
            if deadline.expired() {
                Self::leave(&mut inner, pos, member);
                drop(inner);
                self.cv.notify_all();
                return Err(TvError::Timeout(format!(
                    "deadline expired while queued (tenant '{tenant}')"
                )));
            }
            // Only the queue head may claim a permit — that is the FIFO
            // guarantee.
            if pos == 0
                && inner.active < self.config.executor_permits
                && inner.queue[0].first_waiting() == Some(member)
            {
                let entry = inner.queue.pop_front();
                inner.active += 1;
                drop(inner);
                // Wake the next head: more than one permit may be free.
                self.cv.notify_all();
                return Ok(entry);
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

    /// `member` gives up its place in the entry at `pos`; the entry leaves
    /// the queue once nobody in it waits.
    fn leave(inner: &mut Inner, pos: usize, member: usize) {
        if let Some(batch) = &mut inner.queue[pos].batch {
            batch.members[member].query = None;
            if batch.waiting() > 0 {
                return;
            }
        }
        inner.queue.remove(pos);
    }

    /// The batch of `entry`, claimed by its first waiting member with the
    /// permit `wait_turn` took.
    fn start(&self, entry: Entry) -> BatchRun<'_> {
        let batch = entry.batch.expect("a top-k's entry is a batch");
        let mut waiting = batch
            .members
            .into_iter()
            .filter_map(|m| Some((m.query?, m.deadline, m.answer)));
        let (query, deadline, _own) = waiting.next().expect("the runner waits in its batch");
        let mut run = BatchRun {
            permit: Permit { ctl: self },
            queued_at_depth: entry.depth,
            queries: vec![query],
            deadline,
            others: Vec::new(),
            started: Instant::now(),
        };
        for (query, deadline, answer) in waiting {
            run.queries.push(query);
            run.deadline = run.deadline.latest(deadline);
            run.others.push(answer);
        }
        run
    }

    /// Wait for the answer of a batch another member runs, no longer than
    /// `deadline`; a reply that comes later is dropped.
    fn await_answer(answered: &Receiver<Answer>, deadline: Deadline) -> TvResult<Answer> {
        let received = match deadline.remaining() {
            Some(rem) => answered.recv_timeout(rem),
            None => answered.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        received.map_err(|e| match e {
            RecvTimeoutError::Timeout => {
                TvError::Timeout("deadline expired while its batch ran".into())
            }
            RecvTimeoutError::Disconnected => {
                TvError::Execution("the batch's runner dropped this member's reply".into())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread::{spawn, JoinHandle};
    use tv_common::{Neighbor, VertexId};

    fn config(permits: usize, queue: usize) -> AdmissionConfig {
        AdmissionConfig {
            executor_permits: permits,
            queue_capacity: queue,
            rate_limit: None,
        }
    }

    #[test]
    fn fast_path_grants_up_to_permits() {
        let ctl = AdmissionController::new(config(2, 4), 1);
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
        let ctl = Arc::new(AdmissionController::new(config(1, 4), 1));
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
        let ctl = AdmissionController::new(
            AdmissionConfig {
                executor_permits: 8,
                queue_capacity: 8,
                rate_limit: Some(RateLimitConfig {
                    burst: 1.0,
                    per_sec: 0.001,
                }),
            },
            1,
        );
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
        let ctl = Arc::new(AdmissionController::new(config(permits, capacity), 1));
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
        let ctl = Arc::new(AdmissionController::new(config(1, n), 1));
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
        let ctl = AdmissionController::new(
            AdmissionConfig {
                executor_permits: 8,
                queue_capacity: 8,
                rate_limit: Some(RateLimitConfig {
                    burst: 3.0,
                    per_sec: 1.0,
                }),
            },
            1,
        );
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
        let ctl = AdmissionController::new(config(1, 4), 1);
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

    fn key() -> BatchKey {
        BatchKey {
            attr_ids: vec![0],
            k: 4,
            ef: 16,
            tid: Tid(1),
        }
    }

    fn assert_idle(ctl: &AdmissionController) {
        assert_eq!((ctl.queue_depth(), ctl.waiting(), ctl.active()), (0, 0, 0));
    }

    /// What held the executor, in the order it did: a batch (its query
    /// ids and the deadline it ran under) or, with no ids, a plain request.
    #[derive(Default)]
    struct Runs {
        log: Mutex<Vec<(Vec<u64>, Deadline)>>,
        /// When set, the next batch to run waits for a go-ahead here.
        hold: Mutex<Option<std::sync::mpsc::Receiver<()>>>,
    }

    impl Runs {
        fn log(&self) -> Vec<(Vec<u64>, Deadline)> {
            self.log.lock().unwrap().clone()
        }

        /// (batches run, queries run).
        fn counts(&self) -> (usize, usize) {
            let log = self.log();
            let batches = log.iter().filter(|(ids, _)| !ids.is_empty());
            (
                batches.clone().count(),
                batches.map(|(ids, _)| ids.len()).sum(),
            )
        }
    }

    /// One top-k's view of its batch.
    #[derive(Debug, PartialEq)]
    struct Seen {
        /// The id of its reply's hit: its own query.
        id: u64,
        batch_size: usize,
        /// Whether it ran the batch.
        ran: bool,
    }

    /// A direct top-k through the queue, `q` standing for its query. The
    /// member that runs the batch answers each query with a hit whose id is
    /// the query, so routing shows.
    fn top_k(
        ctl: &AdmissionController,
        runs: &Runs,
        key: BatchKey,
        q: f32,
        deadline: Deadline,
    ) -> TvResult<Seen> {
        let (answer, ran) = match ctl.queue_top_k("t", key, vec![q], deadline)? {
            TopKTurn::Run(batch) => {
                let ids = batch.queries.iter().map(|q| q[0] as u64).collect();
                runs.log.lock().unwrap().push((ids, batch.deadline));
                if let Some(hold) = runs.hold.lock().unwrap().take() {
                    hold.recv().unwrap();
                }
                let replies = batch
                    .queries
                    .iter()
                    .map(|q| {
                        let hit = TypedNeighbor {
                            attr_id: 0,
                            vertex_type: 0,
                            neighbor: Neighbor::new(VertexId(q[0] as u64), q[0]),
                        };
                        (Ok(vec![hit]), SearchStats::default())
                    })
                    .collect();
                (batch.answer(replies), true)
            }
            TopKTurn::Answered(answer) => (answer, false),
        };
        Ok(Seen {
            id: answer.reply.0?[0].neighbor.id.0,
            batch_size: answer.batch_size,
            ran,
        })
    }

    /// [`top_k`] on a thread of its own; returns once it waits in the queue
    /// (or has already finished).
    fn spawn_top_k(
        ctl: &Arc<AdmissionController>,
        runs: &Arc<Runs>,
        key: BatchKey,
        q: f32,
        deadline: Deadline,
    ) -> JoinHandle<TvResult<Seen>> {
        let before = ctl.waiting();
        let (ctl2, runs2) = (Arc::clone(ctl), Arc::clone(runs));
        let handle = spawn(move || top_k(&ctl2, &runs2, key, q, deadline));
        while ctl.waiting() == before && !handle.is_finished() {
            std::thread::yield_now();
        }
        handle
    }

    fn seen(id: u64, batch_size: usize, ran: bool) -> Seen {
        Seen {
            id,
            batch_size,
            ran,
        }
    }

    #[test]
    fn an_uncontended_top_k_runs_at_once_alone_and_leaves_nothing_queued() {
        let ctl = AdmissionController::new(config(1, 4), 8);
        let runs = Runs::default();
        let out = top_k(&ctl, &runs, key(), 7.0, Deadline::none()).unwrap();
        assert_eq!(out, seen(7, 1, true));
        assert_eq!(runs.log(), [(vec![7], Deadline::none())]);
        assert_idle(&ctl);
    }

    #[test]
    fn arrivals_behind_a_queued_batch_run_as_one_batch_in_one_slot() {
        let ctl = Arc::new(AdmissionController::new(config(1, 4), 16));
        let runs = Arc::new(Runs::default());
        let gate = ctl.try_admit().unwrap();
        let members: Vec<_> = (0..6)
            .map(|i| spawn_top_k(&ctl, &runs, key(), i as f32, Deadline::none()))
            .collect();
        assert_eq!((ctl.waiting(), ctl.queue_depth()), (6, 1));
        assert_eq!(runs.counts(), (0, 0), "nothing runs before the grant");

        drop(gate);
        for (i, h) in members.into_iter().enumerate() {
            // Each member gets *its own* query's reply back; the first ran.
            assert_eq!(h.join().unwrap().unwrap(), seen(i as u64, 6, i == 0));
        }
        assert_eq!(runs.counts(), (1, 6), "one fan-out, nothing twice or lost");
        assert_idle(&ctl);
    }

    #[test]
    fn a_full_batch_opens_a_second_one() {
        let ctl = Arc::new(AdmissionController::new(config(1, 4), 2));
        let runs = Arc::new(Runs::default());
        let gate = ctl.try_admit().unwrap();
        let members: Vec<_> = (0..3)
            .map(|i| spawn_top_k(&ctl, &runs, key(), i as f32, Deadline::none()))
            .collect();
        assert_eq!((ctl.waiting(), ctl.queue_depth()), (3, 2));

        drop(gate);
        let outs: Vec<Seen> = members
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        assert_eq!(
            outs,
            [seen(0, 2, true), seen(1, 2, false), seen(2, 1, true)]
        );
        let ids: Vec<Vec<u64>> = runs.log().into_iter().map(|(ids, _)| ids).collect();
        assert_eq!(ids, [vec![0, 1], vec![2]]);
        assert_idle(&ctl);
    }

    #[test]
    fn different_keys_never_coalesce() {
        let ctl = Arc::new(AdmissionController::new(config(1, 4), 16));
        let runs = Arc::new(Runs::default());
        let other_key = BatchKey {
            attr_ids: vec![1],
            ..key()
        };
        let gate = ctl.try_admit().unwrap();
        let a = spawn_top_k(&ctl, &runs, key(), 1.0, Deadline::none());
        let b = spawn_top_k(&ctl, &runs, other_key, 2.0, Deadline::none());
        assert_eq!((ctl.waiting(), ctl.queue_depth()), (2, 2));
        drop(gate);
        assert_eq!(a.join().unwrap().unwrap(), seen(1, 1, true));
        assert_eq!(b.join().unwrap().unwrap(), seen(2, 1, true));
        let ids: Vec<Vec<u64>> = runs.log().into_iter().map(|(ids, _)| ids).collect();
        assert_eq!(ids, [vec![1], vec![2]], "in queue order");
        assert_idle(&ctl);
    }

    #[test]
    fn a_full_queue_sheds_a_new_entry_while_a_top_k_still_joins_a_queued_batch() {
        let ctl = Arc::new(AdmissionController::new(config(1, 1), 2));
        let runs = Arc::new(Runs::default());
        let gate = ctl.try_admit().unwrap();
        let first = spawn_top_k(&ctl, &runs, key(), 0.0, Deadline::none());
        // The one slot is taken: a request, or a top-k of another key, is
        // shed at once...
        let overloaded = |r: TvResult<_>| matches!(r, Err(TvError::Overloaded(_)));
        assert!(overloaded(ctl.acquire("t", Deadline::none()).map(|_| ())));
        let other_key = BatchKey { k: 5, ..key() };
        let refused = ctl.queue_top_k("t", other_key, vec![9.0], Deadline::none());
        assert!(overloaded(refused.map(|_| ())));
        // ...while one of the queued key rides the queued batch...
        let second = spawn_top_k(&ctl, &runs, key(), 1.0, Deadline::none());
        assert_eq!((ctl.waiting(), ctl.queue_depth()), (2, 1));
        // ...until that batch is full: `queue_capacity × max_batch` wait.
        let refused = ctl.queue_top_k("t", key(), vec![2.0], Deadline::none());
        assert!(overloaded(refused.map(|_| ())));

        drop(gate);
        assert_eq!(first.join().unwrap().unwrap(), seen(0, 2, true));
        assert_eq!(second.join().unwrap().unwrap(), seen(1, 2, false));
        assert_idle(&ctl);
    }

    /// A leader that timed out used to abandon its batch, and the members
    /// behind it queued again at the back.
    #[test]
    fn a_member_that_leaves_keeps_its_batch_in_place() {
        let ctl = Arc::new(AdmissionController::new(config(1, 4), 16));
        let runs = Arc::new(Runs::default());
        let gate = ctl.try_admit().unwrap();
        let hurried = Deadline::after(Duration::from_millis(100));
        let first = spawn_top_k(&ctl, &runs, key(), 0.0, hurried);
        let patient: Vec<_> = [1.0, 2.0]
            .map(|q| spawn_top_k(&ctl, &runs, key(), q, Deadline::none()))
            .into_iter()
            .collect();
        // A plain request queues behind the batch.
        let plain = {
            let (ctl, runs) = (Arc::clone(&ctl), Arc::clone(&runs));
            spawn(move || {
                let (_permit, info) = ctl.acquire("t", Deadline::none()).unwrap();
                runs.log
                    .lock()
                    .unwrap()
                    .push((Vec::new(), Deadline::none()));
                info.queued_at_depth
            })
        };
        while ctl.queue_depth() < 2 {
            std::thread::yield_now();
        }
        let late = first.join().unwrap();
        assert!(matches!(late, Err(TvError::Timeout(_))), "{late:?}");
        assert_eq!((ctl.waiting(), ctl.queue_depth()), (3, 2));

        drop(gate);
        for (i, h) in patient.into_iter().enumerate() {
            assert_eq!(h.join().unwrap().unwrap(), seen(i as u64 + 1, 2, i == 0));
        }
        assert_eq!(plain.join().unwrap(), 2);
        // The batch ran from its place ahead of the plain request, and the
        // query of the member that left did not run.
        let ids: Vec<Vec<u64>> = runs.log().into_iter().map(|(ids, _)| ids).collect();
        assert_eq!(ids, [vec![1, 2], vec![]]);
        assert_idle(&ctl);
    }

    #[test]
    fn a_batch_runs_under_its_most_permissive_deadline_and_members_keep_their_own() {
        let ctl = Arc::new(AdmissionController::new(config(1, 4), 16));
        let runs = Arc::new(Runs::default());
        let (go, hold) = std::sync::mpsc::channel();
        *runs.hold.lock().unwrap() = Some(hold);
        let gate = ctl.try_admit().unwrap();
        let runner = spawn_top_k(
            &ctl,
            &runs,
            key(),
            0.0,
            Deadline::after(Duration::from_secs(60)),
        );
        let patient = spawn_top_k(&ctl, &runs, key(), 1.0, Deadline::none());
        // A member with a 1 ms budget leaves on its own while the batch is
        // queued: its place goes, its query does not run.
        let hurried = spawn_top_k(
            &ctl,
            &runs,
            key(),
            2.0,
            Deadline::after(Duration::from_millis(1)),
        );
        let late = hurried.join().unwrap();
        assert!(matches!(late, Err(TvError::Timeout(_))), "{late:?}");
        assert_eq!((ctl.waiting(), runs.counts()), (2, (0, 0)));
        // One whose budget ends while the batch runs times out alone.
        let short = spawn_top_k(
            &ctl,
            &runs,
            key(),
            3.0,
            Deadline::after(Duration::from_millis(500)),
        );

        drop(gate);
        while ctl.waiting() > 0 {
            std::thread::yield_now();
        }
        let late = short.join().unwrap();
        assert!(
            matches!(&late, Err(TvError::Timeout(m)) if m.contains("ran")),
            "{late:?}"
        );
        go.send(()).unwrap();
        assert_eq!(runner.join().unwrap().unwrap(), seen(0, 3, true));
        assert_eq!(patient.join().unwrap().unwrap(), seen(1, 3, false));
        // The batch ran, unbounded, for the member that could still use it.
        assert_eq!(runs.log(), [(vec![0, 1, 3], Deadline::none())]);
        assert_idle(&ctl);
    }
}
