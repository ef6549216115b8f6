//! Request batching: coalesce vector top-k queries that share an embedding
//! attribute (and `k`/`ef`/snapshot) into one multi-query segment fan-out —
//! while they wait for an executor, and only then.
//!
//! A direct top-k that finds a free executor never comes here: the gateway
//! runs it at once on the calling thread (`Server::vector_top_k`). One that
//! must queue calls [`Batcher::submit`], which either *joins* the open batch
//! of an already-queued request with the same [`BatchKey`] (a follower: no
//! queue slot of its own, it rides its leader's) or *publishes* a new batch
//! and queues for a permit as its leader. When the leader is granted it
//! seals and unpublishes the batch, runs every member through one executor
//! call under that one permit and hands each member its own reply by move.
//! The only wait is the admission wait that existed anyway; there is no
//! timer. Batches grow with the backlog: at most `max_batch` members per
//! queued leader, so at most `queue_capacity × max_batch` requests wait.
//!
//! Because the executor (`EmbeddingService::top_k_many_each`) issues exactly
//! the per-segment searches a one-by-one loop would, batched results are
//! bit-identical to solo execution — batching changes scheduling, never
//! answers.
//!
//! Deadlines: the batch runs under the most permissive of its members'
//! deadlines; each member bounds its own wait by its own deadline and
//! checks it again on wake-up, so nobody is cut short by — or outlives its
//! budget behind — somebody else's. A leader whose permit is refused
//! outright shares that error with whoever joined; a leader that times out
//! in the queue abandons the batch and its followers start over.
//!
//! Nothing is kept per key: the map holds only batches whose leader is
//! still queued. Lock order is `pending` → `Batch::state`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;
use tv_common::{Deadline, Tid, TvError, TvResult};
use tv_embedding::TypedNeighbor;
use tv_hnsw::SearchStats;

/// What makes two top-k queries coalescible: same attributes, same `k` and
/// `ef`, same read snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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

/// What the executor returns for one member: its merged top-k (or its
/// error) and the work counters of its own searches.
pub(crate) type Reply = (TvResult<Vec<TypedNeighbor>>, SearchStats);

enum Phase {
    /// The leader is queued for a permit (the batch is published and
    /// joinable) or holds it and is executing (it is not).
    Pending,
    /// One reply per member, each taken once by its member.
    Done(Vec<Option<Reply>>),
    /// The leader timed out in the queue; members take their queries back.
    Abandoned,
}

struct BatchState {
    phase: Phase,
    /// Members' queries in join order (index 0 is the leader's).
    queries: Vec<Vec<f32>>,
    /// The most permissive member deadline.
    deadline: Deadline,
    started: Option<Instant>,
}

struct Batch {
    state: Mutex<BatchState>,
    cv: Condvar,
}

/// One participant's view of a finished batch.
pub(crate) struct BatchOutcome {
    /// This query's merged top-k, or the error it ended with.
    pub result: TvResult<Vec<TypedNeighbor>>,
    /// Work counters of this query's own segment searches.
    pub stats: SearchStats,
    /// How many queries executed together.
    pub batch_size: usize,
    /// Whether this caller ran the fan-out for the whole batch.
    pub was_leader: bool,
    /// When the batch's execution began; `None` if it never got a permit.
    pub started: Option<Instant>,
}

impl BatchOutcome {
    fn failed(error: TvError, was_leader: bool) -> Self {
        BatchOutcome {
            result: Err(error),
            stats: SearchStats::default(),
            batch_size: 1,
            was_leader,
            started: None,
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The batching stage.
pub struct Batcher {
    max_batch: usize,
    /// The newest open batch per key; an older one for the same key is full.
    pending: Mutex<HashMap<BatchKey, Arc<Batch>>>,
    waiting: AtomicUsize,
}

impl Batcher {
    /// A batcher capping batches at `max_batch` queries.
    #[must_use]
    pub(crate) fn new(max_batch: usize) -> Self {
        Batcher {
            max_batch: max_batch.max(1),
            pending: Mutex::new(HashMap::new()),
            waiting: AtomicUsize::new(0),
        }
    }

    /// Members of batches whose leader is still queued for a permit.
    #[must_use]
    pub fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }

    /// Submit one query that found no free executor. Blocks until the batch
    /// it joined — or led — has run, or until `deadline`.
    ///
    /// The leader calls `acquire` (the blocking admission wait) and, once
    /// granted, `execute` with every member's query in join order and the
    /// batch's deadline; `execute` returns one [`Reply`] per query in the
    /// same order (a missing one reaches its member as an error), and the
    /// permit is released after they are handed out. A follower's closures
    /// are dropped unused.
    pub(crate) fn submit<P, A, F>(
        &self,
        key: &BatchKey,
        mut query: Vec<f32>,
        deadline: Deadline,
        acquire: A,
        execute: F,
    ) -> BatchOutcome
    where
        A: FnOnce() -> TvResult<P>,
        F: FnOnce(Vec<Vec<f32>>, Deadline) -> Vec<Reply>,
    {
        loop {
            let (batch, idx) = self.join_or_publish(key, query, deadline);
            if idx == 0 {
                return self.lead(key, &batch, deadline, acquire, execute);
            }
            match Self::follow(&batch, idx, deadline) {
                Ok(outcome) => return outcome,
                // Abandoned by its leader: start over with the query back.
                Err(taken_back) => query = taken_back,
            }
        }
    }

    /// Join the open batch for `key`, or publish a new one. Returns the
    /// batch and this query's index within it (0 = the caller leads).
    fn join_or_publish(
        &self,
        key: &BatchKey,
        query: Vec<f32>,
        deadline: Deadline,
    ) -> (Arc<Batch>, usize) {
        let mut pending = lock(&self.pending);
        self.waiting.fetch_add(1, Ordering::SeqCst);
        if let Some(batch) = pending.get(key) {
            let mut st = lock(&batch.state);
            // Published means joinable (see `unpublish`), unless full.
            if st.queries.len() < self.max_batch {
                st.queries.push(query);
                st.deadline = st.deadline.latest(deadline);
                let idx = st.queries.len() - 1;
                drop(st);
                return (Arc::clone(batch), idx);
            }
            // Full: fall through and open a fresh batch in its place.
        }
        let batch = Arc::new(Batch {
            state: Mutex::new(BatchState {
                phase: Phase::Pending,
                queries: vec![query],
                deadline,
                started: None,
            }),
            cv: Condvar::new(),
        });
        pending.insert(key.clone(), Arc::clone(&batch));
        (batch, 0)
    }

    /// Close `batch` to joiners: take it out of the map, under the map's
    /// lock, before anything else about it changes. Returns its state,
    /// locked.
    fn unpublish<'a>(&self, key: &BatchKey, batch: &'a Arc<Batch>) -> MutexGuard<'a, BatchState> {
        let mut pending = lock(&self.pending);
        if pending.get(key).is_some_and(|cur| Arc::ptr_eq(cur, batch)) {
            pending.remove(key);
        }
        let st = lock(&batch.state);
        self.waiting.fetch_sub(st.queries.len(), Ordering::SeqCst);
        st
    }

    /// Queue for the batch's permit, then run the batch (or pass on why it
    /// could not run) and hand every member its reply.
    fn lead<P, A, F>(
        &self,
        key: &BatchKey,
        batch: &Arc<Batch>,
        deadline: Deadline,
        acquire: A,
        execute: F,
    ) -> BatchOutcome
    where
        A: FnOnce() -> TvResult<P>,
        F: FnOnce(Vec<Vec<f32>>, Deadline) -> Vec<Reply>,
    {
        let acquired = acquire();
        let mut st = self.unpublish(key, batch);
        let size = st.queries.len();
        let (permit, replies) = match acquired {
            Ok(permit) => {
                st.started = Some(Instant::now());
                let queries = std::mem::take(&mut st.queries);
                let batch_deadline = st.deadline;
                drop(st);
                let mut replies = execute(queries, batch_deadline);
                replies.resize_with(size, || {
                    let lost = TvError::Execution("batch executor dropped a reply".into());
                    (Err(lost), SearchStats::default())
                });
                (Some(permit), replies)
            }
            Err(e @ TvError::Timeout(_)) => {
                // Queries stay put: the followers take theirs back.
                st.phase = Phase::Abandoned;
                drop(st);
                batch.cv.notify_all();
                return BatchOutcome::failed(e, true);
            }
            Err(e) => {
                // Refused outright: whoever joined meanwhile shares it.
                drop(st);
                let refused = |_| (Err(e.clone()), SearchStats::default());
                (None, (0..size).map(refused).collect())
            }
        };
        let mut slots: Vec<Option<Reply>> = replies.into_iter().map(Some).collect();
        let own = slots[0].take().expect("a batch has its leader's query");
        let mut st = lock(&batch.state);
        let started = st.started;
        st.phase = Phase::Done(slots);
        drop(st);
        batch.cv.notify_all();
        drop(permit);
        Self::outcome(own, deadline, size, true, started)
    }

    /// Wait for the batch's leader. `Err` hands the query back when the
    /// leader abandoned the batch.
    fn follow(batch: &Batch, idx: usize, deadline: Deadline) -> Result<BatchOutcome, Vec<f32>> {
        let mut st = lock(&batch.state);
        loop {
            match &mut st.phase {
                Phase::Done(replies) => {
                    let batch_size = replies.len();
                    let own = replies[idx]
                        .take()
                        .expect("each member takes its reply once");
                    return Ok(Self::outcome(own, deadline, batch_size, false, st.started));
                }
                Phase::Abandoned => return Err(std::mem::take(&mut st.queries[idx])),
                Phase::Pending => {}
            }
            st = match deadline.remaining() {
                // Out of budget: leave. The leader may still run the query;
                // nobody takes that reply.
                Some(rem) if rem.is_zero() => {
                    let late = TvError::Timeout("deadline expired waiting for a batch".into());
                    return Ok(BatchOutcome::failed(late, false));
                }
                Some(rem) => {
                    batch
                        .cv
                        .wait_timeout(st, rem)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
                None => batch.cv.wait(st).unwrap_or_else(|e| e.into_inner()),
            };
        }
    }

    /// A member's view of its reply: its own deadline decides whether the
    /// answer still counts, whatever deadline the batch ran under.
    fn outcome(
        (result, stats): Reply,
        deadline: Deadline,
        batch_size: usize,
        was_leader: bool,
        started: Option<Instant>,
    ) -> BatchOutcome {
        let result = match result {
            Ok(_) if deadline.expired() => Err(TvError::Timeout(
                "deadline expired while the batch ran".into(),
            )),
            other => other,
        };
        BatchOutcome {
            result,
            stats,
            batch_size,
            was_leader,
            started,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::thread::{spawn, JoinHandle};
    use std::time::Duration;
    use tv_common::{Neighbor, VertexId};

    fn key() -> BatchKey {
        BatchKey {
            attr_ids: vec![0],
            k: 4,
            ef: 16,
            tid: Tid(1),
        }
    }

    /// A batcher plus what its fake executor saw: how often it ran, how
    /// many queries it was handed in total, and the last batch's deadline.
    struct Rig {
        batcher: Batcher,
        executions: AtomicUsize,
        executed_queries: AtomicUsize,
        ran_under: Mutex<Option<Deadline>>,
    }

    impl Rig {
        fn new(max_batch: usize) -> Arc<Rig> {
            Arc::new(Rig {
                batcher: Batcher::new(max_batch),
                executions: AtomicUsize::new(0),
                executed_queries: AtomicUsize::new(0),
                ran_under: Mutex::new(None),
            })
        }

        /// Fake executor: each reply encodes its query, so routing shows.
        fn echo(&self, queries: Vec<Vec<f32>>, deadline: Deadline) -> Vec<Reply> {
            *lock(&self.ran_under) = Some(deadline);
            self.executions.fetch_add(1, Ordering::SeqCst);
            self.executed_queries
                .fetch_add(queries.len(), Ordering::SeqCst);
            queries
                .iter()
                .map(|q| {
                    let hit = TypedNeighbor {
                        attr_id: 0,
                        vertex_type: 0,
                        neighbor: Neighbor::new(VertexId(q[0] as u64), q[0]),
                    };
                    (Ok(vec![hit]), SearchStats::default())
                })
                .collect()
        }

        fn open_batches(&self) -> usize {
            lock(&self.batcher.pending).len()
        }

        fn counts(&self) -> (usize, usize) {
            (
                self.executions.load(Ordering::SeqCst),
                self.executed_queries.load(Ordering::SeqCst),
            )
        }

        fn assert_idle(&self) {
            assert_eq!(self.open_batches(), 0, "a batch outlived its leader");
            assert_eq!(self.batcher.waiting(), 0);
        }
    }

    fn id_of(out: &BatchOutcome) -> u64 {
        out.result.as_ref().expect("an answer")[0].neighbor.id.0
    }

    /// A leader held "queued": its `acquire` reports it has been entered,
    /// then blocks until the test sends the grant (or the refusal).
    struct QueuedLeader {
        grant: Sender<TvResult<()>>,
        handle: JoinHandle<BatchOutcome>,
    }

    fn queued_leader(rig: &Arc<Rig>, key: BatchKey, q: f32, deadline: Deadline) -> QueuedLeader {
        let (grant, granted): (_, Receiver<TvResult<()>>) = channel();
        let (entered_tx, entered) = channel();
        let rig2 = Arc::clone(rig);
        let handle = spawn(move || {
            rig2.batcher.submit(
                &key,
                vec![q],
                deadline,
                || {
                    entered_tx.send(()).unwrap();
                    granted.recv().unwrap()
                },
                |qs, d| rig2.echo(qs, d),
            )
        });
        entered.recv().unwrap();
        QueuedLeader { grant, handle }
    }

    /// A caller that joins the open batch; returns once it has joined.
    /// Unless it `may_lead` later (its leader abandoning the batch), asking
    /// for a permit or executing is a failure.
    fn joiner(
        rig: &Arc<Rig>,
        q: f32,
        deadline: Deadline,
        may_lead: bool,
    ) -> JoinHandle<BatchOutcome> {
        let before = rig.batcher.waiting();
        let rig2 = Arc::clone(rig);
        let handle = spawn(move || {
            rig2.batcher.submit(
                &key(),
                vec![q],
                deadline,
                || {
                    assert!(may_lead, "a follower queued for a permit");
                    Ok(())
                },
                |qs, d| rig2.echo(qs, d),
            )
        });
        while rig.batcher.waiting() == before {
            std::thread::yield_now();
        }
        handle
    }

    fn follower(rig: &Arc<Rig>, q: f32, deadline: Deadline) -> JoinHandle<BatchOutcome> {
        joiner(rig, q, deadline, false)
    }

    #[test]
    fn uncontended_submit_runs_at_once_alone_with_nothing_published() {
        let rig = Rig::new(8);
        let out = rig.batcher.submit(
            &key(),
            vec![7.0],
            Deadline::none(),
            || Ok(()),
            |qs, d| {
                rig.assert_idle();
                rig.echo(qs, d)
            },
        );
        assert!(out.was_leader);
        assert!(out.started.is_some());
        assert_eq!((out.batch_size, id_of(&out)), (1, 7));
        assert_eq!(rig.counts(), (1, 1));
        rig.assert_idle();
    }

    #[test]
    fn arrivals_behind_a_queued_leader_execute_as_one_batch() {
        let rig = Rig::new(16);
        let leader = queued_leader(&rig, key(), 0.0, Deadline::none());
        let followers: Vec<_> = (1..6)
            .map(|i| follower(&rig, i as f32, Deadline::none()))
            .collect();
        assert_eq!((rig.batcher.waiting(), rig.open_batches()), (6, 1));
        assert_eq!(rig.counts(), (0, 0), "nothing runs before the grant");

        leader.grant.send(Ok(())).unwrap();
        let led = leader.handle.join().unwrap();
        assert!(led.was_leader);
        assert_eq!((led.batch_size, id_of(&led)), (6, 0));
        for (i, h) in followers.into_iter().enumerate() {
            let out = h.join().unwrap();
            // Each caller gets *its own* query's result back.
            assert!(!out.was_leader);
            assert_eq!((out.batch_size, id_of(&out)), (6, i as u64 + 1));
            assert_eq!(out.started, led.started);
        }
        assert_eq!(rig.counts(), (1, 6), "one fan-out, nothing twice or lost");
        rig.assert_idle();
    }

    #[test]
    fn full_batch_opens_a_second_one() {
        let rig = Rig::new(2);
        let first = queued_leader(&rig, key(), 0.0, Deadline::none());
        let rider = follower(&rig, 1.0, Deadline::none());
        // The open batch is full: the next arrival leads a new one.
        let second = queued_leader(&rig, key(), 2.0, Deadline::none());
        assert_eq!((rig.batcher.waiting(), rig.open_batches()), (3, 1));

        first.grant.send(Ok(())).unwrap();
        let outs = [first.handle.join().unwrap(), rider.join().unwrap()];
        assert_eq!(outs.each_ref().map(|o| o.batch_size), [2, 2]);
        assert_eq!(outs.each_ref().map(id_of), [0, 1]);
        assert_eq!(rig.batcher.waiting(), 1);

        second.grant.send(Ok(())).unwrap();
        let alone = second.handle.join().unwrap();
        assert_eq!((alone.batch_size, id_of(&alone)), (1, 2));
        assert_eq!(rig.counts(), (2, 3));
        rig.assert_idle();
    }

    #[test]
    fn different_keys_never_coalesce() {
        let rig = Rig::new(16);
        let other_key = BatchKey {
            attr_ids: vec![1],
            ..key()
        };
        let a = queued_leader(&rig, key(), 1.0, Deadline::none());
        // Returns only once *its own* acquire was entered: it did not join.
        let b = queued_leader(&rig, other_key, 2.0, Deadline::none());
        assert_eq!((rig.batcher.waiting(), rig.open_batches()), (2, 2));
        b.grant.send(Ok(())).unwrap();
        a.grant.send(Ok(())).unwrap();
        let (a, b) = (a.handle.join().unwrap(), b.handle.join().unwrap());
        assert_eq!((a.batch_size, id_of(&a)), (1, 1));
        assert_eq!((b.batch_size, id_of(&b)), (1, 2));
        assert_eq!(rig.counts(), (2, 2));
        rig.assert_idle();
    }

    #[test]
    fn a_refused_leader_shares_the_refusal_with_its_followers() {
        let rig = Rig::new(16);
        let leader = queued_leader(&rig, key(), 0.0, Deadline::none());
        let followers = [1.0, 2.0].map(|q| follower(&rig, q, Deadline::none()));
        let full = TvError::Overloaded("admission queue full".into());
        leader.grant.send(Err(full)).unwrap();
        let led = leader.handle.join().unwrap();
        assert!(matches!(led.result, Err(TvError::Overloaded(_))));
        for h in followers {
            let out = h.join().unwrap();
            assert!(matches!(out.result, Err(TvError::Overloaded(_))));
            assert_eq!((out.batch_size, out.started), (3, None));
        }
        assert_eq!(rig.counts(), (0, 0));
        rig.assert_idle();
    }

    #[test]
    fn followers_of_a_leader_that_timed_out_queued_start_over_and_succeed() {
        let rig = Rig::new(16);
        let leader = queued_leader(&rig, key(), 0.0, Deadline::none());
        // After the leader gives up its followers lead (or join each
        // other) and get permits at once.
        let followers = [1.0, 2.0].map(|q| joiner(&rig, q, Deadline::none(), true));
        assert_eq!((rig.batcher.waiting(), rig.counts()), (3, (0, 0)));

        let late = TvError::Timeout("deadline expired while queued".into());
        leader.grant.send(Err(late)).unwrap();
        let led = leader.handle.join().unwrap();
        assert!(matches!(led.result, Err(TvError::Timeout(_))));
        for (i, h) in followers.into_iter().enumerate() {
            let out = h.join().unwrap();
            assert_eq!(id_of(&out), i as u64 + 1);
        }
        // The leader's query never ran; each follower's ran exactly once.
        assert_eq!(rig.counts().1, 2);
        rig.assert_idle();
    }

    #[test]
    fn a_batch_runs_under_its_most_permissive_deadline_and_members_keep_their_own() {
        let rig = Rig::new(16);
        // The leader's deadline has passed already (its fake `acquire` does
        // not care); a follower without one joins it.
        let leader = queued_leader(&rig, key(), 0.0, Deadline::expired_now());
        let patient = follower(&rig, 1.0, Deadline::none());
        // A third member with a 1 ms budget leaves on its own, while the
        // batch is still queued.
        let hurried = follower(&rig, 2.0, Deadline::after(Duration::from_millis(1)));
        let hurried = hurried.join().unwrap();
        assert!(matches!(hurried.result, Err(TvError::Timeout(_))));
        assert_eq!(rig.counts(), (0, 0));

        leader.grant.send(Ok(())).unwrap();
        // The batch ran, unbounded, for the member that could still use it...
        let patient = patient.join().unwrap();
        assert_eq!((patient.batch_size, id_of(&patient)), (3, 1));
        assert_eq!(*lock(&rig.ran_under), Some(Deadline::none()));
        // ...and the leader's own expired deadline failed the leader alone.
        let led = leader.handle.join().unwrap();
        assert!(matches!(led.result, Err(TvError::Timeout(_))));
        assert_eq!(rig.counts(), (1, 3));
        rig.assert_idle();
    }
}
