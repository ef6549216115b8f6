//! The coordinator/worker message-passing runtime (Fig. 5).
//!
//! Server work runs on a shared [`WorkerPool`] sized to the server count;
//! a `std::sync::mpsc` channel per query plays the network. The coordinator scatters per-server
//! top-k requests as pool jobs, workers search their local embedding
//! segments and push per-segment `(id, distance)` lists into the response
//! pool, and the coordinator performs the global merge. A coordinator can
//! also function as a worker (the paper notes this); in the runtime the
//! coordinator is just the caller's thread.
//!
//! ## Failure model
//!
//! The paper's MPP design assumes every scatter reaches a live holder; this
//! runtime does not. Three mechanisms make the scatter-gather robust:
//!
//! * **Fault injection** ([`Injector`]) — a worker hits
//!   [`Point::WorkerRecv`] before it searches and [`Point::WorkerReply`]
//!   before it answers; a test arms them to swallow the request, drop the
//!   reply, delay or pause, so every recovery path below is exercised by
//!   tests rather than only reasoned about.
//! * **Retry + hedging** ([`RetryPolicy`]) — a server that does not reply
//!   within `attempt_timeout` is declared a per-query suspect and its
//!   segments are re-routed to live replica holders in bounded-backoff
//!   waves; optionally the slowest outstanding server's request is
//!   duplicated (hedged) to a replica and the first reply wins. Replies are
//!   accepted per *segment*, so a late original and a hedge never
//!   double-count. All waits are budgeted by [`Deadline::bounded_wait`].
//! * **Degraded mode** (`RuntimeConfig::degraded_mode`) — instead of
//!   discarding every finished per-segment list when something fails, the
//!   query returns the partial global merge plus an honest [`Coverage`].
//!   Strict mode (the default) keeps the original fail-hard behavior.

use crate::migrate::MigrationErrors;
use crate::placement::{Placement, PlacementTable};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tv_common::inject::{Injector, Point};
use tv_common::{
    merge_topk, Deadline, Neighbor, PlannerConfig, RetryPolicy, SegmentId, Tid, TvError, TvResult,
    WorkerPool,
};
use tv_embedding::EmbeddingSegment;
use tv_hnsw::{DeltaRecord, SearchStats};

/// One server's local segment store. Replicas registered through
/// [`ClusterRuntime::add_segment`] share a single [`EmbeddingSegment`]
/// `Arc`; a migrated-in copy is an independent instance kept convergent by
/// delta-tail replay.
type SegmentStore = Arc<RwLock<HashMap<SegmentId, Arc<EmbeddingSegment>>>>;

/// Runtime configuration.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Number of worker servers.
    pub servers: usize,
    /// Replication factor for segments.
    pub replication: usize,
    /// Filtered-search planner knobs forwarded to segment searches.
    pub planner: PlannerConfig,
    /// Coordinator-side failure detection, replica retry, and hedging.
    pub retry: RetryPolicy,
    /// `true`: failures degrade the answer (partial results + accurate
    /// [`Coverage`]) instead of failing it. `false` (default): keep the
    /// strict behavior — unroutable segments and expired deadlines error.
    pub degraded_mode: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            servers: 4,
            replication: 1,
            planner: PlannerConfig::default(),
            retry: RetryPolicy::default(),
            degraded_mode: false,
        }
    }
}

/// How much of the query the answer actually reflects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Segments whose contribution is exact: searched by a worker.
    pub segments_searched: usize,
    /// Segments registered with the cluster.
    pub segments_total: usize,
    /// Distinct servers that failed to serve during this query: declared
    /// suspect after a timeout, unreachable, or down while being the only
    /// holder of an unsearched segment.
    pub servers_failed: usize,
}

impl Coverage {
    /// True when every segment contributed exactly.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.segments_searched == self.segments_total
    }

    /// Searched fraction in `[0, 1]` (1.0 for an empty cluster).
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.segments_total == 0 {
            1.0
        } else {
            self.segments_searched as f64 / self.segments_total as f64
        }
    }
}

/// A completed distributed top-k: the global merge plus everything the
/// serving layer needs to reason about how it was obtained.
#[derive(Debug, Clone)]
pub struct ClusterResponse {
    /// Globally merged top-k, nearest-first.
    pub neighbors: Vec<Neighbor>,
    /// Per-reply worker compute times (one entry per accepted reply).
    pub times: Vec<Duration>,
    /// Merged search statistics across accepted replies.
    pub stats: SearchStats,
    /// How much of the cluster the answer reflects.
    pub coverage: Coverage,
    /// Re-routed per-server requests sent in retry waves after the scatter.
    pub retries: u64,
    /// Hedged (duplicate) requests sent to replicas of slow servers.
    pub hedges: u64,
    /// Segments re-routed mid-query because the addressed server had
    /// migrated them away (the query pinned an older placement generation
    /// at scatter; the coordinator re-resolved against the fresh table).
    pub moved_redirects: u64,
    /// Segments that contributed nothing (sorted; empty when complete).
    pub unsearched: Vec<SegmentId>,
}

/// One per-server request, executed as a pool job (failover and retry
/// waves shift segments between holders).
struct Request {
    server: usize,
    query: Arc<Vec<f32>>,
    k: usize,
    ef: usize,
    tid: Tid,
    /// Segments this server must search for this query.
    segments: Vec<SegmentId>,
    /// Abandon the scatter-gather mid-flight once this expires (checked
    /// at every segment-search boundary in the worker loop).
    deadline: Deadline,
    reply: Sender<WorkerReply>,
}

/// One worker's answer: per-segment result lists so the coordinator can
/// account coverage exactly and dedupe retried/hedged segments.
struct WorkerReply {
    server: usize,
    results: Vec<(SegmentId, Vec<Neighbor>)>,
    /// Segments the coordinator asked for that this server's store no
    /// longer holds — migrated away after the query pinned its placement.
    /// The coordinator re-routes them against the fresh table.
    moved: Vec<SegmentId>,
    stats: SearchStats,
    took: Duration,
    timed_out: bool,
}

/// A running cluster: a worker pool serving embedding segments.
pub struct ClusterRuntime {
    /// The configuration the runtime was started with.
    pub config: RuntimeConfig,
    /// Placement *policy*: where a newly registered segment's replicas land.
    policy: Placement,
    /// Placement *authority*: the generation-versioned routing table.
    /// Swapped atomically (behind `Arc`) at migration flips; queries clone
    /// the `Arc` once at scatter and keep that exact view to completion.
    table: RwLock<Arc<PlacementTable>>,
    /// Per-server segment stores (server `i` owns `stores[i]`). A worker
    /// only ever sees its own store, so a drained server answers `Moved`
    /// rather than silently serving a stale copy.
    stores: Vec<SegmentStore>,
    /// Per-segment append gates: [`ClusterRuntime::append_deltas`] holds a
    /// segment's gate for the duration of the append, and the migration
    /// flip holds it across final-tail drain + table swap, so no committed
    /// record can fall between the source and destination copies.
    write_gates: Mutex<HashMap<SegmentId, Arc<Mutex<()>>>>,
    /// Migration failure log (phase, segment, error) — the `VacuumErrors`
    /// pattern: aborts are recorded, never silently swallowed.
    migration_errors: Arc<MigrationErrors>,
    /// Shared execution pool: one warm worker per server, so a delayed or
    /// faulted request occupies one slot without starving the others. This
    /// runtime owns its pool (rather than using the process-global one) so
    /// injected fault delays cannot stall unrelated query fan-out.
    pool: Arc<WorkerPool>,
    down: RwLock<Vec<usize>>,
    injector: Injector,
}

impl Drop for ClusterRuntime {
    /// Resume any worker a test left paused: the pool joins its threads.
    fn drop(&mut self) {
        self.injector.clear();
    }
}

impl ClusterRuntime {
    /// Spin up the server worker pool.
    #[must_use]
    pub fn start(config: RuntimeConfig) -> Self {
        let policy = Placement::new(config.servers, config.replication);
        let stores = (0..config.servers)
            .map(|_| Arc::new(RwLock::new(HashMap::new())))
            .collect();
        let pool = Arc::new(WorkerPool::new(config.servers.max(1)));
        ClusterRuntime {
            table: RwLock::new(Arc::new(PlacementTable::new(config.servers))),
            config,
            policy,
            stores,
            write_gates: Mutex::new(HashMap::new()),
            migration_errors: Arc::new(MigrationErrors::default()),
            pool,
            down: RwLock::new(Vec::new()),
            injector: Injector::for_servers(config.servers),
        }
    }

    /// Dispatch one per-server request to the pool. The job pushes a
    /// [`WorkerReply`] into the response channel unless a failing injection
    /// point swallows the request or drops the reply; the coordinator's
    /// attempt timeout detects either silence.
    fn dispatch(&self, req: Request) {
        let store = Arc::clone(&self.stores[req.server]);
        let injector = self.injector.clone();
        let planner = self.config.planner;
        self.pool.spawn(move || {
            let server = req.server;
            if injector.hit(Point::WorkerRecv { server }).is_err() {
                return;
            }
            let started = Instant::now();
            let mut results: Vec<(SegmentId, Vec<Neighbor>)> = Vec::new();
            let mut moved: Vec<SegmentId> = Vec::new();
            let mut stats = SearchStats::default();
            let mut timed_out = false;
            let map = store.read();
            for seg_id in req.segments {
                if req.deadline.expired() {
                    timed_out = true;
                    break;
                }
                if let Some(seg) = map.get(&seg_id) {
                    let (r, s) = seg.search(&req.query, req.k, req.ef, None, req.tid, &planner);
                    stats.merge(&s);
                    results.push((seg_id, r));
                } else {
                    // This server no longer (or never) holds the segment —
                    // the coordinator routed against a pre-flip table.
                    // Report it as moved rather than inventing an answer.
                    moved.push(seg_id);
                }
            }
            drop(map);
            if injector.hit(Point::WorkerReply { server }).is_err() {
                return;
            }
            // Response pool: per-segment ids + distances back to the
            // coordinator.
            let _ = req.reply.send(WorkerReply {
                server,
                results,
                moved,
                stats,
                took: started.elapsed(),
                timed_out,
            });
        });
    }

    /// Register an embedding segment with the cluster. The holders come
    /// from the round-robin [`Placement`] policy; all replicas share this
    /// one instance. Registration does not bump the placement generation —
    /// it cannot invalidate any in-flight route.
    pub fn add_segment(&self, segment: Arc<EmbeddingSegment>) {
        let id = segment.segment_id;
        let holders = self.policy.holders(id);
        for &h in &holders {
            self.stores[h].write().insert(id, Arc::clone(&segment));
        }
        let mut table = self.table.write();
        *table = Arc::new(table.assign(id, holders));
    }

    /// The currently serving copy of `seg` (the first live table holder's),
    /// or `None` if unknown everywhere.
    #[must_use]
    pub fn segment(&self, seg: SegmentId) -> Option<Arc<EmbeddingSegment>> {
        let table = self.table.read().clone();
        for &h in table.holders(seg) {
            if let Some(s) = self.stores[h].read().get(&seg) {
                return Some(Arc::clone(s));
            }
        }
        None
    }

    /// The current placement table. Queries clone this `Arc` once at
    /// scatter and route against that exact view to completion; a flip
    /// committed mid-query swaps the runtime's table without touching any
    /// pinned clone.
    #[must_use]
    pub fn placement(&self) -> Arc<PlacementTable> {
        self.table.read().clone()
    }

    /// The current placement generation (bumped once per committed
    /// migration flip).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.table.read().generation()
    }

    /// Append committed delta records to every distinct copy of `seg`,
    /// under the segment's append gate. During a live migration the gate
    /// serializes appends against the flip critical section: a record
    /// either lands on the source in time for the final-tail drain or on
    /// the destination after the flip — never in the gap between.
    pub fn append_deltas(&self, seg: SegmentId, records: &[DeltaRecord]) -> TvResult<()> {
        let gate = self.write_gate(seg);
        let _guard = gate.lock();
        let table = self.table.read().clone();
        let holders = table.holders(seg);
        if holders.is_empty() {
            return Err(TvError::NotFound(format!(
                "segment {} not registered with the cluster",
                seg.0
            )));
        }
        let mut targets: Vec<Arc<EmbeddingSegment>> = Vec::new();
        for &h in holders {
            if let Some(s) = self.stores[h].read().get(&seg) {
                if !targets.iter().any(|t| Arc::ptr_eq(t, s)) {
                    targets.push(Arc::clone(s));
                }
            }
        }
        if targets.is_empty() {
            return Err(TvError::Cluster(format!(
                "no holder of segment {} has a local copy",
                seg.0
            )));
        }
        // Copies of one segment share a declaration, so a batch the first
        // refuses (wrong dimension, NaN/±∞) reaches none of them.
        for t in targets {
            t.append_deltas(records)?;
        }
        Ok(())
    }

    /// Search `seg` directly on `server` — the per-server request surface.
    /// A server that does not hold the segment answers with the typed
    /// [`TvError::Moved`] redirect (carrying the current generation) rather
    /// than an empty result that could be mistaken for a real answer.
    pub fn search_on(
        &self,
        server: usize,
        seg: SegmentId,
        query: &[f32],
        k: usize,
        ef: usize,
        tid: Tid,
    ) -> TvResult<Vec<Neighbor>> {
        let store = self.stores.get(server).ok_or_else(|| {
            TvError::InvalidArgument(format!("server {server} outside the cluster"))
        })?;
        let Some(segment) = store.read().get(&seg).cloned() else {
            return Err(TvError::Moved {
                segment: seg,
                generation: self.generation(),
            });
        };
        segment.check_vector(query)?;
        let (r, _) = segment.search(query, k, ef, None, tid, &self.config.planner);
        Ok(r)
    }

    /// The migration failure log (phase, segment, error per abort).
    #[must_use]
    pub fn migration_errors(&self) -> &MigrationErrors {
        &self.migration_errors
    }

    /// Server `s`'s local segment store (migration installs/releases copies
    /// here).
    pub(crate) fn store(&self, server: usize) -> &SegmentStore {
        &self.stores[server]
    }

    /// The append gate for `seg` (created on first use).
    pub(crate) fn write_gate(&self, seg: SegmentId) -> Arc<Mutex<()>> {
        Arc::clone(self.write_gates.lock().entry(seg).or_default())
    }

    /// Atomically publish the placement move `seg: from -> to`, returning
    /// the new generation. Validation (source holds, destination does not)
    /// lives in [`PlacementTable::with_move`]. Callers must hold the
    /// segment's append gate.
    pub(crate) fn commit_flip(&self, seg: SegmentId, from: usize, to: usize) -> TvResult<u64> {
        let mut table = self.table.write();
        let next = table.with_move(seg, from, to)?;
        let generation = next.generation();
        *table = Arc::new(next);
        Ok(generation)
    }

    /// The injection plan every worker hits on each request: arm
    /// [`Point::WorkerRecv`] / [`Point::WorkerReply`] of a server on it.
    #[must_use]
    pub fn injector(&self) -> &Injector {
        &self.injector
    }

    /// Mark a server down (its segments shift to replicas).
    pub fn fail_server(&self, server: usize) {
        let mut down = self.down.write();
        if !down.contains(&server) {
            down.push(server);
        }
    }

    /// Bring a failed server back.
    pub fn recover_server(&self, server: usize) {
        self.down.write().retain(|&s| s != server);
    }

    /// Distributed top-k: scatter per-server requests, gather and globally
    /// merge, recovering from unresponsive servers via replica retry.
    /// `no_filter` takes no value: see [`ClusterRuntime::top_k_deadline`].
    pub fn top_k(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        tid: Tid,
        no_filter: Option<Infallible>,
    ) -> TvResult<ClusterResponse> {
        self.top_k_deadline(query, k, ef, tid, no_filter, Deadline::none())
    }

    /// Route each pending segment to a live, non-suspect holder of the
    /// given (query-pinned) placement table. Returns the per-server
    /// assignment and the segments with no holder left.
    fn route(
        table: &PlacementTable,
        pending: &HashSet<SegmentId>,
        down: &[usize],
        suspects: &HashSet<usize>,
    ) -> (HashMap<usize, Vec<SegmentId>>, Vec<SegmentId>) {
        let excluded: Vec<usize> = suspects.iter().copied().collect();
        let mut assignment: HashMap<usize, Vec<SegmentId>> = HashMap::new();
        let mut unroutable = Vec::new();
        for &seg in pending {
            match table.serving_excluding(seg, down, &excluded) {
                Some(s) => assignment.entry(s).or_default().push(seg),
                None => unroutable.push(seg),
            }
        }
        (assignment, unroutable)
    }

    /// Refuse a query vector the cluster cannot score, before anything is
    /// scattered: segments of one cluster share a declaration, so any of
    /// them vets the query (dimension, NaN/±∞); with no segment, only
    /// finiteness is checked.
    pub fn check_query(&self, query: &[f32]) -> TvResult<()> {
        let first = self.table.read().segment_ids().first().copied();
        match first.and_then(|id| self.segment(id)) {
            Some(seg) => seg.check_vector(query),
            None => tv_common::check_finite(query),
        }
    }

    /// Distributed top-k with a deadline: workers check it before every
    /// segment search, and every coordinator-side recovery wait is bounded
    /// by [`Deadline::bounded_wait`].
    ///
    /// Strict mode (`degraded_mode == false`): a segment with no live
    /// holder fails the query with [`TvError::Cluster`], and an expired
    /// deadline fails it with [`TvError::Timeout`]. Degraded mode: the
    /// query returns whatever was gathered, with an accurate
    /// [`Coverage`] — partial answers beat dead ones for serving RAG.
    ///
    /// Every segment is searched whole: a cluster query applies no
    /// per-segment bitmap, so it cannot apply row security either, and
    /// `Server::cluster_top_k` refuses row-restricted sessions.
    /// `_no_filter` is always `None` (`Infallible` has no value). It keeps
    /// the argument list of the callers that pass `None` there, the
    /// benchmark package among them.
    #[allow(clippy::too_many_lines)]
    pub fn top_k_deadline(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        tid: Tid,
        _no_filter: Option<Infallible>,
        deadline: Deadline,
    ) -> TvResult<ClusterResponse> {
        deadline.check("cluster top-k scatter")?;
        let policy = self.config.retry;
        let degraded = self.config.degraded_mode;
        let down = self.down.read().clone();

        // Pin the placement: this query routes against exactly this view
        // even if a migration flip swaps the runtime's table mid-flight. A
        // server drained after the pin answers `moved`, which re-resolves
        // against the fresh table below.
        let table = self.table.read().clone();

        let all_segments = table.segment_ids();
        self.check_query(query)?;
        let segments_total = all_segments.len();
        let mut pending: HashSet<SegmentId> = all_segments.into_iter().collect();

        let query = Arc::new(query.to_vec());
        let (reply_tx, reply_rx) = channel::<WorkerReply>();
        // Per-segment result lists, keyed for a deterministic merge order
        // regardless of which holder answered.
        let mut gathered: Vec<(SegmentId, Vec<Neighbor>)> = Vec::new();
        let mut times = Vec::new();
        let mut stats = SearchStats::default();
        let mut suspects: HashSet<usize> = HashSet::new();
        let mut retries = 0u64;
        let mut hedges = 0u64;
        let mut moved_redirects = 0u64;
        // Per-segment redirect budget: a livelock guard against a segment
        // bouncing between stale views (one flip moves a segment once, so
        // real migrations need exactly one redirect).
        let mut redirect_budget: HashMap<SegmentId, u32> = HashMap::new();
        let mut worker_deadline_hit = false;
        let mut wave = 0usize;

        'waves: while !pending.is_empty() {
            let (assignment, unroutable) = Self::route(&table, &pending, &down, &suspects);
            if !degraded && !unroutable.is_empty() {
                let seg = unroutable[0];
                return Err(TvError::Cluster(if wave == 0 {
                    format!("segment {seg} has no live holder")
                } else {
                    format!("segment {seg} has no live holder left after {wave} retry wave(s)")
                }));
            }
            if assignment.is_empty() {
                break;
            }

            // Scatter this wave.
            let mut outstanding: HashSet<usize> = HashSet::new();
            let mut wave_assignment: HashMap<usize, Vec<SegmentId>> = HashMap::new();
            for (server, segments) in assignment {
                self.dispatch(Request {
                    server,
                    query: Arc::clone(&query),
                    k,
                    ef,
                    tid,
                    segments: segments.clone(),
                    deadline,
                    reply: reply_tx.clone(),
                });
                if wave > 0 {
                    retries += 1;
                }
                outstanding.insert(server);
                wave_assignment.insert(server, segments);
            }

            // Gather: accept replies per segment (late and hedged replies
            // dedupe naturally) until the wave's servers all answered or
            // the attempt/deadline budget runs out.
            let wave_start = Instant::now();
            let mut hedged_this_wave = false;
            while !outstanding.is_empty() && !pending.is_empty() {
                let elapsed = wave_start.elapsed();
                if elapsed >= policy.attempt_timeout {
                    break;
                }
                let mut wait = policy.attempt_timeout - elapsed;
                if let Some(h) = policy.hedge_after {
                    if !hedged_this_wave {
                        if elapsed >= h {
                            hedges += self.send_hedges(
                                &table,
                                &wave_assignment,
                                &pending,
                                &down,
                                &suspects,
                                &mut outstanding,
                                &query,
                                k,
                                ef,
                                tid,
                                deadline,
                                &reply_tx,
                            );
                            hedged_this_wave = true;
                        } else {
                            wait = wait.min(h - elapsed);
                        }
                    }
                }
                let wait = deadline.bounded_wait(wait);
                if wait.is_zero() {
                    break 'waves;
                }
                match reply_rx.recv_timeout(wait) {
                    Ok(reply) => {
                        outstanding.remove(&reply.server);
                        times.push(reply.took);
                        stats.merge(&reply.stats);
                        worker_deadline_hit |= reply.timed_out;
                        for (seg, list) in reply.results {
                            if pending.remove(&seg) {
                                gathered.push((seg, list));
                            }
                        }
                        for seg in reply.moved {
                            if !pending.contains(&seg) {
                                continue;
                            }
                            let budget = redirect_budget.entry(seg).or_insert(0);
                            if *budget >= 3 {
                                continue;
                            }
                            *budget += 1;
                            // Typed redirect: re-resolve against the
                            // *fresh* table — the pinned view is what sent
                            // us to the drained server in the first place.
                            let fresh = self.table.read().clone();
                            let excluded: Vec<usize> = suspects.iter().copied().collect();
                            if let Some(target) = fresh.serving_excluding(seg, &down, &excluded) {
                                moved_redirects += 1;
                                self.dispatch(Request {
                                    server: target,
                                    query: Arc::clone(&query),
                                    k,
                                    ef,
                                    tid,
                                    segments: vec![seg],
                                    deadline,
                                    reply: reply_tx.clone(),
                                });
                                outstanding.insert(target);
                                wave_assignment.entry(target).or_default().push(seg);
                            }
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            // Whoever did not answer in time is a suspect: their segments
            // re-route next wave.
            for server in outstanding {
                suspects.insert(server);
            }

            if pending.is_empty() || deadline.expired() {
                break;
            }
            wave += 1;
            if wave > policy.max_retries {
                break;
            }
            let backoff = policy
                .backoff
                .saturating_mul(1u32 << (wave - 1).min(16) as u32);
            let backoff = deadline.bounded_wait(backoff);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }

        // Final accounting: a down server that was the only holder of an
        // unsearched segment failed this query just as surely as a timeout.
        let mut failed = suspects;
        for &seg in &pending {
            for &holder in table.holders(seg) {
                if down.contains(&holder) {
                    failed.insert(holder);
                }
            }
        }
        let coverage = Coverage {
            segments_searched: gathered.len(),
            segments_total,
            servers_failed: failed.len(),
        };

        if !degraded && !pending.is_empty() {
            if worker_deadline_hit || deadline.expired() {
                return Err(TvError::Timeout(
                    "deadline exceeded in cluster worker segment search".into(),
                ));
            }
            return Err(TvError::Cluster(format!(
                "{} of {segments_total} segment(s) unsearched after {wave} retry wave(s)",
                pending.len(),
            )));
        }

        // Deterministic merge order: by segment id, not arrival order.
        gathered.sort_unstable_by_key(|(seg, _)| *seg);
        let mut unsearched: Vec<SegmentId> = pending.into_iter().collect();
        unsearched.sort_unstable();
        Ok(ClusterResponse {
            neighbors: merge_topk(gathered.into_iter().map(|(_, list)| list), k),
            times,
            stats,
            coverage,
            retries,
            hedges,
            moved_redirects,
            unsearched,
        })
    }

    /// Duplicate the slowest outstanding server's pending segments to
    /// untried replica holders; returns the number of hedge requests sent.
    /// The per-segment dedupe in the gather loop makes the race safe.
    #[allow(clippy::too_many_arguments)]
    fn send_hedges(
        &self,
        table: &PlacementTable,
        wave_assignment: &HashMap<usize, Vec<SegmentId>>,
        pending: &HashSet<SegmentId>,
        down: &[usize],
        suspects: &HashSet<usize>,
        outstanding: &mut HashSet<usize>,
        query: &Arc<Vec<f32>>,
        k: usize,
        ef: usize,
        tid: Tid,
        deadline: Deadline,
        reply_tx: &Sender<WorkerReply>,
    ) -> u64 {
        // Slowest = the outstanding server with the most still-pending
        // segments (ties broken by id for determinism).
        let mut slow: Option<(usize, Vec<SegmentId>)> = None;
        for &server in outstanding.iter() {
            let Some(assigned) = wave_assignment.get(&server) else {
                continue;
            };
            let mut segs: Vec<SegmentId> = assigned
                .iter()
                .copied()
                .filter(|s| pending.contains(s))
                .collect();
            segs.sort_unstable();
            let better = match &slow {
                None => !segs.is_empty(),
                Some((best, best_segs)) => {
                    segs.len() > best_segs.len()
                        || (segs.len() == best_segs.len() && server < *best)
                }
            };
            if better {
                slow = Some((server, segs));
            }
        }
        let Some((slow_server, segs)) = slow else {
            return 0;
        };
        // Route the slow server's segments to holders not already involved.
        let mut avoid: Vec<usize> = suspects.iter().copied().collect();
        avoid.extend(outstanding.iter().copied());
        if !avoid.contains(&slow_server) {
            avoid.push(slow_server);
        }
        let mut per_alt: HashMap<usize, Vec<SegmentId>> = HashMap::new();
        for seg in segs {
            if let Some(alt) = table.serving_excluding(seg, down, &avoid) {
                per_alt.entry(alt).or_default().push(seg);
            }
        }
        let mut sent = 0u64;
        for (alt, segments) in per_alt {
            self.dispatch(Request {
                server: alt,
                query: Arc::clone(query),
                k,
                ef,
                tid,
                segments,
                deadline,
                reply: reply_tx.clone(),
            });
            outstanding.insert(alt);
            sent += 1;
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::ids::{LocalId, VertexId};
    use tv_common::inject::Action;
    use tv_common::{DistanceMetric, SplitMix64};
    use tv_embedding::EmbeddingTypeDef;
    use tv_hnsw::DeltaRecord;

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_retries: 2,
            attempt_timeout: Duration::from_millis(100),
            backoff: Duration::from_millis(1),
            hedge_after: None,
        }
    }

    fn loaded_cluster_with(
        config: RuntimeConfig,
        segments: usize,
        per_segment: usize,
    ) -> (ClusterRuntime, Vec<(VertexId, Vec<f32>)>) {
        let runtime = ClusterRuntime::start(config);
        let def = EmbeddingTypeDef::new("e", 8, "M", DistanceMetric::L2);
        let mut rng = SplitMix64::new(31);
        let mut all = Vec::new();
        let mut tid = 0u64;
        for s in 0..segments {
            let seg = Arc::new(EmbeddingSegment::new(SegmentId(s as u32), &def, 1024));
            let mut recs = Vec::new();
            for l in 0..per_segment {
                tid += 1;
                let v: Vec<f32> = (0..8).map(|_| rng.next_f32() * 5.0).collect();
                let id = VertexId::new(SegmentId(s as u32), LocalId(l as u32));
                recs.push(DeltaRecord::upsert(id, Tid(tid), v.clone()));
                all.push((id, v));
            }
            seg.append_deltas(&recs).unwrap();
            seg.delta_merge(Tid(tid)).unwrap();
            seg.index_merge(Tid(tid)).unwrap();
            runtime.add_segment(seg);
        }
        (runtime, all)
    }

    fn loaded_cluster(
        servers: usize,
        replication: usize,
        segments: usize,
        per_segment: usize,
    ) -> (ClusterRuntime, Vec<(VertexId, Vec<f32>)>) {
        loaded_cluster_with(
            RuntimeConfig {
                servers,
                replication,
                planner: PlannerConfig::default().with_brute_threshold(4),
                retry: fast_retry(),
                degraded_mode: false,
            },
            segments,
            per_segment,
        )
    }

    fn exact_top1(all: &[(VertexId, Vec<f32>)], q: &[f32]) -> VertexId {
        all.iter()
            .min_by(|a, b| {
                tv_common::metric::l2_sq(q, &a.1).total_cmp(&tv_common::metric::l2_sq(q, &b.1))
            })
            .unwrap()
            .0
    }

    fn ids(r: &ClusterResponse) -> Vec<VertexId> {
        r.neighbors.iter().map(|n| n.id).collect()
    }

    #[test]
    fn distributed_matches_exact_top1() {
        let (runtime, all) = loaded_cluster(4, 1, 8, 50);
        for probe in [0usize, 17, 133, 399] {
            let q = &all[probe].1;
            let r = runtime.top_k(q, 1, 64, Tid::MAX, None).unwrap();
            assert_eq!(r.neighbors[0].id, exact_top1(&all, q));
            assert_eq!(r.times.len(), 4);
            assert!(r.stats.distance_computations > 0);
            assert!(r.coverage.is_complete());
            assert_eq!(r.retries, 0);
            assert_eq!(r.hedges, 0);
        }
    }

    #[test]
    fn global_merge_is_sorted_topk() {
        let (runtime, all) = loaded_cluster(3, 1, 6, 40);
        let r = runtime.top_k(&all[5].1, 10, 64, Tid::MAX, None).unwrap();
        assert_eq!(r.neighbors.len(), 10);
        assert!(r.neighbors.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn failover_to_replicas() {
        let (runtime, all) = loaded_cluster(3, 2, 6, 30);
        let q = &all[10].1;
        let before = runtime.top_k(q, 5, 64, Tid::MAX, None).unwrap();
        runtime.fail_server(0);
        let after = runtime.top_k(q, 5, 64, Tid::MAX, None).unwrap();
        assert_eq!(ids(&before), ids(&after));
        assert!(after.coverage.is_complete());
        runtime.recover_server(0);
        let again = runtime.top_k(q, 5, 64, Tid::MAX, None).unwrap();
        assert_eq!(after.neighbors.len(), again.neighbors.len());
    }

    #[test]
    fn unreplicated_cluster_fails_hard_when_server_down() {
        let (runtime, all) = loaded_cluster(3, 1, 6, 20);
        runtime.fail_server(1);
        let err = runtime.top_k(&all[0].1, 3, 32, Tid::MAX, None).unwrap_err();
        assert!(matches!(err, TvError::Cluster(_)));
    }

    #[test]
    fn crash_fault_recovers_via_replica_retry_bit_identical() {
        let (runtime, all) = loaded_cluster(4, 2, 8, 30);
        let q = &all[21].1;
        let healthy = runtime.top_k(q, 10, 64, Tid::MAX, None).unwrap();
        runtime
            .injector()
            .arm(Point::WorkerRecv { server: 1 }, Action::Fail, 1, Some(1));
        let recovered = runtime.top_k(q, 10, 64, Tid::MAX, None).unwrap();
        assert_eq!(ids(&healthy), ids(&recovered));
        assert!(recovered.coverage.is_complete());
        assert!(recovered.retries > 0, "recovery must have re-routed");
        assert_eq!(recovered.coverage.servers_failed, 1);
        // The counted fault expired: the next query is clean again.
        let clean = runtime.top_k(q, 10, 64, Tid::MAX, None).unwrap();
        assert_eq!(clean.retries, 0);
        assert_eq!(clean.coverage.servers_failed, 0);
    }

    #[test]
    fn dropped_reply_is_indistinguishable_from_crash() {
        let (runtime, all) = loaded_cluster(4, 2, 8, 30);
        let q = &all[77].1;
        let healthy = runtime.top_k(q, 5, 64, Tid::MAX, None).unwrap();
        runtime
            .injector()
            .arm(Point::WorkerReply { server: 2 }, Action::Fail, 1, Some(1));
        let recovered = runtime.top_k(q, 5, 64, Tid::MAX, None).unwrap();
        assert_eq!(ids(&healthy), ids(&recovered));
        assert!(recovered.coverage.is_complete());
        assert!(recovered.retries > 0);
    }

    #[test]
    fn strict_mode_errors_when_retries_exhaust_holders() {
        let (runtime, all) = loaded_cluster(3, 1, 6, 20);
        // replication = 1: the crashed server's segments have no replica.
        runtime
            .injector()
            .arm(Point::WorkerRecv { server: 0 }, Action::Fail, 1, Some(8));
        let err = runtime.top_k(&all[0].1, 3, 32, Tid::MAX, None).unwrap_err();
        assert!(matches!(err, TvError::Cluster(_)), "got {err:?}");
    }

    #[test]
    fn degraded_mode_returns_partial_results_with_accurate_coverage() {
        let (runtime, all) = loaded_cluster_with(
            RuntimeConfig {
                servers: 4,
                replication: 1,
                planner: PlannerConfig::default().with_brute_threshold(4),
                retry: fast_retry(),
                degraded_mode: true,
            },
            8,
            25,
        );
        runtime.fail_server(2); // holds segments 2 and 6
        let r = runtime.top_k(&all[0].1, 5, 64, Tid::MAX, None).unwrap();
        assert_eq!(r.coverage.segments_total, 8);
        assert_eq!(r.coverage.segments_searched, 6);
        assert_eq!(r.coverage.servers_failed, 1);
        assert!(!r.coverage.is_complete());
        assert_eq!(r.unsearched, vec![SegmentId(2), SegmentId(6)]);
        // The partial answer is exact over the segments that were searched.
        let live: Vec<(VertexId, Vec<f32>)> = all
            .iter()
            .filter(|(id, _)| !r.unsearched.contains(&id.segment()))
            .cloned()
            .collect();
        assert_eq!(r.neighbors[0].id, exact_top1(&live, &all[0].1));
        assert!(r
            .neighbors
            .iter()
            .all(|n| !r.unsearched.contains(&n.id.segment())));
    }

    #[test]
    fn degraded_mode_covers_injected_crash_without_replicas() {
        let (runtime, all) = loaded_cluster_with(
            RuntimeConfig {
                servers: 4,
                replication: 1,
                planner: PlannerConfig::default().with_brute_threshold(4),
                retry: RetryPolicy {
                    max_retries: 1,
                    attempt_timeout: Duration::from_millis(60),
                    backoff: Duration::from_millis(1),
                    hedge_after: None,
                },
                degraded_mode: true,
            },
            8,
            25,
        );
        // Enough uses to swallow the initial scatter and the retry wave.
        runtime
            .injector()
            .arm(Point::WorkerRecv { server: 3 }, Action::Fail, 1, Some(4));
        let r = runtime.top_k(&all[0].1, 5, 64, Tid::MAX, None).unwrap();
        assert_eq!(r.coverage.segments_searched, 6);
        assert_eq!(r.coverage.servers_failed, 1);
        assert_eq!(r.unsearched, vec![SegmentId(3), SegmentId(7)]);
        runtime.injector().clear();
        let clean = runtime.top_k(&all[0].1, 5, 64, Tid::MAX, None).unwrap();
        assert!(clean.coverage.is_complete());
    }

    #[test]
    fn hedging_beats_a_straggler_and_stays_bit_identical() {
        let (runtime, all) = loaded_cluster_with(
            RuntimeConfig {
                servers: 4,
                replication: 2,
                planner: PlannerConfig::default().with_brute_threshold(4),
                retry: RetryPolicy {
                    max_retries: 2,
                    attempt_timeout: Duration::from_secs(2),
                    backoff: Duration::from_millis(1),
                    hedge_after: Some(Duration::from_millis(10)),
                },
                degraded_mode: false,
            },
            8,
            30,
        );
        let q = &all[40].1;
        let healthy = runtime.top_k(q, 10, 64, Tid::MAX, None).unwrap();
        // The straggler stays paused until the hedged query has returned.
        let straggler = Point::WorkerRecv { server: 0 };
        runtime.injector().arm(straggler, Action::Pause, 1, Some(1));
        let started = Instant::now();
        let hedged = runtime.top_k(q, 10, 64, Tid::MAX, None).unwrap();
        runtime.injector().release(straggler);
        assert_eq!(ids(&healthy), ids(&hedged));
        assert!(hedged.hedges >= 1, "hedge must have fired");
        assert!(hedged.coverage.is_complete());
        assert!(
            started.elapsed() < Duration::from_millis(290),
            "hedge should beat the 300ms straggler, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn degraded_deadline_keeps_finished_workers_results() {
        let (runtime, all) = loaded_cluster_with(
            RuntimeConfig {
                servers: 4,
                replication: 1,
                planner: PlannerConfig::default().with_brute_threshold(4),
                retry: RetryPolicy {
                    max_retries: 0,
                    attempt_timeout: Duration::from_secs(5),
                    backoff: Duration::ZERO,
                    hedge_after: None,
                },
                degraded_mode: true,
            },
            8,
            25,
        );
        // One straggler stays paused until after the deadline answer; the
        // other three workers' finished top-k lists must survive.
        let straggler = Point::WorkerRecv { server: 1 };
        runtime.injector().arm(straggler, Action::Pause, 1, Some(1));
        let r = runtime
            .top_k_deadline(
                &all[0].1,
                5,
                64,
                Tid::MAX,
                None,
                Deadline::after(Duration::from_millis(250)),
            )
            .unwrap();
        runtime.injector().release(straggler);
        assert_eq!(r.coverage.segments_searched, 6);
        assert_eq!(r.unsearched, vec![SegmentId(1), SegmentId(5)]);
        assert!(!r.neighbors.is_empty());
    }

    #[test]
    fn expired_deadline_rejected_before_scatter() {
        let (runtime, all) = loaded_cluster(2, 1, 4, 20);
        let err = runtime
            .top_k_deadline(&all[0].1, 3, 32, Tid::MAX, None, Deadline::expired_now())
            .unwrap_err();
        assert!(matches!(err, TvError::Timeout(_)));
        // A generous deadline behaves exactly like no deadline.
        let r = runtime
            .top_k_deadline(
                &all[0].1,
                3,
                32,
                Tid::MAX,
                None,
                Deadline::after(Duration::from_secs(60)),
            )
            .unwrap();
        let r2 = runtime.top_k(&all[0].1, 3, 32, Tid::MAX, None).unwrap();
        assert_eq!(ids(&r), ids(&r2));
    }

    #[test]
    fn concurrent_queries_from_many_client_threads() {
        let (runtime, all) = loaded_cluster(4, 1, 8, 30);
        let runtime = Arc::new(runtime);
        let all = Arc::new(all);
        let mut handles = Vec::new();
        for t in 0..8 {
            let rt = Arc::clone(&runtime);
            let data = Arc::clone(&all);
            handles.push(std::thread::spawn(move || {
                for i in 0..20 {
                    let q = &data[(t * 13 + i * 7) % data.len()].1;
                    let r = rt.top_k(q, 5, 32, Tid::MAX, None).unwrap();
                    assert!(!r.neighbors.is_empty());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn search_on_a_non_holder_is_a_typed_moved_redirect() {
        let (runtime, all) = loaded_cluster(3, 1, 6, 20);
        // Segment 1 lives on server 1; server 2 does not hold it.
        let ok = runtime
            .search_on(1, SegmentId(1), &all[25].1, 3, 32, Tid::MAX)
            .unwrap();
        assert!(!ok.is_empty());
        let err = runtime
            .search_on(2, SegmentId(1), &all[25].1, 3, 32, Tid::MAX)
            .unwrap_err();
        assert!(
            matches!(
                err,
                TvError::Moved {
                    segment: SegmentId(1),
                    generation: 0,
                }
            ),
            "got {err:?}"
        );
        assert!(err.is_retryable());
        assert!(runtime
            .search_on(99, SegmentId(1), &all[25].1, 3, 32, Tid::MAX)
            .is_err());
    }

    #[test]
    fn add_segment_registers_every_replica_with_one_shared_copy() {
        let (runtime, _all) = loaded_cluster(4, 2, 8, 10);
        let table = runtime.placement();
        assert_eq!(table.generation(), 0);
        for s in 0..8u32 {
            let seg = SegmentId(s);
            let holders = table.holders(seg);
            assert_eq!(holders.len(), 2);
            let copies: Vec<_> = holders
                .iter()
                .map(|&h| runtime.store(h).read().get(&seg).cloned().unwrap())
                .collect();
            assert!(
                Arc::ptr_eq(&copies[0], &copies[1]),
                "replicas share one copy"
            );
            // Non-holders have nothing.
            for server in 0..4 {
                if !holders.contains(&server) {
                    assert!(runtime.store(server).read().get(&seg).is_none());
                }
            }
        }
    }

    #[test]
    fn append_deltas_requires_a_registered_segment() {
        let (runtime, _all) = loaded_cluster(2, 1, 2, 10);
        let v: Vec<f32> = vec![0.0; 8];
        let rec = DeltaRecord::upsert(VertexId::new(SegmentId(9), LocalId(0)), Tid(1000), v);
        let err = runtime.append_deltas(SegmentId(9), &[rec]).unwrap_err();
        assert!(matches!(err, TvError::NotFound(_)), "got {err:?}");
    }

    fn is_dimension_mismatch(err: &TvError, got_dim: usize) -> bool {
        matches!(err, TvError::DimensionMismatch { expected: 8, got } if *got == got_dim)
    }

    #[test]
    fn wrong_dimension_query_is_refused_before_scatter() {
        let (runtime, _all) = loaded_cluster(2, 1, 2, 10);
        let err = runtime.top_k(&[0.5; 5], 3, 32, Tid::MAX, None).unwrap_err();
        assert!(is_dimension_mismatch(&err, 5), "got {err:?}");
    }

    #[test]
    fn wrong_dimension_query_is_refused_by_search_on() {
        let (runtime, _all) = loaded_cluster(2, 1, 2, 10);
        let holder = runtime.placement().holders(SegmentId(0))[0];
        let err = runtime
            .search_on(holder, SegmentId(0), &[0.5; 9], 3, 32, Tid::MAX)
            .unwrap_err();
        assert!(is_dimension_mismatch(&err, 9), "got {err:?}");
    }

    #[test]
    fn wrong_dimension_append_changes_nothing_and_merges_keep_working() {
        let (runtime, all) = loaded_cluster(2, 1, 2, 10);
        let seg = runtime.segment(SegmentId(0)).unwrap();
        let id = |l: u32| VertexId::new(SegmentId(0), LocalId(l));
        let batch = [
            DeltaRecord::upsert(id(50), Tid(1000), vec![1.0; 8]),
            DeltaRecord::upsert(id(51), Tid(1001), vec![1.0; 3]),
        ];
        let before = seg.delta_tail(Tid::ZERO, Tid::MAX);
        let err = runtime.append_deltas(SegmentId(0), &batch).unwrap_err();
        assert!(is_dimension_mismatch(&err, 3), "got {err:?}");
        // All or nothing: the good record riding along was not appended.
        assert_eq!(seg.mem_delta_count(), 0);
        assert_eq!(seg.delta_tail(Tid::ZERO, Tid::MAX), before);
        // The segment's index can still advance past a later, good batch.
        runtime.append_deltas(SegmentId(0), &batch[..1]).unwrap();
        seg.delta_merge(Tid(1000)).unwrap();
        assert_eq!(seg.index_merge(Tid(1000)).unwrap(), Some(Tid(1000)));
        let r = runtime.top_k(&all[0].1, 3, 32, Tid::MAX, None).unwrap();
        assert_eq!(r.stats.overlay_dim_mismatches, 0);
    }
}
