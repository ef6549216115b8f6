//! The serving gateway: sessions → admission (direct top-ks that must wait
//! coalesce there) → GSQL executor | segment fan-out → merge, with
//! per-tenant metrics around every step.

use crate::admission::{AdmissionConfig, AdmissionController, BatchKey, Permit, Reply, TopKTurn};
use crate::metrics::{MetricsRegistry, TenantMetrics};
use crate::session::{Session, SessionManager};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tg_graph::{AccessControl, Graph};
use tv_cluster::{ClusterResponse, ClusterRuntime, MigrationPlan, MigrationReport, Migrator};
use tv_common::{Deadline, Tid, TvError, TvResult};
use tv_embedding::{BatchQuery, TypedNeighbor};
use tv_gsql::{Params, QueryOutput};
use tv_hnsw::SearchStats;

/// Serving-layer tuning.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Admission-control settings (executor pool, queue bound, rate limits).
    pub admission: AdmissionConfig,
    /// Read by no product code: batches form among requests waiting for an
    /// executor, and nothing waits for a batch. The field outlives the
    /// window only because `benchmark/src/run.rs` prints it in its
    /// provenance line; it goes with that line in the next `benchmark` PR.
    pub batch_window: Duration,
    /// Maximum queries coalesced into one fan-out.
    pub max_batch: usize,
    /// Deadline applied to requests whose session sets none (None = no
    /// deadline).
    pub default_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            admission: AdmissionConfig::default(),
            batch_window: Duration::from_micros(300),
            max_batch: 16,
            default_deadline: None,
        }
    }
}

/// The in-process query gateway.
///
/// Holds the graph, the rbac [`AccessControl`] every request is checked
/// against, and the serving stages. Batching note: a request that gets an
/// executor runs at once; direct top-ks coalesce only while they wait for
/// one, as one entry of the admission queue, and a batch runs under a
/// single permit — admission bounds work, batching amortizes the backlog.
pub struct Server {
    graph: Arc<Graph>,
    acl: Arc<AccessControl>,
    config: ServerConfig,
    admission: AdmissionController,
    metrics: MetricsRegistry,
    sessions: SessionManager,
    cluster: Option<Arc<ClusterRuntime>>,
}

impl Server {
    /// A server fronting `graph` with `acl` governing every request.
    #[must_use]
    pub fn new(graph: Arc<Graph>, acl: Arc<AccessControl>, config: ServerConfig) -> Self {
        Server {
            graph,
            acl,
            admission: AdmissionController::new(config.admission, config.max_batch),
            metrics: MetricsRegistry::new(),
            sessions: SessionManager::new(),
            cluster: None,
            config,
        }
    }

    /// Attach a cluster runtime so [`Server::cluster_top_k`] can scatter
    /// deadline-carrying searches across workers.
    #[must_use]
    pub fn with_cluster(mut self, cluster: Arc<ClusterRuntime>) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// The graph being served.
    #[must_use]
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The admission controller (for observing the queue: its depth, and
    /// how many requests wait in it).
    #[must_use]
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Open a session for `tenant` acting as rbac principal `user`.
    pub fn open_session(&self, tenant: &str, user: &str) -> Session {
        self.sessions.open(tenant, user)
    }

    /// Close a session.
    pub fn close_session(&self, session: &Session) {
        self.sessions.close(session);
    }

    /// Number of open sessions.
    #[must_use]
    pub fn active_sessions(&self) -> usize {
        self.sessions.active()
    }

    /// JSON snapshot of all per-tenant metrics, with the graph store's
    /// delta-tail gauge (`__durability__.graph_store_tail`) and the query
    /// pool's state (`__pool__`) read now.
    #[must_use]
    pub fn metrics_json(&self) -> serde_json::Value {
        self.metrics
            .durability()
            .set_graph_store_tail(self.graph.store().pending_deltas());
        let mut snapshot = self.metrics.snapshot();
        let emb = self.graph.embeddings();
        if let serde_json::Value::Object(blocks) = &mut snapshot {
            blocks.insert(
                "__pool__".into(),
                crate::metrics::pool_snapshot(emb.pool().stats(), emb.search_task_ns()),
            );
        }
        snapshot
    }

    /// Persist a crash-consistent checkpoint of the served graph (graph
    /// segment images, embedding deltas, index snapshots, manifest) and
    /// rotate its WAL. Requires a graph opened with `Graph::durable`;
    /// outcomes land in the `__durability__` metrics object.
    pub fn checkpoint(&self) -> TvResult<tg_graph::CheckpointInfo> {
        let start = Instant::now();
        match self.graph.checkpoint() {
            Ok(info) => {
                self.metrics
                    .durability()
                    .record_checkpoint(&info, start.elapsed());
                Ok(info)
            }
            Err(e) => {
                self.metrics.durability().record_checkpoint_failure();
                Err(e)
            }
        }
    }

    fn deadline_for(&self, session: &Session) -> Deadline {
        match session.deadline.or(self.config.default_deadline) {
            Some(d) => Deadline::after(d),
            None => Deadline::none(),
        }
    }

    /// Pay the tenant's token bucket; a refusal is counted as
    /// `rate_limited`, never as `rejected`.
    fn charge(&self, session: &Session, tenant: &TenantMetrics) -> TvResult<()> {
        self.admission.charge(&session.tenant).map_err(|limited| {
            tenant.record_rate_limited();
            limited.into()
        })
    }

    /// The FIFO wait for an executor, for a request already charged.
    fn acquire(
        &self,
        session: &Session,
        tenant: &TenantMetrics,
        deadline: Deadline,
        start: Instant,
    ) -> TvResult<Permit<'_>> {
        let (permit, info) = self.admission.acquire(&session.tenant, deadline)?;
        tenant.record_admitted(info.queued_at_depth, start.elapsed());
        Ok(permit)
    }

    /// Count how a charged request ended. Only the admission queue says
    /// `Overloaded` once the bucket has been paid.
    fn record_outcome<T>(
        &self,
        tenant: &TenantMetrics,
        start: Instant,
        result: TvResult<T>,
    ) -> TvResult<T> {
        match &result {
            Ok(_) => tenant.record_completed(start.elapsed()),
            Err(TvError::PermissionDenied(_)) => tenant.record_denied(),
            Err(TvError::Timeout(_)) => tenant.record_timeout(),
            Err(TvError::Overloaded(_)) => tenant.record_rejected(),
            Err(_) => {}
        }
        result
    }

    /// Execute a GSQL query as the session's user: admission, type grants,
    /// row security, and the session deadline all apply.
    pub fn query(&self, session: &Session, src: &str, params: &Params) -> TvResult<QueryOutput> {
        let tenant = self.metrics.tenant(&session.tenant);
        let deadline = self.deadline_for(session);
        let start = Instant::now();
        self.charge(session, &tenant)?;
        let result = self
            .acquire(session, &tenant, deadline, start)
            .and_then(|_permit| {
                let mut stats = SearchStats::default();
                let result = tv_gsql::execute_at_as_stats(
                    &self.graph,
                    &self.acl,
                    &session.user,
                    src,
                    params,
                    self.graph.read_tid(),
                    deadline,
                    &mut stats,
                );
                tenant.record_plans(&stats);
                result
            });
        self.record_outcome(&tenant, start, result)
    }

    /// Direct vector top-k over `attr_ids`. With a free executor it runs at
    /// once, alone, on the calling thread; when it must wait for one it
    /// coalesces with the same-shape queries waiting beside it, provided the
    /// session's user has unrestricted read access. Row-restricted users
    /// always run solo (their pre-filter is private), which keeps batched
    /// results bit-identical to one-by-one execution.
    pub fn vector_top_k(
        &self,
        session: &Session,
        attr_ids: &[u32],
        query: Vec<f32>,
        k: usize,
    ) -> TvResult<Vec<TypedNeighbor>> {
        let tenant = self.metrics.tenant(&session.tenant);
        let deadline = self.deadline_for(session);
        let start = Instant::now();
        // Grants first: a role lookup, no rows read, nothing held.
        let restricted = match self
            .acl
            .is_row_restricted(&self.graph, &session.user, attr_ids)
        {
            Ok(restricted) => restricted,
            Err(e) => return self.record_outcome(&tenant, start, Err(e)),
        };
        self.charge(session, &tenant)?;
        let ef = self.graph.embeddings().config().default_ef.max(k);
        let result = if restricted {
            self.acquire(session, &tenant, deadline, start)
                .and_then(|_permit| {
                    let tid = self.graph.read_tid();
                    let user = &session.user;
                    let set = tv_gsql::readable_rows(&self.graph, &self.acl, user, attr_ids, tid)?;
                    let mut stats = SearchStats::default();
                    let r = self.graph.vector_search_deadline(
                        attr_ids,
                        &query,
                        k,
                        ef,
                        set.as_ref(),
                        tid,
                        deadline,
                        &mut stats,
                    );
                    tenant.record_plans(&stats);
                    r
                })
        } else {
            self.unrestricted_top_k(session, &tenant, deadline, start, attr_ids, query, k, ef)
        };
        self.record_outcome(&tenant, start, result)
    }

    /// The top-k of a user who may read every row: alone and at once on a
    /// free executor, else in a batch of the admission queue.
    #[allow(clippy::too_many_arguments)]
    fn unrestricted_top_k(
        &self,
        session: &Session,
        tenant: &TenantMetrics,
        deadline: Deadline,
        start: Instant,
        attr_ids: &[u32],
        query: Vec<f32>,
        k: usize,
        ef: usize,
    ) -> TvResult<Vec<TypedNeighbor>> {
        let tid = self.graph.read_tid();
        // An executor is free and nobody waits for it: run now, alone.
        if let Some(_permit) = self.admission.try_admit() {
            tenant.record_admitted(0, start.elapsed());
            tenant.record_fanout();
            let query = vec![query];
            let (result, stats) = self
                .run_top_ks(attr_ids, query, k, ef, tid, deadline)
                .pop()
                .expect("one reply per query");
            tenant.record_plans(&stats);
            return result;
        }

        let key = BatchKey {
            attr_ids: attr_ids.to_vec(),
            k,
            ef,
            tid,
        };
        let answer = match self
            .admission
            .queue_top_k(&session.tenant, key, query, deadline)?
        {
            TopKTurn::Run(mut batch) => {
                tenant.record_admitted(batch.queued_at_depth, start.elapsed());
                tenant.record_fanout();
                let queries = std::mem::take(&mut batch.queries);
                let replies = self.run_top_ks(attr_ids, queries, k, ef, tid, batch.deadline);
                batch.answer(replies)
            }
            TopKTurn::Answered(answer) => {
                // Rode the runner's queue slot and permit.
                let waited = answer.started.saturating_duration_since(start);
                tenant.record_admitted(0, waited);
                answer
            }
        };
        tenant.record_batched(answer.batch_size);
        let (result, stats) = answer.reply;
        tenant.record_plans(&stats);
        // The batch ran under its most permissive deadline; this member's
        // own decides whether the answer still counts.
        match result {
            Ok(_) if deadline.expired() => Err(TvError::Timeout(
                "deadline expired while the batch ran".into(),
            )),
            other => other,
        }
    }

    /// Run `queries` as one segment fan-out under a permit the caller
    /// holds: one reply per query, in order.
    fn run_top_ks(
        &self,
        attr_ids: &[u32],
        queries: Vec<Vec<f32>>,
        k: usize,
        ef: usize,
        tid: Tid,
        deadline: Deadline,
    ) -> Vec<Reply> {
        let batch: Vec<BatchQuery> = queries
            .into_iter()
            .map(|query| BatchQuery { query, k, ef })
            .collect();
        let mut stats = vec![SearchStats::default(); batch.len()];
        let found = self
            .graph
            .embeddings()
            .top_k_many_each(attr_ids, &batch, tid, None, deadline, &mut stats);
        match found {
            Ok(all) => all.into_iter().map(Ok).zip(stats).collect(),
            Err(e) => stats.into_iter().map(|s| (Err(e.clone()), s)).collect(),
        }
    }

    /// Scatter a top-k across the attached cluster runtime with the session
    /// deadline propagated into every worker loop. The full
    /// [`ClusterResponse`] is returned so callers see the coverage of a
    /// degraded answer; the tenant's metrics record every replica retry,
    /// hedge, and degraded completion.
    ///
    /// The runtime's segments are not mapped to attributes, so once the
    /// query vector is vetted the session needs a grant on the type of
    /// every embedding attribute of the served graph, and an unrestricted
    /// one: the scatter takes no filter, so a row-restricted session is
    /// refused with [`TvError::PermissionDenied`].
    pub fn cluster_top_k(
        &self,
        session: &Session,
        query: &[f32],
        k: usize,
        ef: usize,
        tid: Tid,
    ) -> TvResult<ClusterResponse> {
        let runtime = self.cluster.as_ref().ok_or_else(|| {
            TvError::InvalidArgument("no cluster runtime attached to this server".into())
        })?;
        let tenant = self.metrics.tenant(&session.tenant);
        let deadline = self.deadline_for(session);
        let start = Instant::now();
        runtime.check_query(query)?;
        let attr_ids = self.graph.embeddings().attr_ids();
        let user = &session.user;
        let granted = self
            .acl
            .is_row_restricted(&self.graph, user, &attr_ids)
            .and_then(|restricted| match restricted {
                false => Ok(()),
                true => Err(TvError::PermissionDenied(format!(
                    "user '{user}' is row-restricted, and the cluster top-k door applies no filter"
                ))),
            });
        if let Err(e) = granted {
            return self.record_outcome(&tenant, start, Err(e));
        }
        self.charge(session, &tenant)?;
        let result = self
            .acquire(session, &tenant, deadline, start)
            .and_then(|_permit| runtime.top_k_deadline(query, k, ef, tid, None, deadline));
        if let Ok(response) = &result {
            tenant.record_cluster(
                response.retries,
                response.hedges,
                !response.coverage.is_complete(),
            );
        }
        self.record_outcome(&tenant, start, result)
    }

    /// Execute a live segment migration on the attached cluster runtime
    /// (admin operation — it bypasses tenant admission). `staging` is the
    /// scratch directory the snapshot ships through. Both outcomes land in
    /// the `__cluster__` metrics: completion records shipped bytes,
    /// catch-up volume, flip pause, and the new placement generation; a
    /// clean abort records the plan and error.
    pub fn migrate_segment(
        &self,
        plan: MigrationPlan,
        staging: &Path,
    ) -> TvResult<MigrationReport> {
        let runtime = self.cluster.as_ref().ok_or_else(|| {
            TvError::InvalidArgument("no cluster runtime attached to this server".into())
        })?;
        let migrator = Migrator::new(Arc::clone(runtime), staging.to_path_buf());
        let cluster = self.metrics.cluster();
        let result = self
            .refuse_graph_owned(runtime, plan)
            .and_then(|()| migrator.run(plan));
        cluster.set_migration_errors(runtime.migration_errors().count());
        match result {
            Ok(report) => {
                cluster.record_completed(&report);
                Ok(report)
            }
            Err(e) => {
                cluster.record_aborted(format!("{plan}: {e}"));
                Err(e)
            }
        }
    }

    /// Refuse to move a segment the runtime serves as the graph's own
    /// instance. A migration serves an independent copy after its flip, and
    /// graph commits append only to the graph's instance
    /// (`EmbeddingService::apply_deltas`), so cluster reads of the moved
    /// segment would go stale. Runtime-only segments move as before.
    fn refuse_graph_owned(&self, runtime: &ClusterRuntime, plan: MigrationPlan) -> TvResult<()> {
        let Some(serving) = runtime.segment(plan.segment) else {
            return Ok(());
        };
        let embeddings = self.graph.embeddings();
        let owned = embeddings.attr_ids().into_iter().any(|id| {
            embeddings
                .attr(id)
                .is_ok_and(|attr| attr.all_segments().iter().any(|s| Arc::ptr_eq(s, &serving)))
        });
        match owned {
            false => Ok(()),
            true => Err(TvError::InvalidArgument(format!(
                "segment {} is the graph's own instance; graph commits would not reach \
                 its copy after the move",
                plan.segment.0
            ))),
        }
    }
}
