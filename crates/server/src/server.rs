//! The serving gateway: sessions → admission → (batcher | GSQL executor) →
//! merge, with per-tenant metrics around every step.

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::batch::{BatchKey, Batcher};
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
    /// How long a batch leader waits for followers before executing.
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
/// against, and the serving stages. Batching note: an execution permit is
/// held while a request sits in the batcher, so coalescing only happens
/// among requests admitted concurrently — admission bounds work, batching
/// amortizes it.
pub struct Server {
    graph: Arc<Graph>,
    acl: Arc<AccessControl>,
    config: ServerConfig,
    admission: AdmissionController,
    batcher: Batcher,
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
            admission: AdmissionController::new(config.admission),
            batcher: Batcher::new(config.batch_window, config.max_batch),
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

    /// The access-control policy in force.
    #[must_use]
    pub fn acl(&self) -> &Arc<AccessControl> {
        &self.acl
    }

    /// The metrics registry.
    #[must_use]
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The admission controller (for observing queue depth).
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
    /// delta-tail gauge (`__durability__.graph_store_tail`) read now.
    #[must_use]
    pub fn metrics_json(&self) -> serde_json::Value {
        self.metrics
            .durability()
            .set_graph_store_tail(self.graph.store().pending_deltas());
        self.metrics.snapshot()
    }

    /// Persist a crash-consistent checkpoint of the served graph (graph
    /// segment images, embedding deltas, index snapshots, manifest) and
    /// rotate its WAL. Requires a graph opened with `Graph::durable`;
    /// outcomes land in the `__durability__` metrics object.
    pub fn checkpoint(&self) -> TvResult<tg_graph::CheckpointInfo> {
        let start = Instant::now();
        match self.graph.checkpoint() {
            Ok(info) => {
                self.metrics.durability().record_checkpoint(
                    info.tid.0,
                    info.files,
                    info.wal_records_kept,
                    start.elapsed(),
                );
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

    fn admit(
        &self,
        session: &Session,
        tenant: &Arc<TenantMetrics>,
        deadline: Deadline,
    ) -> TvResult<crate::admission::Permit<'_>> {
        match self.admission.admit(&session.tenant, deadline) {
            Ok((permit, info)) => {
                tenant.record_admitted(info.queued_at_depth);
                Ok(permit)
            }
            Err(e) => {
                match &e {
                    TvError::Overloaded(m) if m.contains("rate limit") => {
                        tenant.record_rate_limited();
                    }
                    TvError::Overloaded(_) => tenant.record_rejected(),
                    TvError::Timeout(_) => tenant.record_timeout(),
                    _ => {}
                }
                Err(e)
            }
        }
    }

    fn record_outcome<T>(&self, tenant: &Arc<TenantMetrics>, start: Instant, result: &TvResult<T>) {
        match result {
            Ok(_) => tenant.record_completed(start.elapsed()),
            Err(TvError::PermissionDenied(_)) => tenant.record_denied(),
            Err(TvError::Timeout(_)) => tenant.record_timeout(),
            Err(_) => {}
        }
    }

    /// Execute a GSQL query as the session's user: admission, type grants,
    /// row security, and the session deadline all apply.
    pub fn query(&self, session: &Session, src: &str, params: &Params) -> TvResult<QueryOutput> {
        let tenant = self.metrics.tenant(&session.tenant);
        let deadline = self.deadline_for(session);
        let start = Instant::now();
        let permit = self.admit(session, &tenant, deadline)?;
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
        drop(permit);
        self.record_outcome(&tenant, start, &result);
        result
    }

    /// Direct vector top-k over `attr_ids`, batched with concurrent
    /// same-shape queries when the session's user has unrestricted read
    /// access. Row-restricted users run solo (their pre-filter is private),
    /// which keeps batched results bit-identical to one-by-one execution.
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
        let permit = self.admit(session, &tenant, deadline)?;
        let tid = self.graph.read_tid();
        let ef = self.graph.embeddings().config().default_ef.max(k);

        let restriction =
            match self
                .acl
                .restriction_for_attrs(&self.graph, &session.user, attr_ids, tid)
            {
                Ok(r) => r,
                Err(e) => {
                    drop(permit);
                    let failed: TvResult<()> = Err(e);
                    self.record_outcome(&tenant, start, &failed);
                    return failed.map(|()| Vec::new());
                }
            };

        let result = match restriction {
            Some(set) => {
                let mut stats = SearchStats::default();
                let r = self.graph.vector_search_deadline(
                    attr_ids,
                    &query,
                    k,
                    ef,
                    Some(&set),
                    tid,
                    deadline,
                    &mut stats,
                );
                tenant.record_plans(&stats);
                r
            }
            None => {
                let key = BatchKey {
                    attr_ids: attr_ids.to_vec(),
                    k,
                    ef,
                    tid,
                };
                let graph = Arc::clone(&self.graph);
                let batch_tenant = Arc::clone(&tenant);
                let out = self.batcher.submit(&key, query, move |queries| {
                    let batch: Vec<BatchQuery> = queries
                        .iter()
                        .map(|q| BatchQuery {
                            query: q.clone(),
                            k,
                            ef,
                        })
                        .collect();
                    let mut stats = SearchStats::default();
                    let r = graph
                        .embeddings()
                        .top_k_many(attr_ids, &batch, tid, None, deadline, &mut stats);
                    batch_tenant.record_plans(&stats);
                    r
                });
                tenant.record_batched(out.batch_size);
                out.result
            }
        };
        drop(permit);
        self.record_outcome(&tenant, start, &result);
        result
    }

    /// Scatter a top-k across the attached cluster runtime with the session
    /// deadline propagated into every worker loop. The full
    /// [`ClusterResponse`] is returned so callers see the coverage of a
    /// degraded answer; the tenant's metrics record every replica retry,
    /// hedge, and degraded completion.
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
        let permit = self.admit(session, &tenant, deadline)?;
        let result = runtime.top_k_deadline(query, k, ef, tid, None, deadline);
        drop(permit);
        if let Ok(response) = &result {
            tenant.record_cluster(
                response.retries,
                response.hedges,
                !response.coverage.is_complete(),
            );
        }
        self.record_outcome(&tenant, start, &result);
        result
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
        let result = migrator.run(plan);
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
}
