//! Per-tenant serving metrics.
//!
//! Counters are plain atomics and latency is a [`LatencyHistogram`]
//! (log2-bucketed, lock-free), so the hot path never takes a lock. The
//! registry renders a JSON snapshot with one object per tenant — the shape
//! documented in `DESIGN.md` under "Serving layer".

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tv_cluster::MigrationReport;
use tv_common::LatencyHistogram;
use tv_hnsw::SearchStats;

/// Counters and latency for one tenant.
#[derive(Default)]
pub struct TenantMetrics {
    admitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    rate_limited: AtomicU64,
    timeouts: AtomicU64,
    denied: AtomicU64,
    batched: AtomicU64,
    fanouts: AtomicU64,
    max_batch_size: AtomicU64,
    max_queue_depth: AtomicU64,
    cluster_retries: AtomicU64,
    cluster_hedges: AtomicU64,
    degraded: AtomicU64,
    plans_brute: AtomicU64,
    plans_in_traversal: AtomicU64,
    plans_post_filter: AtomicU64,
    ef_escalations: AtomicU64,
    brute_fallbacks: AtomicU64,
    latency: LatencyHistogram,
    wait: LatencyHistogram,
}

impl TenantMetrics {
    /// A request passed admission; `queued_at_depth` is the queue depth it
    /// observed (0 = fast path, or a batch follower: it has no slot of its
    /// own) and `waited` the time from its arrival to the start of its
    /// execution — queue wait and batch wait alike.
    pub fn record_admitted(&self, queued_at_depth: usize, waited: Duration) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.max_queue_depth
            .fetch_max(queued_at_depth as u64, Ordering::Relaxed);
        self.wait.record(waited);
    }

    /// A request finished successfully after `elapsed`.
    pub fn record_completed(&self, elapsed: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(elapsed);
    }

    /// A request was shed at the admission queue.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was shed by the tenant's token bucket.
    pub fn record_rate_limited(&self) {
        self.rate_limited.fetch_add(1, Ordering::Relaxed);
    }

    /// A request's deadline expired (queued or mid-search).
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// rbac denied the request.
    pub fn record_denied(&self) {
        self.denied.fetch_add(1, Ordering::Relaxed);
    }

    /// The request executed inside a coalesced batch of `size` queries.
    pub fn record_batched(&self, size: usize) {
        if size > 1 {
            self.batched.fetch_add(1, Ordering::Relaxed);
        }
        self.max_batch_size
            .fetch_max(size as u64, Ordering::Relaxed);
    }

    /// The request ran a direct top-k fan-out, for itself alone or as the
    /// leader of a batch (completed top-ks ÷ fan-outs = mean batch size).
    pub fn record_fanout(&self) {
        self.fanouts.fetch_add(1, Ordering::Relaxed);
    }

    /// A cluster scatter-gather finished: `retries` replica re-routes and
    /// `hedges` duplicate requests were needed, and the answer was
    /// `degraded` (incomplete coverage) or not.
    pub fn record_cluster(&self, retries: u64, hedges: u64, degraded: bool) {
        self.cluster_retries.fetch_add(retries, Ordering::Relaxed);
        self.cluster_hedges.fetch_add(hedges, Ordering::Relaxed);
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Requests that passed admission.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests rejected at the queue.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Requests rejected by the rate limiter.
    #[must_use]
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited.load(Ordering::Relaxed)
    }

    /// Requests whose deadline expired.
    #[must_use]
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Requests denied by rbac.
    #[must_use]
    pub fn denied(&self) -> u64 {
        self.denied.load(Ordering::Relaxed)
    }

    /// Deepest queue position any request of this tenant observed.
    #[must_use]
    pub fn max_queue_depth(&self) -> u64 {
        self.max_queue_depth.load(Ordering::Relaxed)
    }

    /// Replica re-routes performed for this tenant's cluster queries.
    #[must_use]
    pub fn cluster_retries(&self) -> u64 {
        self.cluster_retries.load(Ordering::Relaxed)
    }

    /// Hedged (duplicate) cluster requests sent for this tenant.
    #[must_use]
    pub fn cluster_hedges(&self) -> u64 {
        self.cluster_hedges.load(Ordering::Relaxed)
    }

    /// Cluster queries answered with incomplete coverage.
    #[must_use]
    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// The latency histogram (successful requests only).
    #[must_use]
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Accumulate the filtered-search planner's routing counters from one
    /// query's [`SearchStats`] (one count per segment search routed).
    pub fn record_plans(&self, stats: &SearchStats) {
        self.plans_brute
            .fetch_add(stats.plans_brute, Ordering::Relaxed);
        self.plans_in_traversal
            .fetch_add(stats.plans_in_traversal, Ordering::Relaxed);
        self.plans_post_filter
            .fetch_add(stats.plans_post_filter, Ordering::Relaxed);
        self.ef_escalations
            .fetch_add(stats.ef_escalations, Ordering::Relaxed);
        self.brute_fallbacks
            .fetch_add(stats.brute_fallbacks, Ordering::Relaxed);
    }

    /// Segment searches the planner routed to an exact scan.
    #[must_use]
    pub fn plans_brute(&self) -> u64 {
        self.plans_brute.load(Ordering::Relaxed)
    }

    /// Segment searches the planner routed to in-traversal filtering.
    #[must_use]
    pub fn plans_in_traversal(&self) -> u64 {
        self.plans_in_traversal.load(Ordering::Relaxed)
    }

    /// Segment searches the planner routed to beam + post-filter.
    #[must_use]
    pub fn plans_post_filter(&self) -> u64 {
        self.plans_post_filter.load(Ordering::Relaxed)
    }

    /// Starvation escalations (doubled `ef` and retried).
    #[must_use]
    pub fn ef_escalations(&self) -> u64 {
        self.ef_escalations.load(Ordering::Relaxed)
    }

    /// Starvation escalations that fell back to an exact scan.
    #[must_use]
    pub fn brute_fallbacks(&self) -> u64 {
        self.brute_fallbacks.load(Ordering::Relaxed)
    }

    /// Flat JSON object for this tenant.
    #[must_use]
    pub fn snapshot(&self) -> serde_json::Value {
        let (p50, p95, p99) = self.latency.percentiles();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut m = serde_json::Map::new();
        m.insert("admitted".into(), self.admitted().into());
        m.insert(
            "batched".into(),
            self.batched.load(Ordering::Relaxed).into(),
        );
        m.insert("cluster_hedges".into(), self.cluster_hedges().into());
        m.insert("cluster_retries".into(), self.cluster_retries().into());
        m.insert(
            "completed".into(),
            self.completed.load(Ordering::Relaxed).into(),
        );
        m.insert("degraded".into(), self.degraded().into());
        m.insert("denied".into(), self.denied().into());
        m.insert(
            "fanouts".into(),
            self.fanouts.load(Ordering::Relaxed).into(),
        );
        m.insert("latency_count".into(), self.latency.count().into());
        m.insert("latency_max_ms".into(), ms(self.latency.max()).into());
        m.insert("latency_mean_ms".into(), ms(self.latency.mean()).into());
        m.insert("latency_p50_ms".into(), ms(p50).into());
        m.insert("latency_p95_ms".into(), ms(p95).into());
        m.insert("latency_p99_ms".into(), ms(p99).into());
        m.insert(
            "max_batch_size".into(),
            self.max_batch_size.load(Ordering::Relaxed).into(),
        );
        m.insert("max_queue_depth".into(), self.max_queue_depth().into());
        m.insert("plans_brute".into(), self.plans_brute().into());
        m.insert(
            "plans_in_traversal".into(),
            self.plans_in_traversal().into(),
        );
        m.insert("plans_post_filter".into(), self.plans_post_filter().into());
        m.insert("plan_ef_escalations".into(), self.ef_escalations().into());
        m.insert("plan_brute_fallbacks".into(), self.brute_fallbacks().into());
        m.insert("rate_limited".into(), self.rate_limited().into());
        m.insert("rejected".into(), self.rejected().into());
        m.insert("timeouts".into(), self.timeouts().into());
        let (wait_p50, wait_p95, wait_p99) = self.wait.percentiles();
        m.insert("wait_p50_ms".into(), ms(wait_p50).into());
        m.insert("wait_p95_ms".into(), ms(wait_p95).into());
        m.insert("wait_p99_ms".into(), ms(wait_p99).into());
        serde_json::Value::Object(m)
    }
}

/// System-wide durability counters (checkpoints are not tenant work).
#[derive(Default)]
pub struct DurabilityMetrics {
    checkpoints: AtomicU64,
    checkpoint_failures: AtomicU64,
    last_checkpoint_tid: AtomicU64,
    last_checkpoint_files: AtomicU64,
    wal_records_kept: AtomicU64,
    checkpoint_latency: LatencyHistogram,
    graph_store_tail: AtomicU64,
}

impl DurabilityMetrics {
    /// A checkpoint completed at `tid`, writing `files` data files and
    /// leaving `wal_kept` records in the rotated WAL.
    pub fn record_checkpoint(&self, tid: u64, files: usize, wal_kept: usize, elapsed: Duration) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.last_checkpoint_tid.store(tid, Ordering::Relaxed);
        self.last_checkpoint_files
            .store(files as u64, Ordering::Relaxed);
        self.wal_records_kept
            .store(wal_kept as u64, Ordering::Relaxed);
        self.checkpoint_latency.record(elapsed);
    }

    /// Gauge: pending graph-store deltas (summed `SegmentStore`
    /// `pending_deltas`) as of the latest metrics snapshot. Nothing in the
    /// serving path folds the graph store, so this grows with every write.
    pub fn set_graph_store_tail(&self, pending: usize) {
        self.graph_store_tail
            .store(pending as u64, Ordering::Relaxed);
    }

    /// A checkpoint attempt failed.
    pub fn record_checkpoint_failure(&self) {
        self.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed checkpoints.
    #[must_use]
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Failed checkpoint attempts.
    #[must_use]
    pub fn checkpoint_failures(&self) -> u64 {
        self.checkpoint_failures.load(Ordering::Relaxed)
    }

    /// TID of the most recent completed checkpoint.
    #[must_use]
    pub fn last_checkpoint_tid(&self) -> u64 {
        self.last_checkpoint_tid.load(Ordering::Relaxed)
    }

    /// Flat JSON object for the durability subsystem.
    #[must_use]
    pub fn snapshot(&self) -> serde_json::Value {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut m = serde_json::Map::new();
        m.insert("checkpoints".into(), self.checkpoints().into());
        m.insert(
            "checkpoint_failures".into(),
            self.checkpoint_failures().into(),
        );
        m.insert(
            "last_checkpoint_tid".into(),
            self.last_checkpoint_tid().into(),
        );
        m.insert(
            "last_checkpoint_files".into(),
            self.last_checkpoint_files.load(Ordering::Relaxed).into(),
        );
        m.insert(
            "wal_records_kept".into(),
            self.wal_records_kept.load(Ordering::Relaxed).into(),
        );
        m.insert(
            "checkpoint_mean_ms".into(),
            ms(self.checkpoint_latency.mean()).into(),
        );
        m.insert(
            "graph_store_tail".into(),
            self.graph_store_tail.load(Ordering::Relaxed).into(),
        );
        serde_json::Value::Object(m)
    }
}

/// System-wide elastic-cluster counters (segment migrations are admin
/// work, not tenant work).
#[derive(Default)]
pub struct ClusterMetrics {
    migrations_completed: AtomicU64,
    migrations_aborted: AtomicU64,
    shipped_bytes: AtomicU64,
    catchup_records: AtomicU64,
    last_flip_pause_us: AtomicU64,
    placement_generation: AtomicU64,
    migration_errors: AtomicU64,
    last_error: Mutex<Option<String>>,
}

impl ClusterMetrics {
    /// A migration completed (or was found already complete on retry).
    pub fn record_completed(&self, report: &MigrationReport) {
        self.migrations_completed.fetch_add(1, Ordering::Relaxed);
        self.shipped_bytes
            .fetch_add(report.shipped_bytes, Ordering::Relaxed);
        self.catchup_records
            .fetch_add(report.catchup_records, Ordering::Relaxed);
        self.last_flip_pause_us
            .store(report.flip_pause.as_micros() as u64, Ordering::Relaxed);
        self.placement_generation
            .fetch_max(report.generation, Ordering::Relaxed);
    }

    /// A migration aborted cleanly; `detail` names the plan and error.
    pub fn record_aborted(&self, detail: String) {
        self.migrations_aborted.fetch_add(1, Ordering::Relaxed);
        *self.last_error.lock() = Some(detail);
    }

    /// Sync the error count from the runtime's migration-error log.
    pub fn set_migration_errors(&self, count: u64) {
        self.migration_errors.store(count, Ordering::Relaxed);
    }

    /// Completed migrations.
    #[must_use]
    pub fn migrations_completed(&self) -> u64 {
        self.migrations_completed.load(Ordering::Relaxed)
    }

    /// Cleanly-aborted migrations.
    #[must_use]
    pub fn migrations_aborted(&self) -> u64 {
        self.migrations_aborted.load(Ordering::Relaxed)
    }

    /// Newest placement generation any completed migration produced.
    #[must_use]
    pub fn placement_generation(&self) -> u64 {
        self.placement_generation.load(Ordering::Relaxed)
    }

    /// Most recent abort detail, if any migration has failed.
    #[must_use]
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Flat JSON object for the elastic-cluster subsystem.
    #[must_use]
    pub fn snapshot(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        m.insert(
            "migrations_completed".into(),
            self.migrations_completed().into(),
        );
        m.insert(
            "migrations_aborted".into(),
            self.migrations_aborted().into(),
        );
        m.insert(
            "shipped_bytes".into(),
            self.shipped_bytes.load(Ordering::Relaxed).into(),
        );
        m.insert(
            "catchup_records".into(),
            self.catchup_records.load(Ordering::Relaxed).into(),
        );
        m.insert(
            "last_flip_pause_us".into(),
            self.last_flip_pause_us.load(Ordering::Relaxed).into(),
        );
        m.insert(
            "placement_generation".into(),
            self.placement_generation().into(),
        );
        m.insert(
            "migration_errors".into(),
            self.migration_errors.load(Ordering::Relaxed).into(),
        );
        m.insert(
            "last_error".into(),
            self.last_error()
                .map_or(serde_json::Value::Null, Into::into),
        );
        serde_json::Value::Object(m)
    }
}

/// Registry of per-tenant metrics, get-or-create by tenant name, plus the
/// system-wide durability counters.
#[derive(Default)]
pub struct MetricsRegistry {
    tenants: RwLock<HashMap<String, Arc<TenantMetrics>>>,
    durability: DurabilityMetrics,
    cluster: ClusterMetrics,
}

impl MetricsRegistry {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Metrics handle for `tenant`, created on first use.
    pub fn tenant(&self, tenant: &str) -> Arc<TenantMetrics> {
        if let Some(m) = self.tenants.read().get(tenant) {
            return Arc::clone(m);
        }
        let mut w = self.tenants.write();
        Arc::clone(w.entry(tenant.to_string()).or_default())
    }

    /// The durability (checkpoint/recovery) counters.
    #[must_use]
    pub fn durability(&self) -> &DurabilityMetrics {
        &self.durability
    }

    /// The elastic-cluster (segment migration) counters.
    #[must_use]
    pub fn cluster(&self) -> &ClusterMetrics {
        &self.cluster
    }

    /// JSON snapshot: one object per tenant, keyed by tenant name, plus
    /// `__durability__` (checkpoint subsystem) and `__cluster__` (segment
    /// migration) objects.
    #[must_use]
    pub fn snapshot(&self) -> serde_json::Value {
        let tenants = self.tenants.read();
        let mut m = serde_json::Map::new();
        for (name, metrics) in tenants.iter() {
            m.insert(name.clone(), metrics.snapshot());
        }
        m.insert("__durability__".into(), self.durability.snapshot());
        m.insert("__cluster__".into(), self.cluster.snapshot());
        serde_json::Value::Object(m)
    }
}

/// Flat JSON object for the worker pool the served graph's queries fan out
/// on (`__pool__`): its occupancy and measured hand-off, its batch counters,
/// and `task_ns`, the embedding service's estimate of one segment search.
#[must_use]
pub fn pool_snapshot(pool: tv_common::PoolStats, task_ns: u64) -> serde_json::Value {
    let us = |ns: u64| ns as f64 / 1e3;
    serde_json::json!({
        "width": pool.width,
        "busy_lanes": pool.busy_lanes,
        "handoff_us": us(pool.handoff_ns),
        "runs_inline": pool.runs_inline,
        "runs_fanned": pool.runs_fanned,
        "helper_jobs_unclaimed": pool.helper_jobs_unclaimed,
        "task_us": us(task_ns),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_snapshot() {
        let reg = MetricsRegistry::new();
        let t = reg.tenant("acme");
        t.record_admitted(3, Duration::from_millis(2));
        t.record_admitted(1, Duration::ZERO);
        t.record_completed(Duration::from_millis(4));
        t.record_completed(Duration::from_millis(8));
        t.record_rejected();
        t.record_rate_limited();
        t.record_timeout();
        t.record_denied();
        t.record_batched(4);
        t.record_batched(1); // not counted: batch of one
        t.record_fanout();
        t.record_cluster(3, 1, true);
        t.record_cluster(2, 0, false);

        assert_eq!(t.admitted(), 2);
        assert_eq!(t.max_queue_depth(), 3);
        let snap = reg.snapshot();
        let acme = snap.get("acme").unwrap();
        assert_eq!(acme.get("admitted").unwrap().as_u64(), Some(2));
        assert_eq!(acme.get("completed").unwrap().as_u64(), Some(2));
        assert_eq!(acme.get("rejected").unwrap().as_u64(), Some(1));
        assert_eq!(acme.get("rate_limited").unwrap().as_u64(), Some(1));
        assert_eq!(acme.get("timeouts").unwrap().as_u64(), Some(1));
        assert_eq!(acme.get("denied").unwrap().as_u64(), Some(1));
        assert_eq!(acme.get("batched").unwrap().as_u64(), Some(1));
        assert_eq!(acme.get("max_batch_size").unwrap().as_u64(), Some(4));
        assert_eq!(acme.get("fanouts").unwrap().as_u64(), Some(1));
        assert!(acme.get("wait_p99_ms").unwrap().as_f64().unwrap() >= 1.0);
        assert!(acme.get("wait_p50_ms").unwrap().as_f64().unwrap() < 1.0);
        assert_eq!(acme.get("max_queue_depth").unwrap().as_u64(), Some(3));
        assert_eq!(acme.get("cluster_retries").unwrap().as_u64(), Some(5));
        assert_eq!(acme.get("cluster_hedges").unwrap().as_u64(), Some(1));
        assert_eq!(acme.get("degraded").unwrap().as_u64(), Some(1));
        assert!(acme.get("latency_p99_ms").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn tenant_handle_is_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.tenant("t");
        let b = reg.tenant("t");
        a.record_rejected();
        assert_eq!(b.rejected(), 1);
        assert_eq!(reg.tenants.read().len(), 1);
    }
}
