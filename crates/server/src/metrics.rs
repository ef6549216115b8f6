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
use tg_graph::CheckpointInfo;
use tv_cluster::MigrationReport;
use tv_common::LatencyHistogram;
use tv_hnsw::SearchStats;

/// Declares one metrics block: an `AtomicU64` per counter, named once —
/// the field is also the JSON key — plus whatever else the block holds, and
/// `counters()`, the rendered list `snapshot()` starts from. The `record_*`
/// methods touch the fields directly: one relaxed atomic op, no lookup.
macro_rules! metrics_block {
    (
        $(#[$attr:meta])*
        pub struct $name:ident {
            counters { $($(#[$doc:meta])* $counter:ident,)* }
            $($field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$attr])*
        #[derive(Default)]
        pub(crate) struct $name {
            $($(#[$doc])* $counter: AtomicU64,)*
            $($field: $ty,)*
        }

        impl $name {
            /// Every counter of the block under its JSON key.
            fn counters(&self) -> serde_json::Map {
                let mut m = serde_json::Map::new();
                $(m.insert(
                    stringify!($counter).into(),
                    self.$counter.load(Ordering::Relaxed).into(),
                );)*
                m
            }
        }
    };
}

fn ms(d: Duration) -> serde_json::Value {
    (d.as_secs_f64() * 1e3).into()
}

metrics_block! {
    /// Counters and latency for one tenant.
    pub struct TenantMetrics {
        counters {
            /// Requests that passed admission.
            admitted,
            /// Requests that finished successfully.
            completed,
            /// Requests shed at the admission queue.
            rejected,
            /// Requests shed by the tenant's token bucket.
            rate_limited,
            /// Requests whose deadline expired (queued or mid-search).
            timeouts,
            /// Requests denied by rbac.
            denied,
            /// Requests that executed inside a coalesced batch of two or more.
            batched,
            /// Direct top-k fan-outs run (completed top-ks ÷ fan-outs = mean
            /// batch size).
            fanouts,
            /// Largest coalesced batch any request of this tenant ran in.
            max_batch_size,
            /// Deepest queue position any request of this tenant observed.
            max_queue_depth,
            /// Replica re-routes performed for this tenant's cluster queries.
            cluster_retries,
            /// Hedged (duplicate) cluster requests sent for this tenant.
            cluster_hedges,
            /// Cluster queries answered with incomplete coverage.
            degraded,
            /// Segment searches the planner routed to an exact scan.
            plans_brute,
            /// Segment searches the planner routed to in-traversal filtering.
            plans_in_traversal,
            /// Segment searches the planner routed to beam + post-filter.
            plans_post_filter,
            /// Starvation escalations (doubled `ef` and retried).
            plan_ef_escalations,
            /// Starvation escalations that fell back to an exact scan.
            plan_brute_fallbacks,
        }
        latency: LatencyHistogram,
        wait: LatencyHistogram,
    }
}

impl TenantMetrics {
    /// A request passed admission; `queued_at_depth` is the queue depth it
    /// observed (0 = fast path, or a batch member that another member ran:
    /// it has no slot of its own) and `waited` the time from its arrival to
    /// the start of its execution — queue wait and batch wait alike.
    pub(crate) fn record_admitted(&self, queued_at_depth: usize, waited: Duration) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.max_queue_depth
            .fetch_max(queued_at_depth as u64, Ordering::Relaxed);
        self.wait.record(waited);
    }

    /// A request finished successfully after `elapsed`.
    pub(crate) fn record_completed(&self, elapsed: Duration) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(elapsed);
    }

    /// A request was shed at the admission queue.
    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was shed by the tenant's token bucket.
    pub(crate) fn record_rate_limited(&self) {
        self.rate_limited.fetch_add(1, Ordering::Relaxed);
    }

    /// A request's deadline expired (queued or mid-search).
    pub(crate) fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// rbac denied the request.
    pub(crate) fn record_denied(&self) {
        self.denied.fetch_add(1, Ordering::Relaxed);
    }

    /// The request executed inside a coalesced batch of `size` queries.
    pub(crate) fn record_batched(&self, size: usize) {
        if size > 1 {
            self.batched.fetch_add(1, Ordering::Relaxed);
        }
        self.max_batch_size
            .fetch_max(size as u64, Ordering::Relaxed);
    }

    /// The request ran a direct top-k fan-out, for itself alone or for its
    /// whole batch.
    pub(crate) fn record_fanout(&self) {
        self.fanouts.fetch_add(1, Ordering::Relaxed);
    }

    /// A cluster scatter-gather finished: `retries` replica re-routes and
    /// `hedges` duplicate requests were needed, and the answer was
    /// `degraded` (incomplete coverage) or not.
    pub(crate) fn record_cluster(&self, retries: u64, hedges: u64, degraded: bool) {
        self.cluster_retries.fetch_add(retries, Ordering::Relaxed);
        self.cluster_hedges.fetch_add(hedges, Ordering::Relaxed);
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accumulate the filtered-search planner's routing counters from one
    /// query's [`SearchStats`] (one count per segment search routed).
    pub(crate) fn record_plans(&self, stats: &SearchStats) {
        self.plans_brute
            .fetch_add(stats.plans_brute, Ordering::Relaxed);
        self.plans_in_traversal
            .fetch_add(stats.plans_in_traversal, Ordering::Relaxed);
        self.plans_post_filter
            .fetch_add(stats.plans_post_filter, Ordering::Relaxed);
        self.plan_ef_escalations
            .fetch_add(stats.ef_escalations, Ordering::Relaxed);
        self.plan_brute_fallbacks
            .fetch_add(stats.brute_fallbacks, Ordering::Relaxed);
    }

    /// Flat JSON object for this tenant: the counters, the latency of
    /// successful requests and the admission wait.
    #[must_use]
    pub fn snapshot(&self) -> serde_json::Value {
        let mut m = self.counters();
        let (p50, p95, p99) = self.latency.percentiles();
        m.insert("latency_count".into(), self.latency.count().into());
        m.insert("latency_max_ms".into(), ms(self.latency.max()));
        m.insert("latency_mean_ms".into(), ms(self.latency.mean()));
        m.insert("latency_p50_ms".into(), ms(p50));
        m.insert("latency_p95_ms".into(), ms(p95));
        m.insert("latency_p99_ms".into(), ms(p99));
        let (wait_p50, wait_p95, wait_p99) = self.wait.percentiles();
        m.insert("wait_p50_ms".into(), ms(wait_p50));
        m.insert("wait_p95_ms".into(), ms(wait_p95));
        m.insert("wait_p99_ms".into(), ms(wait_p99));
        serde_json::Value::Object(m)
    }
}

metrics_block! {
    /// System-wide durability counters (checkpoints are not tenant work).
    pub struct DurabilityMetrics {
        counters {
            /// Completed checkpoints.
            checkpoints,
            /// Failed checkpoint attempts.
            checkpoint_failures,
            /// TID of the most recent completed checkpoint.
            last_checkpoint_tid,
            /// Data files the most recent checkpoint wrote.
            last_checkpoint_files,
            /// Payload bytes the most recent checkpoint wrote (data files
            /// and manifest): over `checkpoint_mean_ms`, its write rate.
            last_checkpoint_bytes,
            /// Records the most recent checkpoint left in the rotated WAL.
            wal_records_kept,
            /// Gauge: pending graph-store deltas (summed `SegmentStore`
            /// `pending_deltas`) as of the latest metrics snapshot. Nothing
            /// in the serving path folds the graph store, so this grows
            /// with every write.
            graph_store_tail,
        }
        checkpoint_latency: LatencyHistogram,
    }
}

impl DurabilityMetrics {
    /// A checkpoint completed in `elapsed`.
    pub(crate) fn record_checkpoint(&self, info: &CheckpointInfo, elapsed: Duration) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.last_checkpoint_tid
            .store(info.tid.0, Ordering::Relaxed);
        self.last_checkpoint_files
            .store(info.files as u64, Ordering::Relaxed);
        self.last_checkpoint_bytes
            .store(info.bytes, Ordering::Relaxed);
        self.wal_records_kept
            .store(info.wal_records_kept as u64, Ordering::Relaxed);
        self.checkpoint_latency.record(elapsed);
    }

    /// Set the `graph_store_tail` gauge.
    pub(crate) fn set_graph_store_tail(&self, pending: usize) {
        self.graph_store_tail
            .store(pending as u64, Ordering::Relaxed);
    }

    /// A checkpoint attempt failed.
    pub(crate) fn record_checkpoint_failure(&self) {
        self.checkpoint_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Flat JSON object for the durability subsystem.
    #[must_use]
    pub fn snapshot(&self) -> serde_json::Value {
        let mut m = self.counters();
        m.insert(
            "checkpoint_mean_ms".into(),
            ms(self.checkpoint_latency.mean()),
        );
        serde_json::Value::Object(m)
    }
}

metrics_block! {
    /// System-wide elastic-cluster counters (segment migrations are admin
    /// work, not tenant work).
    pub struct ClusterMetrics {
        counters {
            /// Migrations completed (or found already complete on retry).
            migrations_completed,
            /// Cleanly-aborted migrations.
            migrations_aborted,
            /// Snapshot bytes shipped by completed migrations.
            shipped_bytes,
            /// Delta-tail records replayed by completed migrations.
            catchup_records,
            /// Append-gate pause of the most recent flip, in microseconds.
            last_flip_pause_us,
            /// Newest placement generation any completed migration produced.
            placement_generation,
            /// Length of the runtime's migration-error log.
            migration_errors,
        }
        last_error: Mutex<Option<String>>,
    }
}

impl ClusterMetrics {
    /// A migration completed (or was found already complete on retry).
    pub(crate) fn record_completed(&self, report: &MigrationReport) {
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
    pub(crate) fn record_aborted(&self, detail: String) {
        self.migrations_aborted.fetch_add(1, Ordering::Relaxed);
        *self.last_error.lock() = Some(detail);
    }

    /// Sync the error count from the runtime's migration-error log.
    pub(crate) fn set_migration_errors(&self, count: u64) {
        self.migration_errors.store(count, Ordering::Relaxed);
    }

    /// Flat JSON object for the elastic-cluster subsystem: the counters and
    /// the most recent abort detail, if any migration has failed.
    #[must_use]
    pub fn snapshot(&self) -> serde_json::Value {
        let mut m = self.counters();
        let last_error = self.last_error.lock().clone();
        m.insert(
            "last_error".into(),
            last_error.map_or(serde_json::Value::Null, Into::into),
        );
        serde_json::Value::Object(m)
    }
}

/// Registry of per-tenant metrics, get-or-create by tenant name, plus the
/// system-wide durability counters.
#[derive(Default)]
pub(crate) struct MetricsRegistry {
    tenants: RwLock<HashMap<String, Arc<TenantMetrics>>>,
    durability: DurabilityMetrics,
    cluster: ClusterMetrics,
}

impl MetricsRegistry {
    /// Empty registry.
    #[must_use]
    pub(crate) fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Metrics handle for `tenant`, created on first use.
    pub(crate) fn tenant(&self, tenant: &str) -> Arc<TenantMetrics> {
        if let Some(m) = self.tenants.read().get(tenant) {
            return Arc::clone(m);
        }
        let mut w = self.tenants.write();
        Arc::clone(w.entry(tenant.to_string()).or_default())
    }

    /// The durability (checkpoint/recovery) counters.
    #[must_use]
    pub(crate) fn durability(&self) -> &DurabilityMetrics {
        &self.durability
    }

    /// The elastic-cluster (segment migration) counters.
    #[must_use]
    pub(crate) fn cluster(&self) -> &ClusterMetrics {
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
pub(crate) fn pool_snapshot(pool: tv_common::PoolStats, task_ns: u64) -> serde_json::Value {
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
        assert_eq!(b.snapshot().get("rejected").unwrap().as_u64(), Some(1));
        assert_eq!(reg.tenants.read().len(), 1);
    }
}
