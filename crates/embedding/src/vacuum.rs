//! Background vacuum processes and dynamic merge-thread tuning (§4.3).
//!
//! The paper decouples vector vacuuming into two processes because flushing
//! deltas is ~30× faster than folding them into an HNSW index: a **delta
//! merge** that marks the committed deltas flushed, and an **index merge**
//! that folds the flushed deltas into a new index snapshot. Both run here
//! as background threads against an [`EmbeddingService`]. The index merge's
//! parallelism is adjusted each cycle by a [`ThreadTuner`] that models the
//! paper's CPU-utilization monitor: when foreground load is high, merge
//! threads back off to keep queries responsive.

use crate::service::EmbeddingService;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tv_common::{Tid, TvResult};

/// Vacuum scheduling knobs.
#[derive(Debug, Clone, Copy)]
pub struct VacuumConfig {
    /// Delta-merge period.
    pub delta_merge_interval: Duration,
    /// Index-merge period.
    pub index_merge_interval: Duration,
    /// Upper bound on index-merge worker threads.
    pub max_merge_threads: usize,
    /// Foreground CPU-utilization target in `[0, 1]`; merge threads shrink
    /// as measured load approaches it.
    pub target_utilization: f64,
}

impl Default for VacuumConfig {
    fn default() -> Self {
        VacuumConfig {
            delta_merge_interval: Duration::from_millis(20),
            index_merge_interval: Duration::from_millis(60),
            max_merge_threads: 4,
            target_utilization: 0.8,
        }
    }
}

/// Chooses the index-merge thread count from observed foreground load —
/// "we monitor the CPU utilization and dynamically tune the number of
/// threads for parallel index updates".
#[derive(Debug, Clone, Copy)]
pub(crate) struct ThreadTuner {
    /// Hard ceiling on merge threads.
    pub max_threads: usize,
    /// Foreground utilization target.
    pub target_utilization: f64,
}

impl ThreadTuner {
    /// Threads to use when foreground CPU utilization is `load` (0..=1):
    /// full parallelism when idle, scaled down proportionally as load nears
    /// the target, never below one (progress guarantee).
    #[must_use]
    pub(crate) fn tune(&self, load: f64) -> usize {
        let load = load.clamp(0.0, 1.0);
        if self.target_utilization <= 0.0 {
            return 1;
        }
        let headroom = ((self.target_utilization - load) / self.target_utilization).max(0.0);
        let threads = (self.max_threads as f64 * headroom).ceil() as usize;
        threads.clamp(1, self.max_threads.max(1))
    }
}

/// Error telemetry shared by the vacuum threads. A persistently failing
/// attribute used to be swallowed forever by `unwrap_or(0)`; now every
/// failed merge bumps the counter, so operators can see (and alert on) a
/// vacuum that is silently falling behind.
#[derive(Default)]
pub(crate) struct VacuumErrors {
    count: AtomicU64,
}

impl VacuumErrors {
    fn record(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total merge failures observed since start.
    #[must_use]
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// One vacuum round: a single sweep over `attrs`, with `merge` flushing
/// (delta merge) or folding (index merge) one attribute. Returns what the
/// whole sweep moved; failures are recorded, never swallowed.
fn sweep(attrs: &[u32], errors: &VacuumErrors, merge: impl Fn(u32) -> TvResult<usize>) -> usize {
    let mut moved = 0;
    for &attr in attrs {
        match merge(attr) {
            Ok(n) => moved += n,
            Err(_) => errors.record(),
        }
    }
    moved
}

/// Handle to the two background vacuum threads; stops and joins on drop.
pub struct BackgroundVacuum {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
    delta_merges: Arc<AtomicU64>,
    index_merges: Arc<AtomicU64>,
    errors: Arc<VacuumErrors>,
}

/// Callbacks the vacuum needs from the transaction layer: the committed
/// watermark (merge horizon) and the visibility horizon (prune bound).
pub struct VacuumHooks {
    /// Latest committed TID — deltas up to here may be flushed/merged.
    pub committed: Arc<dyn Fn() -> Tid + Send + Sync>,
    /// Oldest TID any running transaction might read — snapshots/files older
    /// than this may be reclaimed.
    pub horizon: Arc<dyn Fn() -> Tid + Send + Sync>,
    /// Foreground CPU-utilization estimate in `[0, 1]` (drives the tuner).
    pub load: Arc<dyn Fn() -> f64 + Send + Sync>,
}

impl BackgroundVacuum {
    /// Spawn the delta-merge and index-merge threads.
    #[must_use]
    pub fn start(service: Arc<EmbeddingService>, hooks: VacuumHooks, config: VacuumConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let delta_merges = Arc::new(AtomicU64::new(0));
        let index_merges = Arc::new(AtomicU64::new(0));
        let errors = Arc::new(VacuumErrors::default());
        let tuner = ThreadTuner {
            max_threads: config.max_merge_threads,
            target_utilization: config.target_utilization,
        };

        let mut handles = Vec::new();
        {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let committed = Arc::clone(&hooks.committed);
            let counter = Arc::clone(&delta_merges);
            let errors = Arc::clone(&errors);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let up_to = committed();
                    let flush = |attr| service.delta_merge(attr, up_to);
                    if sweep(&service.attr_ids(), &errors, flush) > 0 {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::sleep(config.delta_merge_interval);
                }
            }));
        }
        {
            let stop = Arc::clone(&stop);
            let committed = Arc::clone(&hooks.committed);
            let horizon = Arc::clone(&hooks.horizon);
            let load = Arc::clone(&hooks.load);
            let counter = Arc::clone(&index_merges);
            let errors = Arc::clone(&errors);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let threads = tuner.tune(load());
                    let up_to = committed();
                    let fold = |attr| service.index_merge(attr, up_to, threads);
                    if sweep(&service.attr_ids(), &errors, fold) > 0 {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                    service.prune(horizon());
                    std::thread::sleep(config.index_merge_interval);
                }
            }));
        }
        BackgroundVacuum {
            stop,
            handles,
            delta_merges,
            index_merges,
            errors,
        }
    }

    /// Completed delta-merge rounds — full sweeps over every registered
    /// attribute — that flushed at least one record. (A round that flushes
    /// several attributes counts once, not once per attribute.)
    #[must_use]
    pub fn delta_merge_count(&self) -> u64 {
        self.delta_merges.load(Ordering::Relaxed)
    }

    /// Completed index-merge rounds — full sweeps over every registered
    /// attribute — that folded at least one segment. (A round that folds
    /// several attributes counts once, not once per attribute.)
    #[must_use]
    pub fn index_merge_count(&self) -> u64 {
        self.index_merges.load(Ordering::Relaxed)
    }

    /// Merge failures observed since start (0 on a healthy vacuum).
    #[must_use]
    pub fn error_count(&self) -> u64 {
        self.errors.count()
    }

    /// Signal the threads to stop and join them.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for BackgroundVacuum {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use crate::types::EmbeddingTypeDef;
    use tv_common::ids::SegmentLayout;
    use tv_common::DistanceMetric;
    use tv_hnsw::DeltaRecord;

    #[test]
    fn tuner_scales_with_load() {
        let t = ThreadTuner {
            max_threads: 8,
            target_utilization: 0.8,
        };
        assert_eq!(t.tune(0.0), 8);
        assert!(t.tune(0.4) < 8);
        assert_eq!(t.tune(0.8), 1);
        assert_eq!(t.tune(1.0), 1);
        // Monotone non-increasing in load.
        let mut prev = usize::MAX;
        for i in 0..=10 {
            let n = t.tune(i as f64 / 10.0);
            assert!(n <= prev);
            prev = n;
        }
    }

    #[test]
    fn tuner_never_returns_zero() {
        let t = ThreadTuner {
            max_threads: 4,
            target_utilization: 0.5,
        };
        for load in [0.0, 0.5, 0.9, 1.0] {
            assert!(t.tune(load) >= 1);
        }
        let degenerate = ThreadTuner {
            max_threads: 0,
            target_utilization: 0.0,
        };
        assert_eq!(degenerate.tune(0.5), 1);
    }

    fn two_attr_service() -> (Arc<EmbeddingService>, Vec<u32>) {
        let svc = Arc::new(EmbeddingService::new(ServiceConfig {
            planner: tv_common::PlannerConfig::default().with_brute_threshold(4),
            query_threads: 1,
            default_ef: 32,
        }));
        let layout = SegmentLayout::with_capacity(64);
        let mut attrs = Vec::new();
        for (i, name) in ["a", "b"].iter().enumerate() {
            let attr = svc
                .register(
                    i as u32,
                    EmbeddingTypeDef::new(name, 4, "M", DistanceMetric::L2),
                    layout,
                )
                .unwrap();
            let recs: Vec<DeltaRecord> = (0..8)
                .map(|j| {
                    DeltaRecord::upsert(layout.vertex_id(j), Tid(j as u64 + 1), vec![j as f32; 4])
                })
                .collect();
            svc.apply_deltas(attr, &recs).unwrap();
            attrs.push(attr);
        }
        (svc, attrs)
    }

    #[test]
    fn a_round_counts_once_not_once_per_attribute() {
        // Regression: the counters used to increment per attribute per
        // cycle while the docs promised "completed rounds".
        let (svc, attrs) = two_attr_service();
        let errors = VacuumErrors::default();
        let flush = |attr| svc.delta_merge(attr, Tid(64));
        let flushed = sweep(&attrs, &errors, flush);
        assert_eq!(flushed, 16, "both attributes flushed in one sweep");
        let folded = sweep(&attrs, &errors, |attr| svc.index_merge(attr, Tid(64), 1));
        assert!(folded > 0);
        assert_eq!(errors.count(), 0);
        // The counter contract: one sweep = at most one increment. `sweep`
        // returns the sweep total, so the thread-side
        // `if round > 0 { counter += 1 }` cannot double-count attributes.
        let idle = sweep(&attrs, &errors, flush);
        assert_eq!(idle, 0, "nothing left to flush on the second sweep");
    }

    #[test]
    fn merge_errors_are_recorded_not_swallowed() {
        let (svc, _) = two_attr_service();
        let errors = VacuumErrors::default();
        // An unknown attribute id makes every merge fail — the shape of a
        // persistently failing attr.
        let flushed = sweep(&[9999], &errors, |attr| svc.delta_merge(attr, Tid(64)));
        assert_eq!(flushed, 0);
        assert_eq!(errors.count(), 1);
        sweep(&[9999], &errors, |attr| svc.index_merge(attr, Tid(64), 1));
        assert_eq!(errors.count(), 2);
    }

    #[test]
    fn background_vacuum_flushes_and_merges() {
        let svc = Arc::new(EmbeddingService::new(ServiceConfig {
            planner: tv_common::PlannerConfig::default().with_brute_threshold(4),
            query_threads: 1,
            default_ef: 32,
        }));
        let attr = svc
            .register(
                0,
                EmbeddingTypeDef::new("e", 4, "M", DistanceMetric::L2),
                SegmentLayout::with_capacity(64),
            )
            .unwrap();
        let recs: Vec<DeltaRecord> = (0..32)
            .map(|i| {
                DeltaRecord::upsert(
                    SegmentLayout::with_capacity(64).vertex_id(i),
                    Tid(i as u64 + 1),
                    vec![i as f32; 4],
                )
            })
            .collect();
        svc.apply_deltas(attr, &recs).unwrap();

        let committed: Arc<dyn Fn() -> Tid + Send + Sync> = Arc::new(|| Tid(32));
        let horizon: Arc<dyn Fn() -> Tid + Send + Sync> = Arc::new(|| Tid(32));
        let load: Arc<dyn Fn() -> f64 + Send + Sync> = Arc::new(|| 0.0);
        let vacuum = BackgroundVacuum::start(
            Arc::clone(&svc),
            VacuumHooks {
                committed,
                horizon,
                load,
            },
            VacuumConfig {
                delta_merge_interval: Duration::from_millis(5),
                index_merge_interval: Duration::from_millis(10),
                max_merge_threads: 2,
                target_utilization: 0.8,
            },
        );

        // Wait for the pipeline to drain (bounded).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let drained = svc.total_mem_deltas() == 0 && svc.total_delta_files() == 0;
            if drained || std::time::Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(vacuum.error_count(), 0, "healthy vacuum must report none");
        vacuum.stop();
        assert_eq!(svc.total_mem_deltas(), 0, "mem deltas not flushed");
        assert_eq!(svc.total_delta_files(), 0, "delta files not merged+pruned");
        // Data still searchable after the full pipeline.
        let (r, _) = svc.top_k(&[attr], &[5.0; 4], 1, 32, Tid(32), None).unwrap();
        assert_eq!(
            r[0].neighbor.id,
            SegmentLayout::with_capacity(64).vertex_id(5)
        );
    }
}
