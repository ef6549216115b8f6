//! Amazon Neptune-style comparator.
//!
//! Properties from the paper (§2.3, §6): a **single vector index for the
//! entire graph** that "is not distributed, which significantly limits its
//! scalability"; **no parameter tuning** (plotted as one point, at ~99.9%
//! recall — so the fixed beam is large); **non-atomic index updates**
//! ("Neptune explicitly states that updates to the vector index are not
//! atomic"); and a managed HTTP endpoint whose per-request overhead no
//! amount of hardware hides.

use crate::baselines::system::{BuildTimes, RowKeys, VectorSystem};
use std::time::{Duration, Instant};
use tv_common::bitmap::Filter;
use tv_common::{DistanceMetric, GraphLayout, Neighbor, VertexId};
use tv_hnsw::{HnswConfig, HnswIndex, VectorIndex};

/// Fixed high-recall search beam (hits ~99.9% recall, untunable).
pub(crate) const FIXED_EF: usize = 400;

/// Neptune-style managed single-index system.
pub struct NeptuneLike {
    cfg: HnswConfig,
    staged: Vec<(VertexId, Vec<f32>)>,
    index: Option<HnswIndex>,
    /// The index's keys: every row in one local space.
    keys: RowKeys,
    times: BuildTimes,
}

impl NeptuneLike {
    /// New system.
    #[must_use]
    pub fn new(dim: usize, metric: DistanceMetric) -> Self {
        NeptuneLike {
            cfg: HnswConfig::new(dim, metric),
            staged: Vec::new(),
            index: None,
            keys: RowKeys::default(),
            times: BuildTimes::default(),
        }
    }
}

impl VectorSystem for NeptuneLike {
    fn name(&self) -> &'static str {
        "Neptune-like"
    }

    fn load(&mut self, data: &[(VertexId, Vec<f32>)]) {
        let start = Instant::now();
        self.staged.extend_from_slice(data);
        self.times.data_load += start.elapsed();
    }

    fn build_index(&mut self) {
        let start = Instant::now();
        let mut index = HnswIndex::new(self.cfg);
        self.keys = RowKeys::default();
        for (id, v) in &self.staged {
            index
                .insert(self.keys.key(*id), v)
                .expect("dimensions valid");
        }
        index.compile_layout(GraphLayout::PackedPrefetch);
        self.index = Some(index);
        self.times.index_build += start.elapsed();
    }

    fn build_times(&self) -> BuildTimes {
        self.times
    }

    fn supports_ef_tuning(&self) -> bool {
        false
    }

    fn set_ef(&mut self, _ef: usize) -> bool {
        false
    }

    fn top_k(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        match &self.index {
            Some(idx) => self
                .keys
                .restore(idx.top_k(query, k, FIXED_EF, Filter::All).0),
            None => Vec::new(),
        }
    }

    fn parallel_efficiency(&self) -> f64 {
        crate::baselines::cost::CostModel::neptune().parallel_efficiency
    }

    fn request_overhead(&self) -> Duration {
        crate::baselines::cost::CostModel::neptune().request_overhead
    }

    fn update(&mut self, _id: VertexId, _vector: &[f32]) -> bool {
        // NOT atomic: the update is acknowledged, but it lands in the index
        // only at an asynchronous refresh, which no benchmark window here
        // is long enough to see.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::ids::SegmentLayout;
    use tv_common::SplitMix64;

    fn sys_with_data(n: usize) -> (NeptuneLike, Vec<(VertexId, Vec<f32>)>) {
        let layout = SegmentLayout::with_capacity(1 << 20);
        let mut rng = SplitMix64::new(21);
        let data: Vec<(VertexId, Vec<f32>)> = (0..n)
            .map(|i| {
                (
                    layout.vertex_id(i),
                    (0..8).map(|_| rng.next_f32()).collect(),
                )
            })
            .collect();
        let mut sys = NeptuneLike::new(8, DistanceMetric::L2);
        sys.load(&data);
        sys.build_index();
        (sys, data)
    }

    #[test]
    fn untunable_but_accurate() {
        let (sys, data) = sys_with_data(400);
        assert!(!sys.supports_ef_tuning());
        // Fixed beam is large → exact-match queries resolve correctly.
        for i in [0usize, 99, 399] {
            assert_eq!(sys.top_k(&data[i].1, 1)[0].id, data[i].0);
        }
    }

    #[test]
    fn updates_are_not_atomic() {
        let (mut sys, data) = sys_with_data(100);
        let probe = vec![42.0f32; 8];
        let new_id = VertexId(999_999);
        assert!(sys.update(new_id, &probe));
        // Acknowledged but invisible to search.
        let r = sys.top_k(&probe, 1);
        assert_ne!(r[0].id, new_id);
        let _ = data;
    }
}
