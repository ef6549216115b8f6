//! TigerVector behind the benchmark trait: segmented HNSW indexes with a
//! tunable `ef`, per-segment search with a global merge, and a fast bulk
//! loader (the engine's loading tool, which Table 2 credits for the
//! data-load edge over Milvus).

use crate::baselines::system::{BuildTimes, VectorSystem};
use std::time::{Duration, Instant};
use tv_common::bitmap::Filter;
use tv_common::ids::SegmentLayout;
use tv_common::{merge_topk, DistanceMetric, Neighbor, QuantSpec, StorageTier, VertexId};
use tv_hnsw::{HnswConfig, HnswIndex, VectorIndex};

/// TigerVector's search core: one HNSW per embedding segment (§4.2).
pub struct TigerVectorSystem {
    /// Segment layout (capacity governs segment count).
    pub layout: SegmentLayout,
    cfg: HnswConfig,
    quant: QuantSpec,
    /// Raw per-segment vector staging (the "embedding segments").
    staged: Vec<Vec<(VertexId, Vec<f32>)>>,
    segments: Vec<HnswIndex>,
    ef: usize,
    times: BuildTimes,
}

impl TigerVectorSystem {
    /// New system with the paper's index parameters (M=16, efb=128).
    #[must_use]
    pub fn new(dim: usize, metric: DistanceMetric, layout: SegmentLayout) -> Self {
        TigerVectorSystem {
            layout,
            cfg: HnswConfig::new(dim, metric),
            quant: QuantSpec::f32(),
            staged: Vec::new(),
            segments: Vec::new(),
            ef: 64,
            times: BuildTimes::default(),
        }
    }

    /// Builder: store vectors on a quantized tier. Each segment index is
    /// quantized right after its build (index-build time includes the codec
    /// training, matching how a declared-quantized attribute behaves).
    #[must_use]
    pub fn with_quant(mut self, quant: QuantSpec) -> Self {
        self.quant = quant;
        self
    }

    /// Resident bytes across all segment indexes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.segments.iter().map(HnswIndex::memory_bytes).sum()
    }

    /// Bytes spent on vector payloads only (arena + norms + codes +
    /// codebooks) — the fair cross-tier comparison, excluding graph links.
    #[must_use]
    pub fn vector_storage_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(HnswIndex::vector_storage_bytes)
            .sum()
    }

    /// Storage tier the segments sit on.
    #[must_use]
    pub fn storage_tier(&self) -> StorageTier {
        self.quant.tier
    }

    /// Number of embedding segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len().max(self.staged.len())
    }
}

impl VectorSystem for TigerVectorSystem {
    fn name(&self) -> &'static str {
        match self.quant.tier {
            StorageTier::F32 => "TigerVector",
            StorageTier::Sq8 => "TigerVector-SQ8",
            StorageTier::Pq { .. } => "TigerVector-PQ",
        }
    }

    fn load(&mut self, data: &[(VertexId, Vec<f32>)]) {
        let start = Instant::now();
        // The optimized loading tool: route rows straight into per-segment
        // staging buffers — a single pass, no intermediate format.
        for (id, v) in data {
            let seg = id.segment().0 as usize;
            if self.staged.len() <= seg {
                self.staged.resize_with(seg + 1, Vec::new);
            }
            self.staged[seg].push((*id, v.clone()));
        }
        self.times.data_load += start.elapsed();
    }

    fn build_index(&mut self) {
        let start = Instant::now();
        self.segments = self
            .staged
            .iter()
            .enumerate()
            .map(|(si, rows)| {
                let mut idx = HnswIndex::new(self.cfg.with_seed(self.cfg.seed ^ si as u64));
                for (id, v) in rows {
                    idx.insert(*id, v).expect("staged dimensions are valid");
                }
                if self.quant.is_quantized() && idx.len() > 0 {
                    idx.quantize(self.quant).expect("fresh index accepts spec");
                }
                idx
            })
            .collect();
        self.times.index_build += start.elapsed();
    }

    fn build_times(&self) -> BuildTimes {
        self.times
    }

    fn set_ef(&mut self, ef: usize) -> bool {
        self.ef = ef;
        true
    }

    fn top_k(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let lists = self
            .segments
            .iter()
            .map(|seg| seg.top_k(query, k, self.ef, Filter::All).0);
        merge_topk(lists, k)
    }

    fn parallel_efficiency(&self) -> f64 {
        crate::baselines::cost::CostModel::tigervector().parallel_efficiency
    }

    fn request_overhead(&self) -> Duration {
        crate::baselines::cost::CostModel::tigervector().request_overhead
    }

    fn update(&mut self, id: VertexId, vector: &[f32]) -> bool {
        let seg = id.segment().0 as usize;
        if seg >= self.segments.len() {
            return false;
        }
        self.segments[seg].insert(id, vector).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::SplitMix64;

    #[test]
    fn segmented_build_and_search() {
        let layout = SegmentLayout::with_capacity(64);
        let mut sys = TigerVectorSystem::new(8, DistanceMetric::L2, layout);
        let mut rng = SplitMix64::new(3);
        let data: Vec<(VertexId, Vec<f32>)> = (0..256)
            .map(|i| {
                (
                    layout.vertex_id(i),
                    (0..8).map(|_| rng.next_f32()).collect(),
                )
            })
            .collect();
        sys.load(&data);
        sys.build_index();
        assert_eq!(sys.segment_count(), 4);
        assert!(sys.build_times().data_load > Duration::ZERO);
        assert!(sys.build_times().index_build > Duration::ZERO);
        let r = sys.top_k(&data[100].1, 1);
        assert_eq!(r[0].id, data[100].0);
    }

    /// Recall is tier-invariant at the system level: exhaustive-`ef` cosine
    /// search through the dispatched kernels must return the same top-k the
    /// scalar reference kernels rank exactly. Guards the kernel swap against
    /// recall drift (the fig7/fig8 acceptance bar is recall within ±0.001).
    #[test]
    fn cosine_search_matches_scalar_exact_ranking() {
        use tv_common::kernels::{self, KernelTier, PreparedQuery};
        let layout = SegmentLayout::with_capacity(64);
        let dim = 12;
        let mut sys = TigerVectorSystem::new(dim, DistanceMetric::Cosine, layout);
        let mut rng = SplitMix64::new(11);
        let data: Vec<(VertexId, Vec<f32>)> = (0..200)
            .map(|i| {
                (
                    layout.vertex_id(i),
                    (0..dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect(),
                )
            })
            .collect();
        sys.load(&data);
        sys.build_index();
        sys.set_ef(256); // exhaustive at this scale
        let scalar = kernels::for_tier(KernelTier::Scalar).unwrap();
        let k = 10;
        for probe in [0usize, 57, 199] {
            let q = &data[probe].1;
            let got: Vec<VertexId> = sys.top_k(q, k).into_iter().map(|n| n.id).collect();
            let pq = PreparedQuery::on(scalar, DistanceMetric::Cosine, q);
            let mut exact: Vec<(f32, VertexId)> =
                data.iter().map(|(id, v)| (pq.distance(v), *id)).collect();
            exact.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let want: Vec<VertexId> = exact.iter().take(k).map(|&(_, id)| id).collect();
            let hits = got.iter().filter(|id| want.contains(id)).count();
            assert_eq!(hits, k, "probe {probe}: got {got:?} want {want:?}");
        }
    }
}
