//! TigerVector behind the benchmark trait: the engine itself, one
//! [`EmbeddingService`] attribute (§4.2–4.3). Loading commits vector deltas
//! (the engine's loading tool, which Table 2 credits for the data-load edge
//! over Milvus); building runs the vacuum, which publishes one snapshot per
//! segment, quantized as declared and compiled into the served graph
//! layout; searching is the service's per-segment top-k and global merge.

use crate::baselines::system::{BuildTimes, VectorSystem};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tv_common::ids::SegmentLayout;
use tv_common::{DistanceMetric, GraphLayout, Neighbor, QuantSpec, StorageTier, Tid, VertexId};
use tv_embedding::service::EmbeddingAttr;
use tv_embedding::{EmbeddingService, EmbeddingTypeDef, ServiceConfig};
use tv_hnsw::DeltaRecord;

/// TigerVector's embedding service with one registered attribute.
pub struct TigerVectorSystem {
    service: EmbeddingService,
    attr: Arc<EmbeddingAttr>,
    layout: SegmentLayout,
    /// The newest committed TID: loads and updates commit above it, and
    /// searches read at it.
    tid: Tid,
    ef: usize,
    times: BuildTimes,
}

impl TigerVectorSystem {
    /// New system with the paper's index parameters (M=16, efb=128).
    #[must_use]
    pub fn new(dim: usize, metric: DistanceMetric, layout: SegmentLayout) -> Self {
        Self::declared(EmbeddingTypeDef::new("emb", dim, "bench", metric), layout)
    }

    /// One attribute declared `def`, on a service whose searches and merges
    /// run on the calling thread, as every system of Table 2 and the figures.
    fn declared(def: EmbeddingTypeDef, layout: SegmentLayout) -> Self {
        let service = EmbeddingService::new(ServiceConfig {
            query_threads: 1,
            ..ServiceConfig::default()
        });
        let attr = service
            .register(0, def, layout)
            .and_then(|id| service.attr(id))
            .expect("a fresh service registers its attribute");
        TigerVectorSystem {
            service,
            attr,
            layout,
            tid: Tid::ZERO,
            ef: 64,
            times: BuildTimes::default(),
        }
    }

    /// Builder, before any load: declare the attribute on a quantized tier.
    /// The build quantizes each segment's snapshot as it publishes it, so
    /// index-build time includes the codec training.
    #[must_use]
    pub fn with_quant(self, quant: QuantSpec) -> Self {
        assert!(
            self.tid == Tid::ZERO,
            "with_quant after a load drops its rows"
        );
        Self::declared(self.attr.def.clone().with_quant(quant), self.layout)
    }

    /// Record this system's tier, resident bytes, served layout and link
    /// bytes as the process's bench-JSON provenance. A binary that reports
    /// several systems stamps the one its provenance blocks describe.
    pub fn stamp_provenance(&self) {
        crate::set_storage_info(self.storage_tier(), self.memory_bytes());
        let snapshots: Vec<_> = self
            .attr
            .all_segments()
            .iter()
            .map(|s| s.newest_snapshot())
            .collect();
        crate::set_layout_info(snapshots.iter().map(|s| &s.index));
    }

    /// Resident bytes of the engine: every retained snapshot and delta.
    #[must_use]
    pub(crate) fn memory_bytes(&self) -> usize {
        self.service.memory_bytes()
    }

    /// Bytes spent on vector payloads only (arena + norms + codes +
    /// codebooks) — the fair cross-tier comparison, excluding graph links.
    #[must_use]
    pub fn vector_storage_bytes(&self) -> usize {
        let segments = self.attr.all_segments();
        segments
            .iter()
            .map(|s| s.newest_snapshot().index.vector_storage_bytes())
            .sum()
    }

    /// Storage tier of the first segment's newest snapshot (a segment
    /// stays f32 until it holds enough vectors to train its codec on).
    #[must_use]
    pub(crate) fn storage_tier(&self) -> StorageTier {
        let segments = self.attr.all_segments();
        segments
            .first()
            .map_or(StorageTier::F32, |s| s.storage_tier())
    }

    /// Number of embedding segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.attr.all_segments().len()
    }

    /// Commit upserts of `rows` at the TIDs after the newest one.
    fn commit(&mut self, rows: impl Iterator<Item = (VertexId, Vec<f32>)>) -> bool {
        let base = self.tid.0;
        let records: Vec<DeltaRecord> = rows
            .zip(base + 1..)
            .map(|((id, v), tid)| DeltaRecord::upsert(id, Tid(tid), v))
            .collect();
        let ok = self
            .service
            .apply_deltas(self.attr.attr_id, &records)
            .is_ok();
        if ok {
            self.tid = Tid(base + records.len() as u64);
        }
        ok
    }
}

impl VectorSystem for TigerVectorSystem {
    fn name(&self) -> &'static str {
        match self.attr.def.quant.tier {
            StorageTier::F32 => "TigerVector",
            StorageTier::Sq8 => "TigerVector-SQ8",
            StorageTier::Pq { .. } => "TigerVector-PQ",
        }
    }

    fn load(&mut self, data: &[(VertexId, Vec<f32>)]) {
        let start = Instant::now();
        let loaded = self.commit(data.iter().cloned());
        self.times.data_load += start.elapsed();
        assert!(loaded, "the engine refused the bulk load");
    }

    /// The vacuum at the newest TID, on one merge thread: flush the deltas,
    /// fold them into each segment's snapshot, and drop what no reader
    /// needs. Every segment then serves one compiled snapshot and no delta
    /// tail, which this asserts.
    fn build_index(&mut self) {
        let (start, id) = (Instant::now(), self.attr.attr_id);
        self.service
            .delta_merge(id, self.tid)
            .and_then(|_| self.service.index_merge(id, self.tid, 1))
            .expect("the index merge publishes every segment");
        self.service.prune(self.tid);
        self.times.index_build += start.elapsed();

        for s in self.attr.all_segments().iter() {
            assert!(
                s.snapshot_count() == 1
                    && s.mem_delta_count() + s.delta_file_count() == 0
                    && s.newest_snapshot().index.layout() == GraphLayout::PackedPrefetch,
                "{} after the build: not one compiled snapshot without a delta tail",
                s.segment_id
            );
        }
    }

    fn build_times(&self) -> BuildTimes {
        self.times
    }

    fn set_ef(&mut self, ef: usize) -> bool {
        self.ef = ef;
        true
    }

    fn top_k(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let (hits, _) = self
            .service
            .top_k(&[self.attr.attr_id], query, k, self.ef, self.tid, None)
            .expect("a query of the declared dimension");
        hits.into_iter().map(|t| t.neighbor).collect()
    }

    fn parallel_efficiency(&self) -> f64 {
        crate::baselines::cost::CostModel::tigervector().parallel_efficiency
    }

    fn request_overhead(&self) -> Duration {
        crate::baselines::cost::CostModel::tigervector().request_overhead
    }

    /// An upsert committed at the next TID; searches read it through the
    /// delta overlay until the next build folds it in.
    fn update(&mut self, id: VertexId, vector: &[f32]) -> bool {
        self.commit(std::iter::once((id, vector.to_vec())))
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

    #[test]
    #[should_panic(expected = "with_quant after a load")]
    fn with_quant_refuses_a_loaded_system() {
        let layout = SegmentLayout::with_capacity(64);
        let mut sys = TigerVectorSystem::new(4, DistanceMetric::L2, layout);
        sys.load(&[(layout.vertex_id(0), vec![0.0; 4])]);
        let _ = sys.with_quant(QuantSpec::sq8());
    }

    /// The adapter adds nothing to the engine: its answers are a
    /// hand-driven service's over the same commits, bit for bit; an update
    /// is read back through the overlay; its memory is the engine's; and a
    /// build leaves every segment one compiled snapshot and no tail.
    #[test]
    fn tigervector_system_is_the_engine() {
        use tv_embedding::{EmbeddingService, ServiceConfig};
        let (dim, metric) = (16, DistanceMetric::L2);
        let layout = SegmentLayout::with_capacity(300);
        let mut rng = SplitMix64::new(9);
        let data: Vec<(VertexId, Vec<f32>)> = (0..1000)
            .map(|i| {
                (
                    layout.vertex_id(i),
                    (0..dim).map(|_| rng.next_f32()).collect(),
                )
            })
            .collect();
        let mut sys = TigerVectorSystem::new(dim, metric, layout);
        sys.load(&data);
        sys.build_index();
        sys.set_ef(48);

        // The oracle: the service driven by hand, at its default width.
        let svc = EmbeddingService::new(ServiceConfig::default());
        let def = EmbeddingTypeDef::new("emb", dim, "bench", metric);
        let attr = svc.register(0, def, layout).unwrap();
        let recs: Vec<DeltaRecord> = data
            .iter()
            .enumerate()
            .map(|(i, (id, v))| DeltaRecord::upsert(*id, Tid(i as u64 + 1), v.clone()))
            .collect();
        let tid = Tid(recs.len() as u64);
        svc.apply_deltas(attr, &recs).unwrap();
        svc.delta_merge(attr, tid).unwrap();
        svc.index_merge(attr, tid, 2).unwrap();
        svc.prune(tid);

        let bits = |found: Vec<Neighbor>| -> Vec<(VertexId, u32)> {
            found.iter().map(|n| (n.id, n.dist.to_bits())).collect()
        };
        for probe in (0..data.len()).step_by(97) {
            let q = &data[probe].1;
            let (hits, _) = svc.top_k(&[attr], q, 10, 48, tid, None).unwrap();
            let want = bits(hits.into_iter().map(|t| t.neighbor).collect());
            assert_eq!(bits(sys.top_k(q, 10)), want, "probe {probe}");
        }
        assert_eq!(sys.memory_bytes(), svc.memory_bytes());
        assert_eq!(sys.segment_count(), 4);
        for seg in sys.attr.all_segments() {
            assert_eq!(seg.snapshot_count(), 1);
            assert_eq!(seg.mem_delta_count() + seg.delta_file_count(), 0);
            assert_eq!(
                seg.newest_snapshot().index.layout(),
                GraphLayout::PackedPrefetch
            );
        }

        let (id, v) = (data[500].0, vec![9.0f32; dim]);
        assert!(sys.update(id, &v));
        assert_eq!(sys.top_k(&v, 1)[0].id, id);
    }
}
