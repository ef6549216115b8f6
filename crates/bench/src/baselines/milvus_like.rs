//! Milvus-style comparator.
//!
//! Milvus is the paper's strongest baseline — a specialized vector database
//! with segment-level indexes and tunable parameters, so its search path
//! mirrors TigerVector's. The measured differences come from (a) its
//! heavier ingestion pipeline — rows are serialized into binlog-style
//! buffers, checksummed, flushed, and re-read before indexing, which is why
//! Table 2 shows 4554s vs. TigerVector's 202s data load — and (b) a gRPC
//! marshaling overhead per request plus a Go-runtime parallel-efficiency
//! discount (the paper: "the more effective use of multi-core parallelism"
//! and "the difference in programming languages").

use crate::baselines::system::{BuildTimes, VectorSystem};
use std::time::{Duration, Instant};
use tv_common::bitmap::Filter;
use tv_common::ids::SegmentLayout;
use tv_common::{merge_topk, DistanceMetric, GraphLayout, Neighbor, VertexId};
use tv_hnsw::{HnswConfig, HnswIndex, VectorIndex};

/// Milvus-style segmented vector database.
pub struct MilvusLike {
    dim: usize,
    /// Segment layout (capacity governs segment count).
    pub layout: SegmentLayout,
    cfg: HnswConfig,
    /// Binlog-style staged rows per segment.
    binlogs: Vec<Vec<u8>>,
    segments: Vec<HnswIndex>,
    ef: usize,
    times: BuildTimes,
}

impl MilvusLike {
    /// New system with the paper's index parameters.
    #[must_use]
    pub fn new(dim: usize, metric: DistanceMetric, layout: SegmentLayout) -> Self {
        MilvusLike {
            dim,
            layout,
            cfg: HnswConfig::new(dim, metric),
            binlogs: Vec::new(),
            segments: Vec::new(),
            ef: 64,
            times: BuildTimes::default(),
        }
    }

    fn encode_row(buf: &mut Vec<u8>, id: VertexId, v: &[f32]) {
        buf.extend_from_slice(&id.0.to_le_bytes());
        for x in v {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    fn checksum(data: &[u8]) -> u64 {
        let mut acc = 0xCBF2_9CE4_8422_2325u64;
        for b in data {
            acc = (acc ^ u64::from(*b)).wrapping_mul(0x1000_0000_01B3);
        }
        acc
    }
}

impl VectorSystem for MilvusLike {
    fn name(&self) -> &'static str {
        "Milvus-like"
    }

    fn load(&mut self, data: &[(VertexId, Vec<f32>)]) {
        let start = Instant::now();
        // Ingestion pipeline: rows → per-segment binlog buffers →
        // checksum → flush copy → checksum verify. Each stage is a real
        // pass over the bytes, mirroring Milvus's write path (proxy →
        // log broker → data node → object storage).
        let row_bytes = 8 + self.dim * 4;
        for (id, v) in data {
            let seg = id.segment().0 as usize;
            if self.binlogs.len() <= seg {
                self.binlogs.resize_with(seg + 1, Vec::new);
            }
            let buf = &mut self.binlogs[seg];
            Self::encode_row(buf, *id, v);
            let tail = buf.len() - row_bytes;
            let sum = Self::checksum(&buf[tail..]);
            std::hint::black_box(sum);
        }
        // Flush: copy every binlog (object-storage write) and verify.
        for binlog in &self.binlogs {
            let flushed = binlog.clone();
            let sum = Self::checksum(&flushed);
            std::hint::black_box((flushed.len(), sum));
        }
        self.times.data_load += start.elapsed();
    }

    fn build_index(&mut self) {
        let start = Instant::now();
        let row_bytes = 8 + self.dim * 4;
        self.segments = self
            .binlogs
            .iter()
            .enumerate()
            .map(|(si, binlog)| {
                let mut idx = HnswIndex::new(self.cfg.with_seed(self.cfg.seed ^ (si as u64) << 8));
                // Index nodes read rows back out of binlogs.
                for row in binlog.chunks_exact(row_bytes) {
                    let id = VertexId(u64::from_le_bytes(row[..8].try_into().unwrap()));
                    let mut v = Vec::with_capacity(self.dim);
                    for i in 0..self.dim {
                        let off = 8 + i * 4;
                        v.push(f32::from_le_bytes(row[off..off + 4].try_into().unwrap()));
                    }
                    idx.insert(id, &v).expect("dimensions valid");
                }
                idx.compile_layout(GraphLayout::PackedPrefetch);
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
        crate::baselines::cost::CostModel::milvus().parallel_efficiency
    }

    fn request_overhead(&self) -> Duration {
        crate::baselines::cost::CostModel::milvus().request_overhead
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

    fn data(n: usize, layout: SegmentLayout) -> Vec<(VertexId, Vec<f32>)> {
        let mut rng = SplitMix64::new(17);
        (0..n)
            .map(|i| {
                (
                    layout.vertex_id(i),
                    (0..8).map(|_| rng.next_f32()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn binlog_pipeline_roundtrips() {
        let layout = SegmentLayout::with_capacity(64);
        let d = data(200, layout);
        let mut sys = MilvusLike::new(8, DistanceMetric::L2, layout);
        sys.load(&d);
        sys.build_index();
        assert_eq!(sys.segments.len(), 4);
        for i in [0usize, 63, 64, 199] {
            assert_eq!(sys.top_k(&d[i].1, 1)[0].id, d[i].0);
        }
    }

    /// What makes this loader slower than TigerVector's single routing pass,
    /// counted rather than timed: every row is serialized into an
    /// intermediate binlog (8 id bytes + 4 per dimension), which `load`
    /// checksums, copies and checksums again and `build_index` must decode.
    #[test]
    fn load_stages_every_row_in_a_binlog() {
        let layout = SegmentLayout::with_capacity(512);
        let d = data(4096, layout);
        let mut mv = MilvusLike::new(8, DistanceMetric::L2, layout);
        mv.load(&d);
        assert_eq!(mv.binlogs.len(), 8);
        let staged: usize = mv.binlogs.iter().map(Vec::len).sum();
        assert_eq!(staged, 4096 * (8 + 8 * 4));
        assert!(mv.segments.is_empty(), "load builds nothing");
    }

    #[test]
    fn ef_tunable() {
        let layout = SegmentLayout::with_capacity(64);
        let mut sys = MilvusLike::new(8, DistanceMetric::L2, layout);
        assert!(sys.supports_ef_tuning());
        assert!(sys.set_ef(128));
    }
}
