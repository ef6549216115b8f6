//! The common interface all benchmarked systems implement.

use std::collections::HashMap;
use std::time::Duration;
use tv_common::ids::{LocalId, SegmentId};
use tv_common::{Neighbor, VertexId};

/// Load/build timing breakdown (Table 2's rows: End to End = Data Load +
/// Index Build).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// Time spent ingesting raw data into the system's storage format.
    pub data_load: Duration,
    /// Time spent constructing the vector index.
    pub index_build: Duration,
}

impl BuildTimes {
    /// Total end-to-end preparation time.
    #[must_use]
    pub fn end_to_end(&self) -> Duration {
        self.data_load + self.index_build
    }
}

/// A vector search system under benchmark.
pub trait VectorSystem: Send + Sync {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Bulk-load vectors (the system records its own data-load time).
    fn load(&mut self, data: &[(VertexId, Vec<f32>)]);

    /// Build the vector index over loaded data (records index-build time).
    fn build_index(&mut self);

    /// Load/build timing breakdown.
    fn build_times(&self) -> BuildTimes;

    /// Whether the search accuracy parameter can be tuned (Neo4j/Neptune
    /// cannot — the paper plots them as single points).
    fn supports_ef_tuning(&self) -> bool {
        true
    }

    /// Set the search accuracy parameter; returns false if unsupported.
    fn set_ef(&mut self, ef: usize) -> bool;

    /// Top-k search. Must be callable concurrently.
    fn top_k(&self, query: &[f32], k: usize) -> Vec<Neighbor>;

    /// Fraction of the modeled 32 cores this system keeps busy under
    /// concurrent load (drives the throughput model; see `cost`).
    fn parallel_efficiency(&self) -> f64;

    /// Modeled fixed per-request overhead outside the engine (HTTP stack,
    /// managed-service hop, RPC) — not measured, documented in `cost`.
    fn request_overhead(&self) -> Duration;

    /// Incremental update of one vector; returns false if the system only
    /// supports full rebuilds.
    fn update(&mut self, id: VertexId, vector: &[f32]) -> bool;
}

/// The keys of one monolithic index over rows of many segments. An
/// `HnswIndex` is one segment's local space (its filters and live mask
/// address rows by local id alone, and it refuses a second segment's key),
/// so a single-index comparator numbers its rows in segment 0's local space
/// and maps answers back to the original ids.
#[derive(Default)]
pub(crate) struct RowKeys {
    ids: Vec<VertexId>,
    row_of: HashMap<VertexId, u32>,
}

impl RowKeys {
    /// The index key of `id`: its row, numbered the first time `id` is seen.
    pub(crate) fn key(&mut self, id: VertexId) -> VertexId {
        let next = self.ids.len() as u32;
        let row = *self.row_of.entry(id).or_insert(next);
        if row == next {
            self.ids.push(id);
        }
        VertexId::new(SegmentId(0), LocalId(row))
    }

    /// The index's answers under the original ids.
    pub(crate) fn restore(&self, found: Vec<Neighbor>) -> Vec<Neighbor> {
        found
            .into_iter()
            .map(|n| Neighbor::new(self.ids[n.id.local().0 as usize], n.dist))
            .collect()
    }
}

/// Compute recall@k of `got` against exact `truth`.
#[must_use]
pub fn recall_at_k(got: &[Neighbor], truth: &[VertexId], k: usize) -> f64 {
    if truth.is_empty() || k == 0 {
        return 0.0;
    }
    let k = k.min(truth.len());
    let hits = truth[..k]
        .iter()
        .filter(|t| got.iter().any(|n| n.id == **t))
        .count();
    hits as f64 / k as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_counts_hits() {
        let truth = vec![VertexId(1), VertexId(2), VertexId(3), VertexId(4)];
        let got = vec![
            Neighbor::new(VertexId(2), 0.1),
            Neighbor::new(VertexId(9), 0.2),
            Neighbor::new(VertexId(4), 0.3),
            Neighbor::new(VertexId(8), 0.4),
        ];
        assert!((recall_at_k(&got, &truth, 4) - 0.5).abs() < 1e-9);
        assert!((recall_at_k(&got, &truth, 2) - 0.5).abs() < 1e-9);
        assert_eq!(recall_at_k(&got, &[], 4), 0.0);
    }

    #[test]
    fn build_times_sum() {
        let b = BuildTimes {
            data_load: Duration::from_secs(2),
            index_build: Duration::from_secs(3),
        };
        assert_eq!(b.end_to_end(), Duration::from_secs(5));
    }
}
