//! Exact brute-force index, compiled for tests only.
//!
//! The second implementor of [`VectorIndex`] (§4.4: other index types sit
//! behind the same four functions) and the reference the seeded model check
//! in `brute_oracle` and the scan check in `brute_identity` hold
//! [`crate::HnswIndex`] against. The
//! engine's own exact paths are elsewhere: the planner's brute-force
//! fallback is `HnswIndex::brute_force_top_k`, and the scan over unmerged
//! vector deltas is `EmbeddingSegment::overlay_pass` in `tv-embedding`.
//!
//! Queries gather the accepted slots (a scan that touches no vector data),
//! then score them in batched kernel calls against the per-slot norm cache;
//! when the arena has no holes and no filter the whole slab is scored in a
//! single `distance_batch` call.

use crate::index::{DeltaAction, DeltaRecord, VectorIndex};
use crate::stats::SearchStats;
use std::collections::HashMap;
use tv_common::bitmap::Filter;
use tv_common::kernels;
use tv_common::{
    DistanceMetric, Neighbor, NeighborHeap, PreparedQuery, TvError, TvResult, VertexId,
};

/// A flat, exact vector index: linear scan for every query.
pub(crate) struct BruteForceIndex {
    dim: usize,
    metric: DistanceMetric,
    keys: Vec<VertexId>,
    vectors: Vec<f32>,
    /// Per-slot Euclidean norm cache (valid while the slot is occupied).
    norms: Vec<f32>,
    /// Whether each slot currently holds a live vector.
    occupied: Vec<bool>,
    slot_of: HashMap<VertexId, u32>,
    /// Tombstones (slots freed by delete/upsert; reused by later inserts).
    free: Vec<u32>,
    live: usize,
}

impl BruteForceIndex {
    /// New empty index.
    #[must_use]
    pub(crate) fn new(dim: usize, metric: DistanceMetric) -> Self {
        assert!(dim > 0, "dimension must be non-zero");
        BruteForceIndex {
            dim,
            metric,
            keys: Vec::new(),
            vectors: Vec::new(),
            norms: Vec::new(),
            occupied: Vec::new(),
            slot_of: HashMap::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Insert or replace the vector for `key`.
    pub(crate) fn insert(&mut self, key: VertexId, vector: &[f32]) -> TvResult<()> {
        if vector.len() != self.dim {
            return Err(TvError::DimensionMismatch {
                expected: self.dim,
                got: vector.len(),
            });
        }
        let norm = kernels::active().norm_sq(vector).sqrt();
        if let Some(&slot) = self.slot_of.get(&key) {
            let s = slot as usize * self.dim;
            self.vectors[s..s + self.dim].copy_from_slice(vector);
            self.norms[slot as usize] = norm;
            return Ok(());
        }
        let slot = if let Some(slot) = self.free.pop() {
            let s = slot as usize * self.dim;
            self.vectors[s..s + self.dim].copy_from_slice(vector);
            self.norms[slot as usize] = norm;
            self.keys[slot as usize] = key;
            self.occupied[slot as usize] = true;
            slot
        } else {
            let slot = self.keys.len() as u32;
            self.keys.push(key);
            self.vectors.extend_from_slice(vector);
            self.norms.push(norm);
            self.occupied.push(true);
            slot
        };
        self.slot_of.insert(key, slot);
        self.live += 1;
        Ok(())
    }

    /// Remove the vector for `key`; returns true if it was present.
    pub(crate) fn remove(&mut self, key: VertexId) -> bool {
        if let Some(slot) = self.slot_of.remove(&key) {
            self.occupied[slot as usize] = false;
            self.free.push(slot);
            self.live -= 1;
            true
        } else {
            false
        }
    }

    fn vec_of(&self, slot: u32) -> &[f32] {
        let s = slot as usize * self.dim;
        &self.vectors[s..s + self.dim]
    }

    /// Accepted slots in slot order (occupied and filter-passing); counts
    /// rejections into `stats`.
    fn gather_accepted(&self, filter: Filter<'_>, stats: &mut SearchStats) -> Vec<u32> {
        let mut accepted = Vec::with_capacity(self.live);
        for (slot, &key) in self.keys.iter().enumerate() {
            if !self.occupied[slot] {
                continue;
            }
            if !filter.accepts(key.local().0 as usize) {
                stats.filtered_out += 1;
                continue;
            }
            accepted.push(slot as u32);
        }
        accepted
    }
}

impl VectorIndex for BruteForceIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn metric(&self) -> DistanceMetric {
        self.metric
    }

    fn len(&self) -> usize {
        self.live
    }

    fn get_embedding(&self, id: VertexId) -> Option<Vec<f32>> {
        self.slot_of.get(&id).map(|&s| self.vec_of(s).to_vec())
    }

    fn top_k(
        &self,
        query: &[f32],
        k: usize,
        _ef: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut stats = SearchStats {
            brute_force: true,
            ..SearchStats::default()
        };
        let pq = PreparedQuery::new(self.metric, query);
        let mut heap = NeighborHeap::new(k);
        if self.free.is_empty() && matches!(filter, Filter::All) {
            // Dense arena, no filter: score the whole slab in one call.
            let n = self.keys.len();
            let mut dists = vec![0.0f32; n];
            pq.distance_batch(&self.vectors, Some(&self.norms), &mut dists);
            stats.distance_computations += n as u64;
            for (slot, &d) in dists.iter().enumerate() {
                heap.push(Neighbor::new(self.keys[slot], d));
            }
        } else {
            let accepted = self.gather_accepted(filter, &mut stats);
            let mut dists: Vec<f32> = Vec::new();
            pq.distance_slots(&self.vectors, self.dim, &self.norms, &accepted, &mut dists);
            stats.distance_computations += accepted.len() as u64;
            for (&slot, &d) in accepted.iter().zip(&dists) {
                heap.push(Neighbor::new(self.keys[slot as usize], d));
            }
        }
        (heap.into_sorted(), stats)
    }

    fn range_search(
        &self,
        query: &[f32],
        threshold: f32,
        _ef: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut stats = SearchStats {
            brute_force: true,
            ..SearchStats::default()
        };
        let pq = PreparedQuery::new(self.metric, query);
        let accepted = self.gather_accepted(filter, &mut stats);
        let mut dists: Vec<f32> = Vec::new();
        pq.distance_slots(&self.vectors, self.dim, &self.norms, &accepted, &mut dists);
        stats.distance_computations += accepted.len() as u64;
        let mut out = Vec::new();
        for (&slot, &d) in accepted.iter().zip(&dists) {
            if d <= threshold {
                out.push(Neighbor::new(self.keys[slot as usize], d));
            }
        }
        out.sort_unstable();
        (out, stats)
    }

    fn update_items(&mut self, records: &[DeltaRecord]) -> TvResult<usize> {
        let mut applied = 0;
        for rec in records {
            match rec.action {
                DeltaAction::Upsert => self.insert(rec.id, &rec.vector)?,
                DeltaAction::Delete => {
                    self.remove(rec.id);
                }
            }
            applied += 1;
        }
        Ok(applied)
    }

    fn scan(&self) -> Box<dyn Iterator<Item = (VertexId, Vec<f32>)> + '_> {
        Box::new(
            self.slot_of
                .iter()
                .map(|(&k, &s)| (k, self.vec_of(s).to_vec())),
        )
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.vectors.len() * size_of::<f32>()
            + self.norms.len() * size_of::<f32>()
            + self.keys.len() * size_of::<VertexId>()
            + self.occupied.len() * size_of::<bool>()
            + self.free.len() * size_of::<u32>()
            + self.slot_of.len() * (size_of::<VertexId>() + size_of::<u32>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::ids::{LocalId, SegmentId};
    use tv_common::Bitmap;

    fn key(i: u32) -> VertexId {
        VertexId::new(SegmentId(0), LocalId(i))
    }

    #[test]
    fn insert_search_roundtrip() {
        let mut idx = BruteForceIndex::new(2, DistanceMetric::L2);
        idx.insert(key(0), &[0.0, 0.0]).unwrap();
        idx.insert(key(1), &[3.0, 4.0]).unwrap();
        let (r, stats) = idx.top_k(&[0.0, 0.0], 2, 0, Filter::All);
        assert_eq!(r[0].id, key(0));
        assert_eq!(r[1].id, key(1));
        assert!((r[1].dist - 25.0).abs() < 1e-6);
        assert!(stats.brute_force);
        assert_eq!(stats.distance_computations, 2);
    }

    #[test]
    fn upsert_in_place() {
        let mut idx = BruteForceIndex::new(2, DistanceMetric::L2);
        idx.insert(key(0), &[0.0, 0.0]).unwrap();
        idx.insert(key(0), &[1.0, 1.0]).unwrap();
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get_embedding(key(0)).unwrap(), &[1.0, 1.0]);
    }

    #[test]
    fn remove_and_slot_reuse() {
        let mut idx = BruteForceIndex::new(2, DistanceMetric::L2);
        idx.insert(key(0), &[0.0, 0.0]).unwrap();
        idx.insert(key(1), &[1.0, 0.0]).unwrap();
        assert!(idx.remove(key(0)));
        assert!(!idx.remove(key(0)));
        assert_eq!(idx.len(), 1);
        // New insert reuses the freed slot; results stay correct.
        idx.insert(key(2), &[2.0, 0.0]).unwrap();
        assert_eq!(idx.len(), 2);
        let (r, _) = idx.top_k(&[2.0, 0.0], 1, 0, Filter::All);
        assert_eq!(r[0].id, key(2));
        assert!(idx.get_embedding(key(0)).is_none());
    }

    #[test]
    fn holes_are_not_scored() {
        // A freed slot must not appear in results even though its vector
        // bytes are still resident in the arena.
        let mut idx = BruteForceIndex::new(1, DistanceMetric::L2);
        for i in 0..5 {
            idx.insert(key(i), &[f32::from(i as u16)]).unwrap();
        }
        idx.remove(key(0));
        let (r, stats) = idx.top_k(&[0.0], 5, 0, Filter::All);
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|n| n.id != key(0)));
        assert_eq!(stats.distance_computations, 4);
    }

    #[test]
    fn cosine_upsert_refreshes_cached_norm() {
        // If the norm cache went stale on upsert, the rescaled vector would
        // keep the old denominator and cosine distances would drift.
        let mut idx = BruteForceIndex::new(2, DistanceMetric::Cosine);
        idx.insert(key(0), &[1.0, 0.0]).unwrap();
        idx.insert(key(0), &[0.0, 100.0]).unwrap();
        let (r, _) = idx.top_k(&[0.0, 1.0], 1, 0, Filter::All);
        assert!(r[0].dist.abs() < 1e-6, "dist {}", r[0].dist);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut idx = BruteForceIndex::new(3, DistanceMetric::L2);
        assert!(idx.insert(key(0), &[1.0]).is_err());
    }

    #[test]
    fn filter_applies() {
        let mut idx = BruteForceIndex::new(1, DistanceMetric::L2);
        for i in 0..10 {
            idx.insert(key(i), &[f32::from(i as u16)]).unwrap();
        }
        let bm = Bitmap::from_indices(10, [5usize, 6]);
        let (r, _) = idx.top_k(&[0.0], 10, 0, Filter::Valid(&bm));
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].id, key(5));
    }

    #[test]
    fn range_search_exact() {
        let mut idx = BruteForceIndex::new(1, DistanceMetric::L2);
        for i in 0..10 {
            idx.insert(key(i), &[f32::from(i as u16)]).unwrap();
        }
        let (r, _) = idx.range_search(&[0.0], 4.5, 0, Filter::All);
        // squared distances <= 4.5 => values 0,1,2
        assert_eq!(r.len(), 3);
        assert!(r.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn update_items_applies() {
        let mut idx = BruteForceIndex::new(1, DistanceMetric::L2);
        let recs = vec![
            DeltaRecord::upsert(key(0), tv_common::Tid(1), vec![1.0]),
            DeltaRecord::delete(key(0), tv_common::Tid(2)),
            DeltaRecord::upsert(key(1), tv_common::Tid(3), vec![2.0]),
        ];
        assert_eq!(idx.update_items(&recs).unwrap(), 3);
        assert_eq!(idx.len(), 1);
        assert!(idx.get_embedding(key(0)).is_none());
    }

    #[test]
    fn scan_covers_live_set() {
        let mut idx = BruteForceIndex::new(1, DistanceMetric::L2);
        for i in 0..5 {
            idx.insert(key(i), &[0.0]).unwrap();
        }
        idx.remove(key(2));
        let mut seen: Vec<u32> = idx.scan().map(|(k, _)| k.local().0).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 3, 4]);
    }
}
