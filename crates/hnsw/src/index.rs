//! Core HNSW index: the [`HnswIndex`] struct, its accessors, and the
//! [`VectorIndex`] interface it implements. The index's jobs live beside
//! it: traversal and query routing in [`crate::search`], graph construction
//! and repair in [`crate::build`], the adjacency in [`crate::packed`] and
//! its fold in [`crate::layout`], the quantized tier in
//! [`crate::quant_state`].
//!
//! Layout: node `slot` (a dense `u32`) owns a vector (`dim` floats in a
//! slot-major arena), an external key ([`VertexId`]), a top level, a deleted
//! flag, and per-level neighbor lists. An index holds one segment's keys, so
//! a key is its local id: a dense table indexed by local id names each live
//! key's slot, and upserts and deletes address vectors by id, as the
//! embedding service's delta records do (§4.3).
//!
//! Upserts of live keys update **in place** with neighborhood repair
//! (hnswlib's `updatePoint`): the old neighbors' lists are re-selected from
//! their two-hop pools and the moved node is re-linked — several times the
//! cost of a fresh insert, which is why incremental updating loses to a
//! full rebuild beyond a ~20% update ratio (the paper's Fig. 11 crossover).
//! Deletes are soft (tombstones stay navigable, like hnswlib); the vacuum's
//! rebuild path compacts them away.

use crate::config::HnswConfig;
use crate::packed::{self, Adjacency};
use crate::quant_state::QuantState;
use crate::search::ScratchPool;
use crate::stats::SearchStats;
use std::sync::Arc;
use tv_common::bitmap::Filter;
use tv_common::kernels;
use tv_common::{
    Bitmap, DistanceMetric, Logged, Neighbor, PlannerConfig, QuantSpec, StorageTier, Tid, TvError,
    TvResult, VertexId,
};

/// The local→slot table's entry for a local id no live slot carries.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Upsert/delete action flag of a vector delta (§4.3: the delta schema is
/// `Action Flag, ID, TID, Vector Value`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaAction {
    /// Insert or replace the vector for an id.
    Upsert,
    /// Remove the vector for an id.
    Delete,
}

/// One vector delta record, as accumulated in the in-memory delta store and
/// flushed to delta files by the delta-merge vacuum. The vector is shared:
/// cloning a record (into the delta log, a merge's batch, a checkpoint or a
/// migration feed) clones the handle, never the floats.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRecord {
    /// Upsert or delete.
    pub action: DeltaAction,
    /// The vertex whose vector changes.
    pub id: VertexId,
    /// Committing transaction.
    pub tid: Tid,
    /// New vector value (empty for deletes).
    pub vector: Arc<[f32]>,
}

impl DeltaRecord {
    /// An upsert record; `vector` moves into the shared buffer.
    #[must_use]
    pub fn upsert(id: VertexId, tid: Tid, vector: Vec<f32>) -> Self {
        DeltaRecord {
            action: DeltaAction::Upsert,
            id,
            tid,
            vector: vector.into(),
        }
    }

    /// A delete record.
    #[must_use]
    pub fn delete(id: VertexId, tid: Tid) -> Self {
        DeltaRecord {
            action: DeltaAction::Delete,
            id,
            tid,
            vector: Arc::default(),
        }
    }
}

impl Logged for DeltaRecord {
    fn tid(&self) -> Tid {
        self.tid
    }

    fn local(&self) -> usize {
        self.id.local().0 as usize
    }
}

/// The interface TigerVector requires of any vector index (§4.4). Implemented
/// by [`HnswIndex`] (and, in tests, by the exact brute-force reference);
/// another index kind would slot in behind the same four functions.
pub trait VectorIndex: Send + Sync {
    /// Declared dimensionality.
    fn dim(&self) -> usize;
    /// Distance metric.
    fn metric(&self) -> DistanceMetric;
    /// Number of live (non-deleted) vectors.
    fn len(&self) -> usize;
    /// True if no live vectors are present.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// `GetEmbedding`: the stored vector for `id`, if present and live.
    /// Quantized tiers that dropped the f32 arena return the codec
    /// reconstruction (hence the owned buffer).
    fn get_embedding(&self, id: VertexId) -> Option<Vec<f32>>;
    /// `TopKSearch`: the `k` nearest valid neighbors of `query`. `ef` bounds
    /// the search beam (clamped up to `k`); `filter` restricts validity by
    /// *local id* within this segment.
    fn top_k(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats);
    /// `RangeSearch`: all valid neighbors within `threshold` distance.
    fn range_search(
        &self,
        query: &[f32],
        threshold: f32,
        ef: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats);
    /// `UpdateItems`: apply delta records in order; returns how many were
    /// applied.
    fn update_items(&mut self, records: &[DeltaRecord]) -> TvResult<usize>;
    /// Iterate over `(key, vector)` pairs of live entries (brute-force scans
    /// and ground-truth computation). Vectors are materialized per entry so
    /// quantized tiers can yield reconstructions.
    fn scan(&self) -> Box<dyn Iterator<Item = (VertexId, Vec<f32>)> + '_>;
    /// Approximate resident bytes of every structure this index keeps in
    /// memory (vector payload, caches, graph/list structure, id maps).
    fn memory_bytes(&self) -> usize;
    /// Storage tier of the vector payload (`F32` unless a quantized tier is
    /// attached).
    fn storage_tier(&self) -> StorageTier {
        StorageTier::F32
    }
}

/// Hierarchical Navigable Small World index over one embedding segment.
#[derive(Clone)]
pub struct HnswIndex {
    pub(crate) cfg: HnswConfig,
    /// Slot-major vector arena: slot `s` occupies `s*dim .. (s+1)*dim`.
    pub(crate) vectors: Vec<f32>,
    /// Per-slot Euclidean norm cache, maintained on insert/upsert (stored
    /// norms never change between writes, so cosine scoring pays one dot
    /// pass per candidate instead of three full passes).
    pub(crate) norms: Vec<f32>,
    /// External key per slot. Every key names the segment of the first
    /// (the index is one segment's local space; [`Self::insert`] refuses
    /// another segment's key).
    pub(crate) keys: Vec<VertexId>,
    /// Local id → its live slot, [`NO_SLOT`] where no live slot carries that
    /// local id. Set entries are exactly the set bits of `live_mask`.
    pub(crate) local_slot: Vec<u32>,
    /// Per-slot, per-level adjacency: compiled rows plus the rows written
    /// since the last fold (see [`crate::packed`]).
    pub(crate) adj: Adjacency,
    /// Top level per slot.
    pub(crate) levels: Vec<u8>,
    /// Tombstones.
    pub(crate) deleted: Vec<bool>,
    pub(crate) deleted_count: usize,
    /// Live occupancy by *local id* (the key space the caller's filter
    /// bitmaps address): bit set ⇔ a live slot carries that local id. The
    /// planner intersects this with the filter bitmap to get the true
    /// valid-live cardinality — raw `bitmap.count_ones()` also counts bits
    /// on deleted and never-inserted ids and overestimates selectivity.
    pub(crate) live_mask: Bitmap,
    /// Entry slot and the highest level in the graph.
    pub(crate) entry: Option<(u32, u8)>,
    /// Quantized storage tier, if attached via [`HnswIndex::quantize`].
    /// When `spec.keep_f32` is false, `vectors` and `norms` are empty and
    /// all scoring runs against codes.
    pub(crate) quant: Option<QuantState>,
    /// Pooled search scratch (visited epochs + batch-scoring buffers).
    pub(crate) scratch: ScratchPool,
}

impl HnswIndex {
    /// New empty index. Panics on invalid config (programmer error).
    #[must_use]
    pub fn new(cfg: HnswConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid HNSW config: {e}");
        }
        HnswIndex {
            cfg,
            vectors: Vec::new(),
            norms: Vec::new(),
            keys: Vec::new(),
            local_slot: Vec::new(),
            adj: Adjacency::default(),
            levels: Vec::new(),
            deleted: Vec::new(),
            deleted_count: 0,
            live_mask: Bitmap::new(0),
            entry: None,
            quant: None,
            scratch: ScratchPool::default(),
        }
    }

    /// The construction configuration.
    #[must_use]
    pub fn config(&self) -> &HnswConfig {
        &self.cfg
    }

    /// Total slots, including tombstones (capacity metric for vacuum
    /// decisions).
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of tombstoned slots. The vacuum compares this against
    /// [`Self::slot_count`] to decide between incremental update and full
    /// rebuild (Fig. 11's crossover).
    #[must_use]
    pub fn tombstone_count(&self) -> usize {
        self.deleted_count
    }

    /// Whether `id` holds a live vector ([`VectorIndex::get_embedding`]
    /// without materializing it).
    #[must_use]
    pub fn contains(&self, id: VertexId) -> bool {
        self.live_slot(id).is_some()
    }

    /// The live slot carrying `id`: the table entry of its local id, if
    /// that slot's key is `id` itself (another segment's id with the same
    /// local id answers `None`).
    pub(crate) fn live_slot(&self, id: VertexId) -> Option<u32> {
        let slot = *self.local_slot.get(id.local().0 as usize)?;
        (slot != NO_SLOT && self.keys[slot as usize] == id).then_some(slot)
    }

    /// Record `slot` as the live slot of local id `local` in the table and
    /// the live mask, growing both to cover it.
    pub(crate) fn set_live_slot(&mut self, local: usize, slot: u32) {
        if self.local_slot.len() <= local {
            self.local_slot.resize(local + 1, NO_SLOT);
        }
        self.local_slot[local] = slot;
        self.live_mask.grow(local + 1);
        self.live_mask.set(local, true);
    }

    /// Approximate resident bytes across **all** resident structures:
    /// vector payload (f32 arena + norm cache and/or quantized codes, norm
    /// caches, and codec parameters), adjacency (compiled rows and edit
    /// set), keys, levels, tombstone flags, the local→slot table and the
    /// live mask.
    #[must_use]
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let vec_bytes = self.vector_storage_bytes();
        let key_bytes = self.keys.len() * size_of::<VertexId>();
        let level_bytes = self.levels.len() * size_of::<u8>();
        let deleted_bytes = self.deleted.len() * size_of::<bool>();
        let link_bytes = self.adj.compiled_bytes() + self.adj.edit_bytes();
        let table_bytes = self.local_slot.len() * size_of::<u32>();
        let live_mask_bytes = self.live_mask.len().div_ceil(64) * size_of::<u64>();
        vec_bytes
            + key_bytes
            + level_bytes
            + deleted_bytes
            + link_bytes
            + table_bytes
            + live_mask_bytes
    }

    /// Adjacency footprint as `(edit_set_bytes, compiled_bytes)`. The edit
    /// set's is resident and capacity-based: its slot table and every
    /// edited node's lists. The compiled rows' is resident when nothing is
    /// pending (slabs are allocated at their final size); while rows are
    /// pending it is what a fold would hold: neighbor slabs at the id width
    /// the slot count allows, plus the `u32` prefix tables.
    #[must_use]
    pub fn link_memory_bytes(&self) -> (usize, usize) {
        use std::mem::size_of;
        if !self.adj.has_edits() {
            return (0, self.adj.compiled_bytes());
        }
        let n = self.keys.len();
        let (nbrs, rows) = self.stored_links();
        // l0_off (n+1) + upper_base (n+1) + upper_row_off (rows+1), then
        // both neighbor slabs.
        let compiled = (2 * (n + 1) + rows + 1) * size_of::<u32>() + nbrs * packed::id_bytes(n);
        (self.adj.edit_bytes(), compiled)
    }

    /// `(neighbor ids, upper-level rows)` the adjacency stores: every
    /// node's level lists summed, and the lists above level 0 (Σ
    /// `levels[s]`).
    #[must_use]
    pub fn stored_links(&self) -> (usize, usize) {
        self.adj.link_counts(&self.levels)
    }

    /// Bytes of the vector *payload* only (f32 arena + norm cache, plus
    /// quantized codes, recon-norm caches, and codec parameters), excluding
    /// graph structure — the numerator of the memory-reduction ratios the
    /// quantized benchmarks report.
    #[must_use]
    pub fn vector_storage_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut b = self.vectors.len() * size_of::<f32>() + self.norms.len() * size_of::<f32>();
        if let Some(q) = &self.quant {
            b += q.bytes();
        }
        b
    }

    /// The active quantization spec, if a quantized tier is attached.
    #[must_use]
    pub fn quant_spec(&self) -> Option<QuantSpec> {
        self.quant.as_ref().map(|q| q.spec)
    }

    /// Storage tier of the vector payload.
    #[must_use]
    pub(crate) fn storage_tier(&self) -> StorageTier {
        self.quant
            .as_ref()
            .map_or(StorageTier::F32, |q| q.spec.tier)
    }

    pub(crate) fn vec_of(&self, slot: u32) -> &[f32] {
        let d = self.cfg.dim;
        let s = slot as usize;
        &self.vectors[s * d..(s + 1) * d]
    }

    /// The f32 vector for a slot: the retained arena row when present,
    /// otherwise the codec reconstruction.
    pub(crate) fn materialize(&self, slot: u32) -> Vec<f32> {
        if !self.vectors.is_empty() {
            return self.vec_of(slot).to_vec();
        }
        let q = self.quant.as_ref().expect("no f32 arena and no codes");
        let mut out = vec![0.0f32; self.cfg.dim];
        q.materialize_into(slot as usize, &mut out);
        out
    }

    /// True cardinality of the valid set under `filter`: live points whose
    /// local id the filter accepts (filter bitmap ∩ live occupancy). This is
    /// the planner's selectivity input; unlike the filter bitmap's raw
    /// popcount it excludes deleted and never-inserted ids.
    #[must_use]
    pub fn valid_live_count(&self, filter: Filter<'_>) -> usize {
        match filter {
            Filter::All => self.len(),
            Filter::Valid(b) => self.live_mask.intersection_count(b),
        }
    }
}

impl VectorIndex for HnswIndex {
    fn dim(&self) -> usize {
        self.cfg.dim
    }

    fn metric(&self) -> DistanceMetric {
        self.cfg.metric
    }

    fn len(&self) -> usize {
        self.keys.len() - self.deleted_count
    }

    fn get_embedding(&self, id: VertexId) -> Option<Vec<f32>> {
        self.live_slot(id).map(|slot| self.materialize(slot))
    }

    fn top_k(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut stats = SearchStats::default();
        if k == 0 || query.len() != self.cfg.dim {
            return (Vec::new(), stats);
        }
        // The beam must surface enough candidates for the exact-rerank
        // stage (rerank_factor × k on quantized tiers). One norm pass (f32)
        // or one LUT build (quantized) serves the whole search; every
        // candidate after this scores against cached state.
        let fetch = self.fetch_count(k);
        let mut found = self.query_beam(&self.scorer(query), ef.max(fetch), filter, &mut stats);
        found.truncate(fetch);
        let out = self.rerank_and_take(query, found, k, &mut stats);
        (out, stats)
    }

    fn range_search(
        &self,
        query: &[f32],
        threshold: f32,
        ef: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats) {
        // DiskANN-style adaptation (§4.4): repeat TopKSearch with doubling k
        // until the threshold is smaller than the median returned distance
        // (i.e. at least half the beam already lies outside the range) or
        // the whole valid set has been fetched. Routed through the planner
        // so a starved filtered beam is escalated instead of being mistaken
        // for set exhaustion.
        self.range_search_planned(query, threshold, ef, filter, &PlannerConfig::default())
    }

    fn update_items(&mut self, records: &[DeltaRecord]) -> TvResult<usize> {
        let mut applied = 0;
        for rec in records {
            match rec.action {
                DeltaAction::Upsert => {
                    self.insert(rec.id, &rec.vector)?;
                    applied += 1;
                }
                DeltaAction::Delete => {
                    self.remove(rec.id);
                    applied += 1;
                }
            }
        }
        Ok(applied)
    }

    fn scan(&self) -> Box<dyn Iterator<Item = (VertexId, Vec<f32>)> + '_> {
        Box::new(
            self.keys
                .iter()
                .enumerate()
                .filter(move |&(slot, _)| !self.deleted[slot])
                .map(move |(slot, &key)| (key, self.materialize(slot as u32))),
        )
    }

    fn memory_bytes(&self) -> usize {
        HnswIndex::memory_bytes(self)
    }

    fn storage_tier(&self) -> StorageTier {
        HnswIndex::storage_tier(self)
    }
}

// Snapshot deserialization.
impl HnswIndex {
    /// Assemble an index from decoded snapshot parts, checking that every
    /// per-slot structure agrees on the slot count and rebuilding what the
    /// format does not carry (local→slot table, live mask, norm cache). The
    /// keys must name one segment, and no two live slots one key.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        cfg: HnswConfig,
        vectors: Vec<f32>,
        keys: Vec<VertexId>,
        adj: Adjacency,
        levels: Vec<u8>,
        deleted: Vec<bool>,
        entry: Option<(u32, u8)>,
        quant: Option<QuantState>,
    ) -> TvResult<Self> {
        let n = keys.len();
        // A codes-only quantized snapshot legitimately carries no f32 arena.
        let codes_only = vectors.is_empty() && quant.as_ref().is_some_and(|q| !q.spec.keep_f32);
        if (vectors.len() != n * cfg.dim && !codes_only)
            || adj.len() != n
            || levels.len() != n
            || deleted.len() != n
        {
            return Err(TvError::Storage("inconsistent snapshot parts".into()));
        }
        if let Some(q) = &quant {
            if !q.main.holds(n) {
                return Err(TvError::Storage("inconsistent quant codes".into()));
            }
            if q.rerank.as_ref().is_some_and(|r| !r.holds(n)) {
                return Err(TvError::Storage("inconsistent rerank store".into()));
            }
        }
        let segment = keys.first().map(|k| k.segment());
        if keys.iter().any(|k| Some(k.segment()) != segment) {
            return Err(TvError::Storage("snapshot keys span segments".into()));
        }
        // The snapshot format carries no norms; rebuild the cache in one
        // pass over the arena (cheaper than persisting and keeps old
        // snapshots readable). Codes-only tiers keep no arena norms.
        let k = kernels::active();
        let norms = if vectors.is_empty() {
            Vec::new()
        } else {
            (0..n)
                .map(|s| k.norm_sq(&vectors[s * cfg.dim..(s + 1) * cfg.dim]).sqrt())
                .collect()
        };
        let mut index = HnswIndex {
            cfg,
            vectors,
            norms,
            keys,
            local_slot: Vec::new(),
            adj,
            levels,
            deleted,
            deleted_count: 0,
            live_mask: Bitmap::new(0),
            entry,
            scratch: ScratchPool::default(),
            quant,
        };
        for slot in 0..n {
            if index.deleted[slot] {
                index.deleted_count += 1;
                continue;
            }
            let local = index.keys[slot].local().0 as usize;
            if index.local_slot.get(local).is_some_and(|&s| s != NO_SLOT) {
                return Err(TvError::Storage("snapshot holds a key twice".into()));
            }
            index.set_live_slot(local, slot as u32);
        }
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::ids::{LocalId, SegmentId};
    use tv_common::{GraphLayout, SplitMix64};

    fn key(i: u32) -> VertexId {
        VertexId::new(SegmentId(0), LocalId(i))
    }

    /// Deterministic clustered test vectors.
    fn make_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.next_f32() * 10.0).collect())
            .collect()
    }

    fn build_index(vecs: &[Vec<f32>]) -> HnswIndex {
        let mut idx = HnswIndex::new(HnswConfig::new(vecs[0].len(), DistanceMetric::L2));
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(key(i as u32), v).unwrap();
        }
        idx
    }

    fn exact_top_k(vecs: &[Vec<f32>], q: &[f32], k: usize) -> Vec<u32> {
        let mut scored: Vec<(f32, u32)> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| (tv_common::metric::l2_sq(q, v), i as u32))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        scored.into_iter().take(k).map(|(_, i)| i).collect()
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = HnswIndex::new(HnswConfig::new(4, DistanceMetric::L2));
        let (r, _) = idx.top_k(&[0.0; 4], 5, 50, Filter::All);
        assert!(r.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.is_empty());
    }

    #[test]
    fn single_point() {
        let mut idx = HnswIndex::new(HnswConfig::new(2, DistanceMetric::L2));
        idx.insert(key(0), &[1.0, 2.0]).unwrap();
        let (r, _) = idx.top_k(&[1.0, 2.0], 1, 10, Filter::All);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].id, key(0));
        assert!(r[0].dist < 1e-6);
    }

    #[test]
    fn insert_rejects_wrong_dimension() {
        let mut idx = HnswIndex::new(HnswConfig::new(4, DistanceMetric::L2));
        let err = idx.insert(key(0), &[1.0, 2.0]).unwrap_err();
        assert!(matches!(
            err,
            TvError::DimensionMismatch {
                expected: 4,
                got: 2
            }
        ));
    }

    #[test]
    fn recall_at_10_is_high() {
        let vecs = make_vectors(2000, 16, 7);
        let idx = build_index(&vecs);
        let queries = make_vectors(20, 16, 99);
        let mut hits = 0;
        let mut total = 0;
        for q in &queries {
            let exact = exact_top_k(&vecs, q, 10);
            let (approx, _) = idx.top_k(q, 10, 100, Filter::All);
            let got: Vec<u32> = approx.iter().map(|n| n.id.local().0).collect();
            total += exact.len();
            hits += exact.iter().filter(|e| got.contains(e)).count();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.9, "recall {recall}");
    }

    #[test]
    fn higher_ef_does_not_reduce_quality() {
        let vecs = make_vectors(1000, 8, 3);
        let idx = build_index(&vecs);
        let q = &vecs[123];
        let (lo, _) = idx.top_k(q, 10, 10, Filter::All);
        let (hi, _) = idx.top_k(q, 10, 200, Filter::All);
        // Sum of distances with larger beam must be <= with smaller beam.
        let sum = |v: &Vec<Neighbor>| v.iter().map(|n| n.dist as f64).sum::<f64>();
        assert!(sum(&hi) <= sum(&lo) + 1e-6);
    }

    #[test]
    fn delete_excludes_from_results() {
        let vecs = make_vectors(200, 8, 5);
        let mut idx = build_index(&vecs);
        let q = vecs[0].clone();
        let (before, _) = idx.top_k(&q, 1, 50, Filter::All);
        assert_eq!(before[0].id, key(0));
        assert!(idx.remove(key(0)));
        let (after, _) = idx.top_k(&q, 1, 50, Filter::All);
        assert_ne!(after[0].id, key(0));
        assert_eq!(idx.len(), 199);
        assert!(idx.get_embedding(key(0)).is_none());
        // Double-remove reports false.
        assert!(!idx.remove(key(0)));
    }

    #[test]
    fn upsert_replaces_vector() {
        let vecs = make_vectors(100, 4, 11);
        let mut idx = build_index(&vecs);
        let newv = vec![100.0, 100.0, 100.0, 100.0];
        idx.insert(key(5), &newv).unwrap();
        assert_eq!(idx.get_embedding(key(5)).unwrap(), newv.as_slice());
        assert_eq!(idx.len(), 100); // still 100 live
                                    // In-place update: no tombstone, no slot growth.
        assert_eq!(idx.tombstone_count(), 0);
        assert_eq!(idx.slot_count(), 100);
        let (r, _) = idx.top_k(&newv, 1, 50, Filter::All);
        assert_eq!(r[0].id, key(5));
    }

    #[test]
    fn filtered_search_respects_bitmap() {
        let vecs = make_vectors(500, 8, 13);
        let idx = build_index(&vecs);
        // Only even local ids valid.
        let bm = Bitmap::from_indices(500, (0..500).step_by(2));
        let (r, stats) = idx.top_k(&vecs[3], 10, 100, Filter::Valid(&bm));
        assert_eq!(r.len(), 10);
        assert!(r.iter().all(|n| n.id.local().0 % 2 == 0));
        assert!(stats.filtered_out > 0);
    }

    #[test]
    fn filtered_search_with_tiny_valid_set_finds_them() {
        let vecs = make_vectors(500, 8, 17);
        let idx = build_index(&vecs);
        let bm = Bitmap::from_indices(500, [42usize, 99]);
        let (r, _) = idx.top_k(&vecs[0], 10, 400, Filter::Valid(&bm));
        // May find fewer than requested, but only valid ones.
        assert!(!r.is_empty());
        assert!(r
            .iter()
            .all(|n| n.id.local().0 == 42 || n.id.local().0 == 99));
    }

    #[test]
    fn brute_force_matches_exact() {
        let vecs = make_vectors(300, 8, 19);
        let idx = build_index(&vecs);
        let q = &vecs[7];
        let exact = exact_top_k(&vecs, q, 5);
        let (bf, stats) = idx.brute_force_top_k(q, 5, Filter::All);
        let got: Vec<u32> = bf.iter().map(|n| n.id.local().0).collect();
        assert_eq!(got, exact);
        assert!(stats.brute_force);
        assert_eq!(stats.distance_computations, 300);
    }

    #[test]
    fn range_search_returns_only_within_threshold() {
        let vecs = make_vectors(400, 8, 23);
        let idx = build_index(&vecs);
        let q = &vecs[11];
        let threshold = 30.0f32;
        let (r, _) = idx.range_search(q, threshold, 100, Filter::All);
        assert!(r.iter().all(|n| n.dist <= threshold));
        // Compare against exact count (allow small ANN slack).
        let exact = vecs
            .iter()
            .filter(|v| tv_common::metric::l2_sq(q, v) <= threshold)
            .count();
        assert!(
            r.len() as f64 >= exact as f64 * 0.8,
            "range recall too low: {} vs {exact}",
            r.len()
        );
    }

    #[test]
    fn range_search_zero_threshold_finds_self() {
        let vecs = make_vectors(100, 8, 29);
        let idx = build_index(&vecs);
        let (r, _) = idx.range_search(&vecs[5], 1e-9, 50, Filter::All);
        assert!(r.iter().any(|n| n.id == key(5)));
    }

    #[test]
    fn update_items_applies_in_order() {
        let mut idx = HnswIndex::new(HnswConfig::new(2, DistanceMetric::L2));
        let recs = vec![
            DeltaRecord::upsert(key(0), Tid(1), vec![0.0, 0.0]),
            DeltaRecord::upsert(key(1), Tid(2), vec![1.0, 1.0]),
            DeltaRecord::upsert(key(0), Tid(3), vec![5.0, 5.0]), // update
            DeltaRecord::delete(key(1), Tid(4)),
        ];
        let n = idx.update_items(&recs).unwrap();
        assert_eq!(n, 4);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get_embedding(key(0)).unwrap(), &[5.0, 5.0]);
        assert!(idx.get_embedding(key(1)).is_none());
    }

    #[test]
    fn scan_yields_live_entries_once() {
        let vecs = make_vectors(50, 4, 31);
        let mut idx = build_index(&vecs);
        idx.insert(key(3), &[9.0, 9.0, 9.0, 9.0]).unwrap(); // upsert
        idx.remove(key(7));
        let entries: Vec<VertexId> = idx.scan().map(|(k, _)| k).collect();
        assert_eq!(entries.len(), 49);
        let mut uniq = entries.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 49);
        assert!(!entries.contains(&key(7)));
    }

    #[test]
    fn stats_count_work() {
        let vecs = make_vectors(500, 8, 37);
        let idx = build_index(&vecs);
        let (_, stats) = idx.top_k(&vecs[0], 10, 50, Filter::All);
        assert!(stats.distance_computations > 10);
        assert!(stats.hops > 0);
        assert!(!stats.brute_force);
    }

    #[test]
    fn deterministic_given_seed() {
        let vecs = make_vectors(300, 8, 41);
        let a = build_index(&vecs);
        let b = build_index(&vecs);
        let (ra, _) = a.top_k(&vecs[9], 10, 60, Filter::All);
        let (rb, _) = b.top_k(&vecs[9], 10, 60, Filter::All);
        assert_eq!(
            ra.iter().map(|n| n.id).collect::<Vec<_>>(),
            rb.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cosine_metric_search() {
        let mut idx = HnswIndex::new(HnswConfig::new(3, DistanceMetric::Cosine));
        idx.insert(key(0), &[1.0, 0.0, 0.0]).unwrap();
        idx.insert(key(1), &[0.0, 1.0, 0.0]).unwrap();
        idx.insert(key(2), &[0.9, 0.1, 0.0]).unwrap();
        let (r, _) = idx.top_k(&[1.0, 0.0, 0.0], 2, 10, Filter::All);
        assert_eq!(r[0].id, key(0));
        assert_eq!(r[1].id, key(2));
    }

    #[test]
    fn memory_bytes_grows_with_content() {
        let vecs = make_vectors(100, 16, 43);
        let idx = build_index(&vecs);
        assert!(idx.memory_bytes() >= 100 * 16 * 4);
    }

    #[test]
    fn active_tier_exact_topk_matches_scalar_reference() {
        // Recall-affecting guarantee, tested rather than assumed: the ids an
        // exact scan returns under whatever tier this machine dispatches to
        // must equal the ids computed with the scalar reference kernels.
        use tv_common::kernels::{self, cosine_from_parts, KernelTier};
        let vecs = make_vectors(400, 24, 61);
        let mut idx = HnswIndex::new(HnswConfig::new(24, DistanceMetric::Cosine));
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(key(i as u32), v).unwrap();
        }
        let scalar = kernels::for_tier(KernelTier::Scalar).unwrap();
        for probe in [0usize, 5, 123] {
            let q = &vecs[probe];
            let qn = scalar.norm_sq(q).sqrt();
            let mut scored: Vec<(f32, u32)> = vecs
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let (d, nn) = scalar.dot_norm_sq(q, v);
                    (cosine_from_parts(d, qn * nn.sqrt()), i as u32)
                })
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0));
            let exact: Vec<u32> = scored.into_iter().take(10).map(|(_, i)| i).collect();
            let (bf, _) = idx.brute_force_top_k(q, 10, Filter::All);
            let got: Vec<u32> = bf.iter().map(|n| n.id.local().0).collect();
            assert_eq!(
                got,
                exact,
                "active tier {} disagrees with scalar ranking",
                kernels::active().tier()
            );
        }
    }

    #[test]
    fn memory_bytes_covers_all_resident_structures() {
        let vecs = make_vectors(200, 16, 53);
        let idx = build_index(&vecs);
        use std::mem::size_of;
        // Lower bound from first principles: arena + norm cache + keys +
        // levels + tombstones + link payloads + the local→slot table. If any of
        // these stops being counted, this assertion breaks.
        // A never-folded index holds every row as a `u32` edit.
        let link_payload = idx.stored_links().0 * size_of::<u32>();
        let floor = idx.vectors.len() * size_of::<f32>()
            + idx.norms.len() * size_of::<f32>()
            + idx.keys.len() * size_of::<VertexId>()
            + idx.levels.len()
            + idx.deleted.len()
            + link_payload
            + idx.local_slot.len() * size_of::<u32>();
        assert!(
            idx.memory_bytes() >= floor,
            "memory_bytes {} < structural floor {floor}",
            idx.memory_bytes()
        );
        // The norm cache alone must be visible in the accounting: one f32
        // per slot.
        assert_eq!(idx.norms.len(), idx.slot_count());
    }

    fn recall_against_exact(idx: &HnswIndex, vecs: &[Vec<f32>], queries: &[Vec<f32>]) -> f64 {
        let mut hits = 0;
        for q in queries {
            let exact = exact_top_k(vecs, q, 10);
            let (got, _) = idx.top_k(q, 10, 100, Filter::All);
            hits += exact
                .iter()
                .filter(|e| got.iter().any(|n| n.id.local().0 == **e))
                .count();
        }
        hits as f64 / (queries.len() as f64 * 10.0)
    }

    #[test]
    fn sq8_codes_only_high_recall_and_memory_win() {
        let vecs = make_vectors(600, 32, 11);
        let mut idx = build_index(&vecs);
        let f32_bytes = idx.vector_storage_bytes();
        idx.quantize(QuantSpec::sq8()).unwrap();
        assert_eq!(idx.storage_tier(), StorageTier::Sq8);
        // The acceptance bar: ≤ 0.30× the f32 vector-storage bytes.
        let q_bytes = idx.vector_storage_bytes();
        assert!(
            (q_bytes as f64) <= 0.30 * f32_bytes as f64,
            "sq8 bytes {q_bytes} vs f32 {f32_bytes}"
        );
        let queries = make_vectors(20, 32, 77);
        let recall = recall_against_exact(&idx, &vecs, &queries);
        assert!(recall >= 0.9, "sq8 codes-only recall {recall}");
    }

    #[test]
    fn sq8_keep_f32_rerank_returns_exact_distances() {
        let vecs = make_vectors(400, 16, 13);
        let mut idx = build_index(&vecs);
        idx.quantize(QuantSpec::sq8().with_keep_f32(true).with_rerank_factor(4))
            .unwrap();
        let queries = make_vectors(10, 16, 5);
        for q in &queries {
            let (got, stats) = idx.top_k(q, 5, 64, Filter::All);
            assert!(stats.reranked > 0, "rerank stage must run");
            // Reranked distances come from the retained f32 arena, so they
            // must equal the exact metric values.
            for n in &got {
                let v = &vecs[n.id.local().0 as usize];
                let exact = tv_common::metric::l2_sq(q, v);
                assert!(
                    (n.dist - exact).abs() <= 1e-5 * exact.max(1.0),
                    "dist {} vs exact {exact}",
                    n.dist
                );
            }
        }
        let recall = recall_against_exact(&idx, &vecs, &queries);
        assert!(recall >= 0.95, "keep_f32 rerank recall {recall}");
    }

    #[test]
    fn pq_codes_only_reranks_from_sq8_store() {
        let vecs = make_vectors(500, 16, 17);
        let mut idx = build_index(&vecs);
        idx.quantize(QuantSpec::pq(8).with_rerank_factor(8))
            .unwrap();
        assert_eq!(idx.storage_tier(), StorageTier::Pq { m: 8 });
        let queries = make_vectors(10, 16, 3);
        let (_, stats) = idx.top_k(&queries[0], 5, 64, Filter::All);
        assert!(stats.reranked > 0, "PQ codes-only must rerank via SQ8");
        let recall = recall_against_exact(&idx, &vecs, &queries);
        assert!(recall >= 0.7, "pq+sq8-rerank recall {recall}");
    }

    #[test]
    fn quantized_index_accepts_inserts_updates_deletes() {
        let vecs = make_vectors(300, 8, 23);
        let mut idx = build_index(&vecs);
        idx.quantize(QuantSpec::sq8()).unwrap();
        // Incremental insert encodes with the frozen codec.
        let novel = vec![9.5; 8];
        idx.insert(key(9000), &novel).unwrap();
        let (r, _) = idx.top_k(&novel, 1, 64, Filter::All);
        assert_eq!(r[0].id, key(9000));
        // Upsert re-encodes in place.
        let moved = vec![0.25; 8];
        idx.insert(key(3), &moved).unwrap();
        let got = idx.get_embedding(key(3)).unwrap();
        for (a, b) in got.iter().zip(&moved) {
            assert!((a - b).abs() < 0.1, "reconstruction {a} vs {b}");
        }
        // Delete excludes from results.
        assert!(idx.remove(key(9000)));
        let (r, _) = idx.top_k(&novel, 1, 64, Filter::All);
        assert_ne!(r[0].id, key(9000));
    }

    #[test]
    fn quantized_cosine_search_works() {
        let vecs = make_vectors(300, 12, 31);
        let mut idx = HnswIndex::new(HnswConfig::new(12, DistanceMetric::Cosine));
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(key(i as u32), v).unwrap();
        }
        idx.quantize(QuantSpec::sq8()).unwrap();
        let q = &vecs[42];
        let (r, _) = idx.top_k(q, 3, 64, Filter::All);
        assert_eq!(r[0].id, key(42), "self-query must top the list");
        assert!(r[0].dist < 1e-3, "cosine self-distance {}", r[0].dist);
    }

    #[test]
    fn quantize_rejects_invalid_transitions() {
        let mut empty = HnswIndex::new(HnswConfig::new(4, DistanceMetric::L2));
        assert!(empty.quantize(QuantSpec::sq8()).is_err(), "empty index");

        let vecs = make_vectors(50, 4, 7);
        let mut idx = build_index(&vecs);
        // F32 spec on an unquantized index is a no-op.
        idx.quantize(QuantSpec::f32()).unwrap();
        idx.quantize(QuantSpec::sq8()).unwrap();
        // Tier changes require a rebuild.
        assert!(idx.quantize(QuantSpec::pq(2)).is_err());
        // Codes-only cannot go back to f32 (the arena is gone).
        assert!(idx.quantize(QuantSpec::f32()).is_err());

        // keep_f32 CAN go back: the arena still exists.
        let mut kept = build_index(&vecs);
        kept.quantize(QuantSpec::sq8().with_keep_f32(true)).unwrap();
        kept.quantize(QuantSpec::f32()).unwrap();
        assert_eq!(kept.storage_tier(), StorageTier::F32);
    }

    #[test]
    fn codes_only_get_embedding_is_bounded_reconstruction() {
        let vecs = make_vectors(200, 8, 3);
        let mut idx = build_index(&vecs);
        idx.quantize(QuantSpec::sq8()).unwrap();
        // SQ8 reconstruction error is at most one quantization step per
        // dim; with values in [0,10) a loose 0.1 bound is safe (step ≈
        // range/255 ≈ 0.04).
        for i in [0u32, 57, 199] {
            let got = idx.get_embedding(key(i)).unwrap();
            for (a, b) in got.iter().zip(&vecs[i as usize]) {
                assert!((a - b).abs() < 0.1, "slot {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn quantized_brute_force_matches_graph_results() {
        let vecs = make_vectors(300, 16, 41);
        let mut idx = build_index(&vecs);
        idx.quantize(QuantSpec::sq8().with_keep_f32(true)).unwrap();
        let q = make_vectors(1, 16, 9).pop().unwrap();
        let (bf, stats) = idx.brute_force_top_k(&q, 10, Filter::All);
        assert!(stats.brute_force);
        assert!(stats.reranked > 0);
        // Brute force over codes + exact rerank must agree with the exact
        // scan on the retained arena for the top results.
        let exact = exact_top_k(&vecs, &q, 10);
        let got: Vec<u32> = bf.iter().map(|n| n.id.local().0).collect();
        let hits = exact.iter().filter(|e| got.contains(e)).count();
        assert!(hits >= 9, "brute-force quantized hits {hits}/10");
    }

    #[test]
    fn quantized_memory_bytes_counts_codes() {
        let vecs = make_vectors(100, 8, 53);
        let mut idx = build_index(&vecs);
        let before = idx.memory_bytes();
        idx.quantize(QuantSpec::sq8()).unwrap();
        let after = idx.memory_bytes();
        assert!(
            after < before,
            "codes-only must shrink: {after} vs {before}"
        );
        // The code arena (1 byte/dim/slot) must be visible in the total.
        assert!(after >= idx.slot_count() * 8);
    }

    /// Bit-level comparison of result lists: same ids, same distance bits.
    fn assert_bit_identical(a: &[Neighbor], b: &[Neighbor], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length mismatch");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id, "{ctx}: id mismatch");
            assert_eq!(
                x.dist.to_bits(),
                y.dist.to_bits(),
                "{ctx}: distance bits mismatch"
            );
        }
    }

    #[test]
    fn pooled_scratch_searches_bit_identical_to_fresh_pool() {
        let vecs = make_vectors(400, 16, 91);
        let mut idx = build_index(&vecs);
        // Tombstones give the filtered path deleted slots to skip.
        for i in 0..40 {
            idx.remove(key(i * 7));
        }
        let mut bm = Bitmap::new(400);
        for i in 0..400 {
            bm.set(i, i % 3 != 0);
        }
        // A clone starts with an empty scratch pool: its first search runs
        // on freshly allocated buffers, exactly like the pre-pooling code.
        let fresh = idx.clone();
        let queries = make_vectors(25, 16, 17);
        for (qi, q) in queries.iter().enumerate() {
            // Warm the pool, then reuse it: both passes must match the
            // fresh-buffer oracle bit for bit.
            let (warm, _) = idx.top_k(q, 10, 64, Filter::All);
            let (reused, _) = idx.top_k(q, 10, 64, Filter::All);
            let (oracle, _) = fresh.top_k(q, 10, 64, Filter::All);
            assert_bit_identical(&warm, &oracle, &format!("top_k q{qi} warm"));
            assert_bit_identical(&reused, &oracle, &format!("top_k q{qi} reused"));

            let (filt, _) = idx.top_k(q, 10, 64, Filter::Valid(&bm));
            let (filt_oracle, _) = fresh.top_k(q, 10, 64, Filter::Valid(&bm));
            assert_bit_identical(&filt, &filt_oracle, &format!("filtered q{qi}"));

            let (rng_res, _) = idx.range_search(q, 30.0, 64, Filter::All);
            let (rng_oracle, _) = fresh.range_search(q, 30.0, 64, Filter::All);
            assert_bit_identical(&rng_res, &rng_oracle, &format!("range q{qi}"));
        }
    }

    /// The local→slot table against a model of the live keys, after every
    /// step of a seeded sequence of inserts, upserts, removes, re-inserts,
    /// folds and snapshot round trips: each live key's entry
    /// names a live slot carrying that key, the set entries are exactly the
    /// live mask's set bits, and a removed key or another segment's id with
    /// a live local id is not found.
    #[test]
    fn local_slot_table_tracks_the_live_keys() {
        let seg = |s: u32, l: u64| VertexId::new(SegmentId(s), LocalId(l as u32));
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0x7AB1E ^ seed);
            let mut idx = HnswIndex::new(HnswConfig::new(4, DistanceMetric::L2).with_m(4));
            let mut live = std::collections::BTreeSet::new();
            let mut removed = std::collections::BTreeSet::new();
            for step in 0..400 {
                let l = rng.next_below(120);
                let v: Vec<f32> = (0..4).map(|_| rng.next_f32()).collect();
                match rng.next_below(20) {
                    0 => {
                        idx.compile_layout(GraphLayout::PackedPrefetch);
                    }
                    1 => {
                        idx.compile_layout(GraphLayout::Pointer);
                    }
                    2 => {
                        idx = crate::snapshot::from_bytes(&crate::snapshot::to_bytes(&idx)).unwrap()
                    }
                    3..=7 => {
                        assert_eq!(
                            idx.remove(seg(1, l)),
                            live.remove(&l),
                            "seed {seed} step {step}"
                        );
                        removed.insert(l);
                    }
                    _ => {
                        // A fresh insert, an upsert in place, or a
                        // re-insert of a removed key into a new slot.
                        idx.insert(seg(1, l), &v).unwrap();
                        live.insert(l);
                        removed.remove(&l);
                    }
                }
                let ctx = format!("seed {seed} step {step}");
                for &l in &live {
                    let slot = idx.local_slot[l as usize];
                    assert_eq!(idx.keys[slot as usize], seg(1, l), "{ctx}");
                    assert!(!idx.deleted[slot as usize], "{ctx}");
                    assert!(idx.contains(seg(1, l)), "{ctx}");
                    // A foreign id with a live local id is not this key.
                    assert!(!idx.contains(seg(2, l)), "{ctx}");
                    assert!(idx.get_embedding(seg(0, l)).is_none(), "{ctx}");
                }
                let set: Vec<usize> = (0..idx.local_slot.len())
                    .filter(|&l| idx.local_slot[l] != NO_SLOT)
                    .collect();
                assert_eq!(set, idx.live_mask.iter_ones().collect::<Vec<_>>(), "{ctx}");
                assert_eq!(set.len(), live.len(), "{ctx}");
                for &l in &removed {
                    assert!(!idx.contains(seg(1, l)), "{ctx}");
                    assert!(idx.get_embedding(seg(1, l)).is_none(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn insert_refuses_another_segments_key() {
        let mut idx = HnswIndex::new(HnswConfig::new(2, DistanceMetric::L2));
        let other = VertexId::new(SegmentId(1), LocalId(0));
        idx.insert(key(0), &[1.0, 2.0]).unwrap();
        let err = idx.insert(other, &[1.0, 2.0]).unwrap_err();
        assert!(
            matches!(&err, TvError::InvalidArgument(m) if m.contains("v(1,0)")),
            "{err}"
        );
        assert!(!idx.remove(other));
        assert_eq!((idx.len(), idx.slot_count()), (1, 1));
        // The first key decides, removed or not: a tombstone keeps its key.
        idx.remove(key(0));
        assert!(idx.insert(other, &[1.0, 2.0]).is_err());
        idx.insert(key(0), &[3.0, 4.0]).unwrap();
        assert_eq!(idx.get_embedding(key(0)).unwrap(), [3.0, 4.0]);
    }

    #[test]
    fn level_assignment_is_independent_of_insertion_order() {
        let vecs = make_vectors(100, 8, 29);
        let forward = build_index(&vecs);
        let mut reversed = HnswIndex::new(HnswConfig::new(8, DistanceMetric::L2));
        for (i, v) in vecs.iter().enumerate().rev() {
            reversed.insert(key(i as u32), v).unwrap();
        }
        for i in 0..100u32 {
            let fs = forward.live_slot(key(i)).unwrap() as usize;
            let rs = reversed.live_slot(key(i)).unwrap() as usize;
            assert_eq!(
                forward.levels[fs], reversed.levels[rs],
                "key {i}: level must depend only on the key and seed"
            );
        }
        // Re-insert after delete lands on the same level.
        let mut idx = forward.clone();
        let before = idx.levels[idx.live_slot(key(42)).unwrap() as usize];
        idx.remove(key(42));
        idx.insert(key(42), &vecs[42]).unwrap();
        assert_eq!(idx.levels[idx.live_slot(key(42)).unwrap() as usize], before);
    }
}
