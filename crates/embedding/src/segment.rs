//! Embedding segments: decoupled vector storage aligned with vertex segments
//! (§4.2) and the MVCC read/update machinery (§4.3).
//!
//! An [`EmbeddingSegment`] holds, for one vertex segment and one embedding
//! attribute:
//!
//! * a list of **index snapshots**, each an HNSW image valid up to a TID —
//!   multi-versioned so readers keep a consistent view while the vacuum
//!   swaps in newer snapshots;
//! * the **in-memory delta store**: committed vector deltas not yet flushed;
//! * **delta files**: flushed delta batches awaiting the index merge.
//!
//! A search at TID `t` picks the newest snapshot with `up_to <= t`, searches
//! its index, and combines the result with a brute-force pass over the delta
//! records in `(snapshot.up_to, t]` — exactly the paper's "vector search
//! queries combine index snapshot search results with brute-force search
//! results over vector deltas".

use crate::types::{check_vector, EmbeddingTypeDef};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use tv_common::bitmap::Filter;
use tv_common::ids::SegmentLayout;
use tv_common::PreparedQuery;
use tv_common::{
    Bitmap, GraphLayout, Neighbor, NeighborHeap, PlannerConfig, QuantSpec, SegmentId, StorageTier,
    Tid, TvError, TvResult, VertexId,
};
use tv_hnsw::index::DeltaAction;
use tv_hnsw::{DeltaRecord, HnswConfig, HnswIndex, SearchStats, VectorIndex};

/// One immutable index image, valid up to `up_to`.
pub struct IndexSnapshot {
    /// Every vector delta with `tid <= up_to` is reflected here.
    pub up_to: Tid,
    /// The HNSW index over this segment's vectors.
    pub index: HnswIndex,
}

/// Live vectors a snapshot must hold before its codec is trained. A codec
/// is learned once and then frozen (codes must stay comparable across
/// incremental merges): SQ8 clamps every later vector to the per-dimension
/// `[min, max]` it saw, PQ assigns it to the centroids it saw. For `n`
/// training vectors a later component falls outside the learned range with
/// probability `2 / (n + 1)`, whatever the distribution: 12 % at the 16
/// vectors a live vacuum's first merge may see, 0.2 % at 1024. On the probe
/// in this file's tests (dim 32, 2 000 gaussian vectors, SQ8, recall@10
/// 0.990 when trained on all of them) a codec trained on the first 16 / 128 /
/// 256 / 512 / 1024 reads 0.698 / 0.952 / 0.966 / 0.976 / 0.982. Waiting
/// costs little: a snapshot this small is at most `3 * 1024 * dim` bytes
/// larger as f32 than as codes. A segment too small to ever hold that many
/// trains once it is half full.
const CODEC_TRAIN_FLOOR: usize = 1024;

/// A flushed batch of vector deltas covering `(lo, hi]`.
pub struct DeltaFile {
    /// Exclusive lower TID bound.
    pub lo: Tid,
    /// Inclusive upper TID bound.
    pub hi: Tid,
    /// Records in commit order.
    pub records: Vec<DeltaRecord>,
}

/// Decoupled vector storage + index for one (vertex segment, embedding
/// attribute) pair.
///
/// Lock order: `mem_deltas`, then `delta_files`, then `snapshots` — the order
/// `delta_merge` moves records in. A record lives in exactly one of the two
/// delta stores, so a reader that wants every delta holds `mem_deltas`
/// across both scans ([`Self::for_each_delta`]); nothing takes an earlier
/// lock while holding a later one.
pub struct EmbeddingSegment {
    /// The vertex segment this embedding segment is aligned with.
    pub segment_id: SegmentId,
    capacity: usize,
    quant: QuantSpec,
    layout: GraphLayout,
    snapshots: RwLock<Vec<Arc<IndexSnapshot>>>,
    mem_deltas: RwLock<Vec<DeltaRecord>>,
    delta_files: RwLock<Vec<Arc<DeltaFile>>>,
}

impl EmbeddingSegment {
    /// New empty segment. The HNSW seed is perturbed per segment so segment
    /// indexes are not structurally identical.
    #[must_use]
    pub fn new(segment_id: SegmentId, def: &EmbeddingTypeDef, capacity: usize) -> Self {
        let cfg = HnswConfig::new(def.dimension, def.metric)
            .with_seed(0xE5EE_D000 ^ u64::from(segment_id.0));
        let empty = IndexSnapshot {
            up_to: Tid::ZERO,
            index: HnswIndex::new(cfg),
        };
        Self::declared(segment_id, capacity, def.quant, def.layout, empty)
    }

    /// A segment with the given declaration whose only state is `first`.
    pub(crate) fn declared(
        segment_id: SegmentId,
        capacity: usize,
        quant: QuantSpec,
        layout: GraphLayout,
        first: IndexSnapshot,
    ) -> Self {
        EmbeddingSegment {
            segment_id,
            capacity,
            quant,
            layout,
            snapshots: RwLock::new(vec![Arc::new(first)]),
            mem_deltas: RwLock::new(Vec::new()),
            delta_files: RwLock::new(Vec::new()),
        }
    }

    /// Segment capacity (same as the vertex segment's).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The storage-tier spec this segment was declared with.
    #[must_use]
    pub fn quant_spec(&self) -> QuantSpec {
        self.quant
    }

    /// Storage tier of the newest published snapshot. A quantized attribute
    /// reports `F32` until a merge publishes a snapshot large enough to train
    /// its codec on ([`CODEC_TRAIN_FLOOR`]).
    #[must_use]
    pub fn storage_tier(&self) -> StorageTier {
        self.newest_snapshot().index.storage_tier()
    }

    /// Resident bytes: every retained snapshot plus the delta overlay
    /// (mem store and flushed delta files).
    #[must_use]
    pub(crate) fn memory_bytes(&self) -> usize {
        let delta_bytes = |r: &DeltaRecord| std::mem::size_of::<DeltaRecord>() + r.vector.len() * 4;
        let mut total: usize = self
            .snapshots
            .read()
            .iter()
            .map(|s| s.index.memory_bytes())
            .sum();
        total += self
            .mem_deltas
            .read()
            .iter()
            .map(delta_bytes)
            .sum::<usize>();
        for f in self.delta_files.read().iter() {
            total += f.records.iter().map(delta_bytes).sum::<usize>();
        }
        total
    }

    /// Quantize `index` per the declared spec, if it is not already and
    /// holds enough live vectors to train a codec on
    /// ([`CODEC_TRAIN_FLOOR`]); until then the snapshot stays f32. Called on
    /// every freshly built snapshot: a clone of an already-quantized base
    /// keeps its frozen codec instead (so codes stay comparable across
    /// incremental merges). Whether a given snapshot trains depends only on
    /// what it holds; *which* vectors the codec is trained on is the first
    /// snapshot to reach the floor, so it depends on the merge schedule
    /// (`[1024, 2000]` trains on 1 024 vectors, `[2000]` on all 2 000), and
    /// the same schedule replayed gives the same bytes.
    fn apply_quant(&self, index: &mut HnswIndex) -> TvResult<()> {
        let floor = CODEC_TRAIN_FLOOR.min(self.capacity / 2).max(1);
        if self.quant.is_quantized() && index.len() >= floor && index.quant_spec().is_none() {
            index.quantize(self.quant)?;
        }
        Ok(())
    }

    /// Compile the freshly built snapshot into its declared search layout.
    /// Runs after `apply_quant` so the BFS permutation carries the code
    /// slabs along with the vectors. Purely representational: the snapshot
    /// serves bit-identical results either way.
    fn apply_layout(&self, index: &mut HnswIndex) {
        index.compile_layout(self.layout);
    }

    /// The search-graph layout this segment compiles snapshots into.
    #[must_use]
    pub fn layout(&self) -> GraphLayout {
        self.layout
    }

    /// Refuse a vector this segment cannot score or index: one of another
    /// dimension than the segment was declared with, or with a NaN/±∞
    /// component.
    pub fn check_vector(&self, v: &[f32]) -> TvResult<()> {
        check_vector(self.dimension(), v)
    }

    fn dimension(&self) -> usize {
        self.newest_snapshot().index.config().dim
    }

    /// Append committed deltas (TIDs must be non-decreasing and newer than
    /// everything already stored). Every record is checked before any is
    /// appended: an upsert that [`Self::check_vector`] refuses would fail
    /// every later index merge of this segment, and a vector under an id
    /// beyond the capacity would answer from the delta overlay and vanish
    /// from every search once merged.
    pub fn append_deltas(&self, records: &[DeltaRecord]) -> TvResult<()> {
        if records.is_empty() {
            return Ok(());
        }
        let dim = self.dimension();
        let layout = SegmentLayout {
            capacity: self.capacity,
        };
        for r in records {
            layout.check_id(r.id)?;
            if matches!(r.action, DeltaAction::Upsert) {
                check_vector(dim, &r.vector)?;
            }
        }
        let mut mem = self.mem_deltas.write();
        let floor = mem
            .last()
            .map(|r| r.tid)
            .or_else(|| self.delta_files.read().last().map(|f| f.hi))
            .unwrap_or_else(|| self.newest_snapshot().up_to);
        let mut prev = floor;
        for r in records {
            if r.tid < prev {
                return Err(TvError::Storage(format!(
                    "vector delta {} older than {}",
                    r.tid, prev
                )));
            }
            prev = r.tid;
        }
        mem.extend_from_slice(records);
        Ok(())
    }

    /// Newest snapshot regardless of TID (the index-merge base).
    #[must_use]
    pub fn newest_snapshot(&self) -> Arc<IndexSnapshot> {
        Arc::clone(self.snapshots.read().last().expect("at least one snapshot"))
    }

    /// Newest snapshot visible at `read_tid`.
    #[must_use]
    pub fn snapshot_for(&self, read_tid: Tid) -> Arc<IndexSnapshot> {
        let snaps = self.snapshots.read();
        snaps
            .iter()
            .rev()
            .find(|s| s.up_to <= read_tid)
            .or_else(|| snaps.first())
            .map(Arc::clone)
            .expect("at least one snapshot")
    }

    /// Visit every delta record with a TID in `(after, up_to]`, oldest first
    /// (delta files, then the mem-delta store; both are tid-ordered).
    /// `delta_merge` moves records from the mem store to a file, so the mem
    /// lock is taken first and held across both scans: taken after the
    /// files scan, a merge in between would hide its records from both.
    fn for_each_delta(&self, after: Tid, up_to: Tid, mut f: impl FnMut(&DeltaRecord)) {
        let mem = self.mem_deltas.read();
        for file in self.delta_files.read().iter() {
            if file.hi > after && file.lo <= up_to {
                file.records
                    .iter()
                    .filter(|r| r.tid > after && r.tid <= up_to)
                    .for_each(&mut f);
            }
        }
        mem.iter()
            .filter(|r| r.tid > after && r.tid <= up_to)
            .for_each(&mut f);
    }

    /// Collect the overlay of deltas in `(after, read_tid]`: for each vertex
    /// the latest action — `Some(vector)` for a live upsert, `None` for a
    /// delete.
    fn overlay(&self, after: Tid, read_tid: Tid) -> HashMap<VertexId, Option<Vec<f32>>> {
        let mut map = HashMap::new();
        self.for_each_delta(after, read_tid, |r| {
            match r.action {
                DeltaAction::Upsert => map.insert(r.id, Some(r.vector.clone())),
                DeltaAction::Delete => map.insert(r.id, None),
            };
        });
        map
    }

    /// Number of unflushed in-memory deltas.
    #[must_use]
    pub fn mem_delta_count(&self) -> usize {
        self.mem_deltas.read().len()
    }

    /// Number of delta files awaiting index merge / pruning.
    #[must_use]
    pub fn delta_file_count(&self) -> usize {
        self.delta_files.read().len()
    }

    /// Number of retained snapshot versions.
    #[must_use]
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.read().len()
    }

    /// Live vector count at `read_tid`.
    #[must_use]
    pub fn live_count(&self, read_tid: Tid) -> usize {
        let snap = self.snapshot_for(read_tid);
        let overlay = self.overlay(snap.up_to, read_tid);
        let mut n = snap.index.len();
        for (id, action) in &overlay {
            let in_snap = snap.index.get_embedding(*id).is_some();
            match (in_snap, action.is_some()) {
                (false, true) => n += 1,
                (true, false) => n -= 1,
                _ => {}
            }
        }
        n
    }

    /// The stored vector for `id` at `read_tid`.
    #[must_use]
    pub fn get_embedding(&self, id: VertexId, read_tid: Tid) -> Option<Vec<f32>> {
        let snap = self.snapshot_for(read_tid);
        let overlay = self.overlay(snap.up_to, read_tid);
        match overlay.get(&id) {
            Some(Some(v)) => Some(v.clone()),
            Some(None) => None,
            None => snap.index.get_embedding(id),
        }
    }

    /// The index-side validity bitmap for one search: the caller's filter
    /// (or all of `capacity`) minus every overlaid id — their index-resident
    /// version is stale and the overlay pass re-scores them exactly.
    fn index_bitmap(
        &self,
        filter: Option<&Bitmap>,
        overlay: &HashMap<VertexId, Option<Vec<f32>>>,
    ) -> Bitmap {
        let mut bitmap = match filter {
            Some(b) => b.clone(),
            None => Bitmap::full(self.capacity),
        };
        for id in overlay.keys() {
            let l = id.local().0 as usize;
            if l < bitmap.len() {
                bitmap.set(l, false);
            }
        }
        bitmap
    }

    /// Brute-force pass over the overlay's live upserts, pushed into `sink`.
    /// The query is prepared once (norm hoisted); each overlay vector is
    /// scored with the fused one-pass kernel — overlay entries are
    /// transient, so there is no persistent norm cache to consult.
    /// Filter rejections and dimension mismatches are counted, not silently
    /// skipped: a mismatched overlay vector is corrupt data the stats must
    /// surface, and the planner's selectivity feedback needs the rejections.
    fn overlay_pass(
        overlay: &HashMap<VertexId, Option<Vec<f32>>>,
        pq: &PreparedQuery<'_>,
        query_len: usize,
        filter: Option<&Bitmap>,
        stats: &mut SearchStats,
        mut sink: impl FnMut(VertexId, f32),
    ) {
        for (id, action) in overlay {
            if let Some(v) = action {
                let l = id.local().0 as usize;
                let accepted = match filter {
                    Some(b) => l < b.len() && b.get(l),
                    None => true,
                };
                if !accepted {
                    stats.filtered_out += 1;
                    continue;
                }
                if v.len() != query_len {
                    stats.overlay_dim_mismatches += 1;
                    continue;
                }
                stats.distance_computations += 1;
                sink(*id, pq.distance(v));
            }
        }
    }

    /// Top-k search at `read_tid`. `filter` is the validity bitmap over
    /// local ids from the graph engine's pre-filter (or `None` for pure
    /// vector search). `planner` routes the index-side search per query
    /// among brute force, in-traversal filtering, and post-filtering (§5.1
    /// upgraded with NaviX-style cost-based routing; see
    /// `tv_hnsw::planner`).
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        filter: Option<&Bitmap>,
        read_tid: Tid,
        planner: &PlannerConfig,
    ) -> (Vec<Neighbor>, SearchStats) {
        let snap = self.snapshot_for(read_tid);
        let overlay = self.overlay(snap.up_to, read_tid);
        let bitmap = self.index_bitmap(filter, &overlay);

        let (index_results, mut stats) =
            snap.index
                .search_planned(query, k, ef, Filter::Valid(&bitmap), planner);

        let pq = PreparedQuery::new(snap.index.metric(), query);
        let mut heap = NeighborHeap::new(k);
        for n in index_results {
            heap.push(n);
        }
        Self::overlay_pass(&overlay, &pq, query.len(), filter, &mut stats, |id, d| {
            heap.push(Neighbor::new(id, d));
        });
        (heap.into_sorted(), stats)
    }

    /// Range search at `read_tid` (same combination rule as [`Self::search`]).
    pub(crate) fn range_search(
        &self,
        query: &[f32],
        threshold: f32,
        ef: usize,
        filter: Option<&Bitmap>,
        read_tid: Tid,
        planner: &PlannerConfig,
    ) -> (Vec<Neighbor>, SearchStats) {
        let snap = self.snapshot_for(read_tid);
        let overlay = self.overlay(snap.up_to, read_tid);
        let bitmap = self.index_bitmap(filter, &overlay);
        let (mut out, mut stats) =
            snap.index
                .range_search_planned(query, threshold, ef, Filter::Valid(&bitmap), planner);
        let pq = PreparedQuery::new(snap.index.metric(), query);
        Self::overlay_pass(&overlay, &pq, query.len(), filter, &mut stats, |id, d| {
            if d <= threshold {
                out.push(Neighbor::new(id, d));
            }
        });
        out.sort_unstable();
        (out, stats)
    }

    /// **Delta-merge vacuum step** (§4.3, right side of Fig. 4): flush
    /// in-memory deltas with `tid <= up_to` into a new delta file. Fast —
    /// just moves records. Returns the new file, if any records qualified.
    pub fn delta_merge(&self, up_to: Tid) -> Option<Arc<DeltaFile>> {
        let mut mem = self.mem_deltas.write();
        let split = mem.partition_point(|r| r.tid <= up_to);
        if split == 0 {
            return None;
        }
        let records: Vec<DeltaRecord> = mem.drain(..split).collect();
        let mut files = self.delta_files.write();
        let lo = files
            .last()
            .map(|f| f.hi)
            .unwrap_or_else(|| self.newest_snapshot().up_to);
        let hi = records.last().expect("non-empty").tid;
        let file = Arc::new(DeltaFile { lo, hi, records });
        files.push(Arc::clone(&file));
        Some(file)
    }

    /// **Index-merge vacuum step** (left side of Fig. 4): fold delta files
    /// up to `up_to` into a copy of the newest index and publish it as a new
    /// snapshot. Slow — this is the 30-seconds-per-million-vectors step the
    /// paper decouples from the delta merge. Returns the new snapshot TID,
    /// or `None` if no flushed deltas qualified.
    pub fn index_merge(&self, up_to: Tid) -> TvResult<Option<Tid>> {
        let base = self.newest_snapshot();
        let records: Vec<DeltaRecord> = {
            let files = self.delta_files.read();
            files
                .iter()
                .flat_map(|f| f.records.iter())
                .filter(|r| r.tid > base.up_to && r.tid <= up_to)
                .cloned()
                .collect()
        };
        if records.is_empty() {
            return Ok(None);
        }
        let new_tid = records.last().expect("non-empty").tid;
        let mut index = base.index.clone();
        index.update_items(&records)?;
        self.apply_quant(&mut index)?;
        self.apply_layout(&mut index);
        let snap = Arc::new(IndexSnapshot {
            up_to: new_tid,
            index,
        });
        self.snapshots.write().push(snap);
        Ok(Some(new_tid))
    }

    /// Rebuild the index from scratch at `read_tid` (live vectors only) and
    /// publish it — the alternative Fig. 11 compares incremental merging
    /// against, which wins once >~20% of vectors changed.
    pub(crate) fn rebuild(&self, read_tid: Tid) -> TvResult<Tid> {
        let snap = self.snapshot_for(read_tid);
        let overlay = self.overlay(snap.up_to, read_tid);
        let mut index = HnswIndex::new(*snap.index.config());
        for (id, vector) in snap.index.scan() {
            // The overlay's upsert or delete supersedes the snapshot's vector.
            if !overlay.contains_key(&id) {
                index.insert(id, &vector)?;
            }
        }
        for (id, action) in &overlay {
            if let Some(v) = action {
                index.insert(*id, v)?;
            }
        }
        self.apply_quant(&mut index)?;
        self.apply_layout(&mut index);
        let up_to = read_tid.max(snap.up_to);
        self.snapshots
            .write()
            .push(Arc::new(IndexSnapshot { up_to, index }));
        Ok(up_to)
    }

    /// Export this segment's durable state at `ckpt_tid` for a checkpoint:
    /// the newest index snapshot visible at that TID plus every delta record
    /// in `(snapshot.up_to, ckpt_tid]` (from delta files and the mem store,
    /// in commit order). Restoring the pair reproduces reads at `ckpt_tid`
    /// exactly.
    #[must_use]
    pub fn checkpoint_state(&self, ckpt_tid: Tid) -> (Arc<IndexSnapshot>, Vec<DeltaRecord>) {
        let snap = self.snapshot_for(ckpt_tid);
        let tail = self.delta_tail(snap.up_to, ckpt_tid);
        (snap, tail)
    }

    /// The delta records in `(after, up_to]`, oldest first. This is the
    /// migration catch-up feed: the destination installs a snapshot valid up
    /// to some tid, then repeatedly pulls `delta_tail(cursor, Tid::MAX)`
    /// from the still-serving source until the tail is short enough to drain
    /// inside the flip critical section.
    pub fn delta_tail(&self, after: Tid, up_to: Tid) -> Vec<DeltaRecord> {
        let mut tail = Vec::new();
        self.for_each_delta(after, up_to, |r| tail.push(r.clone()));
        tail
    }

    /// Install checkpointed state into this (pristine) segment: an index
    /// image valid up to `up_to` plus the delta tail beyond it. Refuses to
    /// clobber a segment that already holds data.
    pub(crate) fn restore_checkpoint(
        &self,
        up_to: Tid,
        index: HnswIndex,
        deltas: &[DeltaRecord],
    ) -> TvResult<()> {
        {
            let no_deltas = self.mem_deltas.read().is_empty() && self.delta_files.read().is_empty();
            let snaps = self.snapshots.read();
            let pristine = no_deltas
                && snaps.len() == 1
                && snaps[0].up_to == Tid::ZERO
                && snaps[0].index.len() == 0;
            if !pristine {
                return Err(TvError::Storage(format!(
                    "restore into non-empty embedding segment {}",
                    self.segment_id
                )));
            }
        }
        *self.snapshots.write() = vec![Arc::new(IndexSnapshot { up_to, index })];
        self.append_deltas(deltas)
    }

    /// Reclaim snapshots and delta files no running transaction can need:
    /// keep the newest snapshot with `up_to <= horizon` and everything
    /// newer; drop delta files fully covered by the oldest retained
    /// snapshot. ("The old index snapshot and delta files are deleted only
    /// after the new index snapshot is visible to all running transactions.")
    pub(crate) fn prune(&self, horizon: Tid) -> (usize, usize) {
        let mut snaps = self.snapshots.write();
        let keep_from = snaps.iter().rposition(|s| s.up_to <= horizon).unwrap_or(0);
        let dropped_snaps = keep_from;
        snaps.drain(..keep_from);
        let floor = snaps.first().expect("at least one snapshot").up_to;
        drop(snaps);
        let mut files = self.delta_files.write();
        let before = files.len();
        files.retain(|f| f.hi > floor);
        (dropped_snaps, before - files.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::ids::LocalId;
    use tv_common::{DistanceMetric, SplitMix64};

    fn def() -> EmbeddingTypeDef {
        EmbeddingTypeDef::new("content_emb", 8, "GPT4", DistanceMetric::L2)
    }

    fn vid(l: u32) -> VertexId {
        VertexId::new(SegmentId(0), LocalId(l))
    }

    /// Legacy routing with threshold 0: always the in-traversal index path,
    /// as the pre-planner tests assumed.
    fn plan0() -> PlannerConfig {
        PlannerConfig::static_threshold(0)
    }

    fn rand_vec(rng: &mut SplitMix64) -> Vec<f32> {
        (0..8).map(|_| rng.next_f32() * 4.0).collect()
    }

    fn seeded_segment(n: usize) -> (EmbeddingSegment, Vec<Vec<f32>>) {
        let seg = EmbeddingSegment::new(SegmentId(0), &def(), 1024);
        let mut rng = SplitMix64::new(99);
        let vecs: Vec<Vec<f32>> = (0..n).map(|_| rand_vec(&mut rng)).collect();
        let recs: Vec<DeltaRecord> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| DeltaRecord::upsert(vid(i as u32), Tid(i as u64 + 1), v.clone()))
            .collect();
        seg.append_deltas(&recs).unwrap();
        (seg, vecs)
    }

    #[test]
    fn delta_tail_spans_files_and_mem_in_order() {
        let (seg, _vecs) = seeded_segment(60);
        // Flush a prefix to a delta file so the tail spans both stores.
        seg.delta_merge(Tid(40)).expect("records flushed");
        let tail = seg.delta_tail(Tid(10), Tid(55));
        assert_eq!(tail.len(), 45);
        assert_eq!(tail.first().unwrap().tid, Tid(11));
        assert_eq!(tail.last().unwrap().tid, Tid(55));
        assert!(tail.windows(2).all(|w| w[0].tid < w[1].tid));
        // Open upper bound picks up everything.
        assert_eq!(seg.delta_tail(Tid(0), Tid::MAX).len(), 60);
        // A fully-caught-up cursor yields an empty tail.
        assert!(seg.delta_tail(Tid(60), Tid::MAX).is_empty());
    }

    #[test]
    fn search_sees_unflushed_mem_deltas() {
        let (seg, vecs) = seeded_segment(50);
        // Nothing merged yet: snapshot is empty, everything lives in mem.
        assert_eq!(seg.mem_delta_count(), 50);
        let (r, _) = seg.search(&vecs[7], 1, 32, None, Tid(50), &plan0());
        assert_eq!(r[0].id, vid(7));
        assert_eq!(seg.live_count(Tid(50)), 50);
        // At an earlier TID only a prefix is visible.
        assert_eq!(seg.live_count(Tid(10)), 10);
    }

    #[test]
    fn two_stage_vacuum_then_search() {
        let (seg, vecs) = seeded_segment(60);
        let file = seg.delta_merge(Tid(40)).expect("records flushed");
        assert_eq!(file.records.len(), 40);
        assert_eq!(seg.mem_delta_count(), 20);
        let merged = seg.index_merge(Tid(40)).unwrap();
        assert_eq!(merged, Some(Tid(40)));
        assert_eq!(seg.snapshot_count(), 2);
        // Reader at 60 combines snapshot(40) + 20 mem deltas.
        let (r, _) = seg.search(&vecs[55], 1, 32, None, Tid(60), &plan0());
        assert_eq!(r[0].id, vid(55));
        let (r, _) = seg.search(&vecs[10], 1, 32, None, Tid(60), &plan0());
        assert_eq!(r[0].id, vid(10));
        // Reader at 40 must not see tid 41+.
        assert_eq!(seg.live_count(Tid(40)), 40);
    }

    #[test]
    fn old_reader_uses_old_snapshot_after_merge() {
        let (seg, _vecs) = seeded_segment(30);
        seg.delta_merge(Tid(30));
        seg.index_merge(Tid(30)).unwrap();
        // Reader pinned at tid 10 sees exactly 10 vectors even though the
        // newest snapshot has 30.
        assert_eq!(seg.live_count(Tid(10)), 10);
        assert_eq!(seg.snapshot_for(Tid(10)).up_to, Tid::ZERO);
        assert_eq!(seg.snapshot_for(Tid(30)).up_to, Tid(30));
    }

    #[test]
    fn delete_masks_index_results() {
        let (seg, vecs) = seeded_segment(40);
        seg.delta_merge(Tid(40));
        seg.index_merge(Tid(40)).unwrap();
        // Delete vertex 3 at tid 41 (still in mem store).
        seg.append_deltas(&[DeltaRecord::delete(vid(3), Tid(41))])
            .unwrap();
        let (r, _) = seg.search(&vecs[3], 1, 32, None, Tid(41), &plan0());
        assert_ne!(r[0].id, vid(3));
        // But a reader at tid 40 still sees it.
        let (r, _) = seg.search(&vecs[3], 1, 32, None, Tid(40), &plan0());
        assert_eq!(r[0].id, vid(3));
        assert!(seg.get_embedding(vid(3), Tid(41)).is_none());
        assert!(seg.get_embedding(vid(3), Tid(40)).is_some());
    }

    #[test]
    fn upsert_overrides_index_version() {
        let (seg, _vecs) = seeded_segment(20);
        seg.delta_merge(Tid(20));
        seg.index_merge(Tid(20)).unwrap();
        let newv = vec![50.0; 8];
        seg.append_deltas(&[DeltaRecord::upsert(vid(4), Tid(21), newv.clone())])
            .unwrap();
        let (r, _) = seg.search(&newv, 1, 32, None, Tid(21), &plan0());
        assert_eq!(r[0].id, vid(4));
        assert!((r[0].dist) < 1e-6);
        assert_eq!(seg.get_embedding(vid(4), Tid(21)).unwrap(), newv);
        assert_eq!(seg.live_count(Tid(21)), 20);
    }

    #[test]
    fn filter_bitmap_respected_with_deltas() {
        let (seg, vecs) = seeded_segment(30);
        seg.delta_merge(Tid(15));
        seg.index_merge(Tid(15)).unwrap();
        // Valid: only local ids 20..30 (all still in mem deltas).
        let bm = Bitmap::from_indices(1024, 20..30);
        let (r, _) = seg.search(&vecs[0], 5, 64, Some(&bm), Tid(30), &plan0());
        assert!(r.iter().all(|n| (20..30).contains(&n.id.local().0)));
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn brute_force_threshold_triggers_scan() {
        let (seg, vecs) = seeded_segment(50);
        seg.delta_merge(Tid(50));
        seg.index_merge(Tid(50)).unwrap();
        let bm = Bitmap::from_indices(1024, [5usize, 6, 7]);
        // Threshold higher than valid count → brute force.
        let (_, stats) = seg.search(
            &vecs[0],
            2,
            32,
            Some(&bm),
            Tid(50),
            &PlannerConfig::static_threshold(10),
        );
        assert!(stats.brute_force);
        // Threshold of zero → index path.
        let (_, stats) = seg.search(&vecs[0], 2, 32, None, Tid(50), &plan0());
        assert!(!stats.brute_force);
    }

    #[test]
    fn range_search_combines_snapshot_and_deltas() {
        let (seg, _) = seeded_segment(30);
        seg.delta_merge(Tid(20));
        seg.index_merge(Tid(20)).unwrap();
        // Two exact-match points: one in the snapshot (id 0), one in mem.
        let probe = vec![2.0; 8];
        seg.append_deltas(&[DeltaRecord::upsert(vid(100), Tid(31), probe.clone())])
            .unwrap();
        let (r, _) = seg.range_search(&probe, 0.5, 64, None, Tid(31), &plan0());
        assert!(r.iter().any(|n| n.id == vid(100)));
        assert!(r.iter().all(|n| n.dist <= 0.5));
    }

    #[test]
    fn prune_drops_old_versions_only_when_safe() {
        let (seg, _) = seeded_segment(30);
        seg.delta_merge(Tid(30));
        seg.index_merge(Tid(30)).unwrap();
        assert_eq!(seg.snapshot_count(), 2);
        // A reader pinned at tid 5 forbids dropping the base snapshot.
        let (s, f) = seg.prune(Tid(5));
        assert_eq!((s, f), (0, 0));
        assert_eq!(seg.snapshot_count(), 2);
        // Horizon past 30: base snapshot and the delta file go.
        let (s, f) = seg.prune(Tid(30));
        assert_eq!((s, f), (1, 1));
        assert_eq!(seg.snapshot_count(), 1);
        assert_eq!(seg.delta_file_count(), 0);
    }

    #[test]
    fn rebuild_compacts_tombstones() {
        let (seg, vecs) = seeded_segment(40);
        seg.delta_merge(Tid(40));
        seg.index_merge(Tid(40)).unwrap();
        // Update 30 of 40 vectors (worse than the 20% crossover → rebuild).
        let mut rng = SplitMix64::new(1234);
        let updates: Vec<DeltaRecord> = (0..30)
            .map(|i| DeltaRecord::upsert(vid(i), Tid(41 + u64::from(i)), rand_vec(&mut rng)))
            .collect();
        seg.append_deltas(&updates).unwrap();
        let tid = seg.rebuild(Tid(70)).unwrap();
        assert_eq!(tid, Tid(70));
        let newest = seg.newest_snapshot();
        assert_eq!(newest.index.len(), 40);
        assert_eq!(newest.index.tombstone_count(), 0);
        // Updated vector wins; untouched vector intact.
        let (r, _) = seg.search(&updates[0].vector, 1, 64, None, Tid(70), &plan0());
        assert_eq!(r[0].id, vid(0));
        let (r, _) = seg.search(&vecs[35], 1, 64, None, Tid(70), &plan0());
        assert_eq!(r[0].id, vid(35));
    }

    /// Index merges and rebuilds publish snapshots compiled into the
    /// attribute's declared layout; pointer-layout attributes stay
    /// uncompiled, and packed snapshots serve searches from the CSR form.
    #[test]
    fn vacuum_compiles_declared_layout() {
        let (seg, vecs) = seeded_segment(50);
        seg.delta_merge(Tid(50));
        seg.index_merge(Tid(50)).unwrap();
        assert_eq!(seg.layout(), GraphLayout::default());
        assert_eq!(seg.newest_snapshot().index.layout(), GraphLayout::default());
        let (r, stats) = seg.search(&vecs[7], 1, 32, None, Tid(50), &plan0());
        assert_eq!(r[0].id, vid(7));
        assert_eq!(stats.packed_searches, 1, "served from the packed form");

        let pointer_def = def().with_layout(GraphLayout::Pointer);
        let seg2 = EmbeddingSegment::new(SegmentId(1), &pointer_def, 1024);
        let mut rng = SplitMix64::new(7);
        let records: Vec<DeltaRecord> = (0..30)
            .map(|i| DeltaRecord::upsert(vid(i), Tid(u64::from(i) + 1), rand_vec(&mut rng)))
            .collect();
        seg2.append_deltas(&records).unwrap();
        seg2.delta_merge(Tid(30));
        seg2.index_merge(Tid(30)).unwrap();
        assert_eq!(seg2.newest_snapshot().index.layout(), GraphLayout::Pointer);
        let tid = seg2.rebuild(Tid(30)).unwrap();
        assert_eq!(tid, Tid(30));
        assert_eq!(seg2.newest_snapshot().index.layout(), GraphLayout::Pointer);
    }

    #[test]
    fn out_of_order_append_rejected() {
        let (seg, _) = seeded_segment(5);
        let err = seg.append_deltas(&[DeltaRecord::delete(vid(0), Tid(2))]);
        assert!(err.is_err());
    }

    #[test]
    fn index_merge_without_flushed_deltas_is_noop() {
        let (seg, _) = seeded_segment(10);
        // Nothing flushed yet.
        assert_eq!(seg.index_merge(Tid(10)).unwrap(), None);
        assert_eq!(seg.snapshot_count(), 1);
    }

    /// `checkpoint_state` + `restore_checkpoint` reproduce the source
    /// segment's reads exactly, whether the state straddles a merged
    /// snapshot, delta files, or unflushed mem deltas.
    #[test]
    fn checkpoint_state_restores_reads_exactly() {
        let (seg, vecs) = seeded_segment(60);
        // Mixed durable state: snapshot up to 30, delta file (30, 45],
        // mem deltas (45, 60].
        seg.delta_merge(Tid(30));
        seg.index_merge(Tid(30)).unwrap();
        seg.delta_merge(Tid(45));

        for ckpt in [Tid(20), Tid(30), Tid(38), Tid(45), Tid(52), Tid(60)] {
            let (snap, tail) = seg.checkpoint_state(ckpt);
            assert!(snap.up_to <= ckpt);
            assert!(tail.iter().all(|r| r.tid > snap.up_to && r.tid <= ckpt));

            let restored = EmbeddingSegment::new(SegmentId(0), &def(), 1024);
            let bytes = tv_hnsw::snapshot::to_bytes(&snap.index);
            let index = tv_hnsw::snapshot::from_bytes(&bytes).unwrap();
            restored
                .restore_checkpoint(snap.up_to, index, &tail)
                .unwrap();

            assert_eq!(restored.live_count(ckpt), seg.live_count(ckpt));
            for probe in [0usize, 7, 19] {
                let (want, _) = seg.search(&vecs[probe], 3, 64, None, ckpt, &plan0());
                let (got, _) = restored.search(&vecs[probe], 3, 64, None, ckpt, &plan0());
                assert_eq!(
                    got.iter().map(|n| n.id).collect::<Vec<_>>(),
                    want.iter().map(|n| n.id).collect::<Vec<_>>(),
                    "search parity at checkpoint {ckpt}"
                );
            }
            // The restored segment accepts appends beyond the checkpoint.
            restored
                .append_deltas(&[DeltaRecord::delete(vid(0), Tid(ckpt.0 + 1))])
                .unwrap();
        }
    }

    /// A segment declared SQ8 codes-only trains its codec at the first index
    /// merge that holds enough vectors, keeps serving MVCC overlay reads
    /// exactly, and stores vectors in a fraction of the f32 footprint.
    #[test]
    fn quantized_segment_merges_searches_and_shrinks() {
        // Capacity 512: the codec trains once 256 vectors are merged.
        let qdef = def().with_quant(QuantSpec::sq8());
        let seg = EmbeddingSegment::new(SegmentId(0), &qdef, 512);
        let f32_seg = EmbeddingSegment::new(SegmentId(0), &def(), 512);
        let mut rng = SplitMix64::new(7);
        let vecs: Vec<Vec<f32>> = (0..300).map(|_| rand_vec(&mut rng)).collect();
        let recs: Vec<DeltaRecord> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| DeltaRecord::upsert(vid(i as u32), Tid(i as u64 + 1), v.clone()))
            .collect();
        seg.append_deltas(&recs).unwrap();
        f32_seg.append_deltas(&recs).unwrap();

        // Before any merge the (empty) snapshot is f32; deltas serve reads.
        assert_eq!(seg.storage_tier(), StorageTier::F32);
        seg.delta_merge(Tid(300));
        seg.index_merge(Tid(300)).unwrap();
        f32_seg.delta_merge(Tid(300));
        f32_seg.index_merge(Tid(300)).unwrap();
        seg.prune(Tid(300));
        f32_seg.prune(Tid(300));

        assert_eq!(seg.storage_tier(), StorageTier::Sq8);
        assert_eq!(seg.quant_spec(), QuantSpec::sq8());
        assert!(seg.memory_bytes() < f32_seg.memory_bytes());

        // Quantized index search with exact overlay on top: a fresh upsert
        // (still f32 in the mem store) must win over its stale coded twin.
        let probe = vec![3.5; 8];
        seg.append_deltas(&[DeltaRecord::upsert(vid(5), Tid(301), probe.clone())])
            .unwrap();
        let (r, _) = seg.search(&probe, 1, 64, None, Tid(301), &plan0());
        assert_eq!(r[0].id, vid(5));
        assert!(r[0].dist < 1e-6);

        // Incremental merge of the new delta keeps the frozen codec.
        seg.delta_merge(Tid(301));
        seg.index_merge(Tid(301)).unwrap();
        assert_eq!(seg.storage_tier(), StorageTier::Sq8);
        let (r, _) = seg.search(&probe, 1, 64, None, Tid(301), &plan0());
        assert_eq!(r[0].id, vid(5));

        // Search quality: most exact-match probes come back first.
        let hits = (0..50)
            .filter(|&i| {
                let (r, _) = seg.search(&vecs[i], 1, 64, None, Tid(300), &plan0());
                r[0].id == vid(i as u32)
            })
            .count();
        assert!(hits >= 45, "only {hits}/50 probes matched");
    }

    /// The probe behind [`CODEC_TRAIN_FLOOR`]: 2 000 gaussian vectors of
    /// dimension 32 declared SQ8, index-merged at each TID of `schedule`,
    /// then recall@10 at `ef` 128 against brute force over the originals and
    /// the final snapshot's bytes.
    fn sq8_probe(schedule: &[u64]) -> (f64, Vec<u8>) {
        let (dim, n, k) = (32usize, 2000usize, 10usize);
        let qdef =
            EmbeddingTypeDef::new("e", dim, "M", DistanceMetric::L2).with_quant(QuantSpec::sq8());
        let seg = EmbeddingSegment::new(SegmentId(0), &qdef, 4096);
        let mut rng = SplitMix64::new(0x5EED);
        let mut gaussian =
            |_| -> Vec<f32> { (0..dim).map(|_| rng.next_gaussian() as f32).collect() };
        let vecs: Vec<Vec<f32>> = (0..n).map(&mut gaussian).collect();
        let queries: Vec<Vec<f32>> = (0..50).map(&mut gaussian).collect();
        let recs: Vec<DeltaRecord> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| DeltaRecord::upsert(vid(i as u32), Tid(i as u64 + 1), v.clone()))
            .collect();
        seg.append_deltas(&recs).unwrap();
        for &up_to in schedule {
            seg.delta_merge(Tid(up_to));
            seg.index_merge(Tid(up_to)).unwrap();
        }
        assert_eq!(seg.storage_tier(), StorageTier::Sq8);
        let mut hits = 0;
        for q in &queries {
            let mut exact: Vec<(f32, u32)> = vecs
                .iter()
                .enumerate()
                .map(|(i, v)| (tv_common::metric::l2_sq(q, v), i as u32))
                .collect();
            exact.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (got, _) = seg.search(q, k, 128, None, Tid(n as u64), &plan0());
            hits += exact[..k]
                .iter()
                .filter(|(_, i)| got.iter().any(|g| g.id == vid(*i)))
                .count();
        }
        let bytes = tv_hnsw::snapshot::to_bytes(&seg.newest_snapshot().index);
        (hits as f64 / (queries.len() * k) as f64, bytes)
    }

    /// A live vacuum's first index merge may see a single transaction. The
    /// codec must not learn its range from that: a 16-vector first merge has
    /// to read like one merge of everything. Merges below the floor leave no
    /// trace in the bytes; the first snapshot to reach it is the training
    /// set, so a schedule that crosses it early trains on less.
    #[test]
    fn sq8_codec_is_not_trained_on_a_trickle() {
        let (whole, whole_bytes) = sq8_probe(&[2000]);
        assert!(whole >= 0.97, "single-merge recall@10 {whole}");
        let (trickle, trickle_bytes) = sq8_probe(&[16, 2000]);
        assert!(
            (whole - trickle).abs() <= 0.02,
            "recall@10 {trickle} after a 16-vector first merge vs {whole} after one merge"
        );
        assert_eq!(trickle_bytes, whole_bytes, "same records, different bytes");
        // Crossing the floor at 1 024 trains on those 1 024 vectors, not on
        // all 2 000: other bytes than the single merge, recall still close,
        // and the same schedule gives the same bytes again.
        let schedule = [16, 64, 200, 1024, 1300, 2000];
        let (steps, steps_bytes) = sq8_probe(&schedule);
        assert!(
            (whole - steps).abs() <= 0.02,
            "recall@10 {steps} after stepwise merges vs {whole} after one merge"
        );
        assert_ne!(
            steps_bytes, whole_bytes,
            "a codec trained on 1 024 of 2 000"
        );
        assert_eq!(sq8_probe(&schedule).1, steps_bytes);
    }

    /// Checkpointing a quantized segment is byte-stable: restore reproduces
    /// reads, and re-serializing the restored index yields identical bytes.
    #[test]
    fn quantized_checkpoint_roundtrips_bit_identically() {
        for spec in [QuantSpec::sq8(), QuantSpec::pq(4)] {
            let qdef = def().with_quant(spec);
            // Capacity 128: the codec trains once 64 vectors are merged.
            let seg = EmbeddingSegment::new(SegmentId(0), &qdef, 128);
            let mut rng = SplitMix64::new(11);
            let vecs: Vec<Vec<f32>> = (0..80).map(|_| rand_vec(&mut rng)).collect();
            let recs: Vec<DeltaRecord> = vecs
                .iter()
                .enumerate()
                .map(|(i, v)| DeltaRecord::upsert(vid(i as u32), Tid(i as u64 + 1), v.clone()))
                .collect();
            seg.append_deltas(&recs).unwrap();
            seg.delta_merge(Tid(70));
            seg.index_merge(Tid(70)).unwrap();

            let (snap, tail) = seg.checkpoint_state(Tid(80));
            assert_eq!(snap.index.storage_tier(), spec.tier);
            let bytes = tv_hnsw::snapshot::to_bytes(&snap.index);
            let index = tv_hnsw::snapshot::from_bytes(&bytes).unwrap();
            assert_eq!(
                bytes,
                tv_hnsw::snapshot::to_bytes(&index),
                "quantized snapshot not byte-stable for {spec:?}"
            );
            let restored = EmbeddingSegment::new(SegmentId(0), &qdef, 128);
            restored
                .restore_checkpoint(snap.up_to, index, &tail)
                .unwrap();
            assert_eq!(restored.storage_tier(), spec.tier);
            for probe in [0usize, 13, 42, 77] {
                let (want, _) = seg.search(&vecs[probe], 3, 64, None, Tid(80), &plan0());
                let (got, _) = restored.search(&vecs[probe], 3, 64, None, Tid(80), &plan0());
                assert_eq!(
                    got.iter().map(|n| n.id).collect::<Vec<_>>(),
                    want.iter().map(|n| n.id).collect::<Vec<_>>(),
                    "quantized search parity for {spec:?}"
                );
            }
        }
    }

    #[test]
    fn restore_into_nonempty_segment_rejected() {
        let (seg, _) = seeded_segment(5);
        let fresh = EmbeddingSegment::new(SegmentId(1), &def(), 1024);
        let cfg = HnswConfig::new(8, DistanceMetric::L2);
        assert!(fresh
            .restore_checkpoint(Tid(5), HnswIndex::new(cfg), &[])
            .is_ok());
        // Both the seeded and the just-restored segment refuse a second restore.
        assert!(seg
            .restore_checkpoint(Tid(9), HnswIndex::new(cfg), &[])
            .is_err());
        assert!(fresh
            .restore_checkpoint(Tid(9), HnswIndex::new(cfg), &[])
            .is_err());
    }

    /// Pooled search scratch survives vacuum steps: repeated searches on
    /// the same segment (reusing epoch-stamped buffers) stay bit-identical
    /// to a cold segment rebuilt from the same deltas, before and after
    /// delta-merge, index-merge, and a post-vacuum delete wave.
    #[test]
    fn pooled_scratch_stays_bit_identical_across_vacuum() {
        let (seg, vecs) = seeded_segment(80);
        let probes = [0usize, 13, 42, 77];
        let assert_matches_cold = |stage: &str| {
            // Cold oracle: a fresh segment fed the same deltas, searched
            // once per probe on never-reused scratch buffers.
            let (cold, _) = seeded_segment(80);
            for &p in &probes {
                let (want, _) = cold.search(&vecs[p], 5, 64, None, Tid(80), &plan0());
                // Warm path: search the long-lived segment twice so the
                // second run reuses the pooled scratch (bumped epoch).
                seg.search(&vecs[p], 5, 64, None, Tid(80), &plan0());
                let (got, _) = seg.search(&vecs[p], 5, 64, None, Tid(80), &plan0());
                assert_eq!(got.len(), want.len(), "{stage}: probe {p} length");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.id, w.id, "{stage}: probe {p} id");
                    assert_eq!(
                        g.dist.to_bits(),
                        w.dist.to_bits(),
                        "{stage}: probe {p} distance bits"
                    );
                }
            }
        };
        assert_matches_cold("mem-only");
        seg.delta_merge(Tid(80)).unwrap();
        assert_matches_cold("after delta-merge");
        seg.index_merge(Tid(80)).unwrap();
        assert_matches_cold("after index-merge");
    }
}
