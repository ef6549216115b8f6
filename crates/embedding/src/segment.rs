//! Embedding segments: decoupled vector storage aligned with vertex segments
//! (§4.2) and the MVCC read/update machinery (§4.3).
//!
//! An [`EmbeddingSegment`] holds, for one vertex segment and one embedding
//! attribute:
//!
//! * a list of **index snapshots**, each an HNSW image valid up to a TID —
//!   multi-versioned so readers keep a consistent view while the vacuum
//!   swaps in newer snapshots;
//! * the **delta log** ([`DeltaLog`], the one vertex segments keep too):
//!   committed vector deltas newer than the oldest retained snapshot, and a
//!   flushed watermark the delta merge moves and the index merge folds up to.
//!
//! A search at TID `t` picks the newest snapshot with `up_to <= t`, searches
//! its index, and combines the result with a brute-force pass over the delta
//! records in `(snapshot.up_to, t]` — exactly the paper's "vector search
//! queries combine index snapshot search results with brute-force search
//! results over vector deltas".

use crate::types::{check_vector, EmbeddingTypeDef};
use parking_lot::{RwLock, RwLockReadGuard};
use std::sync::Arc;
use tv_common::bitmap::Filter;
use tv_common::ids::SegmentLayout;
use tv_common::PreparedQuery;
use tv_common::{
    Bitmap, DeltaLog, GraphLayout, Logged, Neighbor, NeighborHeap, PlannerConfig, QuantSpec,
    SegmentId, StorageTier, Tid, TvError, TvResult, VertexId,
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

/// Decoupled vector storage + index for one (vertex segment, embedding
/// attribute) pair.
///
/// Lock order: `tail`, then `snapshots`. A read picks its snapshot while it
/// holds `tail`'s read lock and is done with the overlay before it lets go,
/// so the records between its snapshot and its TID cannot be cut under it;
/// the HNSW search runs afterwards on the snapshot's `Arc`. `prune` drops
/// snapshots first, then, under the write lock, cuts the flushed records
/// the oldest snapshot it kept covers.
pub struct EmbeddingSegment {
    /// The vertex segment this embedding segment is aligned with.
    pub segment_id: SegmentId,
    capacity: usize,
    quant: QuantSpec,
    layout: GraphLayout,
    snapshots: RwLock<Vec<Arc<IndexSnapshot>>>,
    tail: RwLock<Tail>,
}

/// The committed vector deltas newer than the oldest retained snapshot.
struct Tail {
    log: DeltaLog<DeltaRecord>,
    /// Records at or below this TID are flushed (vacuum stage 1): the index
    /// merge may fold them and `prune` may cut them.
    flushed: Tid,
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
            tail: RwLock::new(Tail {
                log: DeltaLog::new(capacity),
                flushed: Tid::ZERO,
            }),
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

    /// Resident bytes: every retained snapshot plus the delta log's records,
    /// each with its vector buffer (the `Arc`'s two counts and the floats).
    /// Once the commit that appended a record returns, the log holds the
    /// only handle to its buffer, so this counts each buffer once.
    #[must_use]
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let record = |r: &DeltaRecord| {
            size_of::<DeltaRecord>() + 2 * size_of::<usize>() + r.vector.len() * size_of::<f32>()
        };
        let tail = self.tail.read();
        let records: usize = tail.log.range(Tid::ZERO, Tid::MAX).iter().map(record).sum();
        let snaps = self.snapshots.read();
        records + snaps.iter().map(|s| s.index.memory_bytes()).sum::<usize>()
    }

    /// Publish a freshly built `index` as the snapshot valid up to `up_to`.
    /// It is quantized per the declared spec once it holds enough live
    /// vectors to train a codec on ([`CODEC_TRAIN_FLOOR`]; until then it
    /// stays f32), unless it is a clone of an already-quantized base, which
    /// keeps its frozen codec (so codes stay comparable across incremental
    /// merges). Whether a given snapshot trains depends only on what it
    /// holds; *which* vectors the codec is trained on is the first snapshot
    /// to reach the floor, so it depends on the merge schedule (`[1024,
    /// 2000]` trains on 1 024 vectors, `[2000]` on all 2 000), and the same
    /// schedule replayed gives the same bytes. Then it is compiled into the
    /// declared search layout (after quantizing, so the BFS permutation
    /// carries the code slabs along; the results are bit-identical either
    /// way).
    fn publish(&self, up_to: Tid, mut index: HnswIndex) -> TvResult<()> {
        let floor = CODEC_TRAIN_FLOOR.min(self.capacity / 2).max(1);
        if self.quant.is_quantized() && index.len() >= floor && index.quant_spec().is_none() {
            index.quantize(self.quant)?;
        }
        index.compile_layout(self.layout);
        let snap = Arc::new(IndexSnapshot { up_to, index });
        self.snapshots.write().push(snap);
        Ok(())
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

    /// Append committed deltas (TIDs must be non-decreasing and no older
    /// than anything already stored). Every record is checked before any is
    /// appended: an upsert that [`Self::check_vector`] refuses would fail
    /// every later index merge of this segment, a vector under an id
    /// beyond the capacity would answer from the delta overlay and vanish
    /// from every search once merged, and another segment's id would be
    /// served under that id, pass this segment's filters through its local
    /// id, and fail every index merge (an index holds one segment's keys).
    pub fn append_deltas(&self, records: &[DeltaRecord]) -> TvResult<()> {
        let dim = self.dimension();
        let layout = SegmentLayout {
            capacity: self.capacity,
        };
        let mut tail = self.tail.write();
        let newest = || self.newest_snapshot().up_to;
        let mut prev = tail.log.last_tid().unwrap_or_else(newest);
        for r in records {
            if r.id.segment() != self.segment_id {
                return Err(TvError::InvalidArgument(format!(
                    "vertex {} is not in {}, the segment it was appended to",
                    r.id, self.segment_id
                )));
            }
            layout.check_id(r.id)?;
            if matches!(r.action, DeltaAction::Upsert) {
                check_vector(dim, &r.vector)?;
            }
            if r.tid < prev {
                return Err(TvError::Storage(format!(
                    "vector delta {} older than {prev}",
                    r.tid
                )));
            }
            prev = r.tid;
        }
        records
            .iter()
            .try_for_each(|r| tail.log.append(r.clone()).map(drop))
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

    /// Where every read at `read_tid` starts: the tail, read-locked, and the
    /// snapshot picked under that lock, whose overlay cannot be cut meanwhile.
    fn view(&self, read_tid: Tid) -> (RwLockReadGuard<'_, Tail>, Arc<IndexSnapshot>) {
        let tail = self.tail.read();
        let snap = self.snapshot_for(read_tid);
        (tail, snap)
    }

    /// Number of committed deltas the delta merge has not flushed yet.
    #[must_use]
    pub fn mem_delta_count(&self) -> usize {
        let tail = self.tail.read();
        tail.log.range(tail.flushed, Tid::MAX).len()
    }

    /// Number of flushed deltas awaiting the index merge and `prune` (the
    /// records the delta files used to hold; zero still means drained).
    #[must_use]
    pub fn delta_file_count(&self) -> usize {
        let tail = self.tail.read();
        tail.log.len() - tail.log.range(tail.flushed, Tid::MAX).len()
    }

    /// Number of retained snapshot versions.
    #[must_use]
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.read().len()
    }

    /// Live vector count at `read_tid`.
    #[must_use]
    pub fn live_count(&self, read_tid: Tid) -> usize {
        let (tail, snap) = self.view(read_tid);
        let overlay = tail.log.overlay(snap.up_to, read_tid);
        overlay.fold(snap.index.len(), |n, r| {
            match (snap.index.contains(r.id), r.action) {
                (false, DeltaAction::Upsert) => n + 1,
                (true, DeltaAction::Delete) => n - 1,
                _ => n,
            }
        })
    }

    /// The stored vector for `id` at `read_tid`.
    #[must_use]
    pub fn get_embedding(&self, id: VertexId, read_tid: Tid) -> Option<Vec<f32>> {
        let (tail, snap) = self.view(read_tid);
        let newest = tail.log.chain(id.local().0 as usize, read_tid).next();
        match newest {
            Some(r) if r.tid > snap.up_to => {
                matches!(r.action, DeltaAction::Upsert).then(|| r.vector.to_vec())
            }
            _ => snap.index.get_embedding(id),
        }
    }

    /// The overlay half of one search at `read_tid`, under the tail's read
    /// lock: each live overlay upsert the filter accepts is scored in place
    /// into `sink`. Returns the snapshot to search and its validity bitmap:
    /// the caller's filter (or all of `capacity`) minus every overlaid id.
    /// Filter rejections and dimension mismatches are counted: the planner's
    /// selectivity feedback needs the former, and the latter is corrupt data.
    fn overlay_pass(
        &self,
        query: &[f32],
        filter: Option<&Bitmap>,
        read_tid: Tid,
        stats: &mut SearchStats,
        mut sink: impl FnMut(VertexId, f32),
    ) -> (Arc<IndexSnapshot>, Bitmap) {
        let (tail, snap) = self.view(read_tid);
        let mut bitmap = filter.map_or_else(|| Bitmap::full(self.capacity), Bitmap::clone);
        let pq = PreparedQuery::new(snap.index.metric(), query);
        for r in tail.log.overlay(snap.up_to, read_tid) {
            let l = r.local();
            if l < bitmap.len() {
                bitmap.set(l, false);
            }
            if matches!(r.action, DeltaAction::Delete) {
                continue;
            }
            if !filter.is_none_or(|b| l < b.len() && b.get(l)) {
                stats.filtered_out += 1;
            } else if r.vector.len() != query.len() {
                stats.overlay_dim_mismatches += 1;
            } else {
                stats.distance_computations += 1;
                sink(r.id, pq.distance(&r.vector));
            }
        }
        (snap, bitmap)
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
        let mut heap = NeighborHeap::new(k);
        let mut overlay = SearchStats::default();
        let (snap, bitmap) = self.overlay_pass(query, filter, read_tid, &mut overlay, |id, d| {
            heap.push(Neighbor::new(id, d));
        });
        let (found, mut stats) =
            snap.index
                .search_planned(query, k, ef, Filter::Valid(&bitmap), planner);
        stats.merge(&overlay);
        for n in found {
            heap.push(n);
        }
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
        let mut near = Vec::new();
        let mut overlay = SearchStats::default();
        let (snap, bitmap) = self.overlay_pass(query, filter, read_tid, &mut overlay, |id, d| {
            if d <= threshold {
                near.push(Neighbor::new(id, d));
            }
        });
        let (mut out, mut stats) =
            snap.index
                .range_search_planned(query, threshold, ef, Filter::Valid(&bitmap), planner);
        stats.merge(&overlay);
        out.append(&mut near);
        out.sort_unstable();
        (out, stats)
    }

    /// **Delta-merge vacuum step** (§4.3, right side of Fig. 4): flush the
    /// deltas with `tid <= up_to`. Fast — it moves the flushed watermark,
    /// not the records. Returns how many records it flushed, `None` if none
    /// qualified.
    pub fn delta_merge(&self, up_to: Tid) -> Option<usize> {
        let mut tail = self.tail.write();
        let flushed = tail.log.range(tail.flushed, up_to);
        let (n, last) = (flushed.len(), flushed.last()?.tid);
        tail.flushed = last;
        Some(n)
    }

    /// **Index-merge vacuum step** (left side of Fig. 4): fold the flushed
    /// deltas up to `up_to` into a copy of the newest index and publish it
    /// as a new snapshot. Slow — this is the 30-seconds-per-million-vectors
    /// step the paper decouples from the delta merge. Returns the new
    /// snapshot TID, or `None` if no flushed deltas qualified.
    ///
    /// The batch is taken under the tail's read lock and folded after it is
    /// released, so writers and readers never wait on a merge; it shares the
    /// tail's vectors, so the only new copy of a vector is its index row.
    pub fn index_merge(&self, up_to: Tid) -> TvResult<Option<Tid>> {
        let base = self.newest_snapshot();
        let records = {
            let tail = self.tail.read();
            tail.log.range(base.up_to, up_to.min(tail.flushed)).to_vec()
        };
        let Some(new_tid) = records.last().map(|r| r.tid) else {
            return Ok(None);
        };
        let mut index = base.index.clone();
        index.update_items(&records)?;
        self.publish(new_tid, index)?;
        Ok(Some(new_tid))
    }

    /// Rebuild the index from scratch at `read_tid` (live vectors only) and
    /// publish it — the alternative Fig. 11 compares incremental merging
    /// against, which wins once >~20% of vectors changed. The overlay's
    /// upserts go in in commit order, so the same records rebuild the same
    /// bytes.
    pub(crate) fn rebuild(&self, read_tid: Tid) -> TvResult<Tid> {
        let (snap, overlay) = {
            let (tail, snap) = self.view(read_tid);
            let mut overlay: Vec<DeltaRecord> =
                tail.log.overlay(snap.up_to, read_tid).cloned().collect();
            overlay.reverse();
            (snap, overlay)
        };
        let overlaid = Bitmap::from_indices(self.capacity, overlay.iter().map(Logged::local));
        let mut index = HnswIndex::new(*snap.index.config());
        for (id, vector) in snap.index.scan() {
            // The overlay's upsert or delete supersedes the snapshot's vector.
            let l = id.local().0 as usize;
            if l >= overlaid.len() || !overlaid.get(l) {
                index.insert(id, &vector)?;
            }
        }
        index.update_items(&overlay)?;
        let up_to = read_tid.max(snap.up_to);
        self.publish(up_to, index)?;
        Ok(up_to)
    }

    /// Export this segment's durable state at `ckpt_tid` for a checkpoint:
    /// the newest index snapshot visible at that TID plus every delta record
    /// in `(snapshot.up_to, ckpt_tid]`, in commit order. Restoring the pair
    /// reproduces reads at `ckpt_tid` exactly.
    #[must_use]
    pub fn checkpoint_state(&self, ckpt_tid: Tid) -> (Arc<IndexSnapshot>, Vec<DeltaRecord>) {
        let (tail, snap) = self.view(ckpt_tid);
        let records = tail.log.range(snap.up_to, ckpt_tid).to_vec();
        (snap, records)
    }

    /// The delta records in `(after, up_to]`, oldest first. This is the
    /// migration catch-up feed: the destination installs a snapshot valid up
    /// to some tid, then repeatedly pulls `delta_tail(cursor, Tid::MAX)`
    /// from the still-serving source until the tail is short enough to drain
    /// inside the flip critical section.
    pub fn delta_tail(&self, after: Tid, up_to: Tid) -> Vec<DeltaRecord> {
        self.tail.read().log.range(after, up_to).to_vec()
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
            let (tail, snaps) = (self.tail.read(), self.snapshots.read());
            let pristine = tail.log.is_empty()
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

    /// Reclaim snapshots and flushed deltas no running transaction can
    /// need: keep the newest snapshot with `up_to <= horizon` and everything
    /// newer, then cut the flushed deltas the oldest kept snapshot covers.
    /// ("The old index snapshot and delta files are deleted only after the
    /// new index snapshot is visible to all running transactions.")
    pub(crate) fn prune(&self, horizon: Tid) {
        let floor = {
            let mut snaps = self.snapshots.write();
            let keep_from = snaps.iter().rposition(|s| s.up_to <= horizon).unwrap_or(0);
            snaps.drain(..keep_from);
            snaps[0].up_to
        };
        let mut tail = self.tail.write();
        let floor = floor.min(tail.flushed);
        tail.log.cut(floor);
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

    /// No brute floor: the cost model alone routes the snapshot search, and
    /// it takes a graph beam unless the snapshot's valid set is smaller than
    /// the beam would score (a masked snapshot of a few dozen rows).
    fn graph_plan() -> PlannerConfig {
        PlannerConfig::default().with_brute_threshold(0)
    }

    /// `seg.search` under [`graph_plan`], asserting the snapshot side took
    /// the index path: these tests are about the graph and its overlay, and
    /// an exact scan would pass them without searching the graph at all.
    fn graph_search(
        seg: &EmbeddingSegment,
        query: &[f32],
        k: usize,
        ef: usize,
        filter: Option<&Bitmap>,
        read_tid: Tid,
    ) -> (Vec<Neighbor>, SearchStats) {
        let (r, stats) = seg.search(query, k, ef, filter, read_tid, &graph_plan());
        assert_eq!(
            (stats.plans_brute, stats.brute_fallbacks),
            (0, 0),
            "an exact scan served the snapshot: {stats:?}"
        );
        (r, stats)
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
    fn delta_tail_spans_flushed_and_unflushed_in_order() {
        let (seg, _vecs) = seeded_segment(60);
        // Flush a prefix so the tail spans both sides of the watermark.
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
        let (r, _) = graph_search(&seg, &vecs[7], 1, 32, None, Tid(50));
        assert_eq!(r[0].id, vid(7));
        assert_eq!(seg.live_count(Tid(50)), 50);
        // At an earlier TID only a prefix is visible.
        assert_eq!(seg.live_count(Tid(10)), 10);
    }

    #[test]
    fn two_stage_vacuum_then_search() {
        let (seg, vecs) = seeded_segment(60);
        assert_eq!(seg.delta_merge(Tid(40)), Some(40));
        assert_eq!(seg.mem_delta_count(), 20);
        let merged = seg.index_merge(Tid(40)).unwrap();
        assert_eq!(merged, Some(Tid(40)));
        assert_eq!(seg.snapshot_count(), 2);
        // Reader at 60 combines snapshot(40) + 20 mem deltas.
        let (r, _) = graph_search(&seg, &vecs[55], 1, 32, None, Tid(60));
        assert_eq!(r[0].id, vid(55));
        let (r, _) = graph_search(&seg, &vecs[10], 1, 32, None, Tid(60));
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
        // 300 rows: a masked snapshot this size still routes to the graph.
        let (seg, vecs) = seeded_segment(300);
        seg.delta_merge(Tid(300));
        seg.index_merge(Tid(300)).unwrap();
        // Delete vertex 3 at tid 301 (still in mem store).
        seg.append_deltas(&[DeltaRecord::delete(vid(3), Tid(301))])
            .unwrap();
        let (r, _) = graph_search(&seg, &vecs[3], 1, 32, None, Tid(301));
        assert_ne!(r[0].id, vid(3));
        // But a reader at tid 300 still sees it.
        let (r, _) = graph_search(&seg, &vecs[3], 1, 32, None, Tid(300));
        assert_eq!(r[0].id, vid(3));
        assert!(seg.get_embedding(vid(3), Tid(301)).is_none());
        assert!(seg.get_embedding(vid(3), Tid(300)).is_some());
    }

    #[test]
    fn upsert_overrides_index_version() {
        // 300 rows: a masked snapshot this size still routes to the graph.
        let (seg, _vecs) = seeded_segment(300);
        seg.delta_merge(Tid(300));
        seg.index_merge(Tid(300)).unwrap();
        let newv = vec![50.0; 8];
        seg.append_deltas(&[DeltaRecord::upsert(vid(4), Tid(301), newv.clone())])
            .unwrap();
        let (r, _) = graph_search(&seg, &newv, 1, 32, None, Tid(301));
        assert_eq!(r[0].id, vid(4));
        assert!((r[0].dist) < 1e-6);
        assert_eq!(seg.get_embedding(vid(4), Tid(301)).unwrap(), newv);
        assert_eq!(seg.live_count(Tid(301)), 300);
    }

    #[test]
    fn filter_bitmap_respected_with_deltas() {
        let (seg, vecs) = seeded_segment(30);
        seg.delta_merge(Tid(15));
        seg.index_merge(Tid(15)).unwrap();
        // Valid: only local ids 20..30 (all still in mem deltas).
        let bm = Bitmap::from_indices(1024, 20..30);
        let (r, _) = graph_search(&seg, &vecs[0], 5, 64, Some(&bm), Tid(30));
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
        let floor = |t| PlannerConfig::default().with_brute_threshold(t);
        let (_, stats) = seg.search(&vecs[0], 2, 32, Some(&bm), Tid(50), &floor(10));
        assert!(stats.brute_force);
        assert_eq!(stats.plans_brute, 1);
        // Unfiltered, the threshold alone decides: all 50 rows at a floor
        // of 50 are scanned, at a floor of zero they take the index path.
        let (_, stats) = seg.search(&vecs[0], 2, 32, None, Tid(50), &floor(50));
        assert_eq!(stats.plans_brute, 1);
        let (_, stats) = graph_search(&seg, &vecs[0], 2, 32, None, Tid(50));
        assert!(!stats.brute_force);
        assert_eq!(stats.plans_post_filter, 1);
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
        let (r, _) = seg.range_search(&probe, 0.5, 64, None, Tid(31), &graph_plan());
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
        seg.prune(Tid(5));
        assert_eq!((seg.snapshot_count(), seg.delta_file_count()), (2, 30));
        // Horizon past 30: the base snapshot and the 30 flushed records go.
        seg.prune(Tid(30));
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
        let (r, _) = graph_search(&seg, &updates[0].vector, 1, 64, None, Tid(70));
        assert_eq!(r[0].id, vid(0));
        let (r, _) = graph_search(&seg, &vecs[35], 1, 64, None, Tid(70));
        assert_eq!(r[0].id, vid(35));
    }

    /// The same records rebuild the same bytes: the overlay's upserts go
    /// into the fresh index in commit order, not in hash order.
    #[test]
    fn rebuild_is_deterministic() {
        let rebuilt = || {
            let (seg, _) = seeded_segment(200);
            seg.rebuild(Tid(200)).unwrap();
            tv_hnsw::snapshot::to_bytes(&seg.newest_snapshot().index)
        };
        assert_eq!(rebuilt(), rebuilt(), "same records, different bytes");
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
        let (r, stats) = graph_search(&seg, &vecs[7], 1, 32, None, Tid(50));
        assert_eq!(r[0].id, vid(7));
        assert_eq!(stats.packed_searches, 1, "served from the packed form");

        let pointer_def = def().with_layout(GraphLayout::Pointer);
        let seg2 = EmbeddingSegment::new(SegmentId(0), &pointer_def, 1024);
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
                let (want, _) = graph_search(&seg, &vecs[probe], 3, 64, None, ckpt);
                let (got, _) = graph_search(&restored, &vecs[probe], 3, 64, None, ckpt);
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
        // A tail record costs itself, its vector buffer's two counts and its
        // floats.
        let record = std::mem::size_of::<DeltaRecord>()
            + 2 * std::mem::size_of::<usize>()
            + 8 * std::mem::size_of::<f32>();
        let empty = EmbeddingSegment::new(SegmentId(0), &qdef, 512).memory_bytes();
        assert_eq!(seg.memory_bytes(), empty + 300 * record);

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
        let merged = seg.memory_bytes();
        seg.append_deltas(&[DeltaRecord::upsert(vid(5), Tid(301), probe.clone())])
            .unwrap();
        assert_eq!(seg.memory_bytes(), merged + record);
        // ef 32: the beam over the 299 unmasked rows costs less than a scan.
        let (r, _) = graph_search(&seg, &probe, 1, 32, None, Tid(301));
        assert_eq!(r[0].id, vid(5));
        assert!(r[0].dist < 1e-6);

        // Incremental merge of the new delta keeps the frozen codec.
        seg.delta_merge(Tid(301));
        seg.index_merge(Tid(301)).unwrap();
        assert_eq!(seg.storage_tier(), StorageTier::Sq8);
        let (r, _) = graph_search(&seg, &probe, 1, 64, None, Tid(301));
        assert_eq!(r[0].id, vid(5));

        // Search quality: most exact-match probes come back first.
        let hits = (0..50)
            .filter(|&i| {
                let (r, _) = graph_search(&seg, &vecs[i], 1, 64, None, Tid(300));
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
            let (got, _) = graph_search(&seg, q, k, 128, None, Tid(n as u64));
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
                let (want, _) = graph_search(&seg, &vecs[probe], 3, 64, None, Tid(80));
                let (got, _) = graph_search(&restored, &vecs[probe], 3, 64, None, Tid(80));
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
                let (want, _) = graph_search(&cold, &vecs[p], 5, 64, None, Tid(80));
                // Warm path: search the long-lived segment twice so the
                // second run reuses the pooled scratch (bumped epoch).
                graph_search(&seg, &vecs[p], 5, 64, None, Tid(80));
                let (got, _) = graph_search(&seg, &vecs[p], 5, 64, None, Tid(80));
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
