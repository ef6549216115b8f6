//! The embedding service: attribute registry, delta routing, and the MPP
//! `EmbeddingAction` — parallel per-segment top-k with a global merge
//! (§5.1, Fig. 5 at single-machine scope; `tv-cluster` adds the
//! coordinator/worker layer on top).

use crate::image::SegmentImage;
use crate::segment::EmbeddingSegment;
use crate::types::EmbeddingTypeDef;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tv_common::ids::SegmentLayout;
use tv_common::inject::{Injector, Point};
use tv_common::{
    Bitmap, Deadline, Neighbor, PlannerConfig, SegmentId, TaskGauge, Tid, TvError, TvResult,
    VertexId, WorkerPool,
};
use tv_hnsw::{DeltaRecord, SearchStats};

/// Service-wide tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Per-query filtered-search planner knobs (brute-force threshold, cost
    /// model, adaptive-`ef` bounds — §5.1 upgraded to cost-based routing).
    pub planner: PlannerConfig,
    /// Upper bound on the threads one query's per-segment fan-out may use.
    /// Whether a batch leaves its thread at all is the pool's decision
    /// (`WorkerPool::run_gauged`); `1` is strictly sequential, in order.
    pub query_threads: usize,
    /// Default `ef` when the caller does not specify one.
    pub default_ef: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            planner: PlannerConfig::default(),
            query_threads: tv_common::pool::default_width(),
            default_ef: 64,
        }
    }
}

/// All embedding segments of one embedding attribute.
pub struct EmbeddingAttr {
    /// Service-assigned id.
    pub attr_id: u32,
    /// Owning vertex type (catalog id in `tg-storage`).
    pub vertex_type: u32,
    /// Declared metadata.
    pub def: EmbeddingTypeDef,
    layout: SegmentLayout,
    segments: RwLock<Vec<Arc<EmbeddingSegment>>>,
}

impl EmbeddingAttr {
    /// Refuse a vertex id no segment of this attribute has room for
    /// ([`SegmentLayout::check_id`]).
    pub fn check_id(&self, id: VertexId) -> TvResult<()> {
        self.layout.check_id(id)
    }

    fn ensure_segment(&self, seg: SegmentId) {
        let want = seg.0 as usize + 1;
        if self.segments.read().len() >= want {
            return;
        }
        let mut segs = self.segments.write();
        while segs.len() < want {
            let sid = SegmentId(segs.len() as u32);
            segs.push(Arc::new(EmbeddingSegment::new(
                sid,
                &self.def,
                self.layout.capacity,
            )));
        }
    }

    /// Tag one segment's hits with this attribute.
    fn typed(&self, neighbors: Vec<Neighbor>) -> Vec<TypedNeighbor> {
        neighbors
            .into_iter()
            .map(|neighbor| TypedNeighbor {
                attr_id: self.attr_id,
                vertex_type: self.vertex_type,
                neighbor,
            })
            .collect()
    }

    /// Handle to one embedding segment.
    #[must_use]
    pub fn segment(&self, seg: SegmentId) -> Option<Arc<EmbeddingSegment>> {
        self.segments.read().get(seg.0 as usize).cloned()
    }

    /// All materialized embedding segments.
    #[must_use]
    pub fn all_segments(&self) -> Vec<Arc<EmbeddingSegment>> {
        self.segments.read().clone()
    }

    /// Total live vectors at `read_tid`.
    #[must_use]
    pub fn live_count(&self, read_tid: Tid) -> usize {
        self.all_segments()
            .iter()
            .map(|s| s.live_count(read_tid))
            .sum()
    }

    /// Resident bytes across all materialized segments (snapshots + deltas).
    #[must_use]
    pub(crate) fn memory_bytes(&self) -> usize {
        self.all_segments().iter().map(|s| s.memory_bytes()).sum()
    }
}

/// Pre-filter bitmaps per `(attr_id, segment)` — the qualified-candidate
/// hand-off from the graph engine (§5.2). Segments absent from the map have
/// **no** valid candidates and are skipped entirely.
pub type SegmentFilters = HashMap<(u32, SegmentId), Bitmap>;

/// A top-k hit tagged with the attribute (and hence vertex type) it came
/// from — needed because local vertex ids are only unique per type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypedNeighbor {
    /// Embedding attribute the hit came from.
    pub attr_id: u32,
    /// Vertex type that attribute is attached to.
    pub vertex_type: u32,
    /// The vertex and its distance.
    pub neighbor: Neighbor,
}

/// One query of a batched multi-query top-k (see
/// [`EmbeddingService::top_k_many`]). The vector may be owned (a batch that
/// outlives its callers' requests) or borrowed (`BatchQuery<&[f32]>`).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchQuery<V = Vec<f32>> {
    /// Query vector.
    pub query: V,
    /// Result count.
    pub k: usize,
    /// Search beam width.
    pub ef: usize,
}

/// The embedding service.
pub struct EmbeddingService {
    config: ServiceConfig,
    pool: Arc<WorkerPool>,
    /// Compute time of one segment search, shared by every query path.
    search_gauge: TaskGauge,
    attrs: RwLock<Vec<Arc<EmbeddingAttr>>>,
    injector: Injector,
}

impl EmbeddingService {
    /// New service on the process-wide worker pool.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        EmbeddingService {
            config,
            pool: tv_common::pool::global(),
            search_gauge: TaskGauge::new(),
            attrs: RwLock::new(Vec::new()),
            injector: Injector::default(),
        }
    }

    /// Run fan-outs on an injected pool instead of the global one, so a
    /// test can hold its lanes.
    #[cfg(test)]
    pub(crate) fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = pool;
        self
    }

    /// Hit the vacuum's injection point on `injector` (tests only).
    #[must_use]
    pub fn with_injector(mut self, injector: Injector) -> Self {
        self.injector = injector;
        self
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// The pool this service's fan-outs run on.
    #[must_use]
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Estimated compute time of one segment search, in nanoseconds — what
    /// the query fan-outs weigh against the pool's hand-off (0 until the
    /// first query).
    #[must_use]
    pub fn search_task_ns(&self) -> u64 {
        self.search_gauge.task_ns()
    }

    /// Register an embedding attribute on a vertex type (`ALTER VERTEX ...
    /// ADD EMBEDDING ATTRIBUTE`). Returns the attribute id.
    pub fn register(
        &self,
        vertex_type: u32,
        def: EmbeddingTypeDef,
        layout: SegmentLayout,
    ) -> TvResult<u32> {
        def.validate()?;
        let mut attrs = self.attrs.write();
        if attrs
            .iter()
            .any(|a| a.vertex_type == vertex_type && a.def.name == def.name)
        {
            return Err(TvError::Schema(format!(
                "embedding attribute '{}' already exists on vertex type {vertex_type}",
                def.name
            )));
        }
        let attr_id = attrs.len() as u32;
        attrs.push(Arc::new(EmbeddingAttr {
            attr_id,
            vertex_type,
            def,
            layout,
            segments: RwLock::new(Vec::new()),
        }));
        Ok(attr_id)
    }

    /// Attribute by id.
    pub fn attr(&self, attr_id: u32) -> TvResult<Arc<EmbeddingAttr>> {
        self.attrs
            .read()
            .get(attr_id as usize)
            .cloned()
            .ok_or_else(|| TvError::NotFound(format!("embedding attribute {attr_id}")))
    }

    /// Route committed vector deltas to their home embedding segments. The
    /// records must share one commit's TID ordering (called from inside the
    /// graph store's atomic commit hook).
    pub fn apply_deltas(&self, attr_id: u32, records: &[DeltaRecord]) -> TvResult<()> {
        let attr = self.attr(attr_id)?;
        // Validate every record first (no partial application on error,
        // whichever segments the batch spans).
        for r in records {
            attr.check_id(r.id)?;
            if matches!(r.action, tv_hnsw::index::DeltaAction::Upsert) {
                attr.def.check_query_vector(&r.vector)?;
            }
        }
        // Group by segment, preserving order (a record clone shares its vector).
        let mut by_segment: HashMap<SegmentId, Vec<DeltaRecord>> = HashMap::new();
        for r in records {
            by_segment
                .entry(r.id.segment())
                .or_default()
                .push(r.clone());
        }
        for (seg, recs) in by_segment {
            attr.ensure_segment(seg);
            let segment = attr.segment(seg).expect("ensured above");
            segment.append_deltas(&recs)?;
        }
        Ok(())
    }

    /// Install a checkpointed segment image during recovery. The target
    /// segment is materialized on demand from the attribute's DDL, must be
    /// pristine (recovery runs before any traffic), and refuses an image
    /// declared differently ([`EmbeddingSegment::restore_image`]).
    pub fn restore_segment(&self, attr_id: u32, image: SegmentImage) -> TvResult<()> {
        let attr = self.attr(attr_id)?;
        attr.ensure_segment(image.segment_id);
        let segment = attr.segment(image.segment_id).expect("ensured above");
        segment.restore_image(image)
    }

    /// **EmbeddingAction[Top k]**: parallel per-segment top-k over one or
    /// more *compatible* attributes, with a global merge. Static analysis
    /// (the compatibility check) runs first and rejects mixed-metadata
    /// searches with a semantic error (§4.1). A batch of one with no
    /// deadline.
    pub fn top_k(
        &self,
        attr_ids: &[u32],
        query: &[f32],
        k: usize,
        ef: usize,
        read_tid: Tid,
        filters: Option<&SegmentFilters>,
    ) -> TvResult<(Vec<TypedNeighbor>, SearchStats)> {
        let mut stats = SearchStats::default();
        let mut out = self.top_k_many(
            attr_ids,
            &[BatchQuery { query, k, ef }],
            read_tid,
            filters,
            Deadline::none(),
            &mut stats,
        )?;
        Ok((out.pop().unwrap_or_default(), stats))
    }

    /// **EmbeddingAction[Top k, batched]**: several queries against the same
    /// attribute set share one per-segment fan-out — the serving layer's
    /// queued batches use this to amortize segment dispatch across
    /// tenants. Every top-k door runs this one fan-out, and each query's
    /// per-segment results are merged in segment order, so batched results
    /// are bit-identical to issuing the queries one by one.
    ///
    /// The `deadline` is checked before every segment search; when it
    /// expires the whole batch fails with [`TvError::Timeout`]. Statistics
    /// for whatever work *was* performed accumulate into `stats_out` even on
    /// the timeout path (an already-expired deadline therefore reports zero
    /// distance computations).
    pub fn top_k_many<V: AsRef<[f32]> + Sync>(
        &self,
        attr_ids: &[u32],
        queries: &[BatchQuery<V>],
        read_tid: Tid,
        filters: Option<&SegmentFilters>,
        deadline: Deadline,
        stats_out: &mut SearchStats,
    ) -> TvResult<Vec<Vec<TypedNeighbor>>> {
        let mut per_query = vec![SearchStats::default(); queries.len()];
        let result = self.top_k_many_each(
            attr_ids,
            queries,
            read_tid,
            filters,
            deadline,
            &mut per_query,
        );
        for stats in &per_query {
            stats_out.merge(stats);
        }
        result
    }

    /// [`top_k_many`](Self::top_k_many) with the work counters kept apart:
    /// query `i`'s accumulate into `stats_out[i]` (one slot per query, else
    /// [`TvError::InvalidArgument`]), so the serving layer can bill each
    /// member of a coalesced batch for its own searches.
    pub fn top_k_many_each<V: AsRef<[f32]> + Sync>(
        &self,
        attr_ids: &[u32],
        queries: &[BatchQuery<V>],
        read_tid: Tid,
        filters: Option<&SegmentFilters>,
        deadline: Deadline,
        stats_out: &mut [SearchStats],
    ) -> TvResult<Vec<Vec<TypedNeighbor>>> {
        if stats_out.len() != queries.len() {
            return Err(TvError::InvalidArgument(format!(
                "{} statistics slots for {} queries",
                stats_out.len(),
                queries.len()
            )));
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let attrs = self.check_search(attr_ids, queries[0].query.as_ref())?;
        for q in &queries[1..] {
            attrs[0].def.check_query_vector(q.query.as_ref())?;
        }
        deadline.check("batched top-k admission")?;
        let tasks = self.collect_tasks(&attrs, filters);
        let planner = self.config.planner;
        // Task-major unit order: every query sees its per-segment results
        // in segment order, whatever else shares the batch.
        let mut units = Vec::with_capacity(tasks.len() * queries.len());
        for ti in 0..tasks.len() {
            for qi in 0..queries.len() {
                units.push((ti, qi));
            }
        }
        let expired = AtomicBool::new(false);
        let tasks_ref = &tasks;
        let expired_ref = &expired;
        let results = self.pool.run_gauged(
            &self.search_gauge,
            units,
            self.config.query_threads,
            move |(ti, qi)| {
                if deadline.expired() {
                    expired_ref.store(true, Ordering::Relaxed);
                    return None;
                }
                let (attr, seg, bitmap) = &tasks_ref[ti];
                let q = &queries[qi];
                let (neighbors, stats) = seg.search(
                    q.query.as_ref(),
                    q.k,
                    q.ef,
                    bitmap.as_ref(),
                    read_tid,
                    &planner,
                );
                Some((qi, attr.typed(neighbors), stats))
            },
        );
        let mut per_query: Vec<Vec<(Vec<TypedNeighbor>, SearchStats)>> =
            (0..queries.len()).map(|_| Vec::new()).collect();
        for r in results.into_iter().flatten() {
            let (qi, typed, stats) = r;
            per_query[qi].push((typed, stats));
        }
        if expired.load(Ordering::Relaxed) {
            for (results_q, out) in per_query.iter().zip(stats_out) {
                for (_, s) in results_q {
                    out.merge(s);
                }
            }
            return Err(TvError::Timeout(
                "deadline exceeded during batched top-k segment fan-out".into(),
            ));
        }
        let mut out = Vec::with_capacity(queries.len());
        for (qi, results_q) in per_query.into_iter().enumerate() {
            let (merged, stats) = merge_typed(results_q, queries[qi].k);
            stats_out[qi].merge(&stats);
            out.push(merged);
        }
        Ok(out)
    }

    /// **EmbeddingAction[Range]**: parallel per-segment range search with a
    /// global merge. A NaN `threshold` compares false with every distance
    /// and is refused; `+∞` is legal and means "all". The `deadline` is
    /// checked before every segment search, as in
    /// [`top_k_many`](Self::top_k_many): when it expires the search fails
    /// with [`TvError::Timeout`], and the work that was performed still
    /// accumulates into `stats_out`.
    #[allow(clippy::too_many_arguments)]
    pub fn range_search(
        &self,
        attr_ids: &[u32],
        query: &[f32],
        threshold: f32,
        ef: usize,
        read_tid: Tid,
        filters: Option<&SegmentFilters>,
        deadline: Deadline,
        stats_out: &mut SearchStats,
    ) -> TvResult<Vec<TypedNeighbor>> {
        if threshold.is_nan() {
            return Err(TvError::InvalidArgument(
                "range search threshold is NaN".into(),
            ));
        }
        let attrs = self.check_search(attr_ids, query)?;
        deadline.check("range search admission")?;
        let tasks = self.collect_tasks(&attrs, filters);
        let planner = self.config.planner;
        let results = self.pool.run_gauged(
            &self.search_gauge,
            tasks,
            self.config.query_threads,
            move |(attr, seg, bitmap)| {
                if deadline.expired() {
                    return None;
                }
                let (neighbors, stats) =
                    seg.range_search(query, threshold, ef, bitmap.as_ref(), read_tid, &planner);
                Some((attr.typed(neighbors), stats))
            },
        );
        let mut out = Vec::new();
        let mut expired = false;
        for result in results {
            match result {
                Some((neighbors, stats)) => {
                    out.extend(neighbors);
                    stats_out.merge(&stats);
                }
                None => expired = true,
            }
        }
        if expired {
            return Err(TvError::Timeout(
                "deadline exceeded during range search segment fan-out".into(),
            ));
        }
        out.sort_unstable_by_key(|a| a.neighbor);
        Ok(out)
    }

    /// Validate a multi-attribute search: attributes exist, are mutually
    /// compatible, and the query vector matches their dimension. The ids
    /// are a set: an attribute named twice is searched once.
    fn check_search(&self, attr_ids: &[u32], query: &[f32]) -> TvResult<Vec<Arc<EmbeddingAttr>>> {
        if attr_ids.is_empty() {
            return Err(TvError::InvalidArgument(
                "vector search needs at least one embedding attribute".into(),
            ));
        }
        let mut attrs: Vec<Arc<EmbeddingAttr>> = Vec::with_capacity(attr_ids.len());
        for (i, &id) in attr_ids.iter().enumerate() {
            if !attr_ids[..i].contains(&id) {
                attrs.push(self.attr(id)?);
            }
        }
        let defs: Vec<&EmbeddingTypeDef> = attrs.iter().map(|a| &a.def).collect();
        EmbeddingTypeDef::check_compatible(&defs)?;
        attrs[0].def.check_query_vector(query)?;
        Ok(attrs)
    }

    /// Materialize the per-segment task list, honoring candidate filters
    /// (filtered mode skips segments with no candidates entirely).
    fn collect_tasks(
        &self,
        attrs: &[Arc<EmbeddingAttr>],
        filters: Option<&SegmentFilters>,
    ) -> Vec<SearchTask> {
        let mut tasks = Vec::new();
        for attr in attrs {
            for seg in attr.all_segments() {
                match filters {
                    Some(map) => {
                        if let Some(bm) = map.get(&(attr.attr_id, seg.segment_id)) {
                            if bm.count_ones() > 0 {
                                tasks.push((Arc::clone(attr), seg, Some(bm.clone())));
                            }
                        }
                    }
                    None => tasks.push((Arc::clone(attr), seg, None)),
                }
            }
        }
        tasks
    }

    /// Run the delta-merge vacuum across all segments of an attribute;
    /// returns flushed record count.
    pub fn delta_merge(&self, attr_id: u32, up_to: Tid) -> TvResult<usize> {
        let attr = self.attr(attr_id)?;
        Ok(attr
            .all_segments()
            .iter()
            .filter_map(|s| s.delta_merge(up_to))
            .sum())
    }

    /// Run the index-merge vacuum across all segments of an attribute using
    /// `threads` parallel merge workers (each worker owns whole segments, so
    /// per-id record order is preserved — §4.4's `UpdateItems` contract).
    pub fn index_merge(&self, attr_id: u32, up_to: Tid, threads: usize) -> TvResult<usize> {
        let attr = self.attr(attr_id)?;
        let segments = attr.all_segments();
        let injector = self.injector.clone();
        let merged: Vec<TvResult<Option<Tid>>> =
            self.pool.run(segments, threads.max(1), move |seg| {
                // Crash point: a merge worker dies between per-segment merges —
                // some segments carry the new snapshot, others don't. Recovery
                // must work from that mixed state.
                injector.hit(Point::VacuumMidIndexMerge)?;
                seg.index_merge(up_to)
            });
        let mut count = 0;
        for m in merged {
            if m?.is_some() {
                count += 1;
            }
        }
        Ok(count)
    }

    /// Prune old snapshots and flushed deltas across every attribute, given the
    /// transaction manager's vacuum horizon.
    pub fn prune(&self, horizon: Tid) {
        let attrs = self.attrs.read().clone();
        for seg in attrs.iter().flat_map(|a| a.all_segments()) {
            seg.prune(horizon);
        }
    }

    /// Rebuild every segment index of an attribute from scratch at
    /// `read_tid` (the Fig. 11 alternative to incremental merging).
    pub fn rebuild(&self, attr_id: u32, read_tid: Tid, threads: usize) -> TvResult<usize> {
        let attr = self.attr(attr_id)?;
        let segments = attr.all_segments();
        let results: Vec<TvResult<Tid>> = self
            .pool
            .run(segments, threads.max(1), |seg| seg.rebuild(read_tid));
        let mut n = 0;
        for r in results {
            r?;
            n += 1;
        }
        Ok(n)
    }

    /// Total deltas the delta merge has not flushed, across every attribute
    /// (vacuum scheduling signal).
    #[must_use]
    pub fn total_mem_deltas(&self) -> usize {
        self.attrs
            .read()
            .iter()
            .flat_map(|a| a.all_segments())
            .map(|s| s.mem_delta_count())
            .sum()
    }

    /// Total flushed deltas not yet pruned across every attribute (the
    /// delta-file records of the paper's Fig. 4; zero means drained).
    #[must_use]
    pub fn total_delta_files(&self) -> usize {
        self.attrs
            .read()
            .iter()
            .flat_map(|a| a.all_segments())
            .map(|s| s.delta_file_count())
            .sum()
    }

    /// Registered attribute ids (for the vacuum controller).
    #[must_use]
    pub fn attr_ids(&self) -> Vec<u32> {
        (0..self.attrs.read().len() as u32).collect()
    }

    /// Resident bytes across every attribute's segments.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.attrs.read().iter().map(|a| a.memory_bytes()).sum()
    }
}

type SearchTask = (Arc<EmbeddingAttr>, Arc<EmbeddingSegment>, Option<Bitmap>);

/// Global merge of per-segment typed results into the final top-k: the `k`
/// best under one total order — [`Neighbor`]'s (distance, then id), then the
/// attribute. Local ids are only unique per vertex type, so two attributes
/// hitting the same id at the same distance is ordinary in a multi-attribute
/// search, and the attribute is what keeps the answer the same every run.
fn merge_typed(
    results: Vec<(Vec<TypedNeighbor>, SearchStats)>,
    k: usize,
) -> (Vec<TypedNeighbor>, SearchStats) {
    let mut stats = SearchStats::default();
    let mut hits = Vec::new();
    for (neighbors, s) in results {
        stats.merge(&s);
        hits.extend(neighbors);
    }
    hits.sort_unstable_by(|a, b| a.neighbor.cmp(&b.neighbor).then(a.attr_id.cmp(&b.attr_id)));
    hits.truncate(k);
    (hits, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::ids::{LocalId, SegmentLayout};
    use tv_common::inject::Action;
    use tv_common::{DistanceMetric, SplitMix64, VertexId};
    use tv_hnsw::DeltaRecord;

    fn vid(seg: u32, l: u32) -> VertexId {
        VertexId::new(SegmentId(seg), LocalId(l))
    }

    fn service() -> EmbeddingService {
        EmbeddingService::new(ServiceConfig {
            planner: PlannerConfig::default().with_brute_threshold(8),
            query_threads: 2,
            default_ef: 64,
        })
    }

    fn def(name: &str) -> EmbeddingTypeDef {
        EmbeddingTypeDef::new(name, 4, "GPT4", DistanceMetric::L2)
    }

    /// Hits down to the last bit of each distance.
    fn bits(hits: &[TypedNeighbor]) -> Vec<(u32, u64, u32)> {
        hits.iter()
            .map(|t| (t.attr_id, t.neighbor.id.0, t.neighbor.dist.to_bits()))
            .collect()
    }

    /// Load `n` vectors across segments of capacity 16.
    fn load(svc: &EmbeddingService, attr: u32, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SplitMix64::new(seed);
        let layout = SegmentLayout::with_capacity(16);
        let mut vecs = Vec::new();
        let mut recs = Vec::new();
        for i in 0..n {
            let v: Vec<f32> = (0..4).map(|_| rng.next_f32() * 8.0).collect();
            let id = layout.vertex_id(i);
            recs.push(DeltaRecord::upsert(id, Tid(i as u64 + 1), v.clone()));
            vecs.push(v);
        }
        svc.apply_deltas(attr, &recs).unwrap();
        vecs
    }

    #[test]
    fn register_and_lookup() {
        let svc = service();
        let a = svc
            .register(0, def("content_emb"), SegmentLayout::with_capacity(16))
            .unwrap();
        assert_eq!(a, 0);
        assert!(svc.attr(0).is_ok());
        assert!(svc.attr(1).is_err());
        // Duplicate name on the same type rejected.
        assert!(svc
            .register(0, def("content_emb"), SegmentLayout::with_capacity(16))
            .is_err());
        // Same name on another type fine.
        assert!(svc
            .register(1, def("content_emb"), SegmentLayout::with_capacity(16))
            .is_ok());
    }

    #[test]
    fn multi_segment_search_finds_global_topk() {
        let svc = service();
        let a = svc
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        let vecs = load(&svc, a, 64, 5); // 4 segments
        assert_eq!(svc.attr(a).unwrap().all_segments().len(), 4);
        let q = &vecs[50];
        let (r, _) = svc.top_k(&[a], q, 5, 64, Tid(64), None).unwrap();
        assert_eq!(r.len(), 5);
        assert_eq!(
            r[0].neighbor.id,
            SegmentLayout::with_capacity(16).vertex_id(50)
        );
        assert!(r
            .windows(2)
            .all(|w| w[0].neighbor.dist <= w[1].neighbor.dist));
    }

    #[test]
    fn incompatible_attrs_rejected() {
        let svc = service();
        let a = svc
            .register(0, def("a"), SegmentLayout::with_capacity(16))
            .unwrap();
        let b = svc
            .register(
                1,
                EmbeddingTypeDef::new("b", 4, "BERT", DistanceMetric::L2),
                SegmentLayout::with_capacity(16),
            )
            .unwrap();
        let err = svc
            .top_k(&[a, b], &[0.0; 4], 3, 32, Tid(10), None)
            .unwrap_err();
        assert!(matches!(err, TvError::IncompatibleEmbeddings(_)));
    }

    #[test]
    fn multi_attr_search_merges_types() {
        let svc = service();
        let a = svc
            .register(0, def("post_emb"), SegmentLayout::with_capacity(16))
            .unwrap();
        let b = svc
            .register(1, def("comment_emb"), SegmentLayout::with_capacity(16))
            .unwrap();
        // Same local id space on both types — results must stay distinct.
        svc.apply_deltas(a, &[DeltaRecord::upsert(vid(0, 0), Tid(1), vec![0.0; 4])])
            .unwrap();
        svc.apply_deltas(b, &[DeltaRecord::upsert(vid(0, 0), Tid(2), vec![0.1; 4])])
            .unwrap();
        let (r, _) = svc.top_k(&[a, b], &[0.0; 4], 2, 32, Tid(2), None).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].attr_id, a);
        assert_eq!(r[0].vertex_type, 0);
        assert_eq!(r[1].attr_id, b);
        assert_eq!(r[1].vertex_type, 1);
    }

    /// Two attributes on different vertex types holding the same vectors
    /// under the same local ids: every hit ties with its twin. The merged
    /// answer must be the per-attribute answers interleaved by (distance,
    /// id, attribute) — bit for bit, and the same on every run.
    #[test]
    fn multi_attr_ties_merge_in_one_stable_order() {
        let svc = service();
        let layout = SegmentLayout::with_capacity(16);
        let a = svc.register(0, def("post_emb"), layout).unwrap();
        let b = svc.register(1, def("comment_emb"), layout).unwrap();
        load(&svc, a, 40, 11);
        load(&svc, b, 40, 11);
        // One vertex at distance zero in both attributes.
        let q = svc.attr(a).unwrap().segment(SegmentId(1)).unwrap();
        let q = q.get_embedding(layout.vertex_id(20), Tid(40)).unwrap();

        let solo = |attr: u32| svc.top_k(&[attr], &q, 12, 64, Tid(40), None).unwrap().0;
        let mut want = solo(a);
        want.extend(solo(b));
        want.sort_by(|x, y| {
            (x.neighbor.dist.to_bits(), x.neighbor.id, x.attr_id).cmp(&(
                y.neighbor.dist.to_bits(),
                y.neighbor.id,
                y.attr_id,
            ))
        });
        want.truncate(12);
        assert_eq!(want[0].neighbor.dist, 0.0);
        assert_eq!((want[0].attr_id, want[1].attr_id), (a, b));

        let bits = |r: &[TypedNeighbor]| -> Vec<(u32, u32, u64, u32)> {
            r.iter()
                .map(|t| {
                    (
                        t.attr_id,
                        t.vertex_type,
                        t.neighbor.id.0,
                        t.neighbor.dist.to_bits(),
                    )
                })
                .collect()
        };
        for run in 0..50 {
            let (got, _) = svc.top_k(&[a, b], &q, 12, 64, Tid(40), None).unwrap();
            assert_eq!(bits(&got), bits(&want), "run {run}");
        }
    }

    /// An attribute named twice used to be searched twice: every hit came
    /// back twice, so a top-k held half as many vertices and a range
    /// search twice as many hits.
    #[test]
    fn an_attribute_named_twice_is_searched_once() {
        let svc = service();
        let layout = SegmentLayout::with_capacity(16);
        let a = svc.register(0, def("post_emb"), layout).unwrap();
        let b = svc.register(1, def("comment_emb"), layout).unwrap();
        let vecs = load(&svc, a, 48, 17);
        load(&svc, b, 48, 19);
        let q = &vecs[7];
        for (twice, once) in [(vec![a, a], vec![a]), (vec![b, a, b, a], vec![b, a])] {
            let top = |ids: &[u32]| svc.top_k(ids, q, 6, 64, Tid(48), None).unwrap();
            let ((hits, stats), (want, want_stats)) = (top(&twice), top(&once));
            assert_eq!(bits(&hits), bits(&want), "{twice:?}");
            assert_eq!(
                stats.distance_computations, want_stats.distance_computations,
                "{twice:?}"
            );
            let within = |ids: &[u32]| {
                let mut stats = SearchStats::default();
                let found = svc.range_search(
                    ids,
                    q,
                    10.0,
                    64,
                    Tid(48),
                    None,
                    Deadline::none(),
                    &mut stats,
                );
                bits(&found.unwrap())
            };
            assert_eq!(within(&twice), within(&once), "{twice:?}");
        }
    }

    #[test]
    fn filtered_search_skips_absent_segments() {
        let svc = service();
        let a = svc
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        let vecs = load(&svc, a, 48, 7); // 3 segments
                                         // Candidates only in segment 1 (locals 0..16 → rows 16..32).
        let mut filters = SegmentFilters::new();
        filters.insert((a, SegmentId(1)), Bitmap::full(16));
        let q = &vecs[0]; // nearest overall lives in segment 0, but is filtered out
        let (r, _) = svc.top_k(&[a], q, 4, 64, Tid(48), Some(&filters)).unwrap();
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|tn| tn.neighbor.id.segment() == SegmentId(1)));
    }

    #[test]
    fn wrong_query_dimension_rejected() {
        let svc = service();
        let a = svc
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        assert!(matches!(
            svc.top_k(&[a], &[0.0; 3], 1, 8, Tid(0), None).unwrap_err(),
            TvError::DimensionMismatch { .. }
        ));
        assert!(svc.top_k(&[], &[0.0; 4], 1, 8, Tid(0), None).is_err());
    }

    #[test]
    fn vacuum_pipeline_end_to_end() {
        let svc = service();
        let a = svc
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        let vecs = load(&svc, a, 48, 11);
        assert_eq!(svc.total_mem_deltas(), 48);
        let flushed = svc.delta_merge(a, Tid(48)).unwrap();
        assert_eq!(flushed, 48);
        assert_eq!(svc.total_mem_deltas(), 0);
        assert_eq!(svc.total_delta_files(), 48);
        let merged = svc.index_merge(a, Tid(48), 2).unwrap();
        assert_eq!(merged, 3);
        // Search after merge still correct.
        let (r, _) = svc.top_k(&[a], &vecs[20], 1, 64, Tid(48), None).unwrap();
        assert_eq!(
            r[0].neighbor.id,
            SegmentLayout::with_capacity(16).vertex_id(20)
        );
        // Prune once visible to all.
        svc.prune(Tid(48));
        assert_eq!(svc.total_delta_files(), 0);
    }

    /// Segments build side by side, each on one thread: whatever the number
    /// of merge workers, every segment publishes the same snapshot bytes —
    /// after a first merge, and after a second that moves and deletes
    /// vectors (neighborhood repair), on f32 and on SQ8.
    #[test]
    fn index_merge_publishes_the_same_bytes_at_every_width() {
        let layout = SegmentLayout::with_capacity(16);
        let images = |quant: tv_common::QuantSpec, width: usize| -> Vec<Vec<u8>> {
            let svc = service();
            let a = svc.register(0, def("e").with_quant(quant), layout).unwrap();
            let vecs = load(&svc, a, 80, 29); // 5 segments
            svc.delta_merge(a, Tid(80)).unwrap();
            assert_eq!(svc.index_merge(a, Tid(80), width).unwrap(), 5);
            let recs: Vec<DeltaRecord> = (0..80)
                .step_by(3)
                .enumerate()
                .map(|(i, l)| {
                    let (id, tid) = (layout.vertex_id(l), Tid(81 + i as u64));
                    if i % 2 == 0 {
                        DeltaRecord::upsert(id, tid, vecs[79 - l].clone())
                    } else {
                        DeltaRecord::delete(id, tid)
                    }
                })
                .collect();
            svc.apply_deltas(a, &recs).unwrap();
            svc.delta_merge(a, Tid::MAX).unwrap();
            assert_eq!(svc.index_merge(a, Tid::MAX, width).unwrap(), 5);
            svc.attr(a)
                .unwrap()
                .all_segments()
                .iter()
                .map(|seg| {
                    assert_eq!(seg.storage_tier(), quant.tier);
                    tv_hnsw::snapshot::to_bytes(&seg.newest_snapshot().index)
                })
                .collect()
        };
        for quant in [tv_common::QuantSpec::f32(), tv_common::QuantSpec::sq8()] {
            let want = images(quant, 1);
            for width in [2, 4] {
                assert!(images(quant, width) == want, "{} width {width}", quant.tier);
            }
        }
    }

    #[test]
    fn range_search_across_segments() {
        let svc = service();
        let a = svc
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        let vecs = load(&svc, a, 48, 13);
        let q = &vecs[5];
        let mut stats = SearchStats::default();
        let r = svc
            .range_search(
                &[a],
                q,
                10.0,
                64,
                Tid(48),
                None,
                Deadline::none(),
                &mut stats,
            )
            .unwrap();
        assert!(stats.distance_computations > 0);
        assert!(!r.is_empty());
        assert!(r.iter().all(|tn| tn.neighbor.dist <= 10.0));
        assert!(r
            .windows(2)
            .all(|w| w[0].neighbor.dist <= w[1].neighbor.dist));
    }

    #[test]
    fn rebuild_across_segments() {
        let svc = service();
        let a = svc
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        let vecs = load(&svc, a, 32, 17);
        svc.delta_merge(a, Tid(32)).unwrap();
        svc.index_merge(a, Tid(32), 1).unwrap();
        let rebuilt = svc.rebuild(a, Tid(32), 2).unwrap();
        assert_eq!(rebuilt, 2);
        let (r, _) = svc.top_k(&[a], &vecs[9], 1, 64, Tid(32), None).unwrap();
        assert_eq!(
            r[0].neighbor.id,
            SegmentLayout::with_capacity(16).vertex_id(9)
        );
    }

    #[test]
    fn batched_topk_matches_one_by_one() {
        let svc = service();
        let a = svc
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        let vecs = load(&svc, a, 64, 23); // 4 segments
        let queries: Vec<BatchQuery> = [3usize, 19, 40, 61]
            .iter()
            .map(|&i| BatchQuery {
                query: vecs[i].clone(),
                k: 5,
                ef: 64,
            })
            .collect();
        let mut stats = SearchStats::default();
        let batched = svc
            .top_k_many(&[a], &queries, Tid(64), None, Deadline::none(), &mut stats)
            .unwrap();
        assert!(stats.distance_computations > 0);
        // The per-query sibling: same answers, and each query's counters are
        // its solo run's, summing to what `top_k_many` reports.
        let mut each = vec![SearchStats::default(); queries.len()];
        let again = svc
            .top_k_many_each(&[a], &queries, Tid(64), None, Deadline::none(), &mut each)
            .unwrap();
        assert_eq!(again, batched);
        let mut sum = SearchStats::default();
        for ((bq, batch_result), own) in queries.iter().zip(&batched).zip(&each) {
            let (solo, solo_stats) = svc
                .top_k(&[a], &bq.query, bq.k, bq.ef, Tid(64), None)
                .unwrap();
            assert_eq!(bits(batch_result), bits(&solo));
            assert_eq!(own, &solo_stats);
            sum.merge(own);
        }
        assert_eq!(sum, stats);
        let short = svc.top_k_many_each(&[a], &queries, Tid(64), None, Deadline::none(), &mut []);
        assert!(matches!(short, Err(TvError::InvalidArgument(_))));
    }

    /// Top-k, batched top-k and range answers, down to the last bit, with
    /// the fan-out decision forced each way: an idle pool and a gauge that
    /// reads long (fans out), the same gauge with every lane held by another
    /// caller (inline for occupancy), an idle pool and a gauge that reads
    /// short (inline for cost).
    #[test]
    fn answers_do_not_depend_on_where_the_batch_ran() {
        use std::sync::mpsc::channel;
        use std::time::{Duration, Instant};

        let pool = Arc::new(WorkerPool::new(2));
        let svc = service().with_pool(Arc::clone(&pool));
        let a = svc
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        let vecs = load(&svc, a, 64, 41); // 4 segments
        svc.delta_merge(a, Tid(40)).unwrap();
        svc.index_merge(a, Tid(40), 1).unwrap(); // 40 indexed, 24 in the overlay
        let queries: Vec<BatchQuery> = [5usize, 30, 63]
            .iter()
            .map(|&i| BatchQuery {
                query: vecs[i].clone(),
                k: 6,
                ef: 64,
            })
            .collect();
        let answers = || {
            let mut out = Vec::new();
            for q in &queries {
                let (hits, stats) = svc.top_k(&[a], &q.query, q.k, q.ef, Tid(64), None).unwrap();
                out.push((bits(&hits), stats));
                let mut stats = SearchStats::default();
                let (none, ef) = (Deadline::none(), q.ef);
                let hits = svc
                    .range_search(&[a], &q.query, 9.0, ef, Tid(64), None, none, &mut stats)
                    .unwrap();
                out.push((bits(&hits), stats));
            }
            let mut each = vec![SearchStats::default(); queries.len()];
            let many = svc
                .top_k_many_each(&[a], &queries, Tid(64), None, Deadline::none(), &mut each)
                .unwrap();
            // Solo and batched are one path, wherever it ran.
            for (qi, (hits, stats)) in many.iter().zip(&each).enumerate() {
                assert_eq!((bits(hits), *stats), out[2 * qi]);
            }
            out.extend(many.iter().map(|hits| bits(hits)).zip(each));
            out
        };
        // A gauge that reads `d` whatever it read before.
        let gauge_reads = |d: Duration| (0..256).for_each(|_| svc.search_gauge.record(d));
        let fanned = || pool.stats().runs_fanned;

        // The pool's first ping goes out with the first batch it weighs.
        let start = Instant::now();
        while pool.stats().handoff_ns == 0 {
            assert!(start.elapsed() < Duration::from_secs(10));
            answers();
        }

        gauge_reads(Duration::from_nanos(1));
        let before = fanned();
        let short_gauge = answers();
        assert_eq!(fanned(), before);

        // A batch that starts before the last one's helper is back in the
        // pool finds the lane taken, so not every one of these fans out.
        gauge_reads(Duration::from_secs(1));
        let long_gauge = answers();
        assert!(fanned() > before, "{:?}", pool.stats());

        let (entered_tx, entered) = channel();
        let holders: Vec<_> = (0..2)
            .map(|_| {
                let (pool, entered_tx) = (Arc::clone(&pool), entered_tx.clone());
                let (release, released) = channel::<()>();
                let thread = std::thread::spawn(move || {
                    pool.run(vec![released], 1, |released| {
                        entered_tx.send(()).unwrap();
                        released.recv().unwrap();
                    });
                });
                (thread, release)
            })
            .collect();
        entered.recv().unwrap();
        entered.recv().unwrap();
        gauge_reads(Duration::from_secs(1));
        let before = fanned();
        let busy_pool = answers();
        assert_eq!(fanned(), before);
        for (thread, release) in holders {
            release.send(()).unwrap();
            thread.join().unwrap();
        }

        assert_eq!(long_gauge, short_gauge);
        assert_eq!(busy_pool, short_gauge);
    }

    #[test]
    fn expired_deadline_skips_all_segment_searches() {
        let svc = service();
        let a = svc
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        let vecs = load(&svc, a, 48, 29);
        let queries = [BatchQuery {
            query: vecs[0].clone(),
            k: 3,
            ef: 64,
        }];
        let mut stats = SearchStats::default();
        let err = svc
            .top_k_many(
                &[a],
                &queries,
                Tid(48),
                None,
                Deadline::expired_now(),
                &mut stats,
            )
            .unwrap_err();
        assert!(matches!(err, TvError::Timeout(_)));
        assert_eq!(stats.distance_computations, 0);
    }

    #[test]
    fn expired_deadline_skips_all_range_searches() {
        let svc = service();
        let a = svc
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        let vecs = load(&svc, a, 48, 29);
        let mut stats = SearchStats::default();
        let expired = Deadline::expired_now();
        let err = svc
            .range_search(&[a], &vecs[0], 1e9, 64, Tid(48), None, expired, &mut stats)
            .unwrap_err();
        assert!(matches!(err, TvError::Timeout(_)));
        assert_eq!(stats.distance_computations, 0);
    }

    #[test]
    fn empty_batch_is_empty() {
        let svc = service();
        let a = svc
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        let _ = a;
        let mut stats = SearchStats::default();
        let none: [BatchQuery; 0] = [];
        let out = svc
            .top_k_many(&[a], &none, Tid(0), None, Deadline::none(), &mut stats)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn armed_crash_plan_aborts_index_merge_then_allows_retry() {
        let injector = Injector::live();
        let svc = service().with_injector(injector.clone());
        let a = svc
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        let vecs = load(&svc, a, 48, 31); // 3 segments
        svc.delta_merge(a, Tid(48)).unwrap();
        injector.arm(Point::VacuumMidIndexMerge, Action::Fail, 2, Some(1));
        // Single-threaded merge: the second segment's merge trips the plan,
        // leaving a mixed old/new snapshot state across segments.
        let err = svc.index_merge(a, Tid(48), 1).unwrap_err();
        assert!(matches!(err, TvError::Injected(_)));
        // Search still answers correctly from the mixed state.
        let (r, _) = svc.top_k(&[a], &vecs[20], 1, 64, Tid(48), None).unwrap();
        assert_eq!(
            r[0].neighbor.id,
            SegmentLayout::with_capacity(16).vertex_id(20)
        );
        // The one-shot plan is spent: the retry completes the vacuum.
        assert!(svc.index_merge(a, Tid(48), 1).is_ok());
        let (r, _) = svc.top_k(&[a], &vecs[20], 1, 64, Tid(48), None).unwrap();
        assert_eq!(
            r[0].neighbor.id,
            SegmentLayout::with_capacity(16).vertex_id(20)
        );
    }

    #[test]
    fn restore_segment_reproduces_source_reads() {
        let src = service();
        let a = src
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        let vecs = load(&src, a, 48, 37); // 3 segments
        src.delta_merge(a, Tid(32)).unwrap();
        src.index_merge(a, Tid(32), 1).unwrap();

        let dst = service();
        let b = dst
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        let attr = src.attr(a).unwrap();
        let image_of = |seg: &EmbeddingSegment| {
            let (snap, tail) = seg.checkpoint_state(Tid(48));
            let mut bytes = Vec::new();
            seg.encode_image(&snap, &tail, &mut bytes);
            SegmentImage::decode(&bytes).unwrap()
        };
        for seg in attr.all_segments() {
            dst.restore_segment(b, image_of(&seg)).unwrap();
        }
        for probe in [0usize, 20, 47] {
            let (want, _) = src.top_k(&[a], &vecs[probe], 3, 64, Tid(48), None).unwrap();
            let (got, _) = dst.top_k(&[b], &vecs[probe], 3, 64, Tid(48), None).unwrap();
            assert_eq!(got, want, "restored search parity for probe {probe}");
        }
        // The same image under an attribute the DDL declared differently.
        let wide = EmbeddingTypeDef::new("wide", 5, "GPT4", DistanceMetric::L2);
        let c = dst
            .register(0, wide, SegmentLayout::with_capacity(16))
            .unwrap();
        let seg = attr.segment(SegmentId(0)).unwrap();
        assert!(matches!(
            dst.restore_segment(c, image_of(&seg)),
            Err(TvError::Storage(_))
        ));
    }

    #[test]
    fn dimension_mismatch_in_deltas_rejected_atomically() {
        let svc = service();
        let a = svc
            .register(0, def("e"), SegmentLayout::with_capacity(16))
            .unwrap();
        let recs = vec![
            DeltaRecord::upsert(vid(0, 0), Tid(1), vec![0.0; 4]),
            DeltaRecord::upsert(vid(0, 1), Tid(2), vec![0.0; 3]), // bad
        ];
        assert!(svc.apply_deltas(a, &recs).is_err());
        // Nothing applied.
        assert_eq!(svc.total_mem_deltas(), 0);
    }
}
