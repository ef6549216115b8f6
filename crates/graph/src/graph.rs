//! The [`Graph`] facade: schema DDL, atomic graph+vector transactions, reads,
//! and the vector-search entry points the query layer builds on.

use crate::durability::{CheckpointInfo, CheckpointManager, RecoveryManager, RecoveryReport};
use crate::schema::Catalog;
use crate::vertex_set::VertexSet;
use parking_lot::RwLock;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tg_storage::{AttrSchema, AttrType, AttrValue, GraphDelta, GraphStore};
use tv_common::ids::SegmentLayout;
use tv_common::inject::Injector;
use tv_common::{TaskGauge, Tid, TvError, TvResult, VertexId};
use tv_embedding::encode::{decode_vector_deltas, encode_vector_deltas};
use tv_embedding::service::{SegmentFilters, TypedNeighbor};
use tv_embedding::{EmbeddingService, EmbeddingSpace, EmbeddingTypeDef, ServiceConfig};
use tv_hnsw::index::DeltaAction;
use tv_hnsw::{DeltaRecord, SearchStats};

/// A property graph with embedded vector attributes — the unified system the
/// paper argues for (§1): one store, one transaction domain, one query
/// surface for graph and vector data.
pub struct Graph {
    store: GraphStore,
    embeddings: Arc<EmbeddingService>,
    catalog: RwLock<Catalog>,
    default_layout: SegmentLayout,
    data_dir: Option<PathBuf>,
    injector: Injector,
    /// Compute time of one `vertex_action` segment scan.
    pub(crate) scan_gauge: TaskGauge,
}

impl Graph {
    /// In-memory graph with default segment layout and service config.
    #[must_use]
    pub fn new() -> Self {
        Graph::with_config(SegmentLayout::default(), ServiceConfig::default())
    }

    /// In-memory graph with explicit layout/config (benchmarks shrink the
    /// segment capacity to get many segments at laptop scale).
    #[must_use]
    pub fn with_config(layout: SegmentLayout, config: ServiceConfig) -> Self {
        Graph {
            store: GraphStore::in_memory(),
            embeddings: Arc::new(EmbeddingService::new(config)),
            catalog: RwLock::new(Catalog::default()),
            default_layout: layout,
            data_dir: None,
            injector: Injector::default(),
            scan_gauge: TaskGauge::new(),
        }
    }

    /// Durable graph rooted at a data directory: WAL at `<dir>/wal.log`,
    /// checkpoints under `<dir>/checkpoints/`. [`Graph::checkpoint`] and
    /// [`Graph::recover`] only work on graphs opened this way.
    pub fn durable(dir: &Path, layout: SegmentLayout, config: ServiceConfig) -> TvResult<Self> {
        Graph::durable_with_plan(dir, layout, config, Injector::default())
    }

    /// [`Graph::durable`] with the commit, checkpoint, and vacuum pipelines
    /// hitting their injection points on `injector` (testing only; the
    /// default injector makes every hit a no-op).
    pub fn durable_with_plan(
        dir: &Path,
        layout: SegmentLayout,
        config: ServiceConfig,
        injector: Injector,
    ) -> TvResult<Self> {
        std::fs::create_dir_all(dir)
            .map_err(|e| TvError::Storage(format!("create {}: {e}", dir.display())))?;
        let wal = dir.join(crate::durability::WAL_FILE);
        Ok(Graph {
            store: GraphStore::with_wal_plan(&wal, injector.clone())?,
            embeddings: Arc::new(EmbeddingService::new(config).with_injector(injector.clone())),
            catalog: RwLock::new(Catalog::default()),
            default_layout: layout,
            data_dir: Some(dir.to_path_buf()),
            injector,
            scan_gauge: TaskGauge::new(),
        })
    }

    /// Persist a consistent checkpoint of graph, embedding, and index state
    /// at the latest committed TID, then rotate the WAL past it.
    pub fn checkpoint(&self) -> TvResult<CheckpointInfo> {
        let dir = self.data_dir.as_ref().ok_or_else(|| {
            TvError::InvalidArgument("checkpoint needs a graph opened with Graph::durable".into())
        })?;
        CheckpointManager::new(dir)
            .with_injector(self.injector.clone())
            .checkpoint(self)
    }

    /// Recover this (fresh, schema-recreated) graph from its data directory:
    /// restore the newest valid checkpoint, then replay the WAL tail. With no
    /// checkpoint the whole WAL is replayed, which is refused unless the log
    /// still starts at the first transaction.
    pub fn recover(&self) -> TvResult<RecoveryReport> {
        let dir = self.data_dir.as_ref().ok_or_else(|| {
            TvError::InvalidArgument("recover needs a graph opened with Graph::durable".into())
        })?;
        RecoveryManager::new(dir).recover(self)
    }

    /// Re-install the vector deltas carried in replayed WAL `extra`
    /// payloads (recovery's last step).
    pub(crate) fn apply_vector_extras(&self, extras: Vec<(Tid, Vec<u8>)>) -> TvResult<()> {
        for (_tid, payload) in extras {
            let vec_deltas = decode_vector_deltas(&payload)?;
            let mut by_attr: std::collections::HashMap<u32, Vec<DeltaRecord>> =
                std::collections::HashMap::new();
            for (attr, rec) in vec_deltas {
                by_attr.entry(attr).or_default().push(rec);
            }
            for (attr, recs) in by_attr {
                self.embeddings.apply_deltas(attr, &recs)?;
            }
        }
        Ok(())
    }

    // ---- DDL -------------------------------------------------------------

    /// `CREATE VERTEX <name> (...)`.
    pub fn create_vertex_type(&self, name: &str, fields: &[(&str, AttrType)]) -> TvResult<u32> {
        let schema = AttrSchema::new(fields.iter().map(|(n, t)| ((*n).to_string(), *t)))?;
        let mut catalog = self.catalog.write();
        let type_id = self
            .store
            .create_vertex_type(schema.clone(), self.default_layout);
        catalog.add_vertex_type(name, type_id, schema)?;
        Ok(type_id)
    }

    /// `CREATE DIRECTED EDGE <name> (FROM <from>, TO <to>)`.
    pub fn create_edge_type(&self, name: &str, from: &str, to: &str) -> TvResult<u32> {
        let mut catalog = self.catalog.write();
        let from_id = catalog.vertex_type(from)?.type_id;
        let to_id = catalog.vertex_type(to)?.type_id;
        catalog.add_edge_type(name, from_id, to_id)
    }

    /// `ALTER VERTEX <type> ADD EMBEDDING ATTRIBUTE <def>` (§4.1).
    pub fn add_embedding_attribute(
        &self,
        vertex_type: &str,
        def: EmbeddingTypeDef,
    ) -> TvResult<u32> {
        let mut catalog = self.catalog.write();
        let type_id = catalog.vertex_type(vertex_type)?.type_id;
        let attr_id = self
            .embeddings
            .register(type_id, def.clone(), self.default_layout)?;
        catalog.attach_embedding(type_id, attr_id, def)?;
        Ok(attr_id)
    }

    /// `CREATE EMBEDDING SPACE <space>` (§4.1).
    pub fn create_embedding_space(&self, space: EmbeddingSpace) -> TvResult<()> {
        self.catalog.write().add_space(space)
    }

    /// `ALTER VERTEX <type> ADD EMBEDDING ATTRIBUTE <name> IN EMBEDDING
    /// SPACE <space>`.
    pub fn add_embedding_in_space(
        &self,
        vertex_type: &str,
        attr_name: &str,
        space_name: &str,
    ) -> TvResult<u32> {
        let def = self.catalog.read().space(space_name)?.attribute(attr_name);
        self.add_embedding_attribute(vertex_type, def)
    }

    // ---- access ----------------------------------------------------------

    /// Shared catalog read access.
    pub fn catalog(&self) -> parking_lot::RwLockReadGuard<'_, Catalog> {
        self.catalog.read()
    }

    /// The embedding service.
    #[must_use]
    pub fn embeddings(&self) -> &Arc<EmbeddingService> {
        &self.embeddings
    }

    /// The underlying segment store.
    #[must_use]
    pub fn store(&self) -> &GraphStore {
        &self.store
    }

    /// Latest committed TID (the default read snapshot).
    #[must_use]
    pub fn read_tid(&self) -> Tid {
        self.store.txn().last_committed()
    }

    /// Allocate one vertex id of `type_id`.
    pub fn allocate(&self, type_id: u32) -> TvResult<VertexId> {
        Ok(self.store.vertex_type(type_id)?.allocate_id())
    }

    /// Allocate `n` vertex ids of `type_id`.
    pub fn allocate_many(&self, type_id: u32, n: usize) -> TvResult<Vec<VertexId>> {
        Ok(self.store.vertex_type(type_id)?.allocate_ids(n))
    }

    /// Attribute by column name at `tid`.
    pub fn attr(
        &self,
        type_id: u32,
        id: VertexId,
        attr_name: &str,
        tid: Tid,
    ) -> TvResult<Option<AttrValue>> {
        let store = self.store.vertex_type(type_id)?;
        let col = store
            .schema()
            .index_of(attr_name)
            .ok_or_else(|| TvError::NotFound(format!("attribute '{attr_name}'")))?;
        Ok(store.attr(id, col, tid))
    }

    /// Outgoing neighbors under edge type `etype` at `tid` (edges live in
    /// the source vertex's type store).
    pub fn out_neighbors(
        &self,
        from_type: u32,
        id: VertexId,
        etype: u32,
        tid: Tid,
    ) -> TvResult<Vec<VertexId>> {
        Ok(self.store.vertex_type(from_type)?.edges(id, etype, tid))
    }

    /// Liveness at `tid`.
    pub fn is_live(&self, type_id: u32, id: VertexId, tid: Tid) -> TvResult<bool> {
        Ok(self.store.vertex_type(type_id)?.is_live(id, tid))
    }

    /// The stored vector of `id` under embedding attribute `attr_id`.
    pub fn embedding_of(&self, attr_id: u32, id: VertexId, tid: Tid) -> TvResult<Option<Vec<f32>>> {
        let attr = self.embeddings.attr(attr_id)?;
        Ok(attr
            .segment(id.segment())
            .and_then(|seg| seg.get_embedding(id, tid)))
    }

    // ---- transactions ----------------------------------------------------

    /// Start building a transaction.
    #[must_use]
    pub fn txn(&self) -> TxnBuilder<'_> {
        TxnBuilder {
            graph: self,
            deltas: Vec::new(),
            vec_ops: Vec::new(),
        }
    }

    // ---- vector search ---------------------------------------------------

    /// Top-k vector search over one or more embedding attributes, optionally
    /// restricted to a candidate [`VertexSet`] (the pre-filter hand-off).
    /// This is the engine behind both `ORDER BY VECTOR_DIST ... LIMIT k` and
    /// the `VectorSearch()` function: [`Self::vector_search_deadline`] with
    /// no deadline.
    pub fn vector_search(
        &self,
        attr_ids: &[u32],
        query: &[f32],
        k: usize,
        ef: usize,
        filter: Option<&VertexSet>,
        tid: Tid,
    ) -> TvResult<(Vec<TypedNeighbor>, SearchStats)> {
        let mut stats = SearchStats::default();
        let deadline = tv_common::Deadline::none();
        let hits =
            self.vector_search_deadline(attr_ids, query, k, ef, filter, tid, deadline, &mut stats)?;
        Ok((hits, stats))
    }

    /// Deadline-aware top-k vector search: the serving layer's entry point.
    /// The deadline is checked before every segment search (inside
    /// [`EmbeddingService::top_k_many`]); statistics for the work actually
    /// performed accumulate into `stats_out` even when the call times out.
    #[allow(clippy::too_many_arguments)]
    pub fn vector_search_deadline(
        &self,
        attr_ids: &[u32],
        query: &[f32],
        k: usize,
        ef: usize,
        filter: Option<&VertexSet>,
        tid: Tid,
        deadline: tv_common::Deadline,
        stats_out: &mut SearchStats,
    ) -> TvResult<Vec<TypedNeighbor>> {
        let filters = match filter {
            Some(set) => Some(self.segment_filters(attr_ids, set)?),
            None => None,
        };
        let mut out = self.embeddings.top_k_many(
            attr_ids,
            &[tv_embedding::BatchQuery { query, k, ef }],
            tid,
            filters.as_ref(),
            deadline,
            stats_out,
        )?;
        Ok(out.pop().unwrap_or_default())
    }

    /// Range vector search (`WHERE VECTOR_DIST(...) < threshold`), with the
    /// deadline and statistics of [`Self::vector_search_deadline`].
    #[allow(clippy::too_many_arguments)]
    pub fn vector_range_search(
        &self,
        attr_ids: &[u32],
        query: &[f32],
        threshold: f32,
        ef: usize,
        filter: Option<&VertexSet>,
        tid: Tid,
        deadline: tv_common::Deadline,
        stats_out: &mut SearchStats,
    ) -> TvResult<Vec<TypedNeighbor>> {
        let filters = match filter {
            Some(set) => Some(self.segment_filters(attr_ids, set)?),
            None => None,
        };
        self.embeddings.range_search(
            attr_ids,
            query,
            threshold,
            ef,
            tid,
            filters.as_ref(),
            deadline,
            stats_out,
        )
    }

    /// Convert a candidate vertex set into per-(attribute, segment) bitmaps.
    pub fn segment_filters(&self, attr_ids: &[u32], set: &VertexSet) -> TvResult<SegmentFilters> {
        let mut filters = SegmentFilters::new();
        for &attr_id in attr_ids {
            let attr = self.embeddings.attr(attr_id)?;
            let capacity = self.default_layout.capacity;
            for (seg, bm) in set.to_segment_bitmaps(attr.vertex_type, capacity) {
                filters.insert((attr_id, seg), bm);
            }
        }
        Ok(filters)
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

/// Buffered vector mutation (TID assigned at commit).
enum VecOp {
    Upsert(u32, VertexId, Arc<[f32]>),
    Delete(u32, VertexId),
}

/// A buffered transaction over graph and vector state; everything commits
/// under one TID or not at all.
pub struct TxnBuilder<'g> {
    graph: &'g Graph,
    deltas: Vec<(u32, GraphDelta)>,
    vec_ops: Vec<VecOp>,
}

impl TxnBuilder<'_> {
    /// Insert/replace a vertex.
    pub fn upsert_vertex(mut self, type_id: u32, id: VertexId, attrs: Vec<AttrValue>) -> Self {
        self.deltas
            .push((type_id, GraphDelta::UpsertVertex { id, attrs }));
        self
    }

    /// Overwrite one attribute by column index.
    pub fn set_attr(mut self, type_id: u32, id: VertexId, col: usize, value: AttrValue) -> Self {
        self.deltas
            .push((type_id, GraphDelta::SetAttr { id, col, value }));
        self
    }

    /// Delete a vertex; its vectors under every embedding attribute of the
    /// type are deleted in the same transaction (the consistency-by-linkage
    /// argument of §1).
    pub fn delete_vertex(mut self, type_id: u32, id: VertexId) -> Self {
        self.deltas.push((type_id, GraphDelta::DeleteVertex { id }));
        let catalog = self.graph.catalog.read();
        if let Ok(vt) = catalog.vertex_type_by_id(type_id) {
            for (attr_id, _) in &vt.embeddings {
                self.vec_ops.push(VecOp::Delete(*attr_id, id));
            }
        }
        self
    }

    /// Add a directed edge.
    pub fn add_edge(mut self, etype: u32, from_type: u32, from: VertexId, to: VertexId) -> Self {
        self.deltas
            .push((from_type, GraphDelta::AddEdge { etype, from, to }));
        self
    }

    /// Remove a directed edge.
    pub fn remove_edge(mut self, etype: u32, from_type: u32, from: VertexId, to: VertexId) -> Self {
        self.deltas
            .push((from_type, GraphDelta::RemoveEdge { etype, from, to }));
        self
    }

    /// Set a vertex's vector under an embedding attribute. `vector` moves
    /// into the one buffer the WAL frame, the delta tail, the index merge,
    /// checkpoints and migration all share (DESIGN §3j).
    pub fn set_vector(mut self, attr_id: u32, id: VertexId, vector: Vec<f32>) -> Self {
        self.vec_ops.push(VecOp::Upsert(attr_id, id, vector.into()));
        self
    }

    /// Commit atomically; returns the TID. Vector deltas are validated,
    /// encoded into the WAL record's `extra` payload, and installed into the
    /// embedding service inside the commit critical section, so graph and
    /// vector state become visible together.
    pub fn commit(self) -> TvResult<Tid> {
        let graph = self.graph;
        // Pre-validate everything `apply_deltas` checks, so the hook cannot
        // fail after the WAL append.
        for op in &self.vec_ops {
            let (VecOp::Upsert(attr_id, id, _) | VecOp::Delete(attr_id, id)) = op;
            let attr = graph.embeddings.attr(*attr_id)?;
            attr.check_id(*id)?;
            if let VecOp::Upsert(_, _, v) = op {
                attr.def.check_query_vector(v)?;
            }
        }
        let vec_ops = self.vec_ops;
        let embeddings = Arc::clone(&graph.embeddings);
        // Built once the TID is known, by `make_extra` (which runs first),
        // encoded from by reference, then handed to the hook.
        let records: Cell<Vec<(u32, DeltaRecord)>> = Cell::default();
        graph.store.commit_hooked(
            self.deltas,
            |tid| {
                let built: Vec<(u32, DeltaRecord)> = vec_ops
                    .into_iter()
                    .map(|op| match op {
                        VecOp::Upsert(attr, id, vector) => (
                            attr,
                            DeltaRecord {
                                action: DeltaAction::Upsert,
                                id,
                                tid,
                                vector,
                            },
                        ),
                        VecOp::Delete(attr, id) => (attr, DeltaRecord::delete(id, tid)),
                    })
                    .collect();
                let extra = if built.is_empty() {
                    Vec::new()
                } else {
                    encode_vector_deltas(&built)
                };
                records.set(built);
                extra
            },
            |_| {
                let mut by_attr: std::collections::HashMap<u32, Vec<DeltaRecord>> =
                    std::collections::HashMap::new();
                for (attr, rec) in records.take() {
                    by_attr.entry(attr).or_default().push(rec);
                }
                for (attr, recs) in by_attr {
                    embeddings.apply_deltas(attr, &recs)?;
                }
                Ok(())
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::DistanceMetric;

    fn small_graph() -> Graph {
        Graph::with_config(
            SegmentLayout::with_capacity(8),
            ServiceConfig {
                planner: tv_common::PlannerConfig::default().with_brute_threshold(4),
                query_threads: 1,
                default_ef: 32,
            },
        )
    }

    fn setup_post_graph(g: &Graph) -> (u32, u32) {
        let post = g
            .create_vertex_type(
                "Post",
                &[("author", AttrType::Str), ("length", AttrType::Int)],
            )
            .unwrap();
        let emb = g
            .add_embedding_attribute(
                "Post",
                EmbeddingTypeDef::new("content_emb", 4, "GPT4", DistanceMetric::L2),
            )
            .unwrap();
        (post, emb)
    }

    #[test]
    fn ddl_and_catalog() {
        let g = small_graph();
        let (post, emb) = setup_post_graph(&g);
        let _ = emb;
        let person = g
            .create_vertex_type("Person", &[("name", AttrType::Str)])
            .unwrap();
        let knows = g.create_edge_type("knows", "Person", "Person").unwrap();
        let has_creator = g.create_edge_type("hasCreator", "Post", "Person").unwrap();
        assert_eq!((post, person), (0, 1));
        assert_eq!((knows, has_creator), (0, 1));
        let catalog = g.catalog();
        assert!(catalog
            .vertex_type("Post")
            .unwrap()
            .embedding("content_emb")
            .is_some());
        // Duplicate vertex type name is rejected.
        drop(catalog);
        assert!(g.create_vertex_type("Post", &[]).is_err());
    }

    #[test]
    fn atomic_graph_vector_commit() {
        let g = small_graph();
        let (post, emb) = setup_post_graph(&g);
        let id = g.allocate(post).unwrap();
        let tid = g
            .txn()
            .upsert_vertex(
                post,
                id,
                vec![AttrValue::Str("alice".into()), AttrValue::Int(1200)],
            )
            .set_vector(emb, id, vec![1.0, 2.0, 3.0, 4.0])
            .commit()
            .unwrap();
        assert_eq!(tid, Tid(1));
        assert_eq!(
            g.attr(post, id, "author", tid).unwrap(),
            Some(AttrValue::Str("alice".into()))
        );
        assert_eq!(
            g.embedding_of(emb, id, tid).unwrap(),
            Some(vec![1.0, 2.0, 3.0, 4.0])
        );
        // Invisible before the commit tid.
        assert!(g.embedding_of(emb, id, Tid(0)).unwrap().is_none());
        // The WAL frame and the hook shared the committed buffer and kept no
        // handle: the tail's record and this read hold the only two.
        let attr = g.embeddings().attr(emb).unwrap();
        let tail = attr
            .segment(id.segment())
            .unwrap()
            .delta_tail(Tid::ZERO, tid);
        assert_eq!(Arc::strong_count(&tail[0].vector), 2);
    }

    #[test]
    fn bad_vector_dimension_aborts_whole_txn() {
        let g = small_graph();
        let (post, emb) = setup_post_graph(&g);
        let id = g.allocate(post).unwrap();
        let err = g
            .txn()
            .upsert_vertex(
                post,
                id,
                vec![AttrValue::Str("x".into()), AttrValue::Int(1)],
            )
            .set_vector(emb, id, vec![1.0]) // wrong dim
            .commit();
        assert!(err.is_err());
        // Neither side visible.
        assert_eq!(g.read_tid(), Tid(0));
        assert!(!g.is_live(post, id, Tid(1)).unwrap());
    }

    #[test]
    fn delete_vertex_drops_vectors_too() {
        let g = small_graph();
        let (post, emb) = setup_post_graph(&g);
        let id = g.allocate(post).unwrap();
        g.txn()
            .upsert_vertex(
                post,
                id,
                vec![AttrValue::Str("x".into()), AttrValue::Int(1)],
            )
            .set_vector(emb, id, vec![0.0; 4])
            .commit()
            .unwrap();
        let tid = g.txn().delete_vertex(post, id).commit().unwrap();
        assert!(!g.is_live(post, id, tid).unwrap());
        assert!(g.embedding_of(emb, id, tid).unwrap().is_none());
        // Pure vector search no longer returns it.
        let (r, _) = g
            .vector_search(&[emb], &[0.0; 4], 1, 16, None, tid)
            .unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn vector_search_with_vertex_set_filter() {
        let g = small_graph();
        let (post, emb) = setup_post_graph(&g);
        let ids = g.allocate_many(post, 20).unwrap();
        let mut txn = g.txn();
        for (i, &id) in ids.iter().enumerate() {
            txn = txn
                .upsert_vertex(
                    post,
                    id,
                    vec![AttrValue::Str(format!("a{i}")), AttrValue::Int(i as i64)],
                )
                .set_vector(emb, id, vec![i as f32; 4]);
        }
        let tid = txn.commit().unwrap();
        // Unfiltered: nearest to 0 is id 0.
        let (r, _) = g
            .vector_search(&[emb], &[0.0; 4], 1, 32, None, tid)
            .unwrap();
        assert_eq!(r[0].neighbor.id, ids[0]);
        // Filtered to {10, 15}: nearest becomes 10.
        let set = VertexSet::from_iter_typed(post, [ids[10], ids[15]]);
        let (r, _) = g
            .vector_search(&[emb], &[0.0; 4], 2, 32, Some(&set), tid)
            .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].neighbor.id, ids[10]);
        assert_eq!(r[1].neighbor.id, ids[15]);
        // Empty filter: nothing.
        let empty = VertexSet::new();
        let (r, _) = g
            .vector_search(&[emb], &[0.0; 4], 2, 32, Some(&empty), tid)
            .unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn edges_and_neighbors() {
        let g = small_graph();
        let person = g
            .create_vertex_type("Person", &[("name", AttrType::Str)])
            .unwrap();
        let knows = g.create_edge_type("knows", "Person", "Person").unwrap();
        let ids = g.allocate_many(person, 3).unwrap();
        let mut txn = g.txn();
        for (i, &id) in ids.iter().enumerate() {
            txn = txn.upsert_vertex(person, id, vec![AttrValue::Str(format!("p{i}"))]);
        }
        let tid = txn
            .add_edge(knows, person, ids[0], ids[1])
            .add_edge(knows, person, ids[0], ids[2])
            .commit()
            .unwrap();
        let nbrs = g.out_neighbors(person, ids[0], knows, tid).unwrap();
        assert_eq!(nbrs.len(), 2);
        let tid2 = g
            .txn()
            .remove_edge(knows, person, ids[0], ids[1])
            .commit()
            .unwrap();
        assert_eq!(
            g.out_neighbors(person, ids[0], knows, tid2).unwrap(),
            vec![ids[2]]
        );
    }

    #[test]
    fn wal_recovery_restores_graph_and_vectors() {
        let dir = std::env::temp_dir().join(format!("tvgraph-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let layout = SegmentLayout::with_capacity(8);
        let cfg = ServiceConfig {
            planner: tv_common::PlannerConfig::default().with_brute_threshold(4),
            query_threads: 1,
            default_ef: 32,
        };
        let (post, emb, id);
        {
            let g = Graph::durable(&dir, layout, cfg).unwrap();
            post = g
                .create_vertex_type(
                    "Post",
                    &[("author", AttrType::Str), ("length", AttrType::Int)],
                )
                .unwrap();
            emb = g
                .add_embedding_attribute(
                    "Post",
                    EmbeddingTypeDef::new("content_emb", 4, "GPT4", DistanceMetric::L2),
                )
                .unwrap();
            id = g.allocate(post).unwrap();
            g.txn()
                .upsert_vertex(
                    post,
                    id,
                    vec![AttrValue::Str("a".into()), AttrValue::Int(5)],
                )
                .set_vector(emb, id, vec![9.0, 8.0, 7.0, 6.0])
                .commit()
                .unwrap();
        }
        // Recreate schema, replay.
        let g = Graph::durable(&dir, layout, cfg).unwrap();
        g.create_vertex_type(
            "Post",
            &[("author", AttrType::Str), ("length", AttrType::Int)],
        )
        .unwrap();
        g.add_embedding_attribute(
            "Post",
            EmbeddingTypeDef::new("content_emb", 4, "GPT4", DistanceMetric::L2),
        )
        .unwrap();
        let report = g.recover().unwrap();
        assert_eq!((report.checkpoint, report.replayed), (None, 1));
        let tid = g.read_tid();
        assert!(g.is_live(post, id, tid).unwrap());
        assert_eq!(
            g.embedding_of(emb, id, tid).unwrap(),
            Some(vec![9.0, 8.0, 7.0, 6.0])
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn older_tid_keeps_the_older_vector() {
        let g = small_graph();
        let (post, emb) = setup_post_graph(&g);
        let id = g.allocate(post).unwrap();
        g.txn()
            .upsert_vertex(
                post,
                id,
                vec![AttrValue::Str("x".into()), AttrValue::Int(1)],
            )
            .set_vector(emb, id, vec![1.0; 4])
            .commit()
            .unwrap();
        let pinned = g.read_tid();
        // A later update...
        g.txn().set_vector(emb, id, vec![2.0; 4]).commit().unwrap();
        // ...is invisible at the earlier tid.
        assert_eq!(g.embedding_of(emb, id, pinned).unwrap(), Some(vec![1.0; 4]));
        assert_eq!(
            g.embedding_of(emb, id, g.read_tid()).unwrap(),
            Some(vec![2.0; 4])
        );
    }
}
