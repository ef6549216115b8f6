//! The segmented graph store: per-vertex-type segment collections, the
//! atomic commit pipeline (WAL → apply → visible), and vacuum.

use crate::delta::GraphDelta;
use crate::segment::{SegmentSnapshot, SegmentStore};
use crate::txn::TxnManager;
use crate::value::{AttrSchema, AttrValue};
use crate::wal::{Wal, WalRecord};
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use tv_common::ids::SegmentLayout;
use tv_common::inject::{Injector, Point};
use tv_common::{SegmentId, Tid, TvError, TvResult, VertexId};

/// All segments of one vertex type.
pub struct VertexTypeStore {
    /// Catalog id of this vertex type.
    pub type_id: u32,
    schema: Arc<AttrSchema>,
    layout: SegmentLayout,
    segments: RwLock<Vec<Arc<RwLock<SegmentStore>>>>,
    next_row: AtomicUsize,
}

impl VertexTypeStore {
    fn new(type_id: u32, schema: Arc<AttrSchema>, layout: SegmentLayout) -> Self {
        VertexTypeStore {
            type_id,
            schema,
            layout,
            segments: RwLock::new(Vec::new()),
            next_row: AtomicUsize::new(0),
        }
    }

    /// Attribute schema of this type.
    #[must_use]
    pub fn schema(&self) -> &Arc<AttrSchema> {
        &self.schema
    }

    /// Segment layout (capacity) of this type.
    #[must_use]
    pub fn layout(&self) -> SegmentLayout {
        self.layout
    }

    /// Allocate the next sequential vertex id (bulk loaders fill segments in
    /// order, matching TigerGraph's ingestion).
    pub fn allocate_id(&self) -> VertexId {
        let row = self.next_row.fetch_add(1, Ordering::Relaxed);
        let id = self.layout.vertex_id(row);
        self.ensure_segment(id.segment());
        id
    }

    /// Allocate `n` consecutive ids.
    pub fn allocate_ids(&self, n: usize) -> Vec<VertexId> {
        let start = self.next_row.fetch_add(n, Ordering::Relaxed);
        let ids: Vec<VertexId> = (start..start + n)
            .map(|r| self.layout.vertex_id(r))
            .collect();
        if let Some(last) = ids.last() {
            self.ensure_segment(last.segment());
        }
        ids
    }

    /// Number of allocated rows (upper bound on live vertices).
    #[must_use]
    pub fn allocated(&self) -> usize {
        self.next_row.load(Ordering::Relaxed)
    }

    /// Number of segments currently materialized.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.read().len()
    }

    fn ensure_segment(&self, seg: SegmentId) {
        let want = seg.0 as usize + 1;
        if self.segments.read().len() >= want {
            return;
        }
        let mut segs = self.segments.write();
        while segs.len() < want {
            let sid = SegmentId(segs.len() as u32);
            segs.push(Arc::new(RwLock::new(SegmentStore::new(
                sid,
                self.layout.capacity,
                self.schema.len(),
            ))));
        }
    }

    /// Handle to one segment (shared, lock-guarded).
    #[must_use]
    pub fn segment(&self, seg: SegmentId) -> Option<Arc<RwLock<SegmentStore>>> {
        self.segments.read().get(seg.0 as usize).cloned()
    }

    /// Handles to every materialized segment (the unit of the MPP
    /// `VertexAction` fan-out).
    #[must_use]
    pub fn all_segments(&self) -> Vec<Arc<RwLock<SegmentStore>>> {
        self.segments.read().clone()
    }

    /// Apply one committed delta, routing it to its home segment.
    pub(crate) fn apply(&self, tid: Tid, delta: GraphDelta) -> TvResult<()> {
        let seg = delta.home_vertex().segment();
        self.ensure_segment(seg);
        let handle = self
            .segment(seg)
            .ok_or_else(|| TvError::Storage(format!("missing segment {seg}")))?;
        let mut guard = handle.write();
        // Track allocation high-water mark so recovery restores id assignment.
        let row = self.layout.row(delta.home_vertex()) + 1;
        self.next_row.fetch_max(row, Ordering::Relaxed);
        guard.append_delta(tid, delta)
    }

    /// Attribute read at `tid`.
    #[must_use]
    pub fn attr(&self, id: VertexId, col: usize, tid: Tid) -> Option<AttrValue> {
        let seg = self.segment(id.segment())?;
        let guard = seg.read();
        guard.attr(id.local().0 as usize, col, tid)
    }

    /// Outgoing edges of `id` under `etype` at `tid`.
    #[must_use]
    pub fn edges(&self, id: VertexId, etype: u32, tid: Tid) -> Vec<VertexId> {
        match self.segment(id.segment()) {
            Some(seg) => seg.read().edges(id.local().0 as usize, etype, tid),
            None => Vec::new(),
        }
    }

    /// Liveness of `id` at `tid`.
    #[must_use]
    pub fn is_live(&self, id: VertexId, tid: Tid) -> bool {
        match self.segment(id.segment()) {
            Some(seg) => seg.read().is_live(id.local().0 as usize, tid),
            None => false,
        }
    }

    /// Fold deltas up to `horizon` into fresh snapshots; returns folded count.
    pub(crate) fn vacuum(&self, horizon: Tid) -> usize {
        self.all_segments()
            .iter()
            .map(|s| s.write().vacuum(horizon))
            .sum()
    }

    /// Install a checkpoint image into segment `seg` (materializing it and
    /// any predecessors if needed). Recovery calls this before replaying the
    /// WAL tail.
    pub fn restore_segment(&self, seg: SegmentId, snapshot: SegmentSnapshot) -> TvResult<()> {
        self.ensure_segment(seg);
        let handle = self
            .segment(seg)
            .ok_or_else(|| TvError::Storage(format!("missing segment {seg}")))?;
        let result = handle.write().restore(snapshot);
        result
    }

    /// Raise the id-allocation watermark to at least `rows` (recovery
    /// restores the watermark recorded in the checkpoint manifest so fresh
    /// allocations cannot collide with checkpointed vertices).
    pub fn restore_allocated(&self, rows: usize) {
        self.next_row.fetch_max(rows, Ordering::Relaxed);
    }
}

/// The whole graph: vertex-type stores + transaction manager + WAL.
pub struct GraphStore {
    txn: Arc<TxnManager>,
    wal: Option<Mutex<Wal>>,
    types: RwLock<Vec<Arc<VertexTypeStore>>>,
    injector: Injector,
    /// Set by the first commit that fails after its WAL append began: the
    /// log may then hold a torn frame or a record under an unpublished TID,
    /// so every later commit is refused until the store is reopened.
    poisoned: OnceLock<String>,
}

impl GraphStore {
    /// Volatile store (no WAL) — used by benchmarks and most tests.
    #[must_use]
    pub fn in_memory() -> Self {
        GraphStore {
            txn: TxnManager::new(),
            wal: None,
            types: RwLock::new(Vec::new()),
            injector: Injector::default(),
            poisoned: OnceLock::new(),
        }
    }

    /// Durable store appending to the WAL at `path`. Existing WAL contents
    /// are NOT replayed automatically — create the vertex types first, then
    /// call [`GraphStore::replay`] with [`Wal::replay`]'s records. The
    /// commit pipeline and the WAL hit their injection points on `injector`
    /// (testing only; the default injector makes every hit a no-op).
    pub fn with_wal_plan(path: &Path, injector: Injector) -> TvResult<Self> {
        let mut wal = Wal::open(path)?;
        wal.set_injector(injector.clone());
        Ok(GraphStore {
            txn: TxnManager::new(),
            wal: Some(Mutex::new(wal)),
            types: RwLock::new(Vec::new()),
            injector,
            poisoned: OnceLock::new(),
        })
    }

    /// The transaction manager (read tickets, vacuum horizon).
    #[must_use]
    pub fn txn(&self) -> &Arc<TxnManager> {
        &self.txn
    }

    /// Register a vertex type; returns its catalog id.
    pub fn create_vertex_type(&self, schema: AttrSchema, layout: SegmentLayout) -> u32 {
        let mut types = self.types.write();
        let id = types.len() as u32;
        types.push(Arc::new(VertexTypeStore::new(id, Arc::new(schema), layout)));
        id
    }

    /// Store for vertex type `id`.
    pub fn vertex_type(&self, id: u32) -> TvResult<Arc<VertexTypeStore>> {
        self.types
            .read()
            .get(id as usize)
            .cloned()
            .ok_or_else(|| TvError::NotFound(format!("vertex type {id}")))
    }

    /// Number of registered vertex types.
    #[must_use]
    pub fn vertex_type_count(&self) -> usize {
        self.types.read().len()
    }

    /// [`GraphStore::commit_hooked`] with no hook: the store tests' commit.
    #[cfg(test)]
    pub(crate) fn commit(&self, deltas: Vec<(u32, GraphDelta)>, extra: Vec<u8>) -> TvResult<Tid> {
        self.commit_hooked(deltas, move |_| extra, |_| Ok(()))
    }

    /// Atomically commit a write set: WAL append+sync first, then apply to
    /// segment stores, then make the TID visible. Two extension points make
    /// graph+vector commits atomic: `make_extra` builds the WAL record's
    /// opaque `extra` payload once the TID is known (vector deltas carry
    /// their TID, giving cross-store atomicity), and `hook` runs *inside*
    /// the commit critical section after the graph deltas apply — the
    /// embedding service installs its deltas there, so no reader can
    /// observe the graph state without the vector state.
    ///
    /// A durable store is poisoned by any error between the start of the
    /// WAL append and the TID's publication (the append, the sync, the
    /// apply, the hook): that commit returns its error, and every later one
    /// fails with [`TvError::Storage`] until the store is reopened.
    pub fn commit_hooked(
        &self,
        deltas: Vec<(u32, GraphDelta)>,
        make_extra: impl FnOnce(Tid) -> Vec<u8>,
        hook: impl FnOnce(Tid) -> TvResult<()>,
    ) -> TvResult<Tid> {
        if let Some(why) = self.poisoned.get() {
            return Err(TvError::Storage(format!(
                "commit refused: an earlier commit failed after its WAL append began ({why}); \
                 reopen the store to recover"
            )));
        }
        // Validate routing up front so apply below cannot fail halfway.
        {
            let types = self.types.read();
            for (type_id, delta) in &deltas {
                let store = types
                    .get(*type_id as usize)
                    .ok_or_else(|| TvError::NotFound(format!("vertex type {type_id}")))?;
                if let GraphDelta::UpsertVertex { attrs, .. } = delta {
                    store.schema.check_row(attrs)?;
                }
            }
        }
        let apply = |tid: Tid| -> TvResult<()> {
            let types = self.types.read();
            for (type_id, delta) in &deltas {
                types[*type_id as usize].apply(tid, delta.clone())?;
            }
            drop(types);
            hook(tid)
        };
        let (_, tid) = self.txn.commit_with(|tid| -> TvResult<()> {
            let extra = make_extra(tid);
            let Some(wal) = &self.wal else {
                return apply(tid);
            };
            let logged = {
                let mut w = wal.lock();
                w.append(&WalRecord {
                    tid,
                    deltas: deltas.clone(),
                    extra,
                })
                .and_then(|_| w.sync())
            };
            logged
                // The record is durable but not applied: a crash here must
                // be recovered by replaying the WAL tail.
                .and_then(|()| self.injector.hit(Point::CommitPostWalPreApply))
                .and_then(|()| apply(tid))
                .inspect_err(|e| {
                    let _ = self.poisoned.set(e.to_string());
                })
        })?;
        Ok(tid)
    }

    /// Re-apply replayed WAL records (after the catalog has been recreated).
    /// Returns the `extra` payloads in commit order for higher layers to
    /// replay their own state (vector deltas).
    pub fn replay(&self, records: Vec<WalRecord>) -> TvResult<Vec<(Tid, Vec<u8>)>> {
        let mut extras = Vec::new();
        for rec in records {
            let types = self.types.read();
            for (type_id, delta) in &rec.deltas {
                let store = types
                    .get(*type_id as usize)
                    .ok_or_else(|| TvError::NotFound(format!("vertex type {type_id}")))?;
                store.apply(rec.tid, delta.clone())?;
            }
            drop(types);
            self.txn.recover_to(rec.tid);
            if !rec.extra.is_empty() {
                extras.push((rec.tid, rec.extra));
            }
        }
        Ok(extras)
    }

    /// Vacuum every vertex type up to the transaction manager's horizon.
    /// Returns total folded deltas.
    pub fn vacuum(&self) -> usize {
        let horizon = self.txn.vacuum_horizon();
        self.types.read().iter().map(|t| t.vacuum(horizon)).sum()
    }

    /// Pending (un-folded) deltas summed over every segment of every type:
    /// the length of the tail each read has to look through.
    #[must_use]
    pub fn pending_deltas(&self) -> usize {
        self.types
            .read()
            .iter()
            .flat_map(|t| t.all_segments())
            .map(|s| s.read().pending_deltas())
            .sum()
    }

    /// Truncate the WAL, keeping only records with `tid > keep_after`
    /// (called by the checkpoint once its manifest is durable). Returns how
    /// many records survive, or `Ok(0)` for in-memory stores.
    pub fn rotate_wal(&self, keep_after: Tid) -> TvResult<usize> {
        match &self.wal {
            Some(wal) => wal.lock().rotate(keep_after),
            None => Ok(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AttrType;

    fn person_schema() -> AttrSchema {
        AttrSchema::new([
            ("name".to_string(), AttrType::Str),
            ("age".to_string(), AttrType::Int),
        ])
        .unwrap()
    }

    fn person_row(name: &str, age: i64) -> Vec<AttrValue> {
        vec![AttrValue::Str(name.into()), AttrValue::Int(age)]
    }

    #[test]
    fn commit_and_read_roundtrip() {
        let store = GraphStore::in_memory();
        let pt = store.create_vertex_type(person_schema(), SegmentLayout::with_capacity(4));
        let people = store.vertex_type(pt).unwrap();
        let id = people.allocate_id();
        let tid = store
            .commit(
                vec![(
                    pt,
                    GraphDelta::UpsertVertex {
                        id,
                        attrs: person_row("alice", 30),
                    },
                )],
                Vec::new(),
            )
            .unwrap();
        assert_eq!(tid, Tid(1));
        assert_eq!(
            people.attr(id, 0, tid),
            Some(AttrValue::Str("alice".into()))
        );
        assert!(people.is_live(id, tid));
        assert!(!people.is_live(id, Tid(0)));
    }

    #[test]
    fn schema_violation_aborts_commit() {
        let store = GraphStore::in_memory();
        let pt = store.create_vertex_type(person_schema(), SegmentLayout::default());
        let people = store.vertex_type(pt).unwrap();
        let id = people.allocate_id();
        let err = store.commit(
            vec![(
                pt,
                GraphDelta::UpsertVertex {
                    id,
                    attrs: vec![AttrValue::Int(1)], // wrong arity
                },
            )],
            Vec::new(),
        );
        assert!(err.is_err());
        assert_eq!(store.txn().last_committed(), Tid(0));
        assert!(!people.is_live(id, Tid(1)));
    }

    #[test]
    fn allocation_spans_segments() {
        let store = GraphStore::in_memory();
        let pt = store.create_vertex_type(person_schema(), SegmentLayout::with_capacity(3));
        let people = store.vertex_type(pt).unwrap();
        let ids = people.allocate_ids(7);
        assert_eq!(ids.len(), 7);
        assert_eq!(people.segment_count(), 3);
        assert_eq!(ids[0].segment(), SegmentId(0));
        assert_eq!(ids[3].segment(), SegmentId(1));
        assert_eq!(ids[6].segment(), SegmentId(2));
    }

    #[test]
    fn edges_across_types() {
        let store = GraphStore::in_memory();
        let pt = store.create_vertex_type(person_schema(), SegmentLayout::with_capacity(4));
        let post_t = store.create_vertex_type(
            AttrSchema::new([("content".to_string(), AttrType::Str)]).unwrap(),
            SegmentLayout::with_capacity(4),
        );
        let people = store.vertex_type(pt).unwrap();
        let posts = store.vertex_type(post_t).unwrap();
        let p = people.allocate_id();
        let m = posts.allocate_id();
        store
            .commit(
                vec![
                    (
                        pt,
                        GraphDelta::UpsertVertex {
                            id: p,
                            attrs: person_row("bob", 22),
                        },
                    ),
                    (
                        post_t,
                        GraphDelta::UpsertVertex {
                            id: m,
                            attrs: vec![AttrValue::Str("hello".into())],
                        },
                    ),
                    (
                        pt,
                        GraphDelta::AddEdge {
                            etype: 0,
                            from: p,
                            to: m,
                        },
                    ),
                ],
                Vec::new(),
            )
            .unwrap();
        let tid = store.txn().last_committed();
        assert_eq!(people.edges(p, 0, tid), vec![m]);
    }

    #[test]
    fn vacuum_folds_to_the_commit_watermark() {
        let store = GraphStore::in_memory();
        let pt = store.create_vertex_type(person_schema(), SegmentLayout::with_capacity(8));
        let people = store.vertex_type(pt).unwrap();
        let (a, b) = (people.allocate_id(), people.allocate_id());
        for (id, name) in [(a, "a"), (b, "b")] {
            let attrs = person_row(name, 1);
            store
                .commit(
                    vec![(pt, GraphDelta::UpsertVertex { id, attrs })],
                    Vec::new(),
                )
                .unwrap();
        }
        assert_eq!(store.pending_deltas(), 2);
        assert_eq!(store.vacuum(), 2);
        let seg = people.segment(SegmentId(0)).unwrap();
        assert_eq!(seg.read().pending_deltas(), 0);
        let tid = store.txn().last_committed();
        assert!(people.is_live(a, tid) && people.is_live(b, tid));
    }

    #[test]
    fn wal_recovery_restores_state() {
        let dir = std::env::temp_dir().join(format!("tvstore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("recovery.wal");
        let _ = std::fs::remove_file(&path);

        let (id_a, id_b);
        {
            let store = GraphStore::with_wal_plan(&path, Injector::default()).unwrap();
            let pt = store.create_vertex_type(person_schema(), SegmentLayout::with_capacity(4));
            let people = store.vertex_type(pt).unwrap();
            id_a = people.allocate_id();
            id_b = people.allocate_id();
            store
                .commit(
                    vec![(
                        pt,
                        GraphDelta::UpsertVertex {
                            id: id_a,
                            attrs: person_row("a", 1),
                        },
                    )],
                    vec![9, 9, 9],
                )
                .unwrap();
            store
                .commit(
                    vec![
                        (
                            pt,
                            GraphDelta::UpsertVertex {
                                id: id_b,
                                attrs: person_row("b", 2),
                            },
                        ),
                        (
                            pt,
                            GraphDelta::AddEdge {
                                etype: 0,
                                from: id_a,
                                to: id_b,
                            },
                        ),
                    ],
                    Vec::new(),
                )
                .unwrap();
        }

        // "Restart": new store, same catalog order, replay.
        let store = GraphStore::with_wal_plan(&path, Injector::default()).unwrap();
        let pt = store.create_vertex_type(person_schema(), SegmentLayout::with_capacity(4));
        let records = Wal::replay(&path).unwrap();
        let extras = store.replay(records).unwrap();
        assert_eq!(extras, vec![(Tid(1), vec![9, 9, 9])]);

        let people = store.vertex_type(pt).unwrap();
        let tid = store.txn().last_committed();
        assert_eq!(tid, Tid(2));
        assert!(people.is_live(id_a, tid));
        assert_eq!(people.edges(id_a, 0, tid), vec![id_b]);
        // Allocation watermark restored: next id does not collide.
        let next = people.allocate_id();
        assert_ne!(next, id_a);
        assert_ne!(next, id_b);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unknown_type_rejected() {
        let store = GraphStore::in_memory();
        assert!(store.vertex_type(3).is_err());
        let err = store.commit(
            vec![(7, GraphDelta::DeleteVertex { id: VertexId(0) })],
            Vec::new(),
        );
        assert!(err.is_err());
    }
}
