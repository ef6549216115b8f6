//! MPP parallel primitives: `VertexAction` and `EdgeAction` (§2.1).
//!
//! TigerGraph exposes two parallel primitives that run user-defined
//! functions across segments; the filtered-vector-search pipeline is
//! literally `VertexAction` (evaluate the predicate, produce bitmaps)
//! feeding `EmbeddingAction` (per-segment index search) — the query plans
//! shown in §5.2/§5.3.

use crate::graph::Graph;
use crate::vertex_set::VertexSet;
use tg_storage::segment::SegmentStore;
use tg_storage::AttrValue;
use tv_common::ids::LocalId;
use tv_common::{SegmentId, Tid, TvResult, VertexId};

impl Graph {
    /// **VertexAction**: run `f` over every segment of `type_id`, collecting
    /// per-segment results in segment order. Runs on the embedding service's
    /// pool, at most `query_threads` wide, and leaves the calling thread only
    /// when the pool finds the scans worth a hand-off. `f` receives the
    /// segment store and its id.
    pub(crate) fn vertex_action<R: Send>(
        &self,
        type_id: u32,
        f: impl Fn(&SegmentStore, SegmentId) -> R + Sync,
    ) -> TvResult<Vec<R>> {
        let segments = self.store().vertex_type(type_id)?.all_segments();
        let emb = self.embeddings();
        let threads = emb.config().query_threads;
        Ok(emb
            .pool()
            .run_gauged(&self.scan_gauge, segments, threads, |seg| {
                let guard = seg.read();
                f(&guard, guard.segment_id)
            }))
    }

    /// The one scan door, one segment scan each: the vertices of `type_id`
    /// live at `tid` (only the members of `within`, when given) that pass
    /// `pred`. The scan hands `pred` 64 locals at a time — a word of
    /// candidates (bit `i` is the block's `i`-th local, live and within)
    /// and their attribute rows, row-major in schema order, one cell per
    /// column — and keeps the bits of the word it returns that are
    /// candidates. Blocks without a candidate are skipped.
    pub fn scan_vertices(
        &self,
        type_id: u32,
        tid: Tid,
        within: Option<&VertexSet>,
        pred: impl Fn(u64, &[AttrValue]) -> u64 + Sync,
    ) -> TvResult<VertexSet> {
        let capacity = self.store().vertex_type(type_id)?.layout().capacity;
        let within = within.map(|set| set.to_segment_bitmaps(type_id, capacity));
        let per_segment = self.vertex_action(type_id, |seg, seg_id| {
            let within = match &within {
                None => None,
                Some(bitmaps) => Some(bitmaps.get(&seg_id)?),
            };
            Some((seg_id, seg.scan_blocks(tid, within, &pred)))
        })?;
        Ok(VertexSet::from_segment_bitmaps(
            type_id,
            per_segment.into_iter().flatten(),
        ))
    }

    /// Materialize the vertices of `type_id` whose attribute row (in schema
    /// order; resolve column indices once, through the type's `AttrSchema`,
    /// before the scan) satisfies `pred` as a [`VertexSet`] — the `SELECT s
    /// FROM (s:Type) WHERE ...` block, one row at a time through the same
    /// door as the block predicates.
    pub fn select_vertices(
        &self,
        type_id: u32,
        tid: Tid,
        pred: impl Fn(&[AttrValue]) -> bool + Sync,
    ) -> TvResult<VertexSet> {
        let arity = self.store().vertex_type(type_id)?.schema().len();
        self.scan_vertices(type_id, tid, None, move |mask, rows| {
            (0..64)
                .filter(|&i| mask >> i & 1 == 1 && pred(&rows[i * arity..(i + 1) * arity]))
                .fold(0, |word, i| word | 1 << i)
        })
    }

    /// All live vertices of a type at `tid`.
    pub fn all_vertices(&self, type_id: u32, tid: Tid) -> TvResult<VertexSet> {
        self.scan_vertices(type_id, tid, None, |live, _| live)
    }

    /// **EdgeAction**: run `f` over every live out-edge of `etype` whose
    /// source has type `from_type`, in segment-parallel fashion. Results are
    /// concatenated in segment order.
    pub fn edge_action<R: Send>(
        &self,
        from_type: u32,
        etype: u32,
        tid: Tid,
        f: impl Fn(VertexId, VertexId) -> R + Sync,
    ) -> TvResult<Vec<R>> {
        let per_segment = self.vertex_action(from_type, |seg, seg_id| {
            let mut out = Vec::new();
            let live = seg.scan_blocks(tid, None, |live, _| live);
            for local in live.iter_ones() {
                let from = VertexId::new(seg_id, LocalId(local as u32));
                for to in seg.edges(local, etype, tid) {
                    out.push(f(from, to));
                }
            }
            out
        })?;
        Ok(per_segment.into_iter().flatten().collect())
    }

    /// Expand a frontier one hop along `etype` (source type `from_type`,
    /// targets of the edge type's target type). Returns the target set.
    pub fn expand(
        &self,
        frontier: &VertexSet,
        from_type: u32,
        etype: u32,
        to_type: u32,
        tid: Tid,
    ) -> TvResult<VertexSet> {
        let store = self.store().vertex_type(from_type)?;
        // An edge may dangle; a target past the segment capacity cannot name
        // a vertex of `to_type` at all, and would only size a bitmap.
        let capacity = self.store().vertex_type(to_type)?.layout().capacity;
        let mut out = VertexSet::new();
        for id in frontier.of_type(from_type) {
            for target in store.edges(id, etype, tid) {
                if (target.local().0 as usize) < capacity {
                    out.insert(to_type, target);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_storage::AttrType;
    use tv_common::ids::SegmentLayout;
    use tv_embedding::ServiceConfig;

    fn graph() -> (Graph, u32, u32) {
        let g = Graph::with_config(
            SegmentLayout::with_capacity(4),
            ServiceConfig {
                planner: tv_common::PlannerConfig::default().with_brute_threshold(4),
                query_threads: 2,
                default_ef: 32,
            },
        );
        let person = g
            .create_vertex_type("Person", &[("name", AttrType::Str), ("age", AttrType::Int)])
            .unwrap();
        let knows = g.create_edge_type("knows", "Person", "Person").unwrap();
        (g, person, knows)
    }

    fn load_people(g: &Graph, person: u32, n: usize) -> Vec<VertexId> {
        let ids = g.allocate_many(person, n).unwrap();
        let mut txn = g.txn();
        for (i, &id) in ids.iter().enumerate() {
            txn = txn.upsert_vertex(
                person,
                id,
                vec![AttrValue::Str(format!("p{i}")), AttrValue::Int(i as i64)],
            );
        }
        txn.commit().unwrap();
        ids
    }

    #[test]
    fn vertex_action_covers_all_segments() {
        let (g, person, _) = graph();
        load_people(&g, person, 10); // 3 segments at capacity 4
        let counts = g
            .vertex_action(person, |seg, _| {
                seg.scan_blocks(g.read_tid(), None, |live, _| live)
                    .count_ones()
            })
            .unwrap();
        assert_eq!(counts, vec![4, 4, 2]);
    }

    #[test]
    fn filter_bitmaps_prefilter() {
        let (g, person, _) = graph();
        load_people(&g, person, 10);
        let tid = g.read_tid();
        let bitmaps = g
            .select_vertices(person, tid, |row| row[1].as_int().is_some_and(|a| a >= 8))
            .unwrap()
            .to_segment_bitmaps(person, 4);
        // Only ages 8, 9 qualify — both in segment 2.
        assert_eq!(bitmaps.len(), 1);
        assert_eq!(bitmaps[&SegmentId(2)].count_ones(), 2);
    }

    #[test]
    fn select_vertices_builds_set() {
        let (g, person, _) = graph();
        let ids = load_people(&g, person, 6);
        let tid = g.read_tid();
        let evens = g
            .select_vertices(person, tid, |row| {
                row[1].as_int().is_some_and(|a| a % 2 == 0)
            })
            .unwrap();
        assert_eq!(evens.len(), 3);
        assert!(evens.contains(person, ids[0]));
        assert!(!evens.contains(person, ids[1]));
        let all = g.all_vertices(person, tid).unwrap();
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn edge_action_and_expand() {
        let (g, person, knows) = graph();
        let ids = load_people(&g, person, 5);
        g.txn()
            .add_edge(knows, person, ids[0], ids[1])
            .add_edge(knows, person, ids[0], ids[2])
            .add_edge(knows, person, ids[1], ids[3])
            .commit()
            .unwrap();
        let tid = g.read_tid();
        let pairs = g
            .edge_action(person, knows, tid, |from, to| (from, to))
            .unwrap();
        assert_eq!(pairs.len(), 3);

        let frontier = VertexSet::from_iter_typed(person, [ids[0]]);
        let hop1 = g.expand(&frontier, person, knows, person, tid).unwrap();
        assert_eq!(hop1.len(), 2);
        let hop2 = g.expand(&hop1, person, knows, person, tid).unwrap();
        assert_eq!(hop2.of_type(person), vec![ids[3]]);
    }

    #[test]
    fn expand_drops_targets_no_vertex_can_have() {
        let (g, person, knows) = graph();
        let ids = load_people(&g, person, 3);
        // Edge targets are whatever the writer passed: one past every
        // segment's capacity, one merely never upserted.
        let impossible = VertexId::new(SegmentId(0), LocalId(u32::MAX));
        let dangling = VertexId::new(SegmentId(1), LocalId(3));
        g.txn()
            .add_edge(knows, person, ids[0], impossible)
            .add_edge(knows, person, ids[0], dangling)
            .add_edge(knows, person, ids[0], ids[2])
            .commit()
            .unwrap();
        let tid = g.read_tid();
        let frontier = VertexSet::from_iter_typed(person, [ids[0]]);
        let hop = g.expand(&frontier, person, knows, person, tid).unwrap();
        assert_eq!(hop.of_type(person), vec![ids[2], dangling]);
        let live = g
            .scan_vertices(person, tid, Some(&hop), |live, _| live)
            .unwrap();
        assert_eq!(live.of_type(person), vec![ids[2]]);
    }

    #[test]
    fn deleted_vertices_excluded_from_actions() {
        let (g, person, _) = graph();
        let ids = load_people(&g, person, 4);
        g.txn().delete_vertex(person, ids[1]).commit().unwrap();
        let tid = g.read_tid();
        let all = g.all_vertices(person, tid).unwrap();
        assert_eq!(all.len(), 3);
        assert!(!all.contains(person, ids[1]));
    }
}
