//! MPP parallel primitives: `VertexAction` and `EdgeAction` (§2.1).
//!
//! TigerGraph exposes two parallel primitives that run user-defined
//! functions across segments; the filtered-vector-search pipeline is
//! literally `VertexAction` (evaluate the predicate, produce bitmaps)
//! feeding `EmbeddingAction` (per-segment index search) — the query plans
//! shown in §5.2/§5.3. Every edge walk, in either direction, is one
//! expansion ([`Graph::expand_edges`]).

use crate::graph::Graph;
use crate::vertex_set::VertexSet;
use tg_storage::segment::SegmentStore;
use tg_storage::AttrValue;
use tv_common::ids::LocalId;
use tv_common::{Bitmap, SegmentId, Tid, TvResult, VertexId};

/// Which way a pattern step walks an edge type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Along the stored edges: from sources to their targets.
    Out,
    /// Against them: from targets to the sources pointing at them.
    In,
}

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
        let per_segment = self.scoped_action(type_id, within, |seg, seg_id, scope| {
            (seg_id, seg.scan_blocks(tid, scope, &pred))
        })?;
        Ok(VertexSet::from_segment_bitmaps(type_id, per_segment))
    }

    /// [`Graph::vertex_action`] over the segments of `type_id` holding a
    /// member of `within` (every segment, when `None`); `f` also receives
    /// `within`'s bitmap of the segment.
    fn scoped_action<R: Send>(
        &self,
        type_id: u32,
        within: Option<&VertexSet>,
        f: impl Fn(&SegmentStore, SegmentId, Option<&Bitmap>) -> R + Sync,
    ) -> TvResult<Vec<R>> {
        let capacity = self.store().vertex_type(type_id)?.layout().capacity;
        let within = within.map(|set| set.to_segment_bitmaps(type_id, capacity));
        let per_segment = self.vertex_action(type_id, |seg, seg_id| match &within {
            None => Some(f(seg, seg_id, None)),
            Some(bitmaps) => Some(f(seg, seg_id, Some(bitmaps.get(&seg_id)?))),
        })?;
        Ok(per_segment.into_iter().flatten().collect())
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

    /// One pattern step from `frontier` along `etype` in `direction`: the
    /// neighbours [`Graph::expand_edges`] reaches, as a set of the step's
    /// far type.
    pub fn expand(
        &self,
        frontier: &VertexSet,
        etype: u32,
        direction: Direction,
        within: Option<&VertexSet>,
        tid: Tid,
    ) -> TvResult<VertexSet> {
        let (from_type, to_type) = self.endpoints(etype)?;
        let far = match direction {
            Direction::Out => to_type,
            Direction::In => from_type,
        };
        let edges = self.expand_edges(frontier, etype, direction, within, tid)?;
        Ok(VertexSet::from_iter_typed(
            far,
            edges.into_iter().map(|(_, to)| to),
        ))
    }

    /// **EdgeAction**, the one edge walk: the edges of `etype` at `tid`
    /// between `frontier` and the step's neighbours (only the members of
    /// `within`, when given), each as (frontier member, neighbour).
    ///
    /// `Out` walks the out-lists of the frontier's members of the edge's
    /// source type, on the calling thread; a neighbour is a stored target,
    /// live or not, except one past the target type's segment capacity,
    /// which no vertex can have. `In` scans the edge's sources live at
    /// `tid`, segment-parallel like a `VertexAction`, and keeps each
    /// out-edge into the frontier's members of the target type. Edges come
    /// in ascending order of the walked side (frontier members for `Out`,
    /// sources for `In`), each list in its stored order.
    pub fn expand_edges(
        &self,
        frontier: &VertexSet,
        etype: u32,
        direction: Direction,
        within: Option<&VertexSet>,
        tid: Tid,
    ) -> TvResult<Vec<(VertexId, VertexId)>> {
        let (from_type, to_type) = self.endpoints(etype)?;
        let sources = self.store().vertex_type(from_type)?;
        match direction {
            Direction::Out => {
                let capacity = self.store().vertex_type(to_type)?.layout().capacity;
                let mut out = Vec::new();
                for id in frontier.of_type(from_type) {
                    for to in sources.edges(id, etype, tid) {
                        if (to.local().0 as usize) < capacity
                            && within.is_none_or(|set| set.contains(to_type, to))
                        {
                            out.push((id, to));
                        }
                    }
                }
                Ok(out)
            }
            Direction::In => {
                if !frontier.types().contains(&to_type) {
                    return Ok(Vec::new());
                }
                let per_segment = self.scoped_action(from_type, within, |seg, seg_id, scope| {
                    let mut out = Vec::new();
                    for local in seg.scan_blocks(tid, scope, |live, _| live).iter_ones() {
                        let source = VertexId::new(seg_id, LocalId(local as u32));
                        for to in seg.edges(local, etype, tid) {
                            if frontier.contains(to_type, to) {
                                out.push((to, source));
                            }
                        }
                    }
                    out
                })?;
                Ok(per_segment.into_iter().flatten().collect())
            }
        }
    }

    /// The (source, target) vertex types of edge type `etype`.
    fn endpoints(&self, etype: u32) -> TvResult<(u32, u32)> {
        let catalog = self.catalog();
        let def = catalog.edge_type_by_id(etype)?;
        Ok((def.from_type, def.to_type))
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
    fn expand_walks_both_directions() {
        let (g, person, knows) = graph();
        let ids = load_people(&g, person, 10); // 3 segments at capacity 4
        g.txn()
            .add_edge(knows, person, ids[0], ids[1])
            .add_edge(knows, person, ids[0], ids[2])
            .add_edge(knows, person, ids[1], ids[3])
            .add_edge(knows, person, ids[9], ids[3])
            .commit()
            .unwrap();
        let tid = g.read_tid();
        let step = |frontier: &[VertexId], direction, within: Option<&VertexSet>| {
            let frontier = VertexSet::from_iter_typed(person, frontier.iter().copied());
            let edges = g
                .expand_edges(&frontier, knows, direction, within, tid)
                .unwrap();
            let set = g.expand(&frontier, knows, direction, within, tid).unwrap();
            let mut reached: Vec<VertexId> = edges.iter().map(|&(_, to)| to).collect();
            reached.sort_unstable();
            reached.dedup();
            assert_eq!(set.of_type(person), reached);
            edges
        };
        let all = g.all_vertices(person, tid).unwrap();
        assert_eq!(step(&ids, Direction::Out, None).len(), 4);
        assert_eq!(step(&ids, Direction::In, Some(&all)).len(), 4);
        assert_eq!(
            step(&[ids[0]], Direction::Out, None),
            [(ids[0], ids[1]), (ids[0], ids[2])]
        );
        let hop1 = VertexSet::from_iter_typed(person, [ids[1], ids[2]]);
        assert_eq!(
            step(&[ids[0], ids[1]], Direction::Out, Some(&hop1)),
            [(ids[0], ids[1]), (ids[0], ids[2])]
        );
        // Against the edges: the sources pointing at the frontier, in
        // source order, only those in `within`.
        assert_eq!(
            step(&[ids[3], ids[2]], Direction::In, None),
            [(ids[2], ids[0]), (ids[3], ids[1]), (ids[3], ids[9])]
        );
        let first_segment = VertexSet::from_iter_typed(person, ids[..4].iter().copied());
        assert_eq!(
            step(&[ids[3]], Direction::In, Some(&first_segment)),
            [(ids[3], ids[1])]
        );
        assert!(step(&[], Direction::In, None).is_empty());
        // A deleted source no longer points anywhere.
        g.txn().delete_vertex(person, ids[9]).commit().unwrap();
        let tid = g.read_tid();
        let frontier = VertexSet::from_iter_typed(person, [ids[3]]);
        let back = g
            .expand(&frontier, knows, Direction::In, None, tid)
            .unwrap();
        assert_eq!(back.of_type(person), [ids[1]]);
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
        let hop = g
            .expand(&frontier, knows, Direction::Out, None, tid)
            .unwrap();
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
