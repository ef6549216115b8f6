//! Vertex segments: snapshot + delta read path and the vacuum fold.
//!
//! A [`SegmentStore`] owns one segment's state as an immutable
//! [`SegmentSnapshot`] (valid up to some TID) plus the log of newer
//! committed deltas ([`DeltaLog`], shared with the embedding segments).
//! Readers at TID `t` see the snapshot corrected by the deltas with
//! `tid <= t`, found by following the vertex's own chain through the log;
//! the vacuum folds deltas into a fresh snapshot and atomically swaps it in
//! (§4.3). Snapshots are kept behind `Arc` so queries running against an
//! old snapshot stay valid during a swap — the multi-version behaviour the
//! paper describes for vertex segments (§4.2).

use crate::delta::GraphDelta;
use crate::value::AttrValue;
use std::collections::HashMap;
use std::sync::Arc;
use tv_common::{Bitmap, DeltaLog, Logged, SegmentId, Tid, TvError, TvResult, VertexId};

/// Immutable image of a segment at a point in TID time.
#[derive(Debug, Clone)]
pub struct SegmentSnapshot {
    /// Every committed delta with `tid <= up_to` is folded in.
    pub up_to: Tid,
    /// Liveness per local id (index < capacity).
    live: Vec<bool>,
    /// Attribute rows per local id (empty row = never written).
    attrs: Vec<Vec<AttrValue>>,
    /// Outgoing adjacency: edge type → per-local target lists.
    edges: HashMap<u32, Vec<Vec<VertexId>>>,
}

impl SegmentSnapshot {
    /// An empty snapshot at TID zero.
    #[must_use]
    pub(crate) fn empty(capacity: usize) -> Self {
        SegmentSnapshot {
            up_to: Tid::ZERO,
            live: vec![false; capacity],
            attrs: vec![Vec::new(); capacity],
            edges: HashMap::new(),
        }
    }

    /// Capacity in vertices.
    #[must_use]
    pub(crate) fn capacity(&self) -> usize {
        self.live.len()
    }

    /// Number of live vertices.
    #[cfg(test)]
    pub(crate) fn live_count(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Liveness flags per local id (checkpoint serialization).
    #[must_use]
    pub(crate) fn live(&self) -> &[bool] {
        &self.live
    }

    /// Attribute rows per local id (checkpoint serialization).
    #[must_use]
    pub(crate) fn attrs(&self) -> &[Vec<AttrValue>] {
        &self.attrs
    }

    /// Outgoing adjacency per edge type (checkpoint serialization).
    #[must_use]
    pub(crate) fn edges(&self) -> &HashMap<u32, Vec<Vec<VertexId>>> {
        &self.edges
    }

    /// The attribute row of `local` if it is live in this image.
    fn row(&self, local: usize) -> Option<&[AttrValue]> {
        match self.live.get(local) {
            Some(true) => Some(&self.attrs[local]),
            _ => None,
        }
    }

    /// Rebuild a snapshot from its serialized parts, validating structural
    /// invariants (per-local lists sized to capacity) so corrupt checkpoint
    /// bytes cannot smuggle in an inconsistent image.
    pub(crate) fn from_parts(
        up_to: Tid,
        live: Vec<bool>,
        attrs: Vec<Vec<AttrValue>>,
        edges: HashMap<u32, Vec<Vec<VertexId>>>,
    ) -> TvResult<Self> {
        let cap = live.len();
        if attrs.len() != cap {
            return Err(TvError::Storage(format!(
                "segment image: {} attr rows for capacity {cap}",
                attrs.len()
            )));
        }
        for per_local in edges.values() {
            if per_local.len() != cap {
                return Err(TvError::Storage(format!(
                    "segment image: {} edge lists for capacity {cap}",
                    per_local.len()
                )));
            }
        }
        Ok(SegmentSnapshot {
            up_to,
            live,
            attrs,
            edges,
        })
    }

    fn apply(&mut self, delta: &GraphDelta) {
        match delta {
            GraphDelta::UpsertVertex { id, attrs } => {
                let l = id.local().0 as usize;
                self.live[l] = true;
                self.attrs[l] = attrs.clone();
            }
            GraphDelta::DeleteVertex { id } => {
                let l = id.local().0 as usize;
                self.live[l] = false;
                self.attrs[l].clear();
                for per_local in self.edges.values_mut() {
                    per_local[l].clear();
                }
            }
            GraphDelta::SetAttr { id, col, value } => {
                let l = id.local().0 as usize;
                if self.live[l] && *col < self.attrs[l].len() {
                    self.attrs[l][*col] = value.clone();
                }
            }
            GraphDelta::AddEdge { etype, from, to } => {
                let l = from.local().0 as usize;
                let cap = self.live.len();
                let per_local = self
                    .edges
                    .entry(*etype)
                    .or_insert_with(|| vec![Vec::new(); cap]);
                if !per_local[l].contains(to) {
                    per_local[l].push(*to);
                }
            }
            GraphDelta::RemoveEdge { etype, from, to } => {
                if let Some(per_local) = self.edges.get_mut(etype) {
                    per_local[from.local().0 as usize].retain(|t| t != to);
                }
            }
        }
    }
}

/// A committed graph delta as the [`DeltaLog`] keeps it.
struct Committed(Tid, GraphDelta);

impl Logged for Committed {
    fn tid(&self) -> Tid {
        self.0
    }

    fn local(&self) -> usize {
        self.1.home_vertex().local().0 as usize
    }
}

/// One segment's mutable store: current snapshot + newer committed deltas,
/// kept in a [`DeltaLog`] whose per-local chains every read resolves through.
pub struct SegmentStore {
    /// This segment's id.
    pub segment_id: SegmentId,
    snapshot: Arc<SegmentSnapshot>,
    /// Committed deltas newer than the snapshot.
    log: DeltaLog<Committed>,
}

impl SegmentStore {
    /// New empty segment with the given capacity.
    #[must_use]
    pub(crate) fn new(segment_id: SegmentId, capacity: usize) -> Self {
        SegmentStore {
            segment_id,
            snapshot: Arc::new(SegmentSnapshot::empty(capacity)),
            log: DeltaLog::new(capacity),
        }
    }

    /// Capacity in vertices.
    #[must_use]
    pub(crate) fn capacity(&self) -> usize {
        self.snapshot.capacity()
    }

    /// Number of pending (un-vacuumed) deltas.
    #[must_use]
    pub fn pending_deltas(&self) -> usize {
        self.log.len()
    }

    /// Append a committed delta. `tid`s must arrive in non-decreasing order
    /// (the transaction manager serializes commits).
    pub(crate) fn append_delta(&mut self, tid: Tid, delta: GraphDelta) -> TvResult<()> {
        if tid <= self.snapshot.up_to {
            return Err(TvError::Storage(format!(
                "delta {tid} not newer than snapshot {}",
                self.snapshot.up_to
            )));
        }
        self.log.append(Committed(tid, delta))
    }

    /// The pending deltas of `local` visible at `read_tid`, newest first.
    fn chain(&self, local: usize, read_tid: Tid) -> impl Iterator<Item = &GraphDelta> + '_ {
        self.log.chain(local, read_tid).map(|c| &c.1)
    }

    /// The attribute row of `local` as of `read_tid`, `None` when it is not
    /// live. The row is borrowed from the snapshot or from the upsert that
    /// wrote it; only a row with `SetAttr`s on top is assembled, in `buf`.
    /// `sets` is scratch the caller keeps across calls.
    fn resolve<'s: 'b, 'b>(
        &'s self,
        local: usize,
        read_tid: Tid,
        sets: &mut Vec<(usize, &'s AttrValue)>,
        buf: &'b mut Vec<AttrValue>,
    ) -> Option<&'b [AttrValue]> {
        sets.clear();
        let reset = self.chain(local, read_tid).find_map(|d| match d {
            GraphDelta::UpsertVertex { attrs, .. } => Some(Some(attrs.as_slice())),
            GraphDelta::DeleteVertex { .. } => Some(None),
            GraphDelta::SetAttr { col, value, .. } => {
                sets.push((*col, value));
                None
            }
            GraphDelta::AddEdge { .. } | GraphDelta::RemoveEdge { .. } => None,
        });
        let base = match reset {
            Some(row) => row,
            None => self.snapshot.row(local),
        }?;
        if sets.is_empty() {
            return Some(base);
        }
        buf.clear();
        buf.extend_from_slice(base);
        for (col, value) in sets.drain(..).rev() {
            if let Some(slot) = buf.get_mut(col) {
                slot.clone_from(value);
            }
        }
        Some(buf)
    }

    /// Visit every vertex live at `read_tid` in ascending local order with
    /// its attribute row (empty for a type without attributes) — the scan
    /// under `VertexAction` predicates. With `within`, only the locals whose
    /// bit is set are looked at. Rows are borrowed from the snapshot or the
    /// upsert that wrote them; nothing is allocated per row.
    pub fn for_each_live_row(
        &self,
        read_tid: Tid,
        within: Option<&Bitmap>,
        mut f: impl FnMut(usize, &[AttrValue]),
    ) {
        let capacity = self.capacity();
        let (mut sets, mut buf) = (Vec::new(), Vec::new());
        let mut visit = |local: usize| {
            if let Some(row) = self.resolve(local, read_tid, &mut sets, &mut buf) {
                f(local, row);
            }
        };
        match within {
            None => (0..capacity).for_each(&mut visit),
            Some(bm) => bm
                .iter_ones()
                .take_while(|&local| local < capacity)
                .for_each(&mut visit),
        }
    }

    /// Whether `local` is live as of `read_tid`.
    #[must_use]
    pub(crate) fn is_live(&self, local: usize, read_tid: Tid) -> bool {
        self.chain(local, read_tid)
            .find_map(|d| match d {
                GraphDelta::UpsertVertex { .. } => Some(true),
                GraphDelta::DeleteVertex { .. } => Some(false),
                _ => None,
            })
            .unwrap_or_else(|| self.snapshot.live.get(local).copied().unwrap_or(false))
    }

    /// Attribute `col` of `local` as of `read_tid`.
    #[must_use]
    pub(crate) fn attr(&self, local: usize, col: usize, read_tid: Tid) -> Option<AttrValue> {
        self.resolve(local, read_tid, &mut Vec::new(), &mut Vec::new())
            .and_then(|row| row.get(col).cloned())
    }

    /// Full attribute row of `local` as of `read_tid`.
    #[cfg(test)]
    pub(crate) fn row(&self, local: usize, read_tid: Tid) -> Option<Vec<AttrValue>> {
        self.resolve(local, read_tid, &mut Vec::new(), &mut Vec::new())
            .filter(|row| !row.is_empty())
            .map(<[AttrValue]>::to_vec)
    }

    /// Outgoing edges of `local` under `etype` as of `read_tid`.
    #[must_use]
    pub fn edges(&self, local: usize, etype: u32, read_tid: Tid) -> Vec<VertexId> {
        // Newest first, down to the delete that cleared the list (if any).
        let mut ops: Vec<(bool, VertexId)> = Vec::new();
        let cleared = self.chain(local, read_tid).any(|d| match d {
            GraphDelta::AddEdge { etype: e, to, .. } if *e == etype => {
                ops.push((true, *to));
                false
            }
            GraphDelta::RemoveEdge { etype: e, to, .. } if *e == etype => {
                ops.push((false, *to));
                false
            }
            GraphDelta::DeleteVertex { .. } => true,
            _ => false,
        });
        let mut out: Vec<VertexId> = if cleared {
            Vec::new()
        } else {
            self.snapshot
                .edges
                .get(&etype)
                .and_then(|per_local| per_local.get(local))
                .cloned()
                .unwrap_or_default()
        };
        for (add, to) in ops.into_iter().rev() {
            if !add {
                out.retain(|t| *t != to);
            } else if !out.contains(&to) {
                out.push(to);
            }
        }
        out
    }

    /// Liveness bitmap over local ids as of `read_tid`. This is the structure
    /// TigerVector wraps as the validity filter for pure vector search
    /// instead of materializing a fresh bitmap (§5.1).
    #[must_use]
    pub fn live_bitmap(&self, read_tid: Tid) -> Bitmap {
        let live = self
            .snapshot
            .live
            .iter()
            .enumerate()
            .filter(|(_, &alive)| alive);
        let mut bm = Bitmap::from_indices(self.capacity(), live.map(|(l, _)| l));
        for Committed(_, d) in self.log.range(self.snapshot.up_to, read_tid) {
            match d {
                GraphDelta::UpsertVertex { id, .. } => bm.set(id.local().0 as usize, true),
                GraphDelta::DeleteVertex { id } => bm.set(id.local().0 as usize, false),
                _ => {}
            }
        }
        bm
    }

    /// Materialize this segment's image as of `up_to` without mutating the
    /// store: the current snapshot with every delta `tid <= up_to` folded
    /// in. This is what the checkpoint writes to disk — a consistent point
    /// that needs no delta replay below `up_to`.
    #[must_use]
    pub fn image_at(&self, up_to: Tid) -> SegmentSnapshot {
        self.folded(self.log.range(self.snapshot.up_to, up_to), up_to)
    }

    /// The snapshot with `deltas` (none above `up_to`) folded in, at `up_to`.
    fn folded(&self, deltas: &[Committed], up_to: Tid) -> SegmentSnapshot {
        let mut snap = (*self.snapshot).clone();
        for Committed(_, d) in deltas {
            snap.apply(d);
        }
        snap.up_to = snap.up_to.max(up_to);
        snap
    }

    /// Install a checkpoint image as this segment's snapshot. Only legal on
    /// a freshly-created segment (recovery restores images before replaying
    /// the WAL tail, so no deltas can exist yet — and hence no chains).
    pub(crate) fn restore(&mut self, snapshot: SegmentSnapshot) -> TvResult<()> {
        if !self.log.is_empty() {
            return Err(TvError::Storage(format!(
                "restore into segment {} with {} pending deltas",
                self.segment_id,
                self.log.len()
            )));
        }
        if snapshot.capacity() != self.capacity() {
            return Err(TvError::Storage(format!(
                "restore capacity {} into segment of capacity {}",
                snapshot.capacity(),
                self.capacity()
            )));
        }
        self.snapshot = Arc::new(snapshot);
        Ok(())
    }

    /// Fold deltas with `tid <= up_to` into a fresh snapshot and swap it in.
    /// Returns how many deltas were folded. Deltas newer than `up_to` are
    /// retained (they belong to transactions that may still be invisible to
    /// running readers).
    pub(crate) fn vacuum(&mut self, up_to: Tid) -> usize {
        let folded = self.log.cut(up_to);
        if !folded.is_empty() {
            // The snapshot records the full horizon, not the last folded
            // tid, so later appends below it are rejected.
            self.snapshot = Arc::new(self.folded(&folded, up_to));
        }
        folded.len()
    }
}

#[cfg(test)]
pub(crate) use tv_common::delta_log::probe;

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::ids::LocalId;

    fn vid(seg: u32, local: u32) -> VertexId {
        VertexId::new(SegmentId(seg), LocalId(local))
    }

    fn row(name: &str, age: i64) -> Vec<AttrValue> {
        vec![AttrValue::Str(name.into()), AttrValue::Int(age)]
    }

    #[test]
    fn upsert_visible_at_and_after_tid() {
        let mut s = SegmentStore::new(SegmentId(0), 16);
        s.append_delta(
            Tid(5),
            GraphDelta::UpsertVertex {
                id: vid(0, 3),
                attrs: row("alice", 30),
            },
        )
        .unwrap();
        assert!(!s.is_live(3, Tid(4)));
        assert!(s.is_live(3, Tid(5)));
        assert!(s.is_live(3, Tid(100)));
        assert_eq!(s.attr(3, 1, Tid(5)), Some(AttrValue::Int(30)));
        assert_eq!(s.attr(3, 1, Tid(4)), None);
    }

    #[test]
    fn set_attr_then_delete() {
        let mut s = SegmentStore::new(SegmentId(0), 16);
        s.append_delta(
            Tid(1),
            GraphDelta::UpsertVertex {
                id: vid(0, 0),
                attrs: row("bob", 20),
            },
        )
        .unwrap();
        s.append_delta(
            Tid(2),
            GraphDelta::SetAttr {
                id: vid(0, 0),
                col: 1,
                value: AttrValue::Int(21),
            },
        )
        .unwrap();
        s.append_delta(Tid(3), GraphDelta::DeleteVertex { id: vid(0, 0) })
            .unwrap();
        assert_eq!(s.attr(0, 1, Tid(1)), Some(AttrValue::Int(20)));
        assert_eq!(s.attr(0, 1, Tid(2)), Some(AttrValue::Int(21)));
        assert_eq!(s.attr(0, 1, Tid(3)), None);
        assert_eq!(s.row(0, Tid(2)).unwrap()[0], AttrValue::Str("bob".into()));
    }

    #[test]
    fn edges_combine_snapshot_and_deltas() {
        let mut s = SegmentStore::new(SegmentId(0), 16);
        s.append_delta(
            Tid(1),
            GraphDelta::AddEdge {
                etype: 0,
                from: vid(0, 1),
                to: vid(1, 2),
            },
        )
        .unwrap();
        s.vacuum(Tid(1));
        s.append_delta(
            Tid(2),
            GraphDelta::AddEdge {
                etype: 0,
                from: vid(0, 1),
                to: vid(1, 3),
            },
        )
        .unwrap();
        s.append_delta(
            Tid(3),
            GraphDelta::RemoveEdge {
                etype: 0,
                from: vid(0, 1),
                to: vid(1, 2),
            },
        )
        .unwrap();
        assert_eq!(s.edges(1, 0, Tid(1)), vec![vid(1, 2)]);
        assert_eq!(s.edges(1, 0, Tid(2)), vec![vid(1, 2), vid(1, 3)]);
        assert_eq!(s.edges(1, 0, Tid(3)), vec![vid(1, 3)]);
        // Unknown edge type yields nothing.
        assert!(s.edges(1, 9, Tid(3)).is_empty());
    }

    #[test]
    fn duplicate_edge_not_added_twice() {
        let mut s = SegmentStore::new(SegmentId(0), 8);
        for tid in 1..=2 {
            s.append_delta(
                Tid(tid),
                GraphDelta::AddEdge {
                    etype: 0,
                    from: vid(0, 0),
                    to: vid(0, 1),
                },
            )
            .unwrap();
        }
        assert_eq!(s.edges(0, 0, Tid(2)).len(), 1);
    }

    #[test]
    fn vacuum_folds_and_preserves_reads() {
        let mut s = SegmentStore::new(SegmentId(0), 16);
        for i in 0..10u64 {
            s.append_delta(
                Tid(i + 1),
                GraphDelta::UpsertVertex {
                    id: vid(0, i as u32),
                    attrs: row("v", i as i64),
                },
            )
            .unwrap();
        }
        let folded = s.vacuum(Tid(5));
        assert_eq!(folded, 5);
        assert_eq!(s.pending_deltas(), 5);
        // Reads unchanged across the fold.
        assert_eq!(s.attr(2, 1, Tid(10)), Some(AttrValue::Int(2)));
        assert_eq!(s.attr(7, 1, Tid(10)), Some(AttrValue::Int(7)));
        assert!(!s.is_live(7, Tid(5)));
        // Vacuuming everything empties the delta list.
        assert_eq!(s.vacuum(Tid(100)), 5);
        assert_eq!(s.pending_deltas(), 0);
        assert_eq!(s.live_bitmap(Tid(100)).count_ones(), 10);
    }

    #[test]
    fn vacuum_rejects_stale_appends() {
        let mut s = SegmentStore::new(SegmentId(0), 8);
        s.append_delta(
            Tid(1),
            GraphDelta::UpsertVertex {
                id: vid(0, 0),
                attrs: row("a", 1),
            },
        )
        .unwrap();
        s.vacuum(Tid(5));
        let err = s.append_delta(
            Tid(4),
            GraphDelta::UpsertVertex {
                id: vid(0, 1),
                attrs: row("b", 2),
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn out_of_order_delta_rejected() {
        let mut s = SegmentStore::new(SegmentId(0), 8);
        s.append_delta(
            Tid(5),
            GraphDelta::UpsertVertex {
                id: vid(0, 0),
                attrs: row("a", 1),
            },
        )
        .unwrap();
        assert!(s
            .append_delta(
                Tid(3),
                GraphDelta::UpsertVertex {
                    id: vid(0, 1),
                    attrs: row("b", 2),
                }
            )
            .is_err());
    }

    #[test]
    fn capacity_overflow_rejected() {
        let mut s = SegmentStore::new(SegmentId(0), 4);
        assert!(s
            .append_delta(
                Tid(1),
                GraphDelta::UpsertVertex {
                    id: vid(0, 4),
                    attrs: row("x", 0),
                }
            )
            .is_err());
    }

    #[test]
    fn live_bitmap_reflects_tid() {
        let mut s = SegmentStore::new(SegmentId(0), 8);
        s.append_delta(
            Tid(1),
            GraphDelta::UpsertVertex {
                id: vid(0, 2),
                attrs: row("a", 1),
            },
        )
        .unwrap();
        s.append_delta(Tid(2), GraphDelta::DeleteVertex { id: vid(0, 2) })
            .unwrap();
        assert_eq!(s.live_bitmap(Tid(1)).count_ones(), 1);
        assert_eq!(s.live_bitmap(Tid(2)).count_ones(), 0);
    }

    #[test]
    fn delete_clears_outgoing_edges() {
        let mut s = SegmentStore::new(SegmentId(0), 8);
        s.append_delta(
            Tid(1),
            GraphDelta::UpsertVertex {
                id: vid(0, 0),
                attrs: row("a", 1),
            },
        )
        .unwrap();
        s.append_delta(
            Tid(2),
            GraphDelta::AddEdge {
                etype: 0,
                from: vid(0, 0),
                to: vid(0, 1),
            },
        )
        .unwrap();
        s.append_delta(Tid(3), GraphDelta::DeleteVertex { id: vid(0, 0) })
            .unwrap();
        assert!(s.edges(0, 0, Tid(3)).is_empty());
        assert_eq!(s.edges(0, 0, Tid(2)), vec![vid(0, 1)]);
    }
}
