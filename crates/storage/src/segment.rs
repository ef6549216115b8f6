//! Vertex segments: the newest-version row image, the snapshot + delta read
//! path behind it, and the vacuum fold.
//!
//! A [`SegmentStore`] owns one segment's state as an immutable
//! [`SegmentSnapshot`] (valid up to some TID), the log of newer committed
//! deltas ([`DeltaLog`], shared with the embedding segments), and a
//! row image: the newest committed row of every local, written in place
//! by each append. A reader at TID `t` takes a local's row and liveness from
//! the image unless a row-changing delta newer than `t` exists for that
//! local; for that local alone it walks the chain instead — the snapshot
//! corrected by the local's deltas with `tid <= t`. The vacuum folds deltas
//! into a fresh snapshot and atomically swaps it in (§4.3). Snapshots are
//! kept behind `Arc` so queries running against an old snapshot stay valid
//! during a swap — the multi-version behaviour the paper describes for
//! vertex segments (§4.2).

use crate::delta::GraphDelta;
use crate::value::AttrValue;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tv_common::{Bitmap, DeltaLog, Logged, SegmentId, Tid, TvError, TvResult, VertexId};

/// Immutable image of a segment at a point in TID time.
#[derive(Debug, Clone)]
pub struct SegmentSnapshot {
    /// Every committed delta with `tid <= up_to` is folded in.
    pub up_to: Tid,
    /// Liveness per local id (index < capacity).
    live: Vec<bool>,
    /// Attribute rows per local id (empty row = never written). Empty until
    /// the first fold or restore: a never-folded segment reads its rows
    /// from the row image, and no local is live here to index it.
    attrs: Vec<Vec<AttrValue>>,
    /// Outgoing adjacency: edge type → per-local target lists.
    edges: HashMap<u32, Vec<Vec<VertexId>>>,
}

/// Per (edge type, local) touched by a fold: the members of its target list,
/// so adding an edge checks membership in `O(1)` (a hub with `d` new edges
/// folds in `O(d)`, not `O(d²)`).
type EdgeMembers = HashMap<(u32, usize), HashSet<VertexId>>;

impl SegmentSnapshot {
    /// An empty snapshot at TID zero.
    #[must_use]
    pub(crate) fn empty(capacity: usize) -> Self {
        SegmentSnapshot {
            up_to: Tid::ZERO,
            live: vec![false; capacity],
            attrs: Vec::new(),
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

    /// Attribute rows per local id (checkpoint serialization; only a folded
    /// or restored snapshot is ever written out).
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

    fn apply(&mut self, delta: &GraphDelta, members: &mut EdgeMembers) {
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
                for (etype, per_local) in &mut self.edges {
                    per_local[l].clear();
                    if let Some(set) = members.get_mut(&(*etype, l)) {
                        set.clear();
                    }
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
                let list = &mut self
                    .edges
                    .entry(*etype)
                    .or_insert_with(|| vec![Vec::new(); cap])[l];
                let set = members
                    .entry((*etype, l))
                    .or_insert_with(|| list.iter().copied().collect());
                if set.insert(*to) {
                    list.push(*to);
                }
            }
            GraphDelta::RemoveEdge { etype, from, to } => {
                let l = from.local().0 as usize;
                if let Some(per_local) = self.edges.get_mut(etype) {
                    per_local[l].retain(|t| t != to);
                }
                if let Some(set) = members.get_mut(&(*etype, l)) {
                    set.remove(to);
                }
            }
        }
    }
}

/// Whether `delta` changes its vertex's row or liveness: every vertex delta
/// does, an edge delta does not.
fn changes_row(delta: &GraphDelta) -> bool {
    !matches!(
        delta,
        GraphDelta::AddEdge { .. } | GraphDelta::RemoveEdge { .. }
    )
}

/// The newest committed row of every local, in place: one row-major array of
/// `arity` cells per local and the set of locals live in it. Appends write
/// it; the vacuum leaves it alone. Older versions stay behind it, in the log
/// and the snapshot — the in-place newest version of Neumann et al., "Fast
/// Serializable MVCC for Main-Memory Database Systems" (SIGMOD 2015).
struct RowImage {
    arity: usize,
    /// `arity` cells per local, up to the highest local ever written: a
    /// segment's unused headroom costs nothing. A local that is not live
    /// holds whatever it last held.
    cells: Vec<AttrValue>,
    live: Bitmap,
}

impl RowImage {
    fn new(capacity: usize, arity: usize) -> Self {
        RowImage {
            arity,
            cells: Vec::new(),
            live: Bitmap::new(capacity),
        }
    }

    /// The image of a restored snapshot; every live row must have `arity`
    /// cells.
    fn of(snapshot: &SegmentSnapshot, arity: usize) -> TvResult<Self> {
        let mut image = RowImage::new(snapshot.capacity(), arity);
        for local in (0..snapshot.capacity()).filter(|&l| snapshot.live[l]) {
            let row = &snapshot.attrs[local];
            if row.len() != arity {
                return Err(TvError::Storage(format!(
                    "restored row {local} has {} attributes, the segment {arity}",
                    row.len()
                )));
            }
            image.put(local, row);
        }
        Ok(image)
    }

    /// Make `row` the live row of `local`.
    fn put(&mut self, local: usize, row: &[AttrValue]) {
        let end = (local + 1) * self.arity;
        if self.cells.len() < end {
            self.cells.resize(end, AttrValue::Bool(false));
        }
        self.cells[end - self.arity..end].clone_from_slice(row);
        self.live.set(local, true);
    }

    /// The cells of the `n` locals from `first` that were ever written.
    fn rows(&self, first: usize, n: usize) -> &[AttrValue] {
        let end = ((first + n) * self.arity).min(self.cells.len());
        &self.cells[(first * self.arity).min(end)..end]
    }

    fn row(&self, local: usize) -> Option<&[AttrValue]> {
        (local < self.live.len() && self.live.get(local)).then(|| self.rows(local, 1))
    }

    /// Write `delta` in place (an upsert's row has `arity` cells).
    fn apply(&mut self, delta: &GraphDelta) {
        let (l, arity) = (delta.home_vertex().local().0 as usize, self.arity);
        match delta {
            GraphDelta::UpsertVertex { attrs, .. } => self.put(l, attrs),
            GraphDelta::DeleteVertex { .. } => self.live.set(l, false),
            GraphDelta::SetAttr { col, value, .. } => {
                if self.live.get(l) && *col < arity {
                    self.cells[l * arity + col].clone_from(value);
                }
            }
            GraphDelta::AddEdge { .. } | GraphDelta::RemoveEdge { .. } => {}
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

/// Scratch a historical block scan keeps across its blocks.
struct Scratch<'s> {
    sets: Vec<(usize, &'s AttrValue)>,
    row: Vec<AttrValue>,
    block: Vec<AttrValue>,
}

/// The positions of the set bits of `word`, ascending.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = word.trailing_zeros() as usize;
        word &= word.checked_sub(1)?;
        Some(i)
    })
}

/// One segment's mutable store: the row image, the current snapshot and the
/// newer committed deltas, kept in a [`DeltaLog`] whose per-local chains
/// every read that the image cannot answer resolves through.
pub struct SegmentStore {
    /// This segment's id.
    pub segment_id: SegmentId,
    snapshot: Arc<SegmentSnapshot>,
    /// Committed deltas newer than the snapshot.
    log: DeltaLog<Committed>,
    image: RowImage,
    /// The TID of the newest row-changing delta appended: a read at or
    /// above it takes every row from the image.
    row_tid: Tid,
}

impl SegmentStore {
    /// New empty segment of `capacity` locals whose rows have `arity`
    /// attributes.
    #[must_use]
    pub(crate) fn new(segment_id: SegmentId, capacity: usize, arity: usize) -> Self {
        SegmentStore {
            segment_id,
            snapshot: Arc::new(SegmentSnapshot::empty(capacity)),
            log: DeltaLog::new(capacity),
            image: RowImage::new(capacity, arity),
            row_tid: Tid::ZERO,
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

    /// Append a committed delta and write it into the row image. `tid`s
    /// must arrive in non-decreasing order (the transaction manager
    /// serializes commits); an upserted row must have the segment's arity.
    pub(crate) fn append_delta(&mut self, tid: Tid, delta: GraphDelta) -> TvResult<()> {
        if tid <= self.snapshot.up_to {
            return Err(TvError::Storage(format!(
                "delta {tid} not newer than snapshot {}",
                self.snapshot.up_to
            )));
        }
        if let GraphDelta::UpsertVertex { attrs, .. } = &delta {
            if attrs.len() != self.image.arity {
                return Err(TvError::Storage(format!(
                    "row of {} attributes in a segment of {}",
                    attrs.len(),
                    self.image.arity
                )));
            }
        }
        let Committed(_, delta) = self.log.append(Committed(tid, delta))?;
        self.image.apply(delta);
        if changes_row(delta) {
            self.row_tid = tid;
        }
        Ok(())
    }

    /// The pending deltas of `local` visible at `read_tid`, newest first.
    fn chain(&self, local: usize, read_tid: Tid) -> impl Iterator<Item = &GraphDelta> + '_ {
        self.log.chain(local, read_tid).map(|c| &c.1)
    }

    /// `None` when the image holds `local`'s row and liveness as of
    /// `read_tid`: no delta newer than `read_tid` changes them. Otherwise the
    /// local's deltas visible at `read_tid`, newest first — the chain the
    /// read falls back to, picked up where the check stopped, so no delta is
    /// read twice.
    fn stale_chain(
        &self,
        local: usize,
        read_tid: Tid,
    ) -> Option<impl Iterator<Item = &GraphDelta> + '_> {
        if read_tid >= self.row_tid {
            return None;
        }
        let mut chain = self.log.chain(local, Tid::MAX).peekable();
        let mut stale = false;
        while let Some(Committed(_, delta)) = chain.next_if(|c| c.0 > read_tid) {
            stale |= changes_row(delta);
        }
        stale.then(|| chain.map(|c| &c.1))
    }

    /// The attribute row of `local` as of `read_tid`, `None` when it is not
    /// live: the image's, unless the row changed after `read_tid`.
    fn resolve<'s: 'b, 'b>(
        &'s self,
        local: usize,
        read_tid: Tid,
        sets: &mut Vec<(usize, &'s AttrValue)>,
        buf: &'b mut Vec<AttrValue>,
    ) -> Option<&'b [AttrValue]> {
        match self.stale_chain(local, read_tid) {
            None => self.image.row(local),
            Some(chain) => self.resolve_chain(local, chain, sets, buf),
        }
    }

    /// The attribute row of `local` that `chain` (its visible deltas,
    /// newest first) leaves over the snapshot, `None` when it is not live.
    /// The row is borrowed from the snapshot or from the upsert that wrote
    /// it; only a row with `SetAttr`s on top is assembled, in `buf`. `sets`
    /// is scratch the caller keeps across calls.
    fn resolve_chain<'s: 'b, 'b>(
        &'s self,
        local: usize,
        mut chain: impl Iterator<Item = &'s GraphDelta>,
        sets: &mut Vec<(usize, &'s AttrValue)>,
        buf: &'b mut Vec<AttrValue>,
    ) -> Option<&'b [AttrValue]> {
        sets.clear();
        let reset = chain.find_map(|d| match d {
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

    /// The scan under every `VertexAction` predicate, 64 locals at a time.
    /// For each block of 64 consecutive locals (the last one shorter)
    /// holding a vertex live at `read_tid` — only members of `within`, when
    /// given — `f(mask, rows)` gets the block's candidates as a word (bit
    /// `i` is the block's `i`-th local) and its rows, row-major, arity cells
    /// per local, and returns the word of rows that pass; a block without
    /// candidates is skipped. Returns the passing candidates over the
    /// segment's capacity. The rows are the image's, in place, except in a
    /// block holding a local whose row changed after `read_tid`: that block
    /// is copied, with the local's row as of `read_tid` put in from its
    /// chain.
    pub fn scan_blocks(
        &self,
        read_tid: Tid,
        within: Option<&Bitmap>,
        mut f: impl FnMut(u64, &[AttrValue]) -> u64,
    ) -> Bitmap {
        let capacity = self.capacity();
        let live = self.image.live.words();
        let current = read_tid >= self.row_tid;
        let mut scratch = Scratch {
            sets: Vec::new(),
            row: Vec::new(),
            block: Vec::new(),
        };
        let mut words = vec![0; live.len()];
        for (w, out) in words.iter_mut().enumerate() {
            let scope = within.map_or(u64::MAX, |bm| bm.words().get(w).copied().unwrap_or(0));
            let first = w * 64;
            let rows = self.image.rows(first, (capacity - first).min(64));
            let (mask, rows) = if current {
                (live[w] & scope, rows)
            } else {
                self.block_at(read_tid, first, live[w], scope, rows, &mut scratch)
            };
            if mask != 0 {
                *out = f(mask, rows) & mask;
            }
        }
        Bitmap::from_words(capacity, words)
    }

    /// The block of `rows` from local `first` (image liveness `live`) as a
    /// reader at `read_tid` sees it, restricted to `scope`: each candidate
    /// whose row changed after `read_tid` is re-read from its chain.
    fn block_at<'s: 'a, 'a>(
        &'s self,
        read_tid: Tid,
        first: usize,
        live: u64,
        scope: u64,
        rows: &'a [AttrValue],
        scratch: &'a mut Scratch<'s>,
    ) -> (u64, &'a [AttrValue]) {
        let arity = self.image.arity;
        let n = (self.capacity() - first).min(64);
        let mut mask = live & scope;
        let mut copied = false;
        for i in ones(scope & (u64::MAX >> (64 - n))) {
            let local = first + i;
            let Some(chain) = self.stale_chain(local, read_tid) else {
                continue;
            };
            mask &= !(1 << i);
            if let Some(row) = self.resolve_chain(local, chain, &mut scratch.sets, &mut scratch.row)
            {
                if !copied {
                    scratch.block.clear();
                    scratch.block.extend_from_slice(rows);
                    scratch.block.resize(n * arity, AttrValue::Bool(false));
                    copied = true;
                }
                scratch.block[i * arity..(i + 1) * arity].clone_from_slice(row);
                mask |= 1 << i;
            }
        }
        (mask, if copied { &scratch.block } else { rows })
    }

    /// The chain path's scan: every vertex live at `read_tid` in ascending
    /// local order with its attribute row, each resolved through its own
    /// chain over the snapshot, never the image (with `within`, only the
    /// locals whose bit is set) — the reference the image's scan is checked
    /// against.
    #[cfg(test)]
    pub(crate) fn for_each_live_row(
        &self,
        read_tid: Tid,
        within: Option<&Bitmap>,
        mut f: impl FnMut(usize, &[AttrValue]),
    ) {
        let capacity = self.capacity();
        let (mut sets, mut buf) = (Vec::new(), Vec::new());
        let mut visit = |local: usize| {
            let chain = self.chain(local, read_tid);
            if let Some(row) = self.resolve_chain(local, chain, &mut sets, &mut buf) {
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
        match self.stale_chain(local, read_tid) {
            None => self.image.row(local).is_some(),
            Some(chain) => self.chain_liveness(local, chain),
        }
    }

    /// Whether `chain` (the visible deltas of `local`, newest first) leaves
    /// `local` live over the snapshot.
    fn chain_liveness<'s>(
        &'s self,
        local: usize,
        mut chain: impl Iterator<Item = &'s GraphDelta>,
    ) -> bool {
        chain
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

    /// [`SegmentStore::is_live`] through the chain alone, never the image.
    #[cfg(test)]
    pub(crate) fn chain_is_live(&self, local: usize, read_tid: Tid) -> bool {
        self.chain_liveness(local, self.chain(local, read_tid))
    }

    /// [`SegmentStore::row`] through the chain alone, never the image.
    #[cfg(test)]
    pub(crate) fn chain_row(&self, local: usize, read_tid: Tid) -> Option<Vec<AttrValue>> {
        let chain = self.chain(local, read_tid);
        self.resolve_chain(local, chain, &mut Vec::new(), &mut Vec::new())
            .filter(|row| !row.is_empty())
            .map(<[AttrValue]>::to_vec)
    }

    /// Outgoing edges of `local` under `etype` as of `read_tid`: the
    /// snapshot's list (or none after a delete), then the newer adds and
    /// removes in commit order — an add appends a target not yet listed, a
    /// remove drops it.
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
        if ops.is_empty() {
            return out;
        }
        let mut members: HashSet<VertexId> = out.iter().copied().collect();
        for (add, to) in ops.into_iter().rev() {
            if !add {
                if members.remove(&to) {
                    out.retain(|t| *t != to);
                }
            } else if members.insert(to) {
                out.push(to);
            }
        }
        out
    }

    /// Liveness bitmap over local ids as of `read_tid`, replayed from the
    /// snapshot and the log's TID range (a third path to the same answer).
    #[cfg(test)]
    pub(crate) fn live_bitmap(&self, read_tid: Tid) -> Bitmap {
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
        if snap.attrs.is_empty() {
            snap.attrs = vec![Vec::new(); snap.capacity()];
        }
        let mut members = EdgeMembers::new();
        for Committed(_, d) in deltas {
            snap.apply(d, &mut members);
        }
        snap.up_to = snap.up_to.max(up_to);
        snap
    }

    /// Install a checkpoint image as this segment's snapshot and row image.
    /// Only legal on a freshly-created segment (recovery restores images
    /// before replaying the WAL tail, so no deltas can exist yet — and hence
    /// no chains).
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
        self.image = RowImage::of(&snapshot, self.image.arity)?;
        self.snapshot = Arc::new(snapshot);
        Ok(())
    }

    /// Fold deltas with `tid <= up_to` into a fresh snapshot and swap it in.
    /// Returns how many deltas were folded. Deltas newer than `up_to` are
    /// retained (they belong to transactions that may still be invisible to
    /// running readers); the row image already holds every fold's result.
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
        let mut s = SegmentStore::new(SegmentId(0), 16, 2);
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
        let mut s = SegmentStore::new(SegmentId(0), 16, 2);
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
        let mut s = SegmentStore::new(SegmentId(0), 16, 2);
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
        let mut s = SegmentStore::new(SegmentId(0), 8, 2);
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

    /// The list rule edges always had, as the quadratic loop that applied
    /// it: an add appends a target not yet listed, a remove drops it.
    fn quadratic_rule(list: &mut Vec<VertexId>, add: bool, to: VertexId) {
        if !add {
            list.retain(|t| *t != to);
        } else if !list.contains(&to) {
            list.push(to);
        }
    }

    /// A hub with 10 000 distinct targets, added in a seeded order with
    /// duplicate adds and removes mixed in: the read path over a tail and
    /// the fold give exactly the quadratic loop's list, order included.
    #[test]
    fn hub_edges_match_the_quadratic_loop() {
        const TARGETS: u32 = 10_000;
        let mut rng = tv_common::SplitMix64::new(0x4B_0B);
        let mut order: Vec<u32> = (0..TARGETS).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let mut ops = Vec::new();
        for (i, &t) in order.iter().enumerate() {
            ops.push((true, t));
            match rng.next_below(20) {
                0 | 1 => ops.push((true, order[rng.next_below(i as u64 + 1) as usize])),
                2 => ops.push((false, order[rng.next_below(i as u64 + 1) as usize])),
                _ => {}
            }
        }
        let mut s = SegmentStore::new(SegmentId(0), 4, 2);
        let mut want = Vec::new();
        let half = ops.len() / 2;
        for (tid, &(add, t)) in (1u64..).zip(&ops) {
            let (from, to) = (vid(0, 0), vid(1, t));
            let delta = if add {
                GraphDelta::AddEdge { etype: 0, from, to }
            } else {
                GraphDelta::RemoveEdge { etype: 0, from, to }
            };
            s.append_delta(Tid(tid), delta).unwrap();
            quadratic_rule(&mut want, add, to);
            if tid as usize == half {
                // The first half folded: the rest is a tail on top of it.
                assert_eq!(s.vacuum(Tid(tid)), half);
                assert_eq!(s.edges(0, 0, Tid(tid)), want, "fold of the first half");
            }
        }
        let top = Tid(ops.len() as u64);
        assert!(want.len() > 9_000, "{}", want.len());
        assert_eq!(s.edges(0, 0, top), want, "snapshot + tail");
        s.vacuum(top);
        assert_eq!(s.edges(0, 0, top), want, "fold of the tail");
    }

    #[test]
    fn vacuum_folds_and_preserves_reads() {
        let mut s = SegmentStore::new(SegmentId(0), 16, 2);
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
        let mut s = SegmentStore::new(SegmentId(0), 8, 2);
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
        let mut s = SegmentStore::new(SegmentId(0), 8, 2);
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
        let mut s = SegmentStore::new(SegmentId(0), 4, 2);
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
        let mut s = SegmentStore::new(SegmentId(0), 8, 2);
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
        let mut s = SegmentStore::new(SegmentId(0), 8, 2);
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
