//! The index's one adjacency: compiled CSR rows, shared by an index and its
//! clones, plus a copy-on-write set of the rows written since the last fold.
//!
//! The compiled rows ([`Csr`]) keep level 0 — where almost all traversal
//! work happens — as one contiguous CSR (a neighbor slab plus `n + 1` `u32`
//! prefix offsets), and the sparse upper levels in a second slab addressed
//! through a per-node row base, so reading a list is one offset lookup into
//! an arena the hardware prefetcher can stream. Neighbor ids are `u16` in an
//! index of at most [`NARROW_SLOTS`] slots — every segment index at its
//! default capacity — and `u32` above; the offsets stay `u32`.
//!
//! A write to slot `s` ([`Adjacency::row_mut`]) first copies `s`'s rows,
//! widened to `u32`, into the edit set; a new slot's rows exist only there.
//! Reads check the edit set, then the compiled rows, and hand out a [`Row`]
//! at its stored width. A fold ([`Adjacency::folded`]) streams every row into
//! a new CSR, renumbering ids by a slot permutation as it goes, and leaves
//! no edit set. An index never folded holds every row as an edit: the
//! `pointer` layout, and a build from scratch.

use std::collections::VecDeque;
use std::mem::size_of;
use std::ops::Range;
use std::sync::Arc;
use tv_common::kernels::prefetch;

/// Most slots an index may hold for its compiled rows to store neighbor
/// ids as `u16` (slot ids `0..=u16::MAX`).
pub(crate) const NARROW_SLOTS: usize = 1 << 16;

/// One neighbor list at its stored width: a compiled row of a narrow or a
/// wide CSR, or an edited row (always `u32`).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Row<'a> {
    U16(&'a [u16]),
    U32(&'a [u32]),
}

impl Row<'_> {
    pub(crate) fn len(self) -> usize {
        match self {
            Row::U16(r) => r.len(),
            Row::U32(r) => r.len(),
        }
    }

    pub(crate) fn contains(self, slot: u32) -> bool {
        match self {
            Row::U16(r) => u16::try_from(slot).is_ok_and(|s| r.contains(&s)),
            Row::U32(r) => r.contains(&slot),
        }
    }

    /// Append the row's ids to `out`, widened to `u32`.
    #[inline]
    pub(crate) fn extend_into(self, out: &mut Vec<u32>) {
        match self {
            Row::U16(r) => out.extend(r.iter().map(|&id| u32::from(id))),
            Row::U32(r) => out.extend_from_slice(r),
        }
    }

    pub(crate) fn to_vec(self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        self.extend_into(&mut out);
        out
    }
}

/// One neighbor slab of a [`Csr`], at the width its slot count allows.
#[derive(Debug)]
pub(crate) enum Ids {
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl Default for Ids {
    fn default() -> Self {
        Ids::U16(Vec::new())
    }
}

impl Ids {
    #[inline]
    fn row(&self, range: Range<usize>) -> Row<'_> {
        match self {
            Ids::U16(v) => Row::U16(&v[range]),
            Ids::U32(v) => Row::U32(&v[range]),
        }
    }

    #[inline]
    fn prefetch(&self, at: usize) {
        match self {
            Ids::U16(v) => prefetch(v.as_ptr().wrapping_add(at).cast::<u8>()),
            Ids::U32(v) => prefetch(v.as_ptr().wrapping_add(at).cast::<u8>()),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Ids::U16(v) => v.capacity() * size_of::<u16>(),
            Ids::U32(v) => v.capacity() * size_of::<u32>(),
        }
    }
}

/// The compiled rows, every slab allocated at its final size; no node
/// until the first fold.
#[derive(Debug, Default)]
struct Csr {
    /// `n + 1` prefix offsets into `l0`: node `s`'s level-0 neighbors are
    /// `l0[l0_off[s] .. l0_off[s + 1]]`.
    l0_off: Vec<u32>,
    l0: Ids,
    /// `n + 1` prefix sums of upper rows per node: node `s` owns rows
    /// `upper_base[s] .. upper_base[s + 1]` (one per level `1..=top`).
    upper_base: Vec<u32>,
    /// `total_rows + 1` prefix offsets into `upper`.
    upper_row_off: Vec<u32>,
    upper: Ids,
}

impl Csr {
    fn len(&self) -> usize {
        self.l0_off.len().saturating_sub(1)
    }

    /// The list of `slot` on `lvl`; levels above the node's top read as
    /// empty.
    #[inline]
    fn row(&self, slot: u32, lvl: u8) -> Row<'_> {
        let s = slot as usize;
        if lvl == 0 {
            return self
                .l0
                .row(self.l0_off[s] as usize..self.l0_off[s + 1] as usize);
        }
        let row = self.upper_base[s] as usize + usize::from(lvl) - 1;
        if row >= self.upper_base[s + 1] as usize {
            return Row::U32(&[]);
        }
        let off = &self.upper_row_off;
        self.upper.row(off[row] as usize..off[row + 1] as usize)
    }

    fn memory_bytes(&self) -> usize {
        let offsets = self.l0_off.capacity() + self.upper_base.capacity();
        (offsets + self.upper_row_off.capacity()) * size_of::<u32>()
            + self.l0.bytes()
            + self.upper.bytes()
    }
}

/// Bytes one neighbor id takes in the compiled rows of an index holding
/// `slots` slots.
pub(crate) fn id_bytes(slots: usize) -> usize {
    if slots <= NARROW_SLOTS {
        size_of::<u16>()
    } else {
        size_of::<u32>()
    }
}

/// One node's edited rows, one `u32` list per level `0..=top`.
type EditedRows = Box<[Vec<u32>]>;

/// An index's adjacency: the compiled rows and the edit set.
#[derive(Clone, Debug, Default)]
pub(crate) struct Adjacency {
    csr: Arc<Csr>,
    /// `Some` for every slot written since the last fold; slots past its
    /// end read from `csr`. No table at all after a fold.
    edits: Vec<Option<EditedRows>>,
}

impl Adjacency {
    /// An adjacency of edits only, `rows[s]` being slot `s`'s lists.
    pub(crate) fn unfolded(rows: Vec<EditedRows>) -> Self {
        Adjacency {
            csr: Arc::default(),
            edits: rows.into_iter().map(Some).collect(),
        }
    }

    /// Slots the adjacency holds rows for.
    pub(crate) fn len(&self) -> usize {
        self.csr.len().max(self.edits.len())
    }

    /// Whether some row was written since the last fold.
    pub(crate) fn has_edits(&self) -> bool {
        !self.edits.is_empty()
    }

    /// Whether no fold ever ran: every row is an edit.
    pub(crate) fn never_folded(&self) -> bool {
        self.csr.len() == 0
    }

    /// Whether another index shares the compiled rows.
    pub(crate) fn shares_rows(&self) -> bool {
        Arc::strong_count(&self.csr) > 1
    }

    /// The list of `slot` on `lvl`, at its stored width.
    #[inline]
    pub(crate) fn row(&self, slot: u32, lvl: u8) -> Row<'_> {
        match self.edits.get(slot as usize) {
            Some(Some(rows)) => Row::U32(rows.get(usize::from(lvl)).map_or(&[], Vec::as_slice)),
            _ => self.csr.row(slot, lvl),
        }
    }

    /// Request the head of `slot`'s compiled level-0 row (while nothing is
    /// pending, when every row is compiled).
    #[inline]
    pub(crate) fn prefetch_l0_row(&self, slot: u32) {
        self.csr
            .l0
            .prefetch(self.csr.l0_off[slot as usize] as usize);
    }

    /// `slot`'s list on `lvl`, for writing: the first write to a slot since
    /// the last fold copies all its rows into the edit set.
    pub(crate) fn row_mut(&mut self, slot: u32, lvl: u8) -> &mut Vec<u32> {
        let s = slot as usize;
        if self.edits.len() <= s {
            self.edits.resize_with(s + 1, || None);
        }
        let csr = &self.csr;
        let rows = self.edits[s].get_or_insert_with(|| {
            let top = (csr.upper_base[s + 1] - csr.upper_base[s]) as u8;
            (0..=top).map(|l| csr.row(slot, l).to_vec()).collect()
        });
        &mut rows[usize::from(lvl)]
    }

    /// Add slot `slot`, the next one, with `top + 1` empty lists.
    pub(crate) fn push_slot(&mut self, slot: u32, top: u8) {
        debug_assert!(slot as usize >= self.len());
        self.edits.resize_with(slot as usize, || None);
        let rows = vec![Vec::new(); usize::from(top) + 1];
        self.edits.push(Some(rows.into()));
    }

    /// `(neighbor ids, upper-level rows)` of nodes whose tops are `levels`.
    pub(crate) fn link_counts(&self, levels: &[u8]) -> (usize, usize) {
        let mut ids = 0;
        for (s, &top) in levels.iter().enumerate() {
            ids += (0..=top)
                .map(|l| self.row(s as u32, l).len())
                .sum::<usize>();
        }
        (ids, levels.iter().map(|&l| usize::from(l)).sum())
    }

    /// Resident bytes of the edit set: its slot table and every edited
    /// node's lists, by capacity.
    pub(crate) fn edit_bytes(&self) -> usize {
        let mut bytes = self.edits.capacity() * size_of::<Option<EditedRows>>();
        for rows in self.edits.iter().flatten() {
            bytes += rows.len() * size_of::<Vec<u32>>();
            bytes += rows.iter().map(Vec::capacity).sum::<usize>() * size_of::<u32>();
        }
        bytes
    }

    /// Resident bytes of the compiled rows.
    pub(crate) fn compiled_bytes(&self) -> usize {
        self.csr.memory_bytes()
    }

    /// BFS renumbering from `entry` over level 0 of an `n`-slot graph:
    /// `perm[old_slot] = new_slot`. The entry becomes slot 0, its neighbors
    /// 1, 2, … in list order, and so on breadth-first; slots unreachable on
    /// level 0 follow in ascending old-slot order. A fold keeps every list's
    /// order, so on a folded graph this is the identity, and refolding it
    /// keeps snapshot bytes stable.
    pub(crate) fn bfs_order(&self, n: usize, entry: u32) -> Vec<u32> {
        let mut perm = vec![u32::MAX; n];
        let mut next: u32 = 0;
        let mut queue = VecDeque::new();
        let mut row = Vec::new();
        perm[entry as usize] = next;
        next += 1;
        queue.push_back(entry);
        while let Some(s) = queue.pop_front() {
            row.clear();
            self.row(s, 0).extend_into(&mut row);
            for &nb in &row {
                if perm[nb as usize] == u32::MAX {
                    perm[nb as usize] = next;
                    next += 1;
                    queue.push_back(nb);
                }
            }
        }
        for p in &mut perm {
            if *p == u32::MAX {
                *p = next;
                next += 1;
            }
        }
        perm
    }

    /// Every row folded into new compiled rows, with no edit set. Node `s`
    /// has `levels[s] + 1` lists and lands at slot `perm[s]`, every id
    /// renumbered through `perm` as it is streamed; each list keeps its
    /// order, so traversal visit order — and results — do not change.
    pub(crate) fn folded(&self, levels: &[u8], perm: &[u32]) -> Adjacency {
        if levels.len() <= NARROW_SLOTS {
            self.folded_as(levels, perm, Ids::U16)
        } else {
            self.folded_as(levels, perm, Ids::U32)
        }
    }

    /// [`Self::folded`] into slabs of `T` ids (`slab` is `Ids::U16` or
    /// `Ids::U32`). Panics if a slot id does not fit.
    pub(crate) fn folded_as<T: Copy + TryFrom<u32>>(
        &self,
        levels: &[u8],
        perm: &[u32],
        slab: fn(Vec<T>) -> Ids,
    ) -> Adjacency {
        let n = levels.len();
        let mut old_of = vec![0u32; n];
        for (old, &new) in perm.iter().enumerate() {
            old_of[new as usize] = old as u32;
        }
        let (ids, rows) = self.link_counts(levels);
        let l0_ids: usize = (0..n as u32).map(|s| self.row(s, 0).len()).sum();
        let mut csr = Csr {
            l0_off: Vec::with_capacity(n + 1),
            upper_base: Vec::with_capacity(n + 1),
            upper_row_off: Vec::with_capacity(rows + 1),
            ..Csr::default()
        };
        let (mut l0, mut upper) = (Vec::with_capacity(l0_ids), Vec::with_capacity(ids - l0_ids));
        csr.l0_off.push(0);
        csr.upper_base.push(0);
        csr.upper_row_off.push(0);
        let mut row = Vec::new();
        for old in old_of {
            for lvl in 0..=levels[old as usize] {
                row.clear();
                self.row(old, lvl).extend_into(&mut row);
                let renumbered = row.iter().map(|&nb| {
                    let new = perm[nb as usize];
                    T::try_from(new)
                        .ok()
                        .expect("slot id exceeds the link width")
                });
                if lvl == 0 {
                    l0.extend(renumbered);
                    csr.l0_off.push(l0.len() as u32);
                } else {
                    upper.extend(renumbered);
                    csr.upper_row_off.push(upper.len() as u32);
                }
            }
            csr.upper_base.push((csr.upper_row_off.len() - 1) as u32);
        }
        (csr.l0, csr.upper) = (slab(l0), slab(upper));
        Adjacency {
            csr: Arc::new(csr),
            edits: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node 0 has levels 0..=2, node 1 levels 0..=0, node 2 levels 0..=1,
    /// node 3 an empty level-0 list.
    fn lists() -> Vec<Vec<Vec<u32>>> {
        vec![
            vec![vec![1, 2], vec![2], vec![]],
            vec![vec![0, 3]],
            vec![vec![0], vec![0]],
            vec![vec![]],
        ]
    }

    fn unfolded(lists: &[Vec<Vec<u32>>]) -> (Adjacency, Vec<u8>) {
        let levels = lists.iter().map(|l| (l.len() - 1) as u8).collect();
        let rows = lists.iter().map(|l| l.clone().into_boxed_slice()).collect();
        (Adjacency::unfolded(rows), levels)
    }

    fn read_back(adj: &Adjacency, levels: &[u8]) -> Vec<Vec<Vec<u32>>> {
        let rows = |s: usize| (0..=levels[s]).map(move |l| adj.row(s as u32, l).to_vec());
        (0..levels.len()).map(|s| rows(s).collect()).collect()
    }

    #[test]
    fn a_fold_keeps_every_row_and_frees_the_edit_set() {
        let lists = lists();
        let (edits, levels) = unfolded(&lists);
        assert!(edits.has_edits() && edits.never_folded());
        let folded = edits.folded(&levels, &[0, 1, 2, 3]);
        assert!(!folded.has_edits() && !folded.never_folded());
        assert_eq!(folded.edits.capacity(), 0, "no slot table is kept");
        assert!(matches!(folded.row(0, 0), Row::U16(_)));
        for adj in [&edits, &folded] {
            assert_eq!(read_back(adj, &levels), lists);
            for s in 0..4u32 {
                // Levels above a node's top read as empty.
                assert_eq!(adj.row(s, 3).len(), 0);
                assert_eq!(adj.row(s, 63).len(), 0);
            }
            assert_eq!(adj.link_counts(&levels), (7, 3));
        }
    }

    /// The first write to a compiled slot copies its rows, widened; the
    /// other slots keep reading the shared compiled rows, and so does a
    /// clone taken before the write.
    #[test]
    fn a_write_copies_the_slots_rows_and_nothing_else() {
        let (edits, levels) = unfolded(&lists());
        let base = edits.folded(&levels, &[0, 1, 2, 3]);
        let mut adj = base.clone();
        assert!(base.shares_rows() && adj.shares_rows());
        adj.row_mut(2, 1).push(3);
        assert_eq!(adj.edits.iter().flatten().count(), 1);
        assert_eq!(adj.row(2, 0).to_vec(), [0]);
        assert_eq!(adj.row(2, 1).to_vec(), [0, 3]);
        assert!(matches!(adj.row(2, 1), Row::U32(_)));
        assert!(matches!(adj.row(0, 0), Row::U16(_)));
        assert_eq!(base.row(2, 1).to_vec(), [0]);
        adj.push_slot(4, 1);
        assert_eq!((adj.len(), adj.row(4, 1).len()), (5, 0));
    }

    /// A ring of `n` nodes: each lists its two ring neighbours on level 0,
    /// and every 64th node also has a level-1 row naming the next such node.
    fn ring(n: usize) -> Vec<Vec<Vec<u32>>> {
        (0..n)
            .map(|s| {
                let l0 = vec![((s + 1) % n) as u32, ((s + n - 1) % n) as u32];
                if s % 64 == 0 {
                    vec![l0, vec![((s + 64) % n) as u32]]
                } else {
                    vec![l0]
                }
            })
            .collect()
    }

    /// The width follows the slot count: 65 536 slots still fold to `u16`
    /// ids (slot 65 535 is the largest id), one more slot to `u32`. Both
    /// read back exactly, and the slabs are sized at their id width plus
    /// the `u32` offset tables.
    #[test]
    fn the_link_width_follows_the_slot_count() {
        for (n, narrow) in [(NARROW_SLOTS, true), (NARROW_SLOTS + 1, false)] {
            let lists = ring(n);
            let (edits, levels) = unfolded(&lists);
            let identity: Vec<u32> = (0..n as u32).collect();
            let g = edits.folded(&levels, &identity);
            assert_eq!(matches!(g.row(0, 0), Row::U16(_)), narrow, "{n} slots");
            assert_eq!(read_back(&g, &levels), lists, "{n} slots");
            let (ids, rows) = g.link_counts(&levels);
            assert_eq!((ids, rows), (2 * n + rows, n.div_ceil(64)));
            assert_eq!(
                g.compiled_bytes(),
                ids * id_bytes(n) + (2 * (n + 1) + rows + 1) * size_of::<u32>(),
                "{n} slots"
            );
        }
        assert_eq!((id_bytes(NARROW_SLOTS), id_bytes(NARROW_SLOTS + 1)), (2, 4));
    }

    #[test]
    fn bfs_order_is_breadth_first_and_covers_strays() {
        // 0 -> {2, 1}, 2 -> {4}; 3 is unreachable on level 0.
        let lists: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![2, 1]],
            vec![vec![0]],
            vec![vec![4]],
            vec![vec![]],
            vec![vec![]],
        ];
        let (adj, _) = unfolded(&lists);
        // entry=0, then neighbors in list order (2 then 1), then 2's
        // neighbor 4, then the unreachable 3 appended last.
        assert_eq!(adj.bfs_order(5, 0), vec![0, 2, 1, 4, 3]);
    }

    /// A fold along the BFS order moves node `s` to `perm[s]` and renumbers
    /// its ids; the BFS of the result is the identity.
    #[test]
    fn a_permuted_fold_renumbers_and_bfs_is_idempotent() {
        let lists = lists();
        let (adj, levels) = unfolded(&lists);
        let perm = adj.bfs_order(4, 0);
        let folded = adj.folded(&levels, &perm);
        let mut new_levels = levels.clone();
        for (s, &p) in perm.iter().enumerate() {
            new_levels[p as usize] = levels[s];
        }
        let got = read_back(&folded, &new_levels);
        for (s, per_node) in lists.iter().enumerate() {
            let renumbered: Vec<Vec<u32>> = per_node
                .iter()
                .map(|l| l.iter().map(|&nb| perm[nb as usize]).collect())
                .collect();
            assert_eq!(got[perm[s] as usize], renumbered, "node {s}");
        }
        let again = folded.bfs_order(4, perm[0]);
        assert!(again.iter().enumerate().all(|(i, &p)| p as usize == i));
    }
}
