//! Frozen, cache-conscious graph representation.
//!
//! The mutable index stores adjacency as a `Vec<Vec<Vec<u32>>>` forest —
//! three pointer hops and a separate heap allocation per node per level, so
//! every beam-search step is a cache-miss chain even though the distance
//! kernels are SIMD-speed and allocation-free. [`PackedGraph`] is the
//! compiled search form: level 0 (where almost all traversal work happens)
//! becomes one contiguous CSR — a neighbor slab plus `n + 1` `u32` prefix
//! offsets — and the sparse upper levels pack into a second small slab
//! addressed through a per-node row base. Reading a neighbor list is one
//! offset lookup into an arena that the hardware prefetcher can stream.
//!
//! The slabs store neighbor ids at the narrowest width the slot count
//! allows ([`CompiledGraph`]): `u16` for an index of at most
//! [`NARROW_SLOTS`] slots — every segment index at its default capacity —
//! and `u32` above that (the single-index comparators, a segment declared
//! or grown past it). Reads widen an id where it is copied anyway, so the
//! traversal is the same code at either width. The offset tables stay
//! `u32`: `n · m0` ids overflow 16 bits.
//!
//! Compilation also renumbers slots by BFS order from the entry point
//! ([`bfs_order`]), so nodes that are neighbors in traversal are neighbors
//! in memory — the adjacency rows *and* the permuted vector/code rows of a
//! beam's candidates land in the same few pages. The permutation is applied
//! to every slot-indexed structure by `HnswIndex::apply_permutation`;
//! results stay bit-identical modulo the renumbering (locked by the
//! layout-oracle test suite).
//!
//! The packed form is read-only: mutations thaw the index back to the
//! forest (`CompiledGraph::to_links`), and the vacuum/index-merge policy
//! recompiles. Correctness therefore never depends on layout freshness.
//! A snapshot is written from the rows directly, without thawing.

use crate::search::GraphView;
use std::collections::VecDeque;
use std::mem::size_of;
use tv_common::kernels::prefetch;

/// Most slots an index may hold for its compiled graph to store neighbor
/// ids as `u16` (slot ids `0..=u16::MAX`).
pub(crate) const NARROW_SLOTS: usize = 1 << 16;

/// CSR-packed adjacency with neighbor ids of type `T` (`u16` or `u32`):
/// the frozen search representation compiled from the per-node `Vec`
/// forest at index-merge/snapshot-load time.
#[derive(Clone, Debug)]
pub(crate) struct PackedGraph<T> {
    /// `n + 1` prefix offsets into [`Self::l0_nbr`]; node `s`'s level-0
    /// neighbors are `l0_nbr[l0_off[s] .. l0_off[s + 1]]`.
    l0_off: Vec<u32>,
    /// Level-0 neighbor slab, concatenated in slot order.
    l0_nbr: Vec<T>,
    /// `n + 1` prefix sums of upper rows per node: node `s` owns rows
    /// `upper_base[s] .. upper_base[s + 1]` (one row per level `1..=top`).
    upper_base: Vec<u32>,
    /// `total_rows + 1` prefix offsets into [`Self::upper_nbr`].
    upper_row_off: Vec<u32>,
    /// Upper-level neighbor slab.
    upper_nbr: Vec<T>,
}

impl<T: Copy + Into<u32> + TryFrom<u32>> PackedGraph<T> {
    /// Compile the forest into CSR slabs, each allocated at its final size.
    /// Neighbor order within every list is preserved exactly, so traversal
    /// visit order — and therefore results — match the pointer form bit
    /// for bit. Panics if a neighbor id does not fit `T`.
    pub(crate) fn build(links: &[Vec<Vec<u32>>]) -> Self {
        let n = links.len();
        let (mut l0_ids, mut rows, mut upper_ids) = (0, 0, 0);
        for per_node in links {
            l0_ids += per_node.first().map_or(0, Vec::len);
            rows += per_node.len().saturating_sub(1);
            upper_ids += per_node.iter().skip(1).map(Vec::len).sum::<usize>();
        }
        let narrow = |nb: &u32| {
            T::try_from(*nb)
                .ok()
                .expect("slot id exceeds the link width")
        };
        let mut l0_off = Vec::with_capacity(n + 1);
        let mut l0_nbr = Vec::with_capacity(l0_ids);
        let mut upper_base = Vec::with_capacity(n + 1);
        let mut upper_row_off = Vec::with_capacity(rows + 1);
        let mut upper_nbr = Vec::with_capacity(upper_ids);
        l0_off.push(0u32);
        upper_base.push(0u32);
        upper_row_off.push(0u32);
        for per_node in links {
            if let Some(l0) = per_node.first() {
                l0_nbr.extend(l0.iter().map(narrow));
            }
            l0_off.push(l0_nbr.len() as u32);
            for level_list in per_node.iter().skip(1) {
                upper_nbr.extend(level_list.iter().map(narrow));
                upper_row_off.push(upper_nbr.len() as u32);
            }
            upper_base.push((upper_row_off.len() - 1) as u32);
        }
        PackedGraph {
            l0_off,
            l0_nbr,
            upper_base,
            upper_row_off,
            upper_nbr,
        }
    }

    /// Node count.
    pub(crate) fn len(&self) -> usize {
        self.l0_off.len() - 1
    }

    /// The neighbor list of `slot` on `lvl` — one offset lookup, no pointer
    /// chase. Levels above the node's top return an empty slice, matching
    /// the forest's `per_node.get(lvl)` shape for out-of-range reads.
    #[inline]
    pub(crate) fn row(&self, slot: u32, lvl: u8) -> &[T] {
        let s = slot as usize;
        if lvl == 0 {
            &self.l0_nbr[self.l0_off[s] as usize..self.l0_off[s + 1] as usize]
        } else {
            let base = self.upper_base[s];
            let rows = self.upper_base[s + 1] - base;
            let r = u32::from(lvl) - 1;
            if r >= rows {
                return &[];
            }
            let row = (base + r) as usize;
            &self.upper_nbr[self.upper_row_off[row] as usize..self.upper_row_off[row + 1] as usize]
        }
    }

    /// Thaw back into the mutable forest (mutation paths). Node `s` gets
    /// `1 + upper_rows(s)` level lists, which is exactly the `levels[s] + 1`
    /// lists the forest held at compile time.
    pub(crate) fn to_links(&self) -> Vec<Vec<Vec<u32>>> {
        let n = self.len();
        (0..n)
            .map(|s| {
                let rows = (self.upper_base[s + 1] - self.upper_base[s]) as usize;
                (0..=rows)
                    .map(|lvl| {
                        let row = self.row(s as u32, lvl as u8);
                        row.iter().map(|&nb| nb.into()).collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Resident bytes of the five slabs: the three `u32` offset tables and
    /// the two neighbor slabs at `size_of::<T>()` per id. `build` allocates
    /// every slab at its final size, so this equals the length-based
    /// estimate `HnswIndex::link_memory_bytes` gives before compiling.
    pub(crate) fn memory_bytes(&self) -> usize {
        (self.l0_off.capacity() + self.upper_base.capacity() + self.upper_row_off.capacity())
            * size_of::<u32>()
            + (self.l0_nbr.capacity() + self.upper_nbr.capacity()) * size_of::<T>()
    }

    /// Total stored neighbor ids across all levels.
    pub(crate) fn neighbor_count(&self) -> usize {
        self.l0_nbr.len() + self.upper_nbr.len()
    }

    /// Total upper-level rows (Σ levels\[s\]).
    pub(crate) fn upper_row_count(&self) -> usize {
        self.upper_row_off.len() - 1
    }
}

/// The compiled form is the one view that prefetches: its rows are
/// contiguous and BFS-ordered, so the addresses a hop will touch are known
/// while the previous hop is still being scored.
impl<T: Copy + Into<u32> + TryFrom<u32>> GraphView for PackedGraph<T> {
    type Id = T;
    const PREFETCH: bool = true;

    #[inline]
    fn neighbors(&self, slot: u32, lvl: u8) -> &[T] {
        self.row(slot, lvl)
    }

    /// Prefetch the head of `slot`'s level-0 adjacency row (issued when a
    /// candidate enters the frontier, ahead of the pop that reads its list).
    #[inline]
    fn prefetch_l0_row(&self, slot: u32) {
        let off = self.l0_off[slot as usize] as usize;
        prefetch(self.l0_nbr.as_ptr().wrapping_add(off).cast::<u8>());
    }
}

/// An index's compiled graph at the one width its slot count allows,
/// chosen when it is compiled: `u16` ids up to [`NARROW_SLOTS`] slots,
/// `u32` above.
#[derive(Clone, Debug)]
pub(crate) enum CompiledGraph {
    Narrow(PackedGraph<u16>),
    Wide(PackedGraph<u32>),
}

/// Run `$body` with `$p` bound to the [`PackedGraph`] inside a
/// [`CompiledGraph`], whichever width it holds (each arm is monomorphized
/// for its width, so nothing inside `$body` branches on it).
macro_rules! with_width {
    ($graph:expr, $p:ident => $body:expr) => {
        match $graph {
            $crate::packed::CompiledGraph::Narrow($p) => $body,
            $crate::packed::CompiledGraph::Wide($p) => $body,
        }
    };
}
pub(crate) use with_width;

/// Bytes one neighbor id takes in the compiled graph of an index holding
/// `slots` slots.
pub(crate) fn id_bytes(slots: usize) -> usize {
    if slots <= NARROW_SLOTS {
        size_of::<u16>()
    } else {
        size_of::<u32>()
    }
}

impl CompiledGraph {
    /// Compile the forest at the width its node count allows.
    pub(crate) fn build(links: &[Vec<Vec<u32>>]) -> Self {
        if links.len() <= NARROW_SLOTS {
            CompiledGraph::Narrow(PackedGraph::build(links))
        } else {
            CompiledGraph::Wide(PackedGraph::build(links))
        }
    }

    /// Thaw back into the mutable forest.
    pub(crate) fn to_links(&self) -> Vec<Vec<Vec<u32>>> {
        with_width!(self, p => p.to_links())
    }

    /// Resident bytes ([`PackedGraph::memory_bytes`]).
    pub(crate) fn memory_bytes(&self) -> usize {
        with_width!(self, p => p.memory_bytes())
    }

    /// `(stored neighbor ids, upper-level rows)`.
    pub(crate) fn link_counts(&self) -> (usize, usize) {
        with_width!(self, p => (p.neighbor_count(), p.upper_row_count()))
    }
}

/// BFS renumbering from the entry point over level-0 adjacency: returns
/// `perm` with `perm[old_slot] = new_slot`. The entry becomes slot 0, its
/// neighbors 1, 2, … in list order, and so on breadth-first; slots
/// unreachable on level 0 are appended in ascending old-slot order.
///
/// The ordering is **idempotent**: on an already-BFS-ordered graph the BFS
/// re-discovers slots in exactly their current order (neighbor lists were
/// permuted but not reordered internally), so recompiling a compiled graph
/// yields the identity permutation and snapshot bytes stay stable.
pub(crate) fn bfs_order(links: &[Vec<Vec<u32>>], entry: u32) -> Vec<u32> {
    let n = links.len();
    let mut perm = vec![u32::MAX; n];
    let mut next: u32 = 0;
    let mut queue = VecDeque::new();
    perm[entry as usize] = next;
    next += 1;
    queue.push_back(entry);
    while let Some(s) = queue.pop_front() {
        if let Some(l0) = links[s as usize].first() {
            for &nb in l0 {
                if perm[nb as usize] == u32::MAX {
                    perm[nb as usize] = next;
                    next += 1;
                    queue.push_back(nb);
                }
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

/// True iff `perm` maps every slot to itself.
pub(crate) fn is_identity(perm: &[u32]) -> bool {
    perm.iter().enumerate().all(|(i, &p)| p as usize == i)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small forest: node 0 has levels 0..=2, node 1 levels 0..=0,
    /// node 2 levels 0..=1, node 3 has an empty level-0 list.
    fn forest() -> Vec<Vec<Vec<u32>>> {
        vec![
            vec![vec![1, 2], vec![2], vec![]],
            vec![vec![0, 3]],
            vec![vec![0], vec![0]],
            vec![vec![]],
        ]
    }

    #[test]
    fn csr_matches_forest_on_every_level() {
        let links = forest();
        let pg = PackedGraph::<u16>::build(&links);
        assert_eq!(pg.len(), links.len());
        for (s, per_node) in links.iter().enumerate() {
            for (lvl, list) in per_node.iter().enumerate() {
                let row: Vec<u32> = pg
                    .row(s as u32, lvl as u8)
                    .iter()
                    .map(|&nb| nb.into())
                    .collect();
                assert_eq!(&row, list, "node {s} level {lvl}");
            }
            // Levels above the node's top read as empty.
            assert!(pg.row(s as u32, per_node.len() as u8).is_empty());
            assert!(pg.row(s as u32, 63).is_empty());
        }
        assert_eq!(pg.neighbor_count(), 7);
        assert_eq!(pg.upper_row_count(), 3);
    }

    #[test]
    fn thaw_roundtrips_exactly() {
        let links = forest();
        assert_eq!(PackedGraph::<u16>::build(&links).to_links(), links);
        assert_eq!(PackedGraph::<u32>::build(&links).to_links(), links);
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

    /// The width follows the slot count: 65 536 slots still compile to
    /// `u16` ids (slot 65 535 is the largest id), one more slot to `u32`.
    /// Both thaw back to the forest exactly, and the slabs are sized at
    /// their id width plus the `u32` offset tables.
    #[test]
    fn the_link_width_follows_the_slot_count() {
        for (n, narrow) in [(NARROW_SLOTS, true), (NARROW_SLOTS + 1, false)] {
            let links = ring(n);
            let g = CompiledGraph::build(&links);
            assert_eq!(matches!(g, CompiledGraph::Narrow(_)), narrow, "{n} slots");
            assert_eq!(g.to_links(), links, "{n} slots");
            let (ids, rows) = g.link_counts();
            assert_eq!((ids, rows), (2 * n + rows, n.div_ceil(64)));
            assert_eq!(
                g.memory_bytes(),
                ids * id_bytes(n) + (2 * (n + 1) + rows + 1) * size_of::<u32>(),
                "{n} slots"
            );
        }
        assert_eq!((id_bytes(NARROW_SLOTS), id_bytes(NARROW_SLOTS + 1)), (2, 4));
    }

    #[test]
    fn bfs_order_is_breadth_first_and_covers_strays() {
        // 0 -> {2, 1}, 2 -> {4}; 3 is unreachable on level 0.
        let links: Vec<Vec<Vec<u32>>> = vec![
            vec![vec![2, 1]],
            vec![vec![0]],
            vec![vec![4]],
            vec![vec![]],
            vec![vec![]],
        ];
        let perm = bfs_order(&links, 0);
        // entry=0, then neighbors in list order (2 then 1), then 2's
        // neighbor 4, then the unreachable 3 appended last.
        assert_eq!(perm, vec![0, 2, 1, 4, 3]);
    }

    #[test]
    fn bfs_order_is_idempotent() {
        let links = forest();
        let perm = bfs_order(&links, 0);
        // Apply the permutation: new_links[perm[s]] = map(links[s]).
        let mut permuted = vec![Vec::new(); links.len()];
        for (s, per_node) in links.iter().enumerate() {
            permuted[perm[s] as usize] = per_node
                .iter()
                .map(|l| l.iter().map(|&nb| perm[nb as usize]).collect())
                .collect();
        }
        let again = bfs_order(&permuted, perm[0]);
        assert!(is_identity(&again), "re-running BFS must be the identity");
    }

    #[test]
    fn empty_level0_lists_pack_and_thaw() {
        let links: Vec<Vec<Vec<u32>>> = vec![vec![vec![]], vec![vec![], vec![]]];
        let pg = PackedGraph::<u16>::build(&links);
        assert!(pg.row(0, 0).is_empty());
        assert!(pg.row(1, 1).is_empty());
        assert_eq!(pg.to_links(), links);
        assert_eq!(pg.neighbor_count(), 0);
    }
}
