//! Frozen, cache-conscious graph representation.
//!
//! The mutable index stores adjacency as a `Vec<Vec<Vec<u32>>>` forest —
//! three pointer hops and a separate heap allocation per node per level, so
//! every beam-search step is a cache-miss chain even though the distance
//! kernels are SIMD-speed and allocation-free. [`PackedGraph`] is the
//! compiled search form: level 0 (where almost all traversal work happens)
//! becomes one contiguous CSR — a single `u32` neighbor slab plus `n + 1`
//! prefix offsets — and the sparse upper levels pack into a second small
//! slab addressed through a per-node row base. Reading a neighbor list is
//! one offset lookup into an arena that the hardware prefetcher can stream.
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
//! forest (`PackedGraph::to_links`), and the vacuum/index-merge policy
//! recompiles. Correctness therefore never depends on layout freshness.

use crate::search::GraphView;
use std::collections::VecDeque;
use tv_common::kernels::prefetch;

/// CSR-packed adjacency: the frozen search representation compiled from the
/// per-node `Vec` forest at index-merge/snapshot-load time.
#[derive(Clone, Debug)]
pub(crate) struct PackedGraph {
    /// `n + 1` prefix offsets into [`Self::l0_nbr`]; node `s`'s level-0
    /// neighbors are `l0_nbr[l0_off[s] .. l0_off[s + 1]]`.
    l0_off: Vec<u32>,
    /// Level-0 neighbor slab, concatenated in slot order.
    l0_nbr: Vec<u32>,
    /// `n + 1` prefix sums of upper rows per node: node `s` owns rows
    /// `upper_base[s] .. upper_base[s + 1]` (one row per level `1..=top`).
    upper_base: Vec<u32>,
    /// `total_rows + 1` prefix offsets into [`Self::upper_nbr`].
    upper_row_off: Vec<u32>,
    /// Upper-level neighbor slab.
    upper_nbr: Vec<u32>,
}

impl PackedGraph {
    /// Compile the forest into CSR slabs. Neighbor order within every list
    /// is preserved exactly, so traversal visit order — and therefore
    /// results — match the pointer form bit for bit.
    pub(crate) fn build(links: &[Vec<Vec<u32>>]) -> Self {
        let n = links.len();
        let mut l0_off = Vec::with_capacity(n + 1);
        let mut l0_nbr = Vec::new();
        let mut upper_base = Vec::with_capacity(n + 1);
        let mut rows = 0u32;
        l0_off.push(0u32);
        upper_base.push(0u32);
        for per_node in links {
            if let Some(l0) = per_node.first() {
                l0_nbr.extend_from_slice(l0);
            }
            l0_off.push(l0_nbr.len() as u32);
            rows += per_node.len().saturating_sub(1) as u32;
            upper_base.push(rows);
        }
        let mut upper_row_off = Vec::with_capacity(rows as usize + 1);
        let mut upper_nbr = Vec::new();
        upper_row_off.push(0u32);
        for per_node in links {
            for level_list in per_node.iter().skip(1) {
                upper_nbr.extend_from_slice(level_list);
                upper_row_off.push(upper_nbr.len() as u32);
            }
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
    pub(crate) fn row(&self, slot: u32, lvl: u8) -> &[u32] {
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

    /// Thaw back into the mutable forest (mutation paths and snapshot
    /// serialization). Node `s` gets `1 + upper_rows(s)` level lists, which
    /// is exactly the `levels[s] + 1` lists the forest held at compile time.
    pub(crate) fn to_links(&self) -> Vec<Vec<Vec<u32>>> {
        let n = self.len();
        (0..n)
            .map(|s| {
                let rows = (self.upper_base[s + 1] - self.upper_base[s]) as usize;
                let mut per_node = Vec::with_capacity(rows + 1);
                per_node.push(self.row(s as u32, 0).to_vec());
                for lvl in 1..=rows {
                    per_node.push(self.row(s as u32, lvl as u8).to_vec());
                }
                per_node
            })
            .collect()
    }

    /// Resident bytes of the five slabs (exact — CSR vectors are built once
    /// at final size, so capacity equals length).
    pub(crate) fn memory_bytes(&self) -> usize {
        (self.l0_off.len()
            + self.l0_nbr.len()
            + self.upper_base.len()
            + self.upper_row_off.len()
            + self.upper_nbr.len())
            * std::mem::size_of::<u32>()
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
impl GraphView for PackedGraph {
    const PREFETCH: bool = true;

    #[inline]
    fn neighbors(&self, slot: u32, lvl: u8) -> &[u32] {
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
        let pg = PackedGraph::build(&links);
        assert_eq!(pg.len(), links.len());
        for (s, per_node) in links.iter().enumerate() {
            for (lvl, list) in per_node.iter().enumerate() {
                assert_eq!(
                    pg.row(s as u32, lvl as u8),
                    list.as_slice(),
                    "node {s} level {lvl}"
                );
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
        let pg = PackedGraph::build(&links);
        assert_eq!(pg.to_links(), links);
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
        let pg = PackedGraph::build(&links);
        assert!(pg.row(0, 0).is_empty());
        assert!(pg.row(1, 1).is_empty());
        assert_eq!(pg.to_links(), links);
        assert_eq!(pg.neighbor_count(), 0);
    }
}
