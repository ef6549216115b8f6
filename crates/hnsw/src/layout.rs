//! The two adjacency forms of an index and the moves between them: the
//! mutable pointer forest every build and update runs on, and the one
//! compiled form ([`crate::packed::PackedGraph`]: CSR slabs, BFS-renumbered
//! slots, prefetching traversal, neighbor ids as narrow as the slot count
//! allows) queries are served from.

use crate::index::{HnswIndex, NO_SLOT};
use crate::packed::{self, CompiledGraph};
use tv_common::GraphLayout;

impl HnswIndex {
    /// The adjacency representation currently resident: `Pointer` until
    /// [`Self::compile_layout`] freezes the graph, then `PackedPrefetch`
    /// until the next mutation thaws it.
    #[must_use]
    pub fn layout(&self) -> GraphLayout {
        match &self.packed {
            None => GraphLayout::Pointer,
            Some(_) => GraphLayout::PackedPrefetch,
        }
    }

    /// Compile the frozen, cache-conscious search layout: renumber slots in
    /// BFS order from the entry point (applied to every slot-indexed
    /// structure — vectors, norms, keys, levels, tombstones, links, entry,
    /// quantized code slabs, the local→slot table's entries; the live mask
    /// is keyed by local id and is unaffected), then freeze the adjacency
    /// into CSR slabs ([`crate::packed`]) whose neighbor ids are `u16` when
    /// the index holds at most 65 536 slots and `u32` otherwise. `Pointer`
    /// thaws instead. Returns true iff the index is compiled afterwards;
    /// empty indexes stay uncompiled.
    ///
    /// Search results are bit-identical across layouts (modulo the slot
    /// renumbering, which is invisible through the key-based API).
    /// Mutations transparently thaw back to the pointer form; the
    /// vacuum/index-merge policy recompiles, so correctness never depends
    /// on layout freshness.
    pub fn compile_layout(&mut self, layout: GraphLayout) -> bool {
        if !layout.is_packed() {
            self.ensure_mutable();
            return false;
        }
        if self.packed.is_some() {
            // Already frozen — mutations thaw, so the graph cannot have
            // changed since compilation.
            return true;
        }
        let Some((entry, _)) = self.entry else {
            return false;
        };
        let perm = packed::bfs_order(&self.links, entry);
        if !packed::is_identity(&perm) {
            self.apply_permutation(&perm);
        }
        self.compile_from_stored();
        true
    }

    /// Thaw the compiled layout back into the mutable forest. Called at
    /// the top of every mutation path. The BFS slot renumbering is kept
    /// (it is just as valid for a mutable graph); only the storage form
    /// reverts, so results do not change.
    pub(crate) fn ensure_mutable(&mut self) {
        if let Some(p) = self.packed.take() {
            self.links = p.to_links();
        }
    }

    /// Freeze the CSR directly from already-BFS-ordered links (snapshot
    /// load). The stored slot order *is* the compiled order, so no
    /// re-permutation runs — which keeps `to_bytes(from_bytes(b)) == b`
    /// for compiled snapshots.
    pub(crate) fn compile_from_stored(&mut self) {
        if self.keys.is_empty() {
            return;
        }
        self.packed = Some(CompiledGraph::build(&self.links));
        self.links = Vec::new();
    }

    /// Reorder every slot-indexed structure by `perm[old_slot] = new_slot`.
    /// Neighbor ids are remapped but list *order* is preserved, so
    /// traversal visit order — and therefore results — are unchanged.
    fn apply_permutation(&mut self, perm: &[u32]) {
        let n = self.keys.len();
        debug_assert_eq!(perm.len(), n);
        let d = self.cfg.dim;
        if !self.vectors.is_empty() {
            let mut nv = vec![0.0f32; self.vectors.len()];
            for (old, &p) in perm.iter().enumerate() {
                let new = p as usize;
                nv[new * d..(new + 1) * d].copy_from_slice(&self.vectors[old * d..(old + 1) * d]);
            }
            self.vectors = nv;
            self.norms = permuted(&self.norms, perm);
        }
        self.keys = permuted(&self.keys, perm);
        self.levels = permuted(&self.levels, perm);
        self.deleted = permuted(&self.deleted, perm);
        let mut new_links: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
        for (old, per_node) in std::mem::take(&mut self.links).into_iter().enumerate() {
            new_links[perm[old] as usize] = per_node
                .into_iter()
                .map(|l| l.into_iter().map(|nb| perm[nb as usize]).collect())
                .collect();
        }
        self.links = new_links;
        for slot in &mut self.local_slot {
            if *slot != NO_SLOT {
                *slot = perm[*slot as usize];
            }
        }
        if let Some((e, top)) = self.entry {
            self.entry = Some((perm[e as usize], top));
        }
        if let Some(q) = &mut self.quant {
            q.apply_permutation(perm);
        }
        // `live_mask` is keyed by local id, not slot — unaffected.
    }
}

/// Reorder a per-slot array by `perm[old] = new` (layout compilation).
pub(crate) fn permuted<T: Clone>(src: &[T], perm: &[u32]) -> Vec<T> {
    debug_assert_eq!(src.len(), perm.len());
    let mut out = src.to_vec();
    for (old, item) in src.iter().enumerate() {
        out[perm[old] as usize] = item.clone();
    }
    out
}
