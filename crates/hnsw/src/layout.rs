//! Folding the adjacency ([`crate::packed`]) into compiled rows in BFS
//! slot order, and the in-place slot permutation that carries every other
//! slot-indexed structure along.

use crate::index::{HnswIndex, NO_SLOT};
use tv_common::{Bitmap, GraphLayout};

impl HnswIndex {
    /// `PackedPrefetch` iff the index holds a node and no row was written
    /// since the last fold ([`Self::compile_layout`]), so every search reads
    /// compiled rows; `Pointer` otherwise.
    #[must_use]
    pub fn layout(&self) -> GraphLayout {
        if self.keys.is_empty() || self.adj.has_edits() {
            GraphLayout::Pointer
        } else {
            GraphLayout::PackedPrefetch
        }
    }

    /// Fold the adjacency into compiled rows: renumber slots in BFS order
    /// from the entry point (applied to every slot-indexed structure —
    /// vectors, norms, keys, levels, tombstones, entry, quantized code
    /// slabs, the local→slot table's entries; the live mask is keyed by
    /// local id and is unaffected) and stream every row, edited or
    /// compiled, into CSR slabs whose neighbor ids are `u16` when the index
    /// holds at most 65 536 slots and `u32` otherwise. The edit set is
    /// empty afterwards. Returns true iff the index is compiled afterwards;
    /// empty indexes stay uncompiled.
    ///
    /// `Pointer` folds nothing in an index that was never folded; an index
    /// that was folded once folds whatever layout is asked for, as it does
    /// when its compiled rows are shared with another index (a clone), so
    /// two retained snapshots never share rows.
    ///
    /// Search results are bit-identical across layouts (modulo the slot
    /// renumbering, which is invisible through the key-based API).
    pub fn compile_layout(&mut self, layout: GraphLayout) -> bool {
        let Some((entry, _)) = self.entry else {
            return false;
        };
        if !layout.is_packed() && self.adj.never_folded() {
            return false;
        }
        if !self.adj.has_edits() && !self.adj.shares_rows() {
            return true;
        }
        let perm = self.adj.bfs_order(self.keys.len(), entry);
        self.adj = self.adj.folded(&self.levels, &perm);
        self.apply_permutation(&perm);
        true
    }

    /// Reorder every slot-indexed structure but the adjacency (which the
    /// fold renumbers) by `perm[old_slot] = new_slot`, in place: the arenas
    /// row by row along the permutation's cycles.
    fn apply_permutation(&mut self, perm: &[u32]) {
        debug_assert_eq!(perm.len(), self.keys.len());
        let cycles = Cycles::of(perm);
        if !self.vectors.is_empty() {
            cycles.apply(&mut self.vectors, self.cfg.dim);
            cycles.apply(&mut self.norms, 1);
        }
        cycles.apply(&mut self.keys, 1);
        cycles.apply(&mut self.levels, 1);
        cycles.apply(&mut self.deleted, 1);
        for slot in &mut self.local_slot {
            if *slot != NO_SLOT {
                *slot = perm[*slot as usize];
            }
        }
        if let Some((e, top)) = self.entry {
            self.entry = Some((perm[e as usize], top));
        }
        if let Some(q) = &mut self.quant {
            q.apply_permutation(&cycles);
        }
        // `live_mask` is keyed by local id, not slot — unaffected.
    }
}

/// The cycles longer than one of a slot permutation (`perm[old] = new`),
/// each named by its lowest slot: what reordering an array in place walks.
pub(crate) struct Cycles<'p> {
    perm: &'p [u32],
    starts: Vec<u32>,
}

impl<'p> Cycles<'p> {
    pub(crate) fn of(perm: &'p [u32]) -> Self {
        let mut seen = Bitmap::new(perm.len());
        let mut starts = Vec::new();
        for s in 0..perm.len() {
            if seen.get(s) || perm[s] as usize == s {
                continue;
            }
            starts.push(s as u32);
            let mut at = s;
            while !seen.get(at) {
                seen.set(at, true);
                at = perm[at] as usize;
            }
        }
        Cycles { perm, starts }
    }

    /// Move row `old` of `rows` (`row_len` items each) to row `perm[old]`,
    /// in place. Along a cycle `s → perm[s] → …`, row `s` is the one row of
    /// scratch: each swap with the next slot's row puts the row it carries
    /// home and picks up the one that was there, and the last swap leaves in
    /// row `s` the row that belongs there.
    pub(crate) fn apply<T>(&self, rows: &mut [T], row_len: usize) {
        debug_assert_eq!(rows.len(), self.perm.len() * row_len);
        for &s in &self.starts {
            let s = s as usize;
            let mut next = self.perm[s] as usize;
            while next != s {
                let (lo, hi) = (s.min(next) * row_len, s.max(next) * row_len);
                let (head, tail) = rows.split_at_mut(hi);
                head[lo..lo + row_len].swap_with_slice(&mut tail[..row_len]);
                next = self.perm[next] as usize;
            }
        }
    }
}

/// The in-place permutation against the copying one it replaced, kept here
/// as the reference: every slot-indexed structure must come out equal, on
/// the f32 tier and on SQ8 (codes only, cosine, so reconstruction norms
/// move too), for the identity, one n-cycle, all 2-cycles and random
/// permutations.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::QuantizedCodec;
    use crate::HnswConfig;
    use tv_common::ids::{LocalId, SegmentId};
    use tv_common::{DistanceMetric, QuantSpec, SplitMix64, VertexId};

    impl HnswIndex {
        /// The copying reorder compile ran before it permuted in place.
        fn apply_permutation_copying(&mut self, perm: &[u32]) {
            let d = self.cfg.dim;
            if !self.vectors.is_empty() {
                let mut nv = vec![0.0f32; self.vectors.len()];
                for (old, &p) in perm.iter().enumerate() {
                    let new = p as usize;
                    nv[new * d..(new + 1) * d]
                        .copy_from_slice(&self.vectors[old * d..(old + 1) * d]);
                }
                self.vectors = nv;
                self.norms = permuted(&self.norms, perm);
            }
            self.keys = permuted(&self.keys, perm);
            self.levels = permuted(&self.levels, perm);
            self.deleted = permuted(&self.deleted, perm);
            for slot in &mut self.local_slot {
                if *slot != NO_SLOT {
                    *slot = perm[*slot as usize];
                }
            }
            if let Some((e, top)) = self.entry {
                self.entry = Some((perm[e as usize], top));
            }
            if let Some(q) = &mut self.quant {
                for store in std::iter::once(&mut q.main).chain(q.rerank.as_mut()) {
                    store.codes = permute_code_rows(&store.codes, store.codec.code_len(), perm);
                    if !store.recon_norms.is_empty() {
                        store.recon_norms = permuted(&store.recon_norms, perm);
                    }
                }
            }
        }
    }

    fn permuted<T: Clone>(src: &[T], perm: &[u32]) -> Vec<T> {
        let mut out = src.to_vec();
        for (old, item) in src.iter().enumerate() {
            out[perm[old] as usize] = item.clone();
        }
        out
    }

    fn permute_code_rows(codes: &[u8], row_len: usize, perm: &[u32]) -> Vec<u8> {
        let mut out = vec![0u8; codes.len()];
        for (old, &new) in perm.iter().enumerate() {
            let new = new as usize;
            out[new * row_len..(new + 1) * row_len]
                .copy_from_slice(&codes[old * row_len..(old + 1) * row_len]);
        }
        out
    }

    const N: usize = 301;
    const DIM: usize = 12;

    /// `N` slots with some tombstones, in the pointer form.
    fn index(metric: DistanceMetric, quant: Option<QuantSpec>) -> HnswIndex {
        let mut rng = SplitMix64::new(0x9E_0000 + N as u64);
        let mut idx = HnswIndex::new(HnswConfig::new(DIM, metric).with_m(6));
        let key = |l: usize| VertexId::new(SegmentId(1), LocalId(2 * l as u32 + 1));
        for l in 0..N {
            let v: Vec<f32> = (0..DIM).map(|_| rng.next_f32() * 8.0 - 4.0).collect();
            idx.insert(key(l), &v).unwrap();
        }
        for l in (0..N).step_by(7) {
            assert!(idx.remove(key(l)));
        }
        if let Some(spec) = quant {
            idx.quantize(spec).unwrap();
        }
        assert_eq!(idx.layout(), GraphLayout::Pointer);
        idx
    }

    fn permutations() -> Vec<(&'static str, Vec<u32>)> {
        let n = N as u32;
        let mut out = vec![
            ("identity", (0..n).collect()),
            ("one n-cycle", (0..n).map(|i| (i + 1) % n).collect()),
            // `N` is odd: the last slot stays put.
            (
                "all 2-cycles",
                (0..n).map(|i| if i + 1 == n { i } else { i ^ 1 }).collect(),
            ),
        ];
        let mut rng = SplitMix64::new(41);
        for _ in 0..4 {
            let mut p: Vec<u32> = (0..n).collect();
            for i in (1..N).rev() {
                p.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            out.push(("random", p));
        }
        out
    }

    fn assert_same(got: &HnswIndex, want: &HnswIndex, case: &str) {
        assert_eq!(got.vectors, want.vectors, "{case}: arena");
        assert_eq!(got.norms, want.norms, "{case}: norms");
        assert_eq!(got.keys, want.keys, "{case}: keys");
        assert_eq!(got.levels, want.levels, "{case}: levels");
        assert_eq!(got.deleted, want.deleted, "{case}: tombstones");
        assert_eq!(got.entry, want.entry, "{case}: entry");
        assert_eq!(got.local_slot, want.local_slot, "{case}: local_slot");
        let stores = |i: &HnswIndex| {
            i.quant.as_ref().map(|q| {
                std::iter::once(&q.main)
                    .chain(q.rerank.as_ref())
                    .map(|s| (s.codes.clone(), s.recon_norms.clone()))
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(stores(got), stores(want), "{case}: code rows");
    }

    #[test]
    fn in_place_permutation_matches_the_copying_reference() {
        let tiers = [
            ("f32", index(DistanceMetric::L2, None)),
            ("sq8", index(DistanceMetric::Cosine, Some(QuantSpec::sq8()))),
        ];
        for (tier, base) in &tiers {
            assert_eq!(base.quant.is_some(), *tier == "sq8");
            for (name, perm) in permutations() {
                let case = format!("{tier}, {name}");
                let (mut got, mut want) = (base.clone(), base.clone());
                got.apply_permutation(&perm);
                want.apply_permutation_copying(&perm);
                assert_same(&got, &want, &case);
                if name == "identity" {
                    assert_same(&got, base, &case);
                } else {
                    assert_ne!(got.keys, base.keys, "{case}: nothing moved");
                }
            }
        }
    }
}
