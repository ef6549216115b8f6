//! Accumulators — GSQL's runtime aggregation variables (§2.1).
//!
//! Global accumulators (`@@`) are read and written across query blocks;
//! vertex-local accumulators (`@`) hang off vertices. The reproduction
//! provides the ones the paper's queries use: set, map (the `distanceMap`
//! output parameter of `VectorSearch()`), and the bounded top-k heap
//! accumulator that powers vector similarity join (§5.4).

use std::collections::HashMap;
use tv_common::{Neighbor, NeighborHeap, VertexId};

/// `SetAccum<VERTEX>` — collects vertices (type-tagged).
#[derive(Debug, Clone, Default)]
pub struct SetAccum {
    items: std::collections::BTreeSet<(u32, VertexId)>,
}

impl SetAccum {
    /// Insert a vertex.
    pub fn add(&mut self, type_id: u32, id: VertexId) {
        self.items.insert((type_id, id));
    }

    /// Iterate members.
    pub fn iter(&self) -> impl Iterator<Item = (u32, VertexId)> + '_ {
        self.items.iter().copied()
    }

    /// Convert into a [`crate::VertexSet`].
    #[must_use]
    pub fn to_vertex_set(&self) -> crate::VertexSet {
        self.iter().collect()
    }
}

/// `MapAccum<VERTEX, DOUBLE>` — e.g. the top-k distance map returned by
/// `VectorSearch()` (§5.5, query Q3's `@@disMap`).
#[derive(Debug, Clone, Default)]
pub struct MapAccum {
    entries: HashMap<(u32, VertexId), f64>,
}

impl MapAccum {
    /// Insert or overwrite an entry.
    pub fn put(&mut self, type_id: u32, id: VertexId, value: f64) {
        self.entries.insert((type_id, id), value);
    }

    /// Number of entries (no caller asks whether the map is empty, so
    /// there is no `is_empty`).
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entries sorted by ascending value (distance order).
    #[must_use]
    pub fn sorted_by_value(&self) -> Vec<((u32, VertexId), f64)> {
        let mut v: Vec<_> = self.entries.iter().map(|(&k, &d)| (k, d)).collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

/// `HeapAccum` over `(pair, score)` — keeps the k smallest scores. Vector
/// similarity join pushes every matched `(source, target)` pair's distance
/// through one of these during MPP computation (§5.4).
#[derive(Debug, Clone)]
pub struct PairHeapAccum {
    heap: NeighborHeap,
    /// Pair payloads keyed by a synthetic id; bounded like the heap.
    pairs: HashMap<u64, (VertexId, VertexId)>,
    next_key: u64,
}

impl PairHeapAccum {
    /// Heap retaining the `k` best pairs.
    #[must_use]
    pub fn new(k: usize) -> Self {
        PairHeapAccum {
            heap: NeighborHeap::new(k),
            pairs: HashMap::new(),
            next_key: 0,
        }
    }

    /// Offer a pair with its distance.
    pub fn add(&mut self, source: VertexId, target: VertexId, dist: f32) {
        let key = self.next_key;
        self.next_key += 1;
        if self.heap.push(Neighbor::new(VertexId(key), dist)) {
            self.pairs.insert(key, (source, target));
            // Opportunistic GC once the side table doubles the heap size.
            if self.pairs.len() > 2 * self.heap.k().max(1) {
                let live: std::collections::HashSet<u64> = self
                    .heap
                    .clone()
                    .into_sorted()
                    .iter()
                    .map(|n| n.id.0)
                    .collect();
                self.pairs.retain(|k, _| live.contains(k));
            }
        }
    }

    /// Best pairs, nearest first.
    #[must_use]
    pub fn into_sorted(self) -> Vec<(VertexId, VertexId, f32)> {
        let pairs = self.pairs;
        self.heap
            .into_sorted()
            .into_iter()
            .filter_map(|n| pairs.get(&n.id.0).map(|&(s, t)| (s, t, n.dist)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::ids::{LocalId, SegmentId};

    fn vid(l: u32) -> VertexId {
        VertexId::new(SegmentId(0), LocalId(l))
    }

    #[test]
    fn set_accum_dedupes_and_converts() {
        let mut a = SetAccum::default();
        a.add(0, vid(1));
        a.add(0, vid(1));
        a.add(1, vid(1));
        assert_eq!(a.iter().count(), 2);
        let vs = a.to_vertex_set();
        assert!(vs.contains(0, vid(1)));
        assert!(vs.contains(1, vid(1)));
    }

    #[test]
    fn map_accum_sorted_by_distance() {
        let mut m = MapAccum::default();
        m.put(0, vid(1), 0.9);
        m.put(0, vid(2), 0.1);
        m.put(0, vid(3), 0.5);
        let sorted = m.sorted_by_value();
        assert_eq!(sorted[0].0 .1, vid(2));
        assert_eq!(sorted[1], ((0, vid(3)), 0.5));
        assert_eq!(sorted[2].0 .1, vid(1));
    }

    #[test]
    fn pair_heap_keeps_k_best() {
        let mut h = PairHeapAccum::new(2);
        h.add(vid(0), vid(1), 5.0);
        h.add(vid(2), vid(3), 1.0);
        h.add(vid(4), vid(5), 3.0);
        h.add(vid(6), vid(7), 0.5);
        let best = h.into_sorted();
        assert_eq!(best.len(), 2);
        assert_eq!(best[0], (vid(6), vid(7), 0.5));
        assert_eq!(best[1], (vid(2), vid(3), 1.0));
    }

    #[test]
    fn pair_heap_gc_keeps_correctness_under_churn() {
        let mut h = PairHeapAccum::new(3);
        for i in 0..1000u32 {
            // Decreasing distances: every add displaces the worst.
            h.add(vid(i), vid(i + 1), 1000.0 - i as f32);
        }
        let best = h.into_sorted();
        assert_eq!(best.len(), 3);
        assert_eq!(best[0].0, vid(999));
        assert!(best.windows(2).all(|w| w[0].2 <= w[1].2));
    }
}
