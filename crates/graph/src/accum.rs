//! Accumulators — GSQL's runtime aggregation variables (§2.1).
//!
//! Global accumulators (`@@`) are read and written across query blocks;
//! vertex-local accumulators (`@`) hang off vertices. The reproduction
//! provides the ones the paper's queries use: map (the `distanceMap`
//! output parameter of `VectorSearch()`), and the bounded top-k heap
//! accumulator that powers vector similarity join (§5.4). A set
//! accumulator is a [`crate::VertexSet`].

use std::cmp::Ordering;
use std::collections::HashMap;
use tv_common::{BoundedHeap, VertexId};

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

/// `HeapAccum` over `(pair, score)` — keeps the k smallest scores, ties
/// broken by the pair's ids, so the answer does not depend on the order
/// pairs arrive in. Vector similarity join pushes every matched `(source,
/// target)` pair's distance through one of these (§5.4).
#[derive(Debug, Clone)]
pub struct PairHeapAccum {
    heap: BoundedHeap<ScoredPair>,
}

/// A pair and its score, ordered by score (a total order), then by pair.
#[derive(Debug, Clone, Copy)]
struct ScoredPair {
    dist: f32,
    pair: (VertexId, VertexId),
}

impl Ord for ScoredPair {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then(self.pair.cmp(&other.pair))
    }
}

impl PartialOrd for ScoredPair {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ScoredPair {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ScoredPair {}

impl PairHeapAccum {
    /// Heap retaining the `k` best pairs.
    #[must_use]
    pub fn new(k: usize) -> Self {
        PairHeapAccum {
            heap: BoundedHeap::new(k),
        }
    }

    /// Offer a pair with its distance.
    pub fn add(&mut self, source: VertexId, target: VertexId, dist: f32) {
        self.heap.push(ScoredPair {
            dist,
            pair: (source, target),
        });
    }

    /// Best pairs, nearest first.
    #[must_use]
    pub fn into_sorted(self) -> Vec<(VertexId, VertexId, f32)> {
        self.heap
            .into_sorted()
            .into_iter()
            .map(|p| (p.pair.0, p.pair.1, p.dist))
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
    fn pair_heap_breaks_ties_by_pair() {
        let mut h = PairHeapAccum::new(2);
        for (s, t) in [(3, 4), (1, 5), (1, 2), (0, 9)] {
            h.add(vid(s), vid(t), 1.0);
        }
        let best = h.into_sorted();
        assert_eq!(best, [(vid(0), vid(9), 1.0), (vid(1), vid(2), 1.0)]);
    }

    #[test]
    fn pair_heap_keeps_correctness_under_churn() {
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
