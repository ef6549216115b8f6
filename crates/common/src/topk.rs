//! Bounded top-k structures for nearest-neighbor search.
//!
//! Every layer of TigerVector ends in a top-k merge: the HNSW search keeps a
//! bounded candidate set, each embedding segment returns its local top-k, and
//! the coordinator merges per-segment (and per-server) results into the
//! global answer (§5.1, Fig. 5). [`NeighborHeap`] is that primitive: a
//! max-heap of at most `k` `(distance, id)` pairs that keeps the k smallest
//! distances seen. It is a [`BoundedHeap`], which the similarity join's
//! pair heap shares.

use crate::ids::VertexId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A search result: a vertex and its distance to the query.
#[derive(Debug, Clone, Copy)]
pub struct Neighbor {
    /// Distance to the query (smaller = more similar, for every metric).
    pub dist: f32,
    /// Global id of the matched vertex.
    pub id: VertexId,
}

impl Neighbor {
    /// Convenience constructor.
    #[must_use]
    pub fn new(id: VertexId, dist: f32) -> Self {
        Neighbor { dist, id }
    }
}

impl PartialEq for Neighbor {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Total order: by distance, ties broken by id so results are deterministic.
/// NaN distances sort last (treated as "infinitely far").
impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.dist.is_nan(), other.dist.is_nan()) {
            (true, true) => self.id.cmp(&other.id),
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => self
                .dist
                .partial_cmp(&other.dist)
                .unwrap_or(Ordering::Equal)
                .then_with(|| self.id.cmp(&other.id)),
        }
    }
}

/// How many slots a bounded heap reserves up front: `k + 1` up to this many.
/// An ordinary `k` allocates once; a client's huge `k` costs only what the
/// heap comes to hold.
const RESERVED_SLOTS: usize = 1024;

/// Bounded max-heap keeping the `k` smallest items seen so far.
#[derive(Debug, Clone)]
pub struct BoundedHeap<T> {
    k: usize,
    heap: BinaryHeap<T>,
}

/// The `k` nearest neighbors seen so far.
pub type NeighborHeap = BoundedHeap<Neighbor>;

impl<T: Ord> BoundedHeap<T> {
    /// A heap that retains at most `k` items. `k == 0` is allowed and
    /// retains nothing.
    #[must_use]
    pub fn new(k: usize) -> Self {
        BoundedHeap {
            k,
            heap: BinaryHeap::with_capacity(k.saturating_add(1).min(RESERVED_SLOTS)),
        }
    }

    /// Capacity `k` the heap was created with.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Offer a candidate; returns true if it entered the top-k.
    pub fn push(&mut self, n: T) -> bool {
        if self.k == 0 {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(n);
            true
        } else if n < *self.heap.peek().expect("non-empty at capacity") {
            self.heap.pop();
            self.heap.push(n);
            true
        } else {
            false
        }
    }

    /// Consume the heap, returning the items sorted smallest-first.
    #[must_use]
    pub fn into_sorted(self) -> Vec<T> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

/// Merge many per-segment top-k lists (each already nearest-first or not)
/// into a single global top-k, nearest-first. This is the coordinator's
/// final merge step in distributed query processing (Fig. 5).
#[must_use]
pub fn merge_topk(lists: impl IntoIterator<Item = Vec<Neighbor>>, k: usize) -> Vec<Neighbor> {
    let mut heap = NeighborHeap::new(k);
    for list in lists {
        for n in list {
            heap.push(n);
        }
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LocalId, SegmentId};

    fn v(n: u64) -> VertexId {
        VertexId(n)
    }

    #[test]
    fn keeps_k_smallest() {
        let mut h = NeighborHeap::new(3);
        for (i, d) in [5.0, 1.0, 4.0, 2.0, 3.0].iter().enumerate() {
            h.push(Neighbor::new(v(i as u64), *d));
        }
        let got: Vec<f32> = h.into_sorted().iter().map(|n| n.dist).collect();
        assert_eq!(got, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn sorted_output_nearest_first_with_id_ties() {
        let mut h = NeighborHeap::new(4);
        h.push(Neighbor::new(v(2), 1.0));
        h.push(Neighbor::new(v(1), 1.0));
        h.push(Neighbor::new(v(3), 0.5));
        let got = h.into_sorted();
        assert_eq!(got[0].id, v(3));
        assert_eq!(got[1].id, v(1)); // tie broken by smaller id
        assert_eq!(got[2].id, v(2));
    }

    #[test]
    fn zero_k_accepts_nothing() {
        let mut h = NeighborHeap::new(0);
        assert!(!h.push(Neighbor::new(v(0), 1.0)));
        assert!(h.into_sorted().is_empty());
    }

    #[test]
    fn huge_k_reserves_a_bounded_amount() {
        for k in [1_000_000_000_000, usize::MAX] {
            let mut h = NeighborHeap::new(k);
            assert_eq!(h.k(), k);
            for i in 0..3 {
                assert!(h.push(Neighbor::new(v(i), 3.0 - i as f32)));
            }
            let ids: Vec<VertexId> = h.into_sorted().iter().map(|n| n.id).collect();
            assert_eq!(ids, [v(2), v(1), v(0)]);
        }
        assert_eq!(
            merge_topk([vec![Neighbor::new(v(0), 1.0)]], usize::MAX).len(),
            1
        );
    }

    #[test]
    fn push_reports_entry() {
        let mut h = NeighborHeap::new(1);
        assert!(h.push(Neighbor::new(v(0), 2.0)));
        assert!(h.push(Neighbor::new(v(1), 1.0)));
        assert!(!h.push(Neighbor::new(v(2), 3.0)));
    }

    #[test]
    fn nan_sorts_last() {
        let mut h = NeighborHeap::new(2);
        h.push(Neighbor::new(v(0), f32::NAN));
        h.push(Neighbor::new(v(1), 1.0));
        h.push(Neighbor::new(v(2), 2.0));
        let got = h.into_sorted();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|n| !n.dist.is_nan()));
    }

    #[test]
    fn merge_topk_global() {
        let s0 = vec![Neighbor::new(v(0), 3.0), Neighbor::new(v(1), 1.0)];
        let s1 = vec![Neighbor::new(v(2), 2.0), Neighbor::new(v(3), 4.0)];
        let got = merge_topk([s0, s1], 3);
        let ids: Vec<VertexId> = got.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![v(1), v(2), v(0)]);
    }

    #[test]
    fn neighbor_uses_vertex_id_ordering() {
        let a = Neighbor::new(VertexId::new(SegmentId(0), LocalId(5)), 1.0);
        let b = Neighbor::new(VertexId::new(SegmentId(1), LocalId(0)), 1.0);
        assert!(a < b);
    }
}
