//! Vertex set variables — GSQL's composition currency.
//!
//! Each query block produces a vertex set; later blocks consume it in their
//! `FROM` clause, and `VectorSearch()` both accepts one as a candidate
//! filter and returns one (§5.5). Sets are typed: members are grouped by
//! vertex type, because local ids are only unique within a type.
//!
//! A set is stored the way the index consumes it: one [`Bitmap`] over local
//! ids per (vertex type, segment). A `VertexAction`'s per-segment bitmaps
//! move in unchanged, the pre-filter hand-off (§5.2) is a clone, and set
//! algebra is word-wise.

use std::collections::{BTreeMap, HashMap};
use tv_common::ids::LocalId;
use tv_common::{Bitmap, SegmentId, VertexId};

/// A set of vertices, grouped by vertex type.
#[derive(Debug, Clone, Default)]
pub struct VertexSet {
    /// Ordered by (type, segment) so members iterate in ascending id order.
    /// Bitmaps are as long as whoever built them needed (a segment scan
    /// sizes them to the segment capacity, `insert` grows on demand) and
    /// every stored bitmap has at least one bit set.
    members: BTreeMap<(u32, SegmentId), Bitmap>,
}

/// Equality is by membership; bitmap lengths are representation.
impl PartialEq for VertexSet {
    fn eq(&self, other: &Self) -> bool {
        self.members.len() == other.members.len()
            && self
                .members
                .iter()
                .zip(&other.members)
                .all(|((ka, a), (kb, b))| ka == kb && a.iter_ones().eq(b.iter_ones()))
    }
}

impl Eq for VertexSet {}

impl VertexSet {
    /// Empty set.
    #[must_use]
    pub fn new() -> Self {
        VertexSet::default()
    }

    /// Set with the given members of one type.
    #[must_use]
    pub fn from_iter_typed(type_id: u32, ids: impl IntoIterator<Item = VertexId>) -> Self {
        let mut s = VertexSet::new();
        for id in ids {
            s.insert(type_id, id);
        }
        s
    }

    /// Set of one type from per-segment bitmaps over local ids (what a
    /// segment scan produces), taken as they are.
    #[must_use]
    pub(crate) fn from_segment_bitmaps(
        type_id: u32,
        bitmaps: impl IntoIterator<Item = (SegmentId, Bitmap)>,
    ) -> Self {
        VertexSet {
            members: bitmaps
                .into_iter()
                .filter(|(_, bm)| bm.count_ones() > 0)
                .map(|(seg, bm)| ((type_id, seg), bm))
                .collect(),
        }
    }

    /// Add a vertex.
    pub fn insert(&mut self, type_id: u32, id: VertexId) {
        let local = id.local().0 as usize;
        let bm = self
            .members
            .entry((type_id, id.segment()))
            .or_insert_with(|| Bitmap::new(0));
        bm.grow(local + 1);
        bm.set(local, true);
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, type_id: u32, id: VertexId) -> bool {
        let local = id.local().0 as usize;
        self.members
            .get(&(type_id, id.segment()))
            .is_some_and(|bm| local < bm.len() && bm.get(local))
    }

    /// Total member count across types.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.values().map(Bitmap::count_ones).sum()
    }

    /// True if no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Vertex types present in the set, ascending.
    #[must_use]
    pub fn types(&self) -> Vec<u32> {
        let mut t: Vec<u32> = self.members.keys().map(|&(t, _)| t).collect();
        t.dedup();
        t
    }

    /// Members of one type, ascending.
    #[must_use]
    pub fn of_type(&self, type_id: u32) -> Vec<VertexId> {
        self.segments_of(type_id)
            .flat_map(|(seg, bm)| ids_of(seg, bm))
            .collect()
    }

    /// Iterate `(type_id, vertex)` pairs, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u32, VertexId)> + '_ {
        self.members
            .iter()
            .flat_map(|(&(t, seg), bm)| ids_of(seg, bm).map(move |v| (t, v)))
    }

    fn segments_of(&self, type_id: u32) -> impl Iterator<Item = (SegmentId, &Bitmap)> {
        self.members
            .range((type_id, SegmentId(0))..=(type_id, SegmentId(u32::MAX)))
            .map(|(&(_, seg), bm)| (seg, bm))
    }

    /// GSQL `UNION`.
    #[must_use]
    pub fn union(&self, other: &VertexSet) -> VertexSet {
        let mut out = self.clone();
        for (key, theirs) in &other.members {
            match out.members.get_mut(key) {
                Some(mine) => mine.union(theirs),
                None => {
                    out.members.insert(*key, theirs.clone());
                }
            }
        }
        out
    }

    /// GSQL `INTERSECT`.
    #[must_use]
    pub fn intersect(&self, other: &VertexSet) -> VertexSet {
        self.combine(|key, mine| {
            let mut common = mine.clone();
            common.intersect(other.members.get(key)?);
            Some(common)
        })
    }

    /// GSQL `MINUS`.
    #[must_use]
    pub(crate) fn minus(&self, other: &VertexSet) -> VertexSet {
        self.combine(|key, mine| {
            let mut rest = mine.clone();
            if let Some(theirs) = other.members.get(key) {
                rest.difference(theirs);
            }
            Some(rest)
        })
    }

    /// Per-bitmap rewrite of `self`, dropping bitmaps that come out empty.
    fn combine(&self, f: impl Fn(&(u32, SegmentId), &Bitmap) -> Option<Bitmap>) -> VertexSet {
        VertexSet {
            members: self
                .members
                .iter()
                .filter_map(|(key, mine)| Some((*key, f(key, mine)?)))
                .filter(|(_, bm)| bm.count_ones() > 0)
                .collect(),
        }
    }

    /// Convert the members of `type_id` into per-segment validity bitmaps —
    /// the pre-filter hand-off to the vector index (§5.2). `capacity` is the
    /// segment capacity of that type's layout; members past it are dropped.
    #[must_use]
    pub(crate) fn to_segment_bitmaps(
        &self,
        type_id: u32,
        capacity: usize,
    ) -> HashMap<SegmentId, Bitmap> {
        self.segments_of(type_id)
            .map(|(seg, bm)| {
                let sized = if bm.len() > capacity {
                    Bitmap::from_indices(capacity, bm.iter_ones().take_while(|&l| l < capacity))
                } else {
                    let mut sized = bm.clone();
                    sized.grow(capacity);
                    sized
                };
                (seg, sized)
            })
            .collect()
    }
}

fn ids_of(seg: SegmentId, bm: &Bitmap) -> impl Iterator<Item = VertexId> + '_ {
    bm.iter_ones()
        .map(move |l| VertexId::new(seg, LocalId(l as u32)))
}

impl FromIterator<(u32, VertexId)> for VertexSet {
    fn from_iter<I: IntoIterator<Item = (u32, VertexId)>>(iter: I) -> Self {
        let mut s = VertexSet::new();
        for (t, v) in iter {
            s.insert(t, v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tv_common::SplitMix64;

    fn vid(seg: u32, l: u32) -> VertexId {
        VertexId::new(SegmentId(seg), LocalId(l))
    }

    #[test]
    fn insert_contains_len() {
        let mut s = VertexSet::new();
        s.insert(0, vid(0, 1));
        s.insert(0, vid(0, 1)); // dedup
        s.insert(1, vid(0, 1)); // different type, same id
        assert_eq!(s.len(), 2);
        assert!(s.contains(0, vid(0, 1)));
        assert!(!s.contains(0, vid(0, 2)));
        assert_eq!(s.types(), vec![0, 1]);
    }

    #[test]
    fn set_algebra() {
        let a = VertexSet::from_iter_typed(0, [vid(0, 1), vid(0, 2), vid(0, 3)]);
        let b = VertexSet::from_iter_typed(0, [vid(0, 2), vid(0, 3), vid(0, 4)]);
        assert_eq!(a.union(&b).len(), 4);
        assert_eq!(a.intersect(&b).len(), 2);
        assert_eq!(a.minus(&b).of_type(0), vec![vid(0, 1)]);
    }

    #[test]
    fn algebra_respects_types() {
        let a = VertexSet::from_iter_typed(0, [vid(0, 1)]);
        let b = VertexSet::from_iter_typed(1, [vid(0, 1)]);
        assert!(a.intersect(&b).is_empty());
        assert_eq!(a.union(&b).len(), 2);
        assert_eq!(a.minus(&b), a);
    }

    #[test]
    fn segment_bitmaps_group_by_segment() {
        let s = VertexSet::from_iter_typed(0, [vid(0, 1), vid(0, 5), vid(2, 3)]);
        let maps = s.to_segment_bitmaps(0, 8);
        assert_eq!(maps.len(), 2);
        let s0 = &maps[&SegmentId(0)];
        assert!(s0.get(1) && s0.get(5) && !s0.get(0));
        assert_eq!(maps[&SegmentId(2)].count_ones(), 1);
        // Absent type → empty map.
        assert!(s.to_segment_bitmaps(9, 8).is_empty());
    }

    #[test]
    fn iter_and_collect() {
        let s: VertexSet = [(0u32, vid(0, 1)), (1u32, vid(0, 2))].into_iter().collect();
        let mut pairs: Vec<(u32, VertexId)> = s.iter().collect();
        pairs.sort();
        assert_eq!(pairs, vec![(0, vid(0, 1)), (1, vid(0, 2))]);
    }

    #[test]
    fn of_type_sorted() {
        let s = VertexSet::from_iter_typed(0, [vid(1, 0), vid(0, 5), vid(0, 1)]);
        assert_eq!(s.of_type(0), vec![vid(0, 1), vid(0, 5), vid(1, 0)]);
    }

    #[test]
    fn eq_is_by_membership_not_bitmap_length() {
        let grown = VertexSet::from_iter_typed(0, [vid(0, 1), vid(0, 5)]);
        // The same members as a capacity-sized scan result: 4 words, the
        // last 3 zero.
        let scanned =
            VertexSet::from_segment_bitmaps(0, [(SegmentId(0), Bitmap::from_indices(256, [1, 5]))]);
        assert_eq!(grown, scanned);
        assert_eq!(scanned, grown);
        assert_ne!(grown, VertexSet::from_iter_typed(0, [vid(0, 1)]));
        assert_ne!(grown, VertexSet::from_iter_typed(1, [vid(0, 1), vid(0, 5)]));
        // An all-zero bitmap is no member at all.
        let padded = VertexSet::from_segment_bitmaps(
            0,
            [
                (SegmentId(0), Bitmap::from_indices(256, [1, 5])),
                (SegmentId(3), Bitmap::new(256)),
            ],
        );
        assert_eq!(padded, grown);
        assert_eq!(padded.to_segment_bitmaps(0, 256).len(), 1);
        assert!(VertexSet::from_segment_bitmaps(0, [(SegmentId(1), Bitmap::new(8))]).is_empty());
    }

    #[test]
    fn segment_bitmaps_are_sized_to_capacity() {
        let s = VertexSet::from_iter_typed(0, [vid(0, 1), vid(0, 70), vid(1, 2)]);
        let maps = s.to_segment_bitmaps(0, 64);
        assert!(maps.values().all(|bm| bm.len() == 64));
        // Local 70 is past the capacity and dropped.
        assert_eq!(maps[&SegmentId(0)].iter_ones().collect::<Vec<_>>(), [1]);
        assert_eq!(maps[&SegmentId(1)].iter_ones().collect::<Vec<_>>(), [2]);
    }

    /// Set algebra, iteration order and the bitmap hand-off against a
    /// `BTreeSet<(type, id)>` oracle, over seeded random sets that mix
    /// inserted members (short bitmaps) with scan-shaped ones (long).
    #[test]
    fn algebra_matches_btreeset_oracle() {
        type Oracle = BTreeSet<(u32, VertexId)>;
        const CAPACITY: usize = 200;
        fn random_set(rng: &mut SplitMix64) -> (VertexSet, Oracle) {
            let mut oracle = Oracle::new();
            let mut set = VertexSet::new();
            for _ in 0..rng.next_below(40) {
                let t = rng.next_below(3) as u32;
                let id = vid(
                    rng.next_below(4) as u32,
                    rng.next_below(CAPACITY as u64) as u32,
                );
                oracle.insert((t, id));
                set.insert(t, id);
            }
            if rng.next_below(2) == 0 {
                let seg = SegmentId(rng.next_below(4) as u32);
                let locals: Vec<usize> = (0..rng.next_below(20))
                    .map(|_| rng.next_below(CAPACITY as u64) as usize)
                    .collect();
                oracle.extend(locals.iter().map(|&l| (1, vid(seg.0, l as u32))));
                let scanned = VertexSet::from_segment_bitmaps(
                    1,
                    [(seg, Bitmap::from_indices(CAPACITY, locals))],
                );
                set = set.union(&scanned);
            }
            (set, oracle)
        }
        fn same(set: &VertexSet, oracle: &Oracle, what: &str) {
            assert_eq!(
                set.iter().collect::<Vec<_>>(),
                oracle.iter().copied().collect::<Vec<_>>(),
                "{what}"
            );
            assert_eq!(set.len(), oracle.len(), "{what}");
            assert_eq!(set.is_empty(), oracle.is_empty(), "{what}");
            assert_eq!(
                set,
                &oracle.iter().copied().collect::<VertexSet>(),
                "{what}"
            );
        }
        let mut rng = SplitMix64::new(0x5E7);
        for case in 0..200 {
            let (a, oa) = random_set(&mut rng);
            let (b, ob) = random_set(&mut rng);
            let what = format!("case {case}");
            same(&a, &oa, &what);
            same(&a.union(&b), &oa.union(&ob).copied().collect(), &what);
            same(
                &a.intersect(&b),
                &oa.intersection(&ob).copied().collect(),
                &what,
            );
            same(&a.minus(&b), &oa.difference(&ob).copied().collect(), &what);
            for &(t, id) in ob.iter().chain(&oa) {
                assert_eq!(a.contains(t, id), oa.contains(&(t, id)), "{what}");
            }
            for t in 0..3u32 {
                let want: Vec<VertexId> = oa
                    .iter()
                    .filter(|(ot, _)| *ot == t)
                    .map(|&(_, id)| id)
                    .collect();
                assert_eq!(a.of_type(t), want, "{what}: of_type ascending");
                assert_eq!(a.types().contains(&t), !want.is_empty(), "{what}");
                // The hand-off: exactly the members, one bitmap per segment
                // that has any.
                let maps = a.to_segment_bitmaps(t, CAPACITY);
                let mut got: Vec<VertexId> = maps
                    .iter()
                    .flat_map(|(&seg, bm)| ids_of(seg, bm).collect::<Vec<_>>())
                    .collect();
                got.sort_unstable();
                assert_eq!(got, want, "{what}");
                assert!(maps
                    .values()
                    .all(|bm| bm.len() == CAPACITY && bm.count_ones() > 0));
            }
        }
    }
}
