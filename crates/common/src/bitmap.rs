//! Validity bitmaps.
//!
//! TigerVector's pre-filter design (§5.2) evaluates graph predicates first
//! and hands the vector index a bitmap of qualified ids; the index consults
//! the bitmap for every candidate and only returns valid points. The same
//! structure marks deleted / unauthorized vectors during pure vector search
//! (§5.1), where the engine wraps the global vertex-status structure instead
//! of materializing a fresh bitmap.

/// A fixed-length bitmap over local ids `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap of length `len`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-ones bitmap of length `len`.
    #[must_use]
    pub fn full(len: usize) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.clear_tail();
        b
    }

    /// Build from the indices that should be set. Out-of-range indices panic.
    #[must_use]
    pub fn from_indices(len: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut b = Bitmap::new(len);
        for i in indices {
            b.set(i, true);
        }
        b
    }

    /// Build from 64-bit words, bit `i` of word `w` being position
    /// `64 * w + i` (the form a block-at-a-time scan produces). Panics
    /// unless there are exactly `len.div_ceil(64)` words; bits past `len`
    /// are cleared.
    #[must_use]
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "{len} bits in {} words",
            words.len()
        );
        let mut b = Bitmap { words, len };
        b.clear_tail();
        b
    }

    /// The bits as 64-bit words, in the layout [`Bitmap::from_words`] takes;
    /// bits past `len` are zero.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of addressable bits: a capacity, so there is no `is_empty`
    /// (a bitmap with no bit set is [`Bitmap::count_ones`] `== 0`).
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Bit at `idx` (panics if out of range).
    #[must_use]
    pub fn get(&self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "bitmap index {idx} out of range {}",
            self.len
        );
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Set bit `idx` to `value` (panics if out of range).
    pub fn set(&mut self, idx: usize, value: bool) {
        assert!(
            idx < self.len,
            "bitmap index {idx} out of range {}",
            self.len
        );
        let mask = 1u64 << (idx % 64);
        if value {
            self.words[idx / 64] |= mask;
        } else {
            self.words[idx / 64] &= !mask;
        }
    }

    /// Number of set bits. Used by the planner's brute-force threshold
    /// decision (§5.1): when few points are valid, HNSW must over-expand to
    /// surface enough of them, so brute force over the survivors wins.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterator over the set bit positions in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Number of positions set in both `self` and `other`. Unlike
    /// [`Bitmap::intersect`], the lengths need not match: positions past the
    /// shorter bitmap count as unset. This is the planner's valid-live
    /// cardinality estimate — filter bitmap ∩ index occupancy — where the
    /// filter covers the segment capacity but the occupancy mask only spans
    /// the local ids actually inserted.
    #[must_use]
    pub fn intersection_count(&self, other: &Bitmap) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Grow the bitmap to at least `len` bits (new bits unset). Shrinking is
    /// not supported; a smaller `len` is a no-op.
    pub fn grow(&mut self, len: usize) {
        if len > self.len {
            self.len = len;
            self.words.resize(len.div_ceil(64), 0);
        }
    }

    /// In-place intersection. As in [`Bitmap::intersection_count`] the
    /// lengths need not match: positions past the shorter bitmap count as
    /// unset (vertex sets grow their bitmaps on demand, so two sets over the
    /// same segment rarely agree on a length).
    pub fn intersect(&mut self, other: &Bitmap) {
        let common = self.words.len().min(other.words.len());
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
        self.words[common..].fill(0);
    }

    /// In-place union; `self` grows to `other`'s length if that is longer.
    pub fn union(&mut self, other: &Bitmap) {
        self.grow(other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place difference (`self AND NOT other`); positions past the end
    /// of `other` count as unset there.
    pub fn difference(&mut self, other: &Bitmap) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !*b;
        }
    }

    /// Zero out the padding bits past `len` in the last word so that
    /// `count_ones` stays exact after whole-word operations.
    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// A filter over local ids, as passed into the vector index search.
///
/// `None` means "everything valid" (pure vector search with no deletes);
/// otherwise the bitmap is consulted per candidate. This mirrors the paper's
/// filter-function hand-off where a single index call returns the valid
/// top-k (§5.1).
#[derive(Debug, Clone, Copy)]
pub enum Filter<'a> {
    /// Every id is valid.
    All,
    /// Only ids whose bit is set are valid.
    Valid(&'a Bitmap),
}

impl Filter<'_> {
    /// Whether local id `idx` passes the filter.
    #[must_use]
    pub fn accepts(&self, idx: usize) -> bool {
        match self {
            Filter::All => true,
            Filter::Valid(b) => idx < b.len() && b.get(idx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let b = Bitmap::new(130);
        assert_eq!(b.count_ones(), 0);
        assert!(!b.get(0));
        assert!(!b.get(129));
    }

    #[test]
    fn full_counts_exactly_len() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 200] {
            assert_eq!(Bitmap::full(len).count_ones(), len, "len {len}");
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = Bitmap::new(100);
        b.set(3, true);
        b.set(64, true);
        b.set(99, true);
        assert!(b.get(3) && b.get(64) && b.get(99));
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = Bitmap::new(10).get(10);
    }

    #[test]
    fn iter_ones_ascending() {
        let b = Bitmap::from_indices(200, [5, 64, 63, 199, 0]);
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 5, 63, 64, 199]);
    }

    #[test]
    fn words_roundtrip_and_clear_the_tail() {
        let b = Bitmap::from_indices(70, [0, 63, 64, 69]);
        assert_eq!(b.words(), [1 | 1 << 63, 1 | 1 << 5]);
        assert_eq!(Bitmap::from_words(70, b.words().to_vec()), b);
        let full = Bitmap::from_words(70, vec![u64::MAX; 2]);
        assert_eq!(full, Bitmap::full(70));
        assert_eq!(full.count_ones(), 70);
        assert_eq!(Bitmap::from_words(0, Vec::new()).count_ones(), 0);
    }

    #[test]
    fn set_ops() {
        let mut a = Bitmap::from_indices(70, [1, 2, 3, 65]);
        let b = Bitmap::from_indices(70, [2, 3, 4, 66]);
        let mut u = a.clone();
        u.union(&b);
        assert_eq!(u.iter_ones().collect::<Vec<_>>(), vec![1, 2, 3, 4, 65, 66]);
        let mut d = a.clone();
        d.difference(&b);
        assert_eq!(d.iter_ones().collect::<Vec<_>>(), vec![1, 65]);
        a.intersect(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn set_ops_tolerate_length_mismatch() {
        let long = Bitmap::from_indices(200, [1, 64, 65, 130, 199]);
        let short = Bitmap::from_indices(66, [1, 2, 64]);
        let ones = |b: &Bitmap| b.iter_ones().collect::<Vec<_>>();
        for (a, b) in [(&long, &short), (&short, &long)] {
            let mut i = a.clone();
            i.intersect(b);
            assert_eq!(ones(&i), vec![1, 64]);
            assert_eq!(i.len(), a.len());
            let mut u = a.clone();
            u.union(b);
            assert_eq!(ones(&u), vec![1, 2, 64, 65, 130, 199]);
            assert_eq!(u.len(), 200);
        }
        let mut d = long.clone();
        d.difference(&short);
        assert_eq!(ones(&d), vec![65, 130, 199]);
        let mut d = short.clone();
        d.difference(&long);
        assert_eq!(ones(&d), vec![2]);
    }

    #[test]
    fn intersection_count_tolerates_length_mismatch() {
        let long = Bitmap::from_indices(200, [1, 64, 65, 130, 199]);
        let short = Bitmap::from_indices(66, [1, 2, 64, 65]);
        assert_eq!(long.intersection_count(&short), 3); // 1, 64, 65
        assert_eq!(short.intersection_count(&long), 3); // symmetric
        assert_eq!(long.intersection_count(&Bitmap::new(0)), 0);
        assert_eq!(
            long.intersection_count(&Bitmap::full(200)),
            long.count_ones()
        );
    }

    #[test]
    fn grow_preserves_bits_and_never_shrinks() {
        let mut b = Bitmap::from_indices(10, [3, 9]);
        b.grow(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![3, 9]);
        b.set(129, true);
        b.grow(5); // no-op
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn filter_all_accepts_everything() {
        let f = Filter::All;
        assert!(f.accepts(0));
        assert!(f.accepts(1_000_000));
    }

    #[test]
    fn filter_valid_respects_bitmap() {
        let b = Bitmap::from_indices(10, [2, 7]);
        let f = Filter::Valid(&b);
        assert!(f.accepts(2));
        assert!(!f.accepts(3));
        assert!(!f.accepts(10)); // out of range treated as invalid
    }
}
