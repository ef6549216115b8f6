//! Explicit per-segment filter policy for scatter-gather queries.
//!
//! The runtime used to take a bare `HashMap<SegmentId, Bitmap>`: a segment
//! *absent* from the map was silently searched **unfiltered**. For a
//! pre-filter that is an optimization hint that is merely surprising; for an
//! RBAC bitmap it is an authorization leak — forget one segment and every
//! row in it becomes visible. [`FilterSet`] replaces the bare map with an
//! explicit default policy for unlisted segments: [`FilterDefault::All`]
//! (unfiltered, the old pre-filter behavior) or [`FilterDefault::Empty`]
//! (excluded — the only safe default for security filters).

use std::collections::HashMap;
use tv_common::{Bitmap, SegmentId};

/// What an unlisted segment gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterDefault {
    /// Unlisted segments are searched unfiltered (pre-filter semantics:
    /// "I only restrict the segments I name").
    #[default]
    All,
    /// Unlisted segments contribute nothing (RBAC semantics: "anything I
    /// did not explicitly allow is denied").
    Empty,
}

/// The filter a worker must apply to one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentFilter<'a> {
    /// Search the whole segment.
    Unfiltered,
    /// Search only the set bits.
    Restricted(&'a Bitmap),
    /// Do not search the segment at all; it contributes the empty set by
    /// policy (still *covered* — exclusion is a resolved answer, not a
    /// failure).
    Excluded,
}

/// Per-segment bitmaps plus the policy for segments without one.
#[derive(Debug, Clone, Default)]
pub struct FilterSet {
    default: FilterDefault,
    per_segment: HashMap<SegmentId, Bitmap>,
}

impl FilterSet {
    /// No restrictions anywhere (what `filters: None` means).
    #[must_use]
    pub fn unfiltered() -> Self {
        FilterSet::default()
    }

    /// An empty set with the given default policy for unlisted segments.
    #[must_use]
    pub fn new(default: FilterDefault) -> Self {
        FilterSet {
            default,
            per_segment: HashMap::new(),
        }
    }

    /// Deny-by-default set: only segments given an explicit bitmap via
    /// [`FilterSet::set`] contribute rows. Use this for RBAC bitmaps.
    #[must_use]
    pub fn deny_unlisted() -> Self {
        FilterSet::new(FilterDefault::Empty)
    }

    /// Attach (or replace) the bitmap for one segment.
    pub fn set(&mut self, seg: SegmentId, bitmap: Bitmap) {
        self.per_segment.insert(seg, bitmap);
    }

    /// Builder-style [`FilterSet::set`].
    #[must_use]
    pub fn with(mut self, seg: SegmentId, bitmap: Bitmap) -> Self {
        self.set(seg, bitmap);
        self
    }

    /// Number of segments with an explicit bitmap.
    #[must_use]
    pub fn len(&self) -> usize {
        self.per_segment.len()
    }

    /// True when no explicit bitmaps are attached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.per_segment.is_empty()
    }

    /// The filter in force for `seg` — never silently unfiltered: absent
    /// segments resolve through the declared default.
    #[must_use]
    pub fn effective(&self, seg: SegmentId) -> SegmentFilter<'_> {
        match self.per_segment.get(&seg) {
            Some(b) => SegmentFilter::Restricted(b),
            None => match self.default {
                FilterDefault::All => SegmentFilter::Unfiltered,
                FilterDefault::Empty => SegmentFilter::Excluded,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfiltered_default_preserves_prefilter_semantics() {
        let f = FilterSet::unfiltered().with(SegmentId(1), Bitmap::new(8));
        assert!(matches!(
            f.effective(SegmentId(1)),
            SegmentFilter::Restricted(_)
        ));
        assert_eq!(f.effective(SegmentId(0)), SegmentFilter::Unfiltered);
    }

    #[test]
    fn deny_unlisted_excludes_absent_segments() {
        let mut allowed = Bitmap::new(8);
        allowed.set(3, true);
        let f = FilterSet::deny_unlisted().with(SegmentId(2), allowed);
        assert!(matches!(
            f.effective(SegmentId(2)),
            SegmentFilter::Restricted(_)
        ));
        // The footgun: an RBAC map that misses a segment must NOT fall
        // through to "search everything".
        assert_eq!(f.effective(SegmentId(7)), SegmentFilter::Excluded);
    }

    #[test]
    fn empty_set_len() {
        let f = FilterSet::deny_unlisted();
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        let f = f.with(SegmentId(0), Bitmap::new(4));
        assert_eq!(f.len(), 1);
    }
}
