//! Identifier types shared across the engine.
//!
//! TigerGraph partitions vertices into fixed-capacity *segments*; a vertex is
//! globally addressed by `(segment id, local offset)`. TigerVector keeps the
//! same addressing for embedding segments so that a vertex and its vectors
//! always share a partition (the paper's vertex-centric partitioning, §4.2).

/// Number of vertices a segment can hold.
///
/// TigerGraph uses on the order of a million vertices per segment; we default
/// to a smaller power of two so that laptop-scale datasets still produce
/// enough segments to exercise the MPP scatter-gather paths. Callers that
/// need a different granularity parameterize [`crate::ids::SegmentLayout`].
pub(crate) const SEGMENT_CAPACITY: usize = 8192;

/// Monotonically increasing transaction id (MVCC timestamp).
///
/// Deltas and snapshots are tagged with the `Tid` of the transaction that
/// produced them; a reader at `Tid t` observes exactly the deltas with
/// `tid <= t` (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tid(pub u64);

impl Tid {
    /// The zero transaction id — nothing is visible at this point.
    pub const ZERO: Tid = Tid(0);
    /// Maximum tid; a reader at `Tid::MAX` sees every committed delta.
    pub const MAX: Tid = Tid(u64::MAX);
}

impl std::fmt::Display for Tid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tid:{}", self.0)
    }
}

/// Identifier of a vertex segment (and of the embedding segments aligned with
/// it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SegmentId(pub u32);

impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seg:{}", self.0)
    }
}

/// Offset of a vertex within its segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LocalId(pub u32);

/// Globally unique vertex id: `(segment, offset)` packed into a `u64`.
///
/// The packing means ids sort first by segment, which keeps segment-parallel
/// scans cache-friendly and makes the owning partition recoverable from the
/// id alone — the property the distributed coordinator relies on when routing
/// per-segment sub-queries (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VertexId(pub u64);

impl VertexId {
    /// Compose a vertex id from its segment and local offset.
    #[must_use]
    pub fn new(segment: SegmentId, local: LocalId) -> Self {
        VertexId((u64::from(segment.0) << 32) | u64::from(local.0))
    }

    /// The segment this vertex lives in.
    #[must_use]
    pub fn segment(self) -> SegmentId {
        SegmentId((self.0 >> 32) as u32)
    }

    /// The offset of this vertex within its segment.
    #[must_use]
    pub fn local(self) -> LocalId {
        LocalId((self.0 & 0xFFFF_FFFF) as u32)
    }
}

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v({},{})", self.segment().0, self.local().0)
    }
}

/// Maps a dense external row number (0..n) to `(segment, local)` coordinates
/// and back, for a fixed per-segment capacity.
///
/// Loaders use this to assign ids round-robin-free: row `r` lives in segment
/// `r / capacity` at offset `r % capacity`, mirroring TigerGraph's sequential
/// segment fill during bulk ingestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentLayout {
    /// Vertices per segment.
    pub capacity: usize,
}

impl Default for SegmentLayout {
    fn default() -> Self {
        SegmentLayout {
            capacity: SEGMENT_CAPACITY,
        }
    }
}

impl SegmentLayout {
    /// A layout with the given per-segment capacity (must be non-zero).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "segment capacity must be non-zero");
        SegmentLayout { capacity }
    }

    /// The vertex id of dense row `row`.
    #[must_use]
    pub fn vertex_id(&self, row: usize) -> VertexId {
        let seg = SegmentId((row / self.capacity) as u32);
        let loc = LocalId((row % self.capacity) as u32);
        VertexId::new(seg, loc)
    }

    /// The dense row of a vertex id.
    #[must_use]
    pub fn row(&self, id: VertexId) -> usize {
        id.segment().0 as usize * self.capacity + id.local().0 as usize
    }

    /// Refuse an id whose local offset no segment of this layout has room
    /// for. A vector stored under one is counted live but dropped by every
    /// index search, whose filter bitmaps end at the capacity.
    pub fn check_id(&self, id: VertexId) -> crate::TvResult<()> {
        if (id.local().0 as usize) < self.capacity {
            Ok(())
        } else {
            Err(crate::TvError::InvalidArgument(format!(
                "vertex {id} is beyond the segment capacity {}",
                self.capacity
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let id = VertexId::new(SegmentId(7), LocalId(42));
        assert_eq!(id.segment(), SegmentId(7));
        assert_eq!(id.local(), LocalId(42));
    }

    #[test]
    fn vertex_ids_sort_by_segment_first() {
        let a = VertexId::new(SegmentId(1), LocalId(u32::MAX));
        let b = VertexId::new(SegmentId(2), LocalId(0));
        assert!(a < b);
    }

    #[test]
    fn layout_roundtrip() {
        let layout = SegmentLayout::with_capacity(100);
        for row in [0usize, 1, 99, 100, 101, 999, 123_456] {
            assert_eq!(layout.row(layout.vertex_id(row)), row);
        }
    }

    #[test]
    fn layout_refuses_an_id_beyond_its_capacity() {
        let layout = SegmentLayout::with_capacity(100);
        assert!(layout
            .check_id(VertexId::new(SegmentId(3), LocalId(99)))
            .is_ok());
        for local in [100, u32::MAX] {
            let err = layout
                .check_id(VertexId::new(SegmentId(3), LocalId(local)))
                .unwrap_err();
            assert!(
                matches!(&err, crate::TvError::InvalidArgument(m)
                    if m.contains(&format!("v(3,{local})")) && m.contains("100")),
                "got {err:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn layout_zero_capacity_panics() {
        let _ = SegmentLayout::with_capacity(0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Tid(3).to_string(), "tid:3");
        assert_eq!(SegmentId(3).to_string(), "seg:3");
        assert_eq!(
            VertexId::new(SegmentId(1), LocalId(2)).to_string(),
            "v(1,2)"
        );
    }
}
