//! Segment placement: which server owns which embedding segments, plus
//! replica assignment for high availability (§4.2: "ensuring high
//! availability is simplified with embedding segment replicas distributed
//! across the cluster").
//!
//! Two layers live here. [`Placement`] is the *policy*: the round-robin rule
//! that decides where a brand-new segment's replicas land. [`PlacementTable`]
//! is the *authority*: an explicit, generation-versioned segment→holders map
//! that live migration rewrites one move at a time ([`PlacementTable::
//! with_move`] bumps the generation; queries pin the table `Arc` they started
//! with so a mid-query flip can never split one request across two views).

use std::collections::BTreeMap;
use tv_common::{SegmentId, TvError, TvResult};

/// Round-robin segment→server placement with `replication` copies.
#[derive(Debug, Clone)]
pub(crate) struct Placement {
    /// Number of servers.
    pub servers: usize,
    /// Copies per segment (1 = no replicas).
    pub replication: usize,
}

impl Placement {
    /// New placement; panics on zero servers (programmer error).
    #[must_use]
    pub(crate) fn new(servers: usize, replication: usize) -> Self {
        assert!(servers > 0, "cluster needs at least one server");
        Placement {
            servers,
            replication: replication.clamp(1, servers),
        }
    }

    /// All servers holding a copy of `seg` (primary first).
    #[must_use]
    pub(crate) fn holders(&self, seg: SegmentId) -> Vec<usize> {
        (0..self.replication)
            .map(|r| (seg.0 as usize + r) % self.servers)
            .collect()
    }
}

/// One segment move in a rebalancing (or ad-hoc migration) plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Segment to move.
    pub segment: SegmentId,
    /// Server currently holding the copy that will be released.
    pub from: usize,
    /// Server that will hold the copy after the flip. Must not already
    /// hold one.
    pub to: usize,
}

impl std::fmt::Display for MigrationPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "segment {} {} -> {}", self.segment.0, self.from, self.to)
    }
}

/// Explicit, generation-versioned segment→holders map — the routing
/// authority during live migration. Immutable: every mutation returns a new
/// table, so the runtime can publish it behind an `Arc` swap and in-flight
/// queries keep the exact view they scattered with. Only
/// [`PlacementTable::with_move`] bumps the generation; registering a new
/// segment ([`PlacementTable::assign`]) does not, because it cannot
/// invalidate any existing route.
#[derive(Debug, Clone)]
pub struct PlacementTable {
    generation: u64,
    servers: usize,
    holders: BTreeMap<SegmentId, Vec<usize>>,
}

impl PlacementTable {
    /// An empty table for a cluster of `servers` servers, at generation 0.
    #[must_use]
    pub(crate) fn new(servers: usize) -> Self {
        assert!(servers > 0, "cluster needs at least one server");
        PlacementTable {
            generation: 0,
            servers,
            holders: BTreeMap::new(),
        }
    }

    /// The placement generation: bumped by exactly one per committed
    /// migration flip, never by anything else.
    #[must_use]
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// A new table with `seg` registered on `holders` (same generation —
    /// registration cannot invalidate an existing route). Panics on an
    /// empty or out-of-range holder list (programmer error: the runtime
    /// derives holders from the [`Placement`] policy).
    #[must_use]
    pub(crate) fn assign(&self, seg: SegmentId, holders: Vec<usize>) -> Self {
        assert!(!holders.is_empty(), "segment needs at least one holder");
        assert!(
            holders.iter().all(|&s| s < self.servers),
            "holder out of range"
        );
        let mut next = self.clone();
        next.holders.insert(seg, holders);
        next
    }

    /// Servers holding a copy of `seg` (primary first); empty if unknown.
    #[must_use]
    pub fn holders(&self, seg: SegmentId) -> &[usize] {
        self.holders.get(&seg).map_or(&[], Vec::as_slice)
    }

    /// Whether `server` holds a copy of `seg`.
    #[must_use]
    pub fn holds(&self, seg: SegmentId, server: usize) -> bool {
        self.holders(seg).contains(&server)
    }

    /// The holder that should serve `seg`, skipping `down` and `excluded`
    /// servers; `None` when no holder survives both lists.
    #[must_use]
    pub(crate) fn serving_excluding(
        &self,
        seg: SegmentId,
        down: &[usize],
        excluded: &[usize],
    ) -> Option<usize> {
        self.holders(seg)
            .iter()
            .copied()
            .find(|s| !down.contains(s) && !excluded.contains(s))
    }

    /// All registered segment ids, ascending.
    #[must_use]
    pub(crate) fn segment_ids(&self) -> Vec<SegmentId> {
        self.holders.keys().copied().collect()
    }

    /// A new table, one generation later, with `seg`'s copy moved from
    /// `from` to `to`. Rejects moves from a non-holder, onto an existing
    /// holder, or onto a server outside the cluster
    /// (`with_move_rejects_illegal_moves`).
    pub(crate) fn with_move(&self, seg: SegmentId, from: usize, to: usize) -> TvResult<Self> {
        if to >= self.servers {
            return Err(TvError::InvalidArgument(format!(
                "migration destination {to} outside cluster of {} servers",
                self.servers
            )));
        }
        if from == to {
            return Err(TvError::InvalidArgument(format!(
                "migration of segment {} from server {from} to itself",
                seg.0
            )));
        }
        let Some(holders) = self.holders.get(&seg) else {
            return Err(TvError::NotFound(format!(
                "segment {} not in placement table",
                seg.0
            )));
        };
        if !holders.contains(&from) {
            return Err(TvError::InvalidArgument(format!(
                "server {from} does not hold segment {}",
                seg.0
            )));
        }
        if holders.contains(&to) {
            return Err(TvError::InvalidArgument(format!(
                "server {to} already holds segment {}",
                seg.0
            )));
        }
        let mut next = self.clone();
        next.generation += 1;
        let hs = next.holders.get_mut(&seg).expect("checked above");
        for h in hs.iter_mut() {
            if *h == from {
                *h = to;
            }
        }
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_is_round_robin() {
        let p = Placement::new(4, 1);
        assert_eq!(p.holders(SegmentId(0)), vec![0]);
        assert_eq!(p.holders(SegmentId(5)), vec![1]);
    }

    #[test]
    fn replicas_are_distinct_servers() {
        let p = Placement::new(4, 3);
        let h = p.holders(SegmentId(2));
        assert_eq!(h, vec![2, 3, 0]);
        let mut uniq = h.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), 3);
    }

    #[test]
    fn replication_clamped_to_servers() {
        let p = Placement::new(2, 5);
        assert_eq!(p.replication, 2);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _ = Placement::new(0, 1);
    }

    /// A table populated by the round-robin policy, as the runtime does at
    /// `add_segment` time.
    fn seeded_table(servers: usize, replication: usize, segments: usize) -> PlacementTable {
        let policy = Placement::new(servers, replication);
        let mut table = PlacementTable::new(servers);
        for i in 0..segments {
            let seg = SegmentId(i as u32);
            table = table.assign(seg, policy.holders(seg));
        }
        table
    }

    #[test]
    fn table_registration_keeps_generation() {
        let t = seeded_table(3, 2, 6);
        assert_eq!(t.generation(), 0);
        assert_eq!(t.segment_ids().len(), 6);
        assert_eq!(t.holders(SegmentId(4)), &[1, 2]);
        assert!(t.holds(SegmentId(4), 2));
        assert!(!t.holds(SegmentId(4), 0));
        assert_eq!(t.serving_excluding(SegmentId(4), &[1], &[]), Some(2));
    }

    #[test]
    fn failover_prefers_primary_then_replicas() {
        let t = seeded_table(3, 2, 2);
        let seg = SegmentId(1);
        assert_eq!(t.serving_excluding(seg, &[], &[]), Some(1));
        assert_eq!(t.serving_excluding(seg, &[1], &[]), Some(2));
        assert_eq!(t.serving_excluding(seg, &[1, 2], &[]), None);
    }

    #[test]
    fn serving_excluding_skips_suspects_then_exhausts() {
        let t = seeded_table(4, 3, 2);
        let seg = SegmentId(1); // holders 1, 2, 3
        assert_eq!(t.serving_excluding(seg, &[], &[]), Some(1));
        assert_eq!(t.serving_excluding(seg, &[], &[1]), Some(2));
        assert_eq!(t.serving_excluding(seg, &[2], &[1]), Some(3));
        assert_eq!(t.serving_excluding(seg, &[2], &[1, 3]), None);
    }

    #[test]
    fn every_segment_is_held_by_exactly_replication_servers() {
        let t = seeded_table(3, 2, 10);
        let mut count = [0usize; 10];
        for s in 0..3 {
            for seg in t.segment_ids() {
                count[seg.0 as usize] += usize::from(t.holds(seg, s));
            }
        }
        assert!(count.iter().all(|&c| c == 2));
    }

    #[test]
    fn with_move_bumps_generation_and_reroutes() {
        let t = seeded_table(3, 1, 6);
        let moved = t.with_move(SegmentId(1), 1, 2).unwrap();
        assert_eq!(moved.generation(), 1);
        assert_eq!(moved.holders(SegmentId(1)), &[2]);
        // The original table is untouched (queries pin it).
        assert_eq!(t.generation(), 0);
        assert_eq!(t.holders(SegmentId(1)), &[1]);
    }

    #[test]
    fn with_move_rejects_illegal_moves() {
        let t = seeded_table(3, 2, 6);
        // Not a holder.
        assert!(t.with_move(SegmentId(0), 2, 1).is_err());
        // Already a holder.
        assert!(t.with_move(SegmentId(0), 0, 1).is_err());
        // Outside the cluster.
        assert!(t.with_move(SegmentId(0), 0, 3).is_err());
        // Self-move.
        assert!(t.with_move(SegmentId(0), 0, 0).is_err());
        // Unknown segment.
        assert!(t.with_move(SegmentId(99), 0, 2).is_err());
    }
}
