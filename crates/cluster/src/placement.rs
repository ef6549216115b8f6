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
//! [`PlacementTable::rebalance_plan`] emits the minimal-move
//! [`MigrationPlan`] list that adapts the current table to a grown or shrunk
//! server count.

use std::collections::BTreeMap;
use tv_common::{SegmentId, TvError, TvResult};

/// Round-robin segment→server placement with `replication` copies.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Number of servers.
    pub servers: usize,
    /// Copies per segment (1 = no replicas).
    pub replication: usize,
}

impl Placement {
    /// New placement; panics on zero servers (programmer error).
    #[must_use]
    pub fn new(servers: usize, replication: usize) -> Self {
        assert!(servers > 0, "cluster needs at least one server");
        Placement {
            servers,
            replication: replication.clamp(1, servers),
        }
    }

    /// All servers holding a copy of `seg` (primary first).
    #[must_use]
    pub fn holders(&self, seg: SegmentId) -> Vec<usize> {
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
    pub fn new(servers: usize) -> Self {
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
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of servers this table routes across.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Number of segments registered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.holders.len()
    }

    /// Whether no segment is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.holders.is_empty()
    }

    /// A new table with `seg` registered on `holders` (same generation —
    /// registration cannot invalidate an existing route). Panics on an
    /// empty or out-of-range holder list (programmer error: the runtime
    /// derives holders from the [`Placement`] policy).
    #[must_use]
    pub fn assign(&self, seg: SegmentId, holders: Vec<usize>) -> Self {
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
    pub fn serving_excluding(
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
    pub fn segment_ids(&self) -> Vec<SegmentId> {
        self.holders.keys().copied().collect()
    }

    /// Number of segment copies server `s` holds.
    #[must_use]
    pub fn load(&self, s: usize) -> usize {
        self.holders.values().filter(|h| h.contains(&s)).count()
    }

    /// A new table, one generation later, with `seg`'s copy moved from
    /// `from` to `to`. Rejects moves from a non-holder, onto an existing
    /// holder, or onto a server outside the cluster — the invariants the
    /// rebalance property test pins down.
    pub fn with_move(&self, seg: SegmentId, from: usize, to: usize) -> TvResult<Self> {
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

    /// Minimal-move plan adapting this table to a cluster of `new_servers`
    /// servers. Two passes: forced evacuation of every copy stranded on a
    /// server `>= new_servers` (each lands on the least-loaded legal
    /// survivor), then greedy balancing that moves copies from the most- to
    /// the least-loaded server until the spread is at most one copy — the
    /// fewest moves that can both legalize and balance the table. Errors
    /// when a stranded copy has nowhere legal to go (every surviving server
    /// already holds the segment, i.e. replication exceeds `new_servers`).
    /// The plan is *advisory*: nothing is applied to this table.
    pub fn rebalance_plan(&self, new_servers: usize) -> TvResult<Vec<MigrationPlan>> {
        if new_servers == 0 {
            return Err(TvError::InvalidArgument(
                "cannot rebalance onto zero servers".into(),
            ));
        }
        let mut holders = self.holders.clone();
        let mut plans = Vec::new();
        let load = |holders: &BTreeMap<SegmentId, Vec<usize>>, s: usize| {
            holders.values().filter(|h| h.contains(&s)).count()
        };
        let apply = |holders: &mut BTreeMap<SegmentId, Vec<usize>>, plan: MigrationPlan| {
            for h in holders.get_mut(&plan.segment).expect("planned segment") {
                if *h == plan.from {
                    *h = plan.to;
                }
            }
        };

        // Pass 1: evacuate servers that no longer exist.
        let segs: Vec<SegmentId> = holders.keys().copied().collect();
        for seg in segs {
            while let Some(&from) = holders[&seg].iter().find(|&&s| s >= new_servers) {
                let to = (0..new_servers)
                    .filter(|d| !holders[&seg].contains(d))
                    .min_by_key(|&d| (load(&holders, d), d));
                let Some(to) = to else {
                    return Err(TvError::Cluster(format!(
                        "segment {} stranded on server {from}: every surviving \
                         server already holds a copy",
                        seg.0
                    )));
                };
                let plan = MigrationPlan {
                    segment: seg,
                    from,
                    to,
                };
                apply(&mut holders, plan);
                plans.push(plan);
            }
        }

        // Pass 2: greedy balance to a spread of at most one copy.
        loop {
            let loads: Vec<usize> = (0..new_servers).map(|s| load(&holders, s)).collect();
            let (min_s, &min_l) = loads
                .iter()
                .enumerate()
                .min_by_key(|&(s, &l)| (l, s))
                .expect("new_servers > 0");
            // Donors from most loaded down; stop once no donor can improve.
            let mut donors: Vec<(usize, usize)> = loads.iter().copied().enumerate().collect();
            donors.sort_by_key(|&(s, l)| (std::cmp::Reverse(l), s));
            let mut moved = false;
            for (donor, donor_load) in donors {
                if donor_load <= min_l + 1 {
                    break;
                }
                // Smallest-id segment on the donor the receiver lacks.
                let seg = holders
                    .iter()
                    .find(|(_, h)| h.contains(&donor) && !h.contains(&min_s))
                    .map(|(seg, _)| *seg);
                if let Some(seg) = seg {
                    let plan = MigrationPlan {
                        segment: seg,
                        from: donor,
                        to: min_s,
                    };
                    apply(&mut holders, plan);
                    plans.push(plan);
                    moved = true;
                    break;
                }
            }
            if !moved {
                break;
            }
        }
        Ok(plans)
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
        assert_eq!(t.len(), 6);
        assert_eq!(t.holders(SegmentId(4)), &[1, 2]);
        assert!(t.holds(SegmentId(4), 2));
        assert!(!t.holds(SegmentId(4), 0));
        assert_eq!(t.serving_excluding(SegmentId(4), &[1], &[]), Some(2));
        assert_eq!(t.load(0), 4); // segments 0, 2, 3, 5
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
        assert_eq!((0..3).map(|s| t.load(s)).sum::<usize>(), 20);
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

    #[test]
    fn rebalance_growth_is_minimal_and_balanced() {
        // 12 segments, replication 1, on 4 servers: loads [3, 3, 3, 3].
        // Growing to 6 servers (target load 2) requires exactly 4 moves.
        let t = seeded_table(4, 1, 12);
        let grown = PlacementTable {
            generation: t.generation,
            servers: 6,
            holders: t.holders.clone(),
        };
        let plan = grown.rebalance_plan(6).unwrap();
        assert_eq!(plan.len(), 4, "minimal growth plan is 4 moves: {plan:?}");
        let mut scratch = grown.clone();
        for m in &plan {
            scratch = scratch.with_move(m.segment, m.from, m.to).unwrap();
        }
        let loads: Vec<usize> = (0..6).map(|s| scratch.load(s)).collect();
        assert!(loads.iter().all(|&l| l == 2), "balanced: {loads:?}");
    }

    #[test]
    fn rebalance_shrink_evacuates_with_minimal_moves() {
        // 12 segments, replication 1, on 4 servers; dropping server 3
        // forces exactly its 3 segments to move.
        let t = seeded_table(4, 1, 12);
        let plan = t.rebalance_plan(3).unwrap();
        assert_eq!(plan.len(), 3, "minimal shrink plan is 3 moves: {plan:?}");
        assert!(plan.iter().all(|m| m.from == 3 && m.to < 3));
        let mut scratch = t.clone();
        for m in &plan {
            scratch = scratch.with_move(m.segment, m.from, m.to).unwrap();
        }
        let loads: Vec<usize> = (0..3).map(|s| scratch.load(s)).collect();
        assert!(loads.iter().all(|&l| l == 4), "balanced: {loads:?}");
    }

    #[test]
    fn rebalance_errors_when_replication_exceeds_survivors() {
        let t = seeded_table(4, 3, 8);
        let err = t.rebalance_plan(2).unwrap_err();
        assert!(matches!(err, TvError::Cluster(_)), "got {err}");
        assert!(t.rebalance_plan(0).is_err());
    }

    /// Satellite property: across random cluster shapes, no rebalance plan
    /// ever leaves a segment with zero holders, moves a copy onto a server
    /// that already holds one, moves from a non-holder, or leaves a copy on
    /// an evacuated server — and with replication 1 the result is balanced
    /// to a spread of at most one.
    #[test]
    fn rebalance_plan_property() {
        let mut rng = tv_common::SplitMix64::new(0x0BA1_ACE5);
        for case in 0..200 {
            let old_servers = 1 + (rng.next_u64() % 6) as usize;
            let replication = 1 + (rng.next_u64() % 3) as usize;
            let segments = (rng.next_u64() % 21) as usize;
            let new_servers = 1 + (rng.next_u64() % 6) as usize;
            let rep_eff = replication.min(old_servers);

            let table = seeded_table(old_servers, replication, segments);
            // Plan against the union of old and new server counts so growth
            // destinations are representable.
            let widened = PlacementTable {
                generation: table.generation,
                servers: old_servers.max(new_servers),
                holders: table.holders.clone(),
            };
            let plan = match widened.rebalance_plan(new_servers) {
                Ok(plan) => plan,
                Err(e) => {
                    assert!(
                        segments > 0 && rep_eff > new_servers,
                        "case {case}: unexpected plan error {e} \
                         (old={old_servers} rep={replication} segs={segments} \
                         new={new_servers})"
                    );
                    continue;
                }
            };
            assert!(
                rep_eff <= new_servers || segments == 0,
                "case {case}: expected stranded-copy error"
            );

            let mut scratch = widened.clone();
            for m in &plan {
                // with_move enforces per-step legality: from holds, to does
                // not, to is in range. A violation fails loudly here.
                scratch = scratch
                    .with_move(m.segment, m.from, m.to)
                    .unwrap_or_else(|e| panic!("case {case}: illegal move {m} in plan: {e}"));
                assert!(m.to < new_servers, "case {case}: move onto dead server");
            }
            for seg in scratch.segment_ids() {
                let holders = scratch.holders(seg);
                assert!(!holders.is_empty(), "case {case}: segment lost all holders");
                assert_eq!(holders.len(), rep_eff, "case {case}: replica count changed");
                assert!(
                    holders.iter().all(|&h| h < new_servers),
                    "case {case}: copy left on evacuated server {holders:?}"
                );
                let mut uniq = holders.to_vec();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), holders.len(), "case {case}: duplicate holders");
            }
            if rep_eff == 1 && segments > 0 {
                let loads: Vec<usize> = (0..new_servers).map(|s| scratch.load(s)).collect();
                let spread = loads.iter().max().unwrap() - loads.iter().min().unwrap();
                assert!(spread <= 1, "case {case}: unbalanced {loads:?}");
            }
        }
    }
}
