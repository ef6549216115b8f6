//! Search statistics.
//!
//! The paper notes TigerVector "enhance[s] the indexes to report relevant
//! statistics for measuring its performance" (§4.4). Benchmarks use these to
//! explain *why* a configuration is fast or slow (e.g. the Table 3/4 analysis
//! of brute-force vs. index search per segment), and the filtered-search
//! planner uses them as its feedback signal — which is why filter rejections
//! and tombstone skips are counted separately.

/// Counters accumulated during one search call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of distance computations performed.
    pub distance_computations: u64,
    /// Number of graph edges traversed (candidate expansions).
    pub hops: u64,
    /// Number of candidates rejected by the caller's validity filter
    /// (deleted slots are counted in `deleted_skipped`, not here).
    pub filtered_out: u64,
    /// Number of tombstoned candidates skipped during traversal or scan.
    pub deleted_skipped: u64,
    /// Number of candidates rescored by the exact-rerank stage (quantized
    /// indexes only; included in `distance_computations` as well).
    pub reranked: u64,
    /// Overlay vectors whose dimensionality did not match the query; they
    /// cannot be scored, but silently dropping them hides data corruption.
    pub overlay_dim_mismatches: u64,
    /// Whether the engine chose brute force over the index for this call.
    pub brute_force: bool,
    /// Searches the planner routed to an exact scan of the filtered set.
    pub plans_brute: u64,
    /// Searches the planner routed to in-traversal bitmap filtering.
    pub plans_in_traversal: u64,
    /// Searches the planner routed to an unfiltered beam + post-filter.
    pub plans_post_filter: u64,
    /// Starvation escalations: a filtered search returned fewer than `k`
    /// results while valid points remained, so `ef` was doubled and the
    /// search retried.
    pub ef_escalations: u64,
    /// Starvation escalations that reached `planner::MAX_EF` and fell back
    /// to an exact scan.
    pub brute_fallbacks: u64,
    /// Graph searches served from compiled (CSR-packed, BFS-reordered) rows
    /// alone, with no row pending in the edit set. Lets benchmarks and
    /// the planner's telemetry attribute throughput to layout freshness.
    pub packed_searches: u64,
}

impl SearchStats {
    /// Accumulate another search's counters into this one (used when a
    /// query fans out over many segments).
    pub fn merge(&mut self, other: &SearchStats) {
        self.distance_computations += other.distance_computations;
        self.hops += other.hops;
        self.filtered_out += other.filtered_out;
        self.deleted_skipped += other.deleted_skipped;
        self.reranked += other.reranked;
        self.overlay_dim_mismatches += other.overlay_dim_mismatches;
        self.brute_force |= other.brute_force;
        self.plans_brute += other.plans_brute;
        self.plans_in_traversal += other.plans_in_traversal;
        self.plans_post_filter += other.plans_post_filter;
        self.ef_escalations += other.ef_escalations;
        self.brute_fallbacks += other.brute_fallbacks;
        self.packed_searches += other.packed_searches;
    }

    /// Total segment searches the planner routed (one count per plan).
    #[must_use]
    pub fn plans_total(&self) -> u64 {
        self.plans_brute + self.plans_in_traversal + self.plans_post_filter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = SearchStats {
            distance_computations: 10,
            hops: 5,
            filtered_out: 1,
            deleted_skipped: 2,
            reranked: 3,
            overlay_dim_mismatches: 0,
            brute_force: false,
            plans_brute: 1,
            plans_in_traversal: 0,
            plans_post_filter: 2,
            ef_escalations: 1,
            brute_fallbacks: 0,
            packed_searches: 2,
        };
        let b = SearchStats {
            distance_computations: 7,
            hops: 2,
            filtered_out: 0,
            deleted_skipped: 3,
            reranked: 4,
            overlay_dim_mismatches: 1,
            brute_force: true,
            plans_brute: 0,
            plans_in_traversal: 1,
            plans_post_filter: 0,
            ef_escalations: 0,
            brute_fallbacks: 1,
            packed_searches: 1,
        };
        a.merge(&b);
        assert_eq!(a.distance_computations, 17);
        assert_eq!(a.hops, 7);
        assert_eq!(a.filtered_out, 1);
        assert_eq!(a.deleted_skipped, 5);
        assert_eq!(a.reranked, 7);
        assert_eq!(a.overlay_dim_mismatches, 1);
        assert!(a.brute_force);
        assert_eq!(a.plans_total(), 4);
        assert_eq!(a.ef_escalations, 1);
        assert_eq!(a.brute_fallbacks, 1);
        assert_eq!(a.packed_searches, 3);
    }
}
