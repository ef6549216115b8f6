//! Per-query cost-based routing for filtered vector search.
//!
//! TigerVector (§5.1) routes filtered search with one static valid-count
//! threshold. NaviX observes that the winning strategy depends on predicate
//! selectivity: very selective filters want an exact scan of the survivors,
//! mid-selectivity filters want in-traversal bitmap filtering (navigate
//! through invalid points, admit only valid ones), and near-unselective
//! filters want a plain unfiltered beam post-filtered afterwards — paying a
//! modest `ef` enlargement instead of a bitmap probe per candidate.
//!
//! [`choose`] is a pure function of [`PlanInputs`] so the decision is
//! deterministic, unit-testable, and cheap (no allocation, a handful of
//! float ops). The cardinality input must be the *true* valid-live count
//! (filter bitmap ∩ live occupancy, see `HnswIndex::valid_live_count`) —
//! feeding it raw bitmap cardinality was exactly the misrouting bug this
//! module replaces.
//!
//! The one tunable input is [`PlannerConfig::brute_force_threshold`], the
//! paper's valid-count floor; the cost model's other terms are the
//! constants below.

use tv_common::PlannerConfig;

/// Estimated distance computations per *admitted* beam slot of a graph
/// traversal, relative to one brute-force candidate scan. The graph cost
/// model is `GRAPH_COST_FACTOR × ef / selectivity`: with few valid points
/// the beam must wade through that many invalid candidates to admit `ef`
/// survivors.
pub const GRAPH_COST_FACTOR: f64 = 8.0;

/// Selectivity (valid-live / live) at or above which the planner skips
/// per-candidate bitmap checks during traversal and instead post-filters an
/// unfiltered beam widened to `ef / selectivity`.
pub const POST_FILTER_MIN_SELECTIVITY: f64 = 0.5;

/// Hard cap on an enlarged or escalated `ef`: past it the starvation
/// fallback gives up on the graph and scans the filtered set exactly.
pub const MAX_EF: usize = 4096;

/// The strategy chosen for one filtered search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanChoice {
    /// No valid point exists; return empty without touching vector data.
    Empty,
    /// Exact scan over the filtered survivors.
    BruteForce,
    /// HNSW beam that navigates through invalid points but only admits
    /// filter-passing ones (the §5.1 filter-function hand-off).
    InTraversal {
        /// Beam width to search with.
        ef: usize,
    },
    /// Unfiltered HNSW beam widened to `fetch_ef`, filtered afterwards.
    PostFilter {
        /// Enlarged beam width (`ef / selectivity`, capped at [`MAX_EF`]).
        fetch_ef: usize,
    },
}

/// Everything the cost model looks at for one query.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanInputs {
    /// True cardinality of the valid set: filter bitmap ∩ live occupancy.
    pub valid_live: usize,
    /// Live (non-tombstoned) points in the index.
    pub live_total: usize,
    /// Requested result count.
    pub k: usize,
    /// Caller's beam width.
    pub ef: usize,
}

/// Pick a strategy. Pure and total: every input maps to exactly one choice.
///
/// Cost model (unit: one distance computation):
/// * brute force costs `valid_live`;
/// * at or below `cfg.brute_force_threshold` valid points brute force is
///   chosen outright;
/// * a filtered traversal costs about `GRAPH_COST_FACTOR × ef / s` where
///   `s = valid_live / live_total` — the beam admits one valid point per
///   `1/s` candidates scored — capped at `live_total` (a traversal can never
///   score more points than exist);
/// * post-filtering costs about `GRAPH_COST_FACTOR × ef / s` too, but skips
///   the per-candidate bitmap probe, so it is preferred once `s` is high
///   enough ([`POST_FILTER_MIN_SELECTIVITY`]) that the enlarged beam stays
///   small.
#[must_use]
pub(crate) fn choose(cfg: &PlannerConfig, inputs: PlanInputs) -> PlanChoice {
    let PlanInputs {
        valid_live,
        live_total,
        k,
        ef,
    } = inputs;
    if valid_live == 0 || k == 0 {
        return PlanChoice::Empty;
    }
    if valid_live <= cfg.brute_force_threshold {
        return PlanChoice::BruteForce;
    }
    let s = valid_live as f64 / live_total.max(1) as f64;
    let graph_cost = (GRAPH_COST_FACTOR * ef.max(k).max(1) as f64 / s.max(f64::MIN_POSITIVE))
        .min(live_total as f64);
    if (valid_live as f64) < graph_cost {
        return PlanChoice::BruteForce;
    }
    if s >= POST_FILTER_MIN_SELECTIVITY {
        let fetch_ef = ((ef.max(1) as f64 / s).ceil() as usize)
            .max(ef)
            .min(MAX_EF.max(ef));
        return PlanChoice::PostFilter { fetch_ef };
    }
    PlanChoice::InTraversal { ef }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(valid_live: usize, live_total: usize) -> PlanInputs {
        PlanInputs {
            valid_live,
            live_total,
            k: 10,
            ef: 64,
        }
    }

    #[test]
    fn empty_valid_set_short_circuits() {
        let cfg = PlannerConfig::default();
        assert_eq!(choose(&cfg, inputs(0, 10_000)), PlanChoice::Empty);
        assert_eq!(
            choose(&cfg.with_brute_threshold(0), inputs(0, 10_000)),
            PlanChoice::Empty
        );
        let mut z = inputs(100, 10_000);
        z.k = 0;
        assert_eq!(choose(&cfg, z), PlanChoice::Empty);
    }

    #[test]
    fn tiny_valid_sets_brute_force() {
        let cfg = PlannerConfig::default();
        assert_eq!(choose(&cfg, inputs(3, 100_000)), PlanChoice::BruteForce);
        assert_eq!(choose(&cfg, inputs(64, 100_000)), PlanChoice::BruteForce);
    }

    #[test]
    fn selective_filters_brute_force_beyond_the_static_threshold() {
        // 500 valid of 1M (0.05%): the static 64-threshold would route to
        // the graph and wade through ~2000 invalid candidates per admit;
        // the cost model scans the 500 survivors instead.
        let cfg = PlannerConfig::default();
        assert_eq!(choose(&cfg, inputs(500, 1_000_000)), PlanChoice::BruteForce);
    }

    #[test]
    fn unselective_filters_post_filter() {
        let cfg = PlannerConfig::default();
        match choose(&cfg, inputs(90_000, 100_000)) {
            PlanChoice::PostFilter { fetch_ef } => {
                assert!((64..=128).contains(&fetch_ef), "fetch_ef {fetch_ef}");
            }
            other => panic!("expected post-filter, got {other:?}"),
        }
        // No filter at all (s = 1): fetch_ef collapses to ef.
        assert_eq!(
            choose(&cfg, inputs(100_000, 100_000)),
            PlanChoice::PostFilter { fetch_ef: 64 }
        );
    }

    #[test]
    fn mid_selectivity_filters_in_traversal() {
        let cfg = PlannerConfig::default();
        assert_eq!(
            choose(&cfg, inputs(10_000, 100_000)),
            PlanChoice::InTraversal { ef: 64 }
        );
    }

    #[test]
    fn post_filter_fetch_ef_respects_max_ef() {
        let cfg = PlannerConfig::default();
        // ef 3000 at s = 0.5 wants fetch_ef = 6000; the cap clamps it.
        let mut wide = inputs(50_000, 100_000);
        wide.ef = 3000;
        assert_eq!(
            choose(&cfg, wide),
            PlanChoice::PostFilter { fetch_ef: MAX_EF }
        );
        // A caller's ef above the cap is kept, never cut.
        let mut wider = inputs(500_000, 1_000_000);
        wider.ef = 5000;
        assert_eq!(
            choose(&cfg, wider),
            PlanChoice::PostFilter { fetch_ef: 5000 }
        );
    }

    #[test]
    fn brute_threshold_is_the_static_floor() {
        // At or below the floor the scan wins whatever the cost model says;
        // a zero floor leaves small valid sets to the cost model.
        let cfg = PlannerConfig::default().with_brute_threshold(0);
        assert_eq!(
            choose(&cfg, inputs(64, 64)),
            PlanChoice::PostFilter { fetch_ef: 64 }
        );
        assert_eq!(
            choose(&cfg.with_brute_threshold(64), inputs(64, 64)),
            PlanChoice::BruteForce
        );
    }
}
