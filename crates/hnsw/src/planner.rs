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

use tv_common::PlannerConfig;

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
        /// Enlarged beam width (`ef / selectivity`, capped at `max_ef`).
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
/// * a filtered traversal costs about `graph_cost_factor × ef / s` where
///   `s = valid_live / live_total` — the beam admits one valid point per
///   `1/s` candidates scored — capped at `live_total` (a traversal can never
///   score more points than exist);
/// * post-filtering costs about `graph_cost_factor × ef / s` too, but skips
///   the per-candidate bitmap probe, so it is preferred once `s` is high
///   enough (`post_filter_min_selectivity`) that the enlarged beam stays
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
    if !cfg.enabled {
        // Legacy static routing, preserved for A/B comparison.
        return if valid_live < cfg.brute_force_threshold {
            PlanChoice::BruteForce
        } else {
            PlanChoice::InTraversal { ef }
        };
    }
    if valid_live <= cfg.brute_force_threshold {
        return PlanChoice::BruteForce;
    }
    let s = valid_live as f64 / live_total.max(1) as f64;
    let graph_cost = (cfg.graph_cost_factor * ef.max(k).max(1) as f64 / s.max(f64::MIN_POSITIVE))
        .min(live_total as f64);
    if (valid_live as f64) < graph_cost {
        return PlanChoice::BruteForce;
    }
    if s >= cfg.post_filter_min_selectivity {
        let fetch_ef = ((ef.max(1) as f64 / s).ceil() as usize)
            .max(ef)
            .min(cfg.max_ef.max(ef));
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
            choose(&PlannerConfig::static_threshold(5), inputs(0, 10_000)),
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
        let cfg = PlannerConfig::default().with_max_ef(100);
        // s = 0.5 wants fetch_ef = 128; the cap clamps it to 100.
        match choose(&cfg, inputs(50_000, 100_000)) {
            PlanChoice::PostFilter { fetch_ef } => assert_eq!(fetch_ef, 100),
            other => panic!("expected capped post-filter, got {other:?}"),
        }
    }

    #[test]
    fn disabled_planner_reproduces_static_threshold() {
        let cfg = PlannerConfig::static_threshold(64);
        assert_eq!(choose(&cfg, inputs(63, 1_000_000)), PlanChoice::BruteForce);
        // The cliff the planner fixes: 64 valid of 1M still routes to the
        // graph under the static rule.
        assert_eq!(
            choose(&cfg, inputs(64, 1_000_000)),
            PlanChoice::InTraversal { ef: 64 }
        );
        // static_threshold(0) never brute-forces.
        assert_eq!(
            choose(&PlannerConfig::static_threshold(0), inputs(1, 2)),
            PlanChoice::InTraversal { ef: 64 }
        );
    }
}
