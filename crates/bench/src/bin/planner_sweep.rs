//! **Planner sweep**: per-strategy cost curves vs the cost-based planner
//! across filter selectivities — the experiment behind the adaptive
//! filtered-search planner (the §5.1 static threshold upgraded to
//! per-query routing).
//!
//! For each selectivity from 100% down to 0.01% the sweep measures all
//! three strategies in isolation —
//!
//! * **brute** — exact scan of the valid set,
//! * **in-traversal** — HNSW beam with the validity bitmap applied during
//!   traversal,
//! * **post-filter** — unfiltered beam with planner-enlarged `ef`, filtered
//!   afterwards,
//!
//! — then the planner itself (`search_planned`), and the §5.1
//! static-threshold router it replaced. Two gates make the sweep a CI
//! check rather than a chart generator (exit 1 on violation):
//!
//! 1. **cost**: the planner's distance computations per query must stay
//!    within `--cost-factor` (default 1.3×) of the best *exact-capable*
//!    strategy at every selectivity (a strategy only competes at points
//!    where its recall is at least the planner's — a starved beam that
//!    returns 2 of 10 results cheaply is not "better");
//! 2. **recall**: the planner's recall may never drop below the legacy
//!    static-threshold path's.
//!
//! Distance computations are the gated cost metric because they are
//! deterministic across hosts; wall-clock QPS is also reported (and fed to
//! `check_regression` against the committed baseline) but only the QPS gate
//! there has host tolerance.
//!
//! Usage: `cargo run --release -p tv-bench --bin planner_sweep -- [--n 20000] [--q 40] [--k 10] [--cost-factor 1.3]`

use std::time::Instant;
use tv_bench::baselines::recall_at_k;
use tv_bench::datagen::{DatasetShape, VectorDataset};
use tv_bench::{print_table, save_json, set_layout_info, set_planner_info, BenchArgs};
use tv_common::bitmap::Filter;
use tv_common::ids::SegmentLayout;
use tv_common::{Bitmap, PlannerConfig};
use tv_hnsw::{HnswConfig, HnswIndex, SearchStats, VectorIndex};

/// One strategy's measurement at one selectivity.
struct Curve {
    dc_per_q: f64,
    qps: f64,
    recall: f64,
}

fn measure(
    queries: &[Vec<f32>],
    oracle: &[Vec<tv_common::VertexId>],
    k: usize,
    mut run: impl FnMut(&[f32]) -> (Vec<tv_common::Neighbor>, SearchStats),
) -> Curve {
    let started = Instant::now();
    let mut dc = 0u64;
    let mut rec = 0.0;
    for (qi, qv) in queries.iter().enumerate() {
        let (r, s) = run(qv);
        dc += s.distance_computations;
        rec += recall_at_k(&r, &oracle[qi], k);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let nq = queries.len() as f64;
    Curve {
        dc_per_q: dc as f64 / nq,
        qps: nq / elapsed.max(1e-9),
        recall: rec / nq,
    }
}

/// The §5.1 static router the planner replaced: brute force below a fixed
/// valid-count threshold, else the filtered beam, with no escalation. It
/// reads the true valid-live count (the pre-planner router overestimated
/// it), which makes it the stronger baseline.
fn legacy(
    idx: &HnswIndex,
    qv: &[f32],
    k: usize,
    ef: usize,
    filter: Filter<'_>,
    threshold: usize,
) -> (Vec<tv_common::Neighbor>, SearchStats) {
    if idx.valid_live_count(filter) < threshold {
        idx.brute_force_top_k(qv, k, filter)
    } else {
        idx.top_k(qv, k, ef, filter)
    }
}

fn main() {
    let args = BenchArgs::from_env();
    let n = args.get_usize("n", 20_000);
    let q = args.get_usize("q", 40);
    let k = args.get_usize("k", 10);
    let ef = args.get_usize("ef", 64);
    let seed = args.get_u64("seed", 1);
    let cost_factor = args.get_f64("cost-factor", 1.3);
    let planner_cfg = PlannerConfig::default();
    set_planner_info(&planner_cfg);

    let layout = SegmentLayout::with_capacity(n.max(1));
    let ds = VectorDataset::generate_dim(DatasetShape::Sift, 32, n, q, seed);
    println!("building single-segment index over {n} vectors...");
    let mut idx = HnswIndex::new(HnswConfig::new(ds.dim, ds.shape.metric()));
    for (i, v) in ds.base.iter().enumerate() {
        idx.insert(layout.vertex_id(i), v).unwrap();
    }

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut violations = Vec::new();
    for selectivity_pct in [100.0f64, 50.0, 10.0, 2.0, 0.5, 0.1, 0.05, 0.01] {
        let stride = (100.0 / selectivity_pct).round() as usize;
        let bm = Bitmap::from_indices(n, (0..n).step_by(stride));
        let valid = bm.count_ones();
        let filter = Filter::Valid(&bm);

        // Ground truth per query: exact top-k over the valid set.
        let oracle: Vec<Vec<tv_common::VertexId>> = ds
            .queries
            .iter()
            .map(|qv| {
                let (r, _) = idx.brute_force_top_k(qv, k, filter);
                r.into_iter().map(|nb| nb.id).collect()
            })
            .collect();

        let s = valid as f64 / idx.len().max(1) as f64;
        let fetch_ef = ((ef as f64 / s).ceil() as usize)
            .max(ef)
            .min(tv_hnsw::planner::MAX_EF);

        let brute = measure(&ds.queries, &oracle, k, |qv| {
            idx.brute_force_top_k(qv, k, filter)
        });
        let intrav = measure(&ds.queries, &oracle, k, |qv| idx.top_k(qv, k, ef, filter));
        let post = measure(&ds.queries, &oracle, k, |qv| {
            idx.post_filter_top_k(qv, k, fetch_ef, filter)
        });
        let planner = measure(&ds.queries, &oracle, k, |qv| {
            idx.search_planned(qv, k, ef, filter, &planner_cfg)
        });
        let legacy_c = measure(&ds.queries, &oracle, k, |qv| {
            legacy(&idx, qv, k, ef, filter, 64)
        });

        // Gate 1: cost vs the best exact-capable strategy. A strategy
        // competes only if it matched the planner's recall — otherwise its
        // low cost is an artifact of returning fewer (or worse) results.
        let best_dc = [&brute, &intrav, &post]
            .iter()
            .filter(|c| c.recall >= planner.recall - 1e-9)
            .map(|c| c.dc_per_q)
            .fold(f64::INFINITY, f64::min);
        if planner.dc_per_q > cost_factor * best_dc {
            violations.push(format!(
                "selectivity {selectivity_pct}%: planner {:.0} dc/q > {cost_factor} x best {:.0}",
                planner.dc_per_q, best_dc
            ));
        }
        // Gate 2: the planner never gives up recall vs the static router.
        if planner.recall + 1e-9 < legacy_c.recall {
            violations.push(format!(
                "selectivity {selectivity_pct}%: planner recall {:.4} < legacy {:.4}",
                planner.recall, legacy_c.recall
            ));
        }

        rows.push(vec![
            format!("{selectivity_pct}%"),
            format!("{valid}"),
            format!("{:.0}", brute.dc_per_q),
            format!("{:.0} ({:.2})", intrav.dc_per_q, intrav.recall),
            format!("{:.0} ({:.2})", post.dc_per_q, post.recall),
            format!("{:.0} ({:.2})", planner.dc_per_q, planner.recall),
            format!("{:.0} ({:.2})", legacy_c.dc_per_q, legacy_c.recall),
            format!("{:.0}", planner.qps),
        ]);
        json.push(serde_json::json!({
            "op": format!("sel_{selectivity_pct}"),
            "selectivity_pct": selectivity_pct,
            "valid": valid,
            "brute_dc": brute.dc_per_q,
            "in_traversal_dc": intrav.dc_per_q,
            "in_traversal_recall": intrav.recall,
            "post_filter_dc": post.dc_per_q,
            "post_filter_recall": post.recall,
            "planner_dc": planner.dc_per_q,
            "legacy_dc": legacy_c.dc_per_q,
            "legacy_recall": legacy_c.recall,
            "recall": planner.recall,
            "qps": planner.qps,
        }));
    }

    print_table(
        "Planner sweep — distance computations/query (recall) by strategy",
        &[
            "selectivity",
            "valid pts",
            "brute",
            "in-traversal",
            "post-filter",
            "planner",
            "legacy(64)",
            "planner QPS",
        ],
        &rows,
    );
    set_layout_info([&idx]);
    save_json("planner_sweep", &serde_json::Value::Array(json));

    if violations.is_empty() {
        println!("\nplanner within {cost_factor}x of the best exact-capable strategy at every");
        println!("selectivity, and never below the static-threshold router's recall.");
    } else {
        eprintln!("\nPLANNER GATE VIOLATIONS:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
