//! **Ablation**: pre-filter vs post-filter for filtered vector search —
//! the design argument of §5.2.
//!
//! Pre-filter (TigerVector's choice): evaluate the predicate into a bitmap,
//! hand it to the index, one search call returns k valid results.
//! Post-filter (the alternative): search unfiltered, drop invalid results,
//! and if fewer than k remain, retry with an enlarged k — "necessitating
//! additional rounds of vector search ... under low selective filtering
//! conditions".
//!
//! The sweep varies selectivity from 50% down to 0.5% and reports measured
//! time and search rounds for both strategies, plus the brute-force
//! fallback the planner uses below the valid-count threshold.
//!
//! Usage: `cargo run --release -p tv-bench --bin ablation_prefilter -- [--n 20000]`

use std::time::Instant;
use tv_bench::datagen::{DatasetShape, VectorDataset};
use tv_bench::{fmt_duration, print_table, save_json, BenchArgs};
use tv_common::bitmap::Filter;
use tv_common::ids::SegmentLayout;
use tv_common::{Bitmap, Neighbor};
use tv_hnsw::{HnswConfig, HnswIndex, VectorIndex};

fn main() {
    let args = BenchArgs::from_env();
    let n = args.get_usize("n", 20_000);
    let q = args.get_usize("q", 40);
    let k = args.get_usize("k", 10);
    let seed = args.get_u64("seed", 1);
    let layout = SegmentLayout::with_capacity(n.max(1));
    let ds = VectorDataset::generate_dim(DatasetShape::Sift, 32, n, q, seed);

    println!("building single-segment index over {n} vectors...");
    let mut idx = HnswIndex::new(HnswConfig::new(ds.dim, ds.shape.metric()));
    for (i, v) in ds.base.iter().enumerate() {
        idx.insert(layout.vertex_id(i), v).unwrap();
    }

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for selectivity_pct in [50.0f64, 10.0, 2.0, 0.5] {
        let stride = (100.0 / selectivity_pct).round() as usize;
        let bm = Bitmap::from_indices(n, (0..n).step_by(stride));
        let valid = bm.count_ones();

        // Pre-filter: one call with the bitmap.
        let started = Instant::now();
        let mut pre_results = 0;
        for qv in &ds.queries {
            let (r, _) = idx.top_k(qv, k, 128, Filter::Valid(&bm));
            pre_results += r.len();
        }
        let pre_time = started.elapsed() / ds.queries.len() as u32;

        // Post-filter: unfiltered search, retry with doubled k until k valid.
        let started = Instant::now();
        let mut post_rounds_total = 0;
        for qv in &ds.queries {
            let mut fetch = k;
            loop {
                post_rounds_total += 1;
                let (r, _) = idx.top_k(qv, fetch, 128.max(fetch), Filter::All);
                let valid_hits: Vec<&Neighbor> = r
                    .iter()
                    .filter(|nb| bm.get(nb.id.local().0 as usize))
                    .collect();
                if valid_hits.len() >= k || r.len() < fetch || fetch >= n {
                    break;
                }
                fetch *= 2;
            }
        }
        let post_time = started.elapsed() / ds.queries.len() as u32;

        // Brute force over the valid set (the planner's fallback).
        let started = Instant::now();
        for qv in &ds.queries {
            let _ = idx.brute_force_top_k(qv, k, Filter::Valid(&bm));
        }
        let brute_time = started.elapsed() / ds.queries.len() as u32;

        rows.push(vec![
            format!("{selectivity_pct}%"),
            format!("{valid}"),
            fmt_duration(pre_time),
            fmt_duration(post_time),
            format!("{:.2}", post_rounds_total as f64 / ds.queries.len() as f64),
            fmt_duration(brute_time),
        ]);
        json.push(serde_json::json!({
            "selectivity_pct": selectivity_pct,
            "valid": valid,
            "prefilter_s": pre_time.as_secs_f64(),
            "postfilter_s": post_time.as_secs_f64(),
            "postfilter_rounds": post_rounds_total as f64 / ds.queries.len() as f64,
            "brute_s": brute_time.as_secs_f64(),
        }));
        let _ = pre_results;
    }
    print_table(
        "Ablation — pre-filter vs post-filter (§5.2)",
        &[
            "selectivity",
            "valid pts",
            "pre-filter",
            "post-filter",
            "post rounds/q",
            "brute force",
        ],
        &rows,
    );
    println!("\nexpected shape: post-filter needs more rounds (and more time) as");
    println!("selectivity drops; at very low selectivity brute force over the valid");
    println!("set beats both — which is exactly the planner's threshold rule.");
    save_json("ablation_prefilter", &serde_json::Value::Array(json));
}
