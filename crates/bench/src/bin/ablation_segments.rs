//! **Ablation**: per-segment indexes vs one monolithic index — the §4.2
//! design choice ("we choose to partition the vector embeddings and build a
//! separate vector index for each segment").
//!
//! Sweeps the segment count (the engine's segment capacity) for a fixed
//! dataset and measures (a) total index-build time, (b) per-query search
//! CPU at `ef` 64, (c) recall — showing the trade-off
//! the paper banks on: segmented builds are cheaper and embarrassingly
//! parallel, while search pays a small per-segment overhead that the MPP
//! fan-out absorbs.
//!
//! Usage: `cargo run --release -p tv-bench --bin ablation_segments -- [--n 20000]`

use std::time::Duration;
use tv_bench::baselines::{TigerVectorSystem, VectorSystem};
use tv_bench::datagen::{ground_truth, DatasetShape, VectorDataset};
use tv_bench::{fmt_duration, measure_point, print_table, save_json, BenchArgs};
use tv_common::ids::SegmentLayout;

fn main() {
    let args = BenchArgs::from_env();
    let n = args.get_usize("n", 20_000);
    let q = args.get_usize("q", 40);
    let k = args.get_usize("k", 10);
    let seed = args.get_u64("seed", 1);
    let ds = VectorDataset::generate_dim(DatasetShape::Sift, 32, n, q, seed);

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for segments in [1usize, 4, 16, 64] {
        let capacity = n.div_ceil(segments);
        let layout = SegmentLayout::with_capacity(capacity);
        let gt = ground_truth(&ds.base, &ds.queries, k, ds.shape.metric(), layout);

        let mut sys = TigerVectorSystem::new(ds.dim, ds.shape.metric(), layout);
        sys.load(&ds.with_ids(layout));
        sys.build_index();
        sys.stamp_provenance();
        let build = sys.build_times().index_build;
        let p = measure_point(&mut sys, 64, &ds.queries, &gt, k, 1);
        let (search, recall) = (Duration::from_secs_f64(p.cpu_per_query_s), p.recall);

        rows.push(vec![
            format!("HNSW × {segments}"),
            fmt_duration(build),
            fmt_duration(search),
            format!("{recall:.4}"),
        ]);
        json.push(serde_json::json!({
            "index": "hnsw", "segments": segments,
            "build_s": build.as_secs_f64(), "search_s": search.as_secs_f64(),
            "recall": recall,
        }));
    }

    print_table(
        "Ablation — segmented vs monolithic index (§4.2)",
        &["configuration", "build", "search/query", "recall@k"],
        &rows,
    );
    println!("\nexpected shape: build time falls as segmentation grows (smaller graphs");
    println!("build cheaper and vacuum/rebuild units shrink); per-query CPU rises");
    println!("mildly with segment count — the cost the MPP fan-out hides.");
    save_json("ablation_segments", &serde_json::Value::Array(json));
}
