//! **Figure 9**: node scalability — cluster QPS at recall targets 90%,
//! 99%, 99.9% as the cluster doubles 8 → 16 → 32 servers.
//!
//! Per-query CPU work is measured on the engine's segments; the global merge
//! cost and cluster QPS go through `tv_bench::baselines::cost`'s cluster
//! model (measured work + modeled merge, network and core counts —
//! DESIGN.md documents the substitution).
//!
//! Usage: `cargo run --release -p tv-bench --bin fig9_node_scalability -- [--n 20000]`

use std::time::Duration;
use tv_bench::baselines::{ClusterModel, QueryWork, TigerVectorSystem, VectorSystem};
use tv_bench::datagen::{ground_truth, DatasetShape, VectorDataset};
use tv_bench::{measure_point, print_table, save_json, BenchArgs};
use tv_common::ids::SegmentLayout;

fn main() {
    let args = BenchArgs::from_env();
    let n = args.get_usize("n", 20_000);
    let q = args.get_usize("q", 100);
    let k = args.get_usize("k", 100);
    let seed = args.get_u64("seed", 1);
    let layout = SegmentLayout::with_capacity((n / 32).max(512));

    let shape = DatasetShape::Sift;
    let ds = VectorDataset::generate(shape, n, q, seed);
    let data = ds.with_ids(layout);
    let gt = ground_truth(&ds.base, &ds.queries, k, shape.metric(), layout);

    let mut sys = TigerVectorSystem::new(ds.dim, shape.metric(), layout);
    sys.load(&data);
    sys.build_index();
    sys.stamp_provenance();

    // Find the ef reaching each recall target, measuring CPU work there.
    let targets = [(0.90, "90%"), (0.99, "99%"), (0.999, "99.9%")];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (target, label) in targets {
        let chosen = [
            8usize, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768,
        ]
        .into_iter()
        .map(|ef| measure_point(&mut sys, ef, &ds.queries, &gt, k, 1))
        .find(|p| p.recall >= target);
        let Some(p) = chosen else {
            println!("recall target {label} unreachable at this scale; skipping");
            continue;
        };
        let (ef, recall) = (p.ef, p.recall);
        let work = QueryWork {
            total_cpu: Duration::from_secs_f64(p.cpu_per_query_s),
            k,
        };
        let mut qps_prev = None;
        for servers in [8usize, 16, 32] {
            let model = ClusterModel { servers };
            let qps = model.qps(&work);
            let gain = qps_prev.map_or_else(String::new, |p: f64| format!("{:.2}×", qps / p));
            rows.push(vec![
                label.to_string(),
                format!("{ef}"),
                format!("{servers}"),
                format!("{qps:.0}"),
                gain.clone(),
            ]);
            json.push(serde_json::json!({
                "recall_target": label, "ef": ef, "recall": recall,
                "servers": servers, "qps": qps,
            }));
            qps_prev = Some(qps);
        }
    }
    print_table(
        "Fig. 9 — node scalability (SIFT-shape)",
        &["recall", "ef", "servers", "modeled QPS", "gain vs prev"],
        &rows,
    );
    println!("\npaper targets: 1.84–1.91× per doubling at 99.9% recall; ~1.5× at 90%.");
    save_json("fig9_node_scalability", &serde_json::Value::Array(json));
}
