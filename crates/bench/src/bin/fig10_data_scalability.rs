//! **Figure 10**: data-size scalability — QPS as the dataset grows 10×
//! (100K → 1M standing in for the paper's 100M → 1B) on a fixed 8-server
//! modeled cluster, sweeping `ef` from the paper's lowest point (ef=12) up.
//!
//! The paper's observations to reproduce: segment count grows exactly 10×;
//! QPS at high-recall points drops to ~10%; at the lowest-ef point the
//! retained fraction is *better* than 10% (14.75%) because the computation
//! share grows and CPU utilization improves — in model terms, the small-ef
//! point is partially coordination-bound at the small scale, and the 10×
//! CPU growth moves it into the compute-bound regime.
//!
//! Usage: `cargo run --release -p tv-bench --bin fig10_data_scalability -- [--n 10000] [--factor 10]`

use std::time::Duration;
use tv_bench::baselines::{ClusterModel, QueryWork, TigerVectorSystem, VectorSystem};
use tv_bench::datagen::{ground_truth, DatasetShape, VectorDataset};
use tv_bench::{measure_point, print_table, save_json, BenchArgs};
use tv_common::ids::SegmentLayout;

fn main() {
    let args = BenchArgs::from_env();
    let n_small = args.get_usize("n", 10_000);
    let factor = args.get_usize("factor", 10);
    let q = args.get_usize("q", 50);
    let k = args.get_usize("k", 100);
    let seed = args.get_u64("seed", 1);
    let servers = args.get_usize("servers", 8);
    let capacity = (n_small / 32).max(256);
    let layout = SegmentLayout::with_capacity(capacity);
    let shape = DatasetShape::Sift;
    let ef_sweep = [12usize, 32, 64, 128, 256];

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut small_points: Vec<(usize, f64)> = Vec::new();

    for (scale_label, n) in [
        ("100K (for 100M)", n_small),
        ("1M (for 1B)", n_small * factor),
    ] {
        println!("building {scale_label}: n={n} ...");
        let ds = VectorDataset::generate(shape, n, q, seed);
        let data = ds.with_ids(layout);
        let gt = ground_truth(&ds.base, &ds.queries, k, shape.metric(), layout);
        let mut sys = TigerVectorSystem::new(ds.dim, shape.metric(), layout);
        sys.load(&data);
        sys.build_index();
        sys.stamp_provenance();
        println!(
            "  segments: {} ({}× the small scale)",
            sys.segment_count(),
            sys.segment_count() * capacity / n_small.max(1)
        );
        for (i, ef) in ef_sweep.iter().enumerate() {
            let p = measure_point(&mut sys, *ef, &ds.queries, &gt, k, 1);
            let recall = p.recall;
            let work = QueryWork {
                total_cpu: Duration::from_secs_f64(p.cpu_per_query_s),
                k,
            };
            let qps = ClusterModel { servers }.qps(&work);
            let retained = if n == n_small {
                small_points.push((i, qps));
                String::new()
            } else {
                small_points
                    .iter()
                    .find(|(idx, _)| *idx == i)
                    .map(|(_, small_qps)| format!("{:.2}%", qps / small_qps * 100.0))
                    .unwrap_or_default()
            };
            rows.push(vec![
                scale_label.to_string(),
                format!("{ef}"),
                format!("{recall:.4}"),
                format!("{qps:.0}"),
                retained,
            ]);
            json.push(serde_json::json!({
                "scale": scale_label, "n": n, "ef": ef,
                "recall": recall, "qps": qps,
            }));
        }
    }
    print_table(
        "Fig. 10 — data-size scalability (8 modeled servers)",
        &[
            "scale",
            "ef",
            "recall@k",
            "modeled QPS",
            "QPS retained vs small",
        ],
        &rows,
    );
    println!("\npaper targets: high-recall points retain ~10% QPS at 10× data;");
    println!("               the ef=12 point retains 14.75% (utilization improves).");
    save_json("fig10_data_scalability", &serde_json::Value::Array(json));
}
