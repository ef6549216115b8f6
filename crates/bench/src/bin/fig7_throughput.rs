//! **Figure 7**: throughput (QPS) vs recall on SIFT-shape and Deep-shape
//! datasets for TigerVector, Milvus-like, Neo4j-like, and Neptune-like.
//!
//! TigerVector/Milvus sweep `ef` upward from `k` (a beam narrower than `k`
//! is clamped up to `k`, so points below it would all be the same operating
//! point); Neo4j/Neptune appear as single points
//! (the paper: "Neo4j and Amazon Neptune do not allow parameter tuning").
//! Recall and per-query CPU are measured; QPS on the paper's 32-core box is
//! modeled per `tv_bench::baselines::cost` (see the table there for the constants
//! and their rationale).
//!
//! Usage: `cargo run --release -p tv-bench --bin fig7_throughput -- [--n 20000] [--q 100] [--k 100]`

use tv_bench::baselines::{MilvusLike, NeoLike, NeptuneLike, TigerVectorSystem, VectorSystem};
use tv_bench::datagen::{ground_truth, DatasetShape, VectorDataset};
use tv_bench::{measure_point, print_table, save_json, set_storage_info, BenchArgs};
use tv_common::ids::SegmentLayout;
use tv_common::QuantSpec;

fn main() {
    let args = BenchArgs::from_env();
    let n = args.get_usize("n", 20_000);
    let q = args.get_usize("q", 100);
    let k = args.get_usize("k", 100);
    let seed = args.get_u64("seed", 1);
    let ef_sweep = [1usize, 2, 3, 4, 6, 8].map(|m| m * k);
    let layout = SegmentLayout::with_capacity((n / 8).max(1024));

    let mut all = serde_json::Map::new();
    for shape in [DatasetShape::Sift, DatasetShape::Deep] {
        println!(
            "\n### {} — n={n}, q={q}, k={k} (paper: 100M vectors; ×{} scale-down)",
            shape.scaled_name(),
            100_000_000 / n.max(1)
        );
        let ds = VectorDataset::generate(shape, n, q, seed);
        let data = ds.with_ids(layout);
        let gt = ground_truth(&ds.base, &ds.queries, k, shape.metric(), layout);

        let mut rows = Vec::new();
        let mut shape_json = Vec::new();

        // TigerVector (f32 + SQ8 tiers) + Milvus: ef sweeps.
        let mut tv = TigerVectorSystem::new(ds.dim, shape.metric(), layout);
        tv.load(&data);
        tv.build_index();
        set_storage_info(tv.storage_tier(), tv.memory_bytes());
        let mut tv8 = TigerVectorSystem::new(ds.dim, shape.metric(), layout)
            .with_quant(QuantSpec::sq8().with_rerank_factor(4));
        tv8.load(&data);
        tv8.build_index();
        let mut mv = MilvusLike::new(ds.dim, shape.metric(), layout);
        mv.load(&data);
        mv.build_index();
        for ef in ef_sweep {
            for (sys, fanout) in [
                (&mut tv as &mut dyn VectorSystem, 8),
                (&mut tv8, 8),
                (&mut mv, 6),
            ] {
                let p = measure_point(sys, ef, &ds.queries, &gt, k, fanout);
                rows.push(vec![
                    sys.name().to_string(),
                    format!("{ef}"),
                    format!("{:.4}", p.recall),
                    format!("{:.0}", p.modeled_qps),
                    format!("{:.3}", p.cpu_per_query_s * 1e3),
                ]);
                shape_json.push(serde_json::json!({
                    "system": sys.name(), "ef": ef, "recall": p.recall,
                    "qps": p.modeled_qps, "cpu_ms": p.cpu_per_query_s * 1e3,
                }));
            }
        }

        // Neo4j-like + Neptune-like: single untunable points.
        let mut neo = NeoLike::new(ds.dim, shape.metric());
        neo.load(&data);
        neo.build_index();
        let mut nep = NeptuneLike::new(ds.dim, shape.metric());
        nep.load(&data);
        nep.build_index();
        for (sys, fanout) in [(&mut neo as &mut dyn VectorSystem, 1), (&mut nep, 1)] {
            let p = measure_point(sys, 0, &ds.queries, &gt, k, fanout);
            rows.push(vec![
                sys.name().to_string(),
                "fixed".to_string(),
                format!("{:.4}", p.recall),
                format!("{:.0}", p.modeled_qps),
                format!("{:.3}", p.cpu_per_query_s * 1e3),
            ]);
            shape_json.push(serde_json::json!({
                "system": sys.name(), "ef": "fixed", "recall": p.recall,
                "qps": p.modeled_qps, "cpu_ms": p.cpu_per_query_s * 1e3,
            }));
        }

        print_table(
            &format!("Fig. 7 — {}", shape.scaled_name()),
            &[
                "system",
                "ef",
                "recall@k",
                "modeled QPS",
                "measured CPU ms/q",
            ],
            &rows,
        );
        all.insert(format!("{shape:?}"), serde_json::Value::Array(shape_json));
    }

    // Headline ratios at comparable recall (the paper's summary sentences).
    println!("\npaper targets: TigerVector vs Neo4j 3.77–5.19× QPS and +23–26% recall;");
    println!("               vs Neptune 1.93–2.7×; vs Milvus 1.07–1.61×.");
    save_json("fig7_throughput", &serde_json::Value::Object(all));
}
