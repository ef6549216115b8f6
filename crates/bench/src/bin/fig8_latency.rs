//! **Figure 8**: single-thread latency vs recall for the four systems on
//! both dataset shapes. Latency = measured per-query CPU divided by the
//! engine's internal fan-out parallelism (MPP engines parallelize one
//! query's segment searches; monolithic indexes cannot), plus the modeled
//! request overhead.
//!
//! Usage: `cargo run --release -p tv-bench --bin fig8_latency -- [--n 20000]`

use tv_bench::baselines::{MilvusLike, NeoLike, NeptuneLike, TigerVectorSystem, VectorSystem};
use tv_bench::datagen::{ground_truth, DatasetShape, VectorDataset};
use tv_bench::{measure_point, print_table, save_json, set_storage_info, BenchArgs};
use tv_common::ids::SegmentLayout;
use tv_common::{DistanceMetric, QuantSpec};

fn main() {
    let args = BenchArgs::from_env();
    let n = args.get_usize("n", 20_000);
    let q = args.get_usize("q", 100);
    let k = args.get_usize("k", 100);
    let seed = args.get_u64("seed", 1);
    let ef_sweep = [8usize, 16, 32, 64, 128, 256];
    let layout = SegmentLayout::with_capacity((n / 8).max(1024));

    let mut all = serde_json::Map::new();
    for shape in [DatasetShape::Sift, DatasetShape::Deep] {
        println!("\n### {} — single-thread latency", shape.scaled_name());
        let ds = VectorDataset::generate(shape, n, q, seed);
        let data = ds.with_ids(layout);
        let gt = ground_truth(&ds.base, &ds.queries, k, shape.metric(), layout);

        let mut rows = Vec::new();
        let mut shape_json = Vec::new();
        let mut tv = TigerVectorSystem::new(ds.dim, shape.metric(), layout);
        tv.load(&data);
        tv.build_index();
        set_storage_info(tv.storage_tier(), tv.memory_bytes());
        // Quantized sweep: the same engine on the SQ8 storage tier.
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
                    format!("{:.3}", p.modeled_latency_ms),
                ]);
                shape_json.push(serde_json::json!({
                    "system": sys.name(), "ef": ef,
                    "recall": p.recall, "latency_ms": p.modeled_latency_ms,
                }));
            }
        }
        let mut neo = NeoLike::new(ds.dim, shape.metric());
        neo.load(&data);
        neo.build_index();
        let mut nep = NeptuneLike::new(ds.dim, shape.metric());
        nep.load(&data);
        nep.build_index();
        for sys in [&mut neo as &mut dyn VectorSystem, &mut nep] {
            let p = measure_point(sys, 0, &ds.queries, &gt, k, 1);
            rows.push(vec![
                sys.name().to_string(),
                "fixed".to_string(),
                format!("{:.4}", p.recall),
                format!("{:.3}", p.modeled_latency_ms),
            ]);
            shape_json.push(serde_json::json!({
                "system": sys.name(), "ef": "fixed",
                "recall": p.recall, "latency_ms": p.modeled_latency_ms,
            }));
        }
        print_table(
            &format!("Fig. 8 — {}", shape.scaled_name()),
            &["system", "ef", "recall@k", "modeled latency ms"],
            &rows,
        );
        all.insert(format!("{shape:?}"), serde_json::Value::Array(shape_json));
    }

    // Cosine workload: the SIFT-shaped vectors searched under cosine
    // distance. This is the sweep the SIMD kernel layer accelerates most
    // (cached-norm fused kernels replace the seed's 3-pass cosine), so its
    // recall/latency trace is the regression canary for kernel swaps.
    {
        println!("\n### SIFT-shape, cosine metric — single-thread latency");
        let ds = VectorDataset::generate(DatasetShape::Sift, n, q, seed);
        let data = ds.with_ids(layout);
        let gt = ground_truth(&ds.base, &ds.queries, k, DistanceMetric::Cosine, layout);

        let mut rows = Vec::new();
        let mut shape_json = Vec::new();
        let mut tv = TigerVectorSystem::new(ds.dim, DistanceMetric::Cosine, layout);
        tv.load(&data);
        tv.build_index();
        let mut mv = MilvusLike::new(ds.dim, DistanceMetric::Cosine, layout);
        mv.load(&data);
        mv.build_index();
        for ef in ef_sweep {
            for (sys, fanout) in [(&mut tv as &mut dyn VectorSystem, 8), (&mut mv, 6)] {
                let p = measure_point(sys, ef, &ds.queries, &gt, k, fanout);
                rows.push(vec![
                    sys.name().to_string(),
                    format!("{ef}"),
                    format!("{:.4}", p.recall),
                    format!("{:.3}", p.modeled_latency_ms),
                ]);
                shape_json.push(serde_json::json!({
                    "system": sys.name(), "ef": ef,
                    "recall": p.recall, "latency_ms": p.modeled_latency_ms,
                }));
            }
        }
        print_table(
            "Fig. 8 — SIFT-shape, cosine metric",
            &["system", "ef", "recall@k", "modeled latency ms"],
            &rows,
        );
        all.insert("Cosine".to_string(), serde_json::Value::Array(shape_json));
    }
    println!("\npaper targets: up to 15× faster than Neo4j, 13.9× than Neptune,");
    println!("               up to 1.16× lower latency than Milvus.");
    save_json("fig8_latency", &serde_json::Value::Object(all));
}
