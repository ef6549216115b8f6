//! **Figures 7 and 8**: throughput (QPS) and single-thread latency vs recall
//! on SIFT-shape and Deep-shape datasets for TigerVector (f32 and SQ8
//! tiers), Milvus-like, Neo4j-like, and Neptune-like; Fig. 8 adds the
//! SIFT-shaped vectors under cosine distance, the sweep the SIMD kernels
//! accelerate most, for TigerVector and Milvus-like.
//!
//! Each system is built once per dataset and swept once over the union of
//! the two figures' `ef` lists. Fig. 7 sweeps `ef` upward from `k` (a beam
//! narrower than `k` is clamped up to `k`, so points below it would all be
//! the same operating point); Fig. 8 keeps its fixed list. Neo4j/Neptune
//! appear as single points (the paper: "Neo4j and Amazon Neptune do not
//! allow parameter tuning"). Recall and per-query CPU are measured; QPS on
//! the paper's 32-core box and latency (CPU divided by the engine's
//! internal fan-out, plus the request overhead) are modeled per
//! `tv_bench::baselines::cost` (see the table there for the constants and
//! their rationale). Writes `fig7_throughput.json` and `fig8_latency.json`.
//!
//! Usage: `cargo run --release -p tv-bench --bin fig7_throughput -- [--n 20000] [--q 100] [--k 100]`

use tv_bench::baselines::{MilvusLike, NeoLike, NeptuneLike, TigerVectorSystem, VectorSystem};
use tv_bench::datagen::{ground_truth, DatasetShape, VectorDataset};
use tv_bench::{measure_point, print_table, save_json, BenchArgs};
use tv_common::ids::SegmentLayout;
use tv_common::{DistanceMetric, QuantSpec, VertexId};

/// `sys` loaded with `data` and built, boxed with its fan-out cores.
fn built(
    mut sys: impl VectorSystem + 'static,
    data: &[(VertexId, Vec<f32>)],
    fanout: usize,
) -> (Box<dyn VectorSystem>, usize) {
    sys.load(data);
    sys.build_index();
    (Box::new(sys), fanout)
}

fn main() {
    let args = BenchArgs::from_env();
    let n = args.get_usize("n", 20_000);
    let q = args.get_usize("q", 100);
    let k = args.get_usize("k", 100);
    let seed = args.get_u64("seed", 1);
    let fig7_efs = [1usize, 2, 3, 4, 6, 8].map(|m| m * k);
    let fig8_efs = [8usize, 16, 32, 64, 128, 256];
    let mut sweep: Vec<usize> = fig7_efs.into_iter().chain(fig8_efs).collect();
    sweep.sort_unstable();
    sweep.dedup();
    let layout = SegmentLayout::with_capacity((n / 8).max(1024));

    let (mut fig7, mut fig8) = (serde_json::Map::new(), serde_json::Map::new());
    for (key, shape, metric) in [
        ("Sift", DatasetShape::Sift, DatasetShape::Sift.metric()),
        ("Deep", DatasetShape::Deep, DatasetShape::Deep.metric()),
        ("Cosine", DatasetShape::Sift, DistanceMetric::Cosine),
    ] {
        let in_fig7 = key != "Cosine";
        println!(
            "\n### {} ({metric:?}) — n={n}, q={q}, k={k} (paper: 100M vectors; ×{} scale-down)",
            shape.scaled_name(),
            100_000_000 / n.max(1)
        );
        let ds = VectorDataset::generate(shape, n, q, seed);
        let data = ds.with_ids(layout);
        let gt = ground_truth(&ds.base, &ds.queries, k, metric, layout);

        let mut tv = TigerVectorSystem::new(ds.dim, metric, layout);
        tv.load(&data);
        tv.build_index();
        if in_fig7 {
            tv.stamp_provenance();
        }
        let mut systems = vec![
            (Box::new(tv) as Box<dyn VectorSystem>, 8),
            built(MilvusLike::new(ds.dim, metric, layout), &data, 6),
        ];
        if in_fig7 {
            let sq8 = QuantSpec::sq8().with_rerank_factor(4);
            let tv8 = TigerVectorSystem::new(ds.dim, metric, layout).with_quant(sq8);
            systems.push(built(tv8, &data, 8));
            systems.push(built(NeoLike::new(ds.dim, metric), &data, 1));
            systems.push(built(NeptuneLike::new(ds.dim, metric), &data, 1));
        }

        let mut points = Vec::new();
        for &ef in &sweep {
            for (sys, fanout) in systems.iter_mut().filter(|(s, _)| s.supports_ef_tuning()) {
                let p = measure_point(sys.as_mut(), ef, &ds.queries, &gt, k, *fanout);
                points.push((sys.name(), Some(ef), p));
            }
        }
        for (sys, fanout) in systems.iter_mut().filter(|(s, _)| !s.supports_ef_tuning()) {
            let p = measure_point(sys.as_mut(), 0, &ds.queries, &gt, k, *fanout);
            points.push((sys.name(), None, p));
        }

        let (mut rows, mut json7, mut json8) = (Vec::new(), Vec::new(), Vec::new());
        for (system, ef, p) in points {
            let ef_json = ef.map_or_else(|| "fixed".into(), serde_json::Value::from);
            if in_fig7 && ef.is_none_or(|e| fig7_efs.contains(&e)) {
                json7.push(serde_json::json!({
                    "system": system, "ef": ef_json.clone(), "recall": p.recall,
                    "qps": p.modeled_qps, "cpu_ms": p.cpu_per_query_s * 1e3,
                }));
            }
            if ef.is_none_or(|e| fig8_efs.contains(&e)) {
                json8.push(serde_json::json!({
                    "system": system, "ef": ef_json,
                    "recall": p.recall, "latency_ms": p.modeled_latency_ms,
                }));
            }
            rows.push(vec![
                system.to_string(),
                ef.map_or_else(|| "fixed".into(), |e| e.to_string()),
                format!("{:.4}", p.recall),
                format!("{:.0}", p.modeled_qps),
                format!("{:.3}", p.modeled_latency_ms),
                format!("{:.3}", p.cpu_per_query_s * 1e3),
            ]);
        }
        print_table(
            &format!("Figs. 7–8 — {} ({metric:?})", shape.scaled_name()),
            &[
                "system",
                "ef",
                "recall@k",
                "modeled QPS",
                "modeled latency ms",
                "measured CPU ms/q",
            ],
            &rows,
        );
        if in_fig7 {
            fig7.insert(key.to_string(), serde_json::Value::Array(json7));
        }
        fig8.insert(key.to_string(), serde_json::Value::Array(json8));
    }

    println!("\npaper targets (Fig. 7): TigerVector vs Neo4j 3.77–5.19× QPS and +23–26% recall;");
    println!("               vs Neptune 1.93–2.7×; vs Milvus 1.07–1.61×.");
    println!("paper targets (Fig. 8): up to 15× faster than Neo4j, 13.9× than Neptune,");
    println!("               up to 1.16× lower latency than Milvus.");
    save_json("fig7_throughput", &serde_json::Value::Object(fig7));
    save_json("fig8_latency", &serde_json::Value::Object(fig8));
}
