//! **Figure 11**: incremental index update vs full rebuild on a SIFT-shape
//! dataset. For update ratios from 1% to 40%, apply the updates as MVCC
//! vector deltas and measure the two-stage vacuum (delta merge + index
//! merge); compare against rebuilding the index from scratch (the paper's
//! red line). The reproduction target is the crossover: beyond roughly 20%
//! updated vectors, rebuilding wins.
//!
//! Usage: `cargo run --release -p tv-bench --bin fig11_update -- [--n 20000]`

use std::sync::Arc;
use std::time::Instant;
use tv_bench::datagen::{DatasetShape, VectorDataset};
use tv_bench::{fmt_duration, print_table, save_json, BenchArgs};
use tv_common::ids::SegmentLayout;
use tv_common::{SplitMix64, Tid};
use tv_embedding::{EmbeddingService, EmbeddingTypeDef, ServiceConfig};
use tv_hnsw::DeltaRecord;

fn main() {
    let args = BenchArgs::from_env();
    let n = args.get_usize("n", 20_000);
    let seed = args.get_u64("seed", 1);
    let layout = SegmentLayout::with_capacity((n / 16).max(1024));
    let shape = DatasetShape::Sift;
    let ds = VectorDataset::generate(shape, n, 0, seed);
    let def = EmbeddingTypeDef::new("content_emb", ds.dim, "SIFT", shape.metric());

    let build_service = || -> (Arc<EmbeddingService>, u32) {
        let svc = Arc::new(EmbeddingService::new(ServiceConfig {
            planner: tv_common::PlannerConfig::default(),
            query_threads: 1,
            default_ef: 64,
        }));
        let attr = svc.register(0, def.clone(), layout).unwrap();
        let recs: Vec<DeltaRecord> = ds
            .base
            .iter()
            .enumerate()
            .map(|(i, v)| DeltaRecord::upsert(layout.vertex_id(i), Tid(i as u64 + 1), v.clone()))
            .collect();
        svc.apply_deltas(attr, &recs).unwrap();
        svc.delta_merge(attr, Tid(n as u64)).unwrap();
        svc.index_merge(attr, Tid(n as u64), 1).unwrap();
        svc.prune(Tid(n as u64));
        (svc, attr)
    };

    // Baseline: full rebuild time (the red line).
    let (svc, attr) = build_service();
    let started = Instant::now();
    svc.rebuild(attr, Tid(n as u64), 1).unwrap();
    let rebuild_time = started.elapsed();
    println!(
        "full rebuild of {n} vectors: {} (the paper's red line)",
        fmt_duration(rebuild_time)
    );

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut crossover: Option<f64> = None;
    for ratio_pct in [1usize, 5, 10, 15, 20, 25, 30, 40] {
        let (svc, attr) = build_service();
        let updates = n * ratio_pct / 100;
        let mut rng = SplitMix64::new(seed ^ 0xFF);
        let recs: Vec<DeltaRecord> = (0..updates)
            .map(|u| {
                let row = rng.next_below(n as u64) as usize;
                let v: Vec<f32> = (0..ds.dim).map(|_| rng.next_f32() * 128.0).collect();
                DeltaRecord::upsert(layout.vertex_id(row), Tid((n + u) as u64 + 1), v)
            })
            .collect();
        svc.apply_deltas(attr, &recs).unwrap();
        let horizon = Tid((n + updates) as u64 + 1);
        let started = Instant::now();
        svc.delta_merge(attr, horizon).unwrap();
        svc.index_merge(attr, horizon, 1).unwrap();
        let incremental = started.elapsed();
        if crossover.is_none() && incremental > rebuild_time {
            crossover = Some(ratio_pct as f64);
        }
        rows.push(vec![
            format!("{ratio_pct}%"),
            fmt_duration(incremental),
            fmt_duration(rebuild_time),
            if incremental > rebuild_time {
                "rebuild"
            } else {
                "incremental"
            }
            .to_string(),
        ]);
        json.push(serde_json::json!({
            "update_ratio_pct": ratio_pct,
            "incremental_s": incremental.as_secs_f64(),
            "rebuild_s": rebuild_time.as_secs_f64(),
        }));
    }
    print_table(
        "Fig. 11 — incremental update vs rebuild (SIFT-shape)",
        &["update ratio", "incremental", "full rebuild", "winner"],
        &rows,
    );
    match crossover {
        Some(c) => println!("\ncrossover observed at ~{c}% (paper: ~20%)."),
        None => println!("\nno crossover up to 40% at this scale (paper: ~20%)."),
    }
    save_json("fig11_update", &serde_json::Value::Array(json));
}
