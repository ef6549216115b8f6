//! **Table 2**: index building time — End-to-End / Data Load / Index Build
//! for TigerVector, Milvus-like, and Neo4j-like on both dataset shapes.
//! All times are real measurements of each system's actual load/build code
//! path on this machine (single core, scaled-down datasets); the *ratios*
//! are the reproduction target:
//!
//! * TigerVector data load ≪ Milvus data load (its binlog pipeline),
//! * TigerVector ≈ Milvus index build (same segmented HNSW),
//! * Neo4j index build ≫ both (monolithic index + document pipeline),
//! * Neo4j data load ≈ TigerVector's.
//!
//! Usage: `cargo run --release -p tv-bench --bin table2_build_time -- [--n 20000]`

use tv_bench::baselines::{MilvusLike, NeoLike, TigerVectorSystem, VectorSystem};
use tv_bench::datagen::{DatasetShape, VectorDataset};
use tv_bench::{fmt_duration, print_table, save_json, BenchArgs};
use tv_common::ids::SegmentLayout;

fn main() {
    let args = BenchArgs::from_env();
    let n = args.get_usize("n", 20_000);
    let seed = args.get_u64("seed", 1);
    let layout = SegmentLayout::with_capacity((n / 16).max(1024));

    let mut json = Vec::new();
    for shape in [DatasetShape::Sift, DatasetShape::Deep] {
        let ds = VectorDataset::generate(shape, n, 0, seed);
        let data = ds.with_ids(layout);

        let mut rows = Vec::new();
        let mut tv = TigerVectorSystem::new(ds.dim, shape.metric(), layout);
        tv.load(&data);
        tv.build_index();
        tv.stamp_provenance();
        let mut systems: Vec<Box<dyn VectorSystem>> = vec![
            Box::new(MilvusLike::new(ds.dim, shape.metric(), layout)),
            Box::new(NeoLike::new(ds.dim, shape.metric())),
        ];
        for sys in &mut systems {
            sys.load(&data);
            sys.build_index();
        }
        systems.insert(0, Box::new(tv));
        for sys in &systems {
            let t = sys.build_times();
            rows.push(vec![
                sys.name().to_string(),
                fmt_duration(t.end_to_end()),
                fmt_duration(t.data_load),
                fmt_duration(t.index_build),
            ]);
            json.push(serde_json::json!({
                "dataset": shape.scaled_name(), "system": sys.name(),
                "end_to_end_s": t.end_to_end().as_secs_f64(),
                "data_load_s": t.data_load.as_secs_f64(),
                "index_build_s": t.index_build.as_secs_f64(),
            }));
        }
        print_table(
            &format!("Table 2 — {}", shape.scaled_name()),
            &["system", "End to End", "Data Load", "Index Build"],
            &rows,
        );
    }
    println!("\npaper targets: TigerVector 5.2–6.8× faster than Neo4j end-to-end,");
    println!("               1.86–2.16× faster than Milvus (driven by data load).");
    save_json("table2_build_time", &serde_json::Value::Array(json));
}
