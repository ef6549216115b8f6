//! Recovery benchmark: the cost of durability and the payoff of
//! checkpoints.
//!
//! Loads a graph+vector workload into a durable graph, then measures, at
//! several data scales:
//!
//! * **checkpoint time** — folding MVCC segments, serializing HNSW
//!   snapshots and delta tails, writing the manifest, rotating the WAL;
//! * **WAL-only recovery** — replaying the full log into a fresh process;
//! * **checkpoint recovery** — restoring the newest checkpoint and
//!   replaying only the WAL tail beyond it.
//!
//! The tail fraction is fixed (last 20% of transactions commit after the
//! checkpoint), so the speedup column isolates what the checkpoint buys.
//! Recovered state is spot-checked against the writer before timings are
//! reported.
//!
//! Writes `bench_results/recovery_bench.json`.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tg_graph::Graph;
use tg_storage::{AttrType, AttrValue};
use tv_bench::{fmt_duration, print_table, save_json, BenchArgs};
use tv_common::ids::SegmentLayout;
use tv_common::{DistanceMetric, SplitMix64, Tid};
use tv_embedding::{EmbeddingTypeDef, ServiceConfig};

const DIM: usize = 16;
const SEGMENT_CAP: usize = 256;

fn config() -> ServiceConfig {
    ServiceConfig {
        planner: tv_common::PlannerConfig::default(),
        query_threads: 1,
        default_ef: 64,
    }
}

fn open(dir: &Path) -> Graph {
    let g = Graph::durable(dir, SegmentLayout::with_capacity(SEGMENT_CAP), config())
        .expect("open durable graph");
    g.create_vertex_type("Doc", &[("title", AttrType::Str), ("score", AttrType::Int)])
        .expect("vertex type");
    g.add_embedding_attribute(
        "Doc",
        EmbeddingTypeDef::new("emb", DIM, "M", DistanceMetric::L2),
    )
    .expect("embedding attribute");
    g
}

/// Commit `n` single-vertex transactions (attrs + vector each).
fn load(g: &Graph, from: usize, n: usize, seed: u64) {
    let layout = SegmentLayout::with_capacity(SEGMENT_CAP);
    let mut rng = SplitMix64::new(seed);
    for i in from..from + n {
        let id = layout.vertex_id(i);
        let v: Vec<f32> = (0..DIM).map(|_| rng.next_f32() * 8.0).collect();
        g.txn()
            .upsert_vertex(
                0,
                id,
                vec![AttrValue::Str(format!("doc-{i}")), AttrValue::Int(i as i64)],
            )
            .set_vector(0, id, v)
            .commit()
            .expect("commit");
    }
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.log")).map_or(0, |m| m.len())
}

fn spot_check(g: &Graph, n: usize) {
    let layout = SegmentLayout::with_capacity(SEGMENT_CAP);
    let tid = g.read_tid();
    assert_eq!(tid, Tid(n as u64), "recovered TID");
    for i in [0, n / 2, n - 1] {
        let id = layout.vertex_id(i);
        assert!(g.is_live(0, id, tid).expect("liveness"), "vertex {i} lost");
        assert!(
            g.embedding_of(0, id, tid).expect("read").is_some(),
            "vector {i} lost"
        );
    }
}

struct Scale {
    vertices: usize,
    checkpoint_ms: f64,
    ckpt_files: usize,
    wal_only_ms: f64,
    ckpt_recover_ms: f64,
    tail_records: usize,
    wal_before: u64,
    wal_after: u64,
}

fn bench_scale(root: &Path, vertices: usize) -> Scale {
    // WAL-only path: load everything, recover from the raw log.
    let wal_dir = root.join(format!("walonly-{vertices}"));
    let _ = std::fs::remove_dir_all(&wal_dir);
    {
        let g = open(&wal_dir);
        load(&g, 0, vertices, 0xBE9C ^ vertices as u64);
    }
    let wal_before = wal_bytes(&wal_dir);
    let start = Instant::now();
    let g = open(&wal_dir);
    let report = g.recover().expect("WAL-only recovery");
    let wal_only = start.elapsed();
    assert_eq!(report.checkpoint, None);
    assert_eq!(report.replayed, vertices);
    spot_check(&g, vertices);
    drop(g);
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Checkpoint path: checkpoint at 80%, then a 20% tail.
    let ckpt_dir = root.join(format!("ckpt-{vertices}"));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let head = vertices * 4 / 5;
    let (checkpoint_time, ckpt_files);
    {
        let g = open(&ckpt_dir);
        load(&g, 0, head, 0xBE9C ^ vertices as u64);
        let start = Instant::now();
        let info = g.checkpoint().expect("checkpoint");
        checkpoint_time = start.elapsed();
        ckpt_files = info.files;
        load(&g, head, vertices - head, 0x7A11 ^ vertices as u64);
    }
    let wal_after = wal_bytes(&ckpt_dir);
    let start = Instant::now();
    let g = open(&ckpt_dir);
    let report = g.recover().expect("checkpoint recovery");
    let ckpt_recover = start.elapsed();
    assert_eq!(report.checkpoint, Some(Tid(head as u64)));
    assert_eq!(report.replayed, vertices - head);
    spot_check(&g, vertices);
    drop(g);
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Scale {
        vertices,
        checkpoint_ms: ms(checkpoint_time),
        ckpt_files,
        wal_only_ms: ms(wal_only),
        ckpt_recover_ms: ms(ckpt_recover),
        tail_records: vertices - head,
        wal_before,
        wal_after,
    }
}

fn main() {
    let args = BenchArgs::from_env();
    let base = args.get_usize("base", 2_000);
    let scales = [base, base * 4];
    let root = PathBuf::from(std::env::var("TV_BENCH_DIR").unwrap_or_else(|_| {
        std::env::temp_dir()
            .join(format!("tv-recovery-bench-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }));
    std::fs::create_dir_all(&root).expect("bench dir");

    let results: Vec<Scale> = scales.iter().map(|&n| bench_scale(&root, n)).collect();
    let _ = std::fs::remove_dir_all(&root);

    let headers = [
        "vertices",
        "ckpt time",
        "ckpt files",
        "WAL-only recovery",
        "ckpt recovery",
        "speedup",
        "tail records",
        "WAL before/after (KiB)",
    ];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.vertices.to_string(),
                fmt_duration(Duration::from_secs_f64(r.checkpoint_ms / 1e3)),
                r.ckpt_files.to_string(),
                fmt_duration(Duration::from_secs_f64(r.wal_only_ms / 1e3)),
                fmt_duration(Duration::from_secs_f64(r.ckpt_recover_ms / 1e3)),
                format!("{:.1}x", r.wal_only_ms / r.ckpt_recover_ms.max(1e-9)),
                r.tail_records.to_string(),
                format!("{} / {}", r.wal_before / 1024, r.wal_after / 1024),
            ]
        })
        .collect();
    print_table(
        "recovery_bench — checkpoint vs WAL-only recovery",
        &headers,
        &rows,
    );

    let scale_json: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            serde_json::json!({
                "vertices": r.vertices,
                "checkpoint_ms": r.checkpoint_ms,
                "checkpoint_files": r.ckpt_files,
                "wal_only_recovery_ms": r.wal_only_ms,
                "checkpoint_recovery_ms": r.ckpt_recover_ms,
                "speedup": r.wal_only_ms / r.ckpt_recover_ms.max(1e-9),
                "tail_records": r.tail_records,
                "wal_bytes_before_rotation": r.wal_before,
                "wal_bytes_after_rotation": r.wal_after,
            })
        })
        .collect();
    let out = serde_json::json!({
        "dim": DIM,
        "segment_capacity": SEGMENT_CAP,
        "tail_fraction": 0.2,
        "scales": scale_json,
    });
    save_json("recovery_bench", &out);
}
