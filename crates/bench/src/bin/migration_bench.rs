//! Live-migration benchmark: query QPS/p99 **before, during, and after** a
//! segment migration, plus the migration's own costs (shipped bytes,
//! catch-up volume, flip pause).
//!
//! Queries are pinned at the pre-migration TID, so MVCC keeps their result
//! sets fixed while a background writer appends newer deltas to the
//! migrating segment — recall against the pre-migration answers must stay
//! at exactly 1.0 through every phase, or the migration changed an answer
//! it had no right to change. The "during" phase runs its query loop
//! concurrently with the migration itself (writer flowing the whole time),
//! so its QPS/p99 shows the real cost of migrating under load.
//!
//! Writes `bench_results/migration_bench.json`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tv_bench::{kernel_info, print_table, save_json, BenchArgs};
use tv_cluster::{ClusterRuntime, MigrationPlan, MigrationReport, Migrator, RuntimeConfig};
use tv_common::ids::{LocalId, VertexId};
use tv_common::{DistanceMetric, MigrationConfig, RetryPolicy, SegmentId, SplitMix64, Tid};
use tv_embedding::{EmbeddingSegment, EmbeddingTypeDef};
use tv_hnsw::DeltaRecord;

const DIM: usize = 16;
const SERVERS: usize = 4;
const K: usize = 10;
const MIGRATED: SegmentId = SegmentId(1);

fn build_cluster(segments: usize, per_segment: usize, seed: u64) -> (Arc<ClusterRuntime>, Tid) {
    let runtime = ClusterRuntime::start(RuntimeConfig {
        servers: SERVERS,
        replication: 1,
        planner: tv_common::PlannerConfig::default(),
        retry: RetryPolicy {
            max_retries: 2,
            attempt_timeout: Duration::from_millis(25),
            backoff: Duration::from_millis(1),
            hedge_after: Some(Duration::from_millis(5)),
        },
        degraded_mode: false,
    });
    let def = EmbeddingTypeDef::new("e", DIM, "M", DistanceMetric::L2);
    let mut rng = SplitMix64::new(seed);
    let mut tid = 0u64;
    for s in 0..segments {
        let seg = Arc::new(EmbeddingSegment::new(
            SegmentId(s as u32),
            &def,
            per_segment.next_power_of_two().max(64),
        ));
        let mut recs = Vec::new();
        for l in 0..per_segment {
            tid += 1;
            let v: Vec<f32> = (0..DIM).map(|_| rng.next_f32() * 10.0).collect();
            recs.push(DeltaRecord::upsert(
                VertexId::new(SegmentId(s as u32), LocalId(l as u32)),
                Tid(tid),
                v,
            ));
        }
        seg.append_deltas(&recs).unwrap();
        seg.delta_merge(Tid(tid)).unwrap();
        seg.index_merge(Tid(tid)).unwrap();
        runtime.add_segment(seg);
    }
    (Arc::new(runtime), Tid(tid))
}

struct PhaseResult {
    op: &'static str,
    qps: f64,
    p99_ms: f64,
    recall: f64,
    queries: usize,
}

fn overlap(a: &[VertexId], truth: &[VertexId]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    a.iter().filter(|id| truth.contains(id)).count() as f64 / truth.len() as f64
}

/// Run query rounds (pinned at `tid`) until `stop` flips — at least one
/// full pass — measuring throughput, tail latency, and recall against the
/// pre-migration truth.
fn run_phase(
    op: &'static str,
    runtime: &ClusterRuntime,
    queries: &[Vec<f32>],
    truth: &[Vec<VertexId>],
    tid: Tid,
    stop: Option<&AtomicBool>,
) -> PhaseResult {
    let mut latencies = Vec::new();
    let mut recall_sum = 0.0;
    let mut ran = 0usize;
    let started = Instant::now();
    loop {
        for (q, t) in queries.iter().zip(truth) {
            let t0 = Instant::now();
            let r = runtime.top_k(q, K, 64, tid, None).unwrap();
            latencies.push(t0.elapsed());
            let ids: Vec<VertexId> = r.neighbors.iter().map(|n| n.id).collect();
            recall_sum += overlap(&ids, t);
            ran += 1;
        }
        match stop {
            Some(flag) if !flag.load(Ordering::Acquire) => continue,
            _ => break,
        }
    }
    let elapsed = started.elapsed();
    latencies.sort_unstable();
    let p99 = latencies[(latencies.len().saturating_sub(1)) * 99 / 100];
    PhaseResult {
        op,
        qps: ran as f64 / elapsed.as_secs_f64(),
        p99_ms: p99.as_secs_f64() * 1e3,
        recall: recall_sum / ran as f64,
        queries: ran,
    }
}

fn main() {
    let args = BenchArgs::from_env();
    let segments = args.get_usize("segments", 8);
    let per_segment = args.get_usize("per-segment", 400);
    let n_queries = args.get_usize("queries", 64);
    let seed = args.get_u64("seed", 1);

    println!(
        "migration_bench: {SERVERS} servers, {segments} segments x {per_segment} vectors, \
         {n_queries} queries, k={K}"
    );
    let (runtime, t0) = build_cluster(segments, per_segment, seed);
    let mut qrng = SplitMix64::new(seed ^ 0x9E37);
    let queries: Vec<Vec<f32>> = (0..n_queries)
        .map(|_| (0..DIM).map(|_| qrng.next_f32() * 10.0).collect())
        .collect();
    // Pre-migration truth at the pinned TID: every later phase must
    // reproduce these answers exactly.
    let truth: Vec<Vec<VertexId>> = queries
        .iter()
        .map(|q| {
            let r = runtime.top_k(q, K, 64, t0, None).unwrap();
            r.neighbors.iter().map(|n| n.id).collect()
        })
        .collect();

    let before = run_phase("before", &runtime, &queries, &truth, t0, None);

    // Background writer: churn the migrating segment with post-T0 deltas
    // (invisible to the pinned queries, real work for catch-up + flip).
    let table = runtime.placement();
    let from = table.holders(MIGRATED)[0];
    let to = (0..SERVERS).find(|s| !table.holds(MIGRATED, *s)).unwrap();
    let stop_writer = Arc::new(AtomicBool::new(false));
    let writer = {
        let runtime = Arc::clone(&runtime);
        let stop = Arc::clone(&stop_writer);
        std::thread::spawn(move || {
            let mut tid = t0.0;
            let mut rng = SplitMix64::new(seed ^ 0xB0B0_F00D);
            let mut appended = 0u64;
            while !stop.load(Ordering::Relaxed) {
                tid += 1;
                let local = LocalId((tid % per_segment as u64) as u32);
                let v: Vec<f32> = (0..DIM).map(|_| rng.next_f32() * 10.0).collect();
                runtime
                    .append_deltas(
                        MIGRATED,
                        &[DeltaRecord::upsert(
                            VertexId::new(MIGRATED, local),
                            Tid(tid),
                            v,
                        )],
                    )
                    .unwrap();
                appended += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            appended
        })
    };

    // The migration runs on its own thread; the "during" query loop stops
    // the moment it completes.
    let migration_done = Arc::new(AtomicBool::new(false));
    let migrator_handle = {
        let runtime = Arc::clone(&runtime);
        let done = Arc::clone(&migration_done);
        std::thread::spawn(move || -> MigrationReport {
            let staging =
                std::env::temp_dir().join(format!("tv-migration-bench-{}", std::process::id()));
            let report = Migrator::new(runtime, staging.clone())
                .with_config(MigrationConfig {
                    flip_threshold: 16,
                    catchup_batch: 64,
                    max_catchup_rounds: 1024,
                })
                .run(MigrationPlan {
                    segment: MIGRATED,
                    from,
                    to,
                })
                .unwrap();
            let _ = std::fs::remove_dir_all(&staging);
            done.store(true, Ordering::Release);
            report
        })
    };
    let during = run_phase(
        "during",
        &runtime,
        &queries,
        &truth,
        t0,
        Some(&migration_done),
    );
    let report = migrator_handle.join().unwrap();
    stop_writer.store(true, Ordering::Relaxed);
    let appended = writer.join().unwrap();

    let after = run_phase("after", &runtime, &queries, &truth, t0, None);

    let phases = [before, during, after];
    for p in &phases {
        assert!(
            (p.recall - 1.0).abs() < 1e-9,
            "phase '{}' changed pinned answers: recall {}",
            p.op,
            p.recall
        );
    }
    print_table(
        "migration_bench — pinned-TID queries across a live migration",
        &["phase", "QPS", "p99 ms", "recall", "queries"],
        &phases
            .iter()
            .map(|p| {
                vec![
                    p.op.to_string(),
                    format!("{:.0}", p.qps),
                    format!("{:.2}", p.p99_ms),
                    format!("{:.4}", p.recall),
                    format!("{}", p.queries),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "migration: {} bytes shipped, {} catch-up records in {} rounds, \
         flip pause {:.3} ms, total {:.1} ms, {} writer appends",
        report.shipped_bytes,
        report.catchup_records,
        report.catchup_rounds,
        report.flip_pause.as_secs_f64() * 1e3,
        report.total.as_secs_f64() * 1e3,
        appended
    );

    let mut out = serde_json::Map::new();
    out.insert("dim".into(), serde_json::json!(DIM));
    out.insert("k".into(), serde_json::json!(K));
    out.insert("kernel_info".into(), kernel_info());
    out.insert(
        "migration".into(),
        serde_json::json!({
            "catchup_records": report.catchup_records,
            "catchup_rounds": report.catchup_rounds,
            "flip_pause_ms": report.flip_pause.as_secs_f64() * 1e3,
            "generation": report.generation,
            "shipped_bytes": report.shipped_bytes,
            "total_ms": report.total.as_secs_f64() * 1e3,
            "writer_appends": appended,
        }),
    );
    out.insert(
        "phases".into(),
        serde_json::Value::Array(
            phases
                .iter()
                .map(|p| {
                    serde_json::json!({
                        "op": p.op,
                        "p99_ms": p.p99_ms,
                        "qps": p.qps,
                        "queries": p.queries,
                        "recall": p.recall,
                    })
                })
                .collect(),
        ),
    );
    out.insert("per_segment".into(), serde_json::json!(per_segment));
    out.insert("queries".into(), serde_json::json!(n_queries));
    out.insert("segments".into(), serde_json::json!(segments));
    out.insert("servers".into(), serde_json::json!(SERVERS));
    save_json("migration_bench", &serde_json::Value::Object(out));
}
