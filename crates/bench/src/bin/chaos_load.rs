//! Chaos load benchmark: QPS, recall-vs-healthy, and coverage of the
//! cluster runtime under injected failures.
//!
//! A replicated cluster (`replication = 2`) runs a closed query loop while
//! a seeded injector crashes or drops replies on a random server for a
//! fraction of the queries. Because recovery re-routes to replicas, recall
//! against the healthy cluster's own answers should stay at 1.0 — the cost
//! of failure shows up as latency (detection timeouts) and retry/hedge
//! counts, not as wrong answers. A second section runs the same schedule on
//! an unreplicated cluster in degraded mode, where the cost shows up as
//! coverage instead.
//!
//! A query with a fault armed may still fail: the retry waves run on a 25 ms
//! attempt timeout, which a loaded host can outlast. Such a query is counted
//! by error kind (the `failed` column and field) and left out of the recall
//! and coverage means; a query with no fault armed must answer. Whether the
//! retries themselves are correct is gated by the cluster's own tests
//! (`failover_to_replicas`, `crash_fault_recovers_via_replica_retry_bit_identical`,
//! `chaos_prop`), which do not read the clock.
//!
//! Writes `bench_results/chaos_load.json`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tv_bench::{print_table, save_json, BenchArgs};
use tv_cluster::{ClusterRuntime, RuntimeConfig};
use tv_common::ids::{LocalId, VertexId};
use tv_common::inject::{Action, Point};
use tv_common::{DistanceMetric, RetryPolicy, SegmentId, SplitMix64, Tid};
use tv_embedding::{EmbeddingSegment, EmbeddingTypeDef};
use tv_hnsw::DeltaRecord;

const DIM: usize = 16;
const SERVERS: usize = 4;
const K: usize = 10;

fn build_cluster(
    replication: usize,
    degraded_mode: bool,
    segments: usize,
    per_segment: usize,
    seed: u64,
) -> ClusterRuntime {
    let runtime = ClusterRuntime::start(RuntimeConfig {
        servers: SERVERS,
        replication,
        planner: tv_common::PlannerConfig::default(),
        retry: RetryPolicy {
            max_retries: 2,
            attempt_timeout: Duration::from_millis(25),
            backoff: Duration::from_millis(1),
            hedge_after: Some(Duration::from_millis(5)),
        },
        degraded_mode,
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
    runtime
}

fn overlap(a: &[VertexId], b: &[VertexId]) -> f64 {
    if b.is_empty() {
        return 1.0;
    }
    let hits = a.iter().filter(|id| b.contains(id)).count();
    hits as f64 / b.len() as f64
}

struct LevelResult {
    failure_rate: f64,
    qps: f64,
    recall_vs_healthy: f64,
    coverage: f64,
    p99_ms: f64,
    retries: u64,
    hedges: u64,
    degraded_answers: u64,
    /// Faulted queries that exhausted their retry waves, by error kind.
    failed: BTreeMap<String, u64>,
}

/// An error's kind: its message up to the first colon ("cluster error").
fn kind(e: &tv_common::TvError) -> String {
    let text = e.to_string();
    text.split(':').next().unwrap_or_default().to_string()
}

/// Run `queries` against `runtime`, crashing or reply-dropping one random
/// server for a `failure_rate` fraction of them.
fn run_level(
    runtime: &ClusterRuntime,
    queries: &[Vec<f32>],
    healthy: &[Vec<VertexId>],
    failure_rate: f64,
    seed: u64,
) -> LevelResult {
    let mut rng = SplitMix64::new(seed);
    let mut latencies = Vec::with_capacity(queries.len());
    let mut recall_sum = 0.0;
    let mut coverage_sum = 0.0;
    let mut retries = 0u64;
    let mut hedges = 0u64;
    let mut degraded_answers = 0u64;
    let mut failed = BTreeMap::new();
    let started = Instant::now();
    for (q, truth) in queries.iter().zip(healthy) {
        let armed = rng.next_f64() < failure_rate;
        if armed {
            let server = rng.next_below(SERVERS as u64) as usize;
            // A swallowed request or a dropped reply.
            let point = if rng.next_below(2) == 0 {
                Point::WorkerRecv { server }
            } else {
                Point::WorkerReply { server }
            };
            // Some(4): survives the scatter and every retry wave, so an
            // unreplicated run really does lose the victim's segments.
            runtime.injector().arm(point, Action::Fail, 1, Some(4));
        }
        let t0 = Instant::now();
        let answer = runtime.top_k(q, K, 64, Tid::MAX, None);
        latencies.push(t0.elapsed());
        runtime.injector().clear();
        let r = match answer {
            Ok(r) => r,
            Err(e) if armed => {
                *failed.entry(kind(&e)).or_insert(0) += 1;
                continue;
            }
            Err(e) => panic!("a query with no fault armed failed: {e}"),
        };
        let ids: Vec<VertexId> = r.neighbors.iter().map(|n| n.id).collect();
        recall_sum += overlap(&ids, truth);
        coverage_sum += r.coverage.fraction();
        retries += r.retries;
        hedges += r.hedges;
        if !r.coverage.is_complete() {
            degraded_answers += 1;
        }
    }
    let elapsed = started.elapsed();
    latencies.sort_unstable();
    let n = queries.len().max(1);
    let answered = (queries.len() - failed.values().sum::<u64>() as usize).max(1);
    let p99 = latencies[(latencies.len().saturating_sub(1)) * 99 / 100];
    LevelResult {
        failure_rate,
        qps: n as f64 / elapsed.as_secs_f64(),
        recall_vs_healthy: recall_sum / answered as f64,
        coverage: coverage_sum / answered as f64,
        p99_ms: p99.as_secs_f64() * 1e3,
        retries,
        hedges,
        degraded_answers,
        failed,
    }
}

fn level_rows(results: &[LevelResult]) -> Vec<Vec<String>> {
    results
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.failure_rate),
                format!("{:.0}", r.qps),
                format!("{:.4}", r.recall_vs_healthy),
                format!("{:.4}", r.coverage),
                format!("{:.2}", r.p99_ms),
                format!("{}", r.retries),
                format!("{}", r.hedges),
                format!("{}", r.degraded_answers),
                if r.failed.is_empty() {
                    "0".to_string()
                } else {
                    r.failed
                        .iter()
                        .map(|(kind, n)| format!("{n} {kind}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                },
            ]
        })
        .collect()
}

fn level_json(results: &[LevelResult]) -> serde_json::Value {
    serde_json::Value::Array(
        results
            .iter()
            .map(|r| {
                serde_json::json!({
                    "coverage": r.coverage,
                    "degraded_answers": r.degraded_answers,
                    "failed": serde_json::Value::Object(
                        r.failed.iter().map(|(k, n)| (k.clone(), serde_json::json!(n))).collect()
                    ),
                    "failure_rate": r.failure_rate,
                    "hedges": r.hedges,
                    "p99_ms": r.p99_ms,
                    "qps": r.qps,
                    "recall_vs_healthy": r.recall_vs_healthy,
                    "retries": r.retries,
                })
            })
            .collect(),
    )
}

fn main() {
    let args = BenchArgs::from_env();
    let segments = args.get_usize("segments", 8);
    let per_segment = args.get_usize("per-segment", 200);
    let n_queries = args.get_usize("queries", 150);
    let seed = args.get_u64("seed", 1);
    let failure_rates = [0.0, 0.1, 0.3];

    println!(
        "chaos_load: {SERVERS} servers, {segments} segments x {per_segment} vectors, \
         {n_queries} queries, k={K}"
    );
    let mut qrng = SplitMix64::new(seed ^ 0x9E37);
    let queries: Vec<Vec<f32>> = (0..n_queries)
        .map(|_| (0..DIM).map(|_| qrng.next_f32() * 10.0).collect())
        .collect();

    // Section 1: replicated cluster — failures cost latency, not answers.
    let replicated = build_cluster(2, false, segments, per_segment, seed);
    let healthy: Vec<Vec<VertexId>> = queries
        .iter()
        .map(|q| {
            let r = replicated.top_k(q, K, 64, Tid::MAX, None).unwrap();
            r.neighbors.iter().map(|n| n.id).collect()
        })
        .collect();
    let replicated_results: Vec<LevelResult> = failure_rates
        .iter()
        .map(|&p| run_level(&replicated, &queries, &healthy, p, seed.wrapping_add(7)))
        .collect();
    drop(replicated);

    // Section 2: unreplicated + degraded mode — failures cost coverage.
    let unreplicated = build_cluster(1, true, segments, per_segment, seed);
    let unreplicated_results: Vec<LevelResult> = failure_rates
        .iter()
        .map(|&p| run_level(&unreplicated, &queries, &healthy, p, seed.wrapping_add(7)))
        .collect();
    drop(unreplicated);

    let headers = [
        "fail rate",
        "QPS",
        "recall",
        "coverage",
        "p99 ms",
        "retries",
        "hedges",
        "degraded",
        "failed",
    ];
    print_table(
        "chaos_load — replication 2, strict (retry + hedge recovery)",
        &headers,
        &level_rows(&replicated_results),
    );
    print_table(
        "chaos_load — replication 1, degraded mode (partial results)",
        &headers,
        &level_rows(&unreplicated_results),
    );

    for r in &replicated_results {
        assert!(
            (r.recall_vs_healthy - 1.0).abs() < 1e-9,
            "replicated recovery must be bit-identical, got recall {} at p={}",
            r.recall_vs_healthy,
            r.failure_rate
        );
    }

    let mut out = serde_json::Map::new();
    out.insert("dim".into(), serde_json::json!(DIM));
    out.insert("k".into(), serde_json::json!(K));
    out.insert("per_segment".into(), serde_json::json!(per_segment));
    out.insert("queries".into(), serde_json::json!(n_queries));
    out.insert("replicated_strict".into(), level_json(&replicated_results));
    out.insert("segments".into(), serde_json::json!(segments));
    out.insert("servers".into(), serde_json::json!(SERVERS));
    out.insert(
        "unreplicated_degraded".into(),
        level_json(&unreplicated_results),
    );
    save_json("chaos_load", &serde_json::Value::Object(out));
}
