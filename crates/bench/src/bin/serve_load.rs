//! Serving-layer load benchmark: a closed-loop multi-tenant driver against
//! the `tv-server` gateway at three offered-load levels.
//!
//! Each level runs a fresh [`Server`] (so counters and latencies are
//! per-level) with a deliberately small executor pool and queue, and drives
//! it with N closed-loop threads spread across four tenants issuing vector
//! top-k queries. Reported per level: achieved QPS, client-observed p50/p99
//! latency, the rejection rate — the load-shedding curve the admission
//! controller exists to produce — and the mean batch size (completed
//! top-ks per segment fan-out): what coalescing absorbed before shedding.
//!
//! The graph is vacuumed to an empty delta tail before the first level, so
//! every query searches the index, not a brute-forced overlay.
//!
//! Writes `bench_results/serve_load.json`, then checks three counter gates
//! that hold on any host, whatever its speed (`make serve-smoke` is this
//! binary's exit code):
//!
//! * at 2 clients on 2 executors nothing waits, because an executor is
//!   always free: 0 rejected, and mean batch 1.0;
//! * at 32 clients the waiting top-ks coalesce: mean batch > 1;
//! * every call is answered or refused with `Overloaded`: a client panics
//!   on any other outcome.

use std::sync::Arc;
use std::time::{Duration, Instant};
use tg_graph::{AccessControl, Graph, Role};
use tg_storage::{AttrType, AttrValue};
use tv_bench::{print_table, save_json, BenchArgs};
use tv_common::ids::SegmentLayout;
use tv_common::{DistanceMetric, SplitMix64};
use tv_embedding::{EmbeddingTypeDef, ServiceConfig};
use tv_server::{AdmissionConfig, Server, ServerConfig};

const DIM: usize = 16;
const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];

fn build_graph(n: usize, seed: u64) -> (Arc<Graph>, Arc<AccessControl>, Vec<Vec<f32>>) {
    let graph = Graph::with_config(
        SegmentLayout::with_capacity((n / 8).max(256)),
        ServiceConfig {
            planner: tv_common::PlannerConfig::default(),
            query_threads: 2,
            default_ef: 64,
        },
    );
    graph
        .create_vertex_type("Doc", &[("shard", AttrType::Int)])
        .unwrap();
    graph
        .add_embedding_attribute(
            "Doc",
            EmbeddingTypeDef::new("emb", DIM, "M", DistanceMetric::L2),
        )
        .unwrap();
    let ids = graph.allocate_many(0, n).unwrap();
    let mut rng = SplitMix64::new(seed);
    let mut queries = Vec::new();
    let mut txn = graph.txn();
    for (i, &id) in ids.iter().enumerate() {
        let v: Vec<f32> = (0..DIM).map(|_| rng.next_f32() * 10.0).collect();
        if i % 17 == 0 {
            queries.push(v.clone());
        }
        txn = txn
            .upsert_vertex(0, id, vec![AttrValue::Int((i % 8) as i64)])
            .set_vector(0, id, v);
    }
    txn.commit().unwrap();
    let emb = graph.embeddings();
    let tid = graph.read_tid();
    emb.delta_merge(0, tid).unwrap();
    emb.index_merge(0, tid, 2).unwrap();
    emb.prune(graph.store().txn().vacuum_horizon());
    assert_eq!(
        (emb.total_mem_deltas(), emb.total_delta_files()),
        (0, 0),
        "the levels must not time a delta tail"
    );

    let acl = AccessControl::new();
    acl.define_role("reader", Role::default().allow_type(0));
    for tenant in TENANTS {
        acl.assign(&format!("u-{tenant}"), "reader").unwrap();
    }
    (Arc::new(graph), Arc::new(acl), queries)
}

struct LevelResult {
    threads: usize,
    completed: u64,
    rejected: u64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    rejection_rate: f64,
    mean_batch: f64,
}

fn run_level(
    graph: &Arc<Graph>,
    acl: &Arc<AccessControl>,
    queries: &Arc<Vec<Vec<f32>>>,
    threads: usize,
    duration: Duration,
    k: usize,
) -> LevelResult {
    let server = Arc::new(Server::new(
        Arc::clone(graph),
        Arc::clone(acl),
        ServerConfig {
            admission: AdmissionConfig {
                executor_permits: 2,
                queue_capacity: 8,
                rate_limit: None,
            },
            max_batch: 16,
            ..ServerConfig::default()
        },
    ));
    let start = Instant::now();
    let deadline = start + duration;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let server = Arc::clone(&server);
            let queries = Arc::clone(queries);
            std::thread::spawn(move || {
                let tenant = TENANTS[t % TENANTS.len()];
                let session = server.open_session(tenant, &format!("u-{tenant}"));
                let mut latencies = Vec::new();
                let mut rejected = 0u64;
                let mut qi = t;
                while Instant::now() < deadline {
                    let qv = queries[qi % queries.len()].clone();
                    qi += 1;
                    let t0 = Instant::now();
                    match server.vector_top_k(&session, &[0], qv, k) {
                        Ok(_) => latencies.push(t0.elapsed()),
                        Err(tv_common::TvError::Overloaded(_)) => {
                            rejected += 1;
                            // Back off instead of hammering the admission
                            // queue — a shed request should not busy-spin.
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(e) => panic!("unexpected serving error: {e}"),
                    }
                }
                (latencies, rejected)
            })
        })
        .collect();
    let mut all_latencies: Vec<Duration> = Vec::new();
    let mut rejected = 0u64;
    for h in handles {
        let (lat, rej) = h.join().unwrap();
        all_latencies.extend(lat);
        rejected += rej;
    }
    let elapsed = start.elapsed();
    let metrics = server.metrics_json();
    let fanouts: u64 = TENANTS
        .iter()
        .filter_map(|t| metrics.get(t)?.get("fanouts")?.as_u64())
        .sum();
    all_latencies.sort_unstable();
    let completed = all_latencies.len() as u64;
    let pct = |q: f64| -> f64 {
        if all_latencies.is_empty() {
            return 0.0;
        }
        let idx = ((all_latencies.len() as f64 - 1.0) * q).round() as usize;
        all_latencies[idx].as_secs_f64() * 1e3
    };
    LevelResult {
        threads,
        completed,
        rejected,
        qps: completed as f64 / elapsed.as_secs_f64(),
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        rejection_rate: rejected as f64 / (completed + rejected).max(1) as f64,
        mean_batch: completed as f64 / fanouts.max(1) as f64,
    }
}

fn main() {
    let args = BenchArgs::from_env();
    let n = args.get_usize("n", 4_000);
    let k = args.get_usize("k", 10);
    let secs = args.get_usize("secs", 2);
    let seed = args.get_u64("seed", 1);
    let duration = Duration::from_secs(secs as u64);

    println!("building graph: n={n}, dim={DIM}, k={k}, {secs}s per level");
    let (graph, acl, queries) = build_graph(n, seed);
    let queries = Arc::new(queries);

    // Offered load: under-, at-, and over-subscribed relative to the
    // 2-permit + 8-slot admission configuration.
    let levels = [2usize, 8, 32];
    let mut rows = Vec::new();
    let mut json_levels = Vec::new();
    let mut results = Vec::new();
    for threads in levels {
        let r = run_level(&graph, &acl, &queries, threads, duration, k);
        rows.push(vec![
            format!("{}", r.threads),
            format!("{:.0}", r.qps),
            format!("{:.3}", r.p50_ms),
            format!("{:.3}", r.p99_ms),
            format!("{:.4}", r.rejection_rate),
            format!("{:.2}", r.mean_batch),
            format!("{}", r.completed),
            format!("{}", r.rejected),
        ]);
        json_levels.push(serde_json::json!({
            "completed": r.completed, "mean_batch": r.mean_batch,
            "p50_ms": r.p50_ms, "p99_ms": r.p99_ms,
            "qps": r.qps, "rejected": r.rejected,
            "rejection_rate": r.rejection_rate, "threads": r.threads,
        }));
        results.push(r);
    }

    print_table(
        "serve_load — closed-loop multi-tenant serving",
        &[
            "threads",
            "QPS",
            "p50 ms",
            "p99 ms",
            "reject rate",
            "mean batch",
            "completed",
            "rejected",
        ],
        &rows,
    );

    let mut out = serde_json::Map::new();
    out.insert("dim".into(), serde_json::json!(DIM));
    out.insert("duration_s_per_level".into(), serde_json::json!(secs));
    out.insert("executor_permits".into(), serde_json::json!(2));
    out.insert("k".into(), serde_json::json!(k));
    out.insert("levels".into(), serde_json::Value::Array(json_levels));
    out.insert("n".into(), serde_json::json!(n));
    out.insert("queue_capacity".into(), serde_json::json!(8));
    out.insert("tenants".into(), serde_json::json!(TENANTS.len()));

    let (idle, busy) = (&results[0], &results[2]);
    let gates = [
        ("2 clients: 0 rejected", idle.rejected == 0),
        ("2 clients: mean batch 1.0", idle.mean_batch == 1.0),
        ("32 clients: mean batch > 1", busy.mean_batch > 1.0),
    ];
    println!("\ngates:");
    for (gate, pass) in gates {
        println!("  {gate}: {}", if pass { "PASS" } else { "FAIL" });
    }
    let pass = gates.iter().all(|&(_, pass)| pass);
    out.insert("gates_pass".into(), serde_json::json!(pass));
    save_json("serve_load", &serde_json::Value::Object(out));
    assert!(pass, "serve_load gates failed: {gates:?}");
}
