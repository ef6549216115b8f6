//! Serving-layer tour: sessions, rbac, admission control, request
//! batching, deadlines, and per-tenant metrics — the `tv-server` gateway
//! fronting GSQL vector search.
//!
//! Run with: `cargo run --release --example serving`

use std::sync::Arc;
use std::time::Duration;
use tigervector::common::{DistanceMetric, SplitMix64};
use tigervector::embedding::{EmbeddingTypeDef, ServiceConfig};
use tigervector::graph::{AccessControl, Graph, Role};
use tigervector::gsql::Value;
use tigervector::server::{AdmissionConfig, RateLimitConfig, Server, ServerConfig};
use tigervector::storage::{AttrType, AttrValue};
use tv_common::ids::SegmentLayout;

fn main() {
    // -- A Doc corpus with public/confidential rows and embeddings. -------
    let graph = Graph::with_config(
        SegmentLayout::with_capacity(64),
        ServiceConfig {
            planner: tv_common::PlannerConfig::default().with_brute_threshold(16),
            query_threads: 2,
            default_ef: 64,
        },
    );
    graph
        .create_vertex_type("Doc", &[("classification", AttrType::Str)])
        .unwrap();
    graph
        .add_embedding_attribute(
            "Doc",
            EmbeddingTypeDef::new("emb", 8, "M", DistanceMetric::L2),
        )
        .unwrap();
    let ids = graph.allocate_many(0, 200).unwrap();
    let mut rng = SplitMix64::new(3);
    let mut txn = graph.txn();
    for (i, &id) in ids.iter().enumerate() {
        let v: Vec<f32> = (0..8).map(|_| rng.next_f32()).collect();
        let class = if i % 4 == 0 { "confidential" } else { "public" };
        txn = txn
            .upsert_vertex(0, id, vec![AttrValue::Str(class.into())])
            .set_vector(0, id, v);
    }
    txn.commit().unwrap();

    // -- One set of grants governs rows AND vectors (the paper's §1 data-
    //    governance argument): analysts see public docs only.
    let acl = AccessControl::new();
    acl.define_role("admin", Role::default().allow_type(0));
    acl.define_role(
        "analyst",
        Role::default().allow_rows(0, "classification", AttrValue::Str("public".into())),
    );
    acl.assign("alice", "admin").unwrap();
    acl.assign("bob", "analyst").unwrap();

    // -- The gateway: 2 executors, 4 queue slots, 5 req/s per tenant. ----
    let server = Server::new(
        Arc::new(graph),
        Arc::new(acl),
        ServerConfig {
            admission: AdmissionConfig {
                executor_permits: 2,
                queue_capacity: 4,
                rate_limit: Some(RateLimitConfig {
                    burst: 8.0,
                    per_sec: 5.0,
                }),
            },
            max_batch: 16,
            default_deadline: Some(Duration::from_secs(2)),
            ..ServerConfig::default()
        },
    );

    // -- Sessions carry (tenant, rbac user). -----------------------------
    let acme = server.open_session("acme", "alice");
    let globex = server.open_session("globex", "bob");

    // GSQL through the gateway: admission + grants + deadline all apply.
    let mut params = tigervector::gsql::Params::new();
    params.insert("qv".into(), Value::Vector(vec![0.5; 8]));
    let out = server
        .query(
            &acme,
            "SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 5",
            &params,
        )
        .unwrap();
    println!("alice's top-5 (all docs): {} rows", out.rows().len());

    // The same query as bob silently excludes confidential rows.
    let hits = server.vector_top_k(&globex, &[0], vec![0.5; 8], 5).unwrap();
    println!("bob's top-5 (public only): {} hits", hits.len());

    // An unknown principal is rejected outright.
    let mallory = server.open_session("mallory", "mallory");
    let err = server
        .vector_top_k(&mallory, &[0], vec![0.5; 8], 5)
        .unwrap_err();
    println!("mallory: {err}");

    // A session deadline that has already passed times out at admission to
    // the executor, before any segment is searched.
    let hurried = server
        .open_session("acme", "alice")
        .with_deadline(Duration::ZERO);
    let err = server
        .vector_top_k(&hurried, &[0], vec![0.5; 8], 5)
        .unwrap_err();
    println!("hurried: {err}");

    // Burn globex's token bucket to show per-tenant throttling.
    let mut rate_limited = 0;
    for _ in 0..16 {
        if server.vector_top_k(&globex, &[0], vec![0.5; 8], 3).is_err() {
            rate_limited += 1;
        }
    }
    println!("globex rate-limited on {rate_limited}/16 rapid-fire requests");

    // -- Per-tenant metrics: counters + latency percentiles as JSON. -----
    println!(
        "\nmetrics snapshot:\n{}",
        serde_json::to_string_pretty(&server.metrics_json()).unwrap()
    );
}
