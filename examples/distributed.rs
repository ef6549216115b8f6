//! Distributed vector search (Fig. 5, §6.3): the coordinator/worker
//! scatter-gather over a simulated cluster, replica failover, fault
//! injection with retry recovery, degraded-mode partial results, and the
//! scalability model the Fig. 9/10 benchmarks use.
//!
//! Run with: `cargo run --release --example distributed`

use std::sync::Arc;
use std::time::Duration;
use tigervector::baselines::{ClusterModel, QueryWork};
use tigervector::cluster::{ClusterRuntime, RuntimeConfig};
use tigervector::common::ids::{LocalId, SegmentLayout};
use tigervector::common::inject::{Action, Point};
use tigervector::common::{DistanceMetric, RetryPolicy, SegmentId, Tid, VertexId};
use tigervector::datagen::{DatasetShape, VectorDataset};
use tigervector::embedding::{EmbeddingSegment, EmbeddingTypeDef};
use tigervector::hnsw::DeltaRecord;

fn main() {
    let servers = 4;
    let segments = 16;
    let per_segment = 500;
    println!("starting {servers}-server cluster runtime (replication=2)...");
    let runtime = ClusterRuntime::start(RuntimeConfig {
        servers,
        replication: 2,
        planner: tv_common::PlannerConfig::default(),
        retry: RetryPolicy {
            max_retries: 2,
            attempt_timeout: Duration::from_millis(100),
            backoff: Duration::from_millis(2),
            hedge_after: None,
        },
        degraded_mode: false,
    });

    // Build per-segment HNSW indexes and register them.
    let dim = 32;
    let def = EmbeddingTypeDef::new("e", dim, "SIFT", DistanceMetric::L2);
    let ds = VectorDataset::generate_dim(DatasetShape::Sift, dim, segments * per_segment, 8, 3);
    let layout = SegmentLayout::with_capacity(per_segment);
    let mut tid = 0u64;
    for s in 0..segments {
        let seg = Arc::new(EmbeddingSegment::new(
            SegmentId(s as u32),
            &def,
            per_segment,
        ));
        let recs: Vec<DeltaRecord> = (0..per_segment)
            .map(|l| {
                tid += 1;
                DeltaRecord::upsert(
                    VertexId::new(SegmentId(s as u32), LocalId(l as u32)),
                    Tid(tid),
                    ds.base[s * per_segment + l].clone(),
                )
            })
            .collect();
        seg.append_deltas(&recs).unwrap();
        seg.delta_merge(Tid(tid));
        seg.index_merge(Tid(tid)).unwrap();
        runtime.add_segment(seg);
    }
    println!(
        "loaded {} vectors into {} segments across {} servers\n",
        segments * per_segment,
        segments,
        servers
    );

    // Scatter-gather query.
    let q = &ds.queries[0];
    let r = runtime.top_k(q, 5, 64, Tid::MAX, None).unwrap();
    println!("top-5 (coordinator global merge):");
    for n in &r.neighbors {
        println!("  {} dist {:.2}", n.id, n.dist);
    }
    println!(
        "per-reply compute: {:?}; distance computations: {}; coverage {}/{}",
        r.times,
        r.stats.distance_computations,
        r.coverage.segments_searched,
        r.coverage.segments_total
    );
    let expected_id = {
        let gt = tigervector::datagen::ground_truth(
            &ds.base,
            std::slice::from_ref(q),
            1,
            DistanceMetric::L2,
            layout,
        );
        gt[0][0]
    };
    assert_eq!(
        r.neighbors[0].id, expected_id,
        "distributed top-1 must be exact-ish"
    );
    let healthy_ids: Vec<_> = r.neighbors.iter().map(|n| n.id).collect();

    // Failover: kill a server, results stay identical thanks to replicas.
    println!("\nfailing server 0 — replicas take over...");
    runtime.fail_server(0);
    let after = runtime.top_k(q, 5, 64, Tid::MAX, None).unwrap();
    assert_eq!(
        healthy_ids,
        after.neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
    );
    println!("results identical after failover ✓");
    runtime.recover_server(0);

    // Fault injection: a server swallows the next request; the coordinator
    // times the silence out and re-routes its segments to replicas.
    println!("\ninjecting crash-on-recv on server 1 — retry recovers...");
    runtime
        .injector()
        .arm(Point::WorkerRecv { server: 1 }, Action::Fail, 1, Some(1));
    let recovered = runtime.top_k(q, 5, 64, Tid::MAX, None).unwrap();
    assert_eq!(
        healthy_ids,
        recovered.neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
    );
    println!(
        "bit-identical after {} replica retrie(s) ✓",
        recovered.retries
    );

    // The analytic model used for the paper-scale figures.
    println!("\nmodeled cluster QPS (measured CPU + modeled 32-core servers):");
    let work = QueryWork {
        total_cpu: Duration::from_millis(4),
        k: 100,
    };
    let mut prev: Option<f64> = None;
    for servers in [8usize, 16, 32] {
        let qps = ClusterModel { servers }.qps(&work);
        let gain = prev.map_or(String::new(), |p| {
            format!("  ({:.2}× vs previous)", qps / p)
        });
        println!("  {servers:>2} servers: {qps:>10.0} QPS{gain}");
        prev = Some(qps);
    }
    println!(
        "modeled at 10% failure rate: {:.0} QPS on 8 servers",
        ClusterModel { servers: 8 }.qps_with_failures(&work, 0.1)
    );
}
