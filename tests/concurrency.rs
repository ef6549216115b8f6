//! Concurrency integration tests: background vacuum + concurrent searches +
//! writers, MVCC read stability under churn, and the distributed runtime
//! under multi-threaded clients.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tigervector::common::ids::SegmentLayout;
use tigervector::common::{DistanceMetric, SplitMix64, Tid};
use tigervector::embedding::vacuum::VacuumHooks;
use tigervector::embedding::{
    BackgroundVacuum, EmbeddingService, EmbeddingTypeDef, ServiceConfig, VacuumConfig,
};
use tigervector::graph::Graph;
use tigervector::hnsw::DeltaRecord;
use tigervector::storage::{AttrType, AttrValue};

#[test]
fn searches_stay_correct_under_background_vacuum_and_writes() {
    let layout = SegmentLayout::with_capacity(64);
    let g = Arc::new(Graph::with_config(
        layout,
        ServiceConfig {
            planner: tv_common::PlannerConfig::default().with_brute_threshold(8),
            query_threads: 1,
            default_ef: 64,
        },
    ));
    g.create_vertex_type("Doc", &[("n", AttrType::Int)])
        .unwrap();
    let emb = g
        .add_embedding_attribute(
            "Doc",
            EmbeddingTypeDef::new("e", 8, "M", DistanceMetric::L2),
        )
        .unwrap();

    // Seed 256 stable vectors far from the churn region.
    let ids = g.allocate_many(0, 256).unwrap();
    let mut txn = g.txn();
    for (i, &id) in ids.iter().enumerate() {
        txn = txn
            .upsert_vertex(0, id, vec![AttrValue::Int(i as i64)])
            .set_vector(emb, id, vec![i as f32; 8]);
    }
    txn.commit().unwrap();

    // Background vacuum wired to the graph's transaction manager.
    let svc = Arc::clone(g.embeddings());
    let g_for_committed = Arc::clone(&g);
    let g_for_horizon = Arc::clone(&g);
    let vacuum = BackgroundVacuum::start(
        svc,
        VacuumHooks {
            committed: Arc::new(move || g_for_committed.read_tid()),
            horizon: Arc::new(move || g_for_horizon.store().txn().vacuum_horizon()),
            load: Arc::new(|| 0.1),
        },
        VacuumConfig {
            delta_merge_interval: Duration::from_millis(3),
            index_merge_interval: Duration::from_millis(7),
            max_merge_threads: 2,
            target_utilization: 0.8,
        },
    );

    let stop = Arc::new(AtomicBool::new(false));
    // Writer thread: churns new vectors in a far-away region.
    let writer = {
        let g = Arc::clone(&g);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = SplitMix64::new(1);
            let mut n = 0;
            while !stop.load(Ordering::Relaxed) {
                let id = g.allocate(0).unwrap();
                let v: Vec<f32> = (0..8).map(|_| 10_000.0 + rng.next_f32()).collect();
                g.txn()
                    .upsert_vertex(0, id, vec![AttrValue::Int(-1)])
                    .set_vector(0, id, v)
                    .commit()
                    .unwrap();
                n += 1;
                std::thread::sleep(Duration::from_micros(300));
            }
            n
        })
    };

    // Reader threads: nearest neighbor of a stable vector must stay put.
    let mut readers = Vec::new();
    for t in 0..3usize {
        let g = Arc::clone(&g);
        let stop = Arc::clone(&stop);
        let ids = ids.clone();
        readers.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::new(t as u64 + 10);
            let mut checks = 0;
            while !stop.load(Ordering::Relaxed) {
                let probe = rng.next_below(256) as usize;
                let (hits, _) = g
                    .vector_search(&[0], &[probe as f32; 8], 1, 64, None, g.read_tid())
                    .unwrap();
                assert_eq!(hits[0].neighbor.id, ids[probe], "probe {probe}");
                checks += 1;
            }
            checks
        }));
    }

    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    let written = writer.join().unwrap();
    let checks: usize = readers.into_iter().map(|r| r.join().unwrap()).sum();
    vacuum.stop();
    assert!(written > 10, "writer made progress: {written}");
    assert!(checks > 10, "readers made progress: {checks}");
}

#[test]
fn pinned_readers_survive_index_merges() {
    let svc = Arc::new(EmbeddingService::new(ServiceConfig {
        planner: tv_common::PlannerConfig::default().with_brute_threshold(4),
        query_threads: 1,
        default_ef: 32,
    }));
    let layout = SegmentLayout::with_capacity(128);
    let attr = svc
        .register(
            0,
            EmbeddingTypeDef::new("e", 4, "M", DistanceMetric::L2),
            layout,
        )
        .unwrap();
    // 100 vectors at tids 1..=100.
    let recs: Vec<DeltaRecord> = (0..100)
        .map(|i| DeltaRecord::upsert(layout.vertex_id(i), Tid(i as u64 + 1), vec![i as f32; 4]))
        .collect();
    svc.apply_deltas(attr, &recs).unwrap();

    // A reader pinned at tid 50 must keep seeing exactly 50 vectors no
    // matter how many merges happen after.
    let pinned = Tid(50);
    for step in [60u64, 80, 100] {
        svc.delta_merge(attr, Tid(step)).unwrap();
        svc.index_merge(attr, Tid(step), 1).unwrap();
        let (hits, _) = svc.top_k(&[attr], &[49.0; 4], 1, 32, pinned, None).unwrap();
        assert_eq!(hits[0].neighbor.id, layout.vertex_id(49));
        let (hits, _) = svc.top_k(&[attr], &[99.0; 4], 1, 64, pinned, None).unwrap();
        // Vector 99 (tid 100) is invisible at tid 50; nearest visible is 49.
        assert_eq!(hits[0].neighbor.id, layout.vertex_id(49));
    }
    // Once the horizon passes, pruning collapses to one snapshot and new
    // readers see everything.
    svc.prune(Tid(100));
    let (hits, _) = svc
        .top_k(&[attr], &[99.0; 4], 1, 64, Tid(100), None)
        .unwrap();
    assert_eq!(hits[0].neighbor.id, layout.vertex_id(99));
}
