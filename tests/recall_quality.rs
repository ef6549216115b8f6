//! Search-quality integration tests: recall of the segmented engine against
//! exact ground truth on paper-shaped datasets, the ef/recall monotonicity
//! the Fig. 7 sweep depends on, and the baseline recall ordering the paper
//! reports (Neptune ≈ 99.9% ≫ Neo4j ≈ 65–68%).

use tigervector::baselines::{
    recall_at_k, MilvusLike, NeoLike, NeptuneLike, TigerVectorSystem, VectorSystem,
};
use tigervector::common::ids::SegmentLayout;
use tigervector::datagen::{ground_truth, DatasetShape, VectorDataset};

const N: usize = 6_000;
const Q: usize = 30;
const K: usize = 10;

#[allow(clippy::type_complexity)]
fn setup(
    shape: DatasetShape,
) -> (
    VectorDataset,
    Vec<(tigervector::common::VertexId, Vec<f32>)>,
    Vec<Vec<tigervector::common::VertexId>>,
    SegmentLayout,
) {
    let layout = SegmentLayout::with_capacity(512);
    let ds = VectorDataset::generate_dim(shape, 32, N, Q, 77);
    let data = ds.with_ids(layout);
    let gt = ground_truth(&ds.base, &ds.queries, K, shape.metric(), layout);
    (ds, data, gt, layout)
}

fn mean_recall(
    sys: &dyn VectorSystem,
    ds: &VectorDataset,
    gt: &[Vec<tigervector::common::VertexId>],
) -> f64 {
    let mut sum = 0.0;
    for (q, truth) in ds.queries.iter().zip(gt) {
        sum += recall_at_k(&sys.top_k(q, K), truth, K);
    }
    sum / ds.queries.len() as f64
}

#[test]
fn tigervector_recall_increases_with_ef() {
    let (ds, data, gt, layout) = setup(DatasetShape::Sift);
    let mut sys = TigerVectorSystem::new(ds.dim, ds.shape.metric(), layout);
    sys.load(&data);
    sys.build_index();
    let mut last = 0.0;
    let mut recalls = Vec::new();
    for ef in [8usize, 32, 128, 512] {
        sys.set_ef(ef);
        let r = mean_recall(&sys, &ds, &gt);
        recalls.push(r);
        assert!(r >= last - 0.02, "recall regressed at ef={ef}: {recalls:?}");
        last = r;
    }
    // At laptop scale the per-segment beams saturate recall quickly (the
    // paper's visible ef/recall trade-off needs 100M-scale segments), so the
    // testable invariants are monotonicity and a high ceiling.
    assert!(
        *recalls.last().unwrap() > 0.95,
        "ef=512 recall too low: {recalls:?}"
    );
}

#[test]
fn baseline_recall_ordering_matches_paper() {
    let (ds, data, gt, layout) = setup(DatasetShape::Sift);
    let mut neo = NeoLike::new(ds.dim, ds.shape.metric());
    neo.load(&data);
    neo.build_index();
    let mut nep = NeptuneLike::new(ds.dim, ds.shape.metric());
    nep.load(&data);
    nep.build_index();
    let mut tv = TigerVectorSystem::new(ds.dim, ds.shape.metric(), layout);
    tv.load(&data);
    tv.build_index();
    tv.set_ef(256);

    let r_neo = mean_recall(&neo, &ds, &gt);
    let r_nep = mean_recall(&nep, &ds, &gt);
    let r_tv = mean_recall(&tv, &ds, &gt);
    // Neptune's fixed beam is high-recall; Neo4j's is low; TigerVector at a
    // tuned ef beats Neo4j comfortably (the paper's +23–26% gap).
    assert!(r_nep > 0.99, "neptune recall {r_nep}");
    assert!(r_neo < r_nep, "neo {r_neo} !< neptune {r_nep}");
    assert!(r_tv > r_neo + 0.05, "tigervector {r_tv} vs neo {r_neo}");
}

#[test]
fn milvus_and_tigervector_match_at_equal_ef() {
    let (ds, data, gt, layout) = setup(DatasetShape::Deep);
    let mut tv = TigerVectorSystem::new(ds.dim, ds.shape.metric(), layout);
    tv.load(&data);
    tv.build_index();
    let mut mv = MilvusLike::new(ds.dim, ds.shape.metric(), layout);
    mv.load(&data);
    mv.build_index();
    for ef in [32usize, 128] {
        tv.set_ef(ef);
        mv.set_ef(ef);
        let r_tv = mean_recall(&tv, &ds, &gt);
        let r_mv = mean_recall(&mv, &ds, &gt);
        assert!(
            (r_tv - r_mv).abs() < 0.08,
            "same core, same params should land close: tv={r_tv} mv={r_mv} at ef={ef}"
        );
    }
}

#[test]
fn embedding_service_matches_flat_system_recall() {
    // The full MVCC embedding service should search as well as the plain
    // segmented system without MVCC on the same HNSW core (`MilvusLike`;
    // `TigerVectorSystem` is this service).
    use tigervector::common::Tid;
    use tigervector::embedding::{EmbeddingService, EmbeddingTypeDef, ServiceConfig};
    use tigervector::hnsw::DeltaRecord;

    let (ds, data, gt, layout) = setup(DatasetShape::Sift);
    let svc = EmbeddingService::new(ServiceConfig {
        planner: tv_common::PlannerConfig::default().with_brute_threshold(16),
        query_threads: 2,
        default_ef: 128,
    });
    let attr = svc
        .register(
            0,
            EmbeddingTypeDef::new("e", ds.dim, "SIFT", ds.shape.metric()),
            layout,
        )
        .unwrap();
    let recs: Vec<DeltaRecord> = data
        .iter()
        .enumerate()
        .map(|(i, (id, v))| DeltaRecord::upsert(*id, Tid(i as u64 + 1), v.clone()))
        .collect();
    svc.apply_deltas(attr, &recs).unwrap();
    let tid = Tid(data.len() as u64);
    svc.delta_merge(attr, tid).unwrap();
    svc.index_merge(attr, tid, 2).unwrap();

    let mut sum = 0.0;
    for (q, truth) in ds.queries.iter().zip(&gt) {
        let (hits, _) = svc.top_k(&[attr], q, K, 128, tid, None).unwrap();
        let neighbors: Vec<tigervector::common::Neighbor> =
            hits.iter().map(|t| t.neighbor).collect();
        sum += recall_at_k(&neighbors, truth, K);
    }
    let recall = sum / ds.queries.len() as f64;
    assert!(recall > 0.9, "service recall {recall}");
}

#[test]
fn pq_tier_serves_top_k_many_at_its_operating_point() {
    // `pq{m}` has no workload and no example; what keeps it is one cell of
    // the run ROADMAP item G registered: `pq32` at dimension 128, `ef` 24
    // (EXPERIMENTS "Quantized storage tier", run 3). Segments declared
    // `pq(32)` train on what an index merge hands them, traverse ADC codes,
    // re-score the survivors against the SQ8 side store and answer the
    // service's batch door close to brute force.
    use tigervector::common::{Deadline, QuantSpec, StorageTier, Tid};
    use tigervector::embedding::{BatchQuery, EmbeddingService, EmbeddingTypeDef, ServiceConfig};
    use tigervector::hnsw::{DeltaRecord, SearchStats};

    const M: usize = 32;
    const EF: usize = 24;
    // Two segments of 400: each trains its codebooks once half full.
    let layout = SegmentLayout::with_capacity(400);
    let ds = VectorDataset::generate_dim(DatasetShape::Sift, 128, 800, 20, 24);
    let gt = ground_truth(&ds.base, &ds.queries, K, ds.shape.metric(), layout);
    let svc = EmbeddingService::new(ServiceConfig::default());
    let def =
        EmbeddingTypeDef::new("e", ds.dim, "SIFT", ds.shape.metric()).with_quant(QuantSpec::pq(M));
    let attr = svc.register(0, def, layout).unwrap();
    let recs: Vec<DeltaRecord> = ds
        .with_ids(layout)
        .into_iter()
        .enumerate()
        .map(|(i, (id, v))| DeltaRecord::upsert(id, Tid(i as u64 + 1), v))
        .collect();
    let tid = Tid(recs.len() as u64);
    svc.apply_deltas(attr, &recs).unwrap();
    svc.delta_merge(attr, tid).unwrap();
    svc.index_merge(attr, tid, 1).unwrap();
    for seg in svc.attr(attr).unwrap().all_segments() {
        assert_eq!(seg.storage_tier(), StorageTier::Pq { m: M });
    }

    let batch: Vec<BatchQuery<&[f32]>> = ds
        .queries
        .iter()
        .map(|q| BatchQuery {
            query: q.as_slice(),
            k: K,
            ef: EF,
        })
        .collect();
    let mut stats = SearchStats::default();
    let found = svc
        .top_k_many(&[attr], &batch, tid, None, Deadline::none(), &mut stats)
        .unwrap();
    assert!(stats.reranked > 0, "survivors are re-scored against SQ8");
    let mut sum = 0.0;
    for (hits, truth) in found.iter().zip(&gt) {
        let neighbors: Vec<tigervector::common::Neighbor> =
            hits.iter().map(|t| t.neighbor).collect();
        sum += recall_at_k(&neighbors, truth, K);
    }
    let recall = sum / found.len() as f64;
    assert!(recall > 0.9, "pq{M} recall@{K} {recall} at ef {EF}");
}
