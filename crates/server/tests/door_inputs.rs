//! Edge-case inputs at every serving door, as one table: `k = 0`, `k` above
//! the live count, a wrong dimension, NaN/±∞, and segments that hold nothing
//! (never written, or every vector tombstoned), each on f32 and on SQ8
//! storage. The doors are `Server::query`, `Server::vector_top_k`,
//! `Server::cluster_top_k`, `EmbeddingService::top_k_many` and
//! `EmbeddingService::range_search`. Every cell is `Ok` with an exact row
//! count or a typed `TvError`; none may panic.

use std::sync::Arc;
use tg_graph::{AccessControl, Graph, Role};
use tg_storage::{AttrType, AttrValue};
use tv_cluster::{ClusterRuntime, RuntimeConfig};
use tv_common::ids::{LocalId, SegmentLayout};
use tv_common::{
    Deadline, DistanceMetric, QuantSpec, SegmentId, SplitMix64, Tid, TvError, TvResult, VertexId,
};
use tv_embedding::{BatchQuery, EmbeddingSegment, EmbeddingTypeDef, ServiceConfig};
use tv_gsql::{Params, Value};
use tv_hnsw::{DeltaRecord, SearchStats};
use tv_server::{Server, ServerConfig, Session};

const DIM: usize = 4;
/// Two graph segments (16 + 8 rows) and three cluster segments of 8: with a
/// capacity of 16 an SQ8 segment trains its codec once it holds 8 vectors.
const CAPACITY: usize = 16;
const DOCS: usize = 24;

#[derive(Clone, Copy, Debug, PartialEq)]
enum State {
    /// `DOCS` live vectors, merged into the index.
    Loaded,
    /// The attribute exists and nothing was ever written to it.
    Empty,
    /// `DOCS` vectors merged into the index, then every one deleted and the
    /// deletes merged too: each index holds tombstones only.
    Tombstoned,
}

struct Rig {
    server: Server,
    session: Session,
    live: usize,
}

fn planner() -> tv_common::PlannerConfig {
    tv_common::PlannerConfig::default().with_brute_threshold(4)
}

fn vectors() -> Vec<Vec<f32>> {
    let mut rng = SplitMix64::new(7);
    (0..DOCS)
        .map(|_| (0..DIM).map(|_| rng.next_f32() * 10.0).collect())
        .collect()
}

fn graph(quant: QuantSpec, state: State) -> Arc<Graph> {
    let graph = Graph::with_config(
        SegmentLayout::with_capacity(CAPACITY),
        ServiceConfig {
            planner: planner(),
            query_threads: 2,
            default_ef: 32,
        },
    );
    graph
        .create_vertex_type("Doc", &[("n", AttrType::Int)])
        .unwrap();
    let def = EmbeddingTypeDef::new("emb", DIM, "M", DistanceMetric::L2).with_quant(quant);
    graph.add_embedding_attribute("Doc", def).unwrap();
    if state == State::Empty {
        return Arc::new(graph);
    }
    let vacuum = |graph: &Graph| {
        let up_to = graph.read_tid();
        graph.embeddings().delta_merge(0, up_to).unwrap();
        graph.embeddings().index_merge(0, up_to, 1).unwrap();
    };
    let ids = graph.allocate_many(0, DOCS).unwrap();
    let mut txn = graph.txn();
    for (i, (&id, v)) in ids.iter().zip(vectors()).enumerate() {
        txn = txn
            .upsert_vertex(0, id, vec![AttrValue::Int(i as i64)])
            .set_vector(0, id, v);
    }
    txn.commit().unwrap();
    vacuum(&graph);
    if state == State::Tombstoned {
        let mut txn = graph.txn();
        for &id in &ids {
            txn = txn.delete_vertex(0, id);
        }
        txn.commit().unwrap();
        vacuum(&graph);
    }
    let attr = graph.embeddings().attr(0).unwrap();
    for seg in attr.all_segments() {
        assert_eq!(seg.storage_tier(), quant.tier, "{quant:?} {state:?}");
        assert_eq!(seg.mem_delta_count(), 0, "everything is in the index");
    }
    Arc::new(graph)
}

fn cluster(quant: QuantSpec, state: State) -> Arc<ClusterRuntime> {
    let runtime = ClusterRuntime::start(RuntimeConfig {
        servers: 2,
        replication: 1,
        planner: planner(),
        ..RuntimeConfig::default()
    });
    let def = EmbeddingTypeDef::new("e", DIM, "M", DistanceMetric::L2).with_quant(quant);
    let vecs = vectors();
    for s in 0..3u32 {
        let seg = Arc::new(EmbeddingSegment::new(SegmentId(s), &def, CAPACITY));
        let id = |l: u32| VertexId::new(SegmentId(s), LocalId(l));
        if state != State::Empty {
            let recs: Vec<DeltaRecord> = (0..8u32)
                .map(|l| {
                    let row = (s * 8 + l) as usize;
                    DeltaRecord::upsert(id(l), Tid(row as u64 + 1), vecs[row].clone())
                })
                .collect();
            seg.append_deltas(&recs).unwrap();
            seg.delta_merge(Tid(DOCS as u64)).unwrap();
            seg.index_merge(Tid(DOCS as u64)).unwrap();
            assert_eq!(seg.storage_tier(), quant.tier);
        }
        if state == State::Tombstoned {
            let dels: Vec<DeltaRecord> = (0..8u32)
                .map(|l| DeltaRecord::delete(id(l), Tid(100 + u64::from(s * 8 + l))))
                .collect();
            seg.append_deltas(&dels).unwrap();
            seg.delta_merge(Tid(200)).unwrap();
            seg.index_merge(Tid(200)).unwrap();
        }
        runtime.add_segment(seg);
    }
    Arc::new(runtime)
}

fn rig(quant: QuantSpec, state: State) -> Rig {
    let acl = AccessControl::new();
    acl.define_role("reader", Role::default().allow_type(0));
    acl.assign("u", "reader").unwrap();
    let server = Server::new(graph(quant, state), Arc::new(acl), ServerConfig::default())
        .with_cluster(cluster(quant, state));
    let session = server.open_session("t", "u");
    Rig {
        server,
        session,
        live: if state == State::Loaded { DOCS } else { 0 },
    }
}

/// The four top-k doors, each reduced to how many rows it returned.
const TOPK_DOORS: [&str; 4] = ["query", "vector_top_k", "cluster_top_k", "top_k_many"];

fn top_k(rig: &Rig, door: &str, q: &[f32], k: usize) -> TvResult<usize> {
    let Rig {
        server, session, ..
    } = rig;
    match door {
        "query" => {
            let mut params = Params::new();
            params.insert("qv".into(), Value::Vector(q.to_vec()));
            let src = format!("SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT {k}");
            Ok(server.query(session, &src, &params)?.rows().len())
        }
        "vector_top_k" => Ok(server.vector_top_k(session, &[0], q.to_vec(), k)?.len()),
        "cluster_top_k" => Ok(server
            .cluster_top_k(session, q, k, 32, Tid::MAX)?
            .neighbors
            .len()),
        "top_k_many" => {
            let graph = server.graph();
            let batch = [BatchQuery {
                query: q,
                k,
                ef: 32,
            }];
            let mut stats = SearchStats::default();
            let found = graph.embeddings().top_k_many(
                &[0],
                &batch,
                graph.read_tid(),
                None,
                Deadline::none(),
                &mut stats,
            )?;
            assert_eq!(found.len(), 1, "one result list per query");
            Ok(found[0].len())
        }
        other => panic!("no door named {other}"),
    }
}

fn range(rig: &Rig, q: &[f32], threshold: f32) -> TvResult<usize> {
    let graph = rig.server.graph();
    let (found, _) =
        graph
            .embeddings()
            .range_search(&[0], q, threshold, 32, graph.read_tid(), None)?;
    Ok(found.len())
}

#[test]
fn every_door_answers_edge_case_inputs_with_a_count_or_a_typed_error() {
    let good = [1.0f32; DIM];
    for quant in [QuantSpec::f32(), QuantSpec::sq8()] {
        for state in [State::Loaded, State::Empty, State::Tombstoned] {
            let rig = rig(quant, state);
            let ctx = |door: &str, case: &str| format!("{} {state:?} {door} {case}", quant.tier);
            for door in TOPK_DOORS {
                // k = 0 / LIMIT 0: nothing asked for, nothing returned.
                assert_eq!(
                    top_k(&rig, door, &good, 0).unwrap(),
                    0,
                    "{}",
                    ctx(door, "k=0")
                );
                // An ordinary k and one above the live count: min(k, live).
                for k in [3, DOCS + 10] {
                    assert_eq!(
                        top_k(&rig, door, &good, k).unwrap(),
                        k.min(rig.live),
                        "{}",
                        ctx(door, &format!("k={k}"))
                    );
                }
                // Wrong dimension, both ways.
                for bad in [&good[..DIM - 1], &[1.0f32; DIM + 1][..]] {
                    let err = top_k(&rig, door, bad, 3).unwrap_err();
                    assert!(
                        matches!(
                            err,
                            TvError::DimensionMismatch { expected: DIM, got } if got == bad.len()
                        ),
                        "{}: {err}",
                        ctx(door, "dimension")
                    );
                }
                // NaN and both infinities, named by component.
                for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut q = good;
                    q[2] = poison;
                    let err = top_k(&rig, door, &q, 3).unwrap_err();
                    assert!(
                        matches!(&err, TvError::InvalidArgument(m) if m.contains("component 2")),
                        "{}: {err}",
                        ctx(door, "non-finite")
                    );
                }
            }
            // The range door: everything within +inf, nothing within 0 of a
            // point no vector sits on, and the same typed refusals.
            assert_eq!(range(&rig, &good, f32::INFINITY).unwrap(), rig.live);
            assert_eq!(range(&rig, &[-5.0; DIM], 0.0).unwrap(), 0);
            assert!(matches!(
                range(&rig, &good[..DIM - 1], 1.0).unwrap_err(),
                TvError::DimensionMismatch { expected: DIM, got } if got == DIM - 1
            ));
            assert!(matches!(
                range(&rig, &[f32::NAN; DIM], 1.0).unwrap_err(),
                TvError::InvalidArgument(_)
            ));
            assert!(matches!(
                range(&rig, &good, f32::NAN).unwrap_err(),
                TvError::InvalidArgument(_)
            ));
        }
    }
}
