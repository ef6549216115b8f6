//! Edge-case inputs at every serving door, as one table: `k = 0`, `k` above
//! the live count, a wrong dimension, NaN/±∞, finite components whose norm
//! overflows f32 (`OVERFLOWING`), an attribute named twice, and segments
//! that hold nothing (never written, or every vector tombstoned), each on
//! f32 and on SQ8 storage. The doors are `Server::query`, `Server::vector_top_k`,
//! `Server::cluster_top_k`, `EmbeddingService::top_k_many` and
//! `EmbeddingService::range_search`. Every cell is `Ok` with an exact row
//! count or a typed `TvError`; none may panic.
//!
//! A "who is asking" table puts an admin, a row-restricted analyst and a
//! stranger through every read door of `Server` and every GSQL query kind:
//! each answer is exactly the admin's rows that the analyst's rules let
//! through, or the same typed refusal.
//!
//! A third table covers the write doors, `Graph::txn().set_vector(..)
//! .commit()`, `EmbeddingService::apply_deltas`,
//! `EmbeddingSegment::append_deltas` and `ClusterRuntime::append_deltas`: a
//! local id at or beyond the segment capacity, a wrong dimension, NaN/±∞ and
//! an overflowing norm, each alone and as the third record of a batch (one that spans two
//! segments where the door routes by id), are a typed `TvError` that appends
//! nothing and leaves the segment able to merge. So is another segment's id
//! at the two doors bound to one segment.

use std::sync::Arc;
use tg_graph::{AccessControl, Graph, Role};
use tg_storage::{AttrType, AttrValue};
use tv_cluster::{ClusterRuntime, RuntimeConfig};
use tv_common::ids::{LocalId, SegmentLayout};
use tv_common::{
    Deadline, DistanceMetric, QuantSpec, SegmentId, SplitMix64, Tid, TvError, TvResult, VertexId,
};
use tv_embedding::{BatchQuery, EmbeddingSegment, EmbeddingTypeDef, ServiceConfig};
use tv_gsql::{Params, QueryOutput, Value};
use tv_hnsw::{DeltaRecord, SearchStats};
use tv_server::{Server, ServerConfig, Session};

const DIM: usize = 4;
/// Two graph segments (16 + 8 rows) and three cluster segments of 8: with a
/// capacity of 16 an SQ8 segment trains its codec once it holds 8 vectors.
const CAPACITY: usize = 16;
const DOCS: usize = 24;
/// Every component finite, the squared norm ≈ 4e40: it overflows f32, and
/// a cosine distance to `[1e20; DIM]` would be NaN.
const OVERFLOWING: [f32; DIM] = [1e20, -1e20, 1e20, -1e20];

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
    let found = graph.embeddings().range_search(
        &[0],
        q,
        threshold,
        32,
        graph.read_tid(),
        None,
        Deadline::none(),
        &mut SearchStats::default(),
    )?;
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
                // An ordinary k and ones above the live count, one far past
                // anything a heap could reserve: min(k, live).
                for k in [3, DOCS + 10, 1_000_000_000_000] {
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
                let err = top_k(&rig, door, &OVERFLOWING, 3).unwrap_err();
                assert!(
                    matches!(&err, TvError::InvalidArgument(m) if m.contains("norm")),
                    "{}: {err}",
                    ctx(door, "overflowing norm")
                );
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
                range(&rig, &OVERFLOWING, 1.0).unwrap_err(),
                TvError::InvalidArgument(m) if m.contains("norm")
            ));
            assert!(matches!(
                range(&rig, &good, f32::NAN).unwrap_err(),
                TvError::InvalidArgument(_)
            ));
            // The one attribute named twice is searched once: every door
            // that takes attribute ids counts as if it were named once.
            let graph = rig.server.graph();
            let (twice, tid) = ([0u32, 0], graph.read_tid());
            for k in [3, DOCS + 10] {
                let found = rig
                    .server
                    .vector_top_k(&rig.session, &twice, good.to_vec(), k);
                let named = [("Doc", "emb"); 2];
                let set = tv_gsql::vector_search(graph, &named, &good, k, Default::default());
                let batch = [BatchQuery {
                    query: &good[..],
                    k,
                    ef: 32,
                }];
                let mut stats = SearchStats::default();
                let many = graph.embeddings().top_k_many(
                    &twice,
                    &batch,
                    tid,
                    None,
                    Deadline::none(),
                    &mut stats,
                );
                assert_eq!(
                    [
                        found.unwrap().len(),
                        set.unwrap().len(),
                        many.unwrap()[0].len()
                    ],
                    [k.min(rig.live); 3],
                    "{}",
                    ctx("attribute twice", &format!("k={k}"))
                );
            }
            let within = graph.embeddings().range_search(
                &twice,
                &good,
                f32::INFINITY,
                32,
                tid,
                None,
                Deadline::none(),
                &mut SearchStats::default(),
            );
            assert_eq!(within.unwrap().len(), rig.live);
        }
    }
}

/// The four write doors, each bound to the embedding segment its records
/// for `SegmentId(1)` end up in.
const WRITE_DOORS: [&str; 4] = ["txn", "apply_deltas", "segment", "cluster"];

struct WriteRig {
    graph: Arc<Graph>,
    cluster: Arc<ClusterRuntime>,
    /// Every segment behind the door (nothing may be appended to any).
    segments: Vec<Arc<EmbeddingSegment>>,
    /// The segment the records of `SegmentId(1)` land in.
    target: Arc<EmbeddingSegment>,
    /// First TID above everything the door has stored.
    next_tid: u64,
}

fn write_rig(quant: QuantSpec, door: &str) -> WriteRig {
    let graph = graph(quant, State::Loaded);
    // Locals 8..16 of graph segment 1, so the good records name real vertices.
    graph.allocate_many(0, CAPACITY - 8).unwrap();
    let cluster = cluster(quant, State::Loaded);
    let (segments, next_tid) = match door {
        "txn" | "apply_deltas" => (
            graph.embeddings().attr(0).unwrap().all_segments(),
            graph.read_tid().0 + 1,
        ),
        _ => (
            (0..3)
                .map(|s| cluster.segment(SegmentId(s)).unwrap())
                .collect(),
            1000,
        ),
    };
    WriteRig {
        target: Arc::clone(&segments[1]),
        graph,
        cluster,
        segments,
        next_tid,
    }
}

/// Write `batch` through `door`; the TID of the last record on success.
fn write(rig: &WriteRig, door: &str, batch: &[(VertexId, Vec<f32>)]) -> TvResult<Tid> {
    let records: Vec<DeltaRecord> = batch
        .iter()
        .enumerate()
        .map(|(i, (id, v))| DeltaRecord::upsert(*id, Tid(rig.next_tid + i as u64), v.clone()))
        .collect();
    let last = records.last().expect("non-empty batch").tid;
    match door {
        "txn" => {
            let mut txn = rig.graph.txn();
            for (id, v) in batch {
                txn = txn.set_vector(0, *id, v.clone());
            }
            txn.commit()
        }
        "apply_deltas" => rig
            .graph
            .embeddings()
            .apply_deltas(0, &records)
            .map(|()| last),
        "segment" => rig.target.append_deltas(&records).map(|()| last),
        "cluster" => rig
            .cluster
            .append_deltas(SegmentId(1), &records)
            .map(|()| last),
        other => panic!("no door named {other}"),
    }
}

/// The typed error a bad record must come back as.
enum Refusal {
    /// `InvalidArgument` naming the id and the capacity.
    BeyondCapacity,
    /// `DimensionMismatch` with both lengths.
    Dimension,
    /// `InvalidArgument` naming the poisoned component.
    NonFinite,
    /// `InvalidArgument` naming the norm.
    Overflow,
    /// `InvalidArgument` naming the id and the segment it was appended to
    /// (a door that routes by id never sees a foreign record).
    ForeignSegment,
}

impl Refusal {
    fn matches(&self, err: &TvError, (id, vector): &(VertexId, Vec<f32>)) -> bool {
        match (self, err) {
            (Refusal::BeyondCapacity, TvError::InvalidArgument(m)) => {
                m.contains(&id.to_string()) && m.contains(&format!("capacity {CAPACITY}"))
            }
            (Refusal::Dimension, TvError::DimensionMismatch { expected: DIM, got }) => {
                *got == vector.len()
            }
            (Refusal::NonFinite, TvError::InvalidArgument(m)) => m.contains("component 2"),
            (Refusal::Overflow, TvError::InvalidArgument(m)) => m.contains("norm"),
            (Refusal::ForeignSegment, TvError::InvalidArgument(m)) => {
                m.contains(&id.to_string()) && m.contains(&SegmentId(1).to_string())
            }
            _ => false,
        }
    }
}

#[test]
fn every_write_door_refuses_bad_records_whole_and_keeps_merging() {
    let id = |local: u32| VertexId::new(SegmentId(1), LocalId(local));
    let good = vec![1.0f32; DIM];
    let poisoned = |p: f32| {
        let mut v = good.clone();
        v[2] = p;
        v
    };
    let cases = [
        (
            "local id = capacity",
            id(CAPACITY as u32),
            good.clone(),
            Refusal::BeyondCapacity,
        ),
        (
            "local id = u32::MAX",
            id(u32::MAX),
            good.clone(),
            Refusal::BeyondCapacity,
        ),
        (
            "short vector",
            id(12),
            good[..DIM - 1].to_vec(),
            Refusal::Dimension,
        ),
        (
            "long vector",
            id(12),
            vec![1.0; DIM + 1],
            Refusal::Dimension,
        ),
        ("NaN", id(12), poisoned(f32::NAN), Refusal::NonFinite),
        ("+inf", id(12), poisoned(f32::INFINITY), Refusal::NonFinite),
        (
            "-inf",
            id(12),
            poisoned(f32::NEG_INFINITY),
            Refusal::NonFinite,
        ),
        (
            "overflowing norm",
            id(12),
            OVERFLOWING.to_vec(),
            Refusal::Overflow,
        ),
        (
            "another segment's id",
            VertexId::new(SegmentId(2), LocalId(12)),
            good.clone(),
            Refusal::ForeignSegment,
        ),
    ];
    for quant in [QuantSpec::f32(), QuantSpec::sq8()] {
        for door in WRITE_DOORS {
            let rig = write_rig(quant, door);
            let pending = || -> usize { rig.segments.iter().map(|s| s.mem_delta_count()).sum() };
            assert_eq!(pending(), 0);
            for (case, bad_id, bad_vector, refusal) in &cases {
                let bad = (*bad_id, bad_vector.clone());
                // Alone, and as the third record behind two good ones; where
                // the door routes by id, the first is another segment's.
                let routed = matches!(door, "txn" | "apply_deltas");
                if routed && matches!(refusal, Refusal::ForeignSegment) {
                    continue;
                }
                let first = VertexId::new(SegmentId(u32::from(!routed)), LocalId(8));
                let third = vec![(first, good.clone()), (id(9), good.clone()), bad.clone()];
                for batch in [vec![bad.clone()], third] {
                    let err = write(&rig, door, &batch).unwrap_err();
                    let ctx = format!("{} {door} {case} x{}", quant.tier, batch.len());
                    assert!(refusal.matches(&err, &bad), "{ctx}: {err}");
                    assert_eq!(pending(), 0, "{ctx}: a refused batch appended records");
                }
            }
            // The door still takes a good record, and the segment merges it:
            // far from every loaded vector, so it is its own nearest.
            let far = vec![50.0f32; DIM];
            let tid = write(&rig, door, &[(id(11), far.clone())]).unwrap();
            assert_eq!(pending(), 1, "{} {door}", quant.tier);
            rig.target.delta_merge(tid);
            assert_eq!(rig.target.index_merge(tid).unwrap(), Some(tid));
            assert_eq!(rig.target.mem_delta_count(), 0);
            assert_eq!(rig.target.storage_tier(), quant.tier);
            let (found, stats) = rig.target.search(&far, 1, 32, None, Tid::MAX, &planner());
            assert_eq!(found[0].id, id(11), "{} {door}", quant.tier);
            assert_eq!(stats.filtered_out, 0);
        }
    }
}

/// The "who is asking" graph: `Doc(class)` with an embedding, `Author(name)`
/// and `wrote: Author -> Doc`. Doc `i` is public unless `i % 3 == 1`, and
/// author `i % 4` wrote it.
struct Asking {
    server: Server,
    docs: Vec<VertexId>,
    vecs: Vec<Vec<f32>>,
}

const AUTHORS: usize = 4;

fn doc_is_public(i: usize) -> bool {
    i % 3 != 1
}

/// The analyst's author rule: `name = "a0"` or `name = "a2"`.
fn author_is_readable(i: usize) -> bool {
    i.is_multiple_of(2)
}

fn asking() -> Asking {
    let graph = Graph::with_config(
        SegmentLayout::with_capacity(CAPACITY),
        ServiceConfig {
            planner: planner(),
            query_threads: 2,
            default_ef: 32,
        },
    );
    graph
        .create_vertex_type("Doc", &[("class", AttrType::Str)])
        .unwrap();
    graph
        .create_vertex_type("Author", &[("name", AttrType::Str)])
        .unwrap();
    graph.create_edge_type("wrote", "Author", "Doc").unwrap();
    let def = EmbeddingTypeDef::new("emb", DIM, "M", DistanceMetric::L2);
    graph.add_embedding_attribute("Doc", def).unwrap();
    let docs = graph.allocate_many(0, DOCS).unwrap();
    let authors = graph.allocate_many(1, AUTHORS).unwrap();
    let vecs = vectors();
    let mut txn = graph.txn();
    for (i, &a) in authors.iter().enumerate() {
        txn = txn.upsert_vertex(1, a, vec![AttrValue::Str(format!("a{i}"))]);
    }
    for (i, (&id, v)) in docs.iter().zip(&vecs).enumerate() {
        let class = if doc_is_public(i) { "public" } else { "secret" };
        txn = txn
            .upsert_vertex(0, id, vec![AttrValue::Str(class.into())])
            .set_vector(0, id, v.clone())
            .add_edge(0, 1, authors[i % AUTHORS], id);
    }
    txn.commit().unwrap();

    let acl = AccessControl::new();
    acl.define_role("admin", Role::default().allow_type(0).allow_type(1));
    acl.define_role(
        "analyst",
        Role::default()
            .allow_rows(0, "class", AttrValue::Str("public".into()))
            .allow_rows(1, "name", AttrValue::Str("a0".into()))
            .allow_rows(1, "name", AttrValue::Str("a2".into())),
    );
    acl.assign("u-admin", "admin").unwrap();
    acl.assign("u-analyst", "analyst").unwrap();
    let server = Server::new(Arc::new(graph), Arc::new(acl), ServerConfig::default())
        .with_cluster(cluster(QuantSpec::f32(), State::Loaded));
    Asking { server, docs, vecs }
}

/// One answer row: the docs it names, and its distance's bits.
type Row = (Vec<VertexId>, u32);

/// The rows of `door` for `user`, every row of the graph asked for.
fn ask(rig: &Asking, user: &str, door: &str) -> TvResult<Vec<Row>> {
    let session = rig.server.open_session("t", user);
    let q = rig.vecs[5].clone();
    let mut params = Params::new();
    params.insert("qv".into(), Value::Vector(q.clone()));
    let top = |src: &str| -> TvResult<Vec<Row>> {
        let out = rig.server.query(&session, src, &params)?;
        let bits = |d: Option<f32>| d.map_or(0, f32::to_bits);
        Ok(match out {
            QueryOutput::Vertices(rows) => {
                rows.iter().map(|r| (vec![r.id], bits(r.dist))).collect()
            }
            QueryOutput::Pairs(pairs) => pairs
                .iter()
                .map(|(s, t, d)| (vec![s.id, t.id], d.to_bits()))
                .collect(),
        })
    };
    match door {
        "query top-k" => top("SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 100"),
        "query range" => top("SELECT s FROM (s:Doc) WHERE VECTOR_DIST(s.emb, $qv) < 1e30"),
        "query graph-only" => top("SELECT s FROM (s:Doc) LIMIT 100"),
        "query join" => top(
            "SELECT s, t FROM (s:Doc) <-[:wrote]- (a:Author) -[:wrote]-> (t:Doc) \
             ORDER BY VECTOR_DIST(s.emb, t.emb) LIMIT 1000",
        ),
        "query pattern, target last" => top("SELECT s FROM (a:Author) -[:wrote]-> (s:Doc) \
             ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 100"),
        "query pattern, target first" => top("SELECT s FROM (s:Doc) <-[:wrote]- (a:Author) \
             ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 100"),
        "vector_top_k" => Ok(rig
            .server
            .vector_top_k(&session, &[0], q, 100)?
            .iter()
            .map(|n| (vec![n.neighbor.id], n.neighbor.dist.to_bits()))
            .collect()),
        "cluster_top_k" => Ok(rig
            .server
            .cluster_top_k(&session, &q, 100, 32, Tid::MAX)?
            .neighbors
            .iter()
            .map(|n| (vec![n.id], n.dist.to_bits()))
            .collect()),
        other => panic!("no door named {other}"),
    }
}

#[test]
fn every_door_answers_each_principal_with_its_readable_rows_or_a_refusal() {
    let rig = asking();
    let index = |id: &VertexId| rig.docs.iter().position(|d| d == id).unwrap();
    // Whether the analyst may read a doc, and, through a pattern, its author.
    let readable = |id: &VertexId, through_author: bool| {
        let i = index(id);
        doc_is_public(i) && (!through_author || author_is_readable(i % AUTHORS))
    };
    for (door, through_author) in [
        ("query top-k", false),
        ("query range", false),
        ("query graph-only", false),
        ("query join", true),
        ("query pattern, target last", true),
        ("query pattern, target first", true),
        ("vector_top_k", false),
        ("cluster_top_k", false),
    ] {
        let admin = ask(&rig, "u-admin", door).unwrap();
        let want_rows = if door == "query join" {
            // Pairs of distinct docs by one author: C(6, 2) for each of four.
            AUTHORS * (DOCS / AUTHORS) * (DOCS / AUTHORS - 1) / 2
        } else {
            DOCS
        };
        assert_eq!(admin.len(), want_rows, "{door}: admin");
        let analyst = ask(&rig, "u-analyst", door);
        if door == "cluster_top_k" {
            // The scatter takes no filter: a row-restricted session is refused.
            let err = analyst.unwrap_err();
            assert!(
                matches!(&err, TvError::PermissionDenied(m) if m.contains("cluster")),
                "{door}: {err}"
            );
        } else {
            let want: Vec<Row> = admin
                .iter()
                .filter(|(ids, _)| ids.iter().all(|id| readable(id, through_author)))
                .cloned()
                .collect();
            assert!(!want.is_empty() && want.len() < admin.len(), "{door}");
            assert_eq!(analyst.unwrap(), want, "{door}: analyst");
        }
        let err = ask(&rig, "u-stranger", door).unwrap_err();
        assert!(matches!(err, TvError::PermissionDenied(_)), "{door}: {err}");
    }
    // Every refusal is counted as one.
    let snap = rig.server.metrics_json();
    let tenant = snap.get("t").unwrap();
    assert_eq!(tenant.get("denied").unwrap().as_u64(), Some(9));
}
