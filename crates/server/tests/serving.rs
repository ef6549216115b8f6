//! End-to-end serving-layer tests: concurrent tenants driving GSQL vector
//! queries and direct top-ks through the full session → admission (where
//! waiting top-ks coalesce) → executor → merge pipeline, with rbac
//! enforcement and per-tenant metrics.

use std::sync::Arc;
use std::time::Duration;
use tg_graph::{AccessControl, Graph, Role};
use tg_storage::{AttrType, AttrValue};
use tv_cluster::{ClusterRuntime, MigrationPlan, RuntimeConfig};
use tv_common::ids::{LocalId, SegmentLayout};
use tv_common::inject::{Action, Point};
use tv_common::{
    Deadline, DistanceMetric, RetryPolicy, SegmentId, SplitMix64, Tid, TvError, VertexId,
};
use tv_embedding::{EmbeddingSegment, EmbeddingTypeDef, ServiceConfig, TypedNeighbor};
use tv_gsql::{Params, Value};
use tv_hnsw::DeltaRecord;
use tv_server::{AdmissionConfig, Server, ServerConfig, Session};

const DIM: usize = 4;
const DOCS: usize = 24;

/// Docs with a public/secret classification and an embedding, three
/// segments' worth, plus an ACL with unrestricted readers, a row-restricted
/// analyst, and nothing for everyone else.
fn serving_fixture() -> (Arc<Graph>, Arc<AccessControl>, Vec<VertexId>, Vec<Vec<f32>>) {
    let graph = Graph::with_config(
        SegmentLayout::with_capacity(8),
        ServiceConfig {
            planner: tv_common::PlannerConfig::default().with_brute_threshold(4),
            query_threads: 2,
            default_ef: 32,
        },
    );
    graph
        .create_vertex_type("Doc", &[("classification", AttrType::Str)])
        .unwrap();
    graph
        .add_embedding_attribute(
            "Doc",
            EmbeddingTypeDef::new("emb", DIM, "M", DistanceMetric::L2),
        )
        .unwrap();
    let ids = graph.allocate_many(0, DOCS).unwrap();
    let mut rng = SplitMix64::new(7);
    let mut vecs = Vec::new();
    let mut txn = graph.txn();
    for (i, &id) in ids.iter().enumerate() {
        let v: Vec<f32> = (0..DIM).map(|_| rng.next_f32() * 10.0).collect();
        let class = if i % 2 == 0 { "public" } else { "secret" };
        txn = txn
            .upsert_vertex(0, id, vec![AttrValue::Str(class.into())])
            .set_vector(0, id, v.clone());
        vecs.push(v);
    }
    txn.commit().unwrap();

    let acl = AccessControl::new();
    acl.define_role("reader", Role::default().allow_type(0));
    acl.define_role(
        "public-only",
        Role::default().allow_rows(0, "classification", AttrValue::Str("public".into())),
    );
    for user in ["u-acme", "u-globex", "u-initech", "u-umbrella"] {
        acl.assign(user, "reader").unwrap();
    }
    acl.assign("u-restricted", "public-only").unwrap();
    (Arc::new(graph), Arc::new(acl), ids, vecs)
}

fn topk_params(qv: &[f32]) -> Params {
    let mut p = Params::new();
    p.insert("qv".into(), Value::Vector(qv.to_vec()));
    p
}

const TOPK_SRC: &str = "SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 3";

#[test]
fn four_tenants_admission_rbac_and_metrics_end_to_end() {
    let (graph, acl, _ids, vecs) = serving_fixture();
    let server = Arc::new(Server::new(
        Arc::clone(&graph),
        Arc::clone(&acl),
        ServerConfig {
            admission: AdmissionConfig {
                executor_permits: 1,
                queue_capacity: 4,
                rate_limit: None,
            },
            max_batch: 8,
            ..ServerConfig::default()
        },
    ));
    let tenants = [
        ("acme", "u-acme"),
        ("globex", "u-globex"),
        ("initech", "u-initech"),
        ("umbrella", "u-umbrella"),
    ];

    // --- Phase A: burst beyond the queue bound, deterministically. -------
    // Occupy the only executor permit so every arrival must queue, then
    // fill the queue with acme requests...
    let (gate, _) = server.admission().admit("gate", Deadline::none()).unwrap();
    let fillers: Vec<_> = (0..4)
        .map(|_| {
            let server = Arc::clone(&server);
            let qv = vecs[0].clone();
            std::thread::spawn(move || {
                let session = server.open_session("acme", "u-acme");
                server.query(&session, TOPK_SRC, &topk_params(&qv))
            })
        })
        .collect();
    while server.admission().queue_depth() < 4 {
        std::thread::yield_now();
    }
    // ...so a burst from the other tenants is shed with Overloaded.
    let mut rejections = 0;
    for (tenant, user) in &tenants[1..] {
        let session = server.open_session(tenant, user);
        match server.query(&session, TOPK_SRC, &topk_params(&vecs[1])) {
            Err(TvError::Overloaded(_)) => rejections += 1,
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
    assert_eq!(rejections, 3, "queue bound must shed the burst");
    drop(gate);
    for filler in fillers {
        let rows = filler.join().unwrap().unwrap();
        assert_eq!(rows.rows().len(), 3);
    }

    // --- Phase B: 4 tenants querying concurrently, all succeeding. ------
    let solo: Vec<_> = (0..tenants.len())
        .map(|i| tv_gsql::execute(&graph, TOPK_SRC, &topk_params(&vecs[i + 2])).unwrap())
        .collect();
    let handles: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(i, &(tenant, user))| {
            let server = Arc::clone(&server);
            let qv = vecs[i + 2].clone();
            std::thread::spawn(move || {
                let session = server.open_session(tenant, user);
                let mut outputs = Vec::new();
                for _ in 0..4 {
                    outputs.push(server.query(&session, TOPK_SRC, &topk_params(&qv)).unwrap());
                }
                server.close_session(&session);
                outputs
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        for out in h.join().unwrap() {
            // Concurrency never changes answers.
            assert_eq!(out.rows(), solo[i].rows());
        }
    }

    // --- Phase C: rbac denial for an unauthorized tenant. ----------------
    let mallory = server.open_session("mallory", "u-mallory");
    let err = server
        .query(&mallory, TOPK_SRC, &topk_params(&vecs[0]))
        .unwrap_err();
    assert!(matches!(err, TvError::PermissionDenied(_)));

    // Row-restricted tenant only ever sees public docs.
    let restricted = server.open_session("shady", "u-restricted");
    let hits = server
        .vector_top_k(&restricted, &[0], vecs[1].clone(), 5)
        .unwrap();
    assert!(!hits.is_empty());
    for hit in &hits {
        let i = _ids.iter().position(|&x| x == hit.neighbor.id).unwrap();
        assert_eq!(i % 2, 0, "doc {i} is secret but u-restricted saw it");
    }

    // --- Phase D: an already-expired session deadline times out. ---------
    let hurried = server
        .open_session("acme", "u-acme")
        .with_deadline(Duration::ZERO);
    let err = server
        .query(&hurried, TOPK_SRC, &topk_params(&vecs[0]))
        .unwrap_err();
    assert!(matches!(err, TvError::Timeout(_)));

    // --- Metrics: every counter the pipeline touched is populated. -------
    let snap = server.metrics_json();
    let acme = snap.get("acme").unwrap();
    assert!(acme.get("admitted").unwrap().as_u64().unwrap() > 0);
    assert!(acme.get("completed").unwrap().as_u64().unwrap() > 0);
    assert!(
        acme.get("latency_p99_ms").unwrap().as_f64().unwrap() > 0.0,
        "p99 must be non-zero once latencies are recorded"
    );
    assert!(
        acme.get("max_queue_depth").unwrap().as_u64().unwrap() >= 1,
        "the phase-A acme request observed queue depth 1"
    );
    assert!(acme.get("timeouts").unwrap().as_u64().unwrap() >= 1);
    for (tenant, _) in &tenants[1..] {
        let t = snap.get(tenant).unwrap();
        assert!(
            t.get("rejected").unwrap().as_u64().unwrap() >= 1,
            "tenant {tenant} was shed during the burst"
        );
    }
    assert!(
        snap.get("mallory")
            .unwrap()
            .get("denied")
            .unwrap()
            .as_u64()
            .unwrap()
            >= 1
    );
    // Phase B closed its 4 sessions; A/C/D left 4 + 3 + 2 + 1 open.
    assert_eq!(server.active_sessions(), 10);
}

/// A small replicated cluster the server can scatter into, loaded with
/// deterministic vectors.
fn serving_cluster(degraded_mode: bool) -> (Arc<ClusterRuntime>, Vec<Vec<f32>>) {
    let runtime = ClusterRuntime::start(RuntimeConfig {
        servers: 4,
        replication: 2,
        planner: tv_common::PlannerConfig::default().with_brute_threshold(4),
        retry: RetryPolicy {
            max_retries: 2,
            attempt_timeout: Duration::from_millis(100),
            backoff: Duration::from_millis(1),
            hedge_after: None,
        },
        degraded_mode,
    });
    let def = EmbeddingTypeDef::new("e", DIM, "M", DistanceMetric::L2);
    let mut rng = SplitMix64::new(11);
    let mut vecs = Vec::new();
    let mut tid = 0u64;
    for s in 0..8u32 {
        let seg = Arc::new(EmbeddingSegment::new(SegmentId(s), &def, 256));
        let mut recs = Vec::new();
        for l in 0..20u32 {
            tid += 1;
            let v: Vec<f32> = (0..DIM).map(|_| rng.next_f32() * 5.0).collect();
            recs.push(DeltaRecord::upsert(
                VertexId::new(SegmentId(s), LocalId(l)),
                Tid(tid),
                v.clone(),
            ));
            vecs.push(v);
        }
        seg.append_deltas(&recs).unwrap();
        seg.delta_merge(Tid(tid)).unwrap();
        seg.index_merge(Tid(tid)).unwrap();
        runtime.add_segment(seg);
    }
    (Arc::new(runtime), vecs)
}

#[test]
fn cluster_topk_records_retries_and_coverage_in_tenant_metrics() {
    let (graph, acl, _ids, _vecs) = serving_fixture();
    let (cluster, vecs) = serving_cluster(false);
    let server =
        Server::new(graph, acl, ServerConfig::default()).with_cluster(Arc::clone(&cluster));
    let session = server.open_session("acme", "u-acme");

    // Healthy scatter: complete coverage, nothing retried.
    let healthy = server
        .cluster_top_k(&session, &vecs[3], 5, 64, Tid::MAX)
        .unwrap();
    assert!(healthy.coverage.is_complete());
    assert_eq!(healthy.neighbors.len(), 5);

    // One injected crash: the replica retry path answers bit-identically
    // and the tenant's counters record the recovery.
    cluster
        .injector()
        .arm(Point::WorkerRecv { server: 1 }, Action::Fail, 1, Some(1));
    let recovered = server
        .cluster_top_k(&session, &vecs[3], 5, 64, Tid::MAX)
        .unwrap();
    assert_eq!(
        healthy.neighbors, recovered.neighbors,
        "replica retry must not change the answer"
    );
    assert!(recovered.coverage.is_complete());
    assert!(recovered.retries > 0);

    let snap = server.metrics_json();
    let acme = snap.get("acme").unwrap();
    assert!(acme.get("cluster_retries").unwrap().as_u64().unwrap() > 0);
    assert_eq!(acme.get("degraded").unwrap().as_u64(), Some(0));
    assert_eq!(acme.get("completed").unwrap().as_u64(), Some(2));
}

#[test]
fn cluster_topk_degraded_answer_counts_against_the_tenant() {
    let (graph, acl, _ids, _vecs) = serving_fixture();
    let (cluster, vecs) = serving_cluster(true);
    // Take down a server AND its replica peer so two segments lose every
    // holder: with degraded mode on, the request still succeeds.
    cluster.fail_server(2);
    cluster.fail_server(3);
    let server =
        Server::new(graph, acl, ServerConfig::default()).with_cluster(Arc::clone(&cluster));
    let session = server.open_session("acme", "u-acme");
    let r = server
        .cluster_top_k(&session, &vecs[0], 5, 64, Tid::MAX)
        .unwrap();
    assert!(!r.coverage.is_complete());
    assert_eq!(r.coverage.segments_total, 8);
    assert!(!r.unsearched.is_empty());
    assert!(!r.neighbors.is_empty());

    let snap = server.metrics_json();
    let acme = snap.get("acme").unwrap();
    assert_eq!(acme.get("degraded").unwrap().as_u64(), Some(1));
    assert_eq!(acme.get("completed").unwrap().as_u64(), Some(1));
}

/// A server with one executor, so that holding it (a "gate" admission)
/// makes every direct top-k wait, and waiting top-ks coalesce.
fn one_permit_server(graph: &Arc<Graph>, acl: &Arc<AccessControl>) -> Arc<Server> {
    Arc::new(Server::new(
        Arc::clone(graph),
        Arc::clone(acl),
        ServerConfig {
            admission: AdmissionConfig {
                executor_permits: 1,
                queue_capacity: 16,
                rate_limit: None,
            },
            max_batch: 8,
            ..ServerConfig::default()
        },
    ))
}

type TopK = Result<Vec<TypedNeighbor>, TvError>;

fn spawn_top_k(
    server: &Arc<Server>,
    session: Session,
    qv: Vec<f32>,
) -> std::thread::JoinHandle<TopK> {
    let server = Arc::clone(server);
    std::thread::spawn(move || server.vector_top_k(&session, &[0], qv, 4))
}

/// Send one top-k (k = 4) per `(session, query)` from a thread each while the
/// only executor is held: the first queues a batch, the others join it. Returns once all of them wait, in order; the caller lets go of the
/// executor.
fn coalesced(
    server: &Arc<Server>,
    requests: Vec<(Session, Vec<f32>)>,
) -> Vec<std::thread::JoinHandle<TopK>> {
    let mut handles = Vec::new();
    for (i, (session, qv)) in requests.into_iter().enumerate() {
        handles.push(spawn_top_k(server, session, qv));
        while server.admission().waiting() < i + 1 || server.admission().queue_depth() < 1 {
            std::thread::yield_now();
        }
    }
    assert_eq!(server.admission().queue_depth(), 1, "one leader queues");
    handles
}

fn solo_top_k(graph: &Graph, qv: &[f32]) -> (Vec<TypedNeighbor>, tv_hnsw::SearchStats) {
    let ef = graph.embeddings().config().default_ef.max(4);
    graph
        .vector_search(&[0], qv, 4, ef, None, graph.read_tid())
        .unwrap()
}

/// `executor_permits: 0` is taken as one permit: a request with no
/// deadline used to wait for a permit that could never exist.
#[test]
fn zero_permit_server_still_answers() {
    let (graph, acl, _ids, vecs) = serving_fixture();
    let server = Arc::new(Server::new(
        Arc::clone(&graph),
        acl,
        ServerConfig {
            admission: AdmissionConfig {
                executor_permits: 0,
                queue_capacity: 4,
                rate_limit: None,
            },
            ..ServerConfig::default()
        },
    ));
    let session = server.open_session("acme", "u-acme");
    let handle = spawn_top_k(&server, session, vecs[0].clone());
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while !handle.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "a 0-permit server never answered"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let got = handle.join().unwrap().unwrap();
    assert_eq!(got, solo_top_k(&graph, &vecs[0]).0);
}

#[test]
fn batched_vector_topk_is_bit_identical_to_solo() {
    let (graph, acl, _ids, vecs) = serving_fixture();
    let server = one_permit_server(&graph, &acl);
    let n = 6;

    let (gate, _) = server.admission().admit("gate", Deadline::none()).unwrap();
    let requests = (0..n)
        .map(|i| (server.open_session("acme", "u-acme"), vecs[i].clone()))
        .collect();
    let handles = coalesced(&server, requests);
    drop(gate);
    for (i, h) in handles.into_iter().enumerate() {
        let batched = h.join().unwrap().unwrap();
        let (solo, _) = solo_top_k(&graph, &vecs[i]);
        assert_eq!(batched, solo, "batched result differs for query {i}");
    }

    // The point of the exercise: all six shared one fan-out.
    let snap = server.metrics_json();
    let acme = snap.get("acme").unwrap();
    let counter = |name: &str| acme.get(name).unwrap().as_u64().unwrap();
    assert_eq!(counter("fanouts"), 1);
    assert_eq!(counter("batched"), n as u64);
    assert_eq!(counter("max_batch_size"), n as u64);
    assert_eq!(counter("completed"), n as u64);
    assert_eq!(counter("max_queue_depth"), 1, "followers take no slot");
    assert!(acme.get("wait_p99_ms").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(server.admission().waiting(), 0);

    // With the executor free the same call runs alone, at once.
    let session = server.open_session("solo", "u-acme");
    let alone = server
        .vector_top_k(&session, &[0], vecs[0].clone(), 4)
        .unwrap();
    assert_eq!(alone, solo_top_k(&graph, &vecs[0]).0);
    let snap = server.metrics_json();
    let solo = snap.get("solo").unwrap();
    assert_eq!(solo.get("fanouts").unwrap().as_u64(), Some(1));
    assert_eq!(solo.get("batched").unwrap().as_u64(), Some(0));
    assert_eq!(solo.get("max_batch_size").unwrap().as_u64(), Some(0));
}

/// A batch used to run under its leader's deadline: a follower without one
/// was failed when a hurried leader expired, and a hurried follower was not
/// timed out at all.
#[test]
fn coalesced_members_keep_their_own_deadlines() {
    let (graph, acl, _ids, vecs) = serving_fixture();
    let server = one_permit_server(&graph, &acl);
    let timeouts = |tenant: &str| {
        let snap = server.metrics_json();
        let t = snap.get(tenant).unwrap();
        t.get("timeouts").unwrap().as_u64().unwrap()
    };
    let patient = || server.open_session("patient", "u-acme");
    let hurried = |ms| {
        server
            .open_session("hurried", "u-globex")
            .with_deadline(Duration::from_millis(ms))
    };

    // A hurried follower leaves on its own deadline while its batch is
    // still queued, and the patient leader's answer is untouched by it.
    let (gate, _) = server.admission().admit("gate", Deadline::none()).unwrap();
    let requests = vec![(patient(), vecs[0].clone()), (hurried(1), vecs[1].clone())];
    let mut handles = coalesced(&server, requests);
    let late = handles.pop().unwrap().join().unwrap();
    assert!(matches!(late, Err(TvError::Timeout(_))), "{late:?}");
    assert_eq!(timeouts("hurried"), 1);
    drop(gate);
    let led = handles.pop().unwrap().join().unwrap().unwrap();
    assert_eq!(led, solo_top_k(&graph, &vecs[0]).0);

    // A hurried first member times out in the queue; the patient member
    // behind it keeps the batch's place and is answered. (Should the first
    // expire before the second has joined — its 40 ms say it will not —
    // the second queues a batch of its own: same outcome.)
    let (gate, _) = server.admission().admit("gate", Deadline::none()).unwrap();
    let leader = spawn_top_k(&server, hurried(40), vecs[2].clone());
    while server.admission().waiting() < 1 && !leader.is_finished() {
        std::thread::yield_now();
    }
    let follower = spawn_top_k(&server, patient(), vecs[3].clone());
    let late = leader.join().unwrap();
    assert!(matches!(late, Err(TvError::Timeout(_))), "{late:?}");
    assert_eq!(timeouts("hurried"), 2);
    while server.admission().queue_depth() < 1 {
        std::thread::yield_now();
    }
    drop(gate);
    assert_eq!(
        follower.join().unwrap().unwrap(),
        solo_top_k(&graph, &vecs[3]).0
    );
    assert_eq!(timeouts("patient"), 0);
    assert_eq!(server.admission().waiting(), 0);
}

/// A batch whose first member timed out used to be abandoned: the patient
/// member behind it queued again at the back, behind a GSQL query that had
/// arrived after it.
#[test]
fn a_batch_keeps_its_queue_place_when_a_member_leaves() {
    let (graph, acl, _ids, vecs) = serving_fixture();
    let server = one_permit_server(&graph, &acl);
    let (gate, _) = server.admission().admit("gate", Deadline::none()).unwrap();
    let hurried = server
        .open_session("hurried", "u-globex")
        .with_deadline(Duration::from_millis(300));
    let first = spawn_top_k(&server, hurried, vecs[0].clone());
    while server.admission().waiting() < 1 && !first.is_finished() {
        std::thread::yield_now();
    }
    let patient = server.open_session("patient", "u-acme");
    let second = spawn_top_k(&server, patient, vecs[1].clone());
    while server.admission().waiting() < 2 && !first.is_finished() {
        std::thread::yield_now();
    }
    let later = {
        let server = Arc::clone(&server);
        let session = server.open_session("later", "u-initech");
        let params = topk_params(&vecs[2]);
        std::thread::spawn(move || server.query(&session, TOPK_SRC, &params))
    };
    while server.admission().queue_depth() < 2 {
        std::thread::yield_now();
    }
    let late = first.join().unwrap();
    assert!(matches!(late, Err(TvError::Timeout(_))), "{late:?}");
    // Everyone left waiting holds a place before the executor frees.
    while server.admission().queue_depth() < 2 {
        std::thread::yield_now();
    }

    drop(gate);
    assert_eq!(
        second.join().unwrap().unwrap(),
        solo_top_k(&graph, &vecs[1]).0
    );
    later.join().unwrap().unwrap();
    let snap = server.metrics_json();
    let depth = |tenant: &str| {
        let t = snap.get(tenant).unwrap();
        t.get("max_queue_depth").unwrap().as_u64().unwrap()
    };
    // The patient member ran its batch from the place the batch took
    // first, ahead of the later query.
    assert_eq!(depth("patient"), 1);
    assert_eq!(depth("later"), 2);
    assert_eq!(server.admission().waiting(), 0);
}

/// Sixteen clients on one executor, a queue of four and batches of four:
/// top-ks of two batch keys and GSQL queries, half of them with a deadline
/// of 1–5 ms, while a gate request keeps taking the executor for 2 ms at a
/// time so that requests queue, coalesce and expire. Every call ends in its
/// solo answer, `Timeout` or `Overloaded`; none hangs, and the queue
/// drains.
#[test]
fn sixteen_clients_on_one_executor_end_in_an_answer_a_timeout_or_a_refusal() {
    const CLIENTS: u64 = 16;
    const CALLS: usize = 200;
    const KS: [usize; 2] = [3, 4];
    let (graph, acl, _ids, vecs) = serving_fixture();
    let server = Arc::new(Server::new(
        Arc::clone(&graph),
        acl,
        ServerConfig {
            admission: AdmissionConfig {
                executor_permits: 1,
                queue_capacity: 4,
                rate_limit: None,
            },
            max_batch: 4,
            ..ServerConfig::default()
        },
    ));
    // The solo answers, taken before any load.
    let tid = graph.read_tid();
    let ef = graph.embeddings().config().default_ef.max(4);
    let solo: Arc<Vec<[Vec<TypedNeighbor>; 2]>> = Arc::new(
        vecs.iter()
            .map(|qv| KS.map(|k| graph.vector_search(&[0], qv, k, ef, None, tid).unwrap().0))
            .collect(),
    );
    let idle = server.open_session("idle", "u-acme");
    let gsql: Arc<Vec<_>> = Arc::new(
        vecs.iter()
            .map(|qv| server.query(&idle, TOPK_SRC, &topk_params(qv)).unwrap())
            .collect(),
    );
    let vecs = Arc::new(vecs);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let gate = {
        let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if let Ok(held) = server.admission().admit("gate", Deadline::none()) {
                    std::thread::sleep(Duration::from_millis(2));
                    drop(held);
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    };
    let (done, finished) = std::sync::mpsc::channel();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (server, vecs, solo, gsql) = (
                Arc::clone(&server),
                Arc::clone(&vecs),
                Arc::clone(&solo),
                Arc::clone(&gsql),
            );
            let done = done.clone();
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(0x5EED + c);
                // Answered, timed out, refused.
                let mut tally = [0usize; 3];
                for _ in 0..CALLS {
                    let i = rng.next_below(DOCS as u64) as usize;
                    let kind = rng.next_below(3) as usize;
                    let mut session = server.open_session("load", "u-acme");
                    if rng.next_below(2) == 1 {
                        let ms = 1 + rng.next_below(5);
                        session = session.with_deadline(Duration::from_millis(ms));
                    }
                    let outcome = match kind {
                        0 | 1 => server
                            .vector_top_k(&session, &[0], vecs[i].clone(), KS[kind])
                            .map(|found| assert_eq!(found, solo[i][kind], "top-k {i}")),
                        _ => server
                            .query(&session, TOPK_SRC, &topk_params(&vecs[i]))
                            .map(|out| assert_eq!(out, gsql[i], "GSQL {i}")),
                    };
                    server.close_session(&session);
                    match outcome {
                        Ok(()) => tally[0] += 1,
                        Err(TvError::Timeout(_)) => tally[1] += 1,
                        Err(TvError::Overloaded(_)) => {
                            tally[2] += 1;
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(e) => panic!("client {c}: {e}"),
                    }
                }
                done.send(tally).unwrap();
            })
        })
        .collect();
    let mut total = [0usize; 3];
    for _ in 0..CLIENTS {
        let tally = finished
            .recv_timeout(Duration::from_secs(120))
            .expect("every client finishes: none hangs or fails");
        for (sum, n) in total.iter_mut().zip(tally) {
            *sum += n;
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for client in clients {
        client.join().unwrap();
    }
    gate.join().unwrap();
    assert_eq!(total.iter().sum::<usize>(), CLIENTS as usize * CALLS);
    assert!(total[0] > 0, "{total:?}");
    let admission = server.admission();
    assert_eq!((admission.queue_depth(), admission.waiting()), (0, 0));
}

/// The gateway used to tell a token-bucket refusal from a full queue by
/// matching "rate limit" in the error text.
#[test]
fn rate_limit_refusals_are_counted_apart_from_queue_rejections() {
    let (graph, acl, _ids, vecs) = serving_fixture();
    let server = Server::new(
        graph,
        acl,
        ServerConfig {
            admission: AdmissionConfig {
                executor_permits: 1,
                queue_capacity: 0,
                rate_limit: Some(tv_server::RateLimitConfig {
                    burst: 2.0,
                    per_sec: 0.001,
                }),
            },
            ..ServerConfig::default()
        },
    );
    let counters = |tenant: &str| {
        let snap = server.metrics_json();
        let t = snap.get(tenant).unwrap();
        ["rate_limited", "rejected", "completed"].map(|c| t.get(c).unwrap().as_u64().unwrap())
    };
    let noisy = server.open_session("noisy", "u-acme");
    server
        .vector_top_k(&noisy, &[0], vecs[0].clone(), 3)
        .unwrap();
    server
        .query(&noisy, TOPK_SRC, &topk_params(&vecs[0]))
        .unwrap();
    for _ in 0..2 {
        let err = server
            .vector_top_k(&noisy, &[0], vecs[0].clone(), 3)
            .unwrap_err();
        assert!(matches!(err, TvError::Overloaded(_)));
        let err = server
            .query(&noisy, TOPK_SRC, &topk_params(&vecs[0]))
            .unwrap_err();
        assert!(matches!(err, TvError::Overloaded(_)));
    }
    assert_eq!(counters("noisy"), [4, 0, 2]);

    // A full queue (no slots at all, the executor held) is `rejected`, for
    // the queued GSQL path and for a top-k leader alike.
    let (gate, _) = server.admission().admit("gate", Deadline::none()).unwrap();
    let quiet = server.open_session("quiet", "u-globex");
    let err = server
        .vector_top_k(&quiet, &[0], vecs[1].clone(), 3)
        .unwrap_err();
    assert!(matches!(err, TvError::Overloaded(_)));
    let err = server
        .query(&quiet, TOPK_SRC, &topk_params(&vecs[1]))
        .unwrap_err();
    assert!(matches!(err, TvError::Overloaded(_)));
    drop(gate);
    assert_eq!(counters("quiet"), [0, 2, 0]);
    assert_eq!(server.admission().waiting(), 0);
}

/// A batch's planner counters used to be billed to its leader's tenant.
#[test]
fn coalesced_tenants_are_each_billed_their_own_plans() {
    let (graph, acl, _ids, vecs) = serving_fixture();
    // The planner routes index searches only: fold the tail into indexes.
    let tid = graph.read_tid();
    graph.embeddings().delta_merge(0, tid).unwrap();
    graph.embeddings().index_merge(0, tid, 1).unwrap();
    let server = one_permit_server(&graph, &acl);
    let (gate, _) = server.admission().admit("gate", Deadline::none()).unwrap();
    let requests = vec![
        (server.open_session("acme", "u-acme"), vecs[0].clone()),
        (server.open_session("globex", "u-globex"), vecs[1].clone()),
    ];
    let handles = coalesced(&server, requests);
    drop(gate);
    for h in handles {
        h.join().unwrap().unwrap();
    }
    let snap = server.metrics_json();
    for (tenant, qv) in [("acme", &vecs[0]), ("globex", &vecs[1])] {
        let (_, solo) = solo_top_k(&graph, qv);
        assert!(solo.plans_total() > 0);
        let t = snap.get(tenant).unwrap();
        let counter = |name: &str| t.get(name).unwrap().as_u64().unwrap();
        assert_eq!(counter("batched"), 1, "{tenant} ran in the batch");
        let billed = [
            counter("plans_brute"),
            counter("plans_in_traversal"),
            counter("plans_post_filter"),
            counter("plan_ef_escalations"),
            counter("plan_brute_fallbacks"),
        ];
        let own = [
            solo.plans_brute,
            solo.plans_in_traversal,
            solo.plans_post_filter,
            solo.ef_escalations,
            solo.brute_fallbacks,
        ];
        assert_eq!(billed, own, "{tenant} is billed for its own searches");
    }
}

/// The serving layer can checkpoint a durable graph online; queries before
/// and after see identical state, the durability metrics record the
/// checkpoint, and a recovered server serves the same answers.
#[test]
fn server_checkpoint_and_recovery_serving_continuity() {
    let dir = std::env::temp_dir().join(format!("tv-serve-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let layout = SegmentLayout::with_capacity(8);
    let cfg = ServiceConfig {
        planner: tv_common::PlannerConfig::default().with_brute_threshold(1024), // exact search → comparable results
        query_threads: 1,
        default_ef: 32,
    };
    let setup = |g: &Graph| {
        g.create_vertex_type("Doc", &[("classification", AttrType::Str)])
            .unwrap();
        g.add_embedding_attribute(
            "Doc",
            EmbeddingTypeDef::new("emb", DIM, "M", DistanceMetric::L2),
        )
        .unwrap();
    };
    let acl = Arc::new(AccessControl::new());
    acl.define_role("reader", Role::default().allow_type(0));
    acl.assign("u", "reader").unwrap();

    let mut rng = SplitMix64::new(41);
    let vecs: Vec<Vec<f32>> = (0..DOCS)
        .map(|_| (0..DIM).map(|_| rng.next_f32() * 10.0).collect())
        .collect();
    let before;
    {
        let graph = Graph::durable(&dir, layout, cfg).unwrap();
        setup(&graph);
        let ids = graph.allocate_many(0, DOCS).unwrap();
        let mut txn = graph.txn();
        for (i, &id) in ids.iter().enumerate() {
            txn = txn
                .upsert_vertex(0, id, vec![AttrValue::Str("public".into())])
                .set_vector(0, id, vecs[i].clone());
        }
        txn.commit().unwrap();
        let graph = Arc::new(graph);
        let server = Server::new(
            Arc::clone(&graph),
            Arc::clone(&acl),
            ServerConfig::default(),
        );
        let session = server.open_session("acme", "u");
        before = server
            .vector_top_k(&session, &[0], vecs[3].clone(), 3)
            .unwrap();
        let info = server.checkpoint().unwrap();
        assert!(info.files > 0);
        assert_eq!(info.wal_records_kept, 0);
        // Serving continues after the checkpoint with identical answers.
        let after = server
            .vector_top_k(&session, &[0], vecs[3].clone(), 3)
            .unwrap();
        assert_eq!(after, before);
        let snap = server.metrics_json();
        let dur = snap.get("__durability__").unwrap();
        assert_eq!(dur.get("checkpoints").unwrap().as_u64(), Some(1));
        assert_eq!(dur.get("last_checkpoint_tid").unwrap().as_u64(), Some(1));
        // Neither serving nor the checkpoint folds the graph store: every
        // upsert is still a pending delta, and the gauge says so.
        let tail = dur.get("graph_store_tail").unwrap().as_u64();
        assert_eq!(tail, Some(DOCS as u64));
    }
    // A fresh process recovers from the checkpoint and serves the same
    // results.
    let graph = Graph::durable(&dir, layout, cfg).unwrap();
    setup(&graph);
    let report = graph.recover().unwrap();
    assert_eq!(report.checkpoint, Some(Tid(1)));
    assert_eq!(report.replayed, 0);
    let server = Server::new(Arc::new(graph), acl, ServerConfig::default());
    let session = server.open_session("acme", "u");
    let recovered = server
        .vector_top_k(&session, &[0], vecs[3].clone(), 3)
        .unwrap();
    assert_eq!(recovered, before);
    // An in-memory graph cannot checkpoint; the failure is counted.
    let mem = Arc::new(Graph::new());
    let mem_server = Server::new(mem, Arc::new(AccessControl::new()), ServerConfig::default());
    assert!(mem_server.checkpoint().is_err());
    let metrics = mem_server.metrics_json();
    let failures = metrics
        .get("__durability__")
        .unwrap()
        .get("checkpoint_failures");
    assert_eq!(failures.unwrap().as_u64(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `__durability__.last_checkpoint_bytes` is what the checkpoint wrote:
/// the payloads of its data files and manifest, read back from the
/// directory (each durafile container is a 28-byte header, then the
/// payload).
#[test]
fn last_checkpoint_bytes_is_the_sum_of_the_checkpoint_payloads() {
    const HEADER: u64 = 28;
    let dir = std::env::temp_dir().join(format!("tv-serve-ckpt-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let graph = Graph::durable(
        &dir,
        SegmentLayout::with_capacity(8),
        ServiceConfig::default(),
    )
    .unwrap();
    graph
        .create_vertex_type("Doc", &[("classification", AttrType::Str)])
        .unwrap();
    graph
        .add_embedding_attribute(
            "Doc",
            EmbeddingTypeDef::new("emb", DIM, "M", DistanceMetric::L2),
        )
        .unwrap();
    let ids = graph.allocate_many(0, DOCS).unwrap();
    let mut rng = SplitMix64::new(43);
    let mut txn = graph.txn();
    for &id in &ids {
        let v: Vec<f32> = (0..DIM).map(|_| rng.next_f32()).collect();
        txn = txn
            .upsert_vertex(0, id, vec![AttrValue::Str("public".into())])
            .set_vector(0, id, v);
    }
    txn.commit().unwrap();
    let server = Server::new(
        Arc::new(graph),
        Arc::new(AccessControl::new()),
        ServerConfig::default(),
    );
    let info = server.checkpoint().unwrap();
    let ckpt = dir
        .join("checkpoints")
        .join(format!("ckpt-{:020}", info.tid.0));
    let on_disk: u64 = std::fs::read_dir(&ckpt)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len() - HEADER)
        .sum();
    let files = std::fs::read_dir(&ckpt).unwrap().count();
    assert_eq!(files, info.files + 1, "data files and the manifest");
    let metrics = server.metrics_json();
    let reported = metrics
        .get("__durability__")
        .unwrap()
        .get("last_checkpoint_bytes")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(reported > 0);
    assert_eq!(reported, on_disk);
    assert_eq!(info.bytes, on_disk);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn migrate_segment_is_admin_triggered_and_lands_in_cluster_metrics() {
    let (graph, acl, _ids, _vecs) = serving_fixture();
    let (cluster, cvecs) = serving_cluster(false);
    let server =
        Server::new(graph, acl, ServerConfig::default()).with_cluster(Arc::clone(&cluster));
    let session = server.open_session("acme", "u-acme");
    let staging = std::env::temp_dir().join(format!("tv-migrate-serving-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&staging);

    let before = server
        .cluster_top_k(&session, &cvecs[3], 5, 64, Tid::MAX)
        .unwrap();
    assert!(before.coverage.is_complete());

    // Admin-trigger a legal move: any holder of segment 0 to any
    // non-holder.
    let table = cluster.placement();
    let seg = SegmentId(0);
    let from = table.holders(seg)[0];
    let to = (0..4).find(|s| !table.holds(seg, *s)).unwrap();
    let report = server
        .migrate_segment(
            MigrationPlan {
                segment: seg,
                from,
                to,
            },
            &staging,
        )
        .unwrap();
    assert!(!report.already_complete);
    assert!(report.shipped_bytes > 0);
    assert_eq!(report.generation, cluster.generation());
    assert!(report.generation > 0);

    // Serving continues across the flip with identical answers.
    let after = server
        .cluster_top_k(&session, &cvecs[3], 5, 64, Tid::MAX)
        .unwrap();
    assert!(after.coverage.is_complete());
    assert_eq!(before.neighbors, after.neighbors);

    // An illegal plan (destination already holds the segment) aborts
    // cleanly and is recorded alongside the completion.
    let bad_to = cluster.placement().holders(seg)[0];
    let err = server
        .migrate_segment(
            MigrationPlan {
                segment: seg,
                from: bad_to,
                to: bad_to,
            },
            &staging,
        )
        .unwrap_err();
    assert!(matches!(err, TvError::InvalidArgument(_)), "{err}");

    let snap = server.metrics_json();
    let cm = snap.get("__cluster__").unwrap();
    assert_eq!(cm.get("migrations_completed").unwrap().as_u64(), Some(1));
    assert_eq!(cm.get("migrations_aborted").unwrap().as_u64(), Some(1));
    assert!(cm.get("shipped_bytes").unwrap().as_u64().unwrap() > 0);
    assert_eq!(
        cm.get("placement_generation").unwrap().as_u64(),
        Some(report.generation)
    );
    assert!(cm.get("last_error").unwrap().as_str().is_some());
    let _ = std::fs::remove_dir_all(&staging);
}

#[test]
fn migrating_a_graph_owned_segment_is_refused_and_cluster_reads_stay_fresh() {
    // Wired as the benchmark rig wires it: the runtime serves the graph's
    // own segment instances. A moved copy would never see a graph commit.
    let (graph, acl, ids, _vecs) = serving_fixture();
    let cluster = Arc::new(ClusterRuntime::start(RuntimeConfig {
        servers: 2,
        ..RuntimeConfig::default()
    }));
    for seg in graph.embeddings().attr(0).unwrap().all_segments() {
        cluster.add_segment(seg);
    }
    let server = Server::new(Arc::clone(&graph), acl, ServerConfig::default())
        .with_cluster(Arc::clone(&cluster));
    let session = server.open_session("acme", "u-acme");
    let staging = std::env::temp_dir().join(format!("tv-migrate-owned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&staging);

    let seg = SegmentId(0);
    let from = cluster.placement().holders(seg)[0];
    let plan = MigrationPlan {
        segment: seg,
        from,
        to: 1 - from,
    };
    let err = server.migrate_segment(plan, &staging).unwrap_err();
    assert!(matches!(err, TvError::InvalidArgument(_)), "{err}");
    assert_eq!(cluster.generation(), 0, "nothing flipped");
    assert!(!staging.exists(), "nothing shipped");
    let snap = server.metrics_json();
    let cm = snap.get("__cluster__").unwrap();
    assert_eq!(cm.get("migrations_aborted").unwrap().as_u64(), Some(1));
    assert_eq!(cm.get("migrations_completed").unwrap().as_u64(), Some(0));

    // A commit after the refused move reaches both doors.
    let target = vec![500.0f32; DIM];
    graph
        .txn()
        .set_vector(0, ids[1], target.clone())
        .commit()
        .unwrap();
    let direct = server
        .vector_top_k(&session, &[0], target.clone(), 1)
        .unwrap();
    assert_eq!(direct[0].neighbor.id, ids[1]);
    assert_eq!(direct[0].neighbor.dist, 0.0);
    let scattered = server
        .cluster_top_k(&session, &target, 1, 64, Tid::MAX)
        .unwrap();
    assert_eq!(scattered.neighbors[0].id, ids[1]);
    assert_eq!(scattered.neighbors[0].dist, 0.0);
    let _ = std::fs::remove_dir_all(&staging);
}

#[test]
fn non_finite_query_vectors_are_refused_at_every_door() {
    let (graph, acl, _ids, vecs) = serving_fixture();
    let (cluster, _) = serving_cluster(false);
    let server = Server::new(graph, acl, ServerConfig::default()).with_cluster(cluster);
    let refused = |r: Result<(), TvError>| {
        let err = r.unwrap_err();
        assert!(
            matches!(&err, TvError::InvalidArgument(m) if m.contains("component 1")),
            "{err}"
        );
    };
    for user in ["u-acme", "u-restricted"] {
        let session = server.open_session("acme", user);
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut q = vecs[3].clone();
            q[1] = poison;
            refused(
                server
                    .vector_top_k(&session, &[0], q.clone(), 3)
                    .map(|_| ()),
            );
            refused(
                server
                    .query(
                        &session,
                        "SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 3",
                        &topk_params(&q),
                    )
                    .map(|_| ()),
            );
            refused(
                server
                    .cluster_top_k(&session, &q, 3, 32, Tid::MAX)
                    .map(|_| ()),
            );
        }
    }
    // Refusals are failed requests, not dropped ones.
    let snap = server.metrics_json();
    let acme = snap.get("acme").unwrap();
    assert_eq!(acme.get("completed").unwrap().as_u64(), Some(0));
}

#[test]
fn metrics_json_reports_the_query_pool() {
    let (graph, acl, _ids, vecs) = serving_fixture();
    let server = Server::new(graph, acl, ServerConfig::default());
    let session = server.open_session("acme", "u-acme");
    for q in &vecs {
        server.vector_top_k(&session, &[0], q.clone(), 3).unwrap();
    }
    let snap = server.metrics_json();
    let pool = snap.get("__pool__").unwrap();
    let count = |key: &str| pool.get(key).unwrap().as_u64().unwrap();
    assert_eq!(
        count("width"),
        server.graph().embeddings().pool().width() as u64
    );
    // One batch a query, wherever it ran (the pool is the process's: other
    // tests' batches are counted with this one's).
    assert!(count("runs_inline") + count("runs_fanned") >= vecs.len() as u64);
    assert!(pool.get("busy_lanes").unwrap().as_u64().is_some());
    assert!(count("helper_jobs_unclaimed") <= count("runs_fanned") * count("width"));
    assert!(pool.get("handoff_us").unwrap().as_f64().unwrap() >= 0.0);
    assert!(pool.get("task_us").unwrap().as_f64().unwrap() > 0.0);
}

/// The exact key set of every block of `Server::metrics_json()` and the JSON
/// type of each value (`u` unsigned integer, `f` float, `n` null): the
/// benchmark and the docs read these names, so none may be dropped, renamed
/// or retyped by accident.
#[test]
fn metrics_json_blocks_have_exactly_these_keys() {
    const U: char = 'u';
    const F: char = 'f';
    let table: [(&str, &[(&str, char)]); 4] = [
        (
            "__cluster__",
            &[
                ("catchup_records", U),
                ("last_error", 'n'),
                ("last_flip_pause_us", U),
                ("migration_errors", U),
                ("migrations_aborted", U),
                ("migrations_completed", U),
                ("placement_generation", U),
                ("shipped_bytes", U),
            ],
        ),
        (
            "__durability__",
            &[
                ("checkpoint_failures", U),
                ("checkpoint_mean_ms", F),
                ("checkpoints", U),
                ("graph_store_tail", U),
                ("last_checkpoint_bytes", U),
                ("last_checkpoint_files", U),
                ("last_checkpoint_tid", U),
                ("wal_records_kept", U),
            ],
        ),
        (
            "__pool__",
            &[
                ("busy_lanes", U),
                ("handoff_us", F),
                ("helper_jobs_unclaimed", U),
                ("runs_fanned", U),
                ("runs_inline", U),
                ("task_us", F),
                ("width", U),
            ],
        ),
        (
            "acme",
            &[
                ("admitted", U),
                ("batched", U),
                ("cluster_hedges", U),
                ("cluster_retries", U),
                ("completed", U),
                ("degraded", U),
                ("denied", U),
                ("fanouts", U),
                ("latency_count", U),
                ("latency_max_ms", F),
                ("latency_mean_ms", F),
                ("latency_p50_ms", F),
                ("latency_p95_ms", F),
                ("latency_p99_ms", F),
                ("max_batch_size", U),
                ("max_queue_depth", U),
                ("plan_brute_fallbacks", U),
                ("plan_ef_escalations", U),
                ("plans_brute", U),
                ("plans_in_traversal", U),
                ("plans_post_filter", U),
                ("rate_limited", U),
                ("rejected", U),
                ("timeouts", U),
                ("wait_p50_ms", F),
                ("wait_p95_ms", F),
                ("wait_p99_ms", F),
            ],
        ),
    ];
    let (graph, acl, _ids, vecs) = serving_fixture();
    let server = Server::new(graph, acl, ServerConfig::default());
    let session = server.open_session("acme", "u-acme");
    server
        .vector_top_k(&session, &[0], vecs[0].clone(), 3)
        .unwrap();
    let snap = server.metrics_json();
    let kind = |v: &serde_json::Value| match v {
        serde_json::Value::Null => 'n',
        serde_json::Value::Number(serde_json::Number::Float(_)) => F,
        serde_json::Value::Number(_) => U,
        _ => '?',
    };
    let keys_of = |v: &serde_json::Value| -> Vec<(String, char)> {
        let block = v.as_object().unwrap();
        block.iter().map(|(k, v)| (k.clone(), kind(v))).collect()
    };
    let blocks: Vec<String> = keys_of(&snap).into_iter().map(|(k, _)| k).collect();
    assert_eq!(blocks, table.map(|(name, _)| name));
    for (name, want) in table {
        let want: Vec<(String, char)> = want.iter().map(|&(k, t)| (k.to_string(), t)).collect();
        assert_eq!(keys_of(snap.get(name).unwrap()), want, "{name}");
    }
}
