//! End-to-end integration: schema DDL → two-source loading → every query
//! form of §5 → transactional updates with MVCC visibility.

use std::collections::HashMap;
use tigervector::common::ids::SegmentLayout;
use tigervector::common::{Deadline, DistanceMetric, SplitMix64};
use tigervector::embedding::{EmbeddingTypeDef, ServiceConfig};
use tigervector::graph::Graph;
use tigervector::gsql::{execute, explain, Value};
use tigervector::hnsw::SearchStats;
use tigervector::storage::{AttrType, AttrValue};

fn social_graph() -> (Graph, Vec<tigervector::common::VertexId>, Vec<Vec<f32>>) {
    let g = Graph::with_config(
        SegmentLayout::with_capacity(32),
        ServiceConfig {
            planner: tv_common::PlannerConfig::default().with_brute_threshold(8),
            query_threads: 2,
            default_ef: 64,
        },
    );
    g.create_vertex_type("Person", &[("firstName", AttrType::Str)])
        .unwrap();
    g.create_vertex_type(
        "Post",
        &[("language", AttrType::Str), ("length", AttrType::Int)],
    )
    .unwrap();
    g.create_edge_type("knows", "Person", "Person").unwrap();
    g.create_edge_type("hasCreator", "Post", "Person").unwrap();
    g.add_embedding_attribute(
        "Post",
        EmbeddingTypeDef::new("content_emb", 8, "GPT4", DistanceMetric::L2),
    )
    .unwrap();

    let people = g.allocate_many(0, 10).unwrap();
    let posts = g.allocate_many(1, 100).unwrap();
    let mut rng = SplitMix64::new(404);
    let mut vecs = Vec::new();
    let mut txn = g.txn();
    for (i, &p) in people.iter().enumerate() {
        txn = txn.upsert_vertex(0, p, vec![AttrValue::Str(format!("name{i}"))]);
    }
    for i in 0..9 {
        txn = txn.add_edge(0, 0, people[i], people[i + 1]);
    }
    for (i, &m) in posts.iter().enumerate() {
        let v: Vec<f32> = (0..8).map(|_| rng.next_f32() * 20.0).collect();
        txn = txn
            .upsert_vertex(
                1,
                m,
                vec![
                    AttrValue::Str(if i % 3 == 0 { "English" } else { "Other" }.into()),
                    AttrValue::Int(i as i64 * 100),
                ],
            )
            .set_vector(0, m, v.clone())
            .add_edge(1, 1, m, people[i % 10]);
        vecs.push(v);
    }
    txn.commit().unwrap();
    (g, posts, vecs)
}

#[test]
fn all_five_query_forms_work() {
    let (g, posts, vecs) = social_graph();
    let mut params = HashMap::new();
    params.insert("qv".into(), Value::Vector(vecs[13].clone()));

    // 1. Pure top-k.
    let out = execute(
        &g,
        "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 5",
        &params,
    )
    .unwrap();
    assert_eq!(out.rows()[0].id, posts[13]);

    // 2. Range search.
    let out = execute(
        &g,
        "SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, $qv) < 1.0",
        &params,
    )
    .unwrap();
    assert!(out.rows().iter().any(|r| r.id == posts[13]));

    // 3. Filtered search.
    let out = execute(
        &g,
        "SELECT s FROM (s:Post) WHERE s.language = \"English\" \
         ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 10",
        &params,
    )
    .unwrap();
    assert_eq!(out.rows().len(), 10);
    for r in out.rows() {
        let idx = posts.iter().position(|&p| p == r.id).unwrap();
        assert_eq!(idx % 3, 0, "post {idx} is not English");
    }

    // 4. Vector search on a graph pattern.
    let out = execute(
        &g,
        "SELECT t FROM (s:Person) -[:knows]-> (:Person) <-[:hasCreator]- (t:Post) \
         WHERE s.firstName = \"name0\" \
         ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 20",
        &params,
    )
    .unwrap();
    // name0 knows name1; name1 created posts with i % 10 == 1.
    for r in out.rows() {
        let idx = posts.iter().position(|&p| p == r.id).unwrap();
        assert_eq!(idx % 10, 1);
    }

    // 5. Similarity join.
    let out = execute(
        &g,
        "SELECT s, t FROM (s:Post) -[:hasCreator]-> (u:Person) \
         -[:knows]-> (v:Person) <-[:hasCreator]- (t:Post) \
         ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 3",
        &params,
    )
    .unwrap();
    match out {
        tigervector::gsql::QueryOutput::Pairs(pairs) => {
            assert_eq!(pairs.len(), 3);
            assert!(pairs.windows(2).all(|w| w[0].2 <= w[1].2));
        }
        other => panic!("expected pairs, got {other:?}"),
    }
}

#[test]
fn explain_matches_paper_plan_shapes() {
    let (g, _, _) = social_graph();
    let plan = explain(
        &g,
        "SELECT s FROM (s:Post) WHERE s.language = \"English\" \
         ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 5",
    )
    .unwrap()
    .to_string();
    assert!(plan.contains("EmbeddingAction[Top 5"));
    assert!(plan.contains("VertexAction[Post:s"));
}

#[test]
fn updates_are_atomic_and_mvcc_visible() {
    let (g, posts, vecs) = social_graph();
    let mut params = HashMap::new();
    params.insert("qv".into(), Value::Vector(vecs[0].clone()));
    let q = "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 1";

    let before = g.read_tid();
    assert_eq!(execute(&g, q, &params).unwrap().rows()[0].id, posts[0]);

    // Move post 0 far away (attribute + vector in one transaction).
    g.txn()
        .set_attr(1, posts[0], 1, AttrValue::Int(-1))
        .set_vector(0, posts[0], vec![10_000.0; 8])
        .commit()
        .unwrap();

    // New reads see the update; a pinned read at `before` does not.
    assert_ne!(execute(&g, q, &params).unwrap().rows()[0].id, posts[0]);
    let out = tigervector::gsql::execute_at(&g, q, &params, before).unwrap();
    assert_eq!(out.rows()[0].id, posts[0]);
}

#[test]
fn vacuum_pipeline_preserves_query_results() {
    let (g, posts, vecs) = social_graph();
    let mut params = HashMap::new();
    params.insert("qv".into(), Value::Vector(vecs[42].clone()));
    let q = "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 5";
    let before: Vec<_> = execute(&g, q, &params).unwrap().rows().to_vec();

    // Run the full two-stage vacuum + prune.
    let tid = g.read_tid();
    let svc = g.embeddings();
    assert!(svc.delta_merge(0, tid).unwrap() > 0);
    assert!(svc.index_merge(0, tid, 2).unwrap() > 0);
    svc.prune(g.store().txn().vacuum_horizon());

    let after: Vec<_> = execute(&g, q, &params).unwrap().rows().to_vec();
    assert_eq!(
        before.iter().map(|r| r.id).collect::<Vec<_>>(),
        after.iter().map(|r| r.id).collect::<Vec<_>>()
    );
    let _ = posts;
}

#[test]
fn incompatible_multi_type_search_is_semantic_error() {
    let (g, _, _) = social_graph();
    // Person gets an incompatible embedding.
    g.add_embedding_attribute(
        "Person",
        EmbeddingTypeDef::new("bio_emb", 16, "BERT", DistanceMetric::Cosine),
    )
    .unwrap();
    let err = tigervector::gsql::vector_search(
        &g,
        &[("Post", "content_emb"), ("Person", "bio_emb")],
        &[0.0; 8],
        3,
        tigervector::gsql::VectorSearchOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        tigervector::common::TvError::IncompatibleEmbeddings(_)
    ));
}

/// NaN and ±∞ are refused at every door with a typed error naming the bad
/// component, and a commit carrying one bad vector applies nothing.
#[test]
fn non_finite_vectors_are_rejected_everywhere() {
    use tigervector::common::TvError;
    let (g, posts, vecs) = social_graph();
    let refused = |r: Result<(), TvError>, component: &str| {
        let err = r.unwrap_err();
        assert!(
            matches!(&err, TvError::InvalidArgument(m) if m.contains(component)),
            "{err}"
        );
    };
    let bad = |at: usize, with: f32| {
        let mut v = vecs[3].clone();
        v[at] = with;
        v
    };

    // Upsert: the good vector and the vertex riding in the same transaction
    // are not applied either, and no TID is spent.
    let tid = g.read_tid();
    let newcomer = g.allocate_many(1, 1).unwrap()[0];
    let commit = g
        .txn()
        .upsert_vertex(
            1,
            newcomer,
            vec![AttrValue::Str("English".into()), AttrValue::Int(0)],
        )
        .set_vector(0, posts[0], vec![1.0; 8])
        .set_vector(0, posts[1], bad(5, f32::NAN))
        .commit();
    refused(commit.map(|_| ()), "component 5");
    assert_eq!(g.read_tid(), tid);
    assert_eq!(
        g.embedding_of(0, posts[0], tid).unwrap(),
        Some(vecs[0].clone())
    );
    assert!(!g.is_live(1, newcomer, tid).unwrap());
    let emb = g.embeddings();

    // Queries: GSQL top-k and range through `$qv`, and the direct doors.
    let mut params = HashMap::new();
    params.insert("qv".into(), Value::Vector(bad(2, f32::INFINITY)));
    for text in [
        "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 5",
        "SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, $qv) < 10.0",
    ] {
        refused(execute(&g, text, &params).map(|_| ()), "component 2");
    }
    let tid = g.read_tid();
    let (none, mut stats) = (Deadline::none(), SearchStats::default());
    let q = bad(0, f32::NEG_INFINITY);
    refused(
        g.vector_search(&[0], &q, 5, 64, None, tid).map(|_| ()),
        "component 0",
    );
    refused(
        emb.range_search(&[0], &q, 10.0, 64, tid, None, none, &mut stats)
            .map(|_| ()),
        "component 0",
    );

    // A NaN range threshold compares false with every distance and is
    // refused too; +∞ stays legal and means "all".
    refused(
        emb.range_search(&[0], &vecs[3], f32::NAN, 64, tid, None, none, &mut stats)
            .map(|_| ()),
        "threshold",
    );
    let text = "SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, $qv) < $t";
    params.insert("qv".into(), Value::Vector(vecs[3].clone()));
    params.insert("t".into(), Value::Double(f64::NAN));
    refused(execute(&g, text, &params).map(|_| ()), "threshold");
    params.insert("t".into(), Value::Double(f64::INFINITY));
    assert!(!execute(&g, text, &params).unwrap().rows().is_empty());
}
