//! Paper-conformance suite: every query the paper prints (§5.1–§5.5,
//! Q1–Q4) runs against an LDBC-style schema with its published syntax and
//! semantics.

use std::collections::HashMap;
use tigervector::common::ids::SegmentLayout;
use tigervector::common::{DistanceMetric, SplitMix64, VertexId};
use tigervector::embedding::{EmbeddingSpace, IndexKind, ServiceConfig, VectorDataType};
use tigervector::graph::accum::MapAccum;
use tigervector::graph::{Direction, Graph, VertexSet};
use tigervector::gsql::{execute, vector_search, Value, VectorSearchOptions};
use tigervector::storage::{AttrType, AttrValue};

const DIM: usize = 8;

struct Snb {
    g: Graph,
    people: Vec<VertexId>,
    posts: Vec<VertexId>,
    comments: Vec<VertexId>,
    post_vecs: Vec<Vec<f32>>,
    comment_vecs: Vec<Vec<f32>>,
}

/// The paper's running schema: Person/Post/Comment/Country with knows,
/// hasCreator (per message type), LOCATED_IN; a `GPT4_emb_space` embedding
/// space shared by Post and Comment (§4.1, Fig. 2).
fn snb() -> Snb {
    let g = Graph::with_config(
        SegmentLayout::with_capacity(16),
        ServiceConfig {
            planner: tv_common::PlannerConfig::default().with_brute_threshold(4),
            query_threads: 1,
            default_ef: 64,
        },
    );
    g.create_vertex_type(
        "Person",
        &[("firstName", AttrType::Str), ("cid", AttrType::Int)],
    )
    .unwrap();
    g.create_vertex_type(
        "Post",
        &[("language", AttrType::Str), ("length", AttrType::Int)],
    )
    .unwrap();
    g.create_vertex_type("Comment", &[("length", AttrType::Int)])
        .unwrap();
    g.create_vertex_type("Country", &[("name", AttrType::Str)])
        .unwrap();
    g.create_edge_type("knows", "Person", "Person").unwrap();
    g.create_edge_type("hasCreator", "Post", "Person").unwrap();
    g.create_edge_type("commentHasCreator", "Comment", "Person")
        .unwrap();
    g.create_edge_type("LOCATED_IN", "Comment", "Country")
        .unwrap();

    // CREATE EMBEDDING SPACE GPT4_emb_space (...) + ADD ... IN EMBEDDING SPACE.
    g.create_embedding_space(EmbeddingSpace {
        name: "GPT4_emb_space".into(),
        dimension: DIM,
        model: "GPT4".into(),
        index: IndexKind::Hnsw,
        datatype: VectorDataType::Float,
        metric: DistanceMetric::L2,
        quant: tigervector::common::QuantSpec::f32(),
        layout: tigervector::common::GraphLayout::default(),
    })
    .unwrap();
    g.add_embedding_in_space("Post", "content_emb", "GPT4_emb_space")
        .unwrap();
    g.add_embedding_in_space("Comment", "content_emb", "GPT4_emb_space")
        .unwrap();

    let people = g.allocate_many(0, 6).unwrap();
    let posts = g.allocate_many(1, 24).unwrap();
    let comments = g.allocate_many(2, 24).unwrap();
    let countries = g.allocate_many(3, 2).unwrap();

    let mut rng = SplitMix64::new(8601);
    let mut post_vecs = Vec::new();
    let mut comment_vecs = Vec::new();
    let names = ["Alice", "Bob", "Carol", "Dave", "Eve", "Frank"];
    let mut txn = g.txn();
    for (i, &p) in people.iter().enumerate() {
        txn = txn.upsert_vertex(
            0,
            p,
            vec![AttrValue::Str(names[i].into()), AttrValue::Int(-1)],
        );
    }
    // Alice knows Bob & Carol; Bob knows Dave; Eve knows Frank.
    txn = txn
        .add_edge(0, 0, people[0], people[1])
        .add_edge(0, 0, people[0], people[2])
        .add_edge(0, 0, people[1], people[3])
        .add_edge(0, 0, people[4], people[5]);
    txn = txn
        .upsert_vertex(
            3,
            countries[0],
            vec![AttrValue::Str("United States".into())],
        )
        .upsert_vertex(3, countries[1], vec![AttrValue::Str("Japan".into())]);
    for (i, &m) in posts.iter().enumerate() {
        let v: Vec<f32> = (0..DIM).map(|_| rng.next_f32() * 10.0).collect();
        txn = txn
            .upsert_vertex(
                1,
                m,
                vec![
                    AttrValue::Str(if i % 2 == 0 { "English" } else { "Japanese" }.into()),
                    AttrValue::Int((i as i64) * 150),
                ],
            )
            .set_vector(0, m, v.clone())
            .add_edge(1, 1, m, people[i % 6]);
        post_vecs.push(v);
    }
    for (i, &c) in comments.iter().enumerate() {
        let v: Vec<f32> = (0..DIM).map(|_| rng.next_f32() * 10.0).collect();
        txn = txn
            .upsert_vertex(2, c, vec![AttrValue::Int((i as i64) * 100)])
            .set_vector(1, c, v.clone())
            .add_edge(2, 2, c, people[i % 6])
            // Even comments are in the US, odd in Japan.
            .add_edge(3, 2, c, countries[i % 2]);
        comment_vecs.push(v);
    }
    txn.commit().unwrap();
    Snb {
        g,
        people,
        posts,
        comments,
        post_vecs,
        comment_vecs,
    }
}

fn qv_params(v: &[f32]) -> HashMap<String, Value> {
    let mut p = HashMap::new();
    p.insert("query_vector".to_string(), Value::Vector(v.to_vec()));
    p
}

#[test]
fn section_5_1_topk() {
    let s = snb();
    let out = execute(
        &s.g,
        "SELECT s FROM (s:Post) \
         ORDER BY VECTOR_DIST(s.content_emb, $query_vector) LIMIT 3;",
        &qv_params(&s.post_vecs[5]),
    )
    .unwrap();
    assert_eq!(out.rows().len(), 3);
    assert_eq!(out.rows()[0].id, s.posts[5]);
}

#[test]
fn section_5_1_range() {
    let s = snb();
    let out = execute(
        &s.g,
        "SELECT s FROM (s:Post) \
         WHERE VECTOR_DIST(s.content_emb, $query_vector) < 0.001;",
        &qv_params(&s.post_vecs[5]),
    )
    .unwrap();
    assert_eq!(out.rows().len(), 1);
    assert_eq!(out.rows()[0].id, s.posts[5]);
}

#[test]
fn section_5_2_filtered() {
    let s = snb();
    let out = execute(
        &s.g,
        "SELECT s FROM (s:Post) WHERE s.language = \"English\" \
         ORDER BY VECTOR_DIST(s.content_emb, $query_vector) LIMIT 12;",
        &qv_params(&s.post_vecs[5]),
    )
    .unwrap();
    assert_eq!(out.rows().len(), 12); // exactly the English posts
    for r in out.rows() {
        let i = s.posts.iter().position(|&p| p == r.id).unwrap();
        assert_eq!(i % 2, 0);
    }
}

#[test]
fn section_5_3_pattern() {
    // "top-k long posts created by individuals connected to Alice".
    let s = snb();
    let out = execute(
        &s.g,
        "SELECT t FROM (s:Person) -[:knows]-> (:Person) <-[:hasCreator]- (t:Post) \
         WHERE s.firstName = \"Alice\" AND t.length > 1000 \
         ORDER BY VECTOR_DIST(t.content_emb, $query_vector) LIMIT 10;",
        &qv_params(&s.post_vecs[0]),
    )
    .unwrap();
    assert!(!out.rows().is_empty());
    for r in out.rows() {
        let i = s.posts.iter().position(|&p| p == r.id).unwrap();
        // Creator is Bob (i%6==1) or Carol (i%6==2), and length > 1000.
        assert!(i % 6 == 1 || i % 6 == 2, "post {i} not by Alice's friends");
        assert!((i as i64) * 150 > 1000, "post {i} too short");
    }
}

#[test]
fn section_5_4_similarity_join() {
    // "the most similar Comment pairs created by Alice and her friends".
    let s = snb();
    let out = execute(
        &s.g,
        "SELECT s, t FROM (s:Comment) -[:commentHasCreator]-> (u:Person) \
         -[:knows]-> (v:Person) <-[:commentHasCreator]- (t:Comment) \
         WHERE u.firstName = \"Alice\" \
         ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 4;",
        &HashMap::new(),
    )
    .unwrap();
    match out {
        tigervector::gsql::QueryOutput::Pairs(pairs) => {
            assert!(!pairs.is_empty());
            assert!(pairs.windows(2).all(|w| w[0].2 <= w[1].2));
            for (a, b, _) in &pairs {
                let ai = s.comments.iter().position(|&c| c == a.id).unwrap();
                let bi = s.comments.iter().position(|&c| c == b.id).unwrap();
                // s created by Alice (idx 0), t by Bob or Carol — in either
                // pair order (same-type pairs are canonicalized by id).
                let creators = (ai % 6, bi % 6);
                let ok = (creators.0 == 0 && (creators.1 == 1 || creators.1 == 2))
                    || (creators.1 == 0 && (creators.0 == 1 || creators.0 == 2));
                assert!(ok, "pair creators {creators:?}");
            }
        }
        other => panic!("expected pairs, got {other:?}"),
    }
}

#[test]
fn q1_multi_type_vector_search() {
    // Q1 (§5.5): "find the top-k comments or posts related to a topic".
    let s = snb();
    let topic = &s.comment_vecs[7];
    let set = vector_search(
        &s.g,
        &[("Comment", "content_emb"), ("Post", "content_emb")],
        topic,
        5,
        VectorSearchOptions::default(),
    )
    .unwrap();
    assert_eq!(set.len(), 5);
    assert!(set.contains(2, s.comments[7])); // exact match present
}

#[test]
fn q2_composition_topk_then_creators() {
    // Q2: VectorSearch → TopKMessages → 1-hop to Authors.
    let s = snb();
    let topk = vector_search(
        &s.g,
        &[("Comment", "content_emb"), ("Post", "content_emb")],
        &s.post_vecs[3],
        4,
        VectorSearchOptions::default(),
    )
    .unwrap();
    let tid = s.g.read_tid();
    // Expand each message type along its hasCreator edge.
    let mut authors = VertexSet::new();
    authors = authors.union(&s.g.expand(&topk, 1, Direction::Out, None, tid).unwrap());
    authors = authors.union(&s.g.expand(&topk, 2, Direction::Out, None, tid).unwrap());
    assert!(!authors.is_empty());
    // Every author must be the creator of one of the top-k messages.
    for (t, a) in authors.iter() {
        assert_eq!(t, 0);
        assert!(s.people.contains(&a));
    }
}

#[test]
fn q3_filter_composition_with_distance_map() {
    // Q3: US comments from a graph block, then filtered VectorSearch with
    // a @@disMap output accumulator.
    let s = snb();
    let tid = s.g.read_tid();
    // First query block: comments located in the United States.
    let us_comments = {
        let mut set = VertexSet::new();
        for (i, &c) in s.comments.iter().enumerate() {
            if i % 2 == 0 {
                set.insert(2, c);
            }
        }
        set
    };
    let mut dis_map = MapAccum::default();
    let topk = vector_search(
        &s.g,
        &[("Comment", "content_emb")],
        &s.comment_vecs[1], // nearest overall is a Japan comment — filtered out
        3,
        VectorSearchOptions {
            filter: Some(&us_comments),
            ef: Some(200),
            distance_map: Some(&mut dis_map),
            tid: Some(tid),
        },
    )
    .unwrap();
    assert_eq!(topk.len(), 3);
    assert_eq!(dis_map.len(), 3);
    for (_, c) in topk.iter() {
        let i = s.comments.iter().position(|&x| x == c).unwrap();
        assert_eq!(i % 2, 0, "comment {i} is not in the US");
    }
    // The distance map is sorted consistently with the distances.
    let sorted = dis_map.sorted_by_value();
    assert!(sorted.windows(2).all(|w| w[0].1 <= w[1].1));
}

#[test]
fn q4_louvain_plus_community_topk() {
    // Q4: tg_louvain over (Person, knows), then per-community top-k posts.
    let s = snb();
    let result = tigervector::gsql::community_topk(
        &s.g,
        "Person",
        "knows",
        "Post",
        "hasCreator",
        "content_emb",
        &s.post_vecs[0],
        2,
    )
    .unwrap();
    assert!(
        result.len() >= 2,
        "expected ≥2 communities, got {}",
        result.len()
    );
    // Every returned set has at most k members and only Post vertices.
    for set in result.values() {
        assert!(set.len() <= 2);
        assert_eq!(set.types(), vec![1]);
    }
}
