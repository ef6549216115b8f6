//! VectorGraphRAG (§1, §5.3): combine vector retrieval with graph expansion
//! to assemble LLM context — the paper's motivating application.
//!
//! Two retrieval strategies are demonstrated on an SNB-like social graph:
//! 1. **Merge**: vector search and graph search produce separate candidate
//!    sets that are merged (UNION) into one context set.
//! 2. **Expand**: vector search finds seed messages, graph traversal
//!    expands to their creators and the creators' other recent messages
//!    (the "use vector search first, then graph traversal to expand"
//!    pattern).
//!
//! The LLM call itself is mocked (we print the prompt); retrieval is real.
//!
//! Run with: `cargo run --release --example hybrid_rag`

use std::collections::HashMap;
use tigervector::datagen::{SnbConfig, SnbGraph};
use tigervector::graph::{Direction, VertexSet};
use tigervector::gsql::{execute_at, vector_search, Value, VectorSearchOptions};

fn main() {
    println!("generating SNB-like social graph...");
    let snb = SnbGraph::generate(SnbConfig {
        sf: 2,
        dim: 16,
        seed: 42,
        segment_capacity: 512,
        avg_knows: 12,
    })
    .unwrap();
    let g = &snb.graph;
    let tid = g.read_tid();
    println!(
        "  {} persons, {} messages\n",
        snb.persons.len(),
        snb.message_count()
    );

    // The user's question, embedded (same generator family as the data so
    // nearest neighbors are meaningful).
    let question_emb: Vec<f32> = tigervector::datagen::VectorDataset::generate_dim(
        tigervector::datagen::DatasetShape::Sift,
        16,
        1,
        1,
        7,
    )
    .queries[0]
        .clone();

    // --- Strategy 1: merge vector candidates with graph candidates -------
    // Vector leg: top-5 messages semantically near the question.
    let vector_leg = vector_search(
        g,
        &[("Post", "content_emb"), ("Comment", "content_emb")],
        &question_emb,
        5,
        VectorSearchOptions::default(),
    )
    .unwrap();

    // Graph leg: messages created by the seed user's direct friends
    // (declarative GSQL with a graph pattern).
    let mut params = HashMap::new();
    params.insert("qv".to_string(), Value::Vector(question_emb.clone()));
    let graph_out = execute_at(
        g,
        "SELECT t FROM (s:Person) -[:knows]-> (:Person) <-[:postHasCreator]- (t:Post) \
         WHERE s.firstName = \"p0\" \
         ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 5",
        &params,
        tid,
    )
    .unwrap();
    let graph_leg: VertexSet = graph_out
        .rows()
        .iter()
        .map(|r| (r.vertex_type, r.id))
        .collect();

    let merged = vector_leg.union(&graph_leg);
    println!(
        "strategy 1 (merge): {} vector hits ∪ {} graph hits = {} context messages",
        vector_leg.len(),
        graph_leg.len(),
        merged.len()
    );

    // --- Strategy 2: vector seeds, graph expansion ------------------------
    let seeds = vector_search(
        g,
        &[("Post", "content_emb")],
        &question_emb,
        3,
        VectorSearchOptions::default(),
    )
    .unwrap();
    // Expand: seed posts → their creators → everything else they wrote.
    let creators = g
        .expand(&seeds, snb.post_creator_e, Direction::Out, None, tid)
        .unwrap();
    let expanded = seeds.union(
        &g.expand(&creators, snb.post_creator_e, Direction::In, None, tid)
            .unwrap(),
    );
    println!(
        "strategy 2 (expand): {} seeds → {} creators → {} context messages",
        seeds.len(),
        creators.len(),
        expanded.len()
    );

    // --- Mock LLM prompt ---------------------------------------------------
    println!("\n--- prompt sent to the LLM (mocked) ---");
    println!("System: answer using ONLY the provided context.");
    println!(
        "Context: {} messages retrieved by VectorGraphRAG",
        merged.len()
    );
    for (i, (t, id)) in merged.iter().take(5).enumerate() {
        let type_name = if t == snb.post_t { "Post" } else { "Comment" };
        println!("  [{}] {} {}", i + 1, type_name, id);
    }
    println!("  ... (truncated)");
    println!("User: <the question>");
}
