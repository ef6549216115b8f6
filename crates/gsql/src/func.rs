//! The flexible `VectorSearch()` function (§5.5).
//!
//! GSQL procedures compose query blocks through vertex set variables;
//! `VectorSearch()` plugs into that composition: it takes a list of
//! compatible embedding attributes (possibly across vertex types), a query
//! vector, `k`, and optional parameters — a candidate vertex set filter, an
//! output distance map, and the index search parameter `ef` — and returns a
//! vertex set ready for the next query block, exactly like queries Q2–Q4 in
//! the paper.

use std::collections::HashMap;
use tg_graph::accum::MapAccum;
use tg_graph::{Direction, Graph, VertexSet};
use tv_common::{Tid, TvResult};
use tv_hnsw::SearchStats;

/// Optional parameters of [`vector_search`] (the paper's `{filter: ...,
/// ef: ..., distanceMap: ...}` map).
#[derive(Default)]
pub struct VectorSearchOptions<'a> {
    /// Candidate vertex set from a prior query block (pre-filter).
    pub filter: Option<&'a VertexSet>,
    /// Index search parameter controlling accuracy (HNSW `ef`).
    pub ef: Option<usize>,
    /// Output map accumulator receiving `(vertex, distance)` for the top-k.
    pub distance_map: Option<&'a mut MapAccum>,
    /// Read snapshot; defaults to the latest committed TID.
    pub tid: Option<Tid>,
}

/// `VectorSearch(VectorAttributes, QueryVector, K, {...})` — returns the
/// top-k vertices as a [`VertexSet`] for query composition. Attributes are
/// named as `(vertex type, attribute)` pairs and must pass the §4.1
/// compatibility check (enforced by the embedding service).
pub fn vector_search(
    graph: &Graph,
    vector_attributes: &[(&str, &str)],
    query_vector: &[f32],
    k: usize,
    mut options: VectorSearchOptions<'_>,
) -> TvResult<VertexSet> {
    let (set, _stats) =
        vector_search_with_stats(graph, vector_attributes, query_vector, k, &mut options)?;
    Ok(set)
}

/// [`vector_search`] variant also returning the merged search statistics
/// (used by the benchmark harness).
pub fn vector_search_with_stats(
    graph: &Graph,
    vector_attributes: &[(&str, &str)],
    query_vector: &[f32],
    k: usize,
    options: &mut VectorSearchOptions<'_>,
) -> TvResult<(VertexSet, SearchStats)> {
    // Resolve attribute names through the catalog.
    let attr_ids: Vec<u32> = {
        let catalog = graph.catalog();
        vector_attributes
            .iter()
            .map(|(vt, attr)| {
                let def = catalog.vertex_type(vt)?;
                def.embedding(attr).map(|(id, _)| id).ok_or_else(|| {
                    tv_common::TvError::NotFound(format!(
                        "embedding '{attr}' on vertex type '{vt}'"
                    ))
                })
            })
            .collect::<TvResult<_>>()?
    };
    let tid = options.tid.unwrap_or_else(|| graph.read_tid());
    let ef = options
        .ef
        .unwrap_or(graph.embeddings().config().default_ef)
        .max(k);
    let (hits, stats) = graph.vector_search(&attr_ids, query_vector, k, ef, options.filter, tid)?;

    let mut out = VertexSet::new();
    for tn in &hits {
        out.insert(tn.vertex_type, tn.neighbor.id);
        if let Some(map) = options.distance_map.as_deref_mut() {
            map.put(tn.vertex_type, tn.neighbor.id, f64::from(tn.neighbor.dist));
        }
    }
    Ok((out, stats))
}

/// Helper mirroring Q4's shape: Louvain over `(vertex type, edge type)`,
/// then a per-community top-k `VectorSearch` filtered to each community's
/// posts. Returns `community id → top-k vertex set`.
#[allow(clippy::too_many_arguments)]
pub fn community_topk(
    graph: &Graph,
    person_type: &str,
    knows_edge: &str,
    target_type: &str,
    creator_edge: &str,
    attr: &str,
    query_vector: &[f32],
    k: usize,
) -> TvResult<HashMap<usize, VertexSet>> {
    let (person_id, knows_id, target_id, creator_id) = {
        let catalog = graph.catalog();
        (
            catalog.vertex_type(person_type)?.type_id,
            catalog.edge_type(knows_edge)?.etype_id,
            catalog.vertex_type(target_type)?.type_id,
            catalog.edge_type(creator_edge)?.etype_id,
        )
    };
    let tid = graph.read_tid();
    // Louvain tags each person with a community id (tg_louvain in Q4).
    let (communities, count) = graph.louvain(person_id, knows_id, tid)?;

    // Each community's posts: one expansion against hasCreator from every
    // person Louvain tagged.
    let people = VertexSet::from_iter_typed(person_id, communities.keys().copied());
    let mut posts_of = vec![VertexSet::new(); count];
    for (person, post) in graph.expand_edges(&people, creator_id, Direction::In, None, tid)? {
        posts_of[communities[&person]].insert(target_id, post);
    }

    let mut out = HashMap::new();
    for (community, candidates) in posts_of.into_iter().enumerate() {
        if candidates.is_empty() {
            continue;
        }
        let topk = vector_search(
            graph,
            &[(target_type, attr)],
            query_vector,
            k,
            VectorSearchOptions {
                filter: Some(&candidates),
                ..VectorSearchOptions::default()
            },
        )?;
        out.insert(community, topk);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_storage::{AttrType, AttrValue};
    use tv_common::ids::SegmentLayout;
    use tv_common::DistanceMetric;
    use tv_embedding::{EmbeddingTypeDef, ServiceConfig};

    fn graph() -> (Graph, Vec<tv_common::VertexId>, Vec<Vec<f32>>) {
        let g = Graph::with_config(
            SegmentLayout::with_capacity(8),
            ServiceConfig {
                planner: tv_common::PlannerConfig::default().with_brute_threshold(2),
                query_threads: 1,
                default_ef: 64,
            },
        );
        g.create_vertex_type("Post", &[("length", AttrType::Int)])
            .unwrap();
        g.create_vertex_type("Comment", &[("length", AttrType::Int)])
            .unwrap();
        g.add_embedding_attribute(
            "Post",
            EmbeddingTypeDef::new("content_emb", 4, "GPT4", DistanceMetric::L2),
        )
        .unwrap();
        g.add_embedding_attribute(
            "Comment",
            EmbeddingTypeDef::new("content_emb", 4, "GPT4", DistanceMetric::L2),
        )
        .unwrap();
        let posts = g.allocate_many(0, 6).unwrap();
        let comments = g.allocate_many(1, 6).unwrap();
        let mut vecs = Vec::new();
        let mut txn = g.txn();
        for (i, &p) in posts.iter().enumerate() {
            let v = vec![i as f32; 4];
            txn = txn
                .upsert_vertex(0, p, vec![AttrValue::Int(i as i64)])
                .set_vector(0, p, v.clone());
            vecs.push(v);
        }
        for (i, &c) in comments.iter().enumerate() {
            let v = vec![(i as f32) + 0.4; 4];
            txn = txn
                .upsert_vertex(1, c, vec![AttrValue::Int(i as i64)])
                .set_vector(1, c, v.clone());
            vecs.push(v);
        }
        txn.commit().unwrap();
        let mut ids = posts;
        ids.extend(comments);
        (g, ids, vecs)
    }

    #[test]
    fn multi_type_search_q1() {
        // Q1 from the paper: top-k across Comment and Post embeddings.
        let (g, ids, _) = graph();
        let set = vector_search(
            &g,
            &[("Comment", "content_emb"), ("Post", "content_emb")],
            &[0.1; 4],
            3,
            VectorSearchOptions::default(),
        )
        .unwrap();
        assert_eq!(set.len(), 3);
        // Nearest three to 0.1: post0 (0.0), comment0 (0.4), post1 (1.0).
        assert!(set.contains(0, ids[0]));
        assert!(set.contains(1, ids[6]));
        assert!(set.contains(0, ids[1]));
    }

    #[test]
    fn distance_map_output_q3() {
        let (g, _ids, _) = graph();
        let mut dis_map = MapAccum::default();
        let set = vector_search(
            &g,
            &[("Post", "content_emb")],
            &[0.0; 4],
            2,
            VectorSearchOptions {
                distance_map: Some(&mut dis_map),
                ..VectorSearchOptions::default()
            },
        )
        .unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(dis_map.len(), 2);
        let sorted = dis_map.sorted_by_value();
        assert!(sorted[0].1 <= sorted[1].1);
    }

    #[test]
    fn filter_composition_q3() {
        let (g, ids, _) = graph();
        // First query block: posts with length >= 4.
        let tid = g.read_tid();
        let candidates = g
            .select_vertices(0, tid, |row| row[0].as_int().is_some_and(|l| l >= 4))
            .unwrap();
        // Second block: VectorSearch with the candidate filter.
        let set = vector_search(
            &g,
            &[("Post", "content_emb")],
            &[0.0; 4],
            2,
            VectorSearchOptions {
                filter: Some(&candidates),
                ..VectorSearchOptions::default()
            },
        )
        .unwrap();
        // Nearest qualifying posts are 4 and 5.
        assert!(set.contains(0, ids[4]));
        assert!(set.contains(0, ids[5]));
    }

    #[test]
    fn unknown_attr_rejected() {
        let (g, _, _) = graph();
        assert!(vector_search(
            &g,
            &[("Post", "missing_emb")],
            &[0.0; 4],
            1,
            VectorSearchOptions::default()
        )
        .is_err());
        assert!(vector_search(
            &g,
            &[("Nope", "content_emb")],
            &[0.0; 4],
            1,
            VectorSearchOptions::default()
        )
        .is_err());
    }

    #[test]
    fn ef_parameter_accepted() {
        let (g, ids, _) = graph();
        let set = vector_search(
            &g,
            &[("Post", "content_emb")],
            &[0.0; 4],
            1,
            VectorSearchOptions {
                ef: Some(200),
                ..VectorSearchOptions::default()
            },
        )
        .unwrap();
        assert!(set.contains(0, ids[0]));
    }

    #[test]
    fn community_topk_q4() {
        let (g, ids, _) = graph();
        // Add Person + knows + hasCreator so Q4's shape works.
        g.create_vertex_type("Person", &[("name", AttrType::Str)])
            .unwrap();
        g.create_edge_type("knows", "Person", "Person").unwrap();
        g.create_edge_type("hasCreator", "Post", "Person").unwrap();
        let people = g.allocate_many(2, 4).unwrap();
        let mut txn = g.txn();
        for (i, &p) in people.iter().enumerate() {
            txn = txn.upsert_vertex(2, p, vec![AttrValue::Str(format!("p{i}"))]);
        }
        // Two communities: {0,1} and {2,3}.
        txn = txn
            .add_edge(0, 2, people[0], people[1])
            .add_edge(0, 2, people[1], people[0])
            .add_edge(0, 2, people[2], people[3])
            .add_edge(0, 2, people[3], people[2]);
        // Posts 0..3 by community A, posts 4..5 by community B.
        for (i, &id) in ids.iter().enumerate().take(6) {
            let creator = if i < 4 { people[0] } else { people[2] };
            txn = txn.add_edge(1, 0, id, creator);
        }
        txn.commit().unwrap();

        let result = community_topk(
            &g,
            "Person",
            "knows",
            "Post",
            "hasCreator",
            "content_emb",
            &[0.0; 4],
            2,
        )
        .unwrap();
        assert_eq!(result.len(), 2);
        // Community containing posts 0..3 must return posts 0 and 1.
        let com_a = result
            .values()
            .find(|s| s.contains(0, ids[0]))
            .expect("community A present");
        assert!(com_a.contains(0, ids[1]));
        // Community B returns posts 4 and 5.
        let com_b = result
            .values()
            .find(|s| s.contains(0, ids[4]))
            .expect("community B present");
        assert!(com_b.contains(0, ids[5]));
    }
}
