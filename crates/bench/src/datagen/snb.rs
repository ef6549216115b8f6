//! LDBC-SNB-like social graph generator (§6.1, §6.5).
//!
//! The paper augments LDBC SNB with content embeddings on Message vertices
//! (Post and Comment) "sampled from the SIFT100M dataset". This generator
//! reproduces the structural properties the hybrid-search results depend
//! on: a `knows` graph with heavy-tailed degrees (so k-hop neighborhoods
//! explode the way IC5 needs), skewed message authorship, language and tag
//! attributes with realistic selectivities, and SIFT-shaped embeddings on
//! every message.

use crate::datagen::vectors::{DatasetShape, VectorDataset};
use tg_graph::Graph;
use tv_common::ids::SegmentLayout;
use tv_common::{PlannerConfig, SplitMix64, TvResult, VertexId};

// Re-exported so callers need not import tg-storage types directly.
pub(crate) use tg_storage::{AttrType, AttrValue};
use tv_embedding::{EmbeddingSpace, IndexKind, ServiceConfig, VectorDataType};

/// Generator parameters.
#[derive(Debug, Clone, Copy)]
pub struct SnbConfig {
    /// Scale factor: entity counts scale linearly (SF10/SF30 in the paper).
    pub sf: usize,
    /// Embedding dimensionality (the paper samples 128-d SIFT; benchmarks
    /// here default lower for single-core speed — documented in
    /// EXPERIMENTS.md).
    pub dim: usize,
    /// RNG seed.
    pub seed: u64,
    /// Vertex segment capacity (smaller → more segments → more MPP fan-out).
    pub segment_capacity: usize,
    /// Average `knows` degree.
    pub avg_knows: usize,
}

impl Default for SnbConfig {
    fn default() -> Self {
        SnbConfig {
            sf: 10,
            dim: 16,
            seed: 0x5EED,
            segment_capacity: 1024,
            avg_knows: 18,
        }
    }
}

/// Number of languages; index 1 ("es") is the IC11 filter (~20% of
/// messages).
pub(crate) const LANGUAGES: [&str; 5] = ["en", "es", "de", "fr", "zh"];

/// Tag universe size (IC6 filters on one rare tag).
pub(crate) const TAGS: i64 = 200;

/// Countries (IC3 filters on the two rarest).
pub(crate) const COUNTRIES: usize = 20;

/// A generated SNB-like graph plus the ids needed to query it.
pub struct SnbGraph {
    /// The populated graph.
    pub graph: Graph,
    /// Config used.
    pub config: SnbConfig,
    /// Vertex type ids.
    pub person_t: u32,
    /// Post vertex type.
    pub post_t: u32,
    /// Comment vertex type.
    pub comment_t: u32,
    /// Country vertex type.
    pub country_t: u32,
    /// `knows` edge (Person→Person).
    pub knows_e: u32,
    /// `hasCreator` from Post.
    pub post_creator_e: u32,
    /// `hasCreator` from Comment.
    pub comment_creator_e: u32,
    /// `isLocatedIn` (Person→Country).
    pub located_e: u32,
    /// `replyOf` (Comment→Post).
    pub reply_e: u32,
    /// Post embedding attribute id.
    pub post_emb: u32,
    /// Comment embedding attribute id.
    pub comment_emb: u32,
    /// All person ids.
    pub persons: Vec<VertexId>,
    /// All post ids.
    pub posts: Vec<VertexId>,
    /// All comment ids.
    pub comments: Vec<VertexId>,
    /// Country of each person (index-parallel to `persons`).
    pub person_country: Vec<usize>,
}

impl SnbGraph {
    /// Entity counts for a scale factor: `(persons, posts, comments)`.
    #[must_use]
    pub fn counts(sf: usize) -> (usize, usize, usize) {
        (90 * sf, 350 * sf, 1050 * sf)
    }

    /// Generate and load the graph.
    pub fn generate(config: SnbConfig) -> TvResult<Self> {
        let (n_person, n_post, n_comment) = Self::counts(config.sf);
        let mut rng = SplitMix64::new(config.seed);

        let graph = Graph::with_config(
            SegmentLayout::with_capacity(config.segment_capacity),
            ServiceConfig {
                planner: PlannerConfig::default(),
                query_threads: 2,
                default_ef: 64,
            },
        );
        let person_t = graph.create_vertex_type(
            "Person",
            &[("firstName", AttrType::Str), ("countryId", AttrType::Int)],
        )?;
        let post_t = graph.create_vertex_type(
            "Post",
            &[
                ("language", AttrType::Str),
                ("tag", AttrType::Int),
                ("creationDate", AttrType::Int),
                ("length", AttrType::Int),
            ],
        )?;
        let comment_t = graph.create_vertex_type(
            "Comment",
            &[
                ("language", AttrType::Str),
                ("tag", AttrType::Int),
                ("creationDate", AttrType::Int),
                ("length", AttrType::Int),
            ],
        )?;
        let country_t = graph.create_vertex_type("Country", &[("name", AttrType::Str)])?;
        let knows_e = graph.create_edge_type("knows", "Person", "Person")?;
        let post_creator_e = graph.create_edge_type("postHasCreator", "Post", "Person")?;
        let comment_creator_e = graph.create_edge_type("commentHasCreator", "Comment", "Person")?;
        let located_e = graph.create_edge_type("isLocatedIn", "Person", "Country")?;
        let reply_e = graph.create_edge_type("replyOf", "Comment", "Post")?;

        // One embedding space for all message content (§4.1, Fig. 2).
        graph.create_embedding_space(EmbeddingSpace {
            name: "content_space".into(),
            dimension: config.dim,
            model: "SIFT".into(),
            index: IndexKind::Hnsw,
            datatype: VectorDataType::Float,
            metric: tv_common::DistanceMetric::L2,
            quant: tv_common::QuantSpec::f32(),
            layout: tv_common::GraphLayout::default(),
        })?;
        let post_emb = graph.add_embedding_in_space("Post", "content_emb", "content_space")?;
        let comment_emb =
            graph.add_embedding_in_space("Comment", "content_emb", "content_space")?;

        // Countries.
        let countries = graph.allocate_many(country_t, COUNTRIES)?;
        let mut txn = graph.txn();
        for (i, &c) in countries.iter().enumerate() {
            txn = txn.upsert_vertex(country_t, c, vec![AttrValue::Str(format!("country{i}"))]);
        }
        txn.commit()?;

        // Persons: country skew — rare countries get few people.
        let persons = graph.allocate_many(person_t, n_person)?;
        let mut person_country = Vec::with_capacity(n_person);
        for chunk in persons.chunks(2048) {
            let mut txn = graph.txn();
            for &p in chunk {
                let i = person_country.len();
                // Zipf-ish: country index grows rare towards the tail.
                let c = (rng.next_f64().powf(2.5) * COUNTRIES as f64) as usize;
                let c = c.min(COUNTRIES - 1);
                person_country.push(c);
                txn = txn
                    .upsert_vertex(
                        person_t,
                        p,
                        vec![AttrValue::Str(format!("p{i}")), AttrValue::Int(c as i64)],
                    )
                    .add_edge(located_e, person_t, p, countries[c]);
            }
            txn.commit()?;
        }

        // knows: heavy-tailed degrees, symmetric.
        let mut txn = graph.txn();
        let mut edge_budget = 0usize;
        for (i, &p) in persons.iter().enumerate() {
            // Pareto-ish degree: most people ~avg/2, a few hubs with many.
            let u = rng.next_f64().max(1e-9);
            let deg =
                ((config.avg_knows as f64 / 2.0) / u.powf(0.5)).min(n_person as f64 / 4.0) as usize;
            for _ in 0..deg {
                let j = rng.next_below(n_person as u64) as usize;
                if i != j {
                    txn = txn
                        .add_edge(knows_e, person_t, p, persons[j])
                        .add_edge(knows_e, person_t, persons[j], p);
                    edge_budget += 1;
                }
                if edge_budget % 4096 == 4095 {
                    txn.commit()?;
                    txn = graph.txn();
                }
            }
        }
        txn.commit()?;

        // Message embeddings: SIFT-shape at the configured dim.
        let vectors = VectorDataset::generate_dim(
            DatasetShape::Sift,
            config.dim,
            n_post + n_comment,
            0,
            config.seed ^ 0xE,
        );

        // Posts + comments: authorship skew (prolific authors make IC5's
        // candidate explosion possible).
        let posts = graph.allocate_many(post_t, n_post)?;
        let comments = graph.allocate_many(comment_t, n_comment)?;
        let pick_author = |rng: &mut SplitMix64| -> usize {
            // Quadratic skew toward low person indices.
            let u = rng.next_f64();
            ((u * u) * n_person as f64) as usize % n_person
        };
        let pick_language = |rng: &mut SplitMix64| -> &'static str {
            let u = rng.next_f64();
            // en 50%, es 20%, de 15%, fr 10%, zh 5%.
            if u < 0.5 {
                LANGUAGES[0]
            } else if u < 0.7 {
                LANGUAGES[1]
            } else if u < 0.85 {
                LANGUAGES[2]
            } else if u < 0.95 {
                LANGUAGES[3]
            } else {
                LANGUAGES[4]
            }
        };
        let pick_tag = |rng: &mut SplitMix64| -> i64 {
            // Zipf-ish over TAGS values.
            let u = rng.next_f64().max(1e-9);
            ((u.powf(2.0)) * TAGS as f64) as i64 % TAGS
        };

        for (mi, chunk) in posts.chunks(1024).enumerate() {
            let mut txn = graph.txn();
            for (off, &m) in chunk.iter().enumerate() {
                let i = mi * 1024 + off;
                let author = pick_author(&mut rng);
                txn = txn
                    .upsert_vertex(
                        post_t,
                        m,
                        vec![
                            AttrValue::Str(pick_language(&mut rng).to_string()),
                            AttrValue::Int(pick_tag(&mut rng)),
                            AttrValue::Int(i as i64),
                            AttrValue::Int((rng.next_below(2000)) as i64),
                        ],
                    )
                    .set_vector(post_emb, m, vectors.base[i].clone())
                    .add_edge(post_creator_e, post_t, m, persons[author]);
            }
            txn.commit()?;
        }
        for (mi, chunk) in comments.chunks(1024).enumerate() {
            let mut txn = graph.txn();
            for (off, &m) in chunk.iter().enumerate() {
                let i = mi * 1024 + off;
                let author = pick_author(&mut rng);
                let parent = posts[rng.next_below(n_post as u64) as usize];
                txn = txn
                    .upsert_vertex(
                        comment_t,
                        m,
                        vec![
                            AttrValue::Str(pick_language(&mut rng).to_string()),
                            AttrValue::Int(pick_tag(&mut rng)),
                            AttrValue::Int((n_post + i) as i64),
                            AttrValue::Int((rng.next_below(2000)) as i64),
                        ],
                    )
                    .set_vector(comment_emb, m, vectors.base[n_post + i].clone())
                    .add_edge(comment_creator_e, comment_t, m, persons[author])
                    .add_edge(reply_e, comment_t, m, parent);
            }
            txn.commit()?;
        }

        Ok(SnbGraph {
            graph,
            config,
            person_t,
            post_t,
            comment_t,
            country_t,
            knows_e,
            post_creator_e,
            comment_creator_e,
            located_e,
            reply_e,
            post_emb,
            comment_emb,
            persons,
            posts,
            comments,
            person_country,
        })
    }

    /// Total message count.
    #[must_use]
    pub fn message_count(&self) -> usize {
        self.posts.len() + self.comments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SnbGraph {
        SnbGraph::generate(SnbConfig {
            sf: 1,
            dim: 8,
            seed: 7,
            segment_capacity: 256,
            avg_knows: 8,
        })
        .unwrap()
    }

    #[test]
    fn generates_expected_counts() {
        let g = tiny();
        assert_eq!(g.persons.len(), 90);
        assert_eq!(g.posts.len(), 350);
        assert_eq!(g.comments.len(), 1050);
        assert_eq!(g.message_count(), 1400);
        let tid = g.graph.read_tid();
        assert_eq!(g.graph.all_vertices(g.person_t, tid).unwrap().len(), 90);
    }

    #[test]
    fn every_message_has_creator_and_embedding() {
        let g = tiny();
        let tid = g.graph.read_tid();
        for &m in g.posts.iter().take(20) {
            assert_eq!(
                g.graph
                    .out_neighbors(g.post_t, m, g.post_creator_e, tid)
                    .unwrap()
                    .len(),
                1
            );
            assert!(g.graph.embedding_of(g.post_emb, m, tid).unwrap().is_some());
        }
        for &c in g.comments.iter().take(20) {
            assert_eq!(
                g.graph
                    .out_neighbors(g.comment_t, c, g.comment_creator_e, tid)
                    .unwrap()
                    .len(),
                1
            );
            assert!(g
                .graph
                .embedding_of(g.comment_emb, c, tid)
                .unwrap()
                .is_some());
        }
    }

    #[test]
    fn knows_graph_is_connected_enough() {
        let g = tiny();
        let tid = g.graph.read_tid();
        // 2-hop neighborhood of a hub (author 0 is the most prolific; person
        // 0 also tends to be well connected) should reach a decent chunk.
        let seeds = tg_graph::VertexSet::from_iter_typed(g.person_t, [g.persons[0]]);
        let reached = g.graph.k_hop(&seeds, g.knows_e, 2, tid).unwrap();
        assert!(reached.len() > 10, "2-hop reached only {}", reached.len());
    }

    #[test]
    fn languages_have_expected_skew() {
        let g = tiny();
        let tid = g.graph.read_tid();
        let es = g
            .graph
            .select_vertices(g.post_t, tid, |row| row[0].as_str() == Some("es"))
            .unwrap();
        let frac = es.len() as f64 / g.posts.len() as f64;
        assert!((0.1..0.35).contains(&frac), "es fraction {frac}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.person_country, b.person_country);
    }
}
