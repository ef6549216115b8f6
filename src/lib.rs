//! # tigervector
//!
//! A from-scratch Rust reproduction of **TigerVector** (*TigerVector:
//! Supporting Vector Search in Graph Databases for Advanced RAGs*, SIGMOD
//! 2025): vector search integrated natively into an MPP property-graph
//! database.
//!
//! The facade re-exports the workspace crates under stable names:
//!
//! * [`common`] — ids, metrics, bitmaps, top-k primitives;
//! * [`hnsw`] — the HNSW / brute-force vector indexes (§4.4);
//! * [`storage`] — the segmented MVCC graph store with WAL (§2.1, §4.3);
//! * [`embedding`] — embedding types/spaces, decoupled embedding segments,
//!   the two-stage vacuum, the MPP embedding service (§4);
//! * [`graph`] — the graph engine: schema, atomic graph+vector
//!   transactions, MPP actions, accumulators, Louvain, loaders (§2.1, §5.5);
//! * [`gsql`] — the GSQL-integrated declarative vector search and the
//!   `VectorSearch()` composition function (§5);
//! * [`cluster`] — distributed scatter-gather search: real message-passing
//!   runtime + analytic scalability model (§5.1, §6.3);
//! * [`server`] — the multi-tenant serving gateway: sessions + rbac,
//!   admission control, request batching, deadlines, per-tenant metrics;
//! * [`baselines`] — the Neo4j-like / Neptune-like / Milvus-like comparator
//!   systems of the evaluation (§6);
//! * [`datagen`] — SIFT/Deep-shaped datasets, the SNB-like social graph,
//!   the IC hybrid-query family (§6.1, §6.5).
//!
//! ## Quickstart
//!
//! ```
//! use tigervector::graph::Graph;
//! use tigervector::storage::{AttrType, AttrValue};
//! use tigervector::embedding::EmbeddingTypeDef;
//! use tigervector::common::DistanceMetric;
//!
//! let g = Graph::new();
//! g.create_vertex_type("Post", &[("author", AttrType::Str)]).unwrap();
//! g.add_embedding_attribute(
//!     "Post",
//!     EmbeddingTypeDef::new("content_emb", 4, "GPT4", DistanceMetric::Cosine),
//! ).unwrap();
//!
//! let post = g.allocate(0).unwrap();
//! g.txn()
//!     .upsert_vertex(0, post, vec![AttrValue::Str("alice".into())])
//!     .set_vector(0, post, vec![0.1, 0.2, 0.3, 0.4])
//!     .commit()
//!     .unwrap();
//!
//! let (hits, _) = g
//!     .vector_search(&[0], &[0.1, 0.2, 0.3, 0.4], 1, 32, None, g.read_tid())
//!     .unwrap();
//! assert_eq!(hits[0].neighbor.id, post);
//! ```

pub use tg_graph as graph;
pub use tg_storage as storage;
pub use tv_bench::baselines;
pub use tv_bench::datagen;
pub use tv_cluster as cluster;
pub use tv_common as common;
pub use tv_embedding as embedding;
pub use tv_gsql as gsql;
pub use tv_hnsw as hnsw;
pub use tv_server as server;
