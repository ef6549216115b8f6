//! # tg-graph
//!
//! The graph engine of the reproduction — the TigerGraph-like layer
//! TigerVector plugs into:
//!
//! * [`schema`] — the catalog: vertex/edge types, `ALTER VERTEX ... ADD
//!   EMBEDDING ATTRIBUTE`, `CREATE EMBEDDING SPACE` (§4.1);
//! * [`graph`] — the [`graph::Graph`] facade tying the segment store, the
//!   embedding service, and the transaction manager together, with atomic
//!   graph+vector transactions and the vector-search entry points;
//! * [`vertex_set`] — vertex set variables, GSQL's composition currency
//!   (§2.1/§5.5), with `UNION` / `INTERSECT` / `MINUS` and conversion to
//!   per-segment pre-filter bitmaps;
//! * [`actions`] — the MPP primitives `VertexAction` and `EdgeAction` that
//!   run user functions across segments in parallel (§2.1); the one edge
//!   walk, `expand`, steps a pattern edge in either [`Direction`];
//! * [`accum`] — accumulators: the `distanceMap` map and the top-k heap
//!   accumulator used by vector similarity join (§5.4);
//! * [`algo`] — graph algorithms: k-hop expansion and Louvain community
//!   detection (the paper's Q4 composition demo, §5.5);
//! * [`loader`] — loading jobs: attribute and embedding files loaded
//!   separately into the same vertices (§4.1's two-file example);
//! * [`durability`] — crash-consistent checkpoints (graph images, embedding
//!   deltas, HNSW snapshots, a CRC-verified manifest) and recovery: newest
//!   valid checkpoint + WAL-tail replay, with deterministic crash-point
//!   injection for torture testing.

pub mod accum;
pub(crate) mod actions;
pub(crate) mod algo;
pub mod durability;
pub(crate) mod graph;
pub mod loader;
pub(crate) mod rbac;
pub(crate) mod schema;
pub(crate) mod vertex_set;

pub use actions::Direction;
pub use durability::CheckpointInfo;
pub use graph::Graph;
pub use rbac::{AccessControl, Role, RowRule};
pub use vertex_set::VertexSet;
