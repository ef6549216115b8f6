//! # tv-embedding
//!
//! TigerVector's embedding subsystem (§4 of the paper):
//!
//! * [`types`] — the `embedding` attribute type: dimension, model, index,
//!   datatype and metric metadata, embedding spaces, and the compatibility
//!   check used by the query compiler's static analysis (§4.1);
//! * [`segment`] — decoupled *embedding segments* aligned with vertex
//!   segments: per-segment HNSW index snapshots (multi-versioned for MVCC),
//!   an in-memory vector-delta store, and delta files (§4.2–4.3);
//! * [`service`] — the embedding service: attribute registry, delta routing
//!   on commit, the parallel `EmbeddingAction` fan-out over segments with
//!   global top-k merge (§5.1), the pre-filter bitmap hand-off and the
//!   brute-force threshold (§5.2);
//! * [`vacuum`] — the two decoupled vacuum processes (delta merge and index
//!   merge) and dynamic merge-thread tuning (§4.3);
//! * [`encode`] — binary encoding of vector deltas for the shared WAL
//!   `extra` payload, which is what makes graph+vector commits atomic;
//! * [`image`] — the one durable image of an embedding segment (index
//!   snapshot + delta tail + declaration) that checkpoints persist, recovery
//!   restores and migration ships.

pub mod encode;
pub(crate) mod image;
#[cfg(test)]
mod model_check;
pub(crate) mod segment;
pub mod service;
pub(crate) mod types;
pub mod vacuum;

pub use image::SegmentImage;
pub use segment::EmbeddingSegment;
pub use service::{BatchQuery, EmbeddingService, ServiceConfig, TypedNeighbor};
pub use types::{EmbeddingSpace, EmbeddingTypeDef, IndexKind, VectorDataType};
pub use vacuum::{BackgroundVacuum, VacuumConfig};
