//! The comparator systems of the paper's evaluation (§6), rebuilt as
//! simplified architectural models sharing one HNSW core so the *measured*
//! differences come from architecture, not implementation accidents:
//!
//! * [`tigervector`] — TigerVector itself behind the common trait: segmented
//!   indexes, tunable `ef`, per-segment parallel search, fast bulk loader;
//! * [`neo_like`] — a Neo4j-style integration: one monolithic index built by
//!   a generic full-scan pipeline, a **fixed untunable** search parameter
//!   (the paper: "it does not support index parameter tuning"), post-filter
//!   semantics;
//! * [`neptune_like`] — a Neptune-style managed service: one monolithic
//!   non-distributed index (the paper cites this as its scalability limit),
//!   high fixed recall, per-request managed-endpoint overhead, non-atomic
//!   updates;
//! * [`milvus_like`] — a Milvus-style specialized vector DB: segmented and
//!   tunable like TigerVector, but with a heavier ingestion pipeline
//!   (row-wise serialize→validate→copy, which the paper's Table 2 load
//!   times reflect) and a per-query RPC overhead;
//! * [`cost`] — the documented hardware/pricing constants behind the
//!   paper's cost claims (22.42× Neptune cost, etc.).
//!
//! Every system implements [`VectorSystem`], so the benchmark harness runs
//! the same workload over all four.

pub(crate) mod cost;
pub(crate) mod milvus_like;
pub(crate) mod neo_like;
pub(crate) mod neptune_like;
pub(crate) mod system;
pub(crate) mod tigervector;

pub(crate) use cost::CostModel;
pub use milvus_like::MilvusLike;
pub use neo_like::NeoLike;
pub use neptune_like::NeptuneLike;
pub use system::{recall_at_k, VectorSystem};
pub use tigervector::TigerVectorSystem;
