//! The comparator systems of the paper's evaluation (§6), rebuilt as
//! simplified architectural models sharing one HNSW core so the *measured*
//! differences come from architecture, not implementation accidents:
//!
//! * [`tigervector`] — TigerVector itself behind the common trait: the
//!   engine's `EmbeddingService` (segmented indexes, MVCC delta log, vacuum,
//!   tunable `ef`, per-segment search with a global merge), not a copy of it;
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
//!   paper's cost claims (22.42× Neptune cost, etc.) and the models that
//!   turn measured per-query CPU into modeled throughput on one machine
//!   and on a cluster.
//!
//! Every system implements [`VectorSystem`], so the benchmark harness runs
//! the same workload over all four. Each comparator compiles its graphs
//! into the packed layout at the end of its build, as the engine's vacuum
//! does, so every system searches the same graph form.

pub(crate) mod cost;
pub(crate) mod milvus_like;
pub(crate) mod neo_like;
pub(crate) mod neptune_like;
pub(crate) mod system;
pub(crate) mod tigervector;

pub(crate) use cost::CostModel;
pub use cost::{ClusterModel, QueryWork};
pub use milvus_like::MilvusLike;
pub use neo_like::NeoLike;
pub use neptune_like::NeptuneLike;
pub use system::{recall_at_k, VectorSystem};
pub use tigervector::TigerVectorSystem;
