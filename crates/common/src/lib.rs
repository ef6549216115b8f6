//! # tv-common
//!
//! Shared foundation types for the TigerVector reproduction: identifiers,
//! distance metrics, validity bitmaps, bounded top-k heaps, errors, a
//! deterministic RNG, and the byte cursor every durable format is read with
//! ([`wire`]).
//!
//! Everything in this crate is dependency-light and usable from every layer
//! of the system — the storage engine, the HNSW index, the embedding service,
//! the query engine, and the cluster simulator all speak these types.

pub mod bitmap;
pub(crate) mod config;
pub(crate) mod deadline;
pub mod delta_log;
pub mod durafile;
pub(crate) mod error;
pub(crate) mod histogram;
pub mod ids;
pub mod inject;
pub mod kernels;
pub mod metric;
pub mod pool;
pub(crate) mod rng;
pub(crate) mod topk;
pub mod wire;

pub use bitmap::Bitmap;
pub use config::{
    GraphLayout, MigrationConfig, PlannerConfig, QuantSpec, RetryPolicy, StorageTier,
};
pub use deadline::Deadline;
pub use delta_log::{DeltaLog, Logged};
pub use durafile::crc32;
pub use error::{TvError, TvResult};
pub use histogram::LatencyHistogram;
pub use ids::{SegmentId, Tid, VertexId};
pub use kernels::{KernelTier, PreparedQuery};
pub use metric::{check_finite, DistanceMetric};
pub use pool::{PoolStats, TaskGauge, WorkerPool};
pub use rng::SplitMix64;
pub use topk::{merge_topk, BoundedHeap, Neighbor, NeighborHeap};
