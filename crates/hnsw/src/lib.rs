//! # tv-hnsw
//!
//! A from-scratch HNSW (Hierarchical Navigable Small World, Malkov &
//! Yashunin 2020) approximate-nearest-neighbor index implementing, through
//! the [`VectorIndex`] trait, the four generic functions TigerVector
//! requires of a vector index (§4.4 of the paper):
//!
//! * **GetEmbedding** — fetch the stored vector for an id,
//! * **TopKSearch** — ef-controlled top-k search with an optional validity
//!   filter (the paper's bitmap hand-off, §5.1/§5.2),
//! * **RangeSearch** — threshold search implemented DiskANN-style as repeated
//!   top-k searches until the threshold falls below the median distance,
//! * **UpdateItems** — incremental upsert/delete application from delta
//!   records, preserving per-id record order.
//!
//! One `HnswIndex` instance serves one *embedding segment*; TigerVector's
//! MPP layer builds one index per segment and merges per-segment top-k
//! results (§4.2). Searches take `&self` and may run concurrently from many
//! threads; mutation takes `&mut self` (segment indexes are single-writer —
//! the embedding service's vacuum assigns each segment to one merge thread,
//! so a segment's graph is built sequentially and build parallelism is
//! segments side by side).
//!
//! The index is one struct ([`index`]) with its jobs in sibling modules:
//! [`packed`] is its one adjacency (compiled CSR rows plus the rows written
//! since the last fold); [`search`] holds the single beam search and greedy
//! descent over it and every query path built on them; [`build`] links and
//! repairs the graph; [`layout`] folds the adjacency in BFS slot order;
//! [`quant_state`] is the quantized storage tier, over the SQ8 / PQ codecs
//! of [`quant`]. An exact brute-force index, the test oracles' reference,
//! is compiled for tests only.

#[cfg(test)]
mod brute;
#[cfg(test)]
mod brute_identity;
#[cfg(test)]
mod brute_oracle;
pub(crate) mod build;
pub(crate) mod config;
pub mod index;
pub(crate) mod layout;
pub(crate) mod packed;
pub mod planner;
pub(crate) mod quant;
pub(crate) mod quant_state;
pub(crate) mod search;
pub(crate) mod select;
pub mod snapshot;
pub(crate) mod stats;

pub use config::HnswConfig;
pub use index::{DeltaRecord, HnswIndex, VectorIndex};
pub use stats::SearchStats;
