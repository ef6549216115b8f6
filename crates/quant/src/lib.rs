//! # tv-quant
//!
//! The compressed representation behind `StorageTier::Sq8` (see
//! `tv-common::config`): one codec, one per-query scorer.
//!
//! * [`Sq8Codec`]: per-dimension min/max scalar quantization to one byte per
//!   dimension, with a versioned image (`to_bytes` / `from_bytes`) that flows
//!   through index snapshots and the durability container bit-identically.
//!   Training is a min/max scan, so the same data always produce the same
//!   codec; the durability layer's byte-identical recovery tests rely on it.
//! * [`QuantQuery`]: the per-query prepared scorer (the quantized sibling of
//!   `tv_common::PreparedQuery`). Scoring is asymmetric (f32 query against
//!   u8 codes) on the mixed-precision kernels in `tv-common::kernels`
//!   (`dot_u8` / `l2_sq_u8` and their batch forms), so codes are never
//!   widened to f32 in the hot loop and the computed distance equals the
//!   **exact** distance from the query to the reconstruction.
//!
//! DESIGN §3e records why there is no product quantization here and the
//! scale at which it would return.

mod query;
mod sq8;

pub use query::QuantQuery;
pub use sq8::Sq8Codec;
