//! Quantized vector storage: the compressed representations behind
//! `StorageTier::Sq8` and `StorageTier::Pq` (see `tv-common::config`).
//! [`crate::quant_state`] holds a segment's codes; this module holds the
//! codecs and the per-query scorer.
//!
//! Two codecs implement the common [`QuantizedCodec`] trait:
//!
//! * **SQ8** ([`Sq8Codec`]) — per-dimension min/max scalar quantization to
//!   one byte per dimension. Asymmetric scoring (f32 query vs. u8 codes)
//!   runs on the mixed-precision kernels in `tv-common::kernels`
//!   (`dot_u8` / `l2_sq_u8` and their batch forms), so the codes are never
//!   widened to f32 in the hot loop, and the computed distance equals the
//!   **exact** distance from the query to the reconstruction.
//! * **PQ** ([`PqCodec`]) — product quantization: the vector is split into
//!   `m` sub-spaces, each quantized to one of ≤256 k-means centroids
//!   (`m` bytes per vector). Queries score via asymmetric distance
//!   computation (ADC): one `m × ks` lookup table per query, after which
//!   every candidate costs `m` table reads — also exact w.r.t. the
//!   reconstruction.
//!
//! [`Codec`] is the serializable sum of the two; [`QuantQuery`] is the
//! per-query prepared scorer (the quantized sibling of
//! `tv_common::PreparedQuery`). Training is deterministic: k-means runs a
//! fixed number of Lloyd iterations from a `SplitMix64(seed)`-shuffled
//! init, so the same data + seed always produce bit-identical codebooks —
//! the property the durability layer's bit-identical recovery tests rely
//! on.

mod codec;
mod pq;
mod query;
mod sq8;

pub(crate) use codec::{Codec, QuantizedCodec};
pub(crate) use query::QuantQuery;
