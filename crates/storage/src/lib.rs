//! # tg-storage
//!
//! The storage substrate of the reproduction: a simplified TigerGraph-like
//! segment store. TigerVector's design decisions (per-segment vector indexes,
//! decoupled embedding segments, bitmap hand-off) presuppose an MPP graph
//! engine with these structural properties (§2.1, §4.2–4.3 of the paper):
//!
//! * vertices are partitioned into fixed-capacity **segments**, the unit of
//!   parallel and distributed computation;
//! * outgoing edges are stored **within the source vertex's segment**;
//! * transactions are MVCC: committed changes accumulate as **deltas** tagged
//!   with a transaction id (TID); a background **vacuum** folds deltas into a
//!   fresh snapshot and atomically switches to it;
//! * durability comes from a **write-ahead log** replayed on recovery.
//!
//! This crate provides exactly that: [`value`] (typed attribute values),
//! [`delta`] (the graph delta algebra), [`segment`] (snapshots and the
//! delta-combining read path), [`wal`] (binary WAL), [`txn`] (transaction
//! manager with TID allocation and active-set tracking), and [`store`] (the
//! per-type segmented graph store with vacuum).

pub mod checkpoint;
pub(crate) mod delta;
pub mod segment;
pub(crate) mod store;
pub(crate) mod txn;
pub(crate) mod value;
pub(crate) mod wal;

pub use delta::GraphDelta;
pub use segment::SegmentSnapshot;
pub use store::GraphStore;
pub use value::{AttrSchema, AttrType, AttrValue};
pub use wal::Wal;

#[cfg(test)]
mod model_check;
