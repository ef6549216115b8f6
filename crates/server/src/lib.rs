//! # tv-server
//!
//! The multi-tenant query-serving subsystem: an in-process gateway fronting
//! the GSQL executor (`tv-gsql`) and the cluster runtime (`tv-cluster`).
//! The paper presents TigerVector as a *service inside* TigerGraph handling
//! concurrent declarative vector/hybrid queries; this crate is that tier —
//! the layer a production RAG data plane needs between clients and the
//! index.
//!
//! ```text
//!   client ──▶ Session ──▶ Admission ─────────────────▶ Executor ──▶ Merge
//!              (tenant,    (token bucket, then a        (GSQL /      (global
//!               rbac        permit: at once if one is    segment      top-k)
//!               user)       free, else a bounded FIFO    fan-out)
//!                           queue whose entry is one
//!                           request or one batch of
//!                           same-shape direct top-ks:
//!                           one slot, one permit, one
//!                           fan-out)
//! ```
//!
//! Responsibilities:
//!
//! * [`session`] — session handles carrying a tenant id and an rbac
//!   principal, wired into `tg-graph::rbac` so one grant set governs graph
//!   rows *and* vectors (§1's data-governance argument);
//! * [`admission`] — a semaphore-bounded executor pool behind one bounded
//!   FIFO queue with explicit rejection ([`tv_common::TvError::Overloaded`])
//!   and per-tenant token-bucket rate limits, and work-conserving
//!   coalescing inside that queue: a direct top-k that finds a free
//!   executor runs at once and alone; one that must wait joins the queued
//!   batch with the same attribute, `k`, `ef` and snapshot, and the batch
//!   runs as one multi-query segment fan-out
//!   (`EmbeddingService::top_k_many_each`) under one permit, bit-identical
//!   to one-by-one execution. Nothing ever waits *for* a batch;
//! * deadlines — every request carries a [`tv_common::Deadline`] checked at
//!   segment-search boundaries (in `tv-embedding` and the `tv-cluster`
//!   worker loop) so a slow scatter-gather is abandoned mid-flight;
//! * [`metrics`] — per-tenant counters and latency and wait histograms
//!   (p50/p95/p99, queue depth, batch sizes, rejection/timeout counts)
//!   exported as JSON.

pub(crate) mod admission;
pub(crate) mod metrics;
pub(crate) mod server;
pub(crate) mod session;

pub use admission::{AdmissionConfig, RateLimitConfig};
pub use server::{Server, ServerConfig};
pub use session::Session;
