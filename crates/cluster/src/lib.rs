//! # tv-cluster
//!
//! Distributed vector search (Fig. 5 of the paper): a **coordinator**
//! prepares per-segment top-k requests in a send queue, dispatches them to
//! **worker servers**, each worker searches its local embedding segments,
//! and the IDs + distances flow back to the coordinator's response pool for
//! a global merge.
//!
//! The paper runs on 8–32 GCP machines; this container has one core, so the
//! crate provides two layers (both exercised by the benchmarks):
//!
//! * [`runtime`] — a *real* message-passing runtime: one thread per server,
//!   std channels as the network, actual scatter-gather execution.
//!   This validates the architecture (results identical to a centralized
//!   search, replica failover works) and measures real per-server compute.
//! * [`model`] — an analytic cost model that turns measured per-query CPU
//!   work into modeled cluster QPS under a configurable network
//!   (per-message latency + per-byte cost) and per-server core count. The
//!   node- and data-scalability figures (Fig. 9/10) are regenerated through
//!   this model; DESIGN.md documents the substitution.
//!
//! The runtime is fault-tolerant rather than fault-oblivious: [`fault`]
//! injects deterministic worker failures (crash-on-recv, reply-drop,
//! fixed/seeded delay), the coordinator recovers via replica retry waves
//! and optional hedged requests ([`tv_common::RetryPolicy`]), and degraded
//! mode returns partial results with an honest [`Coverage`] instead of
//! discarding finished work. DESIGN.md ("Failure model") documents the
//! guarantees. A cluster query searches every segment whole: it takes no
//! per-segment bitmap.
//!
//! The cluster is also *elastic*: [`placement`] carries a
//! generation-versioned [`PlacementTable`] (queries pin the table they
//! scattered with; flips swap it atomically), and [`migrate`] executes
//! [`MigrationPlan`]s live — snapshot-ship via the `durafile` container,
//! delta-tail catch-up while the source keeps serving, and a gated atomic
//! flip — with every phase crash-instrumented and abort/retry-safe.

pub(crate) mod fault;
pub(crate) mod migrate;
pub(crate) mod model;
pub(crate) mod placement;
pub(crate) mod runtime;

pub use fault::FaultKind;
pub use migrate::{MigrationReport, Migrator};
pub use model::{ClusterModel, QueryWork};
pub use placement::MigrationPlan;
pub use runtime::{ClusterResponse, ClusterRuntime, RuntimeConfig};
