//! # tv-cluster
//!
//! Distributed vector search (Fig. 5 of the paper): a **coordinator**
//! prepares per-segment top-k requests in a send queue, dispatches them to
//! **worker servers**, each worker searches its local embedding segments,
//! and the IDs + distances flow back to the coordinator's response pool for
//! a global merge.
//!
//! The paper runs on 8–32 GCP machines. Here [`runtime`] is a *real*
//! message-passing runtime on one host: one thread per server, std channels
//! as the network, actual scatter-gather execution. It validates the
//! architecture (results identical to a centralized search, replica failover
//! works) and measures real per-server compute. The analytic model that turns
//! measured per-query CPU into modeled cluster QPS for the node- and
//! data-scalability figures (Fig. 9/10) is a benchmark's, not the runtime's:
//! it lives in `tv-bench`'s `baselines::cost` (DESIGN.md documents the
//! substitution).
//!
//! The runtime is fault-tolerant rather than fault-oblivious: its
//! [`tv_common::inject::Injector`] fails, delays or pauses a worker at its
//! receive or reply point, the coordinator recovers via replica retry waves
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

pub(crate) mod migrate;
pub(crate) mod placement;
pub(crate) mod runtime;

pub use migrate::{MigrationReport, Migrator};
pub use placement::MigrationPlan;
pub use runtime::{ClusterResponse, ClusterRuntime, RuntimeConfig};
