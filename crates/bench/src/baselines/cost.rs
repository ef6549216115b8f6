//! The hardware behind the paper's cost comparison, and the two models that
//! turn measured per-query CPU time into modeled throughput on it: one
//! machine per system ([`CostModel`], Figs. 7–8) and a cluster of them
//! ([`ClusterModel`], Figs. 9–10).
//!
//! Paper facts (§6.1–6.2):
//! * TigerVector / Milvus / Neo4j run on one GCP `n2d-standard-32` (32
//!   vCPUs) at **$1.37/hour**;
//! * Neptune runs with 1024 m-NCUs at **$30.72/hour** — "22.42× more
//!   expensive";
//! * throughput is measured with 16 client threads, latency with one.
//!
//! The per-system `parallel_efficiency` / `request_overhead` constants the
//! baselines expose are documented here with their paper-derived rationale:
//!
//! | system      | efficiency | overhead | rationale |
//! |-------------|-----------:|---------:|-----------|
//! | TigerVector |       1.00 |    150µs | MPP engine, C++ (here Rust), HTTP endpoint |
//! | Milvus      |       0.80 |    250µs | Go runtime + gRPC marshaling; the paper attributes TigerVector's 1.07–1.61× edge to "more effective use of multi-core parallelism" and "difference in programming languages" |
//! | Neo4j       |       0.20 |    800µs | JVM + Lucene-based index, no MPP fan-out; the paper measures 3.77–5.19× lower QPS *and* 23–26% lower recall |
//! | Neptune     |       0.45 |   1500µs | managed HTTP endpoint, single non-distributed index; 1.93–2.7× lower QPS despite bigger hardware |

use std::time::Duration;

/// Modeled evaluation hardware (one benchmark machine).
pub(crate) const PAPER_CORES: usize = 32;

/// Cost model for one benchmarked system.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CostModel {
    /// Fraction of [`PAPER_CORES`] the engine keeps busy under load.
    pub parallel_efficiency: f64,
    /// Fixed per-request overhead outside the engine.
    pub request_overhead: Duration,
}

impl CostModel {
    /// TigerVector on n2d-standard-32.
    #[must_use]
    pub(crate) fn tigervector() -> Self {
        CostModel {
            parallel_efficiency: 1.0,
            request_overhead: Duration::from_micros(150),
        }
    }

    /// Milvus on the same hardware.
    #[must_use]
    pub(crate) fn milvus() -> Self {
        CostModel {
            parallel_efficiency: 0.80,
            request_overhead: Duration::from_micros(250),
        }
    }

    /// Neo4j on the same hardware.
    #[must_use]
    pub(crate) fn neo4j() -> Self {
        CostModel {
            parallel_efficiency: 0.20,
            request_overhead: Duration::from_micros(800),
        }
    }

    /// Neptune at 1024 m-NCUs.
    #[must_use]
    pub(crate) fn neptune() -> Self {
        CostModel {
            parallel_efficiency: 0.45,
            request_overhead: Duration::from_micros(1500),
        }
    }

    /// Modeled saturated QPS on the paper's hardware given measured
    /// single-core per-query CPU time.
    #[must_use]
    pub(crate) fn modeled_qps(&self, cpu_per_query: Duration) -> f64 {
        let effective_cores = PAPER_CORES as f64 * self.parallel_efficiency;
        let service_time = cpu_per_query + self.request_overhead;
        effective_cores / service_time.as_secs_f64().max(1e-9)
    }

    /// Modeled single-thread latency (Fig. 8): one request at a time still
    /// parallelizes segment fan-out inside the engine (up to ~8 cores for
    /// TigerVector-style MPP, none for monolithic indexes).
    #[must_use]
    pub(crate) fn modeled_latency(&self, cpu_per_query: Duration, fanout_cores: usize) -> Duration {
        let inner = cpu_per_query.as_secs_f64() / fanout_cores.max(1) as f64;
        Duration::from_secs_f64(inner) + self.request_overhead
    }
}

// The cluster model: Figs. 9–10 need 8–32 hosts of 32 cores, so they combine
// measured per-query CPU with modeled servers, network and merge. Compute
// splits evenly over servers (≈2× QPS per doubling at high recall); the
// per-server dispatch, transfer and merge do not (≈1.5× at low recall).

/// Per-query work, fed into the cluster model.
#[derive(Debug, Clone, Copy)]
pub struct QueryWork {
    /// Total CPU time to search **all** segments (measured on this machine).
    pub total_cpu: Duration,
    /// Results each server returns; a result is ≈ [`RESULT_BYTES`] on the
    /// wire.
    pub k: usize,
}

/// Cores per modeled server (the paper's n2d-standard-32).
const CORES_PER_SERVER: usize = 32;
/// One-way per-message latency: same-zone GCP TCP round trips are ~100–200µs.
const NET_LATENCY: Duration = Duration::from_micros(75);
/// Network payload throughput in bytes/second (~10 Gbps effective).
const NET_BYTES_PER_SEC: f64 = 1.25e9;
/// Per-request dispatch CPU on the coordinator (queueing, serialization).
const DISPATCH_OVERHEAD: Duration = Duration::from_micros(30);
/// Coordinator CPU of one global merge of the servers' top-k lists.
const MERGE_CPU: Duration = Duration::from_micros(30);
/// One result on the wire: a vertex id and a distance.
const RESULT_BYTES: usize = 12;

/// The modeled cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterModel {
    /// Number of worker servers.
    pub servers: usize,
}

impl ClusterModel {
    /// Modeled saturated throughput when a fraction `failure_rate` of
    /// scatters is retried on a replica: the retried share of per-query
    /// compute (≈ `1/S` of the total) is paid twice.
    #[must_use]
    pub fn qps_with_failures(&self, work: &QueryWork, failure_rate: f64) -> f64 {
        let p = failure_rate.clamp(0.0, 1.0);
        self.qps(work) / (1.0 + p / self.servers.max(1) as f64)
    }

    /// Modeled saturated throughput (QPS): the cluster's cores process
    /// per-query CPU work; every server also acts as a coordinator (the
    /// paper's sender machine "evenly distributes requests across all
    /// machines"), and the per-query coordination cost — dispatching to all
    /// `S` servers, receiving responses, merging — grows with `S`. The
    /// tighter of the two bounds wins: at high recall compute dominates
    /// (≈2× per doubling), at low recall coordination dominates (≈1.5×).
    #[must_use]
    pub fn qps(&self, work: &QueryWork) -> f64 {
        let total_cores = (self.servers * CORES_PER_SERVER) as f64;
        let compute_bound = total_cores / work.total_cpu.as_secs_f64().max(1e-12);
        let response_bytes = (work.k * RESULT_BYTES) as f64;
        let transfer = NET_LATENCY.as_secs_f64() + response_bytes / NET_BYTES_PER_SEC;
        let coord_cost = DISPATCH_OVERHEAD.as_secs_f64() * self.servers as f64
            + MERGE_CPU.as_secs_f64()
            + transfer;
        let coordinator_bound = total_cores / coord_cost.max(1e-12);
        compute_bound.min(coordinator_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tigervector_outruns_neo4j_at_equal_cpu() {
        let cpu = Duration::from_millis(2);
        let tv = CostModel::tigervector().modeled_qps(cpu);
        let neo = CostModel::neo4j().modeled_qps(cpu);
        let ratio = tv / neo;
        assert!(ratio > 3.0, "TigerVector/Neo4j QPS ratio {ratio}");
    }

    #[test]
    fn milvus_is_competitive_but_slower() {
        let cpu = Duration::from_millis(2);
        let tv = CostModel::tigervector().modeled_qps(cpu);
        let mv = CostModel::milvus().modeled_qps(cpu);
        let ratio = tv / mv;
        assert!(
            ratio > 1.0 && ratio < 2.0,
            "TigerVector/Milvus ratio {ratio}"
        );
    }

    #[test]
    fn latency_fanout_helps() {
        let cpu = Duration::from_millis(8);
        let m = CostModel::tigervector();
        assert!(m.modeled_latency(cpu, 8) < m.modeled_latency(cpu, 1));
    }

    fn heavy_work() -> QueryWork {
        QueryWork {
            total_cpu: Duration::from_millis(20),
            k: 100,
        }
    }

    fn light_work() -> QueryWork {
        QueryWork {
            total_cpu: Duration::from_micros(50),
            k: 100,
        }
    }

    #[test]
    fn qps_scales_near_linearly_when_compute_bound() {
        let w = heavy_work();
        let q8 = ClusterModel { servers: 8 }.qps(&w);
        let q16 = ClusterModel { servers: 16 }.qps(&w);
        let q32 = ClusterModel { servers: 32 }.qps(&w);
        let g1 = q16 / q8;
        let g2 = q32 / q16;
        assert!(g1 > 1.7 && g1 <= 2.0, "gain {g1}");
        assert!(g2 > 1.7 && g2 <= 2.0, "gain {g2}");
    }

    #[test]
    fn qps_scales_sublinearly_when_coordinator_bound() {
        let w = light_work();
        let q8 = ClusterModel { servers: 8 }.qps(&w);
        let q16 = ClusterModel { servers: 16 }.qps(&w);
        let gain = q16 / q8;
        assert!(
            gain < 1.9,
            "light work should scale sublinearly, got {gain}"
        );
        assert!(gain > 1.0, "still should improve, got {gain}");
    }

    #[test]
    fn transfer_grows_with_the_result_size() {
        // 100 000 results ≈ 1.2 MB per server: ~1 ms on the wire, which
        // dominates a coordinator-bound query.
        let m = ClusterModel { servers: 8 };
        let small = light_work();
        let big = QueryWork {
            k: 100_000,
            ..small
        };
        assert!(m.qps(&big) < 0.5 * m.qps(&small));
    }

    #[test]
    fn failure_rate_degrades_qps_mildly() {
        let w = heavy_work();
        let m = ClusterModel { servers: 8 };
        let q0 = m.qps_with_failures(&w, 0.0);
        let q3 = m.qps_with_failures(&w, 0.3);
        assert!((q0 - m.qps(&w)).abs() < 1e-9);
        assert!(q3 < q0);
        // Retrying 1/S of the work is a mild tax, not a collapse.
        assert!(q3 > 0.9 * q0);
    }

    #[test]
    fn data_size_scaling_shape() {
        // 10× the data (10× CPU work) should cut QPS to roughly 10%.
        let small = heavy_work();
        let big = QueryWork {
            total_cpu: small.total_cpu * 10,
            ..small
        };
        let m = ClusterModel { servers: 8 };
        let ratio = m.qps(&big) / m.qps(&small);
        assert!((0.08..=0.15).contains(&ratio), "ratio {ratio}");
    }
}
