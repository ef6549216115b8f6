//! The hardware behind the paper's cost comparison, and the throughput
//! model that converts measured per-query CPU time into modeled QPS on it.
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
}
