//! Analytic cluster cost model.
//!
//! The paper's scalability experiments (Fig. 9/10) run on 8–32 machines of
//! 32 vCPUs each; this container has one core, so scaling *shape* is
//! regenerated by combining **measured** per-query CPU work (real searches
//! over real segment indexes) with a **modeled** cluster: per-server core
//! counts, a per-message network latency, and a per-byte transfer cost.
//!
//! The model captures the two effects the paper reports:
//!
//! * near-linear QPS scaling with servers (1.84×–1.91× per doubling at high
//!   recall) — compute dominates, and compute splits evenly;
//! * sub-linear scaling at low recall (≈1.5× per doubling) — per-query CPU
//!   shrinks, so the fixed per-server dispatch + merge share grows.

use std::time::Duration;

/// Network cost parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetworkModel {
    /// One-way per-message latency.
    pub latency: Duration,
    /// Payload throughput in bytes/second.
    pub bytes_per_sec: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            // Same-zone GCP TCP round trips are ~100–200µs; use 75µs one-way.
            latency: Duration::from_micros(75),
            // ~10 Gbps effective.
            bytes_per_sec: 1.25e9,
        }
    }
}

impl NetworkModel {
    /// Time to move `bytes` one way.
    #[must_use]
    pub(crate) fn transfer(&self, bytes: usize) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }
}

/// Measured per-query work, fed into the model.
#[derive(Debug, Clone, Copy)]
pub struct QueryWork {
    /// Total CPU time to search **all** segments (measured on this machine).
    pub total_cpu: Duration,
    /// CPU time of the final global merge (measured).
    pub merge_cpu: Duration,
    /// Result payload per server (ids + distances ≈ 12 bytes × k).
    pub response_bytes: usize,
}

/// The modeled cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterModel {
    /// Number of worker servers.
    pub servers: usize,
    /// Cores per server (the paper's n2d-standard-32 → 32).
    pub cores_per_server: usize,
    /// Network parameters.
    pub network: NetworkModel,
    /// Per-request dispatch CPU on the coordinator (queueing, serialization).
    pub dispatch_overhead: Duration,
}

impl ClusterModel {
    /// Paper-like defaults for `servers` machines.
    #[must_use]
    pub fn paper_default(servers: usize) -> Self {
        ClusterModel {
            servers,
            cores_per_server: 32,
            network: NetworkModel::default(),
            dispatch_overhead: Duration::from_micros(30),
        }
    }

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
        let total_cores = (self.servers * self.cores_per_server) as f64;
        let compute_bound = total_cores / work.total_cpu.as_secs_f64().max(1e-12);
        let coord_cost = self.dispatch_overhead.as_secs_f64() * self.servers as f64
            + work.merge_cpu.as_secs_f64()
            + self.network.transfer(work.response_bytes).as_secs_f64();
        let coordinator_bound = total_cores / coord_cost.max(1e-12);
        compute_bound.min(coordinator_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heavy_work() -> QueryWork {
        QueryWork {
            total_cpu: Duration::from_millis(20),
            merge_cpu: Duration::from_micros(30),
            response_bytes: 1200,
        }
    }

    fn light_work() -> QueryWork {
        QueryWork {
            total_cpu: Duration::from_micros(50),
            merge_cpu: Duration::from_micros(30),
            response_bytes: 1200,
        }
    }

    #[test]
    fn qps_scales_near_linearly_when_compute_bound() {
        let w = heavy_work();
        let q8 = ClusterModel::paper_default(8).qps(&w);
        let q16 = ClusterModel::paper_default(16).qps(&w);
        let q32 = ClusterModel::paper_default(32).qps(&w);
        let g1 = q16 / q8;
        let g2 = q32 / q16;
        assert!(g1 > 1.7 && g1 <= 2.0, "gain {g1}");
        assert!(g2 > 1.7 && g2 <= 2.0, "gain {g2}");
    }

    #[test]
    fn qps_scales_sublinearly_when_coordinator_bound() {
        let w = light_work();
        let q8 = ClusterModel::paper_default(8).qps(&w);
        let q16 = ClusterModel::paper_default(16).qps(&w);
        let gain = q16 / q8;
        assert!(
            gain < 1.9,
            "light work should scale sublinearly, got {gain}"
        );
        assert!(gain > 1.0, "still should improve, got {gain}");
    }

    #[test]
    fn failure_rate_degrades_qps_mildly() {
        let w = heavy_work();
        let m = ClusterModel::paper_default(8);
        let q0 = m.qps_with_failures(&w, 0.0);
        let q3 = m.qps_with_failures(&w, 0.3);
        assert!((q0 - m.qps(&w)).abs() < 1e-9);
        assert!(q3 < q0);
        // Retrying 1/S of the work is a mild tax, not a collapse.
        assert!(q3 > 0.9 * q0);
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let n = NetworkModel::default();
        assert!(n.transfer(1_000_000) > n.transfer(100));
    }

    #[test]
    fn data_size_scaling_shape() {
        // 10× the data (10× CPU work) should cut QPS to roughly 10%.
        let small = heavy_work();
        let big = QueryWork {
            total_cpu: small.total_cpu * 10,
            ..small
        };
        let m = ClusterModel::paper_default(8);
        let ratio = m.qps(&big) / m.qps(&small);
        assert!((0.08..=0.15).contains(&ratio), "ratio {ratio}");
    }
}
