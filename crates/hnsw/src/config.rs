//! HNSW construction and search parameters.

use tv_common::DistanceMetric;

/// Parameters of an HNSW index.
///
/// Defaults follow the paper's experimental setup (§6.1): `M = 16`,
/// `ef_construction = 128` ("efb=128 as recommended in [SingleStore-V]").
/// Neo4j's inability to tune these parameters is exactly the limitation the
/// paper calls out, so they are all public and explicit here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HnswConfig {
    /// Vector dimensionality.
    pub dim: usize,
    /// Distance metric.
    pub metric: DistanceMetric,
    /// Max out-degree per node on layers above 0.
    pub m: usize,
    /// Max out-degree on layer 0 (conventionally `2 * m`).
    pub m0: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Level-sampling normalization factor; `None` means the canonical
    /// `1 / ln(M)`.
    pub ml: Option<f64>,
    /// Seed for the level-sampling RNG (determinism across runs).
    pub seed: u64,
}

impl HnswConfig {
    /// Config with paper-default parameters for the given dimension/metric.
    #[must_use]
    pub fn new(dim: usize, metric: DistanceMetric) -> Self {
        HnswConfig {
            dim,
            metric,
            m: 16,
            m0: 32,
            ef_construction: 128,
            ml: None,
            seed: 0x7161_7261,
        }
    }

    /// Override `M` (also sets `m0 = 2 * m`).
    #[must_use]
    pub fn with_m(mut self, m: usize) -> Self {
        self.m = m;
        self.m0 = 2 * m;
        self
    }

    /// Override the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Effective level-normalization factor.
    #[must_use]
    pub(crate) fn level_norm(&self) -> f64 {
        self.ml.unwrap_or_else(|| 1.0 / (self.m.max(2) as f64).ln())
    }

    /// Validate invariants; called by the index constructor.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("dimension must be non-zero".into());
        }
        if self.m < 2 {
            return Err("M must be at least 2".into());
        }
        if self.m0 < self.m {
            return Err("M0 must be >= M".into());
        }
        if self.ef_construction == 0 {
            return Err("ef_construction must be non-zero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = HnswConfig::new(128, DistanceMetric::L2);
        assert_eq!(c.m, 16);
        assert_eq!(c.m0, 32);
        assert_eq!(c.ef_construction, 128);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn with_m_updates_m0() {
        let c = HnswConfig::new(8, DistanceMetric::L2).with_m(8);
        assert_eq!(c.m0, 16);
    }

    #[test]
    fn level_norm_is_inverse_log_m() {
        let c = HnswConfig::new(8, DistanceMetric::L2);
        assert!((c.level_norm() - 1.0 / 16f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        assert!(HnswConfig::new(0, DistanceMetric::L2).validate().is_err());
        let mut c = HnswConfig::new(4, DistanceMetric::L2);
        c.m = 1;
        assert!(c.validate().is_err());
        let mut c = HnswConfig::new(4, DistanceMetric::L2);
        c.m0 = 4;
        assert!(c.validate().is_err());
        let mut c = HnswConfig::new(4, DistanceMetric::L2);
        c.ef_construction = 0;
        assert!(c.validate().is_err());
    }
}
