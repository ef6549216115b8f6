//! Distance metrics for vector search.
//!
//! The paper's embedding type records a `METRIC` (§4.1); TigerVector supports
//! the three metrics common to HNSW deployments: L2 (squared Euclidean),
//! cosine distance, and (negated) inner product. All three are *distances*:
//! smaller is more similar, so a single top-k min-heap works for every metric.
//!
//! The free functions here delegate to the process-wide kernel table in
//! [`crate::kernels`] — runtime-dispatched AVX2+FMA on x86-64, with the
//! seed's 4-lane scalar order as the always-correct fallback (and the only
//! tier on every other target). Cosine
//! uses the fused `dot_norm_sq` kernel, so a cold pair costs two passes
//! instead of three; search loops with cached norms (see
//! [`crate::kernels::PreparedQuery`]) pay only one.

use crate::kernels::{self, cosine_from_parts};

/// Similarity metric attached to an embedding attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DistanceMetric {
    /// Squared Euclidean distance. (Monotone in true L2, so top-k identical.)
    #[default]
    L2,
    /// Cosine distance: `1 - cos(a, b)`.
    Cosine,
    /// Negative inner product: `-<a, b>` (so smaller = more similar).
    InnerProduct,
}

impl DistanceMetric {
    /// GSQL keyword for this metric.
    #[must_use]
    pub(crate) fn keyword(self) -> &'static str {
        match self {
            DistanceMetric::L2 => "L2",
            DistanceMetric::Cosine => "COSINE",
            DistanceMetric::InnerProduct => "IP",
        }
    }
}

impl std::fmt::Display for DistanceMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Squared L2 distance between two equal-length vectors.
#[must_use]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    kernels::active().l2_sq(a, b)
}

/// Inner product of two equal-length vectors.
#[must_use]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    kernels::active().dot(a, b)
}

/// Euclidean norm of a vector.
#[must_use]
pub fn norm(a: &[f32]) -> f32 {
    kernels::active().norm_sq(a).sqrt()
}

/// Cosine distance `1 - cos(a, b)`; zero vectors are treated as maximally
/// distant (distance 1) rather than producing NaN. Runs the fused
/// `dot_norm_sq` kernel — two passes over the pair, not three.
#[must_use]
pub(crate) fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    let k = kernels::active();
    let (d, b_norm_sq) = k.dot_norm_sq(a, b);
    cosine_from_parts(d, k.norm_sq(a).sqrt() * b_norm_sq.sqrt())
}

/// Distance under `metric`. Smaller is always more similar.
#[must_use]
pub fn distance(metric: DistanceMetric, a: &[f32], b: &[f32]) -> f32 {
    match metric {
        DistanceMetric::L2 => l2_sq(a, b),
        DistanceMetric::Cosine => cosine_distance(a, b),
        DistanceMetric::InnerProduct => -dot(a, b),
    }
}

/// The largest squared norm [`check_finite`] admits: 2^100, a norm of about
/// 1.1e15 (unit-normalised embeddings sit at 1). Between two admitted
/// vectors squared L2 is at most (‖a‖ + ‖b‖)² ≤ 2^102, |⟨a, b⟩| and the
/// cosine denominator ‖a‖‖b‖ at most 2^100, all far below `f32::MAX`
/// (≈ 2^128). The headroom covers the kernels' f32 rounding and quantized
/// reconstructions: each component lies inside the trained per-dimension
/// range, so a reconstruction's squared norm is at most `dim × 2^100`,
/// under 2^124 for any dimension below 2^24.
const MAX_NORM_SQ: f64 = (1u128 << 100) as f64;

/// Reject a vector no distance to which is a number every index and merge
/// can order: a NaN or infinite component (the error names the first), or
/// finite components whose squared norm exceeds 2^100 — such as
/// `[1e20, -1e20, 1e20, -1e20]`, whose norm overflows f32 to ∞ and whose
/// cosine distance to `[1e20; 4]` is NaN.
pub fn check_finite(v: &[f32]) -> crate::TvResult<()> {
    if let Some(i) = v.iter().position(|x| !x.is_finite()) {
        return Err(crate::TvError::InvalidArgument(format!(
            "vector component {i} is {}, not a finite number",
            v[i]
        )));
    }
    // Summed in f64, which no f32 input can overflow, so the verdict does
    // not depend on the kernel tier.
    let norm_sq: f64 = v.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
    if norm_sq > MAX_NORM_SQ {
        return Err(crate::TvError::InvalidArgument(format!(
            "vector squared norm {norm_sq:e} exceeds 2^100; distances to it could overflow"
        )));
    }
    Ok(())
}

/// Normalize a vector in place to unit length; leaves zero vectors untouched.
pub fn normalize(v: &mut [f32]) {
    let n = norm(v);
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }

    #[test]
    fn check_finite_names_the_first_bad_component() {
        assert!(check_finite(&[]).is_ok());
        assert!(check_finite(&[0.0, -1.5, 1e15, f32::MIN_POSITIVE]).is_ok());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = check_finite(&[1.0, 2.0, bad, f32::NAN]).unwrap_err();
            assert!(
                matches!(&err, crate::TvError::InvalidArgument(m) if m.contains("component 2")),
                "{err}"
            );
        }
    }

    /// Every component finite, the norm too large: refused, whatever the
    /// sign pattern, right above the bound and not right below it.
    #[test]
    fn check_finite_refuses_an_overflowing_norm() {
        let edge = (MAX_NORM_SQ / 4.0).sqrt() as f32;
        assert!(check_finite(&[edge; 4]).is_ok());
        for v in [
            [edge * 1.01; 4],
            [1e20, -1e20, 1e20, -1e20],
            [f32::MAX, 0.0, 0.0, 0.0],
        ] {
            let err = check_finite(&v).unwrap_err();
            assert!(
                matches!(&err, crate::TvError::InvalidArgument(m) if m.contains("norm")),
                "{v:?}: {err}"
            );
        }
    }

    #[test]
    fn l2_basic() {
        assert_close(l2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_close(l2_sq(&[1.0; 7], &[1.0; 7]), 0.0);
    }

    #[test]
    fn l2_handles_tail_lengths() {
        // lengths not divisible by 4 exercise the scalar tail
        for len in 1..10 {
            let a: Vec<f32> = (0..len).map(|i| i as f32).collect();
            let b: Vec<f32> = (0..len).map(|i| (i + 1) as f32).collect();
            assert_close(l2_sq(&a, &b), len as f32);
        }
    }

    #[test]
    fn dot_basic() {
        assert_close(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn cosine_identical_is_zero() {
        let v = [0.3, -0.4, 0.5, 1.0, 2.0];
        assert_close(cosine_distance(&v, &v), 0.0);
    }

    #[test]
    fn cosine_orthogonal_is_one() {
        assert_close(cosine_distance(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
    }

    #[test]
    fn cosine_opposite_is_two() {
        assert_close(cosine_distance(&[1.0, 0.0], &[-1.0, 0.0]), 2.0);
    }

    #[test]
    fn cosine_zero_vector_no_nan() {
        let d = cosine_distance(&[0.0, 0.0], &[1.0, 0.0]);
        assert!(d.is_finite());
        assert_close(d, 1.0);
    }

    #[test]
    fn inner_product_smaller_is_more_similar() {
        let q = [1.0, 0.0];
        let near = [2.0, 0.0];
        let far = [0.5, 0.0];
        assert!(
            distance(DistanceMetric::InnerProduct, &q, &near)
                < distance(DistanceMetric::InnerProduct, &q, &far)
        );
    }

    #[test]
    fn normalize_unit_length() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert_close(norm(&v), 1.0);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![0.0, 0.0];
        normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.0]);
    }
}
