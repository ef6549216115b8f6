//! Cross-tier kernel equivalence: every dispatch tier available on this
//! machine must agree with the scalar fallback across dims 0..=67 (empty,
//! tails < 4, unaligned lengths) and adversarial values (denormals, mixed
//! signs, zero vectors), within the documented tolerance — ≤1e-5 **relative
//! to the accumulated magnitude** of the reduction. Plain relative error is
//! the wrong yardstick for `dot`: mixed-sign inputs can cancel to a result
//! near zero while every partial sum is large, and FMA legitimately changes
//! that rounding path.

use tv_common::kernels::{self, KernelTier, PreparedQuery};
use tv_common::{DistanceMetric, SplitMix64};

const REL_TOL: f32 = 1e-5;

/// Magnitude-scale of the dot reduction: Σ|a_i·b_i|. Cross-tier error is
/// bounded relative to this, not to the (possibly cancelled) result.
fn dot_scale(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum::<f32>()
}

fn l2_scale(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f32>()
}

fn assert_within(got: f32, want: f32, scale: f32, ctx: &str) {
    let tol = REL_TOL * scale.max(1e-30);
    assert!(
        (got - want).abs() <= tol || got == want,
        "{ctx}: got {got}, scalar {want}, tol {tol}"
    );
}

/// Deterministic vector families covering the adversarial cases the ISSUE
/// names: smooth values, mixed signs with cancellation, denormals, zeros,
/// and large magnitudes.
fn families(dim: usize, seed: u64) -> Vec<(String, Vec<f32>, Vec<f32>)> {
    let mut rng = SplitMix64::new(seed ^ dim as u64);
    let smooth_a: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
    let smooth_b: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
    let signs_a: Vec<f32> = (0..dim)
        .map(|i| if i % 2 == 0 { 1e3 } else { -1e3 } + i as f32 * 1e-3)
        .collect();
    let signs_b: Vec<f32> = (0..dim).map(|i| 1.0 + (i as f32) * 1e-6).collect();
    let denormal_a: Vec<f32> = (0..dim).map(|i| 1e-40 * (i as f32 + 1.0)).collect();
    let denormal_b: Vec<f32> = (0..dim).map(|i| 1e-40 * (dim - i) as f32).collect();
    let zeros = vec![0.0f32; dim];
    let large_a: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 1e18).collect();
    let large_b: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 1e18 - 5e17).collect();
    vec![
        ("smooth".into(), smooth_a, smooth_b.clone()),
        ("mixed-signs".into(), signs_a, signs_b),
        ("denormals".into(), denormal_a, denormal_b),
        ("zero-lhs".into(), zeros.clone(), smooth_b),
        ("zero-both".into(), zeros.clone(), zeros),
        ("large".into(), large_a, large_b),
    ]
}

#[test]
fn every_tier_matches_scalar_across_dims_and_families() {
    let scalar = kernels::for_tier(KernelTier::Scalar).unwrap();
    for k in kernels::available() {
        for dim in 0..=67usize {
            for (name, a, b) in families(dim, 0xD15C) {
                let ctx = |op: &str| format!("{}::{op} dim={dim} family={name}", k.tier());

                let want = scalar.dot(&a, &b);
                assert_within(k.dot(&a, &b), want, dot_scale(&a, &b), &ctx("dot"));

                let want = scalar.l2_sq(&a, &b);
                let got = k.l2_sq(&a, &b);
                assert!(got >= 0.0, "{}: negative l2 {got}", ctx("l2_sq"));
                assert_within(got, want, l2_scale(&a, &b), &ctx("l2_sq"));

                let want = scalar.norm_sq(&a);
                assert_within(k.norm_sq(&a), want, dot_scale(&a, &a), &ctx("norm_sq"));

                let (want_d, want_n) = scalar.dot_norm_sq(&a, &b);
                let (got_d, got_n) = k.dot_norm_sq(&a, &b);
                assert_within(got_d, want_d, dot_scale(&a, &b), &ctx("dot_norm_sq.dot"));
                assert_within(got_n, want_n, dot_scale(&b, &b), &ctx("dot_norm_sq.norm"));
            }
        }
    }
}

#[test]
fn batch_kernels_match_scalar_on_slabs() {
    let scalar = kernels::for_tier(KernelTier::Scalar).unwrap();
    let mut rng = SplitMix64::new(0xBA7C);
    for k in kernels::available() {
        for dim in [0usize, 1, 3, 4, 7, 16, 63, 67] {
            let rows = 9;
            let q: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            let slab: Vec<f32> = (0..dim * rows)
                .map(|_| rng.next_f32() * 2.0 - 1.0)
                .collect();
            let mut got = vec![0.0f32; rows];
            let mut want = vec![0.0f32; rows];
            k.dot_batch(&q, &slab, &mut got);
            scalar.dot_batch(&q, &slab, &mut want);
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                let row = &slab[i * dim..(i + 1) * dim];
                assert_within(
                    g,
                    w,
                    dot_scale(&q, row),
                    &format!("{}::dot_batch dim={dim} row={i}", k.tier()),
                );
            }
            k.l2_sq_batch(&q, &slab, &mut got);
            scalar.l2_sq_batch(&q, &slab, &mut want);
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                let row = &slab[i * dim..(i + 1) * dim];
                assert_within(
                    g,
                    w,
                    l2_scale(&q, row),
                    &format!("{}::l2_sq_batch dim={dim} row={i}", k.tier()),
                );
            }
        }
    }
}

/// Magnitude-scale of the u8 L2 reduction: Σ(a_i − s_i·c_i)².
fn l2_u8_scale(a: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
    a.iter()
        .zip(scale)
        .zip(codes)
        .map(|((&x, &s), &c)| {
            let d = x - s * f32::from(c);
            d * d
        })
        .sum::<f32>()
}

#[test]
fn u8_kernels_match_scalar_across_dims() {
    // The quantized-tier analogue of the f32 sweep: every tier's u8 kernels
    // must agree with the scalar u8 reference across dims
    // covering empty, sub-register tails, and unaligned lengths. This test
    // also runs under `TV_KERNELS=scalar` forcing in `make quant-smoke`,
    // which proves active()-dispatched quantized scoring is tier-independent.
    let scalar = kernels::for_tier(KernelTier::Scalar).unwrap();
    let mut rng = SplitMix64::new(0x5EED_A5A5);
    for k in kernels::available() {
        for dim in 0..=67usize {
            let a: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 4.0 - 2.0).collect();
            let scale_v: Vec<f32> = (0..dim).map(|_| 1e-3 + rng.next_f32() * 0.05).collect();
            let codes: Vec<u8> = (0..dim).map(|_| (rng.next_u64() % 256) as u8).collect();
            let ctx = |op: &str| format!("{}::{op} dim={dim}", k.tier());

            let want = scalar.dot_u8(&a, &codes);
            let widened: Vec<f32> = codes.iter().map(|&c| f32::from(c)).collect();
            assert_within(
                k.dot_u8(&a, &codes),
                want,
                dot_scale(&a, &widened),
                &ctx("dot_u8"),
            );

            let want = scalar.l2_sq_u8(&a, &scale_v, &codes);
            let got = k.l2_sq_u8(&a, &scale_v, &codes);
            assert!(got >= 0.0, "{}: negative l2 {got}", ctx("l2_sq_u8"));
            assert_within(
                got,
                want,
                l2_u8_scale(&a, &scale_v, &codes),
                &ctx("l2_sq_u8"),
            );
        }
    }
}

#[test]
fn cosine_zero_vector_guard_holds_in_every_tier() {
    for k in kernels::available() {
        for dim in [0usize, 1, 3, 8, 67] {
            let zeros = vec![0.0f32; dim];
            let ones = vec![1.0f32; dim];
            for (q, v) in [(&zeros, &ones), (&ones, &zeros), (&zeros, &zeros)] {
                let pq = PreparedQuery::on(k, DistanceMetric::Cosine, q);
                let d = pq.distance(v);
                assert!(d.is_finite(), "tier {} dim {dim}: NaN/inf {d}", k.tier());
                // dim=0: both norms are 0 → guard fires even for "ones".
                if q.iter().all(|&x| x == 0.0) || v.iter().all(|&x| x == 0.0) {
                    assert_eq!(d, 1.0, "tier {} dim {dim}", k.tier());
                    let v_norm = k.norm_sq(v).sqrt();
                    assert_eq!(pq.distance_cached(v, v_norm), 1.0);
                }
            }
        }
    }
}

#[test]
fn prepared_query_cached_and_uncached_paths_agree() {
    let mut rng = SplitMix64::new(0xCAFE);
    for k in kernels::available() {
        for metric in [
            DistanceMetric::L2,
            DistanceMetric::Cosine,
            DistanceMetric::InnerProduct,
        ] {
            for dim in [1usize, 5, 16, 67] {
                let q: Vec<f32> = (0..dim).map(|_| rng.next_f32()).collect();
                let v: Vec<f32> = (0..dim).map(|_| rng.next_f32()).collect();
                let pq = PreparedQuery::on(k, metric, &q);
                let plain = pq.distance(&v);
                let cached = pq.distance_cached(&v, k.norm_sq(&v).sqrt());
                let scale = dot_scale(&q, &v).max(l2_scale(&q, &v)).max(1.0);
                assert_within(
                    cached,
                    plain,
                    scale,
                    &format!("{}::{metric:?} dim={dim}", k.tier()),
                );
            }
        }
    }
}

#[test]
fn distance_slots_matches_per_candidate_calls() {
    let mut rng = SplitMix64::new(0x51075);
    let dim = 19;
    let n = 11;
    let arena: Vec<f32> = (0..dim * n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
    for k in kernels::available() {
        let norms: Vec<f32> = (0..n)
            .map(|s| k.norm_sq(&arena[s * dim..(s + 1) * dim]).sqrt())
            .collect();
        for metric in [
            DistanceMetric::L2,
            DistanceMetric::Cosine,
            DistanceMetric::InnerProduct,
        ] {
            let q: Vec<f32> = (0..dim).map(|_| rng.next_f32()).collect();
            let pq = PreparedQuery::on(k, metric, &q);
            let slots: Vec<u32> = [7u32, 0, 3, 10, 3].into();
            let mut out = Vec::new();
            pq.distance_slots(&arena, dim, &norms, &slots, &mut out);
            assert_eq!(out.len(), slots.len());
            for (&s, &d) in slots.iter().zip(&out) {
                let v = &arena[s as usize * dim..(s as usize + 1) * dim];
                let want = pq.distance_cached(v, norms[s as usize]);
                assert_eq!(d.to_bits(), want.to_bits(), "tier {}", k.tier());
            }
        }
    }
}

#[test]
fn this_machine_reports_its_tiers() {
    // Not an equivalence check — a visibility guard: `available()` must at
    // minimum contain the scalar tier, and `detect_best()` must be one of
    // the available tiers.
    let tiers: Vec<KernelTier> = kernels::available().iter().map(|k| k.tier()).collect();
    assert!(tiers.contains(&KernelTier::Scalar));
    assert!(tiers.contains(&kernels::detect_best()));
}
