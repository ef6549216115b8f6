//! Per-query prepared scoring over quantized codes — the quantized sibling
//! of `tv_common::kernels::PreparedQuery`.

use crate::quant::codec::{Codec, QuantizedCodec};
use crate::quant::pq::PqCodec;
use crate::quant::sq8::Sq8Codec;
use tv_common::kernels::{self, cosine_from_parts, Kernels};
use tv_common::DistanceMetric;

/// Per-codec scoring plan, hoisted once per query.
enum Plan {
    /// SQ8 asymmetric scoring. With reconstruction
    /// `r[j] = min[j] + step[j] * c[j]`:
    /// `|q - r|² = Σ (qa[j] - step[j] * c[j])²` with `qa[j] = q[j] - min[j]`,
    /// and `<q, r> = bias + Σ qs[j] * c[j]` with `qs[j] = q[j] * step[j]`
    /// and `bias = <q, min>` — both run on the mixed-precision u8 kernels
    /// without materializing `r`.
    Sq8 {
        qa: Vec<f32>,
        qs: Vec<f32>,
        step: Vec<f32>,
        bias: f32,
    },
    /// PQ asymmetric distance computation: a flat `m × ks` lookup table
    /// (row `s` holds the query sub-vector's distance/dot against every
    /// centroid of sub-space `s`), after which each candidate costs `m`
    /// table reads.
    Pq { lut: Vec<f32>, ks: usize },
}

/// A query prepared for repeated scoring against one codec's codes. All
/// distances are **exact** with respect to the codec reconstruction: the
/// same value `PreparedQuery::distance(reconstruct(code))` would produce,
/// up to kernel accumulation order.
///
/// Cosine needs each candidate's reconstructed norm — indexes cache those
/// per slot at encode time and pass them to [`QuantQuery::score`].
///
/// The prepared plan is fully owned (neither the codec nor the query slice
/// is borrowed), so an index can hold a `QuantQuery` while mutating its
/// graph structure.
pub(crate) struct QuantQuery {
    metric: DistanceMetric,
    query_norm: f32,
    k: &'static Kernels,
    plan: Plan,
}

impl QuantQuery {
    /// Prepare `query` against `codec` under the process-wide active kernel
    /// table. `query.len()` must equal `codec.dim()`.
    #[must_use]
    pub(crate) fn new(codec: &Codec, metric: DistanceMetric, query: &[f32]) -> Self {
        debug_assert_eq!(query.len(), codec.dim());
        let k = kernels::active();
        let query_norm = match metric {
            DistanceMetric::Cosine => k.norm_sq(query).sqrt(),
            _ => 0.0,
        };
        let plan = match codec {
            Codec::Sq8(c) => Self::plan_sq8(k, c, query),
            Codec::Pq(c) => Self::plan_pq(k, c, metric, query),
        };
        QuantQuery {
            metric,
            query_norm,
            k,
            plan,
        }
    }

    fn plan_sq8(k: &'static Kernels, c: &Sq8Codec, query: &[f32]) -> Plan {
        let qa = query.iter().zip(c.min()).map(|(&q, &m)| q - m).collect();
        let qs = query.iter().zip(c.step()).map(|(&q, &s)| q * s).collect();
        Plan::Sq8 {
            qa,
            qs,
            step: c.step().to_vec(),
            bias: k.dot(query, c.min()),
        }
    }

    fn plan_pq(k: &Kernels, c: &PqCodec, metric: DistanceMetric, query: &[f32]) -> Plan {
        let (m, ks) = (c.m(), c.ks());
        let mut lut = vec![0.0f32; m * ks];
        for (s, row) in lut.chunks_exact_mut(ks).enumerate() {
            let sub = &query[c.offsets()[s]..c.offsets()[s + 1]];
            match metric {
                DistanceMetric::L2 => k.l2_sq_batch(sub, c.codebook(s), row),
                // Dot tables serve both inner product and cosine (the
                // cosine denominator comes from the cached recon norm).
                DistanceMetric::InnerProduct | DistanceMetric::Cosine => {
                    k.dot_batch(sub, c.codebook(s), row);
                }
            }
        }
        Plan::Pq { lut, ks }
    }

    /// Bytes per code row this query expects.
    #[must_use]
    pub(crate) fn code_len(&self) -> usize {
        match &self.plan {
            Plan::Sq8 { qa, .. } => qa.len(),
            Plan::Pq { lut, ks } => lut.len() / ks,
        }
    }

    /// Sum an ADC lookup table over one code row.
    #[inline]
    fn lut_sum(lut: &[f32], ks: usize, code: &[u8]) -> f32 {
        let mut acc = 0.0f32;
        for (s, &c) in code.iter().enumerate() {
            acc += lut[s * ks + c as usize];
        }
        acc
    }

    /// Distance from the query to the reconstruction of `code`.
    /// `recon_norm` is the Euclidean norm of that reconstruction — only
    /// consulted for cosine (pass `0.0` otherwise).
    #[must_use]
    pub(crate) fn score(&self, code: &[u8], recon_norm: f32) -> f32 {
        debug_assert_eq!(code.len(), self.code_len());
        match (&self.plan, self.metric) {
            (Plan::Sq8 { qa, step, .. }, DistanceMetric::L2) => self.k.l2_sq_u8(qa, step, code),
            (Plan::Sq8 { qs, bias, .. }, DistanceMetric::InnerProduct) => {
                -(bias + self.k.dot_u8(qs, code))
            }
            (Plan::Sq8 { qs, bias, .. }, DistanceMetric::Cosine) => {
                cosine_from_parts(bias + self.k.dot_u8(qs, code), self.query_norm * recon_norm)
            }
            (Plan::Pq { lut, ks }, DistanceMetric::L2) => Self::lut_sum(lut, *ks, code),
            (Plan::Pq { lut, ks }, DistanceMetric::InnerProduct) => -Self::lut_sum(lut, *ks, code),
            (Plan::Pq { lut, ks }, DistanceMetric::Cosine) => {
                cosine_from_parts(Self::lut_sum(lut, *ks, code), self.query_norm * recon_norm)
            }
        }
    }

    /// Score `slots` gathered from a slot-major `codes` arena
    /// (`code_len` bytes per slot) using the per-slot `recon_norms` cache;
    /// distances land in `out` (cleared first, one entry per slot, same
    /// order). Mirrors `PreparedQuery::distance_slots`.
    pub(crate) fn score_slots(
        &self,
        codes: &[u8],
        recon_norms: &[f32],
        slots: &[u32],
        out: &mut Vec<f32>,
    ) {
        let cl = self.code_len();
        out.clear();
        out.reserve(slots.len());
        for &s in slots {
            let code = &codes[s as usize * cl..(s as usize + 1) * cl];
            let rn = if self.metric == DistanceMetric::Cosine {
                recon_norms[s as usize]
            } else {
                0.0
            };
            out.push(self.score(code, rn));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::metric::distance;
    use tv_common::{SplitMix64, StorageTier};

    const METRICS: [DistanceMetric; 3] = [
        DistanceMetric::L2,
        DistanceMetric::Cosine,
        DistanceMetric::InnerProduct,
    ];

    fn slab(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n * dim).map(|_| rng.next_f32() * 6.0 - 3.0).collect()
    }

    /// Reference: encode, reconstruct, and score the reconstruction with
    /// the plain f32 metric path.
    fn check_matches_reconstruction(tier: StorageTier, dim: usize) {
        let (n, seed) = (300, 0xABCD ^ dim as u64);
        let rows = slab(n, dim, seed);
        let codec = Codec::train(tier, dim, &rows, 7).unwrap();
        let cl = codec.code_len();
        let queries = slab(8, dim, seed ^ 1);
        let mut code = vec![0u8; cl];
        let mut recon = vec![0.0f32; dim];
        for metric in METRICS {
            for q in queries.chunks_exact(dim) {
                let qq = QuantQuery::new(&codec, metric, q);
                for row in rows.chunks_exact(dim).take(40) {
                    codec.encode_into(row, &mut code);
                    codec.reconstruct_into(&code, &mut recon);
                    let rn = tv_common::metric::norm(&recon);
                    let got = qq.score(&code, rn);
                    let want = distance(metric, q, &recon);
                    let scale = want.abs().max(1.0);
                    assert!(
                        (got - want).abs() <= 1e-4 * scale,
                        "{tier:?} {metric:?}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn sq8_score_is_exact_distance_to_reconstruction() {
        for dim in [7, 16, 33] {
            check_matches_reconstruction(StorageTier::Sq8, dim);
        }
    }

    #[test]
    fn pq_adc_is_exact_distance_to_reconstruction() {
        check_matches_reconstruction(StorageTier::Pq { m: 4 }, 16);
        check_matches_reconstruction(StorageTier::Pq { m: 3 }, 7);
    }

    #[test]
    fn slot_path_matches_pair_scoring() {
        let (n, dim) = (64, 12);
        let rows = slab(n, dim, 3);
        for tier in [StorageTier::Sq8, StorageTier::Pq { m: 4 }] {
            let codec = Codec::train(tier, dim, &rows, 5).unwrap();
            let cl = codec.code_len();
            let mut codes = vec![0u8; n * cl];
            let mut norms = vec![0.0f32; n];
            let mut recon = vec![0.0f32; dim];
            for (i, row) in rows.chunks_exact(dim).enumerate() {
                codec.encode_into(row, &mut codes[i * cl..(i + 1) * cl]);
                codec.reconstruct_into(&codes[i * cl..(i + 1) * cl], &mut recon);
                norms[i] = tv_common::metric::norm(&recon);
            }
            let q = slab(1, dim, 9);
            for metric in METRICS {
                let qq = QuantQuery::new(&codec, metric, &q);
                let slots: Vec<u32> = (0..n as u32).rev().collect();
                let mut gathered = Vec::new();
                qq.score_slots(&codes, &norms, &slots, &mut gathered);
                for (i, &s) in slots.iter().enumerate() {
                    let pair = qq.score(
                        &codes[s as usize * cl..(s as usize + 1) * cl],
                        norms[s as usize],
                    );
                    assert_eq!(gathered[i], pair, "{tier:?} {metric:?} slot path");
                }
            }
        }
    }
}
