//! Per-query prepared scoring over quantized codes — the quantized sibling
//! of `tv_common::kernels::PreparedQuery`.

use crate::sq8::Sq8Codec;
use tv_common::kernels::{self, cosine_from_parts, Kernels};
use tv_common::DistanceMetric;

/// A query prepared for repeated scoring against one codec's codes. All
/// distances are **exact** with respect to the codec reconstruction: the
/// same value `PreparedQuery::distance(reconstruct(code))` would produce,
/// up to kernel accumulation order.
///
/// With reconstruction `r[j] = min[j] + step[j] * c[j]`:
/// `|q - r|² = Σ (qa[j] - step[j] * c[j])²` with `qa[j] = q[j] - min[j]`,
/// and `<q, r> = bias + Σ qs[j] * c[j]` with `qs[j] = q[j] * step[j]` and
/// `bias = <q, min>`; both run on the mixed-precision u8 kernels without
/// materializing `r`.
///
/// Cosine needs each candidate's reconstructed norm: indexes cache those
/// per slot at encode time and pass them to [`QuantQuery::score`].
///
/// The prepared plan is fully owned (neither the codec nor the query slice
/// is borrowed), so an index can hold a `QuantQuery` while mutating its
/// graph structure.
pub struct QuantQuery {
    metric: DistanceMetric,
    query_norm: f32,
    k: &'static Kernels,
    qa: Vec<f32>,
    qs: Vec<f32>,
    step: Vec<f32>,
    bias: f32,
}

impl QuantQuery {
    /// Prepare `query` against `codec` under the process-wide active kernel
    /// table. `query.len()` must equal `codec.dim()`.
    #[must_use]
    pub fn new(codec: &Sq8Codec, metric: DistanceMetric, query: &[f32]) -> Self {
        debug_assert_eq!(query.len(), codec.dim());
        let k = kernels::active();
        let query_norm = match metric {
            DistanceMetric::Cosine => k.norm_sq(query).sqrt(),
            _ => 0.0,
        };
        let (min, step) = (codec.min(), codec.step());
        QuantQuery {
            metric,
            query_norm,
            k,
            qa: query.iter().zip(min).map(|(&q, &m)| q - m).collect(),
            qs: query.iter().zip(step).map(|(&q, &s)| q * s).collect(),
            step: step.to_vec(),
            bias: k.dot(query, min),
        }
    }

    /// The metric this query scores under.
    #[must_use]
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// Bytes per code row this query expects.
    #[must_use]
    pub fn code_len(&self) -> usize {
        self.qa.len()
    }

    /// Distance from the query to the reconstruction of `code`.
    /// `recon_norm` is the Euclidean norm of that reconstruction, only
    /// consulted for cosine (pass `0.0` otherwise).
    #[must_use]
    pub fn score(&self, code: &[u8], recon_norm: f32) -> f32 {
        debug_assert_eq!(code.len(), self.code_len());
        match self.metric {
            DistanceMetric::L2 => self.k.l2_sq_u8(&self.qa, &self.step, code),
            DistanceMetric::InnerProduct => -(self.bias + self.k.dot_u8(&self.qs, code)),
            DistanceMetric::Cosine => cosine_from_parts(
                self.bias + self.k.dot_u8(&self.qs, code),
                self.query_norm * recon_norm,
            ),
        }
    }

    /// Score `slots` gathered from a slot-major `codes` arena
    /// (`code_len` bytes per slot) using the per-slot `recon_norms` cache;
    /// distances land in `out` (cleared first, one entry per slot, same
    /// order). Mirrors `PreparedQuery::distance_slots`.
    pub fn score_slots(
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

    /// Score `out.len()` contiguous code rows in one pass on the batched u8
    /// kernels. `recon_norms` (one per row) is required for cosine. Mirrors
    /// `PreparedQuery::distance_batch`.
    pub fn score_batch(&self, codes: &[u8], recon_norms: Option<&[f32]>, out: &mut [f32]) {
        debug_assert_eq!(codes.len(), self.code_len() * out.len());
        match self.metric {
            DistanceMetric::L2 => self.k.l2_sq_u8_batch(&self.qa, &self.step, codes, out),
            DistanceMetric::InnerProduct => {
                self.k.dot_u8_batch(&self.qs, codes, out);
                for o in out.iter_mut() {
                    *o = -(self.bias + *o);
                }
            }
            DistanceMetric::Cosine => {
                self.k.dot_u8_batch(&self.qs, codes, out);
                let ns = recon_norms.expect("cosine score_batch needs recon norms");
                debug_assert_eq!(ns.len(), out.len());
                for (o, &n) in out.iter_mut().zip(ns) {
                    *o = cosine_from_parts(self.bias + *o, self.query_norm * n);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::metric::distance;
    use tv_common::SplitMix64;

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
    #[test]
    fn score_is_exact_distance_to_reconstruction() {
        for dim in [7, 16, 33] {
            let (n, seed) = (300, 0xABCD ^ dim as u64);
            let rows = slab(n, dim, seed);
            let codec = Sq8Codec::train(dim, &rows).unwrap();
            let queries = slab(8, dim, seed ^ 1);
            let mut code = vec![0u8; dim];
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
                            "dim {dim} {metric:?}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batch_and_slot_paths_match_pair_scoring() {
        let (n, dim) = (64, 12);
        let rows = slab(n, dim, 3);
        let codec = Sq8Codec::train(dim, &rows).unwrap();
        let mut codes = vec![0u8; n * dim];
        let mut norms = vec![0.0f32; n];
        let mut recon = vec![0.0f32; dim];
        for (i, row) in rows.chunks_exact(dim).enumerate() {
            codec.encode_into(row, &mut codes[i * dim..(i + 1) * dim]);
            codec.reconstruct_into(&codes[i * dim..(i + 1) * dim], &mut recon);
            norms[i] = tv_common::metric::norm(&recon);
        }
        let q = slab(1, dim, 9);
        for metric in METRICS {
            let qq = QuantQuery::new(&codec, metric, &q);
            let mut batch = vec![0.0f32; n];
            qq.score_batch(&codes, Some(&norms), &mut batch);
            let slots: Vec<u32> = (0..n as u32).rev().collect();
            let mut gathered = Vec::new();
            qq.score_slots(&codes, &norms, &slots, &mut gathered);
            for (i, &s) in slots.iter().enumerate() {
                let s = s as usize;
                let pair = qq.score(&codes[s * dim..(s + 1) * dim], norms[s]);
                assert_eq!(gathered[i], pair, "{metric:?} slot path");
                let scale = pair.abs().max(1.0);
                assert!(
                    (batch[s] - pair).abs() <= 1e-5 * scale,
                    "{metric:?} batch {} vs {pair}",
                    batch[s]
                );
            }
        }
    }
}
