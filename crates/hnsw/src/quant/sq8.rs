//! Per-dimension min/max scalar quantization to `u8`.

use crate::quant::codec::QuantizedCodec;
use tv_common::wire::{put_f32s, put_u32, Reader};
use tv_common::{TvError, TvResult};

/// SQ8 codec: dimension `j` maps `x` to
/// `round((x - min[j]) / step[j])` clamped to `0..=255`, with
/// `step[j] = (max[j] - min[j]) / 255` learned from the training data.
/// Reconstruction is `min[j] + step[j] * code`. For any `x` inside the
/// trained range the round-trip error is at most `step[j] / 2` per
/// dimension (round-to-nearest); out-of-range values clamp to the range
/// edge.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Sq8Codec {
    min: Vec<f32>,
    step: Vec<f32>,
}

impl Sq8Codec {
    /// Train on `rows` (a contiguous `n × dim` slab): per-dimension min/max
    /// scan. Deterministic; `rows` must be non-empty.
    pub(crate) fn train(dim: usize, rows: &[f32]) -> TvResult<Self> {
        if dim == 0 || rows.is_empty() || !rows.len().is_multiple_of(dim) {
            return Err(TvError::InvalidArgument(format!(
                "SQ8 training needs a non-empty n x {dim} slab, got {} floats",
                rows.len()
            )));
        }
        let mut min = rows[..dim].to_vec();
        let mut max = rows[..dim].to_vec();
        for row in rows.chunks_exact(dim) {
            for (j, &x) in row.iter().enumerate() {
                if x < min[j] {
                    min[j] = x;
                }
                if x > max[j] {
                    max[j] = x;
                }
            }
        }
        let step = min
            .iter()
            .zip(&max)
            .map(|(&lo, &hi)| (hi - lo) / 255.0)
            .collect();
        Ok(Sq8Codec { min, step })
    }

    /// Per-dimension range minimum.
    #[must_use]
    pub(crate) fn min(&self) -> &[f32] {
        &self.min
    }

    /// Per-dimension quantization step (`0` where the dimension is
    /// constant).
    #[must_use]
    pub(crate) fn step(&self) -> &[f32] {
        &self.step
    }

    pub(crate) fn write(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.min.len() as u32);
        put_f32s(buf, &self.min);
        put_f32s(buf, &self.step);
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> TvResult<Self> {
        let dim = r.u32()? as usize;
        if dim == 0 || dim.saturating_mul(8) > r.remaining() {
            return Err(TvError::Storage("corrupt SQ8 codec: dim".into()));
        }
        Ok(Sq8Codec {
            min: r.f32s(dim)?,
            step: r.f32s(dim)?,
        })
    }
}

impl QuantizedCodec for Sq8Codec {
    fn dim(&self) -> usize {
        self.min.len()
    }

    fn code_len(&self) -> usize {
        self.min.len()
    }

    fn encode_into(&self, vector: &[f32], out: &mut [u8]) {
        debug_assert_eq!(vector.len(), self.min.len());
        debug_assert_eq!(out.len(), self.min.len());
        for (j, (&x, o)) in vector.iter().zip(out.iter_mut()).enumerate() {
            let s = self.step[j];
            *o = if s > 0.0 {
                ((x - self.min[j]) / s).round().clamp(0.0, 255.0) as u8
            } else {
                0
            };
        }
    }

    fn reconstruct_into(&self, code: &[u8], out: &mut [f32]) {
        debug_assert_eq!(code.len(), self.min.len());
        debug_assert_eq!(out.len(), self.min.len());
        for (j, (&c, o)) in code.iter().zip(out.iter_mut()).enumerate() {
            *o = self.min[j] + self.step[j] * f32::from(c);
        }
    }

    fn memory_bytes(&self) -> usize {
        (self.min.len() + self.step.len()) * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::SplitMix64;

    fn slab(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n * dim).map(|_| rng.next_f32() * 20.0 - 10.0).collect()
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        // The satellite property test: |x - dequant(quant(x))| <= step/2
        // per dimension, for every training vector (all in-range by
        // construction).
        let (n, dim) = (500, 24);
        let rows = slab(n, dim, 0xBEEF);
        let codec = Sq8Codec::train(dim, &rows).unwrap();
        let mut code = vec![0u8; dim];
        let mut recon = vec![0.0f32; dim];
        for row in rows.chunks_exact(dim) {
            codec.encode_into(row, &mut code);
            codec.reconstruct_into(&code, &mut recon);
            for (j, (&x, &r)) in row.iter().zip(&recon).enumerate() {
                let half = codec.step()[j] / 2.0;
                // Tiny epsilon absorbs the rounding of the division itself.
                assert!(
                    (x - r).abs() <= half + half * 1e-4,
                    "dim {j}: |{x} - {r}| > step/2 = {half}"
                );
            }
        }
    }

    #[test]
    fn constant_dimension_is_exact() {
        let dim = 4;
        let rows: Vec<f32> = (0..10)
            .flat_map(|i| vec![7.5, i as f32, -1.0, 0.0])
            .collect();
        let codec = Sq8Codec::train(dim, &rows).unwrap();
        assert_eq!(codec.step()[0], 0.0);
        let mut code = vec![0u8; dim];
        let mut recon = vec![0.0f32; dim];
        codec.encode_into(&[7.5, 3.0, -1.0, 0.0], &mut code);
        codec.reconstruct_into(&code, &mut recon);
        assert_eq!(recon[0], 7.5);
        assert_eq!(recon[2], -1.0);
    }

    #[test]
    fn out_of_range_clamps() {
        let dim = 2;
        let rows = vec![0.0, 0.0, 1.0, 1.0];
        let codec = Sq8Codec::train(dim, &rows).unwrap();
        let mut code = vec![0u8; dim];
        codec.encode_into(&[-5.0, 99.0], &mut code);
        assert_eq!(code, vec![0, 255]);
    }

    #[test]
    fn training_rejects_bad_input() {
        assert!(Sq8Codec::train(0, &[1.0]).is_err());
        assert!(Sq8Codec::train(4, &[]).is_err());
        assert!(Sq8Codec::train(4, &[1.0; 6]).is_err());
    }

    #[test]
    fn training_is_deterministic() {
        let rows = slab(100, 8, 7);
        let a = Sq8Codec::train(8, &rows).unwrap();
        let b = Sq8Codec::train(8, &rows).unwrap();
        assert_eq!(a, b);
    }
}
