//! Product quantization with deterministic k-means codebooks.

use crate::quant::codec::QuantizedCodec;
use tv_common::kernels;
use tv_common::wire::{put_f32s, put_u32, Reader};
use tv_common::{SplitMix64, TvError, TvResult};

/// Fixed Lloyd iteration count: enough to converge on segment-sized
/// training sets, small enough that vacuum-time retraining stays cheap, and
/// deterministic (no convergence-threshold data dependence).
const TRAIN_ITERS: usize = 10;

/// PQ codec: `m` sub-quantizers over contiguous sub-spaces, each with up to
/// 256 centroids. Sub-space `s` covers dimensions `offset[s]..offset[s+1]`
/// (the first `dim % m` sub-spaces take one extra dimension when `m` does
/// not divide `dim`). Codes are `m` bytes; centroid assignment always uses
/// squared L2, the standard PQ training objective regardless of the search
/// metric.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PqCodec {
    dim: usize,
    /// Sub-space boundaries, `m + 1` entries (`offsets[0] == 0`,
    /// `offsets[m] == dim`).
    offsets: Vec<usize>,
    /// Centroids per sub-space (`ks <= 256`, same for every sub-space).
    ks: usize,
    /// Per-sub-space centroid slab: `codebooks[s]` holds `ks` rows of
    /// `offsets[s+1] - offsets[s]` floats.
    codebooks: Vec<Vec<f32>>,
}

impl PqCodec {
    /// Train on `rows` (a contiguous `n × dim` slab) with `m`
    /// sub-quantizers. Deterministic for fixed `(rows, m, seed)`: centroid
    /// init samples distinct training rows via a seeded shuffle and Lloyd
    /// runs a fixed iteration count with f64 accumulation.
    pub(crate) fn train(dim: usize, m: usize, rows: &[f32], seed: u64) -> TvResult<Self> {
        if dim == 0 || m == 0 || m > dim {
            return Err(TvError::InvalidArgument(format!(
                "PQ needs 0 < m <= dim, got m={m} dim={dim}"
            )));
        }
        if rows.is_empty() || !rows.len().is_multiple_of(dim) {
            return Err(TvError::InvalidArgument(format!(
                "PQ training needs a non-empty n x {dim} slab, got {} floats",
                rows.len()
            )));
        }
        let n = rows.len() / dim;
        let ks = n.min(256);
        let base = dim / m;
        let rem = dim % m;
        let mut offsets = Vec::with_capacity(m + 1);
        offsets.push(0usize);
        for s in 0..m {
            let w = base + usize::from(s < rem);
            offsets.push(offsets[s] + w);
        }

        let mut codebooks = Vec::with_capacity(m);
        for s in 0..m {
            let (lo, hi) = (offsets[s], offsets[s + 1]);
            let sd = hi - lo;
            // Gather this sub-space's training slab (n × sd, contiguous).
            let sub: Vec<f32> = (0..n)
                .flat_map(|i| rows[i * dim + lo..i * dim + hi].iter().copied())
                .collect();
            codebooks.push(kmeans(
                &sub,
                n,
                sd,
                ks,
                seed ^ (s as u64).wrapping_mul(0x9E37),
            ));
        }
        Ok(PqCodec {
            dim,
            offsets,
            ks,
            codebooks,
        })
    }

    /// Number of sub-quantizers.
    #[must_use]
    pub(crate) fn m(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Centroids per sub-space.
    #[must_use]
    pub(crate) fn ks(&self) -> usize {
        self.ks
    }

    /// Sub-space boundaries (`m + 1` entries).
    #[must_use]
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The centroid slab of sub-space `s` (`ks` rows of that sub-space's
    /// width) — the ADC lookup-table builder scores the query against this
    /// in one batched kernel call.
    #[must_use]
    pub(crate) fn codebook(&self, s: usize) -> &[f32] {
        &self.codebooks[s]
    }

    pub(crate) fn write(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.dim as u32);
        put_u32(buf, self.m() as u32);
        put_u32(buf, self.ks as u32);
        for cb in &self.codebooks {
            put_f32s(buf, cb);
        }
    }

    pub(crate) fn read(r: &mut Reader<'_>) -> TvResult<Self> {
        let dim = r.u32()? as usize;
        let m = r.u32()? as usize;
        let ks = r.u32()? as usize;
        if dim == 0 || m == 0 || m > dim || ks == 0 || ks > 256 {
            return Err(TvError::Storage("corrupt PQ codec: header".into()));
        }
        // Total codebook payload is ks * dim floats; clamp before alloc.
        if ks.saturating_mul(dim).saturating_mul(4) > r.remaining() {
            return Err(TvError::Storage("corrupt PQ codec: truncated".into()));
        }
        let base = dim / m;
        let rem = dim % m;
        let mut offsets = Vec::with_capacity(m + 1);
        offsets.push(0usize);
        for s in 0..m {
            let w = base + usize::from(s < rem);
            offsets.push(offsets[s] + w);
        }
        let mut codebooks = Vec::with_capacity(m);
        for s in 0..m {
            codebooks.push(r.f32s(ks * (offsets[s + 1] - offsets[s]))?);
        }
        Ok(PqCodec {
            dim,
            offsets,
            ks,
            codebooks,
        })
    }
}

/// Deterministic Lloyd k-means over an `n × sd` slab; returns a `ks × sd`
/// centroid slab. Init samples `ks` distinct rows via a seeded shuffle;
/// empty clusters keep their previous centroid (stable, deterministic).
fn kmeans(sub: &[f32], n: usize, sd: usize, ks: usize, seed: u64) -> Vec<f32> {
    let k = kernels::active();
    let mut rng = SplitMix64::new(seed);
    let mut picks: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut picks);
    let mut centroids: Vec<f32> = picks[..ks]
        .iter()
        .flat_map(|&i| sub[i as usize * sd..(i as usize + 1) * sd].iter().copied())
        .collect();
    if sd == 0 {
        return centroids;
    }
    let mut dists = vec![0.0f32; ks];
    for _ in 0..TRAIN_ITERS {
        let mut sums = vec![0.0f64; ks * sd];
        let mut counts = vec![0usize; ks];
        for row in sub.chunks_exact(sd) {
            k.l2_sq_batch(row, &centroids, &mut dists);
            let mut best = 0;
            let mut best_d = f32::INFINITY;
            for (c, &dc) in dists.iter().enumerate() {
                if dc < best_d {
                    best_d = dc;
                    best = c;
                }
            }
            counts[best] += 1;
            for (j, &x) in row.iter().enumerate() {
                sums[best * sd + j] += f64::from(x);
            }
        }
        for c in 0..ks {
            if counts[c] > 0 {
                for j in 0..sd {
                    centroids[c * sd + j] = (sums[c * sd + j] / counts[c] as f64) as f32;
                }
            }
        }
    }
    centroids
}

impl QuantizedCodec for PqCodec {
    fn dim(&self) -> usize {
        self.dim
    }

    fn code_len(&self) -> usize {
        self.m()
    }

    fn encode_into(&self, vector: &[f32], out: &mut [u8]) {
        debug_assert_eq!(vector.len(), self.dim);
        debug_assert_eq!(out.len(), self.m());
        let k = kernels::active();
        let mut dists = vec![0.0f32; self.ks];
        for (s, o) in out.iter_mut().enumerate() {
            let sub = &vector[self.offsets[s]..self.offsets[s + 1]];
            k.l2_sq_batch(sub, &self.codebooks[s], &mut dists);
            let mut best = 0u8;
            let mut best_d = f32::INFINITY;
            for (c, &dc) in dists.iter().enumerate() {
                if dc < best_d {
                    best_d = dc;
                    best = c as u8;
                }
            }
            *o = best;
        }
    }

    fn reconstruct_into(&self, code: &[u8], out: &mut [f32]) {
        debug_assert_eq!(code.len(), self.m());
        debug_assert_eq!(out.len(), self.dim);
        for (s, &c) in code.iter().enumerate() {
            let (lo, hi) = (self.offsets[s], self.offsets[s + 1]);
            let sd = hi - lo;
            let row = &self.codebooks[s][c as usize * sd..(c as usize + 1) * sd];
            out[lo..hi].copy_from_slice(row);
        }
    }

    fn memory_bytes(&self) -> usize {
        self.codebooks
            .iter()
            .map(|cb| cb.len() * std::mem::size_of::<f32>())
            .sum::<usize>()
            + self.offsets.len() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        let centers: Vec<Vec<f32>> = (0..8)
            .map(|_| (0..dim).map(|_| rng.next_f32() * 50.0).collect())
            .collect();
        (0..n)
            .flat_map(|_| {
                let c = centers[rng.next_below(8) as usize].clone();
                c.into_iter()
                    .map(|x| x + rng.next_gaussian() as f32)
                    .collect::<Vec<f32>>()
            })
            .collect()
    }

    #[test]
    fn training_is_deterministic_under_fixed_seed() {
        // The satellite property test: same data + seed => bit-identical
        // codebooks and codes.
        let rows = clustered(400, 16, 11);
        let a = PqCodec::train(16, 4, &rows, 42).unwrap();
        let b = PqCodec::train(16, 4, &rows, 42).unwrap();
        assert_eq!(a, b);
        let mut ca = vec![0u8; 4];
        let mut cb = vec![0u8; 4];
        a.encode_into(&rows[..16], &mut ca);
        b.encode_into(&rows[..16], &mut cb);
        assert_eq!(ca, cb);
        // A different seed moves the init and (generically) the codebooks.
        let c = PqCodec::train(16, 4, &rows, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn uneven_split_covers_all_dimensions() {
        let rows = clustered(100, 10, 3);
        let codec = PqCodec::train(10, 3, &rows, 1).unwrap();
        assert_eq!(codec.offsets(), &[0, 4, 7, 10]);
        let mut code = vec![0u8; 3];
        let mut recon = vec![0.0f32; 10];
        codec.encode_into(&rows[..10], &mut code);
        codec.reconstruct_into(&code, &mut recon);
        // Reconstruction error is bounded by the clustered spread.
        let err: f32 = rows[..10]
            .iter()
            .zip(&recon)
            .map(|(a, b)| (a - b).powi(2))
            .sum();
        assert!(err < 100.0, "reconstruction error {err}");
    }

    #[test]
    fn small_training_sets_shrink_ks() {
        let rows = clustered(5, 8, 9);
        let codec = PqCodec::train(8, 2, &rows, 0).unwrap();
        assert_eq!(codec.ks(), 5);
    }

    #[test]
    fn rejects_bad_configs() {
        let rows = clustered(10, 8, 1);
        assert!(PqCodec::train(8, 0, &rows, 0).is_err());
        assert!(PqCodec::train(8, 9, &rows, 0).is_err());
        assert!(PqCodec::train(8, 2, &[], 0).is_err());
        assert!(PqCodec::train(8, 2, &rows[..7], 0).is_err());
    }
}
