//! The common codec trait and the serializable codec sum type.

use crate::quant::pq::PqCodec;
use crate::quant::sq8::Sq8Codec;
use tv_common::wire::Reader;
use tv_common::{StorageTier, TvError, TvResult};

/// What every quantized representation must provide: fixed-width encoding
/// of f32 vectors into byte codes and reconstruction back. Codecs are
/// immutable after training — incremental inserts encode with the frozen
/// codec, which is what keeps codes deterministic across merges and crash
/// recovery.
pub(crate) trait QuantizedCodec {
    /// Dimensionality of the vectors this codec encodes.
    fn dim(&self) -> usize;
    /// Bytes per encoded vector.
    fn code_len(&self) -> usize;
    /// Encode `vector` (length [`Self::dim`]) into `out` (length
    /// [`Self::code_len`]).
    fn encode_into(&self, vector: &[f32], out: &mut [u8]);
    /// Decode `code` into `out` (length [`Self::dim`]).
    fn reconstruct_into(&self, code: &[u8], out: &mut [f32]);
    /// Resident bytes of the codec's own parameters (ranges / codebooks) —
    /// counted by the index-level `memory_bytes` audits.
    fn memory_bytes(&self) -> usize;
}

/// Version tag of the codec wire format (bumped on layout change).
const CODEC_VERSION: u8 = 1;
const TAG_SQ8: u8 = 1;
const TAG_PQ: u8 = 2;

/// A trained codec of either kind, with a versioned binary wire format so
/// codecs flow through index snapshots and the durability container
/// bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Codec {
    /// Scalar quantization (1 byte/dim).
    Sq8(Sq8Codec),
    /// Product quantization (`m` bytes/vector).
    Pq(PqCodec),
}

impl Codec {
    /// Train the codec named by `tier` on `rows` (a contiguous `n × dim`
    /// slab). `seed` drives PQ's k-means init (ignored by SQ8). Errors for
    /// `StorageTier::F32` (nothing to train) and for empty training data.
    pub(crate) fn train(tier: StorageTier, dim: usize, rows: &[f32], seed: u64) -> TvResult<Self> {
        match tier {
            StorageTier::F32 => Err(TvError::InvalidArgument(
                "StorageTier::F32 has no codec".into(),
            )),
            StorageTier::Sq8 => Ok(Codec::Sq8(Sq8Codec::train(dim, rows)?)),
            StorageTier::Pq { m } => Ok(Codec::Pq(PqCodec::train(dim, m, rows, seed)?)),
        }
    }

    /// The storage tier this codec implements.
    #[must_use]
    pub(crate) fn tier(&self) -> StorageTier {
        match self {
            Codec::Sq8(_) => StorageTier::Sq8,
            Codec::Pq(pq) => StorageTier::Pq { m: pq.m() },
        }
    }

    /// Whether every byte of a code arena is one this codec could have
    /// written: a PQ code byte selects one of `ks <= 256` centroids, and a
    /// larger one would index past the codebook (and every ADC table built
    /// from it). Checked on codes that arrive from outside the process.
    #[must_use]
    pub(crate) fn accepts(&self, codes: &[u8]) -> bool {
        match self {
            Codec::Sq8(_) => true,
            Codec::Pq(pq) => pq.ks() == 256 || codes.iter().all(|&c| usize::from(c) < pq.ks()),
        }
    }

    /// Serialize into the versioned wire format.
    #[must_use]
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut buf = vec![CODEC_VERSION];
        match self {
            Codec::Sq8(c) => {
                buf.push(TAG_SQ8);
                c.write(&mut buf);
            }
            Codec::Pq(c) => {
                buf.push(TAG_PQ);
                c.write(&mut buf);
            }
        }
        buf
    }

    /// Deserialize; rejects unknown versions/tags, truncation, and trailing
    /// bytes.
    pub(crate) fn from_bytes(data: &[u8]) -> TvResult<Self> {
        let mut r = Reader::new(data, "codec");
        if r.u8()? != CODEC_VERSION {
            return Err(TvError::Storage("unknown codec version".into()));
        }
        let codec = match r.u8()? {
            TAG_SQ8 => Codec::Sq8(Sq8Codec::read(&mut r)?),
            TAG_PQ => Codec::Pq(PqCodec::read(&mut r)?),
            _ => return Err(TvError::Storage("unknown codec tag".into())),
        };
        r.finish()?;
        Ok(codec)
    }
}

impl QuantizedCodec for Codec {
    fn dim(&self) -> usize {
        match self {
            Codec::Sq8(c) => c.dim(),
            Codec::Pq(c) => c.dim(),
        }
    }

    fn code_len(&self) -> usize {
        match self {
            Codec::Sq8(c) => c.code_len(),
            Codec::Pq(c) => c.code_len(),
        }
    }

    fn encode_into(&self, vector: &[f32], out: &mut [u8]) {
        match self {
            Codec::Sq8(c) => c.encode_into(vector, out),
            Codec::Pq(c) => c.encode_into(vector, out),
        }
    }

    fn reconstruct_into(&self, code: &[u8], out: &mut [f32]) {
        match self {
            Codec::Sq8(c) => c.reconstruct_into(code, out),
            Codec::Pq(c) => c.reconstruct_into(code, out),
        }
    }

    fn memory_bytes(&self) -> usize {
        match self {
            Codec::Sq8(c) => c.memory_bytes(),
            Codec::Pq(c) => c.memory_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::SplitMix64;

    fn slab(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..n * dim).map(|_| rng.next_f32() * 4.0 - 2.0).collect()
    }

    #[test]
    fn f32_tier_has_no_codec() {
        assert!(Codec::train(StorageTier::F32, 8, &slab(10, 8, 1), 0).is_err());
    }

    #[test]
    fn serialization_roundtrips_bit_identically() {
        let rows = slab(300, 12, 5);
        for tier in [StorageTier::Sq8, StorageTier::Pq { m: 4 }] {
            let codec = Codec::train(tier, 12, &rows, 99).unwrap();
            let bytes = codec.to_bytes();
            let back = Codec::from_bytes(&bytes).unwrap();
            assert_eq!(codec, back);
            assert_eq!(bytes, back.to_bytes(), "re-serialization must be stable");
            assert_eq!(back.tier(), tier);
        }
    }

    /// Captured before the encoders moved to `tv_common::wire`. SQ8 training
    /// is min/max, the same on every kernel tier; PQ's k-means rounds per
    /// tier, so its pin binds on the scalar tier (`make quant-smoke`).
    #[test]
    fn codec_image_bytes_are_pinned() {
        let rows = slab(300, 12, 5);
        let image = |tier| Codec::train(tier, 12, &rows, 99).unwrap().to_bytes();
        let sq8 = tv_common::crc32(&image(StorageTier::Sq8));
        let pq = tv_common::crc32(&image(StorageTier::Pq { m: 4 }));
        assert_eq!(sq8, 0x712c_933a);
        if tv_common::kernels::active().tier() == tv_common::KernelTier::Scalar {
            assert_eq!(pq, 0x6f4f_f777);
        }
    }

    #[test]
    fn truncation_and_corruption_rejected() {
        let rows = slab(50, 8, 2);
        let bytes = Codec::train(StorageTier::Sq8, 8, &rows, 0)
            .unwrap()
            .to_bytes();
        for cut in 0..bytes.len() {
            assert!(Codec::from_bytes(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Codec::from_bytes(&trailing).is_err());
        let mut bad_tag = bytes.clone();
        bad_tag[1] = 9;
        assert!(Codec::from_bytes(&bad_tag).is_err());
        let mut bad_ver = bytes;
        bad_ver[0] = 99;
        assert!(Codec::from_bytes(&bad_ver).is_err());
    }

    #[test]
    fn pq_huge_declared_header_fails_before_alloc() {
        use tv_common::wire::put_u32;
        let mut buf = vec![CODEC_VERSION, TAG_PQ];
        put_u32(&mut buf, u32::MAX); // dim
        put_u32(&mut buf, 1); // m
        put_u32(&mut buf, 256); // ks
        assert!(Codec::from_bytes(&buf).is_err());
    }
}
