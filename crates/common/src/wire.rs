//! The one little-endian byte cursor every durable format is read through,
//! the `put_*` writers that mirror it, and the wire tags of the shared
//! enums.
//!
//! A [`Reader`] never indexes past its input and never allocates for a
//! count it has not first checked against the bytes that are left
//! ([`Reader::count`], [`Reader::fits`]), so a truncated or bit-flipped
//! image is a typed [`TvError::Storage`] naming the artefact, never a panic
//! or a multi-gigabyte allocation.

use crate::config::{GraphLayout, QuantSpec, StorageTier};
use crate::error::{TvError, TvResult};
use crate::metric::DistanceMetric;

/// Bounds-checked cursor over a byte image. `what` names the artefact
/// (`"wal record"`, `"snapshot"`, …) in every error it raises.
pub struct Reader<'a> {
    data: &'a [u8],
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `data`.
    #[must_use]
    pub fn new(data: &'a [u8], what: &'static str) -> Self {
        Reader { data, what }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// An error about this artefact: `"<what>: <detail>"`.
    #[must_use]
    pub fn corrupt(&self, detail: impl std::fmt::Display) -> TvError {
        TvError::Storage(format!("{}: {detail}", self.what))
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> TvResult<&'a [u8]> {
        if n > self.data.len() {
            return Err(TvError::Storage(format!("{} truncated", self.what)));
        }
        let (head, rest) = self.data.split_at(n);
        self.data = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> TvResult<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    /// The next byte.
    pub fn u8(&mut self) -> TvResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> TvResult<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> TvResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// The next little-endian `i64`.
    pub fn i64(&mut self) -> TvResult<i64> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// The next little-endian `f64`.
    pub fn f64(&mut self) -> TvResult<f64> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A flag byte that must be exactly 0 or 1.
    pub fn flag(&mut self) -> TvResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format_args!("flag byte {b}"))),
        }
    }

    /// Refuse `n` items of at least `min_item_bytes` each when they cannot
    /// fit in what is left — the check that precedes every allocation.
    pub fn fits(&self, n: usize, min_item_bytes: usize) -> TvResult<usize> {
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(self.corrupt(format_args!(
                "{n} items of >= {min_item_bytes} bytes declared with {} bytes left",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// A `u32` element count, already checked with [`Reader::fits`].
    pub fn count(&mut self, min_item_bytes: usize) -> TvResult<usize> {
        let n = self.u32()? as usize;
        self.fits(n, min_item_bytes)
    }

    /// `n` little-endian `f32`s, collected into one allocation of `C` (a
    /// `Vec` or an `Arc<[f32]>`).
    pub fn f32s<C: FromIterator<f32>>(&mut self, n: usize) -> TvResult<C> {
        let raw = self.take(self.fits(n, 4)? * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("chunk of 4")))
            .collect())
    }

    /// A `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> TvResult<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> TvResult<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| self.corrupt("string is not UTF-8"))
    }

    /// Every byte must have been consumed.
    pub fn finish(self) -> TvResult<()> {
        if self.data.is_empty() {
            Ok(())
        } else {
            Err(self.corrupt(format_args!("{} trailing bytes", self.data.len())))
        }
    }

    /// A [`DistanceMetric`] tag.
    pub fn metric(&mut self) -> TvResult<DistanceMetric> {
        match self.u8()? {
            0 => Ok(DistanceMetric::L2),
            1 => Ok(DistanceMetric::Cosine),
            2 => Ok(DistanceMetric::InnerProduct),
            t => Err(self.corrupt(format_args!("metric tag {t}"))),
        }
    }

    /// A [`GraphLayout`] tag. Tag 1 was the retired plain-`packed` mode and
    /// is refused like any other unknown tag.
    pub fn layout(&mut self) -> TvResult<GraphLayout> {
        match self.u8()? {
            0 => Ok(GraphLayout::Pointer),
            2 => Ok(GraphLayout::PackedPrefetch),
            t => Err(self.corrupt(format_args!("unsupported layout tag {t}"))),
        }
    }

    /// A [`QuantSpec`] as written by [`put_quant_spec`].
    pub fn quant_spec(&mut self) -> TvResult<QuantSpec> {
        let tier = match self.u8()? {
            0 => StorageTier::F32,
            1 => StorageTier::Sq8,
            2 => StorageTier::Pq {
                m: self.u32()? as usize,
            },
            t => return Err(self.corrupt(format_args!("storage tier tag {t}"))),
        };
        Ok(QuantSpec {
            tier,
            keep_f32: self.flag()?,
            rerank_factor: self.u32()? as usize,
        })
    }
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `f64`.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `vs` as little-endian `f32`s (no length prefix).
pub fn put_f32s(buf: &mut Vec<u8>, vs: &[f32]) {
    buf.reserve(vs.len() * 4);
    for v in vs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Append a `u32`-length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

/// Append a [`DistanceMetric`] tag.
pub fn put_metric(buf: &mut Vec<u8>, m: DistanceMetric) {
    buf.push(match m {
        DistanceMetric::L2 => 0,
        DistanceMetric::Cosine => 1,
        DistanceMetric::InnerProduct => 2,
    });
}

/// Append a [`GraphLayout`] tag.
pub fn put_layout(buf: &mut Vec<u8>, l: GraphLayout) {
    buf.push(match l {
        GraphLayout::Pointer => 0,
        GraphLayout::PackedPrefetch => 2,
    });
}

/// Append a [`QuantSpec`]: tier tag (`m` follows for PQ), the `keep_f32`
/// flag, the rerank factor.
pub fn put_quant_spec(buf: &mut Vec<u8>, q: &QuantSpec) {
    match q.tier {
        StorageTier::F32 => buf.push(0),
        StorageTier::Sq8 => buf.push(1),
        StorageTier::Pq { m } => {
            buf.push(2);
            put_u32(buf, m as u32);
        }
    }
    buf.push(u8::from(q.keep_f32));
    put_u32(buf, q.rerank_factor as u32);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everything_written_reads_back() {
        let spec = QuantSpec::pq(4).with_keep_f32(true);
        let mut buf = vec![7u8];
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_i64(&mut buf, -5);
        put_f64(&mut buf, -2.25);
        put_bytes(&mut buf, "héllo".as_bytes());
        put_f32s(&mut buf, &[0.5, -0.0]);
        put_metric(&mut buf, DistanceMetric::Cosine);
        put_layout(&mut buf, GraphLayout::PackedPrefetch);
        put_quant_spec(&mut buf, &spec);
        let mut r = Reader::new(&buf, "probe");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -5);
        assert_eq!(r.f64().unwrap(), -2.25);
        assert_eq!(r.str().unwrap(), "héllo");
        let bits: Vec<u32> = r
            .f32s::<Vec<f32>>(2)
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        assert_eq!(bits, [0.5f32.to_bits(), (-0.0f32).to_bits()]);
        assert_eq!(r.metric().unwrap(), DistanceMetric::Cosine);
        assert_eq!(r.layout().unwrap(), GraphLayout::PackedPrefetch);
        assert_eq!(r.quant_spec().unwrap(), spec);
        r.finish().unwrap();
    }

    #[test]
    fn damage_is_a_typed_error_and_counts_are_refused_before_allocating() {
        let err = Reader::new(&[1, 2, 3], "probe").u32().unwrap_err();
        assert_eq!(err.to_string(), "storage error: probe truncated");
        let err = Reader::new(&[0], "probe").finish().unwrap_err();
        assert!(err.to_string().contains("probe: 1 trailing bytes"), "{err}");
        assert!(Reader::new(&[9], "probe").metric().is_err());
        assert!(Reader::new(&[1], "probe").layout().is_err());
        assert!(Reader::new(&[3], "probe").quant_spec().is_err());
        assert!(Reader::new(&[2], "probe").flag().is_err());
        assert!(Reader::new(&[1, 0, 0, 0, 0xFF], "probe").str().is_err());
        // A u32::MAX count in a six-byte input.
        let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0, 0];
        assert!(Reader::new(&huge, "probe").count(1).is_err());
        assert!(Reader::new(&huge, "probe").bytes().is_err());
        assert!(Reader::new(&huge, "probe")
            .f32s::<Vec<f32>>(usize::MAX)
            .is_err());
        assert_eq!(Reader::new(&huge, "probe").fits(3, 2).unwrap(), 3);
    }
}
