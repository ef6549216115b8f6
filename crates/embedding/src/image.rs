//! The durable image of one embedding segment — the unit a checkpoint
//! persists, recovery restores and a live migration ships (§4.2–4.3,
//! Fig. 4): one index snapshot plus the vector deltas beyond it, with what
//! the segment was declared as.
//!
//! ```text
//! image := seg:u32 up_to:u64 capacity:u32
//!          quant spec (tv-common::wire)  layout:u8
//!          snapshot_len:u64 snapshot (tv-hnsw::snapshot)
//!          ntail:u32 delta record* (crate::encode)
//! ```
//!
//! Dimension and metric are not repeated: the snapshot's own config carries
//! them. A checkpoint's `emb-*.vec` file is an attribute id followed by this
//! image; a shipped segment is this image with an empty tail.

use crate::encode::{put_delta_record, read_delta_record, MIN_RECORD_BYTES};
use crate::segment::{EmbeddingSegment, IndexSnapshot};
use tv_common::wire::{put_layout, put_quant_spec, put_u32, put_u64, Reader};
use tv_common::{GraphLayout, QuantSpec, SegmentId, Tid, TvError, TvResult};
use tv_hnsw::{snapshot, DeltaRecord, HnswIndex};

/// A decoded segment image. Decoding touches no segment, so a corrupt file
/// fails before anything is installed.
pub struct SegmentImage {
    /// The vertex segment the source was aligned with.
    pub segment_id: SegmentId,
    /// Every delta with `tid <= up_to` is reflected in `index`.
    pub up_to: Tid,
    /// Declared segment capacity.
    pub capacity: usize,
    /// Declared storage-tier spec.
    pub quant: QuantSpec,
    /// Declared search-graph layout.
    pub layout: GraphLayout,
    /// The index snapshot.
    pub index: HnswIndex,
    /// Delta records beyond `up_to`, in commit order.
    pub tail: Vec<DeltaRecord>,
}

impl SegmentImage {
    /// Decode an image written by [`EmbeddingSegment::encode_image`].
    pub fn decode(bytes: &[u8]) -> TvResult<Self> {
        let mut r = Reader::new(bytes, "embedding segment image");
        let segment_id = SegmentId(r.u32()?);
        let up_to = Tid(r.u64()?);
        let capacity = r.u32()? as usize;
        let quant = r.quant_spec()?;
        let layout = r.layout()?;
        let snapshot_len = r.u64()? as usize;
        let index = snapshot::from_bytes(r.take(snapshot_len)?)?;
        let n = r.count(MIN_RECORD_BYTES)?;
        let mut tail: Vec<DeltaRecord> = Vec::with_capacity(n);
        for _ in 0..n {
            let rec = read_delta_record(&mut r)?;
            // Beyond the snapshot and in commit order, or installing the
            // tail would fail after the snapshot was already swapped in.
            if rec.tid <= up_to || tail.last().is_some_and(|prev| rec.tid < prev.tid) {
                return Err(r.corrupt(format_args!(
                    "tail record at TID {} out of order after {up_to}",
                    rec.tid
                )));
            }
            tail.push(rec);
        }
        r.finish()?;
        Ok(SegmentImage {
            segment_id,
            up_to,
            capacity,
            quant,
            layout,
            index,
            tail,
        })
    }
}

impl EmbeddingSegment {
    /// Append to `buf` this segment's declaration, `snap`, and `tail` (the
    /// records beyond `snap.up_to` — see
    /// [`EmbeddingSegment::checkpoint_state`]).
    pub fn encode_image(&self, snap: &IndexSnapshot, tail: &[DeltaRecord], buf: &mut Vec<u8>) {
        put_u32(buf, self.segment_id.0);
        put_u64(buf, snap.up_to.0);
        put_u32(buf, self.capacity() as u32);
        put_quant_spec(buf, &self.quant_spec());
        put_layout(buf, self.layout());
        // The snapshot is written in place; its length is patched in after.
        let len_at = buf.len();
        put_u64(buf, 0);
        snapshot::write_into(&snap.index, buf);
        let len = (buf.len() - len_at - 8) as u64;
        buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
        put_u32(buf, tail.len() as u32);
        for rec in tail {
            put_delta_record(buf, rec);
        }
    }

    /// A new, independent segment holding exactly what `image` holds and
    /// declared as its source was — a migration's destination copy.
    pub fn from_image(image: SegmentImage) -> TvResult<Self> {
        let first = IndexSnapshot {
            up_to: image.up_to,
            index: image.index,
        };
        let seg = Self::declared(
            image.segment_id,
            image.capacity,
            image.quant,
            image.layout,
            first,
        );
        seg.append_deltas(&image.tail)?;
        Ok(seg)
    }

    /// Install `image` into this (pristine) segment. The image must be of a
    /// segment declared like this one: same id, capacity, storage spec,
    /// dimension and metric. (The layout is an execution choice, not data:
    /// this segment keeps its own and compiles into it at the next merge.)
    pub(crate) fn restore_image(&self, image: SegmentImage) -> TvResult<()> {
        let own = self.newest_snapshot();
        let (want, got) = (own.index.config(), image.index.config());
        // (segment, capacity, storage spec, dimension, metric)
        let ours = (
            self.segment_id,
            self.capacity(),
            self.quant_spec(),
            want.dim,
            want.metric,
        );
        let theirs = (
            image.segment_id,
            image.capacity,
            image.quant,
            got.dim,
            got.metric,
        );
        if ours != theirs {
            return Err(TvError::Storage(format!(
                "embedding segment image {theirs:?} does not match the declared segment {ours:?}"
            )));
        }
        self.restore_checkpoint(image.up_to, image.index, &image.tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EmbeddingTypeDef;
    use tv_common::ids::{LocalId, VertexId};
    use tv_common::{DistanceMetric, PlannerConfig, SplitMix64};

    const DIM: usize = 8;
    const SEG: SegmentId = SegmentId(7);
    /// The last TID `source` merges into the index, and its tail's last.
    const BASE: Tid = Tid(140);
    const END: Tid = Tid(152);

    fn def(quant: QuantSpec, layout: GraphLayout) -> EmbeddingTypeDef {
        EmbeddingTypeDef::new("e", DIM, "M", DistanceMetric::Cosine)
            .with_quant(quant)
            .with_layout(layout)
    }

    /// 140 upserts merged into the index (enough for a capacity-256 segment
    /// declared quantized to train its codec), then, `with_tail`, 12 more
    /// records (upserts and a delete) left in the delta stores.
    fn source(quant: QuantSpec, layout: GraphLayout, with_tail: bool) -> EmbeddingSegment {
        let seg = EmbeddingSegment::new(SEG, &def(quant, layout), 256);
        let mut rng = SplitMix64::new(5);
        let mut rec = |i: u32, tid: u64| {
            let v: Vec<f32> = (0..DIM).map(|_| rng.next_f32()).collect();
            DeltaRecord::upsert(VertexId::new(SEG, LocalId(i)), Tid(tid), v)
        };
        let base: Vec<DeltaRecord> = (0..140).map(|i| rec(i, u64::from(i) + 1)).collect();
        seg.append_deltas(&base).unwrap();
        seg.delta_merge(BASE).unwrap();
        seg.index_merge(BASE).unwrap();
        assert_eq!(seg.storage_tier(), quant.tier);
        if with_tail {
            let mut tail: Vec<DeltaRecord> =
                (0..11).map(|i| rec(135 + i, 141 + u64::from(i))).collect();
            tail.push(DeltaRecord::delete(VertexId::new(SEG, LocalId(3)), END));
            seg.append_deltas(&tail).unwrap();
            seg.delta_merge(Tid(146)).unwrap();
        }
        seg
    }

    /// The image of `seg` at `at`: newest visible snapshot + tail.
    fn image_at(seg: &EmbeddingSegment, at: Tid) -> Vec<u8> {
        let (snap, tail) = seg.checkpoint_state(at);
        let mut bytes = Vec::new();
        seg.encode_image(&snap, &tail, &mut bytes);
        bytes
    }

    /// Exact (scan) reads at `tid`, as comparable bits.
    fn reads(seg: &EmbeddingSegment, tid: Tid) -> Vec<(u64, u32)> {
        let planner = PlannerConfig::default().with_brute_threshold(1024);
        let (hits, _) = seg.search(&[0.3; DIM], 20, 64, None, tid, &planner);
        assert!(!hits.is_empty());
        hits.iter().map(|n| (n.id.0, n.dist.to_bits())).collect()
    }

    #[test]
    fn image_roundtrips_across_tiers_layouts_and_tails() {
        for quant in [
            QuantSpec::f32(),
            QuantSpec::sq8(),
            QuantSpec::pq(4).with_keep_f32(true),
        ] {
            for layout in [GraphLayout::Pointer, GraphLayout::PackedPrefetch] {
                for with_tail in [false, true] {
                    let ctx = format!("{quant:?} {layout} tail={with_tail}");
                    let src = source(quant, layout, with_tail);
                    let at = if with_tail { END } else { BASE };
                    let tail = src.delta_tail(BASE, at);
                    assert_eq!(tail.len(), if with_tail { 12 } else { 0 }, "{ctx}");
                    let bytes = image_at(&src, at);

                    let image = SegmentImage::decode(&bytes).unwrap();
                    assert_eq!(
                        (image.segment_id, image.up_to, image.capacity),
                        (SEG, BASE, 256),
                        "{ctx}"
                    );
                    // A copy keeps what its source was declared as.
                    assert_eq!((image.quant, image.layout), (quant, layout), "{ctx}");
                    assert_eq!(image.index.layout(), layout, "{ctx}");
                    assert_eq!(image.tail, tail, "{ctx}");

                    let dst = EmbeddingSegment::new(SEG, &def(quant, layout), 256);
                    dst.restore_image(image).unwrap();
                    assert_eq!(reads(&dst, at), reads(&src, at), "{ctx}");
                    assert_eq!(reads(&dst, BASE), reads(&src, BASE), "{ctx}");
                    // Re-encoding the restored segment reproduces the image,
                    // and so does a copy built from nothing but the image.
                    assert_eq!(image_at(&dst, at), bytes, "{ctx}");
                    let copy = EmbeddingSegment::from_image(SegmentImage::decode(&bytes).unwrap())
                        .unwrap();
                    assert_eq!(reads(&copy, at), reads(&src, at), "{ctx}");
                    assert_eq!(image_at(&copy, at), bytes, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn image_of_a_differently_declared_segment_is_refused() {
        let quant = QuantSpec::sq8();
        let src = source(quant, GraphLayout::PackedPrefetch, true);
        let bytes = image_at(&src, END);
        let other_dim = EmbeddingTypeDef::new("e", DIM + 1, "M", DistanceMetric::Cosine);
        let other_metric = EmbeddingTypeDef::new("e", DIM, "M", DistanceMetric::L2);
        for (why, dst) in [
            (
                "segment id",
                EmbeddingSegment::new(SegmentId(8), &def(quant, GraphLayout::Pointer), 256),
            ),
            (
                "capacity",
                EmbeddingSegment::new(SEG, &def(quant, GraphLayout::Pointer), 128),
            ),
            (
                "quant",
                EmbeddingSegment::new(SEG, &def(QuantSpec::f32(), GraphLayout::Pointer), 256),
            ),
            (
                "dim",
                EmbeddingSegment::new(SEG, &other_dim.with_quant(quant), 256),
            ),
            (
                "metric",
                EmbeddingSegment::new(SEG, &other_metric.with_quant(quant), 256),
            ),
        ] {
            let err = dst
                .restore_image(SegmentImage::decode(&bytes).unwrap())
                .expect_err(why);
            assert!(matches!(err, TvError::Storage(_)), "{why}: {err}");
            assert_eq!(dst.live_count(Tid::MAX), 0, "{why}: nothing installed");
        }
        // A re-declared layout is not a mismatch.
        let dst = EmbeddingSegment::new(SEG, &def(quant, GraphLayout::Pointer), 256);
        dst.restore_image(SegmentImage::decode(&bytes).unwrap())
            .unwrap();
        assert_eq!(reads(&dst, END), reads(&src, END));
    }

    #[test]
    fn damaged_images_are_typed_errors() {
        let src = source(QuantSpec::sq8(), GraphLayout::PackedPrefetch, true);
        let bytes = image_at(&src, END);
        // Every byte participates in the parse: no strict prefix decodes.
        for cut in 0..bytes.len() {
            assert!(SegmentImage::decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(SegmentImage::decode(&trailing).is_err());
        // The header fields in front of the snapshot: a flip either fails
        // or decodes to a declaration `restore_image` then refuses.
        let dst = || EmbeddingSegment::new(SEG, &def(QuantSpec::sq8(), GraphLayout::Pointer), 256);
        for pos in 0..31 {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x40;
            if let Ok(image) = SegmentImage::decode(&flipped) {
                let same_declaration =
                    (image.segment_id, image.capacity, image.quant) == (SEG, 256, QuantSpec::sq8());
                assert_eq!(
                    dst().restore_image(image).is_ok(),
                    same_declaration,
                    "byte {pos}"
                );
            }
        }
    }
}
