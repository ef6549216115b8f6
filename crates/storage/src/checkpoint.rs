//! Binary serialization of graph segment images for the checkpoint
//! subsystem (the `CheckpointManager` in `tg-graph` wraps these payloads in
//! `tv-common::durafile` containers, which supply the CRC and version).
//!
//! ```text
//! image  := up_to:u64 cap:u32 live[cap]:u8
//!           (nattrs:u32 value*)[cap]            attribute rows
//!           netypes:u32 (etype:u32 (ntargets:u32 vid:u64*)[cap])*
//! ```
//!
//! Decoding validates counts against the remaining input before allocating,
//! so a truncated or bit-flipped payload yields `Err`, never a huge
//! allocation or a panic.

use crate::segment::SegmentSnapshot;
use crate::value::AttrValue;
use crate::wal::{decode_value, encode_value};
use std::collections::HashMap;
use tv_common::wire::{put_u32, put_u64, Reader};
use tv_common::{Tid, TvResult, VertexId};

/// Largest segment capacity we will ever deserialize; images beyond this are
/// rejected as corrupt (real segments are far smaller, see `SegmentLayout`).
const MAX_IMAGE_CAPACITY: usize = 1 << 24;

/// Serialize one segment image.
#[must_use]
pub fn encode_segment_image(snap: &SegmentSnapshot) -> Vec<u8> {
    let cap = snap.capacity();
    let mut b = Vec::new();
    put_u64(&mut b, snap.up_to.0);
    put_u32(&mut b, cap as u32);
    b.extend(snap.live().iter().map(|&alive| u8::from(alive)));
    for row in snap.attrs() {
        put_u32(&mut b, row.len() as u32);
        for v in row {
            encode_value(&mut b, v);
        }
    }
    // Deterministic edge-type order so identical states produce identical
    // bytes (the torture test compares files across runs).
    let mut etypes: Vec<u32> = snap.edges().keys().copied().collect();
    etypes.sort_unstable();
    put_u32(&mut b, etypes.len() as u32);
    for etype in etypes {
        put_u32(&mut b, etype);
        for targets in &snap.edges()[&etype] {
            put_u32(&mut b, targets.len() as u32);
            for t in targets {
                put_u64(&mut b, t.0);
            }
        }
    }
    b
}

/// Deserialize one segment image, validating every count against the bytes
/// actually present.
pub fn decode_segment_image(buf: &[u8]) -> TvResult<SegmentSnapshot> {
    let mut r = Reader::new(buf, "segment image");
    let up_to = Tid(r.u64()?);
    // Each slot costs at least its liveness byte.
    let cap = r.count(1)?;
    if cap > MAX_IMAGE_CAPACITY {
        return Err(r.corrupt(format_args!("capacity {cap} exceeds the maximum")));
    }
    let live = r.take(cap)?.iter().map(|&b| b != 0).collect();
    let mut attrs: Vec<Vec<AttrValue>> = Vec::with_capacity(cap);
    for _ in 0..cap {
        let n = r.count(1)?;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(decode_value(&mut r)?);
        }
        attrs.push(row);
    }
    let netypes = r.count(1)?;
    let mut edges: HashMap<u32, Vec<Vec<VertexId>>> = HashMap::with_capacity(netypes);
    for _ in 0..netypes {
        let etype = r.u32()?;
        let mut per_local = Vec::with_capacity(cap);
        for _ in 0..cap {
            let n = r.count(8)?;
            let mut targets = Vec::with_capacity(n);
            for _ in 0..n {
                targets.push(VertexId(r.u64()?));
            }
            per_local.push(targets);
        }
        if edges.insert(etype, per_local).is_some() {
            return Err(r.corrupt(format_args!("duplicate edge type {etype}")));
        }
    }
    r.finish()?;
    SegmentSnapshot::from_parts(up_to, live, attrs, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::GraphDelta;
    use crate::segment::SegmentStore;
    use tv_common::ids::{LocalId, SegmentId};
    use tv_common::SplitMix64;

    fn vid(seg: u32, local: u32) -> VertexId {
        VertexId::new(SegmentId(seg), LocalId(local))
    }

    fn populated_store() -> SegmentStore {
        let mut s = SegmentStore::new(SegmentId(0), 8, 2);
        for i in 0..6u32 {
            s.append_delta(
                Tid(u64::from(i) + 1),
                GraphDelta::UpsertVertex {
                    id: vid(0, i),
                    attrs: vec![
                        AttrValue::Str(format!("v{i}")),
                        AttrValue::Double(f64::from(i) * 0.5),
                    ],
                },
            )
            .unwrap();
        }
        s.append_delta(
            Tid(7),
            GraphDelta::AddEdge {
                etype: 2,
                from: vid(0, 0),
                to: vid(0, 3),
            },
        )
        .unwrap();
        s.append_delta(Tid(8), GraphDelta::DeleteVertex { id: vid(0, 5) })
            .unwrap();
        s
    }

    #[test]
    fn image_roundtrips_bit_identically() {
        let store = populated_store();
        let image = store.image_at(Tid(8));
        let bytes = encode_segment_image(&image);
        let decoded = decode_segment_image(&bytes).unwrap();
        assert_eq!(decoded.up_to, Tid(8));
        assert_eq!(decoded.live(), image.live());
        assert_eq!(decoded.attrs(), image.attrs());
        assert_eq!(decoded.edges(), image.edges());
        // Re-encoding is deterministic (manifest CRCs depend on this).
        assert_eq!(encode_segment_image(&decoded), bytes);
    }

    /// Captured before the encoder moved to `tv_common::wire`.
    #[test]
    fn segment_image_bytes_are_pinned() {
        let crc = tv_common::crc32(&encode_segment_image(&populated_store().image_at(Tid(8))));
        assert_eq!(crc, 0x3667_ff7b, "{crc:#010x}");
    }

    #[test]
    fn image_at_respects_tid_horizon_without_mutation() {
        let store = populated_store();
        let early = store.image_at(Tid(3));
        assert_eq!(early.live_count(), 3);
        assert_eq!(early.up_to, Tid(3));
        // The store itself is untouched.
        assert_eq!(store.pending_deltas(), 8);
        let full = store.image_at(Tid(100));
        assert_eq!(full.live_count(), 5);
        assert_eq!(full.up_to, Tid(100));
    }

    #[test]
    fn restore_rejects_mismatched_capacity_and_pending_deltas() {
        let store = populated_store();
        let image = store.image_at(Tid(8));
        let mut wrong_cap = SegmentStore::new(SegmentId(0), 4, 2);
        assert!(wrong_cap.restore(image.clone()).is_err());
        let mut dirty = populated_store();
        assert!(dirty.restore(image).is_err());
    }

    #[test]
    fn restore_then_read_matches_source() {
        let source = populated_store();
        let image = source.image_at(Tid(8));
        let mut restored = SegmentStore::new(SegmentId(0), 8, 2);
        restored.restore(image).unwrap();
        let tid = Tid(8);
        for local in 0..8 {
            assert_eq!(
                restored.is_live(local, tid),
                source.is_live(local, tid),
                "local {local}"
            );
            assert_eq!(restored.row(local, tid), source.row(local, tid));
            assert_eq!(restored.edges(local, 2, tid), source.edges(local, 2, tid));
        }
    }

    #[test]
    fn corrupt_image_bytes_error_without_panic() {
        let store = populated_store();
        let bytes = encode_segment_image(&store.image_at(Tid(8)));
        // Truncations at every prefix length.
        for cut in 0..bytes.len() {
            let _ = decode_segment_image(&bytes[..cut]);
        }
        // Deterministic byte flips sprinkled over the payload: decode must
        // return (Ok or Err) without panicking or over-allocating.
        let mut rng = SplitMix64::new(0xC0FFEE);
        for _ in 0..200 {
            let mut mutated = bytes.clone();
            let pos = (rng.next_u64() as usize) % mutated.len();
            let bit = (rng.next_u64() % 8) as u32;
            mutated[pos] ^= 1 << bit;
            let _ = decode_segment_image(&mutated);
        }
        // A tiny header claiming a huge capacity must be rejected cheaply.
        let mut tiny = Vec::new();
        tiny.extend_from_slice(&1u64.to_le_bytes());
        tiny.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_segment_image(&tiny).is_err());
    }
}
