//! Binary snapshot serialization for HNSW indexes.
//!
//! The index-merge vacuum produces *index snapshots* that the engine switches
//! to atomically (§4.3, Fig. 4). A snapshot is a self-contained byte image:
//! config, keys, vectors, levels, tombstones, adjacency, and entry point.
//! The format is a simple length-prefixed little-endian layout — versioned,
//! with a magic header, so corrupt or foreign files fail loudly instead of
//! deserializing garbage.

use crate::config::HnswConfig;
use crate::index::HnswIndex;
use crate::packed::PackedGraph;
use crate::quant_state::{CodeStore, QuantState};
use tv_common::{DistanceMetric, QuantSpec, StorageTier, TvError, TvResult, VertexId};
use tv_quant::{Codec, QuantizedCodec};

const MAGIC: &[u8; 8] = b"TVHNSW01";
/// Version 2 adds the quantized-storage block (and makes the f32 arena
/// optional). Unquantized indexes still serialize as v1 byte-for-byte, so
/// every pre-existing snapshot and checkpoint stays readable and stable.
const MAGIC2: &[u8; 8] = b"TVHNSW02";
/// Version 3 marks a **compiled** (CSR-packed, BFS-reordered) index: a
/// layout tag and a quant-presence flag, followed by exactly the v1/v2
/// payload. The stored slot order *is* the compiled order, so loading
/// rebuilds the CSR without re-permuting and re-serialization reproduces
/// the image byte-for-byte. Uncompiled indexes keep writing v1/v2.
const MAGIC3: &[u8; 8] = b"TVHNSW03";

/// Tag 1 marked the retired plain-`packed` mode (the same CSR image, served
/// without prefetch); it still loads, as the one compiled form.
const LAYOUT_PACKED_LEGACY: u8 = 1;
const LAYOUT_PACKED_PREFETCH: u8 = 2;

const TIER_SQ8: u8 = 1;
const TIER_PQ: u8 = 2;

/// Serialize an index into a byte buffer.
#[must_use]
pub fn to_bytes(index: &HnswIndex) -> Vec<u8> {
    let quant = index.quant.as_ref();
    // A compiled index keeps no pointer forest; materialize one for the
    // stable on-disk shape (slot order is already the BFS order).
    let thawed = index.packed.as_ref().map(PackedGraph::to_links);
    let links = thawed.as_deref().unwrap_or(&index.links);
    let mut buf = Vec::with_capacity(64 + index.vectors.len() * 4 + index.keys.len() * 16);
    match (&thawed, quant) {
        (Some(_), _) => {
            buf.extend_from_slice(MAGIC3);
            buf.push(LAYOUT_PACKED_PREFETCH);
            buf.push(u8::from(quant.is_some()));
        }
        (None, Some(_)) => buf.extend_from_slice(MAGIC2),
        (None, None) => buf.extend_from_slice(MAGIC),
    }
    write_header(&mut buf, &index.cfg, index.keys.len());
    if quant.is_some() {
        // Whether the f32 arena follows (codes-only tiers drop it).
        buf.push(u8::from(!index.vectors.is_empty()));
    }
    write_body(&mut buf, index, links);
    if let Some(q) = quant {
        write_quant(&mut buf, q);
    }
    buf
}

fn write_header(buf: &mut Vec<u8>, cfg: &HnswConfig, n: usize) {
    // Config.
    put_u64(buf, cfg.dim as u64);
    buf.push(metric_tag(cfg.metric));
    put_u64(buf, cfg.m as u64);
    put_u64(buf, cfg.m0 as u64);
    put_u64(buf, cfg.ef_construction as u64);
    put_f64(buf, cfg.ml.unwrap_or(f64::NAN));
    put_u64(buf, cfg.seed);
    // Node count.
    put_u64(buf, n as u64);
}

/// Everything after the header; `links` is the index's adjacency in forest
/// form (thawed by the caller when the index is compiled).
fn write_body(buf: &mut Vec<u8>, index: &HnswIndex, links: &[Vec<Vec<u32>>]) {
    // Keys.
    for k in &index.keys {
        put_u64(buf, k.0);
    }
    // Levels + deleted flags.
    buf.extend(index.levels.iter().copied());
    buf.extend(index.deleted.iter().map(|&d| u8::from(d)));
    // Vectors (absent in codes-only v2 snapshots).
    for v in &index.vectors {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    // Links: per node, level count then per-level neighbor lists.
    for per_node in links {
        put_u32(buf, per_node.len() as u32);
        for level_links in per_node {
            put_u32(buf, level_links.len() as u32);
            for &nb in level_links {
                put_u32(buf, nb);
            }
        }
    }
    // Entry point.
    match index.entry {
        Some((slot, lvl)) => {
            buf.push(1);
            put_u32(buf, slot);
            buf.push(lvl);
        }
        None => buf.push(0),
    }
}

/// Quantized-storage block: spec, codec image, code arena, reconstruction
/// norms, and the optional rerank side store. Norms are serialized (not
/// recomputed on load) so recovery is bit-identical by construction.
fn write_quant(buf: &mut Vec<u8>, q: &QuantState) {
    match q.spec.tier {
        StorageTier::Sq8 => buf.push(TIER_SQ8),
        StorageTier::Pq { m } => {
            buf.push(TIER_PQ);
            put_u32(buf, m as u32);
        }
        StorageTier::F32 => unreachable!("quant state never carries the f32 tier"),
    }
    buf.push(u8::from(q.spec.keep_f32));
    put_u32(buf, q.spec.rerank_factor as u32);
    write_codec_block(buf, &q.main);
    match &q.rerank {
        Some(r) => {
            buf.push(1);
            write_codec_block(buf, r);
        }
        None => buf.push(0),
    }
}

fn write_codec_block(buf: &mut Vec<u8>, store: &CodeStore) {
    let image = store.codec.to_bytes();
    put_u32(buf, image.len() as u32);
    buf.extend_from_slice(&image);
    put_u32(buf, store.codec.code_len() as u32);
    buf.extend_from_slice(&store.codes);
    put_u32(buf, store.recon_norms.len() as u32);
    for &v in &store.recon_norms {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Deserialize an index from a snapshot buffer (either version).
pub fn from_bytes(data: &[u8]) -> TvResult<HnswIndex> {
    let mut r = Reader { data, pos: 0 };
    let magic = r.take(8)?;
    let v2 = magic == MAGIC2;
    let v3 = magic == MAGIC3;
    if magic != MAGIC && !v2 && !v3 {
        return Err(TvError::Storage("bad snapshot magic".into()));
    }
    // v3 prefixes a compiled-layout tag and a quant-presence flag before
    // the common payload.
    if v3 && !matches!(r.u8()?, LAYOUT_PACKED_LEGACY | LAYOUT_PACKED_PREFETCH) {
        return Err(TvError::Storage("corrupt snapshot: layout tag".into()));
    }
    let has_quant = if v3 {
        match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(TvError::Storage("corrupt snapshot: quant flag".into())),
        }
    } else {
        v2
    };
    let dim = r.u64()? as usize;
    let metric = metric_from_tag(r.u8()?)?;
    let m = r.u64()? as usize;
    let m0 = r.u64()? as usize;
    let ef_construction = r.u64()? as usize;
    let ml_raw = r.f64()?;
    let seed = r.u64()?;
    let cfg = HnswConfig {
        dim,
        metric,
        m,
        m0,
        ef_construction,
        ml: if ml_raw.is_nan() { None } else { Some(ml_raw) },
        seed,
    };
    let n = r.u64()? as usize;
    if n > (u32::MAX as usize) {
        return Err(TvError::Storage("snapshot too large".into()));
    }
    // Quantized snapshots carry an explicit "arena present" flag
    // (codes-only tiers drop the f32 vectors); others always have it.
    let vectors_present = if has_quant { r.u8()? != 0 } else { true };
    // Every node occupies at least 8 (key) + 1 (level) + 1 (tombstone) +
    // 4*dim (vector, when present) + 4 (link count) bytes. Clamp the
    // declared count against the bytes actually present BEFORE any
    // allocation, so a corrupt header in a tiny file cannot demand
    // gigabytes.
    let per_node_vec = if vectors_present {
        dim.saturating_mul(4)
    } else {
        0
    };
    let min_node_bytes = 14usize.saturating_add(per_node_vec);
    if n.saturating_mul(min_node_bytes) > r.remaining() {
        return Err(TvError::Storage(format!(
            "corrupt snapshot: {n} nodes cannot fit in {} remaining bytes",
            r.remaining()
        )));
    }
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        keys.push(VertexId(r.u64()?));
    }
    let levels = r.take(n)?.to_vec();
    let deleted: Vec<bool> = r.take(n)?.iter().map(|&b| b != 0).collect();
    let mut vectors = Vec::new();
    if vectors_present {
        let vec_count = n
            .checked_mul(dim)
            .ok_or_else(|| TvError::Storage("corrupt snapshot: vector count overflow".into()))?;
        if vec_count.saturating_mul(4) > r.remaining() {
            return Err(TvError::Storage("truncated snapshot".into()));
        }
        vectors.reserve_exact(vec_count);
        for _ in 0..vec_count {
            vectors.push(r.f32()?);
        }
    }
    let mut links = Vec::with_capacity(n);
    for _ in 0..n {
        let lc = r.u32()? as usize;
        if lc > 64 {
            return Err(TvError::Storage("corrupt snapshot: level count".into()));
        }
        let mut per_node = Vec::with_capacity(lc);
        for _ in 0..lc {
            let cnt = r.u32()? as usize;
            if cnt > n {
                return Err(TvError::Storage("corrupt snapshot: neighbor count".into()));
            }
            let mut l = Vec::with_capacity(cnt);
            for _ in 0..cnt {
                let nb = r.u32()?;
                if nb as usize >= n {
                    return Err(TvError::Storage("corrupt snapshot: neighbor id".into()));
                }
                l.push(nb);
            }
            per_node.push(l);
        }
        links.push(per_node);
    }
    let entry = match r.u8()? {
        0 => None,
        1 => {
            let slot = r.u32()?;
            let lvl = r.u8()?;
            if slot as usize >= n {
                return Err(TvError::Storage(format!(
                    "corrupt snapshot: entry slot {slot} out of range (n={n})"
                )));
            }
            // A node at level L carries L+1 adjacency lists; the entry
            // level must address one of them or the first search step
            // would index out of bounds.
            if usize::from(lvl) >= links[slot as usize].len() {
                return Err(TvError::Storage(format!(
                    "corrupt snapshot: entry level {lvl} exceeds node level"
                )));
            }
            Some((slot, lvl))
        }
        _ => return Err(TvError::Storage("corrupt snapshot: entry tag".into())),
    };
    let quant = if has_quant {
        Some(read_quant(&mut r, n, !vectors.is_empty())?)
    } else {
        None
    };
    if r.remaining() != 0 {
        return Err(TvError::Storage(format!(
            "corrupt snapshot: {} trailing bytes",
            r.remaining()
        )));
    }
    let mut index =
        HnswIndex::from_parts(cfg, vectors, keys, links, levels, deleted, entry, quant)?;
    if v3 {
        index.compile_from_stored();
    }
    Ok(index)
}

fn read_quant(r: &mut Reader<'_>, n: usize, arena_present: bool) -> TvResult<QuantState> {
    let tier = match r.u8()? {
        TIER_SQ8 => StorageTier::Sq8,
        TIER_PQ => StorageTier::Pq {
            m: r.u32()? as usize,
        },
        _ => return Err(TvError::Storage("corrupt snapshot: tier tag".into())),
    };
    let keep_f32 = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(TvError::Storage("corrupt snapshot: keep_f32 flag".into())),
    };
    if keep_f32 != arena_present {
        return Err(TvError::Storage(
            "corrupt snapshot: keep_f32 disagrees with arena presence".into(),
        ));
    }
    let rerank_factor = r.u32()? as usize;
    let main = read_codec_block(r, n)?;
    if main.codec.tier() != tier {
        return Err(TvError::Storage(
            "corrupt snapshot: codec disagrees with tier tag".into(),
        ));
    }
    let rerank = match r.u8()? {
        0 => None,
        1 => Some(read_codec_block(r, n)?),
        _ => return Err(TvError::Storage("corrupt snapshot: rerank flag".into())),
    };
    let spec = QuantSpec {
        tier,
        keep_f32,
        rerank_factor,
    };
    Ok(QuantState { spec, main, rerank })
}

fn read_codec_block(r: &mut Reader<'_>, n: usize) -> TvResult<CodeStore> {
    let image_len = r.u32()? as usize;
    let codec = Codec::from_bytes(r.take(image_len)?)?;
    let code_len = r.u32()? as usize;
    if code_len != codec.code_len() {
        return Err(TvError::Storage(
            "corrupt snapshot: code length disagrees with codec".into(),
        ));
    }
    let total = n
        .checked_mul(code_len)
        .ok_or_else(|| TvError::Storage("corrupt snapshot: code arena overflow".into()))?;
    let codes = r.take(total)?.to_vec();
    let norm_count = r.u32()? as usize;
    if norm_count != 0 && norm_count != n {
        return Err(TvError::Storage(
            "corrupt snapshot: reconstruction norm count".into(),
        ));
    }
    let mut recon_norms = Vec::with_capacity(norm_count);
    for _ in 0..norm_count {
        recon_norms.push(r.f32()?);
    }
    Ok(CodeStore {
        codec,
        codes,
        recon_norms,
    })
}

fn metric_tag(m: DistanceMetric) -> u8 {
    match m {
        DistanceMetric::L2 => 0,
        DistanceMetric::Cosine => 1,
        DistanceMetric::InnerProduct => 2,
    }
}

fn metric_from_tag(t: u8) -> TvResult<DistanceMetric> {
    match t {
        0 => Ok(DistanceMetric::L2),
        1 => Ok(DistanceMetric::Cosine),
        2 => Ok(DistanceMetric::InnerProduct),
        _ => Err(TvError::Storage("corrupt snapshot: metric tag".into())),
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
    fn take(&mut self, n: usize) -> TvResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(TvError::Storage("truncated snapshot".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> TvResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> TvResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> TvResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> TvResult<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> TvResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::VectorIndex;
    use tv_common::bitmap::Filter;
    use tv_common::ids::{LocalId, SegmentId};
    use tv_common::SplitMix64;

    fn key(i: u32) -> VertexId {
        VertexId::new(SegmentId(3), LocalId(i))
    }

    fn sample_index(n: usize) -> HnswIndex {
        let mut rng = SplitMix64::new(77);
        let mut idx = HnswIndex::new(HnswConfig::new(8, DistanceMetric::L2));
        for i in 0..n {
            let v: Vec<f32> = (0..8).map(|_| rng.next_f32()).collect();
            idx.insert(key(i as u32), &v).unwrap();
        }
        idx
    }

    #[test]
    fn roundtrip_preserves_results() {
        let mut idx = sample_index(300);
        idx.remove(key(5));
        let q: Vec<f32> = vec![0.5; 8];
        let (before, _) = idx.top_k(&q, 10, 64, Filter::All);

        let bytes = to_bytes(&idx);
        let restored = from_bytes(&bytes).unwrap();
        let (after, _) = restored.top_k(&q, 10, 64, Filter::All);

        assert_eq!(
            before.iter().map(|n| n.id).collect::<Vec<_>>(),
            after.iter().map(|n| n.id).collect::<Vec<_>>()
        );
        assert_eq!(restored.len(), idx.len());
        assert_eq!(restored.tombstone_count(), idx.tombstone_count());
    }

    #[test]
    fn roundtrip_empty_index() {
        let idx = HnswIndex::new(HnswConfig::new(4, DistanceMetric::Cosine));
        let restored = from_bytes(&to_bytes(&idx)).unwrap();
        assert_eq!(restored.len(), 0);
        assert_eq!(restored.metric(), DistanceMetric::Cosine);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&sample_index(10));
        bytes[0] = b'X';
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_rejected() {
        let bytes = to_bytes(&sample_index(10));
        assert!(from_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(from_bytes(&bytes[..4]).is_err());
        assert!(from_bytes(&[]).is_err());
    }

    #[test]
    fn huge_declared_count_in_tiny_file_rejected_cheaply() {
        // 50-byte file claiming ~2^62 nodes: must fail fast on the clamp,
        // never attempt the multi-GB allocation.
        let valid = to_bytes(&sample_index(3));
        let mut bytes = valid[..50].to_vec();
        // Node count lives right after magic(8) + dim(8) + metric(1) +
        // m(8) + m0(8) + ef(8) + ml(8) + seed(8) = offset 57 in a full
        // header; rebuild a minimal header instead of patching offsets.
        bytes.clear();
        bytes.extend_from_slice(MAGIC);
        put_u64(&mut bytes, 8); // dim
        bytes.push(0); // metric
        put_u64(&mut bytes, 16); // m
        put_u64(&mut bytes, 32); // m0
        put_u64(&mut bytes, 100); // ef_construction
        put_f64(&mut bytes, f64::NAN); // ml
        put_u64(&mut bytes, 42); // seed
        put_u64(&mut bytes, 1 << 62); // node count
        assert!(bytes.len() < 70);
        assert!(from_bytes(&bytes).is_err());
        // Same for a count that overflows n * dim.
        let cnt_off = bytes.len() - 8;
        bytes[cnt_off..].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn corrupt_entry_point_rejected() {
        let bytes = to_bytes(&sample_index(20));
        // The entry record is the final 6 bytes: tag(1) slot(4) lvl(1).
        let slot_off = bytes.len() - 5;
        let lvl_off = bytes.len() - 1;
        assert_eq!(bytes[bytes.len() - 6], 1, "sample index has an entry");

        let mut bad_slot = bytes.clone();
        bad_slot[slot_off..slot_off + 4].copy_from_slice(&999u32.to_le_bytes());
        assert!(from_bytes(&bad_slot).is_err());

        let mut bad_lvl = bytes.clone();
        bad_lvl[lvl_off] = 200;
        assert!(from_bytes(&bad_lvl).is_err());
    }

    #[test]
    fn truncation_fuzz_always_errs_never_panics() {
        let bytes = to_bytes(&sample_index(40));
        // Every strict prefix must fail cleanly: each byte participates in
        // the parse, so no truncation can silently decode.
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }

    #[test]
    fn byte_flip_fuzz_never_panics_or_overallocates() {
        let bytes = to_bytes(&sample_index(40));
        let mut rng = SplitMix64::new(0xF1A5);
        // Deterministic single-bit flips across the whole image. Decoding
        // may succeed (a flipped vector lane is still a valid snapshot) but
        // must never panic, abort, or allocate beyond the input's scale.
        for trial in 0..500 {
            let mut mutated = bytes.clone();
            let pos = (rng.next_u64() as usize) % mutated.len();
            let bit = (rng.next_u64() % 8) as u32;
            mutated[pos] ^= 1 << bit;
            let _ = from_bytes(&mutated);
            // Multi-byte damage on the same image.
            if trial % 5 == 0 {
                let pos2 = (rng.next_u64() as usize) % mutated.len();
                mutated[pos2] = rng.next_u64() as u8;
                let _ = from_bytes(&mutated);
            }
        }
    }

    #[test]
    fn restored_index_accepts_updates() {
        let idx = sample_index(50);
        let mut restored = from_bytes(&to_bytes(&idx)).unwrap();
        restored.insert(key(1000), &[0.1; 8]).unwrap();
        assert_eq!(restored.len(), 51);
        let (r, _) = restored.top_k(&[0.1; 8], 1, 32, Filter::All);
        assert_eq!(r[0].id, key(1000));
    }

    use tv_common::QuantSpec;

    fn quantized_sample(n: usize, spec: QuantSpec) -> HnswIndex {
        let mut idx = sample_index(n);
        idx.quantize(spec).unwrap();
        idx
    }

    #[test]
    fn unquantized_snapshots_stay_v1() {
        // Byte-compat guarantee: indexes without a quant tier serialize
        // exactly as before this format revision.
        let bytes = to_bytes(&sample_index(20));
        assert_eq!(&bytes[..8], MAGIC);
    }

    #[test]
    fn v2_roundtrip_is_bit_identical_across_tiers() {
        for spec in [
            QuantSpec::sq8(),
            QuantSpec::sq8().with_keep_f32(true),
            QuantSpec::pq(4),
            QuantSpec::pq(4).with_keep_f32(true),
        ] {
            let idx = quantized_sample(120, spec);
            let bytes = to_bytes(&idx);
            assert_eq!(&bytes[..8], MAGIC2);
            let restored = from_bytes(&bytes).unwrap();
            // Re-serialization must reproduce the exact image — the
            // property the durability layer's checkpoint verification
            // builds on.
            assert_eq!(bytes, to_bytes(&restored), "spec {spec:?}");
            assert_eq!(restored.storage_tier(), spec.tier);
            assert_eq!(restored.quant_spec(), Some(spec));

            let q: Vec<f32> = vec![0.5; 8];
            let (before, _) = idx.top_k(&q, 10, 64, Filter::All);
            let (after, _) = restored.top_k(&q, 10, 64, Filter::All);
            assert_eq!(
                before.iter().map(|n| n.id).collect::<Vec<_>>(),
                after.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn v2_restored_index_accepts_updates() {
        let idx = quantized_sample(60, QuantSpec::sq8());
        let mut restored = from_bytes(&to_bytes(&idx)).unwrap();
        restored.insert(key(1000), &[0.9; 8]).unwrap();
        let (r, _) = restored.top_k(&[0.9; 8], 1, 32, Filter::All);
        assert_eq!(r[0].id, key(1000));
    }

    #[test]
    fn v2_truncation_fuzz_always_errs_never_panics() {
        let bytes = to_bytes(&quantized_sample(30, QuantSpec::pq(4)));
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }

    #[test]
    fn v2_byte_flip_fuzz_never_panics() {
        let bytes = to_bytes(&quantized_sample(30, QuantSpec::sq8()));
        let mut rng = SplitMix64::new(0xBEEF);
        for _ in 0..500 {
            let mut mutated = bytes.clone();
            let pos = (rng.next_u64() as usize) % mutated.len();
            let bit = (rng.next_u64() % 8) as u32;
            mutated[pos] ^= 1 << bit;
            let _ = from_bytes(&mutated);
        }
    }

    use tv_common::GraphLayout;

    #[test]
    fn v3_roundtrip_is_bit_identical_and_stays_compiled() {
        let mut idx = sample_index(150);
        idx.remove(key(7));
        assert!(idx.compile_layout(GraphLayout::PackedPrefetch));
        let bytes = to_bytes(&idx);
        assert_eq!(&bytes[..8], MAGIC3);
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored.layout(), GraphLayout::PackedPrefetch);
        // Re-serialization reproduces the exact image: the stored slot
        // order is the BFS order, so the load-time CSR rebuild runs no
        // re-permutation.
        assert_eq!(bytes, to_bytes(&restored));

        let q: Vec<f32> = vec![0.5; 8];
        let (before, s1) = idx.top_k(&q, 10, 64, Filter::All);
        let (after, s2) = restored.top_k(&q, 10, 64, Filter::All);
        assert_eq!(before, after);
        assert_eq!(s1.packed_searches, 1);
        assert_eq!(s2.packed_searches, 1);
    }

    /// Images written by the retired plain-`packed` mode carry layout tag 1
    /// over the same CSR-ordered payload, so they load as the one compiled
    /// form, serve the same results, and re-serialize under the current tag.
    #[test]
    fn v3_legacy_packed_tag_loads_as_the_compiled_form() {
        let mut idx = sample_index(150);
        idx.remove(key(7));
        idx.compile_layout(GraphLayout::PackedPrefetch);
        let current = to_bytes(&idx);
        assert_eq!(current[8], LAYOUT_PACKED_PREFETCH);
        let mut legacy = current.clone();
        legacy[8] = LAYOUT_PACKED_LEGACY;
        let restored = from_bytes(&legacy).unwrap();
        assert_eq!(restored.layout(), GraphLayout::PackedPrefetch);
        assert_eq!(to_bytes(&restored), current);
        let q: Vec<f32> = vec![0.5; 8];
        let (want, _) = idx.top_k(&q, 10, 64, Filter::All);
        let (got, stats) = restored.top_k(&q, 10, 64, Filter::All);
        assert_eq!(got, want);
        assert_eq!(stats.packed_searches, 1);
    }

    #[test]
    fn v3_quantized_roundtrip_is_bit_identical() {
        for spec in [QuantSpec::sq8(), QuantSpec::pq(4).with_keep_f32(true)] {
            let mut idx = quantized_sample(120, spec);
            assert!(idx.compile_layout(GraphLayout::PackedPrefetch));
            let bytes = to_bytes(&idx);
            assert_eq!(&bytes[..8], MAGIC3);
            let restored = from_bytes(&bytes).unwrap();
            assert_eq!(bytes, to_bytes(&restored), "spec {spec:?}");
            assert_eq!(restored.quant_spec(), Some(spec));
            let q: Vec<f32> = vec![0.5; 8];
            let (before, _) = idx.top_k(&q, 10, 64, Filter::All);
            let (after, _) = restored.top_k(&q, 10, 64, Filter::All);
            assert_eq!(before, after);
        }
    }

    #[test]
    fn v3_layout_and_quant_tags_validated() {
        let mut idx = sample_index(20);
        idx.compile_layout(GraphLayout::PackedPrefetch);
        let bytes = to_bytes(&idx);
        // Byte 8 is the layout tag, byte 9 the quant flag.
        let mut bad_layout = bytes.clone();
        bad_layout[8] = 7;
        assert!(from_bytes(&bad_layout).is_err());
        let mut bad_quant = bytes.clone();
        bad_quant[9] = 3;
        assert!(from_bytes(&bad_quant).is_err());
        // A quant flag claiming a block that is not there must fail on the
        // (now misaligned) payload, not panic.
        let mut lying_quant = bytes;
        lying_quant[9] = 1;
        assert!(from_bytes(&lying_quant).is_err());
    }

    #[test]
    fn v3_truncation_fuzz_always_errs_never_panics() {
        let mut idx = quantized_sample(30, QuantSpec::sq8());
        idx.compile_layout(GraphLayout::PackedPrefetch);
        let bytes = to_bytes(&idx);
        for cut in 0..bytes.len() {
            assert!(from_bytes(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
        }
    }

    #[test]
    fn v3_byte_flip_fuzz_never_panics_or_overallocates() {
        let mut idx = sample_index(40);
        idx.compile_layout(GraphLayout::PackedPrefetch);
        let bytes = to_bytes(&idx);
        let mut rng = SplitMix64::new(0xC511);
        for trial in 0..500 {
            let mut mutated = bytes.clone();
            let pos = (rng.next_u64() as usize) % mutated.len();
            let bit = (rng.next_u64() % 8) as u32;
            mutated[pos] ^= 1 << bit;
            let _ = from_bytes(&mutated);
            if trial % 5 == 0 {
                let pos2 = (rng.next_u64() as usize) % mutated.len();
                mutated[pos2] = rng.next_u64() as u8;
                let _ = from_bytes(&mutated);
            }
        }
    }

    #[test]
    fn v3_huge_declared_count_rejected_cheaply() {
        // A v3 header claiming ~2^62 nodes in a tiny file must fail on the
        // size clamp before any allocation.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC3);
        bytes.push(LAYOUT_PACKED_PREFETCH); // layout tag
        bytes.push(0); // no quant
        put_u64(&mut bytes, 8); // dim
        bytes.push(0); // metric
        put_u64(&mut bytes, 16); // m
        put_u64(&mut bytes, 32); // m0
        put_u64(&mut bytes, 100); // ef_construction
        put_f64(&mut bytes, f64::NAN); // ml
        put_u64(&mut bytes, 42); // seed
        put_u64(&mut bytes, 1 << 62); // node count
        assert!(bytes.len() < 80);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn v3_restored_index_thaws_on_mutation() {
        let mut idx = sample_index(50);
        idx.compile_layout(GraphLayout::PackedPrefetch);
        let mut restored = from_bytes(&to_bytes(&idx)).unwrap();
        restored.insert(key(1000), &[0.1; 8]).unwrap();
        assert_eq!(restored.layout(), GraphLayout::Pointer);
        assert_eq!(restored.len(), 51);
        let (r, _) = restored.top_k(&[0.1; 8], 1, 32, Filter::All);
        assert_eq!(r[0].id, key(1000));
        // And a thawed index serializes back to the uncompiled format.
        assert_eq!(&to_bytes(&restored)[..8], MAGIC);
    }
}
