//! Binary snapshot serialization for HNSW indexes.
//!
//! The index-merge vacuum produces *index snapshots* that the engine switches
//! to atomically (§4.3, Fig. 4). A snapshot is a self-contained byte image:
//! config, keys, vectors, levels, tombstones, adjacency, and entry point.
//! There is one format, little-endian throughout:
//!
//! ```text
//! magic   8B  b"TVHNSW03"
//! layout  u8  0 pointer (never folded, or rows pending) | 2 compiled (BFS slot order)
//! quant   u8  1 when a quantized-storage block follows the entry point
//! config  dim:u64 metric:u8 m:u64 m0:u64 ef_construction:u64 ml:f64 seed:u64
//! n       u64 node count
//! arena   u8  only when quant = 1: whether the f32 vectors are present
//! keys[n]:u64 levels[n]:u8 deleted[n]:u8 vectors[n*dim]:f32
//! links   per node: nlists:u32 (= level + 1), per list: len:u32 ids:u32*
//! entry   u8 tag, then slot:u32 level:u8 when the tag is 1
//! quant block (spec, codec image, codes, norms, optional rerank store)
//! ```
//!
//! The reader loads every list into the adjacency's edit set; a compiled
//! image, whose slots are stored in the compiled order, is then folded in
//! that order, so re-serialization reproduces the image byte for byte. Any
//! other magic, including the two this format replaced, is refused by name;
//! so is the retired layout tag 1.

use crate::config::HnswConfig;
use crate::index::HnswIndex;
use crate::packed::{Adjacency, Row};
use crate::quant::{Codec, QuantizedCodec};
use crate::quant_state::{CodeStore, QuantState};
use tv_common::wire::{
    put_bytes, put_f32s, put_f64, put_layout, put_metric, put_quant_spec, put_u32, put_u64, Reader,
};
use tv_common::{DistanceMetric, GraphLayout, TvError, TvResult, VertexId};

const MAGIC: &[u8; 8] = b"TVHNSW03";
/// `level_for_key` caps levels at 32; anything near a byte's range is damage.
const MAX_LEVEL_LISTS: usize = 64;

/// Serialize an index into a byte buffer.
#[must_use]
pub fn to_bytes(index: &HnswIndex) -> Vec<u8> {
    let mut buf = Vec::new();
    write_into(index, &mut buf);
    buf
}

/// Append an index's snapshot to `buf` — the bytes [`to_bytes`] returns,
/// written in place (a segment image embeds them without a second copy).
pub fn write_into(index: &HnswIndex, buf: &mut Vec<u8>) {
    let quant = index.quant.as_ref();
    // Room for everything but the codec parameters: the per-node fields,
    // the arena, the lists and the code slab.
    let (n, (ids, rows)) = (index.keys.len(), index.stored_links());
    let codes = quant.map_or(0, |q| q.main.codes.len() + 4 * q.main.recon_norms.len());
    buf.reserve(96 + 10 * n + 4 * index.vectors.len() + 4 * (2 * n + rows + ids) + codes);
    buf.extend_from_slice(MAGIC);
    put_layout(buf, index.layout());
    buf.push(u8::from(quant.is_some()));
    write_header(buf, &index.cfg, index.keys.len());
    if quant.is_some() {
        // Whether the f32 arena follows (codes-only tiers drop it).
        buf.push(u8::from(!index.vectors.is_empty()));
    }
    write_body(buf, index);
    if let Some(q) = quant {
        write_quant(buf, q);
    }
}

fn write_header(buf: &mut Vec<u8>, cfg: &HnswConfig, n: usize) {
    put_u64(buf, cfg.dim as u64);
    put_metric(buf, cfg.metric);
    put_u64(buf, cfg.m as u64);
    put_u64(buf, cfg.m0 as u64);
    put_u64(buf, cfg.ef_construction as u64);
    put_f64(buf, cfg.ml.unwrap_or(f64::NAN));
    put_u64(buf, cfg.seed);
    put_u64(buf, n as u64);
}

/// Everything after the header. Node `s` owns `levels[s] + 1` lists, read
/// from its edited or compiled rows alike.
fn write_body(buf: &mut Vec<u8>, index: &HnswIndex) {
    for k in &index.keys {
        put_u64(buf, k.0);
    }
    buf.extend(index.levels.iter().copied());
    buf.extend(index.deleted.iter().map(|&d| u8::from(d)));
    // Absent in codes-only quantized snapshots.
    put_f32s(buf, &index.vectors);
    // Links: per node, level count then per-level neighbor lists.
    for (s, &top) in index.levels.iter().enumerate() {
        put_u32(buf, u32::from(top) + 1);
        for lvl in 0..=top {
            let row = index.adj.row(s as u32, lvl);
            put_u32(buf, row.len() as u32);
            match row {
                Row::U16(r) => r.iter().for_each(|&nb| put_u32(buf, u32::from(nb))),
                Row::U32(r) => r.iter().for_each(|&nb| put_u32(buf, nb)),
            }
        }
    }
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
    put_quant_spec(buf, &q.spec);
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
    put_bytes(buf, &store.codec.to_bytes());
    put_u32(buf, store.codec.code_len() as u32);
    buf.extend_from_slice(&store.codes);
    put_u32(buf, store.recon_norms.len() as u32);
    put_f32s(buf, &store.recon_norms);
}

/// Deserialize an index from a snapshot buffer. Everything a search later
/// indexes by is validated here, so an image that decodes can be searched.
pub fn from_bytes(data: &[u8]) -> TvResult<HnswIndex> {
    let mut r = Reader::new(data, "snapshot");
    let magic = r.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(TvError::Storage(if magic.starts_with(b"TVHNSW") {
            format!(
                "unsupported snapshot version {}",
                String::from_utf8_lossy(magic)
            )
        } else {
            "bad snapshot magic".into()
        }));
    }
    let layout = r.layout()?;
    let has_quant = r.flag()?;
    let cfg = HnswConfig {
        dim: r.u64()? as usize,
        metric: r.metric()?,
        m: r.u64()? as usize,
        m0: r.u64()? as usize,
        ef_construction: r.u64()? as usize,
        ml: Some(r.f64()?).filter(|ml| !ml.is_nan()),
        seed: r.u64()?,
    };
    let n = r.u64()? as usize;
    if cfg.dim == 0 || n > (u32::MAX as usize) {
        return Err(r.corrupt("dimension or node count out of range"));
    }
    // Quantized snapshots carry an explicit "arena present" flag
    // (codes-only tiers drop the f32 vectors); others always have it.
    let vectors_present = !has_quant || r.u8()? != 0;
    // A node is at least a key, a level, a tombstone, its vector when
    // present, a list count and one list length: refuse a declared count
    // the input cannot hold before allocating anything for it.
    let per_node_vec = if vectors_present {
        cfg.dim.saturating_mul(4)
    } else {
        0
    };
    r.fits(n, (8 + 1 + 1 + 4 + 4usize).saturating_add(per_node_vec))?;
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        keys.push(VertexId(r.u64()?));
    }
    let levels = r.take(n)?.to_vec();
    let deleted: Vec<bool> = r.take(n)?.iter().map(|&b| b != 0).collect();
    let vectors = if vectors_present {
        r.f32s(n * cfg.dim)?
    } else {
        Vec::new()
    };
    let adj = read_links(&mut r, &levels)?;
    let entry = match r.u8()? {
        0 => None,
        1 => {
            let slot = r.u32()?;
            let lvl = r.u8()?;
            // The descent starts at `links[slot][lvl]`.
            if slot as usize >= n || lvl > levels[slot as usize] {
                return Err(r.corrupt(format_args!(
                    "entry point ({slot}, level {lvl}) names no adjacency list"
                )));
            }
            Some((slot, lvl))
        }
        t => return Err(r.corrupt(format_args!("entry tag {t}"))),
    };
    let quant = if has_quant {
        Some(read_quant(&mut r, &cfg, n, !vectors.is_empty())?)
    } else {
        None
    };
    r.finish()?;
    let mut index = HnswIndex::from_parts(cfg, vectors, keys, adj, levels, deleted, entry, quant)?;
    if layout == GraphLayout::PackedPrefetch && !index.keys.is_empty() {
        // The stored slot order is the compiled order: fold without
        // renumbering.
        let identity: Vec<u32> = (0..index.keys.len() as u32).collect();
        index.adj = index.adj.folded(&index.levels, &identity);
    }
    Ok(index)
}

/// The adjacency, every list an edit, checked against the two invariants a
/// traversal indexes by without looking: node `s` owns exactly
/// `levels[s] + 1` lists, and a neighbor named on level `l` owns a
/// level-`l` list of its own (a hop lands on it and reads that list next).
fn read_links(r: &mut Reader<'_>, levels: &[u8]) -> TvResult<Adjacency> {
    let n = levels.len();
    let mut links = Vec::with_capacity(n);
    for &level in levels {
        let lists = r.u32()? as usize;
        if lists != usize::from(level) + 1 || lists > MAX_LEVEL_LISTS {
            return Err(r.corrupt(format_args!("{lists} adjacency lists at level {level}")));
        }
        let mut per_node = Vec::with_capacity(lists);
        for lvl in 0..lists {
            let cnt = r.count(4)?;
            if cnt > n {
                return Err(r.corrupt("neighbor count exceeds node count"));
            }
            let mut list = Vec::with_capacity(cnt);
            for _ in 0..cnt {
                let nb = r.u32()?;
                if levels
                    .get(nb as usize)
                    .is_none_or(|&l| usize::from(l) < lvl)
                {
                    return Err(r.corrupt(format_args!(
                        "neighbor {nb} on level {lvl} owns no list there"
                    )));
                }
                list.push(nb);
            }
            per_node.push(list);
        }
        links.push(per_node.into_boxed_slice());
    }
    Ok(Adjacency::unfolded(links))
}

fn read_quant(
    r: &mut Reader<'_>,
    cfg: &HnswConfig,
    n: usize,
    arena_present: bool,
) -> TvResult<QuantState> {
    let spec = r.quant_spec()?;
    if spec.keep_f32 != arena_present {
        return Err(r.corrupt("keep_f32 disagrees with arena presence"));
    }
    let main = read_codec_block(r, cfg, n)?;
    if main.codec.tier() != spec.tier {
        return Err(r.corrupt("codec disagrees with tier tag"));
    }
    let rerank = if r.flag()? {
        Some(read_codec_block(r, cfg, n)?)
    } else {
        None
    };
    Ok(QuantState { spec, main, rerank })
}

fn read_codec_block(r: &mut Reader<'_>, cfg: &HnswConfig, n: usize) -> TvResult<CodeStore> {
    let codec = Codec::from_bytes(r.bytes()?)?;
    let code_len = r.u32()? as usize;
    if code_len != codec.code_len() || codec.dim() != cfg.dim {
        return Err(r.corrupt("codec disagrees with the index it encodes"));
    }
    let codes = r.take(r.fits(n, code_len)? * code_len)?.to_vec();
    if !codec.accepts(&codes) {
        return Err(r.corrupt("code byte beyond the codec's codebook"));
    }
    // One reconstruction norm per slot under cosine, none otherwise.
    let norms = if cfg.metric == DistanceMetric::Cosine {
        n
    } else {
        0
    };
    if r.u32()? as usize != norms {
        return Err(r.corrupt("reconstruction norm count"));
    }
    Ok(CodeStore {
        codec,
        codes,
        recon_norms: r.f32s(norms)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::VectorIndex;
    use tv_common::bitmap::Filter;
    use tv_common::ids::{LocalId, SegmentId};
    use tv_common::{QuantSpec, SplitMix64};

    fn key(i: u32) -> VertexId {
        VertexId::new(SegmentId(3), LocalId(i))
    }

    fn sample_index(n: usize, metric: DistanceMetric) -> HnswIndex {
        let mut rng = SplitMix64::new(77);
        let mut idx = HnswIndex::new(HnswConfig::new(8, metric));
        for i in 0..n {
            let v: Vec<f32> = (0..8).map(|_| rng.next_f32()).collect();
            idx.insert(key(i as u32), &v).unwrap();
        }
        idx
    }

    /// The table every test below runs over: five storage tiers in both
    /// layouts, each index carrying one tombstone. Two rows are cosine, the
    /// metric under which a code store also carries reconstruction norms.
    fn cases(n: usize) -> Vec<(String, HnswIndex)> {
        use DistanceMetric::{Cosine, L2};
        let mut out = Vec::new();
        for (quant, metric) in [
            (None, L2),
            (Some(QuantSpec::sq8()), L2),
            (Some(QuantSpec::sq8().with_keep_f32(true)), Cosine),
            (Some(QuantSpec::pq(4)), Cosine),
            (Some(QuantSpec::pq(4).with_keep_f32(true)), L2),
        ] {
            for layout in [GraphLayout::Pointer, GraphLayout::PackedPrefetch] {
                let mut idx = sample_index(n, metric);
                idx.remove(key(5));
                if let Some(spec) = quant {
                    idx.quantize(spec).unwrap();
                }
                assert_eq!(idx.compile_layout(layout), layout.is_packed());
                out.push((format!("{quant:?} {metric:?} {layout}"), idx));
            }
        }
        out
    }

    /// The error text `bytes` is refused with (`HnswIndex` is not `Debug`).
    fn refusal(bytes: &[u8]) -> String {
        match from_bytes(bytes) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("image decoded"),
        }
    }

    /// What the fuzz tests do with an image that decodes: a full-width
    /// top-k, whose descent starts at the entry point and whose beam reaches
    /// every list a neighbor id can lead to.
    fn search_all(idx: &HnswIndex) {
        let q = vec![0.5; idx.dim()];
        let n = idx.len() + idx.tombstone_count();
        let (r, _) = idx.top_k(&q, 10, n.max(1), Filter::All);
        assert!(r.len() <= 10);
    }

    /// A compiled index is written from its compiled rows, at either id
    /// width, to the bytes the same rows write as edits; only the layout tag
    /// differs.
    #[test]
    fn compiled_rows_write_the_bytes_of_their_edits() {
        use crate::packed::Ids;
        for (ctx, idx) in cases(150) {
            if !idx.layout().is_packed() {
                continue;
            }
            let narrow = to_bytes(&idx);
            let mut wide = idx.clone();
            let identity: Vec<u32> = (0..idx.slot_count() as u32).collect();
            wide.adj = idx.adj.folded_as(&idx.levels, &identity, Ids::U32);
            assert_eq!(to_bytes(&wide), narrow, "{ctx}");
            // Every slot's rows copied into the edit set, unchanged.
            let mut edited = idx.clone();
            for s in 0..edited.slot_count() as u32 {
                edited.adj.row_mut(s, 0);
            }
            assert_eq!(edited.layout(), GraphLayout::Pointer, "{ctx}");
            let rows = to_bytes(&edited);
            assert_eq!((rows[8], narrow[8]), (0, 2), "{ctx}: layout tags");
            assert_eq!(rows[9..], narrow[9..], "{ctx}");
        }
    }

    #[test]
    fn roundtrip_is_bit_identical_and_serves_the_same_results() {
        for (ctx, idx) in cases(150) {
            let bytes = to_bytes(&idx);
            assert_eq!(&bytes[..8], MAGIC, "{ctx}");
            let restored = from_bytes(&bytes).unwrap();
            // Re-serialization reproduces the exact image — the property
            // checkpoint verification builds on. For a compiled index it
            // also shows the load-time CSR rebuild ran no re-permutation.
            assert_eq!(bytes, to_bytes(&restored), "{ctx}");
            assert_eq!(restored.layout(), idx.layout(), "{ctx}");
            assert_eq!(restored.quant_spec(), idx.quant_spec(), "{ctx}");
            assert_eq!(restored.storage_tier(), idx.storage_tier(), "{ctx}");
            assert_eq!(restored.len(), idx.len(), "{ctx}");
            assert_eq!(restored.tombstone_count(), 1, "{ctx}");
            let q: Vec<f32> = vec![0.5; 8];
            let (before, s1) = idx.top_k(&q, 10, 64, Filter::All);
            let (after, s2) = restored.top_k(&q, 10, 64, Filter::All);
            assert_eq!(before, after, "{ctx}");
            let packed = u64::from(idx.layout().is_packed());
            assert_eq!((s1.packed_searches, s2.packed_searches), (packed, packed));
        }
    }

    #[test]
    fn restored_index_accepts_updates_and_pending_rows_write_the_pointer_tag() {
        for (ctx, idx) in cases(60) {
            let mut restored = from_bytes(&to_bytes(&idx)).unwrap();
            restored.insert(key(1000), &[0.9; 8]).unwrap();
            assert_eq!(restored.layout(), GraphLayout::Pointer, "{ctx}");
            assert_eq!(restored.len(), idx.len() + 1, "{ctx}");
            let (r, _) = restored.top_k(&[0.9; 8], 1, 32, Filter::All);
            assert_eq!(r[0].id, key(1000), "{ctx}");
            // An index with rows pending serializes under the pointer tag.
            assert_eq!(to_bytes(&restored)[8], 0, "{ctx}");
        }
    }

    #[test]
    fn roundtrip_empty_index() {
        let idx = HnswIndex::new(HnswConfig::new(4, DistanceMetric::Cosine));
        let restored = from_bytes(&to_bytes(&idx)).unwrap();
        assert_eq!(restored.len(), 0);
        assert_eq!(restored.metric(), DistanceMetric::Cosine);
        search_all(&restored);
    }

    #[test]
    fn every_prefix_truncation_errs() {
        // Each byte participates in the parse, so no strict prefix decodes.
        for (ctx, idx) in cases(30) {
            let bytes = to_bytes(&idx);
            for cut in 0..bytes.len() {
                assert!(from_bytes(&bytes[..cut]).is_err(), "{ctx}: prefix {cut}");
            }
        }
    }

    #[test]
    fn byte_flips_never_panic_and_what_decodes_can_be_searched() {
        // Deterministic single-bit flips, plus a second damaged byte on
        // every fifth trial. Decoding may succeed (a flipped vector lane is
        // still a valid snapshot) but must never panic, allocate beyond the
        // input's scale, or hand back an index a search then panics on.
        for (case, (_, idx)) in cases(40).into_iter().enumerate() {
            let bytes = to_bytes(&idx);
            let mut rng = SplitMix64::new(0xF1A5 + case as u64);
            for trial in 0..500 {
                let mut mutated = bytes.clone();
                let pos = (rng.next_u64() as usize) % mutated.len();
                mutated[pos] ^= 1 << (rng.next_u64() % 8);
                if trial % 5 == 0 {
                    let pos2 = (rng.next_u64() as usize) % mutated.len();
                    mutated[pos2] = rng.next_u64() as u8;
                }
                if let Ok(decoded) = from_bytes(&mutated) {
                    search_all(&decoded);
                }
            }
        }
    }

    /// A hand-assembled f32 pointer image over dim-2 vectors: one key,
    /// level and vector per entry of `levels`, the given adjacency lists.
    fn raw_image(levels: &[u8], links: &[Vec<Vec<u32>>], entry: (u32, u8), n: u64) -> Vec<u8> {
        let mut b = MAGIC.to_vec();
        b.extend_from_slice(&[0, 0]); // pointer layout, no quant block
        write_header(&mut b, &HnswConfig::new(2, DistanceMetric::L2), n as usize);
        for i in 0..levels.len() {
            put_u64(&mut b, key(i as u32).0);
        }
        b.extend_from_slice(levels);
        b.extend(levels.iter().map(|_| 0u8));
        // Each node nearer to `search_all`'s query than the one before, so
        // a descent hops wherever an upper-level list lets it.
        for i in 0..levels.len() {
            put_f32s(&mut b, &[1.0 - 0.5 * i as f32; 2]);
        }
        for per_node in links {
            put_u32(&mut b, per_node.len() as u32);
            for list in per_node {
                put_u32(&mut b, list.len() as u32);
                list.iter().for_each(|&nb| put_u32(&mut b, nb));
            }
        }
        b.push(1);
        put_u32(&mut b, entry.0);
        b.push(entry.1);
        b
    }

    #[test]
    fn adjacency_that_a_search_would_index_out_of_bounds_is_refused() {
        // The well-formed shape: node 0 on level 1, node 1 on level 0.
        let good = [vec![vec![1], vec![]], vec![vec![0]]];
        search_all(&from_bytes(&raw_image(&[1, 0], &good, (0, 1), 2)).unwrap());
        // Node 0 names node 1 on level 1, where node 1 owns no list: the
        // descent from the entry would hop onto it and read `links[1][1]`.
        let hop = [vec![vec![1], vec![1]], vec![vec![0]]];
        let err = refusal(&raw_image(&[1, 0], &hop, (0, 1), 2));
        assert!(err.contains("owns no list"), "{err}");
        // A node whose list count disagrees with its level.
        let short = [vec![vec![1]], vec![vec![0]]];
        assert!(from_bytes(&raw_image(&[1, 0], &short, (0, 0), 2)).is_err());
        let long = [vec![vec![1], vec![]], vec![vec![0], vec![]]];
        assert!(from_bytes(&raw_image(&[1, 0], &long, (0, 1), 2)).is_err());
        // Entry point: slot out of range, level above the node's own.
        assert!(from_bytes(&raw_image(&[1, 0], &good, (9, 0), 2)).is_err());
        assert!(from_bytes(&raw_image(&[1, 0], &good, (1, 1), 2)).is_err());
    }

    #[test]
    fn huge_declared_count_in_tiny_file_refused_before_allocating() {
        for n in [1u64 << 60, u64::from(u32::MAX)] {
            let bytes = raw_image(&[], &[], (0, 0), n);
            assert!(bytes.len() < 100);
            assert!(from_bytes(&bytes).is_err(), "n = {n}");
        }
    }

    #[test]
    fn foreign_and_retired_formats_are_refused_by_name() {
        let bytes = to_bytes(&cases(20).pop().unwrap().1);
        for old in [b"TVHNSW01", b"TVHNSW02"] {
            let mut retired = bytes.clone();
            retired[..8].copy_from_slice(old);
            let err = refusal(&retired);
            let name = std::str::from_utf8(old).unwrap();
            assert!(
                err.contains("unsupported snapshot version") && err.contains(name),
                "{err}"
            );
        }
        let mut foreign = bytes.clone();
        foreign[0] = b'X';
        let err = refusal(&foreign);
        assert!(err.contains("bad snapshot magic"), "{err}");
        // Byte 8 is the layout tag (1 was the plain-`packed` mode), byte 9
        // the quant flag.
        for tag in [1u8, 7] {
            let mut bad_layout = bytes.clone();
            bad_layout[8] = tag;
            let err = refusal(&bad_layout);
            assert!(
                err.contains(&format!("unsupported layout tag {tag}")),
                "{err}"
            );
        }
        let mut bad_quant = bytes.clone();
        bad_quant[9] = 3;
        assert!(from_bytes(&bad_quant).is_err());
        // A quant flag that lies about the block's presence fails on the
        // misaligned payload.
        let mut lying_quant = bytes;
        lying_quant[9] ^= 1;
        assert!(from_bytes(&lying_quant).is_err());
    }
}
