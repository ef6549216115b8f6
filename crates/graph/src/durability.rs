//! Crash-consistent checkpoint/recovery for the unified graph+vector store.
//!
//! A **checkpoint** atomically persists one consistent point of the whole
//! system at TID `t`:
//!
//! * per-segment **graph images** — the MVCC fold of each vertex segment at
//!   `t` ([`tg_storage::checkpoint::encode_segment_image`]);
//! * per-segment **embedding state** — the segment's image
//!   ([`tv_embedding::image`]): the newest HNSW snapshot visible at `t` plus
//!   the vector-delta tail beyond it;
//! * a **MANIFEST**, written *last*, recording the checkpoint TID, per-type
//!   allocation watermarks, and the name/CRC/length of every data file.
//!
//! Every file is a CRC-checksummed, versioned container written via
//! temp-file + rename ([`tv_common::durafile`]), so a crash at any byte
//! leaves either no file or a verifiable one. A checkpoint *exists* iff its
//! MANIFEST decodes and every listed file matches its recorded CRC — a
//! partial directory is invisible to recovery. Once the manifest is durable
//! the WAL is rotated: records at or before `t` are dropped.
//!
//! **Recovery** walks checkpoints newest-first, loads the first one that
//! fully verifies (falling back on any checksum or decode failure), installs
//! all three layers, then replays the WAL tail — only records with
//! `tid > t`, so recovery is idempotent when a crash hit after the manifest
//! rename but before the WAL truncation.
//!
//! Both pipelines hit injection points ([`tv_common::inject::Point`]); the
//! hits are no-ops unless a test hands in a live
//! [`tv_common::inject::Injector`].

use crate::graph::Graph;
use std::fs;
use std::path::{Path, PathBuf};
use tg_storage::checkpoint::{decode_segment_image, encode_segment_image};
use tg_storage::{SegmentSnapshot, Wal};
use tv_common::durafile;
use tv_common::inject::{Injector, Point};
use tv_common::wire::{put_bytes, put_u32, put_u64, Reader};
use tv_common::{SegmentId, Tid, TvError, TvResult};
use tv_embedding::SegmentImage;

/// Durafile kind tag: a graph segment image.
const KIND_GRAPH_SEG: u32 = 0x4753_4547; // "GSEG"
/// Durafile kind tag: an embedding segment state.
const KIND_EMB_SEG: u32 = 0x4553_4547; // "ESEG"
/// Durafile kind tag: the checkpoint manifest.
const KIND_MANIFEST: u32 = 0x4D41_4E46; // "MANF"
/// Payload format version of all three kinds; a checkpoint is written and
/// read as a unit, so they move together. Version 2: an embedding segment
/// file became an attribute id followed by the segment's image.
const FORMAT_VERSION: u32 = 2;
/// The WAL file name inside a data directory.
pub const WAL_FILE: &str = "wal.log";
/// The checkpoint subdirectory inside a data directory.
pub const CKPT_DIR: &str = "checkpoints";

/// Summary of one completed checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// The consistent point that was persisted.
    pub tid: Tid,
    /// Data files written (graph + embedding segments).
    pub files: usize,
    /// Payload bytes written: every data file's and the manifest's.
    pub bytes: u64,
    /// WAL records surviving the post-checkpoint rotation.
    pub wal_records_kept: usize,
}

/// Summary of one recovery pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The checkpoint that was restored, if any verified.
    pub checkpoint: Option<Tid>,
    /// WAL records replayed beyond the checkpoint TID.
    pub replayed: usize,
    /// Newer checkpoints skipped because a file failed verification.
    pub skipped_checkpoints: usize,
}

/// Writes checkpoints into `<dir>/checkpoints/ckpt-<tid>/` and rotates the
/// WAL once each manifest is durable.
pub(crate) struct CheckpointManager {
    dir: PathBuf,
    /// Verified checkpoints to retain (older ones are pruned).
    keep: usize,
    injector: Injector,
}

impl CheckpointManager {
    /// Manager rooted at a graph data directory.
    #[must_use]
    pub(crate) fn new(dir: &Path) -> Self {
        CheckpointManager {
            dir: dir.to_path_buf(),
            keep: 2,
            injector: Injector::default(),
        }
    }

    /// Hit the checkpoint points on `injector` (tests only).
    #[must_use]
    pub(crate) fn with_injector(mut self, injector: Injector) -> Self {
        self.injector = injector;
        self
    }

    /// Persist a consistent point at the graph's latest committed TID, then
    /// rotate the WAL and prune old checkpoints.
    pub(crate) fn checkpoint(&self, graph: &Graph) -> TvResult<CheckpointInfo> {
        let ckpt_tid = graph.read_tid();
        let ckpt_dir = self
            .dir
            .join(CKPT_DIR)
            .join(format!("ckpt-{:020}", ckpt_tid.0));
        fs::create_dir_all(&ckpt_dir)
            .map_err(|e| TvError::Storage(format!("create {}: {e}", ckpt_dir.display())))?;

        let mut files: Vec<(String, u32, u64)> = Vec::new();
        let mut write_file = |name: String, kind: u32, payload: Vec<u8>| -> TvResult<()> {
            // Crash point: the process dies between data-file writes. The
            // directory holds a mix of old and new files but no (new)
            // manifest, so recovery never sees the partial checkpoint.
            self.injector.hit(Point::CheckpointMidWrite)?;
            let crc =
                durafile::write_atomic(&ckpt_dir.join(&name), kind, FORMAT_VERSION, &payload)?;
            files.push((name, crc, payload.len() as u64));
            Ok(())
        };

        // Graph layer: one image per (vertex type, segment), folded at the
        // checkpoint TID.
        let store = graph.store();
        let mut watermarks = Vec::new();
        for type_id in 0..store.vertex_type_count() as u32 {
            let vt = store.vertex_type(type_id)?;
            watermarks.push(vt.allocated() as u64);
            for s in 0..vt.segment_count() as u32 {
                let seg = SegmentId(s);
                let handle = vt.segment(seg).expect("segment in range");
                let image = handle.read().image_at(ckpt_tid);
                let mut payload = Vec::new();
                put_u32(&mut payload, type_id);
                put_u32(&mut payload, s);
                payload.extend_from_slice(&encode_segment_image(&image));
                write_file(
                    format!("graph-t{type_id}-s{s}.seg"),
                    KIND_GRAPH_SEG,
                    payload,
                )?;
            }
        }

        // Embedding layer: one segment image per (attribute, segment).
        let embeddings = graph.embeddings();
        for attr_id in embeddings.attr_ids() {
            let attr = embeddings.attr(attr_id)?;
            for seg in attr.all_segments() {
                let (snap, tail) = seg.checkpoint_state(ckpt_tid);
                let mut payload = Vec::new();
                put_u32(&mut payload, attr_id);
                seg.encode_image(&snap, &tail, &mut payload);
                let s = seg.segment_id.0;
                write_file(format!("emb-a{attr_id}-s{s}.vec"), KIND_EMB_SEG, payload)?;
            }
        }

        // Manifest last: its atomic rename is the commit point of the whole
        // checkpoint.
        let n_files = files.len();
        let manifest = encode_manifest(ckpt_tid, &watermarks, &files);
        let bytes = files.iter().map(|f| f.2).sum::<u64>() + manifest.len() as u64;
        durafile::write_atomic(
            &ckpt_dir.join("MANIFEST"),
            KIND_MANIFEST,
            FORMAT_VERSION,
            &manifest,
        )?;

        // Crash point: the checkpoint is durable but the WAL still carries
        // the full history. Recovery must replay only the tail beyond the
        // checkpoint TID or it would double-apply.
        self.injector
            .hit(Point::CheckpointPostManifestPreTruncate)?;
        // Rotate only past the *oldest retained* checkpoint, not the one
        // just written: if this checkpoint later fails verification,
        // recovery falls back to its predecessor and needs every record
        // beyond *that* TID to reach the present.
        let floor = self.prune(ckpt_tid);
        let kept = store.rotate_wal(floor)?;
        Ok(CheckpointInfo {
            tid: ckpt_tid,
            files: n_files,
            bytes,
            wal_records_kept: kept,
        })
    }

    /// Drop checkpoints beyond the `keep` newest *valid* ones and every
    /// dead partial directory (a crashed checkpoint leaves no manifest).
    /// Returns the oldest retained checkpoint TID — the WAL truncation
    /// floor. Removal failures are ignored: a stale directory costs disk,
    /// not correctness.
    fn prune(&self, just_written: Tid) -> Tid {
        let mut valid = Vec::new();
        for (tid, path) in list_checkpoints(&self.dir.join(CKPT_DIR)) {
            let manifest_ok = durafile::read(&path.join("MANIFEST"), KIND_MANIFEST, FORMAT_VERSION)
                .and_then(|(m, _)| decode_manifest(&m))
                .is_ok();
            if manifest_ok {
                valid.push((tid, path));
            } else {
                let _ = fs::remove_dir_all(path);
            }
        }
        valid.sort_by_key(|v| std::cmp::Reverse(v.0));
        for (_, path) in valid.drain(self.keep.min(valid.len())..) {
            let _ = fs::remove_dir_all(path);
        }
        valid.last().map_or(just_written, |(t, _)| *t)
    }
}

/// Everything a verified checkpoint contains, fully decoded before any of it
/// is installed — so a corrupt file triggers fallback, never a half-restore.
struct LoadedCheckpoint {
    tid: Tid,
    watermarks: Vec<u64>,
    /// In manifest order.
    segments: Vec<LoadedSegment>,
}

/// One decoded data file of a checkpoint.
enum LoadedSegment {
    Graph(u32, SegmentId, SegmentSnapshot),
    Embedding(u32, Box<SegmentImage>),
}

/// Restores the newest verifiable checkpoint and replays the WAL tail.
pub(crate) struct RecoveryManager {
    dir: PathBuf,
}

impl RecoveryManager {
    /// Manager rooted at a graph data directory.
    #[must_use]
    pub(crate) fn new(dir: &Path) -> Self {
        RecoveryManager {
            dir: dir.to_path_buf(),
        }
    }

    /// Recover `graph` (fresh, schema already recreated in the original DDL
    /// order): install the newest valid checkpoint, then replay WAL records
    /// beyond its TID. With no usable checkpoint the full WAL is replayed —
    /// which only succeeds while the log still starts at the first
    /// transaction.
    pub(crate) fn recover(&self, graph: &Graph) -> TvResult<RecoveryReport> {
        let mut candidates = list_checkpoints(&self.dir.join(CKPT_DIR));
        candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
        let mut skipped = 0;
        let mut restored = None;
        for (tid, path) in candidates {
            match load_checkpoint(graph, &path, tid) {
                Ok(ck) => {
                    install_checkpoint(graph, ck)?;
                    restored = Some(tid);
                    break;
                }
                Err(_) => skipped += 1,
            }
        }
        let floor = restored.unwrap_or(Tid::ZERO);

        let wal_path = self.dir.join(WAL_FILE);
        let mut replayed = 0;
        if wal_path.exists() {
            let mut records = Wal::replay(&wal_path)?;
            records.retain(|r| r.tid > floor);
            // TIDs are dense and the log is rotated past the oldest retained
            // checkpoint, so replay must resume exactly one past what was
            // restored. Anything later means the checkpoints that covered
            // the gap all failed verification: stop, do not serve a graph
            // with a hole in its history.
            if let Some(first) = records.first().filter(|r| r.tid.0 != floor.0 + 1) {
                return Err(TvError::Storage(format!(
                    "recovery restored state up to TID {} ({skipped} checkpoints failed \
                     verification) but the WAL resumes at TID {}: transactions in between are lost",
                    floor.0, first.tid.0
                )));
            }
            replayed = records.len();
            let extras = graph.store().replay(records)?;
            graph.apply_vector_extras(extras)?;
        }
        Ok(RecoveryReport {
            checkpoint: restored,
            replayed,
            skipped_checkpoints: skipped,
        })
    }
}

/// Read and fully verify one checkpoint directory. Any missing file, CRC
/// mismatch, or decode failure is an `Err` — the caller falls back to an
/// older checkpoint. The data files are read, verified and decoded side by
/// side on the embedding service's pool, at its query width; nothing is
/// installed until all of them have decoded.
fn load_checkpoint(graph: &Graph, dir: &Path, expect_tid: Tid) -> TvResult<LoadedCheckpoint> {
    let (manifest, _) = durafile::read(&dir.join("MANIFEST"), KIND_MANIFEST, FORMAT_VERSION)?;
    let (tid, watermarks, files) = decode_manifest(&manifest)?;
    if tid != expect_tid {
        return Err(TvError::Storage(format!(
            "manifest TID {tid} does not match directory {}",
            dir.display()
        )));
    }
    let embeddings = graph.embeddings();
    let segments = embeddings
        .pool()
        .run(files, embeddings.config().query_threads, |entry| {
            load_segment(dir, entry)
        })
        .into_iter()
        .collect::<TvResult<_>>()?;
    Ok(LoadedCheckpoint {
        tid,
        watermarks,
        segments,
    })
}

/// Read one data file, hold the CRC its container verified against the
/// manifest's entry (so its bytes are checksummed once), and decode it.
fn load_segment(dir: &Path, (name, want_crc, want_len): ManifestEntry) -> TvResult<LoadedSegment> {
    let graph_file = name.starts_with("graph-");
    let kind = if graph_file {
        KIND_GRAPH_SEG
    } else {
        KIND_EMB_SEG
    };
    let (payload, crc) = durafile::read(&dir.join(&name), kind, FORMAT_VERSION)?;
    if payload.len() as u64 != want_len || crc != want_crc {
        return Err(TvError::Storage(format!(
            "checkpoint file {name} does not match its manifest entry"
        )));
    }
    let mut r = Reader::new(&payload, "checkpoint file");
    if graph_file {
        let type_id = r.u32()?;
        let seg = SegmentId(r.u32()?);
        let image = decode_segment_image(r.take(r.remaining())?)?;
        Ok(LoadedSegment::Graph(type_id, seg, image))
    } else {
        let attr_id = r.u32()?;
        let image = SegmentImage::decode(r.take(r.remaining())?)?;
        Ok(LoadedSegment::Embedding(attr_id, Box::new(image)))
    }
}

/// Install a fully-verified checkpoint into a fresh graph, in manifest
/// order. An embedding image declared differently from the attribute the
/// DDL recreated (capacity, storage spec, dimension, metric) is refused.
fn install_checkpoint(graph: &Graph, ck: LoadedCheckpoint) -> TvResult<()> {
    let store = graph.store();
    let embeddings = graph.embeddings();
    for segment in ck.segments {
        match segment {
            LoadedSegment::Graph(type_id, seg, image) => {
                store.vertex_type(type_id)?.restore_segment(seg, image)?;
            }
            LoadedSegment::Embedding(attr_id, image) => {
                embeddings.restore_segment(attr_id, *image)?;
            }
        }
    }
    for (type_id, rows) in ck.watermarks.iter().enumerate() {
        store
            .vertex_type(type_id as u32)?
            .restore_allocated(*rows as usize);
    }
    store.txn().recover_to(ck.tid);
    Ok(())
}

/// Enumerate `ckpt-<tid>` subdirectories (unparseable names are ignored).
fn list_checkpoints(root: &Path) -> Vec<(Tid, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(root) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(tid) = name
            .to_str()
            .and_then(|n| n.strip_prefix("ckpt-"))
            .and_then(|t| t.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((Tid(tid), entry.path()));
    }
    out
}

fn encode_manifest(tid: Tid, watermarks: &[u64], files: &[(String, u32, u64)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, tid.0);
    put_u32(&mut out, watermarks.len() as u32);
    for w in watermarks {
        put_u64(&mut out, *w);
    }
    put_u32(&mut out, files.len() as u32);
    for (name, crc, len) in files {
        put_bytes(&mut out, name.as_bytes());
        put_u32(&mut out, *crc);
        put_u64(&mut out, *len);
    }
    out
}

type ManifestEntry = (String, u32, u64);

fn decode_manifest(buf: &[u8]) -> TvResult<(Tid, Vec<u64>, Vec<ManifestEntry>)> {
    let mut r = Reader::new(buf, "manifest");
    let tid = Tid(r.u64()?);
    let n_types = r.count(8)?;
    let mut watermarks = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        watermarks.push(r.u64()?);
    }
    // An entry is at least an empty name, a CRC and a length.
    let n_files = r.count(4 + 4 + 8)?;
    let mut files = Vec::with_capacity(n_files);
    for _ in 0..n_files {
        let name = r.str()?.to_string();
        if name.contains('/') || name.contains('\\') || name.contains("..") {
            return Err(r.corrupt(format_args!("names a path outside its directory: {name}")));
        }
        files.push((name, r.u32()?, r.u64()?));
    }
    r.finish()?;
    Ok((tid, watermarks, files))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrips() {
        let files = vec![
            ("graph-t0-s0.seg".to_string(), 0xDEAD_BEEF, 128),
            ("emb-a0-s0.vec".to_string(), 0x1234_5678, 4096),
        ];
        let bytes = encode_manifest(Tid(42), &[7, 9], &files);
        let (tid, marks, decoded) = decode_manifest(&bytes).unwrap();
        assert_eq!(tid, Tid(42));
        assert_eq!(marks, vec![7, 9]);
        assert_eq!(decoded, files);
    }

    /// Captured before the encoder moved to `tv_common::wire`.
    #[test]
    fn manifest_bytes_are_pinned() {
        let files = vec![
            ("graph-t0-s0.seg".to_string(), 0xDEAD_BEEF, 128),
            ("emb-a0-s0.vec".to_string(), 0x1234_5678, 4096),
        ];
        let crc = durafile::crc32(&encode_manifest(Tid(42), &[7, 9], &files));
        assert_eq!(crc, 0xc6a3_fab4, "{crc:#010x}");
    }

    #[test]
    fn manifest_corruption_never_panics() {
        let files = vec![("graph-t0-s0.seg".to_string(), 1, 2)];
        let bytes = encode_manifest(Tid(1), &[3], &files);
        for cut in 0..bytes.len() {
            let _ = decode_manifest(&bytes[..cut]);
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            let _ = decode_manifest(&bad);
        }
    }

    #[test]
    fn manifest_rejects_path_traversal() {
        let files = vec![("../../etc/passwd".to_string(), 1, 2)];
        let bytes = encode_manifest(Tid(1), &[], &files);
        assert!(decode_manifest(&bytes).is_err());
    }
}
