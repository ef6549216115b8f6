//! Write-ahead log.
//!
//! TigerGraph uses a distributed, replicated WAL for durability (§4.3); the
//! reproduction keeps the same contract on a single file: every transaction's
//! deltas are appended and fsync'd *before* they are applied to segment
//! stores, and recovery replays complete records, discarding a torn tail.
//!
//! Higher layers (the embedding service) stash their vector deltas in the
//! `extra` payload so one WAL record covers a graph+vector transaction
//! atomically — the paper's "updates involving both graph attributes and
//! vector attributes are performed atomically".
//!
//! ## Frame format (v2)
//!
//! ```text
//! file   := magic frames*
//! magic  := b"TVWAL002"                  (8 bytes)
//! frame  := len:u32 seq:u64 crc:u32 payload[len]
//! crc    := CRC32(len_le || seq_le || payload)
//! ```
//!
//! `seq` numbers frames contiguously from 0 within one file (rotation
//! renumbers). The CRC and sequence let replay distinguish the two failure
//! shapes the recovery contract cares about:
//!
//! * **Torn tail** — a crash mid-append leaves a final frame that is
//!   incomplete (extends past end-of-file) or fails its CRC *with nothing
//!   after it*. That is the expected residue of a crash; replay stops before
//!   it and [`Wal::open`] truncates it so later appends are reachable.
//! * **Interior corruption** — a CRC failure or sequence gap with more data
//!   *after* the bad frame, or a decode error in a CRC-valid frame. Committed
//!   records would be silently lost by tolerating it, so it is a loud
//!   [`TvError::Storage`].
//!
//! One ambiguity is inherent to length-framed logs: if the final frame's
//! `len` field itself is corrupted to point past end-of-file, the damage is
//! indistinguishable from a torn append and is treated as a torn tail. Frames
//! that lie fully inside the file are always CRC-verified.

use crate::delta::GraphDelta;
use crate::value::AttrValue;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use tv_common::durafile::crc32_update;
use tv_common::inject::{Injector, Point};
use tv_common::wire::{put_bytes, put_f64, put_i64, put_u32, put_u64, Reader};
use tv_common::{Tid, TvError, TvResult, VertexId};

const MAGIC: &[u8; 8] = b"TVWAL002";
const FRAME_HEADER: usize = 4 + 8 + 4;

/// One durably-logged transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Committing transaction id.
    pub tid: Tid,
    /// Graph deltas, each routed to a vertex-type store by id.
    pub deltas: Vec<(u32, GraphDelta)>,
    /// Opaque higher-layer payload (vector deltas travel here).
    pub extra: Vec<u8>,
}

/// Append-only write-ahead log over a file.
pub struct Wal {
    path: PathBuf,
    writer: BufWriter<File>,
    next_seq: u64,
    injector: Injector,
}

impl Wal {
    /// Open (creating if absent) a WAL at `path` for appending.
    ///
    /// An existing file is scanned first: a torn tail is physically
    /// truncated away (so new appends land after the last valid frame, not
    /// after unreachable garbage), while interior corruption fails the open.
    pub(crate) fn open(path: &Path) -> TvResult<Self> {
        let mut data = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut data)
                    .map_err(|e| TvError::Storage(format!("wal read: {e}")))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(TvError::Storage(format!("open wal: {e}"))),
        }
        let (frames, valid_len) = scan_frames(&data, path)?;
        let next_seq = frames.len() as u64;
        if valid_len < data.len() {
            // Torn tail (or partially-written magic): truncate it away.
            let f = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| TvError::Storage(format!("open wal for truncate: {e}")))?;
            f.set_len(valid_len as u64)
                .and_then(|()| f.sync_all())
                .map_err(|e| TvError::Storage(format!("wal truncate: {e}")))?;
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| TvError::Storage(format!("open wal: {e}")))?;
        if valid_len == 0 {
            file.write_all(MAGIC)
                .and_then(|()| file.sync_data())
                .map_err(|e| TvError::Storage(format!("wal init: {e}")))?;
        }
        Ok(Wal {
            path: path.to_path_buf(),
            writer: BufWriter::new(file),
            next_seq,
            injector: Injector::default(),
        })
    }

    /// Hit [`Point::CommitMidWalAppend`] on `injector` (testing only).
    pub(crate) fn set_injector(&mut self, injector: Injector) {
        self.injector = injector;
    }

    /// Append a record and flush it to the OS. Returns the encoded size.
    pub(crate) fn append(&mut self, record: &WalRecord) -> TvResult<usize> {
        let payload = encode_record(record);
        let frame = encode_frame(self.next_seq, &payload);
        if let Err(e) = self.injector.hit(Point::CommitMidWalAppend) {
            // Model process death mid-write: persist only a prefix of the
            // frame, exactly the torn tail a real crash leaves behind.
            let _ = self.writer.write_all(&frame[..frame.len() / 2]);
            let _ = self.writer.flush();
            let _ = self.writer.get_ref().sync_data();
            return Err(e);
        }
        self.writer
            .write_all(&frame)
            .and_then(|()| self.writer.flush())
            .map_err(|e| TvError::Storage(format!("wal append: {e}")))?;
        self.next_seq += 1;
        Ok(frame.len())
    }

    /// Force bytes to stable storage.
    pub(crate) fn sync(&mut self) -> TvResult<()> {
        self.writer
            .get_ref()
            .sync_data()
            .map_err(|e| TvError::Storage(format!("wal sync: {e}")))
    }

    /// Replay every complete record in `path`. A torn tail ends replay
    /// silently (a crash during append leaves exactly that); interior
    /// corruption — a bad frame with valid data after it, a sequence gap, or
    /// a decode error inside a CRC-valid frame — is a loud error.
    pub fn replay(path: &Path) -> TvResult<Vec<WalRecord>> {
        let mut data = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut data)
                    .map_err(|e| TvError::Storage(format!("wal read: {e}")))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(TvError::Storage(format!("wal open for replay: {e}"))),
        }
        let (frames, _) = scan_frames(&data, path)?;
        let mut out = Vec::with_capacity(frames.len());
        for (seq, payload) in frames.iter().enumerate() {
            // The CRC already vouched for these bytes, so a decode failure
            // is not torn-write residue — fail loudly.
            let rec = decode_record(payload).map_err(|e| {
                TvError::Storage(format!(
                    "wal {}: frame {seq} passed CRC but failed decode: {e}",
                    path.display()
                ))
            })?;
            out.push(rec);
        }
        Ok(out)
    }

    /// Rewrite the log keeping only records with `tid > keep_after`
    /// (checkpoint truncation). The surviving records are renumbered from
    /// sequence 0 and the new file replaces the old one atomically via
    /// temp-file + rename. Returns how many records were kept.
    pub(crate) fn rotate(&mut self, keep_after: Tid) -> TvResult<usize> {
        self.writer
            .flush()
            .map_err(|e| TvError::Storage(format!("wal flush: {e}")))?;
        self.sync()?;
        let records = Self::replay(&self.path)?;
        let kept: Vec<WalRecord> = records.into_iter().filter(|r| r.tid > keep_after).collect();

        let mut tmp_name = self
            .path
            .file_name()
            .map_or_else(|| "wal".into(), |n| n.to_os_string());
        tmp_name.push(".tmp");
        let tmp = self.path.with_file_name(tmp_name);
        {
            let mut f = File::create(&tmp)
                .map_err(|e| TvError::Storage(format!("create {}: {e}", tmp.display())))?;
            let mut bytes = Vec::with_capacity(MAGIC.len());
            bytes.extend_from_slice(MAGIC);
            for (seq, rec) in kept.iter().enumerate() {
                bytes.extend_from_slice(&encode_frame(seq as u64, &encode_record(rec)));
            }
            f.write_all(&bytes)
                .and_then(|()| f.sync_all())
                .map_err(|e| TvError::Storage(format!("write {}: {e}", tmp.display())))?;
        }
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| TvError::Storage(format!("wal rotate rename: {e}")))?;
        tv_common::durafile::fsync_parent(&self.path);

        let file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .map_err(|e| TvError::Storage(format!("reopen rotated wal: {e}")))?;
        self.writer = BufWriter::new(file);
        self.next_seq = kept.len() as u64;
        Ok(kept.len())
    }
}

fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let len = payload.len() as u32;
    let mut state = 0xFFFF_FFFFu32;
    state = crc32_update(state, &len.to_le_bytes());
    state = crc32_update(state, &seq.to_le_bytes());
    state = crc32_update(state, payload);
    let crc = state ^ 0xFFFF_FFFF;
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Scan a WAL image into `(frame payloads, valid prefix length in bytes)`.
/// A shorter-than-`data` valid length means a torn tail the caller may
/// truncate; interior corruption errors out.
fn scan_frames<'a>(data: &'a [u8], path: &Path) -> TvResult<(Vec<&'a [u8]>, usize)> {
    if data.is_empty() {
        return Ok((Vec::new(), 0));
    }
    if data.len() < MAGIC.len() {
        // A crash between file creation and the magic write.
        return Ok((Vec::new(), 0));
    }
    if &data[..MAGIC.len()] != MAGIC {
        return Err(TvError::Storage(format!(
            "wal {}: unrecognized file magic",
            path.display()
        )));
    }
    let mut frames = Vec::new();
    let mut off = MAGIC.len();
    let mut expected_seq = 0u64;
    while off < data.len() {
        let rem = &data[off..];
        if rem.len() < FRAME_HEADER {
            break; // torn header at EOF
        }
        let len = u32::from_le_bytes(rem[0..4].try_into().expect("4 bytes")) as usize;
        let Some(frame_len) = FRAME_HEADER.checked_add(len) else {
            break; // absurd length: frame extends past EOF, torn tail
        };
        if rem.len() < frame_len {
            break; // incomplete frame at EOF (or corrupt final len field)
        }
        let seq = u64::from_le_bytes(rem[4..12].try_into().expect("8 bytes"));
        let crc = u32::from_le_bytes(rem[12..16].try_into().expect("4 bytes"));
        let payload = &rem[FRAME_HEADER..frame_len];
        let mut state = 0xFFFF_FFFFu32;
        state = crc32_update(state, &rem[0..4]);
        state = crc32_update(state, &rem[4..12]);
        state = crc32_update(state, payload);
        if state ^ 0xFFFF_FFFF != crc {
            if off + frame_len == data.len() {
                break; // bad final frame with nothing after it: torn tail
            }
            return Err(TvError::Storage(format!(
                "wal {}: interior corruption at frame {expected_seq} (CRC mismatch with {} bytes following)",
                path.display(),
                data.len() - (off + frame_len)
            )));
        }
        if seq != expected_seq {
            return Err(TvError::Storage(format!(
                "wal {}: sequence gap (frame has seq {seq}, expected {expected_seq})",
                path.display()
            )));
        }
        frames.push(payload);
        off += frame_len;
        expected_seq += 1;
    }
    Ok((frames, off))
}

pub(crate) fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut b = Vec::new();
    put_u64(&mut b, rec.tid.0);
    put_u32(&mut b, rec.deltas.len() as u32);
    for (type_id, d) in &rec.deltas {
        put_u32(&mut b, *type_id);
        encode_delta(&mut b, d);
    }
    put_bytes(&mut b, &rec.extra);
    b
}

pub(crate) fn decode_record(buf: &[u8]) -> TvResult<WalRecord> {
    let mut r = Reader::new(buf, "wal record");
    let tid = Tid(r.u64()?);
    // A delta is at least a type id, a tag and a vertex id.
    let n = r.count(4 + 1 + 8)?;
    let mut deltas = Vec::with_capacity(n);
    for _ in 0..n {
        let type_id = r.u32()?;
        deltas.push((type_id, decode_delta(&mut r)?));
    }
    let extra = r.bytes()?.to_vec();
    Ok(WalRecord { tid, deltas, extra })
}

fn encode_delta(b: &mut Vec<u8>, d: &GraphDelta) {
    match d {
        GraphDelta::UpsertVertex { id, attrs } => {
            b.push(0);
            put_u64(b, id.0);
            put_u32(b, attrs.len() as u32);
            for a in attrs {
                encode_value(b, a);
            }
        }
        GraphDelta::DeleteVertex { id } => {
            b.push(1);
            put_u64(b, id.0);
        }
        GraphDelta::SetAttr { id, col, value } => {
            b.push(2);
            put_u64(b, id.0);
            put_u32(b, *col as u32);
            encode_value(b, value);
        }
        GraphDelta::AddEdge { etype, from, to } => {
            b.push(3);
            put_u32(b, *etype);
            put_u64(b, from.0);
            put_u64(b, to.0);
        }
        GraphDelta::RemoveEdge { etype, from, to } => {
            b.push(4);
            put_u32(b, *etype);
            put_u64(b, from.0);
            put_u64(b, to.0);
        }
    }
}

fn decode_delta(r: &mut Reader<'_>) -> TvResult<GraphDelta> {
    Ok(match r.u8()? {
        0 => {
            let id = VertexId(r.u64()?);
            // The smallest value is a tag and a bool.
            let n = r.count(2)?;
            let mut attrs = Vec::with_capacity(n);
            for _ in 0..n {
                attrs.push(decode_value(r)?);
            }
            GraphDelta::UpsertVertex { id, attrs }
        }
        1 => GraphDelta::DeleteVertex {
            id: VertexId(r.u64()?),
        },
        2 => {
            let id = VertexId(r.u64()?);
            let col = r.u32()? as usize;
            let value = decode_value(r)?;
            GraphDelta::SetAttr { id, col, value }
        }
        3 => GraphDelta::AddEdge {
            etype: r.u32()?,
            from: VertexId(r.u64()?),
            to: VertexId(r.u64()?),
        },
        4 => GraphDelta::RemoveEdge {
            etype: r.u32()?,
            from: VertexId(r.u64()?),
            to: VertexId(r.u64()?),
        },
        t => return Err(r.corrupt(format_args!("bad delta tag {t}"))),
    })
}

pub(crate) fn encode_value(b: &mut Vec<u8>, v: &AttrValue) {
    match v {
        AttrValue::Int(i) => {
            b.push(0);
            put_i64(b, *i);
        }
        AttrValue::Double(d) => {
            b.push(1);
            put_f64(b, *d);
        }
        AttrValue::Str(s) => {
            b.push(2);
            put_bytes(b, s.as_bytes());
        }
        AttrValue::Bool(x) => {
            b.push(3);
            b.push(u8::from(*x));
        }
    }
}

pub(crate) fn decode_value(r: &mut Reader<'_>) -> TvResult<AttrValue> {
    Ok(match r.u8()? {
        0 => AttrValue::Int(r.i64()?),
        1 => AttrValue::Double(r.f64()?),
        2 => AttrValue::Str(r.str()?.to_string()),
        3 => AttrValue::Bool(r.u8()? != 0),
        t => return Err(r.corrupt(format_args!("bad value tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::ids::{LocalId, SegmentId};
    use tv_common::inject::Action;

    fn vid(s: u32, l: u32) -> VertexId {
        VertexId::new(SegmentId(s), LocalId(l))
    }

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tvwal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                tid: Tid(1),
                deltas: vec![(
                    0,
                    GraphDelta::UpsertVertex {
                        id: vid(0, 0),
                        attrs: vec![
                            AttrValue::Int(7),
                            AttrValue::Str("héllo".into()),
                            AttrValue::Double(2.5),
                            AttrValue::Bool(true),
                        ],
                    },
                )],
                extra: vec![1, 2, 3],
            },
            WalRecord {
                tid: Tid(2),
                deltas: vec![
                    (
                        1,
                        GraphDelta::AddEdge {
                            etype: 3,
                            from: vid(0, 0),
                            to: vid(1, 5),
                        },
                    ),
                    (0, GraphDelta::DeleteVertex { id: vid(0, 0) }),
                ],
                extra: Vec::new(),
            },
            WalRecord {
                tid: Tid(3),
                deltas: vec![(
                    0,
                    GraphDelta::SetAttr {
                        id: vid(2, 9),
                        col: 1,
                        value: AttrValue::Str("updated".into()),
                    },
                )],
                extra: vec![0xFF; 100],
            },
        ]
    }

    fn write_records(path: &Path, records: &[WalRecord]) {
        let mut wal = Wal::open(path).unwrap();
        for r in records {
            wal.append(r).unwrap();
        }
        wal.sync().unwrap();
    }

    /// Byte offsets of each frame in the file (start, end).
    fn frame_spans(path: &Path) -> Vec<(usize, usize)> {
        let data = std::fs::read(path).unwrap();
        let mut spans = Vec::new();
        let mut off = MAGIC.len();
        while off + FRAME_HEADER <= data.len() {
            let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
            spans.push((off, off + FRAME_HEADER + len));
            off += FRAME_HEADER + len;
        }
        spans
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = temp_wal("roundtrip.wal");
        let records = sample_records();
        write_records(&path, &records);
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed, records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_missing_file_is_empty() {
        let path = std::env::temp_dir().join("tvwal-definitely-missing.wal");
        let _ = std::fs::remove_file(&path);
        assert!(Wal::replay(&path).unwrap().is_empty());
    }

    #[test]
    fn torn_tail_is_dropped() {
        let path = temp_wal("torn.wal");
        let records = sample_records();
        write_records(&path, &records);
        // Chop bytes off the end: the last record must be dropped, the
        // earlier ones preserved.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0], records[0]);
        assert_eq!(replayed[1], records[1]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_tail_checksum_is_dropped() {
        let path = temp_wal("crc.wal");
        let records = sample_records();
        write_records(&path, &records);
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xAA; // flip a bit inside the final record's payload
        std::fs::write(&path, &data).unwrap();
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_corruption_is_loud() {
        let path = temp_wal("interior.wal");
        write_records(&path, &sample_records());
        let spans = frame_spans(&path);
        assert_eq!(spans.len(), 3);
        // Flip a payload byte of the FIRST record: committed data after it
        // would be silently lost if this were treated as a torn tail.
        let mut data = std::fs::read(&path).unwrap();
        data[spans[0].1 - 1] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let err = Wal::replay(&path).unwrap_err();
        assert!(err.to_string().contains("interior corruption"), "{err}");
        // Open must refuse too, not truncate committed records away.
        assert!(Wal::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sequence_gap_is_loud() {
        let path = temp_wal("seqgap.wal");
        write_records(&path, &sample_records());
        let spans = frame_spans(&path);
        // Splice out the middle frame: every remaining frame is CRC-valid
        // but the sequence numbers expose the missing record.
        let data = std::fs::read(&path).unwrap();
        let mut spliced = data[..spans[1].0].to_vec();
        spliced.extend_from_slice(&data[spans[1].1..]);
        std::fs::write(&path, &spliced).unwrap();
        let err = Wal::replay(&path).unwrap_err();
        assert!(err.to_string().contains("sequence gap"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unrecognized_magic_is_loud() {
        let path = temp_wal("magic.wal");
        std::fs::write(&path, b"NOTAWAL!garbage").unwrap();
        assert!(Wal::replay(&path).is_err());
        assert!(Wal::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_truncates_torn_tail_then_appends_reachably() {
        let path = temp_wal("reopen.wal");
        let records = sample_records();
        write_records(&path, &records[..2]);
        // Tear the second record.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        // Reopen (must truncate the torn frame) and append a new epoch.
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&records[2]).unwrap();
            wal.sync().unwrap();
        }
        // Replay sees both epochs: the pre-tear survivor and the new record.
        let replayed = Wal::replay(&path).unwrap();
        assert_eq!(replayed, vec![records[0].clone(), records[2].clone()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rotate_keeps_only_records_beyond_tid() {
        let path = temp_wal("rotate.wal");
        let mk = |tid: u64| WalRecord {
            tid: Tid(tid),
            deltas: vec![(
                0,
                GraphDelta::DeleteVertex {
                    id: vid(0, tid as u32),
                },
            )],
            extra: vec![tid as u8],
        };
        let mut wal = Wal::open(&path).unwrap();
        for tid in 1..=5 {
            wal.append(&mk(tid)).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(wal.rotate(Tid(3)).unwrap(), 2);
        // Appends continue seamlessly on the rotated file.
        wal.append(&mk(6)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let replayed = Wal::replay(&path).unwrap();
        let tids: Vec<u64> = replayed.iter().map(|r| r.tid.0).collect();
        assert_eq!(tids, vec![4, 5, 6]);
        // Rotating everything away leaves an empty, appendable log.
        let mut wal = Wal::open(&path).unwrap();
        assert_eq!(wal.rotate(Tid(100)).unwrap(), 0);
        wal.append(&mk(7)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(Wal::replay(&path).unwrap().len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_crash_mid_append_leaves_torn_tail() {
        let path = temp_wal("crashmid.wal");
        let records = sample_records();
        let inject = Injector::live();
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.set_injector(inject.clone());
            wal.append(&records[0]).unwrap();
            inject.arm(Point::CommitMidWalAppend, Action::Fail, 1, Some(1));
            let err = wal.append(&records[1]).unwrap_err();
            assert!(matches!(err, TvError::Injected(_)));
        }
        // The torn frame is invisible to replay and truncated on reopen.
        assert_eq!(Wal::replay(&path).unwrap(), vec![records[0].clone()]);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&records[2]).unwrap();
            wal.sync().unwrap();
        }
        assert_eq!(
            Wal::replay(&path).unwrap(),
            vec![records[0].clone(), records[2].clone()]
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// The log's bytes are a format other processes' files depend on: the
    /// CRC below was captured before the record codec moved to
    /// `tv_common::wire` and must survive any refactor of it.
    #[test]
    fn wal_file_bytes_are_pinned() {
        let path = temp_wal("pinned.wal");
        write_records(&path, &sample_records());
        let crc = tv_common::crc32(&std::fs::read(&path).unwrap());
        assert_eq!(crc, 0xc9c9_a7ea, "{crc:#010x}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_record_roundtrips() {
        let rec = WalRecord {
            tid: Tid(9),
            deltas: Vec::new(),
            extra: Vec::new(),
        };
        let decoded = decode_record(&encode_record(&rec)).unwrap();
        assert_eq!(decoded, rec);
    }
}
