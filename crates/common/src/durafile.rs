//! Durable-file primitives shared by the WAL and the checkpoint subsystem:
//! CRC32 (IEEE), and a small checksummed file container written atomically
//! via temp-file + rename.
//!
//! Every durable artifact in the repo — WAL frames, graph segment images,
//! embedding segment images, checkpoint manifests — carries a CRC32 so a
//! half-written or bit-rotted file fails loudly on read instead of
//! deserializing garbage (§4.3's durability contract). The container layout:
//!
//! ```text
//! magic   8B  b"TVDF0001"
//! kind    u32 caller-defined file kind (manifest / graph seg / emb seg ...)
//! version u32 caller-defined format version of the payload
//! len     u64 payload length in bytes
//! crc     u32 CRC32 of the payload
//! payload len bytes
//! ```
//!
//! Writes go to `<path>.tmp`, are fsync'd, and renamed into place; the
//! parent directory is fsync'd afterwards so the rename itself is durable.
//! A crash at any instant therefore leaves either the old file, no file, or
//! a stray `.tmp` — never a torn final file.

use crate::error::{TvError, TvResult};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"TVDF0001";
const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 4;

/// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming form: feed chunks through a running state (seed with
/// `0xFFFF_FFFF`, finish by XORing `0xFFFF_FFFF`).
#[must_use]
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        let idx = (state ^ u32::from(b)) & 0xFF;
        state = (state >> 8) ^ CRC_TABLE[idx as usize];
    }
    state
}

static CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Write `payload` to `path` atomically (temp file + fsync + rename + parent
/// directory fsync) under a checksummed, versioned header.
pub fn write_atomic(path: &Path, kind: u32, version: u32, payload: &[u8]) -> TvResult<()> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp)
            .map_err(|e| TvError::Storage(format!("create {}: {e}", tmp.display())))?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&kind.to_le_bytes());
        header.extend_from_slice(&version.to_le_bytes());
        header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        header.extend_from_slice(&crc32(payload).to_le_bytes());
        f.write_all(&header)
            .and_then(|()| f.write_all(payload))
            .and_then(|()| f.sync_all())
            .map_err(|e| TvError::Storage(format!("write {}: {e}", tmp.display())))?;
    }
    fs::rename(&tmp, path).map_err(|e| {
        TvError::Storage(format!(
            "rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        ))
    })?;
    fsync_parent(path);
    Ok(())
}

/// Read a durable file, verifying magic, kind, payload format version,
/// length, and CRC. Returns the payload. A version other than
/// `expect_version` is a typed error: the payload layout is the caller's,
/// and a reader must never guess at one it was not written for.
pub fn read(path: &Path, expect_kind: u32, expect_version: u32) -> TvResult<Vec<u8>> {
    let mut data = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut data))
        .map_err(|e| TvError::Storage(format!("read {}: {e}", path.display())))?;
    if data.len() < HEADER_LEN {
        return Err(TvError::Storage(format!(
            "{}: truncated header ({} bytes)",
            path.display(),
            data.len()
        )));
    }
    if &data[..8] != MAGIC {
        return Err(TvError::Storage(format!("{}: bad magic", path.display())));
    }
    let kind = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    if kind != expect_kind {
        return Err(TvError::Storage(format!(
            "{}: file kind {kind}, expected {expect_kind}",
            path.display()
        )));
    }
    let version = u32::from_le_bytes(data[12..16].try_into().expect("4 bytes"));
    if version != expect_version {
        return Err(TvError::Storage(format!(
            "{}: payload format version {version}, this build reads version {expect_version}",
            path.display()
        )));
    }
    let len = u64::from_le_bytes(data[16..24].try_into().expect("8 bytes")) as usize;
    let crc = u32::from_le_bytes(data[24..28].try_into().expect("4 bytes"));
    let payload = &data[HEADER_LEN..];
    if payload.len() != len {
        return Err(TvError::Storage(format!(
            "{}: payload length {} != declared {len}",
            path.display(),
            payload.len()
        )));
    }
    if crc32(payload) != crc {
        return Err(TvError::Storage(format!(
            "{}: payload CRC mismatch",
            path.display()
        )));
    }
    Ok(payload.to_vec())
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(|| "file".into(), |n| n.to_os_string());
    name.push(".tmp");
    path.with_file_name(name)
}

/// Best-effort fsync of `path`'s parent directory so a rename is durable.
/// Directory fds are not universally syncable; failures are ignored.
pub fn fsync_parent(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = OpenOptions::new().read(true).open(parent) {
            let _ = dir.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tv-durafile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn roundtrip_preserves_payload() {
        let path = temp_file("roundtrip.df");
        let payload: Vec<u8> = (0..=255).collect();
        write_atomic(&path, 7, 3, &payload).unwrap();
        assert_eq!(read(&path, 7, 3).unwrap(), payload);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_kind_or_version_rejected() {
        let path = temp_file("kind.df");
        write_atomic(&path, 1, 1, b"abc").unwrap();
        assert!(read(&path, 2, 1).is_err());
        let err = read(&path, 1, 2).unwrap_err().to_string();
        assert!(
            err.contains("version 1") && err.contains("version 2"),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_detected() {
        let path = temp_file("corrupt.df");
        write_atomic(&path, 1, 1, b"hello durable world").unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        let err = read(&path, 1, 1).unwrap_err();
        assert!(err.to_string().contains("CRC"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_detected() {
        let path = temp_file("trunc.df");
        write_atomic(&path, 1, 1, b"hello durable world").unwrap();
        let data = std::fs::read(&path).unwrap();
        for cut in [0, 5, 27, data.len() - 1] {
            std::fs::write(&path, &data[..cut]).unwrap();
            assert!(read(&path, 1, 1).is_err(), "cut {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn overwrite_is_atomic_replacement() {
        let path = temp_file("replace.df");
        write_atomic(&path, 1, 1, b"old").unwrap();
        write_atomic(&path, 1, 2, b"new").unwrap();
        assert_eq!(read(&path, 1, 2).unwrap(), b"new");
        // No stray temp file left behind.
        assert!(!tmp_path(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }
}
