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
/// `0xFFFF_FFFF`, finish by XORing `0xFFFF_FFFF`). A buffer of at least
/// 64 bytes is folded by carry-less multiplication where the CPU has
/// PCLMULQDQ and the kernel tier (`TV_KERNELS`) is not `scalar`; everything
/// else runs the portable slicing-by-16 loop. Both give the same IEEE value.
#[must_use]
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::enabled() {
        // SAFETY: `enabled` saw PCLMULQDQ on this CPU, and the length is
        // the one `update` requires.
        return unsafe { clmul::update(state, data) };
    }
    crc32_sliced(state, data)
}

/// `CRC_TABLES[k][b]`: the register after byte `b` and then `k` zero bytes
/// went through the byte loop from a zero register. Row 0 is the classic
/// byte table; rows 1–15 let sixteen bytes be looked up independently.
static CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
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
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// The portable path: sixteen bytes a step, each through the table that
/// carries it past the bytes behind it in the block, then a byte loop over
/// the last 0–15.
fn crc32_sliced(mut state: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let head = state ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let mut next = t[15][(head & 0xFF) as usize]
            ^ t[14][((head >> 8) & 0xFF) as usize]
            ^ t[13][((head >> 16) & 0xFF) as usize]
            ^ t[12][(head >> 24) as usize];
        for (j, &b) in block[4..].iter().enumerate() {
            next ^= t[11 - j][usize::from(b)];
        }
        state = next;
    }
    for &b in blocks.remainder() {
        state = (state >> 8) ^ t[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    //! CRC32 by carry-less multiplication: the folding scheme of Gopal et
    //! al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
    //! Instruction" (Intel, 2009), in its bit-reflected form. Four 128-bit
    //! lanes fold 64 bytes a step, the lanes fold into one, and a Barrett
    //! reduction takes the last 64 bits to the 32-bit register.

    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_setzero_si128, _mm_srli_si128,
        _mm_xor_si128,
    };
    use std::sync::OnceLock;

    /// Shortest input [`update`] takes: its four opening lanes.
    pub(super) const MIN_LEN: usize = 64;

    // Fold distances as `x^d mod P(x)`, bit-reflected and shifted left one
    // place (the constants of the paper, as every PCLMULQDQ CRC32 uses).
    /// Across 512 bits (one lane to its next block): `x^(512+32)`, `x^(512-32)`.
    const FOLD_512: (i64, i64) = (0x1_5444_2BD4, 0x1_C6E4_1596);
    /// Across 128 bits: `x^(128+32)`, `x^(128-32)`.
    const FOLD_128: (i64, i64) = (0x1_7519_97D0, 0x0_CCAA_009E);
    /// Across 64 bits: `x^64`.
    const FOLD_64: i64 = 0x1_63CD_6124;
    /// `P(x)`, reflected, with its `x^32` term.
    const POLY: i64 = 0x1_DB71_0641;
    /// Barrett's `μ = ⌊x^64 / P(x)⌋`, reflected.
    const MU: i64 = 0x1_F701_1641;

    /// Whether [`super::crc32_update`] may take this path: the CPU has
    /// PCLMULQDQ and the process is not pinned to the scalar kernel tier.
    pub(super) fn enabled() -> bool {
        static ON: OnceLock<bool> = OnceLock::new();
        *ON.get_or_init(|| {
            crate::kernels::active().tier() != crate::KernelTier::Scalar
                && std::arch::is_x86_feature_detected!("pclmulqdq")
        })
    }

    /// `a` carried 128 or 512 bits forward by `k`'s two distances, added
    /// to `b`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// # Safety
    /// `block` holds at least 16 bytes.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn load(block: &[u8]) -> __m128i {
        // SAFETY: the caller's 16 bytes; `loadu` takes any alignment.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// The running register after `data`, as [`super::crc32_update`].
    ///
    /// # Safety
    /// The CPU supports PCLMULQDQ.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn update(state: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= MIN_LEN, "{} bytes", data.len());
        let mut blocks = data.chunks_exact(16);
        let mut lanes = [_mm_setzero_si128(); 4];
        for lane in &mut lanes {
            // SAFETY: `chunks_exact(16)` yields 16-byte blocks; the assert
            // above leaves at least four.
            *lane = unsafe { load(blocks.next().expect("64 bytes")) };
        }
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let k = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
        while blocks.len() >= 4 {
            for lane in &mut lanes {
                // SAFETY: a 16-byte block, one of the four just counted.
                *lane = fold(*lane, unsafe { load(blocks.next().expect("counted")) }, k);
            }
        }
        let k = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
        let mut acc = fold(lanes[0], lanes[1], k);
        acc = fold(acc, lanes[2], k);
        acc = fold(acc, lanes[3], k);
        for block in &mut blocks {
            // SAFETY: `chunks_exact(16)` yields 16-byte blocks.
            acc = fold(acc, unsafe { load(block) }, k);
        }
        // 128 → 96 → 64 bits, then Barrett down to the 32-bit register.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x10), _mm_srli_si128(acc, 8));
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, FOLD_64), 0x00),
            _mm_srli_si128(acc, 4),
        );
        let pu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let folded = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(acc, t2), 4)) as u32;
        super::crc32_sliced(folded, blocks.remainder())
    }
}

/// Write `payload` to `path` atomically (temp file + fsync + rename + parent
/// directory fsync) under a checksummed, versioned header. Returns the
/// payload's CRC32, the one the header carries, so a caller that records
/// it elsewhere (the checkpoint manifest) need not checksum the bytes again.
pub fn write_atomic(path: &Path, kind: u32, version: u32, payload: &[u8]) -> TvResult<u32> {
    let tmp = tmp_path(path);
    let crc = crc32(payload);
    {
        let mut f = File::create(&tmp)
            .map_err(|e| TvError::Storage(format!("create {}: {e}", tmp.display())))?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&kind.to_le_bytes());
        header.extend_from_slice(&version.to_le_bytes());
        header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        header.extend_from_slice(&crc.to_le_bytes());
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
    Ok(crc)
}

/// Read a durable file, verifying magic, kind, payload format version,
/// length, and CRC. Returns the payload and the CRC it was verified
/// against. A version other than `expect_version` is a typed error: the
/// payload layout is the caller's, and a reader must never guess at one it
/// was not written for. The payload is read straight into its own buffer,
/// once; the declared length is checked against the file's size before
/// anything is allocated for it.
pub fn read(path: &Path, expect_kind: u32, expect_version: u32) -> TvResult<(Vec<u8>, u32)> {
    let io_err = |e: std::io::Error| TvError::Storage(format!("read {}: {e}", path.display()));
    let mut f = File::open(path).map_err(io_err)?;
    let file_len = f.metadata().map_err(io_err)?.len();
    if file_len < HEADER_LEN as u64 {
        return Err(TvError::Storage(format!(
            "{}: truncated header ({file_len} bytes)",
            path.display()
        )));
    }
    let mut header = [0u8; HEADER_LEN];
    f.read_exact(&mut header).map_err(io_err)?;
    if &header[..8] != MAGIC {
        return Err(TvError::Storage(format!("{}: bad magic", path.display())));
    }
    let kind = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if kind != expect_kind {
        return Err(TvError::Storage(format!(
            "{}: file kind {kind}, expected {expect_kind}",
            path.display()
        )));
    }
    let version = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
    if version != expect_version {
        return Err(TvError::Storage(format!(
            "{}: payload format version {version}, this build reads version {expect_version}",
            path.display()
        )));
    }
    let len = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(header[24..28].try_into().expect("4 bytes"));
    let actual = file_len - HEADER_LEN as u64;
    if actual != len {
        return Err(TvError::Storage(format!(
            "{}: payload length {actual} != declared {len}",
            path.display()
        )));
    }
    let len = usize::try_from(len)
        .map_err(|_| TvError::Storage(format!("{}: payload of {len} bytes", path.display())))?;
    let mut payload = vec![0u8; len];
    f.read_exact(&mut payload).map_err(io_err)?;
    if crc32(&payload) != crc {
        return Err(TvError::Storage(format!(
            "{}: payload CRC mismatch",
            path.display()
        )));
    }
    Ok((payload, crc))
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

    /// The byte-at-a-time loop both fast paths must reproduce.
    fn crc32_bytewise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state = (state >> 8) ^ CRC_TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
        }
        state
    }

    fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = crate::SplitMix64::new(seed);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    type CrcPath = fn(u32, &[u8]) -> u32;

    /// Every path this CPU can run, each called directly (not through
    /// `crc32_update`'s choice), so a host without PCLMULQDQ or a
    /// `TV_KERNELS=scalar` run still checks the portable one.
    fn paths() -> Vec<(&'static str, CrcPath)> {
        let mut out: Vec<(&'static str, CrcPath)> =
            vec![("sliced", crc32_sliced), ("dispatched", crc32_update)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            fn hardware(state: u32, data: &[u8]) -> u32 {
                if data.len() < clmul::MIN_LEN {
                    return crc32_sliced(state, data);
                }
                // SAFETY: `paths` offers this only where PCLMULQDQ was seen.
                unsafe { clmul::update(state, data) }
            }
            out.push(("clmul", hardware));
        }
        out
    }

    #[test]
    fn every_path_equals_the_byte_loop_at_every_length_and_offset() {
        let buf = random_bytes(1024 + 16, 1);
        for (name, path) in paths() {
            for off in 0..16 {
                for len in 0..=1024 {
                    let data = &buf[off..off + len];
                    let state = 0xFFFF_FFFF ^ (off as u32).wrapping_mul(0x9E37_79B9);
                    assert_eq!(
                        path(state, data),
                        crc32_bytewise(state, data),
                        "{name}: offset {off}, length {len}"
                    );
                }
            }
        }
    }

    /// The WAL chains `len‖seq‖payload` through one running state.
    #[test]
    fn a_chained_update_equals_one_pass_at_every_split() {
        let buf = random_bytes(300, 2);
        for (name, path) in paths() {
            let whole = path(0xFFFF_FFFF, &buf);
            for split in 0..=buf.len() {
                let (a, b) = buf.split_at(split);
                assert_eq!(
                    path(path(0xFFFF_FFFF, a), b),
                    whole,
                    "{name}: split {split}"
                );
            }
        }
    }

    #[test]
    fn every_path_matches_on_four_megabytes() {
        let buf = random_bytes(4 << 20, 3);
        let want = crc32_bytewise(0xFFFF_FFFF, &buf);
        for (name, path) in paths() {
            assert_eq!(path(0xFFFF_FFFF, &buf), want, "{name}");
        }
    }

    #[test]
    fn roundtrip_preserves_payload() {
        let path = temp_file("roundtrip.df");
        let payload: Vec<u8> = (0..=255).collect();
        let crc = write_atomic(&path, 7, 3, &payload).unwrap();
        assert_eq!(crc, crc32(&payload));
        assert_eq!(read(&path, 7, 3).unwrap(), (payload, crc));
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
        assert_eq!(read(&path, 1, 2).unwrap().0, b"new");
        // No stray temp file left behind.
        assert!(!tmp_path(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }
}
