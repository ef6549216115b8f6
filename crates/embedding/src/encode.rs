//! Binary encoding of vector deltas for the shared WAL payload.
//!
//! Graph deltas and vector deltas commit under one TID; the graph WAL record
//! carries the vector deltas in its opaque `extra` field, encoded here. On
//! recovery the embedding service decodes and replays them, restoring the
//! in-memory delta stores — the piece that makes graph+vector updates
//! atomic and durable together.

use tv_common::wire::{put_f32s, put_u32, put_u64, Reader};
use tv_common::{Tid, TvResult, VertexId};
use tv_hnsw::index::DeltaAction;
use tv_hnsw::DeltaRecord;

/// Encode `(attr_id, record)` pairs into a WAL `extra` payload.
#[must_use]
pub fn encode_vector_deltas(deltas: &[(u32, DeltaRecord)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + deltas.len() * 32);
    put_u32(&mut buf, deltas.len() as u32);
    for (attr_id, rec) in deltas {
        put_u32(&mut buf, *attr_id);
        put_delta_record(&mut buf, rec);
    }
    buf
}

/// Decode a WAL `extra` payload back into `(attr_id, record)` pairs.
pub fn decode_vector_deltas(buf: &[u8]) -> TvResult<Vec<(u32, DeltaRecord)>> {
    let mut r = Reader::new(buf, "vector delta");
    let n = r.count(4 + MIN_RECORD_BYTES)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push((r.u32()?, read_delta_record(&mut r)?));
    }
    Ok(out)
}

/// An empty-vector record: action, vertex id, TID, vector length.
pub(crate) const MIN_RECORD_BYTES: usize = 1 + 8 + 8 + 4;

/// One record, as the WAL payload above and the segment image's delta tail
/// ([`crate::image`]) both carry it.
pub(crate) fn put_delta_record(buf: &mut Vec<u8>, rec: &DeltaRecord) {
    buf.push(match rec.action {
        DeltaAction::Upsert => 0,
        DeltaAction::Delete => 1,
    });
    put_u64(buf, rec.id.0);
    put_u64(buf, rec.tid.0);
    put_u32(buf, rec.vector.len() as u32);
    put_f32s(buf, &rec.vector);
}

pub(crate) fn read_delta_record(r: &mut Reader<'_>) -> TvResult<DeltaRecord> {
    let action = match r.u8()? {
        0 => DeltaAction::Upsert,
        1 => DeltaAction::Delete,
        t => return Err(r.corrupt(format_args!("bad action {t}"))),
    };
    let id = VertexId(r.u64()?);
    let tid = Tid(r.u64()?);
    let len = r.u32()? as usize;
    Ok(DeltaRecord {
        action,
        id,
        tid,
        vector: r.f32s(len)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let deltas = vec![
            (
                0u32,
                DeltaRecord::upsert(VertexId(42), Tid(7), vec![1.5, -2.0, 3.25]),
            ),
            (3u32, DeltaRecord::delete(VertexId(9), Tid(8))),
        ];
        let bytes = encode_vector_deltas(&deltas);
        let decoded = decode_vector_deltas(&bytes).unwrap();
        assert_eq!(decoded, deltas);
    }

    #[test]
    fn empty_roundtrip() {
        let bytes = encode_vector_deltas(&[]);
        assert!(decode_vector_deltas(&bytes).unwrap().is_empty());
    }

    #[test]
    fn truncation_detected() {
        let deltas = vec![(
            1u32,
            DeltaRecord::upsert(VertexId(1), Tid(1), vec![1.0; 10]),
        )];
        let bytes = encode_vector_deltas(&deltas);
        for cut in [0, 3, 8, bytes.len() - 1] {
            assert!(decode_vector_deltas(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bad_action_detected() {
        let deltas = vec![(1u32, DeltaRecord::delete(VertexId(1), Tid(1)))];
        let mut bytes = encode_vector_deltas(&deltas);
        bytes[8] = 9; // action byte
        assert!(decode_vector_deltas(&bytes).is_err());
    }
}
