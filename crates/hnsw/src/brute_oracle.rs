//! Seeded model check of the index's membership contract, with
//! [`BruteForceIndex`] — the other `VectorIndex` implementor — as the
//! reference: after any upsert/delete sequence over a small key space the
//! two agree on the live set and on every stored vector, and a snapshot
//! round trip of the HNSW side preserves both. Traversal order, counters and
//! result bits are pinned elsewhere (`core_identity`); this suite is about
//! *what is stored*. Failures print the seed; rerun with it to replay.

use crate::brute::BruteForceIndex;
use crate::{snapshot, DeltaRecord, HnswConfig, HnswIndex, VectorIndex};
use tv_common::ids::{LocalId, SegmentId};
use tv_common::{DistanceMetric, SplitMix64, Tid, VertexId};

const CASES: u64 = 48;
const DIM: usize = 4;
const KEYS: u64 = 16;

fn key(i: u64) -> VertexId {
    VertexId::new(SegmentId(0), LocalId(i as u32))
}

/// 1–60 operations, two upserts for every delete, TIDs in commit order.
fn random_ops(rng: &mut SplitMix64) -> Vec<DeltaRecord> {
    (0..1 + rng.next_below(60))
        .map(|t| {
            let id = key(rng.next_below(KEYS));
            if rng.next_below(3) == 0 {
                DeltaRecord::delete(id, Tid(t + 1))
            } else {
                let v = (0..DIM).map(|_| rng.next_f32() * 200.0 - 100.0).collect();
                DeltaRecord::upsert(id, Tid(t + 1), v)
            }
        })
        .collect()
}

/// The live `(key, vector bits)` pairs of an index, in key order.
fn stored(idx: &dyn VectorIndex) -> Vec<(VertexId, Vec<u32>)> {
    let mut out: Vec<_> = idx
        .scan()
        .map(|(k, v)| (k, v.iter().map(|x| x.to_bits()).collect()))
        .collect();
    out.sort_unstable();
    for (k, v) in &out {
        let got = idx.get_embedding(*k).expect("scanned key is live");
        assert_eq!(&got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), v);
    }
    assert_eq!(out.len(), idx.len());
    out
}

#[test]
fn hnsw_and_reference_agree_on_what_is_stored_across_snapshots() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xB207E ^ seed);
        let ops = random_ops(&mut rng);
        let mut hnsw = HnswIndex::new(HnswConfig::new(DIM, DistanceMetric::L2).with_m(4));
        let mut reference = BruteForceIndex::new(DIM, DistanceMetric::L2);
        // Odd seeds apply the sequence as one `UpdateItems` batch, even
        // seeds one record at a time with a snapshot round trip in between.
        if seed % 2 == 1 {
            hnsw.update_items(&ops).unwrap();
            reference.update_items(&ops).unwrap();
        } else {
            for op in &ops {
                hnsw.update_items(std::slice::from_ref(op)).unwrap();
                reference.update_items(std::slice::from_ref(op)).unwrap();
                if rng.next_below(8) == 0 {
                    hnsw = snapshot::from_bytes(&snapshot::to_bytes(&hnsw)).unwrap();
                }
            }
        }
        let want = stored(&reference);
        assert_eq!(stored(&hnsw), want, "seed {seed}: live set and vectors");
        let restored = snapshot::from_bytes(&snapshot::to_bytes(&hnsw)).unwrap();
        assert_eq!(stored(&restored), want, "seed {seed}: after a round trip");
        for i in 0..KEYS {
            let absent = want.iter().all(|(k, _)| *k != key(i));
            assert_eq!(
                restored.get_embedding(key(i)).is_none(),
                absent,
                "seed {seed}"
            );
        }
    }
}
