//! Seeded model checks of the MVCC segment store: a straightforward model
//! (full state per TID, ops applied in commit order) must agree with the
//! segment's snapshot + chained-delta read path at *every* addressable TID —
//! point reads, the liveness bitmap and the row scan — across any
//! interleaving of appends, `vacuum(h)` and checkpoint-image `restore`. The
//! WAL and checkpoint-image round trips ride on the same op generator.
//! Failures print the seed; rerun with it to replay.

use crate::checkpoint::{decode_segment_image, encode_segment_image};
use crate::delta::GraphDelta;
use crate::segment::{probe, SegmentStore};
use crate::value::AttrValue;
use crate::wal::{Wal, WalRecord};
use std::collections::BTreeMap;
use std::path::PathBuf;
use tv_common::ids::{LocalId, SegmentId};
use tv_common::{Bitmap, SplitMix64, Tid, VertexId};

const CAPACITY: usize = 8;
const CASES: u64 = 48;
/// One column past the schema, so `SetAttr` and `attr` also see a column
/// that no row has.
const COLS: usize = 3;

fn vid(l: u32) -> VertexId {
    VertexId::new(SegmentId(0), LocalId(l))
}

fn random_delta(rng: &mut SplitMix64) -> GraphDelta {
    let local = |rng: &mut SplitMix64| rng.next_below(CAPACITY as u64) as u32;
    let id = vid(local(rng));
    let int = rng.next_u64() as i64;
    match rng.next_below(6) {
        0 | 1 => GraphDelta::UpsertVertex {
            id,
            attrs: vec![AttrValue::Int(int), AttrValue::Str(format!("s{}", int % 7))],
        },
        2 => GraphDelta::DeleteVertex { id },
        3 => {
            let col = rng.next_below(COLS as u64) as usize;
            let value = if col == 1 {
                AttrValue::Str(format!("t{}", int % 5))
            } else {
                AttrValue::Int(int)
            };
            GraphDelta::SetAttr { id, col, value }
        }
        4 => GraphDelta::AddEdge {
            etype: rng.next_below(2) as u32,
            from: id,
            to: vid(local(rng)),
        },
        _ => GraphDelta::RemoveEdge {
            etype: rng.next_below(2) as u32,
            from: id,
            to: vid(local(rng)),
        },
    }
}

/// Reference model: the full segment state after some TID.
#[derive(Debug, Clone, Default)]
struct Model {
    rows: BTreeMap<u32, Vec<AttrValue>>,
    edges: BTreeMap<(u32, u32), Vec<VertexId>>,
}

impl Model {
    fn apply(&mut self, delta: &GraphDelta) {
        let l = delta.home_vertex().local().0;
        match delta {
            GraphDelta::UpsertVertex { attrs, .. } => {
                self.rows.insert(l, attrs.clone());
            }
            GraphDelta::DeleteVertex { .. } => {
                self.rows.remove(&l);
                self.edges.retain(|&(from, _), _| from != l);
            }
            GraphDelta::SetAttr { col, value, .. } => {
                if let Some(slot) = self.rows.get_mut(&l).and_then(|r| r.get_mut(*col)) {
                    *slot = value.clone();
                }
            }
            GraphDelta::AddEdge { etype, to, .. } => {
                let list = self.edges.entry((l, *etype)).or_default();
                if !list.contains(to) {
                    list.push(*to);
                }
            }
            GraphDelta::RemoveEdge { etype, to, .. } => {
                if let Some(list) = self.edges.get_mut(&(l, *etype)) {
                    list.retain(|t| t != to);
                }
            }
        }
    }
}

fn scan(store: &SegmentStore, tid: Tid, within: Option<&Bitmap>) -> Vec<(u32, Vec<AttrValue>)> {
    let mut out = Vec::new();
    store.for_each_live_row(tid, within, |local, row| {
        out.push((local as u32, row.to_vec()))
    });
    out
}

/// Every read the store offers, at `tid`, against the model of that TID.
fn check_at(store: &SegmentStore, model: &Model, tid: Tid, rng: &mut SplitMix64, ctx: &str) {
    for l in 0..CAPACITY as u32 {
        let want = model.rows.get(&l);
        let at = format!("{ctx}: local {l} at {tid}");
        assert_eq!(store.is_live(l as usize, tid), want.is_some(), "{at}");
        assert_eq!(store.row(l as usize, tid).as_ref(), want, "{at}");
        for col in 0..COLS {
            let want_attr = want.and_then(|r| r.get(col));
            assert_eq!(
                store.attr(l as usize, col, tid).as_ref(),
                want_attr,
                "{at} col {col}"
            );
        }
        for etype in 0..2 {
            let want_edges = model.edges.get(&(l, etype)).cloned().unwrap_or_default();
            assert_eq!(store.edges(l as usize, etype, tid), want_edges, "{at}");
        }
    }
    let live: Vec<usize> = model.rows.keys().map(|&l| l as usize).collect();
    assert_eq!(
        store.live_bitmap(tid).iter_ones().collect::<Vec<_>>(),
        live,
        "{ctx}: bitmap at {tid}"
    );
    let all: Vec<(u32, Vec<AttrValue>)> = model.rows.iter().map(|(&l, r)| (l, r.clone())).collect();
    assert_eq!(scan(store, tid, None), all, "{ctx}: scan at {tid}");
    let within = Bitmap::from_indices(CAPACITY, (0..CAPACITY).filter(|_| rng.next_below(2) == 0));
    let some: Vec<(u32, Vec<AttrValue>)> = all
        .iter()
        .filter(|(l, _)| within.get(*l as usize))
        .cloned()
        .collect();
    assert_eq!(
        scan(store, tid, Some(&within)),
        some,
        "{ctx}: restricted scan at {tid}"
    );
}

/// Reads below a vacuum horizon are out of contract (the transaction
/// manager guarantees no active reader predates it, §4.3), so every check
/// covers the TIDs from the last fold point up.
fn check_from(store: &SegmentStore, models: &[Model], floor: u64, rng: &mut SplitMix64, ctx: &str) {
    for t in floor..models.len() as u64 {
        check_at(store, &models[t as usize], Tid(t), rng, ctx);
    }
}

#[test]
fn reads_match_model_across_appends_vacuums_and_restores() {
    for seed in 0..CASES {
        let ctx = format!("seed {seed}");
        let mut rng = SplitMix64::new(0x5E6D_0000 + seed);
        let mut store = SegmentStore::new(SegmentId(0), CAPACITY);
        // models[t] = state after every delta with tid <= t; `floor` is the
        // newest fold point, below which the store no longer answers.
        let mut models = vec![Model::default()];
        let mut log: Vec<(Tid, GraphDelta)> = Vec::new();
        let mut floor = 0u64;
        let steps = 1 + rng.next_below(60);
        for _ in 0..steps {
            match rng.next_below(10) {
                0 => {
                    let top = models.len() as u64 - 1;
                    floor += rng.next_below(top - floor + 1);
                    store.vacuum(Tid(floor));
                    check_from(&store, &models, floor, &mut rng, &ctx);
                }
                1 => {
                    // Crash + recover: a checkpoint image taken at a random
                    // TID, restored into a fresh segment, then the deltas
                    // newer than it replayed as the WAL tail would be.
                    let top = models.len() as u64 - 1;
                    floor += rng.next_below(top - floor + 1);
                    let image =
                        decode_segment_image(&encode_segment_image(&store.image_at(Tid(floor))))
                            .unwrap();
                    store = SegmentStore::new(SegmentId(0), CAPACITY);
                    store.restore(image).unwrap();
                    for (tid, delta) in log.iter().filter(|(tid, _)| tid.0 > floor) {
                        store.append_delta(*tid, delta.clone()).unwrap();
                    }
                    check_from(&store, &models, floor, &mut rng, &ctx);
                }
                _ => {
                    // A transaction of 1..=3 deltas under one new TID.
                    let tid = models.len() as u64;
                    let mut next = models[tid as usize - 1].clone();
                    for _ in 0..1 + rng.next_below(3) {
                        let delta = random_delta(&mut rng);
                        next.apply(&delta);
                        store.append_delta(Tid(tid), delta.clone()).unwrap();
                        log.push((Tid(tid), delta));
                    }
                    models.push(next);
                    let t = floor + rng.next_below(tid - floor + 1);
                    check_at(&store, &models[t as usize], Tid(t), &mut rng, &ctx);
                }
            }
        }
        check_from(&store, &models, floor, &mut rng, &ctx);
        let top = models.len() as u64 - 1;
        store.vacuum(Tid(top));
        assert_eq!(store.pending_deltas(), 0, "{ctx}");
        check_from(&store, &models, top, &mut rng, &ctx);
    }
}

/// The cost model as counts: a scan reads each pending delta at most once,
/// whatever the read TID, and a point read only its own local's deltas.
#[test]
fn reads_touch_each_delta_at_most_once_and_only_their_own_local() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xC0_0000 + seed);
        let mut store = SegmentStore::new(SegmentId(0), CAPACITY);
        let n = 1 + rng.next_below(80);
        let mut homes: Vec<u32> = Vec::new();
        for tid in 1..=n {
            let delta = random_delta(&mut rng);
            homes.push(delta.home_vertex().local().0);
            store.append_delta(Tid(tid), delta).unwrap();
        }
        // Fold a prefix so the chains are the rebuilt ones.
        let folded = store.vacuum(Tid(rng.next_below(n + 1)));
        let homes = &homes[folded..];
        assert_eq!(store.pending_deltas(), homes.len());

        let at_most_once = |reads: &[u32], what: &str| {
            let mut seen = vec![false; homes.len()];
            for &at in reads {
                assert!(
                    !std::mem::replace(&mut seen[at as usize], true),
                    "seed {seed}: {what} read delta {at} twice"
                );
            }
        };
        for read_tid in [Tid(folded as u64), Tid(n / 2 + 1), Tid(n), Tid::MAX] {
            probe::take();
            store.for_each_live_row(read_tid, None, |_, _| {});
            at_most_once(&probe::take(), "scan");

            let l = rng.next_below(CAPACITY as u64) as u32;
            let point_reads: [(&str, &dyn Fn()); 4] = [
                ("is_live", &|| {
                    let _ = store.is_live(l as usize, read_tid);
                }),
                ("attr", &|| {
                    let _ = store.attr(l as usize, 0, read_tid);
                }),
                ("row", &|| {
                    let _ = store.row(l as usize, read_tid);
                }),
                ("edges", &|| {
                    let _ = store.edges(l as usize, 0, read_tid);
                }),
            ];
            for (what, read) in point_reads {
                probe::take();
                read();
                let reads = probe::take();
                at_most_once(&reads, what);
                for at in reads {
                    assert_eq!(
                        homes[at as usize], l,
                        "seed {seed}: {what}({l}) read local {}'s delta",
                        homes[at as usize]
                    );
                }
            }
        }
    }
}

fn temp_wal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tv-model-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

/// WAL encode/decode round-trips arbitrary delta sequences.
#[test]
fn wal_roundtrips_arbitrary_deltas() {
    let path = temp_wal("roundtrip.wal");
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xAA_0000 + seed);
        let record = WalRecord {
            tid: Tid(1 + rng.next_below(1_000_000)),
            deltas: (0..1 + rng.next_below(30))
                .map(|_| (0u32, random_delta(&mut rng)))
                .collect(),
            extra: (0..rng.next_below(64))
                .map(|_| rng.next_u64() as u8)
                .collect(),
        };
        let _ = std::fs::remove_file(&path);
        Wal::open(&path).unwrap().append(&record).unwrap();
        assert_eq!(Wal::replay(&path).unwrap(), vec![record], "seed {seed}");
    }
    let _ = std::fs::remove_file(&path);
}

/// A WAL torn at an arbitrary byte boundary replays to an exact record
/// prefix: every replayed record carries its graph deltas AND its `extra`
/// (vector-delta) payload together — a transaction is atomically present or
/// absent across both stores, never split. Reopening after the tear
/// truncates it so a new epoch of appends stays reachable.
#[test]
fn torn_wal_replays_atomic_prefix() {
    let path = temp_wal("torn.wal");
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x70_0000 + seed);
        // One record per delta; the extra payload marks the same tid so a
        // split record would be detectable.
        let records: Vec<WalRecord> = (1..=2 + rng.next_below(18))
            .map(|tid| WalRecord {
                tid: Tid(tid),
                deltas: vec![(0u32, random_delta(&mut rng))],
                extra: tid.to_le_bytes().to_vec(),
            })
            .collect();
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
        }
        let data = std::fs::read(&path).unwrap();
        // Keep at least the 8-byte file magic; tear anywhere after it.
        let cut = 8 + rng.next_below(data.len() as u64 - 8) as usize;
        std::fs::write(&path, &data[..cut]).unwrap();

        let replayed = Wal::replay(&path).unwrap();
        assert!(replayed.len() <= records.len(), "seed {seed}");
        assert_eq!(replayed, records[..replayed.len()], "seed {seed}");
        // Second epoch: reopen (truncating the tear) and append.
        let epoch2 = WalRecord {
            tid: Tid(records.len() as u64 + 1),
            deltas: records[0].deltas.clone(),
            extra: vec![0xEE],
        };
        Wal::open(&path).unwrap().append(&epoch2).unwrap();
        let after = Wal::replay(&path).unwrap();
        assert_eq!(after.len(), replayed.len() + 1, "seed {seed}");
        assert_eq!(after.last(), Some(&epoch2), "seed {seed}");
    }
    let _ = std::fs::remove_file(&path);
}

/// Checkpoint segment images round-trip bit-identically at any horizon.
/// (That a restored image reproduces the source's reads is part of
/// `reads_match_model_across_appends_vacuums_and_restores`.)
#[test]
fn segment_image_roundtrips_at_any_horizon() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x1A_0000 + seed);
        let mut store = SegmentStore::new(SegmentId(0), CAPACITY);
        let n = 1 + rng.next_below(40);
        for tid in 1..=n {
            store
                .append_delta(Tid(tid), random_delta(&mut rng))
                .unwrap();
        }
        let bytes = encode_segment_image(&store.image_at(Tid(rng.next_below(n + 1))));
        let decoded = decode_segment_image(&bytes).unwrap();
        assert_eq!(encode_segment_image(&decoded), bytes, "seed {seed}");
    }
}
