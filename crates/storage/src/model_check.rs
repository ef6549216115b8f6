//! Seeded model checks of the MVCC segment store: a straightforward model
//! (full state per TID, ops applied in commit order) must agree with the
//! segment's reads at *every* addressable TID — point reads, the liveness
//! bitmap and the row scan — across any interleaving of appends, `vacuum(h)`
//! and checkpoint-image `restore`, and the row image's path must agree with
//! the chain path (snapshot + chained deltas) it falls back to. The WAL and
//! checkpoint-image round trips ride on the same op generator. Failures
//! print the seed; rerun with it to replay.

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
/// The arity of every row `random_delta` upserts.
const ARITY: usize = COLS - 1;

fn vid(l: u32) -> VertexId {
    VertexId::new(SegmentId(0), LocalId(l))
}

fn random_delta(rng: &mut SplitMix64) -> GraphDelta {
    random_delta_in(rng, CAPACITY)
}

/// A random delta homed at (and pointing at) a local below `capacity`.
fn random_delta_in(rng: &mut SplitMix64, capacity: usize) -> GraphDelta {
    let local = |rng: &mut SplitMix64| rng.next_below(capacity as u64) as u32;
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

/// The image path's scan: `scan_blocks` with a predicate that passes every
/// candidate, each block's rows paired back with its locals (a block is
/// visited iff it has a candidate, so the visits line up with the result's
/// non-zero words).
fn block_scan(
    store: &SegmentStore,
    tid: Tid,
    within: Option<&Bitmap>,
) -> Vec<(u32, Vec<AttrValue>)> {
    let mut blocks = Vec::new();
    let passed = store.scan_blocks(tid, within, |mask, rows| {
        blocks.push((mask, rows.to_vec()));
        mask
    });
    let visited = passed.words().iter().enumerate().filter(|(_, &w)| w != 0);
    let mut out = Vec::new();
    for ((w, &word), (mask, rows)) in visited.zip(blocks) {
        assert_eq!(word, mask, "block {w}");
        for i in (0..64).filter(|i| mask >> i & 1 == 1) {
            let row = rows[i * ARITY..(i + 1) * ARITY].to_vec();
            out.push(((w * 64 + i) as u32, row));
        }
    }
    out
}

/// The image path against the chain path at `tid`: liveness and row of
/// every local, the block scan against the chain scan, whole and within a
/// random restriction.
fn check_image_against_chain(store: &SegmentStore, tid: Tid, rng: &mut SplitMix64, ctx: &str) {
    for l in 0..store.capacity() {
        let at = format!("{ctx}: local {l} at {tid}, image vs chain");
        assert_eq!(store.is_live(l, tid), store.chain_is_live(l, tid), "{at}");
        assert_eq!(store.row(l, tid), store.chain_row(l, tid), "{at}");
    }
    assert_eq!(
        block_scan(store, tid, None),
        scan(store, tid, None),
        "{ctx}: block scan at {tid}"
    );
    let cap = store.capacity();
    let within = Bitmap::from_indices(cap, (0..cap).filter(|_| rng.next_below(3) != 0));
    assert_eq!(
        block_scan(store, tid, Some(&within)),
        scan(store, tid, Some(&within)),
        "{ctx}: restricted block scan at {tid}"
    );
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
    check_image_against_chain(store, tid, rng, ctx);
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
        let mut store = SegmentStore::new(SegmentId(0), CAPACITY, 2);
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
                    store = SegmentStore::new(SegmentId(0), CAPACITY, 2);
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

/// The image against the chain on a segment of several blocks, the last
/// one partial: random transactions (up to eight deltas each, so a block
/// often holds several rows that changed after a pinned reader), vacuums and
/// restores, with every addressable TID checked after each step.
#[test]
fn image_matches_chain_across_blocks() {
    const WIDE: usize = 150;
    for seed in 0..CASES / 4 {
        let ctx = format!("seed {seed}");
        let mut rng = SplitMix64::new(0x1AA6_0000 + seed);
        let mut store = SegmentStore::new(SegmentId(0), WIDE, ARITY);
        let mut log: Vec<(Tid, GraphDelta)> = Vec::new();
        let (mut top, mut floor) = (0u64, 0u64);
        for _ in 0..30 {
            match rng.next_below(8) {
                0 => {
                    floor += rng.next_below(top - floor + 1);
                    store.vacuum(Tid(floor));
                }
                1 => {
                    floor += rng.next_below(top - floor + 1);
                    let image = store.image_at(Tid(floor));
                    store = SegmentStore::new(SegmentId(0), WIDE, ARITY);
                    store.restore(image).unwrap();
                    for (tid, delta) in log.iter().filter(|(tid, _)| tid.0 > floor) {
                        store.append_delta(*tid, delta.clone()).unwrap();
                    }
                }
                _ => {
                    top += 1;
                    for _ in 0..1 + rng.next_below(8) {
                        let delta = random_delta_in(&mut rng, WIDE);
                        store.append_delta(Tid(top), delta.clone()).unwrap();
                        log.push((Tid(top), delta));
                    }
                }
            }
            for t in floor..=top {
                check_image_against_chain(&store, Tid(t), &mut rng, &ctx);
            }
        }
    }
}

/// The fallback's named cases against the model, each at every TID it
/// leaves addressable: readers pinned below commits the image already
/// holds, a `SetAttr` past the row's arity, delete then re-insert, an edge
/// delta newer than the reader (not a row change), then `vacuum(h)` and a
/// `restore` with the tail replayed.
#[test]
fn pinned_readers_fall_back_to_the_chain() {
    let row = |i: i64| vec![AttrValue::Int(i), AttrValue::Str(format!("s{i}"))];
    let set = |l: u32, col: usize, value: AttrValue| GraphDelta::SetAttr {
        id: vid(l),
        col,
        value,
    };
    let txns: Vec<Vec<GraphDelta>> = vec![
        vec![
            GraphDelta::UpsertVertex {
                id: vid(0),
                attrs: row(1),
            },
            GraphDelta::UpsertVertex {
                id: vid(5),
                attrs: row(5),
            },
        ],
        vec![set(0, 0, AttrValue::Int(10))],
        vec![set(0, ARITY + 2, AttrValue::Int(99))],
        vec![GraphDelta::DeleteVertex { id: vid(0) }],
        vec![GraphDelta::UpsertVertex {
            id: vid(0),
            attrs: row(7),
        }],
        vec![GraphDelta::AddEdge {
            etype: 0,
            from: vid(5),
            to: vid(0),
        }],
        vec![set(5, 1, AttrValue::Str("x".into()))],
    ];
    let mut rng = SplitMix64::new(0xFA11);
    let mut store = SegmentStore::new(SegmentId(0), CAPACITY, ARITY);
    let mut models = vec![Model::default()];
    let mut log = Vec::new();
    for (i, txn) in txns.into_iter().enumerate() {
        let tid = Tid(i as u64 + 1);
        let mut next = models[i].clone();
        for delta in txn {
            next.apply(&delta);
            store.append_delta(tid, delta.clone()).unwrap();
            log.push((tid, delta));
        }
        models.push(next);
    }
    let top = models.len() as u64 - 1;
    assert_eq!(
        models[3].rows[&0],
        vec![AttrValue::Int(10), AttrValue::Str("s1".into())]
    );
    assert!(!models[4].rows.contains_key(&0));
    check_from(&store, &models, 0, &mut rng, "pinned");
    store.vacuum(Tid(3));
    check_from(&store, &models, 3, &mut rng, "vacuumed to 3");
    let image = store.image_at(Tid(5));
    let mut restored = SegmentStore::new(SegmentId(0), CAPACITY, ARITY);
    restored.restore(image).unwrap();
    for (tid, delta) in log.iter().filter(|(tid, _)| tid.0 > 5) {
        restored.append_delta(*tid, delta.clone()).unwrap();
    }
    check_from(&restored, &models, 5, &mut rng, "restored at 5");
    assert_eq!(restored.pending_deltas() as u64, top - 5);
}

/// An upsert or a restored row whose length is not the segment's arity is
/// refused before it reaches the log or the image.
#[test]
fn rows_of_another_arity_are_refused() {
    let mut store = SegmentStore::new(SegmentId(0), CAPACITY, ARITY);
    let short = GraphDelta::UpsertVertex {
        id: vid(1),
        attrs: vec![AttrValue::Int(1)],
    };
    assert!(store.append_delta(Tid(1), short).is_err());
    assert_eq!(store.pending_deltas(), 0);
    assert!(!store.is_live(1, Tid(1)));
    let mut source = SegmentStore::new(SegmentId(0), CAPACITY, ARITY);
    let attrs = vec![AttrValue::Int(2), AttrValue::Int(3)];
    source
        .append_delta(Tid(1), GraphDelta::UpsertVertex { id: vid(2), attrs })
        .unwrap();
    let mut wide = SegmentStore::new(SegmentId(0), CAPACITY, ARITY + 1);
    assert!(wide.restore(source.image_at(Tid(1))).is_err());
    assert!(wide.restore(source.image_at(Tid(0))).is_ok());
}

/// The cost model as counts: a scan reads each pending delta at most once,
/// whatever the read TID, and a point read only its own local's deltas.
#[test]
fn reads_touch_each_delta_at_most_once_and_only_their_own_local() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0xC0_0000 + seed);
        let mut store = SegmentStore::new(SegmentId(0), CAPACITY, 2);
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
            probe::take();
            let _ = store.scan_blocks(read_tid, None, |mask, _| mask);
            at_most_once(&probe::take(), "block scan");

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
        let mut store = SegmentStore::new(SegmentId(0), CAPACITY, 2);
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
