//! Seeded model checks of the embedding segment's MVCC store: a reference
//! model (each local's newest write after every TID) must agree with the
//! snapshot + delta-log read path at *every* TID from the retained floor up
//! — point reads, live counts, delta tails, and exact (brute-force) top-k
//! and range search down to the distance bits — across any interleaving of
//! delta batches, `delta_merge(h)`, `index_merge(h)`, `prune(h)`,
//! `rebuild`, and a checkpoint restored into a fresh segment, on an f32 and
//! an SQ8 attribute. Failures print the seed; rerun with it to replay.

use crate::segment::EmbeddingSegment;
use crate::types::EmbeddingTypeDef;
use std::collections::HashMap;
use tv_common::bitmap::Filter;
use tv_common::delta_log::probe;
use tv_common::ids::LocalId;
use tv_common::{
    Bitmap, DistanceMetric, Neighbor, PlannerConfig, PreparedQuery, QuantSpec, SegmentId,
    SplitMix64, StorageTier, Tid, VertexId,
};
use tv_hnsw::{DeltaRecord, VectorIndex};

const CAPACITY: usize = 16;
const DIM: usize = 4;
const CASES: u64 = 32;

/// Per local id: the TID of its newest write and the vector it left
/// (`None` once deleted), after every record up to some TID.
type State = Vec<Option<(Tid, Option<Vec<f32>>)>>;

fn vid(l: u32) -> VertexId {
    VertexId::new(SegmentId(0), LocalId(l))
}

fn random_vector(rng: &mut SplitMix64) -> Vec<f32> {
    (0..DIM).map(|_| rng.next_f32() * 8.0 - 4.0).collect()
}

fn fresh_segment(quant: QuantSpec) -> EmbeddingSegment {
    let def = EmbeddingTypeDef::new("e", DIM, "M", DistanceMetric::L2).with_quant(quant);
    EmbeddingSegment::new(SegmentId(0), &def, CAPACITY)
}

/// The planner forced to an exact scan of every segment: a segment holds at
/// most `CAPACITY` valid points, all at or below the brute floor.
fn brute() -> PlannerConfig {
    PlannerConfig::default().with_brute_threshold(CAPACITY)
}

fn live(state: &State, l: usize) -> Option<&Vec<f32>> {
    state[l].as_ref().and_then(|(_, v)| v.as_ref())
}

fn bits(found: &[Neighbor]) -> Vec<(VertexId, u32)> {
    found.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// The records of `log` (every record ever appended) in `(a, b]`.
fn records_in(log: &[DeltaRecord], a: u64, b: u64) -> Vec<DeltaRecord> {
    log.iter()
        .filter(|r| r.tid.0 > a && r.tid.0 <= b)
        .cloned()
        .collect()
}

/// Every read the segment offers, at `tid`, against `states[tid]`. The
/// segment answers every TID from `floor` up.
fn check_at(
    seg: &EmbeddingSegment,
    states: &[State],
    log: &[DeltaRecord],
    floor: u64,
    tid: u64,
    rng: &mut SplitMix64,
    ctx: &str,
) {
    let at = format!("{ctx} at {tid}");
    let (t, state) = (Tid(tid), &states[tid as usize]);
    // The snapshot a read at `t` starts from holds exactly the live
    // vectors of its own TID (bit for bit on an f32 attribute; a rebuild
    // of SQ8 codes re-inserts their reconstructions).
    let snap = seg.snapshot_for(t);
    assert!(
        snap.up_to <= t,
        "{at}: snapshot {} above the read",
        snap.up_to
    );
    let f32_tier = seg.quant_spec().tier == StorageTier::F32;
    let image = &states[snap.up_to.0 as usize];
    for l in 0..CAPACITY {
        let want = live(image, l);
        assert_eq!(
            snap.index.contains(vid(l as u32)),
            want.is_some(),
            "{at}: snapshot {} local {l}",
            snap.up_to
        );
        if f32_tier {
            assert_eq!(
                snap.index.get_embedding(vid(l as u32)).as_ref(),
                want,
                "{at}: snapshot local {l}"
            );
        }
    }
    // A local is overlaid when its newest write is newer than the snapshot.
    let overlaid = |l: usize| state[l].as_ref().is_some_and(|(w, _)| *w > snap.up_to);

    for l in 0..CAPACITY {
        let want = if overlaid(l) {
            live(state, l).cloned()
        } else {
            snap.index.get_embedding(vid(l as u32))
        };
        probe::take();
        assert_eq!(
            seg.get_embedding(vid(l as u32), t),
            want,
            "{at}: get_embedding({l})"
        );
        let log_now = seg.delta_tail(Tid::ZERO, Tid::MAX);
        for pos in probe::take() {
            let home = log_now[pos as usize].id.local().0 as usize;
            assert_eq!(
                home, l,
                "{at}: get_embedding({l}) read local {home}'s record"
            );
        }
    }
    let live_count = (0..CAPACITY).filter(|&l| live(state, l).is_some()).count();
    assert_eq!(seg.live_count(t), live_count, "{at}: live_count");

    let a = floor + rng.next_below(tid - floor + 1);
    let b = a + rng.next_below(4);
    assert_eq!(
        seg.delta_tail(Tid(a), Tid(b)),
        records_in(log, a, b),
        "{at}: delta_tail({a}, {b})"
    );

    for round in 0..3 {
        // Round 1 queries with a stored vector, so a distance-0 hit exists.
        let start = rng.next_below(CAPACITY as u64) as usize;
        let stored = (0..CAPACITY).find_map(|l| live(state, (start + l) % CAPACITY));
        let query = match stored {
            Some(v) if round == 1 => v.clone(),
            _ => random_vector(rng),
        };
        let filter = (round == 2).then(|| {
            Bitmap::from_indices(CAPACITY, (0..CAPACITY).filter(|_| rng.next_below(3) != 0))
        });
        let accepts = |l: usize| filter.as_ref().is_none_or(|b| b.get(l));
        // Snapshot-resident vectors scored as the snapshot's own exact scan
        // scores them (the SQ8 codes), overlay vectors as f32.
        let resident_bm = Bitmap::from_indices(
            CAPACITY,
            (0..CAPACITY).filter(|&l| !overlaid(l) && accepts(l)),
        );
        let (scan, _) = snap
            .index
            .brute_force_top_k(&query, CAPACITY, Filter::Valid(&resident_bm));
        let scanned: HashMap<VertexId, f32> = scan.iter().map(|n| (n.id, n.dist)).collect();
        let pq = PreparedQuery::new(DistanceMetric::L2, &query);
        let mut want: Vec<Neighbor> = (0..CAPACITY)
            .filter(|&l| accepts(l))
            .filter_map(|l| {
                let id = vid(l as u32);
                let v = live(state, l)?;
                let d = if overlaid(l) || f32_tier {
                    pq.distance(v)
                } else {
                    scanned[&id]
                };
                Some(Neighbor::new(id, d))
            })
            .collect();
        want.sort_unstable();
        assert_eq!(
            scan.len(),
            want.iter()
                .filter(|n| !overlaid(n.id.local().0 as usize))
                .count(),
            "{at}: resident scan"
        );

        let k = 1 + rng.next_below(5) as usize;
        probe::take();
        let (got, stats) = seg.search(&query, k, 32, filter.as_ref(), t, &brute());
        let reads = probe::take();
        assert_eq!(
            stats.plans_in_traversal + stats.plans_post_filter,
            0,
            "{at}: a graph beam served the exact check"
        );
        assert_eq!(
            bits(&got),
            bits(&want[..k.min(want.len())]),
            "{at}: top-{k} round {round}"
        );
        let mut seen = vec![false; seg.delta_tail(Tid::ZERO, Tid::MAX).len()];
        for pos in reads {
            assert!(
                !std::mem::replace(&mut seen[pos as usize], true),
                "{at}: search read record {pos} twice"
            );
        }

        let threshold = want.get(want.len() / 2).map_or(1.0, |n| n.dist);
        let (got, _) = seg.range_search(&query, threshold, 32, filter.as_ref(), t, &brute());
        let within: Vec<Neighbor> = want
            .iter()
            .filter(|n| n.dist <= threshold)
            .copied()
            .collect();
        assert_eq!(
            bits(&got),
            bits(&within),
            "{at}: range {threshold} round {round}"
        );
    }
}

/// Reads below the retained floor are out of contract (no running
/// transaction predates the vacuum horizon, §4.3), so every check covers
/// the TIDs from the floor up.
fn check_from(
    seg: &EmbeddingSegment,
    states: &[State],
    log: &[DeltaRecord],
    floor: u64,
    rng: &mut SplitMix64,
    ctx: &str,
) {
    for t in floor..states.len() as u64 {
        check_at(seg, states, log, floor, t, rng, ctx);
    }
}

fn run(quant: QuantSpec, seed: u64) {
    let ctx = format!("{:?} seed {seed}", quant.tier);
    let mut rng = SplitMix64::new(0xE3B_0000 + seed);
    let mut seg = fresh_segment(quant);
    // states[t] = after every record with tid <= t; `log` every record
    // appended; `floor` the lowest TID the segment still answers.
    let mut states: Vec<State> = vec![vec![None; CAPACITY]];
    let mut log: Vec<DeltaRecord> = Vec::new();
    let mut floor = 0u64;
    for _ in 0..1 + rng.next_below(60) {
        let top = states.len() as u64 - 1;
        let pick = move |rng: &mut SplitMix64| floor + rng.next_below(top - floor + 1);
        match rng.next_below(12) {
            0 => {
                seg.delta_merge(Tid(rng.next_below(top + 2)));
            }
            1 => {
                seg.index_merge(Tid(rng.next_below(top + 2))).unwrap();
            }
            2 => {
                floor = pick(&mut rng);
                seg.prune(Tid(floor));
                check_from(&seg, &states, &log, floor, &mut rng, &ctx);
            }
            3 => {
                let at = pick(&mut rng);
                seg.rebuild(Tid(at)).unwrap();
                let t = pick(&mut rng).max(at);
                check_at(&seg, &states, &log, floor, t, &mut rng, &ctx);
            }
            4 => {
                // Crash + recover: a checkpoint taken at a random TID,
                // restored into a fresh segment through the snapshot codec,
                // then the newer records replayed as the WAL tail would be.
                floor = pick(&mut rng);
                let (snap, tail) = seg.checkpoint_state(Tid(floor));
                let bytes = tv_hnsw::snapshot::to_bytes(&snap.index);
                seg = fresh_segment(quant);
                seg.restore_checkpoint(
                    snap.up_to,
                    tv_hnsw::snapshot::from_bytes(&bytes).unwrap(),
                    &tail,
                )
                .unwrap();
                assert_eq!(
                    tail,
                    records_in(&log, snap.up_to.0, floor),
                    "{ctx}: checkpoint tail"
                );
                seg.append_deltas(&records_in(&log, floor, top)).unwrap();
                check_from(&seg, &states, &log, floor, &mut rng, &ctx);
            }
            _ => {
                // A transaction of 1..=3 upserts and deletes under one TID.
                let tid = Tid(top + 1);
                let mut next = states[top as usize].clone();
                let batch: Vec<DeltaRecord> = (0..1 + rng.next_below(3))
                    .map(|_| {
                        let l = rng.next_below(CAPACITY as u64) as u32;
                        let record = if rng.next_below(4) == 0 {
                            DeltaRecord::delete(vid(l), tid)
                        } else {
                            DeltaRecord::upsert(vid(l), tid, random_vector(&mut rng))
                        };
                        let v = (!record.vector.is_empty()).then(|| record.vector.to_vec());
                        next[l as usize] = Some((tid, v));
                        record
                    })
                    .collect();
                seg.append_deltas(&batch).unwrap();
                log.extend(batch);
                states.push(next);
                let t = floor + rng.next_below(tid.0 - floor + 1);
                check_at(&seg, &states, &log, floor, t, &mut rng, &ctx);
            }
        }
    }
    check_from(&seg, &states, &log, floor, &mut rng, &ctx);
    // Both vacuum stages and a prune at the top drain the log.
    let top = Tid(states.len() as u64 - 1);
    seg.delta_merge(top);
    seg.index_merge(top).unwrap();
    seg.prune(top);
    assert_eq!(
        (seg.mem_delta_count(), seg.delta_file_count()),
        (0, 0),
        "{ctx}: drained"
    );
    check_at(&seg, &states, &log, top.0, top.0, &mut rng, &ctx);
}

#[test]
fn reads_match_model_across_merges_prunes_rebuilds_and_restores() {
    for seed in 0..CASES {
        run(QuantSpec::default(), seed);
        run(QuantSpec::sq8(), seed);
    }
}
