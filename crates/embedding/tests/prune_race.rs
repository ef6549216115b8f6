//! Reads must not race `index_merge` + `prune`.
//!
//! A read picks the snapshot valid at its TID, then lays the deltas newer
//! than that snapshot over it. If the vacuum publishes a newer snapshot and
//! `prune` drops the old one together with the deltas between the two in
//! that gap, the read sees neither the records in the new snapshot nor the
//! deltas that carried them: a `search` missing an acknowledged vector, a
//! `checkpoint_state` whose tail has a hole. One thread appends, flushes,
//! merges and prunes in a tight loop; the other reads at the newest
//! acknowledged TID and checks every view. The writer prunes at the reader's
//! pinned TID at most, as the transaction manager's horizon would: the
//! reader is never below the horizon.
//!
//! A stress test, not a forced interleaving: the window is internal to the
//! segment.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tv_common::ids::{LocalId, SegmentLayout};
use tv_common::{DistanceMetric, PlannerConfig, SegmentId, Tid, VertexId};
use tv_embedding::{EmbeddingService, EmbeddingTypeDef, ServiceConfig};
use tv_hnsw::DeltaRecord;

const DIM: usize = 4;
const KEYS: u64 = 256;
const MAX_APPENDS: u64 = 200_000;

fn vid(tid: u64) -> VertexId {
    VertexId::new(SegmentId(0), LocalId((tid % KEYS) as u32))
}

fn vector(tid: u64) -> Vec<f32> {
    vec![tid as f32, 1.0, 2.0, 3.0]
}

#[test]
fn acknowledged_deltas_stay_visible_while_index_merge_and_prune_run() {
    let svc = EmbeddingService::new(ServiceConfig::default());
    let def = EmbeddingTypeDef::new("emb", DIM, "m", DistanceMetric::L2);
    let attr = svc
        .register(0, def, SegmentLayout::with_capacity(KEYS as usize))
        .unwrap();
    svc.apply_deltas(attr, &[DeltaRecord::upsert(vid(1), Tid(1), vector(1))])
        .unwrap();
    let seg = svc.attr(attr).unwrap().segment(SegmentId(0)).unwrap();
    let acked = AtomicU64::new(1);
    let pinned = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    // Exact search: a miss is a lost record, never an approximate beam.
    let planner = PlannerConfig::default().with_brute_threshold(KEYS as usize);

    let (iterations, misses) = std::thread::scope(|s| {
        s.spawn(|| {
            for tid in 2..=MAX_APPENDS {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let record = DeltaRecord::upsert(vid(tid), Tid(tid), vector(tid));
                svc.apply_deltas(attr, &[record]).unwrap();
                acked.store(tid, Ordering::SeqCst);
                svc.delta_merge(attr, Tid(tid)).unwrap();
                svc.index_merge(attr, Tid(tid), 1).unwrap();
                svc.prune(Tid(tid.min(pinned.load(Ordering::SeqCst))));
            }
        });

        let started = Instant::now();
        let mut iterations = 0u64;
        let mut misses = Vec::new();
        while started.elapsed() < Duration::from_secs(4) {
            // The pin only ever trails the TID read at, so no prune runs
            // above a reader.
            let t = acked.load(Ordering::SeqCst);
            pinned.store(t, Ordering::SeqCst);
            if t == MAX_APPENDS {
                break;
            }
            iterations += 1;
            let (r, stats) = seg.search(&vector(t), 1, 16, None, Tid(t), &planner);
            assert_eq!(stats.plans_in_traversal + stats.plans_post_filter, 0);
            if r.first().map(|n| (n.id, n.dist)) != Some((vid(t), 0.0)) {
                misses.push(format!(
                    "iteration {iterations}: search at {t} returned {r:?}"
                ));
            }
            let (snap, ckpt) = seg.checkpoint_state(Tid(t));
            let want: Vec<u64> = (snap.up_to.0 + 1..=t).collect();
            let got: Vec<u64> = ckpt.iter().map(|r| r.tid.0).collect();
            if got != want {
                misses.push(format!(
                    "iteration {iterations}: checkpoint_state at {t} over snapshot {} holds {} of {} records",
                    snap.up_to,
                    got.len(),
                    want.len()
                ));
            }
            // The log keeps a suffix of the commits: the tail ends at `t`
            // without a hole, unless a snapshot already holds `t`.
            let tail: Vec<u64> = seg
                .delta_tail(Tid::ZERO, Tid(t))
                .iter()
                .map(|r| r.tid.0)
                .collect();
            let contiguous = tail.windows(2).all(|w| w[1] == w[0] + 1);
            let covered = tail.last() == Some(&t) || seg.newest_snapshot().up_to >= Tid(t);
            if !contiguous || !covered {
                misses.push(format!(
                    "iteration {iterations}: delta_tail at {t} is {:?}..{:?}, {} records",
                    tail.first(),
                    tail.last(),
                    tail.len()
                ));
            }
        }
        stop.store(true, Ordering::Relaxed);
        (iterations, misses)
    });
    println!("{iterations} reader iterations, {} misses", misses.len());
    assert!(iterations > 0, "the reader never ran beside the writer");
    assert!(
        misses.is_empty(),
        "{} misses in {iterations} iterations; first: {}",
        misses.len(),
        misses[0]
    );
}
