//! Delta reads must not race `delta_merge`.
//!
//! `delta_merge` moves records from the in-memory delta store to a delta
//! file. A reader that scanned the files, let go, and only then scanned the
//! memory store saw a record in neither when the move landed in between: a
//! stale `search` (the read-your-write misses the serving benchmark
//! counted), a `checkpoint_state` missing committed records, a `delta_tail`
//! that drops writes from a migration catch-up. One thread appends and
//! merges in a tight loop; the other asserts that every acknowledged TID at
//! or below its read TID is visible through all three views.
//!
//! A stress test, not a forced interleaving — the window is internal to the
//! segment. Before the fix it failed within the first few hundred reader
//! iterations on a 2-core box.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};
use tv_common::ids::{LocalId, SegmentId};
use tv_common::{DistanceMetric, PlannerConfig, Tid, VertexId};
use tv_embedding::{EmbeddingSegment, EmbeddingTypeDef};
use tv_hnsw::DeltaRecord;

const DIM: usize = 4;
const KEYS: u64 = 256;
const MAX_APPENDS: u64 = 40_000;

fn vid(tid: u64) -> VertexId {
    VertexId::new(SegmentId(0), LocalId((tid % KEYS) as u32))
}

fn vector(tid: u64) -> Vec<f32> {
    vec![tid as f32, 1.0, 2.0, 3.0]
}

#[test]
fn acknowledged_deltas_stay_visible_while_delta_merge_runs() {
    let def = EmbeddingTypeDef::new("emb", DIM, "m", DistanceMetric::L2);
    let seg = EmbeddingSegment::new(SegmentId(0), &def, KEYS as usize);
    let acked = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let planner = PlannerConfig::default();

    let (iterations, misses) = std::thread::scope(|s| {
        s.spawn(|| {
            for tid in 1..=MAX_APPENDS {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                seg.append_deltas(&[DeltaRecord::upsert(vid(tid), Tid(tid), vector(tid))])
                    .unwrap();
                // Release pairs with the reader's Acquire: a reader that
                // sees `tid` acknowledged must see the appended record.
                acked.store(tid, Ordering::Release);
                seg.delta_merge(Tid(tid));
            }
        });

        let started = Instant::now();
        let mut iterations = 0u64;
        let mut misses = Vec::new();
        while started.elapsed() < Duration::from_secs(3) {
            let t = acked.load(Ordering::Acquire);
            if t == 0 {
                std::thread::yield_now();
                continue;
            }
            if t == MAX_APPENDS {
                break;
            }
            iterations += 1;
            let tail = seg.delta_tail(Tid::ZERO, Tid(t));
            if tail.len() as u64 != t {
                misses.push(format!(
                    "iteration {iterations}: delta_tail {} of {t}",
                    tail.len()
                ));
            }
            let (_, ckpt) = seg.checkpoint_state(Tid(t));
            if ckpt.len() as u64 != t {
                misses.push(format!(
                    "iteration {iterations}: checkpoint_state {} of {t}",
                    ckpt.len()
                ));
            }
            let (r, _) = seg.search(&vector(t), 1, 16, None, Tid(t), &planner);
            if r.first().map(|n| (n.id, n.dist)) != Some((vid(t), 0.0)) {
                misses.push(format!(
                    "iteration {iterations}: search at {t} returned {r:?}"
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
