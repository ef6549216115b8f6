//! How many copies of a vector its way to the index keeps, counted by the
//! allocator rather than read off a host's resident set.
//!
//! A committed vector is one shared buffer from the commit to the delta
//! tail; the merge, a checkpoint and a migration feed clone its handle. The
//! index merge adds one copy, the new snapshot's arena row, and the BFS
//! compile reorders that arena in place. So folding a tail into an empty
//! index raises the high-water mark of live heap bytes by about one arena
//! (with its growth slack) and the graph, not by a second copy of the tail
//! and a second arena.
//!
//! A counting global allocator tracks live bytes and their high-water mark;
//! the tests in this binary take one lock, so none counts another's bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tv_common::ids::{LocalId, SegmentLayout};
use tv_common::{DistanceMetric, GraphLayout, SegmentId, SplitMix64, Tid, VertexId};
use tv_embedding::{EmbeddingSegment, EmbeddingService, EmbeddingTypeDef, ServiceConfig};
use tv_hnsw::DeltaRecord;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::SeqCst) + by;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
            }
        }
        p
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// One test at a time: the counters are process-wide.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const N: usize = 2_000;
const DIM: usize = 128;
const VECTOR_BYTES: usize = N * DIM * std::mem::size_of::<f32>();

fn def() -> EmbeddingTypeDef {
    EmbeddingTypeDef::new("emb", DIM, "m", DistanceMetric::L2)
        .with_layout(GraphLayout::PackedPrefetch)
}

fn vid(l: usize) -> VertexId {
    VertexId::new(SegmentId(0), LocalId(l as u32))
}

fn records(n: usize) -> Vec<DeltaRecord> {
    let mut rng = SplitMix64::new(7);
    (0..n)
        .map(|l| {
            let v = (0..DIM).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            DeltaRecord::upsert(vid(l), Tid(l as u64 + 1), v)
        })
        .collect()
}

/// The merge of 2 000 dim-128 vectors (1 024 000 B of floats) into an empty
/// index raises the high-water mark by at most twice their bytes above the
/// tail that holds them: the arena (its capacity rounds 2 000 rows up to
/// 2 048), the graph, the merge's batch of handles and the compiled CSR
/// came to 1 746 598 B. A merge that copies the tail's vectors into its
/// batch and a compile that permutes into a second arena reach 3 689 844 B.
#[test]
fn index_merge_keeps_one_new_copy_of_the_tail() {
    let _serial = serial();
    let seg = EmbeddingSegment::new(SegmentId(0), &def(), N);
    let recs = records(N);
    seg.append_deltas(&recs).unwrap();
    drop(recs);
    assert_eq!(seg.delta_merge(Tid::MAX), Some(N));

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    assert_eq!(seg.index_merge(Tid::MAX).unwrap(), Some(Tid(N as u64)));
    let added = PEAK.load(Ordering::SeqCst) - before;
    println!("index merge high-water above the tail: {added} B for {VECTOR_BYTES} B of vectors");
    assert_eq!(
        seg.newest_snapshot().index.layout(),
        GraphLayout::PackedPrefetch
    );
    assert!(
        added <= 2 * VECTOR_BYTES,
        "the merge raised the high-water mark by {added} B for {VECTOR_BYTES} B of vectors"
    );
}

/// Upserts of live keys merged into a compiled segment allocate adjacency in
/// proportion to the rows they rewrite, not the segment: the clone of the
/// base snapshot shares its compiled rows, an in-place update copies only
/// the rows it writes into the edit set, and the fold streams old and
/// rewritten rows into one new CSR. So 16 upserts into the compiled
/// 2 000-node, dim-128 segment raise the high-water mark by at most one
/// clone of the base (its arenas), one CSR and `PER_RECORD` bytes per
/// record, which covers the ~600 rows the 16 in-place updates rewrite and
/// the fold's slot table and permutation. It came to 1 373 504 B: a clone
/// of 1 060 256 B, a CSR of 124 412 B and 188 836 B more. Thawing the
/// whole graph into a pointer forest for the merge, and a clone that
/// copies the CSR, reach 1 590 304 B: a clone of 1 181 010 B, the same CSR
/// and 284 882 B more, over the bound.
#[test]
fn a_merge_allocates_adjacency_for_the_rows_it_rewrites() {
    const UPSERTS: usize = 16;
    const PER_RECORD: usize = 14 * 1024;
    let _serial = serial();
    let seg = EmbeddingSegment::new(SegmentId(0), &def(), N);
    let recs = records(N);
    seg.append_deltas(&recs).unwrap();
    drop(recs);
    seg.delta_merge(Tid::MAX);
    seg.index_merge(Tid::MAX).unwrap();
    let mut rng = SplitMix64::new(11);
    let upserts: Vec<DeltaRecord> = (0..UPSERTS)
        .map(|i| {
            let v = (0..DIM).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
            DeltaRecord::upsert(vid(i * 97), Tid((N + i) as u64 + 1), v)
        })
        .collect();
    seg.append_deltas(&upserts).unwrap();
    drop(upserts);
    assert_eq!(seg.delta_merge(Tid::MAX), Some(UPSERTS));

    let live = || LIVE.load(Ordering::SeqCst);
    let before = live();
    let clone = seg.newest_snapshot().index.clone();
    let clone_bytes = live() - before;
    drop(clone);
    let before = live();
    PEAK.store(before, Ordering::SeqCst);
    seg.index_merge(Tid::MAX).unwrap();
    let added = PEAK.load(Ordering::SeqCst) - before;
    let snap = seg.newest_snapshot();
    assert_eq!(snap.index.layout(), GraphLayout::PackedPrefetch);
    let (_, csr_bytes) = snap.index.link_memory_bytes();
    let bound = clone_bytes + csr_bytes + UPSERTS * PER_RECORD;
    println!(
        "merge of {UPSERTS} upserts: high-water {added} B; clone {clone_bytes} B, CSR {csr_bytes} B, bound {bound} B"
    );
    assert!(
        added <= bound,
        "the merge raised the high-water mark by {added} B, over {bound} B"
    );
}

/// The vector a caller hands to a commit is the buffer the tail keeps, and
/// the only one: the caller's records are gone once the commit returns, and
/// a checkpoint's or a migration feed's records share it.
#[test]
fn the_tail_holds_the_committed_buffer_and_reads_share_it() {
    let _serial = serial();
    let svc = EmbeddingService::new(ServiceConfig::default());
    let attr = svc
        .register(0, def(), SegmentLayout::with_capacity(64))
        .unwrap();
    let recs = records(8);
    let handed: Vec<_> = recs.iter().map(|r| Arc::downgrade(&r.vector)).collect();
    svc.apply_deltas(attr, &recs).unwrap();
    drop(recs);
    for (l, w) in handed.iter().enumerate() {
        assert_eq!(
            w.strong_count(),
            1,
            "record {l}: the tail holds the only handle"
        );
    }

    let seg = svc.attr(attr).unwrap().segment(SegmentId(0)).unwrap();
    let (_, checkpointed) = seg.checkpoint_state(Tid::MAX);
    let fed = seg.delta_tail(Tid::ZERO, Tid::MAX);
    assert_eq!((checkpointed.len(), fed.len()), (8, 8));
    for (l, w) in handed.iter().enumerate() {
        let tail = w.upgrade().expect("the tail keeps the buffer");
        assert!(
            Arc::ptr_eq(&checkpointed[l].vector, &tail),
            "checkpoint record {l}"
        );
        assert!(Arc::ptr_eq(&fed[l].vector, &tail), "delta_tail record {l}");
    }
}
