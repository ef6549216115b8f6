//! Packed-vs-pointer oracle identity suite.
//!
//! The cache-conscious layout compiler (BFS slot renumbering + CSR
//! adjacency + prefetched search loops) must be *invisible* through the
//! key-based search API: for every query, every layout produces the same
//! neighbor ids and bit-identical distances (`f32::to_bits`). The slot
//! permutation itself is unobservable — results are keyed by `VertexId`,
//! which travels with its vector.
//!
//! Covered: top-k (unfiltered, filtered, post-filter via the planner),
//! range search, post-vacuum graphs (tombstones + upserts), every
//! quantized tier, and compile→thaw→recompile cycles.

use tv_common::bitmap::Filter;
use tv_common::ids::{LocalId, SegmentId};
use tv_common::{Bitmap, DistanceMetric, GraphLayout, Neighbor, QuantSpec, SplitMix64, VertexId};
use tv_hnsw::{HnswConfig, HnswIndex, VectorIndex};

fn key(i: u32) -> VertexId {
    VertexId::new(SegmentId(0), LocalId(i))
}

fn make_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.next_f32() * 10.0).collect())
        .collect()
}

fn build(n: usize, dim: usize, metric: DistanceMetric, seed: u64) -> HnswIndex {
    let mut idx = HnswIndex::new(HnswConfig::new(dim, metric));
    for (i, v) in make_vectors(n, dim, seed).into_iter().enumerate() {
        idx.insert(key(i as u32), &v).unwrap();
    }
    idx
}

/// `(key, dist bits)` fingerprint of a result list — the form in which two
/// layouts must agree exactly.
fn fingerprint(results: &[Neighbor]) -> Vec<(VertexId, u32)> {
    results.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// Assert that compiling `idx` changes no search result across a battery of
/// query shapes.
fn assert_layouts_identical(idx: &HnswIndex, dim: usize, queries: usize) {
    let qs = make_vectors(queries, dim, 0xBEEF);
    let filter_bits = Bitmap::from_indices(idx.slot_count() + 8, (0..idx.slot_count()).step_by(3));
    let layout = GraphLayout::PackedPrefetch;
    let mut packed = idx.clone();
    packed.compile_layout(layout);
    assert_eq!(packed.layout(), layout);
    assert_eq!(packed.len(), idx.len());
    for q in &qs {
        // Unfiltered top-k.
        let (a, _) = idx.top_k(q, 10, 64, Filter::All);
        let (b, sb) = packed.top_k(q, 10, 64, Filter::All);
        assert_eq!(fingerprint(&a), fingerprint(&b), "top_k {layout}");
        assert_eq!(sb.packed_searches, 1, "served from the packed form");
        // Filtered top-k (in-traversal bitmap).
        let (a, _) = idx.top_k(q, 5, 64, Filter::Valid(&filter_bits));
        let (b, _) = packed.top_k(q, 5, 64, Filter::Valid(&filter_bits));
        assert_eq!(fingerprint(&a), fingerprint(&b), "filtered {layout}");
        // Post-filter strategy.
        let (a, _) = idx.post_filter_top_k(q, 5, 96, Filter::Valid(&filter_bits));
        let (b, _) = packed.post_filter_top_k(q, 5, 96, Filter::Valid(&filter_bits));
        assert_eq!(fingerprint(&a), fingerprint(&b), "post_filter {layout}");
        // Range search.
        let (a, _) = idx.range_search(q, 30.0, 64, Filter::All);
        let (b, _) = packed.range_search(q, 30.0, 64, Filter::All);
        assert_eq!(fingerprint(&a), fingerprint(&b), "range {layout}");
    }
    // Every stored embedding is reachable by key and identical.
    for s in 0..idx.slot_count() as u32 {
        let k = key(s);
        let va = idx.get_embedding(k);
        let vb = packed.get_embedding(k);
        match (va, vb) {
            (None, None) => {}
            (Some(va), Some(vb)) => {
                let fa: Vec<u32> = va.iter().map(|x| x.to_bits()).collect();
                let fb: Vec<u32> = vb.iter().map(|x| x.to_bits()).collect();
                assert_eq!(fa, fb, "embedding {s} {layout}");
            }
            other => panic!("embedding presence diverged for {s}: {other:?}"),
        }
    }
}

#[test]
fn oracle_identity_l2() {
    let idx = build(400, 16, DistanceMetric::L2, 11);
    assert_layouts_identical(&idx, 16, 12);
}

#[test]
fn oracle_identity_cosine_and_ip() {
    for metric in [DistanceMetric::Cosine, DistanceMetric::InnerProduct] {
        let idx = build(250, 12, metric, 23);
        assert_layouts_identical(&idx, 12, 8);
    }
}

#[test]
fn oracle_identity_post_vacuum() {
    // Tombstones + upserts before compiling: the repaired graph must pack
    // the same as it searches.
    let mut idx = build(350, 16, DistanceMetric::L2, 37);
    for i in (0..350u32).step_by(5) {
        idx.remove(key(i));
    }
    // Distinct vectors throughout: exact distance ties break on slot id,
    // which the BFS renumbering permutes — identity is guaranteed modulo
    // ties (see DESIGN §3i), so the oracle uses tie-free data.
    let fresh = make_vectors(40, 16, 99);
    for (i, v) in fresh.iter().enumerate() {
        idx.insert(key(1000 + i as u32), v).unwrap();
    }
    let moved = make_vectors(40, 16, 101);
    for (i, v) in moved.iter().enumerate() {
        idx.insert(key((i * 7) as u32 + 1), v).unwrap(); // in-place updates
    }
    assert_layouts_identical(&idx, 16, 10);
}

#[test]
fn oracle_identity_quantized_tiers() {
    for spec in [
        QuantSpec::sq8(),
        QuantSpec::sq8().with_keep_f32(true),
        QuantSpec::pq(4),
        QuantSpec::pq(4).with_keep_f32(true),
    ] {
        let mut idx = build(300, 16, DistanceMetric::L2, 53);
        idx.quantize(spec).unwrap();
        assert_layouts_identical(&idx, 16, 8);
    }
}

#[test]
fn oracle_identity_quantized_cosine() {
    // Cosine exercises the recon-norm caches, which the permutation must
    // carry along with the code rows.
    let mut idx = build(220, 16, DistanceMetric::Cosine, 71);
    idx.quantize(QuantSpec::sq8().with_keep_f32(true)).unwrap();
    assert_layouts_identical(&idx, 16, 8);
}

#[test]
fn compile_thaw_recompile_is_stable() {
    let idx = build(300, 16, DistanceMetric::L2, 67);
    let qs = make_vectors(6, 16, 0xFEED);
    let mut packed = idx.clone();
    packed.compile_layout(GraphLayout::PackedPrefetch);
    let baseline: Vec<_> = qs
        .iter()
        .map(|q| fingerprint(&packed.top_k(q, 10, 64, Filter::All).0))
        .collect();

    // Mutate (thaws), then recompile — results must match a plain index
    // given the same mutation, and the recompile must stay queryable.
    let extra = make_vectors(20, 16, 0x5A5A);
    let mut plain = idx.clone();
    for (i, v) in extra.iter().enumerate() {
        packed.insert(key(2000 + i as u32), v).unwrap();
        plain.insert(key(2000 + i as u32), v).unwrap();
    }
    assert_eq!(packed.layout(), GraphLayout::Pointer, "mutation thaws");
    for q in &qs {
        assert_eq!(
            fingerprint(&packed.top_k(q, 10, 64, Filter::All).0),
            fingerprint(&plain.top_k(q, 10, 64, Filter::All).0),
            "thawed graph == never-compiled graph"
        );
    }
    packed.compile_layout(GraphLayout::PackedPrefetch);
    for q in &qs {
        assert_eq!(
            fingerprint(&packed.top_k(q, 10, 64, Filter::All).0),
            fingerprint(&plain.top_k(q, 10, 64, Filter::All).0),
            "recompiled graph == never-compiled graph"
        );
    }

    // Compiling an already-compiled index changes nothing.
    let mut twice = idx.clone();
    twice.compile_layout(GraphLayout::PackedPrefetch);
    twice.compile_layout(GraphLayout::PackedPrefetch);
    assert_eq!(twice.layout(), GraphLayout::PackedPrefetch);
    for (q, want) in qs.iter().zip(&baseline) {
        let got = fingerprint(&twice.top_k(q, 10, 64, Filter::All).0);
        assert_eq!(&got, want);
    }

    // A `Pointer` request leaves a never-compiled index as it is, and a
    // compiled one compiled; neither changes results.
    let mut never = idx.clone();
    assert!(!never.compile_layout(GraphLayout::Pointer));
    assert_eq!(never.layout(), GraphLayout::Pointer);
    assert!(twice.compile_layout(GraphLayout::Pointer));
    for q in &qs {
        assert_eq!(
            fingerprint(&twice.top_k(q, 10, 64, Filter::All).0),
            fingerprint(&never.top_k(q, 10, 64, Filter::All).0),
            "compiled graph == never-compiled graph"
        );
    }
}

#[test]
fn memory_accounting_reports_both_forms() {
    let idx = build(300, 16, DistanceMetric::L2, 91);
    let (pointer_before, packed_est) = idx.link_memory_bytes();
    // The pointer forest pays three layers of Vec headers plus growth
    // slack; the CSR estimate must come in well under it.
    assert!(packed_est < pointer_before);

    let mut compiled = idx.clone();
    compiled.compile_layout(GraphLayout::PackedPrefetch);
    let (pointer_est, packed_exact) = compiled.link_memory_bytes();
    // Estimates are len-based where the exact numbers are capacity-based,
    // so the pointer comparison is approximate — but the packed slabs are
    // built at their final size, at the id width the estimate assumed, so
    // the estimate is exact.
    assert_eq!(packed_exact, packed_est);
    assert!(pointer_before >= pointer_est);
    // Compiling must shrink the index's total resident accounting.
    assert!(compiled.memory_bytes() < idx.memory_bytes());
}
