//! Search-core identity oracle.
//!
//! One fixed recipe — build, upsert, delete, (quantize), query — reduced to
//! a tuple of snapshot CRC, summed `SearchStats` work counters and a result
//! fingerprint. The tuple was captured with the scalar kernel tier *before*
//! the five hand-copied traversal loops were collapsed into one
//! `beam_search` over a `GraphView`, and is pinned below: any change to
//! visit order, admission, counting or the sequential build shows up as a
//! changed constant. On every tier (SIMD tiers round differently, so the
//! constants only bind under `TV_KERNELS=scalar`, which `make kernel-smoke`
//! runs) the pointer form, the compiled form and a fresh-scratch clone must
//! agree with each other exactly.

use tv_common::bitmap::Filter;
use tv_common::ids::{LocalId, SegmentId};
use tv_common::kernels::{self, KernelTier};
use tv_common::{
    crc32, Bitmap, DistanceMetric, GraphLayout, Neighbor, PlannerConfig, QuantSpec, SplitMix64,
    VertexId,
};
use tv_hnsw::{snapshot, HnswConfig, HnswIndex, SearchStats, VectorIndex};

const N: usize = 3000;
const DIM: usize = 24;
const QUERIES: usize = 64;
/// Snapshot magic (8), layout tag, quant flag.
const SNAPSHOT_PREFIX: usize = 10;

/// What one index form did for the whole query battery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    dists: u64,
    hops: u64,
    deleted_skipped: u64,
    filtered_out: u64,
    /// FNV-1a over every result's `(key, dist.to_bits())`, in result order.
    fingerprint: u64,
}

/// The scalar-tier tuple of one (metric, tier) cell, captured at the commit
/// before the refactor.
struct Pinned {
    /// CRC of the pointer-form snapshot *payload*, i.e. the bytes after the
    /// format prefix: captured when that prefix was a bare 8-byte magic, and
    /// unchanged by the move to the one prefixed format.
    crc_pointer: u32,
    /// CRC of the whole compiled-form snapshot.
    crc_compiled: u32,
    work: Work,
}

fn key(i: u32) -> VertexId {
    VertexId::new(SegmentId(0), LocalId(i))
}

fn vectors(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (0..DIM).map(|_| rng.next_f32() * 10.0).collect())
        .collect()
}

/// Sequential build, then 200 in-place upserts of live keys and 100 deletes.
fn build(metric: DistanceMetric) -> HnswIndex {
    let mut idx = HnswIndex::new(HnswConfig::new(DIM, metric));
    for (i, v) in vectors(N, 0xC0DE).iter().enumerate() {
        idx.insert(key(i as u32), v).unwrap();
    }
    for (i, v) in vectors(200, 0xFACE).iter().enumerate() {
        idx.insert(key((i as u32 * 13) % N as u32), v).unwrap();
    }
    for i in 0..100u32 {
        assert!(idx.remove(key((i * 29 + 7) % N as u32)));
    }
    idx
}

fn fold(fp: &mut u64, results: &[Neighbor]) {
    for n in results {
        for b in
            n.id.0
                .to_le_bytes()
                .into_iter()
                .chain(n.dist.to_bits().to_le_bytes())
        {
            *fp = (*fp ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// 64 queries × {unfiltered top-k, every-3rd-id filter through the planner
/// (which scans at this size) and forced through the traversal, range
/// search}.
fn run_battery(idx: &HnswIndex, range_threshold: f32) -> Work {
    let filter = Bitmap::from_indices(N, (0..N).step_by(3));
    let planner = PlannerConfig::default();
    let mut stats = SearchStats::default();
    let mut fingerprint = 0xCBF2_9CE4_8422_2325u64;
    for q in &vectors(QUERIES, 0xBEEF) {
        let (r, s) = idx.top_k(q, 10, 64, Filter::All);
        fold(&mut fingerprint, &r);
        stats.merge(&s);
        let (r, s) = idx.search_planned(q, 10, 64, Filter::Valid(&filter), &planner);
        fold(&mut fingerprint, &r);
        stats.merge(&s);
        let (r, s) = idx.top_k(q, 10, 64, Filter::Valid(&filter));
        fold(&mut fingerprint, &r);
        stats.merge(&s);
        let (r, s) = idx.range_search(q, range_threshold, 64, Filter::All);
        fold(&mut fingerprint, &r);
        stats.merge(&s);
    }
    Work {
        dists: stats.distance_computations,
        hops: stats.hops,
        deleted_skipped: stats.deleted_skipped,
        filtered_out: stats.filtered_out,
        fingerprint,
    }
}

fn check(metric: DistanceMetric, range_threshold: f32, quant: Option<QuantSpec>, pinned: &Pinned) {
    let ctx = format!(
        "{metric:?} {}",
        quant.map_or("f32".into(), |q| q.tier.name())
    );
    let mut pointer = build(metric);
    if let Some(spec) = quant {
        pointer.quantize(spec).unwrap();
    }
    let mut compiled = pointer.clone();
    assert!(compiled.compile_layout(GraphLayout::PackedPrefetch));
    let crc_pointer = crc32(&snapshot::to_bytes(&pointer)[SNAPSHOT_PREFIX..]);
    let crc_compiled = crc32(&snapshot::to_bytes(&compiled));

    let work = run_battery(&pointer, range_threshold);
    assert!(work.deleted_skipped > 0 && work.filtered_out > 0, "{ctx}");
    assert_eq!(
        run_battery(&compiled, range_threshold),
        work,
        "{ctx}: compiled ≡ pointer"
    );
    // Clones start with an empty scratch pool: pooled buffers hold no state.
    assert_eq!(
        run_battery(&pointer.clone(), range_threshold),
        work,
        "{ctx}: fresh scratch"
    );
    assert_eq!(
        run_battery(&compiled.clone(), range_threshold),
        work,
        "{ctx}: fresh scratch"
    );

    // Shown with `--nocapture`: how the pinned constants are (re)captured.
    println!(
        "{ctx}: crc_pointer: {crc_pointer:#010x}, crc_compiled: {crc_compiled:#010x}, {work:?}"
    );
    if kernels::active().tier() == KernelTier::Scalar {
        assert_eq!(
            crc_pointer, pinned.crc_pointer,
            "{ctx}: pointer snapshot bytes"
        );
        assert_eq!(
            crc_compiled, pinned.crc_compiled,
            "{ctx}: compiled snapshot bytes"
        );
        assert_eq!(work, pinned.work, "{ctx}: work counters and result bits");
    }
}

#[test]
fn l2_f32() {
    check(DistanceMetric::L2, 150.0, None, &PINNED_L2_F32);
}

#[test]
fn l2_sq8() {
    check(
        DistanceMetric::L2,
        150.0,
        Some(QuantSpec::sq8()),
        &PINNED_L2_SQ8,
    );
}

#[test]
fn cosine_f32() {
    check(DistanceMetric::Cosine, 0.08, None, &PINNED_COS_F32);
}

#[test]
fn cosine_sq8() {
    check(
        DistanceMetric::Cosine,
        0.08,
        Some(QuantSpec::sq8()),
        &PINNED_COS_SQ8,
    );
}

const PINNED_L2_F32: Pinned = Pinned {
    crc_pointer: 0x21df_9937,
    crc_compiled: 0x6f2c_7546,
    work: Work {
        dists: 340_023,
        hops: 277_535,
        deleted_skipped: 8_035,
        filtered_out: 140_765,
        fingerprint: 8_534_872_675_324_462_875,
    },
};

const PINNED_L2_SQ8: Pinned = Pinned {
    crc_pointer: 0xf41e_9bce,
    crc_compiled: 0x08cc_6129,
    work: Work {
        dists: 340_055,
        hops: 277_567,
        deleted_skipped: 8_027,
        filtered_out: 140_775,
        fingerprint: 9_265_846_980_312_686_398,
    },
};

const PINNED_COS_F32: Pinned = Pinned {
    crc_pointer: 0xe416_babd,
    crc_compiled: 0xe683_a5eb,
    work: Work {
        dists: 327_040,
        hops: 264_567,
        deleted_skipped: 7_983,
        filtered_out: 139_872,
        fingerprint: 13_708_054_304_272_832_152,
    },
};

const PINNED_COS_SQ8: Pinned = Pinned {
    crc_pointer: 0x3fa6_c4ed,
    crc_compiled: 0x9768_4d5c,
    work: Work {
        dists: 326_973,
        hops: 264_500,
        deleted_skipped: 7_985,
        filtered_out: 139_838,
        fingerprint: 14_944_251_587_774_259_542,
    },
};
