//! Seeded property check of the exact scan: [`HnswIndex::brute_force_top_k`]
//! (the walk over `live_mask ∧ filter` through the local→slot table)
//! against the slot-walking loop it replaced
//! ([`HnswIndex::brute_force_top_k_per_slot`]) and, on the f32 tier, against
//! [`BruteForceIndex`] fed the same operations. The top-k must be the same
//! ids with the same distance bits, and every `SearchStats` field equal.
//!
//! Each case builds an index through inserts at scattered local ids,
//! deletes, re-inserts of deleted keys (a new slot) and in-place upserts,
//! on the f32, SQ8 (codes only, and with the f32 arena kept for rerank) and
//! PQ tiers, and checks it in four forms: never compiled, compiled (slots
//! permuted), compiled with every row copied into the edit set, and after a
//! snapshot round trip.
//! The filters are `Filter::All`, an empty bitmap, and random bitmaps
//! shorter than, as long as, and longer than the live mask, with bits on
//! deleted and never-inserted locals; `k` is 0, 1, 10, the valid count and
//! more. Failures name the seed.

use crate::brute::BruteForceIndex;
use crate::index::{HnswIndex, VectorIndex};
use crate::{snapshot, HnswConfig, SearchStats};
use tv_common::bitmap::Filter;
use tv_common::ids::{LocalId, SegmentId};
use tv_common::{
    Bitmap, DistanceMetric, GraphLayout, Neighbor, PlannerConfig, QuantSpec, SplitMix64, VertexId,
};

const DIM: usize = 8;
/// Local ids are drawn from `0..LOCALS`, so some are never inserted.
const LOCALS: u64 = 600;

fn key(local: u64) -> VertexId {
    VertexId::new(SegmentId(3), LocalId(local as u32))
}

fn vector(rng: &mut SplitMix64) -> Vec<f32> {
    (0..DIM).map(|_| rng.next_f32() * 20.0 - 10.0).collect()
}

fn bits(found: &[Neighbor]) -> Vec<(VertexId, u32)> {
    found.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// An index (and, on the f32 tier, its `BruteForceIndex` mirror) after a
/// seeded sequence of inserts, deletes, re-inserts and upserts. Quantized
/// tiers train their codec halfway through, so the later writes encode
/// with a frozen codec.
fn build(seed: u64, tier: Option<QuantSpec>) -> (HnswIndex, Option<BruteForceIndex>) {
    let mut rng = SplitMix64::new(0xB2_0000 ^ seed);
    let metric = if seed.is_multiple_of(2) {
        DistanceMetric::L2
    } else {
        DistanceMetric::Cosine
    };
    let mut idx = HnswIndex::new(HnswConfig::new(DIM, metric).with_m(6));
    let mut mirror = tier.is_none().then(|| BruteForceIndex::new(DIM, metric));
    let mut write = |idx: &mut HnswIndex, id: VertexId, v: Option<Vec<f32>>| match v {
        Some(v) => {
            idx.insert(id, &v).unwrap();
            if let Some(m) = mirror.as_mut() {
                m.insert(id, &v).unwrap();
            }
        }
        None => {
            let removed = idx.remove(id);
            if let Some(m) = mirror.as_mut() {
                assert_eq!(m.remove(id), removed, "seed {seed}: remove {id}");
            }
        }
    };
    let mut live: Vec<u64> = Vec::new();
    let mut dead: Vec<u64> = Vec::new();
    while live.len() < 300 {
        let l = rng.next_below(LOCALS);
        if !live.contains(&l) {
            live.push(l);
            write(&mut idx, key(l), Some(vector(&mut rng)));
        }
    }
    for _ in 0..40 {
        let l = live.swap_remove(rng.next_below(live.len() as u64) as usize);
        dead.push(l);
        write(&mut idx, key(l), None);
    }
    if let Some(spec) = tier {
        idx.quantize(spec).unwrap();
    }
    for _ in 0..15 {
        let l = dead.swap_remove(rng.next_below(dead.len() as u64) as usize);
        live.push(l);
        write(&mut idx, key(l), Some(vector(&mut rng)));
    }
    for _ in 0..20 {
        let l = live[rng.next_below(live.len() as u64) as usize];
        write(&mut idx, key(l), Some(vector(&mut rng)));
    }
    for _ in 0..10 {
        let l = live.swap_remove(rng.next_below(live.len() as u64) as usize);
        write(&mut idx, key(l), None);
    }
    (idx, mirror)
}

/// The four forms of one index: never compiled, compiled, compiled with
/// every slot's rows copied into the edit set, and a snapshot round trip of
/// the compiled form.
fn forms(idx: &HnswIndex) -> Vec<(&'static str, HnswIndex)> {
    let mut compiled = idx.clone();
    assert!(compiled.compile_layout(GraphLayout::PackedPrefetch));
    let mut edited = compiled.clone();
    for s in 0..edited.slot_count() as u32 {
        edited.adj.row_mut(s, 0);
    }
    assert_eq!(edited.layout(), GraphLayout::Pointer);
    let restored = snapshot::from_bytes(&snapshot::to_bytes(&compiled)).unwrap();
    vec![
        ("pointer", idx.clone()),
        ("compiled", compiled),
        ("edited", edited),
        ("restored", restored),
    ]
}

/// The filters every form is checked under.
fn filters(idx: &HnswIndex, rng: &mut SplitMix64) -> Vec<(String, Bitmap)> {
    let live = idx.live_mask.len();
    let mut out = vec![("empty".to_string(), Bitmap::new(0))];
    for len in [live / 2, live, live + 100, LOCALS as usize + 64] {
        for per_mille in [5, 60, 500, 1000] {
            let set = (0..len).filter(|_| rng.next_below(1000) < per_mille);
            out.push((
                format!("len {len} p {per_mille}"),
                Bitmap::from_indices(len, set),
            ));
        }
    }
    // Only deleted and never-inserted locals: nothing is valid.
    let dead = (0..live).filter(|&l| !idx.live_mask.get(l));
    out.push(("dead only".to_string(), Bitmap::from_indices(live, dead)));
    out
}

/// One query under one filter: the scan against the per-slot reference at
/// several `k`, and the range search's exhaustive step.
fn check_query(idx: &HnswIndex, q: &[f32], filter: Filter<'_>, ctx: &str) {
    let valid = idx.valid_live_count(filter);
    for k in [0, 1, 10, valid, valid + 3] {
        let (got, stats) = idx.brute_force_top_k(q, k, filter);
        let (want, want_stats) = idx.brute_force_top_k_per_slot(q, k, filter);
        assert_eq!(bits(&got), bits(&want), "{ctx} k {k}: results");
        assert_eq!(stats, want_stats, "{ctx} k {k}: stats");
        assert_eq!(got.len(), k.min(valid), "{ctx} k {k}: count");
    }
    if valid == 0 {
        return;
    }
    // Past 16 valid rows the first steps are graph searches, whose answer
    // stands if its median already lies beyond the threshold; an infinite
    // threshold always ends at the exhaustive scan.
    let (all, _) = idx.brute_force_top_k_per_slot(q, valid, filter);
    let planner = PlannerConfig::default();
    let median = all[valid / 2].dist;
    let thresholds = if valid <= 16 {
        vec![median, f32::INFINITY]
    } else {
        vec![f32::INFINITY]
    };
    for threshold in thresholds {
        let (got, stats) = idx.range_search_planned(q, threshold, 32, filter, &planner);
        let within: Vec<Neighbor> = all
            .iter()
            .filter(|n| n.dist <= threshold)
            .cloned()
            .collect();
        assert_eq!(bits(&got), bits(&within), "{ctx} range {threshold}");
        // At 16 or fewer valid rows the first step is already the
        // exhaustive scan, so the whole search is one reference call.
        if valid <= 16 {
            let (_, want_stats) = idx.brute_force_top_k_per_slot(q, valid, filter);
            assert_eq!(stats, want_stats, "{ctx} range {threshold}: stats");
        }
    }
}

fn check_tier(tier: Option<QuantSpec>, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let (idx, mirror) = build(seed, tier);
        let mut rng = SplitMix64::new(0xF1_17E5 ^ seed);
        let queries: Vec<Vec<f32>> = (0..3).map(|_| vector(&mut rng)).collect();
        let filters = filters(&idx, &mut rng);
        for (form, idx) in forms(&idx) {
            for (qi, q) in queries.iter().enumerate() {
                check_query(
                    &idx,
                    q,
                    Filter::All,
                    &format!("seed {seed} {form} q{qi} all"),
                );
                for (name, bm) in &filters {
                    let ctx = format!("seed {seed} {form} q{qi} {name}");
                    check_query(&idx, q, Filter::Valid(bm), &ctx);
                }
            }
        }
        let Some(mirror) = mirror else { continue };
        for q in &queries {
            let all = std::iter::once(Filter::All);
            for filter in all.chain(filters.iter().map(|(_, bm)| Filter::Valid(bm))) {
                let valid = idx.valid_live_count(filter);
                let (got, stats) = idx.brute_force_top_k(q, 10, filter);
                let (want, want_stats) = mirror.top_k(q, 10, 0, filter);
                assert_eq!(bits(&got), bits(&want), "seed {seed}: BruteForceIndex");
                assert_eq!(stats.filtered_out, want_stats.filtered_out, "seed {seed}");
                assert_eq!(stats.distance_computations, valid as u64, "seed {seed}");
                assert_eq!(
                    want_stats.distance_computations, valid as u64,
                    "seed {seed}"
                );
            }
        }
    }
}

#[test]
fn f32_scan_matches_the_per_slot_reference_and_brute_force_index() {
    check_tier(None, 0..6);
}

#[test]
fn sq8_scan_matches_the_per_slot_reference() {
    check_tier(Some(QuantSpec::sq8()), 10..13);
    check_tier(Some(QuantSpec::sq8().with_keep_f32(true)), 13..16);
}

#[test]
fn pq_scan_matches_the_per_slot_reference() {
    check_tier(Some(QuantSpec::pq(4).with_rerank_factor(3)), 20..23);
}

#[test]
fn empty_index_scans_nothing() {
    let idx = HnswIndex::new(HnswConfig::new(DIM, DistanceMetric::L2));
    let q = vec![0.5; DIM];
    let bm = Bitmap::full(100);
    for filter in [Filter::All, Filter::Valid(&bm)] {
        for k in [0, 1, 10] {
            let (got, stats) = idx.brute_force_top_k(&q, k, filter);
            let want = idx.brute_force_top_k_per_slot(&q, k, filter);
            assert!(got.is_empty() && want.0.is_empty());
            assert_eq!(stats, want.1);
            assert_eq!(
                stats,
                SearchStats {
                    brute_force: true,
                    ..SearchStats::default()
                }
            );
        }
    }
}
