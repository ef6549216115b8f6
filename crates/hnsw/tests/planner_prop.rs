//! Seeded property tests for the filtered-search planner.
//!
//! The core claim of the cost-based planner is behavioral, not statistical:
//! whatever strategy it picks — brute force, in-traversal filtering, or
//! post-filter with an enlarged beam — a filtered top-k must return exactly
//! the same ids as an exact scan of the valid set, at every selectivity from
//! "one in ten thousand" to "everything". These tests sweep selectivity
//! across that range (plus the degenerate filters that triggered the
//! original bugs: filters covering only deleted slots and filters disjoint
//! from the index) with a seeded RNG so failures replay deterministically.

use tv_common::bitmap::Filter;
use tv_common::ids::{LocalId, SegmentId, VertexId};
use tv_common::{Bitmap, DistanceMetric, PlannerConfig, SplitMix64};
use tv_hnsw::{HnswConfig, HnswIndex, VectorIndex};

const DIM: usize = 12;
const N: usize = 600;

fn key(i: u32) -> VertexId {
    VertexId::new(SegmentId(0), LocalId(i))
}

fn rand_vec(rng: &mut SplitMix64) -> Vec<f32> {
    (0..DIM).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
}

/// Build a seeded index with `N` points, of which every 7th is deleted.
fn build(seed: u64) -> (HnswIndex, Vec<Vec<f32>>, Vec<bool>) {
    let cfg = HnswConfig::new(DIM, DistanceMetric::L2).with_seed(seed);
    let mut index = HnswIndex::new(cfg);
    let mut rng = SplitMix64::new(seed);
    let vecs: Vec<Vec<f32>> = (0..N).map(|_| rand_vec(&mut rng)).collect();
    for (i, v) in vecs.iter().enumerate() {
        index.insert(key(i as u32), v).unwrap();
    }
    let mut live = vec![true; N];
    for i in (0..N).step_by(7) {
        assert!(index.remove(key(i as u32)));
        live[i] = false;
    }
    (index, vecs, live)
}

/// A random filter admitting each *local id* with probability `p`.
fn random_filter(rng: &mut SplitMix64, p: f64) -> Bitmap {
    let mut bm = Bitmap::new(N);
    for i in 0..N {
        if f64::from(rng.next_f32()) < p {
            bm.set(i, true);
        }
    }
    bm
}

/// Ids of the exact top-k over the valid live set, straight from the oracle.
fn oracle_ids(index: &HnswIndex, query: &[f32], k: usize, filter: Filter<'_>) -> Vec<VertexId> {
    let (r, _) = index.brute_force_top_k(query, k, filter);
    r.into_iter().map(|n| n.id).collect()
}

/// Sweep selectivity from 0.01% to 100%: every planner choice must return
/// results identical to the brute-force oracle (same ids, same order — L2
/// distances over distinct random points are untied in practice).
#[test]
fn planned_search_matches_oracle_across_selectivities() {
    let (index, _vecs, _live) = build(0x5EED_0001);
    let mut rng = SplitMix64::new(42);
    let cfg = PlannerConfig::default();
    for &p in &[0.0001, 0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 1.0] {
        for trial in 0..4 {
            let bm = random_filter(&mut rng, p);
            let q = rand_vec(&mut rng);
            let k = [1, 5, 10, 25][trial % 4];
            let valid_live = index.valid_live_count(Filter::Valid(&bm));
            let (got, stats) = index.search_planned(&q, k, 32, Filter::Valid(&bm), &cfg);
            // Exactness: the planner returns min(k, valid_live) results
            // whenever any exist — a short answer proves set exhaustion.
            assert_eq!(
                got.len(),
                k.min(valid_live),
                "starved result at p={p} k={k} (valid_live={valid_live}, {stats:?})"
            );
            let want = oracle_ids(&index, &q, k, Filter::Valid(&bm));
            let got_ids: Vec<VertexId> = got.iter().map(|n| n.id).collect();
            assert_eq!(got_ids, want, "plan diverged from oracle at p={p} k={k}");
            // Exactly one routed plan per non-empty search; an empty valid
            // set routes nothing at all.
            assert_eq!(stats.plans_total(), u64::from(valid_live > 0));
        }
    }
}

/// Regression (satellite 1): a filter covering *only deleted slots* has a
/// true valid cardinality of zero. The old `bitmap.count_ones()` estimate
/// counted the dead slots, routed to the graph, and burned a traversal; the
/// fixed estimate intersects with live occupancy and plans `Empty`.
#[test]
fn filter_covering_only_deleted_slots_is_empty_and_free() {
    let (index, vecs, live) = build(7);
    let mut bm = Bitmap::new(N);
    for (i, &l) in live.iter().enumerate() {
        if !l {
            bm.set(i, true);
        }
    }
    assert!(bm.count_ones() > 0, "test needs deleted slots");
    assert_eq!(index.valid_live_count(Filter::Valid(&bm)), 0);
    let (r, stats) = index.search_planned(
        &vecs[1],
        5,
        32,
        Filter::Valid(&bm),
        &PlannerConfig::default(),
    );
    assert!(r.is_empty());
    assert_eq!(stats.distance_computations, 0, "empty plan must not score");
    assert_eq!(stats.plans_total(), 0);
}

/// Regression (satellite 1, second shape): a filter disjoint from every id
/// the index holds (e.g. the graph handed over a bitmap for a different
/// segment's population).
#[test]
fn filter_disjoint_from_index_returns_empty() {
    let cfg = HnswConfig::new(DIM, DistanceMetric::L2).with_seed(3);
    let mut index = HnswIndex::new(cfg);
    let mut rng = SplitMix64::new(3);
    for i in 0..50u32 {
        let v = rand_vec(&mut rng);
        index.insert(key(i), &v).unwrap();
    }
    // Valid ids 1000.. — none exist in the index.
    let bm = Bitmap::from_indices(2048, 1000..1100);
    let q = rand_vec(&mut rng);
    assert_eq!(index.valid_live_count(Filter::Valid(&bm)), 0);
    let (r, _) = index.search_planned(&q, 5, 32, Filter::Valid(&bm), &PlannerConfig::default());
    assert!(r.is_empty());
}

/// Regression (tentpole): under a selective filter the static-threshold
/// router starves — an in-traversal beam over a 1%-selective bitmap cannot
/// fill `k` because nearly every traversed candidate is rejected. The
/// planner must return all `min(k, valid_live)` results anyway (by routing
/// to brute force, or by escalating `ef`).
#[test]
fn selective_filter_never_starves_topk() {
    let (index, _vecs, live) = build(11);
    let mut rng = SplitMix64::new(11);
    // ~1% selective: pick 6 live ids.
    let mut chosen = Vec::new();
    while chosen.len() < 6 {
        let i = (rng.next_u64() % N as u64) as usize;
        if live[i] && !chosen.contains(&i) {
            chosen.push(i);
        }
    }
    let bm = Bitmap::from_indices(N, chosen.iter().copied());
    let q = rand_vec(&mut rng);
    let k = 10;
    let cfg = PlannerConfig::default();
    let (r, _) = index.search_planned(&q, k, 32, Filter::Valid(&bm), &cfg);
    assert_eq!(r.len(), 6, "must surface every valid point when k > valid");

    // The legacy static path (threshold 0: always in-traversal) is exactly
    // the cliff this PR fixes — with a starved beam it may return fewer.
    // The planner with a zero brute threshold must still escalate to full
    // results rather than inherit the starvation.
    let zero = PlannerConfig::default().with_brute_threshold(0);
    let (r, stats) = index.search_planned(&q, k, 4, Filter::Valid(&bm), &zero);
    assert_eq!(
        r.len(),
        6,
        "escalation must rescue a starved beam ({stats:?})"
    );
}

/// Regression (satellite 2): the naive range-search doubling loop treated a
/// starved filtered beam (`results.len() < k`) as proof of set exhaustion
/// and silently dropped in-range points. The planned range search must
/// return exactly the oracle's in-range set at every selectivity.
#[test]
fn range_search_returns_all_in_range_points_under_selective_filters() {
    let (index, _vecs, _live) = build(23);
    let mut rng = SplitMix64::new(23);
    let cfg = PlannerConfig::default();
    for &p in &[0.01, 0.05, 0.3, 1.0] {
        let bm = random_filter(&mut rng, p);
        let q = rand_vec(&mut rng);
        let valid_live = index.valid_live_count(Filter::Valid(&bm));
        // Oracle: exact scan of the whole valid set, thresholded.
        let (all, _) = index.brute_force_top_k(&q, valid_live.max(1), Filter::Valid(&bm));
        let threshold = 2.5f32;
        let mut want: Vec<VertexId> = all
            .iter()
            .filter(|n| n.dist <= threshold)
            .map(|n| n.id)
            .collect();
        want.sort_unstable();
        let (got, _) = index.range_search_planned(&q, threshold, 32, Filter::Valid(&bm), &cfg);
        let mut got_ids: Vec<VertexId> = got.iter().map(|n| n.id).collect();
        got_ids.sort_unstable();
        assert_eq!(
            got_ids, want,
            "range search dropped in-range points at p={p}"
        );
    }
}

/// Planner bookkeeping: each strategy is reachable, and the stats say which
/// one ran.
#[test]
fn planner_routes_all_three_strategies() {
    let (index, _vecs, live) = build(31);
    let mut rng = SplitMix64::new(31);
    let q = rand_vec(&mut rng);
    let cfg = PlannerConfig::default();

    // Tiny valid set → brute force.
    let first_live = (0..N).find(|&i| live[i]).unwrap();
    let bm = Bitmap::from_indices(N, [first_live]);
    let (_, stats) = index.search_planned(&q, 3, 32, Filter::Valid(&bm), &cfg);
    assert_eq!(stats.plans_brute, 1);

    // Full bitmap → post-filter (selectivity 1.0 ≥ 0.5 default cutoff).
    let full = Bitmap::full(N);
    let (_, stats) = index.search_planned(&q, 3, 32, Filter::Valid(&full), &cfg);
    assert_eq!(stats.plans_post_filter, 1);

    // Mid selectivity (every third id: 171 of 514 live, s = 1/3 < 0.5) with
    // a beam narrow enough that the graph beats a scan (8 × 4 / s = 96
    // scored < 171) → in-traversal.
    let bm = Bitmap::from_indices(N, (0..N).step_by(3));
    assert_eq!(index.valid_live_count(Filter::Valid(&bm)), 171);
    let (_, stats) = index.search_planned(&q, 3, 4, Filter::Valid(&bm), &cfg);
    assert_eq!(stats.plans_in_traversal, 1);
}

/// Satellite 3: deleted slots and filter rejections are counted separately.
#[test]
fn stats_separate_deleted_from_filtered() {
    let (index, vecs, _live) = build(47);
    let full = Bitmap::full(N);
    // In-traversal over the full set: tombstones are skipped as deleted,
    // and nothing is a filter rejection (every live id is valid).
    let (_, stats) = index.top_k(&vecs[1], 5, 64, Filter::Valid(&full));
    assert!(
        stats.deleted_skipped > 0,
        "tombstones must be visible: {stats:?}"
    );
    assert_eq!(
        stats.filtered_out, 0,
        "full filter rejects nothing: {stats:?}"
    );

    // Halve the filter: now real rejections appear, still separated.
    let mut half = Bitmap::new(N);
    for i in 0..N / 2 {
        half.set(i, true);
    }
    let (_, stats) = index.top_k(&vecs[1], 5, 64, Filter::Valid(&half));
    assert!(
        stats.filtered_out > 0,
        "expected filter rejections: {stats:?}"
    );
}
