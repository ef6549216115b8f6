//! Neighbor-selection heuristic (Algorithm 4 of the HNSW paper).
//!
//! Given a candidate set sorted by distance to the inserted point, keep a
//! candidate only if it is closer to the point than to every neighbor
//! already kept. This spreads the kept edges across directions, which is
//! what gives HNSW its navigability; plain "closest M" clusters edges and
//! degrades recall on clustered data (exactly the SIFT/Deep regime the paper
//! benchmarks).

/// A scored candidate: `(distance to the base point, slot)`.
pub(crate) type Scored = (f32, u32);

/// Select up to `m` diverse neighbors from `candidates` (must be sorted by
/// ascending distance). `dist_between(candidate, kept)` resolves the
/// stored-pair distance — callers supply it so node-to-node distances can
/// run on cached norms (cosine pays one dot pass, not three full passes).
///
/// `keep_pruned` re-fills from the pruned list when fewer than `m` survive
/// the diversity test, matching hnswlib's `extendCandidates=false,
/// keepPrunedConnections=true` default.
pub(crate) fn select_neighbors(
    candidates: &[Scored],
    m: usize,
    keep_pruned: bool,
    dist_between: impl Fn(u32, u32) -> f32,
) -> Vec<u32> {
    if candidates.len() <= m {
        return candidates.iter().map(|&(_, s)| s).collect();
    }
    let mut selected: Vec<Scored> = Vec::with_capacity(m);
    let mut pruned: Vec<Scored> = Vec::new();
    for &(dist_to_base, cand) in candidates {
        if selected.len() >= m {
            break;
        }
        // Diversity test: closer to the base point than to any kept neighbor.
        let dominated = selected
            .iter()
            .any(|&(_, kept)| dist_between(cand, kept) < dist_to_base);
        if dominated {
            pruned.push((dist_to_base, cand));
        } else {
            selected.push((dist_to_base, cand));
        }
    }
    if keep_pruned {
        for &(d, s) in &pruned {
            if selected.len() >= m {
                break;
            }
            selected.push((d, s));
        }
    }
    selected.into_iter().map(|(_, s)| s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::metric::l2_sq;

    /// Helper: pairwise L2 over a static table of 2-d points.
    fn table(points: &[[f32; 2]]) -> impl Fn(u32, u32) -> f32 + '_ {
        move |a: u32, b: u32| l2_sq(&points[a as usize][..], &points[b as usize][..])
    }

    #[test]
    fn small_candidate_sets_pass_through() {
        let pts = [[0.0, 0.0], [1.0, 0.0]];
        let cands = vec![(1.0, 1u32)];
        let got = select_neighbors(&cands, 4, true, table(&pts));
        assert_eq!(got, vec![1]);
    }

    #[test]
    fn diversity_prefers_spread_neighbors() {
        // Base point at origin. Candidates: two nearly-identical points to
        // the right (slots 0, 1) and one to the left (slot 2), farther away.
        // With m=2 the heuristic should keep one right point and the left
        // point, not both right points.
        let pts = [[1.0, 0.0], [1.1, 0.0], [-2.0, 0.0]];
        let cands = vec![(1.0, 0u32), (1.21, 1u32), (4.0, 2u32)];
        let got = select_neighbors(&cands, 2, false, table(&pts));
        assert_eq!(got, vec![0, 2]);
    }

    #[test]
    fn keep_pruned_refills_to_m() {
        // All candidates cluster together: only one survives diversity, but
        // keep_pruned tops the list back up to m.
        let pts = [[1.0, 0.0], [1.01, 0.0], [1.02, 0.0]];
        let cands = vec![(1.0, 0u32), (1.0201, 1u32), (1.0404, 2u32)];
        let strict = select_neighbors(&cands, 2, false, table(&pts));
        assert_eq!(strict, vec![0]);
        let refilled = select_neighbors(&cands, 2, true, table(&pts));
        assert_eq!(refilled, vec![0, 1]);
    }

    #[test]
    fn never_exceeds_m() {
        let pts: Vec<[f32; 2]> = (0..20).map(|i| [i as f32, (i % 3) as f32]).collect();
        let cands: Vec<Scored> = (0..20)
            .map(|i| {
                let p = pts[i as usize];
                (p[0] * p[0] + p[1] * p[1], i)
            })
            .collect();
        let got = select_neighbors(&cands, 5, true, table(&pts));
        assert!(got.len() <= 5);
    }
}
