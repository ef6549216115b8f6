//! The correctness oracle: the harness's own mirror of what it wrote
//! (vectors, attributes, edges), an f64 scalar brute force over that mirror
//! for ground truth (no `tv-common` kernels), and per-row filter checks.

use crate::gen::Inputs;
use tv_common::ids::{LocalId, SegmentId, VertexId};

pub const SEGMENTS: usize = 4;

/// Which rows a query may return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Unfiltered top-k.
    Plain,
    /// `WHERE s.bucket < t`.
    BucketBelow(u8),
    /// `(a:Author)-[:wrote]->(s:Doc) WHERE a.name = <author>`.
    WrittenBy(u16),
}

/// The harness's copy of the Doc table, addressed by slot: segment `s`
/// holds slots `s*cap .. (s+1)*cap`, the first `base_per_segment` of them
/// filled at load, the rest free for the writer's inserts.
#[derive(Debug, Clone)]
pub struct Mirror {
    pub dim: usize,
    pub cap: usize,
    live: Vec<bool>,
    data: Vec<f32>,
    bucket: Vec<u8>,
    author: Vec<u16>,
    next_free: [usize; SEGMENTS],
    /// Slots written after the load (what recovery must reproduce).
    pub dirty: Vec<bool>,
    pub live_count: usize,
}

const NO_AUTHOR: u16 = u16::MAX;

impl Mirror {
    /// Lay `inputs` out over `SEGMENTS` segments of `cap` slots. Base row
    /// `r` goes to segment `r / per_seg`, local `r % per_seg`.
    pub fn new(inputs: &Inputs, cap: usize) -> Mirror {
        let per_seg = inputs.n.div_ceil(SEGMENTS);
        assert!(
            per_seg <= cap,
            "segment capacity {cap} below base fill {per_seg}"
        );
        let slots = SEGMENTS * cap;
        let mut m = Mirror {
            dim: inputs.dim,
            cap,
            live: vec![false; slots],
            data: vec![0.0; slots * inputs.dim],
            bucket: vec![0; slots],
            author: vec![NO_AUTHOR; slots],
            next_free: [0; SEGMENTS],
            dirty: vec![false; slots],
            live_count: 0,
        };
        for row in 0..inputs.n {
            let slot = (row / per_seg) * cap + row % per_seg;
            m.put(slot, inputs.vector(row), inputs.buckets[row]);
            m.author[slot] = inputs.author_of[row];
        }
        for (seg, free) in m.next_free.iter_mut().enumerate() {
            *free = inputs.n.saturating_sub(seg * per_seg).min(per_seg);
        }
        m.dirty.fill(false);
        m
    }

    pub fn slots(&self) -> usize {
        self.live.len()
    }

    pub fn id_of(&self, slot: usize) -> VertexId {
        VertexId::new(
            SegmentId((slot / self.cap) as u32),
            LocalId((slot % self.cap) as u32),
        )
    }

    pub fn slot_of(&self, id: VertexId) -> Option<usize> {
        let (seg, local) = (id.segment().0 as usize, id.local().0 as usize);
        (seg < SEGMENTS && local < self.cap).then_some(seg * self.cap + local)
    }

    pub fn is_live(&self, slot: usize) -> bool {
        self.live[slot]
    }

    pub fn vector(&self, slot: usize) -> &[f32] {
        &self.data[slot * self.dim..(slot + 1) * self.dim]
    }

    pub fn bucket(&self, slot: usize) -> u8 {
        self.bucket[slot]
    }

    /// Author of a base slot (`None` for slots the writer inserted).
    pub fn author(&self, slot: usize) -> Option<u16> {
        (self.author[slot] != NO_AUTHOR).then_some(self.author[slot])
    }

    /// Upsert a slot's vector and bucket.
    pub fn put(&mut self, slot: usize, vector: &[f32], bucket: u8) {
        if !self.live[slot] {
            self.live[slot] = true;
            self.live_count += 1;
        }
        self.data[slot * self.dim..(slot + 1) * self.dim].copy_from_slice(vector);
        self.bucket[slot] = bucket;
        self.dirty[slot] = true;
    }

    pub fn delete(&mut self, slot: usize) {
        if self.live[slot] {
            self.live[slot] = false;
            self.live_count -= 1;
        }
        self.dirty[slot] = true;
    }

    /// Claim the next never-used slot of `seg`, if any headroom is left.
    pub fn claim_free(&mut self, seg: usize) -> Option<usize> {
        let local = self.next_free[seg];
        (local < self.cap).then(|| {
            self.next_free[seg] += 1;
            seg * self.cap + local
        })
    }

    pub fn admits(&self, slot: usize, class: Class) -> bool {
        self.live[slot]
            && match class {
                Class::Plain => true,
                Class::BucketBelow(t) => self.bucket[slot] < t,
                Class::WrittenBy(a) => self.author[slot] == a,
            }
    }

    pub fn admitted_count(&self, class: Class) -> usize {
        (0..self.slots()).filter(|&s| self.admits(s, class)).count()
    }

    /// Exact top-k slots under `class`, nearest first, by squared L2 in f64.
    pub fn truth_top_k(&self, query: &[f32], k: usize, class: Class) -> Vec<usize> {
        let mut best: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        for slot in 0..self.slots() {
            if !self.admits(slot, class) {
                continue;
            }
            let d = l2_sq_f64(query, self.vector(slot));
            if best.len() < k || d < best[best.len() - 1].0 {
                let at = best.partition_point(|&(bd, _)| bd <= d);
                best.insert(at, (d, slot));
                best.truncate(k);
            }
        }
        best.into_iter().map(|(_, s)| s).collect()
    }
}

pub fn l2_sq_f64(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = f64::from(x) - f64::from(y);
            d * d
        })
        .sum()
}

/// One returned row, as the harness sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub id: VertexId,
    pub dist: f32,
}

/// Structural check of one answer: exactly `expected` rows, distances
/// non-decreasing and finite, no duplicates, and (when `mirror` is given)
/// every row live and admitted by `class`.
pub fn answer_ok(rows: &[Row], expected: usize, class: Class, mirror: Option<&Mirror>) -> bool {
    if rows.len() != expected {
        return false;
    }
    for (i, r) in rows.iter().enumerate() {
        if !r.dist.is_finite() || (i > 0 && rows[i - 1].dist > r.dist) {
            return false;
        }
        if rows[..i].iter().any(|p| p.id == r.id) {
            return false;
        }
        if let Some(m) = mirror {
            match m.slot_of(r.id) {
                Some(slot) if m.admits(slot, class) => {}
                _ => return false,
            }
        }
    }
    true
}

/// Share of the true top-k that `rows` contains.
pub fn recall(rows: &[Row], truth: &[usize], mirror: &Mirror) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hit = rows
        .iter()
        .filter_map(|r| mirror.slot_of(r.id))
        .filter(|s| truth.contains(s))
        .count();
    hit as f64 / truth.len() as f64
}

/// Ground truth for many queries, split over the machine's cores (this is
/// harness work done while the program is quiescent, not load).
pub fn truth_many(mirror: &Mirror, queries: &[(&[f32], Class)], k: usize) -> Vec<Vec<usize>> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let chunk = queries.len().div_ceil(threads).max(1);
    let mut out = Vec::with_capacity(queries.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&(q, class)| mirror.truth_top_k(q, k, class))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("ground-truth thread panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Inputs, Mirror) {
        let inputs = Inputs::generate(5, 8, 400, 10);
        let mirror = Mirror::new(&inputs, 120);
        (inputs, mirror)
    }

    #[test]
    fn layout_round_trips() {
        let (inputs, m) = tiny();
        assert_eq!(m.live_count, 400);
        // Base row 250 → segment 2, local 50.
        let slot = 2 * 120 + 50;
        assert_eq!(m.vector(slot), inputs.vector(250));
        assert_eq!(m.slot_of(m.id_of(slot)), Some(slot));
        assert_eq!(m.author(slot), Some(inputs.author_of[250]));
        assert!(m.dirty.iter().all(|d| !d));
    }

    #[test]
    fn truth_is_sorted_and_filtered() {
        let (inputs, m) = tiny();
        let q = inputs.query(0);
        let top = m.truth_top_k(q, 10, Class::Plain);
        assert_eq!(top.len(), 10);
        let d: Vec<f64> = top.iter().map(|&s| l2_sq_f64(q, m.vector(s))).collect();
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
        // Nothing outside the answer is closer than its last entry.
        let worst = d[9];
        let closer = (0..m.slots())
            .filter(|&s| m.is_live(s) && l2_sq_f64(q, m.vector(s)) < worst)
            .count();
        assert_eq!(closer, 9);
        let filtered = m.truth_top_k(q, 10, Class::BucketBelow(10));
        assert!(filtered.iter().all(|&s| m.bucket(s) < 10));
        assert_eq!(
            truth_many(&m, &[(q, Class::Plain), (q, Class::BucketBelow(10))], 10),
            vec![top, filtered]
        );
    }

    #[test]
    fn writer_edits_show_in_truth_and_checks() {
        let (inputs, mut m) = tiny();
        let q = inputs.query(1).to_vec();
        let slot = m.claim_free(3).expect("headroom");
        assert_eq!(slot, 3 * 120 + 100);
        m.put(slot, &q, 7);
        assert!(m.dirty[slot]);
        assert_eq!(m.truth_top_k(&q, 1, Class::Plain), vec![slot]);
        // Inserted slots have no author, so a pattern query must not return them.
        assert!(!m.admits(slot, Class::WrittenBy(0)));
        let row = Row {
            id: m.id_of(slot),
            dist: 0.0,
        };
        assert!(answer_ok(&[row], 1, Class::BucketBelow(8), Some(&m)));
        assert!(!answer_ok(&[row], 1, Class::BucketBelow(7), Some(&m)));
        assert!(!answer_ok(&[row, row], 2, Class::Plain, Some(&m)));
        m.delete(slot);
        assert!(!answer_ok(&[row], 1, Class::Plain, Some(&m)));
        assert_eq!(m.live_count, 400);
    }

    #[test]
    fn unsorted_or_short_answers_fail() {
        let (_, m) = tiny();
        let a = Row {
            id: m.id_of(0),
            dist: 2.0,
        };
        let b = Row {
            id: m.id_of(1),
            dist: 1.0,
        };
        assert!(!answer_ok(&[a, b], 2, Class::Plain, Some(&m)));
        assert!(answer_ok(&[b, a], 2, Class::Plain, Some(&m)));
        assert!(!answer_ok(&[b], 2, Class::Plain, None));
        assert_eq!(recall(&[b, a], &[0, 5], &m), 0.5);
    }
}
