//! The search core: one beam search and one greedy descent over the index's
//! one adjacency ([`crate::packed`]), plus every query path built on them
//! (top-k, post-filter, brute force, the planner's routing, range search).
//!
//! The same traversal serves the build (admitting every node) and queries
//! (admitting only live, filter-passing nodes). A row comes at its stored
//! width ([`Row`]); the traversal matches it once per row, where it widens
//! the ids into scratch anyway. Software prefetch runs while nothing is
//! pending, when every row is compiled.

use crate::index::{HnswIndex, VectorIndex};
use crate::packed::Row;
use crate::planner::{self, PlanChoice, PlanInputs};
use crate::quant::QuantQuery;
use crate::select::Scored;
use crate::stats::SearchStats;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Mutex, PoisonError};
use tv_common::bitmap::Filter;
use tv_common::kernels::prefetch;
use tv_common::{Neighbor, PlannerConfig, PreparedQuery};

/// Either scoring backend, so one traversal implementation serves both
/// storage tiers. The `F32` arm borrows the query slice; the `Quant` arm
/// owns its prepared plan, so an index can hold a scorer across graph
/// mutations.
pub(crate) enum Scorer<'q> {
    F32(PreparedQuery<'q>),
    Quant(QuantQuery),
}

/// Epoch-stamped visited marks: a slot is "visited" iff
/// `marks[slot] == epoch`, so clearing between searches is one epoch bump
/// instead of an O(n) memset — the `vec![false; n]` the beam searches used
/// to allocate (and zero) on every call.
#[derive(Default)]
pub(crate) struct Visited {
    epoch: u32,
    marks: Vec<u32>,
}

impl Visited {
    /// Start a fresh visited set covering `n` slots. Epochs wrap at
    /// `u32::MAX` by resetting the marks once — amortized O(1).
    fn begin(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            for m in &mut self.marks {
                *m = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Mark every id in `row` visited and leave in `batch` the ones that
    /// were not visited before, in row order — what visiting them one by
    /// one and keeping the first visits would leave (an id repeated in the
    /// row is kept once). Every id is written to the next free place and
    /// the place advances only for a first visit, so no branch depends on
    /// the marks. Ids are widened to `u32` slots as they are written.
    #[inline]
    fn collect_unvisited(&mut self, row: Row<'_>, batch: &mut Vec<u32>) {
        match row {
            Row::U16(r) => self.collect_unvisited_of(r, batch),
            Row::U32(r) => self.collect_unvisited_of(r, batch),
        }
    }

    #[inline]
    fn collect_unvisited_of<T: Copy + Into<u32>>(&mut self, row: &[T], batch: &mut Vec<u32>) {
        batch.clear();
        batch.resize(row.len(), 0);
        let mut fresh = 0;
        for &id in row {
            let id: u32 = id.into();
            let m = &mut self.marks[id as usize];
            batch[fresh] = id;
            fresh += usize::from(*m != self.epoch);
            *m = self.epoch;
        }
        batch.truncate(fresh);
    }
}

/// Reusable per-search scratch: the visited set plus the batched-scoring
/// buffers.
#[derive(Default)]
pub(crate) struct SearchScratch {
    visited: Visited,
    batch: Vec<u32>,
    pub(crate) dists: Vec<f32>,
    /// The moved node's old neighborhood in `update_in_place`.
    pub(crate) nbrs: Vec<u32>,
    /// Repair-path staging (`update_in_place`, link pruning): the 2-hop
    /// candidate pool and the scored pairs — pooled here so the graph-repair
    /// loops reuse one warmed allocation instead of cloning per neighbor
    /// per level.
    pub(crate) pool: Vec<u32>,
    pub(crate) scored: Vec<Scored>,
}

/// Per-index pool of [`SearchScratch`] buffers, one per in-flight search.
/// Concurrent searches each take their own buffer; returning it keeps the
/// warmed allocation (and its epoch) for the next search.
#[derive(Default)]
pub(crate) struct ScratchPool(Mutex<Vec<SearchScratch>>);

/// Bound on pooled buffers: enough for any realistic fan-out width while
/// capping worst-case retained memory at `64 × 4n` bytes per index.
const MAX_POOLED_SCRATCH: usize = 64;

impl ScratchPool {
    pub(crate) fn take(&self) -> SearchScratch {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_default()
    }

    pub(crate) fn put(&self, scratch: SearchScratch) {
        let mut pool = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.len() < MAX_POOLED_SCRATCH {
            pool.push(scratch);
        }
    }
}

impl Clone for ScratchPool {
    /// Cloned indexes start an empty pool: scratch holds no index state
    /// (results are bit-identical with or without pooled buffers), so
    /// sharing would only contend the lock.
    fn clone(&self) -> Self {
        ScratchPool::default()
    }
}

/// `(distance, slot)` as one heap key: the distance's bits mapped so that
/// unsigned order is `f32::total_cmp` order (NaNs included), above the slot.
/// Keys order exactly as `(total_cmp, slot)` tuples do, in one compare.
fn heap_key(dist: f32, slot: u32) -> u64 {
    let bits = dist.to_bits();
    let ordered = bits ^ (((bits as i32 >> 31) as u32) | 0x8000_0000);
    u64::from(ordered) << 32 | u64::from(slot)
}

fn key_dist(key: u64) -> f32 {
    let ordered = (key >> 32) as u32;
    let mask = if ordered & 0x8000_0000 != 0 {
        0x8000_0000
    } else {
        u32::MAX
    };
    f32::from_bits(ordered ^ mask)
}

fn key_slot(key: u64) -> u32 {
    key as u32
}

/// Offer `key` to a max-heap holding the `cap` smallest keys seen: what
/// pushing and then popping the largest of `cap + 1` leaves, in one sift.
fn keep_smallest(best: &mut BinaryHeap<u64>, cap: usize, key: u64) {
    if best.len() < cap {
        best.push(key);
    } else if let Some(mut worst) = best.peek_mut() {
        if key < *worst {
            *worst = key;
        }
    }
}

/// Distance of the worst candidate a bounded heap holds (∞ while empty).
fn worst_dist(best: &BinaryHeap<u64>) -> f32 {
    best.peek().map_or(f32::INFINITY, |&worst| key_dist(worst))
}

/// Drain a bounded best-candidates heap into ascending `(distance, slot)`
/// order.
fn nearest_first(best: BinaryHeap<u64>) -> Vec<Scored> {
    best.into_sorted_vec()
        .into_iter()
        .map(|key| (key_dist(key), key_slot(key)))
        .collect()
}

impl HnswIndex {
    /// Scorer for an external query vector: prepared f32 query, or a
    /// prepared quantized plan when a quantized tier is attached (traversal
    /// always scores against codes in that case, even when the f32 arena is
    /// retained for reranking).
    pub(crate) fn scorer<'q>(&self, query: &'q [f32]) -> Scorer<'q> {
        match &self.quant {
            Some(q) => Scorer::Quant(QuantQuery::new(&q.main.codec, self.cfg.metric, query)),
            None => Scorer::F32(PreparedQuery::new(self.cfg.metric, query)),
        }
    }

    /// A stored slot prepared to act as the query (link pruning) — f32
    /// indexes reuse the cached norm; quantized indexes reconstruct the slot
    /// so construction geometry matches search geometry.
    pub(crate) fn slot_scorer(&self, slot: u32) -> Scorer<'_> {
        match &self.quant {
            Some(q) => {
                let v = self.materialize(slot);
                Scorer::Quant(QuantQuery::new(&q.main.codec, self.cfg.metric, &v))
            }
            None => Scorer::F32(PreparedQuery::with_norm(
                self.cfg.metric,
                self.vec_of(slot),
                self.norms[slot as usize],
            )),
        }
    }

    /// Distance from a scorer to one stored slot.
    fn score_slot(&self, sc: &Scorer<'_>, slot: u32) -> f32 {
        match sc {
            Scorer::F32(pq) => pq.distance_cached(self.vec_of(slot), self.norms[slot as usize]),
            Scorer::Quant(qq) => {
                let q = self.quant.as_ref().expect("quant scorer without codes");
                let cl = qq.code_len();
                let s = slot as usize;
                let rn = q.main.recon_norms.get(s).copied().unwrap_or(0.0);
                qq.score(&q.main.codes[s * cl..(s + 1) * cl], rn)
            }
        }
    }

    /// Batch-score `slots` against a scorer; distances land in `out` (one
    /// entry per slot, same order).
    pub(crate) fn score_slots(&self, sc: &Scorer<'_>, slots: &[u32], out: &mut Vec<f32>) {
        match sc {
            Scorer::F32(pq) => {
                pq.distance_slots(&self.vectors, self.cfg.dim, &self.norms, slots, out);
            }
            Scorer::Quant(qq) => {
                let q = self.quant.as_ref().expect("quant scorer without codes");
                qq.score_slots(&q.main.codes, &q.main.recon_norms, slots, out);
            }
        }
    }

    /// [`Self::score_slots`] for one hop of a traversal. With
    /// `prefetch_rows` set it requests each scoring row once: f32 rows on the scorer's own
    /// schedule (`PreparedQuery::distance_slots_prefetch`), and — since the
    /// code scorer has none — every code row's head line before scoring
    /// starts. The admission logic sees identical distances either way.
    #[inline]
    fn score_hop(&self, sc: &Scorer<'_>, slots: &[u32], out: &mut Vec<f32>, prefetch_rows: bool) {
        match sc {
            Scorer::F32(pq) if prefetch_rows => {
                pq.distance_slots_prefetch(&self.vectors, self.cfg.dim, &self.norms, slots, out);
            }
            Scorer::Quant(qq) if prefetch_rows => {
                let q = self.quant.as_ref().expect("quant scorer without codes");
                let cl = qq.code_len();
                for &s in slots {
                    prefetch(q.main.codes.as_ptr().wrapping_add(s as usize * cl));
                }
                qq.score_slots(&q.main.codes, &q.main.recon_norms, slots, out);
            }
            _ => self.score_slots(sc, slots, out),
        }
    }

    /// Greedy walk from `start` down through layers `top..=floor`, moving
    /// to the locally-closest node on each (the ef=1 upper-layer descent of
    /// the HNSW search). Each hop widens the node's whole neighbor list into
    /// scratch and scores it in one gathered pass.
    pub(crate) fn greedy_descent(
        &self,
        sc: &Scorer<'_>,
        start: u32,
        top: u8,
        floor: u8,
        stats: &mut SearchStats,
        scratch: &mut SearchScratch,
    ) -> u32 {
        let prefetch_rows = !self.adj.has_edits();
        let mut cur = start;
        for lvl in (floor..=top).rev() {
            let mut cur_dist = self.score_slot(sc, cur);
            stats.distance_computations += 1;
            loop {
                let nbs = &mut scratch.batch;
                nbs.clear();
                self.adj.row(cur, lvl).extend_into(nbs);
                self.score_hop(sc, nbs, &mut scratch.dists, prefetch_rows);
                stats.distance_computations += nbs.len() as u64;
                stats.hops += nbs.len() as u64;
                let mut improved = false;
                for (&nb, &nd) in nbs.iter().zip(&scratch.dists) {
                    if nd < cur_dist {
                        cur = nb;
                        cur_dist = nd;
                        improved = true;
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        cur
    }

    /// Beam search on one layer — the one traversal every build and query
    /// path runs. Returns up to `ef` admitted candidates sorted by
    /// ascending distance.
    ///
    /// Every reached node is navigated through; `admit` decides which ones
    /// may enter the result set. The build admits everything (construction
    /// links through tombstones, so they navigate *and* return); queries
    /// admit only live, filter-passing points — the filter-function
    /// semantics the paper passes to the index so "a single call to the
    /// vector index returns the valid top-k" (§5.1).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn beam_search<A>(
        &self,
        sc: &Scorer<'_>,
        entries: &[u32],
        ef: usize,
        lvl: u8,
        admit: A,
        stats: &mut SearchStats,
        scratch: &mut SearchScratch,
    ) -> Vec<Scored>
    where
        A: Fn(u32, &mut SearchStats) -> bool,
    {
        // Every row is compiled while nothing is pending: the addresses a
        // hop will touch are known while the previous hop is scored.
        let prefetch_rows = !self.adj.has_edits();
        // Pooled visited set: one epoch bump instead of an O(n) alloc +
        // memset per call.
        scratch.visited.begin(self.keys.len());
        // Min-heap of frontier candidates; max-heap of the best `ef`
        // admitted so far, whose worst distance is `bound` (∞ while empty).
        let nodes = self.keys.len();
        let mut frontier: BinaryHeap<Reverse<u64>> =
            BinaryHeap::with_capacity(ef.saturating_mul(4).min(nodes));
        let mut best: BinaryHeap<u64> = BinaryHeap::with_capacity(ef.min(nodes));
        let mut bound = f32::INFINITY;

        // Batched scoring: the unvisited neighbors of one node, collected in
        // row order and scored in one gathered pass. Distances don't depend
        // on heap state, so admission order — and therefore results — match
        // a one-at-a-time loop exactly.
        scratch
            .visited
            .collect_unvisited(Row::U32(entries), &mut scratch.batch);
        self.score_hop(sc, &scratch.batch, &mut scratch.dists, prefetch_rows);
        stats.distance_computations += scratch.batch.len() as u64;
        for (&e, &de) in scratch.batch.iter().zip(&scratch.dists) {
            let key = heap_key(de, e);
            frontier.push(Reverse(key));
            if admit(e, stats) {
                keep_smallest(&mut best, ef, key);
                bound = worst_dist(&best);
            }
        }

        while let Some(Reverse(key)) = frontier.pop() {
            if key_dist(key) > bound && best.len() >= ef {
                break;
            }
            let row = self.adj.row(key_slot(key), lvl);
            scratch.visited.collect_unvisited(row, &mut scratch.batch);
            self.score_hop(sc, &scratch.batch, &mut scratch.dists, prefetch_rows);
            stats.hops += scratch.batch.len() as u64;
            stats.distance_computations += scratch.batch.len() as u64;
            for (&nb, &nd) in scratch.batch.iter().zip(&scratch.dists) {
                if nd < bound || best.len() < ef {
                    let key = heap_key(nd, nb);
                    frontier.push(Reverse(key));
                    // Only a frontier member's adjacency row can be read
                    // later, so that is when the row is requested.
                    if prefetch_rows && lvl == 0 {
                        self.adj.prefetch_l0_row(nb);
                    }
                    if admit(nb, stats) {
                        keep_smallest(&mut best, ef, key);
                        bound = worst_dist(&best);
                    }
                }
            }
        }

        nearest_first(best)
    }

    /// The graph stage of a query: descend from the entry point to layer 0
    /// and run the beam there. Returns up to `ef` live, `filter`-passing
    /// candidates, nearest first.
    pub(crate) fn query_beam(
        &self,
        sc: &Scorer<'_>,
        ef: usize,
        filter: Filter<'_>,
        stats: &mut SearchStats,
    ) -> Vec<Scored> {
        let Some((entry, top)) = self.entry else {
            return Vec::new();
        };
        // Deleted slots and filter rejections are counted separately: the
        // planner's selectivity feedback needs filter pressure, not
        // tombstone density.
        let admit = |slot: u32, stats: &mut SearchStats| -> bool {
            if self.deleted[slot as usize] {
                stats.deleted_skipped += 1;
                return false;
            }
            if !filter.accepts(self.keys[slot as usize].local().0 as usize) {
                stats.filtered_out += 1;
                return false;
            }
            true
        };
        stats.packed_searches += u64::from(!self.adj.has_edits());
        let mut scratch = self.scratch.take();
        let cur = self.greedy_descent(sc, entry, top, 1, stats, &mut scratch);
        let found = self.beam_search(sc, &[cur], ef, 0, admit, stats, &mut scratch);
        self.scratch.put(scratch);
        found
    }

    /// How many candidates the approximate stage must surface for a final
    /// top-`k`: `rerank_factor × k` when an exact-rerank pass will follow
    /// (retained f32 arena, or the SQ8 side store backing a PQ tier),
    /// otherwise just `k`.
    pub(crate) fn fetch_count(&self, k: usize) -> usize {
        match &self.quant {
            Some(q) if q.spec.keep_f32 || q.rerank.is_some() => {
                k.saturating_mul(q.spec.rerank_factor.max(1))
            }
            _ => k,
        }
    }

    /// Exact-rerank stage: rescore the approximate candidates against the
    /// most precise representation available (retained f32, else the SQ8
    /// side store), then keep the best `k`. Pass-through when the index is
    /// unquantized or codes are already the best representation.
    pub(crate) fn rerank_and_take(
        &self,
        query: &[f32],
        found: Vec<Scored>,
        k: usize,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let quant = match &self.quant {
            Some(q) if q.spec.keep_f32 || q.rerank.is_some() => q,
            _ => {
                return found
                    .into_iter()
                    .take(k)
                    .map(|(d, s)| Neighbor::new(self.keys[s as usize], d))
                    .collect();
            }
        };
        let slots: Vec<u32> = found.iter().map(|&(_, s)| s).collect();
        let mut dists: Vec<f32> = Vec::new();
        if quant.spec.keep_f32 {
            let pq = PreparedQuery::new(self.cfg.metric, query);
            pq.distance_slots(&self.vectors, self.cfg.dim, &self.norms, &slots, &mut dists);
        } else {
            let r = quant.rerank.as_ref().expect("checked above");
            let qq = QuantQuery::new(&r.codec, self.cfg.metric, query);
            qq.score_slots(&r.codes, &r.recon_norms, &slots, &mut dists);
        }
        stats.distance_computations += slots.len() as u64;
        stats.reranked += slots.len() as u64;
        let mut rescored: Vec<Scored> = slots.iter().zip(&dists).map(|(&s, &d)| (d, s)).collect();
        rescored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        rescored
            .into_iter()
            .take(k)
            .map(|(d, s)| Neighbor::new(self.keys[s as usize], d))
            .collect()
    }

    /// Exact linear scan over live, filter-passing entries — the planner's
    /// fallback when too few points are valid for graph search to pay off.
    /// It costs O(words + valid rows), the cost the planner's model
    /// assumes: the accepted slots come from `live_mask ∧ filter` one word
    /// at a time ([`Self::accepted_slots`]), and only they are touched. On
    /// quantized tiers the scan scores codes and the exact-rerank stage
    /// re-scores the shortlist, same as graph search.
    pub fn brute_force_top_k(
        &self,
        query: &[f32],
        k: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let accepted = self.accepted_slots(filter);
        // The counters a walk over every slot would have kept: it skips
        // each tombstone and rejects each live row the filter refuses.
        let mut stats = SearchStats {
            brute_force: true,
            deleted_skipped: self.deleted_count as u64,
            filtered_out: (self.len() - accepted.len()) as u64,
            ..SearchStats::default()
        };
        let sc = self.scorer(query);
        let mut dists: Vec<f32> = Vec::new();
        // Accepted rows sit at scattered slots, so f32 rows are requested
        // ahead of the kernel, as the compiled beam requests them.
        match &sc {
            Scorer::F32(pq) => {
                let (arena, norms) = (&self.vectors, &self.norms);
                pq.distance_slots_prefetch(arena, self.cfg.dim, norms, &accepted, &mut dists);
            }
            Scorer::Quant(_) => self.score_slots(&sc, &accepted, &mut dists),
        }
        stats.distance_computations += accepted.len() as u64;
        let out = self.keep_nearest(query, k, &accepted, &dists, &mut stats);
        (out, stats)
    }

    /// The live slots `filter` accepts. Under a bitmap: the set bits of
    /// `live_mask ∧ filter`, a word at a time, in local-id order, each
    /// mapped to its slot through the local→slot table (bits past either
    /// bitmap's end count as unset). With no filter: every slot not
    /// tombstoned, in slot order.
    fn accepted_slots(&self, filter: Filter<'_>) -> Vec<u32> {
        let slots = 0..self.keys.len() as u32;
        match filter {
            Filter::All if self.deleted_count == 0 => slots.collect(),
            Filter::All => slots.filter(|&s| !self.deleted[s as usize]).collect(),
            Filter::Valid(b) => {
                let mut out = Vec::with_capacity(self.live_mask.intersection_count(b));
                let words = self.live_mask.words().iter().zip(b.words());
                for (wi, (&live, &valid)) in words.enumerate() {
                    let mut bits = live & valid;
                    while bits != 0 {
                        out.push(self.local_slot[wi * 64 + bits.trailing_zeros() as usize]);
                        bits &= bits - 1;
                    }
                }
                out
            }
        }
    }

    /// The final stage of an exact scan: keep the `fetch` best of the
    /// scored `slots` (a bounded max-heap caps memory at O(fetch)), then the
    /// (possibly exact-rerank) final cut to `k`. Keys are `(distance,
    /// slot)`, a total order, so the order the slots were scored in does
    /// not change the answer.
    fn keep_nearest(
        &self,
        query: &[f32],
        k: usize,
        slots: &[u32],
        dists: &[f32],
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let fetch = self.fetch_count(k);
        let mut heap: BinaryHeap<u64> = BinaryHeap::with_capacity(fetch.min(slots.len()));
        for (&slot, &d) in slots.iter().zip(dists) {
            keep_smallest(&mut heap, fetch, heap_key(d, slot));
        }
        self.rerank_and_take(query, nearest_first(heap), k, stats)
    }

    /// The slot-walking scan [`Self::brute_force_top_k`] replaced, kept as
    /// its reference: every slot visited in slot order, tombstones and
    /// filter rejections counted one at a time.
    #[cfg(test)]
    pub(crate) fn brute_force_top_k_per_slot(
        &self,
        query: &[f32],
        k: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut stats = SearchStats {
            brute_force: true,
            ..SearchStats::default()
        };
        let mut accepted: Vec<u32> = Vec::new();
        for (slot, &key) in self.keys.iter().enumerate() {
            if self.deleted[slot] {
                stats.deleted_skipped += 1;
                continue;
            }
            if !filter.accepts(key.local().0 as usize) {
                stats.filtered_out += 1;
                continue;
            }
            accepted.push(slot as u32);
        }
        let sc = self.scorer(query);
        let mut dists: Vec<f32> = Vec::new();
        self.score_slots(&sc, &accepted, &mut dists);
        stats.distance_computations += accepted.len() as u64;
        let out = self.keep_nearest(query, k, &accepted, &dists, &mut stats);
        (out, stats)
    }

    /// Post-filter strategy: run an *unfiltered* layer-0 beam widened to
    /// `fetch_ef`, then drop results the filter rejects. Cheaper than
    /// in-traversal filtering when most points are valid — the beam skips
    /// the per-candidate bitmap probe and the enlargement stays small.
    pub fn post_filter_top_k(
        &self,
        query: &[f32],
        k: usize,
        fetch_ef: usize,
        filter: Filter<'_>,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut stats = SearchStats::default();
        if k == 0 || query.len() != self.cfg.dim {
            return (Vec::new(), stats);
        }
        let fetch = self.fetch_count(k);
        let beam = fetch_ef.max(fetch);
        let found = self.query_beam(&self.scorer(query), beam, Filter::All, &mut stats);
        let mut valid: Vec<Scored> = Vec::with_capacity(found.len());
        for (d, slot) in found {
            if filter.accepts(self.keys[slot as usize].local().0 as usize) {
                valid.push((d, slot));
            } else {
                stats.filtered_out += 1;
            }
        }
        valid.truncate(fetch);
        let out = self.rerank_and_take(query, valid, k, &mut stats);
        (out, stats)
    }

    /// Planner-routed filtered top-k (the per-query cost-based routing of
    /// the NaviX-style planner; see [`crate::planner`]):
    ///
    /// 1. estimate the true valid-live cardinality under `filter`;
    /// 2. choose brute force / in-traversal filtering / post-filter with
    ///    enlarged `ef`;
    /// 3. if a graph strategy returns fewer than `min(k, valid_live)`
    ///    results (a starved beam, *not* set exhaustion), escalate: double
    ///    `ef` up to [`planner::MAX_EF`], then fall back to an exact scan.
    ///
    /// The starvation fallback makes the result count exact: the search
    /// returns `min(k, valid_live)` results whenever any exist, so a short
    /// result honestly signals an exhausted valid set.
    pub fn search_planned(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        filter: Filter<'_>,
        cfg: &PlannerConfig,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut stats = SearchStats::default();
        if k == 0 || query.len() != self.cfg.dim {
            return (Vec::new(), stats);
        }
        let valid_live = self.valid_live_count(filter);
        let plan = planner::choose(
            cfg,
            PlanInputs {
                valid_live,
                live_total: self.len(),
                k,
                ef,
            },
        );
        let (mut results, mut used_ef) = match plan {
            PlanChoice::Empty => return (Vec::new(), stats),
            PlanChoice::BruteForce => {
                stats.plans_brute += 1;
                let (r, s) = self.brute_force_top_k(query, k, filter);
                stats.merge(&s);
                return (r, stats);
            }
            PlanChoice::InTraversal { ef } => {
                stats.plans_in_traversal += 1;
                let (r, s) = self.top_k(query, k, ef, filter);
                stats.merge(&s);
                (r, ef)
            }
            PlanChoice::PostFilter { fetch_ef } => {
                stats.plans_post_filter += 1;
                let (r, s) = self.post_filter_top_k(query, k, fetch_ef, filter);
                stats.merge(&s);
                (r, fetch_ef)
            }
        };
        let target = k.min(valid_live);
        if results.len() >= target {
            return (results, stats);
        }
        // Starved beam: valid points exist that the graph search did not
        // surface. Escalate with a widening in-traversal beam, then give up
        // on the graph entirely (disconnected or unreachable valid points).
        while used_ef < planner::MAX_EF {
            used_ef = used_ef.saturating_mul(2).min(planner::MAX_EF);
            stats.ef_escalations += 1;
            let (r, s) = self.top_k(query, k, used_ef, filter);
            stats.merge(&s);
            results = r;
            if results.len() >= target {
                return (results, stats);
            }
        }
        stats.brute_fallbacks += 1;
        let (r, s) = self.brute_force_top_k(query, k, filter);
        stats.merge(&s);
        (r, stats)
    }

    /// Planner-routed range search. Fixes the starvation bug in the naive
    /// doubling loop: a filtered beam returning fewer than `k` results is a
    /// *starved beam*, not proof the valid set is exhausted — treating it as
    /// exhaustion silently drops in-range points under selective filters.
    /// Exhaustion is instead detected against the true valid-live count, and
    /// once the doubling `k` covers the whole valid set the scan finishes
    /// exactly.
    pub fn range_search_planned(
        &self,
        query: &[f32],
        threshold: f32,
        ef: usize,
        filter: Filter<'_>,
        cfg: &PlannerConfig,
    ) -> (Vec<Neighbor>, SearchStats) {
        let mut stats = SearchStats::default();
        if query.len() != self.cfg.dim {
            return (Vec::new(), stats);
        }
        let valid_live = self.valid_live_count(filter);
        if valid_live == 0 {
            return (Vec::new(), stats);
        }
        let mut k = 16usize;
        loop {
            // Once the doubling k covers every valid point, finish with an
            // exact scan instead of trusting a possibly-starved beam.
            let exhaustive = k >= valid_live;
            let (results, s) = if exhaustive {
                self.brute_force_top_k(query, valid_live, filter)
            } else {
                self.search_planned(query, k, ef.max(k), filter, cfg)
            };
            stats.merge(&s);
            // At least half the beam already lies outside the range: the
            // in-range set is fully covered (DiskANN's stopping rule).
            let median = results.get(results.len() / 2);
            if exhaustive || median.is_some_and(|m| threshold < m.dist) {
                let out = results
                    .into_iter()
                    .filter(|n| n.dist <= threshold)
                    .collect();
                return (out, stats);
            }
            k = k.saturating_mul(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HnswConfig;
    use crate::packed::{Adjacency, Ids};
    use tv_common::ids::{LocalId, SegmentId};
    use tv_common::{DistanceMetric, SplitMix64, VertexId};

    /// Heap keys order exactly as `(total_cmp, slot)` tuples do — NaNs of
    /// both signs, infinities and the two zeroes included — and give back
    /// the bits they were made from.
    #[test]
    fn heap_keys_order_as_total_cmp_then_slot() {
        let dists = [
            -f32::NAN,
            f32::NEG_INFINITY,
            -1.5,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        let mut pairs: Vec<(f32, u32)> = Vec::new();
        for &d in &dists {
            for slot in [0, 7, u32::MAX] {
                pairs.push((d, slot));
            }
        }
        for &(da, sa) in &pairs {
            let key = heap_key(da, sa);
            assert_eq!(key_dist(key).to_bits(), da.to_bits());
            assert_eq!(key_slot(key), sa);
            for &(db, sb) in &pairs {
                assert_eq!(
                    key.cmp(&heap_key(db, sb)),
                    da.total_cmp(&db).then(sa.cmp(&sb)),
                    "({da}, {sa}) vs ({db}, {sb})"
                );
            }
        }
        // The bounded heap keeps the `cap` smallest, whatever the order.
        let mut best = BinaryHeap::new();
        for &(d, slot) in pairs.iter().rev() {
            keep_smallest(&mut best, 4, heap_key(d, slot));
        }
        let kept: Vec<(u32, u32)> = nearest_first(best)
            .into_iter()
            .map(|(d, s)| (d.to_bits(), s))
            .collect();
        let want: Vec<(u32, u32)> = pairs[..4].iter().map(|&(d, s)| (d.to_bits(), s)).collect();
        assert_eq!(kept, want);
        keep_smallest(&mut BinaryHeap::new(), 0, 1);
    }

    /// The per-slot loop [`Visited::collect_unvisited`] replaced: visit the
    /// row's ids one at a time and keep each first visit.
    fn first_visits(seen: &mut [bool], row: &[u32]) -> Vec<u32> {
        row.iter()
            .copied()
            .filter(|&id| !std::mem::replace(&mut seen[id as usize], true))
            .collect()
    }

    #[test]
    fn collect_unvisited_matches_the_per_slot_loop() {
        let mut v = Visited::default();
        v.begin(64);
        let mut seen = vec![false; 64];
        // Whatever the batch held before is replaced, not appended to.
        let mut batch = vec![u32::MAX; 3];
        let named: [(&str, &[u32], &[u32]); 5] = [
            ("a repeated id is kept once", &[3, 7, 3, 1, 7], &[3, 7, 1]),
            ("all visited", &[7, 1, 3], &[]),
            ("empty", &[], &[]),
            (
                "visited and fresh interleaved",
                &[0, 3, 63, 1, 2, 0],
                &[0, 63, 2],
            ),
            ("one id, repeated", &[9, 9, 9], &[9]),
        ];
        for (what, row, want) in named {
            v.collect_unvisited(Row::U32(row), &mut batch);
            assert_eq!(batch, want, "{what}");
            assert_eq!(first_visits(&mut seen, row), want, "{what}: reference");
        }
        let mut rng = SplitMix64::new(0x515);
        for round in 0..300 {
            if round % 50 == 0 {
                v.begin(64);
                seen.fill(false);
            }
            let len = (rng.next_u64() % 40) as usize;
            let row: Vec<u32> = (0..len).map(|_| (rng.next_u64() % 64) as u32).collect();
            v.collect_unvisited(Row::U32(&row), &mut batch);
            assert_eq!(
                batch,
                first_visits(&mut seen, &row),
                "round {round}: {row:?}"
            );
        }
    }

    #[test]
    fn visited_epoch_wrap_resets_marks() {
        let mut v = Visited::default();
        let mut batch = Vec::new();
        v.begin(8);
        v.collect_unvisited(Row::U32(&[3u32, 5, 3]), &mut batch);
        assert_eq!(batch, [3, 5]);
        v.collect_unvisited(Row::U32(&[5u32, 3]), &mut batch);
        assert!(batch.is_empty());
        // Force the wrap: the next begin() must zero the marks once and
        // restart epochs, so slots 3 and 5 read unvisited again.
        v.epoch = u32::MAX;
        v.begin(8);
        assert_eq!(v.epoch, 1);
        v.collect_unvisited(Row::U32(&[5u32, 3, 5, 6]), &mut batch);
        assert_eq!(batch, [5, 3, 6], "post-wrap visits must start clean");
        v.collect_unvisited(Row::U32(&[3u32, 6, 5]), &mut batch);
        assert!(batch.is_empty());
        // A stale mark from the pre-wrap era can never alias the new epoch.
        assert!(v.marks.iter().all(|&m| m <= 1));
    }

    /// A neighbour listed twice in one row is scored once, from an edited
    /// row and from a compiled one, and counts once in the work counters.
    #[test]
    fn a_repeated_neighbour_is_scored_once() {
        let key = |i: u32| VertexId::new(SegmentId(0), LocalId(i));
        let mut idx = HnswIndex::new(HnswConfig::new(2, DistanceMetric::L2));
        for i in 0..4 {
            idx.insert(key(i), &[i as f32, 0.0]).unwrap();
        }
        let rows: [&[u32]; 4] = [&[1, 2, 1, 3, 2], &[0, 2, 0], &[3, 3], &[]];
        for (s, row) in rows.iter().enumerate() {
            *idx.adj.row_mut(s as u32, 0) = row.to_vec();
        }
        let sc = idx.scorer(&[0.0, 0.0]);
        let from_slot_0 = |idx: &HnswIndex| {
            let mut stats = SearchStats::default();
            let mut scratch = SearchScratch::default();
            let admit_all = |_: u32, _: &mut SearchStats| true;
            let found = idx.beam_search(&sc, &[0], 10, 0, admit_all, &mut stats, &mut scratch);
            let slots: Vec<u32> = found.iter().map(|&(_, s)| s).collect();
            (slots, stats.distance_computations, stats.hops)
        };
        let on_edits = from_slot_0(&idx);
        assert_eq!(on_edits, (vec![0, 1, 2, 3], 4, 3));
        let mut compiled = idx.clone();
        compiled.adj = idx.adj.folded(&idx.levels, &[0, 1, 2, 3]);
        assert!(!compiled.adj.has_edits());
        assert_eq!(from_slot_0(&compiled), on_edits);
    }

    /// One beam over `idx` from its entry; `live_only` swaps the build's
    /// admit-everything rule for a tombstone check.
    fn beam(
        idx: &HnswIndex,
        sc: &Scorer<'_>,
        (lvl, ef, live_only): (u8, usize, bool),
    ) -> (Vec<(u32, u32)>, SearchStats) {
        let (entry, _) = idx.entry.unwrap();
        let admit = |slot: u32, stats: &mut SearchStats| {
            let dead = live_only && idx.deleted[slot as usize];
            stats.deleted_skipped += u64::from(dead);
            !dead
        };
        let mut stats = SearchStats::default();
        let mut scratch = idx.scratch.take();
        let found = idx.beam_search(sc, &[entry], ef, lvl, admit, &mut stats, &mut scratch);
        idx.scratch.put(scratch);
        (
            found.iter().map(|&(d, s)| (d.to_bits(), s)).collect(),
            stats,
        )
    }

    fn descend(idx: &HnswIndex, sc: &Scorer<'_>) -> (u32, SearchStats) {
        let (entry, top) = idx.entry.unwrap();
        let mut stats = SearchStats::default();
        let mut scratch = idx.scratch.take();
        let at = idx.greedy_descent(sc, entry, top, 1, &mut stats, &mut scratch);
        idx.scratch.put(scratch);
        (at, stats)
    }

    /// One loop, every row form: the beam and the greedy descent over the
    /// edited rows of a build, over the same graph folded into compiled rows
    /// at both id widths, and over compiled rows with a few slots rewritten
    /// as edits, return the same candidates, bit for bit, for the same work.
    #[test]
    fn beam_and_descent_agree_across_row_forms() {
        let key = |i: u32| VertexId::new(SegmentId(0), LocalId(i));
        let mut rng = SplitMix64::new(0x3E3);
        let mut idx = HnswIndex::new(HnswConfig::new(8, DistanceMetric::L2).with_m(6));
        for i in 0..700 {
            let v: Vec<f32> = (0..8).map(|_| rng.next_f32() * 10.0).collect();
            idx.insert(key(i), &v).unwrap();
        }
        (0..700)
            .step_by(4)
            .for_each(|i| assert!(idx.remove(key(i))));
        assert!(idx.entry.unwrap().1 >= 1, "the recipe needs an upper layer");
        // Folded without the BFS renumbering, so slot ids line up.
        let with_adj = |adj: Adjacency| {
            let mut form = idx.clone();
            form.adj = adj;
            form
        };
        let identity: Vec<u32> = (0..700).collect();
        let narrow = with_adj(idx.adj.folded(&idx.levels, &identity));
        let wide = with_adj(idx.adj.folded_as(&idx.levels, &identity, Ids::U32));
        let mut mixed = narrow.clone();
        for s in (0..700).step_by(9) {
            let row = mixed.adj.row(s, 0).to_vec();
            *mixed.adj.row_mut(s, 0) = row;
        }
        let forms = [
            ("u16 rows", &narrow),
            ("u32 rows", &wide),
            ("mixed", &mixed),
        ];
        for q in 0..6 {
            let query: Vec<f32> = (0..8).map(|_| rng.next_f32() * 10.0).collect();
            let sc = idx.scorer(&query);
            for lvl in [0u8, 1] {
                for ef in [1usize, 8, 64] {
                    for live_only in [false, true] {
                        let shape = (lvl, ef, live_only);
                        let want = beam(&idx, &sc, shape);
                        assert!(!want.0.is_empty() && want.1.hops > 0);
                        for (name, form) in forms {
                            assert_eq!(beam(form, &sc, shape), want, "{name} {q} {shape:?}");
                        }
                    }
                }
            }
            let want = descend(&idx, &sc);
            assert!(want.1.distance_computations > 0);
            for (name, form) in forms {
                assert_eq!(descend(form, &sc), want, "{name}, query {q}");
            }
        }
    }
}
