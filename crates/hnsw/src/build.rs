//! Graph construction and repair: inserts, in-place updates with
//! neighborhood repair, and soft deletes. Every path links a node with the
//! same [`HnswIndex::link_node`] and prunes lists with the same
//! [`HnswIndex::select_from`]; every list it writes goes through
//! `Adjacency::row_mut`, which copies a compiled node's rows into the edit
//! set on its first write. A segment's graph is built by one
//! thread, one insert at a time; build parallelism is whole segments side
//! by side on the worker pool (DESIGN §3g).

use crate::index::{HnswIndex, NO_SLOT};
use crate::quant::QuantQuery;
use crate::search::{Scorer, SearchScratch};
use crate::select::select_neighbors;
use crate::stats::SearchStats;
use tv_common::kernels::{self, cosine_from_parts};
use tv_common::{DistanceMetric, PreparedQuery, SplitMix64, TvError, TvResult, VertexId};

impl HnswIndex {
    /// Distance between two stored slots: cached norms on the f32 path
    /// (cosine is a single dot pass); reconstruction of both sides in
    /// quantized codes-only mode (per-pair allocation — the diversity
    /// heuristic runs off the search hot path).
    fn pair_distance(&self, a: u32, b: u32) -> f32 {
        let (ra, rb);
        let (va, vb, norms) = match &self.quant {
            Some(q) if self.vectors.is_empty() => {
                (ra, rb) = (self.materialize(a), self.materialize(b));
                (ra.as_slice(), rb.as_slice(), &q.main.recon_norms)
            }
            _ => (self.vec_of(a), self.vec_of(b), &self.norms),
        };
        let k = kernels::active();
        match self.cfg.metric {
            DistanceMetric::L2 => k.l2_sq(va, vb),
            DistanceMetric::InnerProduct => -k.dot(va, vb),
            DistanceMetric::Cosine => {
                cosine_from_parts(k.dot(va, vb), norms[a as usize] * norms[b as usize])
            }
        }
    }

    /// Deterministic per-key level sample: the key (mixed with the config
    /// seed) seeds a [`SplitMix64`] stream whose first exponential draw
    /// picks the level. Levels do not depend on insertion order: a key
    /// re-inserted after deletion lands on the same level, and
    /// `fig11_update` runs are reproducible. Persisted snapshots are
    /// unaffected (levels are stored).
    fn level_for_key(&self, key: VertexId) -> u8 {
        let raw = (u64::from(key.segment().0) << 32) | u64::from(key.local().0);
        let mut rng = SplitMix64::new(self.cfg.seed ^ raw);
        let lvl = (rng.next_exp() * self.cfg.level_norm()).floor();
        // Cap pathological samples; 32 levels covers > 10^14 points at M=16.
        lvl.min(32.0) as u8
    }

    fn check_dim(&self, vector: &[f32]) -> TvResult<()> {
        if vector.len() == self.cfg.dim {
            return Ok(());
        }
        Err(TvError::DimensionMismatch {
            expected: self.cfg.dim,
            got: vector.len(),
        })
    }

    /// Append one unlinked slot for `key` — arena, norms, codes, keys,
    /// level, tombstone flag, empty per-level lists in the edit set,
    /// local→slot table, live mask — and return it.
    fn append_slot(&mut self, key: VertexId, vector: &[f32]) -> u32 {
        let slot = self.keys.len() as u32;
        let level = self.level_for_key(key);
        let metric = self.cfg.metric;
        // Quantized tiers encode with the frozen codec; the f32 arena is
        // maintained only when the spec retains it.
        if let Some(q) = &mut self.quant {
            q.push(metric, vector);
        }
        if self.quant.as_ref().is_none_or(|q| q.spec.keep_f32) {
            self.vectors.extend_from_slice(vector);
            self.norms.push(kernels::active().norm_sq(vector).sqrt());
        }
        self.keys.push(key);
        self.levels.push(level);
        self.deleted.push(false);
        self.adj.push_slot(slot, level);
        self.set_live_slot(key.local().0 as usize, slot);
        slot
    }

    /// Insert or replace the vector for `key`. Returns an error on dimension
    /// mismatch, and on a key of another segment than the index's first key
    /// (filters and the live mask address an index by local id alone).
    pub fn insert(&mut self, key: VertexId, vector: &[f32]) -> TvResult<()> {
        self.check_dim(vector)?;
        if let Some(first) = self.keys.first().filter(|k| k.segment() != key.segment()) {
            return Err(TvError::InvalidArgument(format!(
                "vertex {key} is not in {}, the segment this index holds",
                first.segment()
            )));
        }
        // Upsert of a live key: in-place update with neighborhood repair
        // (hnswlib's updatePoint) — the expensive path whose cost Fig. 11
        // compares against a full rebuild.
        if let Some(old) = self.live_slot(key) {
            self.update_in_place(old, vector);
            return Ok(());
        }
        let slot = self.append_slot(key, vector);
        let level = self.levels[slot as usize];
        match self.entry {
            None => self.entry = Some((slot, level)),
            Some((_, top)) => {
                self.relink(slot, vector);
                if level > top {
                    self.entry = Some((slot, level));
                }
            }
        }
        Ok(())
    }

    /// Link `slot`, whose stored vector is `vector`, into the graph from
    /// the current entry point.
    fn relink(&mut self, slot: u32, vector: &[f32]) {
        let Some(entry) = self.entry else {
            return;
        };
        // The node's vector plays the query role; the f32 path reuses its
        // freshly cached norm (one norm pass for the whole insert).
        let sc = match &self.quant {
            Some(q) => Scorer::Quant(QuantQuery::new(&q.main.codec, self.cfg.metric, vector)),
            None => Scorer::F32(PreparedQuery::with_norm(
                self.cfg.metric,
                vector,
                self.norms[slot as usize],
            )),
        };
        let mut scratch = self.scratch.take();
        self.link_node(slot, &sc, entry, &mut scratch);
        self.scratch.put(scratch);
    }

    /// Link one appended or moved node, starting from `entry`: greedy
    /// descent above its level, then per layer a beam search, diversity
    /// selection, the node's own list written, and back-links added (and
    /// pruned) on each chosen neighbor. `sc` borrows nothing of `self`, so
    /// each write lands between the reads that decide it.
    fn link_node(
        &mut self,
        slot: u32,
        sc: &Scorer<'_>,
        (start, top): (u32, u8),
        scratch: &mut SearchScratch,
    ) {
        let level = self.levels[slot as usize];
        let ef = self.cfg.ef_construction;
        // Build-time work counters are not reported anywhere.
        let mut stats = SearchStats::default();
        let cur = self.greedy_descent(sc, start, top, level + 1, &mut stats, scratch);
        let mut entry_points = vec![cur];
        for lvl in (0..=level.min(top)).rev() {
            let mut found =
                self.beam_search(sc, &entry_points, ef, lvl, |_, _| true, &mut stats, scratch);
            // A moved node still has in-links; never link a node to itself.
            found.retain(|&(_, s)| s != slot);
            let max_deg = if lvl == 0 { self.cfg.m0 } else { self.cfg.m };
            let chosen =
                select_neighbors(&found, self.cfg.m, true, |a, b| self.pair_distance(a, b));
            self.adj.row_mut(slot, lvl).clone_from(&chosen);
            for &nb in &chosen {
                let list = self.adj.row(nb, lvl);
                if list.contains(slot) {
                    continue;
                }
                if list.len() < max_deg {
                    self.adj.row_mut(nb, lvl).push(slot);
                    continue;
                }
                // A full list: re-select it from its ids and `slot`. The
                // row is rewritten where it lies, so it keeps the capacity
                // it was copied at.
                let mut candidates = std::mem::take(&mut scratch.pool);
                candidates.clear();
                list.extend_into(&mut candidates);
                candidates.push(slot);
                let kept = self.select_from(nb, &candidates, max_deg, scratch);
                scratch.pool = candidates;
                let list = self.adj.row_mut(nb, lvl);
                list.clear();
                list.extend_from_slice(&kept);
            }
            entry_points = found.iter().map(|&(_, s)| s).collect();
            if entry_points.is_empty() {
                entry_points = vec![cur];
            }
        }
    }

    /// Re-select `node`'s neighbor list from `candidates` with the
    /// diversity heuristic — the one prune routine behind link shrinking
    /// and neighborhood repair. The whole candidate set is scored against
    /// the node in one kernel call; distances and scored pairs stage
    /// through the pooled scratch (no per-call allocations).
    fn select_from(
        &self,
        node: u32,
        candidates: &[u32],
        max_deg: usize,
        scratch: &mut SearchScratch,
    ) -> Vec<u32> {
        let sc = self.slot_scorer(node);
        self.score_slots(&sc, candidates, &mut scratch.dists);
        scratch.scored.clear();
        let scored = candidates.iter().zip(&scratch.dists);
        scratch.scored.extend(scored.map(|(&c, &dc)| (dc, c)));
        scratch.scored.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        select_neighbors(&scratch.scored, max_deg, true, |a, b| {
            self.pair_distance(a, b)
        })
    }

    /// Replace a live node's vector and repair the surrounding graph:
    /// re-select the neighbor lists of the node's old neighbors from their
    /// two-hop candidate pool (the moved node invalidated their diversity
    /// choices), then re-link the node itself at every level. This costs
    /// several times a fresh insert — which is exactly why incremental
    /// updating loses to rebuilding beyond a ~20% update ratio (Fig. 11).
    fn update_in_place(&mut self, slot: u32, vector: &[f32]) {
        let d = self.cfg.dim;
        let metric = self.cfg.metric;
        if let Some(q) = &mut self.quant {
            q.reencode(metric, slot as usize, vector);
        }
        if !self.vectors.is_empty() {
            self.vectors[slot as usize * d..(slot as usize + 1) * d].copy_from_slice(vector);
            self.norms[slot as usize] = kernels::active().norm_sq(vector).sqrt();
        }
        let Some((_, top)) = self.entry else {
            return;
        };
        let level = self.levels[slot as usize];

        // Phase 1: repair old neighbors' lists from their 2-hop pools. The
        // neighborhood copy and the candidate pool stage through the pooled
        // scratch buffers — the per-neighbor-per-level `clone()`s this loop
        // used to allocate dominated the repair path's allocator traffic.
        let mut scratch = self.scratch.take();
        let mut old_neighbors: Vec<u32> = std::mem::take(&mut scratch.nbrs);
        let mut pool: Vec<u32> = std::mem::take(&mut scratch.pool);
        for lvl in 0..=level.min(top) {
            old_neighbors.clear();
            self.adj.row(slot, lvl).extend_into(&mut old_neighbors);
            if old_neighbors.is_empty() {
                continue;
            }
            let max_deg = if lvl == 0 { self.cfg.m0 } else { self.cfg.m };
            for &nb in &old_neighbors {
                // Candidate pool for this neighbor: its own links plus the
                // moved node's old neighborhood (hnswlib's repair set).
                pool.clear();
                self.adj.row(nb, lvl).extend_into(&mut pool);
                pool.extend_from_slice(&old_neighbors);
                pool.sort_unstable();
                pool.dedup();
                pool.retain(|&c| c != nb);
                let kept = self.select_from(nb, &pool, max_deg, &mut scratch);
                let list = self.adj.row_mut(nb, lvl);
                list.clear();
                list.extend_from_slice(&kept);
            }
        }
        scratch.nbrs = old_neighbors;
        scratch.pool = pool;
        self.scratch.put(scratch);

        // Phase 2: re-link the moved node like a fresh insert.
        self.relink(slot, vector);
    }

    /// Mark the vector for `key` deleted. Returns true if a live entry was
    /// removed.
    pub fn remove(&mut self, key: VertexId) -> bool {
        let Some(slot) = self.live_slot(key) else {
            return false;
        };
        self.deleted[slot as usize] = true;
        self.deleted_count += 1;
        let local = key.local().0 as usize;
        self.local_slot[local] = NO_SLOT;
        self.live_mask.set(local, false);
        true
    }
}
