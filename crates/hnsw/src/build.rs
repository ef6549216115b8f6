//! Graph construction and repair: inserts, in-place updates with
//! neighborhood repair, soft deletes, and the parallel bulk build. Every
//! path links a node with the same [`HnswIndex::link_node`] over a
//! [`LinkStore`] — the forest for sequential writes, the per-node-locked
//! forest for the parallel build — and prunes lists with the same
//! [`HnswIndex::select_from`].

use crate::index::HnswIndex;
use crate::search::{lock_node, LinkStore, Scorer, SearchScratch};
use crate::select::select_neighbors;
use crate::stats::SearchStats;
use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, PoisonError, RwLock};
use tv_common::kernels::{self, cosine_from_parts};
use tv_common::{DistanceMetric, PreparedQuery, SplitMix64, TvError, TvResult, VertexId};
use tv_quant::QuantQuery;

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
    /// picks the level. Replaces the old shared-mutable build RNG — levels
    /// no longer depend on insertion order, so parallel build interleaving
    /// cannot perturb them, a key re-inserted after deletion lands on the
    /// same level, and `fig11_update` runs are reproducible. Persisted
    /// snapshots are unaffected (levels are stored).
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
    /// level, tombstone flag, empty per-level lists, key map, live mask —
    /// and return it.
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
        self.links
            .push((0..=level).map(|_| Vec::new()).collect::<Vec<_>>());
        self.slot_of.insert(key, slot);
        let local = key.local().0 as usize;
        self.live_mask.grow(local + 1);
        self.live_mask.set(local, true);
        slot
    }

    /// Insert or replace the vector for `key`. Returns an error on dimension
    /// mismatch.
    pub fn insert(&mut self, key: VertexId, vector: &[f32]) -> TvResult<()> {
        self.check_dim(vector)?;
        // Writes run against the mutable forest; a compiled index thaws
        // here (the BFS renumbering is kept — only the storage form
        // reverts, so search results are unchanged).
        self.ensure_mutable();
        // Upsert of a live key: in-place update with neighborhood repair
        // (hnswlib's updatePoint) — the expensive path whose cost Fig. 11
        // compares against a full rebuild.
        if let Some(&old) = self.slot_of.get(&key) {
            if !self.deleted[old as usize] {
                self.update_in_place(old, vector);
                return Ok(());
            }
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

    /// Link `slot`, whose stored vector is `vector`, into the forest from
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
        // Linking reads the index while it rewrites the lists, so the
        // forest steps out of `self` for the duration.
        let mut links = std::mem::take(&mut self.links);
        self.link_node(links.as_mut_slice(), slot, &sc, entry, &mut scratch);
        self.links = links;
        self.scratch.put(scratch);
    }

    /// Link one appended node into `graph`, starting from `entry`: greedy
    /// descent above its level, then per layer a beam search, diversity
    /// selection, the node's own list written, and back-links added (and
    /// pruned) on each chosen neighbor — one list edited at a time, so the
    /// locked forest never holds two node locks.
    fn link_node<G: LinkStore + ?Sized>(
        &self,
        graph: &mut G,
        slot: u32,
        sc: &Scorer<'_>,
        (start, top): (u32, u8),
        scratch: &mut SearchScratch,
    ) {
        let level = self.levels[slot as usize];
        let ef = self.cfg.ef_construction;
        // Build-time work counters are not reported anywhere.
        let mut stats = SearchStats::default();
        let cur = self.greedy_descent(&*graph, sc, start, top, level + 1, &mut stats, scratch);
        let mut entry_points = vec![cur];
        for lvl in (0..=level.min(top)).rev() {
            let mut found = self.beam_search(
                &*graph,
                sc,
                &entry_points,
                ef,
                lvl,
                |_, _| true,
                &mut stats,
                scratch,
            );
            // A moved node still has in-links, and a node linked in
            // parallel is reachable once a peer back-links it; never link a
            // node to itself.
            found.retain(|&(_, s)| s != slot);
            let max_deg = if lvl == 0 { self.cfg.m0 } else { self.cfg.m };
            let chosen =
                select_neighbors(&found, self.cfg.m, true, |a, b| self.pair_distance(a, b));
            graph.edit(slot, lvl, |own| own.clone_from(&chosen));
            for &nb in &chosen {
                graph.edit(nb, lvl, |list| {
                    self.add_back_link(nb, list, slot, max_deg, scratch);
                });
            }
            entry_points = found.iter().map(|&(_, s)| s).collect();
            if entry_points.is_empty() {
                entry_points = vec![cur];
            }
        }
    }

    /// Add the back-link `nb → slot` to `nb`'s list, pruning the list back
    /// to `max_deg` if it overflows.
    fn add_back_link(
        &self,
        nb: u32,
        list: &mut Vec<u32>,
        slot: u32,
        max_deg: usize,
        scratch: &mut SearchScratch,
    ) {
        if list.contains(&slot) {
            return;
        }
        list.push(slot);
        if list.len() > max_deg {
            *list = self.select_from(nb, list, max_deg, scratch);
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
            old_neighbors.extend_from_slice(&self.links[slot as usize][lvl as usize]);
            if old_neighbors.is_empty() {
                continue;
            }
            let max_deg = if lvl == 0 { self.cfg.m0 } else { self.cfg.m };
            for &nb in &old_neighbors {
                // Candidate pool for this neighbor: its own links plus the
                // moved node's old neighborhood (hnswlib's repair set).
                pool.clear();
                pool.extend_from_slice(&self.links[nb as usize][lvl as usize]);
                pool.extend_from_slice(&old_neighbors);
                pool.sort_unstable();
                pool.dedup();
                pool.retain(|&c| c != nb);
                self.links[nb as usize][lvl as usize] =
                    self.select_from(nb, &pool, max_deg, &mut scratch);
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
        if let Some(&slot) = self.slot_of.get(&key) {
            if !self.deleted[slot as usize] {
                self.deleted[slot as usize] = true;
                self.deleted_count += 1;
                self.slot_of.remove(&key);
                let local = key.local().0 as usize;
                if local < self.live_mask.len() {
                    self.live_mask.set(local, false);
                }
                return true;
            }
        }
        false
    }

    /// What a parallel batch may link concurrently. Checks every item's
    /// dimension (before anything is applied), then returns the keys that
    /// occur exactly once in the batch and are not in the index yet.
    /// Everything else — repeated keys, upserts of live keys — must apply
    /// sequentially, in batch order, to preserve per-id record order.
    fn fresh_keys(&self, items: &[(VertexId, Vec<f32>)]) -> TvResult<HashSet<VertexId>> {
        let mut count: HashMap<VertexId, usize> = HashMap::new();
        for (key, vector) in items {
            self.check_dim(vector)?;
            *count.entry(*key).or_insert(0) += 1;
        }
        count.retain(|key, n| *n == 1 && !self.slot_of.contains_key(key));
        Ok(count.into_keys().collect())
    }

    /// Bulk insert with optional parallel graph construction.
    ///
    /// `threads <= 1` (or a batch of one) runs the plain sequential insert
    /// loop and is **bit-identical** to calling [`HnswIndex::insert`] per
    /// item. With more threads, items whose key repeats within the batch or
    /// is already live are applied sequentially first (in batch order, so
    /// upsert semantics are preserved), and the remaining fresh appends are
    /// linked concurrently under per-node locks. Levels come from the
    /// deterministic per-key sampler, so the node set and level assignment
    /// are identical across thread counts; only link sets may differ
    /// (hnswlib-style construction races), preserving recall parity rather
    /// than byte identity.
    pub fn insert_batch(&mut self, items: &[(VertexId, Vec<f32>)], threads: usize) -> TvResult<()> {
        self.ensure_mutable();
        if threads <= 1 || items.len() <= 1 {
            for (key, vector) in items {
                self.insert(*key, vector)?;
            }
            return Ok(());
        }
        let fresh_keys = self.fresh_keys(items)?;
        let mut fresh: Vec<(VertexId, &[f32])> = Vec::with_capacity(items.len());
        for (key, vector) in items {
            if fresh_keys.contains(key) {
                fresh.push((*key, vector.as_slice()));
            } else {
                self.insert(*key, vector)?;
            }
        }
        self.parallel_insert_fresh(&fresh, threads);
        Ok(())
    }

    /// Append `items` (all fresh keys, dimension-checked by the caller) and
    /// link them concurrently. Phase A appends every slot sequentially, so
    /// the shared state is immutable during linking. Phase B moves the
    /// adjacency lists into per-node mutexes and the entry point into an
    /// `RwLock`, then fans the link work out over the shared pool; scoring
    /// reads only the (now frozen) arena/codes, and neighbor lists are
    /// touched one lock at a time, so no lock ordering issues arise.
    fn parallel_insert_fresh(&mut self, items: &[(VertexId, &[f32])], threads: usize) {
        let first = self.keys.len() as u32;
        for (key, vector) in items {
            self.append_slot(*key, vector);
        }
        let mut work: Vec<u32> = (first..self.keys.len() as u32).collect();
        if self.entry.is_none() {
            if work.is_empty() {
                return;
            }
            // Bootstrap like the sequential path: the first node becomes the
            // entry with no out-links; later nodes back-link into it.
            let boot = work.remove(0);
            self.entry = Some((boot, self.levels[boot as usize]));
        }
        if work.is_empty() {
            return;
        }
        let locked: Vec<Mutex<Vec<Vec<u32>>>> = std::mem::take(&mut self.links)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let entry_lock = RwLock::new(self.entry.expect("entry bootstrapped above"));
        let this = &*self;
        let pool = tv_common::pool::global();
        pool.run(work.clone(), threads, |slot| {
            this.link_one_locked(slot, &locked, &entry_lock);
        });
        // Refinement pass: two nodes linked concurrently are blind to each
        // other (neither had links when the other's beam ran), which costs
        // a fraction of a percent of recall versus sequential build. One
        // level-0 re-search per fresh node over the now-complete graph
        // recovers those missed mutual links and restores recall parity.
        let entry = *entry_lock.read().unwrap_or_else(PoisonError::into_inner);
        pool.run(work, threads, |slot| {
            this.refine_one_locked(slot, &locked, entry);
        });
        self.links = locked
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        self.entry = Some(entry);
    }

    /// Link one pre-appended node into the locked graph
    /// ([`Self::link_node`] over the locked forest), then raise the shared
    /// entry point if the node's level tops it.
    fn link_one_locked(
        &self,
        slot: u32,
        mut links: &[Mutex<Vec<Vec<u32>>>],
        entry: &RwLock<(u32, u8)>,
    ) {
        let level = self.levels[slot as usize];
        let sc = self.slot_scorer(slot);
        let mut scratch = self.scratch.take();
        let at = *entry.read().unwrap_or_else(PoisonError::into_inner);
        self.link_node(&mut links, slot, &sc, at, &mut scratch);
        self.scratch.put(scratch);
        if level > at.1 {
            let mut e = entry.write().unwrap_or_else(PoisonError::into_inner);
            if level > e.1 {
                *e = (slot, level);
            }
        }
    }

    /// Second-pass link refinement for one node (parallel build only):
    /// re-run the level-0 beam on the completed locked graph, merge the
    /// candidates with the node's current list through the diversity
    /// heuristic, and back-link any newly chosen neighbors.
    fn refine_one_locked(
        &self,
        slot: u32,
        mut links: &[Mutex<Vec<Vec<u32>>>],
        (start, top): (u32, u8),
    ) {
        let sc = self.slot_scorer(slot);
        let mut scratch = self.scratch.take();
        let mut stats = SearchStats::default();
        let ef = self.cfg.ef_construction;
        let cur = self.greedy_descent(&links, &sc, start, top, 1, &mut stats, &mut scratch);
        let mut found = self.beam_search(
            &links,
            &sc,
            &[cur],
            ef,
            0,
            |_, _| true,
            &mut stats,
            &mut scratch,
        );
        found.retain(|&(_, s)| s != slot);
        if !found.is_empty() {
            let own: Vec<u32> = lock_node(&links[slot as usize])[0].clone();
            self.score_slots(&sc, &own, &mut scratch.dists);
            for (&nb, &nd) in own.iter().zip(&scratch.dists) {
                if !found.iter().any(|&(_, s)| s == nb) {
                    found.push((nd, nb));
                }
            }
            found.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let chosen =
                select_neighbors(&found, self.cfg.m, true, |a, b| self.pair_distance(a, b));
            let added: Vec<u32> = chosen
                .iter()
                .copied()
                .filter(|nb| !own.contains(nb))
                .collect();
            links.edit(slot, 0, |list| *list = chosen);
            for nb in added {
                links.edit(nb, 0, |list| {
                    self.add_back_link(nb, list, slot, self.cfg.m0, &mut scratch);
                });
            }
        }
        self.scratch.put(scratch);
    }
}
