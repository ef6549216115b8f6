//! The quantized storage tier of an index: the frozen codec, the code
//! arena the traversal scores against, and the optional rerank side store.

use crate::index::HnswIndex;
use crate::layout::Cycles;
use crate::quant::{Codec, QuantizedCodec};
use tv_common::kernels;
use tv_common::{DistanceMetric, QuantSpec, StorageTier, TvError, TvResult};

/// One frozen codec and what it encoded: a slot-major code arena
/// (tombstones included — deleted slots must stay navigable/scorable) and
/// per-slot reconstruction norms when the metric is cosine.
#[derive(Clone)]
pub(crate) struct CodeStore {
    pub(crate) codec: Codec,
    /// `codec.code_len()` bytes per slot, slot-major.
    pub(crate) codes: Vec<u8>,
    /// Euclidean norm of each slot's reconstruction (cosine only; empty for
    /// other metrics).
    pub(crate) recon_norms: Vec<f32>,
}

/// Quantized vector storage attached to an index: the store the traversal
/// scores against and, in codes-only PQ mode, a finer-grained SQ8 side
/// store used only by the exact-rerank stage in `top_k`.
#[derive(Clone)]
pub(crate) struct QuantState {
    pub(crate) spec: QuantSpec,
    pub(crate) main: CodeStore,
    pub(crate) rerank: Option<CodeStore>,
}

impl CodeStore {
    /// Train a `tier` codec on a slot-major `arena` and encode every slot.
    /// The same `(arena, seed)` always produce bit-identical codebooks and
    /// codes (deterministic k-means), which is what the durability layer's
    /// recovery guarantees build on.
    fn train(
        tier: StorageTier,
        dim: usize,
        metric: DistanceMetric,
        arena: &[f32],
        seed: u64,
    ) -> TvResult<Self> {
        let codec = Codec::train(tier, dim, arena, seed)?;
        let n = arena.len() / dim;
        let mut store = CodeStore {
            codes: Vec::with_capacity(n * codec.code_len()),
            recon_norms: Vec::new(),
            codec,
        };
        let mut recon = Vec::new();
        for (slot, row) in arena.chunks_exact(dim).enumerate() {
            store.encode_slot(metric, slot, row, &mut recon);
        }
        Ok(store)
    }

    /// Encode `vector` as `slot` — in place, or appended when `slot` is one
    /// past the end — and refresh its reconstruction norm (cosine only).
    /// `recon` is the caller's reconstruction buffer.
    fn encode_slot(
        &mut self,
        metric: DistanceMetric,
        slot: usize,
        vector: &[f32],
        recon: &mut Vec<f32>,
    ) {
        let cl = self.codec.code_len();
        if self.codes.len() < (slot + 1) * cl {
            self.codes.resize((slot + 1) * cl, 0);
        }
        let code = &mut self.codes[slot * cl..(slot + 1) * cl];
        self.codec.encode_into(vector, code);
        if metric == DistanceMetric::Cosine {
            recon.resize(self.codec.dim(), 0.0);
            self.codec.reconstruct_into(code, recon);
            let norm = kernels::active().norm_sq(recon).sqrt();
            if slot == self.recon_norms.len() {
                self.recon_norms.push(norm);
            } else {
                self.recon_norms[slot] = norm;
            }
        }
    }

    /// Whether the arenas hold exactly `n` slots (snapshot validation).
    pub(crate) fn holds(&self, n: usize) -> bool {
        self.codes.len() == n * self.codec.code_len()
            && (self.recon_norms.is_empty() || self.recon_norms.len() == n)
    }

    fn apply_permutation(&mut self, cycles: &Cycles<'_>) {
        cycles.apply(&mut self.codes, self.codec.code_len());
        if !self.recon_norms.is_empty() {
            cycles.apply(&mut self.recon_norms, 1);
        }
    }

    fn bytes(&self) -> usize {
        self.codes.len()
            + self.recon_norms.len() * std::mem::size_of::<f32>()
            + self.codec.memory_bytes()
    }
}

impl QuantState {
    /// Train the codec(s) named by `spec` on a slot-major `arena` and encode
    /// every slot.
    pub(crate) fn build(
        spec: QuantSpec,
        dim: usize,
        metric: DistanceMetric,
        arena: &[f32],
        seed: u64,
    ) -> TvResult<Self> {
        let main = CodeStore::train(spec.tier, dim, metric, arena, seed)?;
        // PQ codes are too coarse to rank exactly; when the f32 arena is
        // dropped, keep an SQ8 store (1 byte/dim) for the rerank stage.
        let rerank = if !spec.keep_f32 && matches!(spec.tier, StorageTier::Pq { .. }) {
            Some(CodeStore::train(
                StorageTier::Sq8,
                dim,
                metric,
                arena,
                seed,
            )?)
        } else {
            None
        };
        Ok(QuantState { spec, main, rerank })
    }

    /// Encode `vector` with the frozen codec(s) and append it as the next
    /// slot (the incremental-insert path).
    pub(crate) fn push(&mut self, metric: DistanceMetric, vector: &[f32]) {
        let slot = self.main.codes.len() / self.main.codec.code_len();
        self.reencode(metric, slot, vector);
    }

    /// Re-encode `slot` in place from a new vector value (upsert path).
    pub(crate) fn reencode(&mut self, metric: DistanceMetric, slot: usize, vector: &[f32]) {
        let mut recon = Vec::new();
        self.main.encode_slot(metric, slot, vector, &mut recon);
        if let Some(r) = &mut self.rerank {
            r.encode_slot(metric, slot, vector, &mut recon);
        }
    }

    /// Reconstruct `slot`'s vector into `out`.
    pub(crate) fn materialize_into(&self, slot: usize, out: &mut [f32]) {
        let cl = self.main.codec.code_len();
        self.main
            .codec
            .reconstruct_into(&self.main.codes[slot * cl..(slot + 1) * cl], out);
    }

    /// Reorder every slot-indexed arena along a slot permutation's cycles,
    /// in place (layout compilation; see [`crate::packed`]): codes,
    /// reconstruction norms, and the rerank side store move together with
    /// the vectors.
    pub(crate) fn apply_permutation(&mut self, cycles: &Cycles<'_>) {
        self.main.apply_permutation(cycles);
        if let Some(r) = &mut self.rerank {
            r.apply_permutation(cycles);
        }
    }

    /// Resident bytes of codes, norm caches, and codec parameters.
    pub(crate) fn bytes(&self) -> usize {
        self.main.bytes() + self.rerank.as_ref().map_or(0, CodeStore::bytes)
    }
}

impl HnswIndex {
    /// Attach a quantized storage tier: train the codec(s) on the current
    /// arena, encode every slot, and (unless `spec.keep_f32`) drop the f32
    /// arena and norm cache. Later inserts encode with the frozen codec;
    /// retraining only happens through a rebuild.
    ///
    /// With `spec.keep_f32`, traversal scores against codes and `top_k`
    /// reranks the top `rerank_factor × k` candidates against the retained
    /// f32 vectors. In codes-only PQ mode an SQ8 side store plays that
    /// rerank role; codes-only SQ8 needs no rerank (its asymmetric scores
    /// are already exact w.r.t. the reconstruction).
    pub fn quantize(&mut self, spec: QuantSpec) -> TvResult<()> {
        if !spec.is_quantized() {
            return match &self.quant {
                None => Ok(()),
                Some(q) if q.spec.keep_f32 => {
                    self.quant = None;
                    Ok(())
                }
                Some(_) => Err(TvError::InvalidArgument(
                    "cannot drop quantization: the f32 arena was not retained".into(),
                )),
            };
        }
        if self.quant.is_some() {
            return Err(TvError::InvalidArgument(
                "index is already quantized; rebuild to change tiers".into(),
            ));
        }
        if self.keys.is_empty() {
            return Err(TvError::InvalidArgument(
                "cannot train a codec on an empty index".into(),
            ));
        }
        let state = QuantState::build(
            spec,
            self.cfg.dim,
            self.cfg.metric,
            &self.vectors,
            self.cfg.seed,
        )?;
        self.quant = Some(state);
        if !spec.keep_f32 {
            self.vectors = Vec::new();
            self.norms = Vec::new();
        }
        Ok(())
    }
}
