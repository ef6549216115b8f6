//! The quantized storage tier of an index: the frozen SQ8 codec and the code
//! arena the traversal scores against.

use crate::index::HnswIndex;
use crate::layout::{permuted, permuted_rows};
use tv_common::kernels;
use tv_common::{DistanceMetric, QuantSpec, TvError, TvResult};
use tv_quant::Sq8Codec;

/// Quantized vector storage attached to an index: one frozen codec and what
/// it encoded. The rerank stage, when the spec keeps it, reads the index's
/// retained f32 arena; nothing here is a second copy of the vectors.
#[derive(Clone)]
pub(crate) struct QuantState {
    pub(crate) spec: QuantSpec,
    pub(crate) codec: Sq8Codec,
    /// `codec.code_len()` bytes per slot, slot-major; tombstones included
    /// (deleted slots must stay navigable and scorable).
    pub(crate) codes: Vec<u8>,
    /// Euclidean norm of each slot's reconstruction (cosine only; empty for
    /// other metrics).
    pub(crate) recon_norms: Vec<f32>,
}

impl QuantState {
    /// Train the codec on a slot-major `arena` and encode every slot. The
    /// same arena always produces the same codec and codes, which is what
    /// the durability layer's recovery guarantees build on.
    pub(crate) fn build(
        spec: QuantSpec,
        dim: usize,
        metric: DistanceMetric,
        arena: &[f32],
    ) -> TvResult<Self> {
        let codec = Sq8Codec::train(dim, arena)?;
        let mut state = QuantState {
            spec,
            codes: Vec::with_capacity(arena.len()),
            recon_norms: Vec::new(),
            codec,
        };
        for (slot, row) in arena.chunks_exact(dim).enumerate() {
            state.encode_slot(metric, slot, row);
        }
        Ok(state)
    }

    /// Encode `vector` with the frozen codec as `slot`: in place (the
    /// upsert path), or appended when `slot` is one past the end (the
    /// incremental-insert path). Refreshes the slot's reconstruction norm
    /// under cosine.
    pub(crate) fn encode_slot(&mut self, metric: DistanceMetric, slot: usize, vector: &[f32]) {
        let cl = self.codec.code_len();
        if self.codes.len() < (slot + 1) * cl {
            self.codes.resize((slot + 1) * cl, 0);
        }
        let code = &mut self.codes[slot * cl..(slot + 1) * cl];
        self.codec.encode_into(vector, code);
        if metric == DistanceMetric::Cosine {
            let mut recon = vec![0.0f32; self.codec.dim()];
            self.codec.reconstruct_into(code, &mut recon);
            let norm = kernels::active().norm_sq(&recon).sqrt();
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

    /// Reconstruct `slot`'s vector into `out`.
    pub(crate) fn materialize_into(&self, slot: usize, out: &mut [f32]) {
        let cl = self.codec.code_len();
        self.codec
            .reconstruct_into(&self.codes[slot * cl..(slot + 1) * cl], out);
    }

    /// Reorder the slot-indexed arenas by `perm[old] = new` (layout
    /// compilation; see [`crate::packed`]): codes and reconstruction norms
    /// move together with the vectors.
    pub(crate) fn apply_permutation(&mut self, perm: &[u32]) {
        self.codes = permuted_rows(&self.codes, self.codec.code_len(), perm);
        if !self.recon_norms.is_empty() {
            self.recon_norms = permuted(&self.recon_norms, perm);
        }
    }

    /// Resident bytes of codes, the norm cache, and the codec's range.
    pub(crate) fn bytes(&self) -> usize {
        self.codes.len()
            + self.recon_norms.len() * std::mem::size_of::<f32>()
            + self.codec.memory_bytes()
    }
}

impl HnswIndex {
    /// Attach the SQ8 storage tier: train the codec on the current arena,
    /// encode every slot, and (unless `spec.keep_f32`) drop the f32 arena
    /// and norm cache. Later inserts encode with the frozen codec;
    /// retraining only happens through a rebuild. An `F32` spec asks for
    /// nothing and is a no-op on an unquantized index.
    ///
    /// With `spec.keep_f32`, traversal scores against codes and `top_k`
    /// reranks the top `rerank_factor × k` candidates against the retained
    /// f32 vectors. Codes-only SQ8 needs no rerank: its asymmetric scores
    /// are already exact w.r.t. the reconstruction.
    pub fn quantize(&mut self, spec: QuantSpec) -> TvResult<()> {
        if self.quant.is_some() {
            return Err(TvError::InvalidArgument(
                "index is already quantized; rebuild to change tiers".into(),
            ));
        }
        if !spec.is_quantized() {
            return Ok(());
        }
        if self.keys.is_empty() {
            return Err(TvError::InvalidArgument(
                "cannot train a codec on an empty index".into(),
            ));
        }
        self.quant = Some(QuantState::build(
            spec,
            self.cfg.dim,
            self.cfg.metric,
            &self.vectors,
        )?);
        if !spec.keep_f32 {
            self.vectors = Vec::new();
            self.norms = Vec::new();
        }
        Ok(())
    }
}
