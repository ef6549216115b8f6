//! Shared configuration types.
//!
//! Types that more than one crate configures itself with live here so their
//! defaults cannot drift apart: [`PlannerConfig`] (the embedding service and
//! the cluster runtime route filtered searches by it), [`RetryPolicy`] and
//! [`MigrationConfig`] (the coordinator's fault-recovery and live-migration
//! knobs), and the per-attribute storage choices [`QuantSpec`] and
//! [`GraphLayout`].

use std::time::Duration;

/// Routing knobs for filtered vector search.
///
/// TigerVector (§5.1) routes filtered search by a single static valid-count
/// threshold; NaviX shows the winning strategy actually depends on predicate
/// selectivity, so a static rule hits a worst-case cliff on selective
/// filters. The planner (`tv_hnsw::planner`) estimates the true valid-live
/// cardinality per query (filter bitmap ∩ live occupancy) and chooses among
/// brute force over the filtered set, in-traversal bitmap filtering, and
/// post-filtering an unfiltered beam with adaptive `ef` enlargement — with a
/// starvation fallback that escalates (`ef` doubling, then brute force)
/// whenever a filtered search surfaces fewer than `k` results while valid
/// points remain. The paper's threshold is the one knob; the cost model's
/// other constants live beside it in `tv_hnsw::planner`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Valid-point count at or below which brute force always wins —
    /// scanning a handful of rows is cheaper than any graph entry descent
    /// (§5.1).
    pub brute_force_threshold: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            brute_force_threshold: 64,
        }
    }
}

impl PlannerConfig {
    /// Override the always-brute valid-count floor.
    #[must_use]
    pub fn with_brute_threshold(mut self, threshold: usize) -> Self {
        self.brute_force_threshold = threshold;
        self
    }
}

/// Coordinator-side recovery policy for distributed scatter-gather: how an
/// unresponsive worker is detected (`attempt_timeout`), how many replica
/// re-route waves follow (`max_retries`, spaced by a doubling `backoff`),
/// and whether the slowest outstanding server gets a duplicate (hedged)
/// request before being declared failed (`hedge_after`).
///
/// Every wait derived from this policy is additionally bounded by the
/// request's [`crate::Deadline`] (via [`crate::Deadline::bounded_wait`]), so
/// retries never spend budget the caller no longer has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Replica re-route waves after the initial scatter (0 = no retry).
    pub max_retries: usize,
    /// Per-wave gather wait before an unresponsive server is declared
    /// failed and its segments are re-routed. Generous by default so a
    /// merely slow worker is never misdeclared in the common case.
    pub attempt_timeout: Duration,
    /// Base sleep between waves; doubles each wave, bounded by the deadline.
    pub backoff: Duration,
    /// If set, once this much of a wave has elapsed with servers still
    /// outstanding, duplicate the slowest server's request to an untried
    /// replica and let the first reply win (`None` = never hedge).
    pub hedge_after: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            attempt_timeout: Duration::from_secs(5),
            backoff: Duration::from_millis(10),
            hedge_after: None,
        }
    }
}

/// Knobs for coordinator-driven live segment migration (snapshot-ship +
/// delta-tail catch-up + atomic placement flip). The defaults bound how
/// long the flip critical section can get: catch-up keeps replaying the
/// source's delta tail in the background until the remaining tail is at
/// most `flip_threshold` records, then the flip drains that residue while
/// appends to the segment are briefly gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationConfig {
    /// Maximum delta-tail length carried into the flip critical section.
    /// Catch-up loops until the tail is at or below this many records (or
    /// `max_catchup_rounds` is exhausted); whatever remains is replayed
    /// under the append gate during the flip.
    pub flip_threshold: usize,
    /// Maximum delta records shipped per catch-up round. Smaller batches
    /// yield the append path more often; larger batches converge faster.
    pub catchup_batch: usize,
    /// Hard cap on catch-up rounds before the migration flips anyway —
    /// bounds the race against a writer that appends faster than the
    /// coordinator ships (the flip gate then drains the rest exactly once).
    pub max_catchup_rounds: usize,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            flip_threshold: 32,
            catchup_batch: 512,
            max_catchup_rounds: 64,
        }
    }
}

/// How an index stores the vectors it scores during traversal (the
/// quantized storage tier). `F32` is the uncompressed seed behavior; the
/// compressed tiers trade per-candidate precision for memory, recovering
/// recall through the exact-rerank stage configured in [`QuantSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StorageTier {
    /// Full-precision `f32` vectors (4 bytes/dim) — no codec, no rerank.
    #[default]
    F32,
    /// Per-dimension min/max scalar quantization to `u8` (1 byte/dim).
    /// Asymmetric scoring against f32 queries equals the exact distance to
    /// the reconstruction, so SQ8 traversal needs no rerank to hit its own
    /// fidelity ceiling.
    Sq8,
    /// Product quantization: `m` sub-spaces × ≤256 k-means centroids each
    /// (`m` bytes/vector), scored via per-query ADC lookup tables.
    Pq {
        /// Number of sub-quantizers (code bytes per vector).
        m: usize,
    },
}

impl StorageTier {
    /// Stable display name (`f32`, `sq8`, `pq8`, …). Used for bench
    /// provenance stamping.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            StorageTier::F32 => "f32".into(),
            StorageTier::Sq8 => "sq8".into(),
            StorageTier::Pq { m } => format!("pq{m}"),
        }
    }
}

impl std::fmt::Display for StorageTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Quantized-storage configuration for one vector index or embedding
/// attribute: which codec compresses the stored vectors, whether the f32
/// originals are retained beside the codes, and how wide the exact-rerank
/// stage re-scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantSpec {
    /// Storage representation the traversal scores against.
    pub tier: StorageTier,
    /// Keep the f32 arena beside the codes. `true` costs the full f32
    /// footprint but makes rerank exact; `false` drops the arena (the
    /// memory win) and reranks from the best remaining representation —
    /// SQ8 codes for a PQ tier, nothing extra for SQ8 itself (asymmetric
    /// SQ8 scoring is already exact w.r.t. the reconstruction).
    pub keep_f32: bool,
    /// The rerank stage re-scores the top `rerank_factor × k` traversal
    /// candidates with the most precise representation available before
    /// returning `k`. `0` or `1` disables reranking beyond the beam order.
    pub rerank_factor: usize,
}

impl Default for QuantSpec {
    fn default() -> Self {
        QuantSpec {
            tier: StorageTier::F32,
            keep_f32: true,
            rerank_factor: 4,
        }
    }
}

impl QuantSpec {
    /// The uncompressed default (tier `F32`; rerank is a no-op).
    #[must_use]
    pub fn f32() -> Self {
        QuantSpec::default()
    }

    /// SQ8 codes-only: drop the f32 arena after encoding. The standard
    /// memory-saving configuration (≈0.26× the f32 bytes at dim 128).
    #[must_use]
    pub fn sq8() -> Self {
        QuantSpec {
            tier: StorageTier::Sq8,
            keep_f32: false,
            rerank_factor: 4,
        }
    }

    /// PQ with `m` sub-quantizers, codes + an SQ8 rerank store (no f32).
    #[must_use]
    pub fn pq(m: usize) -> Self {
        QuantSpec {
            tier: StorageTier::Pq { m },
            keep_f32: false,
            rerank_factor: 4,
        }
    }

    /// Override `keep_f32`.
    #[must_use]
    pub fn with_keep_f32(mut self, keep: bool) -> Self {
        self.keep_f32 = keep;
        self
    }

    /// Override `rerank_factor`.
    #[must_use]
    pub fn with_rerank_factor(mut self, rf: usize) -> Self {
        self.rerank_factor = rf;
        self
    }

    /// Whether this spec actually compresses anything.
    #[must_use]
    pub fn is_quantized(&self) -> bool {
        self.tier != StorageTier::F32
    }
}

/// How the HNSW adjacency is laid out for search (the `layout` execution
/// knob of an embedding attribute). The index has one adjacency: compiled
/// CSR rows plus a copy-on-write set of the rows written since the last
/// fold. `Pointer` never folds, so every row stays a per-node `u32` edit;
/// `PackedPrefetch` folds at `index_merge`/snapshot-load time into
/// contiguous CSR neighbor slabs in BFS locality order, and a search with
/// nothing pending prefetches upcoming candidates' vector and neighbor rows
/// inside the traversal (on every kernel tier). Results are bit-identical
/// across layouts modulo the slot permutation — the layout is purely an
/// execution choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GraphLayout {
    /// Every row an edit; no fold.
    Pointer,
    /// CSR + reordering + software prefetch in the traversal (default).
    #[default]
    PackedPrefetch,
}

impl GraphLayout {
    /// Stable display name (`pointer`, `packed+prefetch`). Used for bench
    /// provenance stamping.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GraphLayout::Pointer => "pointer",
            GraphLayout::PackedPrefetch => "packed+prefetch",
        }
    }

    /// Whether a compiled (CSR) form should be built at all.
    #[must_use]
    pub fn is_packed(self) -> bool {
        self != GraphLayout::Pointer
    }
}

impl std::fmt::Display for GraphLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_config_builders() {
        assert_eq!(PlannerConfig::default().brute_force_threshold, 64);
        let p = PlannerConfig::default().with_brute_threshold(10);
        assert_eq!(p.brute_force_threshold, 10);
    }

    #[test]
    fn graph_layout_default_is_the_compiled_form() {
        assert_eq!(GraphLayout::default(), GraphLayout::PackedPrefetch);
        assert_eq!(GraphLayout::default().to_string(), "packed+prefetch");
        assert!(GraphLayout::PackedPrefetch.is_packed());
        assert!(!GraphLayout::Pointer.is_packed());
    }

    #[test]
    fn storage_tier_names() {
        assert_eq!(StorageTier::F32.name(), "f32");
        assert_eq!(StorageTier::Sq8.name(), "sq8");
        assert_eq!(StorageTier::Pq { m: 16 }.name(), "pq16");
        assert_eq!(StorageTier::default(), StorageTier::F32);
    }

    #[test]
    fn quant_spec_constructors() {
        assert!(!QuantSpec::f32().is_quantized());
        let s = QuantSpec::sq8();
        assert!(s.is_quantized() && !s.keep_f32 && s.rerank_factor == 4);
        let p = QuantSpec::pq(16).with_keep_f32(true).with_rerank_factor(8);
        assert_eq!(p.tier, StorageTier::Pq { m: 16 });
        assert!(p.keep_f32);
        assert_eq!(p.rerank_factor, 8);
    }

    #[test]
    fn migration_defaults_bound_the_flip() {
        let m = MigrationConfig::default();
        assert!(m.flip_threshold < m.catchup_batch);
        assert!(m.max_catchup_rounds >= 1);
    }

    #[test]
    fn retry_defaults_allow_recovery() {
        let r = RetryPolicy::default();
        assert!(r.max_retries >= 1, "default policy must actually retry");
        assert!(r.attempt_timeout > r.backoff);
        assert!(r.hedge_after.is_none(), "hedging is opt-in");
    }
}
