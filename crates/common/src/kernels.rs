//! Runtime-dispatched SIMD distance kernels.
//!
//! Every distance in the engine funnels through this layer. At first use the
//! process probes the CPU (`is_x86_feature_detected!`) and installs one
//! kernel table: AVX2+FMA where available, and otherwise the scalar tier,
//! the always-correct reference. The scalar tier is one 4-lane loop in the
//! seed's accumulation order; the compiler vectorizes it to SSE on x86-64,
//! which is why there is no SSE tier, and it is what every other target
//! (aarch64 included) runs. The choice can be overridden with the
//! `TV_KERNELS` environment variable (`scalar|avx2|avx2+fma|auto`; any other
//! value fails at first use), which CI uses to keep the fallback path
//! covered on AVX2 runners.
//!
//! Beyond plain `dot`/`l2_sq`, the table exposes **fused** one-pass kernels
//! (`dot_norm_sq` computes `<a,b>` and `|b|²` in a single sweep) and
//! **slab** kernels that score one query against N contiguous rows per
//! call, so the per-call dispatch cost is paid once per slab rather than
//! once per row. [`PreparedQuery`] packages the metric-aware scoring on top:
//! it hoists the query norm once per search and scores candidates against
//! cached per-slot norms, which drops cosine from three passes over both
//! vectors to one fused pass per candidate. Gathered slots (a graph hop's
//! neighbours, which are not contiguous) go through
//! [`PreparedQuery::distance_slots`], one table call per slot.
//!
//! [`prefetch`] is not in the table: a cache hint changes no distance, so
//! every tier issues the same instruction, inlined at the call site.
//!
//! ## Tolerance contract
//!
//! Within one tier results are deterministic (bit-identical across calls,
//! processes and build profiles on the same tier). Across tiers, results may
//! differ by at most `1e-5` **relative to the accumulated magnitude** of the
//! reduction: FMA contracts the multiply-add rounding step and wider
//! registers change the association order. The scalar tier reproduces the
//! seed kernels bit for bit, including the fused cosine path: `dot_norm_sq`
//! accumulates each sum in exactly `dot`'s 4-lane order, so cached-norm
//! cosine equals the seed's three-pass cosine on the scalar tier. Cross-tier
//! agreement is enforced by `crates/common/tests/kernel_equivalence.rs`, and
//! each tier's own bits are pinned by `kernel_pins.rs`.

use crate::metric::DistanceMetric;
use std::sync::OnceLock;

/// One dispatchable implementation level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Portable 4-lane loops in the seed's order (the reference).
    Scalar,
    /// 256-bit AVX2 with fused multiply-add.
    Avx2Fma,
}

impl KernelTier {
    /// Stable display name (also accepted by [`KernelTier::parse`]).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Avx2Fma => "avx2+fma",
        }
    }

    /// Parse a tier name (`scalar`, `avx2`, `avx2+fma`).
    #[must_use]
    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelTier::Scalar),
            "avx2" | "avx2+fma" | "avx2fma" => Some(KernelTier::Avx2Fma),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A resolved table of distance kernels for one tier. All slices handed to
/// pair kernels must be equal-length (asserted: the SIMD tiers read every
/// stream to the first one's length); batch kernels take a row-major slab of
/// exactly `out.len()` rows of `query.len()` floats (asserted too).
pub struct Kernels {
    tier: KernelTier,
    dot: fn(&[f32], &[f32]) -> f32,
    l2_sq: fn(&[f32], &[f32]) -> f32,
    norm_sq: fn(&[f32]) -> f32,
    dot_norm_sq: fn(&[f32], &[f32]) -> (f32, f32),
    dot_batch: fn(&[f32], &[f32], &mut [f32]),
    l2_sq_batch: fn(&[f32], &[f32], &mut [f32]),
    dot_u8: fn(&[f32], &[u8]) -> f32,
    l2_sq_u8: fn(&[f32], &[f32], &[u8]) -> f32,
}

impl Kernels {
    /// The tier this table implements.
    #[must_use]
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// Inner product `<a, b>`.
    #[must_use]
    pub fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        (self.dot)(a, b)
    }

    /// Squared Euclidean distance `|a - b|²`.
    #[must_use]
    pub fn l2_sq(&self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        (self.l2_sq)(a, b)
    }

    /// Squared norm `|a|²`.
    #[must_use]
    pub fn norm_sq(&self, a: &[f32]) -> f32 {
        (self.norm_sq)(a)
    }

    /// Fused one-pass `(<a, b>, |b|²)` — the cosine workhorse when `b`'s
    /// norm is not cached.
    #[must_use]
    pub fn dot_norm_sq(&self, a: &[f32], b: &[f32]) -> (f32, f32) {
        assert_eq!(a.len(), b.len());
        (self.dot_norm_sq)(a, b)
    }

    /// Batched inner product: `out[i] = <q, slab[i*d..][..d]>`.
    pub fn dot_batch(&self, q: &[f32], slab: &[f32], out: &mut [f32]) {
        assert_eq!(slab.len(), q.len() * out.len());
        (self.dot_batch)(q, slab, out);
    }

    /// Batched squared L2: `out[i] = |q - slab[i*d..][..d]|²`.
    pub fn l2_sq_batch(&self, q: &[f32], slab: &[f32], out: &mut [f32]) {
        assert_eq!(slab.len(), q.len() * out.len());
        (self.l2_sq_batch)(q, slab, out);
    }

    /// Mixed-precision inner product against a `u8` code row:
    /// `Σ a[i] * codes[i]` with each code widened to `f32`. With
    /// `a[j] = q[j] * step[j]` this is the variable half of the SQ8
    /// asymmetric dot product (the constant half is `<q, min>`).
    #[must_use]
    pub fn dot_u8(&self, a: &[f32], codes: &[u8]) -> f32 {
        assert_eq!(a.len(), codes.len());
        (self.dot_u8)(a, codes)
    }

    /// Mixed-precision squared L2 against a `u8` code row:
    /// `Σ (a[i] - scale[i] * codes[i])²`. With `a[j] = q[j] - min[j]` and
    /// `scale = step` this is the exact squared distance from the query to
    /// the SQ8 reconstruction, without materializing the reconstruction.
    #[must_use]
    pub fn l2_sq_u8(&self, a: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
        assert_eq!(a.len(), scale.len());
        assert_eq!(a.len(), codes.len());
        (self.l2_sq_u8)(a, scale, codes)
    }

    /// Qualified names of the kernels in this table, for bench provenance
    /// (e.g. `"avx2+fma::dot_batch"`).
    #[must_use]
    pub fn kernel_names(&self) -> Vec<String> {
        [
            "dot",
            "l2_sq",
            "norm_sq",
            "dot_norm_sq",
            "dot_batch",
            "l2_sq_batch",
            "dot_u8",
            "l2_sq_u8",
        ]
        .iter()
        .map(|op| format!("{}::{op}", self.tier.name()))
        .collect()
    }
}

/// Advisory prefetch of the cache line at `p` into L1: PREFETCHT0 on
/// x86-64 (SSE baseline), PRFM PLDL1KEEP on aarch64, nothing elsewhere.
/// Purely a hint — the instruction never faults, so any address is safe to
/// pass, and no distance depends on it, so it is the same on every kernel
/// tier and lives outside the dispatch table: a fn pointer cannot inline,
/// and the packed-graph search issues several of these per scored row.
#[inline(always)]
pub fn prefetch(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is an advisory hint that never faults (any
    // address, mapped or not) and is part of the SSE baseline on x86-64.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>());
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM PLDL1KEEP is an advisory hint that never faults.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{0}]",
            in(reg) p,
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Cosine distance from precomputed parts: `1 - dot / denom` with the
/// zero-vector guard (`denom == 0` → maximally distant, never NaN). `denom`
/// is the product of the two Euclidean norms.
#[must_use]
pub fn cosine_from_parts(dot: f32, denom: f32) -> f32 {
    if denom == 0.0 {
        1.0
    } else {
        1.0 - dot / denom
    }
}

/// A query prepared for repeated scoring: metric, query slice, and the query
/// norm hoisted once (cosine pays `|q|` exactly once per search, not once
/// per candidate).
pub struct PreparedQuery<'q> {
    metric: DistanceMetric,
    query: &'q [f32],
    query_norm: f32,
    k: &'static Kernels,
}

impl<'q> PreparedQuery<'q> {
    /// Prepare `query` under the process-wide active kernel table.
    #[must_use]
    pub fn new(metric: DistanceMetric, query: &'q [f32]) -> Self {
        Self::on(active(), metric, query)
    }

    /// Prepare `query` with an externally cached norm (must equal `|query|`;
    /// only consulted for cosine). Lets an index reuse its per-slot norm
    /// cache when a stored vector plays the query role (insert-time repair,
    /// link shrinking) instead of recomputing the norm.
    #[must_use]
    pub fn with_norm(metric: DistanceMetric, query: &'q [f32], query_norm: f32) -> Self {
        PreparedQuery {
            metric,
            query,
            query_norm,
            k: active(),
        }
    }

    /// Prepare `query` against an explicit kernel table (tests / benches).
    #[must_use]
    pub fn on(k: &'static Kernels, metric: DistanceMetric, query: &'q [f32]) -> Self {
        let query_norm = match metric {
            DistanceMetric::Cosine => k.norm_sq(query).sqrt(),
            _ => 0.0,
        };
        PreparedQuery {
            metric,
            query,
            query_norm,
            k,
        }
    }

    /// Distance to a candidate whose norm is **not** cached (cosine runs the
    /// fused `dot_norm_sq` kernel — one pass instead of three).
    #[must_use]
    pub fn distance(&self, v: &[f32]) -> f32 {
        match self.metric {
            DistanceMetric::L2 => self.k.l2_sq(self.query, v),
            DistanceMetric::InnerProduct => -self.k.dot(self.query, v),
            DistanceMetric::Cosine => {
                let (dot, norm_sq) = self.k.dot_norm_sq(self.query, v);
                cosine_from_parts(dot, self.query_norm * norm_sq.sqrt())
            }
        }
    }

    /// Distance to a candidate with a cached Euclidean norm: cosine becomes
    /// a single `dot` pass. `v_norm` is ignored for L2 / inner product.
    #[must_use]
    pub fn distance_cached(&self, v: &[f32], v_norm: f32) -> f32 {
        match self.metric {
            DistanceMetric::L2 => self.k.l2_sq(self.query, v),
            DistanceMetric::InnerProduct => -self.k.dot(self.query, v),
            DistanceMetric::Cosine => {
                cosine_from_parts(self.k.dot(self.query, v), self.query_norm * v_norm)
            }
        }
    }

    /// Score `slots` gathered from a slot-major `arena` (`dim` floats per
    /// slot) against this query, using the per-slot `norms` cache; distances
    /// land in `out` (cleared first, one entry per slot, same order). The
    /// rows are not contiguous, so each slot is one call through the kernel
    /// table.
    pub fn distance_slots(
        &self,
        arena: &[f32],
        dim: usize,
        norms: &[f32],
        slots: &[u32],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.reserve(slots.len());
        for &s in slots {
            let v = &arena[s as usize * dim..(s as usize + 1) * dim];
            out.push(self.distance_cached(v, norms[s as usize]));
        }
    }

    /// [`Self::distance_slots`] with software prefetch, each row requested
    /// once: the first two rows before scoring starts, then slot `i+2`'s
    /// row while slot `i` is being scored — two rows of arithmetic
    /// (~hundreds of cycles at dim 768) cover a DRAM-latency round trip,
    /// where one row's worth would not. Capped at 32 lines per row; the
    /// hardware stride prefetcher streams the tail of wider rows once the
    /// kernel starts walking them. Used by the compiled (`packed+prefetch`)
    /// graph traversal.
    pub fn distance_slots_prefetch(
        &self,
        arena: &[f32],
        dim: usize,
        norms: &[f32],
        slots: &[u32],
        out: &mut Vec<f32>,
    ) {
        out.clear();
        out.reserve(slots.len());
        let lines = (dim * std::mem::size_of::<f32>()).div_ceil(64).min(32);
        let warm = |s: u32| {
            let row = arena.as_ptr().wrapping_add(s as usize * dim).cast::<u8>();
            for l in 0..lines {
                prefetch(row.wrapping_add(l * 64));
            }
        };
        slots.iter().take(2).for_each(|&s| warm(s));
        for (i, &s) in slots.iter().enumerate() {
            if let Some(&ahead) = slots.get(i + 2) {
                warm(ahead);
            }
            let v = &arena[s as usize * dim..(s as usize + 1) * dim];
            out.push(self.distance_cached(v, norms[s as usize]));
        }
    }

    /// Score `out.len()` contiguous rows of `slab` against this query in one
    /// batched kernel call. `norms` (one per row) is required for cosine;
    /// rows of other metrics ignore it.
    pub fn distance_batch(&self, slab: &[f32], norms: Option<&[f32]>, out: &mut [f32]) {
        match self.metric {
            DistanceMetric::L2 => self.k.l2_sq_batch(self.query, slab, out),
            DistanceMetric::InnerProduct => {
                self.k.dot_batch(self.query, slab, out);
                for o in out.iter_mut() {
                    *o = -*o;
                }
            }
            DistanceMetric::Cosine => {
                self.k.dot_batch(self.query, slab, out);
                let d = self.query.len();
                match norms {
                    Some(ns) => {
                        assert_eq!(ns.len(), out.len());
                        for (o, &n) in out.iter_mut().zip(ns) {
                            *o = cosine_from_parts(*o, self.query_norm * n);
                        }
                    }
                    None => {
                        for (i, o) in out.iter_mut().enumerate() {
                            let row = &slab[i * d..(i + 1) * d];
                            let n = self.k.norm_sq(row).sqrt();
                            *o = cosine_from_parts(*o, self.query_norm * n);
                        }
                    }
                }
            }
        }
    }
}

/// The one batch row loop: `out[i] = pair(q, slab row i)`. Each tier calls
/// it from its own feature context with its pair kernel, so the kernel
/// inlines into one loop per slab and the dispatch cost is paid once.
#[inline(always)]
fn rows(q: &[f32], slab: &[f32], out: &mut [f32], pair: impl Fn(&[f32], &[f32]) -> f32) {
    let d = q.len();
    for (i, o) in out.iter_mut().enumerate() {
        *o = pair(q, &slab[i * d..(i + 1) * d]);
    }
}

/// The scalar tier — the always-correct reference every other tier is
/// tested against. Every op is one per-element term on `lanes!`.
mod scalar {
    use std::hint::black_box;

    /// The one scalar accumulation loop: `lanes!(a, b, .. => |i| [t, ..])`
    /// cuts every stream to the first one's length `n` and to `4 * (n / 4)`
    /// for the body, keeps one sum per term `t` (an expression of the
    /// element index `i`) in each of 4 lanes, reduces each as
    /// `((l0 + l1) + l2) + l3`, then adds the tail elements in order: the
    /// seed's order, so every op returns the seed's bits. Indexing streams
    /// cut to the chunk count leaves no bounds check in the loop, so the
    /// lanes vectorize; and with the terms pasted in rather than called
    /// through a closure, an unoptimized build runs plain indexed loops.
    macro_rules! lanes {
        ($($s:ident),+ => |$i:ident| [$($term:expr),+]) => {{
            let n = lanes!(@first $($s),+).len();
            let body = n / 4 * 4;
            const S: usize = [$(lanes!(@unit $term)),+].len();
            let mut acc = [[0.0f32; 4]; S];
            {
                $(let $s = &$s[..body];)+
                let mut chunk = 0;
                while chunk < body / 4 {
                    let mut lane = 0;
                    while lane < 4 {
                        let $i = 4 * chunk + lane;
                        let terms: [f32; S] = [$($term),+];
                        let mut t = 0;
                        while t < S {
                            acc[t][lane] += terms[t];
                            t += 1;
                        }
                        lane += 1;
                    }
                    chunk += 1;
                }
            }
            // `black_box` changes no value. Without it LLVM pairs the `S`
            // sums lane by lane into one vector and the loop shuffles
            // (`dot_norm_sq` ran 3× slower); behind it each sum's four
            // lanes are one vector.
            let acc = if S > 1 { black_box(acc) } else { acc };
            let mut sum = [0.0f32; S];
            let mut t = 0;
            while t < S {
                sum[t] = acc[t][0] + acc[t][1] + acc[t][2] + acc[t][3];
                t += 1;
            }
            $(let $s = &$s[..n];)+
            let mut $i = body;
            while $i < n {
                let terms: [f32; S] = [$($term),+];
                let mut t = 0;
                while t < S {
                    sum[t] += terms[t];
                    t += 1;
                }
                $i += 1;
            }
            sum
        }};
        (@first $first:ident $(, $rest:ident)*) => {
            $first
        };
        (@unit $term:expr) => {
            ()
        };
    }

    /// Inner product.
    #[inline]
    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        lanes!(a, b => |i| [a[i] * b[i]])[0]
    }

    /// Squared L2 distance.
    #[inline]
    pub(super) fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        lanes!(a, b => |i| [(a[i] - b[i]) * (a[i] - b[i])])[0]
    }

    /// Fused `(<a, b>, |b|²)`: two sums in [`dot`]'s order on one walk.
    pub(super) fn dot_norm_sq(a: &[f32], b: &[f32]) -> (f32, f32) {
        let [ab, bb] = lanes!(a, b => |i| [a[i] * b[i], b[i] * b[i]]);
        (ab, bb)
    }

    /// Mixed-precision inner product `Σ a[i] * codes[i]`.
    pub(super) fn dot_u8(a: &[f32], codes: &[u8]) -> f32 {
        lanes!(a, codes => |i| [a[i] * f32::from(codes[i])])[0]
    }

    /// Mixed-precision squared L2 `Σ (a[i] - scale[i] * codes[i])²`.
    pub(super) fn l2_sq_u8(a: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
        lanes!(a, scale, codes => |i| [
            (a[i] - scale[i] * f32::from(codes[i])) * (a[i] - scale[i] * f32::from(codes[i]))
        ])[0]
    }
}

static SCALAR: Kernels = Kernels {
    tier: KernelTier::Scalar,
    dot: scalar::dot,
    l2_sq: scalar::l2_sq,
    norm_sq: |a| scalar::dot(a, a),
    dot_norm_sq: scalar::dot_norm_sq,
    dot_batch: |q, slab, out| rows(q, slab, out, scalar::dot),
    l2_sq_batch: |q, slab, out| rows(q, slab, out, scalar::l2_sq),
    dot_u8: scalar::dot_u8,
    l2_sq_u8: scalar::l2_sq_u8,
};

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2+FMA kernels: `#[target_feature]` functions the table calls
    //! only where `avx2_available()` held. Every stream holds as many
    //! elements as the first: `Kernels`' pair methods assert it, and a
    //! batch row is cut to the query's length.

    use super::{rows, KernelTier, Kernels};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn hsum256(v: __m256) -> f32 {
        // (a..h) -> (a+e, b+f, c+g, d+h) -> (a+e+c+g, b+f+d+h, ..) -> sum
        let v = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        let sum2 = _mm_add_ps(v, _mm_movehl_ps(v, v));
        _mm_cvtss_f32(_mm_add_ss(sum2, _mm_shuffle_ps(sum2, sum2, 0b01)))
    }

    /// Widen 8 code bytes at `p` to a `f32` lane vector (`vpmovzxbd` +
    /// convert).
    ///
    /// # Safety
    ///
    /// `p` must point to at least 8 readable bytes.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn load8_u8_ps(p: *const u8) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(p.cast())))
    }

    /// The one AVX2 accumulation loop of `dot`, `l2_sq`, `dot_u8` and
    /// `l2_sq_u8` over `n` lanes: two 8-lane FMA accumulators over 16-blocks
    /// (they hide the FMA latency chain), one more 8-block into the first,
    /// `hsum256` of their sum, then the sequential tail. An op supplies
    /// `|i| factors`, the two `__m256` factors of lanes `i..i + 8` (run in
    /// the loop's `unsafe` block, only where `i + 8 <= n`), and `|i| tail`,
    /// the scalar term of lane `i`.
    macro_rules! fma_loop {
        ($n:expr, |$i:ident| $factors:expr, |$t:ident| $tail:expr) => {{
            let n = $n;
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut i = 0;
            // SAFETY: every stream holds `n` elements (module doc) and the
            // factors read lanes `i..i + 8` with `i + 8 <= n`.
            unsafe {
                while i + 16 <= n {
                    let (x0, y0) = {
                        let $i = i;
                        $factors
                    };
                    let (x1, y1) = {
                        let $i = i + 8;
                        $factors
                    };
                    acc0 = _mm256_fmadd_ps(x0, y0, acc0);
                    acc1 = _mm256_fmadd_ps(x1, y1, acc1);
                    i += 16;
                }
                if i + 8 <= n {
                    let (x, y) = {
                        let $i = i;
                        $factors
                    };
                    acc0 = _mm256_fmadd_ps(x, y, acc0);
                    i += 8;
                }
            }
            let mut sum = hsum256(_mm256_add_ps(acc0, acc1));
            while i < n {
                let $t = i;
                sum += $tail;
                i += 1;
            }
            sum
        }};
    }

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        fma_loop!(
            a.len(),
            |i| (_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i))),
            |i| a[i] * b[i]
        )
    }

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        fma_loop!(
            a.len(),
            |i| {
                let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
                (d, d)
            },
            |i| (a[i] - b[i]) * (a[i] - b[i])
        )
    }

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn dot_u8(a: &[f32], codes: &[u8]) -> f32 {
        let (pa, pc) = (a.as_ptr(), codes.as_ptr());
        fma_loop!(
            a.len(),
            |i| (_mm256_loadu_ps(pa.add(i)), load8_u8_ps(pc.add(i))),
            |i| a[i] * f32::from(codes[i])
        )
    }

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn l2_sq_u8(a: &[f32], scale: &[f32], codes: &[u8]) -> f32 {
        let (pa, ps, pc) = (a.as_ptr(), scale.as_ptr(), codes.as_ptr());
        fma_loop!(
            a.len(),
            |i| {
                let (va, vs) = (_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(ps.add(i)));
                let d = _mm256_fnmadd_ps(vs, load8_u8_ps(pc.add(i)), va);
                (d, d)
            },
            |i| {
                let d = a[i] - scale[i] * f32::from(codes[i]);
                d * d
            }
        )
    }

    /// `(<a, b>, |b|²)` on one 8-lane accumulator each: its own loop,
    /// because its order is pinned apart from [`dot`]'s.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn dot_norm_sq(a: &[f32], b: &[f32]) -> (f32, f32) {
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc_ab = _mm256_setzero_ps();
        let mut acc_bb = _mm256_setzero_ps();
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: both streams hold `n` elements and `i + 8 <= n`.
            let (va, vb) = unsafe { (_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i))) };
            acc_ab = _mm256_fmadd_ps(va, vb, acc_ab);
            acc_bb = _mm256_fmadd_ps(vb, vb, acc_bb);
            i += 8;
        }
        let (mut s_ab, mut s_bb) = (hsum256(acc_ab), hsum256(acc_bb));
        while i < n {
            s_ab += a[i] * b[i];
            s_bb += b[i] * b[i];
            i += 1;
        }
        (s_ab, s_bb)
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    fn dot_batch(q: &[f32], slab: &[f32], out: &mut [f32]) {
        rows(q, slab, out, |a, b| dot(a, b));
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    fn l2_sq_batch(q: &[f32], slab: &[f32], out: &mut [f32]) {
        rows(q, slab, out, |a, b| l2_sq(a, b));
    }

    pub(super) fn avx2_available() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    // SAFETY (every entry): the table is installed only where
    // `avx2_available()` held.
    pub(super) static AVX2: Kernels = Kernels {
        tier: KernelTier::Avx2Fma,
        dot: |a, b| unsafe { dot(a, b) },
        l2_sq: |a, b| unsafe { l2_sq(a, b) },
        norm_sq: |a| unsafe { dot(a, a) },
        dot_norm_sq: |a, b| unsafe { dot_norm_sq(a, b) },
        dot_batch: |q, slab, out| unsafe { dot_batch(q, slab, out) },
        l2_sq_batch: |q, slab, out| unsafe { l2_sq_batch(q, slab, out) },
        dot_u8: |a, codes| unsafe { dot_u8(a, codes) },
        l2_sq_u8: |a, scale, codes| unsafe { l2_sq_u8(a, scale, codes) },
    };
}

/// The kernel table for `tier`, if that tier is usable on this CPU.
/// `Scalar` always resolves.
#[must_use]
pub fn for_tier(tier: KernelTier) -> Option<&'static Kernels> {
    match tier {
        KernelTier::Scalar => Some(&SCALAR),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2Fma => x86::avx2_available().then_some(&x86::AVX2),
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Avx2Fma => None,
    }
}

/// Every kernel table usable on this CPU, from scalar up to the best.
#[must_use]
pub fn available() -> Vec<&'static Kernels> {
    [KernelTier::Scalar, KernelTier::Avx2Fma]
        .into_iter()
        .filter_map(for_tier)
        .collect()
}

/// The best tier this CPU supports (what `auto` dispatches to): the last
/// of [`available`].
#[must_use]
pub fn detect_best() -> KernelTier {
    available().last().map_or(KernelTier::Scalar, |k| k.tier())
}

static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();

/// The table a `TV_KERNELS` value selects: a tier name pins that tier (one
/// this CPU cannot run falls back to `Scalar`, never crashes); `auto`, an
/// empty value or no value picks [`detect_best`]. Any other value is an
/// error that lists the accepted ones: a misspelt selector must not run
/// some other tier unnoticed.
fn resolve(selector: Option<&str>) -> Result<&'static Kernels, String> {
    let tier = match selector {
        None | Some("") => detect_best(),
        Some(s) if s.eq_ignore_ascii_case("auto") => detect_best(),
        Some(s) => KernelTier::parse(s).ok_or_else(|| {
            format!(
                "TV_KERNELS={s:?} names no kernel tier; \
                 accepted: scalar, avx2, avx2+fma, auto (or unset)"
            )
        })?,
    };
    Ok(for_tier(tier).unwrap_or(&SCALAR))
}

/// The process-wide active kernel table, resolved once from `TV_KERNELS`
/// (first use wins). It is immutable for the life of the process, because
/// per-slot norm caches and snapshot-backed distances must all come from
/// one tier.
///
/// # Panics
///
/// On first use, if `TV_KERNELS` holds a value that names no tier.
#[must_use]
pub fn active() -> &'static Kernels {
    ACTIVE.get_or_init(|| {
        resolve(std::env::var("TV_KERNELS").ok().as_deref()).unwrap_or_else(|e| panic!("{e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available() {
        assert!(for_tier(KernelTier::Scalar).is_some());
        assert!(available().iter().any(|k| k.tier() == KernelTier::Scalar));
    }

    #[test]
    fn tier_names_roundtrip() {
        for t in [KernelTier::Scalar, KernelTier::Avx2Fma] {
            assert_eq!(KernelTier::parse(t.name()), Some(t));
        }
        assert_eq!(KernelTier::parse("avx2"), Some(KernelTier::Avx2Fma));
        assert_eq!(KernelTier::parse("bogus"), None);
    }

    #[test]
    fn tv_kernels_values_resolve() {
        let tier = |s: Option<&str>| resolve(s).map(Kernels::tier);
        let best = detect_best();
        for auto in [None, Some("auto"), Some("AUTO"), Some("")] {
            assert_eq!(tier(auto), Ok(best), "{auto:?}");
        }
        assert_eq!(tier(Some("scalar")), Ok(KernelTier::Scalar));
        assert_eq!(tier(Some("SCALAR")), Ok(KernelTier::Scalar));
        let want = for_tier(KernelTier::Avx2Fma).map_or(KernelTier::Scalar, Kernels::tier);
        assert_eq!(tier(Some("avx2+fma")), Ok(want));
        // A misspelt or retired selector is refused, never run as `auto`.
        for bad in ["scaler", "sse", "sse2", "neon", "bogus"] {
            let err = resolve(Some(bad))
                .err()
                .unwrap_or_else(|| panic!("{bad} resolved"));
            assert!(err.contains(bad) && err.contains("scalar, avx2"), "{err}");
        }
    }

    #[test]
    fn scalar_fused_matches_separate_passes_bitwise() {
        let a: Vec<f32> = (0..67).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..67).map(|i| (i as f32).cos()).collect();
        let (ab, bb) = scalar::dot_norm_sq(&a, &b);
        assert_eq!(ab.to_bits(), scalar::dot(&a, &b).to_bits());
        assert_eq!(bb.to_bits(), scalar::dot(&b, &b).to_bits());
    }

    #[test]
    fn prepared_query_cosine_zero_guard_every_tier() {
        let zeros = vec![0.0f32; 16];
        let v = vec![1.0f32; 16];
        for k in available() {
            let pq = PreparedQuery::on(k, DistanceMetric::Cosine, &zeros);
            assert_eq!(pq.distance(&v), 1.0, "tier {}", k.tier());
            assert_eq!(pq.distance_cached(&v, 4.0), 1.0, "tier {}", k.tier());
            let pq = PreparedQuery::on(k, DistanceMetric::Cosine, &v);
            assert_eq!(pq.distance(&zeros), 1.0, "tier {}", k.tier());
            assert_eq!(pq.distance_cached(&zeros, 0.0), 1.0, "tier {}", k.tier());
        }
    }

    #[test]
    fn batch_matches_pair_kernels() {
        let dim = 19;
        let n = 13;
        let q: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let slab: Vec<f32> = (0..dim * n).map(|i| (i as f32 * 0.11).cos()).collect();
        for k in available() {
            let mut out = vec![0.0f32; n];
            k.dot_batch(&q, &slab, &mut out);
            for (i, &o) in out.iter().enumerate() {
                let want = k.dot(&q, &slab[i * dim..(i + 1) * dim]);
                assert_eq!(o.to_bits(), want.to_bits(), "tier {}", k.tier());
            }
            k.l2_sq_batch(&q, &slab, &mut out);
            for (i, &o) in out.iter().enumerate() {
                let want = k.l2_sq(&q, &slab[i * dim..(i + 1) * dim]);
                assert_eq!(o.to_bits(), want.to_bits(), "tier {}", k.tier());
            }
        }
    }

    /// Too few cosine norms would leave raw dot products in the tail of
    /// `out`; the length check holds in release builds too.
    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn distance_batch_refuses_short_cosine_norms() {
        let q = [1.0f32, 0.0];
        let slab = [1.0f32, 0.0, 0.0, 1.0];
        let mut out = [0.0f32; 2];
        PreparedQuery::on(&SCALAR, DistanceMetric::Cosine, &q).distance_batch(
            &slab,
            Some(&[1.0]),
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "assertion `left == right` failed")]
    fn batch_kernels_refuse_a_short_slab() {
        let mut out = [0.0f32; 2];
        SCALAR.l2_sq_batch(&[1.0, 0.0], &[1.0, 0.0, 0.0], &mut out);
    }

    #[test]
    fn kernel_names_are_qualified() {
        let names = SCALAR.kernel_names();
        assert!(names.contains(&"scalar::dot".to_string()));
        assert!(names.contains(&"scalar::dot_u8".to_string()));
        assert!(!names.iter().any(|n| n.ends_with("prefetch")));
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn prefetch_never_faults() {
        // Prefetch is advisory and observable only through performance: an
        // in-bounds, an unaligned, a one-past-the-end and a null pointer must
        // all be accepted.
        let data = vec![0u8; 4096];
        prefetch(data.as_ptr());
        prefetch(data.as_ptr().wrapping_add(17));
        prefetch(data.as_ptr().wrapping_add(data.len()));
        prefetch(std::ptr::null());
    }

    #[test]
    fn u8_kernels_match_widened_f32_reference() {
        // Widening each code to f32 and running the f32 kernels must agree
        // with the fused u8 kernels within the cross-tier tolerance.
        let dim = 37;
        let a: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.23).sin() * 3.0).collect();
        let scale: Vec<f32> = (0..dim)
            .map(|i| 0.002 + (i as f32 * 0.05).cos().abs() * 0.01)
            .collect();
        let codes: Vec<u8> = (0..dim).map(|i| (i * 97 % 256) as u8).collect();
        let widened: Vec<f32> = codes.iter().map(|&c| f32::from(c)).collect();
        for k in available() {
            let dot_ref = k.dot(&a, &widened);
            let dot_u8 = k.dot_u8(&a, &codes);
            assert!(
                (dot_ref - dot_u8).abs() <= 1e-5 * dot_ref.abs().max(1.0),
                "tier {}: {dot_ref} vs {dot_u8}",
                k.tier()
            );
            let recon: Vec<f32> = scale.iter().zip(&widened).map(|(&s, &c)| s * c).collect();
            let l2_ref = k.l2_sq(&a, &recon);
            let l2_u8 = k.l2_sq_u8(&a, &scale, &codes);
            assert!(
                (l2_ref - l2_u8).abs() <= 1e-4 * l2_ref.abs().max(1.0),
                "tier {}: {l2_ref} vs {l2_u8}",
                k.tier()
            );
        }
    }
}
