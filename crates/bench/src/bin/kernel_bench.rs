//! **Kernel microbench**: ns/op and GB/s for every distance kernel, across
//! every tier this CPU can run, at dim ∈ {64, 128, 768, 1536}. Writes
//! `bench_results/kernel_bench.json` including each row's speedup over the
//! scalar tier. The scalar tier is the seed's 4-lane order written as one
//! vectorizable loop, so `speedup_vs_scalar` measures against vectorized
//! scalar code (SSE on x86-64), not the seed's bounds-checked loops. The
//! printed targets (≥2x cosine, ≥1.3x L2 single-pair at dim 768) were set
//! when scalar still meant those bounds-checked loops; against today's
//! scalar they are a looser bar than they read.
//!
//! The `cosine_3pass` row reproduces the seed's cosine cost model (separate
//! `dot`, `norm(a)`, `norm(b)` passes); `cosine_cached` is the production
//! path (one `dot` pass against cached norms). Comparing the dispatched
//! tier's `cosine_cached` against scalar `cosine_3pass` measures exactly
//! what the engine swap changed.
//!
//! Usage: `cargo run --release -p tv-bench --bin kernel_bench -- [--quick 1]`

use std::hint::black_box;
use std::time::Instant;
use tv_bench::{print_table, save_json, BenchArgs};
use tv_common::kernels::{self, cosine_from_parts, Kernels};
use tv_common::SplitMix64;

const DIMS: [usize; 4] = [64, 128, 768, 1536];

/// Measure `f` adaptively: double iterations until the loop runs at least
/// `min_ns`, then report ns per call.
fn bench_ns(min_ns: u128, mut f: impl FnMut()) -> f64 {
    let mut iters: u64 = 8;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = t.elapsed().as_nanos();
        if elapsed >= min_ns || iters >= 1 << 28 {
            return elapsed as f64 / iters as f64;
        }
        iters *= 2;
    }
}

struct Measurement {
    tier: &'static str,
    op: &'static str,
    dim: usize,
    ns_per_op: f64,
    gb_per_s: f64,
}

#[allow(clippy::too_many_lines)]
fn measure_tier(
    k: &'static Kernels,
    dim: usize,
    rows: usize,
    min_ns: u128,
    out: &mut Vec<Measurement>,
) {
    let mut rng = SplitMix64::new(0xBE7C ^ dim as u64);
    let a: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
    let b: Vec<f32> = (0..dim).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
    let slab: Vec<f32> = (0..dim * rows)
        .map(|_| rng.next_f32() * 2.0 - 1.0)
        .collect();
    let norms: Vec<f32> = (0..rows)
        .map(|r| k.norm_sq(&slab[r * dim..(r + 1) * dim]).sqrt())
        .collect();
    let mut dists = vec![0.0f32; rows];
    let pair_bytes = (2 * dim * std::mem::size_of::<f32>()) as f64;
    let tier = k.tier().name();

    let mut push = |op: &'static str, ns: f64, bytes_per_op: f64| {
        out.push(Measurement {
            tier,
            op,
            dim,
            ns_per_op: ns,
            gb_per_s: bytes_per_op / ns, // bytes/ns == GB/s
        });
    };

    let ns = bench_ns(min_ns, || {
        black_box(k.dot(black_box(&a), black_box(&b)));
    });
    push("dot", ns, pair_bytes);

    let ns = bench_ns(min_ns, || {
        black_box(k.l2_sq(black_box(&a), black_box(&b)));
    });
    push("l2_sq", ns, pair_bytes);

    let ns = bench_ns(min_ns, || {
        black_box(k.dot_norm_sq(black_box(&a), black_box(&b)));
    });
    push("dot_norm_sq", ns, pair_bytes);

    // Seed-style cosine: three separate passes (dot + both norms).
    let ns = bench_ns(min_ns, || {
        let (a, b) = (black_box(&a), black_box(&b));
        let denom = k.norm_sq(a).sqrt() * k.norm_sq(b).sqrt();
        black_box(cosine_from_parts(k.dot(a, b), denom));
    });
    push("cosine_3pass", ns, 3.0 * pair_bytes);

    // Production cosine: one dot pass against cached norms.
    let qn = k.norm_sq(&a).sqrt();
    let bn = k.norm_sq(&b).sqrt();
    let ns = bench_ns(min_ns, || {
        let (a, b) = (black_box(&a), black_box(&b));
        black_box(cosine_from_parts(
            k.dot(a, b),
            black_box(qn) * black_box(bn),
        ));
    });
    push("cosine_cached", ns, pair_bytes);

    let batch_bytes = pair_bytes * rows as f64;
    let ns = bench_ns(min_ns * 4, || {
        k.dot_batch(black_box(&a), black_box(&slab), &mut dists);
        black_box(dists[rows / 2]);
    });
    push("dot_batch", ns / rows as f64, batch_bytes / rows as f64);

    let ns = bench_ns(min_ns * 4, || {
        k.l2_sq_batch(black_box(&a), black_box(&slab), &mut dists);
        black_box(dists[rows / 2]);
    });
    push("l2_sq_batch", ns / rows as f64, batch_bytes / rows as f64);

    // Quantized-tier kernels: f32 query against u8 codes (the SQ8 scoring
    // path). One code byte replaces each 4-byte float on the stored side.
    let codes: Vec<u8> = (0..dim).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
    let scale: Vec<f32> = (0..dim).map(|_| rng.next_f32() + 0.5).collect();
    let u8_pair_bytes = (dim * std::mem::size_of::<f32>() + dim) as f64;

    let ns = bench_ns(min_ns, || {
        black_box(k.dot_u8(black_box(&a), black_box(&codes)));
    });
    push("dot_u8", ns, u8_pair_bytes);

    let ns = bench_ns(min_ns, || {
        black_box(k.l2_sq_u8(black_box(&a), black_box(&scale), black_box(&codes)));
    });
    push("l2_sq_u8", ns, u8_pair_bytes);

    // Keep `norms` alive so the cached-cosine rows stay honest about setup.
    black_box(&norms);
}

fn main() {
    let args = BenchArgs::from_env();
    let quick = args.get_usize("quick", 0) != 0;
    let (min_ns, rows) = if quick {
        (200_000, 128)
    } else {
        (20_000_000, 1024)
    };

    let tiers = kernels::available();
    let active = kernels::active();
    println!(
        "detected tiers: {:?}; dispatching to: {}",
        tiers.iter().map(|k| k.tier().name()).collect::<Vec<_>>(),
        active.tier()
    );

    let mut ms: Vec<Measurement> = Vec::new();
    for &k in &tiers {
        for dim in DIMS {
            measure_tier(k, dim, rows, min_ns, &mut ms);
        }
    }

    // ns/op for (tier, op, dim).
    let ns_of = |tier: &str, op: &str, dim: usize| -> f64 {
        ms.iter()
            .find(|m| m.tier == tier && m.op == op && m.dim == dim)
            .map_or(f64::NAN, |m| m.ns_per_op)
    };

    let mut rows_out = Vec::new();
    let mut json_rows = Vec::new();
    for m in &ms {
        let speedup = ns_of("scalar", m.op, m.dim) / m.ns_per_op;
        rows_out.push(vec![
            m.tier.to_string(),
            m.op.to_string(),
            format!("{}", m.dim),
            format!("{:.1}", m.ns_per_op),
            format!("{:.2}", m.gb_per_s),
            format!("{speedup:.2}x"),
        ]);
        json_rows.push(serde_json::json!({
            "tier": m.tier, "op": m.op, "dim": m.dim,
            "ns_per_op": m.ns_per_op, "gb_per_s": m.gb_per_s,
            "speedup_vs_scalar": speedup,
        }));
    }
    print_table(
        "kernel microbench",
        &["tier", "op", "dim", "ns/op", "GB/s", "vs scalar"],
        &rows_out,
    );

    // Acceptance ratios at dim 768: dispatched tier vs the seed scalar cost.
    let best = active.tier().name();
    let cosine_speedup = ns_of("scalar", "cosine_3pass", 768) / ns_of(best, "cosine_cached", 768);
    let l2_speedup = ns_of("scalar", "l2_sq", 768) / ns_of(best, "l2_sq", 768);
    println!("\ndispatched tier: {best}");
    println!("cosine dim768: dispatched cached-norm vs seed 3-pass scalar = {cosine_speedup:.2}x (target >= 2x)");
    println!("l2     dim768: dispatched vs scalar                        = {l2_speedup:.2}x (target >= 1.3x)");

    let dims: Vec<serde_json::Value> = DIMS.iter().map(|&d| serde_json::Value::from(d)).collect();
    save_json(
        "kernel_bench",
        &serde_json::json!({
            "quick": quick,
            "batch_rows": rows,
            "dims": dims,
            "measurements": json_rows,
            "summary": serde_json::json!({
                "dispatched_tier": best,
                "cosine_speedup_dim768_vs_seed": cosine_speedup,
                "l2_speedup_dim768_vs_scalar": l2_speedup,
            }),
        }),
    );
}
