//! **Graph-layout bench**: single-thread search throughput of the mutable
//! pointer forest vs. the compiled layout (CSR + BFS reordering + software
//! prefetch), on a fig7-style dim-768 workload.
//!
//! One HNSW index is built once in the pointer form; the compiled run is a
//! compiled clone of that same graph, so the sweep isolates the memory
//! layout — same links, same entry point, same visit order modulo the BFS
//! slot renumbering. Measurement is *paired*: every query runs on both
//! layouts back-to-back, rounds repeat the whole set, and the headline
//! speedup is the median of the per-round ratios — host drift (turbo,
//! co-tenants) hits each layout's half of a pair equally, so it cancels
//! instead of masquerading as a layout effect. Reported per layout: QPS
//! (median round), recall@k against exact ground truth, mean and p99
//! latency, resident link bytes, and the per-query work counters (distance
//! computations, hops), which must be identical across layouts.
//!
//! Acceptance gates (exit non-zero on failure):
//!
//! * recall must be equal across layouts within ±0.0001 — the compiled
//!   layout is an execution choice, not an accuracy trade;
//! * the compiled graph's link bytes must be exactly 2 B per stored
//!   neighbor id (4 B above 65 536 slots) plus the three `u32` offset
//!   tables — a check of the code that holds on any host;
//! * the median paired `packed+prefetch` / pointer QPS ratio must reach
//!   [`MIN_SPEEDUP`].
//!
//! Usage: `cargo run --release -p tv-bench --bin layout_bench -- [--n 20000] [--dim 768] [--q 150] [--ef 64] [--rounds 5]`

use std::time::Instant;
use tv_bench::datagen::{ground_truth, DatasetShape, VectorDataset};
use tv_bench::{print_table, save_json, set_layout_info, set_storage_info, BenchArgs};
use tv_common::bitmap::Filter;
use tv_common::ids::SegmentLayout;
use tv_common::{GraphLayout, VertexId};
use tv_hnsw::{HnswConfig, HnswIndex, VectorIndex};

/// Floor under the median of the per-round paired QPS ratios at the default
/// (DRAM-resident) size: the compiled layout must pay for itself. Twelve
/// runs of this binary on the 2-vCPU build sandbox (seeds 1–12, five rounds
/// each) read medians of 1.35–1.41 with no single round under 1.24; the
/// same sandbox on another day read 1.19–1.22 with no round under 1.17, and
/// the PR 9 machine 1.37. 1.1 is under every round ever observed here and
/// at the top of the 1.0–1.1 an L3-resident index shows, so it fails when the layout
/// stops helping and not when the host is having a slow day. The paper's
/// 1.3 is a target this host meets on some days, not a gate. Six
/// alternating runs on the same 2-vCPU host with the prefetch hint inlined
/// and each row requested once read medians of 1.17–1.20, against 1.14–1.18
/// for the schedule before it (a fn-pointer hint, rows requested twice); a
/// build with no software prefetch at all read 1.06–1.07, under the floor,
/// which is why the compiled traversal keeps its prefetch.
const MIN_SPEEDUP: f64 = 1.1;

struct LayoutRun {
    layout: GraphLayout,
    index: HnswIndex,
    round_qps: Vec<f64>,
    lat_us: Vec<f64>,
    recall: f64,
    link_bytes: usize,
    dists: u64,
    hops: u64,
}

impl LayoutRun {
    /// Compile a clone of `base` into `layout` and run the untimed warm-up
    /// pass: recall + work counters, and every page faulted in.
    fn prepare(
        base: &HnswIndex,
        layout: GraphLayout,
        queries: &[Vec<f32>],
        gt: &[Vec<VertexId>],
        k: usize,
        ef: usize,
    ) -> Self {
        let mut index = base.clone();
        index.compile_layout(layout);
        assert_eq!(
            index.layout(),
            layout,
            "compile produced the requested layout"
        );
        let (pointer_bytes, packed_bytes) = index.link_memory_bytes();
        let link_bytes = if layout.is_packed() {
            packed_bytes
        } else {
            pointer_bytes
        };

        let mut hits = 0usize;
        let mut dists = 0u64;
        let mut hops = 0u64;
        for (q, truth) in queries.iter().zip(gt) {
            let (res, stats) = index.top_k(q, k, ef, Filter::All);
            hits += res.iter().filter(|n| truth.contains(&n.id)).count();
            dists += stats.distance_computations;
            hops += stats.hops;
            if layout.is_packed() {
                assert_eq!(
                    stats.packed_searches, 1,
                    "{layout} did not serve the search from the compiled form"
                );
            }
        }
        LayoutRun {
            layout,
            index,
            round_qps: Vec::new(),
            lat_us: Vec::new(),
            recall: hits as f64 / (k * queries.len().max(1)) as f64,
            link_bytes,
            dists,
            hops,
        }
    }

    /// Time one query; returns the elapsed seconds and records the latency
    /// sample.
    fn one_query(&mut self, q: &[f32], k: usize, ef: usize) -> f64 {
        let t = Instant::now();
        let (res, _) = self.index.top_k(q, k, ef, Filter::All);
        let s = t.elapsed().as_secs_f64();
        std::hint::black_box(res);
        self.lat_us.push(s * 1e6);
        s
    }

    /// Median round's QPS — robust to a disturbed round either way.
    fn qps(&self) -> f64 {
        median(&self.round_qps)
    }

    fn p99_us(&mut self) -> f64 {
        self.lat_us.sort_by(f64::total_cmp);
        let n = self.lat_us.len();
        self.lat_us[(n * 99 / 100).min(n - 1)]
    }

    fn mean_us(&self) -> f64 {
        self.lat_us.iter().sum::<f64>() / self.lat_us.len().max(1) as f64
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn main() {
    let args = BenchArgs::from_env();
    // Defaults are the committed baseline's configuration: large enough
    // that the arena is DRAM-resident (where the layout actually matters —
    // an L3-resident index hides most of the stalls prefetch removes); the
    // full fig7-style run is `--n 100000 --q 1000`. dim 768 is the paper's
    // OpenAI-embedding width.
    let n = args.get_usize("n", 20_000);
    let dim = args.get_usize("dim", 768);
    let q = args.get_usize("q", 150);
    let k = args.get_usize("k", 10);
    let ef = args.get_usize("ef", 64);
    let rounds = args.get_usize("rounds", 5);
    let seed = args.get_u64("seed", 1);
    let shape = DatasetShape::Sift;
    let seg_layout = SegmentLayout::with_capacity(n.max(1024));
    println!("\n### graph layouts — dim={dim} n={n}, q={q}, k={k}, ef={ef}, rounds={rounds}");
    let ds = VectorDataset::generate_dim(shape, dim, n, q, seed);
    let gt = ground_truth(&ds.base, &ds.queries, k, shape.metric(), seg_layout);

    let build_start = Instant::now();
    let mut base = HnswIndex::new(HnswConfig::new(dim, shape.metric()));
    for (i, v) in ds.base.iter().enumerate() {
        base.insert(seg_layout.vertex_id(i), v).expect("insert");
    }
    println!(
        "built pointer-form index in {:.1}s",
        build_start.elapsed().as_secs_f64()
    );

    let sweep = [GraphLayout::Pointer, GraphLayout::PackedPrefetch];
    let mut runs: Vec<LayoutRun> = sweep
        .iter()
        .map(|&l| LayoutRun::prepare(&base, l, &ds.queries, &gt, k, ef))
        .collect();
    drop(base);
    // Paired rounds: each query runs on every layout back-to-back, so any
    // moment-to-moment host slowdown lands on all layouts alike.
    for _ in 0..rounds {
        let mut elapsed = vec![0.0f64; runs.len()];
        for q in &ds.queries {
            for (i, run) in runs.iter_mut().enumerate() {
                elapsed[i] += run.one_query(q, k, ef);
            }
        }
        for (run, s) in runs.iter_mut().zip(&elapsed) {
            run.round_qps.push(ds.queries.len() as f64 / s.max(1e-9));
        }
    }

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for r in &mut runs {
        let (qps, mean_us, p99_us) = (r.qps(), r.mean_us(), r.p99_us());
        rows.push(vec![
            r.layout.name().to_string(),
            format!("{qps:.0}"),
            format!("{:.4}", r.recall),
            format!("{mean_us:.0}"),
            format!("{p99_us:.0}"),
            format!("{}", r.link_bytes),
        ]);
        json.push(serde_json::json!({
            "system": "tv-hnsw", "op": "search", "layout": r.layout.name(),
            "dim": dim, "nodes": n, "ef": ef,
            "qps": qps, "recall": r.recall,
            "mean_us": mean_us, "p99_us": p99_us,
            "link_bytes": r.link_bytes,
            "dists": r.dists, "hops": r.hops,
        }));
    }
    print_table(
        &format!("Layout sweep — dim={dim} n={n} ef={ef} (single thread, median of {rounds})"),
        &[
            "layout",
            "qps",
            "recall@k",
            "mean µs",
            "p99 µs",
            "link bytes",
        ],
        &rows,
    );

    let best = runs
        .iter()
        .max_by(|a, b| a.qps().total_cmp(&b.qps()))
        .expect("non-empty sweep");
    // `storage_info` and `layout_info` describe the same searched index.
    set_storage_info(best.index.storage_tier(), best.index.memory_bytes());
    set_layout_info([&best.index]);
    save_json("layout_bench", &serde_json::Value::Array(json));

    // Gate 1: result identity. The compiled layout searches the same graph
    // in a different memory order — any recall or work-counter motion is a
    // permutation bug, not a tuning artifact.
    let (pointer_recall, pointer_dists, pointer_hops, pointer_qps) =
        (runs[0].recall, runs[0].dists, runs[0].hops, runs[0].qps());
    for r in &runs[1..] {
        let drift = (r.recall - pointer_recall).abs();
        assert!(
            drift <= 1e-4,
            "recall drifted {:.6} between pointer and {}: layouts must be result-identical",
            drift,
            r.layout.name()
        );
        assert_eq!(
            (r.dists, r.hops),
            (pointer_dists, pointer_hops),
            "{} did different search work than the pointer layout",
            r.layout.name()
        );
    }

    // Gate 2: the compiled graph's size. Neighbor ids take two bytes in an
    // index of at most 65 536 slots and four above, beside three `u32`
    // offset tables: n + 1 level-0 offsets, n + 1 upper-row bases and
    // rows + 1 upper-row offsets.
    for r in runs.iter().filter(|r| r.layout.is_packed()) {
        let (ids, rows) = r.index.stored_links();
        let slots = r.index.slot_count();
        let id_bytes = if slots <= 1 << 16 { 2 } else { 4 };
        let want = id_bytes * ids + 4 * (2 * (slots + 1) + rows + 1);
        println!(
            "{} link bytes: {} for {ids} neighbor ids at {id_bytes} B and {rows} upper rows (want {want})",
            r.layout.name(),
            r.link_bytes
        );
        assert_eq!(
            r.link_bytes,
            want,
            "{} link bytes are not {id_bytes} B per id plus the offset tables",
            r.layout.name()
        );
    }

    // Gate 3: the compiled layout must pay for itself. Median of the
    // per-round paired ratios, not a ratio of medians — each ratio compares
    // two interleaved measurements of the same moment on the host.
    let _ = pointer_qps;
    let ratios: Vec<f64> = runs[0]
        .round_qps
        .iter()
        .zip(&runs.last().expect("non-empty sweep").round_qps)
        .map(|(p, f)| f / p.max(1e-9))
        .collect();
    let speedup = median(&ratios);
    println!(
        "packed+prefetch speedup over pointer: {speedup:.2}x median of {ratios:.2?} (floor {MIN_SPEEDUP:.2}x)"
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "packed+prefetch speedup {speedup:.2}x < {MIN_SPEEDUP:.2}x over the pointer layout"
    );
}
