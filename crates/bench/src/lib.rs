//! # tv-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation (§6). Each experiment is a binary under `src/bin/`:
//!
//! | binary | regenerates |
//! |--------|-------------|
//! | `fig7_throughput` | Figs. 7–8 — QPS and single-thread latency vs recall, all four systems, both datasets (one sweep, two JSONs) |
//! | `fig9_node_scalability` | Fig. 9 — QPS vs cluster size at three recall targets |
//! | `fig10_data_scalability` | Fig. 10 — QPS vs dataset size (100K→1M standing in for 100M→1B) |
//! | `table2_build_time` | Table 2 — data-load / index-build / end-to-end times |
//! | `fig11_update` | Fig. 11 — incremental update vs full rebuild crossover |
//! | `table34_hybrid` | Tables 3–4 — hybrid IC queries (`--sf` selects the scale) |
//!
//! Every binary prints a human-readable table and writes machine-readable
//! JSON under `bench_results/` (EXPERIMENTS.md quotes those numbers).
//! Measured quantities (per-query CPU, build times, recall, candidate
//! counts) are real, and every TigerVector number is the engine's
//! (`EmbeddingService` behind [`baselines::TigerVectorSystem`]); cluster QPS
//! and per-system service throughput go through the documented models in
//! `baselines::cost` — see DESIGN.md's substitution table.
//!
//! The inputs and the comparators live here too: [`datagen`] generates the
//! datasets and [`baselines`] holds the comparator systems. The root crate
//! re-exports both for its examples and tests.

pub mod baselines;
pub mod datagen;

use baselines::{recall_at_k, VectorSystem};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use tv_common::VertexId;

/// Simple `--key value` CLI parsing for the bench binaries.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    values: HashMap<String, String>,
}

impl BenchArgs {
    /// Parse `std::env::args()`.
    #[must_use]
    pub fn from_env() -> Self {
        let mut values = HashMap::new();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if let Some(key) = a.strip_prefix("--") {
                if let Some(v) = args.next() {
                    values.insert(key.to_string(), v);
                }
            }
        }
        BenchArgs { values }
    }

    /// Integer argument with default.
    #[must_use]
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// u64 argument with default.
    #[must_use]
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// f64 argument with default.
    #[must_use]
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// One measured operating point of a system: recall plus timing.
#[derive(Debug, Clone, Copy)]
pub struct OperatingPoint {
    /// `ef` used (0 when untunable).
    pub ef: usize,
    /// Mean recall@k against exact ground truth.
    pub recall: f64,
    /// Measured mean per-query CPU time (seconds).
    pub cpu_per_query_s: f64,
    /// Modeled saturated QPS on the paper's hardware.
    pub modeled_qps: f64,
    /// Modeled single-thread latency (ms).
    pub modeled_latency_ms: f64,
}

/// Measure a system at one `ef` point: real recall and real per-query CPU,
/// then model QPS/latency on the paper's 32-core box via the system's
/// documented cost constants.
pub fn measure_point(
    system: &mut dyn VectorSystem,
    ef: usize,
    queries: &[Vec<f32>],
    ground_truth: &[Vec<VertexId>],
    k: usize,
    fanout_cores: usize,
) -> OperatingPoint {
    let tunable = system.set_ef(ef);
    let started = Instant::now();
    let mut recall_sum = 0.0;
    for (q, truth) in queries.iter().zip(ground_truth) {
        let got = system.top_k(q, k);
        recall_sum += recall_at_k(&got, truth, k);
    }
    let cpu_per_query = started.elapsed() / queries.len().max(1) as u32;
    let model = baselines::CostModel {
        parallel_efficiency: system.parallel_efficiency(),
        request_overhead: system.request_overhead(),
    };
    OperatingPoint {
        ef: if tunable { ef } else { 0 },
        recall: recall_sum / queries.len().max(1) as f64,
        cpu_per_query_s: cpu_per_query.as_secs_f64(),
        modeled_qps: model.modeled_qps(cpu_per_query),
        modeled_latency_ms: model
            .modeled_latency(cpu_per_query, fanout_cores)
            .as_secs_f64()
            * 1e3,
    }
}

/// Print a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Provenance block recorded in every bench JSON: which kernel tier the
/// process dispatched to, what `TV_KERNELS` asked for (`auto` when unset),
/// and the qualified kernel names
/// — distance-kernel throughput dominates these numbers, so results are not
/// reproducible without it.
#[must_use]
pub fn kernel_info() -> serde_json::Value {
    let k = tv_common::kernels::active();
    let names: Vec<serde_json::Value> = k
        .kernel_names()
        .into_iter()
        .map(serde_json::Value::from)
        .collect();
    serde_json::json!({
        "tier": k.tier().name(),
        "policy": std::env::var("TV_KERNELS").unwrap_or_else(|_| "auto".into()),
        "kernels": names,
    })
}

static STORAGE_INFO: std::sync::Mutex<Option<serde_json::Value>> = std::sync::Mutex::new(None);
static PLANNER_INFO: std::sync::Mutex<Option<serde_json::Value>> = std::sync::Mutex::new(None);
static LAYOUT_INFO: std::sync::Mutex<Option<serde_json::Value>> = std::sync::Mutex::new(None);

/// Record the filtered-search planner knobs used by this process's bench
/// JSONs. Benches that search through the planner call this before
/// [`save_json`]; benches that bypass it get the workspace defaults stamp.
pub fn set_planner_info(cfg: &tv_common::PlannerConfig) {
    *PLANNER_INFO.lock().unwrap() = Some(planner_json(cfg));
}

fn planner_json(cfg: &tv_common::PlannerConfig) -> serde_json::Value {
    use tv_hnsw::planner::{GRAPH_COST_FACTOR, MAX_EF, POST_FILTER_MIN_SELECTIVITY};
    serde_json::json!({
        "brute_force_threshold": cfg.brute_force_threshold,
        "graph_cost_factor": GRAPH_COST_FACTOR,
        "post_filter_min_selectivity": POST_FILTER_MIN_SELECTIVITY,
        "max_ef": MAX_EF,
    })
}

/// The planner-knob provenance block stamped into every bench JSON (filtered
/// throughput numbers are meaningless without the routing policy they were
/// measured under).
#[must_use]
pub(crate) fn planner_info() -> serde_json::Value {
    PLANNER_INFO
        .lock()
        .unwrap()
        .clone()
        .unwrap_or_else(|| planner_json(&tv_common::PlannerConfig::default()))
}

/// Record the graph-layout provenance block for this process's bench JSONs:
/// the adjacency representation the searched `indexes` hold (mutable pointer
/// forest vs. frozen CSR with software prefetch; one bench searches one) and
/// their resident link bytes. Benches that search a real index call this
/// before [`save_json`]; the others record no layout.
pub fn set_layout_info<'a>(indexes: impl IntoIterator<Item = &'a tv_hnsw::HnswIndex>) {
    let (mut layout, mut link_bytes) = (None, 0);
    for index in indexes {
        let form = index.layout();
        assert!(
            layout.is_none_or(|l| l == form),
            "one bench stamps one layout"
        );
        let (pointer, packed) = index.link_memory_bytes();
        link_bytes += if form.is_packed() { packed } else { pointer };
        layout = Some(form);
    }
    *LAYOUT_INFO.lock().unwrap() = Some(serde_json::json!({
        "layout": layout.map(tv_common::GraphLayout::name),
        "link_bytes": link_bytes,
    }));
}

/// The layout provenance block recorded next to [`kernel_info`] in every
/// bench JSON (single-thread QPS moves ≥1.3x between layouts, so numbers
/// are not comparable without it); `null` for a bench that searched no
/// index.
#[must_use]
pub(crate) fn layout_info() -> serde_json::Value {
    LAYOUT_INFO.lock().unwrap().clone().unwrap_or_else(|| {
        serde_json::json!({
            "layout": serde_json::Value::Null,
            "link_bytes": serde_json::Value::Null,
        })
    })
}

/// Record the storage-tier provenance block for this process's bench JSONs:
/// which tier vectors sat on and the measured resident bytes. Benches that
/// build a real index call this before [`save_json`]; benches without one
/// get the default f32/unmeasured stamp.
pub fn set_storage_info(tier: tv_common::StorageTier, memory_bytes: usize) {
    *STORAGE_INFO.lock().unwrap() = Some(serde_json::json!({
        "tier": tier.name(),
        "memory_bytes": memory_bytes,
    }));
}

/// The storage provenance block recorded next to [`kernel_info`] in every
/// bench JSON (memory numbers are meaningless without the tier they were
/// measured on).
#[must_use]
pub(crate) fn storage_info() -> serde_json::Value {
    STORAGE_INFO.lock().unwrap().clone().unwrap_or_else(|| {
        serde_json::json!({
            "tier": tv_common::StorageTier::F32.name(),
            "memory_bytes": serde_json::Value::Null,
        })
    })
}

/// Write a JSON result file under `bench_results/` in the working
/// directory (the `make` smokes run from `target/smoke`), stamped with
/// [`kernel_info`], [`storage_info`] and [`planner_info`]. Object payloads get the keys
/// inline; array payloads are wrapped as `{"kernel_info": ..., "rows":
/// [...]}`.
pub fn save_json(name: &str, value: &serde_json::Value) {
    let stamped = match value {
        serde_json::Value::Object(map) => {
            let mut map = map.clone();
            map.insert("kernel_info".to_string(), kernel_info());
            map.insert("storage_info".to_string(), storage_info());
            map.insert("planner_info".to_string(), planner_info());
            map.insert("layout_info".to_string(), layout_info());
            serde_json::Value::Object(map)
        }
        other => serde_json::json!({
            "kernel_info": kernel_info(),
            "storage_info": storage_info(),
            "planner_info": planner_info(),
            "layout_info": layout_info(),
            "rows": other.clone(),
        }),
    };
    let dir = std::path::Path::new("bench_results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        if let Ok(s) = serde_json::to_string_pretty(&stamped) {
            let _ = std::fs::write(&path, s);
            println!("[saved {}]", path.display());
        }
    }
}

/// Pretty duration for tables.
#[must_use]
pub fn fmt_duration(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_secs_f64() >= 1e-3 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1}µs", d.as_secs_f64() * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_duration_ranges() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7.0µs");
    }

    #[test]
    fn args_parse_defaults() {
        let args = BenchArgs::default();
        assert_eq!(args.get_usize("n", 42), 42);
        assert_eq!(args.get_u64("seed", 7), 7);
    }
}
