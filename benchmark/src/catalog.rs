//! Every metric the benchmark prints, with its unit and direction. The
//! bounds live in `BENCHMARK.json` only; a unit test checks that file and
//! this catalogue name the same metrics.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; measured with tracing off. `failed_share`
/// is carried by the result's `failed` / `attempted` pair (a gated metric
/// may never be 0, and on a healthy run it always is).
pub const END_TO_END: &[MetricDef] = &[
    def("qps", "1/s", "higher"),
    def("query_p50_ms", "ms", "lower"),
    def("recall_at_10", "ratio", "higher"),
    def("recover_s", "s", "lower"),
    def("mem_bytes_per_vector", "bytes", "lower"),
    def("peak_rss_mb", "MB", "lower"),
    def("setup_s", "s", "lower"),
];

/// Single layers, crate modules as layer names; from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("kernels.ns_per_dist", "ns", "lower"),
    def("kernels.batch_us_p50", "us", "lower"),
    def("kernels.bytes_per_query", "bytes", "lower"),
    def("hnsw.search_us_p50", "us", "lower"),
    def("hnsw.search_us_p95", "us", "lower"),
    def("hnsw.added_us_p50", "us", "lower"),
    def("hnsw.dists_per_query", "count", "lower"),
    def("hnsw.hops_per_query", "count", "lower"),
    def("hnsw.packed_share", "ratio", "higher"),
    def("hnsw.build_vps", "1/s", "higher"),
    def("planner.brute_share", "ratio", "lower"),
    def("planner.in_traversal_share", "ratio", "higher"),
    def("planner.post_filter_share", "ratio", "higher"),
    def("planner.ef_escalations_per_query", "count", "lower"),
    def("planner.brute_fallbacks_per_query", "count", "lower"),
    def("planner.dists_per_result.sel50", "count", "lower"),
    def("planner.dists_per_result.sel10", "count", "lower"),
    def("planner.dists_per_result.sel1", "count", "lower"),
    def("planner.dists_per_result.hop1", "count", "lower"),
    def("segment.search_us_p50", "us", "lower"),
    def("segment.added_us_p50", "us", "lower"),
    def("segment.delta_tail_len", "count", "lower"),
    def("segment.snapshot_count", "count", "lower"),
    def("service.topk_us_p50", "us", "lower"),
    def("service.added_us_p50", "us", "lower"),
    def("service.parallel_speedup", "ratio", "higher"),
    def("service.topk_many2_us_p50", "us", "lower"),
    def("vacuum.delta_merge_rounds", "count", "lower"),
    def("vacuum.index_merge_rounds", "count", "lower"),
    def("vacuum.errors", "count", "lower"),
    def("vacuum.index_merge_ms_per_segment", "ms", "lower"),
    def("graph.vector_search_us_p50", "us", "lower"),
    def("graph.added_us_p50", "us", "lower"),
    def("graph.segment_filters_us_p50", "us", "lower"),
    def("graph.filtered_search_us_p50.sel50", "us", "lower"),
    def("graph.filtered_search_us_p50.sel10", "us", "lower"),
    def("graph.filtered_search_us_p50.sel1", "us", "lower"),
    def("graph.filtered_search_us_p50.hop1", "us", "lower"),
    def("graph.commit_us_p50", "us", "lower"),
    def("graph.write_p50_ms", "ms", "lower"),
    def("graph.write_p95_ms", "ms", "lower"),
    def("storage.wal_bytes_per_vector_byte", "ratio", "lower"),
    def("storage.checkpoint_ms", "ms", "lower"),
    def("storage.checkpoint_bytes", "bytes", "lower"),
    def("storage.recover_wal_records", "count", "lower"),
    def("gsql.parse_us_p50", "us", "lower"),
    def("gsql.resolve_plan_us_p50", "us", "lower"),
    def("gsql.execute_us_p50", "us", "lower"),
    def("gsql.added_us_p50", "us", "lower"),
    def("gsql.class_us_p50.sel50", "us", "lower"),
    def("gsql.class_us_p50.sel10", "us", "lower"),
    def("gsql.class_us_p50.sel1", "us", "lower"),
    def("gsql.class_us_p50.hop1", "us", "lower"),
    def("server.solo_us_p50", "us", "lower"),
    def("server.added_us_p50", "us", "lower"),
    def("server.batched_share", "ratio", "higher"),
    def("server.rejected", "count", "lower"),
    def("server.max_queue_depth", "count", "lower"),
    def("server.ryw_misses", "count", "lower"),
    def("server.query_p95_ms", "ms", "lower"),
    def("server.query_p99_ms", "ms", "lower"),
    def("server.latency_mean_ms", "ms", "lower"),
    def("cluster.solo_us_p50", "us", "lower"),
    def("cluster.worker_compute_us_p50", "us", "lower"),
    def("cluster.added_us_p50", "us", "lower"),
    def("cluster.retries", "count", "lower"),
    def("cluster.hedges", "count", "lower"),
    def("cluster.moved_redirects", "count", "lower"),
    def("harness.trace_overhead_pct", "%", "lower"),
    def("harness.ladder_residual_pct", "%", "lower"),
    def("harness.ladder_queries", "count", "higher"),
    def("harness.pass_self_pct", "%", "lower"),
    def("harness.writer_late_ms_p95", "ms", "lower"),
    def("harness.client_mean_ms", "ms", "lower"),
    def("harness.samples", "count", "higher"),
];

pub fn named(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the catalogue must agree name for name, with the
    /// same unit and direction, and stay inside the contract's limits.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = serde_json::from_str(text).expect("BENCHMARK.json parses");
        for (key, defs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = doc.get(key).and_then(|v| v.as_array()).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, d) in listed.iter().zip(defs) {
                let field = |f: &str| entry.get(f).and_then(|v| v.as_str()).unwrap_or("");
                assert_eq!(field("name"), d.name);
                assert_eq!(field("unit"), d.unit, "{}", d.name);
                assert_eq!(field("better"), d.better, "{}", d.name);
                assert!(d.name.len() <= 64 && d.unit.len() <= 16);
                let bound = entry.get("bound").and_then(|v| v.as_f64());
                assert_eq!(bound.is_some(), bounded, "{}", d.name);
                assert!(bound.is_none_or(|b| b > 0.0 && b <= 0.25), "{}", d.name);
            }
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let workloads = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(|v| v.as_str()))
            .collect();
        let specs: Vec<&str> = crate::rig::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(names, specs);
    }
}
