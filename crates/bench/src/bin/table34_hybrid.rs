//! **Tables 3–4**: hybrid vector + graph search on the SNB-like dataset.
//! For each IC query (IC3/IC5/IC6/IC9/IC11) and each KNOWS repetition count
//! (2/3/4 hops), report End-to-End time, the number of collected Message
//! candidates, and the top-k vector-search time — the same three rows the
//! paper's tables show per hop count.
//!
//! `--sf 10` regenerates Table 3's shape, `--sf 30` Table 4's. (Entity
//! counts are the paper's SFs scaled down ×~100; candidate-set *relative*
//! sizes are the reproduction target: IC5 ≫ IC11 > IC6 ≫ IC3, IC9 = 20.)
//!
//! Usage: `cargo run --release -p tv-bench --bin table34_hybrid -- --sf 10 [--dim 16]`

use tv_bench::datagen::vectors::DatasetShape;
use tv_bench::datagen::{run_ic, IcQuery, SnbConfig, SnbGraph, VectorDataset};
use tv_bench::{fmt_duration, print_table, save_json, BenchArgs};

fn main() {
    let args = BenchArgs::from_env();
    let sf = args.get_usize("sf", 10);
    let dim = args.get_usize("dim", 16);
    let k = args.get_usize("k", 10);
    let seed = args.get_u64("seed", 1);

    println!("generating SNB-like graph at SF{sf} (scaled ×~100 down from LDBC)...");
    let snb = SnbGraph::generate(SnbConfig {
        sf,
        dim,
        seed,
        segment_capacity: 1024,
        avg_knows: 18,
    })
    .unwrap();
    let (p, po, co) = SnbGraph::counts(sf);
    println!("  persons={p} posts={po} comments={co}");

    // Flush the vector deltas into per-segment indexes (the state a loaded
    // system would be in after the vacuum).
    let tid = snb.graph.read_tid();
    for attr in [snb.post_emb, snb.comment_emb] {
        snb.graph.embeddings().delta_merge(attr, tid).unwrap();
        snb.graph.embeddings().index_merge(attr, tid, 2).unwrap();
    }
    snb.graph.embeddings().prune(tid);

    // Query vector: SIFT-shape sample, same generator family as the data.
    let qv = VectorDataset::generate_dim(DatasetShape::Sift, dim, 1, 1, seed ^ 0xBEEF).queries[0]
        .clone();
    // Seed person: a well-connected one (hub authors are low indices).
    let seed_person = snb.persons[0];

    let mut json = Vec::new();
    for hops in [2usize, 3, 4] {
        let mut rows = Vec::new();
        for measure in ["End to End", "#candidate", "Vector Search"] {
            let mut row = vec![measure.to_string()];
            for q in IcQuery::ALL {
                let stats = run_ic(&snb, q, seed_person, hops, k, &qv).unwrap();
                row.push(match measure {
                    "End to End" => fmt_duration(stats.end_to_end),
                    "#candidate" => stats.candidates.to_string(),
                    _ => fmt_duration(stats.vector_search),
                });
                if measure == "End to End" {
                    json.push(serde_json::json!({
                        "sf": sf, "hops": hops, "query": q.label(),
                        "end_to_end_s": stats.end_to_end.as_secs_f64(),
                        "candidates": stats.candidates,
                        "vector_search_s": stats.vector_search.as_secs_f64(),
                        "segments_touched": stats.segments_touched,
                        "brute_force": stats.brute_force,
                    }));
                }
            }
            rows.push(row);
        }
        print_table(
            &format!(
                "Table {} — hybrid search SF{sf}, {hops} hops",
                if sf >= 30 { 4 } else { 3 }
            ),
            &["Measure", "IC3", "IC5", "IC6", "IC9", "IC11"],
            &rows,
        );
    }
    println!("\npaper targets: IC5 collects the most candidates (millions at paper scale),");
    println!("IC6/IC11 moderate, IC3/IC9 tiny; vector search completes in milliseconds;");
    println!("end-to-end grows (sub)linearly with hops.");
    save_json(
        &format!("table{}_hybrid_sf{sf}", if sf >= 30 { 4 } else { 3 }),
        &serde_json::Value::Array(json),
    );
}
