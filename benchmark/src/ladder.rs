//! The traced ladder: one thread sends the same queries through each
//! layer's public function in turn, from the distance kernel up to the
//! front door, and every call is wrapped in a span. Layers are measured
//! from outside; spans inside the program are a later issue.
//!
//! Passes are rung-major within blocks of [`BLOCK`] queries: a block goes
//! through one layer, then the next. Within a block every layer meets the
//! data in the same cache state, instead of the upper layers inheriting the
//! lines the lower ones just pulled in for the same query; and all the rungs
//! of one query are timed within a second of one another, so a step in the
//! machine's speed (the sandbox makes them) lands on every rung alike and
//! cancels in the per-query differences (`*.added_us_p50`).

use crate::load::{filtered_class, params_for, rows_of, Traffic, CLASS_NAMES, TEXT_PLAIN};
use crate::oracle::{answer_ok, Class, Mirror};
use crate::rig::{ctx, Door, Res, Shape, EF, K};
use crate::stats::{added_p50_us, ns_to_us, p50_us, percentile, sorted};
use crate::trace::{Tracer, NO_PARENT};
use std::hint::black_box;
use tg_graph::VertexSet;
use tv_common::bitmap::Filter;
use tv_common::{Bitmap, Deadline, DistanceMetric, PreparedQuery};
use tv_embedding::BatchQuery;
use tv_hnsw::SearchStats;

/// Queries per rung before the next rung takes the same queries.
const BLOCK: usize = 50;

/// Per-layer numbers, by metric name.
pub type Metrics = Vec<(String, f64)>;

pub struct LadderOut {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

fn put(m: &mut Metrics, name: &str, value: f64) {
    m.push((name.to_string(), value));
}

fn admitted_set(mirror: &Mirror, doc: u32, class: Class) -> VertexSet {
    VertexSet::from_iter_typed(
        doc,
        (0..mirror.slots())
            .filter(|&s| mirror.admits(s, class))
            .map(|s| mirror.id_of(s)),
    )
}

#[allow(clippy::too_many_lines)]
pub fn run_ladder(
    traffic: Traffic,
    shape: &Shape,
    mirror: &Mirror,
    tracer: &mut Tracer,
) -> Res<LadderOut> {
    let Traffic { rig, inputs, .. } = traffic;
    let mut m = Metrics::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let graph = &rig.graph;
    let emb = graph.embeddings();
    let a = rig.schema.attr;
    let attr = ctx(emb.attr(a), "embedding attribute")?;
    let segs = attr.all_segments();
    let snaps: Vec<_> = segs.iter().map(|s| s.newest_snapshot()).collect();
    let full: Vec<Bitmap> = segs.iter().map(|s| Bitmap::full(s.capacity())).collect();
    let planner = emb.config().planner;
    let tid = rig.tid();
    let lq = shape.ladder_queries as u32;
    let dim = inputs.dim;

    // `hybrid_filtered` climbs the ladder with the unfiltered text; its
    // filtered classes have their own rungs below.
    let door = match traffic.door {
        Door::GsqlFiltered => Door::Gsql,
        d => d,
    };
    let solo = Traffic { door, ..traffic };

    let (mut h_ns, mut k_ns, mut s_ns, mut v_ns) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut many_ns, mut g_ns, mut parse_ns, mut plan_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut e_ns, mut c_ns, mut worker_ns, mut d_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut dists = Vec::new();
    let mut work = SearchStats::default();
    let (mut retries, mut hedges, mut moved) = (0u64, 0u64, 0u64);
    let mut out = vec![0.0f32; inputs.n];

    for from in (0..lq).step_by(BLOCK) {
        let block = from..(from + BLOCK as u32).min(lq);

        // ---- hnsw: the index alone, no MVCC overlay --------------------
        let pass = tracer.begin("pass.hnsw", from, NO_PARENT);
        for qi in block.clone() {
            let q = inputs.query(qi as usize);
            let mut st = SearchStats::default();
            let span = tracer.begin("hnsw.search_planned", qi, pass);
            for (snap, bm) in snaps.iter().zip(&full) {
                let (r, s) = snap
                    .index
                    .search_planned(q, K, EF, Filter::Valid(bm), &planner);
                st.merge(&s);
                black_box(r);
            }
            h_ns.push(tracer.end(span));
            dists.push(st.distance_computations);
            work.merge(&st);
        }
        tracer.end(pass);

        // ---- kernels: as many distances as the index computed, one slab -
        let pass = tracer.begin("pass.kernels", from, NO_PARENT);
        for qi in block.clone() {
            let q = inputs.query(qi as usize);
            let rows = (dists[qi as usize] as usize).clamp(1, inputs.n);
            let (_, ns) = tracer.timed("kernels.distance_batch", qi, pass, || {
                let pq = PreparedQuery::new(DistanceMetric::L2, q);
                pq.distance_batch(&inputs.vectors[..rows * dim], None, &mut out[..rows]);
                black_box(out[rows - 1])
            });
            k_ns.push(ns);
        }
        tracer.end(pass);

        // ---- segment: snapshot pick + overlay rebuild + index + overlay -
        let pass = tracer.begin("pass.segment", from, NO_PARENT);
        for qi in block.clone() {
            let q = inputs.query(qi as usize);
            let (_, ns) = tracer.timed("segment.search", qi, pass, || {
                for seg in &segs {
                    black_box(seg.search(q, K, EF, None, tid, &planner));
                }
            });
            s_ns.push(ns);
        }
        tracer.end(pass);

        // ---- service: fan-out on the worker pool + global merge --------
        let pass = tracer.begin("pass.service", from, NO_PARENT);
        for qi in block.clone() {
            let q = inputs.query(qi as usize);
            let (r, ns) = tracer.timed("service.top_k", qi, pass, || {
                emb.top_k(&[a], q, K, EF, tid, None)
            });
            ctx(r, "service.top_k")?;
            v_ns.push(ns);
        }
        tracer.end(pass);

        let pass = tracer.begin("pass.service_many2", from, NO_PARENT);
        for qi in block.clone() {
            let batch = [qi, qi + 1].map(|i| BatchQuery {
                query: inputs.query(i as usize).to_vec(),
                k: K,
                ef: EF,
            });
            let mut st = SearchStats::default();
            let (r, ns) = tracer.timed("service.top_k_many", qi, pass, || {
                emb.top_k_many(&[a], &batch, tid, None, Deadline::none(), &mut st)
            });
            ctx(r, "service.top_k_many")?;
            many_ns.push(ns);
        }
        tracer.end(pass);

        // ---- graph: the facade the query layer calls -------------------
        let pass = tracer.begin("pass.graph", from, NO_PARENT);
        for qi in block.clone() {
            let q = inputs.query(qi as usize);
            let (r, ns) = tracer.timed("graph.vector_search", qi, pass, || {
                graph.vector_search(&[a], q, K, EF, None, tid)
            });
            ctx(r, "graph.vector_search")?;
            g_ns.push(ns);
        }
        tracer.end(pass);

        // ---- gsql: parse, resolve + plan, and the whole of execute_at --
        let pass = tracer.begin("pass.gsql", from, NO_PARENT);
        for qi in block.clone() {
            let (query, ns) = tracer.timed("gsql.parse", qi, pass, || tv_gsql::parse(TEXT_PLAIN));
            parse_ns.push(ns);
            let query = ctx(query, "gsql.parse")?;
            let (planned, ns) = tracer.timed("gsql.resolve_plan", qi, pass, || {
                tv_gsql::sema::resolve(graph, query).map(|r| tv_gsql::plan::plan(graph, &r))
            });
            plan_ns.push(ns);
            ctx(planned, "gsql.resolve")?;
        }
        for qi in block.clone() {
            let params = params_for(inputs, qi as usize, Class::Plain);
            let (r, ns) = tracer.timed("gsql.execute_at", qi, pass, || {
                tv_gsql::execute_at(graph, TEXT_PLAIN, &params, tid)
            });
            ctx(r, "gsql.execute_at")?;
            e_ns.push(ns);
        }
        tracer.end(pass);

        // ---- cluster: scatter to two workers, gather, merge ------------
        let pass = tracer.begin("pass.cluster", from, NO_PARENT);
        for qi in block.clone() {
            let q = inputs.query(qi as usize);
            let (r, ns) = tracer.timed("cluster.top_k_deadline", qi, pass, || {
                rig.cluster
                    .top_k_deadline(q, K, EF, tid, None, Deadline::none())
            });
            let r = ctx(r, "cluster.top_k_deadline")?;
            c_ns.push(ns);
            worker_ns.push(r.times.iter().max().map_or(0, |d| d.as_nanos() as u64));
            retries += r.retries;
            hedges += r.hedges;
            moved += r.moved_redirects;
        }
        tracer.end(pass);

        // ---- server: the workload's own front door, solo ---------------
        let pass = tracer.begin("pass.server", from, NO_PARENT);
        for qi in block {
            let (answer, ns) =
                tracer.timed("server.front_door", qi, pass, || solo.send(qi as usize));
            attempted += 1;
            if !answer
                .0
                .is_some_and(|r| answer_ok(&r, K, Class::Plain, Some(mirror)))
            {
                failed += 1;
            }
            d_ns.push(ns);
        }
        tracer.end(pass);
    }

    let hnsw_us = sorted(ns_to_us(&h_ns));
    put(&mut m, "hnsw.search_us_p50", percentile(&hnsw_us, 0.50));
    put(&mut m, "hnsw.search_us_p95", percentile(&hnsw_us, 0.95));
    let dists_per_query = work.distance_computations as f64 / f64::from(lq);
    put(&mut m, "hnsw.dists_per_query", dists_per_query);
    put(
        &mut m,
        "hnsw.hops_per_query",
        work.hops as f64 / f64::from(lq),
    );
    put(
        &mut m,
        "hnsw.packed_share",
        work.packed_searches as f64 / work.plans_total().max(1) as f64,
    );
    put(
        &mut m,
        "kernels.ns_per_dist",
        k_ns.iter().sum::<u64>() as f64 / work.distance_computations.max(1) as f64,
    );
    put(&mut m, "kernels.batch_us_p50", p50_us(&k_ns));
    put(
        &mut m,
        "kernels.bytes_per_query",
        dists_per_query * dim as f64 * 4.0,
    );
    put(&mut m, "hnsw.added_us_p50", added_p50_us(&h_ns, &k_ns));
    put(&mut m, "segment.search_us_p50", p50_us(&s_ns));
    put(&mut m, "segment.added_us_p50", added_p50_us(&s_ns, &h_ns));
    let service_p50 = p50_us(&v_ns);
    put(&mut m, "service.topk_us_p50", service_p50);
    put(&mut m, "service.added_us_p50", added_p50_us(&v_ns, &s_ns));
    put(
        &mut m,
        "service.parallel_speedup",
        p50_us(&s_ns) / service_p50.max(1e-9),
    );
    put(&mut m, "service.topk_many2_us_p50", p50_us(&many_ns));
    put(&mut m, "graph.vector_search_us_p50", p50_us(&g_ns));
    put(&mut m, "graph.added_us_p50", added_p50_us(&g_ns, &v_ns));
    put(&mut m, "gsql.parse_us_p50", p50_us(&parse_ns));
    put(&mut m, "gsql.resolve_plan_us_p50", p50_us(&plan_ns));
    put(&mut m, "gsql.execute_us_p50", p50_us(&e_ns));
    put(&mut m, "gsql.added_us_p50", added_p50_us(&e_ns, &g_ns));
    put(&mut m, "cluster.solo_us_p50", p50_us(&c_ns));
    put(&mut m, "cluster.worker_compute_us_p50", p50_us(&worker_ns));
    put(&mut m, "cluster.added_us_p50", added_p50_us(&c_ns, &s_ns));
    put(&mut m, "cluster.retries", retries as f64);
    put(&mut m, "cluster.hedges", hedges as f64);
    put(&mut m, "cluster.moved_redirects", moved as f64);
    let below = match door {
        Door::Cluster => &c_ns,
        Door::TopKWithWriter => &v_ns,
        _ => &e_ns,
    };
    let solo_p50 = p50_us(&d_ns);
    put(&mut m, "server.solo_us_p50", solo_p50);
    put(&mut m, "server.added_us_p50", added_p50_us(&d_ns, below));

    // ---- what tracing costs: the front door again, four passes ---------
    // In each pass every other query is traced and the rest are not, and
    // the two halves swap from pass to pass, so that both kinds of call
    // meet every stretch of the machine's speed equally.
    let (mut untraced_ns, mut traced_ns) = (Vec::new(), Vec::new());
    for round in 0..4u32 {
        for qi in 0..lq {
            if (qi + round) % 2 == 0 {
                let (answer, ns) = tracer.timed("server.front_door", qi, NO_PARENT, || {
                    solo.send(qi as usize)
                });
                black_box(answer);
                traced_ns.push(ns);
            } else {
                untraced_ns.push(solo.send(qi as usize).1.as_nanos() as u64);
            }
        }
    }
    put(
        &mut m,
        "harness.trace_overhead_pct",
        (p50_us(&traced_ns) - p50_us(&untraced_ns)) / p50_us(&untraced_ns).max(1e-9) * 100.0,
    );
    // The added times along the door's own chain against its solo p50.
    let get = |name: &str| m.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
    let mut chain = get("kernels.batch_us_p50")
        + get("hnsw.added_us_p50")
        + get("segment.added_us_p50")
        + get("server.added_us_p50");
    chain += match door {
        Door::Cluster => get("cluster.added_us_p50"),
        Door::TopKWithWriter => get("service.added_us_p50"),
        _ => get("service.added_us_p50") + get("graph.added_us_p50") + get("gsql.added_us_p50"),
    };
    put(
        &mut m,
        "harness.ladder_residual_pct",
        (chain - solo_p50) / solo_p50.max(1e-9) * 100.0,
    );

    // ---- planner and gsql, per filtered class --------------------------
    let cq = shape.class_queries;
    let mut routed = SearchStats::default();
    let mut filtered_searches = 0u64;
    for (c, class_name) in CLASS_NAMES.iter().enumerate() {
        let (mut class_dists, mut class_rows) = (0u64, 0u64);
        let (mut class_ns, mut search_ns) = (Vec::new(), Vec::new());
        for j in 0..cq {
            let qi = j * 4 + c;
            let (class, text) = filtered_class(c, qi);
            let q = inputs.query(qi);
            let set = admitted_set(mirror, rig.schema.doc, class);
            let expected = K.min(set.len());
            let (found, ns) = tracer.timed("graph.filtered_search", qi as u32, NO_PARENT, || {
                graph.vector_search(&[a], q, K, EF, Some(&set), tid)
            });
            let (hits, st) = ctx(found, "filtered vector_search")?;
            search_ns.push(ns);
            class_dists += st.distance_computations;
            class_rows += hits.len() as u64;
            routed.merge(&st);
            filtered_searches += 1;

            let params = params_for(inputs, qi, class);
            let (out, ns) = tracer.timed("gsql.class_query", qi as u32, NO_PARENT, || {
                rig.server.query(&rig.session, text, &params)
            });
            class_ns.push(ns);
            attempted += 1;
            let rows = out.ok().as_ref().map(rows_of);
            if !rows.is_some_and(|r| answer_ok(&r, expected, class, Some(mirror))) {
                failed += 1;
            }
        }
        put(
            &mut m,
            &format!("planner.dists_per_result.{class_name}"),
            class_dists as f64 / class_rows.max(1) as f64,
        );
        put(
            &mut m,
            &format!("graph.filtered_search_us_p50.{class_name}"),
            p50_us(&search_ns),
        );
        put(
            &mut m,
            &format!("gsql.class_us_p50.{class_name}"),
            p50_us(&class_ns),
        );
    }
    let plans = routed.plans_total().max(1) as f64;
    put(
        &mut m,
        "planner.brute_share",
        routed.plans_brute as f64 / plans,
    );
    put(
        &mut m,
        "planner.in_traversal_share",
        routed.plans_in_traversal as f64 / plans,
    );
    put(
        &mut m,
        "planner.post_filter_share",
        routed.plans_post_filter as f64 / plans,
    );
    let searches = filtered_searches.max(1) as f64;
    put(
        &mut m,
        "planner.ef_escalations_per_query",
        routed.ef_escalations as f64 / searches,
    );
    put(
        &mut m,
        "planner.brute_fallbacks_per_query",
        routed.brute_fallbacks as f64 / searches,
    );

    // ---- graph: the pre-filter → bitmap hand-off -----------------------
    let set10 = admitted_set(mirror, rig.schema.doc, Class::BucketBelow(10));
    let mut f_ns = Vec::new();
    for j in 0..cq {
        let (r, ns) = tracer.timed("graph.segment_filters", j as u32, NO_PARENT, || {
            graph.segment_filters(&[a], &set10)
        });
        ctx(r, "graph.segment_filters")?;
        f_ns.push(ns);
    }
    put(&mut m, "graph.segment_filters_us_p50", p50_us(&f_ns));
    put(&mut m, "harness.ladder_queries", f64::from(lq));
    put(
        &mut m,
        "harness.pass_self_pct",
        tracer.pass_self_share() * 100.0,
    );
    Ok(LadderOut {
        metrics: m,
        attempted,
        failed,
    })
}
