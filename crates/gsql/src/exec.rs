//! Query execution.
//!
//! Execution follows the paper's plans bottom-up: per-node predicates run as
//! `VertexAction`s producing candidate sets (pre-filter, §5.2), pattern
//! edges are evaluated as semi-join chain expansions (§5.3), and the final
//! vector operation runs as an `EmbeddingAction` over the candidate bitmaps
//! (§5.1). Similarity joins enumerate matched paths and keep the global
//! top-k pairs in a heap accumulator with brute-force distances (§5.4).

use crate::ast::{Expr, Value};
use crate::parser::parse;
use crate::pred::{constant, NodeFilter};
use crate::sema::{pushdown_predicates, resolve, QueryKind, Resolved};
use std::collections::{BTreeSet, HashMap};
use tg_graph::accum::PairHeapAccum;
use tg_graph::{AccessControl, Direction, Graph, VertexSet};
use tg_storage::AttrValue;
use tv_common::metric::distance;
use tv_common::{Deadline, Tid, TvError, TvResult, VertexId};
use tv_hnsw::SearchStats;

/// Named parameter bindings (`$qv`, `$k`, ...).
pub type Params = HashMap<String, Value>;

/// One result vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Vertex type id.
    pub vertex_type: u32,
    /// Vertex id.
    pub id: VertexId,
    /// Distance to the query (vector queries only).
    pub dist: Option<f32>,
}

/// Query output.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Vertex results (ordered by distance for vector queries).
    Vertices(Vec<ResultRow>),
    /// Similarity-join pairs, nearest first.
    Pairs(Vec<(ResultRow, ResultRow, f32)>),
}

impl QueryOutput {
    /// Vertex rows (panics on pair output — test convenience).
    #[must_use]
    pub fn rows(&self) -> &[ResultRow] {
        match self {
            QueryOutput::Vertices(v) => v,
            QueryOutput::Pairs(_) => panic!("pair output"),
        }
    }
}

/// Parse, resolve, and execute `src` at the latest committed snapshot.
pub fn execute(graph: &Graph, src: &str, params: &Params) -> TvResult<QueryOutput> {
    execute_at(graph, src, params, graph.read_tid())
}

/// Parse, resolve, and execute `src` at a pinned TID.
pub fn execute_at(graph: &Graph, src: &str, params: &Params, tid: Tid) -> TvResult<QueryOutput> {
    let query = parse(src)?;
    let resolved = resolve(graph, query)?;
    run(graph, &resolved, params, tid)
}

/// Parse, resolve, and execute `src` **as a user** at the latest committed
/// snapshot, with no deadline: the access-control tests' shorthand for
/// [`execute_at_as_stats`].
#[cfg(test)]
pub(crate) fn execute_as(
    graph: &Graph,
    acl: &AccessControl,
    user: &str,
    src: &str,
    params: &Params,
) -> TvResult<QueryOutput> {
    let mut stats = SearchStats::default();
    let (tid, deadline) = (graph.read_tid(), Deadline::none());
    execute_at_as_stats(graph, acl, user, src, params, tid, deadline, &mut stats)
}

/// Parse, resolve, and execute `src` as a user at a pinned TID with a
/// deadline — the serving layer's entry point.
///
/// Access control is the paper's single-surface model (§1): every vertex
/// type in the pattern needs a grant (rejected with
/// [`TvError::PermissionDenied`] before anything is scanned), and a
/// row-restricted grant's rules are one more term of that node's candidate
/// scan — every node, every query kind — so row security and deletions
/// ride the same validity mask (§5.1). The deadline is threaded down to the
/// per-segment searches and the join's path walk, and the vector-search
/// statistics (planner routing counters included) are merged into `stats`,
/// which feeds the per-tenant plan metrics.
#[allow(clippy::too_many_arguments)]
pub fn execute_at_as_stats(
    graph: &Graph,
    acl: &AccessControl,
    user: &str,
    src: &str,
    params: &Params,
    tid: Tid,
    deadline: Deadline,
    stats: &mut SearchStats,
) -> TvResult<QueryOutput> {
    let mut resolved = resolve(graph, parse(src)?)?;
    resolved.row_rules = acl.row_rules(user, &resolved.node_types)?;
    run_opts_stats(graph, &resolved, params, tid, deadline, stats)
}

/// The rows of the types `attr_ids` embed that `user` may read at `tid`, as
/// a direct vector search's candidate set: `None` when every type's grant is
/// unrestricted. A restricted type contributes the rows its rules pass, in
/// the same block scan a pattern node's rules run in; an unrestricted one
/// all its live rows. Rejects with [`TvError::PermissionDenied`] when a
/// type has no grant.
pub fn readable_rows(
    graph: &Graph,
    acl: &AccessControl,
    user: &str,
    attr_ids: &[u32],
    tid: Tid,
) -> TvResult<Option<VertexSet>> {
    let types = attr_ids
        .iter()
        .map(|&attr_id| Ok(graph.embeddings().attr(attr_id)?.vertex_type))
        .collect::<TvResult<Vec<u32>>>()?;
    let rules = acl.row_rules(user, &types)?;
    if rules.iter().all(Option::is_none) {
        return Ok(None);
    }
    let mut rows = VertexSet::default();
    for (&type_id, rules) in types.iter().zip(&rules) {
        let store = graph.store().vertex_type(type_id)?;
        let filter = NodeFilter::compile(&[], store.schema(), &Params::new())?;
        let filter = filter.with_rules(rules.as_deref(), store.schema());
        rows = rows.union(
            &graph.scan_vertices(type_id, tid, None, |mask, block| filter.eval(mask, block))?,
        );
    }
    Ok(Some(rows))
}

/// Execute an already-resolved query with no deadline.
pub(crate) fn run(graph: &Graph, r: &Resolved, params: &Params, tid: Tid) -> TvResult<QueryOutput> {
    let mut stats = SearchStats::default();
    run_opts_stats(graph, r, params, tid, Deadline::none(), &mut stats)
}

/// Execute an already-resolved query under a deadline. The vector-search
/// statistics are merged into `stats` — including the filtered-search
/// planner's routing counters (`plans_brute` / `plans_in_traversal` /
/// `plans_post_filter`, `ef_escalations`, `brute_fallbacks`), so callers
/// can see *how* each query was executed. Graph-only and join queries leave
/// `stats` untouched.
fn run_opts_stats(
    graph: &Graph,
    r: &Resolved,
    params: &Params,
    tid: Tid,
    deadline: Deadline,
    stats: &mut SearchStats,
) -> TvResult<QueryOutput> {
    deadline.check("query admission")?;
    match r.kind {
        QueryKind::TopK => run_topk(graph, r, params, tid, deadline, stats),
        QueryKind::Range => run_range(graph, r, params, tid, deadline, stats),
        QueryKind::SimilarityJoin => run_join(graph, r, params, tid, deadline),
        QueryKind::GraphOnly => run_graph_only(graph, r, params, tid),
    }
}

fn limit_of(r: &Resolved, params: &Params) -> TvResult<usize> {
    match &r.query.limit {
        Some(expr) => match constant(expr, params)? {
            Value::Int(n) if *n >= 0 => Ok(*n as usize),
            other => Err(TvError::Execution(format!("bad LIMIT {other:?}"))),
        },
        None => Ok(usize::MAX),
    }
}

fn query_vector<'p>(r: &Resolved, params: &'p Params) -> TvResult<&'p [f32]> {
    // For range search the VECTOR_DIST was stripped into range_threshold, so
    // order_by is None and the param side is recovered from the WHERE clause
    // in the fallback arm below.
    let vd = r.query.order_by.as_ref().map(|vd| (&vd.lhs, &vd.rhs));
    let param_name = match vd {
        Some((crate::ast::VecRef::Param(p), _)) | Some((_, crate::ast::VecRef::Param(p))) => {
            p.clone()
        }
        _ => {
            // Range path: find the parameter inside the original where clause.
            find_range_param(r)
                .ok_or_else(|| TvError::Execution("query vector parameter not found".into()))?
        }
    };
    params
        .get(&param_name)
        .and_then(Value::as_vector)
        .ok_or_else(|| TvError::Execution(format!("parameter '${param_name}' must be a vector")))
}

fn find_range_param(r: &Resolved) -> Option<String> {
    fn walk(e: &Expr) -> Option<String> {
        match e {
            Expr::VectorDist(vd) => match (&vd.lhs, &vd.rhs) {
                (crate::ast::VecRef::Param(p), _) | (_, crate::ast::VecRef::Param(p)) => {
                    Some(p.clone())
                }
                _ => None,
            },
            Expr::Cmp(l, _, rr) | Expr::And(l, rr) | Expr::Or(l, rr) => {
                walk(l).or_else(|| walk(rr))
            }
            Expr::Not(inner) => walk(inner),
            _ => None,
        }
    }
    r.query.where_clause.as_ref().and_then(walk)
}

/// Candidate sets per pattern node via predicate pushdown + semi-join chain
/// expansion. Returns `None` for a node when it is unconstrained (single-
/// node pattern with no predicate — the pure-search fast path that reuses
/// the engine's liveness status instead of materializing a bitmap, §5.1).
///
/// Each node's predicates are compiled once, before any scan, so a bad
/// parameter is an error rather than an empty result; the sets stay in
/// bitmap form from the scan to the index hand-off.
fn node_candidates(
    graph: &Graph,
    r: &Resolved,
    params: &Params,
    tid: Tid,
) -> TvResult<Vec<Option<VertexSet>>> {
    let n = r.query.pattern.nodes.len();
    let (per_node, residual) = pushdown_predicates(r.graph_filter.as_ref(), &r.alias_of, n);
    if !residual.is_empty() && r.kind != QueryKind::SimilarityJoin {
        return Err(TvError::Execution(
            "cross-alias predicates are only supported in similarity joins".into(),
        ));
    }

    // Fast path: single unconstrained node the reader may read whole.
    if n == 1 && per_node[0].is_empty() && r.row_rules[0].is_none() {
        return Ok(vec![None]);
    }

    let filters = per_node
        .iter()
        .zip(&r.node_types)
        .zip(&r.row_rules)
        .map(|((terms, &type_id), rules)| {
            let store = graph.store().vertex_type(type_id)?;
            let filter = NodeFilter::compile(terms, store.schema(), params)?;
            Ok(filter.with_rules(rules.as_deref(), store.schema()))
        })
        .collect::<TvResult<Vec<_>>>()?;
    let passes = |node: usize| {
        let filter = &filters[node];
        move |mask: u64, rows: &[AttrValue]| filter.eval(mask, rows)
    };

    let mut sets: Vec<Option<VertexSet>> = vec![None; n];
    // Node 0: all vertices of the type passing its predicates (VertexAction).
    sets[0] = Some(graph.scan_vertices(r.node_types[0], tid, None, passes(0))?);

    for (i, edge) in r.edges.iter().enumerate() {
        let left = sets[i].as_ref().expect("left set materialized");
        let right_type = r.node_types[i + 1];
        let right = if edge.forward {
            // Left is the stored source: expand its out-edges, then keep the
            // targets that are live and pass the right node's predicates.
            let targets = graph.expand(left, edge.etype, Direction::Out, None, tid)?;
            graph.scan_vertices(right_type, tid, Some(&targets), passes(i + 1))?
        } else {
            // Right is the stored source: of its candidates, keep those with
            // an out-edge into the left set.
            let candidates = graph.scan_vertices(right_type, tid, None, passes(i + 1))?;
            graph.expand(left, edge.etype, Direction::In, Some(&candidates), tid)?
        };
        sets[i + 1] = Some(right);
    }
    Ok(sets)
}

/// The candidate sets of the pattern's nodes, each `None` when
/// unconstrained. The forward pass of [`node_candidates`] narrows each node
/// by the nodes before it only; this walks back from the last node to
/// `node`, keeping each vertex with an edge, in the pattern's direction,
/// into the next node's set. From `node` on, every member lies on a whole
/// path of the pattern.
fn pattern_sets(
    graph: &Graph,
    r: &Resolved,
    params: &Params,
    tid: Tid,
    node: usize,
) -> TvResult<Vec<Option<VertexSet>>> {
    let mut sets = node_candidates(graph, r, params, tid)?;
    for (i, edge) in r.edges.iter().enumerate().skip(node).rev() {
        let here = sets[i].as_ref().expect("pattern sets materialized");
        let next = sets[i + 1].as_ref().expect("pattern sets materialized");
        let back = if edge.forward {
            Direction::In
        } else {
            Direction::Out
        };
        sets[i] = Some(graph.expand(next, edge.etype, back, Some(here), tid)?);
    }
    Ok(sets)
}

/// The candidate set of pattern node `node` from [`pattern_sets`].
fn candidates_of(
    graph: &Graph,
    r: &Resolved,
    params: &Params,
    tid: Tid,
    node: usize,
) -> TvResult<Option<VertexSet>> {
    Ok(pattern_sets(graph, r, params, tid, node)?.swap_remove(node))
}

fn run_topk(
    graph: &Graph,
    r: &Resolved,
    params: &Params,
    tid: Tid,
    deadline: Deadline,
    stats: &mut SearchStats,
) -> TvResult<QueryOutput> {
    let (target_node, attr_id) = r.target.expect("topk target");
    let k = limit_of(r, params)?;
    let qv = query_vector(r, params)?;
    let filter_set = candidates_of(graph, r, params, tid, target_node)?;
    // Early out: a filtered search whose candidate set is empty.
    if let Some(fs) = &filter_set {
        if fs.is_empty() {
            return Ok(QueryOutput::Vertices(Vec::new()));
        }
    }
    let ef = graph.embeddings().config().default_ef.max(k);
    let hits = graph.vector_search_deadline(
        &[attr_id],
        qv,
        k,
        ef,
        filter_set.as_ref(),
        tid,
        deadline,
        stats,
    )?;
    Ok(QueryOutput::Vertices(
        hits.into_iter()
            .map(|tn| ResultRow {
                vertex_type: tn.vertex_type,
                id: tn.neighbor.id,
                dist: Some(tn.neighbor.dist),
            })
            .collect(),
    ))
}

fn run_range(
    graph: &Graph,
    r: &Resolved,
    params: &Params,
    tid: Tid,
    deadline: Deadline,
    stats: &mut SearchStats,
) -> TvResult<QueryOutput> {
    let (target_node, attr_id) = r.target.expect("range target");
    let threshold = constant(r.range_threshold.as_ref().expect("threshold"), params)?
        .as_f64()
        .ok_or_else(|| TvError::Execution("range threshold must be numeric".into()))?;
    let k = limit_of(r, params)?;
    let qv = query_vector(r, params)?;
    let filter_set = candidates_of(graph, r, params, tid, target_node)?;
    if let Some(fs) = &filter_set {
        if fs.is_empty() {
            return Ok(QueryOutput::Vertices(Vec::new()));
        }
    }
    let ef = graph.embeddings().config().default_ef;
    let mut hits = graph.vector_range_search(
        &[attr_id],
        qv,
        threshold as f32,
        ef,
        filter_set.as_ref(),
        tid,
        deadline,
        stats,
    )?;
    // Nearest first: `LIMIT` keeps the nearest rows within the radius.
    hits.truncate(k);
    Ok(QueryOutput::Vertices(
        hits.into_iter()
            .map(|tn| ResultRow {
                vertex_type: tn.vertex_type,
                id: tn.neighbor.id,
                dist: Some(tn.neighbor.dist),
            })
            .collect(),
    ))
}

fn run_graph_only(graph: &Graph, r: &Resolved, params: &Params, tid: Tid) -> TvResult<QueryOutput> {
    let node = r.alias_of[&r.query.select[0]];
    let type_id = r.node_types[node];
    let k = limit_of(r, params)?;
    let set = match candidates_of(graph, r, params, tid, node)? {
        Some(set) => set,
        None => graph.all_vertices(type_id, tid)?,
    };
    Ok(QueryOutput::Vertices(
        set.iter()
            .filter(|&(t, _)| t == type_id)
            .take(k)
            .map(|(_, id)| ResultRow {
                vertex_type: type_id,
                id,
                dist: None,
            })
            .collect(),
    ))
}

fn run_join(
    graph: &Graph,
    r: &Resolved,
    params: &Params,
    tid: Tid,
    deadline: Deadline,
) -> TvResult<QueryOutput> {
    let ((s_node, s_attr), (t_node, t_attr)) = r.join.expect("join endpoints");
    let k = limit_of(r, params)?;
    // Every member of a node's set from `lo` on lies on a whole path, so the
    // pairs are the ends of the paths from node `lo` to node `hi`, walked
    // over each hop's edges, expanded once per query. Matched paths are
    // typically sparse (§5.4), so brute force over pairs is the paper's
    // choice too.
    let (lo, hi) = (s_node.min(t_node), s_node.max(t_node));
    let sets: Vec<VertexSet> = pattern_sets(graph, r, params, tid, lo)?
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();
    let mut hops = Vec::with_capacity(hi - lo);
    for i in lo..hi {
        let edge = r.edges[i];
        let direction = if edge.forward {
            Direction::Out
        } else {
            Direction::In
        };
        let mut next_of: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        let within = Some(&sets[i + 1]);
        for (from, to) in graph.expand_edges(&sets[i], edge.etype, direction, within, tid)? {
            next_of.entry(from).or_default().push(to);
        }
        hops.push(next_of);
    }

    let same_type = r.node_types[s_node] == r.node_types[t_node];
    let mut pairs = BTreeSet::new();
    for start in sets[lo].of_type(r.node_types[lo]) {
        deadline.check("similarity join path walk")?;
        let mut reached = vec![start];
        for next_of in &hops {
            reached = reached
                .iter()
                .filter_map(|v| next_of.get(v))
                .flatten()
                .copied()
                .collect();
            reached.sort_unstable();
            reached.dedup();
        }
        for end in reached {
            let (mut s, mut t) = if s_node == lo {
                (start, end)
            } else {
                (end, start)
            };
            // Symmetric patterns match every pair in both orders; canonicalize
            // same-type pairs so (a, b) and (b, a) count once.
            if same_type && t < s {
                std::mem::swap(&mut s, &mut t);
            }
            // A vertex is trivially closest to itself.
            if s != t {
                pairs.insert((s, t));
            }
        }
    }

    // Each distinct endpoint's vector, read once; the global top-k in a heap
    // accumulator.
    let ends: BTreeSet<(u32, VertexId)> = pairs
        .iter()
        .flat_map(|&(s, t)| [(s_attr, s), (t_attr, t)])
        .collect();
    let vectors = ends
        .into_iter()
        .map(|(attr, v)| Ok(((attr, v), graph.embedding_of(attr, v, tid)?)))
        .collect::<TvResult<HashMap<_, _>>>()?;
    let metric = graph.embeddings().attr(s_attr)?.def.metric;
    let mut heap = PairHeapAccum::new(k);
    for (s, t) in pairs {
        if let (Some(sv), Some(tv)) = (&vectors[&(s_attr, s)], &vectors[&(t_attr, t)]) {
            heap.add(s, t, distance(metric, sv, tv));
        }
    }
    let row = |node: usize, id: VertexId| ResultRow {
        vertex_type: r.node_types[node],
        id,
        dist: None,
    };
    Ok(QueryOutput::Pairs(
        heap.into_sorted()
            .into_iter()
            .map(|(s, t, d)| (row(s_node, s), row(t_node, t), d))
            .collect(),
    ))
}

#[cfg(test)]
mod block_identity;
#[cfg(test)]
mod candidate_identity;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tg_storage::AttrType;
    use tv_common::ids::SegmentLayout;
    use tv_common::{DistanceMetric, SplitMix64};
    use tv_embedding::{EmbeddingTypeDef, ServiceConfig};

    /// LDBC-flavoured fixture: people who know each other, posts/comments
    /// with embeddings and creators.
    struct Fixture {
        graph: Graph,
        people: Vec<VertexId>,
        posts: Vec<VertexId>,
        post_vecs: Vec<Vec<f32>>,
    }

    fn fixture() -> Fixture {
        let graph = Graph::with_config(
            SegmentLayout::with_capacity(8),
            ServiceConfig {
                planner: tv_common::PlannerConfig::default().with_brute_threshold(2),
                query_threads: 1,
                default_ef: 64,
            },
        );
        graph
            .create_vertex_type("Person", &[("firstName", AttrType::Str)])
            .unwrap();
        graph
            .create_vertex_type(
                "Post",
                &[("language", AttrType::Str), ("length", AttrType::Int)],
            )
            .unwrap();
        graph.create_edge_type("knows", "Person", "Person").unwrap();
        graph
            .create_edge_type("hasCreator", "Post", "Person")
            .unwrap();
        graph
            .add_embedding_attribute(
                "Post",
                EmbeddingTypeDef::new("content_emb", 4, "GPT4", DistanceMetric::L2),
            )
            .unwrap();

        let person = 0u32;
        let post = 1u32;
        let knows = 0u32;
        let has_creator = 1u32;
        let emb = 0u32;

        let people = graph.allocate_many(person, 4).unwrap();
        let posts = graph.allocate_many(post, 12).unwrap();
        let names = ["Alice", "Bob", "Carol", "Dave"];
        let mut txn = graph.txn();
        for (i, &p) in people.iter().enumerate() {
            txn = txn.upsert_vertex(person, p, vec![AttrValue::Str(names[i].into())]);
        }
        // Alice knows Bob and Carol; Bob knows Dave.
        txn = txn
            .add_edge(knows, person, people[0], people[1])
            .add_edge(knows, person, people[0], people[2])
            .add_edge(knows, person, people[1], people[3]);
        let mut rng = SplitMix64::new(42);
        let mut post_vecs = Vec::new();
        for (i, &m) in posts.iter().enumerate() {
            let v: Vec<f32> = (0..4).map(|_| rng.next_f32() * 10.0).collect();
            let lang = if i % 2 == 0 { "English" } else { "Spanish" };
            let creator = people[i % 4];
            txn = txn
                .upsert_vertex(
                    post,
                    m,
                    vec![
                        AttrValue::Str(lang.into()),
                        AttrValue::Int((i * 250) as i64),
                    ],
                )
                .set_vector(emb, m, v.clone())
                .add_edge(has_creator, post, m, creator);
            post_vecs.push(v);
        }
        txn.commit().unwrap();
        Fixture {
            graph,
            people,
            posts,
            post_vecs,
        }
    }

    fn params_with_vec(qv: &[f32]) -> Params {
        let mut p = Params::new();
        p.insert("qv".into(), Value::Vector(qv.to_vec()));
        p
    }

    #[test]
    fn pure_topk() {
        let f = fixture();
        let out = execute(
            &f.graph,
            "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 3",
            &params_with_vec(&f.post_vecs[7]),
        )
        .unwrap();
        let rows = out.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].id, f.posts[7]);
        assert!(rows[0].dist.unwrap() < 1e-6);
        assert!(rows.windows(2).all(|w| w[0].dist <= w[1].dist));
    }

    #[test]
    fn filtered_topk_respects_predicate() {
        let f = fixture();
        // Nearest overall is post 7 (Spanish); filtered to English it can't
        // appear.
        let out = execute(
            &f.graph,
            "SELECT s FROM (s:Post) WHERE s.language = \"English\" \
             ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 6",
            &params_with_vec(&f.post_vecs[7]),
        )
        .unwrap();
        let rows = out.rows();
        assert_eq!(rows.len(), 6); // exactly the English posts
        assert!(rows.iter().all(|r| r.id.0 % 2 == f.posts[0].0 % 2));
        assert!(!rows.iter().any(|r| r.id == f.posts[7]));
    }

    #[test]
    fn range_search_with_filter() {
        let f = fixture();
        let out = execute(
            &f.graph,
            "SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, $qv) < 1e9",
            &params_with_vec(&f.post_vecs[0]),
        )
        .unwrap();
        assert_eq!(out.rows().len(), 12); // everything within a huge radius
        let out = execute(
            &f.graph,
            "SELECT s FROM (s:Post) WHERE s.language = \"Spanish\" AND \
             VECTOR_DIST(s.content_emb, $qv) < 1e9",
            &params_with_vec(&f.post_vecs[0]),
        )
        .unwrap();
        assert_eq!(out.rows().len(), 6);
        // `LIMIT` keeps the nearest rows within the radius.
        let all = execute(
            &f.graph,
            "SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, $qv) < 1000000",
            &params_with_vec(&f.post_vecs[0]),
        )
        .unwrap();
        let out = execute(
            &f.graph,
            "SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, $qv) < 1000000 LIMIT 2",
            &params_with_vec(&f.post_vecs[0]),
        )
        .unwrap();
        assert_eq!(out.rows(), &all.rows()[..2]);
        assert_eq!(out.rows()[0].id, f.posts[0]);
    }

    #[test]
    fn pattern_topk_alice_posts() {
        let f = fixture();
        // Posts created by people Alice knows (Bob=idx1, Carol=idx2):
        // posts with i % 4 ∈ {1, 2}.
        let out = execute(
            &f.graph,
            "SELECT t FROM (s:Person) -[:knows]-> (:Person) <-[:hasCreator]- (t:Post) \
             WHERE s.firstName = \"Alice\" \
             ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 12",
            &params_with_vec(&f.post_vecs[0]),
        )
        .unwrap();
        let rows = out.rows();
        assert_eq!(rows.len(), 6);
        for r in rows {
            let idx = f.posts.iter().position(|&p| p == r.id).unwrap();
            assert!(
                idx % 4 == 1 || idx % 4 == 2,
                "post {idx} not by Alice's friends"
            );
        }
    }

    #[test]
    fn pattern_with_attribute_filter_on_target() {
        let f = fixture();
        let out = execute(
            &f.graph,
            "SELECT t FROM (s:Person) -[:knows]-> (:Person) <-[:hasCreator]- (t:Post) \
             WHERE s.firstName = \"Alice\" AND t.length > 1000 \
             ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 12",
            &params_with_vec(&f.post_vecs[0]),
        )
        .unwrap();
        for r in out.rows() {
            let idx = f.posts.iter().position(|&p| p == r.id).unwrap();
            assert!(idx * 250 > 1000);
        }
    }

    #[test]
    fn empty_candidate_set_returns_nothing() {
        let f = fixture();
        let out = execute(
            &f.graph,
            "SELECT t FROM (s:Person) -[:knows]-> (:Person) <-[:hasCreator]- (t:Post) \
             WHERE s.firstName = \"Nobody\" \
             ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 5",
            &params_with_vec(&f.post_vecs[0]),
        )
        .unwrap();
        assert!(out.rows().is_empty());
    }

    #[test]
    fn similarity_join_pairs() {
        let f = fixture();
        // Pairs of posts created by Alice's direct friends... use a 3-hop:
        // (s:Post) -[:hasCreator]-> (u) <-[:knows]- (a) ... keep it simple:
        // posts whose creators know each other.
        let out = execute(
            &f.graph,
            "SELECT s, t FROM (s:Post) -[:hasCreator]-> (u:Person) \
             -[:knows]-> (v:Person) <-[:hasCreator]- (t:Post) \
             ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 4",
            &Params::new(),
        )
        .unwrap();
        match out {
            QueryOutput::Pairs(pairs) => {
                assert_eq!(pairs.len(), 4);
                assert!(pairs.windows(2).all(|w| w[0].2 <= w[1].2));
                // Every pair's creators must be connected by knows.
                for (s, t, _) in &pairs {
                    let si = f.posts.iter().position(|&p| p == s.id).unwrap();
                    let ti = f.posts.iter().position(|&p| p == t.id).unwrap();
                    let s_creator = si % 4;
                    let t_creator = ti % 4;
                    // Pairs are canonicalized by vertex id, so accept the
                    // knows edge in either direction.
                    let knows_pairs = [(0, 1), (0, 2), (1, 3)];
                    assert!(
                        knows_pairs.contains(&(s_creator, t_creator))
                            || knows_pairs.contains(&(t_creator, s_creator)),
                        "creators {s_creator}->{t_creator} not connected"
                    );
                }
            }
            other => panic!("expected pairs, got {other:?}"),
        }
    }

    const SAME_CREATOR_JOIN: &str =
        "SELECT s, t FROM (s:Post) -[:hasCreator]-> (u:Person) <-[:hasCreator]- (t:Post) \
         ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT";

    /// A client's `k` is what it asks for, not what is reserved: a huge
    /// `LIMIT` answers every row there is.
    #[test]
    fn a_huge_limit_answers_every_row() {
        let f = fixture();
        let p = params_with_vec(&f.post_vecs[0]);
        for k in ["1000000000000", "1000000000000000000"] {
            let src = format!(
                "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT {k}"
            );
            assert_eq!(execute(&f.graph, &src, &p).unwrap().rows().len(), 12, "{k}");
            let src = format!("{SAME_CREATOR_JOIN} {k}");
            let QueryOutput::Pairs(pairs) = execute(&f.graph, &src, &p).unwrap() else {
                panic!("a join returns pairs")
            };
            // Four creators of three posts each: three pairs apiece.
            assert_eq!(pairs.len(), 12, "{k}");
        }
    }

    /// Six posts by one person with one vector: every pair among them ties
    /// at distance 0, and the answer is the smallest (s, t) pairs, however
    /// often it is asked.
    #[test]
    fn tied_join_pairs_break_by_ids() {
        let f = fixture();
        let eve = f.graph.allocate(0).unwrap();
        let posts = f.graph.allocate_many(1, 6).unwrap();
        let mut txn = f
            .graph
            .txn()
            .upsert_vertex(0, eve, vec![AttrValue::Str("Eve".into())]);
        for &m in &posts {
            let row = vec![AttrValue::Str("English".into()), AttrValue::Int(1)];
            txn = txn
                .upsert_vertex(1, m, row)
                .set_vector(0, m, vec![100.0; 4])
                .add_edge(1, 1, m, eve);
        }
        txn.commit().unwrap();
        let tid = f.graph.read_tid();
        let src = format!("{SAME_CREATOR_JOIN} 3");
        let want = vec![
            (posts[0], posts[1], 0.0),
            (posts[0], posts[2], 0.0),
            (posts[0], posts[3], 0.0),
        ];
        for _ in 0..20 {
            let QueryOutput::Pairs(pairs) =
                execute_at(&f.graph, &src, &Params::new(), tid).unwrap()
            else {
                panic!("a join returns pairs")
            };
            let got: Vec<_> = pairs.iter().map(|(s, t, d)| (s.id, t.id, *d)).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn graph_only_query() {
        let f = fixture();
        let out = execute(
            &f.graph,
            "SELECT s FROM (s:Person) WHERE s.firstName = \"Bob\"",
            &Params::new(),
        )
        .unwrap();
        assert_eq!(out.rows().len(), 1);
        assert_eq!(out.rows()[0].id, f.people[1]);
        assert_eq!(out.rows()[0].dist, None);
    }

    #[test]
    fn unbound_parameter_is_execution_error() {
        let f = fixture();
        let err = execute(
            &f.graph,
            "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $missing) LIMIT 1",
            &Params::new(),
        )
        .unwrap_err();
        assert!(matches!(err, TvError::Execution(_)));
    }

    /// A bad parameter in a pushed-down predicate used to make every row
    /// "not match" and the query return `Ok` with no rows.
    #[test]
    fn bad_parameter_in_a_predicate_is_an_error_not_an_empty_result() {
        let f = fixture();
        let mut p = params_with_vec(&f.post_vecs[0]);
        p.insert("name".into(), Value::Str("Alice".into()));
        let err_of = |src: &str| match execute(&f.graph, src, &p).unwrap_err() {
            TvError::Execution(msg) => msg,
            other => panic!("{src}: expected an execution error, got {other:?}"),
        };
        for src in [
            "SELECT s FROM (s:Post) WHERE s.length < $missing \
             ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 3",
            "SELECT s FROM (s:Post) WHERE s.length < $missing",
            // On the far side of a hop, behind OR, and when no row is scanned.
            "SELECT t FROM (s:Person) <-[:hasCreator]- (t:Post) \
             WHERE s.firstName = $name AND (t.length > 0 OR t.length < $missing)",
            "SELECT t FROM (s:Person) <-[:hasCreator]- (t:Post) \
             WHERE s.firstName = \"Nobody\" AND t.length < $missing",
        ] {
            let msg = err_of(src);
            assert!(msg.contains("unbound parameter '$missing'"), "{src}: {msg}");
        }
        let msg = err_of(
            "SELECT s FROM (s:Post) WHERE s.length < $qv \
             ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 3",
        );
        assert!(msg.contains("vector"), "{msg}");
        // The same parameters bound properly: rows again.
        p.insert("missing".into(), Value::Int(1000));
        let out = execute(
            &f.graph,
            "SELECT s FROM (s:Post) WHERE s.length < $missing",
            &p,
        );
        assert_eq!(out.unwrap().rows().len(), 4);
    }

    #[test]
    fn param_limit_binds() {
        let f = fixture();
        let mut p = params_with_vec(&f.post_vecs[0]);
        p.insert("k".into(), Value::Int(2));
        let out = execute(
            &f.graph,
            "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT $k",
            &p,
        )
        .unwrap();
        assert_eq!(out.rows().len(), 2);
    }

    #[test]
    fn execute_as_enforces_type_grants() {
        use tg_graph::Role;
        let f = fixture();
        let acl = AccessControl::new();
        acl.define_role("reader", Role::default().allow_type(1)); // Post only
        acl.assign("tenant-a", "reader").unwrap();
        // Pure vector search on Post: allowed.
        let out = execute_as(
            &f.graph,
            &acl,
            "tenant-a",
            "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2",
            &params_with_vec(&f.post_vecs[0]),
        )
        .unwrap();
        assert_eq!(out.rows().len(), 2);
        // A pattern touching Person is denied — the grant covers Post only.
        let err = execute_as(
            &f.graph,
            &acl,
            "tenant-a",
            "SELECT t FROM (s:Person) -[:knows]-> (:Person) <-[:hasCreator]- (t:Post) \
             ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 2",
            &params_with_vec(&f.post_vecs[0]),
        )
        .unwrap_err();
        assert!(matches!(err, TvError::PermissionDenied(_)));
        // An unknown user is denied outright.
        let err = execute_as(
            &f.graph,
            &acl,
            "nobody",
            "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2",
            &params_with_vec(&f.post_vecs[0]),
        )
        .unwrap_err();
        assert!(matches!(err, TvError::PermissionDenied(_)));
    }

    #[test]
    fn execute_as_applies_row_security_to_vector_search() {
        use tg_graph::Role;
        let f = fixture();
        let acl = AccessControl::new();
        acl.define_role(
            "english-only",
            Role::default().allow_rows(1, "language", AttrValue::Str("English".into())),
        );
        acl.assign("tenant-b", "english-only").unwrap();
        // Nearest overall is Spanish post 7; tenant-b can never see it.
        let out = execute_as(
            &f.graph,
            &acl,
            "tenant-b",
            "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 12",
            &params_with_vec(&f.post_vecs[7]),
        )
        .unwrap();
        let rows = out.rows();
        assert_eq!(rows.len(), 6); // exactly the English posts
        assert!(!rows.iter().any(|r| r.id == f.posts[7]));
        // Row security composes with a query predicate (intersection).
        let out = execute_as(
            &f.graph,
            &acl,
            "tenant-b",
            "SELECT s FROM (s:Post) WHERE s.length > 1000 \
             ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 12",
            &params_with_vec(&f.post_vecs[7]),
        )
        .unwrap();
        for r in out.rows() {
            let idx = f.posts.iter().position(|&p| p == r.id).unwrap();
            assert_eq!(idx % 2, 0, "post {idx} is not English");
            assert!(idx * 250 > 1000);
        }
    }

    /// The row-security fixture: alice may read every post, bob only the
    /// English ones (even indexes).
    fn secured() -> (Fixture, AccessControl) {
        use tg_graph::Role;
        let acl = AccessControl::new();
        acl.define_role("admin", Role::default().allow_type(1));
        acl.define_role(
            "analyst",
            Role::default().allow_rows(1, "language", AttrValue::Str("English".into())),
        );
        acl.assign("alice", "admin").unwrap();
        acl.assign("bob", "analyst").unwrap();
        (fixture(), acl)
    }

    const NEAREST: &str = "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT";

    #[test]
    fn admin_sees_everything() {
        let (f, acl) = secured();
        let p = params_with_vec(&f.post_vecs[7]);
        let out = execute_as(&f.graph, &acl, "alice", &format!("{NEAREST} 1"), &p).unwrap();
        assert_eq!(out.rows()[0].id, f.posts[7]); // the Spanish post itself
    }

    #[test]
    fn analyst_only_sees_public_rows() {
        let (f, acl) = secured();
        // Nearest overall is Spanish post 7; bob must get English posts
        // instead.
        let p = params_with_vec(&f.post_vecs[7]);
        let out = execute_as(&f.graph, &acl, "bob", &format!("{NEAREST} 3"), &p).unwrap();
        assert!(!out.rows().is_empty());
        for r in out.rows() {
            let i = f.posts.iter().position(|&x| x == r.id).unwrap();
            assert_eq!(i % 2, 0, "post {i} is Spanish but bob saw it");
        }
    }

    #[test]
    fn stranger_is_rejected() {
        let (f, acl) = secured();
        let p = params_with_vec(&f.post_vecs[7]);
        let err = execute_as(&f.graph, &acl, "mallory", &format!("{NEAREST} 1"), &p).unwrap_err();
        assert!(matches!(err, TvError::PermissionDenied(_)));
    }

    #[test]
    fn caller_filter_intersects_with_grants() {
        let (f, acl) = secured();
        // Bob (English only) filtered to posts {0, 1}: only 0 remains visible.
        let out = execute_as(
            &f.graph,
            &acl,
            "bob",
            "SELECT s FROM (s:Post) WHERE s.length < 500 \
             ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 5",
            &params_with_vec(&f.post_vecs[7]),
        )
        .unwrap();
        assert_eq!(out.rows().len(), 1);
        assert_eq!(out.rows()[0].id, f.posts[0]);
    }

    #[test]
    fn revoke_removes_access() {
        let (f, acl) = secured();
        acl.revoke("alice", "admin");
        let p = params_with_vec(&f.post_vecs[7]);
        assert!(execute_as(&f.graph, &acl, "alice", &format!("{NEAREST} 1"), &p).is_err());
    }

    /// Reads each of the four shapes that once returned rows the grant
    /// forbids: graph-only, graph-only on a row-restricted type, a join,
    /// and a pattern selected through a non-target node.
    #[test]
    fn row_rules_bind_every_node_of_every_query_kind() {
        use tg_graph::Role;
        let f = fixture();
        let acl = AccessControl::new();
        let english = AttrValue::Str("English".into());
        acl.define_role(
            "english",
            Role::default().allow_rows(1, "language", english),
        );
        acl.define_role("people", Role::default().allow_type(0));
        acl.define_role(
            "alice",
            Role::default()
                .allow_rows(0, "firstName", AttrValue::Str("Alice".into()))
                .allow_type(1),
        );
        acl.assign("en", "english").unwrap();
        acl.assign("en", "people").unwrap();
        acl.assign("al", "alice").unwrap();
        let english_post = |id: VertexId| f.posts.iter().position(|&p| p == id).unwrap() % 2 == 0;
        let p = params_with_vec(&f.post_vecs[7]);
        let rows = |user: &str, src: &str| execute_as(&f.graph, &acl, user, src, &p).unwrap();

        let out = rows("en", "SELECT s FROM (s:Post) LIMIT 100");
        assert_eq!(out.rows().len(), 6);
        assert!(out.rows().iter().all(|r| english_post(r.id)));

        let src = "SELECT u FROM (u:Person) WHERE u.firstName = \"Bob\"";
        assert!(rows("al", src).rows().is_empty());
        let src = "SELECT u FROM (u:Person) WHERE u.firstName != \"Bob\"";
        let out = rows("al", src);
        assert_eq!(
            out.rows().iter().map(|r| r.id).collect::<Vec<_>>(),
            [f.people[0]]
        );

        let join =
            "SELECT s, t FROM (s:Post) -[:hasCreator]-> (u:Person) <-[:hasCreator]- (t:Post) \
                    ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 40";
        let QueryOutput::Pairs(pairs) = rows("en", join) else {
            panic!("a join returns pairs")
        };
        // Creators 0 and 2 wrote the English posts, three each.
        assert_eq!(pairs.len(), 6);
        assert!(pairs
            .iter()
            .all(|(s, t, _)| english_post(s.id) && english_post(t.id)));

        let by = |name: &str| {
            format!(
                "SELECT s FROM (u:Person) <-[:hasCreator]- (s:Post) WHERE u.firstName = \"{name}\" \
                 ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 10"
            )
        };
        assert!(rows("al", &by("Bob")).rows().is_empty());
        let alices: HashSet<VertexId> = rows("al", &by("Alice"))
            .rows()
            .iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(alices, HashSet::from([f.posts[0], f.posts[4], f.posts[8]]));

        // A type with no grant refuses every kind before any scan.
        for src in ["SELECT s FROM (s:Post) LIMIT 100", join, &by("Alice")] {
            let err = execute_as(&f.graph, &acl, "nobody", src, &p).unwrap_err();
            assert!(matches!(err, TvError::PermissionDenied(_)), "{src}");
        }
        let err = execute_as(&f.graph, &acl, "en", &by("Alice"), &p);
        assert!(err.is_ok(), "en may read every Person");
        acl.revoke("en", "people");
        let err = execute_as(&f.graph, &acl, "en", &by("Alice"), &p).unwrap_err();
        assert!(matches!(err, TvError::PermissionDenied(_)));
    }

    /// A pattern's two spellings select the same rows whichever node the
    /// query reads: the constraints after it narrow it too.
    #[test]
    fn mirrored_patterns_select_the_same_rows() {
        let f = fixture();
        let p = params_with_vec(&f.post_vecs[0]);
        let ids = |src: &str| -> Vec<VertexId> {
            let mut ids: Vec<VertexId> = execute(&f.graph, src, &p)
                .unwrap()
                .rows()
                .iter()
                .map(|r| r.id)
                .collect();
            ids.sort_unstable();
            ids
        };
        let bobs = vec![f.posts[1], f.posts[5], f.posts[9]];
        let long_posts_creators = vec![f.people[1], f.people[2], f.people[3]];
        for (spellings, want) in [
            (
                [
                    "SELECT s FROM (s:Post) -[:hasCreator]-> (u:Person) WHERE u.firstName = \"Bob\" \
                     ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 10",
                    "SELECT s FROM (u:Person) <-[:hasCreator]- (s:Post) WHERE u.firstName = \"Bob\" \
                     ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 10",
                ],
                &bobs,
            ),
            (
                [
                    "SELECT s FROM (s:Post) -[:hasCreator]-> (u:Person) WHERE u.firstName = \"Bob\" \
                     AND VECTOR_DIST(s.content_emb, $qv) < 1e9",
                    "SELECT s FROM (u:Person) <-[:hasCreator]- (s:Post) WHERE u.firstName = \"Bob\" \
                     AND VECTOR_DIST(s.content_emb, $qv) < 1e9",
                ],
                &bobs,
            ),
            (
                [
                    "SELECT u FROM (u:Person) <-[:hasCreator]- (s:Post) WHERE s.length > 2000",
                    "SELECT u FROM (s:Post) -[:hasCreator]-> (u:Person) WHERE s.length > 2000",
                ],
                &long_posts_creators,
            ),
            (
                // A middle node: the friends of Alice who wrote a long post.
                [
                    "SELECT u FROM (a:Person) -[:knows]-> (u:Person) <-[:hasCreator]- (s:Post) \
                     WHERE a.firstName = \"Alice\" AND s.length > 2000",
                    "SELECT u FROM (s:Post) -[:hasCreator]-> (u:Person) <-[:knows]- (a:Person) \
                     WHERE a.firstName = \"Alice\" AND s.length > 2000",
                ],
                &vec![f.people[1], f.people[2]],
            ),
        ] {
            for src in spellings {
                assert_eq!(&ids(src), want, "{src}");
            }
        }
    }

    #[test]
    fn join_path_walk_checks_the_deadline() {
        let f = fixture();
        let src =
            "SELECT s, t FROM (s:Post) -[:hasCreator]-> (u:Person) <-[:hasCreator]- (t:Post) \
                   ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 4";
        let r = resolve(&f.graph, parse(src).unwrap()).unwrap();
        let (params, tid) = (Params::new(), f.graph.read_tid());
        let err = run_join(&f.graph, &r, &params, tid, Deadline::expired_now()).unwrap_err();
        assert!(matches!(err, TvError::Timeout(_)));
        assert!(run_join(&f.graph, &r, &params, tid, Deadline::none()).is_ok());
    }

    /// One grant governs both attribute reads and vector search: a direct
    /// search's restriction is the rows the rules pass, or none at all.
    #[test]
    fn readable_rows_are_the_rule_rows_or_none() {
        let (f, acl) = secured();
        let tid = f.graph.read_tid();
        let set = readable_rows(&f.graph, &acl, "bob", &[0], tid)
            .unwrap()
            .unwrap();
        assert_eq!(set.len(), 6); // the six English posts
        assert!(set
            .of_type(1)
            .iter()
            .all(|&id| f.posts.iter().position(|&p| p == id).unwrap() % 2 == 0));
        assert!(readable_rows(&f.graph, &acl, "alice", &[0], tid)
            .unwrap()
            .is_none());
        // An unrestricted grant beside a row rule lifts the restriction.
        acl.assign("bob", "admin").unwrap();
        assert!(readable_rows(&f.graph, &acl, "bob", &[0], tid)
            .unwrap()
            .is_none());
        let err = readable_rows(&f.graph, &acl, "mallory", &[0], tid).unwrap_err();
        assert!(matches!(err, TvError::PermissionDenied(_)));
    }

    #[test]
    fn execute_as_expired_deadline_times_out() {
        use tg_graph::Role;
        let f = fixture();
        let acl = AccessControl::new();
        acl.define_role("reader", Role::default().allow_type(1));
        acl.assign("tenant-a", "reader").unwrap();
        let err = execute_at_as_stats(
            &f.graph,
            &acl,
            "tenant-a",
            "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2",
            &params_with_vec(&f.post_vecs[0]),
            f.graph.read_tid(),
            Deadline::expired_now(),
            &mut SearchStats::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TvError::Timeout(_)));
    }

    #[test]
    fn results_respect_mvcc_snapshot() {
        let f = fixture();
        let old_tid = f.graph.read_tid();
        // Delete the exact-match post after the snapshot.
        f.graph.txn().delete_vertex(1, f.posts[7]).commit().unwrap();
        let out_old = execute_at(
            &f.graph,
            "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 1",
            &params_with_vec(&f.post_vecs[7]),
            old_tid,
        )
        .unwrap();
        assert_eq!(out_old.rows()[0].id, f.posts[7]);
        let out_new = execute(
            &f.graph,
            "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 1",
            &params_with_vec(&f.post_vecs[7]),
        )
        .unwrap();
        assert_ne!(out_new.rows()[0].id, f.posts[7]);
    }
}
