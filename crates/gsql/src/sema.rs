//! Semantic analysis: resolve the parsed query against the catalog, infer
//! node types through edge endpoints, classify the query shape, and run the
//! embedding-compatibility static analysis of §4.1 ("Otherwise, the query is
//! rejected and a semantic error is returned").

use crate::ast::*;
use std::collections::HashMap;
use tg_graph::{Graph, RowRule};
use tv_common::{TvError, TvResult};
use tv_embedding::EmbeddingTypeDef;

/// How the query executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// No vector operation: plain graph pattern/filters.
    GraphOnly,
    /// `ORDER BY VECTOR_DIST(attr, $param) LIMIT k` — top-k (pure, filtered,
    /// or on a graph pattern, §5.1–5.3).
    TopK,
    /// `WHERE VECTOR_DIST(attr, $param) < t` — range search (§5.1).
    Range,
    /// `ORDER BY VECTOR_DIST(attr, attr) LIMIT k` — similarity join (§5.4).
    SimilarityJoin,
}

/// A resolved edge: storage ids with direction already applied.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedEdge {
    /// Edge type id.
    pub etype: u32,
    /// True if traversal goes left→right along stored direction (`Out`);
    /// false means the right node is the stored source (`In`).
    pub forward: bool,
}

/// The analyzed query, ready for planning/execution.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// The parsed query.
    pub query: Query,
    /// Vertex type id per pattern node.
    pub node_types: Vec<u32>,
    /// Alias → node index.
    pub alias_of: HashMap<String, usize>,
    /// Resolved edges (parallel to `query.pattern.edges`).
    pub edges: Vec<ResolvedEdge>,
    /// Classification.
    pub kind: QueryKind,
    /// Vector-search target `(node index, embedding attr id)` for
    /// TopK/Range.
    pub target: Option<(usize, u32)>,
    /// Similarity-join endpoints for SimilarityJoin.
    pub join: Option<((usize, u32), (usize, u32))>,
    /// Range threshold expression (for Range).
    pub range_threshold: Option<Expr>,
    /// `WHERE` with any `VECTOR_DIST` term stripped (the graph-side filter).
    pub graph_filter: Option<Expr>,
    /// Per pattern node, the reader's row rules on its type (rbac): `None`
    /// where the whole type may be read. [`resolve`] leaves every node
    /// unrestricted; an execution as a user sets them from the user's
    /// grants, and each node's candidate scan evaluates its rules.
    pub row_rules: Vec<Option<Vec<RowRule>>>,
}

/// Resolve and validate a parsed query against `graph`'s catalog.
pub fn resolve(graph: &Graph, query: Query) -> TvResult<Resolved> {
    let catalog = graph.catalog();
    let pattern = &query.pattern;

    // 1. Node types: from labels, then inferred through edges.
    let mut node_types: Vec<Option<u32>> = Vec::with_capacity(pattern.nodes.len());
    for node in &pattern.nodes {
        node_types.push(match &node.label {
            Some(label) => Some(catalog.vertex_type(label)?.type_id),
            None => None,
        });
    }
    let mut edges = Vec::with_capacity(pattern.edges.len());
    for (i, edge) in pattern.edges.iter().enumerate() {
        let def = catalog.edge_type(&edge.etype)?;
        let forward = edge.direction == Direction::Out;
        let (left_expect, right_expect) = if forward {
            (def.from_type, def.to_type)
        } else {
            (def.to_type, def.from_type)
        };
        for (idx, expect) in [(i, left_expect), (i + 1, right_expect)] {
            match node_types[idx] {
                Some(t) if t != expect => {
                    return Err(TvError::Semantic(format!(
                        "pattern node {idx} has type {} but edge '{}' expects {}",
                        catalog.vertex_type_by_id(t)?.name,
                        edge.etype,
                        catalog.vertex_type_by_id(expect)?.name,
                    )));
                }
                Some(_) => {}
                None => node_types[idx] = Some(expect),
            }
        }
        edges.push(ResolvedEdge {
            etype: def.etype_id,
            forward,
        });
    }
    let node_types: Vec<u32> = node_types
        .into_iter()
        .enumerate()
        .map(|(i, t)| t.ok_or_else(|| TvError::Semantic(format!("cannot infer type of node {i}"))))
        .collect::<TvResult<_>>()?;

    // 2. Alias table.
    let mut alias_of = HashMap::new();
    for (i, node) in pattern.nodes.iter().enumerate() {
        if let Some(alias) = &node.alias {
            if alias_of.insert(alias.clone(), i).is_some() {
                return Err(TvError::Semantic(format!("duplicate alias '{alias}'")));
            }
        }
    }
    for sel in &query.select {
        if !alias_of.contains_key(sel) {
            return Err(TvError::Semantic(format!("unknown select alias '{sel}'")));
        }
    }

    // 3. Strip VECTOR_DIST out of WHERE (range search) and validate the rest.
    let mut range_vd: Option<(VectorDist, Expr)> = None;
    let graph_filter = match query.where_clause.clone() {
        Some(expr) => split_vector_range(expr, &mut range_vd)?,
        None => None,
    };
    if let Some(filter) = &graph_filter {
        check_filter(filter, &alias_of, &node_types, graph)?;
    }

    // 4. Classify + compatibility analysis.
    let resolve_attr = |vref: &VecRef| -> TvResult<(usize, u32, EmbeddingTypeDef)> {
        let VecRef::Attr(alias, attr) = vref else {
            return Err(TvError::Semantic("expected embedding attribute".into()));
        };
        let &node = alias_of
            .get(alias)
            .ok_or_else(|| TvError::Semantic(format!("unknown alias '{alias}'")))?;
        let vt = catalog.vertex_type_by_id(node_types[node])?;
        let (attr_id, def) = vt.embedding(attr).ok_or_else(|| {
            TvError::Semantic(format!("'{}' has no embedding attribute '{attr}'", vt.name))
        })?;
        Ok((node, attr_id, def.clone()))
    };

    let (kind, target, join, range_threshold) = if let Some(vd) = &query.order_by {
        match (&vd.lhs, &vd.rhs) {
            (VecRef::Attr(..), VecRef::Attr(..)) => {
                let a = resolve_attr(&vd.lhs)?;
                let b = resolve_attr(&vd.rhs)?;
                EmbeddingTypeDef::check_compatible(&[&a.2, &b.2])?;
                (
                    QueryKind::SimilarityJoin,
                    None,
                    Some(((a.0, a.1), (b.0, b.1))),
                    None,
                )
            }
            (VecRef::Attr(..), VecRef::Param(_)) => {
                let a = resolve_attr(&vd.lhs)?;
                (QueryKind::TopK, Some((a.0, a.1)), None, None)
            }
            (VecRef::Param(_), VecRef::Attr(..)) => {
                let a = resolve_attr(&vd.rhs)?;
                (QueryKind::TopK, Some((a.0, a.1)), None, None)
            }
            _ => {
                return Err(TvError::Semantic(
                    "VECTOR_DIST needs at least one embedding attribute".into(),
                ))
            }
        }
    } else if let Some((vd, threshold)) = range_vd {
        let attr_side = match (&vd.lhs, &vd.rhs) {
            (VecRef::Attr(..), _) => &vd.lhs,
            (_, VecRef::Attr(..)) => &vd.rhs,
            _ => {
                return Err(TvError::Semantic(
                    "VECTOR_DIST needs at least one embedding attribute".into(),
                ))
            }
        };
        let a = resolve_attr(attr_side)?;
        (QueryKind::Range, Some((a.0, a.1)), None, Some(threshold))
    } else {
        (QueryKind::GraphOnly, None, None, None)
    };

    // The SELECT list names what the query returns: a vector query's
    // `VECTOR_DIST` target, a join's two endpoints in `VECTOR_DIST` order.
    let selected: Vec<usize> = query.select.iter().map(|a| alias_of[a]).collect();
    match (kind, target, join) {
        (QueryKind::SimilarityJoin, _, Some(((s, _), (t, _)))) if selected != [s, t] => {
            return Err(TvError::Semantic(
                "similarity join must SELECT its two VECTOR_DIST aliases, in order".into(),
            ));
        }
        (QueryKind::SimilarityJoin, ..) => {}
        _ if selected.len() != 1 => {
            return Err(TvError::Semantic(
                "query must SELECT exactly one alias".into(),
            ));
        }
        (_, Some((node, _)), _) if selected[0] != node => {
            return Err(TvError::Semantic(
                "a vector query must SELECT its VECTOR_DIST alias".into(),
            ));
        }
        _ => {}
    }

    drop(catalog);
    Ok(Resolved {
        row_rules: vec![None; node_types.len()],
        query,
        node_types,
        alias_of,
        edges,
        kind,
        target,
        join,
        range_threshold,
        graph_filter,
    })
}

/// Pull a top-level `VECTOR_DIST(..) < t` (or `<=`) out of an AND chain; the
/// remainder becomes the graph filter. `VECTOR_DIST` anywhere else (under
/// OR/NOT, or compared with other operators) is a semantic error.
fn split_vector_range(
    expr: Expr,
    found: &mut Option<(VectorDist, Expr)>,
) -> TvResult<Option<Expr>> {
    match expr {
        Expr::Cmp(lhs, op, rhs) if matches!(*lhs, Expr::VectorDist(_)) => {
            if !matches!(op, CmpOp::Lt | CmpOp::Le) {
                return Err(TvError::Semantic(
                    "VECTOR_DIST in WHERE must use < or <=".into(),
                ));
            }
            if found.is_some() {
                return Err(TvError::Semantic("multiple VECTOR_DIST range terms".into()));
            }
            let Expr::VectorDist(vd) = *lhs else {
                unreachable!()
            };
            *found = Some((vd, *rhs));
            Ok(None)
        }
        Expr::And(l, r) => {
            let l2 = split_vector_range(*l, found)?;
            let r2 = split_vector_range(*r, found)?;
            Ok(match (l2, r2) {
                (Some(a), Some(b)) => Some(Expr::And(Box::new(a), Box::new(b))),
                (Some(a), None) | (None, Some(a)) => Some(a),
                (None, None) => None,
            })
        }
        other => {
            if contains_vector_dist(&other) {
                return Err(TvError::Semantic(
                    "VECTOR_DIST must be a top-level AND term compared with <".into(),
                ));
            }
            Ok(Some(other))
        }
    }
}

fn contains_vector_dist(e: &Expr) -> bool {
    match e {
        Expr::VectorDist(_) => true,
        Expr::Cmp(l, _, r) | Expr::And(l, r) | Expr::Or(l, r) => {
            contains_vector_dist(l) || contains_vector_dist(r)
        }
        Expr::Not(inner) => contains_vector_dist(inner),
        _ => false,
    }
}

/// Validate attribute references in a graph filter.
fn check_filter(
    expr: &Expr,
    alias_of: &HashMap<String, usize>,
    node_types: &[u32],
    graph: &Graph,
) -> TvResult<()> {
    match expr {
        Expr::Attr(alias, attr) => {
            let &node = alias_of
                .get(alias)
                .ok_or_else(|| TvError::Semantic(format!("unknown alias '{alias}'")))?;
            let catalog = graph.catalog();
            let vt = catalog.vertex_type_by_id(node_types[node])?;
            if vt.schema.index_of(attr).is_none() {
                return Err(TvError::Semantic(format!(
                    "'{}' has no attribute '{attr}'",
                    vt.name
                )));
            }
            Ok(())
        }
        Expr::Cmp(l, _, r) | Expr::And(l, r) | Expr::Or(l, r) => {
            check_filter(l, alias_of, node_types, graph)?;
            check_filter(r, alias_of, node_types, graph)
        }
        Expr::Not(inner) => check_filter(inner, alias_of, node_types, graph),
        Expr::Literal(_) | Expr::Param(_) => Ok(()),
        Expr::VectorDist(_) => Err(TvError::Semantic(
            "unexpected VECTOR_DIST in graph filter".into(),
        )),
    }
}

/// Collect, for each node index, the per-node conjunctive predicates that
/// mention only that node's alias (pushdown). Cross-alias terms are returned
/// in the residual list.
#[must_use]
pub(crate) fn pushdown_predicates(
    filter: Option<&Expr>,
    alias_of: &HashMap<String, usize>,
    node_count: usize,
) -> (Vec<Vec<Expr>>, Vec<Expr>) {
    let mut per_node: Vec<Vec<Expr>> = vec![Vec::new(); node_count];
    let mut residual = Vec::new();
    let mut stack = Vec::new();
    if let Some(f) = filter {
        collect_conjuncts(f, &mut stack);
    }
    for term in stack {
        let mut aliases = Vec::new();
        term.aliases(&mut aliases);
        let nodes: Vec<usize> = aliases
            .iter()
            .filter_map(|a| alias_of.get(a).copied())
            .collect();
        if nodes.len() == 1 {
            per_node[nodes[0]].push(term);
        } else {
            residual.push(term);
        }
    }
    (per_node, residual)
}

fn collect_conjuncts(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(l, r) => {
            collect_conjuncts(l, out);
            collect_conjuncts(r, out);
        }
        other => out.push(other.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use tg_storage::AttrType;
    use tv_common::ids::SegmentLayout;
    use tv_common::DistanceMetric;
    use tv_embedding::ServiceConfig;

    fn ldbc_graph() -> Graph {
        let g = Graph::with_config(
            SegmentLayout::with_capacity(8),
            ServiceConfig {
                planner: tv_common::PlannerConfig::default().with_brute_threshold(4),
                query_threads: 1,
                default_ef: 32,
            },
        );
        g.create_vertex_type("Person", &[("firstName", AttrType::Str)])
            .unwrap();
        g.create_vertex_type(
            "Post",
            &[("language", AttrType::Str), ("length", AttrType::Int)],
        )
        .unwrap();
        g.create_vertex_type("Comment", &[("length", AttrType::Int)])
            .unwrap();
        g.create_edge_type("knows", "Person", "Person").unwrap();
        g.create_edge_type("hasCreator", "Post", "Person").unwrap();
        g.create_edge_type("commentHasCreator", "Comment", "Person")
            .unwrap();
        g.add_embedding_attribute(
            "Post",
            EmbeddingTypeDef::new("content_emb", 4, "GPT4", DistanceMetric::L2),
        )
        .unwrap();
        g.add_embedding_attribute(
            "Comment",
            EmbeddingTypeDef::new("content_emb", 4, "GPT4", DistanceMetric::L2),
        )
        .unwrap();
        g
    }

    #[test]
    fn classifies_pure_topk() {
        let g = ldbc_graph();
        let q = parse("SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 5")
            .unwrap();
        let r = resolve(&g, q).unwrap();
        assert_eq!(r.kind, QueryKind::TopK);
        assert_eq!(r.target.unwrap().0, 0);
        assert!(r.graph_filter.is_none());
    }

    #[test]
    fn classifies_range() {
        let g = ldbc_graph();
        let q =
            parse("SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, $qv) < 0.5").unwrap();
        let r = resolve(&g, q).unwrap();
        assert_eq!(r.kind, QueryKind::Range);
        assert!(r.range_threshold.is_some());
        assert!(r.graph_filter.is_none());
    }

    #[test]
    fn range_with_attribute_filter_splits() {
        let g = ldbc_graph();
        let q = parse(
            "SELECT s FROM (s:Post) WHERE s.language = \"en\" AND VECTOR_DIST(s.content_emb, $qv) < 2.0",
        )
        .unwrap();
        let r = resolve(&g, q).unwrap();
        assert_eq!(r.kind, QueryKind::Range);
        assert!(r.graph_filter.is_some());
    }

    #[test]
    fn infers_unlabeled_node_types() {
        let g = ldbc_graph();
        let q = parse(
            "SELECT t FROM (s:Person) -[:knows]-> (:Person) <-[:hasCreator]- (t:Post) \
             ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 2",
        )
        .unwrap();
        let r = resolve(&g, q).unwrap();
        assert_eq!(r.node_types, vec![0, 0, 1]);
        assert!(r.edges[0].forward); // first edge forward
        assert!(!r.edges[1].forward); // second edge reversed
    }

    #[test]
    fn rejects_type_mismatch_in_pattern() {
        let g = ldbc_graph();
        let q = parse("SELECT s FROM (s:Post) -[:knows]-> (t:Person) ORDER BY VECTOR_DIST(s.content_emb, $q) LIMIT 1").unwrap();
        assert!(matches!(resolve(&g, q), Err(TvError::Semantic(_))));
    }

    #[test]
    fn rejects_unknown_embedding() {
        let g = ldbc_graph();
        let q =
            parse("SELECT s FROM (s:Person) ORDER BY VECTOR_DIST(s.face_emb, $q) LIMIT 1").unwrap();
        assert!(matches!(resolve(&g, q), Err(TvError::Semantic(_))));
    }

    #[test]
    fn rejects_unknown_attribute_in_where() {
        let g = ldbc_graph();
        let q = parse("SELECT s FROM (s:Post) WHERE s.nope = 1 ORDER BY VECTOR_DIST(s.content_emb, $q) LIMIT 1").unwrap();
        assert!(matches!(resolve(&g, q), Err(TvError::Semantic(_))));
    }

    #[test]
    fn similarity_join_compatibility_checked() {
        let g = ldbc_graph();
        // Post.content_emb and Comment.content_emb share metadata → allowed.
        let q = parse(
            "SELECT s, t FROM (s:Comment) -[:commentHasCreator]-> (u:Person) \
             -[:knows]-> (v:Person) <-[:hasCreator]- (t:Post) \
             ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 3",
        )
        .unwrap();
        let r = resolve(&g, q).unwrap();
        assert_eq!(r.kind, QueryKind::SimilarityJoin);
        let ((sn, _), (tn, _)) = r.join.unwrap();
        assert_eq!((sn, tn), (0, 3));
    }

    #[test]
    fn incompatible_join_rejected() {
        let g = ldbc_graph();
        // Add an incompatible embedding on Person.
        g.add_embedding_attribute(
            "Person",
            EmbeddingTypeDef::new("bio_emb", 8, "BERT", DistanceMetric::L2),
        )
        .unwrap();
        let q = parse(
            "SELECT s, t FROM (s:Post) -[:hasCreator]-> (t:Person) \
             ORDER BY VECTOR_DIST(s.content_emb, t.bio_emb) LIMIT 3",
        )
        .unwrap();
        assert!(matches!(
            resolve(&g, q),
            Err(TvError::IncompatibleEmbeddings(_))
        ));
    }

    #[test]
    fn rejects_vector_dist_under_or() {
        let g = ldbc_graph();
        let q = parse(
            "SELECT s FROM (s:Post) WHERE s.length > 1 OR VECTOR_DIST(s.content_emb, $q) < 0.5",
        )
        .unwrap();
        assert!(matches!(resolve(&g, q), Err(TvError::Semantic(_))));
    }

    #[test]
    fn rejects_select_of_unknown_alias() {
        let g = ldbc_graph();
        let q = parse("SELECT z FROM (s:Post)").unwrap();
        assert!(matches!(resolve(&g, q), Err(TvError::Semantic(_))));
    }

    #[test]
    fn rejects_a_select_list_the_query_does_not_return() {
        let g = ldbc_graph();
        let join = "FROM (s:Post) -[:hasCreator]-> (u:Person) <-[:hasCreator]- (t:Post) \
                    ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 3";
        for src in [
            "SELECT u FROM (u:Person) <-[:hasCreator]- (s:Post) \
             ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 3",
            "SELECT s, u FROM (u:Person) <-[:hasCreator]- (s:Post) \
             ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 3",
            "SELECT u FROM (u:Person) <-[:hasCreator]- (s:Post) \
             WHERE VECTOR_DIST(s.content_emb, $qv) < 2.0",
            &format!("SELECT s, u {join}"),
            &format!("SELECT t, s {join}"),
            &format!("SELECT s {join}"),
            &format!("SELECT s, t, u {join}"),
        ] {
            let err = resolve(&g, parse(src).unwrap()).unwrap_err();
            assert!(matches!(err, TvError::Semantic(_)), "{src}: {err:?}");
        }
        for src in [
            "SELECT s FROM (u:Person) <-[:hasCreator]- (s:Post) \
             ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 3",
            "SELECT u FROM (u:Person) <-[:hasCreator]- (s:Post)",
            &format!("SELECT s, t {join}"),
        ] {
            assert!(resolve(&g, parse(src).unwrap()).is_ok(), "{src}");
        }
    }

    #[test]
    fn pushdown_splits_per_alias() {
        let g = ldbc_graph();
        let q = parse(
            "SELECT t FROM (s:Person) -[:knows]-> (t:Person) \
             WHERE s.firstName = \"Alice\" AND t.firstName = \"Bob\"",
        )
        .unwrap();
        let r = resolve(&g, q).unwrap();
        let (per_node, residual) = pushdown_predicates(r.graph_filter.as_ref(), &r.alias_of, 2);
        assert_eq!(per_node[0].len(), 1);
        assert_eq!(per_node[1].len(), 1);
        assert!(residual.is_empty());
    }
}
