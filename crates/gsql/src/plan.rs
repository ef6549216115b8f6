//! Query plans — the textual operator stacks the paper prints (§5.1–5.4),
//! e.g. for filtered vector search:
//!
//! ```text
//! EmbeddingAction[Top k, {s.content_emb}, query_vector]
//! VertexAction[Post:s {s.language = "English"}]
//! ```
//!
//! Execution proceeds bottom-up.

use crate::ast::{Expr, Value, VecRef};
use crate::sema::{pushdown_predicates, resolve, QueryKind, Resolved};
use tg_graph::Graph;
use tv_common::TvResult;

/// A rendered plan: one operator per line, bottom-up execution order, last
/// line first to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Operator lines, top line = final operator.
    pub lines: Vec<String>,
}

impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for line in &self.lines {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

/// Parse, resolve, and plan a query, returning its operator stack.
pub fn explain(graph: &Graph, src: &str) -> TvResult<Plan> {
    let query = crate::parser::parse(src)?;
    let resolved = resolve(graph, query)?;
    Ok(plan(graph, &resolved))
}

/// Render the plan for a resolved query.
#[must_use]
pub fn plan(graph: &Graph, r: &Resolved) -> Plan {
    let catalog = graph.catalog();
    let n = r.query.pattern.nodes.len();
    let (per_node, _residual) = pushdown_predicates(r.graph_filter.as_ref(), &r.alias_of, n);

    let alias_name = |idx: usize| -> String {
        r.query.pattern.nodes[idx]
            .alias
            .clone()
            .unwrap_or_else(|| format!("_{idx}"))
    };
    let type_name = |idx: usize| -> String {
        catalog
            .vertex_type_by_id(r.node_types[idx])
            .map(|t| t.name.clone())
            .unwrap_or_else(|_| format!("type{}", r.node_types[idx]))
    };
    let vertex_action = |idx: usize| -> String {
        let preds = &per_node[idx];
        if preds.is_empty() {
            format!("VertexAction[{}:{}]", type_name(idx), alias_name(idx))
        } else {
            let rendered: Vec<String> = preds.iter().map(render_expr).collect();
            format!(
                "VertexAction[{}:{} {{{}}}]",
                type_name(idx),
                alias_name(idx),
                rendered.join(" AND ")
            )
        }
    };

    let mut lines = Vec::new();
    let k_text = r
        .query
        .limit
        .as_ref()
        .map_or_else(|| "k".to_string(), render_expr);

    match r.kind {
        QueryKind::TopK => {
            let (target, _) = r.target.expect("target");
            let emb = embedding_text(r, target);
            let qv = query_vector_text(r);
            lines.push(format!("EmbeddingAction[Top {k_text}, {{{emb}}}, {qv}]"));
            push_pattern_ops(&mut lines, r, &vertex_action, target);
        }
        QueryKind::Range => {
            let (target, _) = r.target.expect("target");
            let emb = embedding_text(r, target);
            let qv = query_vector_text(r);
            let threshold = r
                .range_threshold
                .as_ref()
                .map_or_else(|| "t".to_string(), render_expr);
            lines.push(format!(
                "EmbeddingAction[Range < {threshold}, {{{emb}}}, {qv}]"
            ));
            push_pattern_ops(&mut lines, r, &vertex_action, target);
        }
        QueryKind::SimilarityJoin => {
            let ((s, _), (t, _)) = r.join.expect("join");
            lines.push(format!(
                "HeapAccum[Top {k_text}, VECTOR_DIST({}, {})]",
                embedding_text(r, s),
                embedding_text(r, t)
            ));
            lines.push("PathEnumeration[brute-force pair distances]".to_string());
            push_pattern_ops(&mut lines, r, &vertex_action, t);
        }
        QueryKind::GraphOnly => {
            let sel = r.alias_of[&r.query.select[0]];
            push_pattern_ops(&mut lines, r, &vertex_action, sel);
        }
    }
    Plan { lines }
}

/// Pattern operators below the vector action: per-hop EdgeActions and the
/// filtered VertexActions, bottom-up (last pushed = first executed).
fn push_pattern_ops(
    lines: &mut Vec<String>,
    r: &Resolved,
    vertex_action: &dyn Fn(usize) -> String,
    target: usize,
) {
    let n = r.query.pattern.nodes.len();
    // The target's own VertexAction (filter feeding the vector search).
    if n == 1 {
        let (per_node, _) = pushdown_predicates(r.graph_filter.as_ref(), &r.alias_of, n);
        if !per_node[0].is_empty() || r.kind == QueryKind::GraphOnly {
            lines.push(vertex_action(0));
        }
        return;
    }
    lines.push(vertex_action(target));
    // Hops from target back to node 0.
    for i in (0..r.edges.len()).rev() {
        let e = &r.query.pattern.edges[i];
        let dir = if r.edges[i].forward { "->" } else { "<-" };
        lines.push(format!("EdgeAction[{}{}]", e.etype, dir));
        if i != target {
            lines.push(vertex_action(i));
        }
    }
}

fn embedding_text(r: &Resolved, node: usize) -> String {
    let alias = r.query.pattern.nodes[node]
        .alias
        .clone()
        .unwrap_or_else(|| format!("_{node}"));
    let attr = match (&r.query.order_by, &r.query.where_clause) {
        (Some(vd), _) => match (&vd.lhs, &vd.rhs) {
            (VecRef::Attr(a, attr), _) if r.alias_of.get(a) == Some(&node) => attr.clone(),
            (_, VecRef::Attr(a, attr)) if r.alias_of.get(a) == Some(&node) => attr.clone(),
            _ => "emb".to_string(),
        },
        _ => "emb".to_string(),
    };
    format!("{alias}.{attr}")
}

fn query_vector_text(r: &Resolved) -> String {
    if let Some(vd) = &r.query.order_by {
        for side in [&vd.lhs, &vd.rhs] {
            if let VecRef::Param(p) = side {
                return format!("${p}");
            }
        }
    }
    "query_vector".to_string()
}

/// Render an expression back to (approximate) source form.
fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Attr(a, n) => format!("{a}.{n}"),
        Expr::Param(p) => format!("${p}"),
        Expr::Literal(Value::Int(i)) => i.to_string(),
        Expr::Literal(Value::Double(d)) => d.to_string(),
        Expr::Literal(Value::Str(s)) => format!("\"{s}\""),
        Expr::Literal(Value::Bool(b)) => b.to_string(),
        Expr::Literal(Value::Vector(v)) => format!("<{}-d vector>", v.len()),
        Expr::Cmp(l, op, r) => format!("{} {} {}", render_expr(l), op.symbol(), render_expr(r)),
        Expr::And(l, r) => format!("{} AND {}", render_expr(l), render_expr(r)),
        Expr::Or(l, r) => format!("({} OR {})", render_expr(l), render_expr(r)),
        Expr::Not(inner) => format!("NOT {}", render_expr(inner)),
        Expr::VectorDist(_) => "VECTOR_DIST(..)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_storage::AttrType;
    use tv_common::ids::SegmentLayout;
    use tv_common::DistanceMetric;
    use tv_embedding::{EmbeddingTypeDef, ServiceConfig};

    fn graph() -> Graph {
        let g = Graph::with_config(
            SegmentLayout::with_capacity(8),
            ServiceConfig {
                planner: tv_common::PlannerConfig::default().with_brute_threshold(2),
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
        g.create_edge_type("knows", "Person", "Person").unwrap();
        g.create_edge_type("hasCreator", "Post", "Person").unwrap();
        g.add_embedding_attribute(
            "Post",
            EmbeddingTypeDef::new("content_emb", 4, "GPT4", DistanceMetric::L2),
        )
        .unwrap();
        g
    }

    #[test]
    fn pure_topk_plan_is_single_embedding_action() {
        let g = graph();
        let p = explain(
            &g,
            "SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 10",
        )
        .unwrap();
        assert_eq!(
            p.lines,
            vec!["EmbeddingAction[Top 10, {s.content_emb}, $qv]".to_string()]
        );
    }

    #[test]
    fn filtered_plan_matches_paper_shape() {
        let g = graph();
        let p = explain(
            &g,
            "SELECT s FROM (s:Post) WHERE s.language = \"English\" \
             ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 5",
        )
        .unwrap();
        assert_eq!(p.lines.len(), 2);
        assert_eq!(p.lines[0], "EmbeddingAction[Top 5, {s.content_emb}, $qv]");
        assert_eq!(
            p.lines[1],
            "VertexAction[Post:s {s.language = \"English\"}]"
        );
    }

    #[test]
    fn pattern_plan_contains_edge_actions() {
        let g = graph();
        let p = explain(
            &g,
            "SELECT t FROM (s:Person) -[:knows]-> (:Person) <-[:hasCreator]- (t:Post) \
             WHERE s.firstName = \"Alice\" AND t.length > 1000 \
             ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 3",
        )
        .unwrap();
        let text = p.to_string();
        assert!(text.starts_with("EmbeddingAction[Top 3, {t.content_emb}, $qv]"));
        assert!(text.contains("EdgeAction[hasCreator<-]"));
        assert!(text.contains("EdgeAction[knows->]"));
        assert!(text.contains("VertexAction[Person:s {s.firstName = \"Alice\"}]"));
        assert!(text.contains("VertexAction[Post:t {t.length > 1000}]"));
    }

    #[test]
    fn range_plan() {
        let g = graph();
        let p = explain(
            &g,
            "SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, $qv) < 0.5",
        )
        .unwrap();
        assert!(p.lines[0].starts_with("EmbeddingAction[Range < 0.5"));
    }

    #[test]
    fn join_plan_has_heap_accumulator() {
        let g = graph();
        let p = explain(
            &g,
            "SELECT s, t FROM (s:Post) -[:hasCreator]-> (u:Person) \
             -[:knows]-> (v:Person) <-[:hasCreator]- (t:Post) \
             ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 10",
        )
        .unwrap();
        assert!(p.lines[0].starts_with("HeapAccum[Top 10"));
        assert!(p.lines.iter().any(|l| l.contains("PathEnumeration")));
    }

    #[test]
    fn graph_only_plan_is_vertex_action() {
        let g = graph();
        let p = explain(&g, "SELECT s FROM (s:Person) WHERE s.firstName = \"Bob\"").unwrap();
        assert_eq!(
            p.lines,
            vec!["VertexAction[Person:s {s.firstName = \"Bob\"}]".to_string()]
        );
    }
}
