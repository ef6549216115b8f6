//! Abstract syntax tree for the GSQL vector-search subset.

/// A parsed single-block query (`SELECT ... FROM <pattern> [WHERE ...]
/// [ORDER BY VECTOR_DIST(...) LIMIT k]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Selected aliases (one = vertex result; two = similarity-join pairs).
    pub select: Vec<String>,
    /// The path pattern: nodes interleaved with edges.
    pub pattern: Pattern,
    /// Optional boolean predicate.
    pub where_clause: Option<Expr>,
    /// Optional `ORDER BY VECTOR_DIST(a, b)`.
    pub order_by: Option<VectorDist>,
    /// Optional `LIMIT k`.
    pub limit: Option<Expr>,
}

/// A linear path pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    /// Node patterns, length = edges.len() + 1.
    pub nodes: Vec<NodePattern>,
    /// Edge patterns between consecutive nodes.
    pub edges: Vec<EdgePattern>,
}

/// `(alias:Label)` — either part may be omitted (`(:Label)` / `(alias)`).
#[derive(Debug, Clone, PartialEq)]
pub struct NodePattern {
    /// Binding alias, if named.
    pub alias: Option<String>,
    /// Vertex type label, if constrained.
    pub label: Option<String>,
}

/// `-[:etype]->` (Out) or `<-[:etype]-` (In).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgePattern {
    /// Edge type name.
    pub etype: String,
    /// Traversal direction relative to the left node.
    pub direction: Direction,
}

/// Edge traversal direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Left node is the source: `-[:t]->`.
    Out,
    /// Left node is the target: `<-[:t]-`.
    In,
}

/// `VECTOR_DIST(lhs, rhs)` — at least one side must be a vertex embedding
/// attribute; the other is either a parameter/literal vector (search) or a
/// second embedding attribute (similarity join).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorDist {
    /// Left operand.
    pub lhs: VecRef,
    /// Right operand.
    pub rhs: VecRef,
}

/// A vector operand.
#[derive(Debug, Clone, PartialEq)]
pub enum VecRef {
    /// `alias.attr` — an embedding attribute on a pattern alias.
    Attr(String, String),
    /// `$param` — bound at execution time.
    Param(String),
}

/// Scalar/boolean expressions for `WHERE`.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `alias.attr`.
    Attr(String, String),
    /// Literal value.
    Literal(Value),
    /// `$param`.
    Param(String),
    /// Binary comparison.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// `VECTOR_DIST(a, b) < t` appears as a comparison whose LHS is this.
    VectorDist(VectorDist),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`.
    Eq,
    /// `!=` / `<>`.
    Neq,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
}

impl CmpOp {
    /// Source form.
    #[must_use]
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Runtime values: literals and bound parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Double(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Vector (query vectors bound as parameters).
    Vector(Vec<f32>),
}

impl Value {
    /// Numeric view (ints widen).
    #[must_use]
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            _ => None,
        }
    }

    /// Vector view.
    #[must_use]
    pub(crate) fn as_vector(&self) -> Option<&[f32]> {
        match self {
            Value::Vector(v) => Some(v),
            _ => None,
        }
    }
}

impl Expr {
    /// Collect the aliases this expression references.
    pub(crate) fn aliases(&self, out: &mut Vec<String>) {
        match self {
            Expr::Attr(a, _) => {
                if !out.contains(a) {
                    out.push(a.clone());
                }
            }
            Expr::Cmp(l, _, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                l.aliases(out);
                r.aliases(out);
            }
            Expr::Not(e) => e.aliases(out),
            Expr::VectorDist(vd) => {
                for side in [&vd.lhs, &vd.rhs] {
                    if let VecRef::Attr(a, _) = side {
                        if !out.contains(a) {
                            out.push(a.clone());
                        }
                    }
                }
            }
            Expr::Literal(_) | Expr::Param(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Vector(vec![1.0]).as_vector(), Some(&[1.0f32][..]));
        assert_eq!(Value::Int(1).as_vector(), None);
    }

    #[test]
    fn expr_alias_collection() {
        let e = Expr::And(
            Box::new(Expr::Cmp(
                Box::new(Expr::Attr("s".into(), "name".into())),
                CmpOp::Eq,
                Box::new(Expr::Literal(Value::Str("Alice".into()))),
            )),
            Box::new(Expr::Cmp(
                Box::new(Expr::Attr("t".into(), "length".into())),
                CmpOp::Gt,
                Box::new(Expr::Literal(Value::Int(1000))),
            )),
        );
        let mut aliases = Vec::new();
        e.aliases(&mut aliases);
        assert_eq!(aliases, vec!["s".to_string(), "t".to_string()]);
    }

    #[test]
    fn cmp_symbols() {
        assert_eq!(CmpOp::Le.symbol(), "<=");
        assert_eq!(CmpOp::Neq.symbol(), "!=");
    }
}
