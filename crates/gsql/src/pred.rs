//! Pushed-down predicates, compiled once per query.
//!
//! A `WHERE` term that mentions one pattern node runs inside that node's
//! `VertexAction` scan, once per live row. Compilation resolves everything
//! that does not depend on the row before the scan starts: attribute names
//! become column indices of the node type's [`AttrSchema`], literals and
//! `$params` become typed constants (an unbound or vector-valued parameter
//! is an error here, once, rather than a row that silently fails to match).
//! Evaluation then reads the row in place and allocates nothing.

use crate::ast::{CmpOp, Expr, Value};
use crate::exec::Params;
use std::cmp::Ordering;
use tg_storage::{AttrSchema, AttrValue};
use tv_common::{TvError, TvResult};

/// A compiled boolean predicate over one vertex's attribute row.
#[derive(Debug)]
pub(crate) enum Pred {
    Cmp(Operand, CmpOp, Operand),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
    /// A bare `alias.attr`: true iff the column holds `Bool(true)`.
    Flag(Option<usize>),
}

/// One side of a comparison.
#[derive(Debug)]
pub(crate) enum Operand {
    /// A column of the row; `None` for an attribute the type does not have.
    Col(Option<usize>),
    Num(f64),
    Str(String),
    Bool(bool),
}

/// An operand's value for one row, borrowed.
enum Scalar<'a> {
    Num(f64),
    Str(&'a str),
    Bool(bool),
}

/// The value of a constant expression: a literal, or a bound `$param`.
pub(crate) fn constant<'a>(expr: &'a Expr, params: &'a Params) -> TvResult<&'a Value> {
    match expr {
        Expr::Literal(v) => Ok(v),
        Expr::Param(p) => params
            .get(p)
            .ok_or_else(|| TvError::Execution(format!("unbound parameter '${p}'"))),
        other => Err(TvError::Execution(format!("not a constant: {other:?}"))),
    }
}

impl Pred {
    /// Compile `expr` against the attribute schema of the node it filters.
    pub(crate) fn compile(expr: &Expr, schema: &AttrSchema, params: &Params) -> TvResult<Pred> {
        let both = |l: &Expr, r: &Expr| -> TvResult<(Box<Pred>, Box<Pred>)> {
            Ok((
                Box::new(Pred::compile(l, schema, params)?),
                Box::new(Pred::compile(r, schema, params)?),
            ))
        };
        Ok(match expr {
            Expr::Cmp(l, op, r) => Pred::Cmp(
                Operand::compile(l, schema, params)?,
                *op,
                Operand::compile(r, schema, params)?,
            ),
            Expr::And(l, r) => {
                let (l, r) = both(l, r)?;
                Pred::And(l, r)
            }
            Expr::Or(l, r) => {
                let (l, r) = both(l, r)?;
                Pred::Or(l, r)
            }
            Expr::Not(inner) => Pred::Not(Box::new(Pred::compile(inner, schema, params)?)),
            Expr::Attr(_, name) => Pred::Flag(schema.index_of(name)),
            other => return Err(TvError::Execution(format!("not a predicate: {other:?}"))),
        })
    }

    /// Whether `row` (schema-ordered) satisfies the predicate.
    pub(crate) fn matches(&self, row: &[AttrValue]) -> bool {
        match self {
            Pred::Cmp(l, op, r) => compare(&l.of(row), *op, &r.of(row)),
            Pred::And(l, r) => l.matches(row) && r.matches(row),
            Pred::Or(l, r) => l.matches(row) || r.matches(row),
            Pred::Not(inner) => !inner.matches(row),
            Pred::Flag(col) => matches!(col.and_then(|c| row.get(c)), Some(AttrValue::Bool(true))),
        }
    }
}

impl Operand {
    fn compile(expr: &Expr, schema: &AttrSchema, params: &Params) -> TvResult<Operand> {
        if let Expr::Attr(_, name) = expr {
            return Ok(Operand::Col(schema.index_of(name)));
        }
        Ok(match constant(expr, params)? {
            Value::Int(i) => Operand::Num(*i as f64),
            Value::Double(d) => Operand::Num(*d),
            Value::Str(s) => Operand::Str(s.clone()),
            Value::Bool(b) => Operand::Bool(*b),
            Value::Vector(_) => {
                return Err(TvError::Execution(format!(
                    "a vector cannot be compared with a scalar: {expr:?}"
                )))
            }
        })
    }

    fn of<'a>(&'a self, row: &'a [AttrValue]) -> Scalar<'a> {
        match self {
            Operand::Num(n) => Scalar::Num(*n),
            Operand::Str(s) => Scalar::Str(s),
            Operand::Bool(b) => Scalar::Bool(*b),
            Operand::Col(col) => match col.and_then(|c| row.get(c)) {
                Some(AttrValue::Int(i)) => Scalar::Num(*i as f64),
                Some(AttrValue::Double(d)) => Scalar::Num(*d),
                Some(AttrValue::Str(s)) => Scalar::Str(s),
                Some(AttrValue::Bool(b)) => Scalar::Bool(*b),
                None => Scalar::Bool(false), // a missing attribute never matches
            },
        }
    }
}

fn compare(l: &Scalar<'_>, op: CmpOp, r: &Scalar<'_>) -> bool {
    let ord = match (l, r) {
        (Scalar::Str(a), Scalar::Str(b)) => Some(a.cmp(b)),
        (Scalar::Bool(a), Scalar::Bool(b)) => Some(a.cmp(b)),
        // Ints widen to f64, as they do against a DOUBLE column.
        (Scalar::Num(a), Scalar::Num(b)) => a.partial_cmp(b),
        _ => None,
    };
    let Some(ord) = ord else {
        // Incomparable types never match (except !=).
        return op == CmpOp::Neq;
    };
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Neq => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}
