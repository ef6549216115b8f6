//! Pushed-down predicates, compiled once per query and evaluated a block of
//! rows at a time.
//!
//! A `WHERE` term that mentions one pattern node runs inside that node's
//! `VertexAction` scan. Compilation resolves everything that does not depend
//! on the row before the scan starts: attribute names become column indices
//! of the node type's [`AttrSchema`] (an attribute the type does not have
//! becomes the constant it reads as, `false`), literals and `$params` become
//! typed constants (an unbound or vector-valued parameter is an error here,
//! once, rather than a row that silently fails to match). The scan then
//! hands over up to 64 rows at once and gets one bitmap word back: each
//! comparison picks its loop once per block, from its operand kinds and its
//! operator, and `AND` / `OR` / `NOT` are word operations. Rows are read in
//! place; nothing is allocated. A reader's rbac row rules on the node's type
//! are one more term of the same filter, so row security costs one more
//! word per block of the one scan.

use crate::ast::{CmpOp, Expr, Value};
use crate::exec::Params;
use std::cmp::Ordering;
use tg_graph::RowRule;
use tg_storage::{AttrSchema, AttrValue};
use tv_common::{TvError, TvResult};

/// One pattern node's pushed-down terms, compiled against its type: the
/// block predicate its scan runs.
#[derive(Debug)]
pub(crate) struct NodeFilter {
    terms: Vec<Pred>,
    /// Cells per row: the schema's column count.
    arity: usize,
}

/// A compiled boolean predicate over one vertex's attribute row.
#[derive(Debug)]
enum Pred {
    Cmp(Operand, CmpOp, Operand),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
    /// A bare `alias.attr`: true iff the column holds `Bool(true)`; `None`
    /// for an attribute the type does not have.
    Flag(Option<usize>),
    /// A grant's row rules (rbac): true iff some rule's column holds exactly
    /// its value. Exact [`AttrValue`] equality, not the GSQL `=`: an int
    /// does not widen to match a double. Empty (every rule named an
    /// attribute the type lacks) matches no row.
    Rules(Vec<(usize, AttrValue)>),
}

/// One side of a comparison.
#[derive(Debug)]
enum Operand {
    /// A column of the row.
    Col(usize),
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

impl NodeFilter {
    /// Compile the conjunction of `terms` against the schema of the node
    /// they filter.
    pub(crate) fn compile(terms: &[Expr], schema: &AttrSchema, params: &Params) -> TvResult<Self> {
        Ok(NodeFilter {
            terms: terms
                .iter()
                .map(|e| Pred::compile(e, schema, params))
                .collect::<TvResult<_>>()?,
            arity: schema.len(),
        })
    }

    /// The same filter, also requiring the reader's row `rules` on the
    /// node's type (`None`: the whole type may be read).
    pub(crate) fn with_rules(mut self, rules: Option<&[RowRule]>, schema: &AttrSchema) -> Self {
        if let Some(rules) = rules {
            let rules = rules
                .iter()
                .filter_map(|rule| Some((schema.index_of(&rule.attr)?, rule.value.clone())));
            self.terms.push(Pred::Rules(rules.collect()));
        }
        self
    }

    /// The members of `mask` whose rows pass every term. `rows` holds the
    /// block's rows, row-major, `arity` cells each; bit `i` of `mask` (and
    /// of the result) is row `i`.
    pub(crate) fn eval(&self, mask: u64, rows: &[AttrValue]) -> u64 {
        let block = Block {
            rows,
            arity: self.arity,
        };
        let mut word = mask;
        for term in &self.terms {
            if word == 0 {
                break;
            }
            word &= term.eval(&block);
        }
        word
    }
}

/// Up to 64 rows, row-major.
struct Block<'a> {
    rows: &'a [AttrValue],
    arity: usize,
}

/// The word whose bit `i` is `bit` of row `i`'s cell in column `col`. The
/// bits go to a byte each first and are packed eight at a time after, so
/// the rows do not wait on each other (or on a branch) for the word.
fn word(block: &Block<'_>, col: usize, mut bit: impl FnMut(&AttrValue) -> bool) -> u64 {
    let (rows, arity) = (block.rows, block.arity);
    let mut bytes = [0u8; 64];
    if arity == 1 {
        // One column: the cells are contiguous, the common case.
        for (byte, cell) in bytes.iter_mut().zip(rows) {
            *byte = u8::from(bit(cell));
        }
    } else {
        for (byte, row) in bytes.iter_mut().zip(rows.chunks_exact(arity)) {
            *byte = u8::from(bit(&row[col]));
        }
    }
    bytes.chunks_exact(8).rev().fold(0, |word, eight| {
        let eight = u64::from_le_bytes(eight.try_into().expect("eight bytes"));
        word << 8 | eight.wrapping_mul(0x0102_0408_1020_4080) >> 56
    })
}

/// All ones or all zeros.
fn splat(bit: bool) -> u64 {
    if bit {
        u64::MAX
    } else {
        0
    }
}

impl Pred {
    /// Compile `expr` against the attribute schema of the node it filters.
    fn compile(expr: &Expr, schema: &AttrSchema, params: &Params) -> TvResult<Pred> {
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

    /// The word of the block's rows that satisfy the predicate (bits past
    /// the block's last row are unspecified).
    fn eval(&self, block: &Block<'_>) -> u64 {
        match self {
            Pred::Cmp(l, op, r) => compare_block(l, *op, r, block),
            Pred::And(l, r) => match l.eval(block) {
                0 => 0,
                word => word & r.eval(block),
            },
            Pred::Or(l, r) => l.eval(block) | r.eval(block),
            Pred::Not(inner) => !inner.eval(block),
            Pred::Flag(None) => 0,
            Pred::Flag(Some(col)) => {
                word(block, *col, |cell| matches!(cell, AttrValue::Bool(true)))
            }
            Pred::Rules(rules) => rules.iter().fold(0, |hits, (col, value)| {
                hits | word(block, *col, |cell| cell == value)
            }),
        }
    }
}

impl Operand {
    fn compile(expr: &Expr, schema: &AttrSchema, params: &Params) -> TvResult<Operand> {
        if let Expr::Attr(_, name) = expr {
            // A missing attribute reads as `false` in every row.
            return Ok(schema
                .index_of(name)
                .map_or(Operand::Bool(false), Operand::Col));
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

    /// The value of a constant operand.
    fn constant(&self) -> Option<Scalar<'_>> {
        match self {
            Operand::Num(n) => Some(Scalar::Num(*n)),
            Operand::Str(s) => Some(Scalar::Str(s)),
            Operand::Bool(b) => Some(Scalar::Bool(*b)),
            Operand::Col(_) => None,
        }
    }
}

fn scalar(cell: &AttrValue) -> Scalar<'_> {
    match cell {
        // Ints widen to f64, as they do against a DOUBLE column.
        AttrValue::Int(i) => Scalar::Num(*i as f64),
        AttrValue::Double(d) => Scalar::Num(*d),
        AttrValue::Str(s) => Scalar::Str(s),
        AttrValue::Bool(b) => Scalar::Bool(*b),
    }
}

/// `l op r` over a block: one loop, chosen here, per comparison.
fn compare_block(l: &Operand, op: CmpOp, r: &Operand, block: &Block<'_>) -> u64 {
    match (l, r) {
        (Operand::Col(a), Operand::Col(b)) => {
            let (rows, arity) = (block.rows, block.arity);
            (0..rows.len() / arity).fold(0, |word, i| {
                let (x, y) = (&rows[i * arity + a], &rows[i * arity + b]);
                word | u64::from(compare(&scalar(x), op, &scalar(y))) << i
            })
        }
        (Operand::Col(col), k) => column_against(block, *col, op, k),
        // `k op x` is `x op' k` with the operator mirrored.
        (k, Operand::Col(col)) => column_against(block, *col, mirrored(op), k),
        (k, j) => match (k.constant(), j.constant()) {
            (Some(k), Some(j)) => splat(compare(&k, op, &j)),
            _ => unreachable!("both operands are constants"),
        },
    }
}

fn mirrored(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Neq => op,
    }
}

/// `cell op k` for each cell. A cell of another type than the constant
/// matches only `!=`, as in [`compare`].
fn column_against(block: &Block<'_>, col: usize, op: CmpOp, k: &Operand) -> u64 {
    let other = op == CmpOp::Neq;
    match k {
        Operand::Num(k) => numbers_against(block, col, op, *k),
        Operand::Str(k) => word(block, col, |cell| match cell {
            AttrValue::Str(s) => holds(op, s.as_str().cmp(k)),
            _ => other,
        }),
        Operand::Bool(k) => word(block, col, |cell| match cell {
            AttrValue::Bool(b) => holds(op, b.cmp(k)),
            _ => other,
        }),
        Operand::Col(_) => unreachable!("a column against a constant"),
    }
}

/// `cell op k` for a numeric constant, the IEEE comparison picked once. It
/// is [`compare`]'s rule: NaN on either side matches only `!=`, as does a
/// cell that is not a number.
fn numbers_against(block: &Block<'_>, col: usize, op: CmpOp, k: f64) -> u64 {
    match op {
        CmpOp::Eq => numbers(block, col, |x| x == k, false),
        CmpOp::Neq => numbers(block, col, |x| x != k, true),
        CmpOp::Lt => numbers(block, col, |x| x < k, false),
        CmpOp::Le => numbers(block, col, |x| x <= k, false),
        CmpOp::Gt => numbers(block, col, |x| x > k, false),
        CmpOp::Ge => numbers(block, col, |x| x >= k, false),
    }
}

/// `hit` of each numeric cell (ints widen to `f64`); `other` for the rest.
fn numbers(block: &Block<'_>, col: usize, hit: impl Fn(f64) -> bool, other: bool) -> u64 {
    word(block, col, |cell| match cell {
        AttrValue::Int(i) => hit(*i as f64),
        AttrValue::Double(d) => hit(*d),
        AttrValue::Str(_) | AttrValue::Bool(_) => other,
    })
}

fn holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Neq => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

fn compare(l: &Scalar<'_>, op: CmpOp, r: &Scalar<'_>) -> bool {
    let ord = match (l, r) {
        (Scalar::Str(a), Scalar::Str(b)) => Some(a.cmp(b)),
        (Scalar::Bool(a), Scalar::Bool(b)) => Some(a.cmp(b)),
        (Scalar::Num(a), Scalar::Num(b)) => a.partial_cmp(b),
        _ => None,
    };
    // Incomparable types never match (except !=).
    ord.map_or(op == CmpOp::Neq, |ord| holds(op, ord))
}
