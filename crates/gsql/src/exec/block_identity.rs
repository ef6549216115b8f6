//! Block-predicate identity: the compiled [`NodeFilter`], 64 rows to a
//! bitmap word, against the per-row reference interpreter of
//! `candidate_identity` (the `Expr` re-read for each row, attributes fetched
//! by name), over seeded random predicates and rows. Covered: all four
//! attribute types in every column (a `SetAttr` may store any type), NaN,
//! ±0, ±∞ and ints past 2^53; attributes the type does not have; constants
//! on either side of a comparison and columns on both; every operator under
//! nested `AND` / `OR` / `NOT`; every block length 1..=64 under a random
//! candidate mask; rows of one, two and four columns. Failures print the
//! arity, block length and case.

use super::candidate_identity::ref_pred;
use super::Params;
use crate::ast::{CmpOp, Expr, Value};
use crate::pred::NodeFilter;
use tg_storage::{AttrSchema, AttrType, AttrValue};
use tv_common::SplitMix64;

const COLUMNS: [(&str, AttrType); 4] = [
    ("i", AttrType::Int),
    ("d", AttrType::Double),
    ("s", AttrType::Str),
    ("b", AttrType::Bool),
];
/// The schema's names plus one it does not have.
const NAMES: [&str; 5] = ["i", "d", "s", "b", "missing"];
const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Neq,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const INTS: [i64; 10] = [
    0,
    1,
    -1,
    7,
    50,
    1 << 53,
    (1 << 53) + 1,
    -(1 << 53) - 1,
    i64::MAX,
    i64::MIN,
];
const DOUBLES: [f64; 12] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    7.0,
    50.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
];
const STRS: [&str; 5] = ["", "a", "ab", "b", "7"];

fn pick<T: Copy>(rng: &mut SplitMix64, from: &[T]) -> T {
    from[rng.next_below(from.len() as u64) as usize]
}

/// A value of `ty`.
fn value_of(rng: &mut SplitMix64, ty: AttrType) -> AttrValue {
    match ty {
        AttrType::Int => AttrValue::Int(pick(rng, &INTS)),
        AttrType::Double => AttrValue::Double(pick(rng, &DOUBLES)),
        AttrType::Str => AttrValue::Str(pick(rng, &STRS).into()),
        AttrType::Bool => AttrValue::Bool(rng.next_below(2) == 0),
    }
}

/// Mostly the column's declared type `declared`, one cell in four any type.
fn cell(rng: &mut SplitMix64, declared: AttrType) -> AttrValue {
    let ty = if rng.next_below(4) == 0 {
        pick(rng, &COLUMNS).1
    } else {
        declared
    };
    value_of(rng, ty)
}

fn constant(rng: &mut SplitMix64) -> Value {
    let ty = pick(rng, &COLUMNS).1;
    match value_of(rng, ty) {
        AttrValue::Int(i) => Value::Int(i),
        AttrValue::Double(d) => Value::Double(d),
        AttrValue::Str(s) => Value::Str(s),
        AttrValue::Bool(b) => Value::Bool(b),
    }
}

fn attr(rng: &mut SplitMix64) -> Expr {
    Expr::Attr("s".into(), pick(rng, &NAMES).into())
}

fn operand(rng: &mut SplitMix64) -> Expr {
    match rng.next_below(4) {
        0 | 1 => attr(rng),
        2 => Expr::Literal(constant(rng)),
        _ => Expr::Param(format!("p{}", rng.next_below(3))),
    }
}

fn predicate(rng: &mut SplitMix64, depth: u32) -> Expr {
    let boxed = |rng: &mut SplitMix64| Box::new(predicate(rng, depth - 1));
    match rng.next_below(if depth == 0 { 2 } else { 5 }) {
        0 => Expr::Cmp(
            Box::new(operand(rng)),
            pick(rng, &OPS),
            Box::new(operand(rng)),
        ),
        1 => attr(rng),
        2 => Expr::And(boxed(rng), boxed(rng)),
        3 => Expr::Or(boxed(rng), boxed(rng)),
        _ => Expr::Not(boxed(rng)),
    }
}

/// Over a schema of all four types, and over one- and two-column schemas
/// (the contiguous and strided column loops), where the other names read
/// as missing attributes.
#[test]
fn block_evaluator_matches_the_per_row_reference() {
    let mut rng = SplitMix64::new(0xB10C);
    for columns in [&COLUMNS[..], &COLUMNS[..1], &COLUMNS[1..3]] {
        let schema = AttrSchema::new(columns.iter().map(|&(n, t)| (n.to_string(), t))).unwrap();
        let arity = columns.len();
        for n in 1..=64usize {
            for case in 0..20 {
                let params: Params = (0..3)
                    .map(|p| (format!("p{p}"), constant(&mut rng)))
                    .collect();
                let terms: Vec<Expr> = (0..1 + rng.next_below(2))
                    .map(|_| predicate(&mut rng, 3))
                    .collect();
                let rows: Vec<AttrValue> = (0..n * arity)
                    .map(|c| cell(&mut rng, columns[c % arity].1))
                    .collect();
                let block = u64::MAX >> (64 - n);
                let mask = match rng.next_below(3) {
                    0 => block,
                    _ => rng.next_u64() & block,
                };
                let filter = NodeFilter::compile(&terms, &schema, &params).unwrap();
                let want = (0..n)
                    .filter(|&i| {
                        let row = &rows[i * arity..(i + 1) * arity];
                        let get = |name: &str| row.get(schema.index_of(name)?).cloned();
                        mask >> i & 1 == 1 && terms.iter().all(|t| ref_pred(t, &get, &params))
                    })
                    .fold(0, |word, i| word | 1 << i);
                assert_eq!(
                    filter.eval(mask, &rows),
                    want,
                    "{arity} columns, block of {n}, case {case}: {terms:?} over {rows:?}, \
                     mask {mask:#x}"
                );
            }
        }
    }
}
