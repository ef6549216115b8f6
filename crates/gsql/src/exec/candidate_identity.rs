//! Candidate-set identity: the compiled, bitmap-to-bitmap candidate path of
//! `node_candidates` against a naive reference kept here. The reference never
//! reads the store: it replays the fixture's own log of committed deltas up
//! to the read TID into plain maps, then walks every vertex one at a time,
//! re-interpreting each predicate per row with attributes fetched by name.
//! The two must agree member for member on a graph whose store is all delta
//! tail, fully folded, and folded then mutated, at the latest and at every
//! addressable historical TID. Similarity joins are held the same way: the
//! reference ranks the ends of the whole paths over the model, reading only
//! the endpoints' stored vectors.

use super::{
    candidates_of, limit_of, node_candidates, readable_rows, run_join, Params, QueryOutput,
};
use crate::ast::{CmpOp, Expr, Value};
use crate::parser::parse;
use crate::sema::{pushdown_predicates, resolve, QueryKind, Resolved};
use std::collections::{BTreeMap, BTreeSet};
use tg_graph::{AccessControl, Graph, Role, RowRule, VertexSet};
use tg_storage::{AttrSchema, AttrType, AttrValue, GraphDelta};
use tv_common::ids::SegmentLayout;
use tv_common::metric::distance;
use tv_common::{Deadline, DistanceMetric, SplitMix64, Tid, VertexId};
use tv_embedding::{EmbeddingTypeDef, ServiceConfig};

const DOC: u32 = 0;
const AUTHOR: u32 = 1;
const WROTE: u32 = 0;
const DOCS: usize = 60;
const AUTHORS: usize = 7;

/// The benchmark's four texts first, then one per predicate shape.
const TEXTS: &[&str] = &[
    "SELECT s FROM (s:Doc) WHERE s.bucket < 50 ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 10",
    "SELECT s FROM (s:Doc) WHERE s.bucket < 10 ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 10",
    "SELECT s FROM (s:Doc) WHERE s.bucket < 1 ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 10",
    "SELECT s FROM (a:Author)-[:wrote]->(s:Doc) WHERE a.name = $n \
     ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 10",
    "SELECT s FROM (s:Doc) WHERE s.bucket >= 20 AND s.bucket < $hi AND s.title = \"t1\"",
    "SELECT s FROM (s:Doc) WHERE s.bucket < 5 OR s.title = \"t3\" OR s.score > 0.9",
    "SELECT s FROM (s:Doc) WHERE NOT (s.bucket < 50 OR s.flag)",
    "SELECT s FROM (s:Doc) WHERE s.flag",
    "SELECT s FROM (s:Doc) WHERE NOT s.flag AND s.flag = $yes",
    // Type mismatches: incomparable operands match only `!=`.
    "SELECT s FROM (s:Doc) WHERE s.bucket = \"7\"",
    "SELECT s FROM (s:Doc) WHERE s.title < 3",
    "SELECT s FROM (s:Doc) WHERE s.title != 3 AND s.flag != 1",
    "SELECT s FROM (s:Doc) WHERE s.bucket != 7 AND s.score <= $hi",
    "SELECT s FROM (s:Doc) WHERE 50 > s.bucket AND s.score != s.bucket",
    "SELECT s FROM (s:Doc) WHERE s.title >= \"t1\" AND s.title <= \"t3\"",
    // Patterns: forward with predicates on both ends, reverse, two hops.
    "SELECT s FROM (a:Author)-[:wrote]->(s:Doc) WHERE a.name != $n AND s.bucket < 50",
    "SELECT a FROM (s:Doc)<-[:wrote]-(a:Author) WHERE s.bucket < 10",
    "SELECT a FROM (s:Doc)<-[:wrote]-(a:Author) WHERE s.flag AND a.name > \"a2\"",
    "SELECT t FROM (s:Doc)<-[:wrote]-(a:Author)-[:wrote]->(t:Doc) WHERE s.bucket < 3 AND t.flag",
];

/// Texts that select the first or a middle pattern node: a node the
/// forward pass alone leaves too wide.
const SELECT_EARLIER: &[&str] = &[
    "SELECT a FROM (a:Author)-[:wrote]->(s:Doc) WHERE s.bucket < 10",
    "SELECT s FROM (s:Doc)<-[:wrote]-(a:Author) WHERE a.name = $n",
    "SELECT s FROM (s:Doc)<-[:wrote]-(a:Author) WHERE a.name > \"a2\" \
     ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 10",
    "SELECT a FROM (s:Doc)<-[:wrote]-(a:Author)-[:wrote]->(t:Doc) WHERE s.bucket < 3 AND t.flag",
    "SELECT s FROM (s:Doc)<-[:wrote]-(a:Author)-[:wrote]->(t:Doc) \
     WHERE t.bucket < 5 AND a.name != $n",
];

/// Similarity joins: forward and reverse steps, 3 to 5 nodes, endpoints at
/// the ends and inside the pattern, in both orders.
const JOINS: &[&str] = &[
    "SELECT s, t FROM (s:Doc)<-[:wrote]-(a:Author)-[:wrote]->(t:Doc) \
     ORDER BY VECTOR_DIST(s.emb, t.emb) LIMIT 10",
    "SELECT s, t FROM (s:Doc)<-[:wrote]-(a:Author)-[:wrote]->(t:Doc) \
     WHERE s.bucket < 40 AND t.flag AND a.name != $n \
     ORDER BY VECTOR_DIST(s.emb, t.emb) LIMIT 1000",
    "SELECT s, t FROM (a:Author)-[:wrote]->(s:Doc)<-[:wrote]-(b:Author)-[:wrote]->(t:Doc) \
     WHERE a.name < \"a4\" ORDER BY VECTOR_DIST(s.emb, t.emb) LIMIT 12",
    "SELECT t, s FROM (a:Author)-[:wrote]->(s:Doc)<-[:wrote]-(b:Author)-[:wrote]->(t:Doc) \
     WHERE t.bucket < 60 ORDER BY VECTOR_DIST(t.emb, s.emb) LIMIT 1000",
    "SELECT s, t FROM (s:Doc)<-[:wrote]-(a:Author)-[:wrote]->(m:Doc)<-[:wrote]-(b:Author)\
     -[:wrote]->(t:Doc) WHERE m.flag ORDER BY VECTOR_DIST(s.emb, t.emb) LIMIT 15",
];

fn params() -> Params {
    let mut p = Params::new();
    p.insert("qv".into(), Value::Vector(vec![0.5; 4]));
    p.insert("n".into(), Value::Str("a3".into()));
    p.insert("hi".into(), Value::Int(70));
    p.insert("yes".into(), Value::Bool(true));
    p
}

fn doc_row(rng: &mut SplitMix64, i: usize) -> Vec<AttrValue> {
    vec![
        AttrValue::Int(rng.next_below(100) as i64),
        AttrValue::Bool(rng.next_below(2) == 0),
        AttrValue::Str(format!("t{}", i % 5)),
        AttrValue::Double(rng.next_f64()),
    ]
}

struct Fixture {
    graph: Graph,
    docs: Vec<VertexId>,
    authors: Vec<VertexId>,
    rng: SplitMix64,
    /// Every committed graph delta with its TID and vertex type — all the
    /// reference knows about the graph.
    log: Vec<(Tid, u32, GraphDelta)>,
}

impl Fixture {
    /// Commit `deltas` as one transaction (a doc upsert also gets a vector)
    /// and log them.
    fn commit(&mut self, deltas: Vec<(u32, GraphDelta)>) {
        let mut txn = self.graph.txn();
        for (t, delta) in deltas.iter().cloned() {
            txn = match delta {
                GraphDelta::UpsertVertex { id, attrs } if t == DOC => txn
                    .upsert_vertex(t, id, attrs)
                    .set_vector(0, id, vec![self.rng.next_f32(); 4]),
                GraphDelta::UpsertVertex { id, attrs } => txn.upsert_vertex(t, id, attrs),
                GraphDelta::DeleteVertex { id } => txn.delete_vertex(t, id),
                GraphDelta::SetAttr { id, col, value } => txn.set_attr(t, id, col, value),
                GraphDelta::AddEdge { etype, from, to } => txn.add_edge(etype, t, from, to),
                GraphDelta::RemoveEdge { etype, from, to } => txn.remove_edge(etype, t, from, to),
            };
        }
        let tid = txn.commit().unwrap();
        self.log
            .extend(deltas.into_iter().map(|(t, delta)| (tid, t, delta)));
    }
}

fn upsert(t: u32, id: VertexId, attrs: Vec<AttrValue>) -> (u32, GraphDelta) {
    (t, GraphDelta::UpsertVertex { id, attrs })
}

fn set_attr(t: u32, id: VertexId, col: usize, value: AttrValue) -> (u32, GraphDelta) {
    (t, GraphDelta::SetAttr { id, col, value })
}

fn wrote(from: VertexId, to: VertexId, add: bool) -> (u32, GraphDelta) {
    let etype = WROTE;
    let delta = if add {
        GraphDelta::AddEdge { etype, from, to }
    } else {
        GraphDelta::RemoveEdge { etype, from, to }
    };
    (AUTHOR, delta)
}

/// `Doc(bucket, flag, title, score)` over four segments, `Author(name)`,
/// `wrote: Author -> Doc`; loaded in several transactions so that historical
/// TIDs see partial graphs. The last two docs are allocated and pointed at
/// but never upserted: a hop must drop them on liveness alone.
fn fixture() -> Fixture {
    let graph = Graph::with_config(
        SegmentLayout::with_capacity(16),
        ServiceConfig {
            planner: tv_common::PlannerConfig::default().with_brute_threshold(2),
            query_threads: 2,
            default_ef: 64,
        },
    );
    graph
        .create_vertex_type(
            "Doc",
            &[
                ("bucket", AttrType::Int),
                ("flag", AttrType::Bool),
                ("title", AttrType::Str),
                ("score", AttrType::Double),
            ],
        )
        .unwrap();
    graph
        .create_vertex_type("Author", &[("name", AttrType::Str)])
        .unwrap();
    graph.create_edge_type("wrote", "Author", "Doc").unwrap();
    graph
        .add_embedding_attribute(
            "Doc",
            EmbeddingTypeDef::new("emb", 4, "M", DistanceMetric::L2),
        )
        .unwrap();
    let docs = graph.allocate_many(DOC, DOCS + 2).unwrap();
    let authors = graph.allocate_many(AUTHOR, AUTHORS).unwrap();
    let mut f = Fixture {
        graph,
        docs,
        authors,
        rng: SplitMix64::new(0xCA9D),
        log: Vec::new(),
    };
    let names = (0..AUTHORS).map(|i| AttrValue::Str(format!("a{i}")));
    f.commit(
        f.authors
            .iter()
            .zip(names)
            .map(|(&a, name)| upsert(AUTHOR, a, vec![name]))
            .collect(),
    );
    for chunk in 0..4 {
        let mut deltas = Vec::new();
        for i in chunk * 15..(chunk + 1) * 15 {
            deltas.push(upsert(DOC, f.docs[i], doc_row(&mut f.rng, i)));
            deltas.push(wrote(f.authors[i % AUTHORS], f.docs[i], true));
        }
        f.commit(deltas);
    }
    f.commit(vec![
        wrote(f.authors[3], f.docs[DOCS], true),
        wrote(f.authors[0], f.docs[DOCS + 1], true),
    ]);
    f
}

impl Fixture {
    /// SetAttr on every column kind, deletes, a re-upsert of a deleted doc,
    /// a first upsert of a dangling target, and edge churn — each its own
    /// transaction, so each is a historical TID.
    fn mutate(&mut self) {
        let (docs, authors) = (self.docs.clone(), self.authors.clone());
        for i in [1, 17, 33, 49] {
            let bucket = AttrValue::Int(self.rng.next_below(100) as i64);
            self.commit(vec![set_attr(DOC, docs[i], 0, bucket)]);
            self.commit(vec![
                set_attr(DOC, docs[i + 1], 1, AttrValue::Bool(i % 2 == 0)),
                set_attr(DOC, docs[i + 1], 2, AttrValue::Str("t1".into())),
            ]);
        }
        for i in [0, 16, 34, 59] {
            self.commit(vec![(DOC, GraphDelta::DeleteVertex { id: docs[i] })]);
        }
        self.commit(vec![(AUTHOR, GraphDelta::DeleteVertex { id: authors[5] })]);
        let row = doc_row(&mut self.rng, 16);
        self.commit(vec![
            upsert(DOC, docs[16], row),
            wrote(authors[2], docs[16], true),
        ]);
        let row = doc_row(&mut self.rng, DOCS);
        self.commit(vec![upsert(DOC, docs[DOCS], row)]);
        self.commit(vec![
            wrote(authors[3], docs[3], false),
            wrote(authors[3], docs[4], true),
        ]);
        self.commit(vec![set_attr(
            AUTHOR,
            authors[3],
            0,
            AttrValue::Str("a9".into()),
        )]);
    }

    /// The graph at `tid` according to the log alone.
    fn model_at(&self, tid: Tid) -> Model {
        let mut m = Model::default();
        for (_, t, delta) in self.log.iter().filter(|(at, ..)| *at <= tid) {
            let key = (*t, delta.home_vertex());
            match delta {
                GraphDelta::UpsertVertex { attrs, .. } => {
                    m.rows.insert(key, attrs.clone());
                }
                GraphDelta::DeleteVertex { .. } => {
                    m.rows.remove(&key);
                    m.edges.retain(|&(from, _), _| from != key);
                }
                GraphDelta::SetAttr { col, value, .. } => {
                    if let Some(slot) = m.rows.get_mut(&key).and_then(|r| r.get_mut(*col)) {
                        *slot = value.clone();
                    }
                }
                GraphDelta::AddEdge { etype, to, .. } => {
                    let list = m.edges.entry((key, *etype)).or_default();
                    if !list.contains(to) {
                        list.push(*to);
                    }
                }
                GraphDelta::RemoveEdge { etype, to, .. } => {
                    if let Some(list) = m.edges.get_mut(&(key, *etype)) {
                        list.retain(|t| t != to);
                    }
                }
            }
        }
        m
    }
}

/// Live rows and out-edges, keyed by (vertex type, id).
#[derive(Default)]
struct Model {
    rows: BTreeMap<(u32, VertexId), Vec<AttrValue>>,
    edges: BTreeMap<((u32, VertexId), u32), Vec<VertexId>>,
}

// ---- the reference: interpreted, by name, one point read at a time --------

fn ref_scalar(e: &Expr, get: &dyn Fn(&str) -> Option<AttrValue>, params: &Params) -> Value {
    match e {
        Expr::Attr(_, name) => match get(name) {
            Some(AttrValue::Int(i)) => Value::Int(i),
            Some(AttrValue::Double(d)) => Value::Double(d),
            Some(AttrValue::Str(s)) => Value::Str(s),
            Some(AttrValue::Bool(b)) => Value::Bool(b),
            None => Value::Bool(false),
        },
        Expr::Literal(v) => v.clone(),
        Expr::Param(p) => params[p].clone(),
        other => panic!("not a scalar: {other:?}"),
    }
}

pub(super) fn ref_pred(e: &Expr, get: &dyn Fn(&str) -> Option<AttrValue>, params: &Params) -> bool {
    use std::cmp::Ordering;
    match e {
        Expr::Cmp(l, op, r) => {
            let (l, r) = (ref_scalar(l, get, params), ref_scalar(r, get, params));
            let ord = match (&l, &r) {
                (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
                (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
                _ => match (l.as_f64(), r.as_f64()) {
                    (Some(a), Some(b)) => a.partial_cmp(&b),
                    _ => None,
                },
            };
            match (ord, op) {
                (None, op) => *op == CmpOp::Neq,
                (Some(o), CmpOp::Eq) => o == Ordering::Equal,
                (Some(o), CmpOp::Neq) => o != Ordering::Equal,
                (Some(o), CmpOp::Lt) => o == Ordering::Less,
                (Some(o), CmpOp::Le) => o != Ordering::Greater,
                (Some(o), CmpOp::Gt) => o == Ordering::Greater,
                (Some(o), CmpOp::Ge) => o != Ordering::Less,
            }
        }
        Expr::And(l, r) => ref_pred(l, get, params) && ref_pred(r, get, params),
        Expr::Or(l, r) => ref_pred(l, get, params) || ref_pred(r, get, params),
        Expr::Not(inner) => !ref_pred(inner, get, params),
        Expr::Attr(_, name) => matches!(get(name), Some(AttrValue::Bool(true))),
        other => panic!("not a predicate: {other:?}"),
    }
}

/// Every vertex of `type_id` in the model that passes `preds`.
fn ref_select(
    m: &Model,
    schema: &AttrSchema,
    type_id: u32,
    preds: &[Expr],
    params: &Params,
) -> BTreeSet<VertexId> {
    m.rows
        .iter()
        .filter(|((t, _), _)| *t == type_id)
        .filter(|(_, row)| {
            let get = |name: &str| row.get(schema.index_of(name)?).cloned();
            preds.iter().all(|p| ref_pred(p, &get, params))
        })
        .map(|(&(_, id), _)| id)
        .collect()
}

fn reference(
    g: &Graph,
    m: &Model,
    r: &Resolved,
    params: &Params,
) -> Vec<Option<BTreeSet<VertexId>>> {
    let n = r.node_types.len();
    let (per_node, residual) = pushdown_predicates(r.graph_filter.as_ref(), &r.alias_of, n);
    assert!(residual.is_empty());
    if n == 1 && per_node[0].is_empty() {
        return vec![None];
    }
    let select = |node: usize| {
        let t = r.node_types[node];
        let schema = g.catalog().vertex_type_by_id(t).unwrap().schema.clone();
        ref_select(m, &schema, t, &per_node[node], params)
    };
    let mut sets = vec![select(0)];
    for (i, edge) in r.edges.iter().enumerate() {
        let passing = select(i + 1);
        let source_type = r.node_types[if edge.forward { i } else { i + 1 }];
        let out = |v: VertexId| {
            let list = m.edges.get(&((source_type, v), edge.etype));
            list.cloned().unwrap_or_default()
        };
        let right = if edge.forward {
            let targets: BTreeSet<VertexId> = sets[i].iter().flat_map(|&v| out(v)).collect();
            targets.intersection(&passing).copied().collect()
        } else {
            passing
                .into_iter()
                .filter(|&v| out(v).iter().any(|t| sets[i].contains(t)))
                .collect()
        };
        sets.push(right);
    }
    sets.into_iter().map(Some).collect()
}

/// Every whole path of the pattern over the model, each node passing its
/// predicates.
fn whole_paths(g: &Graph, m: &Model, r: &Resolved, params: &Params) -> Vec<Vec<VertexId>> {
    let (per_node, _) =
        pushdown_predicates(r.graph_filter.as_ref(), &r.alias_of, r.node_types.len());
    let passing: Vec<BTreeSet<VertexId>> = (0..r.node_types.len())
        .map(|node| {
            let t = r.node_types[node];
            let schema = g.catalog().vertex_type_by_id(t).unwrap().schema.clone();
            ref_select(m, &schema, t, &per_node[node], params)
        })
        .collect();
    let linked = |i: usize, from: VertexId, to: VertexId| {
        let edge = r.edges[i];
        let (source, (s, t)) = if edge.forward {
            (r.node_types[i], (from, to))
        } else {
            (r.node_types[i + 1], (to, from))
        };
        m.edges
            .get(&((source, s), edge.etype))
            .is_some_and(|list| list.contains(&t))
    };
    let mut paths: Vec<Vec<VertexId>> = passing[0].iter().map(|&v| vec![v]).collect();
    for i in 0..r.edges.len() {
        paths = paths
            .into_iter()
            .flat_map(|path| {
                let last = path[i];
                passing[i + 1]
                    .iter()
                    .filter(move |&&next| linked(i, last, next))
                    .map(move |&next| [path.clone(), vec![next]].concat())
            })
            .collect();
    }
    paths
}

/// The selected node's members on some whole path of the pattern.
fn path_reference(
    g: &Graph,
    m: &Model,
    r: &Resolved,
    params: &Params,
    selected: usize,
) -> BTreeSet<VertexId> {
    let paths = whole_paths(g, m, r, params);
    paths.into_iter().map(|path| path[selected]).collect()
}

/// A join's answer from the whole paths: their distinct (s, t) ends, a
/// same-type pair in id order and s = t dropped, ranked by the distance
/// between the vectors stored at `tid`, ties broken by (s, t), the first
/// `LIMIT` of them.
fn join_reference(
    g: &Graph,
    m: &Model,
    r: &Resolved,
    params: &Params,
    tid: Tid,
) -> Vec<(VertexId, VertexId, f32)> {
    let ((s_node, s_attr), (t_node, t_attr)) = r.join.unwrap();
    let same_type = r.node_types[s_node] == r.node_types[t_node];
    let pairs: BTreeSet<(VertexId, VertexId)> = whole_paths(g, m, r, params)
        .into_iter()
        .map(|path| (path[s_node], path[t_node]))
        .map(|(s, t)| if same_type && t < s { (t, s) } else { (s, t) })
        .filter(|(s, t)| s != t)
        .collect();
    let metric = g.embeddings().attr(s_attr).unwrap().def.metric;
    let mut ranked: Vec<(VertexId, VertexId, f32)> = pairs
        .into_iter()
        .filter_map(|(s, t)| {
            let sv = g.embedding_of(s_attr, s, tid).unwrap()?;
            let tv = g.embedding_of(t_attr, t, tid).unwrap()?;
            Some((s, t, distance(metric, &sv, &tv)))
        })
        .collect();
    ranked.sort_by(|a, b| a.2.total_cmp(&b.2).then((a.0, a.1).cmp(&(b.0, b.1))));
    ranked.truncate(limit_of(r, params).unwrap());
    ranked
}

/// The node whose set a query reads: the vector target, else the selection.
fn selected_node(r: &Resolved) -> usize {
    match r.kind {
        QueryKind::TopK | QueryKind::Range => r.target.unwrap().0,
        _ => r.alias_of[&r.query.select[0]],
    }
}

/// `r` with the reader's row rules added as `WHERE` conjuncts on each
/// node's alias, a GSQL `=` per rule, ORed.
fn with_rule_conjuncts(r: &Resolved, rules: &[Option<Vec<RowRule>>]) -> Resolved {
    let mut out = r.clone();
    for (node, rules) in rules.iter().enumerate() {
        let Some(rules) = rules else { continue };
        let alias = r.query.pattern.nodes[node]
            .alias
            .clone()
            .expect("aliased node");
        let term = rules
            .iter()
            .map(|rule| {
                let value = match &rule.value {
                    AttrValue::Str(s) => Value::Str(s.clone()),
                    AttrValue::Bool(b) => Value::Bool(*b),
                    AttrValue::Int(i) => Value::Int(*i),
                    AttrValue::Double(d) => Value::Double(*d),
                };
                let attr = Box::new(Expr::Attr(alias.clone(), rule.attr.clone()));
                Expr::Cmp(attr, CmpOp::Eq, Box::new(Expr::Literal(value)))
            })
            .reduce(|a, b| Expr::Or(Box::new(a), Box::new(b)))
            .expect("a restricted grant has a rule");
        out.graph_filter = Some(match out.graph_filter.take() {
            Some(filter) => Expr::And(Box::new(filter), Box::new(term)),
            None => term,
        });
    }
    out
}

fn members(set: &VertexSet, type_id: u32) -> BTreeSet<VertexId> {
    assert_eq!(
        set.types(),
        if set.is_empty() {
            vec![]
        } else {
            vec![type_id]
        }
    );
    set.of_type(type_id).into_iter().collect()
}

fn assert_identical(f: &Fixture, r: &Resolved, params: &Params, tid: Tid, what: &str) {
    let got = node_candidates(&f.graph, r, params, tid).unwrap();
    let want = reference(&f.graph, &f.model_at(tid), r, params);
    assert_eq!(got.len(), want.len(), "{what}");
    for (node, (got, want)) in got.iter().zip(&want).enumerate() {
        let got = got.as_ref().map(|s| members(s, r.node_types[node]));
        assert_eq!(&got, want, "{what}: node {node} at {tid}");
    }
}

/// Every text, plus the shapes the parser cannot produce, at each TID.
fn check_all(f: &Fixture, tids: std::ops::RangeInclusive<u64>, state: &str) {
    let g = &f.graph;
    let params = params();
    for text in TEXTS {
        let r = resolve(g, parse(text).unwrap()).unwrap();
        for t in tids.clone() {
            assert_identical(f, &r, &params, Tid(t), &format!("{state}: {text}"));
        }
    }
    // An attribute the type does not have (sema rejects it in a query text,
    // a stale plan need not): it reads as `Bool(false)`, so it never matches
    // a comparison except `!=` against another type — and `= FALSE`.
    let mut r = resolve(g, parse(TEXTS[0]).unwrap()).unwrap();
    let missing = || Box::new(Expr::Attr("s".into(), "no_such".into()));
    let lit = |v: Value| Box::new(Expr::Literal(v));
    for filter in [
        Expr::Cmp(missing(), CmpOp::Lt, lit(Value::Int(50))),
        Expr::Cmp(missing(), CmpOp::Neq, lit(Value::Int(50))),
        Expr::Cmp(missing(), CmpOp::Eq, lit(Value::Bool(false))),
        Expr::Or(missing(), Box::new(Expr::Not(missing()))),
    ] {
        r.graph_filter = Some(filter.clone());
        for t in tids.clone() {
            assert_identical(f, &r, &params, Tid(t), &format!("{state}: {filter:?}"));
        }
    }
    // Unconstrained single node: no candidate set at all.
    let pure = "SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 10";
    let r = resolve(g, parse(pure).unwrap()).unwrap();
    assert_eq!(
        node_candidates(g, &r, &params, g.read_tid()).unwrap(),
        vec![None]
    );

    // Selecting the first or a middle node: the forward pass, narrowed back
    // from the last node, against every whole path over the model.
    for text in SELECT_EARLIER.iter().chain(TEXTS) {
        let r = resolve(g, parse(text).unwrap()).unwrap();
        let node = selected_node(&r);
        for t in tids.clone() {
            let tid = Tid(t);
            let got = candidates_of(g, &r, &params, tid, node).unwrap();
            let Some(got) = got else { continue };
            let want = path_reference(g, &f.model_at(tid), &r, &params, node);
            assert_eq!(
                members(&got, r.node_types[node]),
                want,
                "{state}: {text} at {tid}"
            );
        }
    }

    // Similarity joins: the pairs of the whole paths, ranked.
    for text in JOINS {
        let r = resolve(g, parse(text).unwrap()).unwrap();
        assert_eq!(r.kind, QueryKind::SimilarityJoin, "{text}");
        for t in tids.clone() {
            let tid = Tid(t);
            let QueryOutput::Pairs(got) = run_join(g, &r, &params, tid, Deadline::none()).unwrap()
            else {
                panic!("a join returns pairs")
            };
            let got: Vec<_> = got.iter().map(|(s, t, d)| (s.id, t.id, *d)).collect();
            let want = join_reference(g, &f.model_at(tid), &r, &params, tid);
            assert_eq!(got, want, "{state}: {text} at {tid}");
        }
    }

    // Row security: the authorized set, and its intersection with a query's
    // candidates, against the same one-row-at-a-time reference.
    let acl = AccessControl::new();
    acl.define_role(
        "t1-or-flagged",
        Role::default()
            .allow_rows(DOC, "title", AttrValue::Str("t1".into()))
            .allow_rows(DOC, "flag", AttrValue::Bool(true))
            .allow_rows(DOC, "no_such", AttrValue::Int(1))
            .allow_rows(AUTHOR, "name", AttrValue::Str("a2".into()))
            .allow_rows(AUTHOR, "name", AttrValue::Str("a3".into())),
    );
    acl.assign("u", "t1-or-flagged").unwrap();
    let rule = parse("SELECT s FROM (s:Doc) WHERE s.title = \"t1\" OR s.flag").unwrap();
    let rule = [rule.where_clause.unwrap()];
    let r = resolve(g, parse(TEXTS[0]).unwrap()).unwrap();
    let schema = g.catalog().vertex_type_by_id(DOC).unwrap().schema.clone();
    let as_u = |mut r: Resolved| {
        r.row_rules = acl.row_rules("u", &r.node_types).unwrap();
        r
    };
    for t in tids.clone() {
        let tid = Tid(t);
        let model = f.model_at(tid);
        let authorized = readable_rows(g, &acl, "u", &[0], tid).unwrap();
        let want_auth = ref_select(&model, &schema, DOC, &rule, &params);
        let got_auth = members(authorized.as_ref().unwrap(), DOC);
        assert_eq!(got_auth, want_auth, "{state}: authorized at {tid}");
        let candidates = node_candidates(g, &as_u(r.clone()), &params, tid).unwrap();
        let got = candidates.into_iter().next().flatten().unwrap();
        let want = reference(g, &model, &r, &params).remove(0).unwrap();
        assert_eq!(
            members(&got, DOC),
            want.intersection(&want_auth).copied().collect(),
            "{state}: restricted at {tid}"
        );
    }
    // Every text read by the restricted principal: its rules in each node's
    // scan match the reference with the rules spelled as `WHERE` conjuncts
    // (the rules are `Str` and `Bool`, where the rule's exact equality and
    // GSQL `=` agree), per node and for the selected node's whole paths.
    for text in TEXTS.iter().chain(SELECT_EARLIER) {
        let r = as_u(resolve(g, parse(text).unwrap()).unwrap());
        let spelled = with_rule_conjuncts(&r, &r.row_rules);
        let node = selected_node(&r);
        for t in tids.clone() {
            let (tid, model) = (Tid(t), f.model_at(Tid(t)));
            let got = node_candidates(g, &r, &params, tid).unwrap();
            let want = reference(g, &model, &spelled, &params);
            for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                let got = got.as_ref().map(|s| members(s, r.node_types[i]));
                assert_eq!(&got, want, "{state}: as u: {text}: node {i} at {tid}");
            }
            let got = candidates_of(g, &r, &params, tid, node).unwrap().unwrap();
            let want = path_reference(g, &model, &spelled, &params, node);
            assert_eq!(
                members(&got, r.node_types[node]),
                want,
                "{state}: as u: {text}"
            );
        }
    }
}

#[test]
fn candidates_match_reference_on_tail_folded_and_mutated_stores() {
    let mut f = fixture();
    let loaded = f.graph.read_tid().0;
    let pending = |g: &Graph| -> usize {
        [DOC, AUTHOR]
            .iter()
            .flat_map(|&t| g.store().vertex_type(t).unwrap().all_segments())
            .map(|s| s.read().pending_deltas())
            .sum()
    };
    // (a) As loaded: nothing folds the graph store, every row is in the tail.
    assert!(pending(&f.graph) >= DOCS + AUTHORS);
    check_all(&f, 0..=loaded, "all tail");
    // (b) Fully folded: only the fold point is addressable.
    f.graph.store().vacuum();
    assert_eq!(pending(&f.graph), 0);
    check_all(&f, loaded..=loaded, "folded");
    // (c) Folded, then mutated: snapshot rows under a fresh tail.
    f.mutate();
    let latest = f.graph.read_tid().0;
    assert!(latest > loaded + 10 && pending(&f.graph) > 0);
    check_all(&f, loaded..=latest, "folded then mutated");
}
