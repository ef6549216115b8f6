//! Loading jobs (§4.1's two-file example): graph attributes and vector
//! embeddings typically come from different sources, so TigerVector loads
//! them with separate `LOAD` statements targeting the same vertices:
//!
//! ```text
//! CREATE loading job j1 FOR graph g1 {
//!   LOAD f1 TO VERTEX Post VALUES (id, author, content);
//!   LOAD f2 TO EMBEDDING ATTRIBUTE content_emb
//!     ON VERTEX Post VALUES (id, split(content_emb, ":"));
//! }
//! ```
//!
//! The reproduction's loader parses exactly that shape: CSV rows for
//! attributes, `id,v0:v1:...:vn` rows for embeddings, keyed by a caller-
//! chosen integer primary key mapped to vertex ids.

use crate::graph::Graph;
use std::collections::HashMap;
use tg_storage::{AttrType, AttrValue};
use tv_common::{TvError, TvResult, VertexId};

/// A loading job bound to one graph. Tracks the primary-key → vertex-id
/// assignment so attribute and embedding files can arrive in either order.
pub struct LoadingJob<'g> {
    graph: &'g Graph,
    /// `(vertex type, external key)` → assigned vertex id.
    key_map: HashMap<(u32, i64), VertexId>,
}

/// Rows per commit batch.
const BATCH_ROWS: usize = 4096;

impl<'g> LoadingJob<'g> {
    /// New job.
    #[must_use]
    pub fn new(graph: &'g Graph) -> Self {
        LoadingJob {
            graph,
            key_map: HashMap::new(),
        }
    }

    /// The vertex id assigned to `(type, key)`, allocating if new.
    pub(crate) fn id_for(&mut self, type_id: u32, key: i64) -> TvResult<VertexId> {
        if let Some(&id) = self.key_map.get(&(type_id, key)) {
            return Ok(id);
        }
        let id = self.graph.allocate(type_id)?;
        self.key_map.insert((type_id, key), id);
        Ok(id)
    }

    /// `LOAD ... TO VERTEX <type> VALUES (id, attrs...)`: each line is
    /// `key,field1,field2,...` matching the type's schema order. Returns
    /// loaded row count.
    pub fn load_vertices(&mut self, vertex_type: &str, lines: &[&str]) -> TvResult<usize> {
        let (type_id, schema) = {
            let catalog = self.graph.catalog();
            let vt = catalog.vertex_type(vertex_type)?;
            (vt.type_id, vt.schema.clone())
        };
        let mut loaded = 0;
        for chunk in lines.chunks(BATCH_ROWS) {
            let mut txn = self.graph.txn();
            for line in chunk {
                let mut fields = line.split(',');
                let key: i64 = fields
                    .next()
                    .and_then(|f| f.trim().parse().ok())
                    .ok_or_else(|| TvError::InvalidArgument(format!("bad key in '{line}'")))?;
                let mut attrs = Vec::with_capacity(schema.len());
                for (col, field) in fields.enumerate() {
                    let ty = schema.type_of(col).ok_or_else(|| {
                        TvError::InvalidArgument(format!("too many fields in '{line}'"))
                    })?;
                    attrs.push(parse_value(ty, field.trim())?);
                }
                if attrs.len() != schema.len() {
                    return Err(TvError::InvalidArgument(format!(
                        "expected {} fields, got {} in '{line}'",
                        schema.len(),
                        attrs.len()
                    )));
                }
                let id = self.id_for(type_id, key)?;
                txn = txn.upsert_vertex(type_id, id, attrs);
                loaded += 1;
            }
            txn.commit()?;
        }
        Ok(loaded)
    }

    /// `LOAD ... TO EMBEDDING ATTRIBUTE <attr> ON VERTEX <type> VALUES (id,
    /// split(emb, ":"))`: each line is `key,v0:v1:...:vn`.
    pub fn load_embeddings(
        &mut self,
        vertex_type: &str,
        attr_name: &str,
        lines: &[&str],
    ) -> TvResult<usize> {
        let (type_id, attr_id, def) = {
            let catalog = self.graph.catalog();
            let vt = catalog.vertex_type(vertex_type)?;
            let (attr_id, def) = vt.embedding(attr_name).ok_or_else(|| {
                TvError::NotFound(format!("embedding '{attr_name}' on '{vertex_type}'"))
            })?;
            (vt.type_id, attr_id, def.clone())
        };
        let mut loaded = 0;
        for chunk in lines.chunks(BATCH_ROWS) {
            let mut txn = self.graph.txn();
            for line in chunk {
                let (key_str, vec_str) = line.split_once(',').ok_or_else(|| {
                    TvError::InvalidArgument(format!("bad embedding line '{line}'"))
                })?;
                let key: i64 = key_str
                    .trim()
                    .parse()
                    .map_err(|_| TvError::InvalidArgument(format!("bad key in '{line}'")))?;
                let vector = split_vector(vec_str)?;
                def.check_query_vector(&vector)?;
                let id = self.id_for(type_id, key)?;
                txn = txn.set_vector(attr_id, id, vector);
                loaded += 1;
            }
            txn.commit()?;
        }
        Ok(loaded)
    }

    /// Snapshot of the key → id assignment (tests address loaded vertices
    /// through it).
    #[cfg(test)]
    pub(crate) fn key_map(&self) -> &HashMap<(u32, i64), VertexId> {
        &self.key_map
    }
}

/// Parse one attribute field.
fn parse_value(ty: AttrType, field: &str) -> TvResult<AttrValue> {
    Ok(match ty {
        AttrType::Int => AttrValue::Int(
            field
                .parse()
                .map_err(|_| TvError::InvalidArgument(format!("bad INT '{field}'")))?,
        ),
        AttrType::Double => AttrValue::Double(
            field
                .parse()
                .map_err(|_| TvError::InvalidArgument(format!("bad DOUBLE '{field}'")))?,
        ),
        AttrType::Str => AttrValue::Str(field.to_string()),
        AttrType::Bool => AttrValue::Bool(matches!(field, "true" | "TRUE" | "1")),
    })
}

/// `split(content_emb, ":")` — the paper's vector field separator.
fn split_vector(s: &str) -> TvResult<Vec<f32>> {
    s.trim()
        .split(':')
        .map(|f| {
            f.trim()
                .parse::<f32>()
                .map_err(|_| TvError::InvalidArgument(format!("bad vector component '{f}'")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::ids::SegmentLayout;
    use tv_common::{DistanceMetric, Tid};
    use tv_embedding::{EmbeddingTypeDef, ServiceConfig};

    fn graph() -> Graph {
        graph_with(8)
    }

    fn graph_with(capacity: usize) -> Graph {
        let g = Graph::with_config(
            SegmentLayout::with_capacity(capacity),
            ServiceConfig {
                planner: tv_common::PlannerConfig::default().with_brute_threshold(2),
                query_threads: 1,
                default_ef: 32,
            },
        );
        g.create_vertex_type(
            "Post",
            &[("author", AttrType::Str), ("content", AttrType::Str)],
        )
        .unwrap();
        g.add_embedding_attribute(
            "Post",
            EmbeddingTypeDef::new("content_emb", 3, "GPT4", DistanceMetric::L2),
        )
        .unwrap();
        g
    }

    #[test]
    fn two_file_load_joins_on_key() {
        let g = graph();
        let mut job = LoadingJob::new(&g);
        // f1: attributes; f2: embeddings — arriving separately, keyed by id.
        let n = job
            .load_vertices("Post", &["1,alice,hello world", "2,bob,goodbye"])
            .unwrap();
        assert_eq!(n, 2);
        let n = job
            .load_embeddings("Post", "content_emb", &["1,0.1:0.2:0.3", "2,1:2:3"])
            .unwrap();
        assert_eq!(n, 2);

        let catalog = g.catalog();
        let post = catalog.vertex_type("Post").unwrap().type_id;
        let (attr_id, _) = catalog
            .vertex_type("Post")
            .unwrap()
            .embedding("content_emb")
            .unwrap();
        drop(catalog);
        let tid = g.read_tid();
        let id1 = job.key_map()[&(post, 1)];
        assert_eq!(
            g.attr(post, id1, "author", tid).unwrap(),
            Some(AttrValue::Str("alice".into()))
        );
        assert_eq!(
            g.embedding_of(attr_id, id1, tid).unwrap(),
            Some(vec![0.1, 0.2, 0.3])
        );
    }

    #[test]
    fn embeddings_can_load_before_vertices() {
        let g = graph();
        let mut job = LoadingJob::new(&g);
        job.load_embeddings("Post", "content_emb", &["7,1:1:1"])
            .unwrap();
        job.load_vertices("Post", &["7,carol,text"]).unwrap();
        let catalog = g.catalog();
        let post = catalog.vertex_type("Post").unwrap().type_id;
        drop(catalog);
        // Same vertex: one key, one id.
        assert_eq!(job.key_map().len(), 1);
        let id = job.key_map()[&(post, 7)];
        assert!(g.is_live(post, id, g.read_tid()).unwrap());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let g = graph();
        let mut job = LoadingJob::new(&g);
        let err = job.load_embeddings("Post", "content_emb", &["1,1:2"]);
        assert!(matches!(err, Err(TvError::DimensionMismatch { .. })));
    }

    #[test]
    fn non_finite_components_rejected() {
        let g = graph();
        let mut job = LoadingJob::new(&g);
        // `f32::from_str` reads all of these as numbers.
        for poison in ["NaN", "inf", "-infinity"] {
            let line = format!("1,1:{poison}:3");
            let err = job.load_embeddings("Post", "content_emb", &[line.as_str()]);
            assert!(
                matches!(&err, Err(TvError::InvalidArgument(m)) if m.contains("component 1")),
                "{err:?}"
            );
        }
        assert_eq!(g.embeddings().total_mem_deltas(), 0);
    }

    #[test]
    fn malformed_lines_rejected() {
        let g = graph();
        let mut job = LoadingJob::new(&g);
        assert!(job.load_vertices("Post", &["notakey,a,b"]).is_err());
        assert!(job.load_vertices("Post", &["1,onlyone"]).is_err());
        assert!(job
            .load_embeddings("Post", "content_emb", &["1,1:x:3"])
            .is_err());
        assert!(job
            .load_embeddings("Post", "content_emb", &["nocomma"])
            .is_err());
        assert!(job.load_vertices("Nope", &["1,a,b"]).is_err());
        assert!(job.load_embeddings("Post", "nope", &["1,1:2:3"]).is_err());
    }

    #[test]
    fn batching_commits_incrementally() {
        let g = graph_with(2 * BATCH_ROWS);
        let mut job = LoadingJob::new(&g);
        let lines: Vec<String> = (0..=BATCH_ROWS).map(|i| format!("{i},u{i},c{i}")).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        job.load_vertices("Post", &refs).unwrap();
        // One row past a batch → 2 commits.
        assert_eq!(g.read_tid(), Tid(2));
    }
}
