//! # tv-gsql
//!
//! The GSQL-integrated declarative vector search layer (§5 of the paper):
//! a lexer, parser, semantic analyzer, planner, and executor for the query
//! forms TigerVector adds to GSQL, plus the composable `VectorSearch()`
//! function.
//!
//! Supported query shapes (all from the paper):
//!
//! ```text
//! -- §5.1 top-k vector search
//! SELECT s FROM (s:Post)
//! ORDER BY VECTOR_DIST(s.content_emb, $query_vector) LIMIT 10;
//!
//! -- §5.1 range search
//! SELECT s FROM (s:Post)
//! WHERE VECTOR_DIST(s.content_emb, $query_vector) < 0.5;
//!
//! -- §5.2 filtered vector search
//! SELECT s FROM (s:Post) WHERE s.language = "English"
//! ORDER BY VECTOR_DIST(s.content_emb, $query_vector) LIMIT 10;
//!
//! -- §5.3 vector search on graph patterns
//! SELECT t FROM (s:Person) -[:knows]-> (:Person) <-[:hasCreator]- (t:Post)
//! WHERE s.firstName = "Alice" AND t.length > 1000
//! ORDER BY VECTOR_DIST(t.content_emb, $query_vector) LIMIT 10;
//!
//! -- §5.4 vector similarity join on graph patterns
//! SELECT s, t FROM (s:Comment) -[:hasCreator]-> (u:Person)
//!   -[:knows]-> (v:Person) <-[:hasCreator]- (t:Comment)
//! WHERE u.firstName = "Alice"
//! ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 10;
//! ```
//!
//! Execution follows the paper's plans: graph predicates and patterns
//! evaluate first (`VertexAction`), producing candidate bitmaps handed to
//! the per-segment vector indexes (`EmbeddingAction`) — the pre-filter
//! design of §5.2/§5.3. Similarity joins enumerate matched paths and push
//! pair distances through a global heap accumulator (§5.4).

pub(crate) mod ast;
pub(crate) mod exec;
pub(crate) mod func;
pub(crate) mod parser;
pub mod plan;
mod pred;
pub mod sema;
pub(crate) mod token;

pub use ast::Value;
pub use exec::{execute, execute_at, execute_at_as_stats, readable_rows, Params, QueryOutput};
pub use func::{community_topk, vector_search, vector_search_with_stats, VectorSearchOptions};
pub use parser::parse;
pub use plan::explain;
