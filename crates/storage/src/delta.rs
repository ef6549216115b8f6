//! The graph delta algebra.
//!
//! Committed transactions append [`GraphDelta`]s tagged with their TID; the
//! read path combines a segment snapshot with the deltas newer than it, and
//! the vacuum folds old deltas into a fresh snapshot (§4.3 of the paper:
//! "Queries with a specific TID are processed by combining deltas and
//! snapshots").

use crate::value::AttrValue;
use tv_common::VertexId;

/// One committed mutation of the graph (vector mutations travel separately
/// through the embedding service's vector-delta store — the decoupling of
/// §4.2).
#[derive(Debug, Clone, PartialEq)]
pub enum GraphDelta {
    /// Insert or fully replace a vertex and its attribute row.
    UpsertVertex {
        /// Target vertex.
        id: VertexId,
        /// Full attribute row, schema-ordered.
        attrs: Vec<AttrValue>,
    },
    /// Delete a vertex (its edges become dangling and are filtered on read).
    DeleteVertex {
        /// Target vertex.
        id: VertexId,
    },
    /// Overwrite one attribute.
    SetAttr {
        /// Target vertex.
        id: VertexId,
        /// Schema column index.
        col: usize,
        /// New value.
        value: AttrValue,
    },
    /// Add a directed edge of type `etype` (stored in the source segment).
    AddEdge {
        /// Edge-type index in the catalog.
        etype: u32,
        /// Source vertex (owning segment).
        from: VertexId,
        /// Target vertex.
        to: VertexId,
    },
    /// Remove a directed edge.
    RemoveEdge {
        /// Edge-type index in the catalog.
        etype: u32,
        /// Source vertex.
        from: VertexId,
        /// Target vertex.
        to: VertexId,
    },
}

impl GraphDelta {
    /// The segment this delta must be routed to (the source vertex's segment
    /// for edges — outgoing edges live with their source, §2.1).
    #[must_use]
    pub fn home_vertex(&self) -> VertexId {
        match self {
            GraphDelta::UpsertVertex { id, .. }
            | GraphDelta::DeleteVertex { id }
            | GraphDelta::SetAttr { id, .. } => *id,
            GraphDelta::AddEdge { from, .. } | GraphDelta::RemoveEdge { from, .. } => *from,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_common::ids::{LocalId, SegmentId};

    #[test]
    fn home_vertex_routes_edges_to_source() {
        let a = VertexId::new(SegmentId(1), LocalId(0));
        let b = VertexId::new(SegmentId(2), LocalId(0));
        let d = GraphDelta::AddEdge {
            etype: 0,
            from: a,
            to: b,
        };
        assert_eq!(d.home_vertex(), a);
        assert_eq!(d.home_vertex().segment(), SegmentId(1));
    }

    #[test]
    fn home_vertex_for_vertex_ops() {
        let a = VertexId::new(SegmentId(3), LocalId(7));
        assert_eq!(GraphDelta::DeleteVertex { id: a }.home_vertex(), a);
        assert_eq!(
            GraphDelta::SetAttr {
                id: a,
                col: 0,
                value: AttrValue::Int(1)
            }
            .home_vertex(),
            a
        );
    }
}
