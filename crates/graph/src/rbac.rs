//! Role-based access control over graph and vector data.
//!
//! One of the paper's four arguments for a unified system (§1): "it
//! supports efficient data governance by providing a single set of access
//! controls (e.g., role-based access control) for both vector data and
//! graph data". And §5.1's search path enforces it in the same bitmap that
//! masks deletions: "a filter function, based on a bitmap (marking all
//! deleted and **unauthorized** vectors as invalid)".
//!
//! The model is deliberately small: roles grant read access per vertex
//! type, optionally restricted by a row predicate (attribute-based row
//! security). Because vector attributes hang off vertices, one grant
//! governs both the attributes *and* the embeddings of a type — there is no
//! separate vector ACL to drift out of sync, which is the governance point
//! the paper makes against the two-system architecture.

use crate::graph::Graph;
use crate::vertex_set::VertexSet;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tg_storage::AttrValue;
use tv_common::{Tid, TvError, TvResult};

/// Row-level predicate: vertex attribute `attr` must equal `value`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RowRule {
    /// Attribute name on the granted vertex type.
    pub attr: String,
    /// Required value.
    pub value: AttrValue,
}

/// A grant: read access to one vertex type, optionally row-restricted.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Grant {
    /// Granted vertex type id.
    pub vertex_type: u32,
    /// Optional row-security rule (None = whole type).
    pub rule: Option<RowRule>,
}

/// A named role: a set of grants.
#[derive(Debug, Clone, Default)]
pub struct Role {
    grants: Vec<Grant>,
}

impl Role {
    /// Grant unrestricted read on a vertex type.
    #[must_use]
    pub fn allow_type(mut self, vertex_type: u32) -> Self {
        self.grants.push(Grant {
            vertex_type,
            rule: None,
        });
        self
    }

    /// Grant row-restricted read on a vertex type.
    #[must_use]
    pub fn allow_rows(mut self, vertex_type: u32, attr: &str, value: AttrValue) -> Self {
        self.grants.push(Grant {
            vertex_type,
            rule: Some(RowRule {
                attr: attr.to_string(),
                value,
            }),
        });
        self
    }

    fn covers_type(&self, vertex_type: u32) -> bool {
        self.grants.iter().any(|g| g.vertex_type == vertex_type)
    }
}

/// The access-control registry: roles and user→role assignments.
#[derive(Default)]
pub struct AccessControl {
    roles: RwLock<HashMap<String, Arc<Role>>>,
    users: RwLock<HashMap<String, HashSet<String>>>,
}

impl AccessControl {
    /// Empty registry.
    #[must_use]
    pub fn new() -> Self {
        AccessControl::default()
    }

    /// Define (or replace) a role.
    pub fn define_role(&self, name: &str, role: Role) {
        self.roles.write().insert(name.to_string(), Arc::new(role));
    }

    /// Assign a role to a user.
    pub fn assign(&self, user: &str, role: &str) -> TvResult<()> {
        if !self.roles.read().contains_key(role) {
            return Err(TvError::NotFound(format!("role '{role}'")));
        }
        self.users
            .write()
            .entry(user.to_string())
            .or_default()
            .insert(role.to_string());
        Ok(())
    }

    /// Revoke a role from a user.
    pub fn revoke(&self, user: &str, role: &str) {
        if let Some(set) = self.users.write().get_mut(user) {
            set.remove(role);
        }
    }

    fn roles_of(&self, user: &str) -> Vec<Arc<Role>> {
        let users = self.users.read();
        let roles = self.roles.read();
        users
            .get(user)
            .map(|names| names.iter().filter_map(|n| roles.get(n).cloned()).collect())
            .unwrap_or_default()
    }

    /// Whether `user` may read any rows of `vertex_type`.
    #[must_use]
    pub fn can_read_type(&self, user: &str, vertex_type: u32) -> bool {
        self.roles_of(user)
            .iter()
            .any(|r| r.covers_type(vertex_type))
    }

    /// Materialize the set of vertices of `vertex_type` that `user` may
    /// read at `tid` — the "authorized" side of the §5.1 validity bitmap.
    /// Returns `None` when the user has *unrestricted* access to the type
    /// (no bitmap needed — the engine reuses the liveness structure).
    pub fn authorized_vertices(
        &self,
        graph: &Graph,
        user: &str,
        vertex_type: u32,
        tid: Tid,
    ) -> TvResult<Option<VertexSet>> {
        let roles = self.roles_of(user);
        let grants: Vec<&Grant> = roles
            .iter()
            .flat_map(|r| r.grants.iter())
            .filter(|g| g.vertex_type == vertex_type)
            .collect();
        if grants.is_empty() {
            return Err(TvError::PermissionDenied(format!(
                "user '{user}' has no grant on vertex type {vertex_type}"
            )));
        }
        if grants.iter().any(|g| g.rule.is_none()) {
            return Ok(None); // unrestricted
        }
        // Union of all row-restricted grants, columns resolved once. A rule
        // on an attribute the type does not have matches no row.
        let store = graph.store().vertex_type(vertex_type)?;
        let schema = store.schema();
        let rules: Vec<(usize, &AttrValue)> = grants
            .iter()
            .filter_map(|g| g.rule.as_ref())
            .filter_map(|rule| Some((schema.index_of(&rule.attr)?, &rule.value)))
            .collect();
        let set = graph.select_vertices(vertex_type, tid, |row| {
            rules
                .iter()
                .any(|&(col, value)| row.get(col) == Some(value))
        })?;
        Ok(Some(set))
    }

    /// Whether a vector search over `attr_ids` needs a row-security
    /// pre-filter for `user`: `false` when every touched type carries an
    /// unrestricted grant. Rejects outright (with
    /// [`TvError::PermissionDenied`]) when any type lacks a grant. Looks at
    /// roles only, never at rows, so a gateway can ask before it commits an
    /// executor to the request.
    pub fn is_row_restricted(&self, graph: &Graph, user: &str, attr_ids: &[u32]) -> TvResult<bool> {
        let roles = self.roles_of(user);
        let mut restricted = false;
        for &attr_id in attr_ids {
            let vt = graph.embeddings().attr(attr_id)?.vertex_type;
            let mut grants = roles
                .iter()
                .flat_map(|r| r.grants.iter())
                .filter(|g| g.vertex_type == vt)
                .peekable();
            if grants.peek().is_none() {
                return Err(TvError::PermissionDenied(format!(
                    "user '{user}' is not authorized for vertex type {vt}"
                )));
            }
            restricted |= grants.all(|g| g.rule.is_some());
        }
        Ok(restricted)
    }

    /// The candidate-set restriction a vector search over `attr_ids` must
    /// respect for `user`: `None` when every touched type is unrestricted,
    /// otherwise the union of authorized vertices across the searched types.
    /// Rejects outright (with [`TvError::PermissionDenied`]) when any type
    /// lacks a grant.
    pub fn restriction_for_attrs(
        &self,
        graph: &Graph,
        user: &str,
        attr_ids: &[u32],
        tid: Tid,
    ) -> TvResult<Option<VertexSet>> {
        if !self.is_row_restricted(graph, user, attr_ids)? {
            return Ok(None);
        }
        // Row-security sets of the restricted types, and the full live sets
        // of the unrestricted ones so they are not filtered out.
        let mut acc = VertexSet::default();
        for &attr_id in attr_ids {
            let vt = graph.embeddings().attr(attr_id)?.vertex_type;
            acc = acc.union(&match self.authorized_vertices(graph, user, vt, tid)? {
                Some(set) => set,
                None => graph.all_vertices(vt, tid)?,
            });
        }
        Ok(Some(acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_storage::AttrType;
    use tv_common::ids::SegmentLayout;
    use tv_common::DistanceMetric;
    use tv_embedding::{EmbeddingTypeDef, ServiceConfig};

    fn secured_graph() -> (Graph, AccessControl) {
        let g = Graph::with_config(
            SegmentLayout::with_capacity(8),
            ServiceConfig {
                planner: tv_common::PlannerConfig::default().with_brute_threshold(4),
                query_threads: 1,
                default_ef: 32,
            },
        );
        g.create_vertex_type("Doc", &[("classification", AttrType::Str)])
            .unwrap();
        g.add_embedding_attribute(
            "Doc",
            EmbeddingTypeDef::new("emb", 4, "M", DistanceMetric::L2),
        )
        .unwrap();
        let ids = g.allocate_many(0, 10).unwrap();
        let mut txn = g.txn();
        for (i, &id) in ids.iter().enumerate() {
            let class = if i % 2 == 0 { "public" } else { "secret" };
            txn = txn
                .upsert_vertex(0, id, vec![AttrValue::Str(class.into())])
                .set_vector(0, id, vec![i as f32; 4]);
        }
        txn.commit().unwrap();

        let acl = AccessControl::new();
        acl.define_role("admin", Role::default().allow_type(0));
        acl.define_role(
            "analyst",
            Role::default().allow_rows(0, "classification", AttrValue::Str("public".into())),
        );
        acl.assign("alice", "admin").unwrap();
        acl.assign("bob", "analyst").unwrap();
        (g, acl)
    }

    #[test]
    fn row_restriction_is_answered_from_roles_alone() {
        let (g, acl) = secured_graph();
        assert_eq!(acl.is_row_restricted(&g, "alice", &[0]), Ok(false));
        assert_eq!(acl.is_row_restricted(&g, "bob", &[0]), Ok(true));
        assert!(matches!(
            acl.is_row_restricted(&g, "mallory", &[0]),
            Err(TvError::PermissionDenied(_))
        ));
        // An unrestricted grant beside a row rule lifts the restriction,
        // exactly as `restriction_for_attrs` then builds no set.
        acl.assign("bob", "admin").unwrap();
        assert_eq!(acl.is_row_restricted(&g, "bob", &[0]), Ok(false));
        let tid = g.read_tid();
        assert!(acl
            .restriction_for_attrs(&g, "bob", &[0], tid)
            .unwrap()
            .is_none());
        assert!(acl.is_row_restricted(&g, "alice", &[7]).is_err());
    }

    #[test]
    fn unknown_role_assignment_fails() {
        let acl = AccessControl::new();
        assert!(acl.assign("x", "ghost").is_err());
    }

    #[test]
    fn grants_cover_vectors_and_rows_together() {
        // The governance argument: one grant controls both attribute reads
        // (select_vertices) and vector search.
        let (g, acl) = secured_graph();
        let tid = g.read_tid();
        let set = acl.authorized_vertices(&g, "bob", 0, tid).unwrap().unwrap();
        assert_eq!(set.len(), 5); // the five public docs
        assert!(acl
            .authorized_vertices(&g, "alice", 0, tid)
            .unwrap()
            .is_none());
    }
}
