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
//! the paper makes against the two-system architecture. This module is the
//! policy alone and reads no rows: `tv-gsql` evaluates a grant's rules as
//! one more predicate of each pattern node's candidate scan.

use crate::graph::Graph;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use tg_storage::AttrValue;
use tv_common::{TvError, TvResult};

/// Row-level predicate: vertex attribute `attr` must equal `value`, as
/// exact [`AttrValue`] equality (an `Int` rule does not match a `Double`
/// cell). A rule on an attribute the type does not have matches no row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowRule {
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

    /// What `user` may read of each of `vertex_types`, in order: `None`
    /// where one of the user's grants on the type is unrestricted, else
    /// every row rule granted on it (a row may be read when it satisfies
    /// any one). Rejects with [`TvError::PermissionDenied`] when a type has
    /// no grant at all. Reads roles only, never rows: the rules are data,
    /// and the query engine evaluates them in its candidate scan — the
    /// "authorized" side of the §5.1 validity bitmap.
    pub fn row_rules(
        &self,
        user: &str,
        vertex_types: &[u32],
    ) -> TvResult<Vec<Option<Vec<RowRule>>>> {
        let roles = self.roles_of(user);
        vertex_types
            .iter()
            .map(|&vt| {
                let mut grants = roles
                    .iter()
                    .flat_map(|r| r.grants.iter())
                    .filter(|g| g.vertex_type == vt)
                    .peekable();
                if grants.peek().is_none() {
                    return Err(TvError::PermissionDenied(format!(
                        "user '{user}' has no grant on vertex type {vt}"
                    )));
                }
                Ok(grants.map(|g| g.rule.clone()).collect())
            })
            .collect()
    }

    /// Whether a vector search over `attr_ids` needs a row-security
    /// pre-filter for `user`: `false` when every touched type carries an
    /// unrestricted grant. Rejects outright (with
    /// [`TvError::PermissionDenied`]) when any type lacks a grant. Looks at
    /// roles only, never at rows, so a gateway can ask before it commits an
    /// executor to the request.
    pub fn is_row_restricted(&self, graph: &Graph, user: &str, attr_ids: &[u32]) -> TvResult<bool> {
        let types = attr_ids
            .iter()
            .map(|&attr_id| Ok(graph.embeddings().attr(attr_id)?.vertex_type))
            .collect::<TvResult<Vec<u32>>>()?;
        Ok(self.row_rules(user, &types)?.iter().any(Option::is_some))
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
        // An unrestricted grant beside a row rule lifts the restriction.
        acl.assign("bob", "admin").unwrap();
        assert_eq!(acl.is_row_restricted(&g, "bob", &[0]), Ok(false));
        assert_eq!(acl.row_rules("bob", &[0]), Ok(vec![None]));
        assert!(acl.is_row_restricted(&g, "alice", &[7]).is_err());
    }

    #[test]
    fn unknown_role_assignment_fails() {
        let acl = AccessControl::new();
        assert!(acl.assign("x", "ghost").is_err());
    }

    #[test]
    fn row_rules_are_the_grants_of_each_type_as_data() {
        let (_, acl) = secured_graph();
        let rule = |attr: &str, value: &str| RowRule {
            attr: attr.into(),
            value: AttrValue::Str(value.into()),
        };
        acl.define_role(
            "two-rules",
            Role::default()
                .allow_rows(0, "classification", AttrValue::Str("public".into()))
                .allow_rows(0, "owner", AttrValue::Str("carol".into()))
                .allow_type(1),
        );
        acl.assign("carol", "two-rules").unwrap();
        assert_eq!(acl.row_rules("alice", &[0]), Ok(vec![None]));
        assert_eq!(
            acl.row_rules("bob", &[0, 0]),
            Ok(vec![Some(vec![rule("classification", "public")]); 2])
        );
        // Several grants on one type are ORed; types answer in order.
        assert_eq!(
            acl.row_rules("carol", &[1, 0]),
            Ok(vec![
                None,
                Some(vec![
                    rule("classification", "public"),
                    rule("owner", "carol")
                ])
            ])
        );
        // One type without a grant refuses the whole request.
        for (user, types) in [("bob", &[0, 1][..]), ("mallory", &[0][..])] {
            assert!(matches!(
                acl.row_rules(user, types),
                Err(TvError::PermissionDenied(_))
            ));
        }
        acl.revoke("bob", "analyst");
        assert!(acl.row_rules("bob", &[0]).is_err());
    }
}
