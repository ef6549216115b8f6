//! Sessions and tenants.
//!
//! A [`Session`] is the unit of identity the serving layer hands out: it
//! names the *tenant* (the accounting/rate-limiting principal) and the
//! *user* (the `tg-graph::rbac` principal whose grants gate every query).
//! The two are usually the same string but kept separate so one tenant can
//! run under several rbac roles.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// An open session: identity plus per-session defaults.
#[derive(Debug, Clone)]
pub struct Session {
    /// Server-assigned session id.
    pub id: u64,
    /// Tenant for metrics and rate limiting.
    pub tenant: String,
    /// rbac principal whose grants gate query execution.
    pub user: String,
    /// Per-session default deadline (overrides the server default).
    pub deadline: Option<Duration>,
}

impl Session {
    /// Set a per-session default deadline for every request.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// The registry of open sessions.
#[derive(Default)]
pub(crate) struct SessionManager {
    next_id: AtomicU64,
    open: RwLock<HashMap<u64, String>>,
}

impl SessionManager {
    /// Empty registry.
    #[must_use]
    pub(crate) fn new() -> Self {
        SessionManager::default()
    }

    /// Open a session for `tenant` acting as rbac principal `user`.
    pub(crate) fn open(&self, tenant: &str, user: &str) -> Session {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.open.write().insert(id, tenant.to_string());
        Session {
            id,
            tenant: tenant.to_string(),
            user: user.to_string(),
            deadline: None,
        }
    }

    /// Close a session (idempotent).
    pub(crate) fn close(&self, session: &Session) {
        self.open.write().remove(&session.id);
    }

    /// Number of open sessions.
    #[must_use]
    pub(crate) fn active(&self) -> usize {
        self.open.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_lifecycle() {
        let mgr = SessionManager::new();
        let a = mgr.open("acme", "acme-reader");
        let b = mgr.open("globex", "globex-reader");
        assert_ne!(a.id, b.id);
        assert_eq!(mgr.active(), 2);
        mgr.close(&a);
        mgr.close(&a); // idempotent
        assert_eq!(mgr.active(), 1);
        mgr.close(&b);
        assert_eq!(mgr.active(), 0);
    }

    #[test]
    fn session_deadline_override() {
        let mgr = SessionManager::new();
        let s = mgr.open("t", "u").with_deadline(Duration::from_millis(50));
        assert_eq!(s.deadline, Some(Duration::from_millis(50)));
    }
}
