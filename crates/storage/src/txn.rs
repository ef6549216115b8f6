//! Transaction management: TID allocation, read-visibility tracking, and the
//! vacuum horizon.
//!
//! TigerGraph's MVCC assigns each committed transaction a TID; a transaction
//! becomes visible only after commit, and cleanup (vacuum, old-snapshot
//! deletion) must wait until every running transaction can see the new state
//! (§4.3). [`TxnManager`] provides monotone TID allocation serialized by a
//! commit lock, and `vacuum_horizon()`. No reader registers a snapshot yet,
//! so the horizon is the commit watermark: a vacuum does not wait for
//! readers at older TIDs.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tv_common::Tid;

/// Shared transaction manager.
#[derive(Debug, Default)]
pub struct TxnManager {
    last_committed: AtomicU64,
    commit_lock: Mutex<()>,
}

impl TxnManager {
    /// New manager with nothing committed.
    #[must_use]
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TxnManager::default())
    }

    /// TID of the most recently committed transaction.
    #[must_use]
    pub fn last_committed(&self) -> Tid {
        Tid(self.last_committed.load(Ordering::Acquire))
    }

    /// Run `f` with the next TID under the commit lock; `f` must apply the
    /// transaction (WAL + stores). Only if `f` succeeds does the TID become
    /// visible — the atomic commit protocol.
    pub(crate) fn commit_with<T, E>(
        &self,
        f: impl FnOnce(Tid) -> Result<T, E>,
    ) -> Result<(T, Tid), E> {
        let _g = self.commit_lock.lock();
        let tid = Tid(self.last_committed.load(Ordering::Acquire) + 1);
        let out = f(tid)?;
        self.last_committed.store(tid.0, Ordering::Release);
        Ok((out, tid))
    }

    /// Restore the committed watermark during recovery (WAL replay).
    pub fn recover_to(&self, tid: Tid) {
        self.last_committed.store(tid.0, Ordering::Release);
    }

    /// The vacuum horizon: every delta with `tid <=` this value may be folded
    /// into snapshots, and snapshots older than it may be deleted. With no
    /// registered readers it is the commit watermark.
    #[must_use]
    pub fn vacuum_horizon(&self) -> Tid {
        self.last_committed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_advances_watermark() {
        let mgr = TxnManager::new();
        assert_eq!(mgr.last_committed(), Tid(0));
        let ((), tid) = mgr
            .commit_with(|t| {
                assert_eq!(t, Tid(1));
                Ok::<(), ()>(())
            })
            .unwrap();
        assert_eq!(tid, Tid(1));
        assert_eq!(mgr.last_committed(), Tid(1));
    }

    #[test]
    fn failed_commit_does_not_advance() {
        let mgr = TxnManager::new();
        let r: Result<((), Tid), &str> = mgr.commit_with(|_| Err("boom"));
        assert!(r.is_err());
        assert_eq!(mgr.last_committed(), Tid(0));
        // Next commit still gets tid 1.
        let (_, tid) = mgr.commit_with(|_| Ok::<(), ()>(())).unwrap();
        assert_eq!(tid, Tid(1));
    }

    #[test]
    fn recover_to_restores_watermark() {
        let mgr = TxnManager::new();
        mgr.recover_to(Tid(41));
        let (_, tid) = mgr.commit_with(|_| Ok::<(), ()>(())).unwrap();
        assert_eq!(tid, Tid(42));
    }

    #[test]
    fn concurrent_commits_get_unique_tids() {
        let mgr = TxnManager::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&mgr);
            handles.push(std::thread::spawn(move || {
                let mut tids = Vec::new();
                for _ in 0..50 {
                    let (_, tid) = m.commit_with(|_| Ok::<(), ()>(())).unwrap();
                    tids.push(tid.0);
                }
                tids
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400);
        assert_eq!(mgr.last_committed(), Tid(400));
    }
}
