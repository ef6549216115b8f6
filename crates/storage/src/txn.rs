//! Transaction management: TID allocation, read-visibility tracking, and the
//! vacuum horizon.
//!
//! TigerGraph's MVCC assigns each committed transaction a TID; a transaction
//! becomes visible only after commit, and cleanup (vacuum, old-snapshot
//! deletion) must wait until every running transaction can see the new state
//! (§4.3). [`TxnManager`] provides exactly those pieces: monotone TID
//! allocation serialized by a commit lock, registered read tickets, and
//! `vacuum_horizon()` — the largest TID no running reader predates.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tv_common::Tid;

/// Shared transaction manager.
#[derive(Debug, Default)]
pub struct TxnManager {
    last_committed: AtomicU64,
    /// read tid → number of active readers at that tid.
    active_reads: Mutex<BTreeMap<u64, usize>>,
    commit_lock: Mutex<()>,
}

impl TxnManager {
    /// New manager with nothing committed.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(TxnManager::default())
    }

    /// TID of the most recently committed transaction.
    #[must_use]
    pub fn last_committed(&self) -> Tid {
        Tid(self.last_committed.load(Ordering::Acquire))
    }

    /// Begin a read: registers the current committed TID as this reader's
    /// snapshot and returns a ticket that unregisters on drop.
    #[must_use]
    pub fn begin_read(self: &Arc<Self>) -> ReadTicket {
        // Register under the commit lock so a concurrent commit cannot slip
        // between reading last_committed and registering.
        let _g = self.commit_lock.lock();
        let tid = self.last_committed();
        *self.active_reads.lock().entry(tid.0).or_insert(0) += 1;
        ReadTicket {
            mgr: Arc::clone(self),
            tid,
        }
    }

    /// Run `f` with the next TID under the commit lock; `f` must apply the
    /// transaction (WAL + stores). Only if `f` succeeds does the TID become
    /// visible — the atomic commit protocol.
    pub fn commit_with<T, E>(&self, f: impl FnOnce(Tid) -> Result<T, E>) -> Result<(T, Tid), E> {
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
    /// into snapshots, and old snapshots older than it may be deleted,
    /// because no active reader predates it.
    #[must_use]
    pub fn vacuum_horizon(&self) -> Tid {
        let reads = self.active_reads.lock();
        match reads.keys().next() {
            Some(&oldest) => Tid(oldest),
            None => self.last_committed(),
        }
    }

    fn end_read(&self, tid: Tid) {
        let mut reads = self.active_reads.lock();
        if let Some(count) = reads.get_mut(&tid.0) {
            *count -= 1;
            if *count == 0 {
                reads.remove(&tid.0);
            }
        }
    }
}

/// A registered read snapshot; unregisters itself on drop.
#[derive(Debug)]
pub struct ReadTicket {
    mgr: Arc<TxnManager>,
    tid: Tid,
}

impl ReadTicket {
    /// The TID this reader observes.
    #[must_use]
    pub fn tid(&self) -> Tid {
        self.tid
    }
}

impl Drop for ReadTicket {
    fn drop(&mut self) {
        self.mgr.end_read(self.tid);
    }
}

/// Alias used by higher layers for a buffered, not-yet-committed write set.
pub type Transaction = Vec<(u32, crate::delta::GraphDelta)>;

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
    fn read_tickets_pin_the_horizon() {
        let mgr = TxnManager::new();
        mgr.commit_with(|_| Ok::<(), ()>(())).unwrap();
        let ticket = mgr.begin_read();
        assert_eq!(ticket.tid(), Tid(1));
        mgr.commit_with(|_| Ok::<(), ()>(())).unwrap();
        mgr.commit_with(|_| Ok::<(), ()>(())).unwrap();
        // Reader at tid 1 pins the horizon.
        assert_eq!(mgr.vacuum_horizon(), Tid(1));
        drop(ticket);
        assert_eq!(mgr.vacuum_horizon(), Tid(3));
    }

    #[test]
    fn horizon_tracks_oldest_of_many_readers() {
        let mgr = TxnManager::new();
        mgr.commit_with(|_| Ok::<(), ()>(())).unwrap();
        let t1 = mgr.begin_read(); // tid 1
        mgr.commit_with(|_| Ok::<(), ()>(())).unwrap();
        let t2 = mgr.begin_read(); // tid 2
        assert_eq!(mgr.vacuum_horizon(), Tid(1));
        drop(t1);
        assert_eq!(mgr.vacuum_horizon(), Tid(2));
        drop(t2);
        // No reader left: the horizon is the commit watermark again.
        assert_eq!(mgr.vacuum_horizon(), mgr.last_committed());
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
