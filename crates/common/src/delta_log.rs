//! The log of pending deltas both MVCC stores keep beside their snapshot
//! (§4.3), graph deltas and vector deltas alike: committed records in TID
//! order (what replay, checkpoints and the vacuum read) with a chain per
//! local id threaded through them, so a point read walks only its own
//! local's records and an overlay pass visits each record of its range once.

use crate::{Bitmap, Tid, TvError, TvResult};

/// "No record" in the chain links.
const NO_DELTA: u32 = u32::MAX;

/// Where a record sits in the log: the transaction that committed it and
/// the local id (within the segment) whose state it changes.
pub trait Logged {
    /// The committing transaction.
    fn tid(&self) -> Tid;
    /// The local id the record lives at.
    fn local(&self) -> usize;
}

/// A TID-ordered log of committed records with per-local chains.
pub struct DeltaLog<T> {
    records: Vec<T>,
    /// Parallel to `records`: the previous record of the same local.
    prev: Vec<u32>,
    /// Per local id: its newest record.
    last: Vec<u32>,
}

impl<T: Logged> DeltaLog<T> {
    /// An empty log over `capacity` local ids.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        DeltaLog {
            records: Vec::new(),
            prev: Vec::new(),
            last: vec![NO_DELTA; capacity],
        }
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The newest record's TID.
    #[must_use]
    pub fn last_tid(&self) -> Option<Tid> {
        self.records.last().map(Logged::tid)
    }

    /// Append a record no older than the newest, at a local below capacity;
    /// returns it where it now lies.
    pub fn append(&mut self, record: T) -> TvResult<&T> {
        let (tid, local) = (record.tid(), record.local());
        if let Some(last) = self.last_tid().filter(|&last| tid < last) {
            return Err(TvError::Storage(format!("delta {tid} after {last}")));
        }
        let at = u32::try_from(self.records.len())
            .ok()
            .filter(|&at| at != NO_DELTA && local < self.last.len())
            .ok_or_else(|| TvError::Storage(format!("no room for a delta at local {local}")))?;
        self.prev.push(std::mem::replace(&mut self.last[local], at));
        self.records.push(record);
        Ok(&self.records[at as usize])
    }

    /// The records homed at `local` visible at `read_tid`, newest first.
    pub fn chain(&self, local: usize, read_tid: Tid) -> impl Iterator<Item = &T> + '_ {
        let mut at = self.last.get(local).copied().unwrap_or(NO_DELTA);
        std::iter::from_fn(move || {
            while at != NO_DELTA {
                #[cfg(debug_assertions)]
                probe::record(at);
                let record = &self.records[at as usize];
                at = self.prev[at as usize];
                if record.tid() <= read_tid {
                    return Some(record);
                }
            }
            None
        })
    }

    /// Positions of the records with a TID in `(after, up_to]`.
    fn span(&self, after: Tid, up_to: Tid) -> std::ops::Range<usize> {
        let lo = self.records.partition_point(|r| r.tid() <= after);
        lo..self.records.partition_point(|r| r.tid() <= up_to).max(lo)
    }

    /// The records with a TID in `(after, up_to]`, oldest first.
    #[must_use]
    pub fn range(&self, after: Tid, up_to: Tid) -> &[T] {
        &self.records[self.span(after, up_to)]
    }

    /// Per local with a record in `(after, up_to]`, the newest such record,
    /// newest first: what a read at `up_to` lays over an image valid up to
    /// `after`. Visits each record of the range once.
    pub fn overlay(&self, after: Tid, up_to: Tid) -> impl Iterator<Item = &T> + '_ {
        let span = self.span(after, up_to);
        let mut seen = Bitmap::new(if span.is_empty() { 0 } else { self.last.len() });
        span.rev().filter_map(move |at| {
            #[cfg(debug_assertions)]
            probe::record(at as u32);
            let record = &self.records[at];
            let fresh = !seen.get(record.local());
            seen.set(record.local(), true);
            fresh.then_some(record)
        })
    }

    /// Remove the records with a TID at or below `horizon`; returns them.
    pub fn cut(&mut self, horizon: Tid) -> Vec<T> {
        let n = self.records.partition_point(|r| r.tid() <= horizon);
        let cut = self.records.drain(..n).collect();
        self.reindex(n as u32);
        cut
    }

    /// Re-point the chain links after the first `dropped` records went: a
    /// link into the cut part ends its chain, every other shifts down.
    fn reindex(&mut self, dropped: u32) {
        self.prev.drain(..dropped as usize);
        for link in self.prev.iter_mut().chain(self.last.iter_mut()) {
            if *link != NO_DELTA {
                *link = link.checked_sub(dropped).unwrap_or(NO_DELTA);
            }
        }
    }
}

/// The log positions reads looked at, so tests assert the cost model as
/// counts (a point read walks only its own chain, an overlay visits each
/// record at most once). Debug builds record from a thread's first `take`.
pub mod probe {
    use std::cell::RefCell;

    thread_local!(static READS: RefCell<Option<Vec<u32>>> = const { RefCell::new(None) });

    #[cfg(debug_assertions)]
    pub(crate) fn record(at: u32) {
        READS.with_borrow_mut(|reads| reads.as_mut().map(|r| r.push(at)));
    }

    /// The positions this thread read since the last call (none at the
    /// first, which starts recording).
    pub fn take() -> Vec<u32> {
        READS.with_borrow_mut(|reads| reads.replace(Vec::new()).unwrap_or_default())
    }
}
