//! Deterministic crash-point injection for the durability pipelines.
//!
//! The commit, checkpoint, and vacuum paths are instrumented with named
//! [`CrashPoint`]s (in the style of the cluster layer's `FaultPlan`). A
//! [`CrashPlan`] can arm any point to "crash" — return
//! [`TvError::Injected`] — on its *n*-th execution, which the torture tests
//! treat as process death: they drop the store and re-open it from disk.
//!
//! Production code holds an `Option<Arc<CrashPlan>>` that is `None` outside
//! tests, so the hooks cost one pointer null-check on the hot paths and
//! nothing else.

use crate::error::{TvError, TvResult};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// Instrumented locations in the durability pipelines. Each variant is a
/// place where process death leaves durable state in a distinct shape; the
/// torture suite must prove recovery from every one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Inside `Wal::append`, after part of the frame reached the file but
    /// before the frame is complete — models a torn tail. The transaction
    /// was never durable and must be absent after recovery.
    CommitMidWalAppend,
    /// After the WAL frame is written and synced but before the in-memory
    /// apply — the transaction IS durable and must be replayed on recovery.
    CommitPostWalPreApply,
    /// Mid-checkpoint, after some segment files are written but before the
    /// manifest — the partial checkpoint directory must be ignored and the
    /// previous checkpoint (or the empty state) used instead.
    CheckpointMidWrite,
    /// After the manifest rename made the checkpoint valid but before the
    /// WAL was truncated — recovery must tolerate WAL records at or below
    /// the checkpoint Tid (replay must be idempotent / filtered).
    CheckpointPostManifestPreTruncate,
    /// Inside the embedding two-stage vacuum's index-merge loop, between
    /// per-segment index rebuilds — only in-memory acceleration state is
    /// lost; durable state is untouched.
    VacuumMidIndexMerge,
    /// The migration source dies before the shipped snapshot file exists —
    /// nothing reached the destination; the source stays authoritative.
    MigrateMidShip,
    /// The transfer is cut mid-stream: the shipped container is truncated
    /// after the ship step. The destination's CRC verification must reject
    /// the partial file at install and the migration must abort cleanly.
    MigrateShipTruncate,
    /// The destination dies after decoding the shipped snapshot but before
    /// its copy is registered in the destination store — the staged state
    /// is orphaned and must be garbage-collected on abort.
    MigrateMidInstall,
    /// The coordinator dies between delta-tail catch-up rounds: the
    /// destination holds a behind copy that is not yet routed to. Abort
    /// must remove it; the source keeps serving.
    MigrateMidCatchup,
    /// The coordinator dies inside the flip critical section *before* the
    /// placement generation is bumped — appends are momentarily gated but
    /// the old placement is still authoritative; abort, don't flip.
    MigrateAtFlip,
    /// The coordinator dies after the placement flip committed but before
    /// the source copy was released — the migration IS complete; a retry
    /// must recognize that and finish the release idempotently.
    MigratePostFlipPreRelease,
}

impl CrashPoint {
    /// Crash points of the durability pipelines (commit / checkpoint /
    /// vacuum). The graph crash-torture suite iterates exactly these.
    pub const DURABILITY: [CrashPoint; 5] = [
        CrashPoint::CommitMidWalAppend,
        CrashPoint::CommitPostWalPreApply,
        CrashPoint::CheckpointMidWrite,
        CrashPoint::CheckpointPostManifestPreTruncate,
        CrashPoint::VacuumMidIndexMerge,
    ];

    /// Crash points of the live segment-migration pipeline, in phase
    /// order. The migration chaos suite iterates exactly these.
    pub const MIGRATION: [CrashPoint; 6] = [
        CrashPoint::MigrateMidShip,
        CrashPoint::MigrateShipTruncate,
        CrashPoint::MigrateMidInstall,
        CrashPoint::MigrateMidCatchup,
        CrashPoint::MigrateAtFlip,
        CrashPoint::MigratePostFlipPreRelease,
    ];
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CrashPoint::CommitMidWalAppend => "commit/mid-wal-append",
            CrashPoint::CommitPostWalPreApply => "commit/post-wal-pre-apply",
            CrashPoint::CheckpointMidWrite => "checkpoint/mid-write",
            CrashPoint::CheckpointPostManifestPreTruncate => {
                "checkpoint/post-manifest-pre-truncate"
            }
            CrashPoint::VacuumMidIndexMerge => "vacuum/mid-index-merge",
            CrashPoint::MigrateMidShip => "migrate/mid-ship",
            CrashPoint::MigrateShipTruncate => "migrate/ship-truncate",
            CrashPoint::MigrateMidInstall => "migrate/mid-install",
            CrashPoint::MigrateMidCatchup => "migrate/mid-catchup",
            CrashPoint::MigrateAtFlip => "migrate/at-flip",
            CrashPoint::MigratePostFlipPreRelease => "migrate/post-flip-pre-release",
        };
        f.write_str(name)
    }
}

#[derive(Default)]
struct PointState {
    /// Total times this point has been reached (armed or not).
    hits: u64,
    /// If set, `fire` errors when `hits` reaches this value.
    trip_at: Option<u64>,
}

/// Shared, thread-safe crash schedule. Clone the `Arc` into every component
/// that hosts a hook; arm points from the test driver.
#[derive(Default)]
pub struct CrashPlan {
    points: Mutex<HashMap<CrashPoint, PointState>>,
}

impl CrashPlan {
    /// A plan with nothing armed: hooks count hits but never fire.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `point` to crash on its `nth` execution from now on (1-based,
    /// counted from the plan's creation — use [`CrashPlan::hits`] from an
    /// observation run to pick a reachable `nth`).
    pub fn arm(&self, point: CrashPoint, nth: u64) {
        assert!(nth >= 1, "nth is 1-based");
        let mut points = self.points.lock().expect("crash plan lock");
        points.entry(point).or_default().trip_at = Some(nth);
    }

    /// How many times `point` has been reached.
    #[must_use]
    pub fn hits(&self, point: CrashPoint) -> u64 {
        self.points
            .lock()
            .expect("crash plan lock")
            .get(&point)
            .map_or(0, |s| s.hits)
    }

    /// Hook entry: record the hit and return `Err(TvError::Injected)` iff
    /// the point is armed and this is the armed occurrence.
    pub(crate) fn fire(&self, point: CrashPoint) -> TvResult<()> {
        let mut points = self.points.lock().expect("crash plan lock");
        let state = points.entry(point).or_default();
        state.hits += 1;
        if state.trip_at == Some(state.hits) {
            state.trip_at = None;
            return Err(TvError::Injected(point.to_string()));
        }
        Ok(())
    }
}

/// Convenience for the `Option<Arc<CrashPlan>>` fields hosted by production
/// components: no-op when the plan is absent.
pub fn crash_hook(plan: Option<&CrashPlan>, point: CrashPoint) -> TvResult<()> {
    match plan {
        Some(plan) => plan.fire(point),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_points_count_but_never_fire() {
        let plan = CrashPlan::new();
        for _ in 0..5 {
            plan.fire(CrashPoint::CommitMidWalAppend).unwrap();
        }
        assert_eq!(plan.hits(CrashPoint::CommitMidWalAppend), 5);
        assert_eq!(plan.hits(CrashPoint::CheckpointMidWrite), 0);
    }

    #[test]
    fn armed_point_fires_exactly_on_nth_hit() {
        let plan = CrashPlan::new();
        plan.arm(CrashPoint::CommitPostWalPreApply, 3);
        plan.fire(CrashPoint::CommitPostWalPreApply).unwrap();
        plan.fire(CrashPoint::CommitPostWalPreApply).unwrap();
        let err = plan.fire(CrashPoint::CommitPostWalPreApply).unwrap_err();
        assert_eq!(
            err,
            TvError::Injected("commit/post-wal-pre-apply".to_string())
        );
        // One-shot: the same point keeps counting but does not re-fire.
        plan.fire(CrashPoint::CommitPostWalPreApply).unwrap();
        assert_eq!(plan.hits(CrashPoint::CommitPostWalPreApply), 4);
    }

    #[test]
    fn points_are_independent() {
        let plan = CrashPlan::new();
        plan.arm(CrashPoint::CheckpointMidWrite, 1);
        plan.fire(CrashPoint::VacuumMidIndexMerge).unwrap();
        assert!(plan.fire(CrashPoint::CheckpointMidWrite).is_err());
    }

    #[test]
    fn hook_helper_is_noop_without_plan() {
        crash_hook(None, CrashPoint::CommitMidWalAppend).unwrap();
        let plan = CrashPlan::new();
        plan.arm(CrashPoint::CommitMidWalAppend, 1);
        assert!(crash_hook(Some(&plan), CrashPoint::CommitMidWalAppend).is_err());
    }

    #[test]
    fn injected_error_is_not_retryable() {
        assert!(!TvError::Injected("x".into()).is_retryable());
    }
}
