//! Deterministic injection: a component hits named [`Point`]s on its
//! [`Injector`], and a test arms an [`Action`] on a point's n-th hit:
//! `Fail` returns [`TvError::Injected`] naming the point, `Delay` sleeps,
//! `Pause` parks the thread until released. The default injector has no
//! plan, so a hit is one null check. Contract: DESIGN §3k.

use crate::error::{TvError, TvResult};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Instrumented locations: five durability and six migration points, where
/// process death leaves durable state in a distinct shape (DESIGN §3d,
/// §3h), and a cluster worker's receive and reply, where `Fail` swallows
/// the request or drops the answer (§3b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Point {
    CommitMidWalAppend,
    CommitPostWalPreApply,
    CheckpointMidWrite,
    CheckpointPostManifestPreTruncate,
    VacuumMidIndexMerge,
    MigrateMidShip,
    MigrateShipTruncate,
    MigrateMidInstall,
    MigrateMidCatchup,
    MigrateAtFlip,
    MigratePostFlipPreRelease,
    WorkerRecv { server: usize },
    WorkerReply { server: usize },
}

impl Point {
    /// The commit, checkpoint and vacuum points, in `slot` order.
    pub const DURABILITY: [Point; 5] = [
        Point::CommitMidWalAppend,
        Point::CommitPostWalPreApply,
        Point::CheckpointMidWrite,
        Point::CheckpointPostManifestPreTruncate,
        Point::VacuumMidIndexMerge,
    ];

    /// The live-migration points, in phase (and `slot`) order.
    pub const MIGRATION: [Point; 6] = [
        Point::MigrateMidShip,
        Point::MigrateShipTruncate,
        Point::MigrateMidInstall,
        Point::MigrateMidCatchup,
        Point::MigrateAtFlip,
        Point::MigratePostFlipPreRelease,
    ];

    /// Index of this point's hit counter: 11 fixed, then two per server.
    fn slot(self) -> usize {
        let mut fixed = Self::DURABILITY.iter().chain(&Self::MIGRATION);
        match self {
            Point::WorkerRecv { server } => 11 + 2 * server,
            Point::WorkerReply { server } => 12 + 2 * server,
            p => fixed.position(|&q| q == p).expect("listed"),
        }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Point::CommitMidWalAppend => "commit/mid-wal-append",
            Point::CommitPostWalPreApply => "commit/post-wal-pre-apply",
            Point::CheckpointMidWrite => "checkpoint/mid-write",
            Point::CheckpointPostManifestPreTruncate => "checkpoint/post-manifest-pre-truncate",
            Point::VacuumMidIndexMerge => "vacuum/mid-index-merge",
            Point::MigrateMidShip => "migrate/mid-ship",
            Point::MigrateShipTruncate => "migrate/ship-truncate",
            Point::MigrateMidInstall => "migrate/mid-install",
            Point::MigrateMidCatchup => "migrate/mid-catchup",
            Point::MigrateAtFlip => "migrate/at-flip",
            Point::MigratePostFlipPreRelease => "migrate/post-flip-pre-release",
            Point::WorkerRecv { server } => return write!(f, "worker/recv@{server}"),
            Point::WorkerReply { server } => return write!(f, "worker/reply@{server}"),
        })
    }
}

/// What an armed point does to the thread that hits it. A `Pause` lasts
/// until [`Injector::release`] or [`Injector::clear`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Fail,
    Delay(Duration),
    Pause,
}

#[derive(Default)]
struct State {
    /// The armed action and the hit numbers it fires on, `from..until`.
    arms: HashMap<Point, (Action, u64, Option<u64>)>,
    /// Threads parked at a point so far, and how many of them were released.
    gates: HashMap<Point, (u64, u64)>,
}

#[derive(Default)]
struct Plan {
    hits: Box<[AtomicU64]>,
    /// Points with an action armed; zero keeps `hit` off the lock.
    armed: AtomicUsize,
    state: Mutex<State>,
    wake: Condvar,
}

/// A handle to an injection plan; clones share it. `Injector::default()`
/// has none, which is what production code holds.
#[derive(Clone, Default)]
pub struct Injector(Option<Arc<Plan>>);

const LOCK: &str = "injection plan lock";

impl Injector {
    /// A plan over the durability and migration points.
    #[must_use]
    pub fn live() -> Self {
        Self::for_servers(0)
    }

    /// A plan that also covers the worker points of `servers` servers.
    #[must_use]
    pub fn for_servers(servers: usize) -> Self {
        let hits = (0..11 + 2 * servers).map(|_| AtomicU64::new(0)).collect();
        Injector(Some(Arc::new(Plan {
            hits,
            ..Plan::default()
        })))
    }

    /// Arm `action` on `point`'s `nth` hit from now (1-based), for `times`
    /// hits (`None`: until [`Injector::clear`]). Re-arming replaces.
    pub fn arm(&self, point: Point, action: Action, nth: u64, times: Option<u64>) {
        assert!(nth >= 1 && times != Some(0), "nth is 1-based, times > 0");
        let plan = self.0.as_deref().expect("a live injector");
        let from = self.hits(point) + nth;
        let mut state = plan.state.lock().expect(LOCK);
        let arm = (action, from, times.map(|t| from + t));
        if state.arms.insert(point, arm).is_none() {
            plan.armed.fetch_add(1, Ordering::Release);
        }
    }

    /// How many times `point` has been reached.
    #[must_use]
    pub fn hits(&self, point: Point) -> u64 {
        let Some(plan) = &self.0 else { return 0 };
        plan.hits[point.slot()].load(Ordering::Relaxed)
    }

    /// Hook entry: count the hit, and run the armed action if it fires.
    pub fn hit(&self, point: Point) -> TvResult<()> {
        let Some(plan) = &self.0 else { return Ok(()) };
        let n = plan.hits[point.slot()].fetch_add(1, Ordering::Relaxed) + 1;
        if plan.armed.load(Ordering::Acquire) == 0 {
            return Ok(());
        }
        let mut state = plan.state.lock().expect(LOCK);
        let fires = |a: &&(Action, u64, Option<u64>)| a.1 <= n && a.2.is_none_or(|u| n < u);
        let Some(&(action, _, until)) = state.arms.get(&point).filter(fires) else {
            return Ok(());
        };
        if until == Some(n + 1) {
            state.arms.remove(&point);
            plan.armed.fetch_sub(1, Ordering::Release);
        }
        match action {
            Action::Fail => return Err(TvError::Injected(point.to_string())),
            Action::Delay(d) => {
                drop(state);
                std::thread::sleep(d);
            }
            Action::Pause => {
                let gate = state.gates.entry(point).or_default();
                gate.0 += 1;
                let ticket = gate.0;
                plan.wake.notify_all();
                let parked = |s: &mut State| s.gates[&point].1 < ticket;
                drop(plan.wake.wait_while(state, parked).expect(LOCK));
            }
        }
        Ok(())
    }

    /// Block until a thread is parked at `point`; panics after a minute,
    /// so a schedule that never reaches the point fails instead of hanging.
    pub fn wait_parked(&self, point: Point) {
        let plan = self.0.as_deref().expect("a live injector");
        let none = |s: &mut State| s.gates.get(&point).is_none_or(|g| g.0 == g.1);
        let (state, limit) = (plan.state.lock().expect(LOCK), Duration::from_secs(60));
        let waited = plan.wake.wait_timeout_while(state, limit, none);
        let timed_out = waited.expect(LOCK).1.timed_out();
        assert!(!timed_out, "nothing parked at {point}");
    }

    /// Resume every thread parked at `point`.
    pub fn release(&self, point: Point) {
        let plan = self.0.as_deref().expect("a live injector");
        let mut state = plan.state.lock().expect(LOCK);
        let gate = state.gates.entry(point).or_default();
        gate.1 = gate.0;
        plan.wake.notify_all();
    }

    /// Disarm every point and resume every parked thread.
    pub fn clear(&self) {
        let Some(plan) = &self.0 else { return };
        let mut state = plan.state.lock().expect(LOCK);
        state.arms.clear();
        state.gates.values_mut().for_each(|g| g.1 = g.0);
        plan.armed.store(0, Ordering::Release);
        plan.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    const RECV0: Point = Point::WorkerRecv { server: 0 };
    const RECV1: Point = Point::WorkerRecv { server: 1 };

    /// One row of the budget table: what `arm` was given, and which of the
    /// next hits fail.
    struct Case {
        nth: u64,
        times: Option<u64>,
        fails: &'static [bool],
    }

    #[test]
    fn nth_hit_and_times_budgets() {
        let cases = [
            // The crash points' one-shot n-th hit.
            Case {
                nth: 3,
                times: Some(1),
                fails: &[false, false, true, false, false],
            },
            Case {
                nth: 1,
                times: Some(1),
                fails: &[true, false, false],
            },
            // The worker faults' "next `times` requests".
            Case {
                nth: 1,
                times: Some(2),
                fails: &[true, true, false, false],
            },
            Case {
                nth: 2,
                times: Some(2),
                fails: &[false, true, true, false],
            },
            // Until cleared.
            Case {
                nth: 1,
                times: None,
                fails: &[true, true, true, true, true],
            },
        ];
        for (row, c) in cases.iter().enumerate() {
            for point in [Point::CommitPostWalPreApply, RECV1] {
                let inj = Injector::for_servers(2);
                inj.hit(point).unwrap(); // earlier hits do not count toward nth
                inj.arm(point, Action::Fail, c.nth, c.times);
                let got: Vec<bool> = c.fails.iter().map(|_| inj.hit(point).is_err()).collect();
                assert_eq!(got, c.fails, "row {row} at {point}");
                assert_eq!(inj.hits(point), 1 + c.fails.len() as u64);
            }
        }
    }

    #[test]
    fn failure_names_the_point() {
        let inj = Injector::live();
        inj.arm(Point::CommitPostWalPreApply, Action::Fail, 1, Some(1));
        let err = inj.hit(Point::CommitPostWalPreApply).unwrap_err();
        assert_eq!(err, TvError::Injected("commit/post-wal-pre-apply".into()));
        assert!(!err.is_retryable());
    }

    #[test]
    fn points_and_servers_are_independent() {
        let inj = Injector::for_servers(2);
        inj.arm(RECV1, Action::Fail, 1, None);
        inj.arm(Point::CheckpointMidWrite, Action::Fail, 1, Some(1));
        inj.hit(RECV0).unwrap();
        inj.hit(Point::WorkerReply { server: 1 }).unwrap();
        inj.hit(Point::VacuumMidIndexMerge).unwrap();
        assert!(inj.hit(RECV1).is_err());
        assert!(inj.hit(Point::CheckpointMidWrite).is_err());
        inj.clear();
        inj.hit(RECV1).unwrap();
        assert_eq!(inj.hits(RECV0), 1);
        assert_eq!(inj.hits(RECV1), 2);
    }

    #[test]
    fn every_point_has_its_own_counter() {
        let servers = 3;
        let mut points: Vec<Point> = Point::DURABILITY.into_iter().collect();
        points.extend(Point::MIGRATION);
        for server in 0..servers {
            points.extend([Point::WorkerRecv { server }, Point::WorkerReply { server }]);
        }
        let mut slots: Vec<usize> = points.iter().map(|p| p.slot()).collect();
        slots.sort_unstable();
        let want: Vec<usize> = (0..11 + 2 * servers).collect();
        assert_eq!(slots, want, "slots must tile a plan's counters");
        let names: std::collections::HashSet<String> =
            points.iter().map(ToString::to_string).collect();
        assert_eq!(names.len(), points.len(), "names must be distinct");
    }

    #[test]
    fn an_unarmed_plan_only_counts_hits() {
        let inj = Injector::for_servers(1);
        for _ in 0..5 {
            inj.hit(Point::CommitMidWalAppend).unwrap();
            inj.hit(RECV0).unwrap();
        }
        assert_eq!(inj.hits(Point::CommitMidWalAppend), 5);
        assert_eq!(inj.hits(RECV0), 5);
        assert_eq!(inj.hits(Point::CheckpointMidWrite), 0);
        // No plan at all: nothing fires and nothing is counted.
        let none = Injector::default();
        none.hit(Point::CommitMidWalAppend).unwrap();
        assert_eq!(none.hits(Point::CommitMidWalAppend), 0);
        none.clear();
    }

    #[test]
    fn delay_sleeps_then_continues() {
        let inj = Injector::live();
        inj.arm(
            Point::MigrateAtFlip,
            Action::Delay(Duration::from_millis(5)),
            1,
            Some(1),
        );
        let started = Instant::now();
        inj.hit(Point::MigrateAtFlip).unwrap();
        assert!(started.elapsed() >= Duration::from_millis(5));
    }

    /// Park a thread at `point`, then let `resume` free it.
    fn parked_thread_resumes(resume: impl FnOnce(&Injector)) {
        let inj = Injector::for_servers(1);
        inj.arm(RECV0, Action::Pause, 1, Some(1));
        let done = Arc::new(AtomicUsize::new(0));
        let worker = {
            let (inj, done) = (inj.clone(), Arc::clone(&done));
            std::thread::spawn(move || {
                inj.hit(RECV0).unwrap();
                done.store(1, Ordering::SeqCst);
            })
        };
        inj.wait_parked(RECV0);
        assert_eq!(
            done.load(Ordering::SeqCst),
            0,
            "a parked hit must not return"
        );
        // Another point's release leaves it parked; an unarmed hit passes.
        inj.release(Point::MigrateAtFlip);
        inj.hit(RECV0).unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 0);
        resume(&inj);
        worker.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_parked_hit_resumes_on_release() {
        parked_thread_resumes(|inj| inj.release(RECV0));
    }

    #[test]
    fn a_parked_hit_resumes_on_clear() {
        parked_thread_resumes(Injector::clear);
    }
}
