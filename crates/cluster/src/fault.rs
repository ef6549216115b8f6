//! Deterministic fault injection for the cluster runtime.
//!
//! `fail_server` only flips routing; it cannot exercise the interesting
//! failure modes — a worker that receives a request and dies, a reply lost
//! on the wire, a straggler. [`FaultPlan`] injects exactly those, per
//! server and with bounded repetition, so the coordinator's retry, hedging,
//! and degraded-mode paths are *testable* (same seed → same faults) instead
//! of only simulatable.
//!
//! Workers consult the plan once per received request via
//! [`FaultPlan::on_receive`]; the returned [`FaultAction`] tells the worker
//! loop what to sabotage. Faults injected with a `times` budget expire on
//! their own, which keeps chaos tests free of cleanup ordering bugs.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Duration;
use tv_common::SplitMix64;

/// One kind of injected misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker receives the request and never replies (process crash as
    /// seen from the coordinator). Detected by the coordinator's
    /// per-attempt timeout and recovered via replica re-route.
    CrashOnRecv,
    /// The worker does the full search but the reply is lost (network
    /// partition on the return path). Indistinguishable from a crash at the
    /// coordinator — which is exactly the point.
    DropReply,
    /// Fixed extra latency before the worker starts searching (straggler).
    Delay(Duration),
    /// Pseudo-random latency in `[0, max)`, deterministic per
    /// `(seed, server, request index)` — a reproducible noisy network.
    SeededDelay {
        /// Exclusive upper bound on the injected latency.
        max: Duration,
        /// Seed mixed with the server id and request counter.
        seed: u64,
    },
}

/// What the worker loop should do with one incoming request, aggregated
/// over every fault active on that server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FaultAction {
    /// Swallow the request without replying.
    pub crash: bool,
    /// Do the work, then lose the reply.
    pub drop_reply: bool,
    /// Sleep this long before searching.
    pub delay: Duration,
}

#[derive(Debug, Clone, Copy)]
struct ActiveFault {
    kind: FaultKind,
    /// Requests this fault still applies to (`None` = until cleared).
    remaining: Option<u64>,
}

#[derive(Default)]
struct ServerState {
    faults: Vec<ActiveFault>,
    /// Requests this server has received (drives seeded delays).
    requests_seen: u64,
}

/// Per-server fault schedule shared between the coordinator (which injects
/// and clears) and the worker threads (which consult it per request).
#[derive(Default)]
pub struct FaultPlan {
    state: Mutex<HashMap<usize, ServerState>>,
}

impl FaultPlan {
    /// An empty plan: every request is clean.
    #[must_use]
    pub(crate) fn new() -> Self {
        FaultPlan::default()
    }

    /// Arm `kind` on `server` for the next `times` requests it receives
    /// (`None` = until [`FaultPlan::clear_all`]). Multiple faults stack: a
    /// delay plus a drop-reply models a slow worker whose answer is lost.
    pub(crate) fn inject(&self, server: usize, kind: FaultKind, times: Option<u64>) {
        self.state
            .lock()
            .entry(server)
            .or_default()
            .faults
            .push(ActiveFault {
                kind,
                remaining: times,
            });
    }

    /// Remove every fault on every server.
    pub fn clear_all(&self) {
        for s in self.state.lock().values_mut() {
            s.faults.clear();
        }
    }

    /// Consulted by a worker for each received request: aggregates the
    /// active faults into one [`FaultAction`] and consumes one use from
    /// every counted fault.
    pub(crate) fn on_receive(&self, server: usize) -> FaultAction {
        let mut state = self.state.lock();
        let Some(s) = state.get_mut(&server) else {
            return FaultAction::default();
        };
        s.requests_seen += 1;
        let request = s.requests_seen;
        let mut action = FaultAction::default();
        for f in &mut s.faults {
            match f.kind {
                FaultKind::CrashOnRecv => action.crash = true,
                FaultKind::DropReply => action.drop_reply = true,
                FaultKind::Delay(d) => action.delay += d,
                FaultKind::SeededDelay { max, seed } => {
                    let mut rng = SplitMix64::new(seed ^ ((server as u64) << 32) ^ request);
                    action.delay += max.mul_f64(f64::from(rng.next_f32()));
                }
            }
            if let Some(n) = &mut f.remaining {
                *n -= 1;
            }
        }
        s.faults.retain(|f| f.remaining != Some(0));
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_by_default() {
        let plan = FaultPlan::new();
        assert_eq!(plan.on_receive(0), FaultAction::default());
    }

    #[test]
    fn counted_fault_expires_on_its_own() {
        let plan = FaultPlan::new();
        plan.inject(1, FaultKind::CrashOnRecv, Some(2));
        assert!(plan.on_receive(1).crash);
        assert!(plan.on_receive(1).crash);
        assert_eq!(plan.on_receive(1), FaultAction::default());
        // Other servers were never affected.
        assert_eq!(plan.on_receive(0), FaultAction::default());
    }

    #[test]
    fn uncounted_fault_lasts_until_cleared() {
        let plan = FaultPlan::new();
        plan.inject(0, FaultKind::DropReply, None);
        for _ in 0..5 {
            assert!(plan.on_receive(0).drop_reply);
        }
        plan.clear_all();
        assert_eq!(plan.on_receive(0), FaultAction::default());
    }

    #[test]
    fn faults_stack() {
        let plan = FaultPlan::new();
        plan.inject(0, FaultKind::Delay(Duration::from_millis(3)), Some(1));
        plan.inject(0, FaultKind::DropReply, Some(1));
        let a = plan.on_receive(0);
        assert!(a.drop_reply);
        assert_eq!(a.delay, Duration::from_millis(3));
    }

    #[test]
    fn seeded_delay_is_deterministic_per_request() {
        let mk = || {
            let plan = FaultPlan::new();
            plan.inject(
                2,
                FaultKind::SeededDelay {
                    max: Duration::from_millis(10),
                    seed: 42,
                },
                None,
            );
            (plan.on_receive(2).delay, plan.on_receive(2).delay)
        };
        let (a1, a2) = mk();
        let (b1, b2) = mk();
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
        assert!(a1 < Duration::from_millis(10));
    }

    #[test]
    fn clear_all_covers_every_server() {
        let plan = FaultPlan::new();
        plan.inject(0, FaultKind::CrashOnRecv, None);
        plan.inject(3, FaultKind::DropReply, None);
        plan.clear_all();
        assert_eq!(plan.on_receive(0), FaultAction::default());
        assert_eq!(plan.on_receive(3), FaultAction::default());
    }
}
