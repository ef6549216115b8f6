//! Request deadlines.
//!
//! Every serving-layer request carries a [`Deadline`]; long scatter-gather
//! operations (the per-segment search fan-out in `tv-embedding`, the worker
//! loop in `tv-cluster`) check it at segment-search boundaries so a slow
//! query can be abandoned mid-flight instead of holding an executor slot
//! until completion.

use crate::{TvError, TvResult};
use std::time::{Duration, Instant};

/// An optional absolute deadline. `Deadline::none()` never expires, so
/// existing call paths that predate the serving layer keep their behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// No deadline: never expires.
    #[must_use]
    pub const fn none() -> Self {
        Deadline { at: None }
    }

    /// Deadline `timeout` from now.
    #[must_use]
    pub fn after(timeout: Duration) -> Self {
        Deadline {
            at: Some(Instant::now() + timeout),
        }
    }

    /// An already-expired deadline (tests and fail-fast paths).
    #[must_use]
    pub fn expired_now() -> Self {
        Deadline {
            at: Some(Instant::now()),
        }
    }

    /// Whether the deadline has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// Time remaining; `None` when unbounded, `Some(ZERO)` when expired.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// A wait no longer than `cap` that also never overshoots the
    /// deadline: `min(cap, remaining)`, or `cap` when unbounded. The
    /// coordinator's retry/hedge waits are all sized through this so
    /// recovery attempts spend only budget the caller still has.
    #[must_use]
    pub fn bounded_wait(&self, cap: Duration) -> Duration {
        match self.remaining() {
            Some(r) => r.min(cap),
            None => cap,
        }
    }

    /// The more permissive of two deadlines: unbounded if either is, else
    /// the later instant. A coalesced batch runs under the `latest` of its
    /// members' deadlines, so no member is cut short by another's budget.
    #[must_use]
    pub fn latest(self, other: Deadline) -> Deadline {
        Deadline {
            at: self.at.zip(other.at).map(|(a, b)| a.max(b)),
        }
    }

    /// Error out when expired — the check placed at segment-search
    /// boundaries.
    pub fn check(&self, what: &str) -> TvResult<()> {
        if self.expired() {
            Err(TvError::Timeout(format!("deadline exceeded in {what}")))
        } else {
            Ok(())
        }
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        let d = Deadline::none();
        assert!(!d.expired());
        assert!(d.remaining().is_none());
        assert!(d.check("x").is_ok());
    }

    #[test]
    fn expired_now_fails_check() {
        let d = Deadline::expired_now();
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        assert!(matches!(
            d.check("segment search"),
            Err(TvError::Timeout(_))
        ));
    }

    #[test]
    fn bounded_wait_respects_cap_and_budget() {
        let cap = Duration::from_millis(50);
        assert_eq!(Deadline::none().bounded_wait(cap), cap);
        assert_eq!(Deadline::expired_now().bounded_wait(cap), Duration::ZERO);
        let tight = Deadline::after(Duration::from_millis(5));
        assert!(tight.bounded_wait(cap) <= Duration::from_millis(5));
        let loose = Deadline::after(Duration::from_secs(60));
        assert_eq!(loose.bounded_wait(cap), cap);
    }

    #[test]
    fn latest_is_the_more_permissive() {
        let (near, far) = (
            Deadline::after(Duration::from_millis(1)),
            Deadline::after(Duration::from_secs(1)),
        );
        assert_eq!(near.latest(far), far);
        assert_eq!(far.latest(near), far);
        assert_eq!(near.latest(Deadline::none()), Deadline::none());
        assert_eq!(Deadline::none().latest(far), Deadline::none());
    }

    #[test]
    fn future_deadline_passes_then_expires() {
        let d = Deadline::after(Duration::from_millis(20));
        assert!(!d.expired());
        std::thread::sleep(Duration::from_millis(30));
        assert!(d.expired());
    }
}
