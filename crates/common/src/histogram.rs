//! Lock-free latency histogram for the serving layer's per-tenant metrics.
//!
//! Latencies are recorded into logarithmic buckets (powers of ~2 over
//! nanoseconds), giving bounded memory, wait-free recording from many
//! executor threads, and quantile estimates (p50/p95/p99) accurate to the
//! bucket width — the standard shape used by production metrics pipelines.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets: covers 1ns .. ~584 years.
const BUCKETS: usize = 64;

/// A concurrent latency histogram with log2 bucketing.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

fn bucket_of(nanos: u64) -> usize {
    // log2, with 0 mapped to bucket 0.
    (64 - nanos.max(1).leading_zeros() as usize).saturating_sub(1)
}

/// Upper bound (inclusive) of a bucket in nanoseconds.
fn bucket_upper(idx: usize) -> u64 {
    if idx >= 63 {
        u64::MAX
    } else {
        (2u64 << idx) - 1
    }
}

impl LatencyHistogram {
    /// Record one observation.
    pub fn record(&self, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency (zero when empty).
    #[must_use]
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_nanos.load(Ordering::Relaxed) / n)
    }

    /// Maximum recorded latency.
    #[must_use]
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed))
    }

    /// Quantile estimate (`q` in `[0, 1]`), accurate to the bucket upper
    /// bound; zero when empty. Monotone in `q`.
    #[must_use]
    pub(crate) fn quantile(&self, q: f64) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Clamp the estimate to the true max so p99 of a uniform
                // sample can't exceed the largest observation.
                let upper = bucket_upper(idx).min(self.max_nanos.load(Ordering::Relaxed));
                return Duration::from_nanos(upper);
            }
        }
        self.max()
    }

    /// Convenience: (p50, p95, p99).
    #[must_use]
    pub fn percentiles(&self) -> (Duration, Duration, Duration) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let h = LatencyHistogram::default();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let (p50, p95, p99) = h.percentiles();
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= h.max());
        // p50 of 1..=1000µs sits within a 2× bucket of 500µs.
        assert!(p50 >= Duration::from_micros(250) && p50 <= Duration::from_micros(1050));
    }

    #[test]
    fn concurrent_recording() {
        let h = std::sync::Arc::new(LatencyHistogram::default());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let h = std::sync::Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    h.record(Duration::from_nanos(i));
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 8000);
    }

    #[test]
    fn bucket_math() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert!(bucket_upper(9) >= 1023);
    }
}
