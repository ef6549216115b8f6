//! Percentiles, the sample-count rule, and the quartile spread the
//! agreement criterion uses. End-to-end timings are taken over the whole
//! measured window; the per-slice series go into the provenance only.

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`); 0 when
/// empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// A percentile is reported only when more than ten samples lie beyond it.
pub fn percentile_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) > 10
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values.to_vec());
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// `(when, value)` samples of one window of `span_ns`, cut into `slices`
/// equal spans by `when`.
fn sliced(samples: &[(u64, f64)], span_ns: u64, slices: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); slices];
    for &(when, value) in samples {
        let i = (when as u128 * slices as u128 / u128::from(span_ns.max(1))) as usize;
        out[i.min(slices - 1)].push(value);
    }
    out
}

/// Percentile `q` of each slice (0 for an empty one).
pub fn slice_percentiles(samples: &[(u64, f64)], span_ns: u64, slices: usize, q: f64) -> Vec<f64> {
    sliced(samples, span_ns, slices.max(1))
        .into_iter()
        .map(|p| percentile(&sorted(p), q))
        .collect()
}

/// Completions per second in each slice.
pub fn slice_rates(samples: &[(u64, f64)], span_ns: u64, slices: usize) -> Vec<f64> {
    let slices = slices.max(1);
    let slice_s = span_ns as f64 / 1e9 / slices as f64;
    sliced(samples, span_ns, slices)
        .iter()
        .map(|p| p.len() as f64 / slice_s)
        .collect()
}

/// Percentile `q` of `(when, value)` samples over the whole window.
pub fn window_percentile(samples: &[(u64, f64)], q: f64) -> f64 {
    percentile(&sorted(samples.iter().map(|&(_, v)| v).collect()), q)
}

pub fn ns_to_us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / 1e3).collect()
}

/// p50 of a nanosecond sample, in microseconds.
pub fn p50_us(ns: &[u64]) -> f64 {
    percentile(&sorted(ns_to_us(ns)), 0.50)
}

/// p50 of per-query paired differences `upper[i] - lower[i]`, in
/// microseconds: what a layer adds over the layer below on the same queries.
pub fn added_p50_us(upper: &[u64], lower: &[u64]) -> f64 {
    let diffs = upper
        .iter()
        .zip(lower)
        .map(|(&u, &l)| (u as f64 - l as f64) / 1e3)
        .collect();
    percentile(&sorted(diffs), 0.50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn sample_count_rule() {
        // p95 of 200 samples leaves exactly ten beyond: not enough.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(!percentile_supported(200, 0.95));
        assert!(percentile_supported(220, 0.95));
        // p99 needs more than a thousand.
        assert!(!percentile_supported(1000, 0.99));
        assert!(percentile_supported(1101, 0.99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn a_stall_shows_in_the_window_and_in_its_slice() {
        // 10 slices of 1 s, 300 samples each at about 1.0; slice 3 stalls:
        // every one of its samples takes 100.
        let samples: Vec<(u64, f64)> = (0..10u64)
            .flat_map(|s| (0..300u64).map(move |i| (s, i)))
            .map(|(s, i)| {
                let lat = if s == 3 { 100.0 } else { 1.0 + i as f64 / 1e3 };
                (s * 1_000_000_000 + i * 1_000_000, lat)
            })
            .collect();
        let span = 10_000_000_000;
        // A tenth of the window stalled: the whole-window p95 is the stall.
        assert_eq!(window_percentile(&samples, 0.95), 100.0);
        assert!(window_percentile(&samples, 0.50) < 2.0);
        // The per-slice series kept in the provenance says where it was.
        let p50s = slice_percentiles(&samples, span, 10, 0.50);
        assert_eq!(p50s[3], 100.0);
        assert!(p50s.iter().enumerate().all(|(i, &v)| i == 3 || v < 2.0));
        assert_eq!(slice_rates(&samples, span, 10), vec![300.0; 10]);
        // A sample stamped exactly at the end lands in the last slice.
        assert_eq!(slice_rates(&[(span, 1.0)], span, 10)[9], 1.0);
    }

    #[test]
    fn paired_differences() {
        let upper = [5_000, 7_000, 9_000];
        let lower = [1_000, 2_000, 3_000];
        assert_eq!(added_p50_us(&upper, &lower), 5.0);
        assert_eq!(p50_us(&upper), 7.0);
    }
}
