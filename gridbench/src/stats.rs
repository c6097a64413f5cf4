//! The benchmark's own arithmetic: percentiles with a tail-sample rule,
//! useful-work ratios, and kernel self time.

/// Fewest samples that must lie strictly beyond a reported tail
/// percentile. A tail read from fewer samples is one outlier.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank quantile of an ascending slice: the smallest value with at
/// least `q * n` samples at or below it. `None` when `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly above the nearest-rank `q` quantile position of `n`
/// samples: `n - ceil(q * n)`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).min(n)
}

/// Whether the `q` quantile of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it, i.e. may be reported.
pub fn tail_ok(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// Ratio of useful outcomes to attempts; `0.0` when nothing was attempted
/// (the layer did no such work on this workload).
pub fn useful_ratio(useful: u64, attempts: u64) -> f64 {
    if attempts == 0 {
        0.0
    } else {
        useful as f64 / attempts as f64
    }
}

/// Kernel self time: wall time of the run phase minus the time spent
/// inside component handlers, floored at zero (clock granularity can make
/// the handler sum overshoot on a tiny run).
pub fn self_time(wall_s: f64, handler_busy_s: f64) -> f64 {
    (wall_s - handler_busy_s).max(0.0)
}

/// Median of an unsorted sample (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = ramp(10_000);
        assert_eq!(quantile(&v, 0.5), Some(5_000.0));
        assert_eq!(quantile(&v, 0.999), Some(9_990.0));
        assert_eq!(quantile(&v, 1.0), Some(10_000.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.999), Some(7.0));
    }

    #[test]
    fn p999_needs_ten_thousand_samples() {
        // 10k samples leave exactly ten beyond p99.9; one fewer leaves nine.
        assert_eq!(samples_beyond(10_000, 0.999), 10);
        assert!(tail_ok(10_000, 0.999));
        assert_eq!(samples_beyond(9_999, 0.999), 9);
        assert!(!tail_ok(9_999, 0.999));
        assert!(tail_ok(1_000, 0.99));
        assert!(!tail_ok(999, 0.99));
        assert_eq!(samples_beyond(0, 0.5), 0);
        assert_eq!(samples_beyond(5, 1.0), 0);
    }

    #[test]
    fn tail_sample_count_matches_the_quantile_position() {
        let v = ramp(20_000);
        let p = quantile(&v, 0.999).expect("non-empty");
        let beyond = v.iter().filter(|&&x| x > p).count();
        assert_eq!(beyond, samples_beyond(v.len(), 0.999));
    }

    #[test]
    fn useful_ratios() {
        assert_eq!(useful_ratio(0, 0), 0.0);
        assert_eq!(useful_ratio(3, 4), 0.75);
        assert_eq!(useful_ratio(37_157, 40_247), 37_157.0 / 40_247.0);
        assert_eq!(useful_ratio(5, 5), 1.0);
    }

    #[test]
    fn self_time_is_wall_minus_handler_busy() {
        assert!((self_time(10.0, 6.1) - 3.9).abs() < 1e-12);
        assert_eq!(self_time(1.0, 1.5), 0.0);
        assert_eq!(self_time(2.0, 0.0), 2.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
