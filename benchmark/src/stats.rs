//! Order statistics and regression bounds.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`: the
/// ceiling of `p·n/100`, with decimal percentiles such as 99.9 (not exact
/// in binary) kept from rounding up a whole rank.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil() as usize
}

/// Percentiles tried, in increasing order, for [`highest_supported`].
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest percentile of [`LADDER`] that has at least ten samples
/// strictly beyond its nearest rank in a sample of `n`, or `None` when
/// even the median lacks them.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&p| n >= rank(p, n) + 10)
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so spreads printed here match an external check of the same
/// numbers.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput, accuracy).
    Higher,
    /// Smaller values are better (latency, CPU, tokens, memory).
    Lower,
}

impl Better {
    /// Parse the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base`: positive
/// means a regression in the metric's own direction, negative an
/// improvement.
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return if new == base { 0.0 } else { f64::INFINITY };
    }
    let change = (new - base) / base.abs();
    match better {
        Better::Higher => -change,
        Better::Lower => change,
    }
}

/// Whether `new` regressed from `base` by more than `bound` (a share of
/// `base`) in the metric's direction.
pub fn regressed(better: Better, bound: f64, base: f64, new: f64) -> bool {
    worsening(better, base, new) > bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_real_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        let w: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(nearest_rank(&w, 99.9), 9_990.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn bounds_respect_direction() {
        // Throughput falling 20% regresses past a 10% bound; rising does not.
        assert!(regressed(Better::Higher, 0.10, 100.0, 80.0));
        assert!(!regressed(Better::Higher, 0.10, 100.0, 130.0));
        assert!(!regressed(Better::Higher, 0.10, 100.0, 95.0));
        // Latency rising 20% regresses; falling never does.
        assert!(regressed(Better::Lower, 0.10, 1.0, 1.2));
        assert!(!regressed(Better::Lower, 0.10, 1.0, 0.5));
        assert!(!regressed(Better::Lower, 0.10, 1.0, 1.05));
        assert!((worsening(Better::Lower, 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert!((worsening(Better::Higher, 2.0, 2.5) + 0.25).abs() < 1e-12);
        assert_eq!(Better::parse("higher"), Some(Better::Higher));
        assert_eq!(Better::parse("up"), None);
    }
}
