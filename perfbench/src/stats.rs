//! The benchmark's statistics: medians, quartiles, latency percentiles
//! with failed requests counted as missing them, and failure accounting.

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method); `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median (the benchmark's spread
/// figure); `None` for fewer than two values or a zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// How many samples of `n` lie beyond the nearest-rank position of
/// percentile `pct`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - nearest_rank(n, pct)
}

/// The highest of the usual reporting percentiles that has at least ten
/// samples beyond it among `n`; `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// A latency percentile over every attempt: completed latencies plus
/// `failed` attempts that count as slower than any completion, so a
/// percentile that falls among them is missed (`None`). Nearest-rank.
pub fn latency_percentile(completed: &[f64], failed: usize, pct: f64) -> Option<f64> {
    let n = completed.len() + failed;
    if n == 0 {
        return None;
    }
    let rank = nearest_rank(n, pct);
    let sorted = sorted(completed);
    sorted.get(rank - 1).copied()
}

/// Failed attempts as a percentage of attempts (0 when nothing was
/// attempted).
pub fn failed_pct(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        100.0 * failed as f64 / attempted as f64
    }
}

fn nearest_rank(n: usize, pct: f64) -> usize {
    // Shave a relative hair off before rounding up, so that 99.9 % of
    // 10 000 is rank 9990 and not 9991 through float error.
    let x = pct * n as f64 / 100.0;
    let rank = (x - x * 1e-12).ceil() as usize;
    rank.clamp(1, n.max(1))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
    }

    #[test]
    fn nearest_rank_percentiles_of_completed_requests() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(latency_percentile(&v, 0, 50.0), Some(50.0));
        assert_eq!(latency_percentile(&v, 0, 90.0), Some(90.0));
        assert_eq!(latency_percentile(&v, 0, 100.0), Some(100.0));
        assert_eq!(latency_percentile(&[], 0, 50.0), None);
    }

    #[test]
    fn failed_requests_count_as_missing_the_percentile() {
        let v: Vec<f64> = (1..=90).map(f64::from).collect();
        // 90 completions + 10 failures: p90 still lands on a completion…
        assert_eq!(latency_percentile(&v, 10, 90.0), Some(90.0));
        // …but one more failure pushes p90 into the failed tail.
        let v: Vec<f64> = (1..=89).map(f64::from).collect();
        assert_eq!(latency_percentile(&v, 11, 90.0), None);
        // Failures also drag the median upward: they are slower than
        // every completion, never dropped from the sample.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(latency_percentile(&v, 10, 50.0), Some(10.0));
        assert_eq!(latency_percentile(&v, 11, 50.0), None);
        assert_eq!(latency_percentile(&[], 3, 50.0), None);
    }

    #[test]
    fn failed_pct_counts_failures_against_attempts() {
        assert_eq!(failed_pct(0, 0), 0.0);
        assert_eq!(failed_pct(200, 0), 0.0);
        assert_eq!(failed_pct(200, 3), 1.5);
        assert_eq!(failed_pct(4, 4), 100.0);
    }
}
