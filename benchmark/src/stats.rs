//! Order statistics used by the reports and by `benchmark compare`.

/// Percentiles a timing may be reported at, in tenths of a percent.
const PERCENTILE_LADDER: [u32; 5] = [500, 900, 950, 990, 999];

/// 1-based nearest rank of percentile `p` (tenths of a percent) among
/// `n` samples: the smallest rank whose cumulative share reaches `p`.
pub fn nearest_rank(n: usize, p: u32) -> usize {
    let scaled = n as u64 * u64::from(p);
    (scaled.div_ceil(1000) as usize).clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    n - nearest_rank(n, p)
}

/// The highest ladder percentile with at least ten samples beyond it,
/// or `None` when even the median has fewer than ten above it.
pub fn tail_percentile(n: usize) -> Option<u32> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// Nearest-rank percentile `p` (tenths of a percent) of ascending
/// `sorted`; `None` when empty.
pub fn percentile(sorted: &[u64], p: u32) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`, so the spreads this tool
/// reports match the ones computed from the same runs in Python. `None`
/// for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative or beyond 4 after the clamp: Python extrapolates too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median (`NaN` when undefined).
pub fn relative_iqr(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / median(values).abs(),
        None => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule() {
        assert_eq!(nearest_rank(100, 500), 50);
        assert_eq!(nearest_rank(101, 500), 51);
        assert_eq!(nearest_rank(200, 950), 190);
        assert_eq!(nearest_rank(2048, 990), 2028);
        assert_eq!(nearest_rank(1, 999), 1);
        assert_eq!(percentile(&[], 500), None);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), Some(50));
        assert_eq!(percentile(&v, 990), Some(99));
        assert_eq!(percentile(&v, 999), Some(100));
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 200 walks: p95 leaves exactly 10 above it, p99 only 2.
        assert_eq!(samples_beyond(200, 950), 10);
        assert_eq!(samples_beyond(200, 990), 2);
        assert_eq!(tail_percentile(200), Some(950));
        // 2048 epochs: p99 leaves 20, p99.9 only 2.
        assert_eq!(tail_percentile(2048), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
        // One sample short of the boundary falls back a rung.
        assert_eq!(tail_percentile(199), Some(900));
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the data at small n.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
