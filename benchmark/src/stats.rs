//! Order statistics used by the report and by `compare`.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice so an absent sample never divides by zero.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() * p as usize).div_ceil(100).max(1);
    v[rank - 1]
}

/// The tail percentile a sample of `n` supports: the highest of
/// p75/p90/p95/p99 that still has at least ten samples beyond it.
pub fn tail_choice(n: usize) -> Option<u32> {
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 10 * 100)
}

/// [`tail_choice`] applied: `(p, value)` or `None` for a short sample.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    tail_choice(xs.len()).map(|p| (p, percentile(xs, p)))
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` gives them (the
/// "exclusive" method) — the rule the acceptance spread is defined by.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need two values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median (0 for fewer than two
/// values or a zero median).
pub fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_choice(39), None);
        assert_eq!(tail_choice(40), Some(75));
        assert_eq!(tail_choice(99), Some(75));
        assert_eq!(tail_choice(100), Some(90));
        assert_eq!(tail_choice(199), Some(90));
        assert_eq!(tail_choice(200), Some(95));
        assert_eq!(tail_choice(999), Some(95));
        assert_eq!(tail_choice(1000), Some(99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90), 90.0);
        assert_eq!(percentile(&xs, 99), 99.0);
        assert_eq!(percentile(&[5.0], 75), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }
}
