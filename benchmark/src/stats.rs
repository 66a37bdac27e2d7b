//! Order statistics for reported figures. Every metric the benchmark
//! prints is a median (or a named higher percentile) of a sample.

/// Ascending-sorted copy of `xs`.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-quantile (0..=1) of a non-empty sample, by the rank rule the
/// rest of the repo reports percentiles with.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    snap::util::stats::percentile_sorted(&sorted(xs), p).expect("percentile of an empty sample")
}

/// The three quartiles as Python's `statistics.quantiles(xs, n=4)` gives
/// them (the exclusive method), so `compare` judges spread by the same
/// rule as the driver. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let len = v.len();
    assert!(len >= 2, "quartiles need at least two values");
    let m = len + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_of_an_unsorted_sample() {
        let xs: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
    }
}
