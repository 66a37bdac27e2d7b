//! Summary statistics for experiment reporting.

/// Mean, min, max, and standard deviation of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub stddev: f64,
}

/// Computes a [`Summary`] of `xs`. Returns `None` for an empty sample.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let n = xs.len();
    let mean = xs.iter().sum::<f64>() / n as f64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut var = 0.0;
    for &x in xs {
        min = min.min(x);
        max = max.max(x);
        var += (x - mean) * (x - mean);
    }
    let stddev = if n > 1 {
        (var / (n - 1) as f64).sqrt()
    } else {
        0.0
    };
    Some(Summary {
        n,
        mean,
        min,
        max,
        stddev,
    })
}

/// The index of the `p`-quantile (0.0–1.0) in a sorted sample of `n`
/// elements, by the truncating nearest-rank rule `floor((n - 1) * p)`
/// the bench harness has always used. 0 for an empty sample.
///
/// `snap-obs` histograms use this rule, so a scraped p99 and a p99
/// computed from raw samples rank identically.
pub fn percentile_rank(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        ((n - 1) as f64 * p.clamp(0.0, 1.0)) as usize
    }
}

/// The `p`-quantile (0.0–1.0) of an ascending-sorted slice by
/// [`percentile_rank`]. Returns `None` for an empty slice.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        None
    } else {
        Some(sorted[percentile_rank(sorted.len(), p)])
    }
}

/// Sorts `xs` in place and returns the upper median `xs[len / 2]` (the
/// convention every bench report in this workspace uses). `None` for an
/// empty slice.
pub fn median<T: Copy + Ord>(xs: &mut [T]) -> Option<T> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_unstable();
    Some(xs[xs.len() / 2])
}

/// Parallel speedup of `base_time` over `time` (both in seconds).
pub fn speedup(base_time: f64, time: f64) -> f64 {
    if time <= 0.0 {
        return 0.0;
    }
    base_time / time
}

/// A degree histogram in power-of-two buckets: bucket `i` counts degrees in
/// `[2^i, 2^(i+1))`, with bucket 0 counting degrees 0 and 1.
pub fn log2_histogram(degrees: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut buckets = vec![0usize; 1];
    for d in degrees {
        let b = if d <= 1 {
            0
        } else {
            (usize::BITS - d.leading_zeros()) as usize - 1
        };
        if b >= buckets.len() {
            buckets.resize(b + 1, 0);
        }
        buckets[b] += 1;
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_known_values() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // Sample stddev of 1..4 = sqrt(5/3).
        assert!((s.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summarize_empty_is_none() {
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn summarize_singleton_has_zero_stddev() {
        let s = summarize(&[7.0]).unwrap();
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.mean, 7.0);
    }

    #[test]
    fn speedup_ratio() {
        assert!((speedup(10.0, 2.0) - 5.0).abs() < 1e-12);
        assert_eq!(speedup(1.0, 0.0), 0.0);
    }

    #[test]
    fn percentile_rank_truncates() {
        assert_eq!(percentile_rank(0, 0.5), 0);
        assert_eq!(percentile_rank(1, 0.99), 0);
        assert_eq!(percentile_rank(100, 0.50), 49);
        assert_eq!(percentile_rank(100, 0.99), 98);
        assert_eq!(percentile_rank(10, 1.0), 9);
        assert_eq!(percentile_rank(10, 2.0), 9, "p clamps to 1.0");
    }

    #[test]
    fn percentile_sorted_picks_rank() {
        let xs: Vec<u64> = (0..100).collect();
        assert_eq!(percentile_sorted(&xs, 0.0), Some(0));
        assert_eq!(percentile_sorted(&xs, 0.5), Some(49));
        assert_eq!(percentile_sorted(&xs, 0.99), Some(98));
        assert_eq!(percentile_sorted(&xs, 1.0), Some(99));
        assert_eq!(percentile_sorted::<u64>(&[], 0.5), None);
    }

    #[test]
    fn median_is_upper_median() {
        assert_eq!(median::<u64>(&mut []), None);
        assert_eq!(median(&mut [5u64]), Some(5));
        assert_eq!(median(&mut [4u64, 1, 3, 2]), Some(3), "upper of 4");
        assert_eq!(median(&mut [9u64, 1, 5]), Some(5));
    }

    #[test]
    fn histogram_buckets() {
        // degrees: 0,1 -> b0; 2,3 -> b1; 4..7 -> b2; 8..15 -> b3
        let h = log2_histogram([0usize, 1, 2, 3, 4, 7, 8, 15]);
        assert_eq!(h, vec![2, 2, 2, 2]);
    }

    #[test]
    fn histogram_empty() {
        let h = log2_histogram(std::iter::empty());
        assert_eq!(h, vec![0]);
    }
}
