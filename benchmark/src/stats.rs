//! Order statistics shared by the workloads and `compare`.

use resoftmax_serve::nearest_rank_index;

/// The samples sorted by total order.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        f64::midpoint(s[n / 2 - 1], s[n / 2])
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(data, n=4)` (the default "exclusive" method), so
/// spreads computed here match those computed from the printed values.
/// A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "quartiles of an empty sample");
    let s = sorted(samples);
    let n = s.len();
    if n == 1 {
        return (s[0], s[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// The highest of `percents` whose nearest-rank sample has at least ten
/// samples beyond it in a sample of `n`, or `None` when none does — the
/// tail a sample of that size supports.
pub fn tail_percentile(n: usize, percents: &[usize]) -> Option<usize> {
    if n == 0 {
        return None;
    }
    percents
        .iter()
        .copied()
        .filter(|&p| n - (nearest_rank_index(n, p) + 1) >= 10)
        .max()
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics on an empty sample or a value that is not positive and finite.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(
                v > 0.0 && v.is_finite(),
                "geomean needs positive values, got {v}"
            );
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), (1.25, 3.75));
        // Two samples extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ps = [50, 90, 99];
        // p99 of 1500 is the 1485th sample: 15 beyond.
        assert_eq!(tail_percentile(1500, &ps), Some(99));
        // p99 of 999 is the 990th sample: only 9 beyond, so p90 is the tail.
        assert_eq!(tail_percentile(999, &ps), Some(90));
        // p99 of 1000 is the 990th sample: exactly 10 beyond.
        assert_eq!(tail_percentile(1000, &ps), Some(99));
        // p90 of 100 is the 90th sample: exactly 10 beyond.
        assert_eq!(tail_percentile(100, &ps), Some(90));
        assert_eq!(tail_percentile(99, &ps), Some(50));
        assert_eq!(tail_percentile(20, &ps), Some(50));
        assert_eq!(tail_percentile(19, &ps), None);
        assert_eq!(tail_percentile(0, &ps), None);
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.25, 1.12, 1.57, 1.65]) - 1.379996).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }
}
