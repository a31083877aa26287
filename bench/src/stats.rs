//! Medians and percentiles over small samples.

/// Percentiles the benchmark is willing to report, ascending, in tenths
/// of a percent so the "samples beyond" count is exact integer arithmetic.
const LADDER_PERMILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile of an ascending sample; `p` in [0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted {
        [] => f64::NAN,
        [x] => *x,
        _ => {
            let rank = p / 100.0 * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(sorted.len() - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The highest percentile of the ladder with at least ten of `n` samples
/// beyond it, or `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER_PERMILLE
        .iter()
        .rev()
        .find(|&&pm| n * (1000 - pm) >= MIN_BEYOND * 1000)
        .map(|&pm| pm as f64 / 10.0)
}

/// `(percentile, value, sample count)` for the highest percentile the
/// sample supports.
pub fn tail(values: &[f64]) -> Option<(f64, f64, usize)> {
    let p = highest_supported_percentile(values.len())?;
    Some((p, percentile(&sorted(values), p), values.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 62.5), 3.5);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(120), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_reports_its_sample_count() {
        let v: Vec<f64> = (0..120).map(f64::from).collect();
        let (p, value, n) = tail(&v).unwrap();
        assert_eq!((p, n), (90.0, 120));
        assert!((value - 107.1).abs() < 1e-9);
        assert!(tail(&v[..5]).is_none());
    }
}
