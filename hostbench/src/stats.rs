//! Order statistics used by the workloads and by `compare`.
//!
//! Within one run, percentiles are nearest-rank: the reported value is a
//! sample that was actually measured. Across runs, quartiles follow
//! Python's `statistics.quantiles(values, n=4)` (its default "exclusive"
//! method), so `compare` judges spread exactly as an outside reader
//! re-computing it from the results files would.

/// The samples in ascending order (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`: the
/// smallest sample with at least `p`% of the samples at or below it.
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn pct(values: &[f64], p: f64) -> f64 {
    percentile(&sorted(values), p)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First quartile, median and third quartile, as
/// `statistics.quantiles(values, n=4)` computes them. A single sample is
/// its own quartiles; no samples give zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let d = sorted(values);
    let n = d.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (d[0], d[0], d[0]),
        _ => {}
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0): the run-to-run spread the benchmark bounds are judged against.
pub fn iqr_frac(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(pct(&[3.0, 1.0, 2.0], 50.0), 2.0);
        // p99 of 1000 samples has exactly ten samples above it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), 990.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn iqr_is_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_frac(&[4.0; 10]), 0.0);
        assert_eq!(iqr_frac(&[0.0, 0.0]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
