//! Descriptive statistics and prediction-quality metrics.
//!
//! Includes MedAPE — the Median Absolute Percentage Error the paper uses as
//! its quality axis (robust to outliers and metric scale, §5).

/// Summary statistics of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of finite observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Fraction of exact zeros — the "sparsity" feature FXRZ's correction
    /// factor keys on.
    pub zero_fraction: f64,
}

impl Summary {
    /// Assemble the summary from the two lane-strided passes: `first` is
    /// what [`crate::lanes::sum_min_max_zeros`] (or the leading fields of a
    /// [`crate::lanes::Sweep`]) reported, and `sq_dev` runs
    /// [`crate::lanes::sum_sq_dev`] about the mean it is handed — skipped
    /// for a sample with no finite value, whose summary is all zeros.
    pub fn from_passes(
        (count, sum, min, max, zeros): (usize, f64, f64, f64, usize),
        sq_dev: impl FnOnce(f64) -> f64,
    ) -> Summary {
        if count == 0 {
            return Summary {
                count: 0,
                mean: 0.0,
                variance: 0.0,
                min: 0.0,
                max: 0.0,
                zero_fraction: 0.0,
            };
        }
        let mean = sum / count as f64;
        Summary {
            count,
            mean,
            variance: sq_dev(mean) / count as f64,
            min,
            max,
            zero_fraction: zeros as f64 / count as f64,
        }
    }
}

/// Compute [`Summary`] over `values`, ignoring non-finite entries.
///
/// Two lane-strided passes (sum/min/max/zeros, then squared deviations)
/// replace the old Welford recurrence: the passes are branch-free and
/// autovectorize, and two-pass variance is at least as accurate as the
/// single-pass update on the feature-extraction inputs here.
pub fn summarize(values: &[f64]) -> Summary {
    Summary::from_passes(crate::lanes::sum_min_max_zeros(values), |mean| {
        crate::lanes::sum_sq_dev(values, mean)
    })
}

/// `p`-quantile (0 ≤ p ≤ 1) with linear interpolation; ignores non-finite
/// values; returns `None` on an empty (or all-non-finite) sample.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(v[lo] * (1.0 - frac) + v[hi] * frac)
}

/// Median (0.5-quantile).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Median Absolute Percentage Error, in percent:
/// `median(|predicted - actual| / |actual|) × 100`.
///
/// Pairs where `actual == 0` are skipped (their percentage error is
/// undefined); returns `None` when no valid pairs remain.
pub fn medape(actual: &[f64], predicted: &[f64]) -> Option<f64> {
    let apes: Vec<f64> = actual
        .iter()
        .zip(predicted)
        .filter(|(a, p)| a.is_finite() && p.is_finite() && **a != 0.0)
        .map(|(a, p)| ((p - a) / a).abs() * 100.0)
        .collect();
    median(&apes)
}

/// Root-mean-square error between paired samples.
pub fn rmse(actual: &[f64], predicted: &[f64]) -> f64 {
    let n = actual.len().min(predicted.len());
    if n == 0 {
        return 0.0;
    }
    let sse: f64 = actual
        .iter()
        .zip(predicted)
        .map(|(a, p)| (a - p) * (a - p))
        .sum();
    (sse / n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!((s.variance - 1.25).abs() < 1e-12);
        assert_eq!(s.zero_fraction, 0.0);
    }

    #[test]
    fn summary_ignores_non_finite_and_counts_zeros() {
        let s = summarize(&[0.0, 0.0, 1.0, f64::NAN, f64::INFINITY]);
        assert_eq!(s.count, 3);
        assert!((s.zero_fraction - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_of_empty() {
        let s = summarize(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn medape_robust_to_one_outlier() {
        let actual = [10.0, 10.0, 10.0, 10.0, 10.0];
        let predicted = [11.0, 11.0, 11.0, 11.0, 1000.0];
        // the outlier's 9 900 % does not move the median: it stays at 10%
        assert!((medape(&actual, &predicted).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn medape_skips_zero_actuals() {
        let actual = [0.0, 10.0];
        let predicted = [5.0, 20.0];
        assert!((medape(&actual, &predicted).unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(medape(&[0.0], &[1.0]), None);
    }

    #[test]
    fn medape_exact_predictions_zero() {
        let a = [3.0, 7.0, 2.0];
        assert_eq!(medape(&a, &a), Some(0.0));
    }

    #[test]
    fn rmse_of_paired_samples() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(rmse(&a, &a), 0.0);
        // predicting the mean: errors 1, 0, 1
        assert!((rmse(&a, &[2.0, 2.0, 2.0]) - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(rmse(&[], &[]), 0.0);
    }
}
