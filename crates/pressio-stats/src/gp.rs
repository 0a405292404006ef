//! Gaussian-process regression — the model family behind Lu (2018)'s
//! compression-performance estimator (Table 1: regression, accurate,
//! sampling, uses compressor internals).
//!
//! Exact GP with a squared-exponential kernel: hyper-parameters are set by
//! the median heuristic (lengthscale) and the target variance (signal),
//! which is robust and deterministic — no iterative marginal-likelihood
//! optimization, keeping `fit` fast and reproducible.

use crate::linalg::{solve_spd, Matrix};
use crate::regression::FitError;
use serde::{Deserialize, Serialize};

/// A fitted Gaussian-process regressor.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct GaussianProcess {
    train_x: Vec<Vec<f64>>,
    alpha: Vec<f64>,
    lengthscale: f64,
    signal_var: f64,
    y_mean: f64,
    feature_means: Vec<f64>,
    feature_stds: Vec<f64>,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

impl GaussianProcess {
    /// Fit on `(xs, ys)` with noise variance fraction `noise` (of the
    /// target variance; e.g. `0.01`).
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], noise: f64) -> Result<GaussianProcess, FitError> {
        let n = xs.len();
        if n == 0 || n != ys.len() {
            return Err(FitError::TooFewSamples);
        }
        let d = xs[0].len();
        if xs.iter().any(|r| r.len() != d) {
            return Err(FitError::DimensionMismatch);
        }
        // standardize features
        let mut means = vec![0.0f64; d];
        for row in xs {
            for (m, &x) in means.iter_mut().zip(row) {
                *m += x / n as f64;
            }
        }
        let mut stds = vec![0.0f64; d];
        for row in xs {
            for ((s, &m), &x) in stds.iter_mut().zip(&means).zip(row) {
                *s += (x - m) * (x - m) / n as f64;
            }
        }
        for s in &mut stds {
            *s = s.sqrt();
            if *s == 0.0 || !s.is_finite() {
                *s = 1.0;
            }
        }
        let train_x: Vec<Vec<f64>> = xs
            .iter()
            .map(|row| {
                row.iter()
                    .zip(means.iter().zip(&stds))
                    .map(|(&x, (&m, &s))| (x - m) / s)
                    .collect()
            })
            .collect();
        // median heuristic lengthscale over pairwise distances
        let mut dists = Vec::new();
        for i in 0..n.min(64) {
            for j in i + 1..n.min(64) {
                let dsq = sq_dist(&train_x[i], &train_x[j]);
                if dsq > 0.0 {
                    dists.push(dsq.sqrt());
                }
            }
        }
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // half the median pairwise distance: the plain median tends to
        // over-smooth boundaries on densely sampled 1-d sweeps
        let lengthscale = if dists.is_empty() {
            1.0
        } else {
            (dists[dists.len() / 2] * 0.5).max(1e-6)
        };
        let y_mean = ys.iter().sum::<f64>() / n as f64;
        let y_var = ys.iter().map(|y| (y - y_mean) * (y - y_mean)).sum::<f64>() / n as f64;
        let signal_var = y_var.max(1e-12);
        let noise_var = (noise.max(1e-6) * signal_var).max(1e-12);
        // K + σ²I, then α = (K + σ²I)⁻¹ (y − ȳ)
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                let v = signal_var
                    * (-sq_dist(&train_x[i], &train_x[j]) / (2.0 * lengthscale * lengthscale))
                        .exp();
                k.set(i, j, v);
                k.set(j, i, v);
            }
            k.set(i, i, k.get(i, i) + noise_var);
        }
        let centered: Vec<f64> = ys.iter().map(|y| y - y_mean).collect();
        let alpha = solve_spd(&k, &centered).ok_or(FitError::Singular)?;
        Ok(GaussianProcess {
            train_x,
            alpha,
            lengthscale,
            signal_var,
            y_mean,
            feature_means: means,
            feature_stds: stds,
        })
    }

    /// Posterior mean at `x`.
    pub fn predict(&self, x: &[f64]) -> Result<f64, FitError> {
        if x.len() != self.feature_means.len() {
            return Err(FitError::DimensionMismatch);
        }
        let xs: Vec<f64> = x
            .iter()
            .zip(self.feature_means.iter().zip(&self.feature_stds))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect();
        let mut mean = self.y_mean;
        for (xi, &a) in self.train_x.iter().zip(&self.alpha) {
            let k = self.signal_var
                * (-sq_dist(&xs, xi) / (2.0 * self.lengthscale * self.lengthscale)).exp();
            mean += k * a;
        }
        Ok(mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.2]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin() * 3.0 + 1.0).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_smooth_function() {
        let (xs, ys) = wave_data(60);
        let gp = GaussianProcess::fit(&xs, &ys, 0.001).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(x).unwrap();
            assert!((p - y).abs() < 0.15, "{p} vs {y} at {x:?}");
        }
        // between training points too
        let p = gp.predict(&[3.1]).unwrap();
        assert!((p - (3.1f64.sin() * 3.0 + 1.0)).abs() < 0.2);
    }

    #[test]
    fn reverts_to_mean_far_from_data() {
        let (xs, ys) = wave_data(30);
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let gp = GaussianProcess::fit(&xs, &ys, 0.01).unwrap();
        let far = gp.predict(&[1e6]).unwrap();
        assert!(
            (far - mean).abs() < 1e-6,
            "far prediction {far} vs mean {mean}"
        );
    }

    #[test]
    fn multidimensional_fit() {
        let xs: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![(i % 9) as f64, (i % 7) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0] * 2.0 - r[1] + 0.5).collect();
        let gp = GaussianProcess::fit(&xs, &ys, 0.001).unwrap();
        for (x, y) in xs.iter().zip(&ys).take(20) {
            assert!((gp.predict(x).unwrap() - y).abs() < 0.5);
        }
    }

    #[test]
    fn degenerate_inputs_error() {
        assert!(GaussianProcess::fit(&[], &[], 0.01).is_err());
        let gp = GaussianProcess::fit(&[vec![1.0]], &[2.0], 0.01).unwrap();
        assert!(gp.predict(&[1.0, 2.0]).is_err());
        // single point predicts its own value
        assert!((gp.predict(&[1.0]).unwrap() - 2.0).abs() < 0.1);
    }

    #[test]
    fn constant_targets_are_fine() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys = vec![5.0; 10];
        let gp = GaussianProcess::fit(&xs, &ys, 0.01).unwrap();
        assert!((gp.predict(&[3.5]).unwrap() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn serde_round_trip() {
        let (xs, ys) = wave_data(20);
        let gp = GaussianProcess::fit(&xs, &ys, 0.01).unwrap();
        let json = serde_json::to_string(&gp).unwrap();
        let back: GaussianProcess = serde_json::from_str(&json).unwrap();
        assert_eq!(gp, back);
        assert_eq!(gp.predict(&[1.0]).unwrap(), back.predict(&[1.0]).unwrap());
    }
}
