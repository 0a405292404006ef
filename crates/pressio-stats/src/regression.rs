//! Ordinary least squares with feature standardization and serializable
//! state — the model behind the Krasowska (2021) scheme and the fit stage
//! of several other predictors.

use crate::linalg::{solve_spd, Matrix};
use serde::{Deserialize, Serialize};

/// Fit error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// No (or not enough) training rows.
    TooFewSamples,
    /// Design matrix was numerically singular.
    Singular,
    /// Feature-dimension mismatch between fit and predict.
    DimensionMismatch,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewSamples => write!(f, "too few samples to fit"),
            FitError::Singular => write!(f, "singular design matrix"),
            FitError::DimensionMismatch => write!(f, "feature dimension mismatch"),
        }
    }
}

impl std::error::Error for FitError {}

/// A column whose std is at most this share of `max(|mean|, 1)` is
/// constant: identical rows leave a std of a few ulps of the mean.
const CONSTANT_STD: f64 = 1e-12;

/// A fitted linear model `y = b0 + Σ bi·(xi − μi)/σi` with standardized
/// features (standardization makes the ridge in the SPD solve scale-free).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct LinearModel {
    intercept: f64,
    coefficients: Vec<f64>,
    feature_means: Vec<f64>,
    feature_stds: Vec<f64>,
}

impl LinearModel {
    /// Fit by OLS. `xs` is one row of features per sample; `ys` the targets.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64]) -> Result<LinearModel, FitError> {
        let n = xs.len();
        if n == 0 || n != ys.len() {
            return Err(FitError::TooFewSamples);
        }
        let d = xs[0].len();
        if xs.iter().any(|r| r.len() != d) {
            return Err(FitError::DimensionMismatch);
        }
        if n < d + 1 {
            return Err(FitError::TooFewSamples);
        }
        // standardize features
        let mut means = vec![0.0f64; d];
        for row in xs {
            for (m, &x) in means.iter_mut().zip(row) {
                *m += x;
            }
        }
        for m in &mut means {
            *m /= n as f64;
        }
        let mut stds = vec![0.0f64; d];
        for row in xs {
            for ((s, &m), &x) in stds.iter_mut().zip(&means).zip(row) {
                *s += (x - m) * (x - m);
            }
        }
        for (s, m) in stds.iter_mut().zip(&means) {
            *s = (*s / n as f64).sqrt();
            // a constant feature's std is rounding residue, not always 0:
            // standardizing by it would blow a probe's offset up
            if !s.is_finite() || *s <= CONSTANT_STD * m.abs().max(1.0) {
                *s = 1.0; // constant feature: coefficient will be ~0
            }
        }
        // design with intercept column
        let mut design = Matrix::zeros(n, d + 1);
        for (r, row) in xs.iter().enumerate() {
            design.set(r, 0, 1.0);
            for (c, &x) in row.iter().enumerate() {
                design.set(r, c + 1, (x - means[c]) / stds[c]);
            }
        }
        let gram = design.gram();
        let rhs = design.t_mul_vec(ys);
        let beta = solve_spd(&gram, &rhs).ok_or(FitError::Singular)?;
        Ok(LinearModel {
            intercept: beta[0],
            coefficients: beta[1..].to_vec(),
            feature_means: means,
            feature_stds: stds,
        })
    }

    /// Predict a single sample.
    pub fn predict(&self, x: &[f64]) -> Result<f64, FitError> {
        if x.len() != self.coefficients.len() {
            return Err(FitError::DimensionMismatch);
        }
        let mut y = self.intercept;
        for (i, &xi) in x.iter().enumerate() {
            y += self.coefficients[i] * (xi - self.feature_means[i]) / self.feature_stds[i];
        }
        Ok(y)
    }

    /// Predict many samples.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, FitError> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.coefficients.len()
    }

    /// Standardized coefficients (effect sizes).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_plane(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let a = (i % 17) as f64;
            let b = ((i * 7) % 13) as f64;
            xs.push(vec![a, b]);
            // deterministic pseudo-noise
            let noise = ((i as f64 * 12.9898).sin() * 43758.5453).fract() * 0.01;
            ys.push(2.0 + 3.0 * a - 0.5 * b + noise);
        }
        (xs, ys)
    }

    #[test]
    fn recovers_linear_relationship() {
        let (xs, ys) = noisy_plane(200);
        let m = LinearModel::fit(&xs, &ys).unwrap();
        let preds = m.predict_batch(&xs).unwrap();
        for (p, y) in preds.iter().zip(&ys) {
            assert!((p - y).abs() < 0.05, "{p} vs {y}");
        }
    }

    #[test]
    fn exact_fit_on_exact_data() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..10).map(|i| 5.0 - 2.0 * i as f64).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        assert!((m.predict(&[20.0]).unwrap() - (5.0 - 40.0)).abs() < 1e-8);
    }

    #[test]
    fn constant_feature_is_harmless() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 7.0]).collect();
        let ys: Vec<f64> = (0..20).map(|i| 1.0 + 2.0 * i as f64).collect();
        let m = LinearModel::fit(&xs, &ys).unwrap();
        assert!((m.predict(&[3.0, 7.0]).unwrap() - 7.0).abs() < 1e-6);
    }

    #[test]
    fn errors_on_degenerate_inputs() {
        assert_eq!(
            LinearModel::fit(&[], &[]).unwrap_err(),
            FitError::TooFewSamples
        );
        // fewer samples than features + intercept
        assert_eq!(
            LinearModel::fit(&[vec![1.0, 2.0]], &[1.0]).unwrap_err(),
            FitError::TooFewSamples
        );
        // ragged rows
        assert_eq!(
            LinearModel::fit(&[vec![1.0], vec![1.0, 2.0], vec![3.0]], &[1.0, 2.0, 3.0])
                .unwrap_err(),
            FitError::DimensionMismatch
        );
    }

    #[test]
    fn predict_dimension_checked() {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let ys = vec![0.0; 5];
        let m = LinearModel::fit(&xs, &ys).unwrap();
        assert_eq!(
            m.predict(&[1.0, 2.0]).unwrap_err(),
            FitError::DimensionMismatch
        );
    }

    #[test]
    fn json_state_round_trip() {
        let (xs, ys) = noisy_plane(50);
        let m = LinearModel::fit(&xs, &ys).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let restored: LinearModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, restored);
        assert_eq!(
            m.predict(&[1.0, 2.0]).unwrap(),
            restored.predict(&[1.0, 2.0]).unwrap()
        );
    }
}
