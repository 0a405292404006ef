//! Natural cubic spline regression — the flexible 1-D smoother the
//! Underwood (2023) scheme fits between its SVD-truncation feature and the
//! observed compression ratio.
//!
//! The basis is the standard natural-spline construction (Hastie et al.,
//! *Elements of Statistical Learning* §5.2.1): linear beyond the boundary
//! knots, cubic between them, fit by ordinary least squares.

use crate::linalg::{solve_spd, Matrix};
use crate::regression::FitError;
use serde::{Deserialize, Serialize};

/// A fitted natural cubic spline `y = f(x)`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct NaturalSpline {
    knots: Vec<f64>,
    /// Coefficients over the natural-spline basis (length `knots.len()`).
    beta: Vec<f64>,
}

fn pos_cube(v: f64) -> f64 {
    if v > 0.0 {
        v * v * v
    } else {
        0.0
    }
}

/// Evaluate the natural-spline basis at `x` for the given knots:
/// `[1, x, N1(x), ..., N_{K-2}(x)]`.
fn basis(x: f64, knots: &[f64]) -> Vec<f64> {
    let k = knots.len();
    let mut out = Vec::with_capacity(k);
    out.push(1.0);
    out.push(x);
    if k < 3 {
        return out;
    }
    let last = knots[k - 1];
    let second_last = knots[k - 2];
    let d_last = (pos_cube(x - second_last) - pos_cube(x - last)) / (last - second_last);
    for &xi in &knots[..k - 2] {
        let d_k = (pos_cube(x - xi) - pos_cube(x - last)) / (last - xi);
        out.push(d_k - d_last);
    }
    out
}

impl NaturalSpline {
    /// Fit with `num_knots` knots placed at quantiles of `xs`.
    ///
    /// Needs at least `num_knots + 1` samples and at least 2 distinct `x`
    /// values; degenerates gracefully to a line when knots collide.
    pub fn fit(xs: &[f64], ys: &[f64], num_knots: usize) -> Result<NaturalSpline, FitError> {
        let n = xs.len();
        if n != ys.len() || n < 2 {
            return Err(FitError::TooFewSamples);
        }
        let num_knots = num_knots.clamp(2, n.max(2));
        // quantile knots over the sorted distinct xs
        let mut sorted: Vec<f64> = xs.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.len() < 2 {
            return Err(FitError::TooFewSamples);
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup_by(|a, b| (*a - *b).abs() < 1e-300);
        if sorted.len() < 2 {
            return Err(FitError::Singular);
        }
        let k = num_knots.min(sorted.len());
        let mut knots: Vec<f64> = (0..k)
            .map(|i| {
                let pos = i as f64 / (k - 1) as f64 * (sorted.len() - 1) as f64;
                sorted[pos.round() as usize]
            })
            .collect();
        knots.dedup_by(|a, b| (*a - *b).abs() < 1e-300);
        if n < knots.len() + 1 {
            return Err(FitError::TooFewSamples);
        }
        let d = knots.len();
        let mut design = Matrix::zeros(n, d);
        for (r, &x) in xs.iter().enumerate() {
            let row = basis(x, &knots);
            for (c, &v) in row.iter().enumerate() {
                design.set(r, c, v);
            }
        }
        let gram = design.gram();
        let rhs = design.t_mul_vec(ys);
        let beta = solve_spd(&gram, &rhs).ok_or(FitError::Singular)?;
        Ok(NaturalSpline { knots, beta })
    }

    /// Evaluate the fitted spline at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        basis(x, &self.knots)
            .iter()
            .zip(&self.beta)
            .map(|(b, c)| b * c)
            .sum()
    }

    /// Evaluate at many points.
    pub fn predict_batch(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.predict(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_linear_data_exactly() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x - 1.0).collect();
        let sp = NaturalSpline::fit(&xs, &ys, 5).unwrap();
        for &x in &xs {
            assert!((sp.predict(x) - (3.0 * x - 1.0)).abs() < 1e-6);
        }
        // natural splines extrapolate linearly
        assert!((sp.predict(10.0) - 29.0).abs() < 1e-4);
    }

    #[test]
    fn fits_smooth_nonlinear_data() {
        let xs: Vec<f64> = (0..200).map(|i| i as f64 * 0.05).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin()).collect();
        let sp = NaturalSpline::fit(&xs, &ys, 10).unwrap();
        let preds = sp.predict_batch(&xs);
        let max_err = xs
            .iter()
            .zip(&preds)
            .map(|(x, p)| (x.sin() - p).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 0.05, "spline fit error {max_err}");
    }

    #[test]
    fn beats_line_on_curved_data() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x - 5.0) * (x - 5.0)).collect();
        let sp = NaturalSpline::fit(&xs, &ys, 8).unwrap();
        let line = crate::regression::LinearModel::fit(
            &xs.iter().map(|&x| vec![x]).collect::<Vec<_>>(),
            &ys,
        )
        .unwrap();
        let sp_rmse = crate::descriptive::rmse(&ys, &sp.predict_batch(&xs));
        let ln_rmse = crate::descriptive::rmse(
            &ys,
            &line
                .predict_batch(&xs.iter().map(|&x| vec![x]).collect::<Vec<_>>())
                .unwrap(),
        );
        assert!(
            sp_rmse < ln_rmse / 5.0,
            "spline {sp_rmse} vs line {ln_rmse}"
        );
    }

    #[test]
    fn degenerate_inputs_error() {
        assert!(NaturalSpline::fit(&[1.0], &[1.0], 4).is_err());
        assert!(NaturalSpline::fit(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0], 4).is_err());
        assert!(NaturalSpline::fit(&[f64::NAN, f64::NAN], &[1.0, 2.0], 4).is_err());
    }

    #[test]
    fn duplicate_x_values_are_fine() {
        let xs = vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
        let ys = vec![0.1, -0.1, 1.1, 0.9, 2.1, 1.9, 3.1, 2.9];
        let sp = NaturalSpline::fit(&xs, &ys, 4).unwrap();
        assert!((sp.predict(1.0) - 1.0).abs() < 0.2);
    }

    #[test]
    fn json_round_trip() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sqrt()).collect();
        let sp = NaturalSpline::fit(&xs, &ys, 6).unwrap();
        let json = serde_json::to_string(&sp).unwrap();
        let restored: NaturalSpline = serde_json::from_str(&json).unwrap();
        assert_eq!(sp, restored);
    }
}
