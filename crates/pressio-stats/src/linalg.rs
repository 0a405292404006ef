//! Small dense linear algebra: column-major matrices, Cholesky solves for
//! normal equations, and a one-sided Jacobi SVD.
//!
//! The SVD backs the Underwood (2023) truncation metric; Cholesky backs OLS
//! and spline fitting. Sizes here are "features × samples" small, so simple
//! O(n³) routines are appropriate and dependency-free.

/// Dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from row-major data. Panics on size mismatch.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(rows * cols, data.len());
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// `self^T · self` (the Gram matrix of columns).
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut s = 0.0;
                for r in 0..self.rows {
                    s += self.get(r, i) * self.get(r, j);
                }
                g.set(i, j, s);
                g.set(j, i, s);
            }
        }
        g
    }

    /// `self^T · v` for a vector of length `rows`.
    pub fn t_mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows);
        let mut out = vec![0.0; self.cols];
        for (r, &vr) in v.iter().enumerate() {
            for (c, o) in out.iter_mut().enumerate() {
                *o += self.get(r, c) * vr;
            }
        }
        out
    }
}

/// Solve the symmetric positive-definite system `A x = b` by Cholesky
/// decomposition with a tiny ridge for numerical safety. Returns `None`
/// when `A` is not (numerically) positive definite even after the ridge.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert_eq!(b.len(), n);
    // scale-aware ridge
    let trace: f64 = (0..n).map(|i| a.get(i, i)).sum();
    let ridge = 1e-12 * (trace / n.max(1) as f64).max(1e-300);
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut s = a.get(i, j);
            if i == j {
                s += ridge;
            }
            for k in 0..j {
                s -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if s <= 0.0 || !s.is_finite() {
                    return None;
                }
                l[i * n + i] = s.sqrt();
            } else {
                l[i * n + j] = s / l[j * n + j];
            }
        }
    }
    // forward then back substitution
    let mut y = vec![0.0f64; n];
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i * n + k] * y[k];
        }
        y[i] = s / l[i * n + i];
    }
    let mut x = vec![0.0f64; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for k in i + 1..n {
            s -= l[k * n + i] * x[k];
        }
        x[i] = s / l[i * n + i];
    }
    Some(x)
}

/// Singular values of `a` (descending), via one-sided Jacobi rotations on
/// the columns. Robust and dependency-free; O(rows·cols²) per sweep.
pub fn singular_values(a: &Matrix) -> Vec<f64> {
    let m = a.rows();
    let n = a.cols();
    // work on columns
    let mut u: Vec<Vec<f64>> = (0..n)
        .map(|c| (0..m).map(|r| a.get(r, c)).collect())
        .collect();
    let max_sweeps = 60;
    let eps = 1e-12;
    for _ in 0..max_sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in p + 1..n {
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = 0.0;
                for (&up, &uq) in u[p].iter().zip(u[q].iter()) {
                    alpha += up * up;
                    beta += uq * uq;
                    gamma += up * uq;
                }
                off = off.max(gamma.abs() / (alpha * beta).sqrt().max(1e-300));
                if gamma.abs() <= eps * (alpha * beta).sqrt() {
                    continue;
                }
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                let (head, tail) = u.split_at_mut(q); // p < q
                for (up_r, uq_r) in head[p].iter_mut().zip(tail[0].iter_mut()) {
                    let (up, uq) = (*up_r, *uq_r);
                    *up_r = c * up - s * uq;
                    *uq_r = s * up + c * uq;
                }
            }
        }
        if off < eps {
            break;
        }
    }
    let mut sv: Vec<f64> = u
        .iter()
        .map(|col| col.iter().map(|v| v * v).sum::<f64>().sqrt())
        .collect();
    sv.sort_by(|a, b| b.partial_cmp(a).unwrap());
    sv
}

/// SVD-truncation information metric (Underwood 2023): the fraction of
/// singular values needed to capture `energy` (e.g. 0.99) of the total
/// squared spectrum, in `(0, 1]`. Smooth, low-rank data scores low;
/// noise-like data scores near 1.
pub fn svd_truncation_fraction(a: &Matrix, energy: f64) -> f64 {
    let sv = singular_values(a);
    let total: f64 = sv.iter().map(|s| s * s).sum();
    if total == 0.0 || sv.is_empty() {
        return 0.0;
    }
    let target = energy.clamp(0.0, 1.0) * total;
    let mut acc = 0.0;
    for (i, s) in sv.iter().enumerate() {
        acc += s * s;
        if acc >= target {
            return (i + 1) as f64 / sv.len() as f64;
        }
    }
    1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_spd_identity() {
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            a.set(i, i, 1.0);
        }
        let x = solve_spd(&a, &[1.0, 2.0, 3.0]).unwrap();
        for (xi, bi) in x.iter().zip([1.0, 2.0, 3.0]) {
            assert!((xi - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_spd_known_system() {
        // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2]
        let a = Matrix::from_rows(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let x = solve_spd(&a, &[10.0, 9.0]).unwrap();
        assert!((x[0] - 1.5).abs() < 1e-9);
        assert!((x[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn solve_spd_rejects_indefinite() {
        let a = Matrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(solve_spd(&a, &[1.0, 1.0]).is_none());
    }

    #[test]
    fn gram_and_mul() {
        let a = Matrix::from_rows(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let g = a.gram();
        assert_eq!(g.get(0, 0), 2.0);
        assert_eq!(g.get(0, 1), 1.0);
        assert_eq!(g.get(1, 1), 2.0);
        assert_eq!(a.t_mul_vec(&[1.0, 2.0, 3.0]), vec![4.0, 5.0]);
    }

    #[test]
    fn svd_diagonal_matrix() {
        let mut a = Matrix::zeros(3, 3);
        a.set(0, 0, 3.0);
        a.set(1, 1, 2.0);
        a.set(2, 2, 1.0);
        let sv = singular_values(&a);
        assert!((sv[0] - 3.0).abs() < 1e-9);
        assert!((sv[1] - 2.0).abs() < 1e-9);
        assert!((sv[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn svd_rank_one() {
        // outer product -> exactly one nonzero singular value
        let mut a = Matrix::zeros(4, 3);
        let u = [1.0, 2.0, 3.0, 4.0];
        let v = [1.0, 0.5, 0.25];
        for (r, &ur) in u.iter().enumerate() {
            for (c, &vc) in v.iter().enumerate() {
                a.set(r, c, ur * vc);
            }
        }
        let sv = singular_values(&a);
        assert!(sv[0] > 1.0);
        assert!(sv[1] < 1e-9, "sv = {sv:?}");
    }

    #[test]
    fn svd_frobenius_norm_preserved() {
        // sum of squared singular values equals squared Frobenius norm
        let a = Matrix::from_rows(3, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0]);
        let frob: f64 = (0..3)
            .flat_map(|r| (0..3).map(move |c| (r, c)))
            .map(|(r, c)| a.get(r, c) * a.get(r, c))
            .sum();
        let sv = singular_values(&a);
        let sv_sq: f64 = sv.iter().map(|s| s * s).sum();
        assert!((frob - sv_sq).abs() < 1e-6 * frob);
    }

    #[test]
    fn truncation_fraction_orders_smooth_vs_noise() {
        let n = 24;
        let mut smooth = Matrix::zeros(n, n);
        let mut noise = Matrix::zeros(n, n);
        let mut state = 7u64;
        for r in 0..n {
            for c in 0..n {
                smooth.set(r, c, ((r + c) as f64 * 0.1).sin());
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                noise.set(r, c, (state >> 11) as f64 / (1u64 << 53) as f64);
            }
        }
        let fs = svd_truncation_fraction(&smooth, 0.99);
        let fn_ = svd_truncation_fraction(&noise, 0.99);
        assert!(fs < fn_, "smooth {fs} !< noise {fn_}");
    }

    #[test]
    fn truncation_fraction_edge_cases() {
        let z = Matrix::zeros(4, 4);
        assert_eq!(svd_truncation_fraction(&z, 0.99), 0.0);
        let mut one = Matrix::zeros(2, 2);
        one.set(0, 0, 5.0);
        assert!((svd_truncation_fraction(&one, 0.99) - 0.5).abs() < 1e-12);
    }
}
