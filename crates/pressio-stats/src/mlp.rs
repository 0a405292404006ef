//! A small multi-layer perceptron regressor — the model family behind
//! Qin (2020)'s deep-learning compressibility estimator (Table 1: deep
//! learning, accurate, sampling, uses compressor internals).
//!
//! Two tanh hidden layers trained with full-batch gradient descent +
//! momentum on standardized inputs/targets. Initialization and training
//! are fully deterministic given the seed (a requirement for the
//! checkpointed bench).

use serde::{Deserialize, Serialize};

/// MLP hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MlpParams {
    /// Hidden width (both layers).
    pub hidden: usize,
    /// Training epochs (full-batch).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient.
    pub momentum: f64,
    /// Init/shuffle seed.
    pub seed: u64,
}

impl Default for MlpParams {
    fn default() -> Self {
        MlpParams {
            hidden: 16,
            epochs: 400,
            lr: 0.02,
            momentum: 0.9,
            seed: 0x91A,
        }
    }
}

/// A fitted MLP: `x → tanh(W1 x + b1) → tanh(W2 h + b2) → w3·h + b3`.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Mlp {
    w1: Vec<Vec<f64>>, // hidden × d
    b1: Vec<f64>,
    w2: Vec<Vec<f64>>, // hidden × hidden
    b2: Vec<f64>,
    w3: Vec<f64>, // hidden
    b3: f64,
    x_means: Vec<f64>,
    x_stds: Vec<f64>,
    y_mean: f64,
    y_std: f64,
}

fn xorshift(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

struct Gradients {
    w1: Vec<Vec<f64>>,
    b1: Vec<f64>,
    w2: Vec<Vec<f64>>,
    b2: Vec<f64>,
    w3: Vec<f64>,
    b3: f64,
}

impl Mlp {
    /// Train on `(xs, ys)`. Needs at least 2 samples.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: &MlpParams) -> Option<Mlp> {
        let n = xs.len();
        if n < 2 || n != ys.len() {
            return None;
        }
        let d = xs[0].len();
        if d == 0 || xs.iter().any(|r| r.len() != d) {
            return None;
        }
        let h = params.hidden.max(2);
        // standardization
        let mut x_means = vec![0.0; d];
        for row in xs {
            for (m, &x) in x_means.iter_mut().zip(row) {
                *m += x / n as f64;
            }
        }
        let mut x_stds = vec![0.0; d];
        for row in xs {
            for ((s, &m), &x) in x_stds.iter_mut().zip(&x_means).zip(row) {
                *s += (x - m) * (x - m) / n as f64;
            }
        }
        for (j, (s, &m)) in x_stds.iter_mut().zip(&x_means).enumerate() {
            *s = if s.is_finite() {
                s.sqrt()
            } else {
                // the squares overflowed (|x - mean| past ~1.3e154): sum
                // them again scaled by the column's largest deviation
                let scale = xs.iter().map(|r| (r[j] - m).abs()).fold(0.0, f64::max);
                let dev = |r: &Vec<f64>| ((r[j] - m) / scale).powi(2) / n as f64;
                scale * xs.iter().map(dev).sum::<f64>().sqrt()
            }
            .max(1e-12);
        }
        let y_mean = ys.iter().sum::<f64>() / n as f64;
        let y_std = (ys.iter().map(|y| (y - y_mean) * (y - y_mean)).sum::<f64>() / n as f64)
            .sqrt()
            .max(1e-12);
        let x_norm: Vec<Vec<f64>> = xs
            .iter()
            .map(|row| {
                row.iter()
                    .zip(x_means.iter().zip(&x_stds))
                    .map(|(&x, (&m, &s))| (x - m) / s)
                    .collect()
            })
            .collect();
        let y_norm: Vec<f64> = ys.iter().map(|y| (y - y_mean) / y_std).collect();

        // Xavier-ish init
        let mut state = params.seed | 1;
        let scale1 = (2.0 / (d + h) as f64).sqrt();
        let scale2 = (2.0 / (2 * h) as f64).sqrt();
        let mut net = Mlp {
            w1: (0..h)
                .map(|_| (0..d).map(|_| xorshift(&mut state) * scale1).collect())
                .collect(),
            b1: vec![0.0; h],
            w2: (0..h)
                .map(|_| (0..h).map(|_| xorshift(&mut state) * scale2).collect())
                .collect(),
            b2: vec![0.0; h],
            w3: (0..h).map(|_| xorshift(&mut state) * scale2).collect(),
            b3: 0.0,
            x_means,
            x_stds,
            y_mean,
            y_std,
        };
        let mut vel = Gradients {
            w1: vec![vec![0.0; d]; h],
            b1: vec![0.0; h],
            w2: vec![vec![0.0; h]; h],
            b2: vec![0.0; h],
            w3: vec![0.0; h],
            b3: 0.0,
        };
        for _ in 0..params.epochs {
            let mut grad = Gradients {
                w1: vec![vec![0.0; d]; h],
                b1: vec![0.0; h],
                w2: vec![vec![0.0; h]; h],
                b2: vec![0.0; h],
                w3: vec![0.0; h],
                b3: 0.0,
            };
            for (x, &y) in x_norm.iter().zip(&y_norm) {
                // forward
                let a1: Vec<f64> = (0..h)
                    .map(|i| {
                        (net.w1[i].iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + net.b1[i])
                            .tanh()
                    })
                    .collect();
                let a2: Vec<f64> = (0..h)
                    .map(|i| {
                        (net.w2[i].iter().zip(&a1).map(|(w, v)| w * v).sum::<f64>() + net.b2[i])
                            .tanh()
                    })
                    .collect();
                let out: f64 = net.w3.iter().zip(&a2).map(|(w, v)| w * v).sum::<f64>() + net.b3;
                // backward (squared loss)
                let dout = 2.0 * (out - y) / n as f64;
                let mut da2 = vec![0.0; h];
                for i in 0..h {
                    grad.w3[i] += dout * a2[i];
                    da2[i] = dout * net.w3[i];
                }
                grad.b3 += dout;
                let mut da1 = vec![0.0; h];
                for i in 0..h {
                    let dz2 = da2[i] * (1.0 - a2[i] * a2[i]);
                    grad.b2[i] += dz2;
                    for j in 0..h {
                        grad.w2[i][j] += dz2 * a1[j];
                        da1[j] += dz2 * net.w2[i][j];
                    }
                }
                for i in 0..h {
                    let dz1 = da1[i] * (1.0 - a1[i] * a1[i]);
                    grad.b1[i] += dz1;
                    for (j, &xj) in x.iter().enumerate().take(d) {
                        grad.w1[i][j] += dz1 * xj;
                    }
                }
            }
            // momentum update
            for i in 0..h {
                for j in 0..d {
                    vel.w1[i][j] = params.momentum * vel.w1[i][j] - params.lr * grad.w1[i][j];
                    net.w1[i][j] += vel.w1[i][j];
                }
                vel.b1[i] = params.momentum * vel.b1[i] - params.lr * grad.b1[i];
                net.b1[i] += vel.b1[i];
                for j in 0..h {
                    vel.w2[i][j] = params.momentum * vel.w2[i][j] - params.lr * grad.w2[i][j];
                    net.w2[i][j] += vel.w2[i][j];
                }
                vel.b2[i] = params.momentum * vel.b2[i] - params.lr * grad.b2[i];
                net.b2[i] += vel.b2[i];
                vel.w3[i] = params.momentum * vel.w3[i] - params.lr * grad.w3[i];
                net.w3[i] += vel.w3[i];
            }
            vel.b3 = params.momentum * vel.b3 - params.lr * grad.b3;
            net.b3 += vel.b3;
        }
        Some(net)
    }

    /// Predict one sample.
    pub fn predict(&self, x: &[f64]) -> Option<f64> {
        if x.len() != self.x_means.len() {
            return None;
        }
        let xn: Vec<f64> = x
            .iter()
            .zip(self.x_means.iter().zip(&self.x_stds))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect();
        let h = self.b1.len();
        let a1: Vec<f64> = (0..h)
            .map(|i| {
                (self.w1[i].iter().zip(&xn).map(|(w, v)| w * v).sum::<f64>() + self.b1[i]).tanh()
            })
            .collect();
        let a2: Vec<f64> = (0..h)
            .map(|i| {
                (self.w2[i].iter().zip(&a1).map(|(w, v)| w * v).sum::<f64>() + self.b2[i]).tanh()
            })
            .collect();
        let out: f64 = self.w3.iter().zip(&a2).map(|(w, v)| w * v).sum::<f64>() + self.b3;
        Some(out * self.y_std + self.y_mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_linear_function() {
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 * 0.1]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x[0] - 1.0).collect();
        let net = Mlp::fit(&xs, &ys, &MlpParams::default()).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = net.predict(x).unwrap();
            assert!((p - y).abs() < 0.4, "{p} vs {y}");
        }
    }

    #[test]
    fn learns_nonlinear_function() {
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 * 0.06 - 3.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0].sin()).collect();
        let net = Mlp::fit(
            &xs,
            &ys,
            &MlpParams {
                epochs: 1500,
                ..Default::default()
            },
        )
        .unwrap();
        let rmse = crate::descriptive::rmse(
            &ys,
            &xs.iter()
                .map(|x| net.predict(x).unwrap())
                .collect::<Vec<_>>(),
        );
        assert!(rmse < 0.25, "mlp rmse {rmse}");
    }

    #[test]
    fn deterministic_given_seed() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let ys: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let a = Mlp::fit(&xs, &ys, &MlpParams::default()).unwrap();
        let b = Mlp::fit(&xs, &ys, &MlpParams::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(Mlp::fit(&[], &[], &MlpParams::default()).is_none());
        assert!(Mlp::fit(&[vec![1.0]], &[1.0], &MlpParams::default()).is_none());
        let xs = vec![vec![1.0], vec![2.0]];
        let net = Mlp::fit(&xs, &[1.0, 2.0], &MlpParams::default()).unwrap();
        assert!(net.predict(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn serde_round_trip() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..20).map(|i| (i * 2) as f64).collect();
        let net = Mlp::fit(&xs, &ys, &MlpParams::default()).unwrap();
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(net.predict(&[5.0]), back.predict(&[5.0]));
    }
}
