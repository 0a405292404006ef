//! Random-forest regression with FXRZ-style data augmentation.
//!
//! Rahman (2023) predicts compression ratio with random forests over
//! dataset features, and cuts training cost by *augmenting* the training
//! set with interpolated pseudo-samples — both are implemented here.

use crate::tree::{RegressionTree, Sample, TreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Forest hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees.
    pub num_trees: usize,
    /// Per-tree growth parameters (its `max_features` is overridden by
    /// `mtry` below).
    pub tree: TreeParams,
    /// Features examined per split (`None` = `max(1, d/3)`, the usual
    /// regression-forest default).
    pub mtry: Option<usize>,
    /// RNG seed for bootstrap sampling — forests are deterministic given
    /// the seed, which the checkpointed bench relies on.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            num_trees: 50,
            tree: TreeParams::default(),
            mtry: None,
            seed: 0x5EED,
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    num_features: usize,
}

impl RandomForest {
    /// Fit on `(xs, ys)`; panics on empty input (caller validates).
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: &ForestParams) -> RandomForest {
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty(), "cannot fit a forest on zero samples");
        let n = xs.len();
        let d = xs[0].len();
        let mtry = params.mtry.unwrap_or_else(|| (d / 3).max(1));
        let tree_params = TreeParams {
            max_features: Some(mtry),
            ..params.tree
        };
        let mut rng = StdRng::seed_from_u64(params.seed);
        // every column ranked once; each tree's bootstrap counting-sorted
        let mut sample = Sample::rank(xs);
        let mut rows = Vec::with_capacity(n);
        let trees = (0..params.num_trees)
            .map(|t| {
                // bootstrap sample
                rows.clear();
                rows.extend((0..n).map(|_| rng.gen_range(0..n)));
                sample.draw(xs, ys, &rows);
                RegressionTree::grow_on(&mut sample, &tree_params, params.seed ^ (t as u64 + 1))
            })
            .collect();
        RandomForest {
            trees,
            num_features: d,
        }
    }

    /// Mean prediction across trees.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let s: f64 = self.trees.iter().map(|t| t.predict(x)).sum();
        s / self.trees.len() as f64
    }

    /// Predict many samples.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Feature dimension the forest expects.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Serialize to JSON (the `predictors:state` payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("RandomForest is always serializable")
    }

    /// Deserialize from [`RandomForest::to_json`].
    pub fn from_json(s: &str) -> Option<RandomForest> {
        serde_json::from_str(s).ok()
    }
}

/// FXRZ data augmentation: extend `(xs, ys)` with `factor × n` synthetic
/// samples obtained by convex interpolation between random training pairs.
/// Rahman (2023) reports this slashes the amount of real (expensive,
/// compressor-in-the-loop) training data needed.
pub fn augment_by_interpolation(xs: &mut Vec<Vec<f64>>, ys: &mut Vec<f64>, factor: f64, seed: u64) {
    let n = xs.len();
    if n < 2 || factor <= 0.0 {
        return;
    }
    let extra = (n as f64 * factor).round() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..extra {
        let i = rng.gen_range(0..n);
        let mut j = rng.gen_range(0..n);
        if j == i {
            j = (j + 1) % n;
        }
        let t: f64 = rng.gen_range(0.0..1.0);
        let x: Vec<f64> = xs[i]
            .iter()
            .zip(&xs[j])
            .map(|(a, b)| a * (1.0 - t) + b * t)
            .collect();
        let y = ys[i] * (1.0 - t) + ys[j] * t;
        xs.push(x);
        ys.push(y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::rmse;

    fn friedman_like(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        // deterministic pseudo-random features, smooth nonlinear target
        let mut state = 0xABCDu64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let xs: Vec<Vec<f64>> = (0..n).map(|_| (0..4).map(|_| next()).collect()).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|r| {
                10.0 * (std::f64::consts::PI * r[0] * r[1]).sin()
                    + 20.0 * (r[2] - 0.5).powi(2)
                    + 5.0 * r[3]
            })
            .collect();
        (xs, ys)
    }

    #[test]
    fn learns_nonlinear_function() {
        let (xs, ys) = friedman_like(400);
        let f = RandomForest::fit(&xs, &ys, &ForestParams::default());
        let preds = f.predict_batch(&xs);
        let e = rmse(&ys, &preds);
        let spread = crate::descriptive::summarize(&ys).variance.sqrt();
        assert!(e < spread / 2.0, "forest rmse {e} vs target sd {spread}");
    }

    #[test]
    fn more_trees_do_not_hurt_much() {
        let (xs, ys) = friedman_like(200);
        let small = RandomForest::fit(
            &xs,
            &ys,
            &ForestParams {
                num_trees: 2,
                ..Default::default()
            },
        );
        let big = RandomForest::fit(
            &xs,
            &ys,
            &ForestParams {
                num_trees: 60,
                ..Default::default()
            },
        );
        let e_small = rmse(&ys, &small.predict_batch(&xs));
        let e_big = rmse(&ys, &big.predict_batch(&xs));
        assert!(e_big <= e_small * 1.5, "big {e_big} vs small {e_small}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = friedman_like(100);
        let p = ForestParams {
            num_trees: 10,
            ..Default::default()
        };
        let a = RandomForest::fit(&xs, &ys, &p);
        let b = RandomForest::fit(&xs, &ys, &p);
        assert_eq!(a, b);
    }

    #[test]
    fn augmentation_adds_convex_samples() {
        let mut xs = vec![vec![0.0, 0.0], vec![1.0, 2.0]];
        let mut ys = vec![0.0, 10.0];
        augment_by_interpolation(&mut xs, &mut ys, 5.0, 9);
        assert_eq!(xs.len(), 12);
        for (x, y) in xs.iter().zip(&ys).skip(2) {
            // every synthetic point lies on the segment
            let t = x[0]; // x0 interpolates 0..1
            assert!((x[1] - 2.0 * t).abs() < 1e-12);
            assert!((y - 10.0 * t).abs() < 1e-12);
        }
    }

    /// Fastest of 7 fits, in ms, at Table 2's shape (141 rows) and at the
    /// paper's row count (3 369), with 7 features and 40 trees as
    /// `rahman2023` fits. The host is noisy: compare rows within a run.
    /// `cargo test --release -p pressio-stats --lib fit_costs -- --ignored --nocapture`
    #[test]
    #[ignore]
    fn fit_costs() {
        let params = ForestParams {
            num_trees: 40,
            ..Default::default()
        };
        for n in [141, 3369] {
            let (mut xs, ys) = friedman_like(n);
            for (i, r) in xs.iter_mut().enumerate() {
                r.extend([r[0] * r[1], (i % 13) as f64, r[2].sqrt()]);
            }
            let ms = (0..7)
                .map(|_| {
                    let t = std::time::Instant::now();
                    std::hint::black_box(RandomForest::fit(&xs, &ys, &params));
                    t.elapsed().as_secs_f64() * 1e3
                })
                .fold(f64::INFINITY, f64::min);
            println!("fit {n} rows x 7 features x 40 trees: {ms:.2} ms");
        }
    }

    /// NaN in every fifth row of one column: NaN ranks after every number,
    /// so the fit has a total order to sort by and no threshold beside NaN.
    #[test]
    fn a_nan_feature_fits_finite_thresholds() {
        let (mut xs, ys) = friedman_like(141);
        xs.iter_mut().step_by(5).for_each(|r| r[1] = f64::NAN);
        let params = ForestParams {
            num_trees: 40,
            ..Default::default()
        };
        for seed in 0..8 {
            let p = ForestParams { seed, ..params };
            let f = RandomForest::fit(&xs, &ys, &p);
            assert!(
                !f.to_json().contains("null"),
                "a non-finite threshold or leaf"
            );
            assert!(xs.iter().all(|x| f.predict(x).is_finite()));
            assert_eq!(f, RandomForest::fit(&xs, &ys, &p));
        }
    }

    #[test]
    fn rows_of_no_features_fit_one_leaf_per_tree() {
        let xs = vec![vec![]; 7];
        let ys = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let f = RandomForest::fit(&xs, &ys, &ForestParams::default());
        assert_eq!(f.num_features(), 0);
        assert!(!f.to_json().contains("Split"));
        assert!((1.0..=7.0).contains(&f.predict(&[])));
    }

    #[test]
    fn augmentation_noop_on_degenerate_input() {
        let mut xs = vec![vec![1.0]];
        let mut ys = vec![1.0];
        augment_by_interpolation(&mut xs, &mut ys, 3.0, 1);
        assert_eq!(xs.len(), 1);
        let mut xs2: Vec<Vec<f64>> = vec![vec![1.0], vec![2.0]];
        let mut ys2 = vec![1.0, 2.0];
        augment_by_interpolation(&mut xs2, &mut ys2, 0.0, 1);
        assert_eq!(xs2.len(), 2);
    }

    #[test]
    fn augmented_training_helps_with_few_real_samples() {
        let (xs_all, ys_all) = friedman_like(300);
        let (train_x, train_y) = (&xs_all[..30].to_vec(), &ys_all[..30].to_vec());
        let (test_x, test_y) = (&xs_all[100..].to_vec(), &ys_all[100..].to_vec());
        let params = ForestParams {
            num_trees: 30,
            ..Default::default()
        };
        let plain = RandomForest::fit(train_x, train_y, &params);
        let mut ax = train_x.clone();
        let mut ay = train_y.clone();
        augment_by_interpolation(&mut ax, &mut ay, 4.0, 77);
        let aug = RandomForest::fit(&ax, &ay, &params);
        let e_plain = rmse(test_y, &plain.predict_batch(test_x));
        let e_aug = rmse(test_y, &aug.predict_batch(test_x));
        // augmentation should not catastrophically hurt, and usually helps
        assert!(e_aug < e_plain * 1.25, "aug {e_aug} vs plain {e_plain}");
    }

    #[test]
    fn json_round_trip() {
        let (xs, ys) = friedman_like(50);
        let f = RandomForest::fit(
            &xs,
            &ys,
            &ForestParams {
                num_trees: 5,
                ..Default::default()
            },
        );
        let back = RandomForest::from_json(&f.to_json()).unwrap();
        assert_eq!(f, back);
        assert_eq!(f.predict(&xs[0]), back.predict(&xs[0]));
    }
}
