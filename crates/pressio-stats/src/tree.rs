//! CART regression trees — the base learner of the random forest behind
//! the Rahman (2023) FXRZ scheme.

use serde::{Deserialize, Serialize};

/// A node in the flattened tree.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum Node {
    /// Terminal node with a predicted value.
    Leaf(f64),
    /// Binary split: `x[feature] <= threshold` goes left.
    Split {
        /// Feature index tested.
        feature: usize,
        /// Split threshold.
        threshold: f64,
        /// Index of the left child in the node arena.
        left: usize,
        /// Index of the right child in the node arena.
        right: usize,
    },
}

/// Tree growth hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of features examined per split (`None` = all) — the forest
    /// sets this for decorrelation.
    pub max_features: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_split: 4,
            max_features: None,
        }
    }
}

/// A fitted regression tree (arena representation, node 0 is the root).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

impl RegressionTree {
    /// Grow a tree on `(xs, ys)`. `feature_order` is a permutation-seed used
    /// to pick the feature subset at each split (pass different values per
    /// tree for forest decorrelation).
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: &TreeParams, seed: u64) -> RegressionTree {
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty(), "cannot fit a tree on zero samples");
        let d = xs[0].len();
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            num_features: d,
        };
        let idx: Vec<usize> = (0..xs.len()).collect();
        let mut rng = seed | 1;
        tree.grow(xs, ys, idx, params, 0, &mut rng);
        tree
    }

    fn grow(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        idx: Vec<usize>,
        params: &TreeParams,
        depth: usize,
        rng: &mut u64,
    ) -> usize {
        let mean = idx.iter().map(|&i| ys[i]).sum::<f64>() / idx.len() as f64;
        let sse: f64 = idx.iter().map(|&i| (ys[i] - mean) * (ys[i] - mean)).sum();
        if depth >= params.max_depth || idx.len() < params.min_samples_split || sse <= 1e-24 {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        }
        let d = self.num_features;
        let mtry = params.max_features.unwrap_or(d).clamp(1, d);
        // pseudo-random feature subset (xorshift)
        let mut features: Vec<usize> = (0..d).collect();
        for i in (1..features.len()).rev() {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            let j = (*rng as usize) % (i + 1);
            features.swap(i, j);
        }
        features.truncate(mtry);

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for &f in &features {
            // sort indices by this feature
            let mut order = idx.clone();
            order.sort_by(|&a, &b| {
                xs[a][f]
                    .partial_cmp(&xs[b][f])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            // prefix sums for O(n) split scan
            let n = order.len();
            let mut prefix_sum = vec![0.0f64; n + 1];
            let mut prefix_sq = vec![0.0f64; n + 1];
            for (k, &i) in order.iter().enumerate() {
                prefix_sum[k + 1] = prefix_sum[k] + ys[i];
                prefix_sq[k + 1] = prefix_sq[k] + ys[i] * ys[i];
            }
            for k in 1..n {
                // no split between equal feature values
                if xs[order[k - 1]][f] >= xs[order[k]][f] {
                    continue;
                }
                let (nl, nr) = (k as f64, (n - k) as f64);
                let sl = prefix_sum[k];
                let sr = prefix_sum[n] - sl;
                let ql = prefix_sq[k];
                let qr = prefix_sq[n] - ql;
                let sse_split = (ql - sl * sl / nl) + (qr - sr * sr / nr);
                if best.is_none_or(|(_, _, b)| sse_split < b) {
                    let thr = 0.5 * (xs[order[k - 1]][f] + xs[order[k]][f]);
                    best = Some((f, thr, sse_split));
                }
            }
        }
        let Some((feature, threshold, best_sse)) = best else {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        };
        if best_sse >= sse {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        }
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            idx.iter().partition(|&&i| xs[i][feature] <= threshold);
        // reserve this node's slot before recursing
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf(mean)); // placeholder
        let left = self.grow(xs, ys, left_idx, params, depth + 1, rng);
        let right = self.grow(xs, ys, right_idx, params, depth + 1, rng);
        self.nodes[me] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    /// Predict one sample.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x.get(*feature).copied().unwrap_or(0.0) <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Feature dimension the tree was trained on.
    pub fn num_features(&self) -> usize {
        self.num_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 1 if x0 > 5 else 0, independent of x1
        let xs: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64, (i % 7) as f64])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|r| if r[0] > 5.0 { 1.0 } else { 0.0 })
            .collect();
        (xs, ys)
    }

    #[test]
    fn learns_step_function_exactly() {
        let (xs, ys) = step_data();
        let t = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 42);
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(t.predict(x), *y);
        }
    }

    #[test]
    fn depth_zero_gives_mean() {
        let (xs, ys) = step_data();
        let params = TreeParams {
            max_depth: 0,
            ..Default::default()
        };
        let t = RegressionTree::fit(&xs, &ys, &params, 1);
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        assert!((t.predict(&xs[0]) - mean).abs() < 1e-12);
        assert_eq!(t.nodes.len(), 1);
    }

    #[test]
    fn constant_target_is_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys = vec![3.5; 20];
        let t = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 7);
        assert_eq!(t.nodes.len(), 1);
        assert_eq!(t.predict(&[100.0]), 3.5);
    }

    #[test]
    fn piecewise_quadratic_approximation_improves_with_depth() {
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 * 0.05]).collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0] * r[0]).collect();
        let rmse_at = |depth| {
            let params = TreeParams {
                max_depth: depth,
                min_samples_split: 2,
                max_features: None,
            };
            let t = RegressionTree::fit(&xs, &ys, &params, 3);
            crate::descriptive::rmse(&ys, &xs.iter().map(|x| t.predict(x)).collect::<Vec<_>>())
        };
        assert!(rmse_at(8) < rmse_at(2));
        assert!(rmse_at(2) < rmse_at(0));
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = step_data();
        let a = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 5);
        let b = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn serde_round_trip() {
        let (xs, ys) = step_data();
        let t = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 42);
        let json = serde_json::to_string(&t).unwrap();
        let back: RegressionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
