//! CART regression trees — the base learner of the random forest behind
//! the Rahman (2023) FXRZ scheme.

use serde::{Deserialize, Serialize};
use std::ops::Range;

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

/// A tree's rows by column, ranked once per forest (equal values and ±0.0
/// share a rank, NaN ranks last) and reused for every tree's bootstrap. A
/// node is a range of each feature's positions in value order (`sorted`,
/// `d × n`) and of `pos`, the ascending positions its mean and SSE sum.
#[derive(Default)]
pub(crate) struct Sample {
    d: usize,
    ranks: Vec<u32>,
    cols: Vec<f64>,
    ys: Vec<f64>,
    sorted: Vec<u32>,
    pos: Vec<u32>,
    spill: Vec<u32>,
}

impl Sample {
    /// Rank every feature column of `xs` once.
    pub(crate) fn rank(xs: &[Vec<f64>]) -> Sample {
        let (src_n, d) = (xs.len(), xs[0].len());
        let cmp = |a: f64, b: f64| a.partial_cmp(&b).unwrap_or(a.is_nan().cmp(&b.is_nan()));
        let mut ranks = vec![0u32; d * src_n];
        let mut by_value: Vec<usize> = (0..src_n).collect();
        for (f, ranks) in ranks.chunks_exact_mut(src_n).enumerate() {
            by_value.sort_unstable_by(|&a, &b| cmp(xs[a][f], xs[b][f]));
            for w in by_value.windows(2) {
                ranks[w[1]] = ranks[w[0]] + cmp(xs[w[0]][f], xs[w[1]][f]).is_ne() as u32;
            }
        }
        Sample {
            d,
            ranks,
            ..Sample::default()
        }
    }

    /// Take source row `rows[p]` as position `p`, and counting-sort each
    /// feature by rank: value order with ties in position order, as a
    /// stable sort of the positions by value leaves them.
    pub(crate) fn draw(&mut self, xs: &[Vec<f64>], ys: &[f64], rows: &[usize]) {
        let (n, src_n) = (rows.len(), xs.len());
        self.ys = rows.iter().map(|&i| ys[i]).collect();
        self.cols.clear();
        self.sorted.resize(self.d * n, 0);
        let ranks = self.ranks.chunks_exact(src_n);
        for (f, (rank, sorted)) in ranks.zip(self.sorted.chunks_exact_mut(n)).enumerate() {
            self.cols.extend(rows.iter().map(|&i| xs[i][f]));
            // next[r] becomes the first slot of rank r
            let mut next = vec![0u32; src_n + 1];
            rows.iter().for_each(|&i| next[rank[i] as usize + 1] += 1);
            (1..=src_n).for_each(|r| next[r] += next[r - 1]);
            for (p, &i) in rows.iter().enumerate() {
                sorted[next[rank[i] as usize] as usize] = p as u32;
                next[rank[i] as usize] += 1;
            }
        }
        self.pos = (0..n as u32).collect();
        self.spill.resize(n, 0);
    }
}

/// Stable, branch-free partition of `list` by `left(i)`, in place: the
/// entries that go left first, in their old order; returns how many.
fn partition(list: &mut [u32], left: impl Fn(u32) -> bool, spill: &mut [u32]) -> usize {
    let spill = &mut spill[..list.len()];
    let (mut l, mut r) = (0, 0);
    for k in 0..list.len() {
        let i = list[k];
        // `l, r <= k` always; the `min`s let the compiler see it
        list[l.min(k)] = i;
        spill[r.min(k)] = i;
        let go = left(i);
        l += go as usize;
        r += !go as usize;
    }
    list[l..].copy_from_slice(&spill[..r]);
    l
}

/// A fitted regression tree (arena representation, node 0 is the root).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

impl RegressionTree {
    /// Grow a tree on `(xs, ys)`, each row once. `seed` drives the feature
    /// subset drawn at each split (vary it per tree to decorrelate a forest).
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], params: &TreeParams, seed: u64) -> RegressionTree {
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty(), "cannot fit a tree on zero samples");
        let mut sample = Sample::rank(xs);
        sample.draw(xs, ys, &(0..xs.len()).collect::<Vec<_>>());
        RegressionTree::grow_on(&mut sample, params, seed)
    }

    /// Grow a tree on the rows `sample` last drew.
    pub(crate) fn grow_on(sample: &mut Sample, params: &TreeParams, seed: u64) -> RegressionTree {
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            num_features: sample.d,
        };
        tree.grow(sample, 0..sample.pos.len(), params, 0, &mut (seed | 1));
        tree
    }

    /// Grow the node over `range` of every list in `s`. Every sum, product
    /// and quotient is the one a per-node sort of the positions would
    /// compute, in the same order, so the tree is bit for bit that one.
    fn grow(
        &mut self,
        s: &mut Sample,
        range: Range<usize>,
        params: &TreeParams,
        depth: usize,
        rng: &mut u64,
    ) -> usize {
        let (n, d) = (s.pos.len(), s.d);
        let idx = &s.pos[range.clone()];
        let y = |i: u32| s.ys[i as usize];
        let mean = idx.iter().map(|&i| y(i)).sum::<f64>() / idx.len() as f64;
        let sse: f64 = idx.iter().map(|&i| (y(i) - mean) * (y(i) - mean)).sum();
        if depth >= params.max_depth || idx.len() < params.min_samples_split || sse <= 1e-24 {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        }
        // a tree over no features is a single leaf
        let mtry = params.max_features.unwrap_or(d).clamp(1, d.max(1));
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
            let order = &s.sorted[f * n..][range.clone()];
            let col = &s.cols[f * n..][..n];
            // a prefix-sum array's last entries, summed in the same order...
            let (mut total, mut total_sq) = (0.0f64, 0.0f64);
            for &i in order {
                total += y(i);
                total_sq += y(i) * y(i);
            }
            // ... and its other entries as running sums, one per split
            let (mut sl, mut ql) = (0.0f64, 0.0f64);
            for (k, pair) in (1..).zip(order.windows(2)) {
                sl += y(pair[0]);
                ql += y(pair[0]) * y(pair[0]);
                let (a, b) = (col[pair[0] as usize], col[pair[1] as usize]);
                let (nl, nr) = (k as f64, (order.len() - k) as f64);
                let sr = total - sl;
                let qr = total_sq - ql;
                let sse_split = (ql - sl * sl / nl) + (qr - sr * sr / nr);
                // no split between equal feature values, nor before a NaN,
                // nor where no finite threshold separates −inf from `b`
                let finite = a > f64::NEG_INFINITY || b > f64::MIN;
                if (a < b) & finite & best.is_none_or(|(_, _, b)| sse_split < b) {
                    // the midpoint rounds to `b` when the two are one ulp
                    // apart and overflows near ±MAX: split at `a` then, or
                    // at `f64::MIN` if `a` is −inf, so state saves no `null`
                    let mid = 0.5 * (a + b);
                    let at = if a <= mid && mid < b { mid } else { a };
                    best = Some((f, at.max(f64::MIN), sse_split));
                }
            }
        }
        // no split, or none that beats the node's own SSE: a leaf
        let Some((feature, threshold, _)) = best.filter(|&(_, _, b)| !b.ge(&sse)) else {
            self.nodes.push(Node::Leaf(mean));
            return self.nodes.len() - 1;
        };
        // every list splits the same way; NaN is never `<= threshold`
        let col = &s.cols[feature * n..][..n];
        let left = |i: u32| col[i as usize] <= threshold;
        let mid = range.start + partition(&mut s.pos[range.clone()], left, &mut s.spill);
        for list in s.sorted.chunks_exact_mut(n) {
            partition(&mut list[range.clone()], left, &mut s.spill);
        }
        // reserve this node's slot before recursing
        let me = self.nodes.len();
        self.nodes.push(Node::Leaf(mean)); // placeholder
        let left = self.grow(s, range.start..mid, params, depth + 1, rng);
        let right = self.grow(s, mid..range.end, params, depth + 1, rng);
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

    #[test]
    fn nan_ranks_last_and_goes_right() {
        // y = 1 from x = 5 up, and on every NaN row
        let mut xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        xs.extend([vec![f64::NAN], vec![f64::NAN]]);
        let ys: Vec<f64> = (0..12).map(|i| if i >= 5 { 1.0 } else { 0.0 }).collect();
        let t = RegressionTree::fit(&xs, &ys, &TreeParams::default(), 3);
        assert_eq!(t.nodes.len(), 3, "{t:?}");
        assert_eq!(t.predict(&[f64::NAN]), 1.0);
        assert_eq!(t.predict(&[4.0]), 0.0);
        assert_eq!(t.predict(&[5.0]), 1.0);
    }

    #[test]
    fn no_features_is_a_leaf_at_the_mean() {
        let t = RegressionTree::fit(
            &[vec![], vec![], vec![]],
            &[1.0, 2.0, 6.0],
            &TreeParams::default(),
            9,
        );
        assert_eq!(t.nodes, vec![Node::Leaf(3.0)]);
    }

    /// Fit, state round trip and every prediction finite: what a split
    /// between two neighbouring values must leave.
    fn assert_sound(xs: &[Vec<f64>], ys: &[f64]) {
        let t = RegressionTree::fit(xs, ys, &TreeParams::default(), 5);
        let json = serde_json::to_string(&t).unwrap();
        let back: RegressionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        for x in xs {
            let y = t.predict(x);
            assert!(y.is_finite(), "{x:?} -> {y}: {json}");
            assert_eq!(back.predict(x).to_bits(), y.to_bits());
        }
        let forest = crate::RandomForest::fit(xs, ys, &Default::default());
        let back = crate::RandomForest::from_json(&forest.to_json()).expect("state reloads");
        assert_eq!(back.to_json(), forest.to_json());
        assert!(xs.iter().all(|x| forest.predict(x).is_finite()));
    }

    /// `0.5 * (a + b)` rounds to `b` for `a = 1 + ε`, `b = 1 + 2ε`, and
    /// overflows to ±inf near `±f64::MAX`: each time the split is at `a`.
    #[test]
    fn a_split_between_neighbouring_values_keeps_both_children() {
        let top = f64::MAX.next_down().next_down().next_down();
        for lo in [1.0, -f64::MAX, top] {
            let xs: Vec<Vec<f64>> = (0..4)
                .scan(lo, |v, _| Some(vec![std::mem::replace(v, v.next_up())]))
                .collect();
            assert_sound(&xs, &[0.0, 0.0, 1.0, 1.0]);
        }
    }

    /// A table whose third feature, `0.05 i + 0.3 (i mod 7)`, meets itself
    /// one ulp apart (`f(1)` and `f(7)`).
    #[test]
    fn a_table_with_one_ulp_neighbours_fits_and_reloads() {
        let xs: Vec<Vec<f64>> = (0..48)
            .map(|i| {
                let f = i as f64;
                vec![f % 5.0, (f * 0.37).sin(), 0.05 * f + 0.3 * (i % 7) as f64]
            })
            .collect();
        let ys: Vec<f64> = (0..48).map(|i| (1.0 + i as f64).log2()).collect();
        assert_sound(&xs, &ys);
    }
}
