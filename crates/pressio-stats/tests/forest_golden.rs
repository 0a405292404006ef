//! The random forest's fit, pinned two ways.
//!
//! 1. Golden digests of `RandomForest::to_json` and of a single
//!    `RegressionTree`'s JSON, taken at the commit *before* the fit moved
//!    onto presorted columns (ranks taken once per forest, counting-sorted
//!    bootstraps, stable partitions in place of per-node sorts). The grid
//!    covers n ∈ {1, 2, 3, 4, 5, 17, 141, 3 369} rows and d ∈ {1, 2, 7, 9}
//!    features; smooth data, tied values, duplicate rows, a constant column,
//!    and columns drawn from {±0.0, ±1, ±inf, 0.5}; `mtry` None/1/d,
//!    `max_depth` 0/1/12, `min_samples_split` 1/2/4, and FXRZ augmentation
//!    0/2. A digest is FNV-1a over one line per case; on a mismatch the test
//!    prints the digest it computed, and `FOREST_GOLDEN_DUMP=1` prints the
//!    lines themselves. Re-taken twice. First when a split whose midpoint
//!    rounded to its upper value (one ulp apart) or overflowed (next to
//!    ±inf) moved to its lower value: the 234 lines that moved (181
//!    `Signed`, 53 augmented `Duplicates`) are exactly those whose forest
//!    or tree held a `NaN` leaf, and no other line moved. Then when a split
//!    above −inf moved its threshold from −inf, which JSON saves as `null`,
//!    to `f64::MIN`: the 191 lines that moved (all `Signed`; 117 in both
//!    digests, 59 in the forest's only, 15 in the tree's only) are exactly
//!    those whose JSON held a `null`, and no other line moved.
//! 2. A property test against the split search that sorted every node,
//!    kept below as `reference` (verbatim but for those threshold rules):
//!    the same `RandomForest` and the same `RegressionTree`, field for
//!    field, on random shapes, ties and signed zeros and infinities.

use pressio_core::hash::fnv1a64;
use pressio_stats::{augment_by_interpolation, ForestParams, RandomForest};
use pressio_stats::{RegressionTree, TreeParams};
use proptest::prelude::*;
use std::fmt::Write;

const GOLDEN: u64 = 0xcffe47b78fec642d;

/// What the feature columns look like.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Uniform in [0, 1): almost no ties.
    Smooth,
    /// Four levels per feature, and targets on a half-integer grid.
    Ties,
    /// Every row appears about three times.
    Duplicates,
    /// Feature 0 is constant.
    Constant,
    /// Values from {−0.0, 0.0, ±1, ±inf, 0.5}.
    Signed,
}

const KINDS: [Kind; 5] = [
    Kind::Smooth,
    Kind::Ties,
    Kind::Duplicates,
    Kind::Constant,
    Kind::Signed,
];

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` rows of `d` features and a finite target, deterministic in `seed`.
fn rows(kind: Kind, n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut g = Xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut xs: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| g.unit()).collect()).collect();
    match kind {
        Kind::Smooth => {}
        Kind::Ties => xs
            .iter_mut()
            .flatten()
            .for_each(|v| *v = (*v * 4.0).floor()),
        Kind::Duplicates => {
            let distinct = n.div_ceil(3);
            for i in distinct..n {
                xs[i] = xs[i % distinct].clone();
            }
        }
        Kind::Constant => xs.iter_mut().for_each(|r| r[0] = 2.5),
        Kind::Signed => {
            const POOL: [f64; 7] = [-0.0, 0.0, 1.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, 0.5];
            xs.iter_mut()
                .flatten()
                .for_each(|v| *v = POOL[(g.next() % 7) as usize]);
        }
    }
    let ys = xs
        .iter()
        .map(|r| {
            let y: f64 = r
                .iter()
                .enumerate()
                .map(|(j, &v)| {
                    if v.is_finite() {
                        (v * (j + 1) as f64).sin()
                    } else {
                        v.signum() * 0.5
                    }
                })
                .sum::<f64>()
                + 0.1 * g.unit();
            match kind {
                Kind::Ties => (y * 2.0).round() / 2.0,
                _ => y,
            }
        })
        .collect();
    (xs, ys)
}

/// One fit of the grid.
struct Case {
    kind: Kind,
    n: usize,
    d: usize,
    mtry: Option<usize>,
    max_depth: usize,
    min_samples_split: usize,
    augmentation: f64,
    trees: usize,
}

/// `Signed` columns are not augmented: interpolating between infinities
/// makes NaN, on which the sorting fit panics.
fn augmentations(kind: Kind) -> &'static [f64] {
    match kind {
        Kind::Signed => &[0.0],
        _ => &[0.0, 2.0],
    }
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let mut push = |kind, n, d, mtry, max_depth, min_samples_split, augmentation, trees| {
        out.push(Case {
            kind,
            n,
            d,
            mtry,
            max_depth,
            min_samples_split,
            augmentation,
            trees,
        })
    };
    for n in [1, 2, 3, 4, 5, 17] {
        for d in [1, 2, 7, 9] {
            for kind in KINDS {
                for mtry in [None, Some(1), Some(d)] {
                    for depth in [0, 1, 12] {
                        for mss in [1, 2, 4] {
                            for &aug in augmentations(kind) {
                                push(kind, n, d, mtry, depth, mss, aug, 3);
                            }
                        }
                    }
                }
            }
        }
    }
    for d in [1, 2, 7, 9] {
        for kind in KINDS {
            for mtry in [None, Some(1), Some(d)] {
                for depth in [1, 12] {
                    for &aug in augmentations(kind) {
                        push(kind, 141, d, mtry, depth, 2, aug, 4);
                    }
                }
            }
        }
    }
    for d in [1, 2, 7, 9] {
        for kind in [Kind::Smooth, Kind::Ties, Kind::Signed] {
            push(kind, 3369, d, None, 12, 4, 0.0, 2);
        }
    }
    out
}

/// The case's training set after augmentation, and its forest parameters.
fn setup(c: &Case, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>, ForestParams) {
    let (mut xs, mut ys) = rows(c.kind, c.n, c.d, seed);
    augment_by_interpolation(&mut xs, &mut ys, c.augmentation, seed ^ 0xA5);
    let params = ForestParams {
        num_trees: c.trees,
        tree: TreeParams {
            max_depth: c.max_depth,
            min_samples_split: c.min_samples_split,
            max_features: None,
        },
        mtry: c.mtry,
        seed,
    };
    (xs, ys, params)
}

fn lines() -> String {
    let mut out = String::new();
    for (k, c) in cases().iter().enumerate() {
        let seed = k as u64 + 1;
        let (xs, ys, params) = setup(c, seed);
        let forest = RandomForest::fit(&xs, &ys, &params);
        let tree_params = TreeParams {
            max_features: c.mtry,
            ..params.tree
        };
        let tree = RegressionTree::fit(&xs, &ys, &tree_params, seed);
        writeln!(
            out,
            "{:?} n={} d={} mtry={:?} depth={} mss={} aug={} forest={:016x} tree={:016x}",
            c.kind,
            c.n,
            c.d,
            c.mtry,
            c.max_depth,
            c.min_samples_split,
            c.augmentation,
            fnv1a64(forest.to_json().as_bytes()),
            fnv1a64(serde_json::to_string(&tree).unwrap().as_bytes()),
        )
        .unwrap();
    }
    out
}

#[test]
fn every_forest_matches_the_digest_taken_at_the_parent_commit() {
    let lines = lines();
    if std::env::var_os("FOREST_GOLDEN_DUMP").is_some() {
        print!("{lines}");
    }
    let digest = fnv1a64(lines.as_bytes());
    assert_eq!(digest, GOLDEN, "forests moved: digest {digest:#018x}");
}

/// A forest fitted on a column holding −inf splits it off at `f64::MIN`, so
/// its JSON holds no `null`: it reloads to the same forest, bit for bit,
/// and answers every row, −inf included, as the forest it was saved from.
#[test]
fn a_forest_over_negative_infinity_saves_and_reloads_bit_for_bit() {
    let xs: Vec<Vec<f64>> = (0..40)
        .map(|i| match i % 4 {
            0 => vec![f64::NEG_INFINITY, (i % 3) as f64],
            _ => vec![i as f64 * 0.25, (i % 3) as f64],
        })
        .collect();
    let ys: Vec<f64> = xs.iter().map(|r| r[0].max(-40.0) + r[1]).collect();
    let params = ForestParams {
        num_trees: 8,
        mtry: Some(2),
        ..ForestParams::default()
    };
    let forest = RandomForest::fit(&xs, &ys, &params);
    let json = forest.to_json();
    assert!(!json.contains("null"), "{json}");
    // f64::MIN, as the JSON writes it
    assert!(json.contains(r#""threshold":-17976931348623157"#), "{json}");
    let back = RandomForest::from_json(&json).expect("the saved forest reads back");
    assert_eq!(back, forest);
    assert_eq!(back.to_json(), json);
    let probes = [vec![f64::NEG_INFINITY, 1.0], vec![f64::MIN, 0.0]];
    for x in xs.iter().chain(&probes) {
        assert_eq!(back.predict(x).to_bits(), forest.predict(x).to_bits());
    }
}

/// The fit as it was before presorting: every node clones its index list,
/// sorts it by each drawn feature, and partitions into fresh vectors; every
/// tree clones its bootstrap rows. Kept verbatim (bar paths, the `pub`s a
/// test module needs and the threshold rules), so it panics on a NaN
/// feature as it did. Its types have the real ones' names and fields, so
/// `{:?}` of both must agree.
mod reference {
    use pressio_stats::tree::Node;
    use pressio_stats::{ForestParams, TreeParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[derive(Debug)]
    #[allow(dead_code)] // read through `{:?}` only
    pub struct RandomForest {
        trees: Vec<RegressionTree>,
        num_features: usize,
    }

    impl RandomForest {
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
            let trees = (0..params.num_trees)
                .map(|t| {
                    // bootstrap sample
                    let mut bxs = Vec::with_capacity(n);
                    let mut bys = Vec::with_capacity(n);
                    for _ in 0..n {
                        let i = rng.gen_range(0..n);
                        bxs.push(xs[i].clone());
                        bys.push(ys[i]);
                    }
                    RegressionTree::fit(&bxs, &bys, &tree_params, params.seed ^ (t as u64 + 1))
                })
                .collect();
            RandomForest {
                trees,
                num_features: d,
            }
        }
    }

    #[derive(Debug)]
    #[allow(dead_code)] // read through `{:?}` only
    pub struct RegressionTree {
        nodes: Vec<Node>,
        num_features: usize,
    }

    impl RegressionTree {
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
                    // no split between equal feature values, nor where no
                    // finite threshold separates −inf from the next value
                    let (a, b) = (xs[order[k - 1]][f], xs[order[k]][f]);
                    if a >= b || (a == f64::NEG_INFINITY && b <= f64::MIN) {
                        continue;
                    }
                    let (nl, nr) = (k as f64, (n - k) as f64);
                    let sl = prefix_sum[k];
                    let sr = prefix_sum[n] - sl;
                    let ql = prefix_sq[k];
                    let qr = prefix_sq[n] - ql;
                    let sse_split = (ql - sl * sl / nl) + (qr - sr * sr / nr);
                    if best.is_none_or(|(_, _, b)| sse_split < b) {
                        // the fixes the real fit took: `a` when the midpoint
                        // is not in [a, b) (one ulp apart, or overflowed),
                        // and `f64::MIN` in place of a −inf threshold
                        let mid = 0.5 * (a + b);
                        let thr = if a <= mid && mid < b { mid } else { a };
                        let thr = if a == f64::NEG_INFINITY {
                            f64::MIN
                        } else {
                            thr
                        };
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
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_presorted_fit_grows_what_the_sorting_fit_grew(
        seed in any::<u64>(),
        kind in 0usize..5,
        n in 1usize..90,
        d in 1usize..10,
        mtry in 0usize..3,
        max_depth in 0usize..14,
        min_samples_split in 1usize..6,
        augmentation in 0usize..2,
        trees in 1usize..6,
    ) {
        let c = Case {
            kind: KINDS[kind],
            n,
            d,
            mtry: [None, Some(1 + seed as usize % d), Some(d)][mtry],
            max_depth,
            min_samples_split,
            augmentation: augmentations(KINDS[kind]).get(augmentation).copied().unwrap_or(0.0),
            trees,
        };
        let (xs, ys, params) = setup(&c, seed);
        prop_assert_eq!(
            format!("{:?}", RandomForest::fit(&xs, &ys, &params)),
            format!("{:?}", reference::RandomForest::fit(&xs, &ys, &params))
        );
        let tree_params = TreeParams { max_features: c.mtry, ..params.tree };
        prop_assert_eq!(
            format!("{:?}", RegressionTree::fit(&xs, &ys, &tree_params, seed)),
            format!("{:?}", reference::RegressionTree::fit(&xs, &ys, &tree_params, seed))
        );
    }
}
