//! Feature metrics used by the prediction schemes.
//!
//! Each function computes a group of named features into an [`Options`]
//! structure. Features are partitioned by invalidation class (paper §4.2):
//! **error-agnostic** features depend only on the data; **error-dependent**
//! features also depend on error-affecting compressor settings (here, the
//! bound [`FeaturePass::abs_bound`] resolves). The evaluator in
//! [`crate::evaluator`] caches each class separately.

use pressio_core::bound::ErrorBound;
use pressio_core::error::Result;
use pressio_core::lanes::{finite_or_zero, Widen};
use pressio_core::{gather, with_elements, Blocks, Compressor, Data, Options};
use pressio_lossless::entropy::{quantized_entropy, shannon_entropy_symbols};
use pressio_stats::lanes::{self, Sweep};
use pressio_stats::{summarize, svd_truncation_fraction, variogram_score, Matrix, Summary};
use pressio_sz::{predict_and_quantize_par, Predictor as SzPredictor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// One buffer's feature pass: what every feature group reads the buffer
/// through, so that all groups of all stages of a request share one walk.
///
/// The statistics come straight from the typed elements (`&[f32]` is
/// widened in-register, never copied to `f64`): one sweep for
/// sum/min/max/zeros/count and the first differences, a second for the
/// centred second moment, and the Lorenzo residual over a ring of widened
/// rows. The groups that need an `&[f64]` — the variogram, the SVD, the
/// quantized entropy, the temporal deltas — share one widened copy; SZ's
/// predict-and-quantize reads the typed elements too.
/// Everything is computed on first use and kept, so an error-dependent
/// stage that needs only the value range costs the first sweep, or nothing
/// when the error-agnostic stage of the same pass has run. `Sync`: the
/// stages may run on different threads, the later one waiting for a result
/// rather than recomputing it.
pub struct FeaturePass<'a> {
    data: &'a Data,
    sweep: OnceLock<Sweep>,
    summary: OnceLock<Summary>,
    lorenzo_mae: OnceLock<f64>,
    widened: OnceLock<Vec<f64>>,
}

impl<'a> FeaturePass<'a> {
    /// A pass over `data`; nothing is read until a feature asks.
    pub fn new(data: &'a Data) -> FeaturePass<'a> {
        FeaturePass {
            data,
            sweep: OnceLock::new(),
            summary: OnceLock::new(),
            lorenzo_mae: OnceLock::new(),
            widened: OnceLock::new(),
        }
    }

    /// The buffer this pass reads.
    pub fn data(&self) -> &'a Data {
        self.data
    }

    fn sweep(&self) -> &Sweep {
        self.sweep.get_or_init(|| {
            let _span = pressio_obs::span("features:pass");
            with_elements!(self.data.elements(), v => lanes::sweep(v))
        })
    }

    /// [`pressio_stats::summarize`] of the buffer.
    pub fn summary(&self) -> &Summary {
        self.summary.get_or_init(|| {
            let s = self.sweep();
            Summary::from_passes((s.count, s.sum, s.min, s.max, s.zeros), |mean| {
                let _span = pressio_obs::span("features:pass.moment");
                with_elements!(self.data.elements(), v => lanes::sum_sq_dev(v, mean))
            })
        })
    }

    /// `max − min` over the finite values, 0 when there are none — from the
    /// first sweep alone.
    pub fn value_range(&self) -> f64 {
        let s = self.sweep();
        if s.count == 0 {
            0.0
        } else {
            s.max - s.min
        }
    }

    /// The absolute bound `compressor` holds on this buffer: its
    /// [`ErrorBound`] resolved against [`FeaturePass::value_range`], which
    /// is read only while `pressio:rel` is set.
    pub fn abs_bound(&self, compressor: &dyn Compressor) -> Result<f64> {
        Ok(ErrorBound::of(&compressor.get_options())?.resolve(|| self.value_range()))
    }

    /// Mean absolute first difference (cheap smoothness proxy, 1-d walk)
    /// over the finite consecutive pairs.
    pub fn mean_abs_diff(&self) -> f64 {
        let s = self.sweep();
        if s.pairs > 0 {
            s.abs_diff / s.pairs as f64
        } else {
            0.0
        }
    }

    /// Lorenzo-residual estimate: the cheap predictor-fit proxy SZ-family
    /// schemes key on.
    pub fn lorenzo_mae(&self) -> f64 {
        *self.lorenzo_mae.get_or_init(|| {
            let _span = pressio_obs::span("features:pass.lorenzo");
            with_elements!(self.data.elements(), v => {
                pressio_sz::lorenzo::estimate_mean_abs_residual(v, self.data.dims())
            })
        })
    }

    /// Every element as `f64`, in storage order: the buffer itself when it
    /// is `f64`, else one copy made on first use. `features:widened_bytes`
    /// counts what this and [`FeaturePass::sample`] allocate, so a trace
    /// shows which scheme still pays for a widened copy.
    pub fn widened(&self) -> &[f64] {
        match self.data.as_f64() {
            Ok(values) => values,
            Err(_) => self.widened.get_or_init(|| {
                count_widened(self.data.num_elements());
                self.data.to_f64_vec()
            }),
        }
    }

    /// The lattice `origin + step · k`, `k < shape`, of the buffer viewed
    /// with shape `dims` (its own, or a collapse of them), widened into one
    /// output-sized vector in the lattice's storage order: a sampled block
    /// (`step` 1) or a stride decimation (`origin` 0).
    pub fn sample(
        &self,
        dims: &[usize],
        origin: &[usize],
        shape: &[usize],
        step: usize,
    ) -> Vec<f64> {
        count_widened(shape.iter().product());
        let mut out = Vec::new();
        with_elements!(self.data.elements(), values => {
            gather(values, dims, origin, shape, step, Widen::widen, &mut out)
        });
        out
    }
}

/// One of a [`FeaturePass`]'s walks of its buffer that no other waits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassChain {
    /// The first sweep, then the second moment about its mean
    /// ([`FeaturePass::summary`]).
    Moments,
    /// The Lorenzo residual pass ([`FeaturePass::lorenzo_mae`]).
    Lorenzo,
}

/// The chains [`global_stats`] reads.
pub const GLOBAL_STATS_CHAINS: &[PassChain] = &[PassChain::Moments, PassChain::Lorenzo];

/// Run `stages` with every chain of `chains` on every pass of `passes`
/// started ahead of them on the pool, side by side. A stage that reads a
/// chain still running waits for it rather than recomputing it. At one
/// thread nothing starts ahead: the stages compute what they read as they
/// read it, the same work in the same order.
pub fn with_chains_ahead<R>(
    passes: &[&FeaturePass<'_>],
    chains: &[PassChain],
    nthreads: usize,
    stages: impl FnOnce() -> R,
) -> R {
    if nthreads <= 1 || chains.is_empty() {
        return stages();
    }
    rayon::scope(|s| {
        for &pass in passes {
            for &chain in chains {
                s.spawn(move |_| match chain {
                    PassChain::Moments => {
                        pass.summary();
                    }
                    PassChain::Lorenzo => {
                        pass.lorenzo_mae();
                    }
                });
            }
        }
        stages()
    })
}

/// The origins of `blocks`' draw of blocks of shape `block` in a buffer
/// viewed with shape `dims`: [`Blocks::origins`] on the generator every
/// block draw uses, seeded with the draw's seed.
pub(crate) fn origins(blocks: &Blocks<'_>, dims: &[usize], block: &[usize]) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(blocks.seed);
    blocks.origins(dims, block, |k| rng.gen_range(0..=k))
}

fn count_widened(elements: usize) {
    pressio_obs::add_counter(
        "features:widened_bytes",
        (elements * std::mem::size_of::<f64>()) as i64,
    );
}

/// Error-agnostic global statistics (`stat:*`): the FXRZ feature family.
///
/// All come from the pass's typed sweeps — this is what keeps Rahman's
/// error-agnostic stage two orders of magnitude below compression time.
pub fn global_stats(pass: &FeaturePass<'_>) -> Options {
    let s = pass.summary();
    Options::new()
        .with("stat:mean", s.mean)
        .with("stat:std", s.variance.sqrt())
        .with("stat:value_range", pass.value_range())
        .with("stat:zero_fraction", s.zero_fraction)
        .with("stat:mean_abs_diff", pass.mean_abs_diff())
        .with("stat:lorenzo_mae", pass.lorenzo_mae())
        .with("stat:n_elements", s.count as u64)
}

/// Error-agnostic spatial-correlation feature (`variogram:score`),
/// Krasowska's second regressor.
pub fn variogram_features(pass: &FeaturePass<'_>) -> Options {
    let score = variogram_score(pass.widened(), pass.data().dims());
    Options::new().with("variogram:score", score)
}

/// Error-agnostic SVD-truncation feature (`svd:truncation`), the Underwood
/// (2023) global-information measure. Deliberately the most expensive
/// error-agnostic metric (the paper's §6 measures it at ~771 ms vs <43 ms
/// for the error-dependent stage): it runs a Jacobi SVD over several 2-D
/// slices of the volume and averages the truncation fractions.
pub fn svd_features(pass: &FeaturePass<'_>) -> Options {
    let dims = pass.data().dims();
    let values = pass.widened();
    let (nx, ny, nz) = match dims.len() {
        0 => (0usize, 1usize, 1usize),
        1 => (dims[0], 1, 1),
        2 => (dims[0], dims[1], 1),
        _ => (dims[0], dims[1], dims[2..].iter().product()),
    };
    // non-finite entries are zeroed throughout: the SVD's value sort cannot
    // order a NaN
    if nx < 2 || ny < 2 {
        // degenerate: treat the vector as a square-ish matrix
        let side = (values.len() as f64).sqrt().floor().max(1.0) as usize;
        if side < 2 {
            return Options::new().with("svd:truncation", 1.0);
        }
        let square = values[..side * side].iter().copied().map(finite_or_zero);
        let m = Matrix::from_rows(side, side, square.collect());
        return Options::new().with("svd:truncation", svd_truncation_fraction(&m, 0.99));
    }
    // average over up to 4 evenly spaced z-slices; slices are independent,
    // so they run through the pool, and the per-slice results are summed in
    // slice order — bit-identical to the sequential loop
    let slices = nz.min(4);
    let nthreads = pressio_core::threads::resolve(None);
    let fractions = pressio_core::threads::par_map_indexed(nthreads, slices, |s| {
        let plane = &values[s * nz / slices * nx * ny..][..nx * ny];
        let m = Matrix::from_rows(ny, nx, plane.iter().copied().map(finite_or_zero).collect());
        svd_truncation_fraction(&m, 0.99)
    });
    let acc: f64 = fractions.iter().sum();
    Options::new().with("svd:truncation", acc / slices as f64)
}

/// Error-agnostic temporal-delta feature group (`temporal:*`): how the
/// current chunk relates to the previous timestep's last slice (LFZip).
///
/// `prev` is one outer slice (the previous chunk's trailing timestep);
/// `cur` is the current chunk. When `cur` spans several outer slices the
/// statistics are computed against its first slice-sized prefix — the
/// boundary the chained streaming delta actually codes against.
pub fn temporal_delta_features(prev: &FeaturePass<'_>, cur: &FeaturePass<'_>) -> Options {
    let (prev_values, cur_values) = (prev.widened(), cur.widened());
    let n = prev_values.len().min(cur_values.len());
    if n == 0 {
        return Options::new();
    }
    let td = pressio_stats::temporal_delta(&prev_values[..n], &cur_values[..n]);
    Options::new()
        .with("temporal:mean_abs_delta", td.mean_abs_delta)
        .with("temporal:rms_delta", td.rms_delta)
        .with("temporal:max_abs_delta", td.max_abs_delta)
        .with("temporal:delta_range", td.delta_range)
        .with("temporal:correlation", td.correlation)
        .with("temporal:hold_gain", td.hold_gain)
}

/// Error-dependent quantized entropy (`qent:entropy`), Krasowska's first
/// regressor: the Shannon entropy of the data after bucketing at the
/// current absolute error bound.
pub fn quantized_entropy_features(pass: &FeaturePass<'_>, abs_bound: f64) -> Options {
    Options::new().with("qent:entropy", quantized_entropy(pass.widened(), abs_bound))
}

/// Error-agnostic Ganguli (2023) feature family (`spatial:*`): spatial
/// correlation, spatial diversity, spatial smoothness, and coding gain.
pub fn spatial_features(pass: &FeaturePass<'_>) -> Options {
    let values = pass.widened();
    let var = pass.summary().variance.max(1e-300);

    // spatial correlation: 1 − normalized lag-1 semivariance
    let correlation = (1.0 - variogram_score(values, pass.data().dims())).clamp(-1.0, 1.0);

    // spatial diversity: coefficient of variation of coarse-block means
    let block = 8usize;
    let mut block_means = Vec::new();
    for chunk in values.chunks(block * block) {
        let bs = summarize(chunk);
        if bs.count > 0 {
            block_means.push(bs.mean);
        }
    }
    let bm = summarize(&block_means);
    let diversity = if bm.mean.abs() > 1e-12 {
        (bm.variance.sqrt() / bm.mean.abs()).min(100.0)
    } else {
        bm.variance.sqrt().min(100.0)
    };

    // spatial smoothness: 1 / (1 + mean |Δ| / sd)
    let smoothness = 1.0 / (1.0 + pass.mean_abs_diff() / var.sqrt());

    // coding gain: variance ratio of the signal to its lag-1 residual
    let (resid_sum, rn) = lanes::sum_sq_diff(values);
    let resid_var = if rn > 0 { resid_sum / rn as f64 } else { 0.0 };
    let coding_gain = if resid_var > 0.0 {
        (var / resid_var).log2().clamp(-10.0, 30.0)
    } else {
        30.0
    };

    Options::new()
        .with("spatial:correlation", correlation)
        .with("spatial:diversity", diversity)
        .with("spatial:smoothness", smoothness)
        .with("spatial:coding_gain", coding_gain)
}

/// SZ's prediction + quantization (stages 1–2 of its pipeline) as the
/// SZ-modelling schemes run it — no `f32` rounding, regression's default
/// block, one thread — reduced to what they read of it: the symbols and how
/// many points escaped. `None` runs it over the whole buffer, read typed; a
/// draw runs it over each of its blocks on its own and pools them in draw
/// order.
pub(crate) fn sz_quantize(
    pass: &FeaturePass<'_>,
    blocks: Option<&Blocks<'_>>,
    abs_bound: f64,
    predictor: SzPredictor,
) -> (Vec<u32>, usize) {
    let (data, dims) = (pass.data(), pass.data().dims());
    let Some(blocks) = blocks else {
        return with_elements!(data.elements(), v => sz_stage(v, dims, abs_bound, predictor));
    };
    let shape = blocks.block(dims);
    let (mut symbols, mut escapes) = (Vec::new(), 0);
    for origin in origins(blocks, dims, &shape) {
        let block = pass.sample(dims, &origin, &shape, 1);
        let (block_symbols, block_escapes) = sz_stage(&block, &shape, abs_bound, predictor);
        symbols.extend(block_symbols);
        escapes += block_escapes;
    }
    (symbols, escapes)
}

fn sz_stage<T: Widen>(
    values: &[T],
    dims: &[usize],
    abs_bound: f64,
    predictor: SzPredictor,
) -> (Vec<u32>, usize) {
    let block = pressio_sz::regression::DEFAULT_BLOCK;
    let qs = predict_and_quantize_par(values, dims, abs_bound, predictor, block, false, 1);
    (qs.symbols, qs.unpredictable.len())
}

/// Error-dependent SZ quantization profile (`quant:*`): runs the cheap
/// prediction + quantization stages (not the encoder) and summarizes the
/// symbol stream — the raw material of both the Jin and Khan models. A
/// `sample_stride` above 1 stride-decimates first to bound the cost (Khan's
/// tightly coupled sampling); either way the elements are read typed.
pub fn sz_quantization_profile(
    pass: &FeaturePass<'_>,
    abs_bound: f64,
    sample_stride: usize,
) -> Options {
    let dims = pass.data().dims();
    let (symbols, escapes) = if sample_stride > 1 {
        let kept: Vec<usize> = dims.iter().map(|&d| d.div_ceil(sample_stride)).collect();
        let sampled = pass.sample(dims, &vec![0; dims.len()], &kept, sample_stride);
        sz_stage(&sampled, &kept, abs_bound, SzPredictor::Lorenzo)
    } else {
        sz_quantize(pass, None, abs_bound, SzPredictor::Lorenzo)
    };
    let n = symbols.len().max(1);
    let entropy = shannon_entropy_symbols(&symbols);
    let unpred = escapes as f64 / n as f64;
    let zero_code = (pressio_sz::RADIUS) as u32;
    let hit = symbols.iter().filter(|&&s| s == zero_code).count() as f64 / n as f64;
    Options::new()
        .with("quant:code_entropy", entropy)
        .with("quant:unpredictable_fraction", unpred)
        .with("quant:zero_code_fraction", hit)
        .with("quant:n", n as u64)
}

/// Extract a named feature vector from a merged feature [`Options`]
/// structure, in the order of `keys`; missing features error.
pub fn feature_vector<'a>(
    features: &Options,
    keys: impl IntoIterator<Item = &'a String>,
) -> pressio_core::Result<Vec<f64>> {
    keys.into_iter().map(|k| features.get_f64(k)).collect()
}

/// A feature group held as the numbers a predictor reads of it: the values
/// of a scheme's `feature_keys()` the group has, read through `get_f64` as
/// [`feature_vector`] reads them, and which of the keys those are. A cache
/// entry of a few words in place of an [`Options`] tree.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureRow {
    /// Bit `i` set: `values` holds `keys[i]`'s value.
    present: u64,
    values: Box<[f64]>,
}

impl FeatureRow {
    /// `features` as a row over `keys`, or `None` when there are more keys
    /// than `present` has bits.
    pub fn of(features: &Options, keys: &[String]) -> Option<FeatureRow> {
        let held: Vec<Option<f64>> = keys.iter().map(|k| features.get_f64(k).ok()).collect();
        (keys.len() <= 64).then(|| FeatureRow {
            present: (0..keys.len()).fold(0, |bits, i| bits | u64::from(held[i].is_some()) << i),
            values: held.into_iter().flatten().collect(),
        })
    }

    /// The group rebuilt over the `keys` it was made with: every number
    /// [`feature_vector`] reads of it, as `f64`.
    pub fn options(&self, keys: &[String]) -> Options {
        let held = keys.iter().enumerate();
        let held = held.filter(|&(i, _)| self.present >> i & 1 == 1);
        let held = held.zip(self.values.iter());
        held.fold(Options::new(), |row, ((_, key), &value)| {
            row.with(key.as_str(), value)
        })
    }

    /// What the row owns beyond its own size.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_3d(n: usize) -> Data {
        let values: Vec<f32> = (0..n * n * 8)
            .map(|i| {
                let x = (i % n) as f32;
                let y = ((i / n) % n) as f32;
                let z = (i / (n * n)) as f32;
                (x * 0.1).sin() * (y * 0.15).cos() + z * 0.02
            })
            .collect();
        Data::from_f32(vec![n, n, 8], values)
    }

    fn noise_3d(n: usize) -> Data {
        let mut state = 5u64;
        let values: Vec<f32> = (0..n * n * 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 11) as f64 / (1u64 << 53) as f64) as f32
            })
            .collect();
        Data::from_f32(vec![n, n, 8], values)
    }

    #[test]
    fn global_stats_basics() {
        let data = Data::from_f32(vec![4], vec![0.0, 0.0, 2.0, 4.0]);
        let f = global_stats(&FeaturePass::new(&data));
        assert_eq!(f.get_f64("stat:mean").unwrap(), 1.5);
        assert_eq!(f.get_f64("stat:zero_fraction").unwrap(), 0.5);
        assert_eq!(f.get_f64("stat:value_range").unwrap(), 4.0);
        assert_eq!(f.get_u64("stat:n_elements").unwrap(), 4);
    }

    #[test]
    fn smooth_data_scores_compressible_everywhere() {
        let (smooth, noisy) = (smooth_3d(24), noise_3d(24));
        let (smooth, noisy) = (FeaturePass::new(&smooth), FeaturePass::new(&noisy));
        let vs = variogram_features(&smooth)
            .get_f64("variogram:score")
            .unwrap();
        let vn = variogram_features(&noisy)
            .get_f64("variogram:score")
            .unwrap();
        assert!(vs < vn, "variogram {vs} !< {vn}");
        let ss = svd_features(&smooth).get_f64("svd:truncation").unwrap();
        let sn = svd_features(&noisy).get_f64("svd:truncation").unwrap();
        assert!(ss < sn, "svd {ss} !< {sn}");
        // note: quantized entropy measures the *marginal* distribution, not
        // spatial structure — that is exactly why Krasowska pairs it with
        // the variogram; no smooth-vs-noise ordering is asserted for it
    }

    #[test]
    fn quantized_entropy_depends_on_bound() {
        let data = smooth_3d(16);
        let data = FeaturePass::new(&data);
        let tight = quantized_entropy_features(&data, 1e-6)
            .get_f64("qent:entropy")
            .unwrap();
        let loose = quantized_entropy_features(&data, 1e-2)
            .get_f64("qent:entropy")
            .unwrap();
        assert!(tight > loose);
    }

    #[test]
    fn spatial_features_distinguish_structure() {
        let smooth = spatial_features(&FeaturePass::new(&smooth_3d(24)));
        let noisy = spatial_features(&FeaturePass::new(&noise_3d(24)));
        assert!(
            smooth.get_f64("spatial:correlation").unwrap()
                > noisy.get_f64("spatial:correlation").unwrap()
        );
        assert!(
            smooth.get_f64("spatial:smoothness").unwrap()
                > noisy.get_f64("spatial:smoothness").unwrap()
        );
        assert!(
            smooth.get_f64("spatial:coding_gain").unwrap()
                > noisy.get_f64("spatial:coding_gain").unwrap()
        );
    }

    #[test]
    fn quant_profile_tracks_bound() {
        let data = smooth_3d(16);
        let data = FeaturePass::new(&data);
        let tight = sz_quantization_profile(&data, 1e-6, 1);
        let loose = sz_quantization_profile(&data, 1e-2, 1);
        assert!(
            tight.get_f64("quant:code_entropy").unwrap()
                > loose.get_f64("quant:code_entropy").unwrap()
        );
        assert!(
            loose.get_f64("quant:zero_code_fraction").unwrap()
                > tight.get_f64("quant:zero_code_fraction").unwrap()
        );
    }

    #[test]
    fn quant_profile_sampling_reduces_n() {
        let data = smooth_3d(16);
        let data = FeaturePass::new(&data);
        let full = sz_quantization_profile(&data, 1e-4, 1);
        let sampled = sz_quantization_profile(&data, 1e-4, 4);
        let nf = full.get_u64("quant:n").unwrap();
        let ns = sampled.get_u64("quant:n").unwrap();
        assert!(ns < nf / 16, "sampled {ns} vs full {nf}");
        // stride sampling decorrelates neighbors, so the sampled residual
        // entropy is biased *upward*; it must stay the same order of
        // magnitude but is not expected to match
        let ef = full.get_f64("quant:code_entropy").unwrap();
        let es = sampled.get_f64("quant:code_entropy").unwrap();
        assert!(es >= ef * 0.5 && es <= ef * 4.0 + 1.0, "{ef} vs {es}");
    }

    /// A rank-1 buffer goes through the square-matrix path, which used to
    /// hand its NaN to the singular-value sort and panic there.
    #[test]
    fn svd_masks_non_finite_on_the_degenerate_path() {
        let mut values: Vec<f32> = (0..64).map(|i| (i as f32 * 0.3).sin()).collect();
        let clean = Data::from_f32(vec![64], values.clone());
        values[1] = f32::NAN;
        values[40] = f32::NEG_INFINITY;
        let dirty = Data::from_f32(vec![64], values.clone());
        values[1] = 0.0;
        values[40] = 0.0;
        let zeroed = Data::from_f32(vec![64], values);
        let svd = |d: &Data| svd_features(&FeaturePass::new(d)).get_f64("svd:truncation");
        assert_eq!(svd(&dirty).unwrap(), svd(&zeroed).unwrap());
        assert!(svd(&clean).unwrap().is_finite());
    }

    /// `sample` is `slice_block` then widen for a block, and every
    /// `step`-th element per axis for a decimation.
    #[test]
    fn sample_gathers_blocks_and_lattices_from_the_typed_elements() {
        let dims = vec![7usize, 5, 3, 2];
        let n: usize = dims.iter().product();
        let data = Data::from_i32(dims.clone(), (0..n as i32).map(|i| i * 3 - 50).collect());
        let pass = FeaturePass::new(&data);
        let (origin, shape) = ([2usize, 1, 0, 1], [4usize, 3, 3, 1]);
        assert_eq!(
            pass.sample(&dims, &origin, &shape, 1),
            data.slice_block(&origin, &shape).unwrap().to_f64_vec()
        );
        // the same buffer seen collapsed to three dimensions
        let collapsed = [7usize, 5, 6];
        let whole = Data::from_f64(collapsed.to_vec(), data.to_f64_vec());
        assert_eq!(
            pass.sample(&collapsed, &[1, 2, 3], &[4, 2, 3], 1),
            whole
                .slice_block(&[1, 2, 3], &[4, 2, 3])
                .unwrap()
                .to_f64_vec()
        );
        let kept = [3usize, 2, 1, 1];
        let mut lattice = Vec::new();
        for y in 0..kept[1] {
            for x in 0..kept[0] {
                lattice.push(data.to_f64_vec()[3 * x + 3 * y * dims[0]]);
            }
        }
        assert_eq!(pass.sample(&dims, &[0; 4], &kept, 3), lattice);
        assert!(pass.sample(&[0], &[0], &[0], 1).is_empty());
    }

    /// Both stages of a scheme on one pass read the buffer once: the sweep,
    /// the second moment and the widened copy are each made a single time,
    /// and an `f64` buffer is never copied at all.
    #[test]
    fn a_pass_computes_each_statistic_once_and_shares_one_widened_copy() {
        let data = smooth_3d(8);
        let pass = FeaturePass::new(&data);
        let first = pass.widened().as_ptr();
        variogram_features(&pass);
        quantized_entropy_features(&pass, 1e-3);
        assert_eq!(pass.widened().as_ptr(), first);
        assert!(std::ptr::eq(pass.summary(), pass.summary()));
        let s = pass.summary();
        assert_eq!(*s, summarize(&data.to_f64_vec()));
        assert_eq!(pass.value_range(), s.max - s.min);

        let wide = Data::from_f64(vec![4], vec![1.0, 2.0, 4.0, 8.0]);
        let pass = FeaturePass::new(&wide);
        assert_eq!(pass.widened().as_ptr(), wide.as_f64().unwrap().as_ptr());
    }

    /// The chains run ahead on the pool leave exactly what a lone pass
    /// computes, at any thread count, for every pass of a batch.
    #[test]
    fn chains_run_ahead_leave_what_a_lone_pass_computes() {
        let buffers = [smooth_3d(24), noise_3d(24)];
        let alone: Vec<Options> = buffers
            .iter()
            .map(|d| global_stats(&FeaturePass::new(d)))
            .collect();
        for nthreads in [1, 2, 4] {
            let passes: Vec<FeaturePass<'_>> = buffers.iter().map(FeaturePass::new).collect();
            let ahead: Vec<&FeaturePass<'_>> = passes.iter().collect();
            let got = with_chains_ahead(&ahead, GLOBAL_STATS_CHAINS, nthreads, || {
                pressio_core::threads::par_map_indexed(nthreads, passes.len(), |i| {
                    global_stats(&passes[i])
                })
            });
            assert_eq!(got, alone, "threads={nthreads}");
        }
    }

    #[test]
    fn feature_vector_extraction() {
        let f = Options::new().with("a", 1.0).with("b", 2.0);
        let v = feature_vector(&f, &["b".into(), "a".into()]).unwrap();
        assert_eq!(v, vec![2.0, 1.0]);
        assert!(feature_vector(&f, &["missing".into()]).is_err());
    }

    #[test]
    fn a_feature_row_holds_what_feature_vector_reads() {
        let keys: Vec<String> = ["a", "n", "gone", "c"].map(String::from).into();
        let f = Options::new()
            .with("c", -0.0)
            .with("a", f64::NAN)
            .with("n", 7u64)
            .with("unread", 9.0);
        let row = FeatureRow::of(&f, &keys).unwrap();
        assert_eq!(row.heap_bytes(), 3 * 8, "three of the four keys");
        let rebuilt = row.options(&keys);
        let present = ["a", "n", "c"].map(String::from);
        let bits = |o: &Options| -> Vec<u64> {
            let v = feature_vector(o, &present).unwrap();
            v.into_iter().map(f64::to_bits).collect()
        };
        assert_eq!(bits(&rebuilt), bits(&f));
        assert!(!rebuilt.contains("gone") && !rebuilt.contains("unread"));
        let many: Vec<String> = (0..65).map(|i| format!("k{i}")).collect();
        assert!(FeatureRow::of(&f, &many).is_none());
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let tiny = Data::from_f32(vec![1], vec![3.0]);
        let tiny = FeaturePass::new(&tiny);
        let _ = global_stats(&tiny);
        let _ = variogram_features(&tiny);
        let _ = svd_features(&tiny);
        let _ = spatial_features(&tiny);
        let _ = quantized_entropy_features(&tiny, 1e-3);
        let _ = sz_quantization_profile(&tiny, 1e-3, 1);
    }

    #[test]
    fn temporal_features_track_correlation() {
        let prev = Data::from_f32(vec![16], (0..16).map(|i| (i as f32 * 0.3).sin()).collect());
        let prev = FeaturePass::new(&prev);
        let same = temporal_delta_features(&prev, &prev);
        assert_eq!(same.get_f64("temporal:mean_abs_delta").unwrap(), 0.0);
        assert!((same.get_f64("temporal:correlation").unwrap() - 1.0).abs() < 1e-9);

        // a chunk wider than one slice: only the leading slice is compared
        let chunk = Data::from_f32(
            vec![16, 2],
            (0..32).map(|i| (i as f32 * 0.3).sin() + 0.5).collect(),
        );
        let shifted = temporal_delta_features(&prev, &FeaturePass::new(&chunk));
        assert!((shifted.get_f64("temporal:mean_abs_delta").unwrap() - 0.5).abs() < 1e-6);
        assert!((shifted.get_f64("temporal:delta_range").unwrap()).abs() < 1e-6);
    }
}
