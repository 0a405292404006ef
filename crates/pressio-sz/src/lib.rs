//! # pressio-sz
//!
//! A pure-Rust, SZ3-like error-bounded lossy compressor. The pipeline
//! mirrors the prediction → quantization → encoding decomposition that the
//! Jin (2022) ratio-quality model assumes (paper §2.2):
//!
//! 1. **Prediction** — Lorenzo, block-wise linear regression, multilevel
//!    cubic interpolation, or per-block hybrid selection ([`lorenzo`],
//!    [`regression`], [`interp`], [`hybrid`]); `"auto"` predicts a sample
//!    block with each and keeps Lorenzo unless another's symbol histogram
//!    promises a stream 2 % smaller. It encodes nothing to choose.
//! 2. **Quantization** — linear-scale quantization against the prediction
//!    with an unpredictable-value escape ([`quantizer`]).
//! 3. **Encoding** — canonical Huffman over the quantization symbols,
//!    followed by an LZSS dictionary stage when it helps ([`codec`]).
//!
//! Each stage is public on its own, with a thread count: stages 1–2 are
//! [`predict_and_quantize_par`], which reads the typed elements of any
//! [`Widen`] type (what the SZ-modelling prediction schemes call); stage 3
//! and its inverse are [`codec::assemble_par`], [`codec::parse_par`] and
//! [`codec::reconstruct_par`]. `compress` is these stages back to back.
//!
//! The compressor guarantees the `pressio:abs` point-wise absolute error
//! bound on every finite value (non-finite values round-trip verbatim).
//!
//! ```
//! use pressio_core::{Compressor, Data, Dtype, Options};
//! use pressio_sz::SzCompressor;
//!
//! let data = Data::from_f32(vec![64, 64],
//!     (0..4096).map(|i| (i as f32 * 0.01).sin()).collect());
//! let mut sz = SzCompressor::new();
//! sz.set_options(&Options::new().with("pressio:abs", 1e-3)).unwrap();
//! let compressed = sz.compress(&data).unwrap();
//! let restored = sz.decompress(&compressed, Dtype::F32, &[64, 64]).unwrap();
//! for (a, b) in data.as_f32().unwrap().iter().zip(restored.as_f32().unwrap()) {
//!     assert!((a - b).abs() <= 1e-3);
//! }
//! ```

#![warn(missing_docs)]
// one exception: `lorenzo::avx2`, the `std::arch` form of the band step
#![deny(unsafe_code)]

pub mod codec;
pub mod hybrid;
pub mod interp;
pub mod lorenzo;
pub mod quantizer;
pub mod regression;

pub use codec::{predict_and_quantize_par, Predictor, QuantizedStream, RADIUS};

use pressio_core::bound::{finite_range, ErrorBound};
use pressio_core::chunking::{self, Carry, Memo};
use pressio_core::error::{Error, Result};
use pressio_core::lanes::Widen;
use pressio_core::metrics::invalidations;
use pressio_core::{gather, Compressor, Data, Dtype, Elements, Options};

/// The SZ3-like compressor plugin (`id = "sz3"`).
///
/// Recognized options:
/// - `pressio:abs` and `pressio:rel` — the error bound, parsed, reported
///   and resolved per buffer by [`pressio_core::bound::ErrorBound`].
/// - `sz3:predictor` (`"auto" | "lorenzo" | "regression" | "interp" | "hybrid"`,
///   default `"auto"`: chosen per buffer from a sample's symbol histograms,
///   and on a chained stream's residual chunks carried from the last chunk
///   it was chosen on until a chunk drifts from it; the stream is
///   byte for byte the one the chosen name would give).
/// - `sz3:block_size` (`u64`, default 6) — regression block edge.
/// - `pressio:nthreads` (`u64`, default 0 = auto) — intra-task threads;
///   `1` forces the sequential path, output is identical either way.
#[derive(Clone, Debug)]
pub struct SzCompressor {
    bound: ErrorBound,
    predictor: String,
    block: usize,
    nthreads: Option<usize>,
}

impl Default for SzCompressor {
    fn default() -> Self {
        SzCompressor {
            bound: ErrorBound::default(),
            predictor: "auto".to_string(),
            block: regression::DEFAULT_BLOCK,
            nthreads: None,
        }
    }
}

impl SzCompressor {
    /// Compressor with default settings (`abs = 1e-4`, auto predictor).
    pub fn new() -> Self {
        Self::default()
    }

    /// [`Compressor::compress`] of `input`, with the reconstruction its
    /// predictor fed back as it quantized: the values a decoder rebuilds
    /// from the bytes, before they are narrowed to the input's type. Lorenzo
    /// fills it only when `keep_reconstruction` asks (it is `n` more `f64`);
    /// the other predictors always build it. `memo` is a chained stream's,
    /// offered with its residual chunks only (see
    /// [`SzCompressor::select_predictor`]).
    fn encode(
        &self,
        input: &Data,
        keep_reconstruction: bool,
        memo: Option<&mut Memo>,
    ) -> Result<(Vec<u8>, Vec<f64>)> {
        let _span = pressio_obs::span("sz3:compress");
        match input.elements() {
            // one element and no axis to predict along
            _ if input.dims().is_empty() => Err(Error::UnsupportedData(
                "sz3 needs at least one dimension, got a rank-0 buffer".into(),
            )),
            Elements::F32(values) => {
                self.compress_elements(input, values, keep_reconstruction, memo)
            }
            Elements::F64(values) => {
                self.compress_elements(input, values, keep_reconstruction, memo)
            }
            _ => Err(Error::UnsupportedData(format!(
                "sz3 supports f32/f64, got {}",
                input.dtype().name()
            ))),
        }
    }

    /// [`SzCompressor::encode`] on the typed elements of `input`. Lorenzo
    /// reads them as they are; the other predictors work on an `f64` copy,
    /// made only once one of them is chosen.
    fn compress_elements<T: Widen>(
        &self,
        input: &Data,
        values: &[T],
        keep_reconstruction: bool,
        memo: Option<&mut Memo>,
    ) -> Result<(Vec<u8>, Vec<f64>)> {
        let (dtype, dims) = (input.dtype(), input.dims());
        let round_f32 = dtype == Dtype::F32;
        let abs = self.bound.resolve(|| finite_range(values));
        // The symbols' block is taken before the choice is made: its scratch,
        // freed in chunks of under 1 KiB that glibc keeps uncoalesced, would
        // else pin the block the last call's symbols left, and each n-element
        // buffer after it sit n elements up the heap (`sz3_16m`: 88 MB, not 79).
        let mut symbols = Vec::new();
        let predictor = match self.predictor.as_str() {
            "auto" => {
                symbols.reserve_exact(values.len());
                self.select_predictor(values, dims, abs, dtype, memo)
            }
            other => Predictor::parse(other)?,
        };
        let nthreads = pressio_core::threads::resolve(self.nthreads);
        let qs = {
            let _span = pressio_obs::span("sz3:predict");
            if predictor == Predictor::Lorenzo {
                codec::lorenzo_quantize(values, dims, abs, round_f32, keep_reconstruction, symbols)
            } else {
                drop(symbols);
                codec::predict_and_quantize_par(
                    values, dims, abs, predictor, self.block, round_f32, nthreads,
                )
            }
        };
        let bytes = codec::assemble_par(dtype, dims, abs, predictor, self.block, &qs, nthreads);
        if pressio_obs::is_enabled() {
            pressio_obs::add_counter("sz3:compress.bytes_in", input.size_in_bytes() as i64);
            pressio_obs::add_counter("sz3:compress.bytes_out", bytes.len() as i64);
            pressio_obs::add_counter("sz3:elements", qs.symbols.len() as i64);
            pressio_obs::add_counter("sz3:escapes", qs.unpredictable.len() as i64);
        }
        Ok((bytes, qs.reconstruction))
    }

    /// Pick a predictor (the `"auto"` mode) as SZ3 picks among its modules:
    /// each candidate predicts and quantizes a centered sample, and
    /// [`QuantizedStream::estimated_bytes`] says from the symbol histogram
    /// what encoding it would come to. Nothing is encoded.
    ///
    /// A score is the whole buffer's bytes: the sample's symbols and side
    /// streams scaled by the buffer's elements over the sample's, plus the
    /// code-length table once, as a stream pays it. (Weighed like the
    /// symbols, Lorenzo's 17 462-entry table on `U` at 128×128×64, 1e-6, was
    /// 83 KB of a 147 KB sample estimate, and regression won on a sample 91 %
    /// escapes: 4.36 MB against Lorenzo's 2.31 MB, from 4.19 MB in.)
    ///
    /// Lorenzo's symbols are scored at their entropy, a challenger's at no less
    /// than a bit each: Huffman spends a bit on a symbol however likely, and
    /// what LZSS then makes of the runs no histogram shows. On sparse fields,
    /// where the estimate is blind in this way, a third of the sample leads
    /// (some of 60 %) came out up to 25 % larger on the whole buffer.
    ///
    /// On a chained stream's residual chunk (`memo` is `Some`) Lorenzo's
    /// estimate, which every buffer pays for, is also the drift test: the
    /// last scored choice is carried while the bound is the one it was
    /// scored at and Lorenzo's estimate per element is within that choice's
    /// winning margin of what it was then ([`Anchor`]). Otherwise every
    /// candidate is scored, and the result anchors the stream.
    ///
    /// The sample and Lorenzo's estimate, which every buffer pays for, are
    /// the `sz3:estimate` span; scoring the challengers, only where they are
    /// scored, is `sz3:select`.
    fn select_predictor<T: Widen>(
        &self,
        values: &[T],
        dims: &[usize],
        abs: f64,
        dtype: Dtype,
        memo: Option<&mut Memo>,
    ) -> Predictor {
        let estimate = pressio_obs::span("sz3:estimate");
        // the centre of the volume (edges are unrepresentative), at most 32
        // along each axis
        let shape: Vec<usize> = dims.iter().map(|&d| d.min(32)).collect();
        let origin: Vec<usize> = dims.iter().zip(&shape).map(|(d, s)| (d - s) / 2).collect();
        let mut sample = Vec::new();
        gather(values, dims, &origin, &shape, 1, T::widen, &mut sample);
        let round_f32 = dtype == Dtype::F32;
        let scale = values.len() as f64 / sample.len() as f64;
        let whole = |(symbols, side, table): (f64, f64, f64), at_least: f64| {
            (symbols.max(at_least) + side) * scale + table
        };
        let lorenzo = codec::lorenzo_quantize(&sample, &shape, abs, round_f32, false, Vec::new());
        let lorenzo = whole(lorenzo.estimated_bytes(dtype), 0.0);
        drop(estimate);
        let per_element = lorenzo / values.len() as f64;
        let floor = sample.len() as f64 / 8.0;
        // under the floor no challenger can score lower: Lorenzo's after one pass
        let scored = lorenzo * (1.0 - CHALLENGER_MARGIN) > floor * scale;
        // a below-floor chunk is Lorenzo's whatever its stream carries
        let anchor = memo.as_deref().and_then(Anchor::of).filter(|_| scored);
        if let Some(predictor) = anchor.and_then(|a| a.holds(abs, per_element)) {
            if pressio_obs::is_enabled() {
                pressio_obs::add_counter("sz3:auto.carried", 1);
            }
            return predictor;
        }
        let best = if scored {
            let _span = pressio_obs::span("sz3:select");
            // each candidate's score; Lorenzo's is what a challenger must beat
            let mut scores = [(Predictor::Lorenzo, lorenzo * (1.0 - CHALLENGER_MARGIN)); 4];
            let challengers = [Predictor::Regression, Predictor::Interp, Predictor::Hybrid];
            for (score, p) in scores[1..].iter_mut().zip(challengers) {
                let qs = codec::quantize_widened(&sample, &shape, abs, p, self.block, round_f32, 1);
                *score = (p, whole(qs.estimated_bytes(dtype), floor));
            }
            // a stable sort: the first of equals wins, Lorenzo, then the
            // challengers in turn
            scores.sort_by(|a, b| a.1.total_cmp(&b.1));
            let [(best, won_at), (_, runner_up), ..] = scores;
            if let Some(memo) = memo {
                *memo = Some(Box::new(Anchor {
                    predictor: best,
                    abs,
                    per_element,
                    slack: runner_up / won_at - 1.0,
                }));
            }
            best
        } else {
            Predictor::Lorenzo
        };
        if pressio_obs::is_enabled() {
            pressio_obs::add_counter(&format!("sz3:auto.{}", best.name()), 1);
        }
        best
    }
}

/// The share of Lorenzo's estimate a challenger has to undercut it by.
/// Lorenzo is the one predictor with the typed AVX2 sweep, 4–10× faster both
/// ways, and a lead inside the sample's noise is not a lead: on 1 MiB `U`
/// (benchmark seed 6) `hybrid` was 9 bytes ahead on the sample, 67 097 to
/// 67 106, and the whole buffer came out 167 bytes *larger* and 5.8× slower.
const CHALLENGER_MARGIN: f64 = 0.02;

/// The choice `auto` last scored on a chained stream's residual chunk,
/// kept in the stream's [`Memo`] (never in the compressor, which stays
/// stateless) for the residual chunks after it.
///
/// It is carried while a chunk is coded at the same bound and Lorenzo's
/// estimate per element has moved by no more than `slack`, the relative
/// margin the choice won by: the runner-up's score over the winner's, less
/// one, where Lorenzo's score is its [`CHALLENGER_MARGIN`] threshold. A
/// choice that won narrowly is re-made on a small drift, one that won
/// widely rides out a larger one, and no constant is added. A stream's raw
/// first chunk never anchors: a field and its residuals between timesteps
/// are different data. Anchored on the raw chunk, `P` at 16×16×8 and 1e-2
/// carried the field's Lorenzo into residuals per-chunk selection codes
/// with `interp`, 6.3 % larger.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Anchor {
    predictor: Predictor,
    abs: f64,
    /// Lorenzo's whole-buffer estimate over the buffer's elements.
    per_element: f64,
    slack: f64,
}

impl Anchor {
    fn of(memo: &Memo) -> Option<Anchor> {
        memo.as_ref()?.downcast_ref().copied()
    }

    /// The anchored predictor, if a chunk at `abs` whose Lorenzo estimate
    /// per element is `per_element` has not drifted from the anchor.
    fn holds(self, abs: f64, per_element: f64) -> Option<Predictor> {
        let drift = (per_element - self.per_element).abs();
        (abs == self.abs && drift <= self.slack * self.per_element).then_some(self.predictor)
    }
}

impl Compressor for SzCompressor {
    fn id(&self) -> &'static str {
        "sz3"
    }

    fn set_options(&mut self, opts: &Options) -> Result<()> {
        self.bound.set_options(opts)?;
        if let Some(p) = opts.get_str_opt("sz3:predictor")? {
            if p != "auto" {
                Predictor::parse(p)?; // validate eagerly
            }
            self.predictor = p.to_string();
        }
        if let Some(b) = opts.get_u64_opt("sz3:block_size")? {
            if !(2..=64).contains(&b) {
                return Err(Error::InvalidValue {
                    key: "sz3:block_size".into(),
                    reason: "block size must be in 2..=64".into(),
                });
            }
            self.block = b as usize;
        }
        if let Some(n) = opts.get_u64_opt("pressio:nthreads")? {
            self.nthreads = if n == 0 { None } else { Some(n as usize) };
        }
        Ok(())
    }

    fn get_options(&self) -> Options {
        self.error_settings()
            .with("sz3:predictor", self.predictor.as_str())
            .with("sz3:block_size", self.block as u64)
            .with("pressio:nthreads", self.nthreads.unwrap_or(0) as u64)
    }

    fn error_settings(&self) -> Options {
        self.bound.options()
    }

    fn get_configuration(&self) -> Options {
        Options::new()
            .with("pressio:thread_safe", true)
            .with("pressio:stability", "stable")
            .with("pressio:dtypes", vec!["f32".to_string(), "f64".to_string()])
            // settings that change the error behaviour — consumed by the
            // invalidation tracker in pressio-predict
            .with(
                "predictors:error_dependent_settings",
                ErrorBound::KEYS.map(String::from).to_vec(),
            )
            .with(
                "predictors:runtime_settings",
                vec!["sz3:predictor".to_string(), "sz3:block_size".to_string()],
            )
            .with(
                "predictors:invalidate",
                vec![invalidations::ERROR_DEPENDENT.to_string()],
            )
    }

    fn compress(&self, input: &Data) -> Result<Vec<u8>> {
        self.encode(input, false, None).map(|(bytes, ..)| bytes)
    }

    /// The provided method's result without its decode: the decoded chunk
    /// is the reconstruction the quantizer already holds, narrowed as the
    /// decoder narrows it — bit for bit what `decompress` of the bytes
    /// returns. A chained stream's residual chunks carry `auto`'s choice in
    /// the carry's memo; every chunk's stream is byte for byte the one
    /// `sz3:predictor=<its tag>` gives for the same payload.
    fn encode_chunk(&self, chunk: &Data, carry: Option<&mut Carry>) -> Result<(Vec<u8>, Data)> {
        chunking::encode_chunk_with(chunk, carry, |payload, memo| {
            let (bytes, reconstruction) = self.encode(payload, true, memo)?;
            let decoded = codec::decoded_buffer(payload.dtype(), payload.dims(), reconstruction);
            Ok((bytes, decoded))
        })
    }

    fn decompress(&self, compressed: &[u8], dtype: Dtype, dims: &[usize]) -> Result<Data> {
        let _span = pressio_obs::span("sz3:decompress");
        if pressio_obs::is_enabled() {
            pressio_obs::add_counter("sz3:decompress.bytes_in", compressed.len() as i64);
        }
        let nthreads = pressio_core::threads::resolve(self.nthreads);
        codec::decompress(compressed, dtype, dims, nthreads)
    }

    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_3d(nx: usize, ny: usize, nz: usize) -> Data {
        let values: Vec<f32> = (0..nx * ny * nz)
            .map(|i| {
                let x = (i % nx) as f32;
                let y = ((i / nx) % ny) as f32;
                let z = (i / (nx * ny)) as f32;
                (x * 0.1).sin() * (y * 0.07).cos() + 0.01 * z
            })
            .collect();
        Data::from_f32(vec![nx, ny, nz], values)
    }

    /// The parent's selection, kept as the measure of the estimate: encode
    /// the sample with each candidate and keep the smallest stream.
    fn select_by_trial(values: &[f32], dims: &[usize], abs: f64) -> Predictor {
        let block = regression::DEFAULT_BLOCK;
        let shape: Vec<usize> = dims.iter().map(|&d| d.min(32)).collect();
        let origin: Vec<usize> = dims.iter().zip(&shape).map(|(d, s)| (d - s) / 2).collect();
        let mut sample = Vec::new();
        gather(values, dims, &origin, &shape, 1, |v| v as f64, &mut sample);
        let dims = shape;
        let encoded = |predictor| {
            let qs =
                codec::predict_and_quantize_par(&sample, &dims, abs, predictor, block, true, 1);
            codec::assemble_par(Dtype::F32, &dims, abs, predictor, block, &qs, 1).len()
        };
        // `min_by_key` keeps the first of equals, as the parent's `<` did
        [
            Predictor::Lorenzo,
            Predictor::Regression,
            Predictor::Interp,
            Predictor::Hybrid,
        ]
        .into_iter()
        .min_by_key(|&predictor| encoded(predictor))
        .unwrap()
    }

    fn fixed(predictor: Predictor, abs: f64) -> SzCompressor {
        let mut sz = SzCompressor::new();
        sz.set_options(
            &Options::new()
                .with("pressio:abs", abs)
                .with("sz3:predictor", predictor.name()),
        )
        .unwrap();
        sz
    }

    /// The estimate's choice against the exhaustive trial's on every field,
    /// four shapes (the third a chunk of a chained stream: the step between
    /// two timesteps, rank 4) and three bounds. A disagreement is printed
    /// with what it costs on the *whole* buffer, negative where the estimate
    /// chose better. Debug builds stop at 32x32x16, so the rank-4 shape, the
    /// clause on buffers of 1 MiB and more, and a total regret of at most
    /// nothing are checked in release only (ci.yml's release step,
    /// `--nocapture`); tier-1 checks the regret on the small shapes.
    #[test]
    fn the_estimate_chooses_as_the_trial_encode_does_or_costs_little() {
        use pressio_dataset::hurricane::{Hurricane, FIELDS};
        let mut shapes: Vec<&[usize]> = vec![&[16, 16, 8], &[32, 32, 16]];
        if !cfg!(debug_assertions) {
            shapes.extend([&[64, 64, 16, 1][..], &[64, 64, 64]]);
        }
        let (mut cases, mut differ, mut left_lorenzo) = (0, 0, 0);
        let (mut regret, mut total) = (0i64, 0i64);
        for dims in shapes {
            let source = Hurricane::with_dims(dims[0], dims[1], dims[2], 2);
            for name in FIELDS {
                let mut values = source.generate(name, 1).as_f32().unwrap().to_vec();
                if dims.len() == 4 {
                    let before = source.generate(name, 0);
                    for (v, b) in values.iter_mut().zip(before.as_f32().unwrap()) {
                        *v -= b;
                    }
                }
                let data = Data::from_f32(dims.to_vec(), values);
                let values = data.as_f32().unwrap();
                for abs in [1e-6, 1e-4, 1e-2] {
                    let trial = select_by_trial(values, dims, abs);
                    let estimate =
                        SzCompressor::new().select_predictor(values, dims, abs, Dtype::F32, None);
                    let whole = |p| fixed(p, abs).compress(&data).unwrap().len() as i64;
                    let trial_bytes = whole(trial);
                    cases += 1;
                    total += trial_bytes;
                    if estimate == trial {
                        continue;
                    }
                    let cost = whole(estimate) - trial_bytes;
                    differ += 1;
                    regret += cost;
                    if data.size_in_bytes() >= 1 << 20 && trial == Predictor::Lorenzo {
                        left_lorenzo += 1;
                    }
                    println!(
                        "{name}{dims:?} {abs:e}: trial {}, estimate {}, {cost:+} B of {trial_bytes}",
                        trial.name(),
                        estimate.name()
                    );
                }
            }
        }
        println!(
            "{differ} of {cases} choices differ: {regret:+} B of {total} B ({:+.3} %)",
            regret as f64 * 100.0 / total as f64
        );
        assert!(regret * 200 <= total, "regret {regret} B of {total} B");
        assert!(cfg!(debug_assertions) || regret <= 0, "regret {regret} B");
        assert_eq!(
            left_lorenzo, 0,
            "the estimate left Lorenzo where the trial kept it on a buffer of 1 MiB or more"
        );
    }

    /// Where weighing the code-length table like the symbols once handed
    /// the choice to regression, whose output came out larger than the input
    /// (4 358 965 B from 4 194 304 B on `U`, against Lorenzo's 2 309 693 B).
    #[test]
    fn auto_keeps_lorenzo_on_u_and_v_at_128x128x64_and_1e_6() {
        use pressio_dataset::hurricane::Hurricane;
        let source = Hurricane::with_dims(128, 128, 64, 2);
        for field in ["U", "V"] {
            let data = source.generate(field, 1);
            let values = data.as_f32().unwrap();
            let pick =
                SzCompressor::new().select_predictor(values, data.dims(), 1e-6, Dtype::F32, None);
            assert_eq!(pick, Predictor::Lorenzo, "{field}");
        }
    }

    /// `name`'s first `timesteps` timesteps of `source`, stacked on an outer
    /// axis.
    fn stack(source: &pressio_dataset::hurricane::Hurricane, name: &str, timesteps: usize) -> Data {
        let values = (0..timesteps)
            .flat_map(|t| source.generate(name, t).as_f32().unwrap().to_vec())
            .collect();
        let mut dims = source.dims();
        dims.push(timesteps);
        Data::from_f32(dims, values)
    }

    /// One chunk of a chained stream: its bytes, and whether `auto` scored
    /// every candidate for it.
    struct Chunk {
        bytes: Vec<u8>,
        scored: bool,
    }

    impl Chunk {
        /// The predictor the chunk's stream names (parsed when asked, so a
        /// timed write does not decode).
        fn predictor(&self) -> Predictor {
            codec::parse_par(&self.bytes, 1).unwrap().predictor
        }
    }

    /// `data` as a chained stream of `chunk_outer`-slice chunks, each
    /// through `encode_chunk`'s path. `carried` false forgets the memo
    /// before every chunk: the per-chunk twin, which scores every residual.
    fn chained(sz: &SzCompressor, data: &Data, chunk_outer: usize, carried: bool) -> Vec<Chunk> {
        let outer = *data.dims().last().unwrap();
        let mut carry = Carry::default();
        let mut chunks = Vec::new();
        for (start, count) in chunking::OuterChunks::new(outer, chunk_outer).unwrap() {
            let chunk = chunking::slice_outer(data, start, count).unwrap();
            if !carried {
                carry.memo = None;
            }
            let mut scored = false;
            let (bytes, decoded) =
                chunking::encode_chunk_with(&chunk, Some(&mut carry), |payload, memo| {
                    // a raw chunk, offered no memo, is chosen for on one of
                    // its own, dropped after: its bytes are the same
                    let mut own: Memo = None;
                    let memo = memo.unwrap_or(&mut own);
                    let before = Anchor::of(memo);
                    let (bytes, reconstruction) = sz.encode(payload, true, Some(&mut *memo))?;
                    // a full scoring always anchors anew; a carried or
                    // below-floor chunk leaves the anchor as it was
                    scored = Anchor::of(memo) != before;
                    let decoded =
                        codec::decoded_buffer(payload.dtype(), payload.dims(), reconstruction);
                    Ok((bytes, decoded))
                })
                .unwrap();
            carry.slice = Some(chunking::last_outer_slice(&decoded).unwrap());
            chunks.push(Chunk { bytes, scored });
        }
        chunks
    }

    /// A chained stream's tags, one letter a chunk: upper case where the
    /// chunk was scored in full (`Lorenzo` → `L`), lower case where its
    /// choice was carried or its estimate was under the floor (`l`).
    fn tags(chunks: &[Chunk]) -> String {
        let letter = |c: &Chunk| {
            let first = &c.predictor().name()[..1];
            if c.scored {
                first.to_uppercase()
            } else {
                first.to_string()
            }
        };
        chunks.iter().map(letter).collect()
    }

    /// A chained stream carries `auto`'s choice across its residual chunks
    /// and re-scores only on drift. Held against the per-chunk twin (the
    /// same chunks, no memo) over every field, three chunk shapes, three
    /// bounds, one outer slice a chunk and three (the last ragged): the
    /// bytes stay within 0.05 % in total and 0.5 % on any one stream (a
    /// raw first chunk that anchored grew `P` at 16×16×8 and 1e-2 by 6.3 %),
    /// at most 30 % of the chunks are scored, and no stream of 64×64×16
    /// chunks changes a choice. Each stream whose
    /// choices changed is printed with both tag sequences and its byte
    /// delta. Debug builds run the smallest shape (unoptimized, 32×32×16
    /// alone takes over a minute); release runs all three (ci.yml's release
    /// step and parity leg, `--nocapture`).
    #[test]
    fn a_carried_choice_costs_little_against_choosing_every_chunk() {
        use pressio_dataset::hurricane::{Hurricane, FIELDS};
        // one raw chunk, then twelve timesteps of residuals
        const TIMESTEPS: usize = 13;
        let mut shapes = vec![[16, 16, 8]];
        if !cfg!(debug_assertions) {
            shapes.extend([[32, 32, 16], [64, 64, 16]]);
        }
        let (mut chunks, mut scored, mut twin_scored, mut changed) = (0, 0, 0, 0);
        let (mut bytes, mut twin_bytes) = (0i64, 0i64);
        for [nx, ny, nz] in shapes {
            let source = Hurricane::with_dims(nx, ny, nz, TIMESTEPS);
            for name in FIELDS {
                let data = stack(&source, name, TIMESTEPS);
                for abs in [1e-6, 1e-4, 1e-2] {
                    let mut sz = SzCompressor::new();
                    sz.set_options(&Options::new().with("pressio:abs", abs))
                        .unwrap();
                    for chunk_outer in [1, 3] {
                        let carried = chained(&sz, &data, chunk_outer, true);
                        let twin = chained(&sz, &data, chunk_outer, false);
                        let total =
                            |s: &[Chunk]| s.iter().map(|c| c.bytes.len() as i64).sum::<i64>();
                        let is_scored = |c: &&Chunk| c.scored;
                        chunks += carried.len();
                        scored += carried.iter().filter(is_scored).count();
                        twin_scored += twin.iter().filter(is_scored).count();
                        bytes += total(&carried);
                        twin_bytes += total(&twin);
                        let same = carried
                            .iter()
                            .zip(&twin)
                            .all(|(a, b)| a.predictor() == b.predictor());
                        if same {
                            continue;
                        }
                        changed += 1;
                        let cost = total(&carried) - total(&twin);
                        println!(
                            "{name}[{nx}, {ny}, {nz}] {abs:e} chunk_outer={chunk_outer}: \
                             per chunk {}, carried {}, {cost:+} B of {}",
                            tags(&twin),
                            tags(&carried),
                            total(&twin)
                        );
                        assert!(nx < 64, "a 64x64x16 stream changed its choices");
                        assert!(cost * 200 <= total(&twin), "a stream grew {cost} B");
                    }
                }
            }
        }
        println!(
            "{changed} streams changed a choice; {scored} of {chunks} chunks scored \
             ({twin_scored} per chunk); {:+} B of {twin_bytes} B ({:+.4} %)",
            bytes - twin_bytes,
            (bytes - twin_bytes) as f64 * 100.0 / twin_bytes as f64
        );
        assert!(
            (bytes - twin_bytes) * 2000 <= twin_bytes,
            "{bytes} B against {twin_bytes} B"
        );
        assert!(
            scored * 10 <= chunks * 3,
            "{scored} of {chunks} chunks scored"
        );
    }

    /// EXPERIMENTS' selection table: what `auto` spends choosing, by the
    /// parent's trial encode and by the estimate, beside the Lorenzo
    /// compression it chooses for these two fields. Fastest of 5.
    ///
    /// `cargo test --release -p pressio-sz --lib auto_costs -- --ignored --nocapture`
    #[test]
    #[ignore = "a measurement, not a check: prints the selection table"]
    fn auto_costs() {
        use pressio_dataset::hurricane::Hurricane;
        use std::hint::black_box;
        fn fastest_ms(mut pass: impl FnMut()) -> f64 {
            let ms = (0..5).map(|_| {
                let start = std::time::Instant::now();
                pass();
                start.elapsed().as_secs_f64() * 1e3
            });
            ms.fold(f64::INFINITY, f64::min)
        }
        println!("ms, fastest of 5, abs = 1e-4");
        println!("| field | shape | trial | estimate | lorenzo compress | estimate / compress |");
        println!("|---|---|---|---|---|---|");
        for field in ["P", "PRECIP"] {
            for [nx, ny, nz] in [
                [16, 16, 8],
                [32, 32, 16],
                [64, 64, 16],
                [64, 64, 64],
                [128, 128, 256],
            ] {
                let data = Hurricane::with_dims(nx, ny, nz, 1).generate(field, 0);
                let (values, dims) = (data.as_f32().unwrap(), data.dims());
                let sz = fixed(Predictor::Lorenzo, 1e-4);
                let trial = fastest_ms(|| {
                    black_box(select_by_trial(values, dims, 1e-4));
                });
                let estimate = fastest_ms(|| {
                    black_box(sz.select_predictor(values, dims, 1e-4, Dtype::F32, None));
                });
                let compress = fastest_ms(|| {
                    black_box(sz.compress(&data).unwrap());
                });
                println!(
                    "| {field} | {nx}x{ny}x{nz} | {trial:.3} | {estimate:.3} | {compress:.3} | {:.2} |",
                    estimate / compress
                );
            }
        }

        // `stream_sz3_256k`'s stacks: 32 timesteps of 64x64x16, one a chunk,
        // chained, with the choice made per chunk (the twin) and carried
        println!("\nchained 64x64x16x32 stacks, abs = 1e-4; ms per stack, fastest of 5");
        println!("| field | choice | full selections | selection ms | write ms |");
        println!("|---|---|---|---|---|");
        let source = Hurricane::with_dims(64, 64, 16, 32);
        let mut sz = SzCompressor::new();
        sz.set_options(&Options::new().with("pressio:abs", 1e-4))
            .unwrap();
        for field in ["P", "PRECIP"] {
            let data = stack(&source, field, 32);
            for (form, carried) in [("per chunk", false), ("carried", true)] {
                let chunks = chained(&sz, &data, 1, carried);
                let scored = chunks.iter().filter(|c| c.scored).count();
                // each chunk's choice alone, on a copy of the memo it met
                let mut selection = 0.0;
                let mut carry = Carry::default();
                for t in 0..chunks.len() {
                    let chunk = chunking::slice_outer(&data, t, 1).unwrap();
                    if !carried {
                        carry.memo = None;
                    }
                    let (_, decoded) =
                        chunking::encode_chunk_with(&chunk, Some(&mut carry), |payload, memo| {
                            let (values, dims) = (payload.as_f32()?, payload.dims());
                            // `None` for a raw chunk, `Some(None)` before an anchor
                            let met = memo.as_deref().map(Anchor::of);
                            selection += fastest_ms(|| {
                                let mut copy: Option<Memo> =
                                    met.map(|anchor| anchor.map(|a| Box::new(a) as _));
                                let copy = copy.as_mut();
                                black_box(sz.select_predictor(
                                    values,
                                    dims,
                                    1e-4,
                                    Dtype::F32,
                                    copy,
                                ));
                            });
                            let (bytes, reconstruction) = sz.encode(payload, true, memo)?;
                            let decoded = codec::decoded_buffer(Dtype::F32, dims, reconstruction);
                            Ok((bytes, decoded))
                        })
                        .unwrap();
                    carry.slice = Some(chunking::last_outer_slice(&decoded).unwrap());
                }
                let write = fastest_ms(|| {
                    black_box(chained(&sz, &data, 1, carried));
                });
                println!("| {field} | {form} | {scored} | {selection:.1} | {write:.1} |");
            }
        }
    }

    #[test]
    fn round_trip_auto_respects_bound() {
        let data = field_3d(20, 18, 6);
        let mut sz = SzCompressor::new();
        for eb in [1e-2f64, 1e-4] {
            sz.set_options(&Options::new().with("pressio:abs", eb))
                .unwrap();
            let c = sz.compress(&data).unwrap();
            let out = sz.decompress(&c, Dtype::F32, data.dims()).unwrap();
            for (a, b) in data.as_f32().unwrap().iter().zip(out.as_f32().unwrap()) {
                assert!(((a - b).abs() as f64) <= eb, "eb={eb}");
            }
        }
    }

    #[test]
    fn looser_bound_compresses_more() {
        let data = field_3d(32, 32, 8);
        let mut sz = SzCompressor::new();
        sz.set_options(&Options::new().with("pressio:abs", 1e-6))
            .unwrap();
        let tight = sz.compress(&data).unwrap().len();
        sz.set_options(&Options::new().with("pressio:abs", 1e-2))
            .unwrap();
        let loose = sz.compress(&data).unwrap().len();
        assert!(
            loose < tight,
            "loose bound ({loose}) should beat tight bound ({tight})"
        );
    }

    #[test]
    fn all_fixed_predictors_round_trip() {
        let data = field_3d(16, 12, 4);
        for pred in ["lorenzo", "regression", "interp"] {
            let mut sz = SzCompressor::new();
            sz.set_options(
                &Options::new()
                    .with("pressio:abs", 1e-3)
                    .with("sz3:predictor", pred),
            )
            .unwrap();
            let c = sz.compress(&data).unwrap();
            let out = sz.decompress(&c, Dtype::F32, data.dims()).unwrap();
            for (a, b) in data.as_f32().unwrap().iter().zip(out.as_f32().unwrap()) {
                assert!(((a - b).abs() as f64) <= 1e-3, "{pred}");
            }
        }
    }

    #[test]
    fn sparse_field_compresses_hard() {
        // 95% exact zeros, like a precipitation field
        let n = 64 * 64;
        let values: Vec<f32> = (0..n)
            .map(|i| if i % 97 == 0 { (i as f32).sin() } else { 0.0 })
            .collect();
        let data = Data::from_f32(vec![64, 64], values);
        let sz = SzCompressor::new();
        let c = sz.compress(&data).unwrap();
        let ratio = data.size_in_bytes() as f64 / c.len() as f64;
        assert!(ratio > 10.0, "sparse ratio only {ratio:.1}");
    }

    #[test]
    fn rejects_bad_options() {
        let mut sz = SzCompressor::new();
        assert!(sz
            .set_options(&Options::new().with("pressio:abs", -1.0))
            .is_err());
        assert!(sz
            .set_options(&Options::new().with("sz3:predictor", "quantum"))
            .is_err());
        assert!(sz
            .set_options(&Options::new().with("sz3:block_size", 1u64))
            .is_err());
    }

    #[test]
    fn rejects_wrong_dtype_and_dims_on_decompress() {
        let data = field_3d(8, 8, 2);
        let sz = SzCompressor::new();
        let c = sz.compress(&data).unwrap();
        assert!(sz.decompress(&c, Dtype::F64, data.dims()).is_err());
        assert!(sz.decompress(&c, Dtype::F32, &[8, 8, 3]).is_err());
    }

    #[test]
    fn rejects_integer_input() {
        let data = Data::from_i32(vec![4], vec![1, 2, 3, 4]);
        let sz = SzCompressor::new();
        assert!(sz.compress(&data).is_err());
    }

    #[test]
    fn f64_input_round_trips() {
        let values: Vec<f64> = (0..500).map(|i| (i as f64 * 0.01).exp().sin()).collect();
        let data = Data::from_f64(vec![500], values.clone());
        let mut sz = SzCompressor::new();
        sz.set_options(&Options::new().with("pressio:abs", 1e-7))
            .unwrap();
        let c = sz.compress(&data).unwrap();
        let out = sz.decompress(&c, Dtype::F64, &[500]).unwrap();
        for (a, b) in values.iter().zip(out.as_f64().unwrap()) {
            assert!((a - b).abs() <= 1e-7);
        }
    }

    #[test]
    fn options_round_trip() {
        let mut sz = SzCompressor::new();
        sz.set_options(
            &Options::new()
                .with("pressio:abs", 0.5)
                .with("sz3:predictor", "interp")
                .with("sz3:block_size", 8u64),
        )
        .unwrap();
        let o = sz.get_options();
        assert_eq!(o.get_f64("pressio:abs").unwrap(), 0.5);
        assert_eq!(o.get_str("sz3:predictor").unwrap(), "interp");
        assert_eq!(o.get_u64("sz3:block_size").unwrap(), 8);
    }

    #[test]
    fn relative_bound_scales_with_value_range() {
        // same signal at two amplitudes: a rel bound must scale the
        // effective abs bound with the range (paper footnote 6)
        let small: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.01).sin()).collect();
        let large: Vec<f32> = small.iter().map(|v| v * 1000.0).collect();
        let mut sz = SzCompressor::new();
        sz.set_options(&Options::new().with("pressio:rel", 1e-4))
            .unwrap();
        for (values, range) in [(small, 2.0f64), (large, 2000.0)] {
            let data = Data::from_f32(vec![32, 32], values.clone());
            let c = sz.compress(&data).unwrap();
            let out = sz.decompress(&c, Dtype::F32, &[32, 32]).unwrap();
            let bound = 1e-4 * range * 1.01; // range here is approximate
            for (a, b) in values.iter().zip(out.as_f32().unwrap()) {
                assert!(((a - b).abs() as f64) <= bound, "range={range}");
            }
        }
        // clearing returns to the absolute bound
        sz.set_options(&Options::new().with("pressio:rel", 0.0))
            .unwrap();
        assert_eq!(sz.get_options().get_f64("pressio:rel").unwrap(), 0.0);
        // invalid values rejected
        assert!(sz
            .set_options(&Options::new().with("pressio:rel", -1.0))
            .is_err());
    }

    #[test]
    fn configuration_lists_invalidations() {
        let cfg = SzCompressor::new().get_configuration();
        let deps = cfg
            .get_str_slice("predictors:error_dependent_settings")
            .unwrap();
        assert!(deps.contains(&"pressio:abs".to_string()));
    }
}
