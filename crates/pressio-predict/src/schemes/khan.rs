//! `khan2023` — SECRE (Khan 2023): surrogate-based error-controlled ratio
//! estimation. Models the *stages* of the compressor like Jin, but couples
//! the stage surrogates with tight block sampling so the whole estimate
//! costs a few percent of a real compression (Table 2: ~5 ms vs 322 ms).
//! Gray-box: uses compressor internals for both SZ and ZFP.

use crate::features::{origins, sz_quantize, FeaturePass};
use crate::predictor::{IdentityPredictor, Predictor};
use crate::scheme::{Scheme, SchemeInfo};
use pressio_core::error::Result;
use pressio_core::{with_elements, Blocks, Compressor, Options};
use pressio_lossless::huffman::{histogram, Codebook};
use pressio_lossless::BitWriter;
use pressio_sz::Predictor as SzPredictor;
use pressio_zfp::block::{Mode, Plan, MAX_BLOCK};
use pressio_zfp::{collapse_dims, read_block};

/// The Khan (2023) SECRE scheme.
#[derive(Default)]
pub struct KhanScheme;

/// The SZ surrogate's blocks.
const SZ_BLOCKS: Blocks<'static> = Blocks {
    shape: &[12],
    count: 12,
    seed: 0x5EC2E,
    align: 1,
};

/// The ZFP surrogate's: the codec's own aligned 4^d blocks.
const ZFP_BLOCKS: Blocks<'static> = Blocks {
    shape: &[4],
    align: 4,
    ..SZ_BLOCKS
};

impl KhanScheme {
    /// SZ surrogate: quantize sampled blocks (stage 1–2), model the encoder
    /// (stage 3) by Huffman expected code length of the pooled histogram.
    fn estimate_sz(&self, pass: &FeaturePass<'_>, abs: f64) -> f64 {
        let data = pass.data();
        let sampled: usize = SZ_BLOCKS.block(data.dims()).iter().product();
        // a field the blocks would cover is its own sample, read once: twelve
        // 12³ blocks of a 24×24×12 field quantized it three times over
        let blocks = (SZ_BLOCKS.count * sampled < data.num_elements()).then_some(&SZ_BLOCKS);
        sz_ratio(pass, blocks, abs)
    }

    /// ZFP surrogate: run the real per-block coder on a sample of aligned
    /// 4^d blocks, read as the codec reads them, and extrapolate bits/value
    /// to the whole volume.
    fn estimate_zfp(&self, pass: &FeaturePass<'_>, abs: f64) -> f64 {
        let data = pass.data();
        let nd = collapse_dims(data.dims());
        let d = nd.len();
        // each block fits inside the collapsed volume (an axis under 4 is
        // taken whole), so the codec's edge replication pads only past it
        let origins = origins(&ZFP_BLOCKS, &nd, &ZFP_BLOCKS.block(&nd));
        // one plan, one stack block and one writer for every sample: what
        // the blocks cost is the writer's final length
        let plan = Plan::new(Mode::Accuracy(abs), d);
        let mut block = [0.0; MAX_BLOCK];
        let mut w = BitWriter::new();
        for origin in &origins {
            with_elements!(data.elements(), v => read_block(v, data.dims(), origin, &mut block));
            plan.encode(&block, &mut w);
        }
        let bits = w.len_bits();
        let block_elems = 1usize << (2 * d);
        let bits_per_value = bits as f64 / (origins.len() * block_elems).max(1) as f64;
        let n = data.num_elements() as f64;
        let size = n * bits_per_value / 8.0 + 96.0;
        data.size_in_bytes() as f64 / size.max(1.0)
    }
}

/// The SZ surrogate's ratio from the stage run over `blocks`, or over the
/// whole buffer for `None`.
fn sz_ratio(pass: &FeaturePass<'_>, blocks: Option<&Blocks<'_>>, abs: f64) -> f64 {
    let data = pass.data();
    let (symbols, escapes) = sz_quantize(pass, blocks, abs, SzPredictor::Lorenzo);
    let freqs = histogram(&symbols);
    let book = Codebook::from_frequencies(&freqs);
    let bits_per_symbol = book.expected_code_length(&freqs);
    let n = data.num_elements() as f64;
    let unpred_frac = escapes as f64 / symbols.len().max(1) as f64;
    let size = n * bits_per_symbol / 8.0
        + n * unpred_frac * data.dtype().size() as f64
        + freqs.len() as f64 * 38.0 / 8.0
        + 76.0;
    data.size_in_bytes() as f64 / size.max(1.0)
}

impl Scheme for KhanScheme {
    fn info(&self) -> SchemeInfo {
        SchemeInfo {
            name: "khan2023",
            citation: "Khan 2023",
            training: false,
            sampling: true,
            black_box: "no",
            goal: "fast",
            metrics: "CR",
            approach: "calculation",
            features: "",
        }
    }

    fn supports(&self, compressor_id: &str) -> bool {
        matches!(compressor_id, "sz3" | "zfp")
    }

    fn error_agnostic_from(&self, _pass: &FeaturePass<'_>) -> Result<Options> {
        Ok(Options::new())
    }

    fn error_dependent_from(
        &self,
        pass: &FeaturePass<'_>,
        compressor: &dyn Compressor,
    ) -> Result<Options> {
        let abs = pass.abs_bound(compressor)?;
        let ratio = match compressor.id() {
            "sz3" => self.estimate_sz(pass, abs),
            "zfp" => self.estimate_zfp(pass, abs),
            other => {
                return Err(pressio_core::Error::Unsupported(format!(
                    "khan2023 models sz3/zfp, not '{other}'"
                )))
            }
        };
        Ok(Options::new().with("khan:predicted_ratio", ratio))
    }

    fn make_predictor(&self) -> Box<dyn Predictor> {
        Box::new(IdentityPredictor::new("khan:predicted_ratio"))
    }

    fn feature_keys(&self) -> Vec<String> {
        vec!["khan:predicted_ratio".to_string()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_core::Data;
    use pressio_core::Options as Opts;
    use pressio_sz::SzCompressor;
    use pressio_zfp::ZfpCompressor;
    use std::time::Instant;

    fn smooth(n: usize, nz: usize) -> Data {
        Data::from_f32(
            vec![n, n, nz],
            (0..n * n * nz)
                .map(|i| {
                    let x = (i % n) as f32;
                    let y = ((i / n) % n) as f32;
                    (x * 0.08).sin() * (y * 0.06).cos()
                })
                .collect(),
        )
    }

    #[test]
    fn sz_estimate_within_factor_two_on_smooth_data() {
        let data = smooth(48, 8);
        let mut sz = SzCompressor::new();
        sz.set_options(
            &Opts::new()
                .with("pressio:abs", 1e-4)
                .with("sz3:predictor", "lorenzo"),
        )
        .unwrap();
        let scheme = KhanScheme;
        let pred = scheme
            .error_dependent_features(&data, &sz)
            .unwrap()
            .get_f64("khan:predicted_ratio")
            .unwrap();
        let truth = data.size_in_bytes() as f64 / sz.compress(&data).unwrap().len() as f64;
        assert!(
            pred > truth / 2.0 && pred < truth * 2.0,
            "pred {pred} vs truth {truth}"
        );
    }

    #[test]
    fn zfp_estimate_within_factor_two() {
        let data = smooth(48, 8);
        let mut zfp = ZfpCompressor::new();
        zfp.set_options(&Opts::new().with("pressio:abs", 1e-4))
            .unwrap();
        let scheme = KhanScheme;
        let pred = scheme
            .error_dependent_features(&data, &zfp)
            .unwrap()
            .get_f64("khan:predicted_ratio")
            .unwrap();
        let truth = data.size_in_bytes() as f64 / zfp.compress(&data).unwrap().len() as f64;
        assert!(
            pred > truth / 2.0 && pred < truth * 2.0,
            "pred {pred} vs truth {truth}"
        );
    }

    #[test]
    fn estimation_is_much_faster_than_compression() {
        let data = smooth(96, 32);
        let sz = SzCompressor::new();
        let scheme = KhanScheme;
        let t0 = Instant::now();
        let _ = scheme.error_dependent_features(&data, &sz).unwrap();
        let est = t0.elapsed();
        let t0 = Instant::now();
        let _ = sz.compress(&data).unwrap();
        let comp = t0.elapsed();
        assert!(
            est.as_secs_f64() < comp.as_secs_f64() / 2.0,
            "estimate {est:?} not ≪ compress {comp:?}"
        );
    }

    /// A field its twelve blocks would cover is quantized once, whole, and
    /// not three times over in offset windows.
    #[test]
    fn a_field_smaller_than_the_sample_is_read_once() {
        let sz = SzCompressor::new();
        let ratio = |data: &Data| {
            let features = KhanScheme.error_dependent_features(data, &sz).unwrap();
            let pass = FeaturePass::new(data);
            let whole = sz_ratio(&pass, None, pass.abs_bound(&sz).unwrap());
            (features.get_f64("khan:predicted_ratio").unwrap(), whole)
        };
        let (sampled, whole) = ratio(&smooth(24, 12));
        assert_eq!(sampled, whole);
        // and a field larger than the sample is still sampled
        let (sampled, whole) = ratio(&smooth(48, 24));
        assert_ne!(sampled, whole);
    }

    #[test]
    fn unsupported_compressor_errors() {
        struct Fake;
        impl Compressor for Fake {
            fn id(&self) -> &'static str {
                "fake"
            }
            fn set_options(&mut self, _: &Options) -> Result<()> {
                Ok(())
            }
            fn get_options(&self) -> Options {
                Options::new().with("pressio:abs", 1e-3)
            }
            fn get_configuration(&self) -> Options {
                Options::new()
            }
            fn compress(&self, _: &Data) -> Result<Vec<u8>> {
                Ok(vec![])
            }
            fn decompress(&self, _: &[u8], _: pressio_core::Dtype, _: &[usize]) -> Result<Data> {
                unimplemented!()
            }
            fn clone_box(&self) -> Box<dyn Compressor> {
                Box::new(Fake)
            }
        }
        let scheme = KhanScheme;
        assert!(!scheme.supports("fake"));
        assert!(scheme
            .error_dependent_features(&smooth(8, 4), &Fake)
            .is_err());
    }

    #[test]
    fn tiny_data_does_not_panic() {
        let data = Data::from_f32(vec![3, 2], vec![1.0; 6]);
        let sz = SzCompressor::new();
        let zfp = ZfpCompressor::new();
        let scheme = KhanScheme;
        assert!(scheme.error_dependent_features(&data, &sz).is_ok());
        assert!(scheme.error_dependent_features(&data, &zfp).is_ok());
    }
}
