//! `jin2022` — the ratio-quality analytic model (Jin 2022, ICDE): run the
//! cheap prediction + quantization stages of the SZ pipeline on the *full*
//! data, then *calculate* the encoded size from the quantization-code
//! distribution (Huffman encoding efficiency) instead of running the
//! expensive encoder. SZ-specific by construction — its ZFP cell in
//! Table 2 is N/A.

use crate::features::{sz_quantize, FeaturePass};
use crate::predictor::{IdentityPredictor, Predictor};
use crate::scheme::{Scheme, SchemeInfo};
use crate::schemes::szmodel::estimate_sz_size_bytes;
use pressio_core::error::Result;
use pressio_core::{Compressor, Options};
use pressio_sz::Predictor as SzPredictor;

/// The Jin (2022) calculation-based scheme. It models SZ's Lorenzo stage.
#[derive(Default)]
pub struct JinScheme;

impl JinScheme {
    /// Analytic size model, following Jin (2022)'s decomposition:
    /// quantization-code distribution → Huffman encoding efficiency →
    /// subsequent lossless (dictionary) encoding efficiency.
    ///
    /// The Huffman payload is `n·E[len]` bits. The dictionary stage is
    /// modeled on the *modal* code (overwhelmingly the zero-residual code):
    /// its maximal runs — about `n·(1−p)` of them for modal probability `p`
    /// under an independence approximation — collapse into ~25-bit LZSS
    /// match tokens, with a capped-match correction for very long runs.
    /// The smaller of the Huffman and dictionary estimates is used, so the
    /// correction only engages where repetition actually helps.
    fn predicted_ratio(&self, pass: &FeaturePass<'_>, abs_bound: f64) -> f64 {
        let data = pass.data();
        let (symbols, escapes) = sz_quantize(pass, None, abs_bound, SzPredictor::Lorenzo);
        let n = symbols.len().max(1);
        let unpred_frac = escapes as f64 / n as f64;
        let size = estimate_sz_size_bytes(&symbols, n, unpred_frac, data.dtype().size());
        data.size_in_bytes() as f64 / size
    }
}

impl Scheme for JinScheme {
    fn info(&self) -> SchemeInfo {
        SchemeInfo {
            name: "jin2022",
            citation: "Jin 2022",
            // the paper's taxonomy marks Jin as training: its stage-model
            // parameters are calibrated offline (our constants play that
            // role); no per-dataset training happens at prediction time
            training: true,
            sampling: false,
            black_box: "no",
            goal: "fast",
            metrics: "CR, Bandwidth",
            approach: "calculation",
            features: "",
        }
    }

    fn supports(&self, compressor_id: &str) -> bool {
        // models the SZ prediction/quantization/encoding pipeline only
        compressor_id == "sz3"
    }

    fn error_agnostic_from(&self, _pass: &FeaturePass<'_>) -> Result<Options> {
        Ok(Options::new())
    }

    fn error_dependent_from(
        &self,
        pass: &FeaturePass<'_>,
        compressor: &dyn Compressor,
    ) -> Result<Options> {
        if !self.supports(compressor.id()) {
            return Err(pressio_core::Error::Unsupported(format!(
                "jin2022 models SZ-family compressors, not '{}'",
                compressor.id()
            )));
        }
        let abs = pass.abs_bound(compressor)?;
        Ok(Options::new().with("jin:predicted_ratio", self.predicted_ratio(pass, abs)))
    }

    fn make_predictor(&self) -> Box<dyn Predictor> {
        Box::new(IdentityPredictor::new("jin:predicted_ratio"))
    }

    fn feature_keys(&self) -> Vec<String> {
        vec!["jin:predicted_ratio".to_string()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_core::Data;
    use pressio_core::Options as Opts;
    use pressio_sz::SzCompressor;
    use pressio_zfp::ZfpCompressor;

    fn smooth(n: usize) -> Data {
        Data::from_f32(
            vec![n, n, 4],
            (0..n * n * 4)
                .map(|i| ((i % n) as f32 * 0.07).sin() * ((i / n % n) as f32 * 0.05).cos())
                .collect(),
        )
    }

    fn sz_with(abs: f64) -> SzCompressor {
        let mut sz = SzCompressor::new();
        sz.set_options(
            &Opts::new()
                .with("pressio:abs", abs)
                .with("sz3:predictor", "lorenzo"),
        )
        .unwrap();
        sz
    }

    #[test]
    fn prediction_is_close_on_dense_smooth_data() {
        let data = smooth(48);
        let sz = sz_with(1e-4);
        let scheme = JinScheme;
        let f = scheme.error_dependent_features(&data, &sz).unwrap();
        let predicted = f.get_f64("jin:predicted_ratio").unwrap();
        let truth = data.size_in_bytes() as f64 / sz.compress(&data).unwrap().len() as f64;
        let err = ((predicted - truth) / truth).abs();
        assert!(
            err < 0.5,
            "predicted {predicted} vs truth {truth} ({err:.2})"
        );
    }

    #[test]
    fn underestimates_on_very_sparse_data() {
        // the model skips the dictionary stage, so sparse fields (where
        // LZSS crushes the Huffman stream) are *under*-predicted — the
        // paper's documented failure mode for calculation methods
        let n = 64;
        let values: Vec<f32> = (0..n * n)
            .map(|i| if i % 211 == 0 { 1.0 } else { 0.0 })
            .collect();
        let data = Data::from_f32(vec![n, n], values);
        let sz = sz_with(1e-6);
        let scheme = JinScheme;
        let predicted = scheme
            .error_dependent_features(&data, &sz)
            .unwrap()
            .get_f64("jin:predicted_ratio")
            .unwrap();
        let truth = data.size_in_bytes() as f64 / sz.compress(&data).unwrap().len() as f64;
        assert!(predicted < truth, "predicted {predicted} vs truth {truth}");
    }

    #[test]
    fn rejects_zfp() {
        let scheme = JinScheme;
        assert!(!scheme.supports("zfp"));
        let zfp = ZfpCompressor::new();
        assert!(scheme.error_dependent_features(&smooth(8), &zfp).is_err());
    }

    #[test]
    fn prediction_tracks_error_bound() {
        let data = smooth(32);
        let scheme = JinScheme;
        let tight = scheme
            .error_dependent_features(&data, &sz_with(1e-6))
            .unwrap()
            .get_f64("jin:predicted_ratio")
            .unwrap();
        let loose = scheme
            .error_dependent_features(&data, &sz_with(1e-2))
            .unwrap()
            .get_f64("jin:predicted_ratio")
            .unwrap();
        assert!(loose > tight, "loose {loose} !> tight {tight}");
    }
}
