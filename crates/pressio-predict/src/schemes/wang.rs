//! `wang2023` — ZPerf (Wang 2023): a statistical gray-box stage model with
//! **counterfactual** capability (the Table 1 `counterfactuals` feature):
//! by decomposing compression into the stages common to compressors
//! (Cappello 2019) and estimating each stage separately, it can predict
//! the performance of compressor *variants that were never run* — e.g.
//! "what would SZ achieve with an interpolation predictor on this data?" —
//! letting compressor designers discard unfruitful designs early (§2.1).

use crate::features::{sz_quantize, FeaturePass};
use crate::predictor::{IdentityPredictor, Predictor};
use crate::scheme::{Scheme, SchemeInfo};
use crate::schemes::szmodel::estimate_sz_size_bytes;
use pressio_core::error::Result;
use pressio_core::{Blocks, Compressor, Data, Options};
use pressio_sz::Predictor as SzPredictor;

/// The Wang (2023) counterfactual stage-model scheme.
#[derive(Default)]
pub struct WangScheme;

/// The blocks each stage evaluation samples.
const BLOCKS: Blocks<'static> = Blocks {
    shape: &[14],
    count: 10,
    seed: 0x3A6,
    align: 1,
};

/// The prediction-stage designs the model can evaluate counterfactually.
pub const DESIGNS: [SzPredictor; 3] = [
    SzPredictor::Lorenzo,
    SzPredictor::Regression,
    SzPredictor::Interp,
];

impl WangScheme {
    /// Estimate the ratio an SZ pipeline with `design` as its prediction
    /// stage would achieve — without running that pipeline end to end.
    pub fn estimate_design(&self, data: &Data, abs: f64, design: SzPredictor) -> Result<f64> {
        let pass = FeaturePass::new(data);
        let (symbols, escapes) = sz_quantize(&pass, Some(&BLOCKS), abs, design);
        let n = data.num_elements();
        let unpred_frac = escapes as f64 / symbols.len().max(1) as f64;
        let mut size = estimate_sz_size_bytes(&symbols, n, unpred_frac, data.dtype().size());
        // stage-specific side streams: regression ships 4 f32 per block
        if design == SzPredictor::Regression {
            let block = pressio_sz::regression::DEFAULT_BLOCK;
            size += pressio_sz::regression::block_count(data.dims(), block) as f64 * 16.0;
        }
        Ok(data.size_in_bytes() as f64 / size)
    }
}

impl Scheme for WangScheme {
    fn info(&self) -> SchemeInfo {
        SchemeInfo {
            name: "wang2023",
            citation: "Wang 2023",
            // ZPerf builds on trained per-stage predictors (Lu/Qin models);
            // the paper's taxonomy marks it as training + sampling
            training: true,
            sampling: true,
            black_box: "no",
            goal: "accurate",
            metrics: "CR",
            approach: "calculation",
            features: "counterfactuals",
        }
    }

    fn supports(&self, compressor_id: &str) -> bool {
        compressor_id == "sz3"
    }

    fn error_agnostic_from(&self, _pass: &FeaturePass<'_>) -> Result<Options> {
        Ok(Options::new())
    }

    /// Evaluates *all* prediction-stage designs: `wang:predicted_ratio` is
    /// the estimate for the compressor's configured design, and
    /// `wang:predicted_ratio_<design>` are the counterfactuals.
    fn error_dependent_from(
        &self,
        pass: &FeaturePass<'_>,
        compressor: &dyn Compressor,
    ) -> Result<Options> {
        if !self.supports(compressor.id()) {
            return Err(pressio_core::Error::Unsupported(format!(
                "wang2023 models the SZ stage pipeline, not '{}'",
                compressor.id()
            )));
        }
        let abs = pass.abs_bound(compressor)?;
        let opts = compressor.get_options();
        let configured = opts.get_str_opt("sz3:predictor")?.unwrap_or("auto");
        let mut out = Options::new();
        let mut best = f64::MIN;
        let mut configured_ratio = None;
        for design in DESIGNS {
            let ratio = self.estimate_design(pass.data(), abs, design)?;
            out.set(format!("wang:predicted_ratio_{}", design.name()), ratio);
            best = best.max(ratio);
            if design.name() == configured {
                configured_ratio = Some(ratio);
            }
        }
        // "auto" picks the best design, which is what SZ's selection does
        out.set("wang:predicted_ratio", configured_ratio.unwrap_or(best));
        Ok(out)
    }

    fn make_predictor(&self) -> Box<dyn Predictor> {
        Box::new(IdentityPredictor::new("wang:predicted_ratio"))
    }

    fn feature_keys(&self) -> Vec<String> {
        let mut keys = vec!["wang:predicted_ratio".to_string()];
        keys.extend(
            DESIGNS
                .iter()
                .map(|d| format!("wang:predicted_ratio_{}", d.name())),
        );
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_core::Options as Opts;
    use pressio_sz::SzCompressor;

    fn smooth(n: usize) -> Data {
        Data::from_f32(
            vec![n, n, 4],
            (0..n * n * 4)
                .map(|i| {
                    let x = (i % n) as f32;
                    let y = ((i / n) % n) as f32;
                    (x * 0.05).sin() * (y * 0.04).cos() * 2.0
                })
                .collect(),
        )
    }

    fn sz(abs: f64, predictor: &str) -> SzCompressor {
        let mut c = SzCompressor::new();
        c.set_options(
            &Opts::new()
                .with("pressio:abs", abs)
                .with("sz3:predictor", predictor),
        )
        .unwrap();
        c
    }

    #[test]
    fn counterfactual_features_present_for_all_designs() {
        let scheme = WangScheme;
        let f = scheme
            .error_dependent_features(&smooth(40), &sz(1e-4, "auto"))
            .unwrap();
        for design in ["lorenzo", "regression", "interp"] {
            assert!(
                f.get_f64(&format!("wang:predicted_ratio_{design}"))
                    .unwrap()
                    > 0.0,
                "{design}"
            );
        }
        assert!(f.get_f64("wang:predicted_ratio").unwrap() > 0.0);
    }

    #[test]
    fn counterfactual_ranking_matches_reality() {
        // the design the model ranks best should actually be (near-)best
        // when each variant is really run — the "discard unfruitful
        // designs early" use case
        let data = smooth(40);
        let scheme = WangScheme;
        let abs = 1e-4;
        let mut predicted = Vec::new();
        let mut actual = Vec::new();
        for design in DESIGNS {
            predicted.push(scheme.estimate_design(&data, abs, design).unwrap());
            let comp = sz(abs, design.name());
            let c = comp.compress(&data).unwrap();
            actual.push(data.size_in_bytes() as f64 / c.len() as f64);
        }
        let pred_best = predicted
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let best_actual = actual.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            actual[pred_best] > best_actual * 0.7,
            "picked design achieves {:.1} vs best {:.1} (predicted {predicted:?}, actual {actual:?})",
            actual[pred_best],
            best_actual
        );
    }

    #[test]
    fn configured_predictor_selects_matching_estimate() {
        let data = smooth(24);
        let scheme = WangScheme;
        let f = scheme
            .error_dependent_features(&data, &sz(1e-4, "interp"))
            .unwrap();
        assert_eq!(
            f.get_f64("wang:predicted_ratio").unwrap(),
            f.get_f64("wang:predicted_ratio_interp").unwrap()
        );
    }

    #[test]
    fn rejects_non_sz() {
        let scheme = WangScheme;
        assert!(!scheme.supports("zfp"));
        let zfp = pressio_zfp::ZfpCompressor::new();
        assert!(scheme.error_dependent_features(&smooth(8), &zfp).is_err());
    }
}
