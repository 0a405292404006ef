//! `lu2018` — Gaussian-process modeling of lossy compression (Lu 2018,
//! IPDPS): regression over internals-derived features from sampled data,
//! trained per compressor (Table 1: training + sampling, not black-box,
//! accurate).

use crate::features::{
    global_stats, sz_quantization_profile, FeaturePass, PassChain, GLOBAL_STATS_CHAINS,
};
use crate::predictor::{GpPredictor, Predictor};
use crate::scheme::{Scheme, SchemeInfo};
use pressio_core::error::Result;
use pressio_core::{Compressor, Options};

/// The Lu (2018) Gaussian-process scheme.
#[derive(Default)]
pub struct LuScheme;

/// The quantization profile reads every fourth element along each axis.
const SAMPLE_STRIDE: usize = 4;

impl Scheme for LuScheme {
    fn info(&self) -> SchemeInfo {
        SchemeInfo {
            name: "lu2018",
            citation: "Lu 2018",
            training: true,
            sampling: true,
            black_box: "no",
            goal: "accurate",
            metrics: "CR",
            approach: "regression",
            features: "",
        }
    }

    fn supports(&self, compressor_id: &str) -> bool {
        matches!(compressor_id, "sz3" | "zfp")
    }

    fn pass_chains(&self) -> &'static [PassChain] {
        GLOBAL_STATS_CHAINS
    }

    fn error_agnostic_from(&self, pass: &FeaturePass<'_>) -> Result<Options> {
        Ok(global_stats(pass))
    }

    fn error_dependent_from(
        &self,
        pass: &FeaturePass<'_>,
        compressor: &dyn Compressor,
    ) -> Result<Options> {
        let abs = pass.abs_bound(compressor)?;
        // internals-derived features: the sampled quantization profile
        let mut f = sz_quantization_profile(pass, abs, SAMPLE_STRIDE);
        f.set("lu:log_abs", abs.max(1e-300).log10());
        Ok(f)
    }

    fn make_predictor(&self) -> Box<dyn Predictor> {
        Box::new(GpPredictor::new(self.feature_keys()))
    }

    fn feature_keys(&self) -> Vec<String> {
        vec![
            "quant:code_entropy".to_string(),
            "quant:unpredictable_fraction".to_string(),
            "quant:zero_code_fraction".to_string(),
            "stat:std".to_string(),
            "stat:zero_fraction".to_string(),
            "lu:log_abs".to_string(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_core::Data;
    use pressio_core::Options as Opts;
    use pressio_sz::SzCompressor;

    #[test]
    fn gp_scheme_fits_and_predicts() {
        let scheme = LuScheme;
        let mut sz = SzCompressor::new();
        sz.set_options(&Opts::new().with("pressio:abs", 1e-4))
            .unwrap();
        let datasets: Vec<Data> = (1..=10usize)
            .map(|k| {
                let n = 24;
                Data::from_f32(
                    vec![n, n],
                    (0..n * n)
                        .map(|i| ((i % n) as f32 * 0.02 * k as f32).sin() * k as f32)
                        .collect(),
                )
            })
            .collect();
        let mut feats = Vec::new();
        let mut targets = Vec::new();
        for d in &datasets {
            feats.push(scheme.features(d, &sz).unwrap());
            targets.push(scheme.training_observation(d, &sz).unwrap());
        }
        let mut p = scheme.make_predictor();
        assert!(p.requires_training());
        p.fit(&feats, &targets).unwrap();
        let preds: Vec<f64> = feats.iter().map(|f| p.predict(f).unwrap()).collect();
        let med = pressio_stats::medape(&targets, &preds).unwrap();
        assert!(med < 30.0, "lu2018 in-sample MedAPE {med}%");
    }
}
