//! `qin2020` — deep-neural-network estimation of lossy compressibility
//! (Qin 2020, IEEE LOCS): the same internals-derived feature family as
//! Lu (2018) fed to a small MLP (Table 1: deep learning, accurate,
//! training + sampling, not black-box).

use crate::features::{
    global_stats, sz_quantization_profile, FeaturePass, PassChain, GLOBAL_STATS_CHAINS,
};
use crate::predictor::{MlpPredictor, Predictor};
use crate::scheme::{Scheme, SchemeInfo};
use pressio_core::error::Result;
use pressio_core::{Compressor, Options};

/// The Qin (2020) deep-learning scheme.
#[derive(Default)]
pub struct QinScheme;

/// The quantization profile reads every fourth element along each axis.
const SAMPLE_STRIDE: usize = 4;

impl Scheme for QinScheme {
    fn info(&self) -> SchemeInfo {
        SchemeInfo {
            name: "qin2020",
            citation: "Qin 2020",
            training: true,
            sampling: true,
            black_box: "no",
            goal: "accurate",
            metrics: "CR",
            approach: "deep learning",
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
        let mut f = sz_quantization_profile(pass, abs, SAMPLE_STRIDE);
        f.set("qin:log_abs", abs.max(1e-300).log10());
        Ok(f)
    }

    fn make_predictor(&self) -> Box<dyn Predictor> {
        Box::new(MlpPredictor::new(self.feature_keys()))
    }

    fn feature_keys(&self) -> Vec<String> {
        vec![
            "quant:code_entropy".to_string(),
            "quant:unpredictable_fraction".to_string(),
            "quant:zero_code_fraction".to_string(),
            "stat:std".to_string(),
            "stat:mean_abs_diff".to_string(),
            "stat:zero_fraction".to_string(),
            "qin:log_abs".to_string(),
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
    fn mlp_scheme_fits_and_predicts() {
        let scheme = QinScheme;
        let mut sz = SzCompressor::new();
        sz.set_options(&Opts::new().with("pressio:abs", 1e-4))
            .unwrap();
        let datasets: Vec<Data> = (1..=12usize)
            .map(|k| {
                let n = 24;
                Data::from_f32(
                    vec![n, n],
                    (0..n * n)
                        .map(|i| ((i % n) as f32 * 0.015 * k as f32).sin() * 3.0)
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
        p.fit(&feats, &targets).unwrap();
        let preds: Vec<f64> = feats.iter().map(|f| p.predict(f).unwrap()).collect();
        let med = pressio_stats::medape(&targets, &preds).unwrap();
        assert!(med < 60.0, "qin2020 in-sample MedAPE {med}%");
    }
}
