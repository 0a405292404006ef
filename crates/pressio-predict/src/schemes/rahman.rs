//! `rahman2023` — FXRZ (Rahman 2023, ICDE): a feature-driven random forest
//! over cheap error-agnostic dataset statistics plus the requested error
//! bound, with interpolation-based data augmentation to cut training cost.
//! The paper credits its **sparsity correction factor** for the best MedAPE
//! on Hurricane (§6); here that is the `stat:zero_fraction` feature family,
//! which the ablation bench can disable.

use crate::features::{global_stats, FeaturePass, PassChain, GLOBAL_STATS_CHAINS};
use crate::predictor::{ForestPredictor, Predictor};
use crate::scheme::{Scheme, SchemeInfo};
use pressio_core::error::Result;
use pressio_core::{Compressor, Options};

/// The Rahman (2023) FXRZ scheme.
pub struct RahmanScheme {
    /// Include the sparsity-correction features (`stat:zero_fraction`).
    pub sparsity_correction: bool,
    /// Data-augmentation factor passed to the forest (synthetic:real).
    pub augmentation: f64,
}

impl Default for RahmanScheme {
    fn default() -> Self {
        RahmanScheme {
            sparsity_correction: true,
            augmentation: 2.0,
        }
    }
}

impl RahmanScheme {
    fn keys(&self) -> Vec<String> {
        let mut keys = vec![
            "stat:std".to_string(),
            "stat:value_range".to_string(),
            "stat:mean_abs_diff".to_string(),
            "stat:lorenzo_mae".to_string(),
            "rahman:log_abs".to_string(),
            "rahman:log_rel_bound".to_string(),
        ];
        if self.sparsity_correction {
            keys.push("stat:zero_fraction".to_string());
        }
        keys
    }
}

impl Scheme for RahmanScheme {
    fn info(&self) -> SchemeInfo {
        SchemeInfo {
            name: "rahman2023",
            citation: "Rahman 2023",
            training: true,
            sampling: true,
            black_box: "partial",
            goal: "fast",
            metrics: "various",
            approach: "machine learning",
            features: "",
        }
    }

    fn supports(&self, compressor_id: &str) -> bool {
        // black-box features + per-compressor training: any compressor
        matches!(compressor_id, "sz3" | "zfp")
    }

    fn pass_chains(&self) -> &'static [PassChain] {
        GLOBAL_STATS_CHAINS
    }

    fn error_agnostic_from(&self, pass: &FeaturePass<'_>) -> Result<Options> {
        Ok(global_stats(pass))
    }

    /// The "error-dependent" inputs cost nothing: they come from the
    /// requested settings and the value range the pass's first sweep has
    /// already found, not from re-touching the data — which is why the
    /// paper's Table 2 lists FXRZ's error-dependent stage as N/A.
    fn error_dependent_from(
        &self,
        pass: &FeaturePass<'_>,
        compressor: &dyn Compressor,
    ) -> Result<Options> {
        let abs = pass.abs_bound(compressor)?;
        Ok(Options::new()
            .with("rahman:log_abs", abs.max(1e-300).log10())
            .with(
                "rahman:log_rel_bound",
                // the range floored away from zero (0 with no finite value)
                (abs / pass.value_range().max(1e-300)).max(1e-300).log10(),
            ))
    }

    fn make_predictor(&self) -> Box<dyn Predictor> {
        let mut p = ForestPredictor::new(self.keys());
        p.augmentation = self.augmentation;
        Box::new(p)
    }

    fn feature_keys(&self) -> Vec<String> {
        self.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_core::Data;
    use pressio_core::Options as Opts;
    use pressio_sz::SzCompressor;

    fn fields() -> Vec<Data> {
        let mut out = Vec::new();
        // several smooth fields with varying roughness + sparse fields
        for k in 1..=6usize {
            let n = 32;
            let values: Vec<f32> = (0..n * n)
                .map(|i| {
                    let x = (i % n) as f32;
                    let y = (i / n) as f32;
                    (x * 0.05 * k as f32).sin() * (y * 0.04).cos() * k as f32
                })
                .collect();
            out.push(Data::from_f32(vec![n, n], values));
        }
        for k in 1..=4usize {
            let n = 32;
            let values: Vec<f32> = (0..n * n)
                .map(|i| {
                    if (i * 7 + k) % (40 * k) == 0 {
                        (i as f32 * 0.01).sin()
                    } else {
                        0.0
                    }
                })
                .collect();
            out.push(Data::from_f32(vec![n, n], values));
        }
        out
    }

    fn train_and_eval(scheme: &RahmanScheme) -> f64 {
        let sz = {
            let mut c = SzCompressor::new();
            c.set_options(&Opts::new().with("pressio:abs", 1e-4))
                .unwrap();
            c
        };
        let datasets = fields();
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
        pressio_stats::medape(&targets, &preds).unwrap()
    }

    #[test]
    fn fits_training_data_well() {
        let med = train_and_eval(&RahmanScheme::default());
        assert!(med < 40.0, "in-sample MedAPE {med}%");
    }

    #[test]
    fn sparsity_correction_toggles_feature_set() {
        let with = RahmanScheme::default();
        let without = RahmanScheme {
            sparsity_correction: false,
            ..Default::default()
        };
        assert!(with
            .feature_keys()
            .contains(&"stat:zero_fraction".to_string()));
        assert!(!without
            .feature_keys()
            .contains(&"stat:zero_fraction".to_string()));
    }

    #[test]
    fn error_dependent_inputs_are_setting_derived() {
        let scheme = RahmanScheme::default();
        let d = Data::from_f32(vec![16], (0..16).map(|i| i as f32).collect());
        let mut sz = SzCompressor::new();
        sz.set_options(&Opts::new().with("pressio:abs", 1e-3))
            .unwrap();
        let f = scheme.error_dependent_features(&d, &sz).unwrap();
        assert!((f.get_f64("rahman:log_abs").unwrap() - (-3.0)).abs() < 1e-9);
        assert!(f.get_f64("rahman:log_rel_bound").unwrap() < 0.0);
    }

    /// `rahman:log_rel_bound` came from `summarize` of a widened copy before
    /// it came from the pass's first sweep of the typed buffer: bit for bit
    /// the same feature, on a pass of its own or on the one the
    /// error-agnostic stage has already run on.
    #[test]
    fn log_rel_bound_matches_the_summarize_expression() {
        let dense: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin() * 12.5).collect();
        let mut with_non_finite = dense.clone();
        with_non_finite[3] = f32::NAN;
        with_non_finite[500] = f32::INFINITY;
        with_non_finite[999] = f32::NEG_INFINITY;
        let buffers = [
            dense,
            vec![0.0; 257],
            vec![-3.25; 64],
            with_non_finite,
            vec![f32::NAN; 9],
            vec![1e-30, -1e-30],
            vec![-0.0; 33],
            vec![0.0, -0.0, 0.0, f32::NAN, -0.0, 0.0, 0.0, 0.0, -0.0, 0.0],
        ];
        let scheme = RahmanScheme::default();
        for values in buffers {
            for abs in [1e-6, 1e-3, 2.5] {
                let mut sz = SzCompressor::new();
                sz.set_options(&Opts::new().with("pressio:abs", abs))
                    .unwrap();
                let data = Data::from_f32(vec![values.len()], values.clone());
                let s = pressio_stats::summarize(&data.to_f64_vec());
                let old = (abs / (s.max - s.min).max(1e-300)).max(1e-300).log10();
                let new = scheme
                    .error_dependent_features(&data, &sz)
                    .unwrap()
                    .get_f64("rahman:log_rel_bound")
                    .unwrap();
                assert_eq!(new.to_bits(), old.to_bits(), "abs={abs} {values:?}");
                let pass = FeaturePass::new(&data);
                let agnostic = scheme.error_agnostic_from(&pass).unwrap();
                assert_eq!(agnostic, scheme.error_agnostic_features(&data).unwrap());
                let shared = scheme.error_dependent_from(&pass, &sz).unwrap();
                assert_eq!(
                    shared.get_f64("rahman:log_rel_bound").unwrap().to_bits(),
                    old.to_bits(),
                    "shared pass, abs={abs} {values:?}"
                );
            }
        }
    }

    #[test]
    fn training_observation_is_true_ratio() {
        let scheme = RahmanScheme::default();
        let d = fields().remove(0);
        let sz = SzCompressor::new();
        let obs = scheme.training_observation(&d, &sz).unwrap();
        let truth = d.size_in_bytes() as f64 / sz.compress(&d).unwrap().len() as f64;
        assert!((obs - truth).abs() < 1e-9);
    }
}
