//! `ganguli2023` — lightweight effective compressibility estimation
//! (Ganguli 2023): three bespoke spatial metrics (correlation, diversity,
//! smoothness) plus coding gain and a distortion term, fed to a mixture
//! model with **conformal prediction** for statistically guaranteed bounds
//! on the estimate — the "bounded" feature of Table 1 that makes it suited
//! to the HDF5 parallel-write use case (§2.1).

use crate::features::{quantized_entropy_features, spatial_features, FeaturePass, PassChain};
use crate::predictor::{ConformalForestPredictor, Predictor};
use crate::scheme::{Scheme, SchemeInfo};
use pressio_core::error::Result;
use pressio_core::{Compressor, Options};

/// The Ganguli (2023) bounded-estimation scheme.
#[derive(Default)]
pub struct GanguliScheme;

impl Scheme for GanguliScheme {
    fn info(&self) -> SchemeInfo {
        SchemeInfo {
            name: "ganguli2023",
            citation: "Ganguli 2023",
            training: true,
            sampling: false,
            black_box: "yes",
            goal: "accurate",
            metrics: "CR",
            approach: "regression",
            features: "bounded",
        }
    }

    fn supports(&self, _compressor_id: &str) -> bool {
        true
    }

    fn pass_chains(&self) -> &'static [PassChain] {
        &[PassChain::Moments]
    }

    fn error_agnostic_from(&self, pass: &FeaturePass<'_>) -> Result<Options> {
        Ok(spatial_features(pass))
    }

    fn error_dependent_from(
        &self,
        pass: &FeaturePass<'_>,
        compressor: &dyn Compressor,
    ) -> Result<Options> {
        // "general distortion" term: entropy after quantization at the bound
        let abs = pass.abs_bound(compressor)?;
        Ok(quantized_entropy_features(pass, abs))
    }

    fn make_predictor(&self) -> Box<dyn Predictor> {
        Box::new(ConformalForestPredictor::new(self.feature_keys()))
    }

    fn feature_keys(&self) -> Vec<String> {
        vec![
            "spatial:correlation".to_string(),
            "spatial:diversity".to_string(),
            "spatial:smoothness".to_string(),
            "spatial:coding_gain".to_string(),
            "qent:entropy".to_string(),
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
    fn provides_conformal_intervals_that_cover() {
        let scheme = GanguliScheme;
        let mut sz = SzCompressor::new();
        sz.set_options(&Opts::new().with("pressio:abs", 1e-4))
            .unwrap();
        let datasets: Vec<Data> = (1..=24usize)
            .map(|k| {
                let n = 24;
                Data::from_f32(
                    vec![n, n],
                    (0..n * n)
                        .map(|i| ((i % n) as f32 * 0.01 * k as f32 * k as f32).sin())
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
        let mut covered = 0usize;
        for (f, &t) in feats.iter().zip(&targets) {
            let iv = p.predict_interval(f, 0.2).expect("interval expected");
            assert!(iv.lo > 0.0, "compression-ratio bound must stay positive");
            if iv.lo <= t && t <= iv.hi {
                covered += 1;
            }
        }
        assert!(
            covered as f64 / targets.len() as f64 > 0.6,
            "coverage {covered}/{}",
            targets.len()
        );
    }

    #[test]
    fn table1_row_is_bounded() {
        assert_eq!(GanguliScheme.info().features, "bounded");
    }
}
