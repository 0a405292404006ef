//! `krasowska2021` — quantized entropy + variogram with linear regression
//! (Krasowska 2021, DRBSD-7): the first fully black-box predictor, using no
//! compressor internals beyond the notion of an absolute error bound.

use crate::features::{quantized_entropy_features, variogram_features, FeaturePass};
use crate::predictor::{LinearPredictor, Predictor};
use crate::scheme::{Scheme, SchemeInfo};
use pressio_core::error::Result;
use pressio_core::{Compressor, Options};

/// The Krasowska (2021) black-box regression scheme.
#[derive(Default)]
pub struct KrasowskaScheme;

impl Scheme for KrasowskaScheme {
    fn info(&self) -> SchemeInfo {
        SchemeInfo {
            name: "krasowska2021",
            citation: "Krasowska 2021",
            training: true,
            sampling: false,
            black_box: "yes",
            goal: "accurate",
            metrics: "CR",
            approach: "regression",
            features: "",
        }
    }

    fn supports(&self, _compressor_id: &str) -> bool {
        true // fully black-box
    }

    fn error_agnostic_from(&self, pass: &FeaturePass<'_>) -> Result<Options> {
        Ok(variogram_features(pass))
    }

    fn error_dependent_from(
        &self,
        pass: &FeaturePass<'_>,
        compressor: &dyn Compressor,
    ) -> Result<Options> {
        let abs = pass.abs_bound(compressor)?;
        Ok(quantized_entropy_features(pass, abs))
    }

    fn make_predictor(&self) -> Box<dyn Predictor> {
        Box::new(LinearPredictor::new(self.feature_keys()))
    }

    fn feature_keys(&self) -> Vec<String> {
        vec!["qent:entropy".to_string(), "variogram:score".to_string()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_core::Data;
    use pressio_core::Options as Opts;
    use pressio_sz::SzCompressor;

    #[test]
    fn end_to_end_regression_tracks_ratio_ordering() {
        let scheme = KrasowskaScheme;
        let mut sz = SzCompressor::new();
        sz.set_options(&Opts::new().with("pressio:abs", 1e-4))
            .unwrap();
        // datasets of increasing roughness
        let datasets: Vec<Data> = (1..=8usize)
            .map(|k| {
                let n = 32;
                Data::from_f32(
                    vec![n, n],
                    (0..n * n)
                        .map(|i| ((i % n) as f32 * 0.03 * k as f32 * k as f32).sin())
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
        // the smoother dataset must be predicted more compressible
        let smooth_pred = p.predict(&feats[0]).unwrap();
        let rough_pred = p.predict(&feats[7]).unwrap();
        assert!(
            smooth_pred > rough_pred,
            "smooth {smooth_pred} !> rough {rough_pred} (targets {:.1} vs {:.1})",
            targets[0],
            targets[7]
        );
    }

    #[test]
    fn black_box_supports_everything() {
        let s = KrasowskaScheme;
        assert!(s.supports("sz3"));
        assert!(s.supports("zfp"));
        assert!(s.supports("anything_else"));
    }
}
