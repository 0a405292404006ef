//! `underwood2023` — SVD truncation + cubic spline regression (Underwood &
//! Bessac 2023): evolves Krasowska by swapping the variogram for the SVD
//! truncation measure (global spatial information) and the linear fit for a
//! spline. The SVD makes its error-agnostic stage expensive (§6 measures
//! ~771 ms vs <43 ms error-dependent), so it pays off when many predictions
//! reuse the same data — the invalidation-reuse case the paper highlights.

use crate::features::{quantized_entropy_features, svd_features, FeaturePass};
use crate::predictor::{Predictor, SplinePredictor};
use crate::scheme::{Scheme, SchemeInfo};
use pressio_core::error::Result;
use pressio_core::{Compressor, Options};

/// The Underwood (2023) SVD + spline scheme.
#[derive(Default)]
pub struct UnderwoodScheme;

impl Scheme for UnderwoodScheme {
    fn info(&self) -> SchemeInfo {
        SchemeInfo {
            name: "underwood2023",
            citation: "Underwood 2023",
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
        true
    }

    fn error_agnostic_from(&self, pass: &FeaturePass<'_>) -> Result<Options> {
        Ok(svd_features(pass))
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
        // spline over the error-dependent entropy, linear in the SVD term
        Box::new(SplinePredictor::new(
            "qent:entropy",
            vec!["svd:truncation".to_string()],
        ))
    }

    fn feature_keys(&self) -> Vec<String> {
        vec!["qent:entropy".to_string(), "svd:truncation".to_string()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_core::Data;
    use pressio_core::Options as Opts;
    use pressio_sz::SzCompressor;
    use std::time::Instant;

    fn wave(n: usize, freq: f32) -> Data {
        Data::from_f32(
            vec![n, n],
            (0..n * n)
                .map(|i| ((i % n) as f32 * freq).sin() * ((i / n) as f32 * freq * 0.7).cos())
                .collect(),
        )
    }

    #[test]
    fn error_agnostic_stage_is_the_expensive_one() {
        let scheme = UnderwoodScheme;
        let data = wave(64, 0.05);
        let sz = SzCompressor::new();
        let t0 = Instant::now();
        let _ = scheme.error_agnostic_features(&data).unwrap();
        let agnostic = t0.elapsed();
        let t0 = Instant::now();
        let _ = scheme.error_dependent_features(&data, &sz).unwrap();
        let dependent = t0.elapsed();
        assert!(
            agnostic > dependent,
            "SVD stage {agnostic:?} should dominate entropy stage {dependent:?}"
        );
    }

    #[test]
    fn spline_fit_and_predict_end_to_end() {
        let scheme = UnderwoodScheme;
        let mut sz = SzCompressor::new();
        sz.set_options(&Opts::new().with("pressio:abs", 1e-4))
            .unwrap();
        let datasets: Vec<Data> = (1..=10usize).map(|k| wave(32, 0.02 * k as f32)).collect();
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
        assert!(med < 60.0, "in-sample MedAPE {med}%");
    }
}
