//! Bandwidth / compression-time prediction (the paper's future-work item
//! 4: "some of the methods support predicting other metrics such as
//! bandwidth", and Jin's HDF5 work predicts compression and I/O time).
//!
//! Compression time is a **runtime** quantity (`predictors:runtime`
//! invalidation class): it depends on the machine and is
//! nondeterministic run to run, so the model is trained per machine on
//! observed timings and its predictions carry that caveat.

use crate::features::{feature_vector, global_stats, FeaturePass};
use pressio_core::error::{Error, Result};
use pressio_core::{Data, Options};
use pressio_stats::{ForestParams, RandomForest};
use serde::{Deserialize, Serialize};

/// Feature keys the bandwidth model consumes.
fn keys() -> Vec<String> {
    vec![
        "bw:log_bytes".to_string(),
        "stat:std".to_string(),
        "stat:mean_abs_diff".to_string(),
        "stat:zero_fraction".to_string(),
        "stat:lorenzo_mae".to_string(),
        "bw:log_abs".to_string(),
    ]
}

/// Extract the bandwidth-model features for one dataset + error bound.
pub fn bandwidth_features(data: &Data, abs: f64) -> Options {
    let mut f = global_stats(&FeaturePass::new(data));
    f.set("bw:log_bytes", (data.size_in_bytes().max(1) as f64).log2());
    f.set("bw:log_abs", abs.max(1e-300).log10());
    f
}

/// A trained compression-bandwidth model for one (compressor, machine)
/// pair.
#[derive(Serialize, Deserialize)]
pub struct BandwidthModel {
    forest: Option<RandomForest>,
    feature_keys: Vec<String>,
}

impl Default for BandwidthModel {
    fn default() -> Self {
        Self::new()
    }
}

impl BandwidthModel {
    /// Untrained model.
    pub fn new() -> BandwidthModel {
        BandwidthModel {
            forest: None,
            feature_keys: keys(),
        }
    }

    /// Train on observed `(features, compression time in ms)` pairs
    /// (features from [`bandwidth_features`]).
    pub fn fit(&mut self, features: &[Options], times_ms: &[f64]) -> Result<()> {
        if features.is_empty() || features.len() != times_ms.len() {
            return Err(Error::NotFitted("no bandwidth observations".into()));
        }
        let rows: Vec<Vec<f64>> = features
            .iter()
            .map(|f| feature_vector(f, &self.feature_keys))
            .collect::<Result<_>>()?;
        let ys: Vec<f64> = times_ms
            .iter()
            .map(|&t| {
                if t > 0.0 && t.is_finite() {
                    Ok(t.log2())
                } else {
                    Err(Error::InvalidValue {
                        key: "time_ms".into(),
                        reason: format!("positive time required, got {t}"),
                    })
                }
            })
            .collect::<Result<_>>()?;
        self.forest = Some(RandomForest::fit(
            &rows,
            &ys,
            &ForestParams {
                num_trees: 30,
                ..Default::default()
            },
        ));
        Ok(())
    }

    /// Predicted compression time in milliseconds.
    pub fn predict_time_ms(&self, features: &Options) -> Result<f64> {
        let forest = self
            .forest
            .as_ref()
            .ok_or_else(|| Error::NotFitted("bandwidth model".into()))?;
        let x = feature_vector(features, &self.feature_keys)?;
        Ok(forest.predict(&x).exp2())
    }

    /// Serialize trained state.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| Error::Serialization(e.to_string()))
    }

    /// Restore from [`BandwidthModel::to_json`].
    pub fn from_json(s: &str) -> Result<BandwidthModel> {
        serde_json::from_str(s).map_err(|e| Error::Serialization(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic "timing law" so the test is robust to machine load:
    /// time grows linearly in bytes and with data roughness.
    fn synthetic_time(f: &Options) -> f64 {
        let bytes = f.get_f64("bw:log_bytes").unwrap().exp2();
        let rough = f.get_f64("stat:mean_abs_diff").unwrap();
        bytes / 1e4 * (1.0 + rough) + 0.5
    }

    fn suite() -> (Vec<Options>, Vec<f64>) {
        let mut feats = Vec::new();
        let mut times = Vec::new();
        for k in 1..=12usize {
            let n = 16 * k;
            let data = Data::from_f32(
                vec![n, 16],
                (0..n * 16)
                    .map(|i| ((i % n) as f32 * 0.03 * k as f32).sin())
                    .collect(),
            );
            let f = bandwidth_features(&data, 1e-4);
            times.push(synthetic_time(&f));
            feats.push(f);
        }
        (feats, times)
    }

    #[test]
    fn learns_timing_law() {
        let (feats, times) = suite();
        let mut m = BandwidthModel::new();
        m.fit(&feats, &times).unwrap();
        let preds: Vec<f64> = feats
            .iter()
            .map(|f| m.predict_time_ms(f).unwrap())
            .collect();
        let med = pressio_stats::medape(&times, &preds).unwrap();
        assert!(med < 25.0, "bandwidth MedAPE {med}%");
    }

    #[test]
    fn unfitted_model_errors() {
        let m = BandwidthModel::new();
        let (feats, _) = suite();
        assert!(matches!(
            m.predict_time_ms(&feats[0]),
            Err(Error::NotFitted(_))
        ));
    }

    #[test]
    fn rejects_degenerate_times() {
        let (feats, _) = suite();
        let mut m = BandwidthModel::new();
        assert!(m.fit(&feats, &vec![0.0; feats.len()]).is_err());
        assert!(m.fit(&[], &[]).is_err());
    }

    #[test]
    fn state_round_trip() {
        let (feats, times) = suite();
        let mut m = BandwidthModel::new();
        m.fit(&feats, &times).unwrap();
        let restored = BandwidthModel::from_json(&m.to_json().unwrap()).unwrap();
        assert_eq!(
            m.predict_time_ms(&feats[3]).unwrap(),
            restored.predict_time_ms(&feats[3]).unwrap()
        );
    }
}
