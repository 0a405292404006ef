//! Bandwidth / compression-time prediction (the paper's future-work item
//! 4: "some of the methods support predicting other metrics such as
//! bandwidth", and Jin's HDF5 work predicts compression and I/O time).
//!
//! Compression time is a **runtime** quantity (`predictors:runtime`
//! invalidation class): it depends on the machine and is
//! nondeterministic run to run, so the model is trained per machine on
//! observed timings and its predictions carry that caveat.

use crate::features::{global_stats, FeaturePass};
use crate::predictor::ForestPredictor;
use pressio_core::{Data, Options};

/// Extract the bandwidth-model features for one dataset + error bound.
pub fn bandwidth_features(data: &Data, abs: f64) -> Options {
    let mut f = global_stats(&FeaturePass::new(data));
    f.set("bw:log_bytes", (data.size_in_bytes().max(1) as f64).log2());
    f.set("bw:log_abs", abs.max(1e-300).log10());
    f
}

/// An untrained compression-bandwidth model for one (compressor, machine)
/// pair: the forest predictor over the [`bandwidth_features`], with 30
/// trees and no augmentation. It is fit on observed compression times in
/// milliseconds and predicts one.
pub fn bandwidth_model() -> ForestPredictor {
    let keys = [
        "bw:log_bytes",
        "stat:std",
        "stat:mean_abs_diff",
        "stat:zero_fraction",
        "stat:lorenzo_mae",
        "bw:log_abs",
    ];
    let mut model = ForestPredictor::new(keys.map(String::from).to_vec());
    model.augmentation = 0.0;
    model.params.num_trees = 30;
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::Predictor;
    use pressio_core::Error;

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
        let mut m = bandwidth_model();
        m.fit(&feats, &times).unwrap();
        let preds: Vec<f64> = feats.iter().map(|f| m.predict(f).unwrap()).collect();
        let med = pressio_stats::medape(&times, &preds).unwrap();
        assert!(med < 25.0, "bandwidth MedAPE {med}%");
    }

    #[test]
    fn unfitted_model_errors() {
        let (feats, _) = suite();
        assert!(matches!(
            bandwidth_model().predict(&feats[0]),
            Err(Error::NotFitted(_))
        ));
    }

    #[test]
    fn rejects_degenerate_times() {
        let (feats, _) = suite();
        let mut m = bandwidth_model();
        assert!(m.fit(&feats, &vec![0.0; feats.len()]).is_err());
        assert!(m.fit(&[], &[]).is_err());
    }

    /// The untrained state is the one `tests/predictor_golden.rs` builds the
    /// bandwidth model from; a trained one loads into any forest predictor.
    #[test]
    fn state_round_trip() {
        let untrained = String::from_utf8(bandwidth_model().state().unwrap()).unwrap();
        assert_eq!(
            untrained,
            concat!(
                r#"{"keys":["bw:log_bytes","stat:std","stat:mean_abs_diff","#,
                r#""stat:zero_fraction","stat:lorenzo_mae","bw:log_abs"],"augmentation":0.0,"#,
                r#""params":{"num_trees":30,"tree":{"max_depth":12,"min_samples_split":4,"#,
                r#""max_features":null},"mtry":null,"seed":24301},"forest":null}"#
            )
        );
        let (feats, times) = suite();
        let mut m = bandwidth_model();
        m.fit(&feats, &times).unwrap();
        let mut restored = ForestPredictor::new(vec![]);
        restored.load_state(&m.state().unwrap()).unwrap();
        assert_eq!(
            m.predict(&feats[3]).unwrap(),
            restored.predict(&feats[3]).unwrap()
        );
    }
}
