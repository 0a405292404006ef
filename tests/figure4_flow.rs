//! Integration: the Figure 4 inference flow across every registered scheme
//! and compressor — registry lookup, support check, invalidation-aware
//! evaluation, (training where needed), prediction, state round-trip.

use libpressio_predict::core::Options;
use libpressio_predict::dataset::{DatasetPlugin, Hurricane};
use libpressio_predict::predict::evaluator::CachedEvaluator;
use libpressio_predict::predict::{standard_compressors, standard_schemes};

fn hurricane_fields(n_timesteps: usize) -> Vec<(String, libpressio_predict::core::Data)> {
    let mut h = Hurricane::with_dims(24, 24, 12, n_timesteps);
    (0..h.len())
        .map(|i| (h.load_metadata(i).unwrap().name, h.load_data(i).unwrap()))
        .collect()
}

#[test]
fn every_scheme_predicts_every_supported_compressor() {
    let schemes = standard_schemes();
    let compressors = standard_compressors();
    let fields = hurricane_fields(1);
    for scheme_name in schemes.names() {
        for comp_name in compressors.names() {
            let scheme = schemes.build(scheme_name).unwrap();
            let mut comp = compressors.build(comp_name).unwrap();
            comp.set_options(&Options::new().with("pressio:abs", 1e-4))
                .unwrap();
            if !scheme.supports(comp_name) {
                // unsupported pairs must fail loudly, not silently mispredict
                assert!(
                    scheme
                        .error_dependent_features(&fields[0].1, comp.as_ref())
                        .is_err(),
                    "{scheme_name} on {comp_name} should refuse"
                );
                continue;
            }
            let mut predictor = scheme.make_predictor();
            // collect features (and training data if needed)
            let mut feats = Vec::new();
            let mut targets = Vec::new();
            for (name, data) in &fields {
                let mut eval = CachedEvaluator::new(schemes.build(scheme_name).unwrap());
                let (f, _) = eval.features(name, data, comp.as_ref()).unwrap();
                let truth = data.size_in_bytes() as f64 / comp.compress(data).unwrap().len() as f64;
                feats.push(f);
                targets.push(truth);
            }
            if predictor.requires_training() {
                predictor.fit(&feats, &targets).unwrap();
            }
            for (f, truth) in feats.iter().zip(&targets) {
                let p = predictor
                    .predict(f)
                    .unwrap_or_else(|e| panic!("{scheme_name}/{comp_name}: predict failed: {e}"));
                assert!(
                    p.is_finite() && p > 0.0,
                    "{scheme_name}/{comp_name}: prediction {p} (truth {truth})"
                );
            }
            // state round-trip preserves predictions
            let state = predictor.state().unwrap();
            let mut restored = scheme.make_predictor();
            restored.load_state(&state).unwrap();
            assert_eq!(
                predictor.predict(&feats[0]).unwrap(),
                restored.predict(&feats[0]).unwrap(),
                "{scheme_name}: state round-trip changed predictions"
            );
        }
    }
}

#[test]
fn invalidation_reuse_across_bounds_matches_recompute() {
    let schemes = standard_schemes();
    let fields = hurricane_fields(1);
    let (name, data) = &fields[1]; // a dense field
    let compressors = standard_compressors();
    let mut evaluator = CachedEvaluator::new(schemes.build("krasowska2021").unwrap());
    let scheme = schemes.build("krasowska2021").unwrap();
    for abs in [1e-6, 1e-5, 1e-4] {
        let mut comp = compressors.build("sz3").unwrap();
        comp.set_options(&Options::new().with("pressio:abs", abs))
            .unwrap();
        let (cached, _) = evaluator.features(name, data, comp.as_ref()).unwrap();
        // fresh computation must agree exactly with the cached path
        let fresh = scheme.features(data, comp.as_ref()).unwrap();
        assert_eq!(cached, fresh, "abs={abs}");
    }
    let counters = evaluator.counters();
    assert_eq!(counters.agnostic_misses, 1, "agnostic computed once");
    assert_eq!(counters.dependent_misses, 3, "dependent computed per bound");
}

#[test]
fn trained_state_transfers_between_sessions() {
    // "re-load the results of prior training into the predictor" (Fig. 4)
    let schemes = standard_schemes();
    let compressors = standard_compressors();
    let mut comp = compressors.build("sz3").unwrap();
    comp.set_options(&Options::new().with("pressio:abs", 1e-4))
        .unwrap();
    let fields = hurricane_fields(2);
    let scheme = schemes.build("rahman2023").unwrap();
    // session 1: train and serialize
    let state = {
        let mut feats = Vec::new();
        let mut targets = Vec::new();
        for (_, data) in &fields {
            let f = scheme.features(data, comp.as_ref()).unwrap();
            let truth = data.size_in_bytes() as f64 / comp.compress(data).unwrap().len() as f64;
            feats.push(f);
            targets.push(truth);
        }
        let mut p = scheme.make_predictor();
        p.fit(&feats, &targets).unwrap();
        p.state().unwrap()
    };
    // session 2: restore and predict without retraining
    let scheme2 = schemes.build("rahman2023").unwrap();
    let mut p2 = scheme2.make_predictor();
    p2.load_state(&state).unwrap();
    let (_, data) = &fields[0];
    let f = scheme2.features(data, comp.as_ref()).unwrap();
    let prediction = p2.predict(&f).unwrap();
    assert!(prediction.is_finite() && prediction > 0.0);
}
