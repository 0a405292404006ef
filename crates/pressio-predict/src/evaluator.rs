//! Invalidation-aware cached feature evaluation — the machinery behind the
//! paper's first key question: *"How to generically enable maximum reuse of
//! previously observed metrics in predictions?"* (§1, Q1).
//!
//! Features are cached per invalidation class: **error-agnostic** results
//! are keyed by the dataset alone, so they survive any compressor
//! reconfiguration; **error-dependent** results are additionally keyed by a
//! stable hash of the compressor's error-affecting settings (taken from its
//! `predictors:error_dependent_settings` configuration metadata), so
//! changing `pressio:abs` misses the cache while changing a
//! performance-only knob does not. Explicit invalidation (Figure 4's
//! `invs` list) handles runtime/nondeterministic metrics.

use crate::features::FeaturePass;
use crate::scheme::Scheme;
use pressio_core::error::{Error, Result};
use pressio_core::hash::{hash_options, to_hex};
use pressio_core::metrics::invalidations;
use pressio_core::timing::time_ms;
use pressio_core::{Compressor, Data, Options};
use pressio_stats::Fold;
use std::collections::HashMap;

/// Per-call timing/caching report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FeatureTimes {
    /// Milliseconds spent computing error-agnostic features
    /// (`None` = served from cache).
    pub error_agnostic_ms: Option<f64>,
    /// Milliseconds spent computing error-dependent features
    /// (`None` = served from cache).
    pub error_dependent_ms: Option<f64>,
}

/// Cache hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Error-agnostic cache hits.
    pub agnostic_hits: u64,
    /// Error-agnostic recomputations.
    pub agnostic_misses: u64,
    /// Error-dependent cache hits.
    pub dependent_hits: u64,
    /// Error-dependent recomputations.
    pub dependent_misses: u64,
}

/// A scheme wrapped with the invalidation-tracking feature cache.
pub struct CachedEvaluator {
    scheme: Box<dyn Scheme>,
    agnostic: HashMap<String, Options>,
    dependent: HashMap<(String, String), Options>,
    counters: CacheCounters,
}

impl CachedEvaluator {
    /// Wrap a scheme.
    pub fn new(scheme: Box<dyn Scheme>) -> CachedEvaluator {
        CachedEvaluator {
            scheme,
            agnostic: HashMap::new(),
            dependent: HashMap::new(),
            counters: CacheCounters::default(),
        }
    }

    /// The wrapped scheme.
    pub fn scheme(&self) -> &dyn Scheme {
        self.scheme.as_ref()
    }

    /// Stable hash of the compressor's error-affecting settings
    /// ([`Compressor::error_settings`]) and its id: the error-dependent
    /// cache key component.
    pub fn error_settings_key(compressor: &dyn Compressor) -> String {
        to_hex(&Self::error_settings_digest(compressor))
    }

    /// The raw digest [`CachedEvaluator::error_settings_key`] renders.
    pub fn error_settings_digest(compressor: &dyn Compressor) -> [u8; 32] {
        let keyed = compressor
            .error_settings()
            .with("compressor:id", compressor.id());
        hash_options(&keyed)
    }

    /// Compute (or reuse) the merged feature structure for `data` under
    /// the compressor's current configuration. `data_key` identifies the
    /// dataset (e.g. `"QRAIN@t07"`); callers are responsible for keying
    /// distinct data distinctly.
    pub fn features(
        &mut self,
        data_key: &str,
        data: &Data,
        compressor: &dyn Compressor,
    ) -> Result<(Options, FeatureTimes)> {
        let mut times = FeatureTimes::default();
        // one pass for both stages: a dependent miss reuses what the
        // agnostic miss before it read, and costs nothing when both hit
        let pass = FeaturePass::new(data);
        let agnostic = match self.agnostic.get(data_key) {
            Some(cached) => {
                self.counters.agnostic_hits += 1;
                pressio_obs::add_counter("evaluator:agnostic.hit", 1);
                cached.clone()
            }
            None => {
                let (result, ms) = time_ms(|| self.scheme.error_agnostic_from(&pass));
                let features = result?;
                times.error_agnostic_ms = Some(ms);
                self.counters.agnostic_misses += 1;
                pressio_obs::add_counter("evaluator:agnostic.miss", 1);
                pressio_obs::record_ms("evaluator:error_agnostic", ms);
                self.agnostic.insert(data_key.to_string(), features.clone());
                features
            }
        };
        let dep_key = (data_key.to_string(), Self::error_settings_key(compressor));
        let dependent = match self.dependent.get(&dep_key) {
            Some(cached) => {
                self.counters.dependent_hits += 1;
                pressio_obs::add_counter("evaluator:dependent.hit", 1);
                cached.clone()
            }
            None => {
                let (result, ms) = time_ms(|| self.scheme.error_dependent_from(&pass, compressor));
                let features = result?;
                times.error_dependent_ms = Some(ms);
                self.counters.dependent_misses += 1;
                pressio_obs::add_counter("evaluator:dependent.miss", 1);
                pressio_obs::record_ms("evaluator:error_dependent", ms);
                self.dependent.insert(dep_key, features.clone());
                features
            }
        };
        let mut merged = agnostic;
        merged.merge_from(&dependent);
        Ok((merged, times))
    }

    /// Apply a Figure-4-style invalidation list. Recognized entries:
    /// the special classes (`predictors:error_agnostic`,
    /// `predictors:error_dependent`, `predictors:runtime`,
    /// `predictors:nondeterministic`), a dataset key (clears both classes
    /// for that dataset), or a concrete setting name (clears the
    /// error-dependent class, conservatively).
    pub fn invalidate(&mut self, keys: &[&str]) {
        for &key in keys {
            match key {
                invalidations::ERROR_AGNOSTIC => self.agnostic.clear(),
                invalidations::ERROR_DEPENDENT
                | invalidations::RUNTIME
                | invalidations::NONDETERMINISTIC => self.dependent.clear(),
                invalidations::TRAINING => { /* training results are not cached here */ }
                other => {
                    if self.agnostic.contains_key(other) {
                        self.agnostic.remove(other);
                        self.dependent.retain(|(dk, _), _| dk != other);
                    } else {
                        // a concrete compressor setting changed
                        self.dependent.clear();
                    }
                }
            }
        }
    }

    /// Cache statistics.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }
}

/// What [`cross_validate`] measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrossValidation {
    /// The out-of-sample prediction for each observation, by index.
    pub predictions: Vec<f64>,
    /// Milliseconds of each fit, in the order the folds ran (empty for a
    /// scheme without training).
    pub fit_ms: Vec<f64>,
    /// Milliseconds of each inference, in the order they ran.
    pub inference_ms: Vec<f64>,
}

impl CrossValidation {
    /// [`cross_validate`]'s result from the runs of its folds, in fold
    /// order, over `n` observations: an error if one is in no fold's
    /// validation groups.
    pub fn from_folds(
        n: usize,
        runs: impl IntoIterator<Item = FoldRun>,
    ) -> Result<CrossValidation> {
        let (mut cv, mut predictions) = (CrossValidation::default(), vec![None; n]);
        for run in runs {
            cv.fit_ms.extend(run.fit_ms);
            cv.inference_ms.extend(run.inference_ms);
            run.predictions
                .into_iter()
                .for_each(|(i, p)| predictions[i] = Some(p));
        }
        cv.predictions = predictions
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                p.ok_or_else(|| Error::InvalidValue {
                    key: "folds".into(),
                    reason: format!("observation {i} is in no fold's validation groups"),
                })
            })
            .collect::<Result<_>>()?;
        Ok(cv)
    }
}

/// What one fold of [`cross_validate`] measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FoldRun {
    /// Each observation of the validation groups, in the order predicted,
    /// with its prediction.
    pub predictions: Vec<(usize, f64)>,
    /// Milliseconds of the fit (`None` for a scheme without training).
    pub fit_ms: Option<f64>,
    /// Milliseconds of each inference, in the same order.
    pub inference_ms: Vec<f64>,
}

/// One fold of [`cross_validate`]: a fresh predictor fit on the
/// observations of `fold`'s training groups — groups in the order the fold
/// lists them, each group's observations in index order — then asked for
/// those of its validation groups. A scheme without training is not fit.
pub fn cross_validate_fold(
    scheme: &dyn Scheme,
    features: &[Options],
    truths: &[f64],
    groups: &[usize],
    fold: &Fold,
) -> Result<FoldRun> {
    let observations = |of: &[usize]| -> Vec<usize> {
        of.iter()
            .flat_map(|&g| (0..groups.len()).filter(move |&i| groups[i] == g))
            .collect()
    };
    let (mut run, mut predictor) = (FoldRun::default(), scheme.make_predictor());
    if predictor.requires_training() {
        let train = observations(&fold.train);
        let train_f: Vec<Options> = train.iter().map(|&i| features[i].clone()).collect();
        let train_t: Vec<f64> = train.iter().map(|&i| truths[i]).collect();
        let (fitted, ms) = time_ms(|| predictor.fit(&train_f, &train_t));
        run.fit_ms = Some(fitted.map(|()| ms)?);
    }
    for i in observations(&fold.validate) {
        let (p, ms) = time_ms(|| predictor.predict(&features[i]));
        run.predictions.push((i, p?));
        run.inference_ms.push(ms);
    }
    Ok(run)
}

/// The k-fold protocol of Table 2 (and of the Black-Box paper): predict
/// every observation with a predictor that never saw its group.
///
/// `groups[i]` is the group of observation `i` (Table 2's dataset) and the
/// folds split group indices; each runs as [`cross_validate_fold`]. A
/// scheme without training predicts every observation once, in index
/// order, with no fit.
pub fn cross_validate(
    scheme: &dyn Scheme,
    features: &[Options],
    truths: &[f64],
    groups: &[usize],
    folds: &[Fold],
) -> Result<CrossValidation> {
    let untrained = scheme.make_predictor();
    if !untrained.requires_training() {
        let mut cv = CrossValidation::default();
        for f in features {
            let (p, ms) = time_ms(|| untrained.predict(f));
            cv.predictions.push(p?);
            cv.inference_ms.push(ms);
        }
        return Ok(cv);
    }
    let runs = folds
        .iter()
        .map(|fold| cross_validate_fold(scheme, features, truths, groups, fold))
        .collect::<Result<Vec<_>>>()?;
    CrossValidation::from_folds(features.len(), runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{IdentityPredictor, Predictor};
    use crate::scheme::SchemeInfo;
    use crate::schemes::{KhanScheme, KrasowskaScheme, RahmanScheme};
    use pressio_core::hash::hash_options_hex;
    use pressio_core::Options as Opts;
    use pressio_stats::k_folds;
    use pressio_sz::SzCompressor;

    fn data() -> Data {
        Data::from_f32(
            vec![32, 32],
            (0..1024).map(|i| (i as f32 * 0.01).sin()).collect(),
        )
    }

    fn sz(abs: f64) -> SzCompressor {
        let mut c = SzCompressor::new();
        c.set_options(&Opts::new().with("pressio:abs", abs))
            .unwrap();
        c
    }

    /// Each codec's own error settings are the subset of its options its
    /// configuration names, so the key is the digest it was when it was
    /// read from both structures.
    #[test]
    fn error_settings_key_is_read_from_the_error_settings_alone() {
        let from_both = |c: &dyn Compressor| {
            let keys = c.get_configuration();
            let keys = keys
                .get_str_slice("predictors:error_dependent_settings")
                .unwrap();
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            let subset = c.get_options().extract(&keys);
            hash_options_hex(&subset.with("compressor:id", c.id()))
        };
        let settings = [
            ("sz3", Opts::new()),
            ("sz3", Opts::new().with("pressio:abs", 1e-3)),
            (
                "sz3",
                Opts::new()
                    .with("pressio:rel", 1e-2)
                    .with("sz3:predictor", "lorenzo")
                    .with("sz3:block_size", 8u64)
                    .with("pressio:nthreads", 2u64),
            ),
            ("zfp", Opts::new()),
            (
                "zfp",
                Opts::new()
                    .with("zfp:mode", "rate")
                    .with("zfp:rate", 12.5)
                    .with("zfp:precision", 20u64),
            ),
            (
                "zfp",
                Opts::new()
                    .with("pressio:abs", 1e-6)
                    .with("pressio:rel", 1e-3),
            ),
        ];
        for (id, settings) in settings {
            let mut c = crate::standard_compressors().build(id).unwrap();
            c.set_options(&settings).unwrap();
            let key = CachedEvaluator::error_settings_key(c.as_ref());
            assert_eq!(key, from_both(c.as_ref()), "{id} {settings}");
        }
    }

    #[test]
    fn repeated_queries_hit_both_caches() {
        let mut ev = CachedEvaluator::new(Box::new(KrasowskaScheme));
        let d = data();
        let c = sz(1e-4);
        let (_, t1) = ev.features("d0", &d, &c).unwrap();
        assert!(t1.error_agnostic_ms.is_some());
        assert!(t1.error_dependent_ms.is_some());
        let (_, t2) = ev.features("d0", &d, &c).unwrap();
        assert_eq!(t2, FeatureTimes::default(), "second call must be all-cache");
        let counters = ev.counters();
        assert_eq!(counters.agnostic_hits, 1);
        assert_eq!(counters.dependent_hits, 1);
    }

    #[test]
    fn changing_error_bound_misses_only_dependent_cache() {
        let mut ev = CachedEvaluator::new(Box::new(KrasowskaScheme));
        let d = data();
        ev.features("d0", &d, &sz(1e-4)).unwrap();
        let (_, t) = ev.features("d0", &d, &sz(1e-2)).unwrap();
        assert!(t.error_agnostic_ms.is_none(), "agnostic must be reused");
        assert!(t.error_dependent_ms.is_some(), "dependent must recompute");
    }

    #[test]
    fn changing_runtime_setting_hits_dependent_cache() {
        // sz3:predictor is declared runtime-only, not error-affecting
        let mut ev = CachedEvaluator::new(Box::new(KrasowskaScheme));
        let d = data();
        let mut a = sz(1e-4);
        a.set_options(&Opts::new().with("sz3:predictor", "lorenzo"))
            .unwrap();
        let mut b = sz(1e-4);
        b.set_options(&Opts::new().with("sz3:predictor", "interp"))
            .unwrap();
        ev.features("d0", &d, &a).unwrap();
        let (_, t) = ev.features("d0", &d, &b).unwrap();
        assert!(
            t.error_dependent_ms.is_none(),
            "error-agnostic setting change must not invalidate"
        );
    }

    #[test]
    fn distinct_datasets_do_not_collide() {
        let mut ev = CachedEvaluator::new(Box::new(KrasowskaScheme));
        let d0 = data();
        let d1 = Data::from_f32(vec![16], (0..16).map(|i| i as f32).collect());
        let c = sz(1e-4);
        let (f0, _) = ev.features("d0", &d0, &c).unwrap();
        let (f1, _) = ev.features("d1", &d1, &c).unwrap();
        assert_ne!(
            f0.get_f64("qent:entropy").unwrap(),
            f1.get_f64("qent:entropy").unwrap()
        );
    }

    #[test]
    fn explicit_invalidation_forces_recompute() {
        let mut ev = CachedEvaluator::new(Box::new(KrasowskaScheme));
        let d = data();
        let c = sz(1e-4);
        ev.features("d0", &d, &c).unwrap();
        ev.invalidate(&[invalidations::ERROR_DEPENDENT]);
        let (_, t) = ev.features("d0", &d, &c).unwrap();
        assert!(t.error_dependent_ms.is_some());
        assert!(t.error_agnostic_ms.is_none());

        ev.invalidate(&[invalidations::ERROR_AGNOSTIC]);
        let (_, t) = ev.features("d0", &d, &c).unwrap();
        assert!(t.error_agnostic_ms.is_some());
    }

    #[test]
    fn dataset_key_invalidation_clears_both_classes() {
        let mut ev = CachedEvaluator::new(Box::new(KrasowskaScheme));
        let d = data();
        let c = sz(1e-4);
        ev.features("d0", &d, &c).unwrap();
        ev.invalidate(&["d0"]);
        let (_, t) = ev.features("d0", &d, &c).unwrap();
        assert!(t.error_agnostic_ms.is_some());
        assert!(t.error_dependent_ms.is_some());
    }

    /// Fit on some groups, it predicts the index of the observation it is
    /// handed, or −1 for an observation of a group it was fit on.
    struct Spy {
        seen: Vec<f64>,
    }

    impl Predictor for Spy {
        fn requires_training(&self) -> bool {
            true
        }
        fn fit(&mut self, features: &[Opts], _targets: &[f64]) -> Result<()> {
            self.seen = features
                .iter()
                .map(|f| f.get_f64("group"))
                .collect::<Result<_>>()?;
            Ok(())
        }
        fn predict(&self, features: &Opts) -> Result<f64> {
            let own = self.seen.contains(&features.get_f64("group")?);
            Ok(if own { -1.0 } else { features.get_f64("obs")? })
        }
        fn state(&self) -> Result<Vec<u8>> {
            Ok(Vec::new())
        }
        fn load_state(&mut self, _bytes: &[u8]) -> Result<()> {
            Ok(())
        }
    }

    /// `cross_validate` reads nothing of a scheme but its predictor.
    struct SpyScheme {
        trained: bool,
    }

    impl Scheme for SpyScheme {
        fn info(&self) -> SchemeInfo {
            unimplemented!()
        }
        fn supports(&self, _id: &str) -> bool {
            unimplemented!()
        }
        fn error_agnostic_from(&self, _pass: &FeaturePass<'_>) -> Result<Opts> {
            unimplemented!()
        }
        fn error_dependent_from(&self, _: &FeaturePass<'_>, _: &dyn Compressor) -> Result<Opts> {
            unimplemented!()
        }
        fn make_predictor(&self) -> Box<dyn Predictor> {
            match self.trained {
                true => Box::new(Spy { seen: Vec::new() }),
                false => Box::new(IdentityPredictor::new("obs")),
            }
        }
        fn feature_keys(&self) -> Vec<String> {
            unimplemented!()
        }
    }

    #[test]
    fn cross_validation_predicts_each_observation_once_out_of_its_group() {
        // 14 observations in 5 groups, interleaved, two of them alone
        let groups: Vec<usize> = (0..12).map(|i| i % 3).chain([3, 4]).collect();
        let features: Vec<Opts> = groups
            .iter()
            .enumerate()
            .map(|(i, &g)| Opts::new().with("obs", i as f64).with("group", g as f64))
            .collect();
        let truths = vec![1.0; groups.len()];
        let everyone: Vec<f64> = (0..groups.len()).map(|i| i as f64).collect();
        let trained = SpyScheme { trained: true };
        for k in [2, 3, 5] {
            let folds = k_folds(5, k, 7);
            let cv = cross_validate(&trained, &features, &truths, &groups, &folds).unwrap();
            assert_eq!(cv.predictions, everyone, "k = {k}");
            assert_eq!(cv.inference_ms.len(), groups.len(), "k = {k}");
            assert_eq!(cv.fit_ms.len(), k);
        }
        let untrained = SpyScheme { trained: false };
        let cv =
            cross_validate(&untrained, &features, &truths, &groups, &k_folds(5, 2, 7)).unwrap();
        assert_eq!(cv.predictions, everyone);
        assert_eq!(cv.inference_ms.len(), groups.len());
        assert!(cv.fit_ms.is_empty(), "no fit without training");
        // a group no fold validates is an error, not a silent gap
        let mut partial = k_folds(5, 5, 7);
        partial.pop();
        assert!(cross_validate(&trained, &features, &truths, &groups, &partial).is_err());
    }

    /// `cross_validate` is its folds run one by one: assembled from
    /// `cross_validate_fold`, a trained scheme (rahman's forest) and an
    /// untrained one (khan's identity) give the same prediction bits and
    /// the same fits.
    #[test]
    fn cross_validation_is_its_folds_run_one_by_one() {
        let groups: Vec<usize> = (0..24).map(|i| i % 8).collect();
        let truths: Vec<f64> = (0..24).map(|i| 3.0 + (i as f64 * 0.7).sin()).collect();
        let folds = k_folds(8, 4, 11);
        let schemes: [Box<dyn Scheme>; 2] =
            [Box::new(RahmanScheme::default()), Box::new(KhanScheme)];
        for scheme in &schemes {
            let keys = scheme.feature_keys();
            let row = |i: usize| {
                let values = keys
                    .iter()
                    .enumerate()
                    .map(|(k, key)| (key, (i * (k + 3) % 7) as f64));
                values.fold(Opts::new(), |o, (key, v)| o.with(key.as_str(), 1.0 + v))
            };
            let features: Vec<Opts> = (0..24).map(row).collect();
            let scheme = scheme.as_ref();
            let whole = cross_validate(scheme, &features, &truths, &groups, &folds).unwrap();
            let runs = folds.iter().map(|fold| {
                cross_validate_fold(scheme, &features, &truths, &groups, fold).unwrap()
            });
            let by_fold = CrossValidation::from_folds(features.len(), runs).unwrap();
            let bits = |cv: &CrossValidation| -> Vec<u64> {
                cv.predictions.iter().map(|p| p.to_bits()).collect()
            };
            assert_eq!(bits(&by_fold), bits(&whole));
            assert_eq!(by_fold.fit_ms.len(), whole.fit_ms.len());
            assert_eq!(by_fold.inference_ms.len(), whole.inference_ms.len());
            let trained = scheme.make_predictor().requires_training();
            assert_eq!(whole.fit_ms.len(), if trained { folds.len() } else { 0 });
        }
    }

    #[test]
    fn concrete_setting_invalidation_clears_dependent() {
        let mut ev = CachedEvaluator::new(Box::new(KrasowskaScheme));
        let d = data();
        let c = sz(1e-4);
        ev.features("d0", &d, &c).unwrap();
        ev.invalidate(&["pressio:abs"]);
        let (_, t) = ev.features("d0", &d, &c).unwrap();
        assert!(t.error_agnostic_ms.is_none());
        assert!(t.error_dependent_ms.is_some());
    }
}
