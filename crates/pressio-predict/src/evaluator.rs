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
use pressio_core::error::Result;
use pressio_core::hash::hash_options_hex;
use pressio_core::metrics::invalidations;
use pressio_core::timing::time_ms;
use pressio_core::{Compressor, Data, Options};
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

    /// Stable hash of the compressor's error-affecting settings: the
    /// error-dependent cache key component.
    pub fn error_settings_key(compressor: &dyn Compressor) -> String {
        let cfg = compressor.get_configuration();
        let opts = compressor.get_options();
        let subset = match cfg.get_str_slice("predictors:error_dependent_settings") {
            Ok(keys) => {
                let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
                opts.extract(&refs)
            }
            // unknown compressor metadata: be conservative, use everything
            Err(_) => opts,
        };
        let keyed = subset.with("compressor:id", compressor.id());
        hash_options_hex(&keyed)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::KrasowskaScheme;
    use pressio_core::Options as Opts;
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
