//! # pressio-predict
//!
//! The paper's primary contribution: a lightweight, extendable framework
//! for describing, implementing, and using methods that predict compression
//! performance without running the compressor (Underwood et al., SC-W 2023).
//!
//! - [`features`] — the metric computations prediction methods consume,
//!   partitioned into error-agnostic and error-dependent classes (§4.2).
//! - [`predictor`] — the `predict_plugin` trait (`fit`/`predict`,
//!   serializable state) and seven predictor families: identity
//!   ("simple"), and six `LogSpaceModel`s sharing one fit, predict and
//!   state — linear, spline-GAM, random forest, conformal forest, Gaussian
//!   process and MLP.
//! - [`bandwidth`] — compression time, predicted by the random forest over
//!   its own features.
//! - [`scheme`] / [`schemes`] — the `scheme_plugin` trait with
//!   self-describing capability metadata (regenerates Table 1) and the ten
//!   registered methods. [`Scheme::features`] builds Figure 4's feature
//!   vector, both stages read through one pass over the buffer.
//! - [`evaluator`] — invalidation-aware feature caching (Figure 4's `invs`
//!   flow; the answer to the paper's Q1), and [`cross_validate`], the
//!   k-fold protocol behind Table 2's MedAPE.
//! - [`registry`] — name-based scheme and compressor registries.
//!
//! ## Figure 4, in Rust
//!
//! ```
//! use pressio_core::{Compressor, Data, Options};
//! use pressio_predict::registry::{standard_compressors, standard_schemes};
//! use pressio_predict::evaluator::CachedEvaluator;
//!
//! // get a scheme and a predictor for a compressor
//! let schemes = standard_schemes();
//! let scheme = schemes.build("khan2023").unwrap();
//! let mut comp = standard_compressors().build("sz3").unwrap();
//! comp.set_options(&Options::new().with("pressio:abs", 1e-4)).unwrap();
//! assert!(scheme.supports(comp.id()));
//!
//! // evaluate the metrics the scheme needs (with invalidation tracking)
//! let data = Data::from_f32(vec![32, 32],
//!     (0..1024).map(|i| (i as f32 * 0.02).sin()).collect());
//! let mut eval = CachedEvaluator::new(scheme);
//! let (features, _times) = eval.features("demo", &data, comp.as_ref()).unwrap();
//!
//! // predict
//! let predictor = eval.scheme().make_predictor();
//! let estimated_ratio = predictor.predict(&features).unwrap();
//! assert!(estimated_ratio > 1.0);
//! ```

#![warn(missing_docs)]

pub mod bandwidth;
pub mod evaluator;
pub mod features;
pub mod predictor;
pub mod registry;
pub mod scheme;
pub mod schemes;

pub use bandwidth::{bandwidth_features, bandwidth_model};
pub use evaluator::{
    cross_validate, CacheCounters, CachedEvaluator, CrossValidation, FeatureTimes,
};
pub use predictor::{
    ConformalForestPredictor, ForestPredictor, GpPredictor, IdentityPredictor, LinearPredictor,
    MlpPredictor, Predictor, SplinePredictor,
};
pub use registry::{standard_compressors, standard_schemes};
pub use scheme::{format_table1, Scheme, SchemeInfo};
