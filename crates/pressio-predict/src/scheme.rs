//! The `scheme_plugin` abstraction (paper §4.2): a scheme bundles the
//! metrics a prediction method needs, their invalidation classes, and a
//! factory for the matching predictor — so applications can switch methods
//! without knowing their internals (Figure 4).

use crate::features::{FeaturePass, PassChain};
use crate::predictor::Predictor;
use pressio_core::error::Result;
use pressio_core::{Compressor, Data, Options};

/// Capability metadata — one row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeInfo {
    /// Registry name (`"tao2019"`, ...).
    pub name: &'static str,
    /// Bibliographic reference.
    pub citation: &'static str,
    /// Whether the scheme has a training stage (Table 1 "training").
    pub training: bool,
    /// Whether it samples the data (Table 1 "sampling").
    pub sampling: bool,
    /// Black-box status: `"yes"`, `"no"`, or `"partial"` (Table 1 "~").
    pub black_box: &'static str,
    /// Design goal: `"fast"` or `"accurate"`.
    pub goal: &'static str,
    /// Metrics predicted (`"CR"`, `"CR, Bandwidth"`, ...).
    pub metrics: &'static str,
    /// Approach family (`"trial-based"`, `"regression"`, `"calculation"`,
    /// `"machine learning"`, `"deep learning"`).
    pub approach: &'static str,
    /// Special features (`"bounded"`, `"counterfactuals"`, or `""`).
    pub features: &'static str,
}

/// A prediction scheme: feature extraction split by invalidation class,
/// plus a predictor factory.
pub trait Scheme: Send {
    /// Capability metadata (regenerates Table 1).
    fn info(&self) -> SchemeInfo;

    /// Whether the scheme can model this compressor in its current
    /// configuration (e.g. the Jin model is SZ-specific — its ZFP cell in
    /// Table 2 is N/A).
    fn supports(&self, compressor_id: &str) -> bool;

    /// Compute the error-agnostic features (depend only on the data) from
    /// a buffer's feature pass. Schemes without any return an empty
    /// structure.
    fn error_agnostic_from(&self, pass: &FeaturePass<'_>) -> Result<Options>;

    /// Compute the error-dependent features (depend on error-affecting
    /// compressor settings, notably `pressio:abs`) from a buffer's feature
    /// pass. Handed the pass the error-agnostic stage ran on, it re-reads
    /// nothing that stage already worked out.
    fn error_dependent_from(
        &self,
        pass: &FeaturePass<'_>,
        compressor: &dyn Compressor,
    ) -> Result<Options>;

    /// The chains of a pass this scheme's stages read of every buffer,
    /// for a caller that runs them side by side ahead of the stages
    /// ([`crate::features::with_chains_ahead`]). None by default.
    fn pass_chains(&self) -> &'static [PassChain] {
        &[]
    }

    /// [`Scheme::error_agnostic_from`] on a pass of its own, for a caller
    /// that runs this stage alone.
    fn error_agnostic_features(&self, data: &Data) -> Result<Options> {
        self.error_agnostic_from(&FeaturePass::new(data))
    }

    /// [`Scheme::error_dependent_from`] on a pass of its own, for a caller
    /// that runs this stage alone.
    fn error_dependent_features(
        &self,
        data: &Data,
        compressor: &dyn Compressor,
    ) -> Result<Options> {
        self.error_dependent_from(&FeaturePass::new(data), compressor)
    }

    /// Figure 4's feature vector: the error-agnostic features with the
    /// error-dependent ones merged over them, both stages read through one
    /// pass over `data`. This is what a predictor consumes.
    fn features(&self, data: &Data, compressor: &dyn Compressor) -> Result<Options> {
        self.features_from(&FeaturePass::new(data), compressor)
    }

    /// [`Scheme::features`] on a pass the caller holds, for one that reads
    /// more of the same buffer.
    fn features_from(
        &self,
        pass: &FeaturePass<'_>,
        compressor: &dyn Compressor,
    ) -> Result<Options> {
        let mut features = self.error_agnostic_from(pass)?;
        features.merge_from(&self.error_dependent_from(pass, compressor)?);
        Ok(features)
    }

    /// Collect the training-only observation for one dataset — by default
    /// the ground truth: run the compressor and return the actual ratio.
    /// This is the "Training (ms)" column of Table 2 (≈ compression time).
    fn training_observation(&self, data: &Data, compressor: &dyn Compressor) -> Result<f64> {
        let compressed = compressor.compress(data)?;
        Ok(data.size_in_bytes() as f64 / compressed.len().max(1) as f64)
    }

    /// Instantiate the predictor this scheme pairs with.
    fn make_predictor(&self) -> Box<dyn Predictor>;

    /// Names of the feature keys the predictor consumes (for diagnostics
    /// and for `extract`-style narrowing as in Figure 4).
    fn feature_keys(&self) -> Vec<String>;
}

/// Render Table 1 from live scheme metadata.
pub fn format_table1(schemes: &[&dyn Scheme]) -> String {
    let mut out = String::new();
    out.push_str(
        "| method | training | sampling | black-box | goal | metrics | approach | features |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for s in schemes {
        let i = s.info();
        let bb = match i.black_box {
            "yes" => "✓",
            "no" => "✗",
            _ => "~",
        };
        out.push_str(&format!(
            "| {} [{}] | {} | {} | {} | {} | {} | {} | {} |\n",
            i.name,
            i.citation,
            if i.training { "✓" } else { "✗" },
            if i.sampling { "✓" } else { "✗" },
            bb,
            i.goal,
            i.metrics,
            i.approach,
            i.features,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::IdentityPredictor;

    struct Dummy;

    impl Scheme for Dummy {
        fn info(&self) -> SchemeInfo {
            SchemeInfo {
                name: "dummy",
                citation: "Nobody 2099",
                training: false,
                sampling: true,
                black_box: "partial",
                goal: "fast",
                metrics: "CR",
                approach: "trial-based",
                features: "",
            }
        }
        fn supports(&self, id: &str) -> bool {
            id == "sz3"
        }
        fn error_agnostic_from(&self, _pass: &FeaturePass<'_>) -> Result<Options> {
            Ok(Options::new())
        }
        fn error_dependent_from(
            &self,
            _pass: &FeaturePass<'_>,
            _compressor: &dyn Compressor,
        ) -> Result<Options> {
            Ok(Options::new().with("dummy:ratio", 2.0))
        }
        fn make_predictor(&self) -> Box<dyn Predictor> {
            Box::new(IdentityPredictor::new("dummy:ratio"))
        }
        fn feature_keys(&self) -> Vec<String> {
            vec!["dummy:ratio".to_string()]
        }
    }

    #[test]
    fn table1_renders_metadata() {
        let d = Dummy;
        let t = format_table1(&[&d]);
        assert!(t.contains("dummy [Nobody 2099]"));
        assert!(t.contains("| ✗ | ✓ | ~ |"));
        assert!(t.contains("trial-based"));
    }

    #[test]
    fn supports_filters_compressors() {
        let d = Dummy;
        assert!(d.supports("sz3"));
        assert!(!d.supports("zfp"));
    }
}
