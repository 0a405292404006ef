//! `tao2019` — block-sampling trial compression (Tao 2019, expanded in
//! Liang 2019): compress a handful of sampled blocks with the *actual*
//! compressor and report the average ratio. No training, not very accurate,
//! but only needs to preserve the ranking between compressors (§2.2).

use crate::features::{origins, FeaturePass};
use crate::predictor::{IdentityPredictor, Predictor};
use crate::scheme::{Scheme, SchemeInfo};
use pressio_core::bound::ErrorBound;
use pressio_core::error::Result;
use pressio_core::{Blocks, Compressor, Options};

/// The Tao (2019) trial-based sampling scheme.
#[derive(Debug, Clone)]
pub struct TaoScheme {
    /// Edge length of each sampled block.
    pub block_edge: usize,
    /// Number of sampled blocks.
    pub block_count: usize,
    /// Sampling seed (pinned: the metric is `predictors:nondeterministic`
    /// only if callers vary it).
    pub seed: u64,
}

impl Default for TaoScheme {
    fn default() -> Self {
        // block size chosen relative to compressor internals in the
        // original design; 16^d blocks cover whole SZ regression tiles and
        // multiple ZFP blocks
        TaoScheme {
            block_edge: 16,
            block_count: 8,
            seed: 0x7A0,
        }
    }
}

impl Scheme for TaoScheme {
    fn info(&self) -> SchemeInfo {
        SchemeInfo {
            name: "tao2019",
            citation: "Tao 2019",
            training: false,
            sampling: true,
            black_box: "partial",
            goal: "fast",
            metrics: "CR",
            approach: "trial-based",
            features: "",
        }
    }

    fn supports(&self, _compressor_id: &str) -> bool {
        true // trial-based: works with any compressor
    }

    fn error_agnostic_from(&self, _pass: &FeaturePass<'_>) -> Result<Options> {
        Ok(Options::new())
    }

    fn error_dependent_from(
        &self,
        pass: &FeaturePass<'_>,
        compressor: &dyn Compressor,
    ) -> Result<Options> {
        let data = pass.data();
        // a relative bound is the buffer's, not each block's: the blocks are
        // compressed at the absolute bound it resolves to on the buffer
        let pinned = match ErrorBound::of(&compressor.get_options()) {
            Ok(bound) if bound.rel.is_some() => {
                let abs = bound.resolve(|| pass.value_range());
                let mut pinned = compressor.clone_box();
                pinned.set_options(&ErrorBound { abs, rel: None }.options())?;
                Some(pinned)
            }
            _ => None,
        };
        let compressor = pinned.as_deref().unwrap_or(compressor);
        let blocks = Blocks {
            shape: &[self.block_edge],
            count: self.block_count,
            seed: self.seed,
            align: 1,
        };
        let shape = blocks.block(data.dims());
        let mut uncompressed = 0usize;
        let mut compressed = 0usize;
        for origin in origins(&blocks, data.dims(), &shape) {
            let block = data.slice_block(&origin, &shape)?;
            let bytes = compressor.compress(&block)?;
            uncompressed += block.size_in_bytes();
            compressed += bytes.len();
        }
        let ratio = uncompressed as f64 / compressed.max(1) as f64;
        Ok(Options::new().with("tao:sampled_ratio", ratio))
    }

    fn make_predictor(&self) -> Box<dyn Predictor> {
        Box::new(IdentityPredictor::new("tao:sampled_ratio"))
    }

    fn feature_keys(&self) -> Vec<String> {
        vec!["tao:sampled_ratio".to_string()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_core::Data;
    use pressio_sz::SzCompressor;

    fn smooth(n: usize) -> Data {
        Data::from_f32(
            vec![n, n],
            (0..n * n).map(|i| ((i % n) as f32 * 0.1).sin()).collect(),
        )
    }

    #[test]
    fn sampled_ratio_tracks_true_ratio_within_factor() {
        let data = smooth(64);
        let sz = SzCompressor::new();
        let scheme = TaoScheme::default();
        let f = scheme.error_dependent_features(&data, &sz).unwrap();
        let sampled = f.get_f64("tao:sampled_ratio").unwrap();
        let truth = data.size_in_bytes() as f64 / sz.compress(&data).unwrap().len() as f64;
        // trial sampling carries per-block header overhead, so on highly
        // compressible data it *underestimates* substantially — the paper
        // calls the method "not very accurate"; it only needs to preserve
        // compressor rankings. Expect the right order of magnitude.
        assert!(
            sampled > truth / 10.0 && sampled < truth * 10.0,
            "sampled {sampled} vs truth {truth}"
        );
        assert!(
            sampled > 1.0,
            "sampled ratio must still show compressibility"
        );
    }

    #[test]
    fn end_to_end_with_identity_predictor() {
        let data = smooth(32);
        let sz = SzCompressor::new();
        let scheme = TaoScheme::default();
        let f = scheme.error_dependent_features(&data, &sz).unwrap();
        let p = scheme.make_predictor();
        assert!(!p.requires_training());
        let pred = p.predict(&f).unwrap();
        assert!(pred > 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = smooth(48);
        let sz = SzCompressor::new();
        let scheme = TaoScheme::default();
        let a = scheme.error_dependent_features(&data, &sz).unwrap();
        let b = scheme.error_dependent_features(&data, &sz).unwrap();
        assert_eq!(
            a.get_f64("tao:sampled_ratio").unwrap(),
            b.get_f64("tao:sampled_ratio").unwrap()
        );
    }

    #[test]
    fn small_data_blocks_clamped() {
        let data = smooth(4); // smaller than block_edge
        let sz = SzCompressor::new();
        let scheme = TaoScheme::default();
        let f = scheme.error_dependent_features(&data, &sz).unwrap();
        assert!(f.get_f64("tao:sampled_ratio").unwrap() > 0.0);
    }
}
