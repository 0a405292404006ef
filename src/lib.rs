//! # libpressio-predict
//!
//! Facade crate for the Rust reproduction of **"LibPressio-Predict:
//! Flexible and Fast Infrastructure For Inferring Compression
//! Performance"** (Underwood, Rahman, Di, Jin, Khan, Cappello — SC-W 2023).
//!
//! This crate re-exports the workspace so applications can depend on one
//! name:
//!
//! - [`core`] — options, data buffers, compressor/metrics plugin traits,
//!   deterministic option hashing.
//! - [`lossless`] — bitstreams, Huffman, LZSS, entropy tools.
//! - [`sz`] / [`zfp`] — pure-Rust SZ3-like and ZFP-like error-bounded
//!   compressors.
//! - [`dataset`] — stackable dataset-loading pipeline + the synthetic
//!   Hurricane Isabel generator.
//! - [`stats`] — regression, splines, random forests, SVD, k-fold,
//!   conformal intervals.
//! - [`predict`] — the prediction framework: features, predictors, scheme
//!   registry, invalidation-aware evaluation.
//! - [`bench_infra`] — checkpoint store, fault-tolerant task queue, and
//!   the Table 2 experiment driver.
//! - [`obs`] — structured tracing and metrics: spans, counters/gauges,
//!   JSONL event traces, aggregate reports.
//!
//! See `examples/quickstart.rs` for the Figure-4 flow end to end, and the
//! `pressio` tool of the `pressio-cli` crate for the commands that
//! regenerate every table and figure of the paper (`pressio schemes`,
//! `pressio bench [--ablation <name>]`).

pub use pressio_bench_infra as bench_infra;
pub use pressio_core as core;
pub use pressio_dataset as dataset;
pub use pressio_lossless as lossless;
pub use pressio_obs as obs;
pub use pressio_predict as predict;
pub use pressio_stats as stats;
pub use pressio_stream as stream;
pub use pressio_sz as sz;
pub use pressio_zfp as zfp;

/// Workspace version, for reporting in experiment metadata.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_are_wired() {
        let schemes = crate::predict::standard_schemes();
        assert!(schemes.len() >= 7);
        let compressors = crate::predict::standard_compressors();
        assert_eq!(compressors.names(), vec!["sz3", "zfp"]);
        assert!(!crate::VERSION.is_empty());
    }
}
