//! # pressio-core
//!
//! Core abstractions of the LibPressio-Predict reproduction: typed
//! configuration ([`options::Options`]), n-dimensional data buffers
//! ([`data::Data`]), the error bound every codec holds ([`bound`]), the
//! compressor and metrics plugin traits
//! ([`compressor::Compressor`], [`metrics::MetricsPlugin`]), plugin
//! registries, deterministic option hashing ([`hash`]), the n-d gather and
//! block draw every sampler reads through ([`lattice`]), the one way a file
//! is replaced on disk ([`fs::publish`]), and timing helpers.
//!
//! These mirror the roles of `pressio_options`, `pressio_data`,
//! `libpressio_compressor_plugin`, and `libpressio_metrics_plugin` in the C++
//! LibPressio library the paper builds on (Underwood et al., SC-W 2023).
//!
//! ## Quick example
//!
//! ```
//! use pressio_core::options::Options;
//! use pressio_core::hash::hash_options_hex;
//!
//! let cfg = Options::new()
//!     .with("pressio:abs", 1e-6)
//!     .with("sz3:predictor", "lorenzo");
//! // deterministic across runs: suitable as a checkpoint-database key
//! let key = hash_options_hex(&cfg);
//! assert_eq!(key.len(), 64);
//! ```

#![warn(missing_docs)]
// one exception: the SHA-NI kernel module, `hash::sha_ni`
#![deny(unsafe_code)]

pub mod bound;
pub mod chunking;
pub mod compressor;
pub mod data;
pub mod error;
pub mod external;
pub mod fs;
pub mod fuzz;
pub mod hash;
pub mod lanes;
pub mod lattice;
pub mod metrics;
pub mod options;
pub mod registry;
pub mod threads;
pub mod timing;
pub mod value;

pub use compressor::{Compressor, InstrumentedCompressor};
pub use data::{Data, Dtype, Elements};
pub use error::{Error, Result};
pub use lattice::{gather, Blocks};
pub use metrics::MetricsPlugin;
pub use options::Options;
pub use registry::Registry;
pub use value::Value;
