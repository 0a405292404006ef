//! # pressio-dataset
//!
//! The LibPressio-Dataset analog (paper §4.1): a stackable pipeline of
//! dataset plugins with metadata-first loading.
//!
//! - [`plugin`] — the `dataset_plugin` trait with `load_metadata`,
//!   `load_data`, and batch variants.
//! - [`io`] — raw-binary files with shape-encoding names (the `io_loader`).
//! - [`folder`] — directory walking with pattern filtering
//!   (`folder_loader`).
//! - [`cache`] — node-local spill cache keyed by stable option hashes
//!   (`local_cache`).
//! - [`sampler`] — random-block and strided sampling, placed late in the
//!   pipeline exactly as Figure 2 sketches.
//! - [`hurricane`] — deterministic synthetic Hurricane Isabel stand-in
//!   (13 fields × 48 timesteps, mixed sparse/dense).
//! - [`noise`] — the value noise both synthetic generators draw on, by
//!   the point or by the row.
//!
//! A Figure-2-style stack:
//!
//! ```
//! use pressio_dataset::{Hurricane, LocalCache, Sampler, Strategy, DatasetPlugin};
//!
//! let dir = std::env::temp_dir().join("pressio_doc_cache");
//! let source = Hurricane::with_dims(16, 16, 8, 2);
//! let cached = LocalCache::new(Box::new(source), &dir).unwrap();
//! let mut pipeline = Sampler::new(
//!     Box::new(cached),
//!     Strategy::RandomBlocks { shape: vec![8, 8, 8], count: 2, seed: 7 },
//! );
//! // metadata is cheap: no generation or disk I/O happens here
//! let meta = pipeline.load_metadata(0).unwrap();
//! assert_eq!(meta.dims, vec![8, 8, 8, 2]);
//! let sample = pipeline.load_data(0).unwrap();
//! assert_eq!(sample.dims(), &[8, 8, 8, 2]);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod folder;
pub mod hurricane;
pub mod io;
pub mod noise;
pub mod plugin;
pub mod sampler;
pub mod synthetic;

pub use cache::LocalCache;
pub use folder::FolderLoader;
pub use hurricane::{Hurricane, FIELDS, SPARSE_FIELDS, TIMESTEPS};
pub use plugin::{DatasetMeta, DatasetPlugin, MemoryDataset};
pub use sampler::{sample, Sampler, Strategy};
pub use synthetic::SyntheticSuite;
