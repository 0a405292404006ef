//! Sampling plugins — the last stage of the Figure 2 pipeline.
//!
//! Because only metadata is needed to configure sampling, the sampler sits
//! near the end of the stack and still avoids loading what it will discard
//! (the wrapped loader is only asked for data when a sample is actually
//! materialized). Two strategies are provided: random block extraction
//! (what Tao 2019 / SECRE-style estimators consume) and strided
//! decimation, both read through `pressio_core::lattice`: random blocks
//! come from its [`Blocks`] draw, which the block-sampling prediction
//! schemes draw from too, and every sample is copied out by its gather.

use crate::plugin::{index_error, DatasetMeta, DatasetPlugin};
use pressio_core::error::{Error, Result};
use pressio_core::{Blocks, Data, Options};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sampling strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Extract `count` random blocks of `shape` (clamped to the data; an
    /// axis past the end of `shape` is taken whole) and concatenate them
    /// along a new slowest axis.
    RandomBlocks {
        /// Edge lengths of each block (fastest dim first; clamped).
        shape: Vec<usize>,
        /// Number of blocks.
        count: usize,
        /// RNG seed (block sampling is `predictors:nondeterministic` unless
        /// the seed is pinned, which this field does).
        seed: u64,
    },
    /// Keep every `stride`-th element along each axis.
    Stride(usize),
}

impl Strategy {
    /// The shape of what this strategy makes of a buffer of shape `dims`:
    /// what [`Sampler::load_metadata`] reports and [`sample`] returns.
    fn sampled_dims(&self, dims: &[usize]) -> Vec<usize> {
        match self {
            Strategy::RandomBlocks { shape, count, seed } => {
                let mut d = draw(&whole_past_the_end(shape), *count, *seed).block(dims);
                d.push(*count);
                d
            }
            Strategy::Stride(s) => dims.iter().map(|&d| d.div_ceil((*s).max(1))).collect(),
        }
    }
}

/// A random-block strategy's edges as a [`Blocks`] reads them.
fn whole_past_the_end(shape: &[usize]) -> Vec<usize> {
    shape.iter().copied().chain([usize::MAX]).collect()
}

/// A random-block strategy's draw.
fn draw(edges: &[usize], count: usize, seed: u64) -> Blocks<'_> {
    Blocks {
        shape: edges,
        count,
        seed,
        align: 1,
    }
}

/// Sampling wrapper around another [`DatasetPlugin`].
pub struct Sampler {
    inner: Box<dyn DatasetPlugin>,
    strategy: Strategy,
}

impl Sampler {
    /// Wrap `inner` with the given strategy.
    pub fn new(inner: Box<dyn DatasetPlugin>, strategy: Strategy) -> Sampler {
        Sampler { inner, strategy }
    }
}

impl DatasetPlugin for Sampler {
    fn id(&self) -> &'static str {
        "sampler"
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn load_metadata(&mut self, index: usize) -> Result<DatasetMeta> {
        let mut meta = self.inner.load_metadata(index)?;
        meta.dims = self.strategy.sampled_dims(&meta.dims);
        meta.attributes.set(
            "sampler:strategy",
            match self.strategy {
                Strategy::RandomBlocks { .. } => "random_blocks",
                Strategy::Stride(_) => "stride",
            },
        );
        Ok(meta)
    }

    fn load_data(&mut self, index: usize) -> Result<Data> {
        if index >= self.inner.len() {
            return Err(index_error(index, self.inner.len()));
        }
        let full = self.inner.load_data(index)?;
        sample(&full, &self.strategy)
    }

    fn set_options(&mut self, opts: &Options) -> Result<()> {
        self.inner.set_options(opts)
    }

    fn get_options(&self) -> Options {
        let mut o = self.inner.get_options();
        match &self.strategy {
            Strategy::RandomBlocks { shape, count, seed } => {
                o.set("sampler:mode", "random_blocks");
                o.set(
                    "sampler:block",
                    shape.iter().map(|&v| v as u64).collect::<Vec<u64>>(),
                );
                o.set("sampler:count", *count as u64);
                o.set("sampler:seed", *seed);
            }
            Strategy::Stride(s) => {
                o.set("sampler:mode", "stride");
                o.set("sampler:stride", *s as u64);
            }
        }
        o
    }
}

/// Apply a strategy to an in-memory buffer: what a [`Sampler`] does to each
/// buffer its loader hands it, in the buffer's own dtype.
pub fn sample(data: &Data, strategy: &Strategy) -> Result<Data> {
    let dims = data.dims();
    let out_dims = strategy.sampled_dims(dims);
    match strategy {
        Strategy::RandomBlocks { count: 0, .. } => Err(Error::InvalidValue {
            key: "sampler:count".into(),
            reason: "need at least one block".into(),
        }),
        Strategy::RandomBlocks { shape, count, seed } => {
            let block = &out_dims[..dims.len()];
            let (edges, mut rng) = (whole_past_the_end(shape), StdRng::seed_from_u64(*seed));
            let origins =
                draw(&edges, *count, *seed).origins(dims, block, |k| rng.gen_range(0..=k));
            Ok(data.gather(dims, &origins, block, 1, out_dims.clone()))
        }
        Strategy::Stride(s) => {
            let origin = [vec![0; dims.len()]];
            Ok(data.gather(dims, &origin, &out_dims, (*s).max(1), out_dims.clone()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::MemoryDataset;

    fn grid_2d(nx: usize, ny: usize) -> Data {
        Data::from_f32(vec![nx, ny], (0..nx * ny).map(|i| i as f32).collect())
    }

    #[test]
    fn stride_sampling_shape_and_values() {
        let data = grid_2d(8, 6);
        let s = sample(&data, &Strategy::Stride(2)).unwrap();
        assert_eq!(s.dims(), &[4, 3]);
        let v = s.as_f32().unwrap();
        // element (0,0)=0, (1,0)=2, (0,1)=16 (row stride 8*2)
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], 2.0);
        assert_eq!(v[4], 16.0);
    }

    #[test]
    fn stride_one_is_identity() {
        let data = grid_2d(5, 4);
        let s = sample(&data, &Strategy::Stride(1)).unwrap();
        assert_eq!(&s, &data);
    }

    #[test]
    fn random_blocks_deterministic_and_in_range() {
        let data = grid_2d(32, 32);
        let strat = Strategy::RandomBlocks {
            shape: vec![4, 4],
            count: 5,
            seed: 42,
        };
        let a = sample(&data, &strat).unwrap();
        let b = sample(&data, &strat).unwrap();
        assert_eq!(a, b, "same seed must give same sample");
        assert_eq!(a.dims(), &[4, 4, 5]);
        for &v in a.as_f32().unwrap() {
            assert!((0.0..1024.0).contains(&v));
        }
        let c = sample(
            &data,
            &Strategy::RandomBlocks {
                shape: vec![4, 4],
                count: 5,
                seed: 43,
            },
        )
        .unwrap();
        assert_ne!(a, c, "different seed should differ");
    }

    #[test]
    fn blocks_larger_than_data_are_clamped() {
        let data = grid_2d(3, 3);
        let s = sample(
            &data,
            &Strategy::RandomBlocks {
                shape: vec![10, 10],
                count: 2,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(s.dims(), &[3, 3, 2]);
    }

    #[test]
    fn sampler_plugin_reports_reduced_metadata() {
        let inner = MemoryDataset::new(vec![("g".into(), grid_2d(16, 16))]);
        let mut s = Sampler::new(
            Box::new(inner),
            Strategy::RandomBlocks {
                shape: vec![4, 4],
                count: 3,
                seed: 7,
            },
        );
        let meta = s.load_metadata(0).unwrap();
        assert_eq!(meta.dims, vec![4, 4, 3]);
        let data = s.load_data(0).unwrap();
        assert_eq!(data.dims(), &[4, 4, 3]);
        assert_eq!(
            meta.attributes.get_str("sampler:strategy").unwrap(),
            "random_blocks"
        );
    }

    /// What the metadata promises is what the data holds: an integer buffer
    /// stays integer, and an empty axis stays empty instead of failing the
    /// load.
    #[test]
    fn metadata_matches_the_sample_in_dims_and_dtype() {
        let ints = Data::from_i32(vec![6, 5], (0..30).collect());
        let empty = Data::from_i32(vec![4, 0, 3], vec![]);
        for strategy in [
            Strategy::RandomBlocks {
                shape: vec![3, 3, 3],
                count: 2,
                seed: 5,
            },
            Strategy::Stride(2),
        ] {
            let inner = MemoryDataset::new(vec![
                ("i".into(), ints.clone()),
                ("e".into(), empty.clone()),
            ]);
            let mut s = Sampler::new(Box::new(inner), strategy.clone());
            for i in 0..s.len() {
                let meta = s.load_metadata(i).unwrap();
                let data = s.load_data(i).unwrap();
                assert_eq!(
                    (meta.dims.as_slice(), meta.dtype),
                    (data.dims(), data.dtype()),
                    "{strategy:?} {i}"
                );
            }
        }
    }

    #[test]
    fn zero_count_errors() {
        let data = grid_2d(4, 4);
        assert!(sample(
            &data,
            &Strategy::RandomBlocks {
                shape: vec![2, 2],
                count: 0,
                seed: 0,
            }
        )
        .is_err());
    }

    #[test]
    fn options_expose_strategy_for_hashing() {
        let inner = MemoryDataset::new(vec![("g".into(), grid_2d(4, 4))]);
        let s = Sampler::new(Box::new(inner), Strategy::Stride(3));
        let o = s.get_options();
        assert_eq!(o.get_str("sampler:mode").unwrap(), "stride");
        assert_eq!(o.get_u64("sampler:stride").unwrap(), 3);
    }
}
