//! Sampling plugins — the last stage of the Figure 2 pipeline.
//!
//! Because only metadata is needed to configure sampling, the sampler sits
//! near the end of the stack and still avoids loading what it will discard
//! (the wrapped loader is only asked for data when a sample is actually
//! materialized). Two strategies are provided: random block extraction
//! (what Tao 2019 / SECRE-style estimators consume) and strided
//! decimation.

use crate::plugin::{index_error, DatasetMeta, DatasetPlugin};
use pressio_core::error::{Error, Result};
use pressio_core::{Data, Options};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sampling strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Extract `count` random blocks of `shape` (clamped to the data) and
    /// concatenate them along a new slowest axis.
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

    fn sampled_dims(&self, dims: &[usize]) -> Vec<usize> {
        match &self.strategy {
            Strategy::RandomBlocks { shape, count, .. } => {
                let mut d: Vec<usize> = dims
                    .iter()
                    .zip(shape.iter().chain(std::iter::repeat(&usize::MAX)))
                    .map(|(&full, &want)| full.min(want))
                    .collect();
                d.push(*count);
                d
            }
            Strategy::Stride(s) => dims.iter().map(|&d| d.div_ceil((*s).max(1))).collect(),
        }
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
        meta.dims = self.sampled_dims(&meta.dims);
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
/// buffer its loader hands it. The prediction schemes do not come through
/// here; they draw their blocks from the buffer's own feature pass.
pub fn sample(data: &Data, strategy: &Strategy) -> Result<Data> {
    match strategy {
        Strategy::RandomBlocks { shape, count, seed } => {
            let dims = data.dims();
            let block: Vec<usize> = dims
                .iter()
                .zip(shape.iter().chain(std::iter::repeat(&usize::MAX)))
                .map(|(&full, &want)| full.min(want).max(1))
                .collect();
            if *count == 0 {
                return Err(Error::InvalidValue {
                    key: "sampler:count".into(),
                    reason: "need at least one block".into(),
                });
            }
            let mut rng = StdRng::seed_from_u64(*seed);
            let mut out: Vec<f64> = Vec::new();
            for _ in 0..*count {
                let origin: Vec<usize> = dims
                    .iter()
                    .zip(&block)
                    .map(|(&full, &b)| {
                        if full > b {
                            rng.gen_range(0..=full - b)
                        } else {
                            0
                        }
                    })
                    .collect();
                let blk = data.slice_block(&origin, &block)?;
                out.extend(blk.to_f64_vec());
            }
            let mut out_dims = block;
            out_dims.push(*count);
            Ok(match data.dtype() {
                pressio_core::Dtype::F32 => {
                    Data::from_f32(out_dims, out.iter().map(|&v| v as f32).collect())
                }
                _ => Data::from_f64(out_dims, out),
            })
        }
        Strategy::Stride(s) => {
            let s = (*s).max(1);
            let dims = data.dims();
            let out_dims: Vec<usize> = dims.iter().map(|&d| d.div_ceil(s)).collect();
            let vals = data.to_f64_vec();
            let mut strides = vec![1usize; dims.len()];
            for d in 1..dims.len() {
                strides[d] = strides[d - 1] * dims[d - 1];
            }
            let n_out: usize = out_dims.iter().product();
            let mut out = Vec::with_capacity(n_out);
            let mut coord = vec![0usize; dims.len()];
            if n_out > 0 {
                'outer: loop {
                    let idx: usize = coord.iter().zip(&strides).map(|(&c, &st)| c * s * st).sum();
                    out.push(vals[idx]);
                    for d in 0..coord.len() {
                        coord[d] += 1;
                        if coord[d] < out_dims[d] {
                            continue 'outer;
                        }
                        coord[d] = 0;
                    }
                    break;
                }
            }
            Ok(match data.dtype() {
                pressio_core::Dtype::F32 => {
                    Data::from_f32(out_dims, out.iter().map(|&v| v as f32).collect())
                }
                _ => Data::from_f64(out_dims, out),
            })
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
