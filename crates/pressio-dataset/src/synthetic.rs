//! Non-weather synthetic dataset families (the paper's future-work item 2:
//! "expand our analysis to non-weather datasets ... different structural
//! patterns are best exploited by different kinds of compressors").
//!
//! Each family stresses a different structure: smooth isotropic
//! turbulence, shock fronts (discontinuities break smooth predictors),
//! oscillatory wave packets (high-frequency but coherent), and
//! plateau/step data (piecewise constant — trivial for dictionaries,
//! awkward for transforms).

use crate::noise::value_noise;
use crate::plugin::{index_error, DatasetMeta, DatasetPlugin};
use pressio_core::error::Result;
use pressio_core::{Data, Dtype, Options};

/// The available field families.
pub const FAMILIES: [&str; 4] = ["turbulence", "shock", "wavepacket", "plateau"];

/// Multi-family synthetic generator; one dataset per (family, realization).
#[derive(Debug, Clone)]
pub struct SyntheticSuite {
    nx: usize,
    ny: usize,
    nz: usize,
    realizations: usize,
    seed: u64,
}

impl SyntheticSuite {
    /// A suite over the given grid with `realizations` instances per
    /// family.
    pub fn new(nx: usize, ny: usize, nz: usize, realizations: usize) -> SyntheticSuite {
        SyntheticSuite {
            nx,
            ny,
            nz,
            realizations,
            seed: 0x57A7,
        }
    }

    /// Change the suite seed.
    pub fn with_seed(mut self, seed: u64) -> SyntheticSuite {
        self.seed = seed;
        self
    }

    /// Generate one field.
    pub fn generate(&self, family: &str, realization: usize) -> Data {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let seed = self.seed ^ (realization as u64).wrapping_mul(0x2545F4914F6CDD1D);
        let s = 6.0 / nx.max(1) as f64;
        let mut out = Vec::with_capacity(nx * ny * nz);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let (xf, yf, zf) = (x as f64, y as f64, z as f64);
                    let v = match family {
                        // fractal turbulence: 3 octaves of value noise
                        "turbulence" => {
                            value_noise(xf * s, yf * s, zf * s, seed)
                                + 0.5
                                    * value_noise(
                                        xf * s * 2.0,
                                        yf * s * 2.0,
                                        zf * s * 2.0,
                                        seed ^ 1,
                                    )
                                + 0.25
                                    * value_noise(
                                        xf * s * 4.0,
                                        yf * s * 4.0,
                                        zf * s * 4.0,
                                        seed ^ 2,
                                    )
                        }
                        // a curved shock front: smooth on each side, jump across
                        "shock" => {
                            let front = nx as f64 * (0.4 + 0.1 * (yf * s).sin())
                                + 2.0 * (zf * s * 2.0).cos();
                            let base = 0.2 * value_noise(xf * s, yf * s, zf * s, seed);
                            if xf < front {
                                1.0 + base
                            } else {
                                -1.0 + base * 0.5
                            }
                        }
                        // localized oscillation: high frequency, coherent phase
                        "wavepacket" => {
                            let cx = nx as f64 * 0.5;
                            let cy = ny as f64 * 0.5;
                            let r2 = (xf - cx) * (xf - cx) + (yf - cy) * (yf - cy);
                            let envelope = (-r2 / (nx as f64 * nx as f64 * 0.05)).exp();
                            envelope * (xf * 0.9 + zf * 0.3).sin()
                        }
                        // piecewise-constant plateaus (quantized smooth field)
                        "plateau" => {
                            let smooth =
                                value_noise(xf * s * 0.7, yf * s * 0.7, zf * s * 0.7, seed);
                            (smooth * 4.0).round() / 4.0
                        }
                        _ => 0.0,
                    };
                    out.push(v as f32);
                }
            }
        }
        Data::from_f32(vec![nx, ny, nz], out)
    }
}

impl DatasetPlugin for SyntheticSuite {
    fn id(&self) -> &'static str {
        "synthetic_suite"
    }

    fn len(&self) -> usize {
        FAMILIES.len() * self.realizations
    }

    fn load_metadata(&mut self, index: usize) -> Result<DatasetMeta> {
        if index >= self.len() {
            return Err(index_error(index, self.len()));
        }
        let family = FAMILIES[index % FAMILIES.len()];
        let realization = index / FAMILIES.len();
        Ok(DatasetMeta {
            name: format!("{family}#{realization}"),
            dtype: Dtype::F32,
            dims: vec![self.nx, self.ny, self.nz],
            attributes: Options::new()
                .with("synthetic:family", family)
                .with("synthetic:realization", realization as u64),
        })
    }

    fn load_data(&mut self, index: usize) -> Result<Data> {
        if index >= self.len() {
            return Err(index_error(index, self.len()));
        }
        let family = FAMILIES[index % FAMILIES.len()];
        Ok(self.generate(family, index / FAMILIES.len()))
    }

    fn get_options(&self) -> Options {
        Options::new()
            .with("synthetic:nx", self.nx as u64)
            .with("synthetic:ny", self.ny as u64)
            .with("synthetic:nz", self.nz as u64)
            .with("synthetic:realizations", self.realizations as u64)
            .with("synthetic:seed", self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_stats::summarize;

    #[test]
    fn enumeration_and_determinism() {
        let mut s = SyntheticSuite::new(16, 16, 8, 3);
        assert_eq!(s.len(), 12);
        assert_eq!(s.load_metadata(0).unwrap().name, "turbulence#0");
        assert_eq!(s.load_metadata(7).unwrap().name, "plateau#1");
        assert!(s.load_metadata(12).is_err());
        assert_eq!(s.load_data(3).unwrap(), s.load_data(3).unwrap());
        let other = SyntheticSuite::new(16, 16, 8, 3).with_seed(1);
        assert_ne!(s.load_data(0).unwrap(), other.generate("turbulence", 0));
    }

    #[test]
    fn families_have_distinct_structure() {
        let s = SyntheticSuite::new(32, 32, 8, 1);
        let shock = s.generate("shock", 0).to_f64_vec();
        let plateau = s.generate("plateau", 0).to_f64_vec();
        let turb = s.generate("turbulence", 0).to_f64_vec();
        // shock is bimodal around ±1
        let sm = summarize(&shock);
        assert!(sm.min < -0.5 && sm.max > 0.5);
        // plateau has few distinct values
        let distinct: std::collections::BTreeSet<i64> =
            plateau.iter().map(|v| (v * 4.0).round() as i64).collect();
        assert!(distinct.len() <= 12, "{} distinct levels", distinct.len());
        // turbulence is spatially correlated but not constant
        let score = pressio_stats::variogram_score(&turb, &[32, 32, 8]);
        assert!(score > 0.0 && score < 0.5, "turbulence variogram {score}");
    }

    #[test]
    fn families_compress_differently() {
        use pressio_core::Compressor;
        let s = SyntheticSuite::new(32, 32, 8, 1);
        let sz = pressio_sz_compressor();
        let mut ratios = std::collections::BTreeMap::new();
        for family in FAMILIES {
            let d = s.generate(family, 0);
            let c = sz.compress(&d).unwrap();
            ratios.insert(family, d.size_in_bytes() as f64 / c.len() as f64);
        }
        // plateau (piecewise constant) must beat turbulence (fractal)
        assert!(ratios["plateau"] > ratios["turbulence"], "{ratios:?}");
    }

    fn pressio_sz_compressor() -> impl pressio_core::Compressor {
        // local helper to avoid a dev-dependency cycle: hand-rolled trivial
        // wrapper is unnecessary since pressio-sz is not a dataset dep; use
        // the dev-dependency instead
        DummyCompressor
    }

    /// Minimal error-bounded "compressor" for structure comparison: byte
    /// stream = RLE of quantized values. Enough to order plateau above
    /// turbulence without pulling the real compressors into this crate.
    struct DummyCompressor;

    impl pressio_core::Compressor for DummyCompressor {
        fn id(&self) -> &'static str {
            "dummy"
        }
        fn set_options(&mut self, _: &Options) -> Result<()> {
            Ok(())
        }
        fn get_options(&self) -> Options {
            Options::new()
        }
        fn get_configuration(&self) -> Options {
            Options::new()
        }
        fn compress(&self, input: &Data) -> Result<Vec<u8>> {
            let bytes: Vec<u8> = input
                .to_f64_vec()
                .iter()
                .map(|v| ((v * 100.0).round() as i64 & 0xFF) as u8)
                .collect();
            // cheap RLE stand-in
            let mut out = Vec::new();
            let mut i = 0;
            while i < bytes.len() {
                let b = bytes[i];
                let mut run = 1usize;
                while i + run < bytes.len() && bytes[i + run] == b && run < 255 {
                    run += 1;
                }
                out.push(run as u8);
                out.push(b);
                i += run;
            }
            Ok(out)
        }
        fn decompress(&self, _: &[u8], _: Dtype, _: &[usize]) -> Result<Data> {
            unimplemented!("structure-comparison helper only")
        }
        fn clone_box(&self) -> Box<dyn pressio_core::Compressor> {
            Box::new(DummyCompressor)
        }
    }
}
