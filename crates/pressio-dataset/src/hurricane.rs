//! Synthetic Hurricane Isabel stand-in.
//!
//! The paper evaluates on the Hurricane Isabel dataset (48 timesteps × 13
//! fields of 500×500×100 `f32`). That data is not redistributable here, so
//! this module generates a deterministic synthetic hurricane with the
//! property the paper's analysis actually hinges on: a **mix of dense
//! smooth fields and sparse fields** (§6 — "Hurricane features a mix of
//! sparse and dense data fields... sparse fields can be substantially more
//! compressible"). The 13 field names match the real dataset's.
//!
//! Field construction: a Rankine-style vortex whose eye drifts across the
//! domain over the 48 timesteps provides the large-scale structure; a
//! deterministic value-noise field adds spatially correlated turbulence;
//! the moisture fields (QCLOUD, QRAIN, QICE, QSNOW, QGRAUP, CLOUD, PRECIP)
//! are thresholded plumes that are exactly zero over most of the volume.

use crate::noise::Axis;
use crate::plugin::{index_error, DatasetMeta, DatasetPlugin};
use pressio_core::error::{Error, Result};
use pressio_core::{threads, Data, Dtype, Options};

/// The 13 Hurricane Isabel field names.
pub const FIELDS: [&str; 13] = [
    "CLOUD", "P", "PRECIP", "QCLOUD", "QGRAUP", "QICE", "QRAIN", "QSNOW", "QVAPOR", "TC", "U", "V",
    "W",
];

/// Fields that are sparse (mostly exact zeros) in the real dataset.
pub const SPARSE_FIELDS: [&str; 7] = [
    "CLOUD", "PRECIP", "QCLOUD", "QGRAUP", "QICE", "QRAIN", "QSNOW",
];

/// Number of timesteps in the full dataset.
pub const TIMESTEPS: usize = 48;

/// Synthetic hurricane volume generator.
#[derive(Debug, Clone)]
pub struct Hurricane {
    nx: usize,
    ny: usize,
    nz: usize,
    timesteps: usize,
    fields: Vec<String>,
    seed: u64,
}

impl Hurricane {
    /// Full-resolution configuration (500×500×100, 48 timesteps, 13
    /// fields) — the shape the paper used.
    pub fn full() -> Hurricane {
        Hurricane::with_dims(500, 500, 100, TIMESTEPS)
    }

    /// Laptop-scale configuration used by the bundled experiments.
    pub fn small() -> Hurricane {
        Hurricane::with_dims(64, 64, 32, TIMESTEPS)
    }

    /// Custom grid and timestep count, all 13 fields.
    pub fn with_dims(nx: usize, ny: usize, nz: usize, timesteps: usize) -> Hurricane {
        Hurricane {
            nx,
            ny,
            nz,
            timesteps,
            fields: FIELDS.iter().map(|s| s.to_string()).collect(),
            seed: 0x15ABE1,
        }
    }

    /// Restrict to a subset of fields. A name outside [`FIELDS`] is an
    /// `InvalidValue` that lists the 13 names.
    pub fn with_fields(mut self, fields: &[&str]) -> Result<Hurricane> {
        if let Some(bad) = fields.iter().find(|f| Kind::parse(f).is_none()) {
            return Err(Error::InvalidValue {
                key: "hurricane:fields".into(),
                reason: format!(
                    "unknown field {bad:?}; the fields are {}",
                    FIELDS.join(", ")
                ),
            });
        }
        self.fields = fields.iter().map(|s| s.to_string()).collect();
        Ok(self)
    }

    /// Change the generator seed (varies the synthetic weather).
    pub fn with_seed(mut self, seed: u64) -> Hurricane {
        self.seed = seed;
        self
    }

    /// Grid dims (fastest first).
    pub fn dims(&self) -> Vec<usize> {
        vec![self.nx, self.ny, self.nz]
    }

    /// Number of timesteps.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// Field names generated.
    pub fn fields(&self) -> &[String] {
        &self.fields
    }

    /// Whether a field is of the sparse family.
    pub fn is_sparse(field: &str) -> bool {
        SPARSE_FIELDS.contains(&field)
    }

    /// Generate one `field` at `timestep` as an `f32` volume.
    ///
    /// Each term is computed at the level where it varies: the field's
    /// kind once per call; each noise octave's lattice cell and weights
    /// once per `x`; `zf` and the humidity once per z-plane; the radial
    /// terms once per `(x, y)` column, a row of columns at a time, and the
    /// noise's corner hashes once per lattice cell a row crosses. Every
    /// float operation is the one the per-element formula performs, in its
    /// order, so the output does not depend on this layout or on the
    /// thread count: z-planes are split over
    /// [`pressio_core::threads::resolve`]'s threads, each task writing its
    /// own planes of the one output buffer and computing each row of
    /// columns once for all of them. Nothing but the output outgrows a
    /// row: a per-call column table (256 KiB at 128×128) measurably moved
    /// the allocator's later choices and the benchmark's peak RSS.
    ///
    /// # Panics
    ///
    /// If `field` is not one of [`FIELDS`].
    pub fn generate(&self, field: &str, timestep: usize) -> Data {
        let kind = Kind::parse(field).unwrap_or_else(|| {
            panic!("unknown Hurricane field {field:?}; the fields are {FIELDS:?}")
        });
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let t = timestep as f64 / self.timesteps.max(1) as f64;
        // eye track: drifts diagonally across the middle of the domain
        let cx = (0.25 + 0.5 * t) * nx as f64;
        let cy = (0.30 + 0.4 * t) * ny as f64;
        let rm = 0.12 * nx as f64; // radius of maximum wind
        let seed = self.seed ^ (timestep as u64).wrapping_mul(0x9E37);
        let noise_scale = 8.0 / (nx as f64).max(1.0);
        // two-octave turbulence: the second octave at twice the frequency,
        // offset in x
        let coarse = Axis::new((0..nx).map(|x| x as f64 * noise_scale));
        let fine = Axis::new((0..nx).map(|x| x as f64 * noise_scale * 2.0 + 17.0));
        let plane = nx * ny;
        let mut out = vec![0f32; plane * nz];
        if out.is_empty() {
            return Data::from_f32(vec![nx, ny, nz], out);
        }
        let threads = threads::resolve(None);
        let planes_per_task = nz.div_ceil(threads);
        threads::par_chunks_mut(
            threads,
            &mut out,
            plane * planes_per_task,
            |task, planes| {
                // the task's z-planes: height fraction, humidity, noise z
                let heights: Vec<(f64, f64, f64)> = (task * planes_per_task..)
                    .take(planes.len() / plane)
                    .map(|z| {
                        let zf = z as f64 / nz.max(1) as f64;
                        (
                            zf,
                            (-(zf * 3.0)).exp(),
                            z as f64 * noise_scale * 2.0 + t * 5.0,
                        )
                    })
                    .collect();
                let mut columns = vec![[0.0; 2]; nx];
                let mut nval = vec![0.0; nx];
                for y in 0..ny {
                    // one row of columns serves every plane of the task
                    for (x, column) in columns.iter_mut().enumerate() {
                        *column = kind.column(x as f64 - cx, y as f64 - cy, rm);
                    }
                    let yc = y as f64 * noise_scale;
                    for (&(zf, humid, zc), plane) in heights.iter().zip(planes.chunks_mut(plane)) {
                        coarse.row(yc, zc, seed, |x, v| nval[x] = v);
                        fine.row(yc * 2.0, zc * 2.0, seed ^ 0xABCD, |x, v| nval[x] += 0.5 * v);
                        let row = &mut plane[y * nx..(y + 1) * nx];
                        for ((o, column), &nval) in row.iter_mut().zip(&columns).zip(&nval) {
                            *o = kind.value(*column, zf, humid, nval) as f32;
                        }
                    }
                }
            },
        );
        Data::from_f32(vec![nx, ny, nz], out)
    }
}

/// A Hurricane field, parsed from its name once per [`Hurricane::generate`].
#[derive(Debug, Clone, Copy)]
enum Kind {
    U,
    V,
    W,
    P,
    Tc,
    Qvapor,
    /// QCLOUD and CLOUD.
    Cloud,
    /// QRAIN and PRECIP.
    Rain,
    /// QICE and QSNOW.
    Ice,
    Graupel,
}

impl Kind {
    fn parse(field: &str) -> Option<Kind> {
        Some(match field {
            "U" => Kind::U,
            "V" => Kind::V,
            "W" => Kind::W,
            "P" => Kind::P,
            "TC" => Kind::Tc,
            "QVAPOR" => Kind::Qvapor,
            "QCLOUD" | "CLOUD" => Kind::Cloud,
            "QRAIN" | "PRECIP" => Kind::Rain,
            "QICE" | "QSNOW" => Kind::Ice,
            "QGRAUP" => Kind::Graupel,
            _ => return None,
        })
    }

    /// What the field needs of the column at `(dx, dy)` from the eye: the
    /// wind direction and the Rankine-style swirl factor for U and V, the
    /// field's radial factor (ring, deficit, core, humidity) otherwise.
    fn column(self, dx: f64, dy: f64, rm: f64) -> [f64; 2] {
        let r = (dx * dx + dy * dy).sqrt().max(1e-9);
        let swirl = || (r / rm) * (1.0 - r / rm).exp();
        let radial = match self {
            Kind::U => return [-dy / r, swirl()],
            Kind::V => return [dx / r, swirl()],
            // updraft ring at the eyewall
            Kind::W => (-((r - rm) / (0.4 * rm)).powi(2)).exp(),
            // pressure deficit
            Kind::P => 60.0 * (-(r / (2.0 * rm)).powi(2)).exp(),
            // warm core
            Kind::Tc => 6.0 * (-(r / rm).powi(2)).exp(),
            Kind::Qvapor => 1.0 + 0.4 * (-(r / (3.0 * rm)).powi(2)).exp(),
            Kind::Cloud => (-((r - rm) / (0.8 * rm)).powi(2)).exp(),
            Kind::Rain => (-((r - 0.8 * rm) / (0.6 * rm)).powi(2)).exp(),
            Kind::Ice => (-((r - 1.2 * rm) / rm).powi(2)).exp(),
            Kind::Graupel => (-((r - rm) / (0.5 * rm)).powi(2)).exp(),
        };
        [radial, 0.0]
    }

    /// The field's value at one element: its `column` terms, the plane's
    /// height fraction `zf` and `humid`, and the turbulence `nval`.
    fn value(self, [radial, swirl]: [f64; 2], zf: f64, humid: f64, nval: f64) -> f64 {
        match self {
            // swirl speed decaying with altitude
            Kind::U | Kind::V => radial * (swirl * (1.0 - 0.6 * zf)) * 60.0 + 4.0 * nval,
            Kind::W => radial * (1.0 - zf) * 8.0 + 0.5 * nval,
            // the deficit fills with altitude
            Kind::P => 1000.0 - 90.0 * zf - radial * (1.0 - 0.5 * zf) + 0.8 * nval,
            // lapse rate + warm core
            Kind::Tc => 28.0 - 60.0 * zf + radial + 0.5 * nval,
            Kind::Qvapor => (0.02 * humid * radial + 0.002 * nval).max(0.0),
            // sparse families: thresholded plumes
            Kind::Cloud => sparse_plume(radial * (1.0 - zf), nval, 0.55, 0.004),
            Kind::Rain => sparse_plume(radial * (1.0 - zf).powi(2), nval, 0.65, 0.008),
            // only aloft
            Kind::Ice => sparse_plume(radial * zf, nval, 0.7, 0.003),
            Kind::Graupel => sparse_plume(radial * zf * (1.0 - zf) * 4.0, nval, 0.8, 0.005),
        }
    }
}

/// Thresholded plume: exactly zero unless the envelope and the turbulence
/// jointly exceed the threshold — this is what makes the moisture fields
/// mostly exact zeros with patchy nonzero regions, like the real data.
fn sparse_plume(envelope: f64, noise: f64, threshold: f64, scale: f64) -> f64 {
    let intensity = envelope * (0.6 + 0.4 * noise);
    if intensity > threshold {
        (intensity - threshold) * scale / (1.0 - threshold)
    } else {
        0.0
    }
}

impl DatasetPlugin for Hurricane {
    fn id(&self) -> &'static str {
        "hurricane"
    }

    /// One dataset per (timestep, field), timestep-major.
    fn len(&self) -> usize {
        self.timesteps * self.fields.len()
    }

    fn load_metadata(&mut self, index: usize) -> Result<DatasetMeta> {
        if index >= self.len() {
            return Err(index_error(index, self.len()));
        }
        let (timestep, field) = (
            index / self.fields.len(),
            &self.fields[index % self.fields.len()],
        );
        Ok(DatasetMeta {
            name: format!("{field}@t{timestep:02}"),
            dtype: Dtype::F32,
            dims: self.dims(),
            attributes: Options::new()
                .with("hurricane:field", field.as_str())
                .with("hurricane:timestep", timestep as u64)
                .with("hurricane:sparse", Hurricane::is_sparse(field)),
        })
    }

    fn load_data(&mut self, index: usize) -> Result<Data> {
        pressio_faults::inject("dataset:load")?;
        if index >= self.len() {
            return Err(index_error(index, self.len()));
        }
        let (timestep, field) = (
            index / self.fields.len(),
            self.fields[index % self.fields.len()].clone(),
        );
        Ok(self.generate(&field, timestep))
    }

    fn get_options(&self) -> Options {
        Options::new()
            .with("hurricane:nx", self.nx as u64)
            .with("hurricane:ny", self.ny as u64)
            .with("hurricane:nz", self.nz as u64)
            .with("hurricane:timesteps", self.timesteps as u64)
            .with("hurricane:seed", self.seed)
            .with("hurricane:fields", self.fields.clone())
    }

    fn get_configuration(&self) -> Options {
        Options::new().with("hurricane:synthetic", true).with(
            "hurricane:provenance",
            "deterministic stand-in for Hurricane Isabel (see DESIGN.md)",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_stats::summarize;

    fn small() -> Hurricane {
        Hurricane::with_dims(32, 32, 16, 4)
    }

    #[test]
    fn dataset_enumeration() {
        let mut h = small();
        assert_eq!(h.len(), 4 * 13);
        let m0 = h.load_metadata(0).unwrap();
        assert_eq!(m0.name, "CLOUD@t00");
        let m_last = h.load_metadata(h.len() - 1).unwrap();
        assert_eq!(m_last.name, "W@t03");
        assert!(h.load_metadata(h.len()).is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let h = small();
        let a = h.generate("U", 2);
        let b = h.generate("U", 2);
        assert_eq!(a, b);
        let c = h.clone().with_seed(99).generate("U", 2);
        assert_ne!(a, c);
    }

    #[test]
    fn sparse_fields_are_mostly_zero_dense_are_not() {
        let h = small();
        for field in SPARSE_FIELDS {
            let d = h.generate(field, 1);
            let s = summarize(&d.to_f64_vec());
            assert!(
                s.zero_fraction > 0.5,
                "{field}: zero fraction {} too low",
                s.zero_fraction
            );
        }
        for field in ["U", "V", "P", "TC", "QVAPOR"] {
            let d = h.generate(field, 1);
            let s = summarize(&d.to_f64_vec());
            assert!(
                s.zero_fraction < 0.05,
                "{field}: zero fraction {} too high",
                s.zero_fraction
            );
        }
    }

    #[test]
    fn fields_evolve_over_time() {
        let h = small();
        assert_ne!(h.generate("P", 0), h.generate("P", 3));
    }

    #[test]
    fn dense_fields_are_spatially_correlated() {
        // lag-1 variogram score well below 1 (noise) for the smooth fields
        let h = small();
        let d = h.generate("P", 0);
        let score = pressio_stats::variogram_score(&d.to_f64_vec(), d.dims());
        assert!(score < 0.3, "P variogram score {score}");
    }

    #[test]
    fn physically_plausible_ranges() {
        let h = small();
        let p = summarize(&h.generate("P", 0).to_f64_vec());
        assert!(p.min > 800.0 && p.max < 1100.0, "pressure {p:?}");
        let tc = summarize(&h.generate("TC", 0).to_f64_vec());
        assert!(tc.min > -80.0 && tc.max < 60.0, "temperature {tc:?}");
        let q = summarize(&h.generate("QVAPOR", 0).to_f64_vec());
        assert!(q.min >= 0.0, "humidity cannot be negative");
    }

    #[test]
    fn full_and_small_presets() {
        let f = Hurricane::full();
        assert_eq!(f.dims(), vec![500, 500, 100]);
        assert_eq!(f.timesteps(), 48);
        let s = Hurricane::small();
        assert_eq!(s.timesteps(), 48);
        assert_eq!(s.fields().len(), 13);
    }

    #[test]
    fn field_subset() {
        let mut h = small().with_fields(&["U", "QRAIN"]).unwrap();
        assert_eq!(h.len(), 4 * 2);
        assert_eq!(h.load_metadata(1).unwrap().name, "QRAIN@t00");
        let sparse_attr = h
            .load_metadata(1)
            .unwrap()
            .attributes
            .get_bool("hurricane:sparse")
            .unwrap();
        assert!(sparse_attr);
    }

    #[test]
    fn unknown_field_names_are_turned_down() {
        let err = small().with_fields(&["U", "FOO"]).unwrap_err().to_string();
        assert!(err.contains("\"FOO\""), "{err}");
        for field in FIELDS {
            assert!(err.contains(field), "{err} does not list {field}");
        }
        assert!(
            small().with_fields(&["u"]).is_err(),
            "names are case-sensitive"
        );
        let generated = std::panic::catch_unwind(|| small().generate("FOO", 0));
        assert!(
            generated.is_err(),
            "generate must not turn an unknown name into noise"
        );
    }

    /// Probe: fastest-of-3 ms to generate the benchmark's 16 MiB `P`
    /// (128×128×256) and one field at the paper's 500×500×100, at 1 and 2
    /// threads. `cargo test --release -p pressio-dataset --lib
    /// generate_costs -- --ignored --nocapture`
    #[test]
    #[ignore = "timing probe"]
    fn generate_costs() {
        for (nx, ny, nz, reps) in [(128, 128, 256, 3), (500, 500, 100, 1)] {
            let h = Hurricane::with_dims(nx, ny, nz, TIMESTEPS);
            for threads in [1, 2] {
                pressio_core::threads::set_global_threads(threads);
                let ms = (0..reps)
                    .map(|_| {
                        let t = std::time::Instant::now();
                        std::hint::black_box(h.generate("P", 24));
                        t.elapsed().as_secs_f64() * 1e3
                    })
                    .fold(f64::INFINITY, f64::min);
                let mib = (nx * ny * nz * 4) as f64 / (1 << 20) as f64;
                let per_mib = ms / mib;
                println!("P {nx}x{ny}x{nz} at {threads} threads: {ms:.1} ms ({per_mib:.2} ms/MiB)");
            }
        }
        pressio_core::threads::set_global_threads(0);
    }

    #[test]
    fn options_include_generator_config() {
        let h = small();
        let o = h.get_options();
        assert_eq!(o.get_u64("hurricane:nx").unwrap(), 32);
        assert_eq!(o.get_str_slice("hurricane:fields").unwrap().len(), 13);
    }
}
