//! Everything a run feeds the program is derived from `--seed` here: the
//! Hurricane generator seed, which timestep is taken, the order of the
//! fields and the perturbation salts. The program sees only the buffers.

use pressio_core::Data;
use pressio_dataset::Hurricane;
use std::time::Instant;

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The seed's generator: Hurricane at `dims` with the seed's weather.
pub fn hurricane(rng: &mut Rng, dims: [usize; 3], timesteps: usize) -> Hurricane {
    Hurricane::with_dims(dims[0], dims[1], dims[2], timesteps).with_seed(rng.next())
}

/// A named input buffer.
pub struct Field {
    pub name: String,
    pub data: Data,
}

/// Generated inputs and what generating them cost.
pub struct Generated {
    pub fields: Vec<Field>,
    pub ms_per_mib: f64,
}

/// `fields` × `timesteps` consecutive timesteps from a seed-chosen start,
/// in a seed-chosen order.
pub fn fields(rng: &mut Rng, dims: [usize; 3], names: &[&str], timesteps: usize) -> Generated {
    let source = hurricane(rng, dims, pressio_dataset::TIMESTEPS);
    let first = rng.below(pressio_dataset::TIMESTEPS - timesteps + 1);
    let started = Instant::now();
    let mut fields: Vec<Field> = (first..first + timesteps)
        .flat_map(|t| names.iter().map(move |name| (t, *name)))
        .map(|(t, name)| Field {
            name: format!("{name}@t{t:02}"),
            data: source.generate(name, t),
        })
        .collect();
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let mib: f64 = fields
        .iter()
        .map(|f| f.data.size_in_bytes() as f64)
        .sum::<f64>()
        / (1 << 20) as f64;
    rng.shuffle(&mut fields);
    Generated {
        fields,
        ms_per_mib: ms / mib,
    }
}

/// One field over `timesteps` consecutive timesteps, stacked on a fourth,
/// outermost axis: the shape `pressio stream` chunks along.
pub fn stack(source: &Hurricane, name: &str, timesteps: usize) -> Field {
    let mut values = Vec::new();
    for t in 0..timesteps {
        let slice = source.generate(name, t);
        values.extend_from_slice(slice.as_f32().expect("Hurricane fields are f32"));
    }
    let mut dims = source.dims();
    dims.push(timesteps);
    Field {
        name: format!("{name}x{timesteps}"),
        data: Data::from_f32(dims, values),
    }
}

/// `base` with element 0 moved `salt` representable values away: a buffer
/// no cache has seen, the same size and statistics as `base`.
pub fn perturbed(base: &Data, salt: u32) -> Data {
    let mut values = base.as_f32().expect("inputs are f32").to_vec();
    let moved = f32::from_bits(values[0].to_bits().wrapping_add(salt));
    // stay finite whatever element 0 was
    values[0] = if moved.is_finite() {
        moved
    } else {
        salt as f32
    };
    Data::from_f32(base.dims().to_vec(), values)
}
