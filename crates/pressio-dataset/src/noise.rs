//! Deterministic hash-based value noise, the one copy the synthetic
//! generators share: smooth, spatially correlated, in `[-1, 1]`.
//!
//! [`value_noise`] evaluates one point. [`Axis`] evaluates a whole row of
//! points that differ only in `x` with the same floating-point operations
//! in the same order, bit for bit: each `x`'s lattice cell and weights are
//! formed once, the row's `y` and `z` terms once per row, and the eight
//! corner hashes once per lattice cell the row crosses.

/// The lattice value at integer point `(x, y, z)`, in `[-1, 1)`.
fn hash3(x: i64, y: i64, z: i64, seed: u64) -> f64 {
    let mut h = seed
        ^ (x as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ (y as u64).wrapping_mul(0xC2B2AE3D27D4EB4F)
        ^ (z as u64).wrapping_mul(0x165667B19E3779F9);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58476D1CE4E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D049BB133111EB);
    h ^= h >> 31;
    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

fn smoothstep(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// A coordinate's lattice cell and its two interpolation weights,
/// `[1 − f, f]` for the cell's low and high corner.
fn cell(c: f64) -> (i64, [f64; 2]) {
    let i = c.floor() as i64;
    let f = smoothstep(c - i as f64);
    (i, [1.0 - f, f])
}

/// Trilinear value noise at continuous coordinates, in `[-1, 1]`.
pub fn value_noise(x: f64, y: f64, z: f64, seed: u64) -> f64 {
    let ((xi, wx), (yi, wy), (zi, wz)) = (cell(x), cell(y), cell(z));
    let mut acc = 0.0;
    for (dz, wz) in (0..).zip(wz) {
        for (dy, wy) in (0..).zip(wy) {
            for (dx, wx) in (0..).zip(wx) {
                acc += wx * wy * wz * hash3(xi + dx, yi + dy, zi + dz, seed);
            }
        }
    }
    acc
}

/// The `x` coordinates of one grid row, each reduced to its lattice cell
/// and weights once; [`Axis::row`] then samples any row of that grid.
pub struct Axis {
    cells: Vec<(i64, [f64; 2])>,
}

impl Axis {
    /// The axis through the coordinates `xs`.
    pub fn new(xs: impl Iterator<Item = f64>) -> Axis {
        Axis {
            cells: xs.map(cell).collect(),
        }
    }

    /// Hand `put(i, value_noise(x_i, y, z, seed))` every `x_i` of the
    /// axis, in order, bit for bit what [`value_noise`] returns.
    pub fn row(&self, y: f64, z: f64, seed: u64, mut put: impl FnMut(usize, f64)) {
        let ((yi, wy), (zi, wz)) = (cell(y), cell(z));
        let mut corners = [0.0; 8];
        let mut at = None;
        for (i, &(xi, wx)) in self.cells.iter().enumerate() {
            if at != Some(xi) {
                for (k, h) in corners.iter_mut().enumerate() {
                    let (dz, dy, dx) = (k as i64 >> 2, (k as i64 >> 1) & 1, k as i64 & 1);
                    *h = hash3(xi + dx, yi + dy, zi + dz, seed);
                }
                at = Some(xi);
            }
            let mut acc = 0.0;
            for (k, h) in corners.iter().enumerate() {
                acc += wx[k & 1] * wy[(k >> 1) & 1] * wz[k >> 2] * h;
            }
            put(i, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_is_the_points_it_samples_bit_for_bit() {
        let seed = 0x15ABE1;
        for (scale, offset) in [(0.37, 0.0), (8.0 / 33.0 * 2.0, 17.0), (3.1, -5.5)] {
            let xs: Vec<f64> = (0..40).map(|x| x as f64 * scale + offset).collect();
            let axis = Axis::new(xs.iter().copied());
            for (y, z) in [(0.0, 0.0), (1.3, 7.77), (-3.7, 2.0e3 + 0.41)] {
                let mut row = Vec::new();
                axis.row(y, z, seed, |i, v| {
                    assert_eq!(i, row.len());
                    row.push(v);
                });
                for (x, v) in xs.iter().zip(&row) {
                    let point = value_noise(*x, y, z, seed);
                    assert_eq!(v.to_bits(), point.to_bits(), "x={x} y={y} z={z}");
                }
            }
        }
    }

    #[test]
    fn noise_stays_in_range() {
        for k in 0..1000 {
            let v = value_noise(k as f64 * 0.731, k as f64 * 0.197, k as f64 * 0.053, 9);
            assert!((-1.0..=1.0).contains(&v), "{v}");
        }
    }
}
