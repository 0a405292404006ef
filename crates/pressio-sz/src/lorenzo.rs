//! Lorenzo prediction: each point is predicted from its already-processed
//! neighbors (the classic SZ first-order predictor).
//!
//! In 1D the prediction is the previous value; in 2D the three-point
//! parallelogram rule; in 3D the seven-point inclusion–exclusion rule.
//! Out-of-bounds neighbors contribute 0. Ranks above 3 are handled by
//! collapsing the slowest dimensions into the third (the prediction quality
//! degrades gracefully, matching SZ's behaviour on high-rank data).

#[cfg(target_arch = "x86_64")]
mod avx2;
mod sweep;
#[cfg(test)]
mod twin;

pub use sweep::{Encoded, Kernel, SymbolSource};

use pressio_core::lanes::{finite, fold, Widen, LANES};

/// Normalize dims to exactly 3 entries (fastest first), collapsing extras.
/// Rank 0 holds one element, so it is one row of one.
pub(crate) fn normalize_dims(dims: &[usize]) -> [usize; 3] {
    match dims.len() {
        0 => [1, 1, 1],
        1 => [dims[0], 1, 1],
        2 => [dims[0], dims[1], 1],
        _ => [dims[0], dims[1], dims[2..].iter().product()],
    }
}

/// The reconstruction at `(x, y, z)`, a literal `0.0` outside the volume.
#[inline]
fn at(recon: &[f64], nx: usize, nxy: usize, x: isize, y: isize, z: isize) -> f64 {
    if x < 0 || y < 0 || z < 0 {
        0.0
    } else {
        recon[z as usize * nxy + y as usize * nx + x as usize]
    }
}

/// The stencil, one element at a time: what [`crate::hybrid`] calls per
/// block, and the term order the sweep keeps.
#[inline]
pub(crate) fn predict(recon: &[f64], nx: usize, nxy: usize, x: usize, y: usize, z: usize) -> f64 {
    let (xi, yi, zi) = (x as isize, y as isize, z as isize);
    at(recon, nx, nxy, xi - 1, yi, zi)
        + at(recon, nx, nxy, xi, yi - 1, zi)
        + at(recon, nx, nxy, xi, yi, zi - 1)
        - at(recon, nx, nxy, xi - 1, yi - 1, zi)
        - at(recon, nx, nxy, xi - 1, yi, zi - 1)
        - at(recon, nx, nxy, xi, yi - 1, zi - 1)
        + at(recon, nx, nxy, xi - 1, yi - 1, zi - 1)
}

/// Σ|v − pred| over one row of the estimation stencil, on *original*
/// values, lane-strided: element `x` lands in lane `x % LANES`. Rows are
/// laid out `[0.0 | values | NaN pad]` with the values padded to whole
/// chunks: the leading zero is the out-of-bounds `x-1` neighbor, and a
/// padding lane fails the finiteness mask and adds `+0.0`, an exact no-op
/// on sums that are never `-0.0`. `a`/`b`/`c` are the `y-1`, `z-1` and
/// `y-1,z-1` neighbor rows (all-zero rows at the boundary); the term order
/// matches [`predict`].
///
/// Two loops, each of a shape the vectorizer takes whole: the masked
/// residuals element-wise into `residuals`, then the lane-strided sum of
/// that (L1-resident) buffer. Fused, the seven overlapping loads defeat it.
fn row_abs_residual(cur: &[f64], a: &[f64], b: &[f64], c: &[f64], residuals: &mut [f64]) -> f64 {
    let n = residuals.len();
    let (cur_m, cur) = (&cur[..n], &cur[1..=n]);
    let (a_m, a) = (&a[..n], &a[1..=n]);
    let (b_m, b) = (&b[..n], &b[1..=n]);
    let (c_m, c) = (&c[..n], &c[1..=n]);
    for x in 0..n {
        let pred = cur_m[x] + a[x] + b[x] - a_m[x] - b_m[x] - c[x] + c_m[x];
        let d = (cur[x] - pred).abs();
        residuals[x] = if finite(cur[x]) & finite(pred) {
            d
        } else {
            0.0
        };
    }
    let mut acc = [0.0f64; LANES];
    for chunk in residuals.chunks_exact(LANES) {
        let chunk: &[f64; LANES] = chunk.try_into().unwrap();
        for l in 0..LANES {
            acc[l] += chunk[l];
        }
    }
    // opaque, so the fold tree cannot reshuffle the loop's lane order
    fold(std::hint::black_box(acc))
}

/// Exact-order scalar reference for [`row_abs_residual`].
fn row_abs_residual_scalar(
    cur: &[f64],
    a: &[f64],
    b: &[f64],
    c: &[f64],
    residuals: &mut [f64],
) -> f64 {
    let mut acc = [0.0f64; LANES];
    for x in 1..=residuals.len() {
        let pred = cur[x - 1] + a[x] + b[x] - a[x - 1] - b[x - 1] - c[x] + c[x - 1];
        if cur[x].is_finite() && pred.is_finite() {
            acc[(x - 1) % LANES] += (cur[x] - pred).abs();
        }
    }
    fold(acc)
}

/// Row decomposition shared by the lane kernel and its scalar reference.
/// The stencil reaches back at most one plane and one row, so the rows it
/// needs are kept widened in a ring of that many — never the whole buffer.
fn estimate_rows<T: Widen>(
    values: &[T],
    dims: &[usize],
    row: impl Fn(&[f64], &[f64], &[f64], &[f64], &mut [f64]) -> f64,
) -> f64 {
    let [nx, ny, nz] = normalize_dims(dims);
    if values.is_empty() {
        return 0.0;
    }
    debug_assert_eq!(nx * ny * nz, values.len());
    let reach = match (ny > 1, nz > 1) {
        (_, true) => ny + 1,
        (true, false) => 1,
        (false, false) => 0,
    };
    let slots = reach + 1;
    let padded = nx.div_ceil(LANES) * LANES;
    let stride = padded + 1;
    let mut ring = vec![f64::NAN; slots * stride];
    for slot in ring.chunks_exact_mut(stride) {
        slot[0] = 0.0;
    }
    let zeros = vec![0.0f64; stride];
    let mut residuals = vec![0.0f64; padded];
    let mut sum = 0.0f64;
    for (r, src) in values.chunks_exact(nx).enumerate() {
        let (y, z) = (r % ny, r / ny);
        let slot = |back: usize| {
            let start = (r + slots - back) % slots * stride;
            start..start + stride
        };
        for (dst, v) in ring[slot(0)][1..].iter_mut().zip(src) {
            *dst = v.widen();
        }
        let cur = &ring[slot(0)];
        let a = if y > 0 { &ring[slot(1)] } else { &zeros[..] };
        let b = if z > 0 { &ring[slot(ny)] } else { &zeros[..] };
        let c = if y > 0 && z > 0 {
            &ring[slot(ny + 1)]
        } else {
            &zeros[..]
        };
        sum += row(cur, a, b, c, &mut residuals);
    }
    sum / values.len() as f64
}

/// Estimate the mean absolute Lorenzo residual using *original* (not
/// reconstructed) neighbors — the cheap proxy SZ3 uses for predictor
/// selection without a full compression pass. Reads the typed buffer,
/// widening a row at a time. Lane kernel; exactly equal to
/// [`estimate_mean_abs_residual_scalar`] (pinned by proptests).
pub fn estimate_mean_abs_residual<T: Widen>(values: &[T], dims: &[usize]) -> f64 {
    estimate_rows(values, dims, row_abs_residual)
}

/// Scalar reference for [`estimate_mean_abs_residual`]: the same
/// row decomposition and lane-strided accumulation order, one element at
/// a time. Kept public for parity tests.
pub fn estimate_mean_abs_residual_scalar<T: Widen>(values: &[T], dims: &[usize]) -> f64 {
    estimate_rows(values, dims, row_abs_residual_scalar)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[f64], dims: &[usize], eb: f64) -> Vec<f64> {
        let (kernel, bound) = (Kernel::selected(), (eb, 32768, false));
        let coded = kernel.encode(values, dims, bound, true, Vec::new());
        let decoded: Vec<f64> = kernel
            .decode(
                dims,
                bound,
                &coded.symbols[..],
                coded.unpredictable.into_iter(),
            )
            .unwrap();
        assert_eq!(
            coded.reconstruction, decoded,
            "encode/decode reconstruction mismatch"
        );
        decoded
    }

    #[test]
    fn bound_respected_1d() {
        let values: Vec<f64> = (0..500).map(|i| (i as f64 * 0.05).sin()).collect();
        let eb = 1e-4;
        let recon = round_trip(&values, &[500], eb);
        for (v, r) in values.iter().zip(&recon) {
            assert!((v - r).abs() <= eb);
        }
    }

    #[test]
    fn bound_respected_2d() {
        let (nx, ny) = (32, 24);
        let values: Vec<f64> = (0..nx * ny)
            .map(|i| {
                let (x, y) = (i % nx, i / nx);
                ((x as f64) * 0.2).sin() * ((y as f64) * 0.3).cos()
            })
            .collect();
        let eb = 1e-3;
        let recon = round_trip(&values, &[nx, ny], eb);
        for (v, r) in values.iter().zip(&recon) {
            assert!((v - r).abs() <= eb);
        }
    }

    #[test]
    fn bound_respected_3d() {
        let (nx, ny, nz) = (12, 10, 8);
        let values: Vec<f64> = (0..nx * ny * nz)
            .map(|i| {
                let x = i % nx;
                let y = (i / nx) % ny;
                let z = i / (nx * ny);
                (x as f64 * 0.4).sin() + (y as f64 * 0.2).cos() + z as f64 * 0.1
            })
            .collect();
        let eb = 1e-3;
        let recon = round_trip(&values, &[nx, ny, nz], eb);
        for (v, r) in values.iter().zip(&recon) {
            assert!((v - r).abs() <= eb);
        }
    }

    #[test]
    fn rank4_collapses_and_round_trips() {
        let dims = [4usize, 3, 2, 2];
        let n: usize = dims.iter().product();
        let values: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
        let eb = 1e-2;
        let recon = round_trip(&values, &dims, eb);
        for (v, r) in values.iter().zip(&recon) {
            assert!((v - r).abs() <= eb);
        }
    }

    #[test]
    fn linear_ramp_2d_has_tiny_residuals() {
        // the parallelogram rule is exact on affine data: all symbols after
        // the first row/col should be the zero-residual code
        let (nx, ny) = (16, 16);
        let values: Vec<f64> = (0..nx * ny)
            .map(|i| (i % nx) as f64 * 2.0 + (i / nx) as f64 * 3.0)
            .collect();
        let coded =
            Kernel::selected().encode(&values, &[nx, ny], (1e-6, 32768, false), false, Vec::new());
        let zero_code = 32768u32; // code 0 + radius
        let interior_zero = coded
            .symbols
            .iter()
            .enumerate()
            .filter(|(i, _)| i % nx != 0 && *i >= nx)
            .all(|(_, &s)| s == zero_code);
        assert!(interior_zero, "affine data should be perfectly predicted");
    }

    #[test]
    fn estimate_tracks_actual_smoothness() {
        let smooth: Vec<f64> = (0..400).map(|i| (i as f64 * 0.01).sin()).collect();
        let mut state = 1234u32;
        let rough: Vec<f64> = (0..400)
            .map(|_| {
                state = state.wrapping_mul(1103515245).wrapping_add(12345);
                (state >> 16) as f64 / 65536.0
            })
            .collect();
        assert!(
            estimate_mean_abs_residual(&smooth, &[400])
                < estimate_mean_abs_residual(&rough, &[400])
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(estimate_mean_abs_residual::<f64>(&[], &[0]), 0.0);
        let kernel = Kernel::selected();
        let coded = kernel.encode::<f64>(&[], &[0], (1e-3, 32768, false), true, Vec::new());
        assert!(coded.symbols.is_empty() && coded.reconstruction.is_empty());
        let decoded =
            kernel.decode::<f32, &[u32]>(&[0], (1e-3, 32768, true), &[], std::iter::empty());
        assert!(decoded.unwrap().is_empty());
    }

    fn synth(n: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.113).sin() * scale + (i as f64 * 0.017).cos())
            .collect()
    }

    /// The estimate as it was before the ring: every element through the
    /// stencil of [`predict`] on a whole widened copy, row by row.
    fn estimate_by_the_stencil(values: &[f64], dims: &[usize]) -> f64 {
        let [nx, ny, nz] = normalize_dims(dims);
        let nxy = nx * ny;
        let mut sum = 0.0;
        for z in 0..nz {
            for y in 0..ny {
                let mut acc = [0.0f64; LANES];
                for x in 0..nx {
                    let pred = predict(values, nx, nxy, x, y, z);
                    let v = values[z * nxy + y * nx + x];
                    if v.is_finite() && pred.is_finite() {
                        acc[x % LANES] += (v - pred).abs();
                    }
                }
                sum += fold(acc);
            }
        }
        sum / values.len() as f64
    }

    #[test]
    fn estimate_lane_matches_scalar_reference() {
        for dims in [
            vec![101usize],
            vec![8],
            vec![13, 9],
            vec![33, 21],
            vec![16, 1, 3],
            vec![7, 5, 3],
            vec![9, 4, 3, 2],
        ] {
            let n: usize = dims.iter().product();
            let mut values = synth(n, 3.0);
            values[n / 2] = f64::NAN;
            values[n / 3] = f64::INFINITY;
            values[n - 1] = -0.0;
            let want = estimate_by_the_stencil(&values, &dims).to_bits();
            let lane = estimate_mean_abs_residual(&values, &dims);
            let scalar = estimate_mean_abs_residual_scalar(&values, &dims);
            assert_eq!(lane.to_bits(), want, "dims={dims:?}");
            assert_eq!(scalar.to_bits(), want, "scalar dims={dims:?}");
            // the typed view widens to the same rows
            let narrow: Vec<f32> = values.iter().map(|&v| v as f32).collect();
            let widened: Vec<f64> = narrow.iter().map(|&v| v as f64).collect();
            assert_eq!(
                estimate_mean_abs_residual(&narrow, &dims).to_bits(),
                estimate_by_the_stencil(&widened, &dims).to_bits(),
                "f32 dims={dims:?}"
            );
        }
    }
}
