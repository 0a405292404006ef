//! Lorenzo prediction: each point is predicted from its already-processed
//! neighbors (the classic SZ first-order predictor).
//!
//! In 1D the prediction is the previous value; in 2D the three-point
//! parallelogram rule; in 3D the seven-point inclusion–exclusion rule.
//! Out-of-bounds neighbors contribute 0. Ranks above 3 are handled by
//! collapsing the slowest dimensions into the third (the prediction quality
//! degrades gracefully, matching SZ's behaviour on high-rank data).

use crate::quantizer::{decode_symbol, DequantError, Dequantizer, Quantizer};
use pressio_core::lanes::{finite, fold, Widen, LANES};

/// Normalize dims to exactly 3 entries (fastest first), collapsing extras.
pub(crate) fn normalize_dims(dims: &[usize]) -> [usize; 3] {
    match dims.len() {
        0 => [0, 1, 1],
        1 => [dims[0], 1, 1],
        2 => [dims[0], dims[1], 1],
        _ => [dims[0], dims[1], dims[2..].iter().product()],
    }
}

#[inline]
fn at(recon: &[f64], nx: usize, nxy: usize, x: isize, y: isize, z: isize) -> f64 {
    if x < 0 || y < 0 || z < 0 {
        0.0
    } else {
        recon[z as usize * nxy + y as usize * nx + x as usize]
    }
}

#[inline]
fn predict(recon: &[f64], nx: usize, nxy: usize, x: usize, y: usize, z: usize) -> f64 {
    let (xi, yi, zi) = (x as isize, y as isize, z as isize);
    at(recon, nx, nxy, xi - 1, yi, zi)
        + at(recon, nx, nxy, xi, yi - 1, zi)
        + at(recon, nx, nxy, xi, yi, zi - 1)
        - at(recon, nx, nxy, xi - 1, yi - 1, zi)
        - at(recon, nx, nxy, xi - 1, yi, zi - 1)
        - at(recon, nx, nxy, xi, yi - 1, zi - 1)
        + at(recon, nx, nxy, xi - 1, yi - 1, zi - 1)
}

/// Quantize `values` under Lorenzo prediction, returning the reconstruction.
pub fn encode(values: &[f64], dims: &[usize], q: &mut Quantizer) -> Vec<f64> {
    let [nx, ny, nz] = normalize_dims(dims);
    debug_assert_eq!(nx * ny * nz, values.len());
    let nxy = nx * ny;
    let mut recon = vec![0.0f64; values.len()];
    let mut idx = 0usize;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let pred = predict(&recon, nx, nxy, x, y, z);
                recon[idx] = q.quantize(pred, values[idx]);
                idx += 1;
            }
        }
    }
    recon
}

/// Reconstruct a Lorenzo-coded buffer.
pub fn decode(dims: &[usize], dq: &mut Dequantizer) -> Result<Vec<f64>, DequantError> {
    let [nx, ny, nz] = normalize_dims(dims);
    let nxy = nx * ny;
    let mut recon = vec![0.0f64; nx * ny * nz];
    let mut idx = 0usize;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let pred = predict(&recon, nx, nxy, x, y, z);
                recon[idx] = dq.recover(pred)?;
                idx += 1;
            }
        }
    }
    Ok(recon)
}

/// Wavefront-parallel [`decode`].
///
/// The Lorenzo decode loop carries a serial dependency (every point needs
/// its already-reconstructed neighbors), but tiles of an x-row only
/// depend on tiles with a strictly smaller anti-diagonal index
/// `t + y + z`, so all tiles on one anti-diagonal decode concurrently.
/// Each point's arithmetic — prediction term order, symbol decode, and
/// unpredictable-stream position (recovered from per-tile zero-symbol
/// prefix sums) — is identical to the sequential path, so the output is
/// bit-for-bit the same at any thread count (pinned by the
/// parallel-parity proptests). Tile length only affects scheduling, never
/// the result. 1-D inputs (a single dependency chain) and `nthreads <= 1`
/// fall back to [`decode`].
pub fn decode_par(
    dims: &[usize],
    eb: f64,
    radius: i64,
    round_f32: bool,
    symbols: &[u32],
    unpredictable: &[f64],
    nthreads: usize,
) -> Result<Vec<f64>, DequantError> {
    let [nx, ny, nz] = normalize_dims(dims);
    let n = nx * ny * nz;
    if nthreads <= 1 || n == 0 || (ny <= 1 && nz <= 1) {
        let mut dq = Dequantizer::new(eb, radius, round_f32, symbols, unpredictable);
        return decode(dims, &mut dq);
    }
    if symbols.len() < n {
        return Err(DequantError("symbol stream exhausted"));
    }
    let nxy = nx * ny;
    // tile length is scheduling-only: rows split finer when the y/z plane
    // alone cannot feed every thread
    let tile_len = if nz > 1 {
        nx
    } else {
        nx.div_ceil(4 * nthreads).max(32).min(nx)
    };
    let tpr = nx.div_ceil(tile_len);
    let (ny1, nz1) = (ny.max(1), nz.max(1));
    let ntiles = tpr * ny1 * nz1;
    // per-tile start offsets into the unpredictable stream, from
    // zero-symbol counts in symbol (= tile raster) order
    let tile_bounds = |t: usize| {
        let x0 = t * tile_len;
        (x0, (x0 + tile_len).min(nx))
    };
    let zero_counts = pressio_core::threads::par_map_indexed(nthreads, ntiles, |i| {
        let (t, rest) = (i % tpr, i / tpr);
        let (y, z) = (rest % ny1, rest / ny1);
        let (x0, x1) = tile_bounds(t);
        let base = z * nxy + y * nx + x0;
        symbols[base..base + (x1 - x0)]
            .iter()
            .filter(|&&s| s == 0)
            .count()
    });
    let mut unpred_base = vec![0usize; ntiles];
    let mut acc = 0usize;
    for (i, &c) in zero_counts.iter().enumerate() {
        unpred_base[i] = acc;
        acc += c;
    }
    if acc > unpredictable.len() {
        return Err(DequantError("unpredictable stream exhausted"));
    }
    let mut recon = vec![0.0f64; n];
    let mut wave: Vec<(usize, usize, usize)> = Vec::new();
    for d in 0..=(tpr - 1) + (ny1 - 1) + (nz1 - 1) {
        wave.clear();
        for z in 0..nz1.min(d + 1) {
            for y in 0..ny1.min(d - z + 1) {
                let t = d - z - y;
                if t < tpr {
                    wave.push((t, y, z));
                }
            }
        }
        let results = pressio_core::threads::par_map_indexed(nthreads, wave.len(), |i| {
            let (t, y, z) = wave[i];
            let (x0, x1) = tile_bounds(t);
            let row_base = z * nxy + y * nx;
            let tile_id = (z * ny1 + y) * tpr + t;
            let mut up = unpred_base[tile_id];
            let mut out = Vec::with_capacity(x1 - x0);
            let (yi, zi) = (y as isize, z as isize);
            for x in x0..x1 {
                let xi = x as isize;
                // same term order as `predict`; the x-1 in-row term comes
                // from this tile's local output (identical value)
                let prev = if x == 0 {
                    0.0
                } else if x == x0 {
                    recon[row_base + x - 1]
                } else {
                    out[x - x0 - 1]
                };
                let pred = prev
                    + at(&recon, nx, nxy, xi, yi - 1, zi)
                    + at(&recon, nx, nxy, xi, yi, zi - 1)
                    - at(&recon, nx, nxy, xi - 1, yi - 1, zi)
                    - at(&recon, nx, nxy, xi - 1, yi, zi - 1)
                    - at(&recon, nx, nxy, xi, yi - 1, zi - 1)
                    + at(&recon, nx, nxy, xi - 1, yi - 1, zi - 1);
                let v = match decode_symbol(eb, radius, round_f32, symbols[row_base + x], pred)? {
                    Some(v) => v,
                    None => {
                        let v = *unpredictable
                            .get(up)
                            .ok_or(DequantError("unpredictable stream exhausted"))?;
                        up += 1;
                        v
                    }
                };
                out.push(v);
            }
            Ok::<Vec<f64>, DequantError>(out)
        });
        for (&(t, y, z), res) in wave.iter().zip(results) {
            let vals = res?;
            let (x0, _) = tile_bounds(t);
            let base = z * nxy + y * nx + x0;
            recon[base..base + vals.len()].copy_from_slice(&vals);
        }
    }
    Ok(recon)
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
/// a time. Kept public for parity tests and the kernel benchmarks.
pub fn estimate_mean_abs_residual_scalar<T: Widen>(values: &[T], dims: &[usize]) -> f64 {
    estimate_rows(values, dims, row_abs_residual_scalar)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[f64], dims: &[usize], eb: f64) -> Vec<f64> {
        let mut q = Quantizer::new(eb, 32768, false, values.len());
        let recon_c = encode(values, dims, &mut q);
        let mut dq = Dequantizer::new(eb, 32768, false, &q.symbols, &q.unpredictable);
        let recon_d = decode(dims, &mut dq).unwrap();
        assert_eq!(recon_c, recon_d, "encode/decode reconstruction mismatch");
        recon_d
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
        let mut q = Quantizer::new(1e-6, 32768, false, values.len());
        encode(&values, &[nx, ny], &mut q);
        let zero_code = 32768u32; // code 0 + radius
        let interior_zero = q
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
        let mut q = Quantizer::new(1e-3, 32768, false, 0);
        assert!(encode(&[], &[0], &mut q).is_empty());
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

    #[test]
    fn wavefront_decode_matches_sequential() {
        for dims in [vec![33usize, 21], vec![12, 10, 8], vec![7, 5, 3, 2]] {
            let n: usize = dims.iter().product();
            let mut values = synth(n, 2.0);
            values[1] = 1e30; // force an unpredictable point
            values[n / 2] = f64::NAN;
            for round_f32 in [false, true] {
                let mut q = Quantizer::new(1e-3, 32768, round_f32, n);
                let recon_c = encode(&values, &dims, &mut q);
                let mut dq = Dequantizer::new(1e-3, 32768, round_f32, &q.symbols, &q.unpredictable);
                let seq = decode(&dims, &mut dq).unwrap();
                assert_eq!(
                    seq.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    recon_c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
                for threads in [2usize, 3, 5] {
                    let par = decode_par(
                        &dims,
                        1e-3,
                        32768,
                        round_f32,
                        &q.symbols,
                        &q.unpredictable,
                        threads,
                    )
                    .unwrap();
                    assert_eq!(
                        par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        seq.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "dims={dims:?} threads={threads} round_f32={round_f32}"
                    );
                }
            }
        }
    }

    #[test]
    fn wavefront_decode_propagates_truncation_errors() {
        let values = synth(16 * 12, 1.0);
        let mut q = Quantizer::new(1e-3, 32768, false, values.len());
        encode(&values, &[16, 12], &mut q);
        // truncated symbols
        assert!(decode_par(
            &[16, 12],
            1e-3,
            32768,
            false,
            &q.symbols[..10],
            &q.unpredictable,
            3
        )
        .is_err());
        // missing unpredictable values
        let mut vals2 = values.clone();
        vals2[5] = 1e40;
        let mut q2 = Quantizer::new(1e-3, 32768, false, vals2.len());
        encode(&vals2, &[16, 12], &mut q2);
        assert!(!q2.unpredictable.is_empty());
        assert!(decode_par(&[16, 12], 1e-3, 32768, false, &q2.symbols, &[], 3).is_err());
    }
}
