//! Block-wise linear-regression prediction (SZ3's regression predictor).
//!
//! The volume is tiled into `B³` blocks (B=6 by default, matching SZ3).
//! For each block a first-order model `v ≈ c0 + c1·x + c2·y + c3·z` is fit
//! to the *original* values by least squares; the coefficients are stored
//! as `f32` in a side stream so the decompressor reproduces identical
//! predictions, and residuals go through the shared quantizer.

use crate::lorenzo::normalize_dims;
use crate::quantizer::{DequantError, Dequantizer, Quantizer};

/// Default block edge length (SZ3 uses 6 for its regression blocks).
pub const DEFAULT_BLOCK: usize = 6;

/// Solve the 4×4 normal equations `A c = b` by Gaussian elimination with
/// partial pivoting; returns `None` when singular (degenerate block).
pub(crate) fn solve4(a: &mut [[f64; 5]; 4]) -> Option<[f64; 4]> {
    for col in 0..4 {
        // pivot
        let mut best = col;
        for row in col + 1..4 {
            if a[row][col].abs() > a[best][col].abs() {
                best = row;
            }
        }
        if a[best][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, best);
        let pivot = a[col][col];
        let acol = a[col];
        for arow in a.iter_mut().skip(col + 1) {
            let factor = arow[col] / pivot;
            for (k, &ack) in acol.iter().enumerate().skip(col) {
                arow[k] -= factor * ack;
            }
        }
    }
    let mut c = [0.0f64; 4];
    for row in (0..4).rev() {
        let mut sum = a[row][4];
        for k in row + 1..4 {
            sum -= a[row][k] * c[k];
        }
        c[row] = sum / a[row][row];
    }
    Some(c)
}

/// `(Σ x, Σ x²)` for `x in 0..n`, as exact integer-valued `f64`s.
#[inline]
fn coord_sums(n: usize) -> (f64, f64) {
    if n == 0 {
        return (0.0, 0.0);
    }
    let t = (n * (n - 1) / 2) as f64;
    let q = ((n - 1) * n * (2 * n - 1) / 6) as f64;
    (t, q)
}

/// Lane-kernel `(Σ v, Σ x·v)` over one block row; non-finite values
/// contribute 0, matching the old per-element accumulation.
#[inline]
fn row_weighted_sums(row: &[f64]) -> (f64, f64) {
    use pressio_core::lanes::{finite_or_zero, fold, LANES};
    let mut s = [0.0f64; LANES];
    let mut sx = [0.0f64; LANES];
    let mut chunks = row.chunks_exact(LANES);
    let mut base = 0usize;
    for chunk in &mut chunks {
        for l in 0..LANES {
            let v = finite_or_zero(chunk[l]);
            s[l] += v;
            sx[l] += (base + l) as f64 * v;
        }
        base += LANES;
    }
    for (l, &raw) in chunks.remainder().iter().enumerate() {
        let v = finite_or_zero(raw);
        s[l] += v;
        sx[l] += (base + l) as f64 * v;
    }
    (fold(s), fold(sx))
}

/// Fit `v ≈ c0 + c1·x + c2·y + c3·z` over one block of original values.
/// Degenerate blocks (constant coordinates) get ridge-free reduced fits by
/// zeroing the affected coefficients.
#[allow(clippy::too_many_arguments)]
fn fit_block(
    values: &[f64],
    nx: usize,
    nxy: usize,
    ox: usize,
    oy: usize,
    oz: usize,
    bx: usize,
    by: usize,
    bz: usize,
) -> [f32; 4] {
    // The normal-equation matrix depends only on the block shape: every
    // entry is an integer sum over block-local coordinates, so the closed
    // forms below are exactly (bit-for-bit) the values the old
    // element-by-element accumulation produced — integers this small are
    // exact in f64 regardless of summation order.
    let (tx, qx) = coord_sums(bx);
    let (ty, qy) = coord_sums(by);
    let (tz, qz) = coord_sums(bz);
    let (fx, fy, fz) = (bx as f64, by as f64, bz as f64);
    let n = fx * fy * fz;
    let mut a = [
        [n, tx * fy * fz, ty * fx * fz, tz * fx * fy, 0.0],
        [tx * fy * fz, qx * fy * fz, tx * ty * fz, tx * tz * fy, 0.0],
        [ty * fx * fz, tx * ty * fz, qy * fx * fz, ty * tz * fx, 0.0],
        [tz * fx * fy, tx * tz * fy, ty * tz * fx, qz * fx * fy, 0.0],
    ];
    // right-hand side: lane-accumulated weighted sums, row by row
    let (mut b0, mut b1, mut b2, mut b3) = (0.0f64, 0.0, 0.0, 0.0);
    for z in 0..bz {
        for y in 0..by {
            let base = (oz + z) * nxy + (oy + y) * nx + ox;
            let (rs, rxs) = row_weighted_sums(&values[base..base + bx]);
            b0 += rs;
            b1 += rxs;
            b2 += y as f64 * rs;
            b3 += z as f64 * rs;
        }
    }
    a[0][4] = b0;
    a[1][4] = b1;
    a[2][4] = b2;
    a[3][4] = b3;
    // dimensions with a single layer make the system singular; tiny ridge on
    // the diagonal keeps the solve stable and pushes unused coeffs toward 0
    for (i, extent) in [(1usize, bx), (2, by), (3, bz)] {
        if extent <= 1 {
            a[i][i] += 1.0;
        }
    }
    match solve4(&mut a) {
        Some(c) => [c[0] as f32, c[1] as f32, c[2] as f32, c[3] as f32],
        None => {
            // fall back to the block mean
            let mean = if n > 0.0 { a[0][4] / n } else { 0.0 };
            [mean as f32, 0.0, 0.0, 0.0]
        }
    }
}

/// Predictions for one block row. Encoder and decoder both evaluate the
/// model through this function, so the prediction — and therefore the
/// reconstruction — is bit-identical on both sides.
#[inline]
fn row_preds(c: &[f32], y: usize, z: usize, out: &mut [f64]) {
    let base = c[0] as f64 + c[2] as f64 * y as f64 + c[3] as f64 * z as f64;
    let c1 = c[1] as f64;
    for (x, p) in out.iter_mut().enumerate() {
        *p = base + c1 * x as f64;
    }
}

/// Reusable per-block staging buffers for the lane quantizer.
#[derive(Default)]
struct BlockScratch {
    vals: Vec<f64>,
    preds: Vec<f64>,
    recon: Vec<f64>,
}

/// Gather one block's values and predictions into contiguous scratch and
/// run the lane quantizer over the whole block at once (symbol order is
/// the block-raster order the scalar loop used).
#[allow(clippy::too_many_arguments)]
fn quantize_block(
    values: &[f64],
    nx: usize,
    nxy: usize,
    ox: usize,
    oy: usize,
    oz: usize,
    bx: usize,
    by: usize,
    bz: usize,
    c: &[f32; 4],
    q: &mut Quantizer,
    s: &mut BlockScratch,
) {
    let n = bx * by * bz;
    s.vals.clear();
    s.preds.clear();
    s.preds.resize(n, 0.0);
    let mut k = 0usize;
    for z in 0..bz {
        for y in 0..by {
            let base = (oz + z) * nxy + (oy + y) * nx + ox;
            s.vals.extend_from_slice(&values[base..base + bx]);
            row_preds(c, y, z, &mut s.preds[k..k + bx]);
            k += bx;
        }
    }
    s.recon.clear();
    s.recon.resize(n, 0.0);
    q.quantize_slice(&s.preds, &s.vals, &mut s.recon);
}

/// Quantize `values` under block regression. Returns `(recon, coefficients)`;
/// the coefficient stream (4 `f32` per block, block-traversal order) must be
/// carried to the decoder verbatim.
pub fn encode(
    values: &[f64],
    dims: &[usize],
    block: usize,
    q: &mut Quantizer,
) -> (Vec<f64>, Vec<f32>) {
    let [nx, ny, nz] = normalize_dims(dims);
    debug_assert_eq!(nx * ny * nz, values.len());
    let nxy = nx * ny;
    let mut recon = vec![0.0f64; values.len()];
    let mut coeffs = Vec::new();
    let b = block.max(2);
    let mut scratch = BlockScratch::default();
    for oz in (0..nz.max(1)).step_by(b) {
        for oy in (0..ny.max(1)).step_by(b) {
            for ox in (0..nx.max(1)).step_by(b) {
                let bx = b.min(nx - ox);
                let by = b.min(ny - oy);
                let bz = b.min(nz - oz);
                let c = fit_block(values, nx, nxy, ox, oy, oz, bx, by, bz);
                coeffs.extend_from_slice(&c);
                quantize_block(values, nx, nxy, ox, oy, oz, bx, by, bz, &c, q, &mut scratch);
                let mut k = 0usize;
                for z in 0..bz {
                    for y in 0..by {
                        let base = (oz + z) * nxy + (oy + y) * nx + ox;
                        recon[base..base + bx].copy_from_slice(&scratch.recon[k..k + bx]);
                        k += bx;
                    }
                }
            }
        }
    }
    (recon, coeffs)
}

/// Blocks per parallel work item. This only sets scheduling granularity —
/// the encoded output never depends on it or on the thread count.
const PAR_GROUP_BLOCKS: usize = 64;

/// Parallel [`encode`]: regression blocks are independent (the fit uses
/// original values and the prediction uses only the block's own
/// coefficients), so groups of blocks are quantized through forked
/// quantizers and the streams spliced back in canonical block order.
/// Output is byte-identical to the sequential path at any thread count;
/// `nthreads <= 1` runs [`encode`] directly.
pub fn encode_par(
    values: &[f64],
    dims: &[usize],
    block: usize,
    q: &mut Quantizer,
    nthreads: usize,
) -> (Vec<f64>, Vec<f32>) {
    if nthreads <= 1 {
        return encode(values, dims, block, q);
    }
    let [nx, ny, nz] = normalize_dims(dims);
    debug_assert_eq!(nx * ny * nz, values.len());
    let nxy = nx * ny;
    let b = block.max(2);
    let mut origins = Vec::new();
    for oz in (0..nz.max(1)).step_by(b) {
        for oy in (0..ny.max(1)).step_by(b) {
            for ox in (0..nx.max(1)).step_by(b) {
                origins.push((ox, oy, oz));
            }
        }
    }
    let groups = pressio_core::threads::par_chunks(
        nthreads,
        &origins,
        PAR_GROUP_BLOCKS,
        |_, group: &[(usize, usize, usize)]| {
            let mut lq = q.fork(group.len() * b * b * b);
            let mut coeffs = Vec::with_capacity(4 * group.len());
            let mut entries = Vec::with_capacity(group.len() * b * b * b);
            let mut scratch = BlockScratch::default();
            for &(ox, oy, oz) in group {
                let bx = b.min(nx - ox);
                let by = b.min(ny - oy);
                let bz = b.min(nz - oz);
                let c = fit_block(values, nx, nxy, ox, oy, oz, bx, by, bz);
                coeffs.extend_from_slice(&c);
                quantize_block(
                    values,
                    nx,
                    nxy,
                    ox,
                    oy,
                    oz,
                    bx,
                    by,
                    bz,
                    &c,
                    &mut lq,
                    &mut scratch,
                );
                entries.extend_from_slice(&scratch.recon);
            }
            (coeffs, lq, entries)
        },
    );
    let mut recon = vec![0.0f64; values.len()];
    let mut coeffs = Vec::with_capacity(4 * origins.len());
    for (origin_group, (c, lq, entries)) in origins.chunks(PAR_GROUP_BLOCKS).zip(groups) {
        coeffs.extend_from_slice(&c);
        q.absorb(lq);
        let mut it = entries.into_iter();
        for &(ox, oy, oz) in origin_group {
            let bx = b.min(nx - ox);
            let by = b.min(ny - oy);
            let bz = b.min(nz - oz);
            for z in 0..bz {
                for y in 0..by {
                    for x in 0..bx {
                        let idx = (oz + z) * nxy + (oy + y) * nx + (ox + x);
                        recon[idx] = it.next().expect("entry per element");
                    }
                }
            }
        }
    }
    (recon, coeffs)
}

/// Reconstruct a regression-coded buffer from the coefficient stream.
pub fn decode(
    dims: &[usize],
    block: usize,
    coeffs: &[f32],
    dq: &mut Dequantizer,
) -> Result<Vec<f64>, DequantError> {
    let [nx, ny, nz] = normalize_dims(dims);
    let nxy = nx * ny;
    let mut recon = vec![0.0f64; nx * ny * nz];
    let b = block.max(2);
    let mut preds = vec![0.0f64; b];
    let mut ci = 0usize;
    for oz in (0..nz.max(1)).step_by(b) {
        for oy in (0..ny.max(1)).step_by(b) {
            for ox in (0..nx.max(1)).step_by(b) {
                let bx = b.min(nx - ox);
                let by = b.min(ny - oy);
                let bz = b.min(nz - oz);
                let c = coeffs
                    .get(ci..ci + 4)
                    .ok_or(DequantError("coefficient stream exhausted"))?;
                ci += 4;
                for z in 0..bz {
                    for y in 0..by {
                        let base = (oz + z) * nxy + (oy + y) * nx + ox;
                        row_preds(c, y, z, &mut preds[..bx]);
                        for x in 0..bx {
                            recon[base + x] = dq.recover(preds[x])?;
                        }
                    }
                }
            }
        }
    }
    Ok(recon)
}

/// Number of regression blocks for a shape (for stream sizing).
pub fn block_count(dims: &[usize], block: usize) -> usize {
    let [nx, ny, nz] = normalize_dims(dims);
    let b = block.max(2);
    [nx, ny, nz].iter().map(|&n| n.max(1).div_ceil(b)).product()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[f64], dims: &[usize], eb: f64, block: usize) -> Vec<f64> {
        let mut q = Quantizer::new(eb, 32768, false, values.len());
        let (recon_c, coeffs) = encode(values, dims, block, &mut q);
        assert_eq!(coeffs.len(), 4 * block_count(dims, block));
        let mut dq = Dequantizer::new(eb, 32768, false, &q.symbols, &q.unpredictable);
        let recon_d = decode(dims, block, &coeffs, &mut dq).unwrap();
        assert_eq!(recon_c, recon_d);
        recon_d
    }

    #[test]
    fn bound_respected_3d() {
        let (nx, ny, nz) = (13, 11, 7); // deliberately not multiples of 6
        let values: Vec<f64> = (0..nx * ny * nz)
            .map(|i| {
                let x = (i % nx) as f64;
                let y = ((i / nx) % ny) as f64;
                let z = (i / (nx * ny)) as f64;
                0.5 * x - 0.2 * y + 0.1 * z + (x * 0.7).sin() * 0.05
            })
            .collect();
        let eb = 1e-3;
        let recon = round_trip(&values, &[nx, ny, nz], eb, DEFAULT_BLOCK);
        for (v, r) in values.iter().zip(&recon) {
            assert!((v - r).abs() <= eb);
        }
    }

    #[test]
    fn affine_blocks_predict_exactly() {
        // pure affine data: every in-block residual rounds to code 0
        let (nx, ny) = (12, 12);
        let values: Vec<f64> = (0..nx * ny)
            .map(|i| 1.0 + 2.0 * (i % nx) as f64 - 3.0 * (i / nx) as f64)
            .collect();
        let mut q = Quantizer::new(1e-4, 32768, false, values.len());
        let _ = encode(&values, &[nx, ny], 6, &mut q);
        let zero = 32768u32;
        let frac_zero =
            q.symbols.iter().filter(|&&s| s == zero).count() as f64 / q.symbols.len() as f64;
        assert!(
            frac_zero > 0.99,
            "affine fit should be near-exact: {frac_zero}"
        );
    }

    #[test]
    fn bound_respected_1d_and_2d() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64 * 0.3).cos()).collect();
        let eb = 1e-2;
        for dims in [vec![100], vec![10, 10]] {
            let recon = round_trip(&values, &dims, eb, 4);
            for (v, r) in values.iter().zip(&recon) {
                assert!((v - r).abs() <= eb);
            }
        }
    }

    #[test]
    fn non_finite_values_survive() {
        let mut values: Vec<f64> = (0..64).map(|i| i as f64).collect();
        values[10] = f64::NAN;
        values[20] = f64::INFINITY;
        let mut q = Quantizer::new(1e-3, 32768, false, values.len());
        let (recon, coeffs) = encode(&values, &[8, 8], 4, &mut q);
        assert!(recon[10].is_nan());
        assert_eq!(recon[20], f64::INFINITY);
        let mut dq = Dequantizer::new(1e-3, 32768, false, &q.symbols, &q.unpredictable);
        let recon_d = decode(&[8, 8], 4, &coeffs, &mut dq).unwrap();
        assert!(recon_d[10].is_nan());
        assert_eq!(recon_d[20], f64::INFINITY);
    }

    #[test]
    fn truncated_coefficients_error() {
        let values: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let mut q = Quantizer::new(1e-3, 32768, false, values.len());
        let (_, coeffs) = encode(&values, &[8, 8], 4, &mut q);
        let mut dq = Dequantizer::new(1e-3, 32768, false, &q.symbols, &q.unpredictable);
        assert!(decode(&[8, 8], 4, &coeffs[..coeffs.len() - 4], &mut dq).is_err());
    }

    #[test]
    fn parallel_encode_matches_sequential() {
        let (nx, ny, nz) = (25, 19, 5);
        let values: Vec<f64> = (0..nx * ny * nz)
            .map(|i| {
                let x = (i % nx) as f64;
                let y = ((i / nx) % ny) as f64;
                (x * 0.31).sin() + (y * 0.17).cos() * 0.4 + (i as f64) * 1e-4
            })
            .collect();
        let dims = [nx, ny, nz];
        let mut sq = Quantizer::new(1e-3, 32768, false, values.len());
        let (srecon, scoef) = encode(&values, &dims, 6, &mut sq);
        for threads in [2usize, 3, 7] {
            let mut pq = Quantizer::new(1e-3, 32768, false, values.len());
            let (precon, pcoef) = encode_par(&values, &dims, 6, &mut pq, threads);
            assert_eq!(srecon, precon, "threads={threads}");
            assert_eq!(scoef, pcoef, "threads={threads}");
            assert_eq!(sq.symbols, pq.symbols, "threads={threads}");
            assert_eq!(sq.unpredictable, pq.unpredictable, "threads={threads}");
        }
    }

    #[test]
    fn block_count_matches_tiling() {
        assert_eq!(block_count(&[12, 12], 6), 4);
        assert_eq!(block_count(&[13, 12], 6), 6);
        assert_eq!(block_count(&[6, 6, 6], 6), 1);
        assert_eq!(block_count(&[100], 6), 17);
    }
}
