//! Per-block hybrid prediction — SZ3's actual design: every `B³` block
//! independently chooses between the Lorenzo predictor and block-local
//! linear regression, based on which fits the block's *original* values
//! better (a cheap estimate, no trial compression). One mode bit per block
//! plus coefficients for the regression blocks travel in side streams.
//!
//! Lorenzo predictions reference the global reconstruction buffer, so a
//! Lorenzo block at a regression block's boundary still uses its already-
//! reconstructed neighbors — matching the reference implementation's
//! traversal (block-by-block, row-major within a block).

use crate::lorenzo::{normalize_dims, predict as lorenzo_predict};
use crate::quantizer::{DequantError, Dequantizer, Quantizer};
use crate::regression::solve4;

/// Fit `v ≈ c0 + c1·x + c2·y + c3·z` on one block of original values and
/// return `(coefficients, mean |residual|)`.
fn fit_and_score(
    values: &[f64],
    nx: usize,
    nxy: usize,
    o: (usize, usize, usize),
    b: (usize, usize, usize),
) -> ([f32; 4], f64) {
    let mut a = [[0.0f64; 5]; 4];
    for z in 0..b.2 {
        for y in 0..b.1 {
            for x in 0..b.0 {
                let v = values[(o.2 + z) * nxy + (o.1 + y) * nx + (o.0 + x)];
                let v = if v.is_finite() { v } else { 0.0 };
                let row = [1.0, x as f64, y as f64, z as f64];
                for i in 0..4 {
                    for j in 0..4 {
                        a[i][j] += row[i] * row[j];
                    }
                    a[i][4] += row[i] * v;
                }
            }
        }
    }
    for (i, extent) in [(1usize, b.0), (2, b.1), (3, b.2)] {
        if extent <= 1 {
            a[i][i] += 1.0;
        }
    }
    let coeffs = match solve4(&mut a) {
        Some(c) => [c[0] as f32, c[1] as f32, c[2] as f32, c[3] as f32],
        None => {
            let n = (b.0 * b.1 * b.2) as f64;
            [(a[0][4] / n.max(1.0)) as f32, 0.0, 0.0, 0.0]
        }
    };
    let mut err = 0.0f64;
    let mut n = 0usize;
    for z in 0..b.2 {
        for y in 0..b.1 {
            for x in 0..b.0 {
                let v = values[(o.2 + z) * nxy + (o.1 + y) * nx + (o.0 + x)];
                if !v.is_finite() {
                    continue;
                }
                let p = coeffs[0] as f64
                    + coeffs[1] as f64 * x as f64
                    + coeffs[2] as f64 * y as f64
                    + coeffs[3] as f64 * z as f64;
                err += (v - p).abs();
                n += 1;
            }
        }
    }
    (coeffs, err / n.max(1) as f64)
}

/// Mean |Lorenzo residual| over one block, using original neighbors as the
/// selection proxy (the same estimate SZ3 uses — no trial compression).
fn lorenzo_score(
    values: &[f64],
    nx: usize,
    nxy: usize,
    o: (usize, usize, usize),
    b: (usize, usize, usize),
) -> f64 {
    let mut err = 0.0f64;
    let mut n = 0usize;
    for z in 0..b.2 {
        for y in 0..b.1 {
            for x in 0..b.0 {
                let (gx, gy, gz) = (o.0 + x, o.1 + y, o.2 + z);
                let v = values[gz * nxy + gy * nx + gx];
                let p = lorenzo_predict(values, nx, nxy, gx, gy, gz);
                if v.is_finite() && p.is_finite() {
                    err += (v - p).abs();
                    n += 1;
                }
            }
        }
    }
    err / n.max(1) as f64
}

/// Iterate blocks and elements in the canonical order shared by encode and
/// decode. `f(block_index, origin, extent)`.
fn for_each_block(
    dims: [usize; 3],
    block: usize,
    mut f: impl FnMut(usize, (usize, usize, usize), (usize, usize, usize)),
) {
    let b = block.max(2);
    let mut index = 0usize;
    for oz in (0..dims[2].max(1)).step_by(b) {
        for oy in (0..dims[1].max(1)).step_by(b) {
            for ox in (0..dims[0].max(1)).step_by(b) {
                let ext = (
                    b.min(dims[0] - ox),
                    b.min(dims[1] - oy),
                    b.min(dims[2] - oz),
                );
                f(index, (ox, oy, oz), ext);
                index += 1;
            }
        }
    }
}

/// Quantize under per-block hybrid prediction. Returns
/// `(reconstruction, coefficients_for_regression_blocks, mode_bitmap)`:
/// bit `i` of the bitmap set = block `i` used regression.
pub fn encode(
    values: &[f64],
    dims: &[usize],
    block: usize,
    q: &mut Quantizer,
) -> (Vec<f64>, Vec<f32>, Vec<u8>) {
    let nd = normalize_dims(dims);
    debug_assert_eq!(nd.iter().product::<usize>(), values.len());
    let (nx, nxy) = (nd[0], nd[0] * nd[1]);
    let mut recon = vec![0.0f64; values.len()];
    let mut coeffs = Vec::new();
    let mut modes = Vec::new();
    for_each_block(nd, block, |index, o, b| {
        if index % 8 == 0 {
            modes.push(0u8);
        }
        let l_score = lorenzo_score(values, nx, nxy, o, b);
        let (c, r_score) = fit_and_score(values, nx, nxy, o, b);
        // regression must also pay for shipping 16 coefficient bytes;
        // demand a clear win (SZ3 biases toward Lorenzo the same way)
        let use_regression = r_score < l_score * 0.9;
        if use_regression {
            *modes.last_mut().unwrap() |= 1 << (index % 8);
            coeffs.extend_from_slice(&c);
        }
        for z in 0..b.2 {
            for y in 0..b.1 {
                for x in 0..b.0 {
                    let idx = (o.2 + z) * nxy + (o.1 + y) * nx + (o.0 + x);
                    let pred = if use_regression {
                        c[0] as f64
                            + c[1] as f64 * x as f64
                            + c[2] as f64 * y as f64
                            + c[3] as f64 * z as f64
                    } else {
                        lorenzo_predict(&recon, nx, nxy, o.0 + x, o.1 + y, o.2 + z)
                    };
                    recon[idx] = q.quantize(pred, values[idx]);
                }
            }
        }
    });
    (recon, coeffs, modes)
}

/// Reconstruct a hybrid-coded buffer.
pub fn decode(
    dims: &[usize],
    block: usize,
    coeffs: &[f32],
    modes: &[u8],
    dq: &mut Dequantizer,
) -> Result<Vec<f64>, DequantError> {
    let nd = normalize_dims(dims);
    let (nx, nxy) = (nd[0], nd[0] * nd[1]);
    let mut recon = vec![0.0f64; nd.iter().product()];
    let mut ci = 0usize;
    let mut err: Option<DequantError> = None;
    for_each_block(nd, block, |index, o, b| {
        if err.is_some() {
            return;
        }
        let Some(byte) = modes.get(index / 8) else {
            err = Some(DequantError("mode bitmap exhausted"));
            return;
        };
        let use_regression = (byte >> (index % 8)) & 1 == 1;
        let c: [f32; 4] = if use_regression {
            match coeffs.get(ci..ci + 4) {
                Some(s) => {
                    ci += 4;
                    [s[0], s[1], s[2], s[3]]
                }
                None => {
                    err = Some(DequantError("coefficient stream exhausted"));
                    return;
                }
            }
        } else {
            [0.0; 4]
        };
        for z in 0..b.2 {
            for y in 0..b.1 {
                for x in 0..b.0 {
                    if err.is_some() {
                        return;
                    }
                    let idx = (o.2 + z) * nxy + (o.1 + y) * nx + (o.0 + x);
                    let pred = if use_regression {
                        c[0] as f64
                            + c[1] as f64 * x as f64
                            + c[2] as f64 * y as f64
                            + c[3] as f64 * z as f64
                    } else {
                        lorenzo_predict(&recon, nx, nxy, o.0 + x, o.1 + y, o.2 + z)
                    };
                    match dq.recover(pred) {
                        Ok(v) => recon[idx] = v,
                        Err(e) => err = Some(e),
                    }
                }
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(recon),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantizer::{Dequantizer, Quantizer};

    fn round_trip(values: &[f64], dims: &[usize], eb: f64, block: usize) -> Vec<f64> {
        let mut q = Quantizer::new(eb, 32768, false, values.len());
        let (recon_c, coeffs, modes) = encode(values, dims, block, &mut q);
        let mut dq = Dequantizer::new(eb, 32768, false, &q.symbols, &q.unpredictable);
        let recon_d = decode(dims, block, &coeffs, &modes, &mut dq).unwrap();
        assert_eq!(recon_c, recon_d, "encoder/decoder reconstruction mismatch");
        recon_d
    }

    /// Half the domain is a *noisy* plane — regression averages the noise
    /// while Lorenzo's 3-point stencil amplifies it — and half is a smooth
    /// wave where Lorenzo is near-exact. The hybrid should split its modes.
    fn mixed_field(nx: usize, ny: usize) -> Vec<f64> {
        let mut state = 0xF1E1Du64;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..nx * ny)
            .map(|i| {
                let (x, y) = ((i % nx) as f64, (i / nx) as f64);
                let n = noise();
                if x < nx as f64 / 2.0 {
                    3.0 + 0.5 * x - 0.25 * y + 0.4 * n
                } else {
                    (x * 0.15).sin() * (y * 0.12).cos()
                }
            })
            .collect()
    }

    #[test]
    fn bound_respected_on_mixed_data() {
        let (nx, ny) = (36, 30);
        let values = mixed_field(nx, ny);
        for eb in [1e-2, 1e-5] {
            let recon = round_trip(&values, &[nx, ny], eb, 6);
            for (v, r) in values.iter().zip(&recon) {
                assert!((v - r).abs() <= eb, "eb={eb}");
            }
        }
    }

    #[test]
    fn modes_actually_mix() {
        let (nx, ny) = (36, 36);
        let values = mixed_field(nx, ny);
        let mut q = Quantizer::new(1e-4, 32768, false, values.len());
        let (_, coeffs, modes) = encode(&values, &[nx, ny], 6, &mut q);
        let total_blocks = 36usize.div_ceil(6) * 36usize.div_ceil(6);
        let regression_blocks = coeffs.len() / 4;
        let set_bits: usize = modes.iter().map(|b| b.count_ones() as usize).sum();
        assert_eq!(set_bits, regression_blocks);
        assert!(
            regression_blocks > 0 && regression_blocks < total_blocks,
            "expected mixed modes, got {regression_blocks}/{total_blocks} regression"
        );
    }

    #[test]
    fn hybrid_beats_both_pure_modes_on_mixed_3d_data() {
        // 3-d is where the trade-off bites: the 7-point Lorenzo stencil
        // amplifies iid noise by √7 (≈1.4 extra bits/point on the noisy
        // half) while a 6³ block amortizes its 16 coefficient bytes down to
        // ~0.6 bits/point — so per-block selection wins over both pure modes
        use crate::codec::{assemble_par, predict_and_quantize_par, Predictor};
        use pressio_core::Dtype;
        let (nx, ny, nz) = (24usize, 24, 24);
        let mut state = 0xF1E1Du64;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let values: Vec<f64> = (0..nx * ny * nz)
            .map(|i| {
                let x = (i % nx) as f64;
                let y = ((i / nx) % ny) as f64;
                let z = (i / (nx * ny)) as f64;
                if x < nx as f64 / 2.0 {
                    3.0 + 0.5 * x - 0.25 * y + 0.1 * z + 0.4 * noise()
                } else {
                    (x * 0.15).sin() * (y * 0.12).cos() + 0.05 * z
                }
            })
            .collect();
        let dims = vec![nx, ny, nz];
        let eb = 1e-4;
        let size_of = |p: Predictor| {
            let qs = predict_and_quantize_par(&values, &dims, eb, p, 6, false, 1);
            assemble_par(Dtype::F64, &dims, eb, p, 6, &qs, 1).len()
        };
        let hybrid = size_of(Predictor::Hybrid);
        let lorenzo = size_of(Predictor::Lorenzo);
        let regression = size_of(Predictor::Regression);
        assert!(
            hybrid < lorenzo && hybrid < regression,
            "hybrid {hybrid} vs lorenzo {lorenzo} vs regression {regression}"
        );
    }

    #[test]
    fn partial_blocks_and_3d() {
        let dims = [13usize, 11, 7];
        let n: usize = dims.iter().product();
        let values: Vec<f64> = (0..n)
            .map(|i| {
                let x = (i % 13) as f64;
                let y = ((i / 13) % 11) as f64;
                let z = (i / 143) as f64;
                x * 0.3 - y * 0.2 + (z * 1.3).sin()
            })
            .collect();
        let eb = 1e-3;
        let recon = round_trip(&values, &dims, eb, 6);
        for (v, r) in values.iter().zip(&recon) {
            assert!((v - r).abs() <= eb);
        }
    }

    #[test]
    fn truncated_side_streams_error() {
        let values = mixed_field(24, 24);
        let mut q = Quantizer::new(1e-3, 32768, false, values.len());
        let (_, coeffs, modes) = encode(&values, &[24, 24], 6, &mut q);
        let mut dq = Dequantizer::new(1e-3, 32768, false, &q.symbols, &q.unpredictable);
        assert!(decode(&[24, 24], 6, &coeffs, &modes[..modes.len() - 1], &mut dq).is_err());
        if coeffs.len() >= 4 {
            let mut dq = Dequantizer::new(1e-3, 32768, false, &q.symbols, &q.unpredictable);
            assert!(decode(&[24, 24], 6, &coeffs[..coeffs.len() - 4], &modes, &mut dq).is_err());
        }
    }
}
