//! The element-at-a-time Lorenzo loops the sweep replaced, kept as its twin:
//! every form of the sweep — one row, portable bands, AVX2 bands — is held
//! to these bit for bit, on what they accept and on what they reject.

use super::sweep::Kernel;
use super::{normalize_dims, predict};
use crate::quantizer::{DequantError, Dequantizer, Formula, Quantizer};
use pressio_core::fuzz::Rng;
use pressio_core::lanes::{Element, Widen};
use pressio_dataset::hurricane::Hurricane;
use proptest::prelude::*;

const RADIUS: i64 = crate::RADIUS;

/// Quantize `values` under Lorenzo prediction, returning the reconstruction.
fn encode(values: &[f64], dims: &[usize], q: &mut Quantizer) -> Vec<f64> {
    let [nx, ny, nz] = normalize_dims(dims);
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
fn decode(dims: &[usize], dq: &mut Dequantizer) -> Result<Vec<f64>, DequantError> {
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

/// Every form this host can run; the selected one is among them.
fn kernels() -> Vec<Kernel> {
    let mut all = vec![Kernel::one_row(), Kernel::portable()];
    match Kernel::avx2() {
        Some(avx2) => all.push(avx2),
        None => eprintln!("SKIPPED avx2 (not supported by this CPU)"),
    }
    assert!(all.contains(&Kernel::selected()));
    all
}

fn widened<T: Widen>(values: &[T]) -> Vec<f64> {
    values.iter().map(|v| v.widen()).collect()
}

fn bits<T: Widen>(values: &[T]) -> Vec<u64> {
    values.iter().map(|v| v.widen().to_bits()).collect()
}

/// The twin's answer to a pair of streams, as bits or as the error's text.
fn twin_decode(
    dims: &[usize],
    eb: f64,
    round_f32: bool,
    symbols: &[u32],
    verbatim: &[f64],
) -> Result<Vec<f64>, &'static str> {
    let mut dq = Dequantizer::new(eb, RADIUS, round_f32, symbols, verbatim);
    decode(dims, &mut dq).map_err(|e| e.0)
}

/// Hold `kernel` to the twin on one pair of streams, valid or not: the same
/// values written as `f64` and as `f32`, or the same error.
fn check_decode(
    kernel: Kernel,
    dims: &[usize],
    bound: (f64, i64, bool),
    symbols: &[u32],
    verbatim: &[f64],
    what: &str,
) {
    let want = twin_decode(dims, bound.0, bound.2, symbols, verbatim);
    let wide = kernel.decode::<f64, _>(dims, bound, symbols, verbatim.iter().copied());
    let narrow = kernel.decode::<f32, _>(dims, bound, symbols, verbatim.iter().copied());
    let (wide, narrow) = (wide.map_err(|e| e.0), narrow.map_err(|e| e.0));
    let context = format!("{} {dims:?} {bound:?}: {what}", kernel.name());
    assert_eq!(
        wide.as_deref().map(bits),
        want.as_deref().map(bits),
        "{context}"
    );
    let narrowed = want.map(|w| w.iter().map(|&v| f32::narrow(v)).collect::<Vec<_>>());
    assert_eq!(
        narrow.as_deref().map(bits),
        narrowed.as_deref().map(bits),
        "f32 {context}"
    );
}

/// The symbols a corrupt stream can hold in place of a valid one: the escape,
/// the first value out of range, and two far beyond it.
const FLIPS: [u32; 4] = [0, 2 * RADIUS as u32, 2 * RADIUS as u32 + 1, u32::MAX];

/// Encode `values` with every kernel and hold symbols, escapes,
/// reconstruction and both decoded forms to the twin; then corrupt the
/// streams at the `cuts` given (or, with `None`, everywhere) and hold the
/// errors to the twin's too.
fn check<T: Widen>(
    values: &[T],
    dims: &[usize],
    eb: f64,
    round_f32: bool,
    mut cuts: Option<&mut Rng>,
) {
    let wide = widened(values);
    let mut q = Quantizer::new(eb, RADIUS, round_f32, wide.len());
    let recon = encode(&wide, dims, &mut q);
    let bound = (eb, RADIUS, round_f32);
    let (n, escapes) = (q.symbols.len(), q.unpredictable.len());
    let mut places = |of: usize| -> Vec<usize> {
        match &mut cuts {
            Some(rng) => (0..4.min(of)).map(|_| rng.below(of)).collect(),
            None => (0..of).collect(),
        }
    };
    let (symbol_cuts, escape_cuts, flips) = (places(n), places(escapes), places(n));
    for kernel in kernels() {
        let context = format!("{} {dims:?} eb={eb:e} round_f32={round_f32}", kernel.name());
        let coded = kernel.encode(values, dims, bound, true, Vec::new());
        assert_eq!(coded.symbols, q.symbols, "{context}");
        assert_eq!(
            bits(&coded.unpredictable),
            bits(&q.unpredictable),
            "{context}"
        );
        assert_eq!(bits(&coded.reconstruction), bits(&recon), "{context}");
        let lean = kernel.encode(values, dims, bound, false, Vec::new());
        assert!(lean.reconstruction.is_empty() && lean.symbols == coded.symbols);

        check_decode(kernel, dims, bound, &q.symbols, &q.unpredictable, "intact");
        for &cut in &symbol_cuts {
            let what = format!("symbols cut at {cut}");
            check_decode(
                kernel,
                dims,
                bound,
                &q.symbols[..cut],
                &q.unpredictable,
                &what,
            );
        }
        for &cut in &escape_cuts {
            let what = format!("escapes cut at {cut}");
            check_decode(
                kernel,
                dims,
                bound,
                &q.symbols,
                &q.unpredictable[..cut],
                &what,
            );
        }
        let mut flipped = q.symbols.clone();
        for &at in &flips {
            for flip in FLIPS {
                let kept = std::mem::replace(&mut flipped[at], flip);
                let what = format!("symbol {at} flipped to {flip}");
                check_decode(kernel, dims, bound, &flipped, &q.unpredictable, &what);
                flipped[at] = kept;
            }
        }
    }
}

const NX: [usize; 9] = [1, 2, 7, 8, 9, 15, 16, 17, 33];
const NY: [usize; 6] = [1, 7, 8, 9, 16, 23];
const NZ: [usize; 3] = [1, 2, 3];

/// Bounds from 1e-12 to 0.25; the powers of two make the ties below exact.
const BOUNDS: [f64; 6] = [1e-12, 1e-7, 1e-4, 0.0078125, 0.1, 0.25];

/// A buffer written against the reconstruction as it grows, so that chosen
/// elements land where the quantizer's predicates change their answer: on
/// exact `.5` ties of `(v − pred) / 2eb`, on codes at `±(RADIUS − 2)` (the
/// last representable) and `±(RADIUS − 1)` (the first that is not), and on
/// every kind of value the escape path exists for. `narrow` keeps the
/// values `f32`-representable.
fn adversarial(dims: &[usize], eb: f64, round_f32: bool, narrow: bool, rng: &mut Rng) -> Vec<f64> {
    let [nx, ny, nz] = normalize_dims(dims);
    let (n, nxy) = (nx * ny * nz, nx * ny);
    let mut q = Quantizer::new(eb, RADIUS, round_f32, n);
    let mut recon = vec![0.0f64; n];
    let mut values = Vec::with_capacity(n);
    let salts = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        f32::MAX as f64,
        f32::MIN as f64,
        1e-40, // subnormal as an f32
        if narrow { -1e-42 } else { 5e-324 },
        if narrow { 0.0 } else { -1e-310 },
    ];
    let edge = (RADIUS - 2) as f64;
    for idx in 0..n {
        let (x, y, z) = (idx % nx, idx / nx % ny, idx / nxy);
        let pred = predict(&recon, nx, nxy, x, y, z);
        // an escape leaves a non-finite or huge neighbour; start over from
        // a smooth value so the next elements are codes again
        let anchor = if pred.is_finite() && pred.abs() < 1e6 {
            pred
        } else {
            (idx as f64 * 0.37).sin()
        };
        let smooth = anchor + ((idx as f64 * 0.11).cos() * 3.0).round() * 2.0 * eb;
        let value = match rng.below(16) {
            0 => salts[rng.below(salts.len())],
            1 => anchor + (rng.below(9) as f64 - 4.5) * 2.0 * eb,
            2 => anchor + [edge, -edge, edge + 1.0, -edge - 1.0][rng.below(4)] * 2.0 * eb,
            3 => anchor + (rng.below(2001) as f64 - 1000.0) * 0.013,
            _ => smooth + (rng.below(1000) as f64 / 1000.0 - 0.5) * eb,
        };
        let value = if narrow { value as f32 as f64 } else { value };
        recon[idx] = q.quantize(pred, value);
        values.push(value);
    }
    values
}

fn check_both_widths(dims: &[usize], eb: f64, round_f32: bool, narrow: bool, rng: &mut Rng) {
    let values = adversarial(dims, eb, round_f32, narrow, rng);
    if narrow {
        let values: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        check(&values, dims, eb, round_f32, Some(&mut *rng));
    } else {
        check(&values, dims, eb, round_f32, Some(&mut *rng));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    // ranks 1–4 over shapes on both sides of the band height and width,
    // both input widths × both rounding modes, six bounds
    #[test]
    fn every_kernel_is_the_twin_bit_for_bit(
        (nx, ny, nz) in (0..NX.len(), 0..NY.len(), 0..NZ.len()),
        rank in 1usize..=4,
        (bound, round_f32, narrow) in (0..BOUNDS.len(), any::<bool>(), any::<bool>()),
        seed in any::<u64>(),
    ) {
        let dims = match rank {
            1 => vec![NX[nx] * NY[ny]],
            2 => vec![NX[nx], NY[ny]],
            3 => vec![NX[nx], NY[ny], NZ[nz]],
            _ => vec![NX[nx], NY[ny], NZ[nz], 2],
        };
        let mut rng = Rng::new(seed);
        check_both_widths(&dims, BOUNDS[bound], round_f32, narrow, &mut rng);
    }
}

/// Every shape of the grid once, at rank 3, with the seed a function of the
/// shape: what the proptest samples, swept.
#[test]
fn every_shape_of_the_grid() {
    for (i, nx) in NX.into_iter().enumerate() {
        for (j, ny) in NY.into_iter().enumerate() {
            for nz in NZ {
                let mut rng = Rng::new((nx * 1000 + ny * 10 + nz) as u64);
                let eb = BOUNDS[(i + j + nz) % BOUNDS.len()];
                let (round_f32, narrow) = ((i + nz) % 2 == 0, (j + nz) % 2 == 0);
                check_both_widths(&[nx, ny, nz], eb, round_f32, narrow, &mut rng);
            }
        }
    }
}

/// Every truncation of either stream and every flip of every symbol, on
/// shapes that have whole bands, leftover rows and a plane below.
#[test]
fn every_truncation_and_every_flip_fails_as_the_twin_does() {
    for (dims, eb, round_f32) in [
        (vec![9usize, 9, 2], 0.0078125, true),
        (vec![8, 17], 1e-4, false),
        (vec![16, 8, 2], 0.25, true),
        (vec![40], 1e-7, false),
    ] {
        let mut rng = Rng::new(dims.len() as u64);
        let values = adversarial(&dims, eb, round_f32, round_f32, &mut rng);
        check(&values, &dims, eb, round_f32, None);
    }
}

#[test]
fn an_all_escape_buffer() {
    let dims = [17usize, 9, 2];
    let n: usize = dims.iter().product();
    let nan = vec![f32::NAN; n];
    check(&nan, &dims, 1e-4, true, Some(&mut Rng::new(1)));
    // finite, and never within reach of a prediction
    let far: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { 1e30 } else { -1e30 } * (1.0 + i as f64))
        .collect();
    check(&far, &dims, 1e-12, false, Some(&mut Rng::new(2)));
    let mut q = Quantizer::new(1e-12, RADIUS, false, n);
    encode(&far, &dims, &mut q);
    assert_eq!(q.unpredictable.len(), n);
}

/// Pressure: smooth in the plane, with a share of escapes at `1e-4` that no
/// synthetic ramp has (the mantissa of a value near 1e5 is coarser than the
/// bound).
#[test]
fn a_pressure_like_field() {
    let data = Hurricane::with_dims(33, 23, 5, 1).generate("P", 0);
    let values = data.as_f32().unwrap();
    check(values, data.dims(), 1e-4, true, Some(&mut Rng::new(3)));
    let mut q = Quantizer::new(1e-4, RADIUS, true, values.len());
    encode(&widened(values), data.dims(), &mut q);
    let share = q.unpredictable.len() as f64 / values.len() as f64;
    assert!(share > 0.02 && share < 0.5, "escape share {share}");
}

/// [`Formula::quantize`] against the branchy scalar it restates, where the
/// two could part: a prediction of `−0.0` under a code that rounds to `−0.0`.
#[test]
fn the_formula_is_the_scalar_quantizer() {
    let zeros = [0.0, -0.0, 1e-9, -1e-9, 5e-324, -5e-324, 1e-4, -1e-4];
    let mut rng = Rng::new(7);
    let mut random = || f64::from_bits(rng.next_u64());
    let mut pairs: Vec<(f64, f64)> = zeros
        .iter()
        .flat_map(|&p| zeros.iter().map(move |&v| (p, v)))
        .collect();
    pairs.extend((0..20_000).map(|_| (random(), random())));
    pairs.extend((0..20_000).map(|i| {
        let p = (i as f64 * 0.01).sin() * 7.0;
        (p, p + (random() % 1e-2))
    }));
    for eb in [1e-12, 1e-4, 0.25] {
        for round_f32 in [false, true] {
            let formula = Formula::new(eb, RADIUS, round_f32);
            for &(p, v) in &pairs {
                let mut q = Quantizer::new(eb, RADIUS, round_f32, 1);
                let recon = q.quantize(p, v);
                let (value, symbol) = formula.quantize(p, v);
                assert_eq!(
                    (value.to_bits(), symbol),
                    (recon.to_bits(), q.symbols[0]),
                    "p={p:e} v={v:e} eb={eb:e} round_f32={round_f32}"
                );
                let verbatim = q.unpredictable.first().copied().unwrap_or(f64::NAN);
                assert_eq!(
                    formula.recover(p, symbol, verbatim).to_bits(),
                    recon.to_bits()
                );
            }
        }
    }
}

/// The one prediction that is `−0.0`: `W`, `N`, `U` and `UNW` at `−0.0`
/// around `NW`, `UW`, `UN` at `+0.0` (each of them an escape, forced by the
/// NaN everywhere else). A value just below it then takes the code `−0.0`,
/// and `−0.0 + 2eb · −0.0` keeps the sign the integer round trip drops.
#[test]
fn a_negative_zero_prediction_under_a_negative_zero_code() {
    let dims = [12usize, 17, 3];
    let at = |x: usize, y: usize, z: usize| (z * dims[1] + y) * dims[0] + x;
    for z in [1, 2] {
        for y in 1..dims[1] {
            for x in [1, 5, 11] {
                let mut values = vec![f64::NAN; dims.iter().product()];
                for (dx, dy, dz, value) in [
                    (1, 1, 1, -0.0), // UNW
                    (0, 1, 1, 0.0),  // UN
                    (1, 0, 1, 0.0),  // UW
                    (0, 0, 1, -0.0), // U
                    (1, 1, 0, 0.0),  // NW
                    (0, 1, 0, -0.0), // N
                    (1, 0, 0, -0.0), // W
                    (0, 0, 0, -5e-324),
                ] {
                    values[at(x - dx, y - dy, z - dz)] = value;
                }
                let mut q = Quantizer::new(1e-4, RADIUS, false, values.len());
                let recon = encode(&values, &dims, &mut q);
                assert_eq!(q.symbols[at(x, y, z)], RADIUS as u32);
                assert_eq!(recon[at(x, y, z)].to_bits(), 0.0f64.to_bits());
                check(&values, &dims, 1e-4, false, Some(&mut Rng::new(0)));
            }
        }
    }
}

#[test]
fn the_selected_kernel_is_reported() {
    eprintln!(
        "lorenzo kernel selected on this host: {}",
        Kernel::selected().name()
    );
    assert_eq!(
        Kernel::selected() == Kernel::portable(),
        Kernel::avx2().is_none()
    );
}
