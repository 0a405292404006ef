//! The block coder, gather and scatter this crate ran before the block path
//! was rebuilt on stack arrays, whole-group writes and typed slices, kept
//! as its twin: [`Plan`]'s encoder and decoder are held to these bit for
//! bit — the bits out, the values and cursor back, and on damaged streams
//! the same `Ok` or the same error text.

use crate::block::{block_bit_budget, BlockError, Mode, Plan, E_BIAS, INTPREC, P};
use crate::transform::{
    bitplanes, degree_order, fwd_xform, int_to_negabinary, inv_xform, negabinary_to_int,
    transpose64,
};
use pressio_lossless::{BitReader, BitWriter};

/// Lane map of `int_to_negabinary` over a slice.
pub(crate) fn negabinary_slice(ints: &[i64], out: &mut [u64]) {
    for (o, &x) in out.iter_mut().zip(ints) {
        *o = int_to_negabinary(x);
    }
}

/// Lane map of `negabinary_to_int` over a slice.
pub(crate) fn negabinary_to_int_slice(neg: &[u64], out: &mut [i64]) {
    for (o, &u) in out.iter_mut().zip(neg) {
        *o = negabinary_to_int(u);
    }
}

pub(crate) fn block_exponent(values: &[f64]) -> i64 {
    let max = values.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if max == 0.0 {
        return i64::MIN;
    }
    // smallest e with max < 2^e
    let mut e = max.log2().floor() as i64 + 1;
    // guard against rounding at exact powers of two
    while max >= (2.0f64).powi(e as i32) {
        e += 1;
    }
    e
}

/// Lowest encoded bit plane for a mode, given the block exponent and block
/// dimensionality. Deterministic on both sides of the stream.
fn plane_cutoff(mode: Mode, e_max: i64, d: usize) -> u32 {
    match mode {
        Mode::Accuracy(tol) => {
            // dropping planes below k leaves per-coefficient error < 2^k in
            // fixed point = 2^(e_max - P + k) absolute; the inverse
            // transform can amplify by ~2^d, plus rounding slack
            let k = (tol.log2().floor() as i64) + P - e_max - d as i64 - 2;
            k.clamp(0, INTPREC as i64) as u32
        }
        Mode::Precision(p) => INTPREC.saturating_sub(p),
        Mode::Rate(_) => 0,
    }
}

/// Encode one 4^d block of `values` (length `4^d`). Bits are appended to
/// `w`; in rate mode the block is zero-padded to exactly the budget.
pub(crate) fn encode_block(values: &[f64], d: usize, mode: Mode, w: &mut BitWriter) {
    let size = 1usize << (2 * d);
    debug_assert_eq!(values.len(), size);
    let start_bits = w.len_bits();
    let mut budget = block_bit_budget(mode, d);
    if values.iter().any(|v| !v.is_finite()) {
        // raw escape: 2-bit tag 0b10, then 64-bit images
        write_budgeted(w, 0b01, 2, &mut budget); // LSB-first: tag bits 1,0
        for &v in values {
            write_budgeted(w, v.to_bits(), 64, &mut budget);
        }
        pad_to_budget(w, start_bits, mode, d);
        return;
    }
    let e_max = block_exponent(values);
    if e_max == i64::MIN {
        // all-zero block: tag 0b00
        write_budgeted(w, 0b00, 2, &mut budget);
        pad_to_budget(w, start_bits, mode, d);
        return;
    }
    // coded block: tag 0b11? keep tags: 0=zero, 1=raw, 2=coded
    write_budgeted(w, 0b10, 2, &mut budget); // value 2 LSB-first
    write_budgeted(w, (e_max + E_BIAS) as u64, 12, &mut budget);
    let coeffs = coefficients(values, d, e_max);
    let k_stop = plane_cutoff(mode, e_max, d);
    encode_planes(&coeffs, k_stop, w, &mut budget);
    pad_to_budget(w, start_bits, mode, d);
}

/// The block's negabinary coefficients in coded order (apart from
/// `encode_block` only so `stage_costs` can time it).
fn coefficients(values: &[f64], d: usize, e_max: i64) -> Vec<u64> {
    let size = values.len();
    // fixed point
    let scale = (2.0f64).powi((P - e_max) as i32);
    let mut ints: Vec<i64> = values.iter().map(|&v| (v * scale).round() as i64).collect();
    fwd_xform(&mut ints, d);
    let order = degree_order(d);
    // negabinary-map all coefficients lane-wise, then permute into
    // total-degree order (same integer results as mapping after the gather)
    let mut neg = vec![0u64; size];
    negabinary_slice(&ints, &mut neg);
    order.iter().map(|&i| neg[i]).collect()
}

fn write_budgeted(w: &mut BitWriter, v: u64, n: u32, budget: &mut Option<usize>) {
    match budget {
        None => w.write_bits(v, n),
        Some(b) => {
            let take = (n as usize).min(*b) as u32;
            w.write_bits(v & mask(take), take);
            *b -= take as usize;
        }
    }
}

#[inline]
fn mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

fn pad_to_budget(w: &mut BitWriter, start_bits: usize, mode: Mode, d: usize) {
    if let Some(total) = block_bit_budget(mode, d) {
        let written = w.len_bits() - start_bits;
        for _ in written..total {
            w.write_bit(false);
        }
    }
}

/// Embedded bit-plane encoder (ZFP's `encode_ints`): per plane, the bits of
/// already-significant coefficients are sent verbatim, then the remaining
/// positions are sent with group testing + unary run-length coding.
fn encode_planes(coeffs: &[u64], k_stop: u32, w: &mut BitWriter, budget: &mut Option<usize>) {
    let size = coeffs.len();
    // one bit-matrix transpose yields every plane at once; `planes[k]`
    // bit `i` = `coeffs[i]` bit `k`, exactly what the old per-plane
    // gather produced (pinned by `bitplanes_matches_scalar_reference`)
    let planes = bitplanes(coeffs);
    let mut n = 0usize; // number of significant coefficients so far
    let mut k = INTPREC;
    while k > k_stop {
        k -= 1;
        if matches!(budget, Some(0)) {
            break;
        }
        let mut x = planes[k as usize];
        // step 2: verbatim bits for significant coefficients
        let m = match budget {
            None => n,
            Some(b) => n.min(*b),
        };
        w.write_bits(x & mask(m as u32), m as u32);
        if let Some(b) = budget {
            *b -= m;
        }
        x = if m >= 64 { 0 } else { x >> m };
        // step 3: group testing for the rest
        loop {
            if n >= size || !consume(budget) {
                break;
            }
            let more = x != 0;
            w.write_bit(more);
            if !more {
                break;
            }
            // unary scan: emit zeros up to the next 1 bit; the 1 itself (or
            // the implied 1 at the final position) is consumed by the
            // increment below, mirroring the decoder exactly
            while n < size - 1 && consume(budget) {
                let bit = x & 1 == 1;
                w.write_bit(bit);
                if bit {
                    break;
                }
                x >>= 1;
                n += 1;
            }
            x >>= 1;
            n += 1;
        }
    }
}

#[inline]
fn consume(budget: &mut Option<usize>) -> bool {
    match budget {
        None => true,
        Some(0) => false,
        Some(b) => {
            *b -= 1;
            true
        }
    }
}

/// Decode one block previously written by [`encode_block`].
pub(crate) fn decode_block(
    r: &mut BitReader,
    d: usize,
    mode: Mode,
) -> Result<Vec<f64>, BlockError> {
    let size = 1usize << (2 * d);
    let start_pos = r.bit_position();
    let mut budget = block_bit_budget(mode, d);
    let tag = read_budgeted(r, 2, &mut budget).ok_or(BlockError("truncated tag"))?;
    let out = match tag {
        0b00 => Ok(vec![0.0; size]),
        0b01 => {
            let mut vals = Vec::with_capacity(size);
            for _ in 0..size {
                let bits =
                    read_budgeted(r, 64, &mut budget).ok_or(BlockError("truncated raw block"))?;
                vals.push(f64::from_bits(bits));
            }
            Ok(vals)
        }
        0b10 => {
            let e_biased =
                read_budgeted(r, 12, &mut budget).ok_or(BlockError("truncated exponent"))?;
            let e_max = e_biased as i64 - E_BIAS;
            if !(-1100..=1100).contains(&e_max) {
                return Err(BlockError("implausible block exponent"));
            }
            let k_stop = plane_cutoff(mode, e_max, d);
            let coeffs = decode_planes(size, k_stop, r, &mut budget)?;
            let order = degree_order(d);
            // undo the total-degree permutation, then negabinary-unmap the
            // whole block lane-wise (same integer results as per-element)
            let mut neg = vec![0u64; size];
            for (pos, &i) in order.iter().enumerate() {
                neg[i] = coeffs[pos];
            }
            let mut ints = vec![0i64; size];
            negabinary_to_int_slice(&neg, &mut ints);
            inv_xform(&mut ints, d);
            let scale = (2.0f64).powi((e_max - P) as i32);
            Ok(ints.iter().map(|&q| q as f64 * scale).collect())
        }
        _ => Err(BlockError("unknown block tag")),
    }?;
    // skip rate-mode padding so the next block starts on budget
    if let Some(total) = block_bit_budget(mode, d) {
        let consumed = r.bit_position() - start_pos;
        for _ in consumed..total {
            r.read_bit().ok_or(BlockError("truncated padding"))?;
        }
    }
    Ok(out)
}

fn read_budgeted(r: &mut BitReader, n: u32, budget: &mut Option<usize>) -> Option<u64> {
    match budget {
        None => r.read_bits(n),
        Some(b) => {
            let take = (n as usize).min(*b) as u32;
            *b -= take as usize;
            // short reads return what fits, zero-extended (mirrors encoder)
            r.read_bits(take)
        }
    }
}

/// Mirror of [`encode_planes`].
fn decode_planes(
    size: usize,
    k_stop: u32,
    r: &mut BitReader,
    budget: &mut Option<usize>,
) -> Result<Vec<u64>, BlockError> {
    let mut planes = [0u64; 64];
    let mut n = 0usize;
    let mut k = INTPREC;
    while k > k_stop {
        k -= 1;
        if matches!(budget, Some(0)) {
            break;
        }
        let m = match budget {
            None => n,
            Some(b) => n.min(*b),
        };
        let mut x_full = r.read_bits(m as u32).ok_or(BlockError("truncated plane"))?;
        if let Some(b) = budget {
            *b -= m;
        }
        loop {
            if n >= size || !consume(budget) {
                break;
            }
            let more = r.read_bit().ok_or(BlockError("truncated group bit"))?;
            if !more {
                break;
            }
            while n < size - 1 && consume(budget) {
                let bit = r.read_bit().ok_or(BlockError("truncated run"))?;
                if bit {
                    break;
                }
                n += 1;
            }
            x_full |= 1u64 << n;
            n += 1;
        }
        planes[k as usize] = x_full;
    }
    // a single transpose scatters every received plane back into
    // per-coefficient values (replaces the old per-plane bit deposit)
    transpose64(&mut planes);
    Ok(planes[..size].to_vec())
}

/// Gather one 4^d block at block coordinates `(bx, by, bz)`, replicating
/// edge values into the padding of partial blocks (ZFP's strategy keeps the
/// transform well-behaved at boundaries).
pub(crate) fn gather_block(
    values: &[f64],
    nd: &[usize],
    d: usize,
    bx: usize,
    by: usize,
    bz: usize,
) -> Vec<f64> {
    let size = 1usize << (2 * d);
    let nx = nd[0];
    let ny = *nd.get(1).unwrap_or(&1);
    let nz = *nd.get(2).unwrap_or(&1);
    let mut out = Vec::with_capacity(size);
    let zr = if d >= 3 { 4 } else { 1 };
    let yr = if d >= 2 { 4 } else { 1 };
    for dz in 0..zr {
        let z = (bz * 4 + dz).min(nz - 1);
        for dy in 0..yr {
            let y = (by * 4 + dy).min(ny - 1);
            for dx in 0..4 {
                let x = (bx * 4 + dx).min(nx - 1);
                out.push(values[(z * ny + y) * nx + x]);
            }
        }
    }
    out
}

/// Scatter a decoded block back, skipping padded lanes.
pub(crate) fn scatter_block(
    block: &[f64],
    out: &mut [f64],
    nd: &[usize],
    d: usize,
    bx: usize,
    by: usize,
    bz: usize,
) {
    let nx = nd[0];
    let ny = *nd.get(1).unwrap_or(&1);
    let nz = *nd.get(2).unwrap_or(&1);
    let zr = if d >= 3 { 4 } else { 1 };
    let yr = if d >= 2 { 4 } else { 1 };
    let mut i = 0usize;
    for dz in 0..zr {
        let z = bz * 4 + dz;
        for dy in 0..yr {
            let y = by * 4 + dy;
            for dx in 0..4 {
                let x = bx * 4 + dx;
                if x < nx && y < ny && z < nz {
                    out[(z * ny + y) * nx + x] = block[i];
                }
                i += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The kernel against the twin.

use crate::block;
use crate::Grid;
use pressio_core::fuzz::Rng;
use proptest::prelude::*;

/// Every mode family at its corners: tolerances from "keep everything" to
/// "keep nothing", the fewest and the most planes, budgets from the
/// 16-bit floor to a whole raw block.
const MODES: [Mode; 14] = [
    Mode::Accuracy(1e-300),
    Mode::Accuracy(1e-12),
    Mode::Accuracy(1e-6),
    Mode::Accuracy(1e-3),
    Mode::Accuracy(3.0),
    Mode::Precision(1),
    Mode::Precision(12),
    Mode::Precision(58),
    Mode::Rate(0.3),
    Mode::Rate(1.0),
    Mode::Rate(4.0),
    Mode::Rate(9.5),
    Mode::Rate(33.0),
    Mode::Rate(64.0),
];

/// What a decoder returned and where it left the reader, or the error's
/// text.
type Outcome<T> = Result<(T, usize), &'static str>;

/// What one coder wrote behind `lead` bits of junk: the bytes and the bit
/// count.
fn written(lead: u32, encode: impl FnOnce(&mut BitWriter)) -> (Vec<u8>, usize) {
    let mut w = BitWriter::new();
    w.write_bits(0x5a5a_a5a5_dead_beef, lead);
    encode(&mut w);
    let bits = w.len_bits();
    (w.into_bytes(), bits)
}

fn decoded<T>(
    bytes: &[u8],
    lead: u32,
    decode: impl FnOnce(&mut BitReader) -> Result<T, BlockError>,
) -> Outcome<T> {
    let mut r = BitReader::new(bytes);
    r.read_bits(lead).ok_or("shorter than its lead")?;
    let values = decode(&mut r).map_err(|e| e.0)?;
    Ok((values, r.bit_position()))
}

fn bits(values: Vec<f64>) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Both decoders on the same bytes: the same value bits and cursor, or the
/// same error.
fn same_decode(bytes: &[u8], lead: u32, d: usize, mode: Mode, what: &str) -> Outcome<Vec<u64>> {
    let twin = decoded(bytes, lead, |r| decode_block(r, d, mode).map(bits));
    let kernel = decoded(bytes, lead, |r| block::decode_block(r, d, mode).map(bits));
    assert_eq!(kernel, twin, "{what}: d={d} {mode:?} lead={lead}");
    twin
}

/// How much of a stream's damage to try.
enum Damage<'a> {
    /// Every truncation and every single-bit flip.
    Every,
    /// Three truncations, flips and byte overwrites each.
    Sampled(&'a mut Rng),
}

/// One block through both coders: the same bits out at each lead, the same
/// values and cursor back, and the same answer to damaged streams.
fn check_block(values: &[f64], d: usize, mode: Mode, leads: &[u32], damage: Damage) {
    for &lead in leads {
        let twin = written(lead, |w| encode_block(values, d, mode, w));
        let kernel = written(lead, |w| block::encode_block(values, d, mode, w));
        assert_eq!(
            kernel, twin,
            "bits out: d={d} {mode:?} lead={lead} {values:?}"
        );
        let (bytes, bits) = twin;
        let whole = same_decode(&bytes, lead, d, mode, "whole stream");
        assert_eq!(whole.map(|(_, cursor)| cursor), Ok(bits), "{values:?}");
    }
    let lead = leads[0];
    let (bytes, _) = written(lead, |w| encode_block(values, d, mode, w));
    match damage {
        Damage::Every => {
            for len in 0..bytes.len() {
                let _ = same_decode(&bytes[..len], lead, d, mode, "truncated");
            }
            for bit in lead as usize..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let _ = same_decode(&flipped, lead, d, mode, "flipped");
            }
        }
        Damage::Sampled(rng) => {
            for _ in 0..3 {
                let len = rng.below(bytes.len());
                let _ = same_decode(&bytes[..len], lead, d, mode, "truncated");
                let mut flipped = bytes.clone();
                flipped[rng.below(bytes.len())] ^= 1 << rng.below(8);
                let _ = same_decode(&flipped, lead, d, mode, "flipped");
                let mut overwritten = bytes.clone();
                overwritten[rng.below(bytes.len())] = rng.byte();
                let _ = same_decode(&overwritten, lead, d, mode, "overwritten");
            }
        }
    }
}

fn unit(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// `value` moved `ulps` representable numbers toward zero.
fn ulps_under(value: f64, ulps: u64) -> f64 {
    f64::from_bits(value.to_bits() - ulps)
}

/// A block of one of the kinds the block path treats differently.
fn block_of(kind: usize, size: usize, rng: &mut Rng) -> Vec<f64> {
    // 1e-310 (subnormal: the saturated fixed-point image) to 1e300
    let amplitude = 10f64.powf(unit(rng) * 305.0 - 5.0);
    let mut values: Vec<f64> = match kind {
        // smooth
        0 => {
            let phase = unit(rng);
            (0..size)
                .map(|i| ((i as f64 * 0.31 + phase).sin() + 0.2 * (i / 4) as f64) * amplitude)
                .collect()
        }
        // noise
        1 => (0..size).map(|_| unit(rng) * amplitude).collect(),
        // sparse: a few values in a block of zeros, the last position among them
        2 => {
            let mut v = vec![0.0; size];
            for _ in 0..1 + rng.below(3) {
                v[rng.below(size)] = unit(rng) * amplitude;
            }
            if rng.below(2) == 0 {
                v[size - 1] = unit(rng) * amplitude;
            }
            v
        }
        // what an f32 field widens to
        3 => (0..size)
            .map(|_| (unit(rng) * amplitude.clamp(1e-30, 1e30)) as f32 as f64)
            .collect(),
        // the largest magnitude at, or one to seven ulps under, a power of two
        4 => {
            let top = 2f64.powi(rng.below(2040) as i32 - 1020);
            let mut v: Vec<f64> = (0..size).map(|_| unit(rng) * top * 0.99).collect();
            let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
            v[rng.below(size)] = sign * ulps_under(top, rng.below(8) as u64);
            v
        }
        // every value zero, of either sign
        _ => (0..size)
            .map(|_| if rng.below(2) == 0 { 0.0 } else { -0.0 })
            .collect(),
    };
    // one block in four is salted with what the classifier must notice
    if rng.below(4) == 0 {
        const SALTS: [f64; 7] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            -5e-324,
        ];
        values[rng.below(size)] = SALTS[rng.below(SALTS.len())];
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 400 } else { 40_000 }))]

    // the grid: rank × mode × kind of block, behind a random lead
    #[test]
    fn blocks_match_the_twin(
        (d, mode, kind) in (1usize..=3, 0..MODES.len(), 0usize..6),
        (seed, lead) in (any::<u64>(), 0u32..64),
    ) {
        let mut rng = Rng::new(seed);
        let values = block_of(kind, 1 << (2 * d), &mut rng);
        check_block(&values, d, MODES[mode], &[lead], Damage::Sampled(&mut rng));
    }

    // the plane coders alone, on plane matrices no block of floats would
    // produce (dense high planes, 58 significant bits everywhere), under
    // any cutoff and any budget
    #[test]
    fn planes_match_the_twin(
        (d, k_stop, density) in (1usize..=3, 0u32..=58, 0usize..4),
        (seed, lead, budgeted) in (any::<u64>(), 0u32..64, any::<bool>()),
    ) {
        let mut rng = Rng::new(seed);
        let size = 1usize << (2 * d);
        let coeffs: Vec<u64> = (0..size)
            .map(|_| {
                let keep = (0..=density).fold(u64::MAX, |m, _| m & rng.next_u64());
                // magnitudes fall off, as a transform's coefficients do
                keep & (u64::MAX >> 6) >> rng.below(58)
            })
            .collect();
        let budget = budgeted.then(|| rng.below(size * 70));
        check_planes(&coeffs, k_stop, budget, lead, &mut rng);
    }
}

/// `coeffs` through both plane coders under `budget`: the same bits and
/// budget left, the same coefficients, cursor and budget back, and the same
/// answer to three truncations and flips.
fn check_planes(coeffs: &[u64], k_stop: u32, budget: Option<usize>, lead: u32, rng: &mut Rng) {
    let size = coeffs.len();
    let kernel_budget = budget.unwrap_or(usize::MAX);
    let what = format!("size={size} k_stop={k_stop} budget={budget:?} lead={lead} {coeffs:x?}");
    let mut twin_left = budget;
    let twin = written(lead, |w| encode_planes(coeffs, k_stop, w, &mut twin_left));
    let mut kernel_left = kernel_budget;
    let kernel = written(lead, |w| {
        block::encode_planes(&bitplanes(coeffs), size, k_stop, w, &mut kernel_left);
    });
    assert_eq!(kernel, twin, "bits out: {what}");
    let spent = |left: usize| kernel_budget - left;
    if let (Some(all), Some(left)) = (budget, twin_left) {
        assert_eq!(spent(kernel_left), all - left, "budget spent: {what}");
    }

    let (bytes, _) = twin;
    let both = |bytes: &[u8], damage: &str| {
        let mut left = budget;
        let twin = decoded(bytes, lead, |r| decode_planes(size, k_stop, r, &mut left));
        let twin = twin.map(|ok| (ok, left.map(|left| budget.unwrap() - left)));
        let mut left = kernel_budget;
        let kernel = decoded(bytes, lead, |r| {
            let mut planes = [0u64; 64];
            block::decode_planes(&mut planes, size, k_stop, r, &mut left)?;
            transpose64(&mut planes);
            Ok(planes[..size].to_vec())
        });
        let kernel = kernel.map(|ok| (ok, budget.map(|_| spent(left))));
        assert_eq!(kernel, twin, "{damage}: {what}");
    };
    both(&bytes, "whole stream");
    for _ in 0..3 {
        both(&bytes[..rng.below(bytes.len() + 1)], "truncated");
        if !bytes.is_empty() {
            let mut flipped = bytes.clone();
            flipped[rng.below(bytes.len())] ^= 1 << rng.below(8);
            both(&flipped, "flipped");
        }
    }
}

/// Coefficients whose bit planes are `planes` (plane 57 first).
fn coeffs_with_planes(size: usize, planes: &[u64]) -> Vec<u64> {
    let mut m = [0u64; 64];
    for (k, &plane) in (0..INTPREC as usize).rev().zip(planes) {
        m[k] = plane;
    }
    transpose64(&mut m);
    m[..size].to_vec()
}

/// The plane coder's corners, each under *every* budget — so the budget
/// ends inside a verbatim word, inside a run, on the `more` bit and on the
/// implied terminator somewhere in the sweep — and every lead.
#[test]
fn plane_corners_match_the_twin_under_every_budget() {
    let mut rng = Rng::new(0x51ab);
    for d in 1..=3usize {
        let size = 1usize << (2 * d);
        let all = u64::MAX >> (64 - size);
        let last = 1u64 << (size - 1);
        let corners: [&[u64]; 7] = [
            // a lone nonzero in the last position: the implied terminator,
            // and in a 4³ block the one group whose run is 63 zeros
            &[last],
            &[0, 0, last, 0, last],
            // an all-ones plane: every run is empty
            &[all],
            &[1, all, all],
            // everything significant at once, then verbatim planes only
            &[all, 0x5555_5555_5555_5555 & all, last | 1],
            // runs that stop one short of the last position
            &[last >> 1, last],
            &[1, 0, last >> 1 | 1, all],
        ];
        for planes in corners {
            let coeffs = coeffs_with_planes(size, planes);
            let k_stop = INTPREC - planes.len() as u32 - 1;
            let bits = written(0, |w| encode_planes(&coeffs, k_stop, w, &mut None)).1;
            for budget in (0..=bits + 2).map(Some).chain([None]) {
                let lead = rng.below(64) as u32;
                check_planes(&coeffs, k_stop, budget, lead, &mut rng);
            }
            for lead in 0..64 {
                check_planes(&coeffs, k_stop, None, lead, &mut rng);
            }
        }
    }
}

/// The fixed corners of the front end, at every lead, with every truncation
/// and every bit flip where the stream is short.
#[test]
fn block_corners_match_the_twin() {
    let leads: Vec<u32> = (0..64).collect();
    // debug builds run the whole list at one lead and with sampled damage
    let thorough = !cfg!(debug_assertions);
    let mut rng = Rng::new(0xc0a5);
    let mut check = |values: &[f64], d: usize, mode: Mode| {
        let short = values.len() <= 16 || !matches!(mode, Mode::Accuracy(t) if t < 1e-3);
        if thorough && short {
            check_block(values, d, mode, &leads, Damage::Every);
        } else if thorough {
            check_block(values, d, mode, &leads, Damage::Sampled(&mut rng));
        } else {
            check_block(values, d, mode, &leads[5..6], Damage::Sampled(&mut rng));
        }
    };
    for d in 1..=3usize {
        let size = 1usize << (2 * d);
        // the largest magnitude at 2^k and 1…7 ulps under it (an f64 there
        // is where `log2` rounds up to the integer), k = −20…20
        for k in -20..=20 {
            for ulps in 0..=7 {
                let mut values: Vec<f64> = (0..size)
                    .map(|i| (i as f64 * 0.7).cos() * 2f64.powi(k) * 0.9)
                    .collect();
                values[size / 2] = -ulps_under(2f64.powi(k), ulps);
                check(&values, d, Mode::Accuracy(1e-6 * 2f64.powi(k)));
            }
        }
        for mode in MODES {
            let ramp =
                |scale: f64| -> Vec<f64> { (0..size).map(|i| (i as f64 - 1.5) * scale).collect() };
            // subnormal blocks (the scale is infinite, the image saturates)
            // and blocks at the top of the range
            for scale in [5e-324, 1e-310, 2e-308, 1e-292, 1e300, f64::MAX / 64.0] {
                check(&ramp(scale), d, mode);
            }
            // a lone nonzero in the last position; one value in a block of
            // zeros of either sign
            let mut lone = vec![0.0; size];
            lone[size - 1] = 1.0;
            check(&lone, d, mode);
            lone[0] = -0.0;
            lone[size - 1] = -1e-5;
            check(&lone, d, mode);
            check(&vec![-0.0; size], d, mode);
            // the raw escape, whole and cut by a rate budget
            for salt in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut salted = ramp(0.37);
                salted[size - 2] = salt;
                check(&salted, d, mode);
            }
            // a constant block: every coefficient but the first is zero
            check(&vec![123.456; size], d, mode);
        }
    }
}

#[test]
fn pow2_is_powi() {
    // `Plan` builds its scales from bits; the twin calls powi
    for mode in [Mode::Accuracy(1e-4), Mode::Rate(8.0)] {
        for e in -1074..=1024 {
            let mut values = vec![0.0; 4];
            values[1] = 2f64.powi(e) * 0.75;
            if values[1] != 0.0 {
                check_block(
                    &values,
                    1,
                    mode,
                    &[0],
                    Damage::Sampled(&mut Rng::new(e as u64)),
                );
            }
        }
    }
}

/// Typed gather and scatter against the twin's on `f64` copies, for shapes
/// with partial blocks on every axis.
#[test]
fn typed_gather_and_scatter_match_the_twin() {
    use pressio_core::lanes::Element;
    fn check<T: Element + PartialEq + std::fmt::Debug>(nd: &[usize], values: &[T]) {
        let grid = Grid::new(nd);
        let d = nd.len();
        let size = 1usize << (2 * d);
        let widened: Vec<f64> = values.iter().map(|v| v.widen()).collect();
        let (mut typed_out, mut twin_out) =
            (vec![T::default(); values.len()], vec![0.0; values.len()]);
        let blocks =
            [nd[0], *nd.get(1).unwrap_or(&1), *nd.get(2).unwrap_or(&1)].map(|n| n.div_ceil(4));
        assert_eq!(grid.total_blocks(), blocks.iter().product::<usize>());
        // from the middle of the list too: the iterator starts by division
        for lo in [0, grid.total_blocks() / 3] {
            for (i, origin) in (lo..grid.total_blocks()).zip(grid.origins(lo, grid.total_blocks()))
            {
                let (bx, by, bz) = (
                    i % blocks[0],
                    i / blocks[0] % blocks[1],
                    i / (blocks[0] * blocks[1]),
                );
                assert_eq!(origin, [bx * 4, by * 4, bz * 4]);
                let twin = gather_block(&widened, nd, d, bx, by, bz);
                let mut typed = [f64::NAN; 64];
                grid.gather(values, origin, &mut typed);
                let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&typed[..size]), bits(&twin), "{nd:?} block {i}");
                // scatter something that is not the input, so a lane that
                // should have been skipped shows
                let block: Vec<f64> = twin.iter().map(|v| v * 0.5 + i as f64).collect();
                scatter_block(&block, &mut twin_out, nd, d, bx, by, bz);
                grid.scatter(&block, &mut typed_out, origin);
            }
        }
        let narrowed: Vec<T> = twin_out.iter().map(|&v| T::narrow(v)).collect();
        assert_eq!(typed_out, narrowed, "{nd:?}");
    }
    for nd in [
        &[1usize][..],
        &[4],
        &[7],
        &[1030],
        &[4, 4],
        &[5, 1],
        &[1, 6],
        &[33, 21],
        &[8, 8, 8],
        &[9, 7, 5],
        &[1, 1, 1],
        &[4, 5, 6],
        &[19, 13, 9],
        &[3, 70, 2],
    ] {
        let n: usize = nd.iter().product();
        let values: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.37).sin() * 1e3 + 0.1)
            .collect();
        check(nd, &values);
        check(nd, &values.iter().map(|&v| v as f32).collect::<Vec<_>>());
    }
}

/// Fastest of five runs of `pass` (one pass over `blocks` blocks), in ns
/// per block.
fn ns_per_block(blocks: usize, mut pass: impl FnMut()) -> f64 {
    let fastest = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            pass();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    fastest * 1e9 / blocks as f64
}

/// EXPERIMENTS' stage table: what a 4³ block costs in each stage of the
/// twin and of the kernel, on the benchmark's two 16 MiB fields. Stages are
/// differences of cumulative passes (front end; + transpose; + planes =
/// the whole encode), so every stage is timed with its input where the
/// stage before left it.
///
/// `cargo test --release -p pressio-zfp --lib stage_costs -- --ignored --nocapture`
#[test]
#[ignore = "a measurement, not a check: prints the stage table"]
fn stage_costs() {
    use pressio_dataset::hurricane::Hurricane;
    use std::hint::black_box;
    let mode = Mode::Accuracy(1e-4);
    let plan = Plan::new(mode, 3);
    println!("ns per 4x4x4 block, fastest of 5 passes over 65 536 blocks, abs = 1e-4");
    println!("| field | coder | front end | transpose | planes | block encode | block decode |");
    println!("|---|---|---|---|---|---|---|");
    for field in ["P", "PRECIP"] {
        let data = Hurricane::with_dims(128, 128, 256, 1).generate(field, 0);
        let grid = Grid::new(data.dims());
        let blocks: Vec<[f64; 64]> = grid
            .origins(0, grid.total_blocks())
            .map(|origin| {
                let mut block = [0.0; 64];
                grid.gather(data.as_f32().unwrap(), origin, &mut block);
                block
            })
            .collect();
        let n = blocks.len();
        let mut w = BitWriter::new();
        let mut tally = crate::Tally::default();
        for b in &blocks {
            tally.count(plan.encode(b, &mut w));
        }
        let stream = w.into_bytes();
        let row = |coder: &str, [front, transposed, encode, decode]: [f64; 4]| {
            println!(
                "| {field} | {coder} | {front:.0} | {:.0} | {:.0} | {encode:.0} | {decode:.0} |",
                transposed - front,
                encode - transposed
            );
        };

        let coded = |b: &[f64; 64]| block_exponent(b) != i64::MIN;
        // the kernel's front end: classify, and the rows of a coded block
        let kernel_rows = |b: &[f64; 64]| match plan.classify(b) {
            block::Class::Coded { e_max } => {
                let mut rows = [0u64; 64];
                plan.coefficients(b, e_max, &mut rows);
                Some(rows)
            }
            _ => None,
        };
        row(
            "twin",
            [
                ns_per_block(n, || {
                    for b in blocks.iter().filter(|b| coded(b)) {
                        black_box(coefficients(b, 3, block_exponent(b)));
                    }
                }),
                ns_per_block(n, || {
                    for b in blocks.iter().filter(|b| coded(b)) {
                        black_box(bitplanes(&coefficients(b, 3, block_exponent(b))));
                    }
                }),
                ns_per_block(n, || {
                    let mut w = BitWriter::with_capacity(stream.len());
                    blocks.iter().for_each(|b| encode_block(b, 3, mode, &mut w));
                    black_box(w);
                }),
                ns_per_block(n, || {
                    let mut r = BitReader::new(&stream);
                    for _ in 0..n {
                        black_box(decode_block(&mut r, 3, mode).unwrap());
                    }
                }),
            ],
        );
        row(
            "kernel",
            [
                ns_per_block(n, || {
                    for b in &blocks {
                        black_box(kernel_rows(b));
                    }
                }),
                ns_per_block(n, || {
                    for b in &blocks {
                        if let Some(mut rows) = kernel_rows(b) {
                            transpose64(&mut rows);
                            black_box(rows);
                        }
                    }
                }),
                ns_per_block(n, || {
                    let mut w = BitWriter::with_capacity(stream.len());
                    for b in &blocks {
                        plan.encode(b, &mut w);
                    }
                    black_box(w);
                }),
                ns_per_block(n, || {
                    let mut r = BitReader::new(&stream);
                    let mut out = [0.0; 64];
                    for _ in 0..n {
                        black_box(plan.decode(&mut r, &mut out).unwrap());
                    }
                }),
            ],
        );
        println!(
            "| {field} | | {} blocks: {} zero, {} raw, {:.1} planes a coded block, {} B |",
            tally.blocks,
            tally.zero,
            tally.raw,
            tally.planes as f64 / (tally.blocks - tally.zero - tally.raw).max(1) as f64,
            stream.len()
        );
    }
}
