//! Per-block coding: fixed-point promotion, decorrelating transform,
//! negabinary mapping, and embedded bit-plane coding with group testing —
//! the ZFP pipeline, supporting fixed-accuracy, fixed-precision, and
//! fixed-rate modes.
//!
//! A [`Plan`] holds what (mode, rank) fix for every block of a call; its
//! [`Plan::encode`] and [`Plan::decode`] are the one encoder and the one
//! decoder, on stack arrays. [`encode_block`] and [`decode_block`] wrap
//! them for callers with a slice and a `Vec`.

use crate::transform::{
    degree_table, fwd_xform, int_to_negabinary, inv_xform, negabinary_to_int, transpose64,
};
use pressio_lossless::{BitReader, BitWriter};

/// Fraction bits of the per-block fixed-point representation. 52 bits
/// leave ~2^(P−e_max−6) of slack below any tolerance the cutoff admits, so
/// the inverse transform's right-shift rounding (tens of fixed-point ULPs
/// in the worst case) cannot breach the accuracy guarantee; the i64 budget
/// is 52 fraction + ~2 transform growth + 1 negabinary + guard < 63.
pub(crate) const P: i64 = 52;
/// Bit planes carried through the embedded coder (fraction bits + transform
/// growth + negabinary headroom).
pub const INTPREC: u32 = 58;
/// Exponent bias for the 12-bit block exponent field.
pub(crate) const E_BIAS: i64 = 2048;
/// Values in the largest block (4³): the length of the stack arrays a
/// [`Plan`] codes from and into, whatever the rank.
pub const MAX_BLOCK: usize = 64;

/// Compression mode for the ZFP-like codec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Absolute error tolerance (ZFP fixed-accuracy).
    Accuracy(f64),
    /// Number of bit planes kept per block (ZFP fixed-precision).
    Precision(u32),
    /// Bits per value (ZFP fixed-rate); every block gets exactly
    /// `rate × 4^d` bits.
    Rate(f64),
}

/// Block coding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockError(pub &'static str);

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "zfp block error: {}", self.0)
    }
}

impl std::error::Error for BlockError {}

/// Budget in bits for one block under `mode` (None = unbounded).
pub fn block_bit_budget(mode: Mode, d: usize) -> Option<usize> {
    match mode {
        Mode::Rate(r) => Some(((r * (1usize << (2 * d)) as f64).ceil() as usize).max(16)),
        _ => None,
    }
}

/// What a block was coded as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Block {
    /// Every value zero: the two-bit tag alone.
    Zero,
    /// A NaN or infinity among the values: their 64-bit images, verbatim.
    Raw,
    /// Transformed and coded down to the mode's cutoff (or as far as its
    /// budget reached): `planes` bit planes.
    Coded {
        /// Bit planes the embedded coder entered.
        planes: u32,
    },
}

/// Lowest coded bit plane as a function of the block exponent.
#[derive(Debug, Clone, Copy)]
enum Cutoff {
    /// Fixed accuracy: `⌊log2 tol⌋ + P − d − 2`, less the block exponent.
    /// Dropping planes below `k` leaves per-coefficient error < 2^k in
    /// fixed point = 2^(e_max − P + k) absolute; the inverse transform can
    /// amplify by ~2^d, plus rounding slack.
    Accuracy(i64),
    /// Fixed precision and fixed rate: the same plane for every block.
    Plane(u32),
}

/// What (mode, rank) fix for every block of a call, worked out once: the
/// block size, the coefficient order, the plane cutoff and the bit budget.
#[derive(Debug, Clone)]
pub struct Plan {
    d: usize,
    size: usize,
    /// Coefficient `order[pos]` is coded at position `pos`.
    order: &'static [u8],
    cutoff: Cutoff,
    /// Bits each block gets; `usize::MAX` = no budget, so one coder serves
    /// all three modes. (A rate is at most 64 bits a value — the option and
    /// the container header both check — so no real budget comes near it.)
    budget: usize,
}

const NO_BUDGET: usize = usize::MAX;
const ABS_BITS: u64 = !(1 << 63);
/// The exponent field of an `f64`: a magnitude at or above it is inf or NaN.
const NON_FINITE: u64 = 0x7ff << 52;

impl Plan {
    /// The plan for blocks of rank `d` (1, 2 or 3) under `mode`.
    pub fn new(mode: Mode, d: usize) -> Plan {
        let cutoff = match mode {
            Mode::Accuracy(tol) => {
                Cutoff::Accuracy((tol.log2().floor() as i64).saturating_add(P - d as i64 - 2))
            }
            Mode::Precision(p) => Cutoff::Plane(INTPREC.saturating_sub(p)),
            Mode::Rate(_) => Cutoff::Plane(0),
        };
        Plan {
            d,
            size: 1 << (2 * d),
            order: degree_table(d),
            cutoff,
            budget: block_bit_budget(mode, d).unwrap_or(NO_BUDGET),
        }
    }

    /// Values in one block: `4^d`.
    pub fn block_len(&self) -> usize {
        self.size
    }

    /// Lowest coded bit plane of a block with exponent `e_max`.
    /// Deterministic on both sides of the stream.
    fn plane_cutoff(&self, e_max: i64) -> u32 {
        match self.cutoff {
            Cutoff::Accuracy(base) => base.saturating_sub(e_max).clamp(0, INTPREC as i64) as u32,
            Cutoff::Plane(k) => k,
        }
    }

    /// Encode the first [`Plan::block_len`] of `values` as one block. Bits
    /// are appended to `w`; in rate mode the block is zero-padded to
    /// exactly the budget.
    pub fn encode(&self, values: &[f64; MAX_BLOCK], w: &mut BitWriter) -> Block {
        let mut budget = self.budget;
        let block = match self.classify(values) {
            Class::Zero => {
                put(w, 0b00, 2, &mut budget);
                Block::Zero
            }
            Class::Raw => {
                // tag value 1, then the 64-bit images
                put(w, 0b01, 2, &mut budget);
                for v in &values[..self.size] {
                    put(w, v.to_bits(), 64, &mut budget);
                }
                Block::Raw
            }
            Class::Coded { e_max } => {
                // tag value 2 under the 12-bit biased exponent: 14 bits,
                // inside the smallest budget (16)
                put(w, 0b10 | ((e_max + E_BIAS) as u64) << 2, 14, &mut budget);
                let mut planes = [0u64; MAX_BLOCK];
                self.coefficients(values, e_max, &mut planes);
                // one bit-matrix transpose yields every plane at once:
                // `planes[k]` bit `i` = coefficient `i` bit `k`
                transpose64(&mut planes);
                let k_stop = self.plane_cutoff(e_max);
                let planes = encode_planes(&planes, self.size, k_stop, w, &mut budget);
                Block::Coded { planes }
            }
        };
        if self.budget != NO_BUDGET {
            // what is left of the budget is exactly the padding
            while budget > 0 {
                put(w, 0, 64, &mut budget);
            }
        }
        block
    }

    /// What the block's largest magnitude says it is — read as bits: for
    /// non-negative floats the bit pattern orders as the value does (and as
    /// a signed integer, the comparison every vector unit has), inf and NaN
    /// sort last, and both zeros are 0.
    #[inline]
    pub(crate) fn classify(&self, values: &[f64; MAX_BLOCK]) -> Class {
        let max = values[..self.size]
            .iter()
            .fold(0i64, |m, v| m.max((v.to_bits() & ABS_BITS) as i64)) as u64;
        if max >= NON_FINITE {
            Class::Raw
        } else if max == 0 {
            Class::Zero
        } else {
            Class::Coded {
                e_max: block_exponent(max),
            }
        }
    }

    /// Fixed point → lift → negabinary in coded order, one coefficient a
    /// row of `rows` (whose rows past the block are left as they arrive:
    /// zero).
    #[inline]
    pub(crate) fn coefficients(
        &self,
        values: &[f64; MAX_BLOCK],
        e_max: i64,
        rows: &mut [u64; MAX_BLOCK],
    ) {
        let scale = pow2(P - e_max);
        let mut ints = [0i64; MAX_BLOCK];
        for (q, &v) in ints.iter_mut().zip(&values[..self.size]) {
            *q = (v * scale).round() as i64;
        }
        fwd_xform(&mut ints[..self.size], self.d);
        // negabinary and the total-degree permutation in one pass (the same
        // integers as mapping first and gathering after)
        for (row, &i) in rows.iter_mut().zip(self.order) {
            *row = int_to_negabinary(ints[i as usize]);
        }
    }

    /// Decode one block previously written by [`Plan::encode`] into the
    /// first [`Plan::block_len`] of `out`. A [`Block::Zero`] leaves `out`
    /// as it was: a caller whose output starts zeroed has nothing to copy.
    pub fn decode(
        &self,
        r: &mut BitReader,
        out: &mut [f64; MAX_BLOCK],
    ) -> Result<Block, BlockError> {
        let mut budget = self.budget;
        let tag = take(r, 2, &mut budget).ok_or(BlockError("truncated tag"))?;
        let block = match tag {
            0b00 => Block::Zero,
            0b01 => {
                for o in &mut out[..self.size] {
                    let bits = take(r, 64, &mut budget).ok_or(BlockError("truncated raw block"))?;
                    *o = f64::from_bits(bits);
                }
                Block::Raw
            }
            0b10 => {
                let e_biased = take(r, 12, &mut budget).ok_or(BlockError("truncated exponent"))?;
                let e_max = e_biased as i64 - E_BIAS;
                if !(-1100..=1100).contains(&e_max) {
                    return Err(BlockError("implausible block exponent"));
                }
                let k_stop = self.plane_cutoff(e_max);
                let mut planes = [0u64; MAX_BLOCK];
                let coded = decode_planes(&mut planes, self.size, k_stop, r, &mut budget)?;
                // a single transpose scatters every received plane back
                // into per-coefficient values
                transpose64(&mut planes);
                // undo the total-degree permutation and the negabinary map
                let mut ints = [0i64; MAX_BLOCK];
                for (&c, &i) in planes.iter().zip(self.order) {
                    ints[i as usize] = negabinary_to_int(c);
                }
                inv_xform(&mut ints[..self.size], self.d);
                let scale = pow2(e_max - P);
                for (o, &q) in out.iter_mut().zip(&ints[..self.size]) {
                    *o = q as f64 * scale;
                }
                Block::Coded { planes: coded }
            }
            _ => return Err(BlockError("unknown block tag")),
        };
        // skip rate-mode padding so the next block starts on budget
        if self.budget != NO_BUDGET {
            let padding = u32::try_from(budget)
                .ok()
                .filter(|&bits| bits as usize <= r.remaining_bits())
                .ok_or(BlockError("truncated padding"))?;
            r.skip_bits(padding);
        }
        Ok(block)
    }
}

/// [`Plan::classify`]'s answer.
pub(crate) enum Class {
    Zero,
    Raw,
    Coded { e_max: i64 },
}

/// Smallest `e` with `max < 2^e`, for the finite nonzero magnitude whose
/// bits are `max` — as `⌊log2 max⌋ + 1`, corrected upward, finds it. That
/// is the exponent field plus one, except where `log2` of a value just
/// under a power of two rounds up to the integer and the formula answers
/// one more than the smallest: the answer is in the stream's exponent
/// field, so there (the top 20 mantissa bits all ones — far wider than
/// `log2`'s rounding reaches) and for subnormals, which have no exponent
/// field to read, the formula itself is asked.
#[inline]
fn block_exponent(max: u64) -> i64 {
    let biased = (max >> 52) as i64;
    if biased == 0 || (max >> 32) & 0xf_ffff == 0xf_ffff {
        return exponent_by_log2(f64::from_bits(max));
    }
    biased - 1022
}

#[cold]
fn exponent_by_log2(max: f64) -> i64 {
    let mut e = max.log2().floor() as i64 + 1;
    // guard against rounding at exact powers of two
    while max >= (2.0f64).powi(e as i32) {
        e += 1;
    }
    e
}

/// `2f64.powi(n)`: built from the exponent field where 2^n is a normal
/// number (repeated squaring is exact there), else left to `powi`, whose 0
/// and inf past the ends of the range are part of what the stream means.
#[inline]
fn pow2(n: i64) -> f64 {
    if (-1022..=1023).contains(&n) {
        f64::from_bits(((n + 1023) as u64) << 52)
    } else {
        powi_past_the_normals(n)
    }
}

/// Out of line, or the optimiser hoists the call above the test and every
/// block pays for it.
#[cold]
#[inline(never)]
fn powi_past_the_normals(n: i64) -> f64 {
    (2.0f64).powi(n as i32)
}

/// Write the low `n` bits of `v`, cut to what is left of the budget.
#[inline]
fn put(w: &mut BitWriter, v: u64, n: u32, budget: &mut usize) {
    let n = (n as usize).min(*budget);
    w.write_bits(v, n as u32);
    *budget -= n;
}

/// Read `n` bits, cut to what is left of the budget: a short read returns
/// what fits, zero-extended (mirrors [`put`]).
#[inline]
fn take(r: &mut BitReader, n: u32, budget: &mut usize) -> Option<u64> {
    let n = (n as usize).min(*budget);
    *budget -= n;
    r.read_bits(n as u32)
}

/// Embedded bit-plane encoder (ZFP's `encode_ints`): per plane, the bits of
/// already-significant coefficients are sent verbatim, then the remaining
/// positions are sent with group testing + unary run-length coding. Returns
/// the number of planes entered.
///
/// A group test is written whole: the `1` that says a coefficient is left,
/// a `0` for each position before it, and the `1` that ends the run —
/// unless the run reached the block's last position, whose `1` is implied.
/// Bit for bit what testing and writing one position at a time sends; a
/// budget that ends inside the group cuts it where it would have stopped
/// the loop.
pub(crate) fn encode_planes(
    planes: &[u64; MAX_BLOCK],
    size: usize,
    k_stop: u32,
    w: &mut BitWriter,
    budget: &mut usize,
) -> u32 {
    let mut n = 0usize; // number of significant coefficients so far
    let mut entered = 0;
    for k in (k_stop..INTPREC).rev() {
        if *budget == 0 {
            break;
        }
        entered += 1;
        let mut x = planes[k as usize];
        // verbatim bits for significant coefficients
        let m = n.min(*budget);
        w.write_bits(x, m as u32);
        *budget -= m;
        x = x.checked_shr(m as u32).unwrap_or(0);
        // group testing for the rest
        while n < size && *budget > 0 {
            if x == 0 {
                w.write_bit(false);
                *budget -= 1;
                break;
            }
            // `x` has no bit at or above `size − n`, so `zeros ≤ size − 1 − n`
            let zeros = x.trailing_zeros() as usize;
            let (group, len) = if n + zeros == size - 1 {
                (1, zeros + 1)
            } else {
                (1 | 1 << (zeros + 1), zeros + 2)
            };
            put(w, group, len as u32, budget);
            // in two steps: `zeros + 1` is 64 for a lone bit at position 63
            x = (x >> zeros) >> 1;
            n += zeros + 1;
        }
    }
    entered
}

/// Mirror of [`encode_planes`]: fills `planes[k]` for each plane received
/// and returns how many were entered.
///
/// Each group test takes the *fast step* when one peeked word shows all of
/// it — inside the stream and inside the budget — and otherwise the *tail
/// step*, a bit at a time: the last bytes of a stream, a budget that may
/// end inside the run, and every malformed stream end there, so each
/// truncation is reported where reading bit by bit meets it.
pub(crate) fn decode_planes(
    planes: &mut [u64; MAX_BLOCK],
    size: usize,
    k_stop: u32,
    r: &mut BitReader,
    budget: &mut usize,
) -> Result<u32, BlockError> {
    let mut n = 0usize;
    let mut entered = 0;
    for k in (k_stop..INTPREC).rev() {
        if *budget == 0 {
            break;
        }
        entered += 1;
        let m = n.min(*budget);
        let mut x = r.read_bits(m as u32).ok_or(BlockError("truncated plane"))?;
        *budget -= m;
        while n < size && *budget > 0 {
            if let Some((word, valid)) = r.peek_word() {
                if word & 1 == 0 {
                    r.skip_bits(1);
                    *budget -= 1;
                    break;
                }
                // zeros up to the run's `1`, or to the last position,
                // whose `1` is not in the stream
                let room = size - 1 - n;
                let zeros = ((word >> 1).trailing_zeros() as usize).min(room);
                let len = zeros + 1 + (zeros < room) as usize;
                if len <= valid as usize && len <= *budget {
                    r.skip_bits(len as u32);
                    *budget -= len;
                    n += zeros;
                    x |= 1 << n;
                    n += 1;
                    continue;
                }
            }
            *budget -= 1;
            let more = r.read_bit().ok_or(BlockError("truncated group bit"))?;
            if !more {
                break;
            }
            while n < size - 1 && *budget > 0 {
                *budget -= 1;
                let bit = r.read_bit().ok_or(BlockError("truncated run"))?;
                if bit {
                    break;
                }
                n += 1;
            }
            x |= 1u64 << n;
            n += 1;
        }
        planes[k as usize] = x;
    }
    Ok(entered)
}

/// Encode one 4^d block of `values` (length `4^d`). Bits are appended to
/// `w`; in rate mode the block is zero-padded to exactly the budget.
pub fn encode_block(values: &[f64], d: usize, mode: Mode, w: &mut BitWriter) {
    let plan = Plan::new(mode, d);
    debug_assert_eq!(values.len(), plan.size);
    let mut block = [0.0; MAX_BLOCK];
    block[..plan.size].copy_from_slice(values);
    plan.encode(&block, w);
}

/// Decode one block previously written by [`encode_block`].
pub fn decode_block(r: &mut BitReader, d: usize, mode: Mode) -> Result<Vec<f64>, BlockError> {
    let plan = Plan::new(mode, d);
    let mut block = [0.0; MAX_BLOCK];
    plan.decode(r, &mut block)?;
    Ok(block[..plan.size].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_block(d: usize, seed: f64) -> Vec<f64> {
        let size = 1usize << (2 * d);
        (0..size)
            .map(|i| {
                let x = (i & 3) as f64;
                let y = ((i >> 2) & 3) as f64;
                let z = ((i >> 4) & 3) as f64;
                (x * 0.3 + seed).sin() + (y * 0.2).cos() * 0.5 + z * 0.1
            })
            .collect()
    }

    fn round_trip(values: &[f64], d: usize, mode: Mode) -> Vec<f64> {
        let mut w = BitWriter::new();
        encode_block(values, d, mode, &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        decode_block(&mut r, d, mode).unwrap()
    }

    #[test]
    fn accuracy_mode_respects_tolerance() {
        for d in 1..=3usize {
            for tol in [1e-1, 1e-3, 1e-6] {
                let values = smooth_block(d, 0.7);
                let out = round_trip(&values, d, Mode::Accuracy(tol));
                for (v, o) in values.iter().zip(&out) {
                    assert!(
                        (v - o).abs() <= tol,
                        "d={d} tol={tol}: |{v} - {o}| = {}",
                        (v - o).abs()
                    );
                }
            }
        }
    }

    #[test]
    fn accuracy_mode_random_data() {
        let mut state = 99u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
        };
        for d in 1..=3usize {
            let size = 1usize << (2 * d);
            for tol in [1e-2, 1e-5] {
                for _ in 0..20 {
                    let values: Vec<f64> = (0..size).map(|_| next()).collect();
                    let out = round_trip(&values, d, Mode::Accuracy(tol));
                    for (v, o) in values.iter().zip(&out) {
                        assert!((v - o).abs() <= tol, "d={d} tol={tol}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_block_is_two_bits() {
        let values = vec![0.0; 16];
        let mut w = BitWriter::new();
        encode_block(&values, 2, Mode::Accuracy(1e-6), &mut w);
        assert_eq!(w.len_bits(), 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(
            decode_block(&mut r, 2, Mode::Accuracy(1e-6)).unwrap(),
            values
        );
    }

    #[test]
    fn non_finite_blocks_round_trip_exactly() {
        let mut values = smooth_block(2, 0.1);
        values[3] = f64::NAN;
        values[7] = f64::NEG_INFINITY;
        let out = round_trip(&values, 2, Mode::Accuracy(1e-3));
        for (v, o) in values.iter().zip(&out) {
            if v.is_nan() {
                assert!(o.is_nan());
            } else {
                assert_eq!(v, o);
            }
        }
    }

    #[test]
    fn rate_mode_hits_exact_budget() {
        let values = smooth_block(2, 0.5);
        for rate in [4.0, 8.0, 16.0] {
            let mut w = BitWriter::new();
            encode_block(&values, 2, Mode::Rate(rate), &mut w);
            assert_eq!(w.len_bits(), block_bit_budget(Mode::Rate(rate), 2).unwrap());
        }
    }

    #[test]
    fn rate_mode_round_trips_with_bounded_quality_loss() {
        let values = smooth_block(3, 0.2);
        let out = round_trip(&values, 3, Mode::Rate(16.0));
        // 16 bits/value on smooth data should reconstruct quite accurately
        for (v, o) in values.iter().zip(&out) {
            assert!((v - o).abs() < 0.05, "|{v}-{o}|");
        }
    }

    #[test]
    fn higher_rate_means_higher_fidelity() {
        let values = smooth_block(2, 0.9);
        let err = |rate: f64| {
            let out = round_trip(&values, 2, Mode::Rate(rate));
            values
                .iter()
                .zip(&out)
                .map(|(v, o)| (v - o).abs())
                .fold(0.0f64, f64::max)
        };
        let e4 = err(4.0);
        let e12 = err(12.0);
        assert!(e12 < e4, "rate 12 err {e12} !< rate 4 err {e4}");
    }

    #[test]
    fn precision_mode_monotone() {
        let values = smooth_block(2, 1.3);
        let err = |p: u32| {
            let out = round_trip(&values, 2, Mode::Precision(p));
            values
                .iter()
                .zip(&out)
                .map(|(v, o)| (v - o).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(err(30) <= err(10));
        assert!(err(10) <= err(4) + 1e-12);
    }

    #[test]
    fn tiny_values_under_tolerance_become_cheap() {
        let values = vec![1e-12; 16];
        let mut w = BitWriter::new();
        encode_block(&values, 2, Mode::Accuracy(1e-3), &mut w);
        // whole block is below tolerance: header only, no planes
        assert!(w.len_bits() <= 14, "bits = {}", w.len_bits());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let out = decode_block(&mut r, 2, Mode::Accuracy(1e-3)).unwrap();
        for (v, o) in values.iter().zip(&out) {
            assert!((v - o).abs() <= 1e-3);
        }
    }

    #[test]
    fn truncated_stream_errors() {
        let values = smooth_block(2, 0.4);
        let mut w = BitWriter::new();
        encode_block(&values, 2, Mode::Accuracy(1e-6), &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes[..2]);
        assert!(decode_block(&mut r, 2, Mode::Accuracy(1e-6)).is_err());
    }

    #[test]
    fn smooth_blocks_compress_below_raw() {
        let values = smooth_block(3, 0.8);
        let mut w = BitWriter::new();
        encode_block(&values, 3, Mode::Accuracy(1e-4), &mut w);
        let raw_bits = 64 * values.len();
        assert!(
            w.len_bits() < raw_bits / 2,
            "coded {} bits vs raw {raw_bits}",
            w.len_bits()
        );
    }
}
