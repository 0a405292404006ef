//! The band step of [`super::sweep`] on AVX2: the eight lanes in two
//! `__m256d`, the carried neighbours in registers, every operation the one
//! the portable lane arrays perform, in the same order — `vaddpd`,
//! `vsubpd`, `vdivpd`, `vmulpd` round exactly as their scalar forms do, and
//! nothing here contracts a multiply and an add. It is the only module of
//! the crate allowed `unsafe`, and the differential tests hold it to the
//! portable form bit for bit.
//!
//! Left to the autovectorizer the lane arrays stay on the stack and are
//! reloaded at another width than they were stored, a store-forwarding
//! stall on the dependency chain; written out, the chain never leaves the
//! registers.
//!
//! A band's steps come in three stretches. Where every lane stands inside
//! its row (`LANES − 1 ≤ s < nx`) a step reads and writes through raw
//! pointers at a fixed stride, and that loop holds nothing else. The fill
//! before and the drain after are the same step with the lanes outside their
//! rows loaded as `0.0`, held at `0.0` and not stored, through checked
//! indexing. Unchecked access is there for a measured reason: with bounds
//! checks on the strided accesses, reconstruct (the shorter chain, closer to
//! the issue width) took 3.6–4.2 ns an element where it takes 2.7–3.1;
//! predict+quantize did not move (`pressio bench --ablation lorenzo`,
//! fastest of six alternating runs).

#![allow(unsafe_code)]

use super::sweep::Around;
use crate::quantizer::Formula;
use pressio_core::lanes::{Widen, LANES};
use std::arch::x86_64::{
    __m128i, __m256d, _mm256_add_pd, _mm256_and_pd, _mm256_andnot_pd, _mm256_blendv_pd,
    _mm256_castpd256_pd128, _mm256_cmp_pd, _mm256_cvtepi32_pd, _mm256_cvtpd_ps, _mm256_cvtps_pd,
    _mm256_cvttpd_epi32, _mm256_div_pd, _mm256_extractf128_pd, _mm256_mul_pd, _mm256_or_pd,
    _mm256_permute2f128_pd, _mm256_round_pd, _mm256_set1_pd, _mm256_set_pd, _mm256_setzero_pd,
    _mm256_shuffle_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm_extract_epi32, _mm_set_epi32,
    _mm_storeh_pd, _mm_storel_pd, _mm_storeu_si128, _CMP_EQ_OQ, _CMP_LE_OQ, _CMP_LT_OQ,
    _MM_FROUND_NO_EXC, _MM_FROUND_TO_ZERO,
};

/// Proof that this CPU runs AVX2: [`Detected::detect`] is the only way to
/// one, so the safe methods below can enter the `target_feature` code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Detected(());

impl Detected {
    pub(super) fn detect() -> Option<Detected> {
        is_x86_feature_detected!("avx2").then_some(Detected(()))
    }

    /// Predict and quantize [`LANES`] rows of `nx ≥ LANES`.
    pub(super) fn encode_band<T: Widen>(
        self,
        formula: &Formula,
        nx: usize,
        values: &[T],
        around: &Around,
        recon: &mut [f64],
        symbols: &mut [u32],
    ) {
        // SAFETY: a `Detected` exists only after `is_x86_feature_detected!`
        // reported the one feature the callee is compiled with.
        unsafe { encode_band(formula, nx, values, around, recon, symbols) }
    }

    /// Reconstruct [`LANES`] rows of `nx ≥ LANES` whose escapes are in place.
    pub(super) fn decode_band(
        self,
        formula: &Formula,
        nx: usize,
        symbols: &[u32],
        around: &Around,
        recon: &mut [f64],
    ) {
        // SAFETY: as in `encode_band`.
        unsafe { decode_band(formula, nx, symbols, around, recon) }
    }
}

/// Where lane `r` of a band of [`LANES`] rows of `nx` stands at step `s`:
/// element `r · nx + (s − r)` of the band, when column `s − r` is in the row.
#[inline(always)]
fn element(nx: usize, s: usize, r: usize) -> Option<usize> {
    let x = s.wrapping_sub(r);
    (x < nx).then(|| r * nx + x)
}

/// Eight `f64` lanes: 0–3 and 4–7.
#[derive(Clone, Copy)]
struct Lanes(__m256d, __m256d);

/// Eight symbols: lanes 0–3 and 4–7.
#[derive(Clone, Copy)]
struct Symbols(__m128i, __m128i);

/// `[before[3], v[0], v[1], v[2]]`.
#[target_feature(enable = "avx2")]
#[inline]
fn shift_one(before: __m256d, v: __m256d) -> __m256d {
    // [before[2], before[3], v[0], v[1]], then its odd lanes beside v's even
    let straddle = _mm256_permute2f128_pd::<0x21>(before, v);
    _mm256_shuffle_pd::<0b0101>(straddle, v)
}

// The gathers and scatters below share one contract. `INSIDE` says every
// lane stands inside its row, and the access is unchecked; without it a
// lane outside its row reads as zero and is not written, through checked
// indexing, and the contract asks nothing.
//
// # Safety (with `INSIDE`)
// `rows` holds `LANES` rows of `nx`, and `LANES − 1 ≤ s < nx`: lane `r`'s
// element is then `s + r · (nx − 1)` = `r · nx + (s − r)`, and since
// `0 ≤ s − r < nx` it is below `LANES · nx = rows.len()`.

impl Lanes {
    #[target_feature(enable = "avx2")]
    #[inline]
    fn zero() -> Lanes {
        Lanes(_mm256_setzero_pd(), _mm256_setzero_pd())
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn from_fn(mut lane: impl FnMut(usize) -> f64) -> Lanes {
        Lanes(
            _mm256_set_pd(lane(3), lane(2), lane(1), lane(0)),
            _mm256_set_pd(lane(7), lane(6), lane(5), lane(4)),
        )
    }

    /// `first`, then `self` less its last lane.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn shift_in(self, first: f64) -> Lanes {
        Lanes(
            shift_one(_mm256_set1_pd(first), self.0),
            shift_one(self.0, self.1),
        )
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn add(self, other: Lanes) -> Lanes {
        Lanes(
            _mm256_add_pd(self.0, other.0),
            _mm256_add_pd(self.1, other.1),
        )
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn sub(self, other: Lanes) -> Lanes {
        Lanes(
            _mm256_sub_pd(self.0, other.0),
            _mm256_sub_pd(self.1, other.1),
        )
    }

    /// Every lane's element of `rows` at step `s`, widened.
    ///
    /// # Safety
    /// The contract above.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn gather<T: Widen, const INSIDE: bool>(rows: &[T], nx: usize, s: usize) -> Lanes {
        if INSIDE {
            // SAFETY: the caller's contract puts every element inside `rows`.
            Lanes::from_fn(|r| unsafe { *rows.as_ptr().add(s + r * (nx - 1)) }.widen())
        } else {
            Lanes::from_fn(|r| element(nx, s, r).map_or(0.0, |i| rows[i].widen()))
        }
    }

    /// Store every lane to its element of `rows` at step `s`; returns the
    /// lanes with those outside their rows held at `0.0`.
    ///
    /// # Safety
    /// The contract above.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn scatter<const INSIDE: bool>(self, rows: &mut [f64], nx: usize, s: usize) -> Lanes {
        if INSIDE {
            let p = rows.as_mut_ptr().wrapping_add(s);
            for (half, r) in [(self.0, 0), (self.1, 4)] {
                let (low, high) = (
                    _mm256_castpd256_pd128(half),
                    _mm256_extractf128_pd::<1>(half),
                );
                // SAFETY: the caller's contract puts every element inside
                // `rows`.
                unsafe {
                    _mm_storel_pd(p.add(r * (nx - 1)), low);
                    _mm_storeh_pd(p.add((r + 1) * (nx - 1)), low);
                    _mm_storel_pd(p.add((r + 2) * (nx - 1)), high);
                    _mm_storeh_pd(p.add((r + 3) * (nx - 1)), high);
                }
            }
            return self;
        }
        let mut lanes = [0.0; LANES];
        // SAFETY: the array is eight `f64`, four to a store; `storeu` has no
        // alignment requirement.
        unsafe {
            _mm256_storeu_pd(lanes.as_mut_ptr(), self.0);
            _mm256_storeu_pd(lanes.as_mut_ptr().add(4), self.1);
        }
        Lanes::from_fn(|r| {
            element(nx, s, r).map_or(0.0, |i| {
                rows[i] = lanes[r];
                lanes[r]
            })
        })
    }
}

impl Symbols {
    #[target_feature(enable = "avx2")]
    #[inline]
    fn from_fn(lane: impl Fn(usize) -> u32) -> Symbols {
        let at = |r: usize| lane(r) as i32;
        Symbols(
            _mm_set_epi32(at(3), at(2), at(1), at(0)),
            _mm_set_epi32(at(7), at(6), at(5), at(4)),
        )
    }

    /// Every lane's element of `rows` at step `s`; the escape symbol for a
    /// lane outside its row.
    ///
    /// # Safety
    /// The contract above.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn gather<const INSIDE: bool>(rows: &[u32], nx: usize, s: usize) -> Symbols {
        if INSIDE {
            // SAFETY: the caller's contract puts every element inside `rows`.
            Symbols::from_fn(|r| unsafe { *rows.as_ptr().add(s + r * (nx - 1)) })
        } else {
            Symbols::from_fn(|r| element(nx, s, r).map_or(0, |i| rows[i]))
        }
    }

    /// Store every lane to its element of `rows` at step `s`.
    ///
    /// # Safety
    /// The contract above.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn scatter<const INSIDE: bool>(self, rows: &mut [u32], nx: usize, s: usize) {
        if INSIDE {
            let p = rows.as_mut_ptr().wrapping_add(s);
            for (half, r) in [(self.0, 0), (self.1, 4)] {
                // SAFETY: the caller's contract puts every element inside
                // `rows`.
                unsafe {
                    *p.add(r * (nx - 1)) = _mm_extract_epi32::<0>(half) as u32;
                    *p.add((r + 1) * (nx - 1)) = _mm_extract_epi32::<1>(half) as u32;
                    *p.add((r + 2) * (nx - 1)) = _mm_extract_epi32::<2>(half) as u32;
                    *p.add((r + 3) * (nx - 1)) = _mm_extract_epi32::<3>(half) as u32;
                }
            }
            return;
        }
        let mut lanes = [0u32; LANES];
        // SAFETY: the array is eight `u32`, four to a store; `storeu` has no
        // alignment requirement.
        unsafe {
            _mm_storeu_si128(lanes.as_mut_ptr().cast(), self.0);
            _mm_storeu_si128(lanes.as_mut_ptr().add(4).cast(), self.1);
        }
        for (r, &symbol) in lanes.iter().enumerate() {
            if let Some(i) = element(nx, s, r) {
                rows[i] = symbol;
            }
        }
    }
}

/// [`Formula`], a constant per lane.
struct Consts {
    eb: __m256d,
    two_eb: __m256d,
    limit: __m256d,
    radius: __m256d,
    round_f32: bool,
    zero: __m256d,
    sign: __m256d,
    max: __m256d,
    /// `0.5 − 2⁻⁵⁴`, the largest `f64` below one half.
    below_half: __m256d,
}

impl Consts {
    #[target_feature(enable = "avx2")]
    #[inline]
    fn new(formula: &Formula) -> Consts {
        Consts {
            eb: _mm256_set1_pd(formula.eb),
            two_eb: _mm256_set1_pd(formula.two_eb),
            limit: _mm256_set1_pd(formula.limit),
            radius: _mm256_set1_pd(formula.radius),
            round_f32: formula.round_f32,
            zero: _mm256_setzero_pd(),
            sign: _mm256_set1_pd(-0.0),
            max: _mm256_set1_pd(f64::MAX),
            below_half: _mm256_set1_pd(0.5 - f64::EPSILON / 4.0),
        }
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn abs(&self, v: __m256d) -> __m256d {
        _mm256_andnot_pd(self.sign, v)
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn round_target(&self, v: __m256d) -> __m256d {
        if self.round_f32 {
            _mm256_cvtps_pd(_mm256_cvtpd_ps(v))
        } else {
            v
        }
    }

    /// [`Formula::quantize`] on four lanes. `f64::round` is the sequence
    /// LLVM itself emits for it: `trunc(x + copysign(0.5 − 2⁻⁵⁴, x))`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn quantize(&self, prediction: __m256d, value: __m256d) -> (__m256d, __m128i) {
        let x = _mm256_div_pd(_mm256_sub_pd(value, prediction), self.two_eb);
        let half = _mm256_or_pd(self.below_half, _mm256_and_pd(x, self.sign));
        let code =
            _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(_mm256_add_pd(x, half));
        let recon = self.round_target(_mm256_add_pd(
            _mm256_add_pd(prediction, self.zero),
            _mm256_mul_pd(self.two_eb, code),
        ));
        let finite = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_LE_OQ>(self.abs(value), self.max),
            _mm256_cmp_pd::<_CMP_LE_OQ>(self.abs(prediction), self.max),
        );
        let within = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_LT_OQ>(self.abs(code), self.limit),
            _mm256_cmp_pd::<_CMP_LE_OQ>(self.abs(_mm256_sub_pd(recon, value)), self.eb),
        );
        let ok = _mm256_and_pd(finite, within);
        let symbol = _mm256_and_pd(ok, _mm256_add_pd(code, self.radius));
        (
            _mm256_blendv_pd(self.round_target(value), recon, ok),
            _mm256_cvttpd_epi32(symbol),
        )
    }

    /// [`Formula::recover`] on four lanes.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn recover(&self, prediction: __m256d, symbol: __m128i, verbatim: __m256d) -> __m256d {
        let symbol = _mm256_cvtepi32_pd(symbol);
        let code = _mm256_sub_pd(symbol, self.radius);
        let coded = self.round_target(_mm256_add_pd(prediction, _mm256_mul_pd(self.two_eb, code)));
        let escape = _mm256_cmp_pd::<_CMP_EQ_OQ>(symbol, self.zero);
        _mm256_blendv_pd(coded, verbatim, escape)
    }
}

/// What the band carries from one step to the next: `sweep::Carried`, in
/// registers.
struct Carried {
    out: Lanes,
    n: Lanes,
    u: Lanes,
    un: Lanes,
}

impl Carried {
    #[target_feature(enable = "avx2")]
    #[inline]
    fn new() -> Carried {
        Carried {
            out: Lanes::zero(),
            n: Lanes::zero(),
            u: Lanes::zero(),
            un: Lanes::zero(),
        }
    }

    /// Every lane's prediction at step `s` given this step's `u`, in the
    /// term order of [`super::predict`]; the neighbours move on by one
    /// column.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn predict(&mut self, s: usize, around: &Around, u: Lanes) -> Lanes {
        let n = self.out.shift_in(Around::lane0(around.north, s));
        let un = self.u.shift_in(Around::lane0(around.below_north, s));
        let pred = self
            .out
            .add(n)
            .add(u)
            .sub(self.n)
            .sub(self.u)
            .sub(un)
            .add(self.un);
        (self.n, self.u, self.un) = (n, u, un);
        pred
    }
}

/// A band of [`LANES`] rows of `nx` under the encoder.
struct EncodeBand<'a, T> {
    consts: Consts,
    carried: Carried,
    nx: usize,
    values: &'a [T],
    around: &'a Around<'a>,
    recon: &'a mut [f64],
    symbols: &'a mut [u32],
}

impl<T: Widen> EncodeBand<'_, T> {
    /// # Safety
    /// With `INSIDE`, `LANES − 1 ≤ s < nx`, and every slice of the band that
    /// is stepped through holds `LANES` rows of `nx`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn step<const INSIDE: bool>(&mut self, s: usize) {
        let nx = self.nx;
        // SAFETY: the caller's contract is the contract of every call.
        unsafe {
            let u = match self.around.below {
                Some(below) => Lanes::gather::<f64, INSIDE>(below, nx, s),
                None => Lanes::zero(),
            };
            let value = Lanes::gather::<T, INSIDE>(self.values, nx, s);
            let pred = self.carried.predict(s, self.around, u);
            let (low, low_symbols) = self.consts.quantize(pred.0, value.0);
            let (high, high_symbols) = self.consts.quantize(pred.1, value.1);
            self.carried.out = Lanes(low, high).scatter::<INSIDE>(self.recon, nx, s);
            Symbols(low_symbols, high_symbols).scatter::<INSIDE>(self.symbols, nx, s);
        }
    }
}

/// A band of [`LANES`] rows of `nx` under the decoder.
struct DecodeBand<'a> {
    consts: Consts,
    carried: Carried,
    nx: usize,
    symbols: &'a [u32],
    around: &'a Around<'a>,
    recon: &'a mut [f64],
}

impl DecodeBand<'_> {
    /// # Safety
    /// As for [`EncodeBand::step`].
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn step<const INSIDE: bool>(&mut self, s: usize) {
        let nx = self.nx;
        // SAFETY: the caller's contract is the contract of every call.
        unsafe {
            let u = match self.around.below {
                Some(below) => Lanes::gather::<f64, INSIDE>(below, nx, s),
                None => Lanes::zero(),
            };
            let symbol = Symbols::gather::<INSIDE>(self.symbols, nx, s);
            let verbatim = Lanes::gather::<f64, INSIDE>(self.recon, nx, s);
            let pred = self.carried.predict(s, self.around, u);
            let out = Lanes(
                self.consts.recover(pred.0, symbol.0, verbatim.0),
                self.consts.recover(pred.1, symbol.1, verbatim.1),
            );
            self.carried.out = out.scatter::<INSIDE>(self.recon, nx, s);
        }
    }
}

/// The three stretches of a band's `nx + LANES − 1` steps: the fill, the
/// steps with every lane inside its row, the drain.
fn stretches(nx: usize) -> [(std::ops::Range<usize>, bool); 3] {
    [
        (0..LANES - 1, false),
        (LANES - 1..nx, true),
        (nx..nx + LANES - 1, false),
    ]
}

#[target_feature(enable = "avx2")]
fn encode_band<T: Widen>(
    formula: &Formula,
    nx: usize,
    values: &[T],
    around: &Around,
    recon: &mut [f64],
    symbols: &mut [u32],
) {
    // what the unchecked steps rely on
    assert!(nx >= LANES && around.below.is_none_or(|b| b.len() == LANES * nx));
    assert!([values.len(), recon.len(), symbols.len()] == [LANES * nx; 3]);
    let mut band = EncodeBand {
        consts: Consts::new(formula),
        carried: Carried::new(),
        nx,
        values,
        around,
        recon,
        symbols,
    };
    for (steps, inside) in stretches(nx) {
        for s in steps {
            // SAFETY: `inside` steps are `LANES − 1 ≤ s < nx` (`stretches`),
            // and every slice holds `LANES` rows of `nx` (asserted above).
            unsafe {
                if inside {
                    band.step::<true>(s)
                } else {
                    band.step::<false>(s)
                }
            }
        }
    }
}

#[target_feature(enable = "avx2")]
fn decode_band(formula: &Formula, nx: usize, symbols: &[u32], around: &Around, recon: &mut [f64]) {
    // what the unchecked steps rely on
    assert!(nx >= LANES && around.below.is_none_or(|b| b.len() == LANES * nx));
    assert!([symbols.len(), recon.len()] == [LANES * nx; 2]);
    let mut band = DecodeBand {
        consts: Consts::new(formula),
        carried: Carried::new(),
        nx,
        symbols,
        around,
        recon,
    };
    for (steps, inside) in stretches(nx) {
        for s in steps {
            // SAFETY: as in `encode_band`.
            unsafe {
                if inside {
                    band.step::<true>(s)
                } else {
                    band.step::<false>(s)
                }
            }
        }
    }
}
