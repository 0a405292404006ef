//! Fixed-width lane-kernel primitives shared by the hot loops.
//!
//! The codec and feature-extraction kernels in this workspace are written
//! in an explicit lane style: process [`LANES`] elements per iteration
//! over small fixed arrays, with branchless select instead of data-
//! dependent branches, so the autovectorizer can turn each iteration into
//! a handful of SIMD instructions on any target without `std::simd` or
//! nightly features. This module pins the two conventions every such
//! kernel shares:
//!
//! - [`LANES`] is the workspace-wide lane width. It is a *semantic*
//!   constant for reductions, not just a tuning knob: kernels that reduce
//!   floating-point values accumulate into `[f64; LANES]` partial sums
//!   (element `i` goes to lane `i % LANES`) and collapse them with
//!   [`fold`], so their result is deterministic and reproducible by a
//!   plain scalar loop that mirrors the same order.
//! - [`fold`] is the one blessed horizontal reduction: a fixed pairwise
//!   tree, so parity tests can assert *exact* equality between a lane
//!   kernel and its scalar reference.
//!
//! - [`Widen`] is how a kernel reads a typed buffer: each element is
//!   widened to `f64` in-register, so a reduction over `&[f32]` needs no
//!   `f64` copy of the buffer. The widening is the same function an
//!   up-front copy would apply, so the lane order alone still fixes the
//!   bits.
//!
//! - [`Element`] is how a decoder writes one: `f32` and `f64`, narrowed
//!   from the `f64` a codec computes in as each value is produced, so
//!   decoding to `f32` needs no `f64` copy of the output either.
//!
//! Element-wise kernels (quantization, negabinary, bit-plane moves) have
//! no accumulation order and are bit-identical to their scalar references
//! by construction; only reductions need this discipline.

/// Workspace-wide lane width for the fixed-width kernels.
///
/// Eight `f64` lanes span two AVX2 registers or four NEON registers —
/// wide enough to hide FP latency on every target we build for, small
/// enough that remainder handling stays cheap.
pub const LANES: usize = 8;

/// Collapse per-lane partial sums with a fixed pairwise tree:
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
///
/// The tree shape is part of the kernel contract — scalar references
/// reproduce lane-kernel results exactly by accumulating into the same
/// lanes and folding through this function.
#[inline]
pub fn fold(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// An element type the lane kernels read: widened to `f64` in-register,
/// by the conversion [`crate::Data::to_f64_vec`] applies (exact for all but
/// `i64` beyond 2^53, which rounds the same way there).
pub trait Widen: Copy + Send + Sync {
    /// This element as an `f64`.
    fn widen(self) -> f64;
}

macro_rules! widen {
    ($($t:ty),*) => {$(
        impl Widen for $t {
            #[inline(always)]
            fn widen(self) -> f64 {
                self as f64
            }
        }
    )*};
}
widen!(f32, f64, i32, i64, u8);

/// An element type a decoder writes: [`Widen`]'s way back, the narrowing a
/// whole-buffer `as f32` pass would apply, done as each value is produced.
pub trait Element: Widen + Default {
    /// `v` as this type.
    fn narrow(v: f64) -> Self;
}

impl Element for f32 {
    #[inline(always)]
    fn narrow(v: f64) -> f32 {
        v as f32
    }
}

impl Element for f64 {
    #[inline(always)]
    fn narrow(v: f64) -> f64 {
        v
    }
}

/// `v.is_finite()`, written as the one ordered compare that vectorizes to
/// a single instruction on every target (NaN and ±inf both fail it).
#[inline(always)]
pub fn finite(v: f64) -> bool {
    v.abs() <= f64::MAX
}

/// Branchless "keep finite values, zero the rest" select used by the
/// reduction kernels so NaN/inf payloads cannot poison partial sums.
#[inline(always)]
pub fn finite_or_zero(v: f64) -> f64 {
    if finite(v) {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_is_the_documented_tree() {
        let acc = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        assert_eq!(fold(acc), 255.0);
        // tree shape: changing association would change this value for
        // catastrophic inputs; spot-check with a cancellation-heavy case
        let acc = [1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(fold(acc), ((1e16 + 1.0) + (-1e16 + 1.0)) + 4.0);
    }

    #[test]
    fn finite_is_is_finite() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE / 2.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(finite(v), v.is_finite(), "{v}");
        }
    }

    #[test]
    fn widening_is_the_to_f64_vec_conversion() {
        assert_eq!(0.1f32.widen().to_bits(), (0.1f32 as f64).to_bits());
        assert_eq!((-0.0f32).widen().to_bits(), (-0.0f64).to_bits());
        assert!(f32::NAN.widen().is_nan());
        assert_eq!(i64::MAX.widen(), i64::MAX as f64);
        assert_eq!((-7i32).widen(), -7.0);
        assert_eq!(255u8.widen(), 255.0);
    }

    #[test]
    fn narrowing_is_the_as_cast() {
        for v in [0.1f64, -0.0, 1e300, -1e300, 1e-50, f64::INFINITY] {
            assert_eq!(f32::narrow(v).to_bits(), (v as f32).to_bits());
            assert_eq!(f64::narrow(v).to_bits(), v.to_bits());
        }
        assert!(f32::narrow(f64::NAN).is_nan());
    }

    #[test]
    fn finite_or_zero_masks_non_finite() {
        assert_eq!(finite_or_zero(3.5), 3.5);
        assert_eq!(finite_or_zero(f64::NAN), 0.0);
        assert_eq!(finite_or_zero(f64::INFINITY), 0.0);
        assert_eq!(finite_or_zero(f64::NEG_INFINITY), 0.0);
    }
}
