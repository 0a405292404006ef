//! The reversible integer decorrelating transform, coefficient ordering,
//! and negabinary mapping used by the ZFP-like codec.
//!
//! The forward/inverse lifting pair is the transform from the ZFP reference
//! implementation (Lindstrom 2014); applied along each dimension of a 4^d
//! block it approximates an orthogonal basis. The right-shifts in the
//! forward lift drop low-order bits, so the pair is *near*-invertible: the
//! reconstruction differs by a handful of fixed-point ULPs, which the codec
//! absorbs in its guard-bit budget (exactly as ZFP does).

/// Forward lift of 4 elements at stride `s` within `p`: one lane of
/// [`fwd_lift_lanes`].
#[inline]
pub fn fwd_lift(p: &mut [i64], base: usize, s: usize) {
    fwd_lift_lanes::<1>(p, base, s);
}

/// Exact inverse of [`fwd_lift`].
#[inline]
pub fn inv_lift(p: &mut [i64], base: usize, s: usize) {
    inv_lift_lanes::<1>(p, base, s);
}

/// The forward lift on `L` adjacent lanes at once: lane `i` lifts the four
/// elements `base + i + {0, s, 2s, 3s}`, each lane on its own, so side by
/// side they are plain vector adds, subtracts and shifts. Sums wrap: a
/// block whose fixed-point image saturated (values under 2^-971, where the
/// scale is infinite) or a hostile stream's coefficients must not panic a
/// debug build, and release arithmetic wrapped already.
#[inline(always)]
fn fwd_lift_lanes<const L: usize>(p: &mut [i64], base: usize, s: usize) {
    let mut v = [[0i64; L]; 4];
    for (j, row) in v.iter_mut().enumerate() {
        row.copy_from_slice(&p[base + j * s..base + j * s + L]);
    }
    let [mut x, mut y, mut z, mut w] = v;
    // non-orthogonal transform: (x,y,z,w) -> decorrelated coefficients
    for i in 0..L {
        x[i] = x[i].wrapping_add(w[i]);
        x[i] >>= 1;
        w[i] = w[i].wrapping_sub(x[i]);
        z[i] = z[i].wrapping_add(y[i]);
        z[i] >>= 1;
        y[i] = y[i].wrapping_sub(z[i]);
        x[i] = x[i].wrapping_add(z[i]);
        x[i] >>= 1;
        z[i] = z[i].wrapping_sub(x[i]);
        w[i] = w[i].wrapping_add(y[i]);
        w[i] >>= 1;
        y[i] = y[i].wrapping_sub(w[i]);
        w[i] = w[i].wrapping_add(y[i] >> 1);
        y[i] = y[i].wrapping_sub(w[i] >> 1);
    }
    for (j, row) in [x, y, z, w].iter().enumerate() {
        p[base + j * s..base + j * s + L].copy_from_slice(row);
    }
}

/// The inverse lift on `L` adjacent lanes at once.
#[inline(always)]
fn inv_lift_lanes<const L: usize>(p: &mut [i64], base: usize, s: usize) {
    let mut v = [[0i64; L]; 4];
    for (j, row) in v.iter_mut().enumerate() {
        row.copy_from_slice(&p[base + j * s..base + j * s + L]);
    }
    let [mut x, mut y, mut z, mut w] = v;
    for i in 0..L {
        y[i] = y[i].wrapping_add(w[i] >> 1);
        w[i] = w[i].wrapping_sub(y[i] >> 1);
        y[i] = y[i].wrapping_add(w[i]);
        w[i] <<= 1;
        w[i] = w[i].wrapping_sub(y[i]);
        z[i] = z[i].wrapping_add(x[i]);
        x[i] <<= 1;
        x[i] = x[i].wrapping_sub(z[i]);
        y[i] = y[i].wrapping_add(z[i]);
        z[i] <<= 1;
        z[i] = z[i].wrapping_sub(y[i]);
        w[i] = w[i].wrapping_add(x[i]);
        x[i] <<= 1;
        x[i] = x[i].wrapping_sub(w[i]);
    }
    for (j, row) in [x, y, z, w].iter().enumerate() {
        p[base + j * s..base + j * s + L].copy_from_slice(row);
    }
}

/// Forward transform of a 4^d block (d = 1, 2, or 3), in place: the lift
/// along x row by row, then along y four lanes (the row) at a time, then
/// along z sixteen lanes (the plane) at a time.
pub fn fwd_xform(block: &mut [i64], d: usize) {
    match d {
        1 => fwd_lift(block, 0, 1),
        2 => {
            let block = &mut block[..16];
            for y in 0..4 {
                fwd_lift(block, 4 * y, 1);
            }
            fwd_lift_lanes::<4>(block, 0, 4);
        }
        3 => {
            let block = &mut block[..64];
            for row in 0..16 {
                fwd_lift(block, 4 * row, 1);
            }
            for z in 0..4 {
                fwd_lift_lanes::<4>(block, 16 * z, 4);
            }
            fwd_lift_lanes::<16>(block, 0, 16);
        }
        _ => panic!("unsupported block dimensionality {d}"),
    }
}

/// Inverse transform of a 4^d block, in place (reverse order of axes).
pub fn inv_xform(block: &mut [i64], d: usize) {
    match d {
        1 => inv_lift(block, 0, 1),
        2 => {
            let block = &mut block[..16];
            inv_lift_lanes::<4>(block, 0, 4);
            for y in 0..4 {
                inv_lift(block, 4 * y, 1);
            }
        }
        3 => {
            let block = &mut block[..64];
            inv_lift_lanes::<16>(block, 0, 16);
            for z in 0..4 {
                inv_lift_lanes::<4>(block, 16 * z, 4);
            }
            for row in 0..16 {
                inv_lift(block, 4 * row, 1);
            }
        }
        _ => panic!("unsupported block dimensionality {d}"),
    }
}

/// Total-degree coefficient ordering for a 4^d block: low-frequency
/// coefficients (small coordinate sum) first, ties broken by linear index.
/// Deterministically generated, so encoder and decoder always agree. The
/// codec reads [`degree_table`], which this sort is the specification of.
pub fn degree_order(d: usize) -> Vec<usize> {
    let n = 1usize << (2 * d);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| {
        let x = i & 3;
        let y = (i >> 2) & 3;
        let z = (i >> 4) & 3;
        (x + y + z, i)
    });
    idx
}

/// [`degree_order`] by counting instead of sorting, so it can run at
/// compile time: one pass over the indices per total degree, in index
/// order. Entries past `4^d` are unused.
const fn degree_table_for(d: usize) -> [u8; 64] {
    let n = 1usize << (2 * d);
    let mut table = [0u8; 64];
    let mut filled = 0;
    let mut degree = 0;
    while degree <= 9 {
        let mut i = 0;
        while i < n {
            if (i & 3) + ((i >> 2) & 3) + ((i >> 4) & 3) == degree {
                table[filled] = i as u8;
                filled += 1;
            }
            i += 1;
        }
        degree += 1;
    }
    table
}

static DEGREE_TABLES: [[u8; 64]; 3] = [
    degree_table_for(1),
    degree_table_for(2),
    degree_table_for(3),
];

/// [`degree_order`]`(d)` as a table built at compile time: position `pos`
/// of the coded order holds coefficient `table[pos]` of the block.
pub fn degree_table(d: usize) -> &'static [u8] {
    assert!((1..=3).contains(&d), "unsupported block dimensionality {d}");
    &DEGREE_TABLES[d - 1][..1 << (2 * d)]
}

/// Map a signed integer to its negabinary (sign-free) representation.
/// Negabinary keeps small-magnitude values small in *unsigned* terms, which
/// is what the embedded bit-plane coder needs.
#[inline]
pub fn int_to_negabinary(x: i64) -> u64 {
    const MASK: u64 = 0xaaaa_aaaa_aaaa_aaaa;
    ((x as u64).wrapping_add(MASK)) ^ MASK
}

/// Inverse of [`int_to_negabinary`].
#[inline]
pub fn negabinary_to_int(u: u64) -> i64 {
    const MASK: u64 = 0xaaaa_aaaa_aaaa_aaaa;
    (u ^ MASK).wrapping_sub(MASK) as i64
}

/// In-place 64×64 bit-matrix transpose: bit `c` of row `r` swaps with bit
/// `r` of row `c` (LSB-first column convention).
///
/// Recursive masked block swaps (Hacker's Delight §7-3): 6 rounds of 32
/// swap pairs, ~6·64 word ops total — an order of magnitude fewer than
/// the per-plane bit gather it replaces in the bit-plane coder, and the
/// inner loop vectorizes.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j: usize = 32;
    let mut m: u64 = 0x0000_0000_ffff_ffff;
    while j != 0 {
        let mut k: usize = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Bit-plane extraction via [`transpose64`]: returns `planes` with
/// `planes[k]` bit `i` = `coeffs[i]` bit `k` for every plane at once.
/// Identical to [`bitplanes_scalar`] (exact integer ops), but one
/// transpose instead of `INTPREC` per-coefficient gathers. The kernel
/// transposes in place; this copy-in form is what the twin calls.
#[cfg(test)]
pub fn bitplanes(coeffs: &[u64]) -> [u64; 64] {
    debug_assert!(coeffs.len() <= 64);
    let mut m = [0u64; 64];
    m[..coeffs.len()].copy_from_slice(coeffs);
    transpose64(&mut m);
    m
}

/// Scalar reference for [`bitplanes`]: the per-plane gather loop the
/// embedded coder originally ran once per transmitted plane.
#[cfg(test)]
pub fn bitplanes_scalar(coeffs: &[u64]) -> [u64; 64] {
    let mut planes = [0u64; 64];
    for (k, p) in planes.iter_mut().enumerate() {
        let mut x = 0u64;
        for (i, &c) in coeffs.iter().enumerate() {
            x |= ((c >> k) & 1) << i;
        }
        *p = x;
    }
    planes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twin::{negabinary_slice, negabinary_to_int_slice};

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn lift_pair_is_near_inverse() {
        let mut state = 0xDEADBEEFu64;
        for _ in 0..1000 {
            let original: Vec<i64> = (0..4)
                .map(|_| (xorshift(&mut state) as i64) >> 24) // keep headroom
                .collect();
            let mut p = original.clone();
            fwd_lift(&mut p, 0, 1);
            inv_lift(&mut p, 0, 1);
            for (a, b) in p.iter().zip(&original) {
                assert!((a - b).abs() <= 4, "{p:?} vs {original:?}");
            }
        }
    }

    #[test]
    fn xform_near_round_trips_all_dims() {
        let mut state = 12345u64;
        for d in 1..=3usize {
            let n = 1usize << (2 * d);
            let mut worst = 0i64;
            for _ in 0..500 {
                let original: Vec<i64> = (0..n)
                    .map(|_| (xorshift(&mut state) as i64) >> 26)
                    .collect();
                let mut b = original.clone();
                fwd_xform(&mut b, d);
                inv_xform(&mut b, d);
                for (a, o) in b.iter().zip(&original) {
                    worst = worst.max((a - o).abs());
                }
            }
            // a handful of fixed-point ULPs; the codec reserves guard bits
            assert!(worst <= 64, "d={d}: worst lift error {worst}");
        }
    }

    #[test]
    fn transform_compacts_smooth_signal() {
        // a linear ramp should concentrate energy in low-order coefficients
        let mut b: Vec<i64> = (0..16).map(|i| (i as i64) * 1000).collect();
        fwd_xform(&mut b, 2);
        let order = degree_order(2);
        let low: i64 = order[..4].iter().map(|&i| b[i].abs()).sum();
        let high: i64 = order[12..].iter().map(|&i| b[i].abs()).sum();
        assert!(low > 10 * high.max(1), "low={low} high={high}");
    }

    #[test]
    fn degree_order_is_permutation() {
        for d in 1..=3usize {
            let n = 1usize << (2 * d);
            let mut o = degree_order(d);
            assert_eq!(o.len(), n);
            o.sort_unstable();
            assert_eq!(o, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn compile_time_tables_are_the_sort() {
        for d in 1..=3usize {
            let table: Vec<usize> = degree_table(d).iter().map(|&i| i as usize).collect();
            assert_eq!(table, degree_order(d), "d={d}");
        }
    }

    /// The lifts four and sixteen lanes at a time against the lift applied
    /// one at a time, as `fwd_xform` / `inv_xform` were written before the
    /// lanes (the arithmetic is one body; its bits are pinned by the stream
    /// digests).
    #[test]
    fn lane_lifts_are_the_scalar_lifts() {
        let mut state = 0xabcd_ef01u64;
        for d in 1..=3usize {
            let n = 1usize << (2 * d);
            for _ in 0..200 {
                let original: Vec<i64> =
                    (0..n).map(|_| (xorshift(&mut state) as i64) >> 9).collect();
                let strides: Vec<usize> = (0..d).map(|axis| 1 << (2 * axis)).collect();
                let lifts_along = |s: usize| (0..n).filter(move |i| (i / s).is_multiple_of(4));
                let mut by_lift = original.clone();
                for &s in &strides {
                    lifts_along(s).for_each(|base| fwd_lift(&mut by_lift, base, s));
                }
                let mut lanes = original.clone();
                fwd_xform(&mut lanes, d);
                assert_eq!(lanes, by_lift, "forward d={d}");
                for &s in strides.iter().rev() {
                    lifts_along(s).for_each(|base| inv_lift(&mut by_lift, base, s));
                }
                inv_xform(&mut lanes, d);
                assert_eq!(lanes, by_lift, "inverse d={d}");
            }
        }
    }

    #[test]
    fn degree_order_3d_starts_at_dc() {
        let o = degree_order(3);
        assert_eq!(o[0], 0); // DC coefficient first
                             // the next three are the three first-order coefficients
        let firsts: std::collections::BTreeSet<usize> = o[1..4].iter().copied().collect();
        assert_eq!(firsts, [1usize, 4, 16].into_iter().collect());
    }

    #[test]
    fn negabinary_round_trips() {
        for x in [-5i64, -1, 0, 1, 7, i64::MAX / 4, i64::MIN / 4, 12345678] {
            assert_eq!(negabinary_to_int(int_to_negabinary(x)), x);
        }
        let mut state = 777u64;
        for _ in 0..1000 {
            let x = (xorshift(&mut state) as i64) >> 8;
            assert_eq!(negabinary_to_int(int_to_negabinary(x)), x);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (r, c) are bit coordinates
    fn transpose64_is_a_true_transpose_and_involution() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..50 {
            let mut a = [0u64; 64];
            for v in a.iter_mut() {
                *v = xorshift(&mut state);
            }
            let orig = a;
            transpose64(&mut a);
            for r in 0..64 {
                for c in 0..64 {
                    assert_eq!(
                        (a[r] >> c) & 1,
                        (orig[c] >> r) & 1,
                        "bit ({r},{c}) after transpose"
                    );
                }
            }
            transpose64(&mut a);
            assert_eq!(a, orig);
        }
    }

    #[test]
    fn bitplanes_matches_scalar_reference() {
        let mut state = 0xfeed_beefu64;
        for &size in &[4usize, 16, 64] {
            for _ in 0..100 {
                let coeffs: Vec<u64> = (0..size)
                    .map(|_| xorshift(&mut state) & ((1u64 << 58) - 1))
                    .collect();
                assert_eq!(bitplanes(&coeffs), bitplanes_scalar(&coeffs), "size {size}");
                // full-width values too
                let wide: Vec<u64> = (0..size).map(|_| xorshift(&mut state)).collect();
                assert_eq!(
                    bitplanes(&wide),
                    bitplanes_scalar(&wide),
                    "wide size {size}"
                );
            }
        }
    }

    #[test]
    fn negabinary_slice_matches_scalar_calls() {
        let mut state = 42u64;
        let ints: Vec<i64> = (0..129).map(|_| xorshift(&mut state) as i64 >> 3).collect();
        let mut neg = vec![0u64; ints.len()];
        negabinary_slice(&ints, &mut neg);
        for (i, &x) in ints.iter().enumerate() {
            assert_eq!(neg[i], int_to_negabinary(x));
        }
        let mut back = vec![0i64; ints.len()];
        negabinary_to_int_slice(&neg, &mut back);
        assert_eq!(back, ints);
    }

    #[test]
    fn negabinary_keeps_small_values_small() {
        // |x| small => few significant bits in negabinary
        for x in -8i64..=8 {
            let u = int_to_negabinary(x);
            assert!(u < 32, "x={x} -> {u}");
        }
    }
}
