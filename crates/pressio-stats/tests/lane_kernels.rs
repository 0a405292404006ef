//! Differential properties of the generic lane kernels: over every element
//! type a buffer can hold, lengths on both sides of a lane chunk and of a
//! sweep block, and every kind of value the finiteness masks exist for,
//! each kernel equals its exact-order `_scalar` twin bit for bit — and the
//! typed walk equals the walk over an up-front `f64` copy, which is what
//! lets feature extraction drop the copy.

use pressio_core::lanes::{Widen, LANES};
use pressio_stats::lanes::*;
use proptest::prelude::*;
use proptest::strategy;

/// What a sweep block holds (`lanes::BLOCK`, private): lengths around it
/// cross the boundary where the pair reduction reaches into the next block.
const BLOCK: usize = 512 * LANES;

fn len_strategy() -> strategy::OneOf<usize> {
    prop_oneof![
        0usize..4 * LANES + 2,
        BLOCK - LANES - 1..BLOCK + LANES + 2,
        2 * BLOCK - 2..2 * BLOCK + 3,
    ]
}

/// How a buffer is salted: 0 none, 1 sparse specials, 2 dense specials,
/// 3 nothing finite at all.
fn floats(n: usize, seed: u64, salt: u8) -> Vec<f64> {
    let mut s = seed | 1;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 11
    };
    (0..n)
        .map(|i| {
            let r = next();
            let special = match salt {
                0 => false,
                1 => r % 17 == 0,
                2 => r % 2 == 0,
                _ => true,
            };
            let kinds = if salt == 3 { 3 } else { 5 };
            if special {
                match (r >> 8) % kinds {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    _ => 0.0,
                }
            } else {
                (i as f64 * 0.37).sin() * 5.0 + (r % 1000) as f64 * 1e-3 - 0.5
            }
        })
        .collect()
}

fn sweep_bits(s: Sweep) -> (usize, u64, u64, u64, usize, u64, usize) {
    (
        s.count,
        s.sum.to_bits(),
        s.min.to_bits(),
        s.max.to_bits(),
        s.zeros,
        s.abs_diff.to_bits(),
        s.pairs,
    )
}

/// Every kernel against its twin on `values`, and against itself on the
/// widened copy.
fn check<T: Widen + std::fmt::Debug>(values: &[T], mean: f64) -> Result<(), TestCaseError> {
    let wide: Vec<f64> = values.iter().map(|v| v.widen()).collect();
    let swept = sweep(values);
    prop_assert_eq!(sweep_bits(swept), sweep_bits(sweep_scalar(values)));
    prop_assert_eq!(sweep_bits(swept), sweep_bits(sweep(&wide)));
    let (count, sum, min, max, zeros) = sum_min_max_zeros(values);
    prop_assert_eq!(
        (count, sum.to_bits(), min.to_bits(), max.to_bits(), zeros),
        (
            swept.count,
            swept.sum.to_bits(),
            swept.min.to_bits(),
            swept.max.to_bits(),
            swept.zeros
        )
    );
    let (sq, pairs) = sum_sq_diff(values);
    let (sq_scalar, pairs_scalar) = sum_sq_diff_scalar(values);
    prop_assert_eq!((sq.to_bits(), pairs), (sq_scalar.to_bits(), pairs_scalar));
    prop_assert_eq!(sq.to_bits(), sum_sq_diff(&wide).0.to_bits());
    let dev = sum_sq_dev(values, mean);
    prop_assert_eq!(dev.to_bits(), sum_sq_dev_scalar(values, mean).to_bits());
    prop_assert_eq!(dev.to_bits(), sum_sq_dev(&wide, mean).to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn float_kernels_match_their_scalar_twins(
        n in len_strategy(),
        seed in any::<u64>(),
        salt in 0u8..4,
        mean in -3.0f64..3.0,
    ) {
        let values = floats(n, seed, salt);
        check(&values, mean)?;
        let narrow: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        check(&narrow, mean)?;
    }

    #[test]
    fn integer_kernels_match_their_scalar_twins(
        n in len_strategy(),
        seed in any::<u64>(),
        mean in -3.0f64..3.0,
    ) {
        // small magnitudes with plenty of zeros, and the full range (an
        // `i64` beyond 2^53 rounds as it widens, the same way every time)
        let raw = floats(n, seed, 0);
        let small: Vec<i32> = raw.iter().map(|&v| (v * 3.0) as i32).collect();
        check(&small, mean)?;
        let bytes: Vec<u8> = raw.iter().map(|&v| (v * 40.0) as i32 as u8).collect();
        check(&bytes, mean)?;
        let wide: Vec<i64> = raw.iter().map(|&v| (v * 1.7e18) as i64).collect();
        check(&wide, mean)?;
        let full: Vec<i32> = raw.iter().map(|&v| (v * 4e8) as i32).collect();
        check(&full, mean * 1e8)?;
    }
}
