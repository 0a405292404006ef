//! Differential property of the Lorenzo residual estimate: for every
//! element type, rank 1 to 4, row lengths on both sides of a lane chunk and
//! every kind of non-finite value, the lane kernel over its ring of widened
//! rows equals the exact-order scalar twin bit for bit, and the typed walk
//! equals the walk over an up-front `f64` copy.

use pressio_core::lanes::Widen;
use pressio_sz::lorenzo::{estimate_mean_abs_residual, estimate_mean_abs_residual_scalar};
use proptest::prelude::*;
use proptest::strategy;

fn dims_strategy() -> strategy::OneOf<Vec<usize>> {
    prop_oneof![
        (1usize..70).prop_map(|n| vec![n]),
        ((1usize..27), (1usize..9)).prop_map(|(a, b)| vec![a, b]),
        ((1usize..19), (1usize..6), (1usize..5)).prop_map(|(a, b, c)| vec![a, b, c]),
        ((1usize..11), (1usize..4), (1usize..4), (1usize..3))
            .prop_map(|(a, b, c, d)| vec![a, b, c, d]),
    ]
}

fn floats(n: usize, seed: u64, salt: u8) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = s >> 11;
            let special = match salt {
                0 => false,
                1 => r.is_multiple_of(13),
                _ => true,
            };
            if special {
                match (r >> 8) % 4 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    _ => -0.0,
                }
            } else {
                (i as f64 * 0.113).sin() * 3.0 + (r % 1000) as f64 * 1e-3
            }
        })
        .collect()
}

fn check<T: Widen>(values: &[T], dims: &[usize]) -> Result<(), TestCaseError> {
    let wide: Vec<f64> = values.iter().map(|v| v.widen()).collect();
    let lane = estimate_mean_abs_residual(values, dims).to_bits();
    prop_assert_eq!(
        lane,
        estimate_mean_abs_residual_scalar(values, dims).to_bits()
    );
    prop_assert_eq!(lane, estimate_mean_abs_residual(&wide, dims).to_bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn estimate_matches_its_scalar_twin_on_every_element_type(
        dims in dims_strategy(),
        seed in any::<u64>(),
        salt in 0u8..3,
    ) {
        let values = floats(dims.iter().product(), seed, salt);
        check(&values, &dims)?;
        let narrow: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        check(&narrow, &dims)?;
        let clean = floats(values.len(), seed, 0);
        let ints: Vec<i32> = clean.iter().map(|&v| (v * 1e4) as i32).collect();
        check(&ints, &dims)?;
        let longs: Vec<i64> = clean.iter().map(|&v| (v * 2e18) as i64).collect();
        check(&longs, &dims)?;
        let bytes: Vec<u8> = clean.iter().map(|&v| (v * 30.0) as i32 as u8).collect();
        check(&bytes, &dims)?;
    }
}
