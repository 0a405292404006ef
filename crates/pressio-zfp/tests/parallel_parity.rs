//! Property-based parity for the chunked (v2) ZFP container: parallel
//! encodes must be **byte-identical** to sequential ones for arbitrary
//! dims/dtypes/bounds/modes, and parallel decodes must reproduce
//! sequential decodes bit-for-bit.

use pressio_core::{Compressor, Data, Dtype, Options};
use pressio_zfp::ZfpCompressor;
use proptest::prelude::*;
use proptest::strategy;

/// 1-D shapes span multiple 256-block chunks (4 values/block); 2-D and 3-D
/// shapes cover partial blocks and single-chunk fall-through.
fn dims_strategy() -> strategy::OneOf<Vec<usize>> {
    prop_oneof![
        (200usize..4100).prop_map(|n| vec![n]),
        ((5usize..80), (5usize..80)).prop_map(|(a, b)| vec![a, b]),
        ((3usize..18), (3usize..18), (3usize..18)).prop_map(|(a, b, c)| vec![a, b, c]),
    ]
}

/// Deterministic synthetic field: smooth signal plus seeded noise.
fn synth(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (i as f64 * 0.013).sin() * 10.0 + noise * 0.2
        })
        .collect()
}

fn make_data(dims: &[usize], seed: u64, f32_input: bool) -> (Data, Dtype) {
    let n: usize = dims.iter().product();
    let values = synth(n, seed);
    if f32_input {
        (
            Data::from_f32(
                dims.to_vec(),
                values.into_iter().map(|v| v as f32).collect(),
            ),
            Dtype::F32,
        )
    } else {
        (Data::from_f64(dims.to_vec(), values), Dtype::F64)
    }
}

fn zfp_with(mode: &str, abs: f64, threads: u64) -> ZfpCompressor {
    let mut zfp = ZfpCompressor::new();
    zfp.set_options(
        &Options::new()
            .with("zfp:mode", mode)
            .with("pressio:abs", abs)
            .with("pressio:nthreads", threads),
    )
    .unwrap();
    zfp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_encode_is_byte_identical(
        dims in dims_strategy(),
        seed in any::<u64>(),
        f32_input in any::<bool>(),
        eb_exp in 2u32..6,
        mode_pick in 0usize..3,
    ) {
        let (data, dtype) = make_data(&dims, seed, f32_input);
        let abs = 10f64.powi(-(eb_exp as i32));
        let mode = ["accuracy", "precision", "rate"][mode_pick];

        let sequential = zfp_with(mode, abs, 1).compress(&data).unwrap();
        let reference = zfp_with(mode, abs, 1)
            .decompress(&sequential, dtype, &dims)
            .unwrap();
        for threads in [2u64, 3, 7] {
            let zfp = zfp_with(mode, abs, threads);
            let parallel = zfp.compress(&data).unwrap();
            prop_assert!(
                parallel == sequential,
                "{threads}-thread encode differs from sequential \
                 (dims {dims:?}, mode {mode}, {} vs {} bytes)",
                parallel.len(),
                sequential.len()
            );
            let decoded = zfp.decompress(&parallel, dtype, &dims).unwrap();
            prop_assert!(
                decoded == reference,
                "{threads}-thread decode differs from sequential (dims {dims:?})"
            );
        }
    }
}
