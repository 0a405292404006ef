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
fn valid_streams() -> Vec<Vec<u8>> {
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

/// What the mutator starts from: the valid streams and the crafted headers.
fn corpus() -> Vec<Vec<u8>> {
    let mut corpus = valid_streams();
    corpus.extend(hostile_headers(&corpus));
    corpus
}

/// Headers crafted to reach what mutation rarely does: each 8-byte field
/// between the dims and the chunk payloads — tolerance, precision, rate,
/// blocks per chunk, chunk count, first chunk length — set to values that
/// overflow a cursor, saturate a cast or are not numbers at all, in a
/// stream of each mode.
fn hostile_headers(valid: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let values = [
        u64::MAX - 10,
        u64::MAX,
        0,
        (1 << 32) | 12,
        f64::NAN.to_bits(),
        1e300f64.to_bits(),
        (-1f64).to_bits(),
        f64::INFINITY.to_bits(),
    ];
    let mut out = Vec::new();
    // the 3-D f64 streams, one per mode: dtype at byte 5, rank at byte 7,
    // the fields after the dims
    for stream in valid.iter().filter(|s| s[5] == 1 && s[7] == 3) {
        let fields = 8 + 8 * stream[7] as usize;
        for field in 0..6 {
            for value in values {
                let mut crafted = stream.clone();
                crafted[fields + 8 * field..][..8].copy_from_slice(&value.to_le_bytes());
                out.push(crafted);
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
fn crafted_headers_never_panic_unmutated() {
    let zfp = ZfpCompressor::new();
    let hostile = hostile_headers(&valid_streams());
    // three modes x six fields x eight values
    assert_eq!(hostile.len(), 3 * 6 * 8);
    for case in hostile {
        for dims in DIMS {
            for dtype in [Dtype::F32, Dtype::F64] {
                let _ = zfp.decompress(&case, dtype, dims);
            }
        }
    }
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
