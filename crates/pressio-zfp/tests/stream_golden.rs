//! Golden digest of `ZfpCompressor::compress`, taken at the commit *before*
//! the shared `BitWriter` moved from a byte at a time onto a 64-bit
//! accumulator: ZFP's embedded coder writes every bit through it, so every
//! mode, rank, dtype and thread count must still produce the same bytes.
//!
//! The digest is FNV-1a over one `case len fnv` line per case; on a
//! mismatch the test prints the digest it computed, and
//! `STREAM_GOLDEN_DUMP=1` prints the lines themselves.

use pressio_core::hash::fnv1a64;
use pressio_core::{Compressor, Data, Options};
use pressio_zfp::ZfpCompressor;

/// `pressio:nthreads`: sequential, four pool threads, and 0 = whatever
/// `PRESSIO_THREADS` resolves to.
const THREADS: [u64; 3] = [1, 4, 0];

/// A smooth field with exact zeros (all-zero blocks take the coder's
/// one-bit path) and a sharp step.
fn value(i: usize) -> f64 {
    let x = i as f64;
    let smooth = (x * 0.113).sin() * 3.5 + (x * 0.017).cos() * 40.0;
    match i % 97 {
        0..=15 => 0.0,
        16 => smooth + 1e3,
        _ => smooth,
    }
}

fn lines() -> String {
    // edges that are not multiples of 4 exercise the padded partial blocks
    const SHAPES: [&[usize]; 5] = [&[257], &[33, 21], &[19, 13, 9], &[9, 7, 5, 3], &[64, 32]];
    let modes = [
        Options::new()
            .with("zfp:mode", "accuracy")
            .with("pressio:abs", 1e-6),
        Options::new()
            .with("zfp:mode", "accuracy")
            .with("pressio:abs", 1e-4),
        Options::new()
            .with("zfp:mode", "accuracy")
            .with("pressio:abs", 1e-2),
        Options::new()
            .with("zfp:mode", "precision")
            .with("zfp:precision", 12u64),
        Options::new()
            .with("zfp:mode", "precision")
            .with("zfp:precision", 30u64),
        Options::new()
            .with("zfp:mode", "rate")
            .with("zfp:rate", 4.0),
        Options::new()
            .with("zfp:mode", "rate")
            .with("zfp:rate", 9.5),
    ];
    let mut out = String::new();
    for dims in SHAPES {
        let n: usize = dims.iter().product();
        let values: Vec<f64> = (0..n).map(value).collect();
        for f64_input in [false, true] {
            let data = if f64_input {
                Data::from_f64(dims.to_vec(), values.clone())
            } else {
                Data::from_f32(dims.to_vec(), values.iter().map(|&v| v as f32).collect())
            };
            for (m, mode) in modes.iter().enumerate() {
                let compress = |threads: u64| {
                    let mut zfp = ZfpCompressor::new();
                    zfp.set_options(mode).unwrap();
                    zfp.set_options(&Options::new().with("pressio:nthreads", threads))
                        .unwrap();
                    zfp.compress(&data).unwrap()
                };
                let bytes = compress(THREADS[0]);
                for &threads in &THREADS[1..] {
                    assert!(
                        compress(threads) == bytes,
                        "{dims:?} mode {m}: nthreads={threads} changed the stream"
                    );
                }
                out.push_str(&format!(
                    "{dims:?}{} mode{m} len={} fnv={:016x}\n",
                    if f64_input { "f64" } else { "f32" },
                    bytes.len(),
                    fnv1a64(&bytes)
                ));
            }
        }
    }
    out
}

const GOLDEN: u64 = 0xd59f376bfc692b85;

#[test]
fn every_stream_matches_the_digest_taken_at_the_parent_commit() {
    let lines = lines();
    if std::env::var_os("STREAM_GOLDEN_DUMP").is_some() {
        print!("{lines}");
    }
    let digest = fnv1a64(lines.as_bytes());
    assert_eq!(
        digest, GOLDEN,
        "zfp streams differ from the parent's: digest is now {digest:#018x}"
    );
}
