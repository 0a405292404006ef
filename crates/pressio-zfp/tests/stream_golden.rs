//! Golden digest of `ZfpCompressor::compress`, taken at the commit *before*
//! the shared `BitWriter` moved from a byte at a time onto a 64-bit
//! accumulator: ZFP's embedded coder writes every bit through it, so every
//! mode, rank, dtype and thread count must still produce the same bytes.
//!
//! The digest is FNV-1a over one `case len fnv` line per case; on a
//! mismatch the test prints the digest it computed, and
//! `STREAM_GOLDEN_DUMP=1` prints the lines themselves.
//!
//! A second group, taken at the commit *before* the block path was rebuilt
//! on stack arrays and whole-group writes, covers what the first lacks:
//! streams longer than one 256-block chunk (so the decode waves and the
//! chunk table see more than one entry), a `pressio:rel` bound, a field of
//! mostly all-zero blocks and one salted with NaN and ±inf. Its lines end in
//! a digest of the *decompressed* values as well, so the container's decode
//! path (waves, scatter, the zero-block skip) is pinned to the parent's
//! output bits, not only to its own encoder.

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

/// The seven rate-control configurations both groups run.
fn modes() -> [Options; 7] {
    [
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
    ]
}

/// `data` compressed under `mode` at every thread count in [`THREADS`]
/// (which must agree), as one `case len fnv` line — with `decoded`, also
/// decompressed at every thread count (which must agree) and the line
/// ends in the digest of the decoded bytes.
fn line(case: &str, data: &Data, mode: &Options, decoded: bool) -> String {
    let zfp = |threads: u64| {
        let mut zfp = ZfpCompressor::new();
        zfp.set_options(mode).unwrap();
        zfp.set_options(&Options::new().with("pressio:nthreads", threads))
            .unwrap();
        zfp
    };
    let bytes = zfp(THREADS[0]).compress(data).unwrap();
    for &threads in &THREADS[1..] {
        assert!(
            zfp(threads).compress(data).unwrap() == bytes,
            "{case}: nthreads={threads} changed the stream"
        );
    }
    let mut line = format!("{case} len={} fnv={:016x}", bytes.len(), fnv1a64(&bytes));
    if decoded {
        let decode = |threads: u64| {
            zfp(threads)
                .decompress(&bytes, data.dtype(), data.dims())
                .unwrap()
                .to_le_bytes()
        };
        let out = decode(THREADS[0]);
        for &threads in &THREADS[1..] {
            assert!(
                decode(threads) == out,
                "{case}: nthreads={threads} changed the decoded values"
            );
        }
        line.push_str(&format!(" out={:016x}", fnv1a64(&out)));
    }
    line + "\n"
}

fn typed(dims: &[usize], values: &[f64], f64_input: bool) -> Data {
    if f64_input {
        Data::from_f64(dims.to_vec(), values.to_vec())
    } else {
        Data::from_f32(dims.to_vec(), values.iter().map(|&v| v as f32).collect())
    }
}

fn lines(shapes: &[&[usize]], decoded: bool) -> String {
    let modes = modes();
    let mut out = String::new();
    for dims in shapes {
        let n: usize = dims.iter().product();
        let values: Vec<f64> = (0..n).map(value).collect();
        for f64_input in [false, true] {
            let data = typed(dims, &values, f64_input);
            for (m, mode) in modes.iter().enumerate() {
                let case = format!("{dims:?}{} mode{m}", if f64_input { "f64" } else { "f32" });
                out.push_str(&line(&case, &data, mode, decoded));
            }
        }
    }
    out
}

/// What the shape × mode grid does not reach: a range-relative bound, a
/// field whose blocks are almost all the two-bit zero tag, and raw-escape
/// blocks scattered through coded ones — each longer than one chunk.
fn special_lines() -> String {
    let mut out = String::new();
    let accuracy = Options::new().with("pressio:abs", 1e-4);
    for f64_input in [false, true] {
        let ty = if f64_input { "f64" } else { "f32" };
        let dims: &[usize] = &[37, 29, 21];
        let n: usize = dims.iter().product();
        let smooth: Vec<f64> = (0..n).map(value).collect();
        let rel = Options::new().with("pressio:rel", 1e-3);
        out.push_str(&line(
            &format!("rel {ty}"),
            &typed(dims, &smooth, f64_input),
            &rel,
            true,
        ));

        let mut salted = smooth.clone();
        for (i, v) in salted.iter_mut().enumerate() {
            match i % 1499 {
                0 => *v = f64::NAN,
                500 => *v = f64::INFINITY,
                1000 => *v = f64::NEG_INFINITY,
                _ => {}
            }
        }
        let salted = typed(dims, &salted, f64_input);
        out.push_str(&line(&format!("salted {ty}"), &salted, &accuracy, true));
        let rate = Options::new()
            .with("zfp:mode", "rate")
            .with("zfp:rate", 4.0);
        out.push_str(&line(&format!("salted rate {ty}"), &salted, &rate, true));

        let dims: &[usize] = &[64, 64, 16];
        let n: usize = dims.iter().product();
        // a few short bursts in a field of exact zeros
        let sparse: Vec<f64> = (0..n)
            .map(|i| if i % 4099 < 7 { value(i) } else { 0.0 })
            .collect();
        out.push_str(&line(
            &format!("sparse {ty}"),
            &typed(dims, &sparse, f64_input),
            &accuracy,
            true,
        ));
    }
    out
}

fn check(lines: &str, golden: u64) {
    if std::env::var_os("STREAM_GOLDEN_DUMP").is_some() {
        print!("{lines}");
    }
    let digest = fnv1a64(lines.as_bytes());
    assert_eq!(
        digest, golden,
        "zfp streams differ from the parent's: digest is now {digest:#018x}"
    );
}

const GOLDEN: u64 = 0xd59f376bfc692b85;

#[test]
fn every_stream_matches_the_digest_taken_at_the_parent_commit() {
    // edges that are not multiples of 4 exercise the padded partial blocks
    check(
        &lines(
            &[&[257], &[33, 21], &[19, 13, 9], &[9, 7, 5, 3], &[64, 32]],
            false,
        ),
        GOLDEN,
    );
}

const GOLDEN_MULTI_CHUNK: u64 = 0xffa7b1d25a4c672d;

#[test]
fn multi_chunk_streams_match_the_digest_taken_at_the_parent_commit() {
    // 275, 306, 480 and 1 024 blocks: two to four chunks each; this group
    // pins the decoded values too
    let mut lines = lines(&[&[1100], &[70, 66], &[37, 29, 21], &[64, 64, 16]], true);
    lines.push_str(&special_lines());
    check(&lines, GOLDEN_MULTI_CHUNK);
}
