//! Fuzz the SZ container decoder: `codec::parse` (and the parallel
//! decode stack behind `reconstruct`) must reject corrupt streams with an
//! error — never a panic, never an unguarded allocation — for any
//! mutation of a valid container. Cases derive deterministically from a
//! seed (see `pressio_core::fuzz`); `PRESSIO_FUZZ_ITERS` deepens nightly
//! runs.

use pressio_core::fuzz::Fuzzer;
use pressio_core::{Compressor, Data, Dtype, Error, Options};
use pressio_sz::SzCompressor;

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

/// Valid containers across every predictor, both dtypes, and several
/// ranks, so mutations start from streams that exercise all header and
/// payload branches (regression coefficients, hybrid mode bitmaps,
/// sharded Huffman payloads).
fn corpus() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for predictor in ["lorenzo", "regression", "interp", "hybrid"] {
        for (dims, f32_input) in [
            (vec![257usize], false),
            (vec![24, 24], true),
            (vec![8, 8, 6], false),
        ] {
            let n: usize = dims.iter().product();
            let values = synth(n, 42);
            let data = if f32_input {
                Data::from_f32(dims, values.into_iter().map(|v| v as f32).collect())
            } else {
                Data::from_f64(dims, values)
            };
            let mut sz = SzCompressor::new();
            sz.set_options(
                &Options::new()
                    .with("sz3:predictor", predictor)
                    .with("pressio:abs", 1e-3),
            )
            .unwrap();
            out.push(sz.compress(&data).unwrap());
        }
    }
    out
}

/// Parse allows headers that *claim* up to 2^34 elements (real fields are
/// that large); a fuzz case that legitimately decodes that many symbols
/// cannot exist (the payload checks cap it), but keep reconstruction —
/// which allocates the full output field — to plausibly-sized streams.
const RECONSTRUCT_CAP: usize = 1 << 20;

#[test]
fn parse_and_reconstruct_never_panic_on_mutated_containers() {
    let corpus = corpus();
    Fuzzer::from_env(600).run(&corpus, |case| {
        // Ok or Err are both fine; what matters is that a corrupt stream
        // can never take the process down or trigger a huge allocation
        if let Ok(parsed) = pressio_sz::codec::parse_par(case, 1) {
            if parsed.dims.iter().product::<usize>() <= RECONSTRUCT_CAP {
                let _ = pressio_sz::codec::reconstruct_par(&parsed, 1);
            }
        }
    });
}

#[test]
fn parallel_parse_agrees_with_sequential_on_mutated_containers() {
    let corpus = corpus();
    Fuzzer::from_env(300).run(&corpus, |case| {
        // the sharded-Huffman decode path must accept/reject exactly the
        // same streams at any thread count, with identical symbols
        let seq = pressio_sz::codec::parse_par(case, 1);
        let par = pressio_sz::codec::parse_par(case, 3);
        match (seq, par) {
            (Ok(s), Ok(p)) => {
                assert_eq!(s.symbols, p.symbols, "parallel parse diverged");
                assert_eq!(s.dims, p.dims);
            }
            (Err(_), Err(_)) => {}
            (s, p) => panic!(
                "parse acceptance diverged by thread count: seq ok={} par ok={}",
                s.is_ok(),
                p.is_ok()
            ),
        }
    });
}

#[test]
fn unmutated_corpus_round_trips() {
    // sanity for the corpus itself: every seed stream is a valid
    // container whose reconstruction matches its header shape
    for bytes in corpus() {
        let parsed = pressio_sz::codec::parse_par(&bytes, 1).expect("corpus stream parses");
        let data =
            pressio_sz::codec::reconstruct_par(&parsed, 1).expect("corpus stream reconstructs");
        assert_eq!(data.dims(), parsed.dims.as_slice());
    }
}

#[test]
fn a_header_claiming_2_pow_34_elements_is_refused_before_the_output_is_made() {
    // a rank-1 stream of 257 values whose header claims 2^34: its 8-byte
    // extent sits after magic, version, dtype, predictor, block and rank.
    // Decoding it would take a 128 GiB output; the claim is refused on the
    // symbol count the Huffman stream holds, before anything is sized by it
    let mut sz = SzCompressor::new();
    sz.set_options(
        &Options::new()
            .with("sz3:predictor", "lorenzo")
            .with("pressio:abs", 1e-3),
    )
    .unwrap();
    let data = Data::from_f64(vec![257], synth(257, 7));
    let mut bytes = sz.compress(&data).unwrap();
    assert_eq!(bytes[8], 1, "rank");
    bytes[9..17].copy_from_slice(&(1u64 << 34).to_le_bytes());
    let claim = [1usize << 34];
    for refused in [
        sz.decompress(&bytes, Dtype::F64, &claim).map(drop),
        pressio_sz::codec::parse_par(&bytes, 1).map(drop),
    ] {
        match refused {
            Err(Error::CorruptStream(why)) => assert!(why.contains("element count"), "{why}"),
            other => panic!("a 2^34-element claim over {} B: {other:?}", bytes.len()),
        }
    }
}
