//! Golden digests of `SzCompressor::compress`, taken at the commit *before*
//! the lossless stage moved onto dense tables and 64-bit words and LZSS
//! moved behind a trial: the rebuilt Huffman coder, the rebuilt match finder
//! and the gate must reproduce every compressed stream byte for byte — on
//! dense and sparse Hurricane fields, every predictor, three bounds, ranks
//! 1–4, both dtypes, buffers salted with NaN/±inf, Huffman payloads on both
//! sides of the trial's 64 KiB threshold, and at any thread count.
//!
//! The `band` group was taken one commit later, before the Lorenzo loops
//! became a sweep over eight rows at a time: shapes whose rows are one
//! short of, exactly, and one past a band's width, with no whole band, one
//! or two with leftover rows, with and without a plane below.
//!
//! The `auto`, `nonfinite` and `band` digests were taken again when `auto`
//! began to choose from an estimate instead of four trial encodes: 50 of the
//! 248 `auto` lines moved (40 from `interp`, 10 from `hybrid`), each to the
//! same case's `lorenzo` line, and no other line did. The `auto` and `band`
//! digests were taken again when the estimate began to count the
//! code-length table once per stream, not once per sample: 10 `auto` lines
//! moved — in `auto` 3 from `lorenzo` to `interp` and 1 from `interp` to
//! `lorenzo`, in `band` 6 to `lorenzo` — each to the same case's line for
//! the predictor it chose, and no other line did. What `auto` owes the
//! format is the property at the end of this file.
//!
//! A digest is FNV-1a over one line per case (`case len fnv huff backend`);
//! on a mismatch the test prints the digest it computed, and
//! `STREAM_GOLDEN_DUMP=1` prints the lines themselves.

use pressio_core::hash::fnv1a64;
use pressio_core::{Compressor, Data, Options};
use pressio_dataset::hurricane::{Hurricane, FIELDS};
use pressio_lossless::{huffman, lzss};
use pressio_sz::{codec, SzCompressor};
use proptest::prelude::*;
use std::fmt::Write;

const PREDICTORS: [&str; 5] = ["auto", "lorenzo", "regression", "interp", "hybrid"];
const BOUNDS: [f64; 3] = [1e-6, 1e-4, 1e-2];
/// `pressio:nthreads`: sequential, four pool threads, and 0 = whatever
/// `PRESSIO_THREADS` resolves to (the CI parity job sets it to 2).
const THREADS: [u64; 3] = [1, 4, 0];
fn sz(predictor: &str, abs: f64, threads: u64) -> SzCompressor {
    let mut sz = SzCompressor::new();
    sz.set_options(
        &Options::new()
            .with("sz3:predictor", predictor)
            .with("pressio:abs", abs)
            .with("pressio:nthreads", threads),
    )
    .unwrap();
    sz
}

fn field(name: &str, [nx, ny, nz]: [usize; 3]) -> Vec<f32> {
    let data = Hurricane::with_dims(nx, ny, nz, 1).generate(name, 0);
    data.as_f32().unwrap().to_vec()
}

/// `values` under `dims` as f32, or widened to f64 and nudged off the f32
/// grid so the f64 path is not handed f32-representable values only.
fn shaped(values: &[f32], dims: &[usize], f64_input: bool) -> Data {
    assert_eq!(values.len(), dims.iter().product::<usize>());
    if f64_input {
        let wide = values.iter().map(|&v| v as f64 * (1.0 + 1e-9)).collect();
        Data::from_f64(dims.to_vec(), wide)
    } else {
        Data::from_f32(dims.to_vec(), values.to_vec())
    }
}

/// Every kind of value the quantizer's escape path exists for.
fn salt(values: &mut [f32]) {
    let n = values.len();
    values[1] = f32::NAN;
    values[n / 3] = f32::INFINITY;
    values[n / 2] = f32::NEG_INFINITY;
    values[n / 2 + 1] = -0.0;
    values[n - 1] = f32::NAN;
}

/// Where a stream's lossless stage ended up: the length of its Huffman
/// payload and the backend byte (2 = Huffman only, 3 = LZSS over it).
fn lossless_stage(bytes: &[u8]) -> (usize, u8) {
    let parsed = codec::parse_par(bytes, 1).expect("a stream the compressor wrote parses");
    let huff = huffman::compress_symbols_sharded(&parsed.symbols, 1);
    let backend = if bytes.ends_with(&huff) { 2 } else { 3 };
    (huff.len(), backend)
}

/// Compress at every thread setting, hold them all to the same bytes, and
/// describe those bytes in one line.
fn line(case: &str, data: &Data, predictor: &str, abs: f64) -> String {
    let bytes = sz(predictor, abs, THREADS[0]).compress(data).unwrap();
    for threads in &THREADS[1..] {
        assert!(
            sz(predictor, abs, *threads).compress(data).unwrap() == bytes,
            "{case} {predictor} {abs:e}: nthreads={threads} changed the stream"
        );
    }
    let (huff, backend) = lossless_stage(&bytes);
    format!(
        "{case} {predictor} {abs:e} len={} fnv={:016x} huff={huff} backend={backend}\n",
        bytes.len(),
        fnv1a64(&bytes)
    )
}

/// Dense + sparse fields × ranks 1–4 × f32/f64 × three bounds under one
/// predictor: every payload here is below the trial threshold.
fn predictor_lines(predictor: &str) -> String {
    const SHAPES: [&[usize]; 4] = [&[5760], &[96, 60], &[24, 20, 12], &[12, 10, 8, 6]];
    let mut out = String::new();
    for name in ["P", "QCLOUD"] {
        let values = field(name, [24, 20, 12]);
        for dims in SHAPES {
            for f64_input in [false, true] {
                let data = shaped(&values, dims, f64_input);
                let case = format!("{name}{dims:?}{}", if f64_input { "f64" } else { "f32" });
                for abs in BOUNDS {
                    out.push_str(&line(&case, &data, predictor, abs));
                }
            }
        }
    }
    out
}

/// Buffers salted with NaN, ±inf and −0.0: the escape symbol 0 and the
/// verbatim side stream are in every one of these streams.
fn nonfinite_lines() -> String {
    let mut out = String::new();
    for name in ["U", "PRECIP"] {
        let mut values = field(name, [20, 16, 9]);
        salt(&mut values);
        for (dims, f64_input) in [(&[20usize, 16, 9][..], false), (&[2880][..], true)] {
            let data = shaped(&values, dims, f64_input);
            let case = format!("{name}{dims:?}+nonfinite");
            for predictor in PREDICTORS {
                out.push_str(&line(&case, &data, predictor, 1e-4));
            }
        }
    }
    out
}

/// Huffman payloads above the trial threshold, dense (LZSS would expand
/// them) and sparse (LZSS shrinks them by half or more).
fn large_lines() -> String {
    let mut out = String::new();
    for (name, dims, abs) in [
        ("P", [64, 64, 32], 1e-4),
        ("TC", [64, 64, 32], 1e-6),
        ("QCLOUD", [128, 128, 64], 1e-4),
        ("PRECIP", [128, 128, 64], 1e-6),
    ] {
        let data = shaped(&field(name, dims), &dims, false);
        out.push_str(&line(&format!("{name}{dims:?}"), &data, "auto", abs));
    }
    out
}

/// Lorenzo on shapes that straddle the sweep's band: `nx` around its width,
/// `ny` around its height (17 = two bands and a leftover row), ranks 2 and
/// 3, both dtypes, dense and sparse, clean and salted.
fn band_lines() -> String {
    let mut out = String::new();
    for name in ["P", "PRECIP"] {
        for nx in [7, 8, 9] {
            for ny in [7, 8, 9, 17] {
                let mut values = field(name, [nx, ny, 3]);
                for salted in [false, true] {
                    if salted {
                        salt(&mut values);
                    }
                    for (dims, f64_input) in [
                        (&[nx, ny, 3][..], false),
                        (&[nx, ny, 3][..], true),
                        (&[nx, ny * 3][..], false),
                        (&[nx, ny * 3][..], true),
                    ] {
                        let data = shaped(&values, dims, f64_input);
                        let case = format!(
                            "{name}{dims:?}{}{}",
                            if f64_input { "f64" } else { "f32" },
                            if salted { "+nonfinite" } else { "" }
                        );
                        for predictor in ["lorenzo", "auto"] {
                            out.push_str(&line(&case, &data, predictor, 1e-4));
                        }
                    }
                }
            }
        }
    }
    out
}

const GOLDEN: [(&str, u64); 8] = [
    ("auto", 0xff00467a1918ea5e),
    ("lorenzo", 0x6e7ca710a0e39850),
    ("regression", 0xf6cd72dd30e652ce),
    ("interp", 0x591de45197dafb33),
    ("hybrid", 0x944be684224f1584),
    ("nonfinite", 0x7a4a9ca9bd741945),
    ("large", 0x596732a763bf7534),
    ("band", 0x56bbdab80d910f33),
];

#[test]
fn every_stream_matches_the_digest_taken_at_the_parent_commit() {
    let mut wrong = String::new();
    let mut all = String::new();
    for (name, golden) in GOLDEN {
        let lines = match name {
            "nonfinite" => nonfinite_lines(),
            "large" => large_lines(),
            "band" => band_lines(),
            predictor => predictor_lines(predictor),
        };
        if std::env::var_os("STREAM_GOLDEN_DUMP").is_some() {
            print!("{lines}");
        }
        let digest = fnv1a64(lines.as_bytes());
        if digest != golden {
            writeln!(wrong, "    (\"{name}\", {digest:#018x}),").unwrap();
        }
        all.push_str(&lines);
    }
    assert!(
        wrong.is_empty(),
        "compressed streams differ from the parent's:\n{wrong}"
    );
    // the cases sit on both sides of the trial threshold, with both outcomes
    // on each side
    let has = |above: bool, backend: u8| {
        all.lines().any(|l| {
            let huff = l.split("huff=").nth(1).unwrap().split(' ').next().unwrap();
            let huff: usize = huff.parse().unwrap();
            (huff > codec::TRIAL_WHOLE) == above && l.ends_with(&format!("backend={backend}"))
        })
    };
    for (above, backend) in [(false, 2), (false, 3), (true, 2), (true, 3)] {
        assert!(
            has(above, backend),
            "no case with above={above} backend={backend}"
        );
    }
}

/// The 91 configurations the LZSS payoff was measured on: all 13 fields ×
/// seven (size, bound) pairs. Debug builds stop at 64×64×16 — the three
/// larger sizes take a minute unoptimised; CI runs this test in release.
fn gate_configs() -> Vec<([usize; 3], f64)> {
    let mut configs = vec![
        ([16, 16, 8], 1e-4),
        ([32, 32, 16], 1e-6),
        ([32, 32, 16], 1e-4),
        ([64, 64, 16], 1e-4),
    ];
    if !cfg!(debug_assertions) {
        configs.extend([
            ([64, 64, 64], 1e-4),
            ([64, 64, 64], 1e-2),
            ([128, 128, 64], 1e-4),
        ]);
    }
    configs
}

/// The trial's decision against the exhaustive one (run LZSS over the whole
/// payload, keep it if smaller) on every measured configuration. Expected:
/// no disagreement. A disagreement is reported with its byte cost.
#[test]
fn the_lzss_trial_agrees_with_running_both_and_keeping_the_smaller() {
    let mut disagreements = String::new();
    let mut checked = 0;
    for (dims, abs) in gate_configs() {
        for name in FIELDS {
            let data = shaped(&field(name, dims), &dims, false);
            let bytes = sz("auto", abs, 1).compress(&data).unwrap();
            let parsed = codec::parse_par(&bytes, 1).unwrap();
            let huff = huffman::compress_symbols_sharded(&parsed.symbols, 1);
            let dict = lzss::compress(&huff);
            let exhaustive = dict.len() < huff.len();
            let kept = !bytes.ends_with(&huff);
            if kept != exhaustive {
                writeln!(
                    disagreements,
                    "{name}{dims:?} {abs:e}: trial kept={kept}, exhaustive kept={exhaustive}, \
                     huffman {} B, lzss {} B, cost {} B",
                    huff.len(),
                    dict.len(),
                    huff.len().abs_diff(dict.len())
                )
                .unwrap();
            }
            checked += 1;
        }
    }
    assert_eq!(checked, gate_configs().len() * FIELDS.len());
    assert!(disagreements.is_empty(), "{disagreements}");
}

/// Where the trial is wrong, by construction. "Half noise, half zeros" as the
/// coder sees it: 800 000 symbols of noise (9-bit codes) around one run of
/// the zero-residual symbol (1-bit codes), so the Huffman payload is ~1 MB of
/// noise LZSS expands by an eighth and one stretch of zero bytes it all but
/// removes. The samples sit a seventh of the payload apart.
///
/// * A run that a sample lands in makes the trial say yes. If the run is
///   under a ninth of the payload the full pass comes out larger and is
///   discarded: same bytes as running both, one wasted pass.
/// * A run *between* two samples — it has to be shorter than their spacing —
///   makes the trial say no, and what LZSS would have saved is forgone:
///   1.7 % of the payload here, and never more than (9/8)/7 − 1/8 = 3.6 % for
///   one hidden run.
#[test]
fn a_wrong_trial_costs_a_wasted_pass_or_a_few_percent() {
    const NOISE: usize = 800_000;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut noise = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        32_768 + 1 + (state >> 40) as u32 % 256
    };
    // `before` noise symbols, the run, the rest of the noise
    let mut stream = |before: usize, run: usize| {
        let mut symbols: Vec<u32> = (0..before).map(|_| noise()).collect();
        symbols.extend(std::iter::repeat_n(32_768, run));
        symbols.extend((before..NOISE).map(|_| noise()));
        codec::QuantizedStream {
            symbols,
            unpredictable: vec![],
            coefficients: vec![],
            block_modes: vec![],
            reconstruction: vec![],
        }
    };
    // (whether the stream carries LZSS output, Huffman bytes, LZSS bytes)
    let outcome = |qs: &codec::QuantizedStream| {
        let dims = [qs.symbols.len()];
        let predictor = codec::Predictor::Lorenzo;
        let bytes = codec::assemble_par(pressio_core::Dtype::F32, &dims, 1e-4, predictor, 6, qs, 1);
        assert!(codec::parse_par(&bytes, 1).unwrap().symbols == qs.symbols);
        let huff = huffman::compress_symbols_sharded(&qs.symbols, 1);
        (
            !bytes.ends_with(&huff),
            huff.len(),
            lzss::compress(&huff).len(),
        )
    };

    // the first sample lands in a short run: tried, lost, discarded
    let (used_lzss, huff, dict) = outcome(&stream(0, 1 << 19));
    assert!(dict > huff, "LZSS must lose here: {dict} vs {huff}");
    assert!(!used_lzss);

    // a longer run, centred between the fourth and fifth samples
    let run = 1 << 20;
    let payload = huffman::compress_symbols_sharded(&stream(0, run).symbols, 1).len();
    let stride = (payload - codec::TRIAL_BLOCK) / (codec::TRIAL_BLOCKS - 1);
    let header = payload - (NOISE * 9 + run).div_ceil(8);
    let start_byte = 3 * stride + codec::TRIAL_BLOCK + (stride - codec::TRIAL_BLOCK - run / 8) / 2;
    let (used_lzss, huff, dict) = outcome(&stream((start_byte - header) * 8 / 9, run));
    assert!(dict < huff, "LZSS must win here: {dict} vs {huff}");
    assert!(!used_lzss, "the trial must have missed the run");
    let forgone = huff - dict;
    assert!(forgone * 50 < huff, "forgone {forgone} B of {huff} B");
}

// `auto` is a choice, not a format: what it returns is, byte for byte, what
// `sz3:predictor=<name>` returns for the name in the stream's own header. So
// the `auto` lines above move when the choice does and say nothing about the
// format; the fixed-predictor lines are the format's.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn auto_returns_the_bytes_of_the_predictor_it_names(
        field_pick in 0usize..FIELDS.len(),
        (nx, ny, a, b) in (2usize..40, 1usize..12, 1usize..7, 1usize..4),
        rank in 1usize..5,
        f64_input in any::<bool>(),
        salted in any::<bool>(),
        abs_pick in 0usize..BOUNDS.len(),
    ) {
        let mut values = field(FIELDS[field_pick], [nx, ny, a * b]);
        if salted && values.len() >= 4 {
            salt(&mut values);
        }
        let dims = match rank {
            1 => vec![nx * ny * a * b],
            2 => vec![nx, ny * a * b],
            3 => vec![nx, ny, a * b],
            _ => vec![nx, ny, a, b],
        };
        let data = shaped(&values, &dims, f64_input);
        let abs = BOUNDS[abs_pick];
        let bytes = sz("auto", abs, 1).compress(&data).unwrap();
        let chosen = codec::parse_par(&bytes, 1).unwrap().predictor.name();
        prop_assert!(
            sz(chosen, abs, 1).compress(&data).unwrap() == bytes,
            "{}{dims:?} {abs:e}: auto chose {chosen} and returned other bytes",
            FIELDS[field_pick]
        );
    }
}
