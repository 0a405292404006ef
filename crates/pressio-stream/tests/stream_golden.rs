//! Golden digests of PSTF streams, taken at the commit *before* the encoder
//! stopped decompressing its own chunks: the reconstruction SZ keeps while
//! it quantizes, the one-pass checksums and the contiguous carried slice
//! must reproduce every framed byte and every decoded value bit for bit.
//!
//! The cases cover SZ under each predictor name and ZFP; chained and
//! independent chunks; one outer slice per chunk and three, with a ragged
//! last chunk (seven timesteps); f32 and f64 nudged off the f32 grid; a
//! clean field and one salted with NaN, ±inf and −0.0; rank-2 and rank-4
//! inner shapes.
//!
//! A digest is FNV-1a over one line per case (`case framed=len fnv=…
//! decoded=…`); on a mismatch the test prints the digest it computed, and
//! `STREAM_GOLDEN_DUMP=1` prints the lines themselves.

use pressio_core::hash::fnv1a64;
use pressio_core::{Data, Dtype, Options};
use pressio_dataset::hurricane::Hurricane;
use pressio_stream::{compress_stream, decompress_stream, StreamHeader};
use std::fmt::Write;

/// Timesteps per stack: two chunks of three and a ragged one of one.
const TIMESTEPS: usize = 7;
/// One timestep of the generated field, fastest first.
const SLICE: [usize; 3] = [12, 10, 6];
/// The slice's elements read as rank-2 and as rank-4 inner shapes.
const INNER: [&[usize]; 2] = [&[12, 60], &[12, 10, 3, 2]];

/// A bound most values quantize under and one they mostly escape at.
const BOUNDS: [f64; 2] = [1e-2, 1e-4];

/// `(codec, sz3:predictor)`: SZ under every predictor name, and ZFP.
const CODECS: [(&str, Option<&str>); 6] = [
    ("sz3", Some("auto")),
    ("sz3", Some("lorenzo")),
    ("sz3", Some("regression")),
    ("sz3", Some("interp")),
    ("sz3", Some("hybrid")),
    ("zfp", None),
];

/// `name`'s timesteps one after another, salted where asked.
fn stack(name: &str, salted: bool) -> Vec<f32> {
    let [nx, ny, nz] = SLICE;
    let source = Hurricane::with_dims(nx, ny, nz, TIMESTEPS);
    let mut values: Vec<f32> = (0..TIMESTEPS)
        .flat_map(|t| source.generate(name, t).as_f32().unwrap().to_vec())
        .collect();
    if salted {
        let n = values.len();
        values[1] = f32::NAN;
        values[n / 3] = f32::INFINITY;
        values[n / 2] = f32::NEG_INFINITY;
        values[n / 2 + 1] = -0.0;
        values[n - 1] = f32::NAN;
    }
    values
}

/// `values` under `dims` as f32, or widened to f64 and nudged off the f32
/// grid so the f64 path is not handed f32-representable values only.
fn shaped(values: &[f32], dims: &[usize], dtype: Dtype) -> Data {
    match dtype {
        Dtype::F32 => Data::from_f32(dims.to_vec(), values.to_vec()),
        _ => Data::from_f64(
            dims.to_vec(),
            values.iter().map(|&v| v as f64 * (1.0 + 1e-9)).collect(),
        ),
    }
}

/// `(chained, chunk_outer, pressio:abs)` of every stream cut from one buffer.
fn cases() -> impl Iterator<Item = (bool, usize, f64)> {
    [false, true].into_iter().flat_map(|chained| {
        [1, 3]
            .into_iter()
            .flat_map(move |chunk_outer| BOUNDS.map(|abs| (chained, chunk_outer, abs)))
    })
}

/// Every case of one codec configuration, one line each.
fn codec_lines(codec: &str, predictor: Option<&str>) -> String {
    let mut out = String::new();
    for (name, salted) in [("U", false), ("QCLOUD", true)] {
        let values = stack(name, salted);
        for inner in INNER {
            let mut dims = inner.to_vec();
            dims.push(TIMESTEPS);
            for dtype in [Dtype::F32, Dtype::F64] {
                let data = shaped(&values, &dims, dtype);
                for (chained, chunk_outer, abs) in cases() {
                    let mut codec_options = Options::new().with("pressio:abs", abs);
                    if let Some(p) = predictor {
                        codec_options.set("sz3:predictor", p);
                    }
                    let header = StreamHeader {
                        codec: codec.into(),
                        dtype,
                        inner_dims: inner.to_vec(),
                        chunk_outer,
                        chained,
                        codec_options,
                    };
                    let framed = compress_stream(&data, header).unwrap();
                    let decoded = decompress_stream(&framed).unwrap();
                    assert_eq!(decoded.dims(), data.dims());
                    writeln!(
                        out,
                        "{name}{} {dims:?} {} {} chunk_outer={chunk_outer} {abs:e} \
                             framed={} fnv={:016x} decoded={:016x}",
                        if salted { "+nonfinite" } else { "" },
                        dtype.name(),
                        if chained { "chained" } else { "independent" },
                        framed.len(),
                        fnv1a64(&framed),
                        fnv1a64(&decoded.to_le_bytes()),
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

/// `sz3/auto` was re-taken once a chained stream carried `auto`'s choice
/// across its residual chunks. Two chained lines of the 32 moved, both
/// 720-element `U` chunks at 1e-4 (per-chunk tags before → after):
/// f32 `chunk_outer=3` R R L → R R R (+29 B), f64 `chunk_outer=1`
/// L I L L I I L → L I L L L I L (+111 B). The other 382 lines, every
/// independent stream among them, are as they were.
const GOLDEN: [(&str, u64); 6] = [
    ("sz3/auto", 0xffd2e48aef728047),
    ("sz3/lorenzo", 0x45bcb6ca333a6565),
    ("sz3/regression", 0xd15bcb0c8cafd40a),
    ("sz3/interp", 0x81132db8f3692e61),
    ("sz3/hybrid", 0x91b8c2d0ad6c67d2),
    ("zfp", 0x5d75142b09752baf),
];

#[test]
fn every_stream_matches_the_digest_taken_at_the_parent_commit() {
    let mut wrong = String::new();
    for ((codec, predictor), (name, golden)) in CODECS.into_iter().zip(GOLDEN) {
        let lines = codec_lines(codec, predictor);
        if std::env::var_os("STREAM_GOLDEN_DUMP").is_some() {
            print!("{lines}");
        }
        let digest = fnv1a64(lines.as_bytes());
        if digest != golden {
            writeln!(wrong, "    (\"{name}\", {digest:#018x}),").unwrap();
        }
    }
    assert!(
        wrong.is_empty(),
        "PSTF streams differ from the parent's:\n{wrong}"
    );
}
