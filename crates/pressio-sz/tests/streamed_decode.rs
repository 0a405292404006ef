//! `SzCompressor::decompress` of a Lorenzo stream decodes its Huffman shards
//! a window at a time and reads its escapes from the stream's bytes as the
//! sweep reaches them; `codec::parse_par` + `codec::reconstruct_par` decode
//! every symbol and escape first. The two are held to the same answer: the
//! same bits, or `CorruptStream` from both, at 1 and 3 threads — over
//! shapes whose planes and rows straddle the 32 768-symbol shards, and over
//! every truncation and byte flip of a small corpus.

use pressio_core::{Compressor, Data, Dtype, Error, Options};
use pressio_sz::codec::{parse_par, reconstruct_par};
use pressio_sz::SzCompressor;
use proptest::prelude::*;

fn lorenzo(threads: u64) -> SzCompressor {
    let mut sz = SzCompressor::new();
    sz.set_options(
        &Options::new()
            .with("sz3:predictor", "lorenzo")
            .with("pressio:abs", 1e-3)
            .with("pressio:nthreads", threads),
    )
    .unwrap();
    sz
}

/// A smooth field with a spike every `spike` elements (an escape each) and
/// a NaN and an infinity, which go through verbatim; `scale` 0 makes the
/// field sparse, all zeros between the spikes.
fn field(dims: &[usize], f32_input: bool, spike: usize, scale: f64) -> Data {
    let n: usize = dims.iter().product();
    let mut values: Vec<f64> = (0..n)
        .map(|i| match i % spike {
            0 => 1e3 + i as f64,
            _ => scale * ((i as f64 * 0.013).sin() + (i as f64 * 0.0007).cos()),
        })
        .collect();
    if n > 3 {
        values[n / 3] = f64::NAN;
        values[n / 2] = f64::INFINITY;
    }
    match f32_input {
        true => Data::from_f32(dims.to_vec(), values.iter().map(|&v| v as f32).collect()),
        false => Data::from_f64(dims.to_vec(), values),
    }
}

fn bits(data: &Data) -> Vec<u64> {
    match data.dtype() {
        Dtype::F32 => data
            .as_f32()
            .unwrap()
            .iter()
            .map(|v| v.to_bits() as u64)
            .collect(),
        _ => data.as_f64().unwrap().iter().map(|v| v.to_bits()).collect(),
    }
}

/// Decode `bytes` both ways at `threads` and hold them to one answer.
/// Whether `bytes` is a Lorenzo stream or not, `decompress` is asked for
/// the shape the header gives (`fallback` where it gives none).
fn agree(bytes: &[u8], threads: usize, fallback: (Dtype, &[usize]), what: &str) {
    let staged = parse_par(bytes, threads).and_then(|p| reconstruct_par(&p, threads));
    let (dtype, dims) = match parse_par(bytes, 1) {
        Ok(p) => (p.dtype, p.dims),
        Err(_) => (fallback.0, fallback.1.to_vec()),
    };
    let streamed = lorenzo(threads as u64).decompress(bytes, dtype, &dims);
    match (&streamed, &staged) {
        (Ok(s), Ok(p)) => {
            assert_eq!(s.dims(), p.dims(), "{what}");
            assert!(bits(s) == bits(p), "{what}: decoded bits differ");
        }
        (Err(Error::CorruptStream(_)), Err(Error::CorruptStream(_))) => {}
        _ => panic!(
            "{what} at {threads} threads: streamed {:?}, staged {:?}",
            streamed.as_ref().map(|d| d.dims().to_vec()),
            staged.as_ref().map(|d| d.dims().to_vec()),
        ),
    }
}

/// Dims of rank `rank` whose product is near `n`, the fastest axis `nx`.
fn shape(rank: usize, nx: usize, n: usize) -> Vec<usize> {
    let rest = |inner: usize| n.div_ceil(nx * inner).max(1);
    match rank {
        1 => vec![n],
        2 => vec![nx, rest(1)],
        3 => vec![nx, 5, rest(5)],
        _ => vec![nx, 3, 4, rest(12)],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn streamed_decode_is_the_staged_decode(
        shards in 1usize..=2,
        offset in 0usize..7,
        rank in 1usize..=4,
        nx in prop_oneof![1usize..8, Just(8usize), Just(13usize), Just(64usize)],
        f32_input in any::<bool>(),
        spike in 50usize..400,
    ) {
        // element counts 3 either side of a whole number of shards
        let n = shards * 32_768 + offset - 3;
        let dims = shape(rank, nx, n);
        let data = field(&dims, f32_input, spike, 1.0);
        let bytes = lorenzo(1).compress(&data).unwrap();
        prop_assert_eq!(&lorenzo(3).compress(&data).unwrap(), &bytes);
        let escapes = parse_par(&bytes, 1).unwrap().unpredictable.len();
        prop_assert!(escapes > 0);
        for threads in [1, 3] {
            agree(&bytes, threads, (data.dtype(), &dims), &format!("{dims:?}"));
            let decoded = lorenzo(threads as u64)
                .decompress(&bytes, data.dtype(), &dims)
                .unwrap();
            prop_assert_eq!(decoded.dims(), &dims[..]);
        }
    }
}

/// Small Lorenzo streams, all with escapes: a sparse one of two shards
/// behind LZSS (rows of five), a dense `f64` one and a rank-4 `f32` one.
fn corpus() -> Vec<(Vec<u8>, Dtype, Vec<usize>)> {
    [
        (vec![5, 6_600], true, 0.0, 4_001),
        (vec![6, 7, 9], false, 1.0, 61),
        (vec![3, 4, 5, 6], true, 1.0, 61),
    ]
    .into_iter()
    .map(|(dims, f32_input, scale, spike)| {
        let data = field(&dims, f32_input, spike, scale);
        (lorenzo(1).compress(&data).unwrap(), data.dtype(), dims)
    })
    .collect()
}

#[test]
fn every_truncation_and_byte_flip_decodes_alike_both_ways() {
    for (bytes, dtype, dims) in corpus() {
        for threads in [1, 3] {
            agree(&bytes, threads, (dtype, &dims), "intact");
            for cut in 0..bytes.len() {
                agree(
                    &bytes[..cut],
                    threads,
                    (dtype, &dims),
                    &format!("cut {cut}"),
                );
            }
            for at in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[at] ^= 0x5a;
                agree(&flipped, threads, (dtype, &dims), &format!("flip at {at}"));
            }
        }
    }
}
