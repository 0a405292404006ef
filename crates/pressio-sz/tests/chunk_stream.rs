//! Streaming chunk entry points (`Compressor::{encode,decode}_chunk`), over
//! both codecs: independent chunks are byte-identical to whole-buffer
//! compression of the same chunk, chained (temporal-delta) mode preserves
//! the absolute error bound across carried state, and SZ's own encode hands
//! back exactly what decoding its bytes would.

use pressio_core::chunking::{
    concat_outer, encode_chunk_with, last_outer_slice, slice_outer, OuterChunks,
};
use pressio_core::{Compressor, Data, Options};
use pressio_dataset::hurricane::{Hurricane, FIELDS};
use pressio_sz::SzCompressor;
use pressio_zfp::ZfpCompressor;
use proptest::prelude::*;

/// Both codecs at `abs`.
fn codecs(abs: f64) -> [Box<dyn Compressor>; 2] {
    let mut codecs: [Box<dyn Compressor>; 2] = [
        Box::new(SzCompressor::new()),
        Box::new(ZfpCompressor::new()),
    ];
    for codec in &mut codecs {
        codec
            .set_options(&Options::new().with("pressio:abs", abs))
            .unwrap();
    }
    codecs
}

/// Correlated multi-timestep field: smooth base + slow temporal drift.
fn correlated_field(nx: usize, ny: usize, timesteps: usize) -> Data {
    let mut vals = Vec::with_capacity(nx * ny * timesteps);
    for t in 0..timesteps {
        let phase = t as f64 * 0.15;
        for y in 0..ny {
            for x in 0..nx {
                let fx = x as f64 / nx as f64;
                let fy = y as f64 / ny as f64;
                vals.push(
                    (fx * 6.0 + phase).sin() * (fy * 4.0).cos() + 0.3 * phase.cos() + fx * fy,
                );
            }
        }
    }
    Data::from_f64(vec![nx, ny, timesteps], vals)
}

#[test]
fn independent_chunk_encode_matches_whole_buffer_compress() {
    let abs = 1e-4;
    let data = correlated_field(12, 10, 7);
    for codec in codecs(abs) {
        let id = codec.id();
        for (start, count) in OuterChunks::new(7, 3).unwrap() {
            let chunk = slice_outer(&data, start, count).unwrap();
            let (streamed, _) = codec.encode_chunk(&chunk, None).unwrap();
            let whole = codec.compress(&chunk).unwrap();
            assert_eq!(
                streamed, whole,
                "{id}: chunk at {start} diverged from one-shot"
            );
            let dec = codec
                .decode_chunk(&streamed, chunk.dtype(), chunk.dims(), None)
                .unwrap();
            for (a, b) in chunk
                .as_f64()
                .unwrap()
                .iter()
                .zip(dec.as_f64().unwrap().iter())
            {
                assert!(
                    (a - b).abs() <= abs,
                    "{id}: bound violated: |{a} - {b}| > {abs}"
                );
            }
        }
    }
}

#[test]
fn chained_mode_preserves_abs_bound_and_state_parity() {
    let abs = 1e-3;
    let data = correlated_field(10, 8, 9);
    // residual + carried-slice addition can each round once
    let slack = abs * 1.01 + 1e-12;

    for codec in codecs(abs) {
        let id = codec.id();
        let mut enc_carried: Option<Data> = None;
        let mut dec_carried: Option<Data> = None;
        let mut decoded_chunks = Vec::new();
        for (start, count) in OuterChunks::new(9, 4).unwrap() {
            let chunk = slice_outer(&data, start, count).unwrap();
            let (comp, enc_decoded) = codec.encode_chunk(&chunk, enc_carried.as_ref()).unwrap();
            let dec = codec
                .decode_chunk(&comp, chunk.dtype(), chunk.dims(), dec_carried.as_ref())
                .unwrap();
            // encoder and decoder reconstruct bit-identical state
            assert_eq!(enc_decoded.to_le_bytes(), dec.to_le_bytes(), "{id}");
            enc_carried = Some(last_outer_slice(&enc_decoded).unwrap());
            dec_carried = Some(last_outer_slice(&dec).unwrap());
            decoded_chunks.push(dec);
        }
        let reconstructed = concat_outer(&decoded_chunks).unwrap();
        let orig = data.to_f64_vec();
        let dec = reconstructed.to_f64_vec();
        let mut worst = 0.0f64;
        for (a, b) in orig.iter().zip(dec.iter()) {
            worst = worst.max((a - b).abs());
        }
        assert!(
            worst <= slack,
            "{id}: chained abs bound violated: {worst} > {slack}"
        );
    }
}

/// `encode_chunk` as `Compressor` provides it: compress, then decompress.
fn encode_then_decode(
    codec: &SzCompressor,
    chunk: &Data,
    carried: Option<&Data>,
) -> pressio_core::Result<(Vec<u8>, Data)> {
    encode_chunk_with(chunk, carried, |payload| {
        let compressed = codec.compress(payload)?;
        let decoded = codec.decompress(&compressed, payload.dtype(), payload.dims())?;
        Ok((compressed, decoded))
    })
}

// SZ hands back the reconstruction it quantized against instead of decoding
// its own bytes. For every predictor name that must be, bit for bit, what
// the decode returns: NaN payloads, −0.0 and every escape included.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sz_encode_chunk_returns_what_decoding_its_bytes_returns(
        field_pick in 0usize..FIELDS.len(),
        (nx, ny, a, b) in (2usize..24, 1usize..10, 1usize..5, 1usize..4),
        rank in 1usize..5,
        f64_input in any::<bool>(),
        salted in any::<bool>(),
        chained in any::<bool>(),
        predictor in 0usize..5,
        abs_pick in 0usize..3,
    ) {
        let predictor = ["auto", "lorenzo", "regression", "interp", "hybrid"][predictor];
        let abs = [1e-6, 1e-4, 1e-2][abs_pick];
        let mut codec = SzCompressor::new();
        codec
            .set_options(
                &Options::new()
                    .with("sz3:predictor", predictor)
                    .with("pressio:abs", abs),
            )
            .unwrap();
        // two timesteps of one field: the second is the chunk, the first
        // (through the provided path) what a chained chunk is carried on
        let source = Hurricane::with_dims(nx, ny, a * b, 2);
        let dims = match rank {
            1 => vec![nx * ny * a * b],
            2 => vec![nx, ny * a * b],
            3 => vec![nx, ny, a * b],
            _ => vec![nx, ny, a, b],
        };
        let timestep = |t: usize| {
            let mut values = source.generate(FIELDS[field_pick], t).as_f32().unwrap().to_vec();
            if salted && values.len() >= 4 {
                let n = values.len();
                values[1] = f32::NAN;
                values[n / 3] = f32::INFINITY;
                values[n / 2] = f32::NEG_INFINITY;
                values[n - 1] = -0.0;
            }
            if f64_input {
                let wide = values.iter().map(|&v| v as f64 * (1.0 + 1e-9)).collect();
                Data::from_f64(dims.clone(), wide)
            } else {
                Data::from_f32(dims.clone(), values)
            }
        };
        let carried = chained.then(|| {
            let (_, before) = encode_then_decode(&codec, &timestep(0), None).unwrap();
            last_outer_slice(&before).unwrap()
        });
        let chunk = timestep(1);
        let (bytes, decoded) = codec.encode_chunk(&chunk, carried.as_ref()).unwrap();
        let (want_bytes, want) = encode_then_decode(&codec, &chunk, carried.as_ref()).unwrap();
        prop_assert!(bytes == want_bytes, "{predictor} {dims:?}: the bytes differ");
        prop_assert_eq!(decoded.dtype(), want.dtype());
        prop_assert_eq!(decoded.dims(), want.dims());
        prop_assert!(
            decoded.to_le_bytes() == want.to_le_bytes(),
            "{} {:?} {:e} chained={}: the decoded chunk differs from the decode",
            predictor, dims, abs, chained
        );
    }
}
