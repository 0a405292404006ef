//! Streaming chunk entry points (`Compressor::{encode,decode}_chunk`), over
//! both codecs: independent chunks are byte-identical to whole-buffer
//! compression of the same chunk, chained (temporal-delta) mode preserves
//! the absolute error bound across carried state, and SZ's own encode hands
//! back exactly what decoding its bytes would — with `auto`'s choice carried
//! across a chained stream, and kept apart for two streams on one codec.

use pressio_core::chunking::{
    concat_outer, encode_chunk_with, last_outer_slice, slice_outer, Carry, OuterChunks,
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
        let mut carry = Carry::default();
        let mut dec_carried: Option<Data> = None;
        let mut decoded_chunks = Vec::new();
        for (start, count) in OuterChunks::new(9, 4).unwrap() {
            let chunk = slice_outer(&data, start, count).unwrap();
            let (comp, enc_decoded) = codec.encode_chunk(&chunk, Some(&mut carry)).unwrap();
            let dec = codec
                .decode_chunk(&comp, chunk.dtype(), chunk.dims(), dec_carried.as_ref())
                .unwrap();
            // encoder and decoder reconstruct bit-identical state
            assert_eq!(enc_decoded.to_le_bytes(), dec.to_le_bytes(), "{id}");
            carry.slice = Some(last_outer_slice(&enc_decoded).unwrap());
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

/// `abs` and `sz3:predictor`.
fn sz(predictor: &str, abs: f64) -> SzCompressor {
    let mut codec = SzCompressor::new();
    codec
        .set_options(
            &Options::new()
                .with("sz3:predictor", predictor)
                .with("pressio:abs", abs),
        )
        .unwrap();
    codec
}

/// `encode_chunk` as `Compressor` provides it: compress, then decompress.
fn encode_then_decode(
    codec: &SzCompressor,
    chunk: &Data,
    carried: Option<&Data>,
) -> pressio_core::Result<(Vec<u8>, Data)> {
    let mut carry = Carry {
        slice: carried.cloned(),
        memo: None,
    };
    encode_chunk_with(chunk, Some(&mut carry), |payload, _| {
        let compressed = codec.compress(payload)?;
        let decoded = codec.decompress(&compressed, payload.dtype(), payload.dims())?;
        Ok((compressed, decoded))
    })
}

/// `name`'s first `timesteps` timesteps at `dims`, stacked on an outer axis.
fn stack(name: &str, [nx, ny, nz]: [usize; 3], timesteps: usize) -> Data {
    let source = Hurricane::with_dims(nx, ny, nz, timesteps);
    let values = (0..timesteps)
        .flat_map(|t| source.generate(name, t).as_f32().unwrap().to_vec())
        .collect();
    Data::from_f32(vec![nx, ny, nz, timesteps], values)
}

/// Each chunk's bytes of `data` as a chained stream of one-timestep chunks.
fn chained_stream(codec: &SzCompressor, data: &Data) -> Vec<Vec<u8>> {
    let mut carry = Carry::default();
    (0..*data.dims().last().unwrap())
        .map(|t| {
            let chunk = slice_outer(data, t, 1).unwrap();
            let (bytes, decoded) = codec.encode_chunk(&chunk, Some(&mut carry)).unwrap();
            carry.slice = Some(last_outer_slice(&decoded).unwrap());
            bytes
        })
        .collect()
}

/// What `auto` carries lives in each stream's `Carry`, not in the codec:
/// chained streams whose choices differ, their chunks interleaved through
/// one `&SzCompressor`, give the bytes each gives alone.
#[test]
fn two_streams_through_one_codec_keep_their_own_choices() {
    let codec = sz("auto", 1e-4);
    let stacks = [
        stack("P", [16, 16, 8], 13),
        stack("U", [32, 32, 16], 13),
        stack("TC", [16, 16, 8], 13),
    ];
    let alone: Vec<Vec<Vec<u8>>> = stacks.iter().map(|s| chained_stream(&codec, s)).collect();
    // the streams choose differently, so a shared anchor would show
    let tags = |stream: &[Vec<u8>]| -> Vec<_> {
        let parsed = stream
            .iter()
            .map(|b| pressio_sz::codec::parse_par(b, 1).unwrap());
        parsed.map(|p| p.predictor).collect()
    };
    assert_ne!(tags(&alone[0]), tags(&alone[1]));

    let mut carries: Vec<Carry> = stacks.iter().map(|_| Carry::default()).collect();
    let mut interleaved = vec![Vec::new(); stacks.len()];
    for t in 0..13 {
        for (i, data) in stacks.iter().enumerate() {
            let chunk = slice_outer(data, t, 1).unwrap();
            let (bytes, decoded) = codec.encode_chunk(&chunk, Some(&mut carries[i])).unwrap();
            carries[i].slice = Some(last_outer_slice(&decoded).unwrap());
            interleaved[i].push(bytes);
        }
    }
    for (i, (mixed, own)) in interleaved.iter().zip(&alone).enumerate() {
        assert!(mixed == own, "stream {i} changed when interleaved");
    }
}

// SZ hands back the reconstruction it quantized against instead of decoding
// its own bytes. For every predictor name that must be, bit for bit, what
// the decode returns: NaN payloads, −0.0 and every escape included. A
// chained stream runs three chunks: the raw first, a residual that anchors
// `auto`'s choice, and one that may carry it. Where no choice can have been
// carried (an independent chunk, a chained stream's first two) the chunk is
// what the codec's own compress-then-decompress gives, so `auto` chooses as
// on a whole buffer; the third is what `sz3:predictor=<the tag it names>`
// gives for the same payload.
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
        let codec = sz(predictor, abs);
        // three timesteps of one field: the first, alone, is the chunk of an
        // independent stream; the three are a chained stream's chunks
        let source = Hurricane::with_dims(nx, ny, a * b, 3);
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
        let mut carry = chained.then(Carry::default);
        for t in 0..if chained { 3 } else { 1 } {
            let chunk = timestep(t);
            let carried = carry.as_ref().and_then(|c| c.slice.clone());
            let (bytes, decoded) = codec.encode_chunk(&chunk, carry.as_mut()).unwrap();
            let named;
            let like = if t < 2 {
                &codec
            } else {
                let tag = pressio_sz::codec::parse_par(&bytes, 1).unwrap().predictor;
                named = sz(tag.name(), abs);
                &named
            };
            let (want_bytes, want) = encode_then_decode(like, &chunk, carried.as_ref()).unwrap();
            prop_assert!(bytes == want_bytes, "{predictor} {dims:?} chunk {t}: the bytes differ");
            prop_assert_eq!(decoded.dtype(), want.dtype());
            prop_assert_eq!(decoded.dims(), want.dims());
            prop_assert!(
                decoded.to_le_bytes() == want.to_le_bytes(),
                "{} {:?} {:e} chained={} chunk {}: the decoded chunk differs from the decode",
                predictor, dims, abs, chained, t
            );
            if let Some(carry) = &mut carry {
                carry.slice = Some(last_outer_slice(&decoded).unwrap());
            }
        }
    }
}
