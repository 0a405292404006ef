//! Chaos coverage for mid-stream faults: a corrupted, dropped, or
//! truncated chunk must always surface as a typed
//! `Error::CorruptStream` at the decoder — never a silent partial result
//! — and every firing is visible as a `faults:<site>` counter.
//!
//! The fault registry is process-global, so every test takes the lock and
//! clears schedules on entry and exit.

use pressio_core::error::Error;
use pressio_core::{Data, Dtype, Options};
use pressio_stream::{compress_stream, decompress_stream, StreamDecoder, StreamHeader};
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn field(outer: usize) -> Data {
    let nx = 20usize;
    let values: Vec<f32> = (0..nx * outer)
        .map(|i| (i as f32 * 0.05).sin() * 4.0 + (i as f32 * 0.001).cos())
        .collect();
    Data::from_f32(vec![nx, outer], values)
}

fn header(chained: bool) -> StreamHeader {
    StreamHeader {
        codec: "sz3".into(),
        dtype: Dtype::F32,
        inner_dims: vec![20],
        chunk_outer: 3,
        chained,
        codec_options: Options::new().with("pressio:abs", 1e-4),
    }
}

fn assert_corrupt(result: Result<Data, Error>) {
    match result {
        Err(Error::CorruptStream(_)) => {}
        Err(other) => panic!("expected CorruptStream, got {other:?}"),
        Ok(_) => panic!("corrupted stream decoded to a silent result"),
    }
}

#[test]
fn corrupted_chunk_is_a_typed_error_not_a_partial_result() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let data = field(9);

    // corrupt the second chunk's compressed bytes in flight
    pressio_faults::configure("stream:chunk.corrupt=corrupt,after=1,times=1").unwrap();
    let stream = compress_stream(&data, header(false)).unwrap();
    assert_eq!(pressio_faults::fired("stream:chunk.corrupt"), 1);
    pressio_faults::clear();

    assert_corrupt(decompress_stream(&stream));

    // the decoder still hands out the intact first chunk, then fails —
    // callers see every successfully verified chunk plus a typed error
    let mut decoder = StreamDecoder::new(&stream[..]).unwrap();
    assert!(decoder.next_chunk().unwrap().is_some());
    assert!(decoder.next_chunk().is_err());
    assert!(!decoder.finished());
}

#[test]
fn dropped_chunk_is_detected_by_framing_or_totals() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let data = field(9);

    pressio_faults::configure("stream:chunk.drop=drop,after=1,times=1").unwrap();
    let stream = compress_stream(&data, header(false)).unwrap();
    assert_eq!(pressio_faults::fired("stream:chunk.drop"), 1);
    pressio_faults::clear();

    assert_corrupt(decompress_stream(&stream));
}

#[test]
fn dropped_chunk_in_chained_mode_poisons_nothing_downstream() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let data = field(9);

    pressio_faults::configure("stream:chunk.drop=drop,after=1,times=1").unwrap();
    let stream = compress_stream(&data, header(true)).unwrap();
    pressio_faults::clear();

    // the chunk after the hole decodes against the wrong carried state;
    // its content checksum must catch that immediately
    assert_corrupt(decompress_stream(&stream));
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let data = field(7);
    let stream = compress_stream(&data, header(false)).unwrap();

    for len in 0..stream.len() {
        let result = decompress_stream(&stream[..len]);
        match result {
            Err(Error::CorruptStream(_)) => {}
            Err(other) => panic!("truncation to {len} gave non-typed error {other:?}"),
            Ok(_) => panic!("truncation to {len} of {} decoded silently", stream.len()),
        }
    }
    // the untruncated stream still decodes
    assert_eq!(
        decompress_stream(&stream).unwrap().to_le_bytes().len(),
        data.to_le_bytes().len()
    );
}

#[test]
fn faultless_runs_are_byte_identical_with_registry_armed() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let data = field(6);
    let clean = compress_stream(&data, header(true)).unwrap();

    // armed registry, sites never fire: output must not change
    pressio_faults::configure("unrelated:site=err,times=1").unwrap();
    let armed = compress_stream(&data, header(true)).unwrap();
    pressio_faults::clear();
    assert_eq!(clean, armed);
}
