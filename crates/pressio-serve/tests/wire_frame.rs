//! The v2 wire frame, pinned from outside the crate: golden bytes, the
//! content hash the caches and the router key on, `==` round trips over
//! every blob arrangement, and a typed error — never a hang, never an
//! allocation past the cap — for every way a frame can lie.

use pressio_core::{Data, Error, Options};
use pressio_serve::protocol::{
    data_content_hash, frame_bytes, op, read_frame, read_frame_polled, write_frame, MAGIC,
    MAX_FRAME,
};
use pressio_serve::Client;
use proptest::prelude::*;
use std::io::Read;
use std::sync::atomic::AtomicBool;

/// The v2 layout, byte for byte: an external client is written against
/// exactly this.
#[test]
fn frame_layout_is_pinned() {
    let pong = Options::new().with("serve:type", "pong");
    let header = br#"{"options":{"entries":{"serve:type":{"Str":"pong"}}},"blobs":[]}"#;
    let mut want = b"PSW2".to_vec();
    want.extend_from_slice(&(header.len() as u32).to_be_bytes());
    want.extend_from_slice(&0u64.to_be_bytes());
    want.extend_from_slice(header);
    assert_eq!(frame_bytes(&pong).unwrap(), want);

    let data = Data::from_f32(vec![2], vec![1.0, -2.0]);
    let predict = Client::predict_request("m@1", &data, &Options::new());
    let header = concat!(
        r#"{"options":{"entries":{"data:dims":{"U64Vec":[2]},"data:dtype":{"Str":"f32"},"#,
        r#""serve:model":{"Str":"m@1"},"serve:op":{"Str":"predict"}}},"#,
        r#""blobs":[["data:bytes",8]]}"#
    );
    let mut want = b"PSW2".to_vec();
    want.extend_from_slice(&(header.len() as u32).to_be_bytes());
    want.extend_from_slice(&8u64.to_be_bytes());
    want.extend_from_slice(header.as_bytes());
    want.extend_from_slice(&[0, 0, 0x80, 0x3f, 0, 0, 0, 0xc0]);
    assert_eq!(frame_bytes(&predict).unwrap(), want);
}

/// Cache keys are pinned on this digest: the content tree's root over one
/// leaf (taken when the flat SHA-256 of dtype ‖ dims ‖ bytes became the
/// tree), checked against an independent SHA-256.
#[test]
fn content_hash_is_pinned() {
    let data = Data::from_f32(vec![4, 3], (0..12).map(|i| i as f32 * 0.5).collect());
    let req = Client::predict_request("m", &data, &Options::new());
    let pinned = "156de2b54e46771d0dd0bf84cd703a749147c1b29bedc04e73fc2cd72f670d4e";
    assert_eq!(data_content_hash(&req).unwrap(), pinned);
    let wired = read_frame(&mut frame_bytes(&req).unwrap().as_slice())
        .unwrap()
        .unwrap();
    assert_eq!(data_content_hash(&wired).unwrap(), pinned);
}

/// A reader that fails the test if asked for more than `budget` bytes:
/// a declared length must be rejected before anything is read for it.
struct Budget<'a>(&'a [u8], usize);
impl Read for Budget<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        assert!(buf.len() <= self.1, "reader asked for {} bytes", buf.len());
        self.0.read(buf)
    }
}

fn raw_frame(header: &[u8], payload_len: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = MAGIC.to_vec();
    frame.extend_from_slice(&(header.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload_len.to_be_bytes());
    frame.extend_from_slice(header);
    frame.extend_from_slice(payload);
    frame
}

#[test]
fn truncation_at_every_length_is_a_typed_error_not_a_hang() {
    let msg = Options::new()
        .with("a:first", vec![7u8; 5])
        .with("serve:op", op::PREDICT)
        .with("z:last", vec![9u8; 3]);
    let frame = frame_bytes(&msg).unwrap();
    for cut in 1..frame.len() {
        match read_frame(&mut &frame[..cut]) {
            Err(Error::Io(_)) => {}
            other => panic!("cut at {cut}: {other:?}"),
        }
    }
    assert!(read_frame(&mut &frame[..0]).unwrap().is_none());
    assert_eq!(read_frame(&mut frame.as_slice()).unwrap().unwrap(), msg);
}

#[test]
fn lying_lengths_are_rejected_before_allocation() {
    let corrupt = |bytes: Vec<u8>, cap: usize, needle: &str| {
        let err = read_frame_polled(&mut Budget(&bytes, cap.max(12)), cap, None)
            .expect_err("malformed frame must be rejected");
        assert!(
            matches!(err, Error::CorruptStream(ref m) if m.contains(needle)),
            "expected '{needle}', got {err:?}"
        );
    };
    let empty = br#"{"options":{"entries":{}},"blobs":[]}"#;
    // a v1 frame: its first word is a length, never the magic
    let mut v1 = 14u32.to_be_bytes().to_vec();
    v1.extend_from_slice(br#"{"entries":{}}"#);
    corrupt(v1, MAX_FRAME, "unsupported wire version");
    // header or payload over the configured cap, each under the ceiling
    corrupt(raw_frame(&[b' '; 70_000], 0, b""), 64 << 10, "frame cap");
    corrupt(raw_frame(empty, 1 << 20, b"xx"), 64 << 10, "frame cap");
    // the cap clamps to the protocol ceiling; a sum past u64 is over it too
    corrupt(
        raw_frame(empty, MAX_FRAME as u64, b"xx"),
        usize::MAX,
        "frame cap",
    );
    corrupt(raw_frame(empty, u64::MAX, b"xx"), usize::MAX, "frame cap");
    // the same declared payload passes the default ceiling far enough
    // to hit the table check: nothing was allocated for it
    corrupt(raw_frame(empty, 1 << 20, b"xx"), MAX_FRAME, "blob table");
    // a table that disagrees with payload_len, either way
    let one = br#"{"options":{"entries":{}},"blobs":[["k",4]]}"#;
    corrupt(raw_frame(one, 2, b"xxxx"), MAX_FRAME, "blob table");
    corrupt(raw_frame(one, 8, b"xxxxxxxx"), MAX_FRAME, "blob table");
    let wrap = br#"{"options":{"entries":{}},"blobs":[["a",18446744073709551615],["b",5]]}"#;
    corrupt(raw_frame(wrap, 4, b"xxxx"), MAX_FRAME, "blob table");
    // a key named twice, a key shadowing a header entry, inline bytes
    let twice = br#"{"options":{"entries":{}},"blobs":[["k",1],["k",1]]}"#;
    corrupt(raw_frame(twice, 2, b"xx"), MAX_FRAME, "twice");
    let shadow = br#"{"options":{"entries":{"k":{"Bool":true}}},"blobs":[["k",1]]}"#;
    corrupt(raw_frame(shadow, 1, b"x"), MAX_FRAME, "twice");
    let inline = br#"{"options":{"entries":{"k":{"Bytes":[1,2]}}},"blobs":[]}"#;
    corrupt(raw_frame(inline, 0, b""), MAX_FRAME, "inline");
    // a header that is not UTF-8, not JSON, or not a header
    corrupt(raw_frame(&[0xff, 0xfe], 0, b""), MAX_FRAME, "frame header");
    corrupt(
        raw_frame(b"{\"options\":", 0, b""),
        MAX_FRAME,
        "frame header",
    );
    corrupt(
        raw_frame(br#"{"entries":{}}"#, 0, b""),
        MAX_FRAME,
        "frame header",
    );

    // a frame under the cap still round-trips through a capped reader
    let msg = Options::new().with("serve:op", op::PING);
    let small = frame_bytes(&msg).unwrap();
    let back = read_frame_polled(&mut small.as_slice(), 64 << 10, None);
    assert_eq!(back.unwrap().unwrap(), msg);
}

/// A socket whose reads time out between (and inside) frames.
struct Timeouts<'a>(&'a [u8], bool);
impl Read for Timeouts<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.1 = !self.1;
        if self.1 {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(3);
        self.0.read(&mut buf[..n])
    }
}

#[test]
fn polled_reads_ride_timeouts_and_stop_only_between_frames() {
    let msg = Options::new()
        .with("serve:op", op::PREDICT)
        .with("data:bytes", vec![5u8; 40]);
    let frame = frame_bytes(&msg).unwrap();
    let stop = AtomicBool::new(true);
    // stop is up, but a frame in flight is read to its end
    let mut conn = Timeouts(&frame[1..], true);
    let mut first = &frame[..1];
    let mut chained = Read::chain(&mut first, &mut conn);
    let back = read_frame_polled(&mut chained, MAX_FRAME, Some(&stop));
    assert_eq!(back.unwrap().unwrap(), msg);
    // idle with stop up: a clean end, not an error
    let idle = read_frame_polled(&mut Timeouts(&frame, false), MAX_FRAME, Some(&stop));
    assert!(idle.unwrap().is_none());
    // without a poll a timeout is the caller's error to handle
    let unpolled = read_frame(&mut Timeouts(&frame, false));
    assert!(matches!(unpolled, Err(Error::Io(_))));
}

/// A socket that takes a few bytes of a vectored write at a time, spread
/// over its slices, and is interrupted before every other write.
#[derive(Default)]
struct Trickle(Vec<u8>, bool);
impl std::io::Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[std::io::IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        self.1 = !self.1;
        if self.1 {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let mut budget = 7;
        for buf in bufs {
            let n = buf.len().min(budget);
            self.0.extend_from_slice(&buf[..n]);
            budget -= n;
        }
        Ok(7 - budget)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `write_frame` sends the bytes `frame_bytes` returns, whatever share of
/// a vectored write the writer takes at a time.
#[test]
fn write_frame_sends_the_bytes_of_frame_bytes() {
    let data = Data::from_f32(vec![3], vec![1.0, -2.0, 0.5]);
    let messages = [
        Options::new().with("serve:type", "pong"),
        Client::predict_request("m@1", &data, &Options::new().with("pressio:abs", 1e-4)),
        Options::new()
            .with("a:first", vec![7u8; 300])
            .with("m:empty", Vec::<u8>::new())
            .with("serve:op", op::PREDICT)
            .with("z:last", vec![9u8; 5]),
    ];
    for msg in messages {
        let want = frame_bytes(&msg).unwrap();
        let mut whole = Vec::new();
        write_frame(&mut whole, &msg).unwrap();
        assert_eq!(whole, want);
        let mut trickle = Trickle::default();
        write_frame(&mut trickle, &msg).unwrap();
        assert_eq!(trickle.0, want);
    }
}

/// A payload cut short is the mid-frame error, with or without a poll; with
/// the stop flag up, the timeouts inside the payload are read through to
/// the cut.
#[test]
fn a_payload_cut_short_is_a_mid_frame_error() {
    let msg = Options::new()
        .with("serve:op", op::PREDICT)
        .with("data:bytes", vec![5u8; 4096]);
    let frame = frame_bytes(&msg).unwrap();
    let cut = &frame[..frame.len() - 100];
    let stop = AtomicBool::new(true);
    let mid_frame = |err| matches!(err, Error::Io(ref m) if m == "connection closed mid-frame");
    let polled = read_frame_polled(&mut Timeouts(cut, true), MAX_FRAME, Some(&stop));
    assert!(mid_frame(polled.unwrap_err()));
    for stop in [None, Some(&stop)] {
        assert!(mid_frame(
            read_frame_polled(&mut &cut[..], MAX_FRAME, stop).unwrap_err()
        ));
    }
}

/// Blob sizes the frame must carry: nothing, one byte, a 1 MiB buffer.
fn blob() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        any::<u8>().prop_map(|b| vec![b]),
        any::<u64>().prop_map(|seed| {
            let mut s = seed | 1;
            (0..1usize << 20)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s as u8
                })
                .collect()
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // 0, 1 and 3 byte values, under keys that sort before, between and
    // after the scalar entries, come back `==`
    #[test]
    fn options_with_any_blob_arrangement_round_trip(
        count in prop_oneof![Just(0usize), Just(1), Just(3)],
        blobs in (blob(), blob(), blob()),
        abs in 1e-9f64..1.0,
    ) {
        let mut msg = Options::new()
            .with("m:op", op::PREDICT)
            .with("m:abs", abs)
            .with("m:dims", vec![64u64, 64, 64])
            .with("m:names", vec!["P".to_string(), "TC".to_string()]);
        let keyed = [("a:before", blobs.0), ("m:between", blobs.1), ("z:after", blobs.2)];
        for (key, bytes) in keyed.into_iter().take(count) {
            msg.set(key, bytes);
        }
        let frame = frame_bytes(&msg).unwrap();
        let mut wire = frame.as_slice();
        let back = read_frame(&mut wire).unwrap().unwrap();
        prop_assert!(back == msg, "round trip changed the message");
        prop_assert!(wire.is_empty(), "the reader left {} bytes behind", wire.len());
    }
}

/// The paper's Hurricane field, 500×500×100 f32 (100 MB), fits one frame
/// at one wire byte per data byte. Full tier only: it moves 300 MB.
#[test]
fn the_papers_field_fits_one_frame() {
    if std::env::var_os("CI_FAST").is_some() {
        return;
    }
    let n = 500 * 500 * 100;
    let data = Data::from_f32(vec![500, 500, 100], (0..n).map(|i| i as f32).collect());
    let request = Client::predict_request("m", &data, &Options::new());
    let frame = frame_bytes(&request).unwrap();
    assert!(frame.len() <= MAX_FRAME && frame.len() < n * 4 + 512);
    let back = read_frame(&mut frame.as_slice()).unwrap().unwrap();
    assert!(back == request);
}
