//! The frame header codec against the `serde_json` path it replaced (kept
//! in `reference/`): the bytes it writes for any message, what it reads
//! from headers no writer in this tree produces, the member rules it pins,
//! the floats it refuses, and the reads a buffered connection makes for a
//! frame.

mod reference;

use pressio_core::{Data, Error, Options, Value};
use pressio_serve::net::{buffered, READ_BUFFER};
use pressio_serve::protocol::{frame_bytes, read_frame, response_frame};
use pressio_serve::Client;
use proptest::prelude::*;
use std::io::Read;

/// SplitMix64: the message generator's one source of choices.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
        pool[self.below(pool.len())]
    }

    /// Half from the pool of values a float printer gets wrong, half any
    /// finite bit pattern.
    fn float(&mut self) -> f64 {
        const POOL: [f64; 20] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            2.225e-310,
            -4.9e-320,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            1e-4,
            0.1,
            1.0,
            -1.0,
            1e15,
            1e16,
            1e21,
            1e22,
            123_456_789.0,
        ];
        if self.below(2) == 0 {
            return self.pick(&POOL);
        }
        loop {
            let f = f64::from_bits(self.next());
            if f.is_finite() {
                return f;
            }
        }
    }

    fn i64(&mut self) -> i64 {
        match self.below(2) {
            0 => self.pick(&[0, 1, -1, i64::MIN, i64::MAX]),
            _ => self.next() as i64,
        }
    }

    fn u64(&mut self) -> u64 {
        match self.below(2) {
            0 => self.pick(&[0, 1, u64::MAX, i64::MAX as u64, i64::MAX as u64 + 1]),
            _ => self.next(),
        }
    }

    /// Text with every character class the writer escapes or passes raw.
    fn text(&mut self) -> String {
        const CHARS: [char; 25] = [
            'a',
            'Z',
            '0',
            ':',
            '.',
            ' ',
            '"',
            '\\',
            '/',
            '\n',
            '\r',
            '\t',
            '\u{08}',
            '\u{0c}',
            '\u{00}',
            '\u{01}',
            '\u{1f}',
            '\u{7f}',
            'é',
            '漢',
            '😀',
            '\u{2028}',
            '\u{fffd}',
            '\u{ffff}',
            '\u{10ffff}',
        ];
        let len = self.below(12);
        (0..len).map(|_| self.pick(&CHARS)).collect()
    }

    fn value(&mut self) -> Value {
        let len = self.below(5);
        match self.below(10) {
            0 => Value::Bool(self.below(2) == 1),
            1 => Value::I64(self.i64()),
            2 => Value::U64(self.u64()),
            3 => Value::F64(self.float()),
            4 => Value::Str(self.text()),
            5 => Value::F64Vec((0..len).map(|_| self.float()).collect()),
            6 => Value::U64Vec((0..len).map(|_| self.u64()).collect()),
            7 => Value::StrVec((0..len).map(|_| self.text()).collect()),
            8 => Value::Bytes((0..len).map(|_| self.next() as u8).collect()),
            _ => Value::Opaque(self.text()),
        }
    }

    fn options(&mut self) -> Options {
        let len = self.below(9);
        (0..len).map(|_| (self.text(), self.value())).collect()
    }
}

/// The payload of `msg`: its byte values in key order.
fn payload(msg: &Options) -> Vec<u8> {
    msg.iter()
        .filter_map(|(_, v)| v.as_bytes())
        .flatten()
        .copied()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // every variant, escaped and non-ASCII keys and text, -0.0,
    // subnormals, 1e300, u64::MAX and i64::MIN: the frame is the one the
    // serde path wrote, and both readers read the message back bit for bit
    #[test]
    fn any_message_is_written_as_the_serde_path_wrote_it(seed in any::<u64>()) {
        let msg = Gen(seed).options();
        let header = reference::header_bytes(&msg);
        let payload = payload(&msg);
        let frame = frame_bytes(&msg).unwrap();
        prop_assert!(
            frame == reference::frame(&header, &payload),
            "seed {seed}: wrote {:?}, serde {:?}",
            String::from_utf8_lossy(&frame[16..16 + header.len().min(frame.len() - 16)]),
            String::from_utf8_lossy(&header)
        );
        let back = read_frame(&mut frame.as_slice()).unwrap().unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{msg:?}"));
        prop_assert_eq!(reference::disagreement(&header, &payload), None);
    }
}

/// Headers no writer in this tree produces, each read by both readers:
/// the same message or a refusal from both. `(header, payload)`.
const NON_CANONICAL: &[(&str, &str)] = &[
    // whitespace everywhere JSON allows it, and nowhere else
    (
        " {\t\"options\" :\n{ \"entries\" :{ \"k\" : { \"F64\" : 1.5 } } } ,\r\"blobs\" : [ ] } ",
        "",
    ),
    ("{\"options\":{\"entries\":{}},\"blobs\":[]}\n", ""),
    ("\u{feff}{\"options\":{\"entries\":{}},\"blobs\":[]}", ""),
    ("{\"options\":{\"entries\":{}},\"blobs\":[]}\u{0b}", ""),
    // member order
    (
        r#"{"blobs":[["b",2]],"options":{"entries":{"a":{"Bool":true}}}}"#,
        "xy",
    ),
    (
        r#"{"blobs":[],"options":{"entries":{"z":{"Bool":false},"a":{"I64":-3}}}}"#,
        "",
    ),
    // number forms, per payload type
    (r#"{"options":{"entries":{"k":{"F64":1}}},"blobs":[]}"#, ""),
    (r#"{"options":{"entries":{"k":{"F64":-0}}},"blobs":[]}"#, ""),
    (
        r#"{"options":{"entries":{"k":{"F64":-0.0}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"F64":18446744073709551616}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"F64":1e999}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"F64":-1E+999}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"F64":1e-999}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"F64":007}}},"blobs":[]}"#,
        "",
    ),
    (r#"{"options":{"entries":{"k":{"F64":1.}}},"blobs":[]}"#, ""),
    (
        r#"{"options":{"entries":{"k":{"F64":-.5}}},"blobs":[]}"#,
        "",
    ),
    (r#"{"options":{"entries":{"k":{"F64":.5}}},"blobs":[]}"#, ""),
    (r#"{"options":{"entries":{"k":{"F64":+1}}},"blobs":[]}"#, ""),
    (r#"{"options":{"entries":{"k":{"F64":1e}}},"blobs":[]}"#, ""),
    (r#"{"options":{"entries":{"k":{"F64":-}}},"blobs":[]}"#, ""),
    (
        r#"{"options":{"entries":{"k":{"F64":1.5.2}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"F64":NaN}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"F64":null}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"F64":"1"}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"U64":1.0}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"U64":1e3}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"U64":-0.0}}},"blobs":[]}"#,
        "",
    ),
    (r#"{"options":{"entries":{"k":{"U64":-1}}},"blobs":[]}"#, ""),
    (
        r#"{"options":{"entries":{"k":{"U64":1.5}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"U64":18446744073709551615}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"U64":18446744073709551616}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"U64":1.8446744073709550e19}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"I64":-9223372036854775808}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"I64":9223372036854775808}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"I64":-9.2233720368547748e18}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"I64":-9223372036854775808.0}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"I64":-2.0}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"U64Vec":[1,2.0,3e0]}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"F64Vec":[1,-2,3.5,1e999]}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"F64Vec":[1,]}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"F64Vec":[]}}},"blobs":[]}"#,
        "",
    ),
    // booleans and strings
    (
        r#"{"options":{"entries":{"k":{"Bool":true}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Bool":truex}}},"blobs":[]}"#,
        "",
    ),
    (r#"{"options":{"entries":{"k":{"Bool":1}}},"blobs":[]}"#, ""),
    (
        r#"{"options":{"entries":{"k":{"Bool":null}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"kA\/":{"Str":"\"\\\/\b\f\n\r\té漢"}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Str":"😀"}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Str":"\ud83d"}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Str":"\ud83dA"}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Str":"\ude00"}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Str":"\u+041"}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Str":"\u-041"}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Str":"\u00"}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Str":"\u00é"}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Str":"\x41"}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Str":"\"}}},"blobs":[]}"#,
        "",
    ),
    (
        "{\"options\":{\"entries\":{\"k\":{\"Str\":\"raw\u{1}\ttab\"}}},\"blobs\":[]}",
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Str":'x'}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"StrVec":["a","\n",""]}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Opaque":"comm"}}},"blobs":[]}"#,
        "",
    ),
    // a value is one variant
    (r#"{"options":{"entries":{"k":"Str"}},"blobs":[]}"#, ""),
    (r#"{"options":{"entries":{"k":{}}},"blobs":[]}"#, ""),
    (
        r#"{"options":{"entries":{"k":{"F64":1.0,"F64":2.0}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"F32":1.0}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Str":null}}},"blobs":[]}"#,
        "",
    ),
    // unknown members: skipped wherever they sit, but they must be JSON
    (
        r#"{"v":2,"options":{"x":[{"y":null}],"entries":{"k":{"Bool":true}},"z":"w"},"blobs":[],"t":{"a":[1,2.5e3,"s",true,false,null]}}"#,
        "",
    ),
    (r#"{"options":{"entries":{}},"blobs":[],"t":[1,}"#, ""),
    (r#"{"options":{"entries":{}},"blobs":[],"t":nul}"#, ""),
    (r#"{"options":{"entries":{}},"blobs":[],"t":"\q"}"#, ""),
    // a member named twice keeps its last value; the overridden one need
    // only be JSON, of any type
    (
        r#"{"options":{"entries":{"k":{"F64":1.0}}},"options":{"entries":{"k":{"F64":2.0}}},"blobs":[]}"#,
        "",
    ),
    (r#"{"options":7,"options":{"entries":{}},"blobs":[]}"#, ""),
    (r#"{"options":{"entries":{}},"options":7,"blobs":[]}"#, ""),
    (
        r#"{"options":{"entries":{"k":{"F64":}}},"options":{"entries":{}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Bool":true}},"entries":{"j":{"Bool":false}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":[1,2],"entries":{}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"F64":1.0},"k":{"Str":"last"}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"F64":"x"},"k":{"Str":"last"}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Bytes":[1]},"k":{"Bool":true}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Bool":true},"k":{"Bytes":[1]}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{"k":{"Bytes":[256]},"k":{"Bool":true}}},"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{}},"blobs":[["a",1]],"blobs":[]}"#,
        "",
    ),
    (
        r#"{"options":{"entries":{}},"blobs":{},"blobs":[["a",1]]}"#,
        "x",
    ),
    // blob tables
    (
        r#"{"options":{"entries":{}},"blobs":[["a",1.0],["b",2e0]]}"#,
        "xyz",
    ),
    (r#"{"options":{"entries":{}},"blobs":[["a",1,2]]}"#, "x"),
    (r#"{"options":{"entries":{}},"blobs":[["a"]]}"#, ""),
    (r#"{"options":{"entries":{}},"blobs":[["a","1"]]}"#, "x"),
    (r#"{"options":{"entries":{}},"blobs":[[1,"a"]]}"#, "x"),
    (r#"{"options":{"entries":{}},"blobs":[["a",-1]]}"#, ""),
    (r#"{"options":{"entries":{}},"blobs":null}"#, ""),
    // the shape itself
    (r#"{"options":{"entries":{}},"blobs":[],}"#, ""),
    (r#"{"options":{"entries":{}},"blobs":[]}x"#, ""),
    (r#"{"options":{"entries":{}},"blobs":[]}{}"#, ""),
    (r#"{"options":{"entries":{}}}"#, ""),
    (r#"{"blobs":[]}"#, ""),
    (r#"{"options":{},"blobs":[]}"#, ""),
    (r#"{"options":null,"blobs":[]}"#, ""),
    (r#"[{"options":{"entries":{}},"blobs":[]}]"#, ""),
    (r#"{"options":{"entries":{}},"blobs":[]"#, ""),
    (r#"{"options" {"entries":{}},"blobs":[]}"#, ""),
    (r#"{options:{"entries":{}},"blobs":[]}"#, ""),
    (r#""options""#, ""),
    ("", ""),
];

#[test]
fn non_canonical_headers_read_as_the_serde_path_read_them() {
    let mut disagreements = Vec::new();
    let mut accepted = 0;
    for (header, payload) in NON_CANONICAL {
        disagreements.extend(reference::disagreement(
            header.as_bytes(),
            payload.as_bytes(),
        ));
        accepted +=
            usize::from(reference::read_frame(header.as_bytes(), payload.as_bytes()).is_ok());
    }
    assert!(disagreements.is_empty(), "{disagreements:#?}");
    // both sides of the line are exercised
    assert!(
        accepted > 20 && accepted + 20 < NON_CANONICAL.len(),
        "{accepted}"
    );
}

/// Nesting past 128 levels is refused, at the same depth by both readers.
#[test]
fn nesting_is_bounded_where_the_serde_path_bounded_it() {
    for depth in [120, 126, 127, 128, 129, 200] {
        let unknown = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let header = format!(r#"{{"options":{{"entries":{{}}}},"blobs":[],"t":{unknown}}}"#);
        assert_eq!(
            reference::disagreement(header.as_bytes(), b""),
            None,
            "{depth}"
        );
    }
    let deep = format!(
        r#"{{"options":{{"entries":{{}}}},"blobs":[],"t":{}}}"#,
        "[".repeat(100_000)
    );
    assert_eq!(reference::disagreement(deep.as_bytes(), b""), None);
}

fn read(header: &str) -> Option<Options> {
    read_frame(&mut reference::frame(header.as_bytes(), b"").as_slice())
        .ok()
        .flatten()
}

/// The member rules are the serde derive's, and stay so: an unknown member
/// is ignored, a member named twice keeps its last value, and the value it
/// overrides is never type-checked.
#[test]
fn member_rules_are_pinned() {
    let k = |v: Value| Some(Options::new().with("k", v));
    let unknown = r#"{"v":2,"options":{"x":1,"entries":{"k":{"Bool":true}}},"blobs":[],"y":[]}"#;
    assert_eq!(read(unknown), k(Value::Bool(true)));
    let twice = r#"{"options":{"entries":{"k":{"I64":1},"k":{"I64":2}}},"blobs":[]}"#;
    assert_eq!(read(twice), k(Value::I64(2)));
    let retyped = r#"{"options":{"entries":{"k":{"F64":1.0}}},"options":{"entries":{"k":{"Str":"s"}}},"blobs":[]}"#;
    assert_eq!(read(retyped), k(Value::Str("s".into())));
    let overridden = r#"{"options":[],"options":{"entries":{"k":{"U64":1.0}}},"blobs":[]}"#;
    assert_eq!(read(overridden), k(Value::U64(1)));
    // an overridden entry, unlike an overridden member, is still read
    let bad_entry = r#"{"options":{"entries":{"k":{"U64":-1},"k":{"U64":1}}},"blobs":[]}"#;
    assert_eq!(read(bad_entry), None);
}

/// NaN and ±inf have no JSON form: the writer refuses them naming the
/// key, where it used to write a `null` no reader took back.
#[test]
fn non_finite_floats_are_refused_naming_their_key() {
    for (key, value) in [
        ("pressio:abs", Value::F64(f64::NAN)),
        ("pressio:rel", Value::F64(f64::INFINITY)),
        ("serve:bounds", Value::F64Vec(vec![1e-4, f64::NEG_INFINITY])),
    ] {
        let msg = Options::new().with("serve:op", "predict").with(key, value);
        match frame_bytes(&msg) {
            Err(Error::InvalidValue { key: named, .. }) => assert_eq!(named, key),
            other => panic!("{key}: {other:?}"),
        }
        // a server's reply that carries one is answered `internal`, naming it
        let reply = read_frame(&mut response_frame(&msg).as_slice())
            .unwrap()
            .unwrap();
        assert_eq!(reply.get_str("serve:code").unwrap(), "internal");
        assert!(
            reply.get_str("serve:message").unwrap().contains(key),
            "{reply}"
        );
    }
}

/// A stream that hands out everything asked for and records each ask.
struct Counting<'a> {
    bytes: &'a [u8],
    asks: Vec<usize>,
}

impl Read for Counting<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.asks.push(buf.len());
        self.bytes.read(buf)
    }
}

fn request(dims: Vec<usize>) -> Options {
    let n = dims.iter().product::<usize>();
    let data = Data::from_f32(dims, (0..n).map(|i| (i as f32).sin()).collect());
    Client::predict_request("m", &data, &Options::new().with("pressio:abs", 1e-4))
}

/// An 8 KiB request frame — prefix, header, payload — costs one `read`.
#[test]
fn a_small_frame_costs_one_read() {
    let msg = request(vec![16, 16, 8]);
    let frame = frame_bytes(&msg).unwrap();
    assert!(frame.len() > 8 << 10 && frame.len() < READ_BUFFER);
    let mut conn = buffered(Counting {
        bytes: &frame,
        asks: Vec::new(),
    });
    assert_eq!(read_frame(&mut conn).unwrap().unwrap(), msg);
    assert_eq!(conn.get_ref().asks, [READ_BUFFER]);
}

/// A 1 MiB payload arrives byte-identical, and what the first read did
/// not bring is read straight into the blob, not through the buffer.
#[test]
fn a_large_blob_is_read_around_the_buffer() {
    let msg = request(vec![64, 64, 64]);
    let frame = frame_bytes(&msg).unwrap();
    let mut conn = buffered(Counting {
        bytes: &frame,
        asks: Vec::new(),
    });
    let back = read_frame(&mut conn).unwrap().unwrap();
    assert_eq!(
        back.get_bytes("data:bytes").unwrap(),
        msg.get_bytes("data:bytes").unwrap()
    );
    assert_eq!(back, msg);
    assert_eq!(
        conn.get_ref().asks,
        [READ_BUFFER, frame.len() - READ_BUFFER]
    );
}

/// Fastest-of-9 µs per call, over `reps` calls each.
fn fastest_us(reps: u32, mut f: impl FnMut()) -> f64 {
    (0..9)
        .map(|_| {
            let started = std::time::Instant::now();
            for _ in 0..reps {
                f();
            }
            started.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
        })
        .fold(f64::INFINITY, f64::min)
}

/// µs per call of the hot workload's request (an 8 KiB buffer) and reply
/// through both codecs, encode and decode. The host is noisy: compare rows
/// within a run, not runs.
/// `cargo test --release -p pressio-serve --test wire_codec codec_costs -- --ignored --nocapture`
#[test]
#[ignore]
fn codec_costs() {
    let reply = Options::new()
        .with("serve:type", "prediction")
        .with("serve:prediction", 3.25)
        .with("serve:cached", true)
        .with("serve:scheme", "rahman2023")
        .with("serve:model", "bench@1")
        .with("serve:elapsed_ms", 0.0123);
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12}",
        "message", "serde enc", "direct enc", "serde dec", "direct dec"
    );
    for (name, msg) in [("request", request(vec![16, 16, 8])), ("reply", reply)] {
        let frame = frame_bytes(&msg).unwrap();
        let header = reference::header_bytes(&msg);
        let payload = payload(&msg);
        let serde_enc = fastest_us(2000, || {
            std::hint::black_box(reference::frame(&reference::header_bytes(&msg), &payload));
        });
        let direct_enc = fastest_us(2000, || {
            std::hint::black_box(frame_bytes(&msg).unwrap());
        });
        let serde_dec = fastest_us(2000, || {
            std::hint::black_box(reference::read_frame(&header, &payload).unwrap());
        });
        let direct_dec = fastest_us(2000, || {
            std::hint::black_box(read_frame(&mut frame.as_slice()).unwrap());
        });
        println!(
            "{name:<10} {serde_enc:>12.3} {direct_enc:>12.3} {serde_dec:>12.3} {direct_dec:>12.3}"
        );
    }
}
