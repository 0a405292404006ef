//! Fuzz the wire-protocol frame parser: `read_frame` must never panic on
//! adversarial input — torn frames, a wrong magic, lying header and
//! payload lengths, blob tables that disagree with the payload, non-UTF-8
//! or malformed JSON headers — only return `Ok`/`Err`. Cases are seeded
//! mutations of real frames (see `pressio_core::fuzz`), so every failure
//! replays from the `seed`/`iteration` pair in the panic message; the
//! nightly CI tier deepens the run via `PRESSIO_FUZZ_ITERS`. The mutated
//! headers also run through the `serde_json` reader the protocol used to
//! parse them with (`reference/`): the two must agree on every case.

mod reference;

use pressio_core::fuzz::Fuzzer;
use pressio_core::{Data, Error, Options, Value};
use pressio_serve::protocol::{self, error_response, frame_bytes, op, read_frame};
use pressio_serve::{Client, Endpoint, ServeConfig, Server};

/// Real frames of every message shape the protocol produces: ops with
/// and without payloads, an embedded data buffer, and an error response.
fn corpus() -> Vec<Vec<u8>> {
    let data = Data::from_f32(vec![4, 4], (0..16).map(|i| i as f32 * 0.5).collect());
    let messages = vec![
        Options::new().with("serve:op", op::PING),
        Options::new().with("serve:op", op::STATS),
        // an op no daemon knows: answered bad_request
        Options::new().with("serve:op", "topology"),
        Options::new()
            .with("serve:op", op::TRAIN)
            .with("serve:model", "m")
            .with("serve:scheme", "rahman2023")
            .with("serve:dims", vec![8u64, 8, 4])
            .with("serve:timesteps", 1u64)
            .with("serve:bounds", vec![1e-4]),
        Client::predict_request("m@1", &data, &Options::new().with("pressio:abs", 1e-4)),
        error_response("overloaded", "queue full (depth 64)"),
        Options::new(), // nothing but the 16-byte prefix and an empty header
    ];
    messages
        .into_iter()
        .map(|m| frame_bytes(&m).unwrap())
        .collect()
}

#[test]
fn read_frame_never_panics_on_mutated_frames() {
    let corpus = corpus();
    Fuzzer::from_env(600).run(&corpus, |case| {
        let mut cursor = std::io::Cursor::new(case);
        // drain the whole stream: a mutated case may contain several
        // frames (splice/duplicate operators), and frame re-sync after a
        // successful parse is part of the surface under test
        while let Ok(Some(_)) = read_frame(&mut cursor) {}
    });
}

#[test]
fn header_parser_never_panics_on_mutated_headers() {
    // mutate the JSON header alone, then re-wrap it under a prefix whose
    // lengths are true: the length checks pass, so every case reaches the
    // header parser and the blob-table checks behind it — invalid UTF-8,
    // "almost JSON", tables that no longer match the payload. The serde
    // reader must read each case the same way
    let corpus: Vec<Vec<u8>> = corpus()
        .into_iter()
        .map(|f| {
            let header_len = u32::from_be_bytes(f[4..8].try_into().unwrap()) as usize;
            f[16..16 + header_len].to_vec()
        })
        .collect();
    let payload = [0x5au8; 64]; // the predict frame's blob is 64 bytes
    Fuzzer::from_env(600).run(&corpus, |case| {
        if let Some(disagreement) = reference::disagreement(case, &payload) {
            panic!("{disagreement}");
        }
    });
}

/// Grammar of `stream.resume` (and neighboring session-op) frames the
/// fuzzer mutates: ids from plain to hostile (path traversal, huge,
/// empty), tokens from well-formed hex to truncated and oversized, and
/// acked offsets across the whole u64 range.
fn resume_corpus() -> Vec<Vec<u8>> {
    let resume = |id: &str, token: &str, acked: u64| {
        Options::new()
            .with("serve:op", op::STREAM_RESUME)
            .with("stream:id", id)
            .with("stream:token", token)
            .with("stream:acked", acked)
    };
    let messages = vec![
        resume("s1", "00e1d2c3b4a59687", 0),
        resume("s1", "00e1d2c3b4a59687", 3),
        resume("s1", "00e1d2c3b4a59687", u64::MAX),
        resume("", "", 1),
        resume("../../etc/passwd", "deadbeef", 7),
        resume(&"x".repeat(4096), &"f".repeat(4096), 42),
        // resume with fields missing or mistyped
        Options::new().with("serve:op", op::STREAM_RESUME),
        Options::new()
            .with("serve:op", op::STREAM_RESUME)
            .with("stream:id", "s1")
            .with("stream:acked", "not-a-number"),
        // the surrounding session grammar, so splices can cross ops
        Options::new()
            .with("serve:op", op::STREAM_BEGIN)
            .with("stream:id", "s1")
            .with("stream:token", "00e1d2c3b4a59687")
            .with("serve:scheme", "rahman2023"),
        Options::new()
            .with("serve:op", op::STREAM_CHUNK)
            .with("stream:id", "s1")
            .with("stream:seq", 2u64),
        Options::new()
            .with("serve:op", op::STREAM_END)
            .with("stream:id", "s1"),
    ];
    messages
        .into_iter()
        .map(|m| frame_bytes(&m).unwrap())
        .collect()
}

#[test]
fn mutated_stream_resume_frames_never_kill_a_live_server() {
    let dir = std::env::temp_dir().join("pressio_fuzz_resume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = ServeConfig::new(Endpoint::Tcp("127.0.0.1:0".into()), dir.join("models"));
    let handle = Server::start(config).unwrap();
    let endpoint = handle.endpoint().clone();

    // every mutated frame goes at a real connection: the server may
    // answer, reject, or drop the connection — but must never panic or
    // stop accepting. Responses are deliberately not awaited (a lying
    // length prefix would stall a reader); dropping the connection is
    // part of the hostile-client surface.
    let corpus = resume_corpus();
    Fuzzer::from_env(300).run(&corpus, |case| {
        let mut conn = endpoint.connect().expect("server must keep accepting");
        let _ = std::io::Write::write_all(&mut conn, case);
        let _ = std::io::Write::flush(&mut conn);
    });

    // the parser side of the same corpus never panics either
    Fuzzer::from_env(300).run(&corpus, |case| {
        let mut cursor = std::io::Cursor::new(case);
        while let Ok(Some(_)) = read_frame(&mut cursor) {}
    });

    // the daemon survived the barrage and still answers typed responses
    let mut client = Client::connect(&endpoint).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.get_str("serve:type").unwrap(), "stats");
    let resume = client.stream_resume("never-opened", "deadbeef", 0).unwrap();
    assert_eq!(resume.get_str("serve:code").unwrap(), "not_found");

    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_resume_field_values_get_typed_answers() {
    let dir = std::env::temp_dir().join("pressio_fuzz_resume_fields");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = ServeConfig::new(Endpoint::Tcp("127.0.0.1:0".into()), dir.join("models"));
    let handle = Server::start(config).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();

    // well-formed frames with fuzzer-derived field values: every one must
    // get a typed JSON answer over the same connection — hostile ids,
    // tokens, and offsets can be rejected but never break the session loop
    let seeds: Vec<Vec<u8>> = vec![
        b"stream-id\x00token\xffoffset".to_vec(),
        b"../../escape\x01\x02\x03\x04\x05\x06\x07\x08".to_vec(),
        vec![0xff; 64],
    ];
    Fuzzer::from_env(200).run(&seeds, |case| {
        let mid = case.len() / 2;
        let id = String::from_utf8_lossy(&case[..mid]).into_owned();
        let token = String::from_utf8_lossy(&case[mid..]).into_owned();
        let mut acked = [0u8; 8];
        for (i, b) in case.iter().take(8).enumerate() {
            acked[i] = *b;
        }
        let resp = client
            .stream_resume(&id, &token, u64::from_le_bytes(acked))
            .expect("a well-formed resume frame must get a typed answer");
        let kind = resp.get_str("serve:type").expect("response must be typed");
        assert!(
            kind == "error" || kind == "stream.resumed",
            "unexpected resume answer: {resp}"
        );
    });

    let stats = client.stats().unwrap();
    assert_eq!(stats.get_str("serve:type").unwrap(), "stats");
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn surviving_frames_reserialize() {
    // anything the parser accepts must be writable again: a mutated frame
    // that parses is a valid Options and must round-trip
    let corpus = corpus();
    Fuzzer::from_env(400).run(&corpus, |case| {
        let mut cursor = std::io::Cursor::new(case);
        if let Ok(Some(parsed)) = read_frame(&mut cursor) {
            // a number past f64's range reads as inf, which no frame carries:
            // the writer refuses it, naming the key that holds it
            let bytes = match frame_bytes(&parsed) {
                Err(Error::InvalidValue { key, .. }) => {
                    let finite = |x: &f64| x.is_finite();
                    let value = parsed.get(&key).expect("the refusal names a key");
                    assert!(
                        matches!(value, Value::F64(x) if !finite(x))
                            || matches!(value, Value::F64Vec(xs) if !xs.iter().all(finite)),
                        "{key} = {value:?} refused"
                    );
                    return;
                }
                bytes => bytes.expect("parsed frame must reserialize"),
            };
            let back = read_frame(&mut std::io::Cursor::new(bytes))
                .expect("reserialized frame must parse")
                .expect("non-empty stream");
            assert_eq!(
                protocol::frame_bytes(&back).unwrap(),
                protocol::frame_bytes(&parsed).unwrap(),
                "round-trip through bytes must be stable"
            );
        }
    });
}
