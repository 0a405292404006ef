//! End-to-end streaming tests over a real socket: session lifecycle,
//! per-chunk predictions with temporal features, the configurable frame
//! cap, and online learning (rolling-window refits with hot version
//! bumps) against a live `--online` daemon.

use pressio_core::{Dtype, Options};
use pressio_dataset::{DatasetPlugin, Hurricane};
use pressio_serve::protocol::{self, code, op};
use pressio_serve::{Client, Endpoint, ServeConfig, Server};
use pressio_stream::{StreamEncoder, StreamHeader};
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pressio_stream_e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn local_config(dir: &std::path::Path) -> ServeConfig {
    ServeConfig::new(Endpoint::Tcp("127.0.0.1:0".into()), dir.join("models"))
}

/// A single-field hurricane time series: `load_data(t)` is timestep `t`.
fn timesteps(n: usize) -> Hurricane {
    Hurricane::with_dims(8, 8, 4, n)
        .with_fields(&["TC"])
        .unwrap()
}

fn train_request(model: &str) -> Options {
    Options::new()
        .with("serve:op", op::TRAIN)
        .with("serve:model", model)
        .with("serve:scheme", "rahman2023")
        .with("serve:dims", vec![8u64, 8, 4])
        .with("serve:timesteps", 1u64)
        .with("serve:bounds", vec![1e-4])
}

#[test]
fn stream_session_lifecycle_with_temporal_features() {
    let dir = temp_dir("lifecycle");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();

    let trained = client.call(&train_request("hurr")).unwrap();
    assert_eq!(
        trained.get_str("serve:type").unwrap(),
        "trained",
        "{trained}"
    );

    // chunking to an unopened stream is a typed not-found, not a hang
    let orphan = client
        .stream_chunk("nope", &timesteps(1).load_data(0).unwrap(), &Options::new())
        .unwrap();
    assert_eq!(orphan.get_str("serve:code").unwrap(), code::NOT_FOUND);

    let extra = Options::new()
        .with("serve:model", "hurr")
        .with("pressio:abs", 1e-4);
    let begun = client.stream_begin("s-lifecycle", &extra).unwrap();
    assert_eq!(
        begun.get_str("serve:type").unwrap(),
        "stream.begun",
        "{begun}"
    );
    assert!(!begun.get_bool("stream:online").unwrap());
    assert!(begun.get_str("serve:model").unwrap().starts_with("hurr@"));

    // a duplicate begin for an open id is rejected
    let dup = client.stream_begin("s-lifecycle", &extra).unwrap();
    assert_eq!(dup.get_str("serve:code").unwrap(), code::BAD_REQUEST);

    let mut source = timesteps(5);
    for t in 0..5 {
        let chunk = source.load_data(t).unwrap();
        let resp = client
            .stream_chunk("s-lifecycle", &chunk, &Options::new())
            .unwrap();
        assert_eq!(
            resp.get_str("serve:type").unwrap(),
            "stream.prediction",
            "{resp}"
        );
        assert_eq!(resp.get_u64("stream:seq").unwrap(), t as u64 + 1);
        let prediction = resp.get_f64("serve:prediction").unwrap();
        assert!(prediction.is_finite() && prediction > 0.0, "{prediction}");
        assert!(resp.get_str("serve:model").unwrap().starts_with("hurr@"));
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.get_u64("serve:streams.active").unwrap(), 1);
    assert_eq!(stats.get_u64("serve:stream.chunks").unwrap(), 5);

    let ended = client.stream_end("s-lifecycle").unwrap();
    assert_eq!(ended.get_str("serve:type").unwrap(), "stream.ended");
    assert_eq!(ended.get_u64("stream:chunks").unwrap(), 5);

    // the session is gone: end again → not found, active count drops
    let again = client.stream_end("s-lifecycle").unwrap();
    assert_eq!(again.get_str("serve:code").unwrap(), code::NOT_FOUND);
    let stats = client.stats().unwrap();
    assert_eq!(stats.get_u64("serve:streams.active").unwrap(), 0);

    client.shutdown().unwrap();
    handle.wait().unwrap();
}

#[test]
fn online_mode_refits_and_bumps_model_version() {
    online_stream((8, 8, 4), 12, 32, 4);
    // a longer stream under a window short enough that the last rolling
    // error is the refined model's, not the cold model's early misses
    online_stream((16, 16, 8), 48, 16, 6);
}

/// `steps` single-timestep chunks of `TC` on an `nx × ny × nz` grid through
/// an `--online` daemon that refits every `refit_every` chunks over the last
/// `window`.
fn online_stream(
    (nx, ny, nz): (usize, usize, usize),
    steps: usize,
    window: usize,
    refit_every: usize,
) {
    let dir = temp_dir(&format!("online_{steps}"));
    let mut config = local_config(&dir);
    config.online = true;
    config.online_window = window;
    config.online_refit_every = refit_every;
    let handle = Server::start(config).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();

    let trained = client.call(&train_request("hurr")).unwrap();
    assert_eq!(
        trained.get_str("serve:type").unwrap(),
        "trained",
        "{trained}"
    );
    assert_eq!(trained.get_u64("serve:version").unwrap(), 1);

    let extra = Options::new()
        .with("serve:model", "hurr")
        .with("pressio:abs", 1e-4);
    let begun = client.stream_begin("s-online", &extra).unwrap();
    assert!(begun.get_bool("stream:online").unwrap(), "{begun}");

    // each chunk reports the *real* achieved ratio from the frame
    // encoder's chunk record as stream:actual
    let mut source = Hurricane::with_dims(nx, ny, nz, steps)
        .with_fields(&["TC"])
        .unwrap();
    let header = StreamHeader {
        codec: "sz3".into(),
        dtype: Dtype::F32,
        inner_dims: vec![nx, ny],
        chunk_outer: nz,
        chained: false,
        codec_options: Options::new().with("pressio:abs", 1e-4),
    };
    let mut encoder = StreamEncoder::new(Vec::new(), header).unwrap();
    let mut errors = Vec::new();
    let mut max_version = 0u64;
    for t in 0..steps {
        let chunk = source.load_data(t).unwrap();
        let record = encoder.write_chunk(&chunk).unwrap();
        let actual = record.raw_len as f64 / record.comp_len as f64;
        let resp = client
            .stream_chunk(
                "s-online",
                &chunk,
                &Options::new().with("stream:actual", actual),
            )
            .unwrap();
        assert_eq!(
            resp.get_str("serve:type").unwrap(),
            "stream.prediction",
            "{resp}"
        );
        if let Ok(Some(err)) = resp.get_f64_opt("stream:online.error") {
            assert!(err.is_finite() && err >= 0.0);
            errors.push(err);
        }
        if let Ok(Some(v)) = resp.get_u64_opt("stream:online.version") {
            max_version = max_version.max(v);
        }
    }
    assert!(
        !errors.is_empty(),
        "online responses never reported a rolling error"
    );
    assert!(
        errors.last() <= errors.first(),
        "the rolling error rose over the stream: {errors:?}"
    );
    assert!(max_version >= 2, "no online refit bumped the model version");

    // refits went through the versioned store: new versions are listed,
    // and the daemon's counters saw them
    let models = client.models().unwrap();
    let listed = models.get_str_slice("serve:models").unwrap().to_vec();
    assert!(
        listed.iter().any(|m| m == &format!("hurr@{max_version}")),
        "{listed:?}"
    );
    let stats = client.stats().unwrap();
    assert!(stats.get_u64("serve:online.refits").unwrap() >= 1);

    let ended = client.stream_end("s-online").unwrap();
    assert!(ended.get_u64("stream:online.refits").unwrap() >= 1);
    assert!(ended.get_f64("stream:online.error").unwrap().is_finite());

    // the refined model serves normal predict traffic at its new version
    let data = source.load_data(0).unwrap();
    let pred = client
        .predict("hurr", &data, &Options::new().with("pressio:abs", 1e-4))
        .unwrap();
    assert!(pred
        .get_str("serve:model")
        .unwrap()
        .ends_with(&format!("@{max_version}")));

    client.shutdown().unwrap();
    handle.wait().unwrap();
}

#[test]
fn unacceptable_frames_get_a_typed_answer_then_a_close() {
    let dir = temp_dir("frame_cap");
    let mut config = local_config(&dir);
    config.max_frame = 64 << 10; // 64 KiB
    let handle = Server::start(config).unwrap();

    // a v2 prefix declaring a payload over the cap (but under the protocol
    // ceiling), with no body behind it: the declared length alone rejects
    let mut over_cap = protocol::MAGIC.to_vec();
    over_cap.extend_from_slice(&2u32.to_be_bytes());
    over_cap.extend_from_slice(&(1u64 << 20).to_be_bytes());
    // a whole v1 `[u32 len][JSON]` ping, as a client from before the
    // binary data plane would send it
    let v1_json = br#"{"entries":{"serve:op":{"Str":"ping"}}}"#;
    let mut v1 = (v1_json.len() as u32).to_be_bytes().to_vec();
    v1.extend_from_slice(v1_json);

    for (sent, why) in [(over_cap, "frame cap"), (v1, "unsupported wire version")] {
        let mut conn = handle.endpoint().connect().unwrap();
        std::io::Write::write_all(&mut conn, &sent).unwrap();
        std::io::Write::flush(&mut conn).unwrap();
        let reply = protocol::read_frame(&mut conn).unwrap().expect(why);
        assert!(protocol::is_error(&reply, code::BAD_REQUEST));
        assert!(
            reply.get_str("serve:message").unwrap().contains(why),
            "{reply}"
        );
        // the reply is the server's last word on this connection
        assert!(!matches!(protocol::read_frame(&mut conn), Ok(Some(_))));
    }

    // the daemon is still healthy for well-behaved clients
    let mut client = Client::connect(handle.endpoint()).unwrap();
    assert_eq!(
        client.ping().unwrap().get_str("serve:type").unwrap(),
        "pong"
    );

    client.shutdown().unwrap();
    handle.wait().unwrap();
}
