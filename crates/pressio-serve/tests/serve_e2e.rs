//! End-to-end daemon tests over a real socket: train → persist → load →
//! predict, cache-hit fast path, overload backpressure, deadlines,
//! persistence across a daemon restart, reload invalidation and batch
//! coalescing.

use pressio_core::Options;
use pressio_dataset::{DatasetPlugin, Hurricane};
use pressio_serve::protocol::{self, code, op};
use pressio_serve::{Client, Endpoint, ServeConfig, Server};
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pressio_serve_e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn local_config(dir: &std::path::Path) -> ServeConfig {
    ServeConfig::new(Endpoint::Tcp("127.0.0.1:0".into()), dir.join("models"))
}

fn train_request(model: &str, scheme: &str) -> Options {
    Options::new()
        .with("serve:op", op::TRAIN)
        .with("serve:model", model)
        .with("serve:scheme", scheme)
        .with("serve:dims", vec![8u64, 8, 4])
        .with("serve:timesteps", 1u64)
        .with("serve:bounds", vec![1e-4])
}

fn sample_data(index: usize) -> pressio_core::Data {
    Hurricane::with_dims(8, 8, 4, 1).load_data(index).unwrap()
}

#[test]
fn train_persist_load_predict_roundtrip() {
    let dir = temp_dir("roundtrip");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();

    assert_eq!(
        client.ping().unwrap().get_str("serve:type").unwrap(),
        "pong"
    );

    // train a model on the trainable Rahman scheme
    let trained = client.call(&train_request("hurr", "rahman2023")).unwrap();
    assert_eq!(
        trained.get_str("serve:type").unwrap(),
        "trained",
        "{trained}"
    );
    assert_eq!(trained.get_u64("serve:version").unwrap(), 1);
    assert!(trained.get_u64("serve:samples").unwrap() > 0);

    // the artifact is on disk and listed
    let models = client.models().unwrap();
    let listed = models.get_str_slice("serve:models").unwrap().to_vec();
    assert_eq!(listed, vec!["hurr@1".to_string()]);

    // predict: first call computes features, second is a pure cache hit
    let data = sample_data(0);
    let extra = Options::new().with("pressio:abs", 1e-4);
    let cold = client.predict("hurr", &data, &extra).unwrap();
    assert_eq!(cold.get_str("serve:type").unwrap(), "prediction", "{cold}");
    let prediction = cold.get_f64("serve:prediction").unwrap();
    assert!(prediction.is_finite() && prediction > 0.0, "{prediction}");
    assert!(!cold.get_bool("serve:cached").unwrap());

    let computed_after_cold = client
        .stats()
        .unwrap()
        .get_u64("serve:features.computed")
        .unwrap();
    assert!(computed_after_cold >= 2, "agnostic + dependent features");

    let warm = client.predict("hurr", &data, &extra).unwrap();
    assert!(warm.get_bool("serve:cached").unwrap(), "{warm}");
    assert_eq!(warm.get_f64("serve:prediction").unwrap(), prediction);

    // the cache hit must have skipped feature extraction entirely
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get_u64("serve:features.computed").unwrap(),
        computed_after_cold,
        "cache hit recomputed features"
    );
    assert!(stats.get_u64("serve:prediction_cache.hits").unwrap() >= 1);

    // a different bound shares the agnostic features but not the
    // error-dependent ones or the prediction
    let other = client
        .predict("hurr", &data, &Options::new().with("pressio:abs", 1e-3))
        .unwrap();
    assert!(!other.get_bool("serve:cached").unwrap());
    let stats2 = client.stats().unwrap();
    assert_eq!(
        stats2.get_u64("serve:features.computed").unwrap(),
        computed_after_cold + 1,
        "only the error-dependent features should be recomputed"
    );

    // graceful shutdown drains and exits cleanly
    assert_eq!(
        client.shutdown().unwrap().get_str("serve:type").unwrap(),
        "bye"
    );
    handle.wait().unwrap();

    // a fresh daemon over the same store serves the persisted model
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let loaded = client.load("hurr").unwrap();
    assert_eq!(loaded.get_str("serve:type").unwrap(), "loaded", "{loaded}");
    assert_eq!(loaded.get_u64("serve:version").unwrap(), 1);
    let again = client.predict("hurr", &data, &extra).unwrap();
    assert_eq!(again.get_f64("serve:prediction").unwrap(), prediction);
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A buffer is read through one feature pass however its stages are split
/// over requests: both extracted for one request; the error-agnostic half a
/// feature-cache hit and only the error-dependent half extracted; two bounds
/// on one buffer coalesced into a batch, sharing the error-agnostic job and
/// the pass. Every split answers the same bits.
#[test]
fn every_split_of_a_buffers_stages_answers_the_same_bits() {
    let dir = temp_dir("stage_splits");
    let config = || {
        let mut config = local_config(&dir);
        config.workers = 1;
        config.batch_max = 8;
        config.queue_capacity = 16;
        config
    };
    let bound = |abs: f64| Options::new().with("pressio:abs", abs);
    let value = |resp: &Options| {
        assert_eq!(resp.get_str("serve:type").unwrap(), "prediction", "{resp}");
        assert!(!resp.get_bool("serve:cached").unwrap(), "{resp}");
        resp.get_f64("serve:prediction").unwrap().to_bits()
    };
    let counter = |client: &mut Client, key: &str| client.stats().unwrap().get_u64(key).unwrap();
    let (first, second) = (sample_data(1), sample_data(2));

    // one at a time: each buffer's second bound finds the error-agnostic
    // features cached and extracts the error-dependent ones alone
    let handle = Server::start(config()).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.call(&train_request("m", "rahman2023")).unwrap();
    let mut sequential = Vec::new();
    for data in [&first, &second] {
        for abs in [1e-4, 1e-3] {
            sequential.push(value(&client.predict("m", data, &bound(abs)).unwrap()));
        }
    }
    assert_eq!(counter(&mut client, "serve:features.computed"), 6);
    assert_eq!(counter(&mut client, "serve:feature_cache.hits"), 2);
    assert_ne!(sequential[0], sequential[1], "the bound is a feature");
    client.shutdown().unwrap();
    handle.wait().unwrap();

    // a fresh daemon over the same model: nothing is cached
    let handle = Server::start(config()).unwrap();
    let endpoint = handle.endpoint().clone();
    let mut client = Client::connect(&endpoint).unwrap();
    client.load("m").unwrap();
    // both stages of the looser bound extracted together
    let together = client.predict("m", &first, &bound(1e-3)).unwrap();
    assert_eq!(value(&together), sequential[1]);
    assert_eq!(counter(&mut client, "serve:features.computed"), 2);

    // both bounds of the other buffer in one batch: occupy the single
    // worker so the two requests pile up behind it
    let blocker = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            let sleep = Options::new()
                .with("serve:op", op::SLEEP)
                .with("serve:ms", 400u64);
            Client::connect(&endpoint).unwrap().call(&sleep).unwrap()
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(100));
    let batched: Vec<_> = [1e-4, 1e-3]
        .into_iter()
        .map(|abs| {
            let (endpoint, data, extra) = (endpoint.clone(), second.clone(), bound(abs));
            std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint).unwrap();
                client.predict("m", &data, &extra).unwrap()
            })
        })
        .collect();
    let batched: Vec<u64> = batched
        .into_iter()
        .map(|request| value(&request.join().unwrap()))
        .collect();
    blocker.join().unwrap();
    assert_eq!(batched, sequential[2..]);
    // one error-agnostic job for the two requests, one dependent job each
    assert_eq!(counter(&mut client, "serve:features.computed"), 2 + 3);
    assert_eq!(counter(&mut client, "serve:coalesced"), 1);
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn calculation_scheme_predicts_without_a_model() {
    let dir = temp_dir("schemeless");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let mut req = Options::new()
        .with("serve:op", op::PREDICT)
        .with("serve:scheme", "khan2023")
        .with("pressio:abs", 1e-3);
    protocol::data_into_request(&mut req, &sample_data(0));
    let resp = client.call(&req).unwrap();
    assert_eq!(resp.get_str("serve:type").unwrap(), "prediction", "{resp}");
    assert!(resp.get_f64("serve:prediction").unwrap().is_finite());
    // a trainable scheme without a model is a clear not-found error
    let mut req = Options::new()
        .with("serve:op", op::PREDICT)
        .with("serve:scheme", "rahman2023")
        .with("pressio:abs", 1e-3);
    protocol::data_into_request(&mut req, &sample_data(0));
    let resp = client.call(&req).unwrap();
    assert!(protocol::is_error(&resp, code::NOT_FOUND), "{resp}");
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A prediction-cache hit is answered from the content hash alone, before
/// the payload is decoded — and must never stand in for the error a
/// malformed request gets. Two malformed twins of a cached request: one
/// whose `data:dims` no longer match `data:bytes` (dims are in the hash,
/// so it cannot even find the entry), and one with the last dim moved to
/// the front of the payload, which shared the cached request's hash while
/// the hash concatenated dtype ‖ dims ‖ bytes unframed. The content tree
/// frames the dims and binds the length, so it no longer does; the check
/// ahead of the probe still turns it away.
#[test]
fn a_prediction_cache_hit_never_masks_a_malformed_request() {
    let dir = temp_dir("hit_vs_malformed");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let mut good = Options::new()
        .with("serve:op", op::PREDICT)
        .with("serve:scheme", "khan2023")
        .with("pressio:abs", 1e-3);
    protocol::data_into_request(&mut good, &sample_data(0));
    let good_sha = protocol::data_content_hash(&good).unwrap();

    let stale_dims = good.clone().with("data:dims", vec![8u64, 8, 3]);
    assert_ne!(protocol::data_content_hash(&stale_dims).unwrap(), good_sha);
    let mut shifted_bytes = 4u64.to_le_bytes().to_vec();
    shifted_bytes.extend_from_slice(good.get_bytes("data:bytes").unwrap());
    let moved_dim = good
        .clone()
        .with("data:dims", vec![8u64, 8])
        .with("data:bytes", shifted_bytes);
    assert_ne!(protocol::data_content_hash(&moved_dim).unwrap(), good_sha);
    let mut no_dtype = good.clone();
    no_dtype.remove("data:dtype");
    let malformed = [stale_dims, moved_dim, no_dtype];

    // what each gets from a daemon that has nothing cached
    let rejected_cold: Vec<Options> = malformed
        .iter()
        .map(|req| client.call(req).unwrap())
        .collect();
    for resp in &rejected_cold {
        assert_eq!(resp.get_str("serve:type").unwrap(), "error", "{resp}");
    }
    assert!(
        protocol::is_error(&rejected_cold[2], code::BAD_REQUEST),
        "{}",
        rejected_cold[2]
    );

    let cold = client.call(&good).unwrap();
    assert_eq!(cold.get_str("serve:type").unwrap(), "prediction", "{cold}");
    let warm = client.call(&good).unwrap();
    assert!(warm.get_bool("serve:cached").unwrap(), "{warm}");

    // the same answers, code and message, now that the entry is hot
    for (req, cold_answer) in malformed.iter().zip(&rejected_cold) {
        let mut resp = client.call(req).unwrap();
        resp.remove("serve:elapsed_ms");
        let mut cold_answer = cold_answer.clone();
        cold_answer.remove("serve:elapsed_ms");
        assert_eq!(resp, cold_answer);
    }
    assert!(client
        .call(&good)
        .unwrap()
        .get_bool("serve:cached")
        .unwrap());
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One wire byte per data byte: a 32 MiB buffer — about 112 MiB spelled
/// as a JSON integer array, past every ceiling this protocol has had —
/// crosses in a single frame. `tao2019` samples a fixed number of blocks,
/// so the request costs the wire and the content hash, not the buffer.
#[test]
fn a_32_mib_buffer_is_served_through_a_live_daemon() {
    let dir = temp_dir("large");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let n = 256 * 256 * 128;
    let values = (0..n).map(|i| (i as f32 * 1e-3).sin()).collect();
    let data = pressio_core::Data::from_f32(vec![256, 256, 128], values);
    assert_eq!(data.size_in_bytes(), 32 << 20);
    let mut req = Options::new()
        .with("serve:op", op::PREDICT)
        .with("serve:scheme", "tao2019")
        .with("serve:deadline_ms", 120_000u64)
        .with("pressio:abs", 1e-3);
    protocol::data_into_request(&mut req, &data);
    let frame = protocol::frame_bytes(&req).unwrap();
    assert!(
        frame.len() < (32 << 20) + 1024,
        "{} wire bytes",
        frame.len()
    );
    let resp = client.call(&req).unwrap();
    assert_eq!(resp.get_str("serve:type").unwrap(), "prediction", "{resp}");
    assert!(resp.get_f64("serve:prediction").unwrap() > 1.0);
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_answers_overloaded_not_unbounded_queueing() {
    let dir = temp_dir("overload");
    let mut config = local_config(&dir);
    config.workers = 1;
    config.queue_capacity = 1;
    let handle = Server::start(config).unwrap();
    // 8 concurrent sleeps against 1 worker + queue of 1: most must be
    // rejected immediately rather than queued without bound.
    let endpoint = handle.endpoint().clone();
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint).unwrap();
                client
                    .call(
                        &Options::new()
                            .with("serve:op", op::SLEEP)
                            .with("serve:ms", 300u64),
                    )
                    .unwrap()
            })
        })
        .collect();
    let responses: Vec<Options> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let slept = responses
        .iter()
        .filter(|r| r.get_str("serve:type") == Ok("slept"))
        .count();
    let overloaded = responses
        .iter()
        .filter(|r| protocol::is_error(r, code::OVERLOADED))
        .count();
    assert_eq!(slept + overloaded, 8, "{responses:?}");
    assert!(slept >= 1, "at least the first sleep must run");
    assert!(
        overloaded >= 5,
        "1 worker + queue of 1 cannot absorb 8 sleeps: {responses:?}"
    );
    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queued_request_past_deadline_answers_deadline_exceeded() {
    let dir = temp_dir("deadline");
    let mut config = local_config(&dir);
    config.workers = 1;
    config.queue_capacity = 8;
    let handle = Server::start(config).unwrap();
    let endpoint = handle.endpoint().clone();
    // occupy the single worker
    let blocker = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).unwrap();
            client
                .call(
                    &Options::new()
                        .with("serve:op", op::SLEEP)
                        .with("serve:ms", 400u64),
                )
                .unwrap()
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(100));
    // this one expires while queued behind the sleeper
    let mut client = Client::connect(&endpoint).unwrap();
    let resp = client
        .call(
            &Options::new()
                .with("serve:op", op::SLEEP)
                .with("serve:ms", 1u64)
                .with("serve:deadline_ms", 50u64),
        )
        .unwrap();
    assert!(protocol::is_error(&resp, code::DEADLINE_EXCEEDED), "{resp}");
    blocker.join().unwrap();
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// An op the daemon does not serve (`topology` among them: a daemon is one
/// process) is a bad request naming the op, and the connection survives.
#[test]
fn unknown_op_is_bad_request_and_connection_survives() {
    let dir = temp_dir("badop");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    for name in ["frobnicate", "topology"] {
        let resp = client.call(&Options::new().with("serve:op", name)).unwrap();
        assert!(protocol::is_error(&resp, code::BAD_REQUEST), "{resp}");
        let message = resp.get_str("serve:message").unwrap();
        assert!(message.contains(&format!("'{name}'")), "{message}");
        // the connection is still usable afterwards
        assert_eq!(
            client.ping().unwrap().get_str("serve:type").unwrap(),
            "pong"
        );
    }
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A models directory a multi-process deployment left a `.topology.json`
/// in still lists and loads its models.
#[test]
fn a_models_directory_with_a_topology_file_lists_and_loads_its_models() {
    let dir = temp_dir("old_topology");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let trained = client.call(&train_request("m", "rahman2023")).unwrap();
    assert_eq!(
        trained.get_str("serve:type").unwrap(),
        "trained",
        "{trained}"
    );
    client.shutdown().unwrap();
    handle.wait().unwrap();
    // the file as a two-shard deployment wrote it
    let topology = Options::new()
        .with("serve:type", "topology")
        .with("topology:generation", 1u64)
        .with("topology:base", "unix:/tmp/s.sock")
        .with(
            "topology:shards",
            vec![
                "unix:/tmp/s.sock.s0".to_string(),
                "unix:/tmp/s.sock.s1".into(),
            ],
        );
    let topology_file = dir.join("models").join(".topology.json");
    std::fs::write(topology_file, topology.to_json().unwrap()).unwrap();

    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let models = client.models().unwrap();
    assert_eq!(
        models.get_str_slice("serve:models").unwrap(),
        ["m@1"],
        "{models}"
    );
    let loaded = client.load("m").unwrap();
    assert_eq!(loaded.get_str("serve:type").unwrap(), "loaded", "{loaded}");
    assert_eq!(loaded.get_u64("serve:version").unwrap(), 1);
    let data = sample_data(0);
    let extra = Options::new().with("pressio:abs", 1e-4);
    let predicted = client.predict("m", &data, &extra).unwrap();
    assert_eq!(
        predicted.get_str("serve:model").unwrap(),
        "m@1",
        "{predicted}"
    );
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `train` generates its own fields from `serve:dims`; a field the daemon
/// could not take on the wire (more bytes than its frame cap, or a dims
/// product that overflows) is a bad request, not an allocation that
/// aborts the process, and the next request is answered.
#[test]
fn train_turns_down_a_field_larger_than_the_frame_cap() {
    let dir = temp_dir("train_dims");
    let mut config = local_config(&dir);
    config.max_frame = 4096;
    let handle = Server::start(config).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let train = |dims: Vec<u64>| train_request("m", "rahman2023").with("serve:dims", dims);
    for dims in [
        vec![1_000_000, 1_000_000, 100],
        vec![u64::MAX, 2, 1],
        vec![16, 16, 8],
    ] {
        let resp = client.call(&train(dims.clone())).unwrap();
        assert!(
            protocol::is_error(&resp, code::BAD_REQUEST),
            "{dims:?}: {resp}"
        );
        assert!(resp.to_string().contains("frame cap"), "{resp}");
    }
    // 8x8x4 f32 is 1 KiB: under the cap, and trained on the same connection
    let resp = client.call(&train(vec![8, 8, 4])).unwrap();
    assert_eq!(resp.get_str("serve:type").unwrap(), "trained", "{resp}");
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The wire lets in a buffer with an empty axis, and `tao2019` needs no
/// model to extract from it. Extraction runs on the pipeline's one worker
/// here, so the prediction that follows on the same connection is answered
/// only if that worker survived the first.
#[test]
fn an_empty_buffer_is_answered_and_the_next_request_too() {
    let dir = temp_dir("empty_buffer");
    let mut config = local_config(&dir);
    config.workers = 1;
    let handle = Server::start(config).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let tao = |data: &pressio_core::Data| {
        let mut req = Options::new()
            .with("serve:op", op::PREDICT)
            .with("serve:scheme", "tao2019")
            .with("pressio:abs", 1e-3);
        protocol::data_into_request(&mut req, data);
        req
    };
    let empty = pressio_core::Data::from_f32(vec![0], vec![]);
    let resp = client.call(&tao(&empty)).unwrap();
    let answer = resp.get_str("serve:type").unwrap();
    assert!(matches!(answer, "prediction" | "error"), "{resp}");
    let resp = client.call(&tao(&sample_data(0))).unwrap();
    assert_eq!(resp.get_str("serve:type").unwrap(), "prediction", "{resp}");
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `train` does timesteps × 13 fields × bounds of work, so each factor is
/// bounded: more timesteps than the dataset has, and a bound that is not a
/// positive number, are bad requests (the wire itself turns away NaN and
/// ±inf). 0 timesteps still means 1, and the same connection trains
/// afterwards.
#[test]
fn train_turns_down_unbounded_timesteps_and_bad_bounds() {
    let dir = temp_dir("train_work");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let train = || train_request("m", "rahman2023");
    let too_many = pressio_dataset::TIMESTEPS as u64 + 1;
    for timesteps in [too_many, 1 << 62, u64::MAX] {
        let resp = client
            .call(&train().with("serve:timesteps", timesteps))
            .unwrap();
        assert!(
            protocol::is_error(&resp, code::BAD_REQUEST),
            "{timesteps}: {resp}"
        );
        assert!(resp.to_string().contains("serve:timesteps"), "{resp}");
    }
    for bounds in [vec![0.0], vec![-1e-4], vec![1e-4, 1e-3, -0.0]] {
        let resp = client
            .call(&train().with("serve:bounds", bounds.clone()))
            .unwrap();
        assert!(
            protocol::is_error(&resp, code::BAD_REQUEST),
            "{bounds:?}: {resp}"
        );
        assert!(resp.to_string().contains("serve:bounds"), "{resp}");
    }
    // one timestep of the 13 fields at the one bound
    let resp = client.call(&train().with("serve:timesteps", 0u64)).unwrap();
    assert_eq!(resp.get_str("serve:type").unwrap(), "trained", "{resp}");
    assert_eq!(resp.get_u64("serve:samples").unwrap(), 13);
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A prediction-cache hit is answered on the connection thread that read
/// it: it does not wait for a worker held by a 2 s `sleep`, while misses
/// queue behind the sleeper and coalesce there. Every well-formed predict —
/// cold, warm, coalesced — is hashed and probes the prediction cache
/// exactly once, wherever it is answered; a malformed one is turned away
/// before either. A hit keeps the deadline rule and is shed while the
/// breaker is open.
#[test]
fn a_prediction_cache_hit_is_answered_on_its_connection_thread() {
    let dir = temp_dir("hit_inline");
    let mut config = local_config(&dir);
    config.workers = 1;
    config.breaker_threshold = 2;
    config.breaker_cooldown_ms = 600_000;
    let handle = Server::start(config).unwrap();
    let endpoint = handle.endpoint().clone();
    let mut client = Client::connect(&endpoint).unwrap();
    client.call(&train_request("m", "rahman2023")).unwrap();
    let counter = |client: &mut Client, key: &str| client.stats().unwrap().get_u64(key).unwrap();
    let cached = |resp: &Options| {
        assert_eq!(resp.get_str("serve:type").unwrap(), "prediction", "{resp}");
        resp.get_bool("serve:cached").unwrap()
    };
    let bound = Options::new().with("pressio:abs", 1e-4);
    let (hot, cold) = (sample_data(0), sample_data(1));
    assert!(!cached(&client.predict("m", &hot, &bound).unwrap()));

    let sleeper = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            let sleep = Options::new()
                .with("serve:op", op::SLEEP)
                .with("serve:ms", 2_000u64);
            Client::connect(&endpoint).unwrap().call(&sleep).unwrap()
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(100));
    let misses: Vec<_> = (0..2)
        .map(|_| {
            let (endpoint, data, bound) = (endpoint.clone(), cold.clone(), bound.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(&endpoint).unwrap();
                client.predict("m", &data, &bound).unwrap()
            })
        })
        .collect();
    while counter(&mut client, "serve:queue.depth") < 2 {
        assert!(!sleeper.is_finished(), "the misses never queued");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(cached(&client.predict("m", &hot, &bound).unwrap()));
    assert!(!sleeper.is_finished(), "the hit waited for the worker");
    assert!(misses.iter().all(|miss| !miss.is_finished()));
    let slept = sleeper.join().unwrap();
    assert_eq!(slept.get_str("serve:type").unwrap(), "slept", "{slept}");
    for miss in misses {
        assert!(!cached(&miss.join().unwrap()));
    }
    assert_eq!(counter(&mut client, "serve:coalesced"), 2);

    let hot_request = Client::predict_request("m", &hot, &bound);
    let mut no_dtype = hot_request.clone();
    no_dtype.remove("data:dtype");
    for malformed in [
        hot_request.clone().with("data:dims", vec![8u64, 8, 3]),
        no_dtype,
    ] {
        let resp = client.call(&malformed).unwrap();
        assert_eq!(resp.get_str("serve:type").unwrap(), "error", "{resp}");
    }
    // cold, two coalesced misses and a warm hit; not the malformed two
    let probed = |client: &mut Client| {
        let stats = client.stats().unwrap();
        let hits = stats.get_u64("serve:prediction_cache.hits").unwrap();
        let misses = stats.get_u64("serve:prediction_cache.misses").unwrap();
        assert_eq!(
            stats.get_u64("serve:predict.hashed").unwrap(),
            hits + misses
        );
        (hits, misses)
    };
    assert_eq!(probed(&mut client), (1, 3));

    // a hit past its deadline is late like any other answer; two of them
    // in a row open the breaker, which then sheds a hit before its probe
    let expired = hot_request.clone().with("serve:deadline_ms", 0u64);
    for _ in 0..2 {
        let resp = client.call(&expired).unwrap();
        assert!(protocol::is_error(&resp, code::DEADLINE_EXCEEDED), "{resp}");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get_str("serve:breaker.state").unwrap(), "open");
    let resp = client.call(&hot_request).unwrap();
    assert!(protocol::is_error(&resp, code::OVERLOADED), "{resp}");
    assert_eq!(probed(&mut client), (3, 3));
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `serve:alpha` predict carries the same conformal interval, bit for
/// bit, whether it is computed or answered from the prediction cache; a
/// predict without `serve:alpha` carries none.
#[test]
fn a_cached_prediction_carries_the_interval_it_was_asked_for() {
    let dir = temp_dir("cached_interval");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let trained = client.call(&train_request("g", "ganguli2023")).unwrap();
    assert_eq!(
        trained.get_str("serve:type").unwrap(),
        "trained",
        "{trained}"
    );
    let data = sample_data(0);
    let bound = Options::new().with("pressio:abs", 1e-4);
    let asked = bound.clone().with("serve:alpha", 0.1);
    let interval = |resp: &Options| {
        ["lo", "hi", "coverage"].map(|k| {
            resp.get_f64(&format!("serve:interval.{k}"))
                .unwrap_or_else(|_| panic!("no serve:interval.{k} in {resp}"))
                .to_bits()
        })
    };
    let cold = client.predict("g", &data, &asked).unwrap();
    assert!(!cold.get_bool("serve:cached").unwrap(), "{cold}");
    let warm = client.predict("g", &data, &asked).unwrap();
    assert!(warm.get_bool("serve:cached").unwrap(), "{warm}");
    assert_eq!(interval(&warm), interval(&cold));
    assert_eq!(f64::from_bits(interval(&cold)[2]), 0.9);
    let plain = client.predict("g", &data, &bound).unwrap();
    assert!(plain.get_bool("serve:cached").unwrap(), "{plain}");
    assert!(plain.get_f64("serve:interval.lo").is_err(), "{plain}");
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `serve:alpha` is a miscoverage rate: outside (0, 1) the interval it asks
/// for is false (coverage past 1 or below 0, or a finite interval claiming
/// all of it), so the request is turned down as `bad_request` — on a miss
/// and on a prediction-cache hit alike.
#[test]
fn an_alpha_outside_the_unit_interval_is_a_bad_request() {
    let dir = temp_dir("alpha_range");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let trained = client.call(&train_request("g", "ganguli2023")).unwrap();
    assert_eq!(
        trained.get_str("serve:type").unwrap(),
        "trained",
        "{trained}"
    );
    let bound = Options::new().with("pressio:abs", 1e-4);
    let refused = |client: &mut Client, data: &pressio_core::Data, alpha: f64| {
        let resp = client
            .predict("g", data, &bound.clone().with("serve:alpha", alpha))
            .unwrap();
        assert!(
            protocol::is_error(&resp, code::BAD_REQUEST),
            "alpha {alpha}: {resp}"
        );
        assert!(
            resp.get_str("serve:message")
                .unwrap()
                .contains("serve:alpha"),
            "{resp}"
        );
    };
    let (cold, warm) = (sample_data(1), sample_data(0));
    let warmed = client.predict("g", &warm, &bound).unwrap();
    assert!(!warmed.get_bool("serve:cached").unwrap(), "{warmed}");
    for alpha in [2.0, -1.0, 0.0, 1.0, f64::MAX] {
        refused(&mut client, &cold, alpha);
        refused(&mut client, &warm, alpha);
    }
    // the refusals cached nothing: the cold buffer is still cold, and an
    // alpha inside the range is answered, with its interval, from the cache
    let asked = bound.clone().with("serve:alpha", 0.25);
    let resp = client.predict("g", &cold, &asked).unwrap();
    assert!(!resp.get_bool("serve:cached").unwrap(), "{resp}");
    let resp = client.predict("g", &warm, &asked).unwrap();
    assert!(resp.get_bool("serve:cached").unwrap(), "{resp}");
    assert_eq!(resp.get_f64("serve:interval.coverage").unwrap(), 0.75);
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A NaN or infinite bound has no JSON form: the client's writer refuses
/// it, naming the key, and the connection it used to poison still
/// answers. A peer that writes a bound past f64's range gets a typed
/// `bad_request` naming it, on a connection that survives too.
#[test]
fn a_non_finite_bound_never_poisons_the_connection() {
    use std::io::Write;
    let dir = temp_dir("non_finite");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let data = sample_data(0);
    for abs in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let extra = Options::new().with("pressio:abs", abs);
        match client.predict("m", &data, &extra) {
            Err(pressio_core::Error::InvalidValue { key, .. }) => assert_eq!(key, "pressio:abs"),
            other => panic!("abs {abs}: {other:?}"),
        }
        assert_eq!(
            client.ping().unwrap().get_str("serve:type").unwrap(),
            "pong"
        );
    }

    let mut request = Client::predict_request("m", &data, &Options::new().with("pressio:abs", 1.5));
    request.remove("serve:model");
    request.set("serve:scheme", "jin2022");
    let frame = protocol::frame_bytes(&request).unwrap();
    let header_len = u32::from_be_bytes(frame[4..8].try_into().unwrap()) as usize;
    let header = String::from_utf8(frame[16..16 + header_len].to_vec()).unwrap();
    let header = header.replace(r#"{"F64":1.5}"#, r#"{"F64":1e999}"#);
    let mut raw = protocol::MAGIC.to_vec();
    raw.extend_from_slice(&(header.len() as u32).to_be_bytes());
    raw.extend_from_slice(&frame[8..16]);
    raw.extend_from_slice(header.as_bytes());
    raw.extend_from_slice(&frame[16 + header_len..]);
    let mut conn = handle.endpoint().connect().unwrap();
    conn.write_all(&raw).unwrap();
    let resp = protocol::read_frame(&mut conn).unwrap().unwrap();
    assert!(protocol::is_error(&resp, code::BAD_REQUEST), "{resp}");
    assert!(
        resp.get_str("serve:message")
            .unwrap()
            .contains("pressio:abs"),
        "{resp}"
    );
    protocol::write_frame(&mut conn, &Options::new().with("serve:op", op::PING)).unwrap();
    let pong = protocol::read_frame(&mut conn).unwrap().unwrap();
    assert_eq!(pong.get_str("serve:type").unwrap(), "pong");
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A buffer asked at a second bound finds its error-agnostic features in
/// the feature cache, held there as a flat row of the numbers the predictor
/// reads: for every scheme the daemon serves, on every compressor it
/// models, the answer is bit for bit what a daemon that never saw the
/// buffer answers.
#[test]
fn an_agnostic_feature_hit_answers_what_a_cold_daemon_answers() {
    let dir = temp_dir("agnostic_hit");
    let schemes = pressio_predict::standard_schemes();
    let mut cases = Vec::new();
    for name in schemes.names() {
        let scheme = schemes.build(name).unwrap();
        for comp in ["sz3", "zfp"].into_iter().filter(|c| scheme.supports(c)) {
            let trained = scheme.make_predictor().requires_training();
            cases.push((name, comp, trained));
        }
    }
    // a buffer of its own per case, so the cold daemon shares nothing
    let mut fields = Hurricane::with_dims(8, 8, 4, 2);
    assert!(fields.len() >= cases.len());
    let buffers: Vec<_> = (0..cases.len())
        .map(|i| fields.load_data(i).unwrap())
        .collect();
    let request = |i: usize, abs: f64| {
        let (scheme, comp, trained) = cases[i];
        let target = if trained {
            "serve:model"
        } else {
            "serve:scheme"
        };
        let model = format!("{scheme}-{comp}");
        let mut req = Options::new()
            .with("serve:op", op::PREDICT)
            .with(target, if trained { model.as_str() } else { scheme })
            .with("serve:compressor", comp)
            .with("pressio:abs", abs);
        protocol::data_into_request(&mut req, &buffers[i]);
        req
    };
    let value = |resp: &Options| {
        assert_eq!(resp.get_str("serve:type").unwrap(), "prediction", "{resp}");
        assert!(!resp.get_bool("serve:cached").unwrap(), "{resp}");
        resp.get_f64("serve:prediction").unwrap().to_bits()
    };

    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let mut second_bound = Vec::new();
    for (i, &(scheme, comp, trained)) in cases.iter().enumerate() {
        if trained {
            let train = train_request(&format!("{scheme}-{comp}"), scheme)
                .with("serve:compressor", comp)
                .with("serve:bounds", vec![1e-4, 1e-3]);
            let resp = client.call(&train).unwrap();
            assert_eq!(resp.get_str("serve:type").unwrap(), "trained", "{resp}");
        }
        value(&client.call(&request(i, 1e-3)).unwrap());
        let hits = |client: &mut Client| {
            let stats = client.stats().unwrap();
            stats.get_u64("serve:feature_cache.hits").unwrap()
        };
        let before = hits(&mut client);
        second_bound.push(value(&client.call(&request(i, 1e-4)).unwrap()));
        assert_eq!(hits(&mut client), before + 1, "{scheme} on {comp}");
    }
    client.shutdown().unwrap();
    handle.wait().unwrap();

    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    for (i, warm) in second_bound.into_iter().enumerate() {
        let cold = value(&client.call(&request(i, 1e-4)).unwrap());
        assert_eq!(cold, warm, "{} on {}", cases[i].0, cases[i].1);
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get_u64("serve:feature_cache.hits").unwrap(), 0);
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A miss reaches its worker typed, so no request key can hand the worker
/// a digest of the client's choosing: a predict whose `serve:probed.digest`
/// holds another buffer's digest — one whose prediction is cached — gets,
/// cold and then hot, exactly the replies of the same request without it.
#[test]
fn a_forged_probe_digest_is_inert() {
    let dir = temp_dir("forged_digest");
    let request = |index: usize| {
        let mut req = Options::new()
            .with("serve:op", op::PREDICT)
            .with("serve:scheme", "khan2023")
            .with("pressio:abs", 1e-3);
        protocol::data_into_request(&mut req, &sample_data(index));
        req
    };
    let (other, plain) = (request(1), request(0));
    let other_digest = protocol::data_content_digest(&other).unwrap();
    assert_ne!(protocol::data_content_digest(&plain).unwrap(), other_digest);
    let forged = plain
        .clone()
        .with("serve:probed.digest", other_digest.to_vec());
    // on a fresh daemon each: the other buffer's prediction cached, then
    // the request cold and hot
    let replies = |req: &Options| {
        let handle = Server::start(local_config(&dir)).unwrap();
        let mut client = Client::connect(handle.endpoint()).unwrap();
        let cached = client.call(&other).unwrap();
        assert_eq!(cached.get_str("serve:type").unwrap(), "prediction");
        let replies: Vec<Options> = (0..2)
            .map(|_| {
                let mut resp = client.call(req).unwrap();
                resp.remove("serve:elapsed_ms");
                resp
            })
            .collect();
        client.shutdown().unwrap();
        handle.wait().unwrap();
        replies
    };
    let (forged, plain) = (replies(&forged), replies(&plain));
    assert!(
        !forged[0].get_bool("serve:cached").unwrap(),
        "{}",
        forged[0]
    );
    assert!(forged[1].get_bool("serve:cached").unwrap(), "{}", forged[1]);
    assert_eq!(forged, plain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_invalidates_predictions_cached_under_old_model_version() {
    let dir = temp_dir("reload");
    let mut config = local_config(&dir);
    // a long TTL so the stale window is deterministic: without reload,
    // server A would keep resolving v1 for a minute
    config.latest_ttl_ms = 60_000;
    let handle_a = Server::start(config).unwrap();
    let mut client_a = Client::connect(handle_a.endpoint()).unwrap();
    client_a.call(&train_request("m", "rahman2023")).unwrap();
    let extra = Options::new().with("pressio:abs", 1e-4);
    let data = sample_data(0);
    let v1 = client_a.predict("m", &data, &extra).unwrap();
    assert_eq!(v1.get_str("serve:model").unwrap(), "m@1", "{v1}");
    assert!(client_a
        .predict("m", &data, &extra)
        .unwrap()
        .get_bool("serve:cached")
        .unwrap());

    // another server over the same store trains version 2
    let handle_b = Server::start(local_config(&dir)).unwrap();
    let mut client_b = Client::connect(handle_b.endpoint()).unwrap();
    let trained = client_b.call(&train_request("m", "rahman2023")).unwrap();
    assert_eq!(trained.get_u64("serve:version").unwrap(), 2);

    // server A still serves v1 from its TTL'd resolution + cache
    let stale = client_a.predict("m", &data, &extra).unwrap();
    assert_eq!(stale.get_str("serve:model").unwrap(), "m@1");
    assert!(stale.get_bool("serve:cached").unwrap());
    // a prediction no model made, which no reload makes stale
    let mut analytic = Options::new()
        .with("serve:op", op::PREDICT)
        .with("serve:scheme", "khan2023")
        .with("pressio:abs", 1e-4);
    protocol::data_into_request(&mut analytic, &data);
    assert!(!client_a
        .call(&analytic)
        .unwrap()
        .get_bool("serve:cached")
        .unwrap());

    // reload: after this, nothing cached under v1 may be served
    let reloaded = client_a
        .call(&Options::new().with("serve:op", op::RELOAD))
        .unwrap();
    assert_eq!(
        reloaded.get_str("serve:type").unwrap(),
        "reloaded",
        "{reloaded}"
    );
    assert!(reloaded.get_u64("serve:models.dropped").unwrap() >= 1);
    // exactly the one prediction m@1 made
    assert_eq!(reloaded.get_u64("serve:predictions.purged").unwrap(), 1);
    assert!(client_a
        .call(&analytic)
        .unwrap()
        .get_bool("serve:cached")
        .unwrap());
    let fresh = client_a.predict("m", &data, &extra).unwrap();
    assert_eq!(
        fresh.get_str("serve:model").unwrap(),
        "m@2",
        "reload must not serve predictions cached under the old version: {fresh}"
    );
    assert!(!fresh.get_bool("serve:cached").unwrap());

    client_a.shutdown().unwrap();
    handle_a.wait().unwrap();
    client_b.shutdown().unwrap();
    handle_b.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_buffers_in_one_batch_coalesce_into_one_extraction() {
    let dir = temp_dir("coalesce");
    let mut config = local_config(&dir);
    config.workers = 1;
    config.batch_max = 8;
    config.queue_capacity = 16;
    let handle = Server::start(config).unwrap();
    let endpoint = handle.endpoint().clone();
    let mut client = Client::connect(&endpoint).unwrap();
    client.call(&train_request("m", "rahman2023")).unwrap();
    let extra = Options::new().with("pressio:abs", 1e-4);

    // occupy the single worker so the predicts pile into one batch
    let blocker = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            Client::connect(&endpoint)
                .unwrap()
                .call(
                    &Options::new()
                        .with("serve:op", op::SLEEP)
                        .with("serve:ms", 400u64),
                )
                .unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    // four connections submit the SAME buffer while the worker sleeps
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let endpoint = endpoint.clone();
            let extra = extra.clone();
            std::thread::spawn(move || {
                Client::connect(&endpoint)
                    .unwrap()
                    .predict("m", &sample_data(0), &extra)
                    .unwrap()
            })
        })
        .collect();
    let responses: Vec<Options> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    blocker.join().unwrap();
    let first = responses[0].get_f64("serve:prediction").unwrap();
    for resp in &responses {
        assert_eq!(resp.get_str("serve:type").unwrap(), "prediction", "{resp}");
        assert_eq!(resp.get_f64("serve:prediction").unwrap(), first);
    }
    let stats = client.stats().unwrap();
    // 4 identical cold requests need agnostic+dependent features exactly
    // once: 2 extractions ran, 6 were coalesced away
    assert_eq!(
        stats.get_u64("serve:features.computed").unwrap(),
        2,
        "identical buffers must extract once: {stats}"
    );
    assert_eq!(stats.get_u64("serve:coalesced").unwrap(), 6, "{stats}");
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
