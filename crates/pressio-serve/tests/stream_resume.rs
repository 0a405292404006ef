//! Resumable-stream tests over live sockets: journal rehydration after a
//! lost session (byte-identical continuations), idempotent chunk replay
//! with exactly-once online observations, typed resume rejections that
//! leave the session intact, idle-session reaping on every stream op,
//! and the resilient sender riding through injected overload, dropped
//! connections, session loss, and torn journal tails.
//!
//! The servers run in-process, so the process-global fault registry
//! reaches their handlers; every test takes the lock because a schedule
//! configured by one test must not fire on another's sockets.

use pressio_core::Options;
use pressio_dataset::{DatasetPlugin, Hurricane};
use pressio_serve::protocol::{code, op};
use pressio_serve::{Client, Endpoint, ResilientStreamSender, RetryPolicy, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("pressio_stream_resume")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn local_config(dir: &std::path::Path) -> ServeConfig {
    ServeConfig::new(Endpoint::Tcp("127.0.0.1:0".into()), dir.join("models"))
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

/// A single-field hurricane time series: `load_data(t)` is timestep `t`.
fn chunks(n: usize) -> Vec<pressio_core::Data> {
    let mut source = Hurricane::with_dims(8, 8, 4, n)
        .with_fields(&["TC"])
        .unwrap();
    (0..n).map(|t| source.load_data(t).unwrap()).collect()
}

fn extra() -> Options {
    Options::new()
        .with("serve:model", "hurr")
        .with("pressio:abs", 1e-4)
}

/// Stream every chunk on a fresh session and collect its predictions —
/// the unfailed reference a recovered stream must match byte for byte.
fn reference_predictions(
    client: &mut Client,
    stream_id: &str,
    data: &[pressio_core::Data],
) -> Vec<f64> {
    let begun = client.stream_begin(stream_id, &extra()).unwrap();
    assert_eq!(begun.get_str("serve:type").unwrap(), "stream.begun");
    let mut predictions = Vec::new();
    for (t, chunk) in data.iter().enumerate() {
        let resp = client
            .stream_chunk_at(stream_id, t as u64 + 1, chunk, &Options::new())
            .unwrap();
        assert_eq!(
            resp.get_str("serve:type").unwrap(),
            "stream.prediction",
            "{resp}"
        );
        predictions.push(resp.get_f64("serve:prediction").unwrap());
    }
    client.stream_end(stream_id).unwrap();
    predictions
}

#[test]
fn lost_session_is_rehydrated_from_the_journal_byte_identically() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let dir = temp_dir("rehydrate");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.call(&train_request("hurr")).unwrap();

    let data = chunks(6);
    let reference = reference_predictions(&mut client, "ref", &data);

    // the faulted stream: three chunks land, then the in-memory session
    // is lost (as a crashed-and-restarted daemon would lose it)
    let begun = client.stream_begin("fault", &extra()).unwrap();
    assert_eq!(begun.get_str("serve:type").unwrap(), "stream.begun");
    let token = begun.get_str("stream:token").unwrap().to_string();
    assert_eq!(begun.get_u64("stream:acked").unwrap(), 0);
    let mut recovered = Vec::new();
    for (t, chunk) in data.iter().take(3).enumerate() {
        let resp = client
            .stream_chunk_at("fault", t as u64 + 1, chunk, &Options::new())
            .unwrap();
        assert_eq!(resp.get_u64("stream:acked").unwrap(), t as u64 + 1);
        assert_eq!(resp.get_str("stream:token").unwrap(), token);
        recovered.push(resp.get_f64("serve:prediction").unwrap());
    }

    pressio_faults::configure("stream:session.lost=err,times=1").unwrap();
    let lost = client
        .stream_chunk_at("fault", 4, &data[3], &Options::new())
        .unwrap();
    assert_eq!(pressio_faults::fired("stream:session.lost"), 1);
    pressio_faults::clear();
    assert_eq!(
        lost.get_str("serve:code").unwrap(),
        code::NOT_FOUND,
        "{lost}"
    );

    // resume rehydrates from the durable journal: config, acked offset,
    // and the carried trailing slice for temporal features
    let resumed = client.stream_resume("fault", &token, 3).unwrap();
    assert_eq!(
        resumed.get_str("serve:type").unwrap(),
        "stream.resumed",
        "{resumed}"
    );
    assert_eq!(resumed.get_u64("stream:acked").unwrap(), 3);
    assert!(resumed.get_bool("stream:rehydrated").unwrap());
    for (t, chunk) in data.iter().enumerate().skip(3) {
        let resp = client
            .stream_chunk_at("fault", t as u64 + 1, chunk, &Options::new())
            .unwrap();
        assert_eq!(
            resp.get_str("serve:type").unwrap(),
            "stream.prediction",
            "{resp}"
        );
        recovered.push(resp.get_f64("serve:prediction").unwrap());
    }
    assert_eq!(
        recovered, reference,
        "resumed stream diverged from the unfailed run"
    );

    let stats = client.stats().unwrap();
    assert!(stats.get_u64("serve:stream.resumes").unwrap() >= 1);

    // end removes the journal: a later resume has nothing to rebuild from
    let ended = client.stream_end("fault").unwrap();
    assert_eq!(ended.get_u64("stream:chunks").unwrap(), 6);
    let gone = client.stream_resume("fault", &token, 0).unwrap();
    assert_eq!(gone.get_str("serve:code").unwrap(), code::NOT_FOUND);

    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replayed_chunks_are_idempotent_and_observed_exactly_once() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let dir = temp_dir("replay");
    let mut config = local_config(&dir);
    config.online = true;
    config.online_window = 32;
    config.online_refit_every = 100; // never refit: predictions stay pinned
    let handle = Server::start(config).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.call(&train_request("hurr")).unwrap();

    let data = chunks(4);
    client.stream_begin("replay", &extra()).unwrap();
    let mut firsts = Vec::new();
    for (t, chunk) in data.iter().enumerate() {
        let resp = client
            .stream_chunk_at(
                "replay",
                t as u64 + 1,
                chunk,
                &Options::new().with("stream:actual", 2.0 + t as f64),
            )
            .unwrap();
        assert_eq!(resp.get_str("serve:type").unwrap(), "stream.prediction");
        assert!(resp.get_bool_opt("stream:replayed").unwrap().is_none());
        firsts.push(resp);
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get_u64("serve:stream.observed").unwrap(), 4);

    // re-sending an already-acked chunk answers from the cache: same
    // prediction, same online fields, learner NOT re-fed
    for seq in [2u64, 4] {
        let replay = client
            .stream_chunk_at(
                "replay",
                seq,
                &data[seq as usize - 1],
                &Options::new().with("stream:actual", 99.0), // must be ignored
            )
            .unwrap();
        assert_eq!(
            replay.get_str("serve:type").unwrap(),
            "stream.prediction",
            "{replay}"
        );
        assert!(replay.get_bool("stream:replayed").unwrap());
        assert_eq!(replay.get_u64("stream:acked").unwrap(), 4);
        let first = &firsts[seq as usize - 1];
        assert_eq!(
            replay.get_f64("serve:prediction").unwrap(),
            first.get_f64("serve:prediction").unwrap(),
            "replayed prediction diverged for seq {seq}"
        );
        assert_eq!(
            replay.get_f64_opt("stream:online.error").unwrap(),
            first.get_f64_opt("stream:online.error").unwrap(),
            "replay must return the cached rolling error, not recompute it"
        );
    }
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get_u64("serve:stream.observed").unwrap(),
        4,
        "replays re-fed the online learner"
    );
    assert_eq!(stats.get_u64("serve:stream.replays").unwrap(), 2);

    // seq 0 and a skip-ahead seq are typed rejections, not silent appends
    let zero = client
        .stream_chunk_at("replay", 0, &data[0], &Options::new())
        .unwrap();
    assert_eq!(zero.get_str("serve:code").unwrap(), code::BAD_REQUEST);
    let skip = client
        .stream_chunk_at("replay", 7, &data[0], &Options::new())
        .unwrap();
    assert_eq!(skip.get_str("serve:code").unwrap(), code::BAD_REQUEST);

    let ended = client.stream_end("replay").unwrap();
    assert_eq!(ended.get_u64("stream:chunks").unwrap(), 4);
    assert_eq!(ended.get_u64("stream:observed").unwrap(), 4);

    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_rejections_are_typed_and_leave_the_session_intact() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let dir = temp_dir("reject");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.call(&train_request("hurr")).unwrap();

    let data = chunks(3);
    let begun = client.stream_begin("rj", &extra()).unwrap();
    let token = begun.get_str("stream:token").unwrap().to_string();
    for (t, chunk) in data.iter().take(2).enumerate() {
        client
            .stream_chunk_at("rj", t as u64 + 1, chunk, &Options::new())
            .unwrap();
    }

    // wrong token: rejected without touching the session
    let bad = client.stream_resume("rj", "deadbeefdeadbeef", 1).unwrap();
    assert_eq!(
        bad.get_str("serve:code").unwrap(),
        code::BAD_REQUEST,
        "{bad}"
    );
    assert!(bad.get_str("serve:message").unwrap().contains("token"));

    // past-end offset: typed rejection carrying the authoritative acked
    // offset so a rewinding client can recover
    let past = client.stream_resume("rj", &token, 9).unwrap();
    assert_eq!(
        past.get_str("serve:code").unwrap(),
        code::BAD_REQUEST,
        "{past}"
    );
    assert!(past.get_str("serve:message").unwrap().contains("past"));
    assert_eq!(past.get_u64("stream:acked").unwrap(), 2);

    // an unknown stream with no journal is a typed not-found
    let missing = client.stream_resume("never-begun", &token, 0).unwrap();
    assert_eq!(missing.get_str("serve:code").unwrap(), code::NOT_FOUND);

    // a rejected resume is retryable when injected as overload
    pressio_faults::configure("stream:resume.reject=err,times=1").unwrap();
    let shed = client.stream_resume("rj", &token, 2).unwrap();
    assert_eq!(pressio_faults::fired("stream:resume.reject"), 1);
    pressio_faults::clear();
    assert_eq!(shed.get_str("serve:code").unwrap(), code::OVERLOADED);

    // the session survived every rejection: a valid resume and the next
    // chunk still work
    let ok = client.stream_resume("rj", &token, 2).unwrap();
    assert_eq!(ok.get_str("serve:type").unwrap(), "stream.resumed");
    assert_eq!(ok.get_u64("stream:acked").unwrap(), 2);
    assert!(!ok.get_bool("stream:rehydrated").unwrap());
    let resp = client
        .stream_chunk_at("rj", 3, &data[2], &Options::new())
        .unwrap();
    assert_eq!(resp.get_str("serve:type").unwrap(), "stream.prediction");
    let ended = client.stream_end("rj").unwrap();
    assert_eq!(ended.get_u64("stream:chunks").unwrap(), 3);

    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_sessions_are_reaped_on_stream_ops_and_counted() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let dir = temp_dir("reap");
    let mut config = local_config(&dir);
    config.stream_idle_secs = 1;
    let handle = Server::start(config).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.call(&train_request("hurr")).unwrap();

    let data = chunks(1);
    client.stream_begin("idle", &extra()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.get_u64("serve:streams.active").unwrap(), 1);
    assert_eq!(stats.get_u64("serve:session.reaped").unwrap(), 0);

    std::thread::sleep(std::time::Duration::from_millis(1300));

    // ANY stream op sweeps — not just a begin that hits the session cap.
    // This begin both opens a new session and reaps the idle one.
    client.stream_begin("fresh", &extra()).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get_u64("serve:streams.active").unwrap(),
        1,
        "idle session survived the sweep"
    );
    assert_eq!(stats.get_u64("serve:session.reaped").unwrap(), 1);

    // the reaped session is gone from memory…
    let gone = client
        .stream_chunk_at("idle", 1, &data[0], &Options::new())
        .unwrap();
    assert_eq!(gone.get_str("serve:code").unwrap(), code::NOT_FOUND);
    // that an active session is refreshed by its own traffic is a clock
    // question, asked without sleeps in `stream.rs`'s
    // `a_committed_chunk_refreshes_a_session_against_the_sweep`

    client.stream_end("fresh").unwrap();
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resilient_sender_rides_through_overload_drop_and_session_loss() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let dir = temp_dir("sender");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.call(&train_request("hurr")).unwrap();

    let data = chunks(6);
    let reference = reference_predictions(&mut client, "ref", &data);

    let mut sender = ResilientStreamSender::new(
        handle.endpoint().clone(),
        "fault",
        RetryPolicy {
            max_attempts: 8,
            base_ms: 5,
            max_ms: 20,
        },
    );
    let begun = sender.begin(&extra()).unwrap();
    assert_eq!(begun.get_str("serve:type").unwrap(), "stream.begun");

    let mut recovered = vec![f64::NAN; data.len()];
    let mut sent = 0usize;
    // configure() replaces the registry (and its fired counts), so each
    // phase's count is read just before the next phase is armed
    let (mut overloads, mut drops) = (0, 0);
    let (mut armed_overload, mut armed_drop, mut armed_loss) = (false, false, false);
    while sender.next_seq() <= data.len() as u64 {
        let seq = sender.next_seq();
        match seq {
            // transient overload on chunk 2: retried in place
            2 if !armed_overload => {
                pressio_faults::configure("stream:chunk.overload=err,times=2").unwrap();
                armed_overload = true;
            }
            // the response for chunk 4 is severed mid-frame: the sender
            // reconnects, resumes, and the re-send answers from the
            // idempotent replay cache
            4 if !armed_drop => {
                overloads = pressio_faults::fired("stream:chunk.overload");
                pressio_faults::configure("serve:conn.drop=drop,times=1").unwrap();
                armed_drop = true;
            }
            // the in-memory session vanishes before chunk 5: the sender
            // resumes and the journal rehydrates it
            5 if !armed_loss => {
                drops = pressio_faults::fired("serve:conn.drop");
                pressio_faults::configure("stream:session.lost=err,times=1").unwrap();
                armed_loss = true;
            }
            _ => {}
        }
        let resp = sender
            .send_chunk(seq, &data[seq as usize - 1], &Options::new())
            .unwrap();
        if resp.get_str_opt("serve:type").unwrap() == Some("stream.rewound") {
            continue;
        }
        assert_eq!(
            resp.get_str("serve:type").unwrap(),
            "stream.prediction",
            "{resp}"
        );
        recovered[seq as usize - 1] = resp.get_f64("serve:prediction").unwrap();
        sent += 1;
    }
    let losses = pressio_faults::fired("stream:session.lost");
    pressio_faults::clear();
    assert_eq!(overloads, 2, "the overload failpoint must fire twice");
    assert_eq!(drops, 1, "the drop failpoint must fire once");
    assert_eq!(losses, 1, "the session-loss failpoint must fire once");
    assert!(sent >= data.len(), "not every chunk produced a response");
    assert_eq!(
        recovered, reference,
        "sender-recovered stream diverged from the unfailed run"
    );
    assert!(sender.resumes() >= 2, "resumes: {}", sender.resumes());
    assert!(sender.retries() >= 3, "retries: {}", sender.retries());

    let ended = sender.end().unwrap();
    assert_eq!(ended.get_str("serve:type").unwrap(), "stream.ended");
    assert_eq!(ended.get_u64("stream:chunks").unwrap(), 6);

    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_journal_tail_rewinds_the_sender_and_observes_each_chunk_once() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let dir = temp_dir("torn");
    let mut config = local_config(&dir);
    config.online = true;
    config.online_window = 32;
    config.online_refit_every = 100; // never refit: predictions stay pinned
    let handle = Server::start(config).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.call(&train_request("hurr")).unwrap();

    let data = chunks(6);
    // online reference run needs per-chunk actuals; any deterministic
    // series works as long as the faulted run repeats it
    let actual = |seq: u64| 2.0 + seq as f64 / 10.0;
    client.stream_begin("ref", &extra()).unwrap();
    let mut reference = Vec::new();
    for (t, chunk) in data.iter().enumerate() {
        let resp = client
            .stream_chunk_at(
                "ref",
                t as u64 + 1,
                chunk,
                &Options::new().with("stream:actual", actual(t as u64 + 1)),
            )
            .unwrap();
        reference.push((
            resp.get_f64("serve:prediction").unwrap(),
            resp.get_f64_opt("stream:online.error").unwrap(),
        ));
    }
    client.stream_end("ref").unwrap();

    let mut sender = ResilientStreamSender::new(
        handle.endpoint().clone(),
        "torn",
        RetryPolicy {
            max_attempts: 8,
            base_ms: 5,
            max_ms: 20,
        },
    );
    sender.begin(&extra()).unwrap();
    let mut recovered = vec![(f64::NAN, None); data.len()];
    let mut rewound = false;
    // configure() replaces the registry (and its fired counts): read the
    // torn count before arming the session loss
    let mut torn = 0;
    let (mut armed_torn, mut armed_loss) = (false, false);
    while sender.next_seq() <= data.len() as u64 {
        let seq = sender.next_seq();
        match seq {
            // chunk 3's journal record is torn mid-frame: the server
            // acks it in memory but the durable prefix ends at chunk 2
            3 if !armed_torn => {
                pressio_faults::configure("stream:journal.torn=torn,times=1").unwrap();
                armed_torn = true;
            }
            // …then the in-memory session is lost before chunk 5: the
            // resume finds acked=2 < progress=4, rejects past-end, and
            // the sender rewinds to re-send chunks 3 and 4
            5 if !armed_loss => {
                torn = pressio_faults::fired("stream:journal.torn");
                pressio_faults::configure("stream:session.lost=err,times=1").unwrap();
                armed_loss = true;
            }
            _ => {}
        }
        let resp = sender
            .send_chunk(
                seq,
                &data[seq as usize - 1],
                &Options::new().with("stream:actual", actual(seq)),
            )
            .unwrap();
        if resp.get_str_opt("serve:type").unwrap() == Some("stream.rewound") {
            rewound = true;
            assert!(
                sender.next_seq() < seq,
                "a rewound response must lower next_seq"
            );
            continue;
        }
        assert_eq!(
            resp.get_str("serve:type").unwrap(),
            "stream.prediction",
            "{resp}"
        );
        recovered[seq as usize - 1] = (
            resp.get_f64("serve:prediction").unwrap(),
            resp.get_f64_opt("stream:online.error").unwrap(),
        );
    }
    let losses = pressio_faults::fired("stream:session.lost");
    pressio_faults::clear();
    assert_eq!(torn, 1, "the torn-journal failpoint must fire once");
    assert_eq!(losses, 1, "the session-loss failpoint must fire once");
    assert!(rewound, "the sender never rewound past the torn tail");
    assert_eq!(
        recovered, reference,
        "rewound stream diverged from the unfailed run"
    );

    // exactly-once: the rehydrated learner was re-fed only the re-sent
    // gap, so the session observed each of the 6 chunks exactly once
    let ended = sender.end().unwrap();
    assert_eq!(ended.get_u64("stream:chunks").unwrap(), 6);
    assert_eq!(
        ended.get_u64("stream:observed").unwrap(),
        6,
        "learner observations diverged from one-per-chunk"
    );

    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The durable format does not depend on the wire: the `.psj` journal a
/// begin + two chunks leave behind is pinned byte for byte, by a digest
/// taken at the last commit that shipped buffers as JSON integer arrays.
/// The model is trained on `sz3` ratios, so training names its predictor:
/// what `auto` would choose for 8×8×4 fields is not the journal's format
/// (the digest was taken again with `lorenzo` named, and the commit before
/// `auto` began to choose from an estimate writes the same bytes).
#[test]
fn journal_written_through_the_wire_is_byte_identical_across_wire_versions() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let dir = temp_dir("journal_bytes");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let train = train_request("hurr").with("sz3:predictor", "lorenzo");
    client.call(&train).unwrap();

    let begin = extra().with("stream:token", "pinned-token");
    client.stream_begin("pinned", &begin).unwrap();
    for (t, chunk) in chunks(2).iter().enumerate() {
        let resp = client
            .stream_chunk_at("pinned", t as u64 + 1, chunk, &Options::new())
            .unwrap();
        assert_eq!(resp.get_u64("stream:acked").unwrap(), t as u64 + 1);
    }
    let journal = pressio_serve::SessionJournal::open(&dir.join("models")).unwrap();
    let bytes = std::fs::read(journal.path("pinned")).unwrap();
    assert_eq!(bytes.len(), 2913);
    assert_eq!(
        pressio_core::hash::to_hex(&pressio_core::hash::Sha256::digest(&bytes)),
        "3f1250e546c64e3b30a5e0f09060fdbd092fdaaf5ba32d0d9a2d2eec53b726f7"
    );

    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
