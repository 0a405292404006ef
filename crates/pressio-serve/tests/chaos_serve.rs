//! Chaos tests for the serve daemon: dropped connections healed by client
//! retry (byte-identical answers), slow-client stalls, corrupt-model
//! quarantine with version fallback, and the load-shedding circuit
//! breaker tripping and recovering.
//!
//! The servers here run in-process, so the process-global fault registry
//! reaches their connection loops; every test takes the lock because a
//! schedule configured by one test must not fire on another's sockets.

use pressio_core::Options;
use pressio_dataset::{DatasetPlugin, Hurricane};
use pressio_serve::protocol::{self, code, op};
use pressio_serve::{Client, Endpoint, RetryPolicy, ServeConfig, Server};
use std::path::PathBuf;
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pressio_chaos_serve").join(name);
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

fn sample_data() -> pressio_core::Data {
    Hurricane::with_dims(8, 8, 4, 1).load_data(0).unwrap()
}

#[test]
fn dropped_connection_is_healed_by_client_retry_byte_identical() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let dir = temp_dir("conn_drop");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.call(&train_request("hurr")).unwrap();

    let data = sample_data();
    let extra = Options::new().with("pressio:abs", 1e-4);
    let reference = client
        .predict("hurr", &data, &extra)
        .unwrap()
        .get_f64("serve:prediction")
        .unwrap();

    // the next response is severed mid-frame; call_resilient must
    // reconnect, resend, and land the identical prediction
    pressio_faults::configure("serve:conn.drop=drop,times=1").unwrap();
    let req = Client::predict_request("hurr", &data, &extra);
    let resp = client
        .call_resilient(&req, &RetryPolicy::default())
        .unwrap();
    let drops = pressio_faults::fired("serve:conn.drop");
    pressio_faults::clear();
    assert_eq!(drops, 1, "the drop failpoint must have fired");
    assert_eq!(resp.get_str("serve:type").unwrap(), "prediction", "{resp}");
    assert_eq!(
        resp.get_f64("serve:prediction").unwrap(),
        reference,
        "retried prediction diverged"
    );

    // call_resilient left the client on a fresh, working connection
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_connection_delays_but_completes() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let dir = temp_dir("conn_stall");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();

    pressio_faults::configure("serve:conn.stall=stall,ms=80,times=1").unwrap();
    let t0 = std::time::Instant::now();
    let pong = client.ping().unwrap();
    let elapsed = t0.elapsed();
    let stalls = pressio_faults::fired("serve:conn.stall");
    pressio_faults::clear();
    assert_eq!(pong.get_str("serve:type").unwrap(), "pong");
    assert_eq!(stalls, 1);
    assert!(elapsed.as_millis() >= 80, "stall not applied: {elapsed:?}");

    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_latest_model_is_quarantined_and_served_from_previous_version() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let dir = temp_dir("quarantine");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.call(&train_request("hurr")).unwrap();
    client.call(&train_request("hurr")).unwrap(); // version 2
    client.shutdown().unwrap();
    handle.wait().unwrap();

    // corrupt version 2 on disk
    let v2 = dir.join("models").join("hurr").join("000002.pmodel");
    let mut bytes = std::fs::read(&v2).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&v2, &bytes).unwrap();

    // a fresh daemon must fall back to version 1, not fail the request
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let resp = client
        .predict(
            "hurr",
            &sample_data(),
            &Options::new().with("pressio:abs", 1e-4),
        )
        .unwrap();
    assert_eq!(resp.get_str("serve:type").unwrap(), "prediction", "{resp}");
    assert_eq!(resp.get_str("serve:model").unwrap(), "hurr@1");
    assert!(
        dir.join("models")
            .join("hurr")
            .join("000002.pmodel.quarantined")
            .exists(),
        "corrupt artifact was not quarantined"
    );
    // version listings no longer show the quarantined artifact
    let listed = client.models().unwrap();
    assert_eq!(
        listed.get_str_slice("serve:models").unwrap().to_vec(),
        vec!["hurr@1".to_string()]
    );
    // pinning the quarantined version is an error, never a silent swap
    let resp = client
        .predict(
            "hurr@2",
            &sample_data(),
            &Options::new().with("pressio:abs", 1e-4),
        )
        .unwrap();
    assert_eq!(resp.get_str("serve:type").unwrap(), "error", "{resp}");

    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn breaker_trips_sheds_and_recovers() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let dir = temp_dir("breaker");
    let mut config = local_config(&dir);
    config.workers = 1;
    config.queue_capacity = 1;
    config.breaker_threshold = 2;
    config.breaker_cooldown_ms = 150;
    let handle = Server::start(config).unwrap();
    let endpoint = handle.endpoint().clone();
    let mut filler = Client::connect(&endpoint).unwrap();
    // poll the daemon until `key` reads `want`: the steps below wait on
    // what the daemon reports, not on how fast a busy host schedules them
    let await_stat = |client: &mut Client, key: &str, want: u64| {
        let give_up = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while client.stats().unwrap().get_u64(key).unwrap() != want {
            assert!(
                std::time::Instant::now() < give_up,
                "{key} never read {want}"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    };

    // occupy the single worker, then fill the queue slot
    let blocker = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&endpoint).unwrap();
            c.call(
                &Options::new()
                    .with("serve:op", op::SLEEP)
                    .with("serve:ms", 1_000u64),
            )
            .unwrap()
        })
    };
    await_stat(&mut filler, "serve:workers.busy", 1);
    let filler_pending = std::thread::spawn({
        let endpoint = endpoint.clone();
        move || {
            let mut c = Client::connect(&endpoint).unwrap();
            c.call(
                &Options::new()
                    .with("serve:op", op::SLEEP)
                    .with("serve:ms", 1u64),
            )
            .unwrap()
        }
    });
    await_stat(&mut filler, "serve:queue.depth", 1);

    // queue full: consecutive rejections trip the breaker (threshold 2),
    // after which requests are shed without touching the queue
    let mut saw_breaker_shed = false;
    for _ in 0..6 {
        let resp = filler
            .call(
                &Options::new()
                    .with("serve:op", op::SLEEP)
                    .with("serve:ms", 1u64),
            )
            .unwrap();
        assert!(protocol::is_error(&resp, code::OVERLOADED), "{resp}");
        if resp
            .get_str("serve:message")
            .unwrap_or("")
            .contains("circuit breaker")
        {
            saw_breaker_shed = true;
        }
    }
    assert!(saw_breaker_shed, "breaker never shed a request");
    let stats = filler.stats().unwrap();
    assert_eq!(stats.get_str("serve:breaker.state").unwrap(), "open");
    assert!(stats.get_u64("serve:breaker.trips").unwrap() >= 1);
    assert!(stats.get_u64("serve:breaker.shed").unwrap() >= 1);

    // drain the backlog, wait out the cooldown: the half-open probe
    // succeeds and the breaker closes
    blocker.join().unwrap();
    filler_pending.join().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(200));
    let resp = filler
        .call(
            &Options::new()
                .with("serve:op", op::SLEEP)
                .with("serve:ms", 1u64),
        )
        .unwrap();
    assert_eq!(resp.get_str("serve:type").unwrap(), "slept", "{resp}");
    let stats = filler.stats().unwrap();
    assert_eq!(stats.get_str("serve:breaker.state").unwrap(), "closed");

    filler.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_side_faults_are_healed_by_retry_byte_identical() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let dir = temp_dir("client_faults");
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    client.call(&train_request("hurr")).unwrap();

    let data = sample_data();
    let extra = Options::new().with("pressio:abs", 1e-4);
    let reference = client
        .predict("hurr", &data, &extra)
        .unwrap()
        .get_f64("serve:prediction")
        .unwrap();

    // each client-side loss window in turn: request lost before the
    // write, connection dead with the response in flight, response
    // arrived torn and discarded — call_resilient must heal all three
    // and land the identical prediction
    let req = Client::predict_request("hurr", &data, &extra);
    for spec in [
        "serve:client.request=err,times=1",
        "serve:client.conn=drop,times=1",
        "serve:client.response=drop,times=1",
    ] {
        pressio_faults::configure(spec).unwrap();
        let resp = client
            .call_resilient(&req, &RetryPolicy::default())
            .unwrap();
        let site = spec.split('=').next().unwrap();
        let fires = pressio_faults::fired(site);
        pressio_faults::clear();
        assert_eq!(fires, 1, "{site} must have fired exactly once");
        assert_eq!(resp.get_str("serve:type").unwrap(), "prediction", "{resp}");
        assert_eq!(
            resp.get_f64("serve:prediction").unwrap(),
            reference,
            "retried prediction diverged after {site}"
        );
    }

    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
