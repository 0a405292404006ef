//! Chaos: a resilient stream sender rides through a daemon **crash** and
//! respawn mid-stream without the caller seeing an error — and without
//! the online learner ever seeing a chunk twice.
//!
//! Like `chaos_crash`, this drives the real `pressio` binary as a child
//! process: the `crash` fault action (`serve:request.crash`) takes the
//! whole daemon down with exit code 86 while a stream session is open,
//! so the in-memory session is truly gone. The respawned process must
//! rebuild it from the durable session journal via `stream.resume`, and
//! the resumed stream's predictions must be byte-identical to an
//! unfailed run against the same model store.

#![cfg(unix)]

use pressio_core::Options;
use pressio_dataset::DatasetPlugin;
use pressio_serve::{Client, Endpoint, ResilientStreamSender, RetryPolicy};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("pressio_cli_chaos_stream_resume");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_daemon(socket: &Path, models: &Path, faults: Option<&str>) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pressio"));
    cmd.arg("serve")
        .arg("--socket")
        .arg(socket)
        .arg("--models")
        .arg(models)
        .arg("--online")
        .args(["--refit-every", "100"]) // never refit: predictions pinned
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    match faults {
        Some(spec) => cmd.env("PRESSIO_FAULTS", spec),
        None => cmd.env_remove("PRESSIO_FAULTS"),
    };
    cmd.spawn().expect("spawning pressio serve")
}

fn wait_for_socket(socket: &Path) {
    for _ in 0..100 {
        // probe an actual connection: the socket file exists between
        // bind() and listen(), when a connect still gets refused
        if std::os::unix::net::UnixStream::connect(socket).is_ok() {
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("daemon never listened on {}", socket.display());
}

fn train_request(model: &str) -> Options {
    Options::new()
        .with("serve:op", "train")
        .with("serve:model", model)
        .with("serve:scheme", "rahman2023")
        .with("serve:dims", vec![8u64, 8, 4])
        .with("serve:timesteps", 1u64)
        .with("serve:bounds", vec![1e-4])
}

fn chunks(n: usize) -> Vec<pressio_core::Data> {
    let mut source = pressio_dataset::Hurricane::with_dims(8, 8, 4, n)
        .with_fields(&["TC"])
        .unwrap();
    (0..n).map(|t| source.load_data(t).unwrap()).collect()
}

/// Deterministic per-chunk achieved ratio the learner observes; both the
/// reference run and the faulted run feed the same series.
fn actual(seq: u64) -> f64 {
    2.0 + seq as f64 / 10.0
}

fn extra() -> Options {
    Options::new()
        .with("serve:model", "hurr")
        .with("pressio:abs", 1e-4)
}

#[test]
fn resilient_sender_rides_through_daemon_crash_mid_stream() {
    let dir = temp_dir();
    let socket = dir.join("serve.sock");
    let models = dir.join("models");
    let data = chunks(6);

    // phase 1: fault-free daemon — train once, record the unfailed
    // reference stream (per-chunk predictions and rolling errors)
    let mut child = spawn_daemon(&socket, &models, None);
    wait_for_socket(&socket);
    let endpoint = Endpoint::Unix(socket.clone());
    let mut client = Client::connect(&endpoint).unwrap();
    client.call(&train_request("hurr")).unwrap();
    client.stream_begin("ref", &extra()).unwrap();
    let mut reference = Vec::new();
    for (t, chunk) in data.iter().enumerate() {
        let seq = t as u64 + 1;
        let resp = client
            .stream_chunk_at(
                "ref",
                seq,
                chunk,
                &Options::new().with("stream:actual", actual(seq)),
            )
            .unwrap();
        assert_eq!(
            resp.get_str("serve:type").unwrap(),
            "stream.prediction",
            "{resp}"
        );
        reference.push((
            resp.get_f64("serve:prediction").unwrap().to_bits(),
            resp.get_f64_opt("stream:online.error")
                .unwrap()
                .map(f64::to_bits),
        ));
    }
    let ended = client.stream_end("ref").unwrap();
    assert_eq!(ended.get_u64("stream:observed").unwrap(), 6);
    client.shutdown().unwrap();
    assert!(child.wait().unwrap().success());

    // phase 2: same model store, but the daemon is scheduled to crash on
    // the fourth request it accepts — begin, chunk 1, chunk 2, then the
    // process dies with chunk 3 accepted and unanswered
    let mut child = spawn_daemon(
        &socket,
        &models,
        Some("serve:request.crash=crash,after=3,times=1"),
    );
    wait_for_socket(&socket);

    // a supervisor: reap the crashed daemon, assert the injected exit
    // code, and respawn it (fault-free) on the same socket and store
    let respawner = {
        let (socket, models) = (socket.clone(), models.clone());
        std::thread::spawn(move || {
            let status = child.wait().expect("waiting for crashed daemon");
            assert_eq!(
                status.code(),
                Some(86),
                "daemon must exit with the injected crash code, got {status:?}"
            );
            spawn_daemon(&socket, &models, None)
        })
    };

    let mut sender = ResilientStreamSender::new(
        endpoint.clone(),
        "fault",
        RetryPolicy {
            max_attempts: 40,
            base_ms: 50,
            max_ms: 200,
        },
    );
    let begun = sender.begin(&extra()).unwrap();
    assert_eq!(
        begun.get_str("serve:type").unwrap(),
        "stream.begun",
        "{begun}"
    );

    let mut recovered = vec![(0u64, None); data.len()];
    while sender.next_seq() <= data.len() as u64 {
        let seq = sender.next_seq();
        let resp = sender
            .send_chunk(
                seq,
                &data[seq as usize - 1],
                &Options::new().with("stream:actual", actual(seq)),
            )
            .expect("sender must ride through the crash + respawn");
        if resp.get_str_opt("serve:type").unwrap() == Some("stream.rewound") {
            continue;
        }
        assert_eq!(
            resp.get_str("serve:type").unwrap(),
            "stream.prediction",
            "chunk {seq}: {resp}"
        );
        recovered[seq as usize - 1] = (
            resp.get_f64("serve:prediction").unwrap().to_bits(),
            resp.get_f64_opt("stream:online.error")
                .unwrap()
                .map(f64::to_bits),
        );
    }
    assert_eq!(
        recovered, reference,
        "stream resumed across a daemon crash diverged from the unfailed run"
    );
    assert!(
        sender.resumes() >= 1,
        "the sender must have resumed the journaled session (resumes: {})",
        sender.resumes()
    );

    // exactly-once: the respawned daemon rebuilt the learner from the
    // journal and re-observed only the unacked gap — 6 chunks, 6
    // observations, no chunk fed twice
    let ended = sender.end().unwrap();
    assert_eq!(
        ended.get_str("serve:type").unwrap(),
        "stream.ended",
        "{ended}"
    );
    assert_eq!(ended.get_u64("stream:chunks").unwrap(), 6);
    assert_eq!(
        ended.get_u64("stream:observed").unwrap(),
        6,
        "learner observations diverged from one-per-chunk"
    );

    let mut replacement = respawner.join().unwrap();
    let mut client = Client::connect(&endpoint).unwrap();
    client.shutdown().unwrap();
    let status = replacement.wait().unwrap();
    assert!(status.success(), "respawned daemon exited with {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
