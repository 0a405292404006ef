//! Property coverage for `stream.resume` offset boundaries.
//!
//! Across dtypes (f32/f64), chained/independent chunk series, and stream
//! lengths, a resume at any already-acked offset — zero, mid-stream, or
//! the final chunk — re-attaches and answers the authoritative acked
//! offset, a resume past the end is a typed rejection that leaves the
//! session fully usable, and a replay of the chunk right after a
//! mid-stream resume point is served idempotently from the cache.
//!
//! And for the durable half: the journal an online daemon writes for
//! begin + N chunks, with and without observations, rebuilds a session
//! that journals exactly those records again.

use pressio_core::{Data, Dtype, Options};
use pressio_serve::protocol::{code, op};
use pressio_serve::{Client, Endpoint, ServeConfig, Server};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One daemon for every case: proptest runs many cases per test and a
/// fresh server per case would dominate the runtime. The handle leaks on
/// purpose — the daemon lives until the test process exits.
fn endpoint() -> &'static Endpoint {
    static SERVER: OnceLock<Endpoint> = OnceLock::new();
    SERVER.get_or_init(|| {
        let dir = std::env::temp_dir().join("pressio_resume_prop");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = ServeConfig::new(Endpoint::Tcp("127.0.0.1:0".into()), dir.join("models"));
        let handle = Server::start(config).unwrap();
        let mut client = Client::connect(handle.endpoint()).unwrap();
        let trained = client
            .call(
                &Options::new()
                    .with("serve:op", op::TRAIN)
                    .with("serve:model", "hurr")
                    .with("serve:scheme", "rahman2023")
                    .with("serve:dims", vec![8u64, 8, 4])
                    .with("serve:timesteps", 1u64)
                    .with("serve:bounds", vec![1e-4]),
            )
            .unwrap();
        assert_eq!(trained.get_str("serve:type").unwrap(), "trained");
        let endpoint = handle.endpoint().clone();
        std::mem::forget(handle);
        endpoint
    })
}

/// The model store of the `--online` daemon behind [`online_endpoint`].
fn online_models() -> std::path::PathBuf {
    std::env::temp_dir()
        .join("pressio_resume_prop_online")
        .join("models")
}

/// A second shared daemon with online learning on (refit every 2
/// observations), so journals carry observations and refit versions.
fn online_endpoint() -> &'static Endpoint {
    static SERVER: OnceLock<Endpoint> = OnceLock::new();
    SERVER.get_or_init(|| {
        let _ = std::fs::remove_dir_all(online_models());
        let mut config = ServeConfig::new(Endpoint::Tcp("127.0.0.1:0".into()), online_models());
        config.online = true;
        config.online_refit_every = 2;
        let handle = Server::start(config).unwrap();
        let mut client = Client::connect(handle.endpoint()).unwrap();
        let trained = client
            .call(
                &Options::new()
                    .with("serve:op", op::TRAIN)
                    .with("serve:model", "hurr")
                    .with("serve:scheme", "rahman2023")
                    .with("serve:dims", vec![8u64, 8, 4])
                    .with("serve:timesteps", 1u64)
                    .with("serve:bounds", vec![1e-4]),
            )
            .unwrap();
        assert_eq!(trained.get_str("serve:type").unwrap(), "trained");
        let endpoint = handle.endpoint().clone();
        std::mem::forget(handle);
        endpoint
    })
}

fn unique_stream_id(tag: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    format!("prop-{tag}-{}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Deterministic chunk series. Independent mode: every chunk is a fresh
/// synthetic field. Chained mode: chunk `t` drifts from chunk `t-1`, so
/// the carried trailing slice (temporal features) actually varies.
fn chunk_series(n: usize, seed: u64, f32_input: bool, chained: bool) -> Vec<Data> {
    let dims = vec![8usize, 8, 2];
    let len: usize = dims.iter().product();
    let mut s = seed | 1;
    let mut prev = vec![0.0f64; len];
    (0..n)
        .map(|t| {
            let values: Vec<f64> = (0..len)
                .map(|i| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    let base = ((i + t * len) as f64 * 0.013).sin() * 6.0 + noise * 0.05;
                    if chained {
                        prev[i] * 0.9 + base * 0.1
                    } else {
                        base
                    }
                })
                .collect();
            prev.clone_from(&values);
            if f32_input {
                Data::from_f32(dims.clone(), values.into_iter().map(|v| v as f32).collect())
            } else {
                Data::from_f64(dims.clone(), values)
            }
        })
        .collect()
}

/// Which resume offset the case exercises.
#[derive(Debug, Clone, Copy)]
enum Offset {
    Zero,
    Mid,
    Final,
    PastEnd,
}

fn offset_strategy() -> impl Strategy<Value = Offset> {
    prop_oneof![
        Just(Offset::Zero),
        Just(Offset::Mid),
        Just(Offset::Final),
        Just(Offset::PastEnd),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn resume_offsets_behave_at_every_boundary(
        n in 2usize..5,
        seed in 1u64..u64::MAX,
        f32_input in any::<bool>(),
        chained in any::<bool>(),
        offset in offset_strategy(),
    ) {
        let mut client = Client::connect(endpoint()).unwrap();
        let id = unique_stream_id(if chained { "ch" } else { "ind" });
        let data = chunk_series(n, seed, f32_input, chained);
        prop_assert_eq!(data[0].dtype(), if f32_input { Dtype::F32 } else { Dtype::F64 });

        let begun = client
            .stream_begin(
                &id,
                &Options::new()
                    .with("serve:model", "hurr")
                    .with("pressio:abs", 1e-4),
            )
            .unwrap();
        prop_assert_eq!(begun.get_str("serve:type").unwrap(), "stream.begun");
        let token = begun.get_str("stream:token").unwrap().to_string();

        let mut predictions = Vec::new();
        for (t, chunk) in data.iter().enumerate() {
            let resp = client
                .stream_chunk_at(&id, t as u64 + 1, chunk, &Options::new())
                .unwrap();
            prop_assert_eq!(resp.get_str("serve:type").unwrap(), "stream.prediction");
            predictions.push(resp.get_f64("serve:prediction").unwrap());
        }

        let acked = n as u64;
        let claim = match offset {
            Offset::Zero => 0,
            Offset::Mid => acked / 2,
            Offset::Final => acked,
            Offset::PastEnd => acked + 1,
        };
        let resumed = client.stream_resume(&id, &token, claim).unwrap();
        match offset {
            Offset::Zero | Offset::Mid | Offset::Final => {
                prop_assert!(
                    resumed.get_str("serve:type").unwrap() == "stream.resumed",
                    "offset {:?}: {}", offset, resumed
                );
                prop_assert_eq!(resumed.get_u64("stream:acked").unwrap(), acked);
                prop_assert_eq!(resumed.get_str("stream:token").unwrap(), token.as_str());
                prop_assert!(!resumed.get_bool("stream:rehydrated").unwrap());

                // the chunk right after the claimed offset replays from
                // the idempotent cache with its original prediction
                if claim < acked {
                    let seq = claim + 1;
                    let replay = client
                        .stream_chunk_at(&id, seq, &data[seq as usize - 1], &Options::new())
                        .unwrap();
                    prop_assert_eq!(
                        replay.get_str("serve:type").unwrap(),
                        "stream.prediction"
                    );
                    prop_assert!(replay.get_bool("stream:replayed").unwrap());
                    prop_assert_eq!(
                        replay.get_f64("serve:prediction").unwrap(),
                        predictions[seq as usize - 1]
                    );
                }
            }
            Offset::PastEnd => {
                // typed rejection carrying the authoritative offset; the
                // session must remain fully usable
                prop_assert!(
                    resumed.get_str("serve:code").unwrap() == code::BAD_REQUEST,
                    "past-end resume must be rejected: {}", resumed
                );
                prop_assert!(resumed.get_str("serve:message").unwrap().contains("past"));
                prop_assert_eq!(resumed.get_u64("stream:acked").unwrap(), acked);
            }
        }

        // regardless of the resume outcome the session accepts the next
        // fresh chunk and a clean end
        let next = client
            .stream_chunk_at(&id, acked + 1, &data[0], &Options::new())
            .unwrap();
        prop_assert!(
            next.get_str("serve:type").unwrap() == "stream.prediction",
            "session unusable after {:?} resume: {}", offset, next
        );
        let ended = client.stream_end(&id).unwrap();
        prop_assert_eq!(ended.get_u64("stream:chunks").unwrap(), acked + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn journal_records_rebuild_a_session_that_journals_the_same_records(
        n in 1usize..8,
        seed in 1u64..u64::MAX,
        f32_input in any::<bool>(),
        chained in any::<bool>(),
        // bit t set: chunk t reports its observed outcome
        observed in 0u32..256,
    ) {
        let mut client = Client::connect(online_endpoint()).unwrap();
        let id = unique_stream_id("journal");
        let data = chunk_series(n, seed, f32_input, chained);
        let begun = client
            .stream_begin(
                &id,
                &Options::new()
                    .with("serve:model", "hurr")
                    .with("pressio:abs", 1e-4),
            )
            .unwrap();
        prop_assert_eq!(begun.get_str("serve:type").unwrap(), "stream.begun");
        let mut observations = 0u64;
        for (t, chunk) in data.iter().enumerate() {
            let mut extra = Options::new();
            if observed & (1 << t) != 0 {
                extra.set("stream:actual", 2.0 + t as f64);
                observations += 1;
            }
            let resp = client.stream_chunk_at(&id, t as u64 + 1, chunk, &extra).unwrap();
            prop_assert_eq!(resp.get_str("serve:type").unwrap(), "stream.prediction");
        }

        let journal = pressio_serve::SessionJournal::open(&online_models()).unwrap();
        let records = journal.load(&id).unwrap().unwrap();
        // begin + one record per chunk
        prop_assert_eq!(records.len(), n + 1);

        // records → session → records is the identity ...
        let again = pressio_serve::stream::rejournal(&id, &records).unwrap().unwrap();
        prop_assert_eq!(&again, &records);
        // ... for every acked prefix (what a torn tail leaves behind) ...
        let prefix = pressio_serve::stream::rejournal(&id, &records[..n]).unwrap().unwrap();
        prop_assert_eq!(&prefix[..], &records[..n]);
        // ... and only for this stream's journal
        prop_assert!(pressio_serve::stream::rejournal("other", &records).unwrap().is_none());
        prop_assert!(pressio_serve::stream::rejournal(&id, &records[1..]).unwrap().is_none());

        let ended = client.stream_end(&id).unwrap();
        prop_assert_eq!(ended.get_u64("stream:chunks").unwrap(), n as u64);
        prop_assert_eq!(ended.get_u64("stream:observed").unwrap(), observations);
    }
}
