//! Chaos tests for the selection path: predictor-unavailable and
//! stale-model failpoints must degrade to the deterministic static policy
//! — byte-identical output, still roundtripping, with the fallback visible
//! as the `select:fallback` counter.
//!
//! The fault registry is process-global, so every test takes the lock and
//! clears schedules on entry and exit.

use pressio_core::{Compressor, Data, Dtype, Options};
use pressio_dataset::{DatasetPlugin, Hurricane};
use pressio_select::{decode_header, SelectCodec, FP_CONSULT_UNAVAILABLE, FP_MODEL_STALE};
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn field(index: usize) -> Data {
    Hurricane::with_dims(12, 12, 6, 1).load_data(index).unwrap()
}

#[test]
fn predictor_down_falls_back_to_static_byte_identical() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let data = field(0);

    // reference: the explicit static policy, no faults anywhere
    let mut static_codec = SelectCodec::new();
    static_codec
        .set_options(&Options::new().with("select:consult", "static"))
        .unwrap();
    let reference = static_codec.compress(&data).unwrap();
    let (ref_record, ref_offset) = decode_header(&reference).unwrap();
    assert_eq!(ref_record.consult, "static");
    assert!(!ref_record.fallback);

    // chaos: the trial consult path is down for the next two compressions
    let collector = std::sync::Arc::new(pressio_obs::Collector::new());
    pressio_obs::install(collector.clone());
    pressio_faults::configure(&format!("{FP_CONSULT_UNAVAILABLE}=err,times=2")).unwrap();
    let codec = SelectCodec::new();
    let first = codec.compress(&data).unwrap();
    let second = codec.compress(&data).unwrap();
    pressio_faults::clear();
    let _ = pressio_obs::uninstall();

    assert_eq!(first, second, "fallback output must be deterministic");
    let (record, offset) = decode_header(&first).unwrap();
    assert!(record.fallback, "decision must be audited as a fallback");
    assert_eq!(record.consult, "static");
    assert_eq!(
        (record.codec.as_str(), record.abs),
        (ref_record.codec.as_str(), ref_record.abs),
        "fallback must make the same choice the static policy makes"
    );
    assert_eq!(
        &first[offset..],
        &reference[ref_offset..],
        "fallback payload must be byte-identical to the static policy's"
    );

    // the degradation is observable: a counter, not a silent downgrade
    let report = collector.report();
    assert!(
        report.counters.get("select:fallback").copied().unwrap_or(0) >= 2,
        "fallbacks must be counted: {:?}",
        report.counters
    );
    assert!(report.counters.get("select:consult").copied().unwrap_or(0) >= 2);

    // the container still roundtrips with no out-of-band knowledge
    let restored = codec.decompress(&first, Dtype::F32, &[]).unwrap();
    assert_eq!(restored.dims(), data.dims());

    // with the schedule exhausted, consultation resumes
    let healed = codec.compress(&data).unwrap();
    let (healed_record, _) = decode_header(&healed).unwrap();
    assert!(!healed_record.fallback);
    assert_eq!(healed_record.consult, "trial");
}

#[test]
fn stale_model_failpoint_falls_back_in_remote_mode() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    pressio_faults::clear();
    let dir = std::env::temp_dir()
        .join("pressio_chaos_select")
        .join("stale");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let handle = pressio_serve::Server::start(pressio_serve::ServeConfig::new(
        pressio_serve::Endpoint::Tcp("127.0.0.1:0".into()),
        dir.join("models"),
    ))
    .unwrap();
    let endpoint = handle.endpoint().clone();
    let mut client = pressio_serve::Client::connect(&endpoint).unwrap();
    for codec in ["sz3", "zfp"] {
        let trained = client
            .call(
                &Options::new()
                    .with("serve:op", "train")
                    .with("serve:model", format!("sel-{codec}"))
                    .with("serve:scheme", "tao2019")
                    .with("serve:compressor", codec)
                    .with("serve:dims", vec![8u64, 8, 4])
                    .with("serve:timesteps", 1u64)
                    .with("serve:bounds", vec![1e-4]),
            )
            .unwrap();
        assert_eq!(trained.get_str("serve:type").unwrap(), "trained");
    }

    let mut codec = SelectCodec::new();
    codec
        .set_options(
            &Options::new()
                .with("select:consult", "remote")
                .with("select:endpoint", endpoint.to_string())
                .with("select:model", "sel"),
        )
        .unwrap();
    let data = field(3);

    // injected staleness: the daemon is healthy, but acting on the model
    // is vetoed — selection must degrade, not trust the prediction
    pressio_faults::configure(&format!("{FP_MODEL_STALE}=err,times=1")).unwrap();
    let container = codec.compress(&data).unwrap();
    pressio_faults::clear();
    let (record, _) = decode_header(&container).unwrap();
    assert!(record.fallback, "{record:?}");
    assert_eq!(record.consult, "static");

    // real staleness: pin a minimum model version above what is deployed
    codec
        .set_options(&Options::new().with("select:min-model-version", 5u64))
        .unwrap();
    let container = codec.compress(&data).unwrap();
    let (record, _) = decode_header(&container).unwrap();
    assert!(record.fallback, "version pin must reject v1 models");

    // daemon down entirely: connection-level unavailability also degrades
    let mut client = pressio_serve::Client::connect(&endpoint).unwrap();
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let container = codec.compress(&data).unwrap();
    let (record, _) = decode_header(&container).unwrap();
    assert!(record.fallback, "dead daemon must fall back, not error");
    let restored = codec.decompress(&container, Dtype::F32, &[]).unwrap();
    assert_eq!(restored.dims(), data.dims());
}
