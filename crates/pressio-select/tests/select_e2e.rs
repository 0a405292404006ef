//! End-to-end selection tests: determinism of the trial path, regret
//! against the both-codec oracle, and the full remote-consult loop against
//! a live `pressio-serve` daemon (train one model per codec → consult →
//! selected container → header-driven decompression).

use pressio_core::bound::finite_range_of;
use pressio_core::{Compressor, Data, Dtype, Options};
use pressio_dataset::{DatasetPlugin, Hurricane};
use pressio_predict::standard_compressors;
use pressio_select::{decode_header, Policy, SelectCodec, CODECS};
use pressio_serve::{Client, Endpoint, ServeConfig, Server};
use std::path::PathBuf;

fn field(index: usize) -> Data {
    Hurricane::with_dims(12, 12, 6, 1).load_data(index).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pressio_select_e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn selection_is_deterministic_byte_identical() {
    // same inputs + same (model-free) consult configuration must yield
    // byte-identical containers, across calls AND across codec instances
    let data = field(0);
    let a = SelectCodec::new().compress(&data).unwrap();
    let b = SelectCodec::new().compress(&data).unwrap();
    let again = SelectCodec::new();
    let c = again.compress(&data).unwrap();
    let d = again.compress(&data).unwrap();
    assert_eq!(a, b);
    assert_eq!(a, c);
    assert_eq!(a, d);
}

#[test]
fn different_fields_can_pick_different_winners() {
    // not a hard guarantee, but across the hurricane fields the selector
    // must at least vary its error bound or codec; an engine that always
    // answers the same thing is not selecting
    let mut hurricane = Hurricane::with_dims(12, 12, 6, 1);
    let codec = SelectCodec::new();
    let mut decisions = std::collections::BTreeSet::new();
    for i in 0..hurricane.len().min(8) {
        let data = hurricane.load_data(i).unwrap();
        let d = codec.decide(&data);
        decisions.insert(format!("{}@{:e}", d.codec, d.abs));
    }
    assert!(
        decisions.len() > 1,
        "selector answered identically for every field: {decisions:?}"
    );
}

#[test]
fn regret_against_the_both_codec_oracle_is_bounded() {
    // the oracle compresses each field with every (codec, bound) the policy
    // admits and keeps the best ratio; the selector chooses from the same
    // grid, so regret is the ranking error of the trial consult alone
    let mut hurricane = Hurricane::with_dims(16, 16, 8, 1);
    let (policy, select) = (Policy::default(), SelectCodec::new());
    let mut regrets = Vec::new();
    for i in 0..hurricane.len() {
        let data = hurricane.load_data(i).unwrap();
        let raw = data.size_in_bytes() as f64;
        let bounds = policy.feasible_bounds(finite_range_of(&data));
        let mut oracle = f64::NEG_INFINITY;
        for codec in CODECS {
            for &abs in &bounds {
                let mut comp = standard_compressors().build(codec).unwrap();
                comp.set_options(&Options::new().with("pressio:abs", abs))
                    .unwrap();
                oracle = oracle.max(raw / comp.compress(&data).unwrap().len() as f64);
            }
        }
        // what follows the decision-record header is the winner's stream
        let container = select.compress(&data).unwrap();
        let (record, offset) = decode_header(&container).unwrap();
        let selected = raw / (container.len() - offset) as f64;
        let regret = ((oracle - selected) / oracle * 100.0).max(0.0);
        assert!(
            regret <= 25.0,
            "field {i}: {}@{:e} gives {selected:.2}, the oracle {oracle:.2} ({regret:.2} %)",
            record.codec,
            record.abs
        );
        regrets.push(regret);
    }
    assert_eq!(regrets.len(), 13);
    let mean = regrets.iter().sum::<f64>() / regrets.len() as f64;
    assert!(mean <= 5.0, "mean regret {mean:.2} %: {regrets:?}");
}

#[test]
fn instrumented_wrapper_composes() {
    // SelectCodec is a Compressor like any other: metrics stacks see the
    // container (header included) transparently
    let data = field(1);
    let mut instrumented =
        pressio_core::compressor::InstrumentedCompressor::new(Box::new(SelectCodec::new()));
    let stream = instrumented.compress(&data).unwrap();
    let restored = instrumented.decompress(&stream, Dtype::F32, &[]).unwrap();
    assert_eq!(restored.dims(), data.dims());
}

#[test]
fn remote_consult_end_to_end() {
    let dir = temp_dir("remote");
    let handle = Server::start(ServeConfig::new(
        Endpoint::Tcp("127.0.0.1:0".into()),
        dir.join("models"),
    ))
    .unwrap();
    let endpoint = handle.endpoint().clone();
    let mut client = Client::connect(&endpoint).unwrap();

    // one trial-sampling model per codec: the daemon runs the sampling
    // server-side, so predictions exist for both SZ and ZFP
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
        assert_eq!(
            trained.get_str("serve:type").unwrap(),
            "trained",
            "{trained}"
        );
    }

    let mut codec = SelectCodec::new();
    codec
        .set_options(
            &Options::new()
                .with("select:consult", "remote")
                .with("select:endpoint", endpoint.to_string())
                .with("select:model", "sel")
                .with("select:psnr", 50.0),
        )
        .unwrap();
    let data = field(2);
    let container = codec.compress(&data).unwrap();
    let (record, _) = decode_header(&container).unwrap();
    assert_eq!(record.consult, "remote", "{record:?}");
    assert!(!record.fallback);
    assert!(
        record.model.starts_with("sel-") && record.model.ends_with("@1"),
        "winner should carry its model tag: {}",
        record.model
    );
    assert!(record.predicted_ratio > 0.0);

    // second compress reuses the pooled client (and the daemon's caches)
    let second = codec.compress(&data).unwrap();
    assert_eq!(container, second, "remote selection is deterministic too");

    // header-driven decompression: nothing but the container needed
    let restored = codec.decompress(&container, Dtype::F32, &[]).unwrap();
    assert_eq!(restored.dims(), data.dims());
    let max_err = data
        .as_f32()
        .unwrap()
        .iter()
        .zip(restored.as_f32().unwrap())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(max_err as f64 <= record.abs * 1.0000001);

    let mut client = Client::connect(&endpoint).unwrap();
    client.shutdown().unwrap();
    handle.wait().unwrap();
}
