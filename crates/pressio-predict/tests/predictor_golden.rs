//! Golden digests of every bundled predictor, taken at the commit *before*
//! the log-ratio regressors and the bandwidth model came to share one fit,
//! predict and state. Each predictor is fit on a fixed set; its digest
//! covers the bytes of `state()`, the bits of its prediction on fixed probe
//! rows and the bits of any interval it gives around them. A fresh instance
//! then loads those state bytes — the very bytes a `ModelStore` artifact
//! saved at that commit holds, since their digest is pinned — and must
//! predict the same bits.
//!
//! The bandwidth model is the forest predictor over the bandwidth keys with
//! no augmentation and 30 trees, built here through the state it loads
//! from. Its predictions were checked at that commit against the
//! compression-time model of the day, bit for bit; that model's own JSON
//! layout (`{"forest", "feature_keys"}`) is retired and not pinned.
//!
//! No two training values of a feature here are adjacent floats: a forest
//! split between two such values leaves one child empty, its `NaN` leaf
//! saves as `null`, and the state no longer loads (ROADMAP, open items).
//!
//! A digest is FNV-1a over one `line` per state, prediction and interval;
//! on a mismatch the test prints the digest it computed, and
//! `PREDICTOR_GOLDEN_DUMP=1` prints the lines themselves.

use pressio_core::hash::fnv1a64;
use pressio_core::{Data, Options};
use pressio_predict::{
    bandwidth_features, ConformalForestPredictor, ForestPredictor, GpPredictor, IdentityPredictor,
    LinearPredictor, MlpPredictor, Predictor, SplinePredictor,
};
use std::fmt::Write;

const KEYS: [&str; 3] = ["k0", "k1", "k2"];

fn keys() -> Vec<String> {
    KEYS.map(String::from).to_vec()
}

/// Row `i` of a smooth, deterministic feature table.
fn row(i: usize) -> Options {
    let x = i as f64;
    let values = [
        (x * 0.37).sin() * 4.0 + 5.0,
        (x * 0.11).cos() * 2.0 + 1.0 + (i % 3) as f64 * 0.5,
        (x * 0.71).cos() * 3.0 + x * 0.01,
    ];
    let mut o = Options::new();
    for (k, v) in KEYS.iter().zip(values) {
        o.set(*k, v);
    }
    o
}

/// A positive target, log-linear in `k0`/`k1` with a wiggle in `k2`.
fn target(f: &Options) -> f64 {
    let v = |k| f.get_f64(k).unwrap();
    (1.5 + 0.4 * v("k0") - 0.3 * v("k1") + 0.1 * v("k2").sin()).exp2()
}

fn training_set(n: usize) -> (Vec<Options>, Vec<f64>) {
    let features: Vec<Options> = (0..n).map(row).collect();
    let targets = features.iter().map(target).collect();
    (features, targets)
}

/// Rows past the training set, and one far outside its range.
fn probes() -> Vec<Options> {
    let mut out: Vec<Options> = (48..54).map(row).collect();
    out.push(
        Options::new()
            .with("k0", 20.0)
            .with("k1", -3.0)
            .with("k2", 0.5),
    );
    out
}

/// The bandwidth model, untrained: the forest predictor over the bandwidth
/// keys, no augmentation, 30 trees.
const BANDWIDTH_STATE: &str = concat!(
    r#"{"keys":["bw:log_bytes","stat:std","stat:mean_abs_diff","#,
    r#""stat:zero_fraction","stat:lorenzo_mae","bw:log_abs"],"augmentation":0.0,"#,
    r#""params":{"num_trees":30,"tree":{"max_depth":12,"min_samples_split":4,"#,
    r#""max_features":null},"mtry":null,"seed":24301},"forest":null}"#
);

fn bandwidth_model() -> ForestPredictor {
    let mut p = ForestPredictor::new(vec![]);
    p.load_state(BANDWIDTH_STATE.as_bytes()).unwrap();
    p
}

/// Bandwidth features of buffers of growing size and roughness, timed by a
/// fixed law of bytes and roughness.
fn bandwidth_set() -> (Vec<Options>, Vec<f64>) {
    let mut features = Vec::new();
    let mut times = Vec::new();
    for k in 1..=12usize {
        let n = 16 * k;
        let data = Data::from_f32(
            vec![n, 16],
            (0..n * 16)
                .map(|i| ((i % n) as f32 * 0.03 * k as f32).sin())
                .collect(),
        );
        let f = bandwidth_features(&data, 1e-4);
        let bytes = f.get_f64("bw:log_bytes").unwrap().exp2();
        times.push(bytes / 1e4 * (1.0 + f.get_f64("stat:mean_abs_diff").unwrap()) + 0.5);
        features.push(f);
    }
    (features, times)
}

/// Every predictor, untrained, with the set it is fit on and its probes.
type Case = (
    &'static str,
    Box<dyn Predictor>,
    (Vec<Options>, Vec<f64>),
    Vec<Options>,
);

fn cases() -> Vec<Case> {
    let (k0, k12) = (|| "k0".to_string(), || keys()[1..].to_vec());
    let table: [(&str, Box<dyn Predictor>, usize); 9] = [
        ("identity", Box::new(IdentityPredictor::new(k0())), 48),
        ("linear", Box::new(LinearPredictor::new(keys())), 48),
        ("spline", Box::new(SplinePredictor::new(k0(), k12())), 48),
        (
            "spline_alone",
            Box::new(SplinePredictor::new(k0(), vec![])),
            48,
        ),
        ("forest", Box::new(ForestPredictor::new(keys())), 48),
        (
            "conformal",
            Box::new(ConformalForestPredictor::new(keys())),
            48,
        ),
        (
            "conformal_uncalibrated",
            Box::new(ConformalForestPredictor::new(keys())),
            4,
        ),
        ("gp", Box::new(GpPredictor::new(keys())), 48),
        ("mlp", Box::new(MlpPredictor::new(keys())), 48),
    ];
    let mut cases: Vec<Case> = table
        .into_iter()
        .map(|(name, p, n)| (name, p, training_set(n), probes()))
        .collect();
    let (features, times) = bandwidth_set();
    let probes = features.iter().step_by(3).cloned().collect();
    cases.push((
        "bandwidth",
        Box::new(bandwidth_model()),
        (features, times),
        probes,
    ));
    cases
}

/// A fresh instance of the same type, configured unlike the fitted one, so
/// everything it predicts comes from the state it loads.
fn blank(name: &str) -> Box<dyn Predictor> {
    match name {
        "identity" => Box::new(IdentityPredictor::new("")),
        "linear" => Box::new(LinearPredictor::new(vec![])),
        "spline" | "spline_alone" => Box::new(SplinePredictor::new("", vec![])),
        "forest" | "bandwidth" => Box::new(ForestPredictor::new(vec![])),
        "conformal" | "conformal_uncalibrated" => Box::new(ConformalForestPredictor::new(vec![])),
        "gp" => Box::new(GpPredictor::new(vec![])),
        "mlp" => Box::new(MlpPredictor::new(vec![])),
        other => panic!("no blank for {other}"),
    }
}

fn lines(name: &str, p: &dyn Predictor, probes: &[Options]) -> String {
    let mut out = String::new();
    let state = p.state().unwrap();
    writeln!(out, "{name} state {:016x} {}", fnv1a64(&state), state.len()).unwrap();
    let mut loaded = blank(name);
    loaded
        .load_state(&state)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    for (i, probe) in probes.iter().enumerate() {
        let value = p.predict(probe).unwrap();
        let again = loaded.predict(probe).unwrap();
        assert_eq!(
            value.to_bits(),
            again.to_bits(),
            "{name} probe {i} after load"
        );
        writeln!(out, "{name} {i} predict {:016x}", value.to_bits()).unwrap();
        for alpha in [0.1, 0.5] {
            let interval = p.predict_interval(probe, alpha);
            let after = loaded.predict_interval(probe, alpha);
            match interval {
                None => {
                    assert!(after.is_none(), "{name} probe {i} interval after load");
                    writeln!(out, "{name} {i} interval@{alpha} none").unwrap();
                }
                Some(iv) => {
                    let after = after.expect("interval after load");
                    let bits = |iv: &pressio_stats::Interval| {
                        [iv.lo, iv.hi, iv.coverage].map(f64::to_bits)
                    };
                    assert_eq!(
                        bits(&iv),
                        bits(&after),
                        "{name} probe {i} interval after load"
                    );
                    let [lo, hi, coverage] = bits(&iv);
                    writeln!(
                        out,
                        "{name} {i} interval@{alpha} {lo:016x} {hi:016x} {coverage:016x}"
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

const GOLDEN: [(&str, u64); 10] = [
    ("identity", 0x902d27b11c1b7720),
    ("linear", 0x81baa2314315be88),
    ("spline", 0x7c45d110b36b3af9),
    ("spline_alone", 0x53e7e84a810feece),
    ("forest", 0x13cffe37038f67a4),
    ("conformal", 0x735ff51557cee5bb),
    ("conformal_uncalibrated", 0x3e4cc7da18139b36),
    ("gp", 0x464454caf4869272),
    ("mlp", 0xf5c9f315bcc98aac),
    ("bandwidth", 0xf4adb79dda1fc06a),
];

#[test]
fn every_predictor_matches_the_digest_taken_before_the_shared_fit() {
    let dump = std::env::var_os("PREDICTOR_GOLDEN_DUMP").is_some();
    let mut wrong = Vec::new();
    for (name, mut p, (features, targets), probes) in cases() {
        p.fit(&features, &targets).unwrap();
        let text = lines(name, p.as_ref(), &probes);
        if dump {
            print!("{text}");
        }
        let digest = fnv1a64(text.as_bytes());
        let want = GOLDEN.iter().find(|(n, _)| *n == name).unwrap().1;
        if digest != want {
            wrong.push(format!("(\"{name}\", {digest:#018x})"));
        }
    }
    assert!(wrong.is_empty(), "digests moved: {}", wrong.join(", "));
}
