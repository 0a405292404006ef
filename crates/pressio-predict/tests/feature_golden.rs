//! Golden digests of every feature of every registered scheme, taken at the
//! commit *before* feature extraction moved onto the shared typed
//! [`FeaturePass`](pressio_predict::features::FeaturePass): the pass, the
//! generic lane kernels under it and the ring-buffered Lorenzo estimate must
//! reproduce each feature bit for bit, on every dtype, rank and bound, with
//! and without non-finite values.
//!
//! `tao2019` was taken again when SZ's `auto` began to choose its predictor
//! from an estimate: the scheme's one feature is a real `sz3` trial compress,
//! and two of its 48 lines moved with the choice (`tao:sampled_ratio` of
//! `[9, 7, 5, 3]` at 1e-4, now Lorenzo's: f32 0.6912 → 0.6779, f64 1.3798
//! → 1.3546).
//!
//! `khan2023` was taken again in the same change, when its SZ surrogate
//! stopped sampling more than the buffer: a case that twelve 12ⁿ blocks
//! would cover is now quantized once, whole. 20 of its 60 lines moved — the
//! `sz3` lines of `[33, 21]`, `[19, 13, 9]`, `[17, 11, 7]`, `[64]` and
//! `[15, 9, 4]`, whose blocks were offset windows, each with an unpredicted
//! first row, column and plane of its own (`f32[19, 13, 9]` at 1e-4: 0.356 →
//! 0.667). `[9, 7, 5, 3]` was the whole buffer twelve times and reads the
//! same once; `[257]` and `u8[300]` are larger than their blocks; no `zfp`
//! line moved.
//!
//! A digest is FNV-1a over one `case key=bits` line per feature; on a
//! mismatch the test prints the digest it computed, and
//! `FEATURE_GOLDEN_DUMP=1` prints the lines themselves.

use pressio_core::hash::fnv1a64;
use pressio_core::{Compressor, Data, Options, Value};
use pressio_predict::features::{
    global_stats, svd_features, temporal_delta_features, variogram_features, FeaturePass,
};
use pressio_predict::{bandwidth_features, standard_compressors, standard_schemes};
use std::fmt::Write;

const BOUNDS: [f64; 2] = [1e-4, 1e-2];

fn value(i: usize) -> f64 {
    let x = i as f64;
    let lift = if i.is_multiple_of(11) { 0.0 } else { 0.25 };
    (x * 0.113).sin() * 3.5 + (x * 0.017).cos() + lift
}

/// A smooth field with exact zeros, optionally salted with every kind of
/// value the finiteness masks exist for.
fn values(n: usize, dirty: bool) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n)
        .map(|i| if i.is_multiple_of(11) { 0.0 } else { value(i) })
        .collect();
    if dirty {
        v[1] = f64::NAN;
        v[n / 3] = f64::INFINITY;
        v[n / 2] = f64::NEG_INFINITY;
        v[n / 2 + 1] = -0.0;
        v[n - 2] = -0.0;
        v[n - 1] = f64::NAN;
    }
    v
}

fn cases() -> Vec<(String, Data)> {
    let shapes: [(&[usize], bool); 6] = [
        (&[257], false),
        (&[33, 21], false),
        (&[19, 13, 9], false),
        (&[9, 7, 5, 3], false),
        (&[17, 11, 7], true),
        (&[64], true),
    ];
    let mut out = Vec::new();
    for (dims, dirty) in shapes {
        let n: usize = dims.iter().product();
        let v = values(n, dirty);
        let tag = format!("{dims:?}{}", if dirty { "+nonfinite" } else { "" });
        out.push((
            format!("f32{tag}"),
            Data::from_f32(dims.to_vec(), v.iter().map(|&x| x as f32).collect()),
        ));
        out.push((format!("f64{tag}"), Data::from_f64(dims.to_vec(), v)));
    }
    // the integer views widen in-register too
    let ints: Vec<i32> = (0..15 * 9 * 4)
        .map(|i| (value(i) * 40.0) as i32 - 7)
        .collect();
    out.push((
        "i64[15, 9, 4]".into(),
        Data::from_i64(
            vec![15, 9, 4],
            ints.iter().map(|&x| x as i64 * 1_000_003).collect(),
        ),
    ));
    out.push(("i32[15, 9, 4]".into(), Data::from_i32(vec![15, 9, 4], ints)));
    out.push((
        "u8[300]".into(),
        Data::from_bytes((0..300).map(|i| (value(i) * 30.0) as i32 as u8).collect()),
    ));
    out
}

fn dump(out: &mut String, case: &str, features: &pressio_core::Result<Options>) {
    match features {
        Err(_) => writeln!(out, "{case} error").unwrap(),
        Ok(features) => {
            for (key, v) in features.iter() {
                match v {
                    Value::F64(x) => writeln!(out, "{case} {key}={:016x}", x.to_bits()),
                    other => writeln!(out, "{case} {key}={other:?}"),
                }
                .unwrap()
            }
        }
    }
}

fn configured(id: &str, abs: f64) -> Box<dyn Compressor> {
    let mut comp = standard_compressors().build(id).unwrap();
    comp.set_options(&Options::new().with("pressio:abs", abs))
        .unwrap();
    comp
}

/// The parent panicked in the SVD's singular-value sort on a rank-1 buffer
/// holding a NaN (the degenerate square-matrix path did not mask non-finite
/// values), so there is no parent digest to hold that one input to;
/// `features::tests::svd_masks_non_finite_on_the_degenerate_path` covers it.
fn svd_panicked_at_parent(case: &str) -> bool {
    case.ends_with("[64]+nonfinite")
}

fn scheme_lines(name: &str) -> String {
    let scheme = standard_schemes().build(name).unwrap();
    let mut out = String::new();
    for (case, data) in cases() {
        if name == "underwood2023" && svd_panicked_at_parent(&case) {
            continue;
        }
        dump(
            &mut out,
            &format!("{case} agnostic"),
            &scheme.error_agnostic_features(&data),
        );
        for id in ["sz3", "zfp"] {
            if !scheme.supports(id) {
                continue;
            }
            for abs in BOUNDS {
                dump(
                    &mut out,
                    &format!("{case} {id}@{abs:e}"),
                    &scheme.error_dependent_features(&data, configured(id, abs).as_ref()),
                );
            }
        }
    }
    out
}

/// The feature groups no registered scheme reaches through its own stages.
fn group_lines() -> String {
    let mut out = String::new();
    let all = cases();
    for (case, data) in &all {
        if !svd_panicked_at_parent(case) {
            // the three error-agnostic groups, merged off one pass
            let pass = FeaturePass::new(data);
            let mut all = Options::new();
            for group in [global_stats, variogram_features, svd_features] {
                all.merge_from(&group(&pass));
            }
            dump(&mut out, &format!("{case} all"), &Ok(all));
        }
        dump(
            &mut out,
            &format!("{case} bandwidth"),
            &Ok(bandwidth_features(data, 1e-3)),
        );
    }
    for pair in all.windows(2) {
        dump(
            &mut out,
            &format!("{}->{} temporal", pair[0].0, pair[1].0),
            &Ok(temporal_delta_features(
                &FeaturePass::new(&pair[0].1),
                &FeaturePass::new(&pair[1].1),
            )),
        );
    }
    out
}

const GOLDEN: [(&str, u64); 11] = [
    ("tao2019", 0x62fc34ef54bbebd4),
    ("krasowska2021", 0x356f0e25c4e9a9c4),
    ("underwood2023", 0x73d850721f41c210),
    ("jin2022", 0x0accac012c63e7fd),
    ("khan2023", 0x3ac7c5a6232ac9a6),
    ("rahman2023", 0xadc1a91c3625a44c),
    ("ganguli2023", 0x049f4c1381a055c4),
    ("lu2018", 0xc608d8e8609c1ddc),
    ("qin2020", 0xa0ca132e86fb7ad8),
    ("wang2023", 0xa09e4b4236a51c85),
    ("groups", 0x2aca0266419133f0),
];

#[test]
fn every_feature_matches_the_digest_taken_at_the_parent_commit() {
    assert_eq!(
        standard_schemes().len() + 1,
        GOLDEN.len(),
        "a registered scheme has no digest"
    );
    let mut wrong = Vec::new();
    for (name, golden) in GOLDEN {
        let lines = if name == "groups" {
            group_lines()
        } else {
            scheme_lines(name)
        };
        if std::env::var_os("FEATURE_GOLDEN_DUMP").is_some() {
            print!("{lines}");
        }
        let digest = fnv1a64(lines.as_bytes());
        if digest != golden {
            wrong.push(format!("(\"{name}\", {digest:#018x})"));
        }
    }
    assert!(wrong.is_empty(), "features moved: {}", wrong.join(", "));
}

/// `Scheme::features` reads both stages through one pass; every scheme ×
/// codec × case × bound must give, bit for bit, the error-agnostic features
/// with the error-dependent ones merged over them, each stage read on a pass
/// of its own.
#[test]
fn one_pass_features_equal_the_stages_read_apart() {
    let schemes = standard_schemes();
    for name in schemes.names() {
        let scheme = schemes.build(name).unwrap();
        for (case, data) in cases() {
            for id in ["sz3", "zfp"] {
                if !scheme.supports(id) {
                    continue;
                }
                for abs in BOUNDS {
                    let comp = configured(id, abs);
                    let apart = scheme.error_agnostic_features(&data).and_then(|mut f| {
                        f.merge_from(&scheme.error_dependent_features(&data, comp.as_ref())?);
                        Ok(f)
                    });
                    let (mut want, mut got) = (String::new(), String::new());
                    dump(&mut want, &case, &apart);
                    dump(&mut got, &case, &scheme.features(&data, comp.as_ref()));
                    assert_eq!(got, want, "{name} {case} {id}@{abs:e}");
                }
            }
        }
    }
}
