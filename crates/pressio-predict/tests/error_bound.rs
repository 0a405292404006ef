//! The error bound, end to end: every scheme predicts at the bound the codec
//! holds, `pressio:rel` or not; the one value range agrees with the feature
//! pass's and with the loop both codecs used to carry; and `ErrorBound`
//! validates and reports the two options as both codecs did.

use pressio_core::bound::{finite_extrema, finite_range, finite_range_of, ErrorBound};
use pressio_core::hash::hash_options_hex;
use pressio_core::lanes::Widen;
use pressio_core::{Data, Options};
use pressio_dataset::hurricane::Hurricane;
use pressio_predict::features::FeaturePass;
use pressio_predict::{standard_compressors, standard_schemes};
use proptest::prelude::*;

/// A Hurricane field, clean and salted with a NaN and a `+inf`, as f32 and
/// as f64.
fn fields() -> Vec<(String, Data)> {
    let clean = Hurricane::with_dims(32, 32, 8, 1).generate("P", 0);
    let mut salted = clean.as_f32().unwrap().to_vec();
    salted[5] = f32::NAN;
    salted[5000] = f32::INFINITY;
    let mut out = Vec::new();
    for (tag, values) in [
        ("P", clean.as_f32().unwrap().to_vec()),
        ("P+nan+inf", salted),
    ] {
        let dims = clean.dims().to_vec();
        let wide = values.iter().map(|&v| v as f64).collect();
        out.push((format!("{tag} f32"), Data::from_f32(dims.clone(), values)));
        out.push((format!("{tag} f64"), Data::from_f64(dims, wide)));
    }
    out
}

/// `Scheme::features` at `pressio:rel = r` is, bit for bit, what it is at
/// `pressio:abs = r × finite_range` with `rel` cleared: for every scheme,
/// every codec it supports, both dtypes, with and without non-finite values.
#[test]
fn every_scheme_predicts_at_the_bound_rel_resolves_to() {
    let (schemes, codecs) = (standard_schemes(), standard_compressors());
    let (mut checked, mut differ) = (Vec::new(), Vec::new());
    for name in schemes.names() {
        let scheme = schemes.build(name).unwrap();
        for id in codecs.names() {
            if !scheme.supports(id) {
                continue;
            }
            for (tag, data) in fields() {
                for rel in [1e-3, 1e-2] {
                    let configured = |opts: Options| {
                        let mut codec = codecs.build(id).unwrap();
                        codec.set_options(&opts).unwrap();
                        codec
                    };
                    let relative = configured(Options::new().with("pressio:rel", rel));
                    let abs = rel * finite_range_of(&data);
                    let absolute = configured(ErrorBound { abs, rel: None }.options());
                    // `{:?}` of an f64 round-trips: equal text is equal bits
                    let at_rel = format!("{:?}", scheme.features(&data, relative.as_ref()));
                    let at_abs = format!("{:?}", scheme.features(&data, absolute.as_ref()));
                    if at_rel != at_abs {
                        differ.push(format!("{name} {id} {tag} rel={rel}"));
                    }
                }
            }
            checked.push(name);
        }
    }
    checked.dedup();
    assert_eq!(checked.len(), 10, "schemes checked: {checked:?}");
    assert!(differ.is_empty(), "features differ: {differ:#?}");
}

/// The range loop SZ and ZFP each carried before [`finite_range`]: `-inf`
/// where nothing is finite, which resolved to `abs` as 0 does.
fn codec_loop<T: Widen>(values: &[T]) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in values.iter().map(|v| v.widen()) {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    hi - lo
}

/// `finite_range` of `values` against the codecs' loop and against the
/// range the feature pass over `data` (the same values) reports.
fn agrees<T: Widen>(values: &[T], data: &Data) -> std::result::Result<(), TestCaseError> {
    let range = finite_range(values);
    prop_assert_eq!(range, finite_range_of(data));
    prop_assert_eq!(range, FeaturePass::new(data).value_range());
    let old = codec_loop(values);
    if finite_extrema(values).is_some() {
        prop_assert_eq!(range.to_bits(), old.to_bits());
    } else {
        prop_assert_eq!((range, old), (0.0, f64::NEG_INFINITY));
    }
    let bound = ErrorBound {
        abs: 1e-4,
        rel: Some(1e-3),
    };
    let resolved_before = if old.is_finite() && old > 0.0 {
        1e-3 * old
    } else {
        1e-4
    };
    prop_assert_eq!(bound.resolve(|| range).to_bits(), resolved_before.to_bits());
    Ok(())
}

fn element() -> impl Strategy<Value = f64> {
    // finite values four times in nine
    prop_oneof![
        -1e6f64..1e6,
        -1e6f64..1e6,
        -1e6f64..1e6,
        -1e6f64..1e6,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(0.0),
    ]
}

fn non_finite() -> impl Strategy<Value = f64> {
    prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)]
}

proptest! {
    #[test]
    fn finite_range_agrees_with_the_pass_and_the_codec_loop(
        values in prop_oneof![
            prop::collection::vec(element(), 0..2),
            prop::collection::vec(element(), 0..64),
            prop::collection::vec(non_finite(), 0..16),
        ],
        ints in prop::collection::vec(any::<i32>(), 0..64),
    ) {
        let n = values.len();
        let narrow: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        agrees(&narrow, &Data::from_f32(vec![n], narrow.clone()))?;
        agrees(&values, &Data::from_f64(vec![n], values.clone()))?;
        agrees(&ints, &Data::from_i32(vec![ints.len()], ints.clone()))?;
        let bytes: Vec<u8> = ints.iter().map(|&v| v as u8).collect();
        agrees(&bytes, &Data::from_bytes(bytes.clone()))?;
    }
}

/// Every value SZ's and ZFP's option tests reject, and a few more, is
/// rejected by `ErrorBound` and by both codecs, and leaves the bound as it
/// was; `rel = 0` clears.
#[test]
fn error_bound_validates_as_both_codecs_did() {
    let rejected = [
        ("pressio:abs", -1.0),
        ("pressio:abs", 0.0),
        ("pressio:abs", -0.0),
        ("pressio:abs", f64::NAN),
        ("pressio:abs", f64::INFINITY),
        ("pressio:abs", f64::NEG_INFINITY),
        ("pressio:rel", -1.0),
        ("pressio:rel", f64::NAN),
        ("pressio:rel", f64::INFINITY),
        ("pressio:rel", f64::NEG_INFINITY),
    ];
    let codecs = standard_compressors();
    for (key, value) in rejected {
        let bad = Options::new().with(key, value);
        let mut bound = ErrorBound::default();
        assert!(bound.set_options(&bad).is_err(), "{key}={value}");
        assert_eq!(bound, ErrorBound::default(), "{key}={value}");
        for id in ["sz3", "zfp"] {
            let mut codec = codecs.build(id).unwrap();
            assert!(codec.set_options(&bad).is_err(), "{id} {key}={value}");
        }
    }
    assert!(ErrorBound::default()
        .set_options(&Options::new().with("pressio:abs", "tight"))
        .is_err());

    let mut bound = ErrorBound::default();
    bound
        .set_options(
            &Options::new()
                .with("pressio:abs", 0.5)
                .with("pressio:rel", 1e-3),
        )
        .unwrap();
    assert_eq!(
        bound,
        ErrorBound {
            abs: 0.5,
            rel: Some(1e-3)
        }
    );
    assert_eq!(ErrorBound::of(&bound.options()).unwrap(), bound);
    assert_eq!(bound.resolve(|| 2.0), 2e-3);
    assert_eq!(bound.resolve(|| 0.0), 0.5);
    assert_eq!(bound.resolve(|| f64::INFINITY), 0.5);
    bound
        .set_options(&Options::new().with("pressio:rel", 0.0))
        .unwrap();
    assert_eq!(
        bound,
        ErrorBound {
            abs: 0.5,
            rel: None
        }
    );
    assert_eq!(
        bound.resolve(|| panic!("no range is read without rel")),
        0.5
    );
    // a compressor that reports no absolute bound has none to resolve
    assert!(ErrorBound::of(&Options::new()).is_err());
}

/// The options each codec reported before `ErrorBound` held them.
fn reported_before(id: &str, abs: f64, rel: f64) -> Options {
    let common = Options::new()
        .with("pressio:abs", abs)
        .with("pressio:rel", rel)
        .with("pressio:nthreads", 0u64);
    match id {
        "sz3" => common
            .with("sz3:predictor", "auto")
            .with("sz3:block_size", 6u64),
        _ => common
            .with("zfp:mode", "accuracy")
            .with("zfp:precision", 24u64)
            .with("zfp:rate", 8.0),
    }
}

/// Serve's cache keys and `.pmodel` files hash what a codec reports, so
/// both codecs report what they did: the options by value in three states,
/// the configuration by its digest.
#[test]
fn both_codecs_report_what_they_did() {
    let codecs = standard_compressors();
    for (id, configuration) in [
        (
            "sz3",
            "bc6dc7ac91d976deb0be1149194be011f21856341dd8093fd189c801ee779fd8",
        ),
        (
            "zfp",
            "440da06a34a7508e66042a3c57ba6930beddc55c5b9297c0e1e28e23923baa9e",
        ),
    ] {
        for (set, abs, rel) in [
            (Options::new(), 1e-4, 0.0),
            (Options::new().with("pressio:abs", 1e-3), 1e-3, 0.0),
            (Options::new().with("pressio:rel", 1e-2), 1e-4, 1e-2),
        ] {
            let mut codec = codecs.build(id).unwrap();
            codec.set_options(&set).unwrap();
            assert_eq!(
                codec.get_options(),
                reported_before(id, abs, rel),
                "{id} {set:?}"
            );
            assert_eq!(
                hash_options_hex(&codec.get_configuration()),
                configuration,
                "{id} configuration"
            );
        }
    }
}
