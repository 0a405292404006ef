//! Shapes with nothing or next to nothing in them — rank 0, an empty axis, a
//! single element, trailing axes of one — through both stages of every
//! registered scheme, against every codec it supports. The wire lets each of
//! them in, and a scheme that panics on one takes the serving worker down
//! with it: every stage must answer with features or a typed error.

use pressio_core::{Data, Options};
use pressio_predict::features::FeaturePass;
use pressio_predict::{standard_compressors, standard_schemes};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn every_scheme_answers_a_degenerate_shape_with_features_or_an_error() {
    let shapes: [&[usize]; 5] = [&[], &[0], &[4, 0], &[1], &[3, 1, 1, 1, 1]];
    let (schemes, codecs) = (standard_schemes(), standard_compressors());
    let (mut cases, mut panicked) = (0, Vec::new());
    for name in schemes.names() {
        let scheme = schemes.build(name).unwrap();
        for id in codecs.names() {
            if !scheme.supports(id) {
                continue;
            }
            let mut codec = codecs.build(id).unwrap();
            codec
                .set_options(&Options::new().with("pressio:abs", 1e-3))
                .unwrap();
            for dims in shapes {
                let n: usize = dims.iter().product();
                let values: Vec<f64> = (0..n).map(|i| 1.5 + i as f64).collect();
                for data in [
                    Data::from_f32(dims.to_vec(), values.iter().map(|&v| v as f32).collect()),
                    Data::from_f64(dims.to_vec(), values.clone()),
                ] {
                    cases += 1;
                    let answered = catch_unwind(AssertUnwindSafe(|| {
                        let pass = FeaturePass::new(&data);
                        let _ = scheme.error_agnostic_from(&pass);
                        let _ = scheme.error_dependent_from(&pass, codec.as_ref());
                    }));
                    if answered.is_err() {
                        panicked.push(format!("{name} {id} {dims:?} {}", data.dtype().name()));
                    }
                }
            }
        }
    }
    assert!(cases > 100, "only {cases} cases");
    assert!(panicked.is_empty(), "panicked: {panicked:#?}");
}
