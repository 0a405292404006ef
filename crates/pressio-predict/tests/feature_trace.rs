//! What a trace says about feature extraction: one `features:pass` span per
//! buffer however many stages and groups read it, and
//! `features:widened_bytes` naming the schemes that still pay for an `f64`
//! copy of a narrower buffer — none for `rahman2023`, one copy (not one per
//! group) for the schemes whose groups need an `&[f64]`, and only the
//! sampled elements for the sampling schemes.
//!
//! One test, in a binary of its own: the collector is process-global.

use pressio_core::{Data, Options};
use pressio_predict::evaluator::CachedEvaluator;
use pressio_predict::{standard_compressors, standard_schemes};
use std::sync::Arc;

/// `(features:pass spans, features:widened_bytes)` of extracting both
/// stages of `scheme` for `data` the way every caller that has both does.
fn traced(scheme: &str, data: &Data) -> (u64, i64) {
    let collector = Arc::new(pressio_obs::Collector::new());
    pressio_obs::install(collector.clone());
    let mut comp = standard_compressors().build("sz3").unwrap();
    comp.set_options(&Options::new().with("pressio:abs", 1e-3))
        .unwrap();
    let mut evaluator = CachedEvaluator::new(standard_schemes().build(scheme).unwrap());
    evaluator.features("buffer", data, comp.as_ref()).unwrap();
    pressio_obs::uninstall();
    let report = collector.report();
    (
        report.spans.get("features:pass").map_or(0, |s| s.count()),
        report
            .counters
            .get("features:widened_bytes")
            .copied()
            .unwrap_or(0),
    )
}

#[test]
fn a_trace_shows_one_pass_per_buffer_and_who_pays_for_a_widened_copy() {
    let dims = vec![24usize, 16, 8];
    let n: usize = dims.iter().product();
    let values: Vec<f32> = (0..n).map(|i| (i as f32 * 0.07).sin()).collect();
    let narrow = Data::from_f32(dims.clone(), values.clone());
    let wide = Data::from_f64(dims, values.iter().map(|&v| v as f64).collect());
    let copy = (n * 8) as i64;

    // FXRZ: both stages off one sweep of the typed buffer, nothing widened
    assert_eq!(traced("rahman2023", &narrow), (1, 0));
    // variogram + quantized entropy share the one copy; no statistics pass
    assert_eq!(traced("krasowska2021", &narrow), (0, copy));
    // spatial features read the statistics and the copy, entropy the copy
    assert_eq!(traced("ganguli2023", &narrow), (1, copy));
    // SZ's stage reads the typed buffer: Jin widens nothing
    assert_eq!(traced("jin2022", &narrow), (0, 0));
    // stride 4 keeps 6 × 4 × 2 elements and never widens the rest
    assert_eq!(traced("lu2018", &narrow), (1, 6 * 4 * 2 * 8));
    // an f64 buffer is its own widened view
    assert_eq!(traced("krasowska2021", &wide), (0, 0));
    assert_eq!(traced("jin2022", &wide), (0, 0));
}
