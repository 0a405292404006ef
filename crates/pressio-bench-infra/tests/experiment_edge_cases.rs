//! Edge-case coverage for the Table 2 experiment driver: configuration
//! errors fail loudly, folds clamp sensibly, and single-bound runs work.

use pressio_bench_infra::experiment::{run_table2, Table2Config};
use pressio_core::Data;
use pressio_dataset::{Hurricane, MemoryDataset};

fn tiny() -> Hurricane {
    Hurricane::with_dims(12, 12, 6, 2)
        .with_fields(&["P", "QRAIN", "U"])
        .unwrap()
}

fn base_cfg() -> Table2Config {
    Table2Config {
        schemes: vec!["khan2023".into()],
        compressors: vec!["sz3".into()],
        abs_bounds: vec![1e-4],
        folds: 3,
        seed: 1,
        workers: 1,
        checkpoint: None,
    }
}

#[test]
fn unknown_scheme_errors() {
    let mut cfg = base_cfg();
    cfg.schemes = vec!["definitely_not_a_scheme".into()];
    assert!(run_table2(&mut tiny(), &cfg).is_err());
}

#[test]
fn unknown_compressor_errors() {
    let mut cfg = base_cfg();
    cfg.compressors = vec!["mgard".into()];
    assert!(run_table2(&mut tiny(), &cfg).is_err());
}

#[test]
fn folds_clamp_to_dataset_count() {
    // 6 datasets but 10 requested folds: must clamp, not panic
    let mut cfg = base_cfg();
    cfg.schemes = vec!["rahman2023".into()];
    cfg.folds = 10;
    let t = run_table2(&mut tiny(), &cfg).unwrap();
    assert!(t.methods[0].medape.is_some());
}

#[test]
fn one_dataset_cannot_cross_validate_a_trained_scheme() {
    let mut one = MemoryDataset::new(vec![(
        "P".into(),
        Data::from_f32(
            vec![8, 8, 4],
            (0..256).map(|i| (i as f32 * 0.1).sin()).collect(),
        ),
    )]);
    let mut cfg = base_cfg();
    cfg.schemes = vec!["rahman2023".into()];
    let err = run_table2(&mut one, &cfg).unwrap_err().to_string();
    assert!(err.contains("needs at least 2 datasets, got 1"), "{err}");
    // a scheme without training has nothing to cross-validate
    let t = run_table2(&mut one, &base_cfg()).unwrap();
    assert!(t.methods[0].medape.is_some());
}

#[test]
fn single_worker_single_bound() {
    let cfg = base_cfg();
    let t = run_table2(&mut tiny(), &cfg).unwrap();
    assert_eq!(t.baselines.len(), 1);
    assert_eq!(t.methods.len(), 1);
    assert!(t.methods[0].supported);
    assert_eq!(t.checkpoint_misses, 6); // 3 fields x 2 steps x 1 bound
}

#[test]
fn non_float_dataset_fails_cleanly() {
    let mut data = MemoryDataset::new(vec![(
        "ints".into(),
        Data::from_i32(vec![4], vec![1, 2, 3, 4]),
    )]);
    // integer data is unsupported by the compressors: the task fails and
    // the driver surfaces the error instead of hanging or panicking
    assert!(run_table2(&mut data, &base_cfg()).is_err());
}

#[test]
fn multiple_bounds_multiply_observations() {
    let mut cfg = base_cfg();
    cfg.abs_bounds = vec![1e-6, 1e-5, 1e-4];
    let t = run_table2(&mut tiny(), &cfg).unwrap();
    assert_eq!(t.checkpoint_misses, 18); // 6 datasets x 3 bounds
                                         // baseline stats aggregate across all observations
    assert_eq!(t.baselines[0].compress_ms.count(), 18);
}
