//! Edge-case coverage for the Table 2 experiment driver: configuration
//! errors fail loudly, folds clamp sensibly, single-bound runs work, and
//! extracting features beside the truth pool changes no result and loses
//! no finished truth.

use pressio_bench_infra::experiment::{run_table2, Table2, Table2Config};
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

/// What a run must reproduce whatever its schedule: row order, every
/// MedAPE bit and every baseline ratio.
fn fingerprint(t: &Table2) -> Vec<String> {
    let baselines = t.baselines.iter().map(|b| {
        let r = &b.ratio;
        let bits = (r.mean().to_bits(), r.std().to_bits(), r.count());
        format!("{} {bits:?}", b.compressor)
    });
    let methods = t.methods.iter().map(|m| {
        let medape = m.medape.map(f64::to_bits);
        format!("{} {} {} {medape:?}", m.compressor, m.scheme, m.supported)
    });
    baselines.chain(methods).collect()
}

fn two_codecs() -> Table2Config {
    Table2Config {
        schemes: vec!["khan2023".into(), "jin2022".into(), "rahman2023".into()],
        compressors: vec!["sz3".into(), "zfp".into()],
        ..base_cfg()
    }
}

/// The features are extracted beside the truth pool: neither its width
/// nor a checkpoint that answers every truth moves a bit of the table.
#[test]
fn the_table_is_the_same_at_any_worker_count_cold_or_resumed() {
    let dir = std::env::temp_dir().join("pressio_table2_schedules");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = two_codecs();
    let one = run_table2(&mut tiny(), &cfg).unwrap();
    cfg.workers = 4;
    let four = run_table2(&mut tiny(), &cfg).unwrap();
    assert_eq!(fingerprint(&four), fingerprint(&one));
    assert_eq!((one.checkpoint_hits, one.checkpoint_misses), (0, 12));
    assert_eq!((four.checkpoint_hits, four.checkpoint_misses), (0, 12));

    cfg.checkpoint = Some(dir.join("truth.jsonl"));
    let cold = run_table2(&mut tiny(), &cfg).unwrap();
    let resumed = run_table2(&mut tiny(), &cfg).unwrap();
    assert_eq!((cold.checkpoint_hits, cold.checkpoint_misses), (0, 12));
    assert_eq!(
        (resumed.checkpoint_hits, resumed.checkpoint_misses),
        (12, 0)
    );
    assert_eq!(fingerprint(&cold), fingerprint(&one));
    assert_eq!(fingerprint(&resumed), fingerprint(&one));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A failed feature stage is reported once the pool has stopped, so the
/// checkpoint holds every truth it finished and a rerun hits them all.
#[test]
fn a_failed_feature_stage_still_checkpoints_the_truths() {
    let dir = std::env::temp_dir().join("pressio_table2_feature_error");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = two_codecs();
    cfg.checkpoint = Some(dir.join("truth.jsonl"));
    cfg.schemes.push("definitely_not_a_scheme".into());
    let err = run_table2(&mut tiny(), &cfg).unwrap_err().to_string();
    assert!(err.contains("definitely_not_a_scheme"), "{err}");
    cfg.schemes.pop();
    let rerun = run_table2(&mut tiny(), &cfg).unwrap();
    assert_eq!((rerun.checkpoint_hits, rerun.checkpoint_misses), (12, 0));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// When both sides fail, the truths' error is the one reported.
#[test]
fn a_truth_error_outranks_a_feature_error() {
    let mut ints = MemoryDataset::new(vec![
        ("a".into(), Data::from_i32(vec![4], vec![1, 2, 3, 4])),
        ("b".into(), Data::from_i32(vec![4], vec![5, 6, 7, 8])),
    ]);
    let mut cfg = base_cfg();
    cfg.schemes = vec!["definitely_not_a_scheme".into()];
    let err = run_table2(&mut ints, &cfg).unwrap_err().to_string();
    let truth = run_table2(&mut ints, &base_cfg()).unwrap_err().to_string();
    assert_eq!(err, truth);
    assert!(!err.contains("definitely_not_a_scheme"), "{err}");
}

/// The test above at a pool of `workers: 2` (three threads with the
/// caller's), which splits the datasets by parity: the same table cold and
/// resumed.
#[test]
fn the_table_is_the_same_at_two_workers_cold_or_resumed() {
    let dir = std::env::temp_dir().join("pressio_table2_two_workers");
    let _ = std::fs::remove_dir_all(&dir);
    let one = run_table2(&mut tiny(), &two_codecs()).unwrap();
    let mut cfg = two_codecs();
    cfg.workers = 2;
    let two = run_table2(&mut tiny(), &cfg).unwrap();
    assert_eq!(fingerprint(&two), fingerprint(&one));
    assert_eq!((two.checkpoint_hits, two.checkpoint_misses), (0, 12));

    cfg.checkpoint = Some(dir.join("truth.jsonl"));
    let cold = run_table2(&mut tiny(), &cfg).unwrap();
    let resumed = run_table2(&mut tiny(), &cfg).unwrap();
    assert_eq!((cold.checkpoint_hits, cold.checkpoint_misses), (0, 12));
    assert_eq!(
        (resumed.checkpoint_hits, resumed.checkpoint_misses),
        (12, 0)
    );
    assert_eq!(fingerprint(&cold), fingerprint(&one));
    assert_eq!(fingerprint(&resumed), fingerprint(&one));
    std::fs::remove_dir_all(&dir).unwrap();
}
