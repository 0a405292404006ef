//! Integration: the Figure 1 architecture — a user can reach predictions
//! either directly through LibPressio-Predict (library path) or through
//! predict-bench (training/evaluation path), and the two paths agree.
//! Also exercises the full Figure 2 dataset stack feeding both.

use libpressio_predict::bench_infra::experiment::{run_table2, Table2Config};
use libpressio_predict::core::Options;
use libpressio_predict::dataset::{
    DatasetPlugin, FolderLoader, Hurricane, LocalCache, Sampler, Strategy,
};
use libpressio_predict::predict::{standard_compressors, standard_schemes};

#[test]
fn library_path_and_bench_path_agree() {
    let mut hurricane = Hurricane::with_dims(16, 16, 8, 2)
        .with_fields(&["P", "U", "QRAIN"])
        .unwrap();

    // bench path: drive the scheme through the experiment infrastructure
    let cfg = Table2Config {
        schemes: vec!["khan2023".into()],
        compressors: vec!["sz3".into()],
        abs_bounds: vec![1e-4],
        folds: 2,
        seed: 1,
        workers: 2,
        checkpoint: None,
    };
    let table = run_table2(&mut hurricane, &cfg).unwrap();
    let bench_medape = table.methods[0].medape.unwrap();

    // library path: hand-rolled Figure 4 over the same data
    let schemes = standard_schemes();
    let scheme = schemes.build("khan2023").unwrap();
    let mut comp = standard_compressors().build("sz3").unwrap();
    comp.set_options(&Options::new().with("pressio:abs", 1e-4))
        .unwrap();
    let mut actual = Vec::new();
    let mut predicted = Vec::new();
    for i in 0..hurricane.len() {
        let data = hurricane.load_data(i).unwrap();
        let f = scheme
            .error_dependent_features(&data, comp.as_ref())
            .unwrap();
        predicted.push(scheme.make_predictor().predict(&f).unwrap());
        actual.push(data.size_in_bytes() as f64 / comp.compress(&data).unwrap().len() as f64);
    }
    let lib_medape = libpressio_predict::stats::medape(&actual, &predicted).unwrap();
    assert!(
        (bench_medape - lib_medape).abs() < 1e-9,
        "bench path {bench_medape}% != library path {lib_medape}%"
    );
}

#[test]
fn figure2_stack_feeds_prediction() {
    let base = std::env::temp_dir().join("pressio_arch_fig2");
    let _ = std::fs::remove_dir_all(&base);
    // materialize two fields as raw files
    let mut source = Hurricane::with_dims(24, 24, 12, 1)
        .with_fields(&["TC", "QRAIN"])
        .unwrap();
    for i in 0..source.len() {
        let meta = source.load_metadata(i).unwrap();
        let data = source.load_data(i).unwrap();
        libpressio_predict::dataset::io::write_raw(
            &base.join("raw"),
            &meta.name.replace('@', "-"),
            &data,
        )
        .unwrap();
    }
    // folder -> cache -> sampler, then predict on the sampled payload
    let folder = FolderLoader::open(&base.join("raw"), None).unwrap();
    let cache = LocalCache::new(Box::new(folder), &base.join("cache")).unwrap();
    let mut pipeline = Sampler::new(
        Box::new(cache),
        Strategy::RandomBlocks {
            shape: vec![12, 12, 12],
            count: 2,
            seed: 5,
        },
    );
    let schemes = standard_schemes();
    let scheme = schemes.build("khan2023").unwrap();
    let mut comp = standard_compressors().build("sz3").unwrap();
    comp.set_options(&Options::new().with("pressio:abs", 1e-4))
        .unwrap();
    for i in 0..pipeline.len() {
        let meta = pipeline.load_metadata(i).unwrap();
        let sample = pipeline.load_data(i).unwrap();
        assert_eq!(sample.dims(), &meta.dims[..], "metadata/data agreement");
        let f = scheme
            .error_dependent_features(&sample, comp.as_ref())
            .unwrap();
        let p = scheme.make_predictor().predict(&f).unwrap();
        assert!(p.is_finite() && p > 0.0, "{}", meta.name);
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn table1_metadata_is_complete_for_all_schemes() {
    let registry = standard_schemes();
    for name in registry.names() {
        let scheme = registry.build(name).unwrap();
        let info = scheme.info();
        assert_eq!(info.name, name);
        assert!(!info.citation.is_empty());
        assert!(["fast", "accurate"].contains(&info.goal), "{name}");
        assert!(
            [
                "trial-based",
                "regression",
                "calculation",
                "machine learning",
                "deep learning"
            ]
            .contains(&info.approach),
            "{name}"
        );
        assert!(["yes", "no", "partial"].contains(&info.black_box), "{name}");
        assert!(!scheme.feature_keys().is_empty(), "{name}");
    }
}
