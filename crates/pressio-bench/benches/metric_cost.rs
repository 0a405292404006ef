//! Criterion bench: per-feature metric costs — the §6 comparison where the
//! SVD-truncation metric (~771 ms on the authors' testbed) dwarfs the
//! error-dependent quantized entropy (<43 ms), making the Underwood scheme
//! worthwhile only under heavy reuse.
//! Shape expectation: svd ≫ quant_profile > {qent, variogram, stats}.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pressio_dataset::{DatasetPlugin, Hurricane};
use pressio_predict::features::{self, FeaturePass};

fn bench_metrics(c: &mut Criterion) {
    let mut hurricane = Hurricane::with_dims(64, 64, 32, 1);
    let p_index = pressio_dataset::FIELDS
        .iter()
        .position(|&f| f == "P")
        .unwrap();
    let data = hurricane.load_data(p_index).unwrap();
    let bytes = data.size_in_bytes() as u64;

    // a fresh pass per iteration: a feature group costs what it costs the
    // first stage to ask, not what a memoised pass answers afterwards
    let pass = || FeaturePass::new(&data);

    let mut group = c.benchmark_group("metric_cost");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("global_stats", |b| {
        b.iter(|| features::global_stats(&pass()))
    });
    group.bench_function("variogram", |b| {
        b.iter(|| features::variogram_features(&pass()))
    });
    group.bench_function("quantized_entropy", |b| {
        b.iter(|| features::quantized_entropy_features(&pass(), 1e-4))
    });
    group.bench_function("spatial_ganguli", |b| {
        b.iter(|| features::spatial_features(&pass()))
    });
    group.bench_function("sz_quant_profile_full", |b| {
        b.iter(|| features::sz_quantization_profile(&pass(), 1e-4, 1))
    });
    group.bench_function("sz_quant_profile_sampled", |b| {
        b.iter(|| features::sz_quantization_profile(&pass(), 1e-4, 4))
    });
    group.bench_function("svd_truncation", |b| {
        b.iter(|| features::svd_features(&pass()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_metrics
}
criterion_main!(benches);
