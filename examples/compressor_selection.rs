//! Use case 1 from the paper (§2.1): **choosing the best compressor**
//! without running all the candidates. Predictions replace compressor
//! runs; the method "does not need to be tremendously accurate since it
//! needs to only preserve the ranking".
//!
//! This example ranks sz3 vs zfp on every Hurricane field twice — with the
//! fast calculation-based khan2023 estimator and with the trained
//! rahman2023 forest — and validates both rankings against ground truth.
//! It reproduces the paper's §6 finding: the calculation method's failures
//! concentrate on the *sparse* fields, which the trained,
//! sparsity-corrected method handles.
//!
//! ```sh
//! cargo run --release --example compressor_selection
//! ```

use libpressio_predict::core::{Data, Options};
use libpressio_predict::dataset::{DatasetPlugin, Hurricane};
use libpressio_predict::predict::{standard_compressors, standard_schemes, Predictor, Scheme};

struct Field {
    name: String,
    sparse: bool,
    data: Data,
    /// true compression ratio per compressor (the work prediction avoids)
    truth: Vec<f64>,
}

fn rank(
    scheme: &dyn Scheme,
    predictors: &[Box<dyn Predictor>],
    fields: &[Field],
    compressors: &[Box<dyn libpressio_predict::core::Compressor>],
) -> (usize, usize, usize) {
    let (mut ok, mut sparse_miss, mut dense_miss) = (0usize, 0usize, 0usize);
    for field in fields {
        let mut predicted = Vec::new();
        for (ci, comp) in compressors.iter().enumerate() {
            let f = scheme.features(&field.data, comp.as_ref()).unwrap();
            predicted.push(predictors[ci].predict(&f).unwrap());
        }
        let pred_best = (predicted[0] < predicted[1]) as usize;
        let true_best = (field.truth[0] < field.truth[1]) as usize;
        let tie =
            (field.truth[0] - field.truth[1]).abs() / field.truth[0].max(field.truth[1]) < 0.10;
        if tie || pred_best == true_best {
            ok += 1;
        } else if field.sparse {
            sparse_miss += 1;
        } else {
            dense_miss += 1;
        }
    }
    (ok, sparse_miss, dense_miss)
}

fn main() {
    let mut hurricane = Hurricane::with_dims(48, 48, 24, 2);
    let abs = 1e-4;
    let registry = standard_compressors();
    let compressors: Vec<_> = ["sz3", "zfp"]
        .iter()
        .map(|name| {
            let mut c = registry.build(name).unwrap();
            c.set_options(&Options::new().with("pressio:abs", abs))
                .unwrap();
            c
        })
        .collect();

    // ground truth for validation (and for training the trained scheme)
    let mut fields = Vec::new();
    for i in 0..hurricane.len() {
        let meta = hurricane.load_metadata(i).unwrap();
        let data = hurricane.load_data(i).unwrap();
        let truth: Vec<f64> = compressors
            .iter()
            .map(|c| data.size_in_bytes() as f64 / c.compress(&data).unwrap().len() as f64)
            .collect();
        fields.push(Field {
            name: meta.name,
            sparse: meta.attributes.get_bool("hurricane:sparse").unwrap(),
            data,
            truth,
        });
    }
    let (train, eval) = fields.split_at(fields.len() / 2); // t0 trains, t1 evaluates
    let schemes = standard_schemes();

    // --- fast calculation-based ranking (khan2023, no training) ----------
    let khan = schemes.build("khan2023").unwrap();
    let khan_predictors: Vec<Box<dyn Predictor>> = (0..2).map(|_| khan.make_predictor()).collect();
    let (ok, sparse_miss, dense_miss) = rank(khan.as_ref(), &khan_predictors, eval, &compressors);
    println!("khan2023 (calculation, no training):");
    println!(
        "  ranking preserved on {ok}/{} fields; mispicks: {sparse_miss} sparse, {dense_miss} dense",
        eval.len()
    );

    // --- trained ranking (rahman2023, one predictor per compressor) ------
    let rahman = schemes.build("rahman2023").unwrap();
    let mut rahman_predictors = Vec::new();
    for (ci, comp) in compressors.iter().enumerate() {
        let mut feats = Vec::new();
        let mut targets = Vec::new();
        for field in train {
            feats.push(rahman.features(&field.data, comp.as_ref()).unwrap());
            targets.push(field.truth[ci]);
        }
        let mut p = rahman.make_predictor();
        p.fit(&feats, &targets).unwrap();
        rahman_predictors.push(p);
    }
    let (ok, sparse_miss, dense_miss) =
        rank(rahman.as_ref(), &rahman_predictors, eval, &compressors);
    println!("rahman2023 (trained on the previous timestep):");
    println!(
        "  ranking preserved on {ok}/{} fields; mispicks: {sparse_miss} sparse, {dense_miss} dense",
        eval.len()
    );

    println!("\nevaluated fields:");
    for field in eval {
        println!(
            "  {} ({}) — true sz3 {:.1}, true zfp {:.1}",
            field.name,
            if field.sparse { "sparse" } else { "dense" },
            field.truth[0],
            field.truth[1]
        );
    }
    println!(
        "\nshape check (paper §6): the calculation method's wrong picks sit on sparse \
         fields; the sparsity-corrected trained method fixes them"
    );
}
