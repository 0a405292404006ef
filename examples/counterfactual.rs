//! Use case 4 from the paper (§2.1): **counterfactual analysis** — predict
//! the performance of compressor designs "that do not yet exist" (Wang
//! 2023 / ZPerf). Hundreds of person-hours go into designing specialized
//! compressors; if a stage model shows a design is unfruitful for an
//! application's data, it can be discarded before being built.
//!
//! Here the wang2023 stage model estimates, per Hurricane field, what an
//! SZ-style pipeline would achieve with each candidate prediction stage —
//! then we "build" each design (we happen to have them) and check that the
//! model's design ranking holds.
//!
//! ```sh
//! cargo run --release --example counterfactual
//! ```

use libpressio_predict::core::{Compressor, Options};
use libpressio_predict::dataset::{DatasetPlugin, Hurricane};
use libpressio_predict::predict::schemes::wang::{WangScheme, DESIGNS};
use libpressio_predict::sz::SzCompressor;

fn main() {
    let mut hurricane = Hurricane::with_dims(48, 48, 16, 1)
        .with_fields(&["P", "TC", "U", "QVAPOR", "QRAIN"])
        .unwrap();
    let abs = 1e-4;
    let scheme = WangScheme;

    println!("counterfactual design study: which SZ prediction stage suits each field?\n");
    println!("| field | design | predicted CR | actual CR (built afterwards) |");
    println!("|---|---|---|---|");
    let mut agreements = 0usize;
    let mut total = 0usize;
    for i in 0..hurricane.len() {
        let meta = hurricane.load_metadata(i).unwrap();
        let data = hurricane.load_data(i).unwrap();
        let mut predicted = Vec::new();
        let mut actual = Vec::new();
        for design in DESIGNS {
            // the counterfactual: no compressor with this design is run
            let est = scheme.estimate_design(&data, abs, design).unwrap();
            predicted.push(est);
            // ...but we can build it to validate the study
            let mut comp = SzCompressor::new();
            comp.set_options(
                &Options::new()
                    .with("pressio:abs", abs)
                    .with("sz3:predictor", design.name()),
            )
            .unwrap();
            let c = comp.compress(&data).unwrap();
            let truth = data.size_in_bytes() as f64 / c.len() as f64;
            actual.push(truth);
            println!(
                "| {} | {} | {est:.1} | {truth:.1} |",
                meta.name,
                design.name()
            );
        }
        let pred_best = argmax(&predicted);
        let true_best = argmax(&actual);
        total += 1;
        // agreement, or the predicted pick is within 10% of the true best
        if pred_best == true_best || actual[pred_best] > actual[true_best] * 0.9 {
            agreements += 1;
        }
    }
    println!(
        "\ndesign picked by the model is (near-)optimal on {agreements}/{total} fields — \
         enough to discard unfruitful designs early without building them"
    );
}

fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap()
}
