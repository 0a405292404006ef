//! Use case 3 from the paper (§2.1): **accelerating parallel writes to
//! shared files** (the HDF5 scenario of Jin 2022). Each rank's compressed
//! chunk size is *predicted* so file offsets can be computed before
//! compression finishes; a safety factor over-allocates to reduce
//! under-allocation mispredictions, and a conformal upper bound (Ganguli
//! 2023) lets us forecast the misprediction rate precisely.
//!
//! ```sh
//! cargo run --release --example parallel_write
//! ```

use libpressio_predict::core::{Compressor, Options};
use libpressio_predict::dataset::{DatasetPlugin, Hurricane};
use libpressio_predict::predict::standard_schemes;
use libpressio_predict::sz::SzCompressor;

fn main() {
    // 32 chunks (fields x timesteps) that ranks will write concurrently
    let mut hurricane = Hurricane::with_dims(32, 32, 16, 4)
        .with_fields(&["P", "TC", "U", "V", "QRAIN", "QSNOW", "QVAPOR", "W"])
        .unwrap();
    let chunks: Vec<_> = (0..hurricane.len())
        .map(|i| {
            (
                hurricane.load_metadata(i).unwrap().name,
                hurricane.load_data(i).unwrap(),
            )
        })
        .collect();
    let mut sz = SzCompressor::new();
    sz.set_options(&Options::new().with("pressio:abs", 1e-4))
        .unwrap();

    // train the bounded estimator on half the chunks (prior timesteps)
    let schemes = standard_schemes();
    let scheme = schemes.build("ganguli2023").unwrap();
    let half = chunks.len() / 2;
    let mut feats = Vec::new();
    let mut ratios = Vec::new();
    for (_, data) in &chunks[..half] {
        feats.push(scheme.features(data, &sz).unwrap());
        let c = sz.compress(data).unwrap();
        ratios.push(data.size_in_bytes() as f64 / c.len() as f64);
    }
    let mut predictor = scheme.make_predictor();
    predictor.fit(&feats, &ratios).unwrap();

    // plan offsets for the remaining chunks from predictions
    println!("| chunk | predicted bytes | allocated bytes | actual bytes | fits |");
    println!("|---|---|---|---|---|");
    let alpha = 0.1; // 90% per-chunk guarantee from the conformal bound
    let mut offset = 0u64;
    let mut mispredictions = 0usize;
    let mut allocated_total = 0u64;
    let mut actual_total = 0u64;
    for (name, data) in &chunks[half..] {
        let f = scheme.features(data, &sz).unwrap();
        let point = predictor.predict(&f).unwrap();
        let predicted_bytes = data.size_in_bytes() as f64 / point;
        // safety factor: allocate by the conformal *lower* ratio bound
        // (lower ratio = larger compressed size)
        let allocation = match predictor.predict_interval(&f, alpha) {
            Some(interval) => data.size_in_bytes() as f64 / interval.lo.max(1.0),
            None => predicted_bytes * 1.5, // fixed safety factor fallback
        };
        let actual_bytes = sz.compress(data).unwrap().len() as f64;
        let fits = actual_bytes <= allocation;
        mispredictions += (!fits) as usize;
        println!(
            "| {name} | {predicted_bytes:.0} | {allocation:.0} | {actual_bytes:.0} | {} |",
            if fits {
                "yes"
            } else {
                "NO — fallback append"
            }
        );
        offset += allocation as u64;
        allocated_total += allocation as u64;
        actual_total += actual_bytes as u64;
    }
    let n = chunks.len() - half;
    println!("\nplanned file size: {offset} bytes ({n} chunks)");
    println!(
        "mispredictions (fallback appends): {mispredictions}/{n} — conformal target ≤ {:.0}%",
        alpha * 100.0
    );
    println!(
        "over-allocation overhead: {:.1}% of the actual compressed volume",
        (allocated_total as f64 / actual_total as f64 - 1.0) * 100.0
    );
}
