//! A golden digest of what a [`Sampler`] hands its consumer, taken at the
//! commit *before* the random-block and stride strategies moved onto the
//! shared n-d gather in `pressio-core` and the seeded block draw beside the
//! sampler: every sampled value, shape and dtype must come out bit for bit.
//!
//! The cases cover random blocks (a cube inside the field, a shape longer
//! than the buffer's rank, a shape shorter than it and wider than an axis)
//! and stride decimation (steps 1, 2, 3 and 5), on a dense and a sparse
//! Hurricane field, as generated (`f32`) and widened to `f64` and nudged off
//! the `f32` grid.
//!
//! A digest is FNV-1a over one line per case (`case dims=… dtype=… fnv=…`);
//! on a mismatch the test prints the digest it computed, and
//! `SAMPLER_GOLDEN_DUMP=1` prints the lines themselves.

use pressio_core::hash::fnv1a64;
use pressio_core::Data;
use pressio_dataset::{DatasetPlugin, Hurricane, MemoryDataset, Sampler, Strategy};
use std::fmt::Write;

const GOLDEN: u64 = 0xe046784a93d1955c;

fn strategies() -> Vec<Strategy> {
    let blocks = |shape: &[usize], count, seed| Strategy::RandomBlocks {
        shape: shape.to_vec(),
        count,
        seed,
    };
    vec![
        blocks(&[8, 6, 4], 5, 7),
        blocks(&[5, 4, 3, 2], 3, 11),
        blocks(&[64, 3], 2, 0),
        Strategy::Stride(1),
        Strategy::Stride(2),
        Strategy::Stride(3),
        Strategy::Stride(5),
    ]
}

fn fields() -> Vec<(String, Data)> {
    let source = Hurricane::with_dims(23, 17, 9, 2);
    let mut out = Vec::new();
    for name in ["P", "QRAIN"] {
        let narrow = source.generate(name, 1);
        let wide: Vec<f64> = narrow
            .to_f64_vec()
            .iter()
            .enumerate()
            .map(|(i, &v)| v + i as f64 * 1e-9)
            .collect();
        let wide = Data::from_f64(narrow.dims().to_vec(), wide);
        out.push((format!("f32 {name}"), narrow));
        out.push((format!("f64 {name}"), wide));
    }
    out
}

fn lines() -> String {
    let mut out = String::new();
    for (field, data) in fields() {
        for strategy in strategies() {
            let inner = MemoryDataset::new(vec![(field.clone(), data.clone())]);
            let mut sampler = Sampler::new(Box::new(inner), strategy.clone());
            let meta = sampler.load_metadata(0).unwrap();
            let sample = sampler.load_data(0).unwrap();
            assert_eq!(meta.dims, sample.dims(), "{field} {strategy:?}");
            writeln!(
                out,
                "{field} {strategy:?} dims={:?} dtype={} fnv={:016x}",
                sample.dims(),
                sample.dtype().name(),
                fnv1a64(&sample.to_le_bytes())
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn every_sample_matches_the_digest_taken_at_the_parent_commit() {
    let lines = lines();
    if std::env::var_os("SAMPLER_GOLDEN_DUMP").is_some() {
        print!("{lines}");
    }
    let digest = fnv1a64(lines.as_bytes());
    assert_eq!(digest, GOLDEN, "samples moved: digest {digest:#018x}");
}
