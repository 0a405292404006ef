//! What a trace says about `auto` on a chained stream: on a `P` stack of
//! 32 timesteps at 64×64×16, one timestep a chunk as `stream_sz3_256k` cuts
//! it, every chunk pays for Lorenzo's sample estimate (`sz3:estimate`
//! span), the raw first chunk and the first residual are chosen in full
//! (`sz3:select` span, `sz3:auto.<predictor>` counter) and the residuals
//! after them mostly carry that choice (`sz3:auto.carried`): the two counts
//! split the stack's chunks between them.
//!
//! One test, in a binary of its own: the collector is process-global.

use pressio_core::chunking::{last_outer_slice, slice_outer, Carry};
use pressio_core::{Compressor, Data, Options};
use pressio_dataset::hurricane::Hurricane;
use pressio_sz::SzCompressor;
use std::sync::Arc;

const TIMESTEPS: usize = 32;

#[test]
fn a_chained_p_stack_chooses_a_few_times_and_carries_the_rest() {
    let source = Hurricane::with_dims(64, 64, 16, TIMESTEPS);
    let values = (0..TIMESTEPS)
        .flat_map(|t| source.generate("P", t).as_f32().unwrap().to_vec())
        .collect();
    let stack = Data::from_f32(vec![64, 64, 16, TIMESTEPS], values);
    let mut sz = SzCompressor::new();
    sz.set_options(&Options::new().with("pressio:abs", 1e-4))
        .unwrap();

    let collector = Arc::new(pressio_obs::Collector::new());
    pressio_obs::install(collector.clone());
    let mut carry = Carry::default();
    for t in 0..TIMESTEPS {
        let chunk = slice_outer(&stack, t, 1).unwrap();
        let (_, decoded) = sz.encode_chunk(&chunk, Some(&mut carry)).unwrap();
        carry.slice = Some(last_outer_slice(&decoded).unwrap());
    }
    pressio_obs::uninstall();
    let report = collector.report();

    let spans = |name: &str| report.spans.get(name).map_or(0, |s| s.count()) as i64;
    let (estimates, selections) = (spans("sz3:estimate"), spans("sz3:select"));
    let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0);
    let carried = counter("sz3:auto.carried");
    let chosen: i64 = ["lorenzo", "regression", "interp", "hybrid"]
        .iter()
        .map(|p| counter(&format!("sz3:auto.{p}")))
        .sum();
    println!("{selections} full selections, {carried} carried, of {TIMESTEPS} chunks");
    // one estimate and one choice a chunk, made in full or carried; `P` is
    // over the floor on every chunk, so each choice made scored the
    // challengers
    assert_eq!(estimates, TIMESTEPS as i64);
    assert_eq!(selections, chosen);
    assert_eq!(chosen + carried, TIMESTEPS as i64);
    // the raw chunk and the first residual, then a few re-choices on drift
    assert!((2..=6).contains(&chosen), "{chosen} full selections");
}
