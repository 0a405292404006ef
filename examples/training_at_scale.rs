//! Use of LibPressio-Predict-Bench (paper §4.3): train a prediction scheme
//! over many datasets with the fault-tolerant worker pool and the
//! crash-safe checkpoint store — including a simulated mid-run crash and
//! restart that re-runs *only* the missing results.
//!
//! ```sh
//! cargo run --release --example training_at_scale
//! ```

use libpressio_predict::bench_infra::{run_tasks, CheckpointStore, PoolConfig, Scheduling, Task};
use libpressio_predict::core::error::Error;
use libpressio_predict::core::hash::hash_options_hex;
use libpressio_predict::core::{Compressor, Data, Options};
use libpressio_predict::dataset::{DatasetPlugin, Hurricane};
use libpressio_predict::predict::standard_schemes;
use libpressio_predict::sz::SzCompressor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn truth_tasks(datasets: &[(String, Data)]) -> Vec<Task> {
    datasets
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            Task::new(
                hash_options_hex(
                    &Options::new()
                        .with("task", "truth")
                        .with("dataset", name.as_str())
                        .with("pressio:abs", 1e-4),
                ),
                i as u64,
                Options::new().with("index", i as u64),
            )
        })
        .collect()
}

fn main() {
    let store_path = std::env::temp_dir().join("pressio_training_at_scale.jsonl");
    let _ = std::fs::remove_file(&store_path);

    let mut hurricane = Hurricane::with_dims(32, 32, 16, 3);
    let datasets: Arc<Vec<(String, Data)>> = Arc::new(
        (0..hurricane.len())
            .map(|i| {
                (
                    hurricane.load_metadata(i).unwrap().name,
                    hurricane.load_data(i).unwrap(),
                )
            })
            .collect(),
    );
    println!(
        "training set: {} datasets (3 timesteps x 13 fields)",
        datasets.len()
    );

    // ---- phase 1: collect ground truth, crashing partway through --------
    let crash_after = datasets.len() / 2;
    let completed = Arc::new(AtomicUsize::new(0));
    let run = |inject_crash: bool, store: &mut CheckpointStore| {
        let pending: Vec<Task> = truth_tasks(&datasets)
            .into_iter()
            .filter(|t| !store.contains(&t.id))
            .collect();
        println!(
            "  dispatching {} tasks ({} already checkpointed)",
            pending.len(),
            datasets.len() - pending.len()
        );
        let ds = datasets.clone();
        let counter = completed.clone();
        let (outcomes, stats) = run_tasks(
            pending,
            PoolConfig {
                workers: 4,
                scheduling: Scheduling::DataAffinity,
                max_attempts: 2,
                retry_backoff_ms: 0,
            },
            Arc::new(move |task: &Task, _w| {
                if inject_crash && counter.fetch_add(1, Ordering::SeqCst) >= crash_after {
                    // a buggy metric implementation surfacing on diverse
                    // data — the failure mode the paper hit in practice
                    return Err(Error::TaskFailed("injected crash".into()));
                }
                let i = task.config.get_usize("index")?;
                let data = &ds[i].1;
                let mut sz = SzCompressor::new();
                sz.set_options(&Options::new().with("pressio:abs", 1e-4))?;
                let c = sz.compress(data)?;
                Ok(Options::new()
                    .with("index", i as u64)
                    .with("ratio", data.size_in_bytes() as f64 / c.len() as f64))
            }),
        );
        let mut ok = 0usize;
        for o in &outcomes {
            if let Ok(v) = &o.result {
                store.put(&o.id, v.clone()).unwrap();
                ok += 1;
            }
        }
        println!(
            "  {} succeeded, {} failed, {} retries",
            ok,
            outcomes.len() - ok,
            stats.retries
        );
    };

    println!("\nfirst run (crash injected mid-way):");
    let mut store = CheckpointStore::open(&store_path).unwrap();
    run(true, &mut store);
    let after_crash = store.len();
    println!("  checkpoint holds {after_crash} committed results");

    println!("\nrestart (no crash): only the missing results are re-run:");
    let mut store = CheckpointStore::open(&store_path).unwrap();
    run(false, &mut store);
    assert_eq!(store.len(), datasets.len(), "restart must complete the set");

    // ---- phase 2: fit the scheme from the checkpointed observations -----
    let schemes = standard_schemes();
    let scheme = schemes.build("rahman2023").unwrap();
    let sz = {
        let mut c = SzCompressor::new();
        c.set_options(&Options::new().with("pressio:abs", 1e-4))
            .unwrap();
        c
    };
    let mut feats = Vec::new();
    let mut targets = Vec::new();
    for task in truth_tasks(&datasets) {
        let rec = store.get(&task.id).expect("complete after restart");
        let i = rec.get_usize("index").unwrap();
        let data = &datasets[i].1;
        feats.push(scheme.features(data, &sz).unwrap());
        targets.push(rec.get_f64("ratio").unwrap());
    }
    let mut predictor = scheme.make_predictor();
    predictor.fit(&feats, &targets).unwrap();
    let preds: Vec<f64> = feats
        .iter()
        .map(|f| predictor.predict(f).unwrap())
        .collect();
    let medape = libpressio_predict::stats::medape(&targets, &preds).unwrap();
    println!("\nfitted rahman2023 from checkpointed truth: in-sample MedAPE {medape:.1}%");

    // the trained state is serializable for shipping to applications
    let state = predictor.state().unwrap();
    println!("serialized predictor state: {} bytes", state.len());
    let _ = std::fs::remove_file(&store_path);
}
