//! The data-affinity scheduling ablation (paper §4.3 — "we attempt to
//! schedule as many jobs with the same data to the same workers"), run by
//! `pressio bench --ablation affinity`.
//!
//! Tasks simulate a load-then-compute pattern where each worker pays a
//! load cost the first time it touches a dataset; the report compares
//! distinct-load counts and wall time under affinity vs round-robin
//! scheduling.

use crate::queue::{run_tasks, PoolConfig, Scheduling, Task};
use pressio_core::error::Result;
use pressio_core::{Data, Options};
use pressio_dataset::{DatasetPlugin, Hurricane};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Problem size for the ablation.
#[derive(Debug, Clone)]
pub struct AffinityConfig {
    /// Synthetic hurricane grid dims.
    pub dims: (usize, usize, usize),
    /// Worker threads (clamped to ≥ 4: scheduling semantics need several
    /// workers even on a single core).
    pub workers: usize,
    /// Reduced preset (6 datasets instead of 13).
    pub quick: bool,
}

impl Default for AffinityConfig {
    fn default() -> Self {
        AffinityConfig {
            dims: (64, 64, 32),
            workers: 4,
            quick: false,
        }
    }
}

/// One scheduling policy's measurements.
#[derive(Debug, Clone)]
pub struct AffinityRow {
    /// Which policy ran.
    pub scheduling: Scheduling,
    /// Wall time for the full task set.
    pub elapsed_s: f64,
    /// Dataset loads summed over workers (lower = better affinity).
    pub total_loads: u64,
    /// Distinct datasets each worker loaded.
    pub distinct_keys_per_worker: Vec<usize>,
}

/// The ablation result: one row per scheduling policy, plus workload shape.
#[derive(Debug, Clone)]
pub struct AffinityReport {
    /// Datasets in the workload.
    pub datasets: usize,
    /// Error bounds per dataset.
    pub bounds: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Affinity first, then round-robin.
    pub rows: Vec<AffinityRow>,
}

/// Run the affinity-vs-round-robin ablation.
pub fn run_affinity_ablation(config: &AffinityConfig) -> Result<AffinityReport> {
    let workers = config.workers.max(4);
    let mut hurricane = Hurricane::with_dims(config.dims.0, config.dims.1, config.dims.2, 2);
    let n_data = hurricane.len().min(if config.quick { 6 } else { 13 });
    let datasets: Arc<Vec<Data>> = Arc::new(
        (0..n_data)
            .map(|i| hurricane.load_data(i))
            .collect::<Result<_>>()?,
    );
    // several error bounds per dataset: the repeated-data workload
    let bounds = [1e-6, 1e-5, 1e-4, 1e-3];
    let tasks: Vec<Task> = (0..n_data)
        .flat_map(|di| {
            bounds.iter().enumerate().map(move |(bi, &abs)| {
                Task::new(
                    format!("d{di:02}b{bi}"),
                    di as u64,
                    Options::new()
                        .with("dataset", di as u64)
                        .with("pressio:abs", abs),
                )
            })
        })
        .collect();
    let mut rows = Vec::new();
    for scheduling in [Scheduling::DataAffinity, Scheduling::RoundRobin] {
        // per-worker "loaded dataset" caches: first touch costs a deep copy
        let caches: Arc<Vec<Mutex<HashMap<u64, Data>>>> =
            Arc::new((0..workers).map(|_| Mutex::new(HashMap::new())).collect());
        let ds = datasets.clone();
        let cs = caches.clone();
        let t0 = Instant::now();
        let (outcomes, stats) = run_tasks(
            tasks.clone(),
            PoolConfig {
                workers,
                scheduling,
                max_attempts: 1,
                retry_backoff_ms: 0,
            },
            Arc::new(move |task: &Task, w| {
                let di = task.config.get_u64("dataset")? as usize;
                let abs = task.config.get_f64("pressio:abs")?;
                let mut cache = cs[w].lock().unwrap();
                // simulated load: deep-copy into the worker-local cache
                let data = cache
                    .entry(di as u64)
                    .or_insert_with(|| ds[di].clone())
                    .clone();
                // the compute: a khan-style fast estimate
                let scheme = pressio_predict::schemes::KhanScheme::default();
                let mut sz = pressio_sz::SzCompressor::new();
                pressio_core::Compressor::set_options(
                    &mut sz,
                    &Options::new().with("pressio:abs", abs),
                )?;
                pressio_predict::Scheme::error_dependent_features(&scheme, &data, &sz)
            }),
        );
        let elapsed_s = t0.elapsed().as_secs_f64();
        for outcome in &outcomes {
            if let Err(e) = &outcome.result {
                return Err(pressio_core::error::Error::TaskFailed(format!(
                    "affinity ablation task {}: {e}",
                    outcome.id
                )));
            }
        }
        rows.push(AffinityRow {
            scheduling,
            elapsed_s,
            total_loads: stats.total_loads() as u64,
            distinct_keys_per_worker: stats.distinct_keys_per_worker.clone(),
        });
    }
    Ok(AffinityReport {
        datasets: n_data,
        bounds: bounds.len(),
        workers,
        rows,
    })
}

/// Human-readable report, matching the old binary's output shape.
pub fn format_affinity(report: &AffinityReport) -> String {
    let mut out = String::from("# Ablation: data-affinity vs round-robin scheduling\n\n");
    out.push_str(&format!(
        "{} tasks = {} datasets x {} bounds, {} workers\n",
        report.datasets * report.bounds,
        report.datasets,
        report.bounds,
        report.workers
    ));
    for row in &report.rows {
        out.push_str(&format!(
            "{:?}: {:.2}s, distinct dataset loads = {} (per-worker {:?})\n",
            row.scheduling, row.elapsed_s, row.total_loads, row.distinct_keys_per_worker
        ));
    }
    out.push_str(
        "\nshape check: affinity performs ~1 load per dataset; \
         round-robin up to workers x datasets\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_loads_each_dataset_fewer_times_than_round_robin() {
        let report = run_affinity_ablation(&AffinityConfig {
            dims: (8, 8, 4),
            workers: 4,
            quick: true,
        })
        .unwrap();
        assert_eq!(report.rows.len(), 2);
        let affinity = &report.rows[0];
        let round_robin = &report.rows[1];
        assert!(matches!(affinity.scheduling, Scheduling::DataAffinity));
        assert!(matches!(round_robin.scheduling, Scheduling::RoundRobin));
        // affinity: each dataset is loaded once; round-robin spreads the
        // same dataset across workers so it can only load more
        assert_eq!(affinity.total_loads, report.datasets as u64);
        assert!(round_robin.total_loads >= affinity.total_loads);
        let text = format_affinity(&report);
        assert!(text.contains("DataAffinity"), "{text}");
        assert!(text.contains("RoundRobin"), "{text}");
    }
}
