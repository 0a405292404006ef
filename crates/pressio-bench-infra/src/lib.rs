//! # pressio-bench-infra
//!
//! The LibPressio-Predict-Bench analog (paper §4.3): infrastructure for
//! training and evaluating prediction schemes at scale, resiliently.
//!
//! - [`store`] — crash-safe checkpoint database keyed by stable SHA-256
//!   option hashes (the paper's SQLite role: atomic commits + queryable
//!   partial state).
//! - [`queue`] — worker-pool task queue with data-affinity scheduling,
//!   panic containment, and retry-on-another-worker fault tolerance (the
//!   single-node analog of the LibDistributed MPI queue).
//! - [`experiment`] — the k-fold cross-validated Table 2 driver with
//!   per-stage timing and checkpointed ground-truth collection.
//!
//! The paper's experiments run on these through one command, `pressio
//! bench` in `pressio-cli`: Table 2 itself, and with `--ablation <name>`
//! the studies beside it (the scheduling and restart ablations among them).
//!
//! ```no_run
//! use pressio_bench_infra::experiment::{format_table2, run_table2, Table2Config};
//! use pressio_dataset::Hurricane;
//!
//! let mut dataset = Hurricane::small();
//! let table = run_table2(&mut dataset, &Table2Config::default()).unwrap();
//! println!("{}", format_table2(&table));
//! ```

#![warn(missing_docs)]

pub mod experiment;
pub mod queue;
pub mod store;

pub use experiment::{format_table2, run_table2, BaselineRow, MethodRow, Table2, Table2Config};
pub use queue::{
    run_tasks, run_tasks_dynamic, DynamicOutcome, DynamicWorkerFn, PoolConfig, PoolStats,
    Scheduling, Task, TaskOutcome, WorkerFn,
};
pub use store::CheckpointStore;
