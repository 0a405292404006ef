//! `pressio bench`: the Table-2 pipeline on a synthetic hurricane, or one
//! of the named ablations.

use crate::args::{usage_error, Args};
use pressio_bench_infra::{affinity, experiment, restart};
use pressio_core::error::Result;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Run the Table-2 benchmark pipeline, or an ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct Bench {
    /// Grid dims.
    pub dims: (usize, usize, usize),
    /// Timesteps.
    pub timesteps: usize,
    /// Worker threads for ground-truth collection.
    pub workers: usize,
    /// Observability trace output path.
    pub trace: Option<PathBuf>,
    /// Named ablation to run instead of the Table-2 pipeline
    /// (`affinity`, `checkpoint`, or any of
    /// `pressio_bench::ablations::NAMES`).
    pub ablation: Option<String>,
}

/// Install a process-wide collector writing JSONL to `path`, if there is
/// one; whoever installs it calls `pressio_obs::uninstall` when done.
pub(crate) fn install_trace(path: Option<&Path>) -> Result<Option<Arc<pressio_obs::Collector>>> {
    let Some(path) = path else {
        return Ok(None);
    };
    let sink = pressio_obs::JsonlSink::create(path)?;
    let collector = Arc::new(pressio_obs::Collector::with_sink(Box::new(sink)));
    pressio_obs::install(collector.clone());
    Ok(Some(collector))
}

impl Bench {
    pub(crate) fn from_args(a: Args) -> Bench {
        Bench {
            dims: a.dims,
            timesteps: a.timesteps,
            workers: a.workers,
            trace: a.trace,
            ablation: a.ablation,
        }
    }

    pub(crate) fn run(self, out: &mut impl Write) -> Result<()> {
        match &self.ablation {
            Some(name) => self.run_ablation(name, out),
            None => self.run_table2(out),
        }
    }

    /// The CLI's `--timesteps 1` default maps to each ablation's quick mode.
    fn run_ablation(&self, name: &str, out: &mut impl Write) -> Result<()> {
        let (dims, workers, quick) = (self.dims, self.workers, self.timesteps <= 1);
        match name {
            "affinity" => {
                let config = affinity::AffinityConfig {
                    dims,
                    workers,
                    quick,
                };
                let report = affinity::run_affinity_ablation(&config)?;
                write!(out, "{}", affinity::format_affinity(&report))?;
            }
            "checkpoint" => {
                let config = restart::RestartConfig {
                    dims,
                    workers,
                    quick,
                    checkpoint: None,
                };
                let report = restart::run_checkpoint_ablation(&config)?;
                write!(out, "{}", restart::format_checkpoint(&report))?;
            }
            // the remaining ablations live in pressio-bench's library
            name if pressio_bench::ablations::NAMES.contains(&name) => {
                let bench_args = pressio_bench::BenchArgs {
                    dims,
                    timesteps: self.timesteps,
                    quick,
                    workers,
                    ..Default::default()
                };
                pressio_bench::ablations::run(name, &bench_args, out)?;
            }
            other => {
                return Err(usage_error(&format!(
                    "unknown ablation '{other}' (available: affinity, checkpoint, {})",
                    pressio_bench::ablations::NAMES.join(", ")
                )))
            }
        }
        Ok(())
    }

    fn run_table2(&self, out: &mut impl Write) -> Result<()> {
        let collector = install_trace(self.trace.as_deref())?;
        let (nx, ny, nz) = self.dims;
        let mut hurricane = pressio_dataset::Hurricane::with_dims(nx, ny, nz, self.timesteps);
        let cfg = experiment::Table2Config {
            workers: self.workers,
            checkpoint: None,
            ..Default::default()
        };
        let result = experiment::run_table2(&mut hurricane, &cfg);
        // always tear down the global collector, even on error
        if collector.is_some() {
            let _ = pressio_obs::uninstall();
        }
        let table = result?;
        write!(out, "{}", experiment::format_table2(&table))?;
        if let Some(c) = collector {
            c.flush();
            writeln!(out, "\n## Observability report\n")?;
            write!(out, "{}", c.report().format())?;
            if let Some(path) = &self.trace {
                writeln!(out, "\ntrace written to {}", path.display())?;
            }
        }
        Ok(())
    }
}
