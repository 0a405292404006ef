//! `pressio bench`: Table 2 of the paper on a synthetic hurricane, or one
//! of the [`studies`](crate::studies) by name.

use crate::args::{usage_error, Args};
use crate::studies::{self, Study};
use pressio_bench_infra::experiment::{format_table2, run_table2, Table2Config};
use pressio_core::error::Result;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Run Table 2, or a study.
#[derive(Debug, Clone, PartialEq)]
pub struct Bench {
    /// The problem size.
    pub study: Study,
    /// Table 2's schemes (`--scheme`: a comma list, or `all`).
    pub schemes: Vec<String>,
    /// Observability trace output path.
    pub trace: Option<PathBuf>,
    /// The study to run instead of Table 2 (one of [`studies::NAMES`]).
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

/// The paper's three schemes unless `--scheme` names others.
fn schemes(named: Option<&str>) -> Result<Vec<String>> {
    let registry = pressio_predict::standard_schemes();
    let known = registry.names();
    let schemes: Vec<String> = match named {
        None => return Ok(Table2Config::default().schemes),
        Some("all") => known.iter().map(|name| name.to_string()).collect(),
        Some(list) => list.split(',').map(String::from).collect(),
    };
    match schemes.iter().find(|name| !known.contains(&name.as_str())) {
        Some(unknown) => Err(usage_error(&format!(
            "unknown scheme '{unknown}' (available: all, {})",
            known.join(", ")
        ))),
        None => Ok(schemes),
    }
}

impl Bench {
    pub(crate) fn from_args(a: Args) -> Result<Bench> {
        Ok(Bench {
            study: Study::from_args(&a),
            schemes: schemes(a.scheme.as_deref())?,
            trace: a.trace,
            ablation: a.ablation,
        })
    }

    pub(crate) fn run(self, out: &mut impl Write) -> Result<()> {
        let collector = install_trace(self.trace.as_deref())?;
        let result = match &self.ablation {
            Some(name) => studies::run(name, &self.study, out),
            None => self.run_table2(out),
        };
        // always tear down the global collector, even on error
        if collector.is_some() {
            let _ = pressio_obs::uninstall();
        }
        result?;
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

    fn run_table2(&self, out: &mut impl Write) -> Result<()> {
        let (nx, ny, nz) = self.study.dims;
        let mut hurricane = pressio_dataset::Hurricane::with_dims(nx, ny, nz, self.study.timesteps);
        let cfg = Table2Config {
            schemes: self.schemes.clone(),
            workers: self.study.workers,
            ..Default::default()
        };
        let table = run_table2(&mut hurricane, &cfg)?;
        writeln!(
            out,
            "# Table 2: Hurricane Performance Results using 10-Fold Cross-Validation\n"
        )?;
        write!(out, "{}", format_table2(&table))?;
        Ok(())
    }
}
