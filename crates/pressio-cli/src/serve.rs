//! `pressio serve`: the prediction daemon, one process.

use crate::args::{usage_error, Args};
use crate::bench::install_trace;
use pressio_core::error::Result;
use pressio_serve::{ServeConfig, Server};
use std::io::Write;
use std::path::PathBuf;

/// What `pressio serve` runs: the daemon's own configuration, plus the
/// trace the CLI adds around it.
#[derive(Debug, Clone, PartialEq)]
pub struct Serve {
    /// The daemon's tunables.
    pub config: ServeConfig,
    /// Observability trace output path.
    pub trace: Option<PathBuf>,
}

impl Serve {
    pub(crate) fn from_args(a: Args) -> Result<Serve> {
        let mut config = a.serve;
        config.listen = a
            .endpoint
            .ok_or_else(|| usage_error("serve requires --socket or --tcp"))?;
        if config.model_dir.as_os_str().is_empty() {
            return Err(usage_error("serve requires --models <dir>"));
        }
        config.workers = a.workers;
        Ok(Serve {
            config,
            trace: a.trace,
        })
    }

    pub(crate) fn run(self, out: &mut impl Write) -> Result<()> {
        let collector = install_trace(self.trace.as_deref())?;
        let handle = Server::start(self.config)?;
        writeln!(out, "pressio-serve listening on {}", handle.endpoint())?;
        out.flush()?;
        let result = handle.wait();
        if let Some(c) = collector {
            c.flush();
            let _ = pressio_obs::uninstall();
        }
        result?;
        writeln!(out, "pressio-serve drained and exited")?;
        Ok(())
    }
}
