//! `pressio serve`: the prediction daemon, single-process or as a
//! supervisor over `--shards N` re-executed shard processes.

use crate::args::{usage_error, Args};
use crate::bench::install_trace;
use crate::spawn::ProcessSpawner;
use pressio_core::error::{Error, Result};
use pressio_serve::{ServeConfig, Server, Supervisor, SupervisorConfig};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

/// What `pressio serve` runs: the daemon's own configuration, plus the two
/// things the CLI adds around it.
#[derive(Debug, Clone, PartialEq)]
pub struct Serve {
    /// The daemon's tunables (for a supervisor, the template every shard
    /// is configured from).
    pub config: ServeConfig,
    /// Shard processes to supervise (0 = plain single-process server).
    pub shards: usize,
    /// Observability trace output path (shard `i` writes `<trace>.s<i>`).
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
            shards: a.shards,
            trace: a.trace,
        })
    }

    pub(crate) fn run(self, out: &mut impl Write) -> Result<()> {
        let collector = install_trace(self.trace.as_deref())?;
        let result = if self.shards > 0 {
            // supervisor mode: re-execute this binary as N shard
            // workers and run the control plane / routing proxy here
            let exe = std::env::current_exe()
                .map_err(|e| Error::Io(format!("resolving current executable: {e}")))?;
            let base = self.config.listen.clone();
            let sup = SupervisorConfig::new(base, self.config, self.shards);
            let spawner = Arc::new(ProcessSpawner {
                exe,
                trace: self.trace,
            });
            let handle = Supervisor::start(sup, spawner)?;
            writeln!(out, "pressio-serve listening on {}", handle.endpoint())?;
            for (i, shard) in handle.topology().shards.iter().enumerate() {
                writeln!(out, "pressio-serve shard {i} on {shard}")?;
            }
            out.flush()?;
            handle.wait()
        } else {
            let handle = Server::start(self.config)?;
            writeln!(out, "pressio-serve listening on {}", handle.endpoint())?;
            out.flush()?;
            handle.wait()
        };
        if let Some(c) = collector {
            c.flush();
            let _ = pressio_obs::uninstall();
        }
        result?;
        writeln!(out, "pressio-serve drained and exited")?;
        Ok(())
    }
}
