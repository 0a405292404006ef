//! Process-backed shard spawning for `pressio serve --shards N`.
//!
//! The supervisor in `pressio-serve` is spawner-agnostic; this module
//! backs it with real child processes: each shard is `pressio serve
//! --shard-index i` re-executed from the current binary, its concrete
//! endpoint recovered by parsing the `pressio-serve listening on …` line
//! the daemon prints on startup (which is how port-0 TCP binds resolve
//! across the process boundary).

use crate::args::{Verb, FLAGS};
use crate::serve::Serve;
use pressio_core::error::{Error, Result};
use pressio_serve::shard::{ShardHandle, ShardSpawner};
use pressio_serve::{Client, Endpoint, ServeConfig};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

/// Spawns each shard as a child `pressio serve --shard-index i` process.
pub struct ProcessSpawner {
    /// The binary to re-execute (normally `std::env::current_exe()`).
    pub exe: PathBuf,
    /// When set, shard `i` writes its trace to `<trace>.s<i>`.
    pub trace: Option<PathBuf>,
}

struct ProcessShard {
    child: Child,
    endpoint: Endpoint,
    /// Kept open so the child never blocks on a full stdout pipe.
    _stdout: Option<std::io::BufReader<std::process::ChildStdout>>,
}

impl ShardHandle for ProcessShard {
    fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    fn is_alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    fn shutdown(&mut self) {
        // graceful drain first; only a deaf shard gets killed
        let graceful = Client::connect(&self.endpoint)
            .and_then(|mut c| c.shutdown())
            .is_ok();
        if graceful {
            let _ = self.child.wait();
        } else {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

impl Drop for ProcessShard {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

impl ProcessSpawner {
    /// The command line that makes a child `pressio` serve `config`: the
    /// flag table walked backwards, so a shard inherits every option the
    /// table can set and this file names none of them.
    pub fn child_argv(&self, config: ServeConfig) -> Vec<String> {
        let index = config.shard_index.unwrap_or(0);
        let child = Serve {
            config,
            shards: 0,
            trace: self
                .trace
                .as_ref()
                .map(|trace| format!("{}.s{index}", trace.display()).into()),
        };
        let mut argv = vec![Verb::Serve.name().to_string()];
        for flag in &FLAGS {
            if let Some(value) = flag.show.and_then(|show| show(&child)) {
                argv.push(flag.names[0].to_string());
                if !flag.needs.is_empty() {
                    argv.push(value);
                }
            }
        }
        argv
    }
}

impl ShardSpawner for ProcessSpawner {
    fn spawn(&self, config: ServeConfig) -> Result<Box<dyn ShardHandle>> {
        let index = config.shard_index.unwrap_or(0);
        let mut cmd = Command::new(&self.exe);
        cmd.args(self.child_argv(config))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| Error::Io(format!("spawning shard {index}: {e}")))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut reader = std::io::BufReader::new(stdout);
        // the daemon's first line announces the concrete endpoint
        let endpoint = loop {
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| Error::Io(format!("reading shard {index} startup: {e}")))?;
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(Error::TaskFailed(format!(
                    "shard {index} exited before announcing its endpoint"
                )));
            }
            if let Some(spec) = line.trim().strip_prefix("pressio-serve listening on ") {
                break Endpoint::parse(spec)?;
            }
        };
        Ok(Box::new(ProcessShard {
            child,
            endpoint,
            _stdout: Some(reader),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_args, Command};

    /// A shard inherits every option: a config with each flag-backed field
    /// off its default survives the trip through a child's command line.
    #[test]
    fn child_argv_round_trips_every_serve_option() {
        let config = ServeConfig {
            workers: 7,
            queue_capacity: 11,
            batch_max: 3,
            default_deadline_ms: 1234,
            cache_entries: 99,
            shard_index: Some(2),
            max_frame: 4 << 20,
            online: true,
            online_window: 16,
            online_refit_every: 2,
            stream_idle_secs: 7,
            ..ServeConfig::new(Endpoint::Tcp("127.0.0.1:9001".into()), "/tmp/models")
        };
        let spawner = ProcessSpawner {
            exe: "pressio".into(),
            trace: Some("/tmp/t.jsonl".into()),
        };
        let argv = spawner.child_argv(config.clone());
        let Command::Serve(child) = parse_args(argv).unwrap() else {
            panic!("not a serve");
        };
        assert_eq!(child.config, config);
        assert_eq!(
            (child.shards, child.trace),
            (0, Some("/tmp/t.jsonl.s2".into()))
        );
        // the other transport, with every option at its default
        #[cfg(unix)]
        {
            let config = ServeConfig::new(Endpoint::Unix("/tmp/s.sock.s0".into()), "/tmp/models");
            let spawner = ProcessSpawner {
                trace: None,
                ..spawner
            };
            let serve = Serve {
                config: config.clone(),
                shards: 0,
                trace: None,
            };
            let argv = spawner.child_argv(config);
            assert_eq!(parse_args(argv).unwrap(), Command::Serve(serve));
        }
        // and no serve row can be added without its way back
        for flag in FLAGS.iter().filter(|flag| flag.read_by(Verb::Serve)) {
            let process_wide = flag.read_by(Verb::Schemes);
            assert!(flag.show.is_some() || process_wide, "{}", flag.names[0]);
        }
    }
}
