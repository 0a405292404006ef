//! The program under test for the serving workloads: a real
//! `pressio serve` child process on a unix socket.

use pressio_core::Options;
use pressio_serve::{Client, Endpoint};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Daemon {
    child: Child,
    pub endpoint: Endpoint,
    pub model_dir: PathBuf,
}

/// The `pressio` binary: named by `PRESSIO_BIN` (set by `run.sh`), else
/// the sibling of this executable, where one shared target directory puts it.
pub fn pressio_bin() -> Result<PathBuf, String> {
    let path = match std::env::var_os("PRESSIO_BIN") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("pressio"),
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found: build it with benchmark/run.sh or set PRESSIO_BIN",
            path.display()
        ))
    }
}

impl Daemon {
    /// Start `pressio serve` with its socket and model store under `dir`
    /// and wait until it answers a ping. `dir` is kept relative so the
    /// socket path stays under the 108-byte `sun_path` limit.
    pub fn spawn(dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = dir.join("d.sock");
        let model_dir = dir.join("models");
        let child = Command::new(pressio_bin()?)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--models")
            .arg(&model_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning pressio serve: {e}"))?;
        let mut daemon = Daemon {
            child,
            endpoint: Endpoint::Unix(socket),
            model_dir,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut client) = Client::connect(&daemon.endpoint) {
                if client.ping().is_ok() {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("pressio serve exited at start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("pressio serve did not answer within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn client(&self) -> Result<Client, String> {
        Client::connect(&self.endpoint).map_err(|e| format!("connecting to the daemon: {e}"))
    }

    /// The `train` op: fit `scheme` for sz3 on the daemon's own Hurricane
    /// sweep at `dims`, persist it as `model` and make it resident.
    pub fn train(
        &self,
        model: &str,
        scheme: &str,
        dims: [usize; 3],
        abs: f64,
    ) -> Result<(), String> {
        let request = Options::new()
            .with("serve:op", "train")
            .with("serve:model", model)
            .with("serve:scheme", scheme)
            .with("serve:compressor", "sz3")
            .with(
                "serve:dims",
                dims.iter().map(|&d| d as u64).collect::<Vec<u64>>(),
            )
            .with("serve:timesteps", 2u64)
            .with("serve:bounds", vec![abs]);
        let reply = self
            .client()?
            .call(&request)
            .map_err(|e| format!("train: {e}"))?;
        match reply.get_str("serve:type") {
            Ok("trained") => Ok(()),
            _ => Err(format!("train was refused: {reply:?}")),
        }
    }

    /// Graceful drain, then wait for the process to end.
    pub fn stop(mut self) {
        let drained = self
            .client()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(10);
        while drained.is_ok() && Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // deaf or stuck draining: Drop kills it and waits
    }
}

impl Drop for Daemon {
    /// A run that ends early (a failed check, a panic) still leaves no
    /// process behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
