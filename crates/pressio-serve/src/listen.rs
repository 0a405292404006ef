//! Serving the daemon's socket: the accept loop and the connection loop.
//!
//! A connection reads a request, has the [`Daemon`] dispatch it, stamps
//! `serve:elapsed_ms`, writes the response, and on `shutdown` answers
//! `bye`, raises the [`StopSignal`], and lets every connection finish the
//! request it is on.

use crate::net::{Conn, Endpoint, Listener};
use crate::protocol::{self, op};
use crate::server::Daemon;
use pressio_core::error::{Error, Result};
use pressio_core::Options;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shutdown coordination: a flag plus a self-connect to unblock the
/// blocked `accept`.
pub(crate) struct StopSignal {
    flag: AtomicBool,
    listener: Endpoint,
}

impl StopSignal {
    pub(crate) fn new(listener: Endpoint) -> StopSignal {
        StopSignal {
            flag: AtomicBool::new(false),
            listener,
        }
    }

    pub(crate) fn is_raised(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Raise the flag and wake the accept loop (the accepted no-op
    /// connection closes immediately when the loop breaks); idempotent.
    pub(crate) fn raise(&self) {
        if !self.flag.swap(true, Ordering::AcqRel) {
            let _ = self.listener.connect();
        }
    }
}

/// Accept on `listener` until the daemon stops, one connection thread per
/// connection; ends once every connection has, removing a Unix socket
/// file on the way out.
pub(crate) fn spawn_accept_loop(listener: Listener, daemon: Arc<Daemon>) -> Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("pressio-serve".into())
        .spawn(move || accept_loop(listener, daemon))
        .map_err(|e| Error::Io(format!("spawning accept thread: {e}")))
}

fn accept_loop(listener: Listener, daemon: Arc<Daemon>) {
    let mut connections = Vec::new();
    while !daemon.stop.is_raised() {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(_) => continue,
        };
        if daemon.stop.is_raised() {
            break; // the shutdown self-connect
        }
        let daemon = daemon.clone();
        if let Ok(handle) = std::thread::Builder::new()
            .name("pressio-serve-conn".into())
            .spawn(move || connection_loop(conn, &daemon))
        {
            connections.push(handle);
        }
        // reap finished connection threads so the list stays bounded
        connections.retain(|h| !h.is_finished());
    }
    for handle in connections {
        let _ = handle.join();
    }
    #[cfg(unix)]
    if let Listener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
}

fn connection_loop(mut conn: Conn, daemon: &Daemon) {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(200)));
    let max_frame = daemon.max_frame();
    while let Some(request) = protocol::next_request(&mut conn, max_frame, &daemon.stop.flag) {
        let op_name = protocol::op_name(&request).to_string();
        let _span =
            pressio_obs::is_enabled().then(|| pressio_obs::span(format!("serve:op.{op_name}")));
        // failpoint: the process dies after accepting a request but before
        // answering it — the widest crash window a client can face. Exit
        // code 86 distinguishes the injected crash from a real panic so
        // chaos tests can assert on it.
        if let Some(pressio_faults::FaultAction::Crash) =
            pressio_faults::check("serve:request.crash")
        {
            std::process::exit(86);
        }
        let started = Instant::now();
        let shutting_down = op_name == op::SHUTDOWN;
        let response = if shutting_down {
            Options::new().with("serve:type", "bye")
        } else {
            daemon.dispatch(&op_name, request)
        };
        let response = response.with("serve:elapsed_ms", started.elapsed().as_secs_f64() * 1e3);
        // failpoint: a stalled client holds the response in flight
        if let Some(
            pressio_faults::FaultAction::Stall(ms) | pressio_faults::FaultAction::Delay(ms),
        ) = pressio_faults::check("serve:conn.stall")
        {
            std::thread::sleep(Duration::from_millis(ms));
        }
        // failpoint: sever the connection mid-frame — the client sees a
        // torn frame / EOF and must reconnect and retry
        let frame = protocol::response_frame(&response);
        let write_ok = if pressio_faults::check("serve:conn.drop").is_some() {
            let _ = std::io::Write::write_all(&mut conn, &frame[..frame.len() / 2]);
            let _ = std::io::Write::flush(&mut conn);
            false
        } else {
            std::io::Write::write_all(&mut conn, &frame)
                .and_then(|()| std::io::Write::flush(&mut conn))
                .is_ok()
        };
        if shutting_down {
            daemon.stop.raise();
            break;
        }
        if !write_ok {
            break;
        }
    }
}
