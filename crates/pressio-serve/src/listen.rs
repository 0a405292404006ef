//! Serving a socket: the one accept loop and the one connection loop.
//!
//! The daemon and the supervisor are both a [`Service`] — an op table and
//! a [`StopSignal`] — behind the same skeleton: read a request, dispatch
//! it, stamp `serve:elapsed_ms`, write the response, and on `shutdown`
//! answer `bye`, stop accepting, and let every connection finish the
//! request it is on.

use crate::net::{Conn, Endpoint, Listener};
use crate::protocol::{self, op};
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
    /// connection closes immediately when the loop breaks). True for the
    /// one call that raised it.
    fn raise(&self) -> bool {
        let first = !self.flag.swap(true, Ordering::AcqRel);
        if first {
            let _ = self.listener.connect();
        }
        first
    }
}

/// What differs between the servers in this crate.
pub(crate) trait Service: Send + Sync + 'static {
    fn stop(&self) -> &StopSignal;
    /// Largest frame accepted from a peer (see `ServeConfig::max_frame`).
    fn max_frame(&self) -> usize;
    /// Answer one request; `shutdown` never reaches here.
    fn dispatch(&self, op_name: &str, request: Options) -> Options;
    /// What stopping means beyond closing the listeners.
    fn on_stop(&self) {}
}

/// Stop `service` gracefully; idempotent.
pub(crate) fn shutdown(service: &impl Service) {
    if service.stop().raise() {
        service.on_stop();
    }
}

/// Accept on `listener` in a thread named `name` until the service stops,
/// one `<name>-conn` thread per connection; ends once every connection
/// has, removing a Unix socket file on the way out.
pub(crate) fn spawn_accept_loop<S: Service>(
    listener: Listener,
    service: Arc<S>,
    name: String,
) -> Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(name.clone())
        .spawn(move || accept_loop(listener, service, &name))
        .map_err(|e| Error::Io(format!("spawning accept thread: {e}")))
}

fn accept_loop<S: Service>(listener: Listener, service: Arc<S>, name: &str) {
    let mut connections = Vec::new();
    while !service.stop().is_raised() {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(_) => continue,
        };
        if service.stop().is_raised() {
            break; // the shutdown self-connect
        }
        let service = service.clone();
        if let Ok(handle) = std::thread::Builder::new()
            .name(format!("{name}-conn"))
            .spawn(move || connection_loop(conn, &*service))
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

fn connection_loop(mut conn: Conn, service: &impl Service) {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(200)));
    while let Some(request) =
        protocol::next_request(&mut conn, service.max_frame(), &service.stop().flag)
    {
        let op_name = protocol::op_name(&request).to_string();
        let _span =
            pressio_obs::is_enabled().then(|| pressio_obs::span(format!("serve:op.{op_name}")));
        // failpoint: the process dies after accepting a request but before
        // answering it — the widest crash window a client can face. Exit
        // code 86 distinguishes the injected crash from a real panic so
        // supervisors and chaos tests can assert on it.
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
            service.dispatch(&op_name, request)
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
            shutdown(service);
            break;
        }
        if !write_ok {
            break;
        }
    }
}
