//! Transport abstraction: one [`Endpoint`] type covering Unix-domain
//! sockets and TCP, with a common [`Conn`] stream so the protocol, server,
//! and client are transport-agnostic.

use pressio_core::error::{Error, Result};
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where a server listens / a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket path (preferred for local serving).
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP `host:port` address (`port` may be 0 when binding: the chosen
    /// port is reported by [`Listener::local_endpoint`]).
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl Endpoint {
    /// Parse the `Display` form back into an endpoint: `unix:<path>` or
    /// `tcp:<host:port>`. A bare `host:port` is accepted as TCP, so
    /// endpoints round-trip through log lines.
    pub fn parse(spec: &str) -> Result<Endpoint> {
        if let Some(path) = spec.strip_prefix("unix:") {
            #[cfg(unix)]
            return Ok(Endpoint::Unix(PathBuf::from(path)));
            #[cfg(not(unix))]
            return Err(Error::Unsupported(format!(
                "unix endpoint '{path}' on a non-unix platform"
            )));
        }
        let addr = spec.strip_prefix("tcp:").unwrap_or(spec);
        if addr.is_empty() {
            return Err(Error::InvalidValue {
                key: "serve:endpoint".into(),
                reason: format!("'{spec}' is not unix:<path> or tcp:<host:port>"),
            });
        }
        Ok(Endpoint::Tcp(addr.to_string()))
    }

    /// Bind a listener. For Unix sockets a stale socket file from a
    /// previous run is removed first (binding over it would otherwise
    /// fail forever).
    pub fn bind(&self) -> Result<Listener> {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                Ok(Listener::Unix(UnixListener::bind(path)?, path.clone()))
            }
            Endpoint::Tcp(addr) => {
                Ok(Listener::Tcp(TcpListener::bind(addr).map_err(|e| {
                    Error::Io(format!("binding tcp {addr}: {e}"))
                })?))
            }
        }
    }

    /// Connect a client stream.
    pub fn connect(&self) -> Result<Conn> {
        match self {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                Ok(Conn::new(Stream::Unix(UnixStream::connect(path).map_err(
                    |e| Error::Io(format!("connecting unix socket {}: {e}", path.display())),
                )?)))
            }
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)
                    .map_err(|e| Error::Io(format!("connecting tcp {addr}: {e}")))?;
                // request/response framing: latency matters, not batching
                let _ = stream.set_nodelay(true);
                Ok(Conn::new(Stream::Tcp(stream)))
            }
        }
    }
}

/// A bound listener.
pub enum Listener {
    /// Unix listener plus its socket path (removed by the server on
    /// shutdown).
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Accept one connection.
    pub fn accept(&self) -> Result<Conn> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l, _) => Ok(Conn::new(Stream::Unix(l.accept()?.0))),
            Listener::Tcp(l) => {
                let stream = l.accept()?.0;
                let _ = stream.set_nodelay(true);
                Ok(Conn::new(Stream::Tcp(stream)))
            }
        }
    }

    /// The concrete endpoint (resolves a `port 0` TCP bind).
    pub fn local_endpoint(&self) -> Result<Endpoint> {
        match self {
            #[cfg(unix)]
            Listener::Unix(_, path) => Ok(Endpoint::Unix(path.clone())),
            Listener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
        }
    }
}

/// Bytes a [`Conn`] reads from its socket at a time: more than a request
/// with an 8 KiB buffer, so a small frame — prefix, header and payload —
/// costs one `read` call.
pub const READ_BUFFER: usize = 16 << 10;

/// `inner` read through a [`READ_BUFFER`]-byte buffer, as a [`Conn`] reads
/// its socket. A read at least as large as the buffer that finds it empty
/// goes straight into the caller's memory, so a large blob is not copied
/// through it.
pub fn buffered<R: Read>(inner: R) -> BufReader<R> {
    BufReader::with_capacity(READ_BUFFER, inner)
}

/// A connected stream (either transport), read through [`buffered`] and
/// written unbuffered: every frame is already one (vectored) write.
pub struct Conn(BufReader<Stream>);

enum Stream {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn new(stream: Stream) -> Conn {
        Conn(buffered(stream))
    }

    /// Set (or clear) the read timeout; used by the server to poll the
    /// shutdown flag while idle.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> Result<()> {
        match self.0.get_ref() {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur)?,
            Stream::Tcp(s) => s.set_read_timeout(dur)?,
        }
        Ok(())
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.get_mut().write(buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        self.0.get_mut().write_vectored(bufs)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.get_mut().flush()
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write_vectored(bufs),
            Stream::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_port_zero_resolves_to_real_port() {
        let listener = Endpoint::Tcp("127.0.0.1:0".into()).bind().unwrap();
        let ep = listener.local_endpoint().unwrap();
        let Endpoint::Tcp(addr) = &ep else {
            panic!("expected tcp endpoint");
        };
        assert!(!addr.ends_with(":0"), "{addr}");
        // and it is connectable
        let _conn = ep.connect().unwrap();
    }

    #[test]
    fn endpoint_display_parse_round_trip() {
        let tcp = Endpoint::Tcp("127.0.0.1:8080".into());
        assert_eq!(Endpoint::parse(&tcp.to_string()).unwrap(), tcp);
        // bare host:port is accepted as tcp
        assert_eq!(Endpoint::parse("127.0.0.1:8080").unwrap(), tcp);
        #[cfg(unix)]
        {
            let ux = Endpoint::Unix(PathBuf::from("/tmp/x.sock"));
            assert_eq!(Endpoint::parse(&ux.to_string()).unwrap(), ux);
        }
        assert!(Endpoint::parse("tcp:").is_err());
        assert!(Endpoint::parse("").is_err());
    }

    #[cfg(unix)]
    #[test]
    fn unix_bind_replaces_stale_socket() {
        let dir = std::env::temp_dir().join("pressio_net_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.sock");
        let ep = Endpoint::Unix(path.clone());
        drop(ep.bind().unwrap()); // leaves the socket file behind
        assert!(path.exists());
        let listener = ep.bind().unwrap(); // must not fail on the stale file
        drop(listener);
        let _ = std::fs::remove_file(&path);
    }
}
