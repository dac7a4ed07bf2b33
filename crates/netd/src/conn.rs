//! Transport-agnostic connections and listeners.
//!
//! The daemon serves — and the client library dials — two kernel socket
//! transports behind one pair of enums: Unix-domain sockets (the
//! production node-local path, EARL to its EARD) and TCP (cross-node
//! EARGM traffic). Both expose a descriptor the readiness loop's
//! `poll(2)` sleeps on. `earsim serve --socket` strings map to them: an
//! address containing `:` is TCP, anything else is a Unix socket path.

use crate::codec::{self, WireMsg};
use ear_errors::{EarError, EarResult};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where a daemon lives, from a client's point of view.
#[derive(Clone)]
pub enum Endpoint {
    /// TCP `host:port`.
    Tcp(String),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

impl Endpoint {
    /// Parses a `--socket` string: `host:port` when it contains a colon,
    /// else a Unix socket path.
    pub fn parse(spec: &str) -> Endpoint {
        if spec.contains(':') {
            Endpoint::Tcp(spec.to_string())
        } else {
            Endpoint::Unix(PathBuf::from(spec))
        }
    }

    /// Opens a connection with a connect deadline (best-effort for Unix
    /// sockets, which connect locally and have no timed variant in std).
    pub fn connect(&self, timeout: Duration) -> EarResult<NetConn> {
        match self {
            Endpoint::Tcp(addr) => {
                use std::net::ToSocketAddrs;
                let mut last = EarError::Io {
                    path: format!("tcp:{addr}"),
                    message: "address resolved to nothing".into(),
                };
                let addrs = addr
                    .to_socket_addrs()
                    .map_err(|e| codec::io_to_ear(&format!("resolve {addr}"), &e))?;
                for a in addrs {
                    match TcpStream::connect_timeout(&a, timeout) {
                        Ok(s) => {
                            let _ = s.set_nodelay(true);
                            return Ok(NetConn::Tcp(s));
                        }
                        Err(e) => last = codec::io_to_ear(&format!("connect {a}"), &e),
                    }
                }
                Err(last)
            }
            Endpoint::Unix(path) => UnixStream::connect(path)
                .map(NetConn::Unix)
                .map_err(|e| codec::io_to_ear(&format!("connect {}", path.display()), &e)),
        }
    }
}

/// A nonblocking listening socket.
pub enum NetListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener and the path it owns (removed on drop).
    Unix(UnixListener, PathBuf),
}

impl NetListener {
    /// Binds the endpoint described by a `--socket` string.
    ///
    /// A Unix path still holding a socket (a previous unclean exit leaves
    /// its socket file behind, which would make bind fail forever) is
    /// replaced; any other file at the path is left alone and the bind
    /// fails with [`EarError::Io`].
    pub fn bind(spec: &str) -> EarResult<NetListener> {
        let listener = if spec.contains(':') {
            let l = TcpListener::bind(spec)
                .map_err(|e| codec::io_to_ear(&format!("bind tcp {spec}"), &e))?;
            l.set_nonblocking(true).map(|()| NetListener::Tcp(l))
        } else {
            let path = PathBuf::from(spec);
            if std::fs::symlink_metadata(&path).is_ok_and(|m| m.file_type().is_socket()) {
                let _ = std::fs::remove_file(&path);
            }
            let l = UnixListener::bind(&path)
                .map_err(|e| codec::io_to_ear(&format!("bind unix {spec}"), &e))?;
            l.set_nonblocking(true).map(|()| NetListener::Unix(l, path))
        };
        listener.map_err(|e| codec::io_to_ear("set_nonblocking", &e))
    }

    /// A printable description of where this listener listens.
    pub fn describe(&self) -> String {
        match self {
            NetListener::Tcp(l) => l
                .local_addr()
                .map_or_else(|_| "tcp:?".into(), |a| format!("tcp:{a}")),
            NetListener::Unix(_, path) => format!("unix:{}", path.display()),
        }
    }

    /// The descriptor the readiness loop polls for pending connections.
    pub fn raw_fd(&self) -> RawFd {
        match self {
            NetListener::Tcp(l) => l.as_raw_fd(),
            NetListener::Unix(l, _) => l.as_raw_fd(),
        }
    }

    /// Accepts one pending connection without blocking; `Ok(None)` when
    /// none is queued. The returned connection is nonblocking too — the
    /// readiness loop owns its scheduling from here on.
    pub fn accept_nonblocking(&self) -> EarResult<Option<NetConn>> {
        let got = match self {
            NetListener::Tcp(l) => l.accept().and_then(|(s, _)| {
                let _ = s.set_nodelay(true);
                s.set_nonblocking(true).map(|()| NetConn::Tcp(s))
            }),
            NetListener::Unix(l, _) => l
                .accept()
                .and_then(|(s, _)| s.set_nonblocking(true).map(|()| NetConn::Unix(s))),
        };
        match got {
            Ok(conn) => Ok(Some(conn)),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(codec::io_to_ear("accept", &e)),
        }
    }
}

impl Drop for NetListener {
    fn drop(&mut self) {
        if let NetListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One established connection in either transport.
pub enum NetConn {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    Unix(UnixStream),
}

impl NetConn {
    /// Applies per-connection read/write deadlines.
    pub fn set_io_timeouts(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> EarResult<()> {
        let r = match self {
            NetConn::Tcp(s) => s
                .set_read_timeout(read)
                .and_then(|()| s.set_write_timeout(write)),
            NetConn::Unix(s) => s
                .set_read_timeout(read)
                .and_then(|()| s.set_write_timeout(write)),
        };
        r.map_err(|e| codec::io_to_ear("set timeout", &e))
    }

    /// The descriptor the readiness loop polls.
    pub fn raw_fd(&self) -> RawFd {
        match self {
            NetConn::Tcp(s) => s.as_raw_fd(),
            NetConn::Unix(s) => s.as_raw_fd(),
        }
    }

    /// Reads one frame (see [`codec::read_frame`]).
    pub fn read_msg(&mut self) -> EarResult<Option<WireMsg>> {
        codec::read_frame(self)
    }

    /// Writes one frame (see [`codec::write_frame`]).
    pub fn write_msg(&mut self, msg: &WireMsg) -> EarResult<()> {
        codec::write_frame(self, msg)
    }
}

impl Read for NetConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetConn::Tcp(s) => s.read(buf),
            NetConn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetConn::Tcp(s) => s.write(buf),
            NetConn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            NetConn::Tcp(s) => s.flush(),
            NetConn::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("earsim-conn-{tag}-{}", std::process::id()))
    }

    #[test]
    fn bind_over_a_regular_file_fails_and_keeps_its_bytes() {
        let path = temp_path("regular");
        std::fs::write(&path, b"not a socket\n").expect("write file");
        let spec = path.to_str().expect("utf-8 temp path");
        let err = NetListener::bind(spec).err().expect("bind must fail");
        assert!(matches!(err, EarError::Io { .. }), "{err}");
        assert_eq!(std::fs::read(&path).expect("file kept"), b"not a socket\n");
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn bind_replaces_a_stale_socket() {
        let path = temp_path("stale");
        // std's listener leaves its socket file behind when dropped, like
        // a daemon that exited uncleanly.
        drop(UnixListener::bind(&path).expect("first bind"));
        assert!(path.exists());
        let listener = NetListener::bind(path.to_str().expect("utf-8 temp path"))
            .expect("a stale socket is replaced");
        drop(listener);
        assert!(!path.exists(), "the listener removes its socket on drop");
    }
}
