//! Deadline-bounded socket I/O — the **only** file in oml-runtime allowed
//! to call raw `connect`/`accept`/`write`.
//!
//! PR 1 established "no bare `recv()` without a deadline" for channels;
//! this module extends the rule to sockets: every connect, accept and
//! write goes through a wrapper that takes an explicit [`Instant`]
//! deadline and surfaces expiry as [`io::ErrorKind::TimedOut`] (which the
//! transport layer maps to [`crate::transport::TransportError::Timeout`]
//! and the protocol layer to [`crate::RuntimeError::Timeout`]). The
//! `transport_deadlines` source-scan test fails the build if a raw call
//! site appears anywhere else in the crate.
//!
//! Both address families behind one enum: Unix-domain sockets (the chaos
//! harness default — no ports to leak between CI runs) and TCP loopback
//! (the same code path a real deployment would use).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Where a transport endpoint listens or dials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportAddr {
    /// A Unix-domain stream socket at this filesystem path.
    Unix(PathBuf),
    /// A TCP socket (e.g. `127.0.0.1:0` to bind an ephemeral port).
    Tcp(String),
}

impl std::fmt::Display for TransportAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            TransportAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl TransportAddr {
    /// Parses the `unix:<path>` / `tcp:<host:port>` rendering of
    /// [`Display`](std::fmt::Display) — how worker processes receive the
    /// coordinator's address via the environment.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] on an unknown scheme.
    pub fn parse(s: &str) -> io::Result<Self> {
        if let Some(path) = s.strip_prefix("unix:") {
            Ok(TransportAddr::Unix(PathBuf::from(path)))
        } else if let Some(addr) = s.strip_prefix("tcp:") {
            Ok(TransportAddr::Tcp(addr.to_owned()))
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown transport address scheme: {s}"),
            ))
        }
    }
}

/// A connected stream of either family.
#[derive(Debug)]
pub enum Stream {
    /// Unix-domain connection.
    Unix(UnixStream),
    /// TCP connection.
    Tcp(TcpStream),
}

impl Stream {
    /// An independently owned handle to the same connection (a session's
    /// reader reads its own while senders write the other).
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Bounds every subsequent blocking `read` on this handle.
    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    /// Half-closes both directions, unblocking any reader.
    pub(crate) fn shutdown_both(&self) {
        match self {
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// One blocking `read` under the handle's read timeout. `Ok(0)` is EOF.
    /// `WouldBlock`/`TimedOut` are normalized to `Ok(None)`-style:
    /// returned as `Err(TimedOut)` so callers distinguish EOF from stall.
    pub fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let r = match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        };
        match r {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                Err(io::Error::new(io::ErrorKind::TimedOut, "read timed out"))
            }
            other => other,
        }
    }
}

/// A bound listener of either family. Dropping a Unix listener removes its
/// socket file.
#[derive(Debug)]
pub(crate) enum Listener {
    /// Unix-domain listener plus its path (unlinked on drop).
    Unix(UnixListener, PathBuf),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Listener {
    /// Binds `addr`, in non-blocking mode so accepts can poll a shutdown
    /// flag. A pre-existing Unix socket file is unlinked first (stale from
    /// a SIGKILLed predecessor).
    pub fn bind(addr: &TransportAddr) -> io::Result<Listener> {
        match addr {
            TransportAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
            TransportAddr::Tcp(spec) => {
                let l = TcpListener::bind(spec.as_str())?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }

    /// The bound address — resolves `:0` TCP binds to the actual port.
    pub(crate) fn local_addr(&self) -> io::Result<TransportAddr> {
        Ok(match self {
            Listener::Unix(_, path) => TransportAddr::Unix(path.clone()),
            Listener::Tcp(l) => TransportAddr::Tcp(l.local_addr()?.to_string()),
        })
    }

    /// Accepts one connection, polling until `deadline`. The accepted
    /// stream is switched back to blocking mode (reads are then bounded
    /// per-handle by `set_read_timeout`) and, over TCP, to `TCP_NODELAY`
    /// like the dialling end: a reply must not wait for Nagle either.
    ///
    /// # Errors
    /// [`io::ErrorKind::TimedOut`] if nothing arrived by `deadline`.
    pub fn accept_deadline(&self, deadline: Instant) -> io::Result<Stream> {
        loop {
            let r = match self {
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Stream::Unix(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            };
            match r {
                Ok(stream) => {
                    match &stream {
                        Stream::Unix(s) => s.set_nonblocking(false)?,
                        Stream::Tcp(s) => {
                            s.set_nonblocking(false)?;
                            s.set_nodelay(true)?;
                        }
                    }
                    return Ok(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "accept timed out"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Whether a failed `read` or `write` left the stream usable, so the
/// caller re-checks its deadline (or its shutdown flag) and tries again: the
/// kernel timeout fired before any byte moved (`WouldBlock` / `TimedOut`),
/// or a signal interrupted the call (`Interrupted` — a profiler, `strace` or
/// a debugger attaching to the thread). Every other error ends the session.
#[must_use]
pub(crate) fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Remaining time until `deadline`, as a timeout error once expired.
fn remaining(deadline: Instant, what: &str) -> io::Result<Duration> {
    let now = Instant::now();
    if now >= deadline {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("{what} deadline expired"),
        ));
    }
    Ok(deadline - now)
}

/// Dials `addr`, giving up at `deadline`.
///
/// TCP uses the kernel's `connect_timeout`. A Unix-domain connect has no
/// kernel timeout in std, but it also cannot hang like a TCP SYN into a
/// black hole: it fails fast unless the listener's backlog is full, so the
/// bounded retry loop below (connect, sleep 1ms, re-check deadline)
/// converts "backlog momentarily full" into a wait and everything else
/// into an immediate error.
///
/// # Errors
/// [`io::ErrorKind::TimedOut`] at deadline expiry; the underlying error
/// otherwise (e.g. `ConnectionRefused` while the peer is down).
pub fn connect_deadline(addr: &TransportAddr, deadline: Instant) -> io::Result<Stream> {
    match addr {
        TransportAddr::Tcp(spec) => {
            let timeout = remaining(deadline, "connect")?;
            let sock: SocketAddr = spec
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable addr"))?;
            let s = TcpStream::connect_timeout(&sock, timeout)?;
            s.set_nodelay(true)?;
            Ok(Stream::Tcp(s))
        }
        TransportAddr::Unix(path) => loop {
            remaining(deadline, "connect")?;
            match UnixStream::connect(path) {
                Ok(s) => return Ok(Stream::Unix(s)),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::Interrupted =>
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        },
    }
}

/// Writes all of `buf`, giving up at `deadline`. The stream's kernel write
/// timeout is re-armed with the remaining budget before every attempt, so
/// a stalled peer (full socket buffer — e.g. the fault proxy's `Stall`)
/// surfaces as `TimedOut` instead of blocking the writing thread forever.
/// Takes the stream shared: the write half of a session is written by
/// whichever sender holds the link's `writing` flag, one at a time.
///
/// # Errors
/// [`io::ErrorKind::TimedOut`] at deadline expiry (the peer may have
/// received a prefix — the connection must be dropped); other I/O errors
/// as-is.
pub fn write_all_deadline(stream: &Stream, mut buf: &[u8], deadline: Instant) -> io::Result<()> {
    while !buf.is_empty() {
        let budget = remaining(deadline, "write")?;
        let n = match stream {
            Stream::Unix(s) => {
                s.set_write_timeout(Some(budget))?;
                (&*s).write(buf)
            }
            Stream::Tcp(s) => {
                s.set_write_timeout(Some(budget))?;
                (&*s).write(buf)
            }
        };
        match n {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "connection closed mid-write",
                ))
            }
            Ok(written) => buf = &buf[written..],
            // the loop re-checks the deadline and re-arms the timeout
            Err(e) if retryable(&e) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display_parse_round_trip() {
        for addr in [
            TransportAddr::Unix(PathBuf::from("/tmp/x.sock")),
            TransportAddr::Tcp("127.0.0.1:9000".into()),
        ] {
            assert_eq!(TransportAddr::parse(&addr.to_string()).unwrap(), addr);
        }
        assert!(TransportAddr::parse("carrier-pigeon:coop7").is_err());
    }

    #[test]
    fn only_a_stall_or_a_signal_is_retried() {
        use io::ErrorKind::*;
        for kind in [WouldBlock, TimedOut, Interrupted] {
            assert!(retryable(&io::Error::from(kind)), "{kind:?}");
        }
        // what a dead or broken session reports must end it
        for kind in [
            ConnectionReset,
            ConnectionAborted,
            BrokenPipe,
            NotConnected,
            UnexpectedEof,
            WriteZero,
            InvalidData,
            Other,
        ] {
            assert!(!retryable(&io::Error::from(kind)), "{kind:?}");
        }
        // EINTR as the OS reports it, not only as std names it
        assert!(retryable(&io::Error::from_raw_os_error(4)));
    }

    #[test]
    fn connect_to_nobody_fails_fast_not_forever() {
        let addr = TransportAddr::Unix(std::env::temp_dir().join("oml-netio-nobody.sock"));
        let start = Instant::now();
        let r = connect_deadline(&addr, start + Duration::from_millis(200));
        assert!(r.is_err());
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "unix connect to a missing socket must not hang"
        );
    }

    #[test]
    fn accept_deadline_times_out() {
        let dir = std::env::temp_dir().join(format!("oml-netio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr = TransportAddr::Unix(dir.join("t.sock"));
        let l = Listener::bind(&addr).unwrap();
        let err = l
            .accept_deadline(Instant::now() + Duration::from_millis(30))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        drop(l);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_round_trip_under_deadlines() {
        let l = Listener::bind(&TransportAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = l.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut s = l
                .accept_deadline(Instant::now() + Duration::from_secs(5))
                .unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let mut buf = [0u8; 5];
            let n = s.read_chunk(&mut buf).unwrap();
            buf[..n].to_vec()
        });
        let c = connect_deadline(&addr, Instant::now() + Duration::from_secs(5)).unwrap();
        write_all_deadline(&c, b"ping!", Instant::now() + Duration::from_secs(5)).unwrap();
        assert_eq!(t.join().unwrap(), b"ping!");
    }

    #[test]
    fn both_ends_of_a_tcp_session_are_un_nagled() {
        let l = Listener::bind(&TransportAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = l.local_addr().unwrap();
        let dialled = connect_deadline(&addr, Instant::now() + Duration::from_secs(5)).unwrap();
        let accepted = l
            .accept_deadline(Instant::now() + Duration::from_secs(5))
            .unwrap();
        for (end, stream) in [("dialled", &dialled), ("accepted", &accepted)] {
            let Stream::Tcp(s) = stream else {
                panic!("a TCP listener yields TCP streams")
            };
            assert!(s.nodelay().unwrap(), "{end} end without TCP_NODELAY");
        }
    }
}
