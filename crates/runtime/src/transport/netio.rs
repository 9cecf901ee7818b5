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
use std::sync::atomic::{AtomicU64, Ordering};
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

/// A connected stream of either family, and the send timeout it last armed.
#[derive(Debug)]
pub struct Stream {
    sock: Sock,
    /// The `SO_SNDTIMEO` this handle last set, in µs; 0 before the first.
    /// A cache of a socket option and nothing else, so `Relaxed`: one thread
    /// writes a stream at a time, handed on under the link's lock.
    armed_us: AtomicU64,
}

#[derive(Debug)]
enum Sock {
    Unix(UnixStream),
    Tcp(TcpStream),
}

/// The grain [`write_all_deadline`] arms the send timeout at: a budget is
/// floored to it, so the next batch's full budget still covers what is armed.
const ARM_GRAIN_US: u64 = 10_000;

impl Stream {
    fn new(sock: Sock) -> Stream {
        Stream {
            sock,
            armed_us: AtomicU64::new(0),
        }
    }

    /// An independently owned handle to the same connection (a session's
    /// reader reads its own while senders write the other).
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(Stream::new(match &self.sock {
            Sock::Unix(s) => Sock::Unix(s.try_clone()?),
            Sock::Tcp(s) => Sock::Tcp(s.try_clone()?),
        }))
    }

    /// Bounds every subsequent blocking `read` on this handle.
    pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match &self.sock {
            Sock::Unix(s) => s.set_read_timeout(t),
            Sock::Tcp(s) => s.set_read_timeout(t),
        }
    }

    /// Bounds the next `write` by at most `budget`. The socket keeps its
    /// send timeout between writes, so it is re-armed only when the armed
    /// one is longer than `budget` (or none is), and then to `budget`
    /// floored to [`ARM_GRAIN_US`]: one `setsockopt` per session rather than
    /// one per batch.
    fn arm_write(&self, budget: Duration) -> io::Result<()> {
        let budget_us = u64::try_from(budget.as_micros()).unwrap_or(u64::MAX);
        let armed = self.armed_us.load(Ordering::Relaxed);
        if armed != 0 && armed <= budget_us {
            return Ok(());
        }
        let arm_us = if budget_us >= ARM_GRAIN_US {
            budget_us - budget_us % ARM_GRAIN_US
        } else {
            budget_us.max(1)
        };
        let t = Some(Duration::from_micros(arm_us));
        match &self.sock {
            Sock::Unix(s) => s.set_write_timeout(t)?,
            Sock::Tcp(s) => s.set_write_timeout(t)?,
        }
        self.armed_us.store(arm_us, Ordering::Relaxed);
        Ok(())
    }

    /// Half-closes both directions, unblocking any reader.
    pub(crate) fn shutdown_both(&self) {
        let _ = match &self.sock {
            Sock::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Sock::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    /// One blocking `read` under the handle's read timeout. `Ok(0)` is EOF.
    /// `WouldBlock`/`TimedOut` are normalized to `Ok(None)`-style:
    /// returned as `Err(TimedOut)` so callers distinguish EOF from stall.
    pub fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let r = match &mut self.sock {
            Sock::Unix(s) => s.read(buf),
            Sock::Tcp(s) => s.read(buf),
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
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Sock::Unix(s)),
                Listener::Tcp(l) => l.accept().map(|(s, _)| Sock::Tcp(s)),
            };
            match r {
                Ok(sock) => {
                    match &sock {
                        Sock::Unix(s) => s.set_nonblocking(false)?,
                        Sock::Tcp(s) => {
                            s.set_nonblocking(false)?;
                            s.set_nodelay(true)?;
                        }
                    }
                    return Ok(Stream::new(sock));
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
            Ok(Stream::new(Sock::Tcp(s)))
        }
        TransportAddr::Unix(path) => loop {
            remaining(deadline, "connect")?;
            match UnixStream::connect(path) {
                Ok(s) => return Ok(Stream::new(Sock::Unix(s))),
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

/// Writes all of `buf`, giving up at `deadline`. Every attempt runs under a
/// kernel send timeout no longer than the remaining budget (armed only when
/// the one in place is longer, see `Stream::arm_write`), so a stalled peer
/// (full socket buffer — a peer that stopped reading) surfaces as
/// `TimedOut` instead of blocking the writing thread forever. Takes the
/// stream shared: the write half of a session is written by whichever
/// sender holds the link's `writing` flag, one at a time.
///
/// # Errors
/// [`io::ErrorKind::TimedOut`] at deadline expiry (the peer may have
/// received a prefix — the connection must be dropped); other I/O errors
/// as-is.
pub fn write_all_deadline(stream: &Stream, mut buf: &[u8], deadline: Instant) -> io::Result<()> {
    while !buf.is_empty() {
        stream.arm_write(remaining(deadline, "write")?)?;
        let n = match &stream.sock {
            Sock::Unix(s) => (&*s).write(buf),
            Sock::Tcp(s) => (&*s).write(buf),
        };
        match n {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "connection closed mid-write",
                ))
            }
            Ok(written) => buf = &buf[written..],
            // the loop re-checks the deadline and, if need be, re-arms
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

    /// The send timeout is armed once for 1 000 writes that share a budget
    /// (read back from the socket), and a shorter budget after a longer one
    /// still bounds its write: against a peer that never reads, the short
    /// write gives up on time.
    #[test]
    fn the_send_timeout_is_armed_once_and_never_outlasts_the_budget() {
        let l = Listener::bind(&TransportAddr::Tcp("127.0.0.1:0".into())).unwrap();
        let addr = l.local_addr().unwrap();
        let writer = connect_deadline(&addr, Instant::now() + Duration::from_secs(5)).unwrap();
        let _deaf = l
            .accept_deadline(Instant::now() + Duration::from_secs(5))
            .unwrap();
        let Sock::Tcp(s) = &writer.sock else {
            panic!("a TCP dial yields a TCP stream")
        };
        let write = || {
            let deadline = Instant::now() + Duration::from_secs(1);
            write_all_deadline(&writer, b"x", deadline).unwrap();
        };
        assert_eq!(s.write_timeout().unwrap(), None);
        write();
        let armed = s.write_timeout().unwrap().expect("the first write arms");
        assert!(armed <= Duration::from_secs(1), "{armed:?}");
        // overwritten behind the stream's back: a re-arm would replace it
        s.set_write_timeout(Some(Duration::from_millis(777)))
            .unwrap();
        let marked = s.write_timeout().unwrap();
        for _ in 1..1_000 {
            write();
        }
        assert_eq!(s.write_timeout().unwrap(), marked, "a write re-armed");

        let start = Instant::now();
        let flood = vec![0u8; 16 << 20];
        let err = write_all_deadline(&writer, &flood, start + Duration::from_millis(50))
            .expect_err("nobody reads 16 MiB");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            start.elapsed() < Duration::from_millis(150),
            "a 50 ms write took {:?}",
            start.elapsed()
        );
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
            let Sock::Tcp(s) = &stream.sock else {
                panic!("a TCP listener yields TCP streams")
            };
            assert!(s.nodelay().unwrap(), "{end} end without TCP_NODELAY");
        }
    }
}
