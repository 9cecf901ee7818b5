//! A socket-level outage lever: a TCP proxy that sits between a
//! `SocketPeer` and its server, forwards every byte both ways, and
//! hard-closes every live connection on [`FaultProxy::sever_all`].
//!
//! The proxy keeps listening after a sever, so a peer's supervisor redials
//! through it under backoff: a test induces a network blip at an exact
//! point of its script and watches the link go down and come back.

use oml_runtime::TransportAddr;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

struct ProxyShared {
    upstream: SocketAddr,
    closed: AtomicBool,
    /// Live forwarded streams, for [`FaultProxy::sever_all`].
    live: Mutex<Vec<TcpStream>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// The running proxy: listens on one address, forwards every accepted
/// connection to `upstream`.
pub struct FaultProxy {
    inner: Arc<ProxyShared>,
    addr: TransportAddr,
}

/// The host and port of a TCP address.
fn tcp(addr: &TransportAddr) -> io::Result<&str> {
    match addr {
        TransportAddr::Tcp(a) => Ok(a),
        TransportAddr::Unix(_) => Err(io::ErrorKind::Unsupported.into()),
    }
}

impl FaultProxy {
    /// Starts proxying `listen` → `upstream`, both TCP. Returns the
    /// resolved listen address (hand it to the peer in place of the
    /// server's).
    ///
    /// # Errors
    /// Propagates bind failures; a Unix address is unsupported.
    pub fn start(listen: &TransportAddr, upstream: TransportAddr) -> io::Result<FaultProxy> {
        let listener = TcpListener::bind(tcp(listen)?)?;
        listener.set_nonblocking(true)?;
        let addr = TransportAddr::Tcp(listener.local_addr()?.to_string());
        let upstream = tcp(&upstream)?
            .parse()
            .map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
        let inner = Arc::new(ProxyShared {
            upstream,
            closed: AtomicBool::new(false),
            live: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        });
        let a_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("oml-proxy-accept".into())
            .spawn(move || proxy_accept_loop(&a_inner, &listener))?;
        inner.threads.lock().unwrap().push(handle);
        Ok(FaultProxy { inner, addr })
    }

    /// Where the proxy listens.
    #[must_use]
    pub fn addr(&self) -> &TransportAddr {
        &self.addr
    }

    /// Hard-closes every live forwarded connection (an induced network
    /// blip; the proxy keeps accepting, so reconnects succeed).
    pub fn sever_all(&self) {
        let mut live = self.inner.live.lock().unwrap();
        for s in live.drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Stops accepting, severs everything, joins the pump threads.
    pub fn shutdown(&self) {
        self.inner.closed.store(true, Ordering::Release);
        self.sever_all();
        let handles: Vec<_> = self.inner.threads.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn proxy_accept_loop(inner: &Arc<ProxyShared>, listener: &TcpListener) {
    let mut conn: u64 = 0;
    while !inner.closed.load(Ordering::Acquire) {
        // the listener does not block: poll it, so a shutdown is seen
        let Ok((downstream, _)) = listener.accept() else {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        let Ok(upstream) = TcpStream::connect_timeout(&inner.upstream, Duration::from_secs(1))
        else {
            let _ = downstream.shutdown(Shutdown::Both);
            continue;
        };
        let _ = downstream.set_nonblocking(false);
        // one pump per direction; clones register for sever_all
        let pairs = [
            (downstream.try_clone(), upstream.try_clone(), 0u8),
            (upstream.try_clone(), downstream.try_clone(), 1u8),
        ];
        {
            let mut live = inner.live.lock().unwrap();
            if let (Ok(a), Ok(b)) = (downstream.try_clone(), upstream.try_clone()) {
                live.push(a);
                live.push(b);
            }
        }
        for (src, dst, dir) in pairs {
            let (Ok(src), Ok(dst)) = (src, dst) else {
                let _ = downstream.shutdown(Shutdown::Both);
                let _ = upstream.shutdown(Shutdown::Both);
                break;
            };
            let p_inner = Arc::clone(inner);
            let handle = std::thread::Builder::new()
                .name(format!("oml-proxy-pump-{conn}-{dir}"))
                .spawn(move || pump(&p_inner, src, dst))
                .expect("spawn proxy pump");
            inner.threads.lock().unwrap().push(handle);
        }
        conn += 1;
    }
}

/// Forwards `src` → `dst` one chunk at a time until either end closes.
fn pump(inner: &Arc<ProxyShared>, mut src: TcpStream, mut dst: TcpStream) {
    let _ = src.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = dst.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 8 * 1024];
    while !inner.closed.load(Ordering::Acquire) {
        let n = match src.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(_) => break,
        };
        if dst.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}
