//! A socket-level outage lever: a proxy that sits between a
//! [`super::socket::SocketPeer`] and its server, forwards every byte both
//! ways, and hard-closes every live connection on [`FaultProxy::sever_all`].
//!
//! The proxy keeps listening after a sever, so a peer's supervisor redials
//! through it under backoff: a test induces a network blip at an exact
//! point of its script and watches the link go down and come back.

use super::netio::{
    connect_deadline, retryable, write_all_deadline, Listener, Stream, TransportAddr,
};
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct ProxyShared {
    upstream: TransportAddr,
    closed: AtomicBool,
    /// Live forwarded streams, for [`FaultProxy::sever_all`].
    live: Mutex<Vec<Stream>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// The running proxy: listens on one address, forwards every accepted
/// connection to `upstream`.
pub struct FaultProxy {
    inner: Arc<ProxyShared>,
    addr: TransportAddr,
}

impl FaultProxy {
    /// Starts proxying `listen` → `upstream`. Returns the resolved listen
    /// address (hand it to the peer in place of the server's).
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn start(listen: &TransportAddr, upstream: TransportAddr) -> io::Result<FaultProxy> {
        let listener = Listener::bind(listen)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(ProxyShared {
            upstream,
            closed: AtomicBool::new(false),
            live: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        });
        let a_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("oml-proxy-accept".into())
            .spawn(move || proxy_accept_loop(&a_inner, &listener))
            .expect("spawn proxy accept thread");
        inner.threads.lock().push(handle);
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
        let mut live = self.inner.live.lock();
        for s in live.drain(..) {
            s.shutdown_both();
        }
    }

    /// Stops accepting, severs everything, joins the pump threads.
    pub fn shutdown(&self) {
        self.inner.closed.store(true, Ordering::Release);
        self.sever_all();
        let handles: Vec<_> = self.inner.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn proxy_accept_loop(inner: &Arc<ProxyShared>, listener: &Listener) {
    let mut conn: u64 = 0;
    while !inner.closed.load(Ordering::Acquire) {
        let deadline = Instant::now() + Duration::from_millis(50);
        let downstream = match listener.accept_deadline(deadline) {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => continue,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        let Ok(upstream) =
            connect_deadline(&inner.upstream, Instant::now() + Duration::from_secs(1))
        else {
            downstream.shutdown_both();
            continue;
        };
        // one pump per direction; clones register for sever_all
        let pairs = [
            (downstream.try_clone(), upstream.try_clone(), 0u8),
            (upstream.try_clone(), downstream.try_clone(), 1u8),
        ];
        {
            let mut live = inner.live.lock();
            if let (Ok(a), Ok(b)) = (downstream.try_clone(), upstream.try_clone()) {
                live.push(a);
                live.push(b);
            }
        }
        for (src, dst, dir) in pairs {
            let (Ok(src), Ok(dst)) = (src, dst) else {
                downstream.shutdown_both();
                upstream.shutdown_both();
                break;
            };
            let p_inner = Arc::clone(inner);
            let handle = std::thread::Builder::new()
                .name(format!("oml-proxy-pump-{conn}-{dir}"))
                .spawn(move || pump(&p_inner, src, dst))
                .expect("spawn proxy pump");
            inner.threads.lock().push(handle);
        }
        conn += 1;
    }
}

/// Forwards `src` → `dst` one chunk at a time until either end closes.
fn pump(inner: &Arc<ProxyShared>, mut src: Stream, dst: Stream) {
    let _ = src.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 8 * 1024];
    while !inner.closed.load(Ordering::Acquire) {
        let n = match src.read_chunk(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if retryable(&e) => continue,
            Err(_) => break,
        };
        let deadline = Instant::now() + Duration::from_secs(2);
        if write_all_deadline(&dst, &buf[..n], deadline).is_err() {
            break;
        }
    }
    src.shutdown_both();
    dst.shutdown_both();
}
