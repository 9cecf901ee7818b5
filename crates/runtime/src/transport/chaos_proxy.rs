//! A socket-level fault proxy: sits between a [`super::socket::SocketPeer`]
//! and its server and mistreats live connections on a **deterministic
//! per-link schedule**, the wire-level analogue of [`crate::FaultPlan`].
//!
//! The proxy forwards traffic chunk-by-chunk; for every chunk it hashes
//! `(seed, connection, direction, chunk index)` — the same per-decision
//! hashing the fault injector uses — into one of:
//!
//! * **Forward** — pass the chunk through (the common case),
//! * **Drop** — discard the chunk. Length-prefixed framing downstream now
//!   sees a hole: either a stalled frame (missing suffix) or a checksum
//!   mismatch, both of which must kill the session and trigger reconnect,
//! * **Close** — hard-close both directions mid-stream,
//! * **Stall** — sleep before forwarding, exercising write deadlines and
//!   heartbeat-driven suspicion,
//! * **Split** — forward the chunk in single-byte writes, exercising the
//!   incremental decoder's partial-frame paths on a real wire.
//!
//! Determinism means a chaos test that fails replays identically from its
//! seed, like every other fault schedule in this workspace.

use super::netio::{
    connect_deadline, retryable, write_all_deadline, Listener, Stream, TransportAddr,
};
use crate::fault::{mix64, unit_interval};
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the proxy does with one forwarded chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProxyAction {
    /// Pass through unchanged.
    Forward,
    /// Discard the chunk (downstream framing breaks).
    Drop,
    /// Hard-close the connection.
    Close,
    /// Sleep `stall_ms` before forwarding.
    Stall,
    /// Forward in single-byte writes.
    Split,
}

/// A deterministic per-chunk fault schedule, built like
/// [`crate::FaultPlan`]: a seed plus probability knobs, each decision a
/// pure hash of its coordinates.
#[derive(Debug, Clone, Copy)]
pub struct ProxyPlan {
    seed: u64,
    drop_p: f64,
    close_p: f64,
    stall_p: f64,
    split_p: f64,
    /// How long a stalled chunk sleeps.
    stall_ms: u64,
}

impl ProxyPlan {
    /// A fault-free plan under `seed`; add faults with the builder knobs.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        ProxyPlan {
            seed,
            drop_p: 0.0,
            close_p: 0.0,
            stall_p: 0.0,
            split_p: 0.0,
            stall_ms: 50,
        }
    }

    /// Probability a chunk is discarded.
    #[must_use]
    pub fn drop_chunks(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    /// Probability the connection is hard-closed at a chunk boundary.
    #[must_use]
    pub fn close_connections(mut self, p: f64) -> Self {
        self.close_p = p;
        self
    }

    /// Probability a chunk stalls for `ms` before forwarding.
    #[must_use]
    pub fn stall(mut self, p: f64, ms: u64) -> Self {
        self.stall_p = p;
        self.stall_ms = ms;
        self
    }

    /// Probability a chunk is forwarded byte-at-a-time.
    #[must_use]
    pub fn split_writes(mut self, p: f64) -> Self {
        self.split_p = p;
        self
    }

    /// The stall duration this plan applies.
    #[must_use]
    pub(crate) fn stall_duration(&self) -> Duration {
        Duration::from_millis(self.stall_ms)
    }

    /// The deterministic decision for chunk `chunk` of direction `dir`
    /// (0 = client→server, 1 = server→client) on connection `conn`.
    #[must_use]
    pub(crate) fn decide(&self, conn: u64, dir: u8, chunk: u64) -> ProxyAction {
        let u = unit_interval(mix64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(conn)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(u64::from(dir))
                .wrapping_mul(0x94D0_49BB_1331_11EB)
                .wrapping_add(chunk),
        ));
        let mut edge = self.close_p;
        if u < edge {
            return ProxyAction::Close;
        }
        edge += self.drop_p;
        if u < edge {
            return ProxyAction::Drop;
        }
        edge += self.stall_p;
        if u < edge {
            return ProxyAction::Stall;
        }
        edge += self.split_p;
        if u < edge {
            return ProxyAction::Split;
        }
        ProxyAction::Forward
    }
}

struct ProxyShared {
    plan: ProxyPlan,
    upstream: TransportAddr,
    closed: AtomicBool,
    conn_counter: AtomicU64,
    /// Live forwarded streams, for [`FaultProxy::sever_all`].
    live: Mutex<Vec<Stream>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// The running proxy: listens on one address, forwards every accepted
/// connection to `upstream` under the plan's schedule.
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
    pub fn start(
        listen: &TransportAddr,
        upstream: TransportAddr,
        plan: ProxyPlan,
    ) -> io::Result<FaultProxy> {
        let listener = Listener::bind(listen)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(ProxyShared {
            plan,
            upstream,
            closed: AtomicBool::new(false),
            conn_counter: AtomicU64::new(0),
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
        let conn = inner.conn_counter.fetch_add(1, Ordering::AcqRel);
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
                .spawn(move || pump(&p_inner, conn, dir, src, dst))
                .expect("spawn proxy pump");
            inner.threads.lock().push(handle);
        }
    }
}

/// Forwards `src` → `dst` one chunk at a time under the plan's schedule.
fn pump(inner: &Arc<ProxyShared>, conn: u64, dir: u8, mut src: Stream, dst: Stream) {
    let _ = src.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 8 * 1024];
    let mut chunk_idx: u64 = 0;
    loop {
        if inner.closed.load(Ordering::Acquire) {
            break;
        }
        let n = match src.read_chunk(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if retryable(&e) => continue,
            Err(_) => break,
        };
        let action = inner.plan.decide(conn, dir, chunk_idx);
        chunk_idx += 1;
        let deadline = Instant::now() + Duration::from_secs(2);
        let outcome = match action {
            ProxyAction::Drop => Ok(()),
            ProxyAction::Close => {
                src.shutdown_both();
                dst.shutdown_both();
                break;
            }
            ProxyAction::Stall => {
                std::thread::sleep(inner.plan.stall_duration());
                write_all_deadline(&dst, &buf[..n], deadline)
            }
            ProxyAction::Split => {
                let mut r = Ok(());
                for b in &buf[..n] {
                    r = write_all_deadline(&dst, std::slice::from_ref(b), deadline);
                    if r.is_err() {
                        break;
                    }
                }
                r
            }
            ProxyAction::Forward => write_all_deadline(&dst, &buf[..n], deadline),
        };
        if outcome.is_err() {
            break;
        }
    }
    src.shutdown_both();
    dst.shutdown_both();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = ProxyPlan::seeded(7)
            .drop_chunks(0.2)
            .close_connections(0.05)
            .stall(0.1, 20)
            .split_writes(0.2);
        let a: Vec<ProxyAction> = (0..64).map(|i| plan.decide(1, 0, i)).collect();
        let b: Vec<ProxyAction> = (0..64).map(|i| plan.decide(1, 0, i)).collect();
        assert_eq!(a, b, "same coordinates, same decisions");
        let other_seed = ProxyPlan::seeded(8)
            .drop_chunks(0.2)
            .close_connections(0.05)
            .stall(0.1, 20)
            .split_writes(0.2);
        let c: Vec<ProxyAction> = (0..64).map(|i| other_seed.decide(1, 0, i)).collect();
        assert_ne!(a, c, "different seed, different schedule");
        // directions draw independent decisions
        let d: Vec<ProxyAction> = (0..64).map(|i| plan.decide(1, 1, i)).collect();
        assert_ne!(a, d);
    }

    #[test]
    fn fault_free_plan_always_forwards() {
        let plan = ProxyPlan::seeded(3);
        for i in 0..256 {
            assert_eq!(plan.decide(0, 0, i), ProxyAction::Forward);
        }
    }

    #[test]
    fn probabilities_roughly_honoured() {
        let plan = ProxyPlan::seeded(11).drop_chunks(0.5);
        let drops = (0..2_000)
            .filter(|&i| plan.decide(2, 0, i) == ProxyAction::Drop)
            .count();
        assert!(
            (800..1_200).contains(&drops),
            "≈50% of chunks should drop, got {drops}/2000"
        );
    }
}
