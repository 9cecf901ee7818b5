//! The in-process transport: a mesh of **bounded** crossbeam channels.
//!
//! This is the wire the [`crate::Cluster`] has always run on, refactored
//! behind [`Transport`] with one behavioural change: per-node inboxes are
//! now bounded (PR 9 satellite — no unbounded channels left in the
//! runtime). Messages pass by ownership, so this transport carries the
//! full in-memory envelope type and the fault injector keeps operating on
//! envelopes, not bytes — bit-compatible with the pre-trait behaviour.
//!
//! # Backpressure policy (documented per path)
//!
//! * **Node inboxes** (this mesh): bounded at [`MeshConfig::capacity`].
//!   Senders *block* up to [`MeshConfig::send_deadline_ms`], then fail
//!   with [`TransportError::Backpressure`]. Blocking (rather than
//!   dropping) preserves the delivery guarantees the protocol tests pin;
//!   the deadline keeps a wedged worker from propagating an unbounded
//!   stall. The capacity default (4096) is ~70× the deepest queue any
//!   chaos schedule in the suite produces.
//! * **Reply channels** (created per call in `cluster.rs`): stay
//!   `bounded(1)` + `try_send` fail-fast — a reply past its caller's
//!   deadline is dropped, never blocks a worker (PR 4 decision, unchanged).
//! * **Delayed-delivery threads** (fault injector): clone a [`Sender`] and
//!   block on it like any sender; a full inbox delays the delivery
//!   further, which is indistinguishable from more network delay.

use super::{LinkHealth, Transport, TransportError, TransportEvent};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Sender identity reported by mesh deliveries: the mesh does not
/// authenticate senders (they share an address space); identity travels
/// inside the envelope.
pub(crate) const MESH_ANON: u32 = u32::MAX;

/// Tuning for a [`ChannelMesh`].
#[derive(Debug, Clone, Copy)]
pub struct MeshConfig {
    /// Per-node inbox capacity (messages).
    pub capacity: usize,
    /// How long a sender may block on a full inbox before
    /// [`TransportError::Backpressure`].
    pub send_deadline_ms: u64,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            capacity: 4096,
            send_deadline_ms: 2_000,
        }
    }
}

/// A full mesh of bounded in-process channels: endpoint `i`'s inbox is
/// channel `i`; any holder may send to any endpoint.
#[derive(Debug)]
pub struct ChannelMesh<M> {
    txs: Vec<Sender<M>>,
    rxs: Vec<Receiver<M>>,
    cfg: MeshConfig,
    closed: AtomicBool,
}

impl<M: Send> ChannelMesh<M> {
    /// A mesh of `n` endpoints under `cfg`.
    #[must_use]
    pub fn new(n: u32, cfg: MeshConfig) -> Self {
        let mut txs = Vec::with_capacity(n as usize);
        let mut rxs = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let (tx, rx) = bounded(cfg.capacity);
            txs.push(tx);
            rxs.push(rx);
        }
        ChannelMesh {
            txs,
            rxs,
            cfg,
            closed: AtomicBool::new(false),
        }
    }

    /// A clone of the raw sender towards `to` — for the fault injector's
    /// delayed-delivery threads, which outlive the caller's borrow.
    #[must_use]
    pub fn sender(&self, to: u32) -> Sender<M> {
        self.txs[to as usize].clone()
    }

    /// A clone of endpoint `at`'s inbox receiver — the worker fast path
    /// (workers drain their own inbox directly; queued messages survive a
    /// worker crash/restart because the channel does).
    #[must_use]
    pub fn endpoint(&self, at: u32) -> Receiver<M> {
        self.rxs[at as usize].clone()
    }

    /// Messages currently queued at endpoint `at` (diagnostics).
    #[must_use]
    pub fn queued(&self, at: u32) -> usize {
        self.rxs[at as usize].len()
    }
}

impl<M: Send> Transport<M> for ChannelMesh<M> {
    fn peers(&self) -> u32 {
        self.txs.len() as u32
    }

    fn send(&self, to: u32, msg: M) -> Result<(), TransportError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let Some(tx) = self.txs.get(to as usize) else {
            return Err(TransportError::Down { peer: to });
        };
        // block-with-deadline: try, then poll; the shim has no
        // send_timeout and the full-inbox case is the rare edge
        let deadline = Instant::now() + Duration::from_millis(self.cfg.send_deadline_ms);
        let mut msg = msg;
        loop {
            match tx.try_send(msg) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(_)) => return Err(TransportError::Closed),
                Err(TrySendError::Full(back)) => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Backpressure {
                            waited_ms: self.cfg.send_deadline_ms,
                        });
                    }
                    msg = back;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    fn recv_timeout(
        &self,
        at: u32,
        timeout: Duration,
    ) -> Result<TransportEvent<M>, TransportError> {
        let Some(rx) = self.rxs.get(at as usize) else {
            return Err(TransportError::Closed);
        };
        match rx.recv_timeout(timeout) {
            Ok(msg) => Ok(TransportEvent::Delivery {
                from: MESH_ANON,
                epoch: 0,
                msg,
            }),
            Err(_) if self.closed.load(Ordering::Acquire) => Err(TransportError::Closed),
            Err(_) => Err(TransportError::Timeout {
                waited_ms: timeout.as_millis() as u64,
            }),
        }
    }

    fn link_health(&self, to: u32) -> LinkHealth {
        if self.closed.load(Ordering::Acquire) || to as usize >= self.txs.len() {
            LinkHealth::Down
        } else {
            LinkHealth::Up
        }
    }

    fn shutdown(&self) {
        self.closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_between_endpoints() {
        let mesh: ChannelMesh<u64> = ChannelMesh::new(2, MeshConfig::default());
        mesh.send(1, 77).unwrap();
        match mesh.recv_timeout(1, Duration::from_millis(100)).unwrap() {
            TransportEvent::Delivery { from, epoch, msg } => {
                assert_eq!((from, epoch, msg), (MESH_ANON, 0, 77));
            }
            other => panic!("unexpected event: {other:?}"),
        }
    }

    #[test]
    fn full_inbox_fails_with_backpressure_not_forever() {
        let mesh: ChannelMesh<u64> = ChannelMesh::new(
            1,
            MeshConfig {
                capacity: 2,
                send_deadline_ms: 30,
            },
        );
        mesh.send(0, 1).unwrap();
        mesh.send(0, 2).unwrap();
        let start = Instant::now();
        let err = mesh.send(0, 3).unwrap_err();
        assert!(matches!(err, TransportError::Backpressure { .. }), "{err}");
        assert!(start.elapsed() < Duration::from_secs(2));
        // draining frees capacity again
        let _ = mesh.recv_timeout(0, Duration::from_millis(50)).unwrap();
        mesh.send(0, 3).unwrap();
    }

    #[test]
    fn recv_times_out_and_close_is_observed() {
        let mesh: ChannelMesh<u64> = ChannelMesh::new(1, MeshConfig::default());
        let err = mesh.recv_timeout(0, Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout { .. }));
        mesh.shutdown();
        assert!(matches!(mesh.send(0, 9), Err(TransportError::Closed)));
        assert_eq!(mesh.link_health(0), LinkHealth::Down);
    }

    #[test]
    fn out_of_range_peer_is_down() {
        let mesh: ChannelMesh<u64> = ChannelMesh::new(1, MeshConfig::default());
        assert!(matches!(
            mesh.send(5, 0),
            Err(TransportError::Down { peer: 5 })
        ));
        assert_eq!(mesh.link_health(0), LinkHealth::Up);
    }
}
