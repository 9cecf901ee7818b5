//! Pluggable transports: how envelopes physically travel between nodes.
//!
//! The paper keeps *transmission policy* orthogonal to object
//! implementation (PAPERS.md, "Promoting Component Reuse by Separating
//! Transmission Policy from Implementation"); this module applies the same
//! separation to the runtime itself. Everything above the transport —
//! directory, placement locks, fencing, breakers, checkpoints — speaks in
//! terms of *send to peer N* and *receive the next event*, and the
//! [`Transport`] trait is that seam. Two production implementations exist:
//!
//! * [`channel::ChannelMesh`] — the in-process mesh of **bounded** per-node
//!   inboxes the [`crate::Cluster`] runs on; a message to an idle node
//!   runs on its sender's thread instead of queueing. Messages are passed
//!   by ownership, so this transport carries the full in-memory `Envelope`
//!   (live trait objects, reply-slot handles).
//! * [`socket::SocketServer`] / [`socket::SocketPeer`] — stream sockets
//!   (Unix-domain or TCP) for nodes that are **separate OS processes**.
//!   Payloads must be real bytes here, so this transport carries
//!   [`bytes::Bytes`] framed by [`frame`] and the protocol layer
//!   ([`multiproc`]) does its own linearization via [`crate::wire`].
//!
//! The trait is therefore generic over the message type `M`: the seam is
//! the *topology and delivery contract*, not a serialization format — an
//! in-process mesh would gain nothing (and lose the fault injector's
//! by-reference delivery) from being forced through bytes.
//!
//! # Delivery contract
//!
//! Both implementations promise:
//!
//! * **Per-link FIFO** between two live endpoints (a reconnect starts a new
//!   FIFO era; frames buffered across the gap are re-sent in order, so the
//!   contract is at-least-once, never reordered-within-a-connection). On
//!   the socket transport the sender itself writes: whichever thread finds
//!   the link idle writes the queue out, oldest first, and everyone else
//!   queues behind it — one queue and one writer at a time per link, so
//!   the order frames were accepted in is the order they are written in. A
//!   write that fails keeps its batch at the head of that queue, and the
//!   next session starts by writing the queue out.
//! * **Bounded backpressure**: each destination has a bounded outbound
//!   queue. [`Transport::send`] blocks up to the transport's configured
//!   send deadline when the queue is full, then fails with
//!   [`TransportError::Backpressure`] — it never buffers unboundedly and
//!   never blocks forever. A socket sender that ends up writing is bounded
//!   by the write deadline instead; `Ok` means the frame is queued (and,
//!   when the link was up and idle, already written), never that the peer
//!   has it.
//! * **Fencing at the edge**: the socket transport authenticates every
//!   connection with a `Hello{node, incarnation}` handshake; an
//!   incarnation older than the coordinator's table is refused at accept
//!   time ([`TransportEvent::HandshakeFenced`]) before a single payload
//!   frame is read. The channel mesh delegates fencing to the existing
//!   envelope-epoch checks in [`crate::Cluster`] (same invariant, enforced
//!   one layer up, because in-process "connections" cannot be refused).
//!
//! Deadline handling is centralized in [`netio`]: every connect, accept and
//! write in this module goes through a deadline-carrying wrapper, and every
//! condition-variable wait carries a timeout, both enforced by the
//! `transport_deadlines` source-scan test (the PR 1 "no bare `recv()`"
//! rule, extended to sockets).
//!
//! Inbound, the socket endpoints hand every [`TransportEvent`] to a sink on
//! the thread that produced it; [`Transport::recv_timeout`] is the bounded
//! queue their default sink fills ([`socket`], "Who dispatches").

pub mod backoff;
pub mod channel;
pub mod frame;
pub mod multiproc;
pub mod netio;
pub mod socket;

use std::time::Duration;

/// Why a transport operation failed. Maps onto [`crate::RuntimeError`] at
/// the protocol layer: `Timeout`/`Backpressure` become
/// [`crate::RuntimeError::Timeout`], `Down`/`Fenced`/`Closed` become
/// [`crate::RuntimeError::NodeDown`], so circuit breakers open on socket
/// death exactly as they do on simulated death.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The transport (or the addressed link) has been shut down.
    Closed,
    /// The peer's bounded outbound queue stayed full past the send
    /// deadline. The message was **not** enqueued.
    Backpressure {
        /// How long the sender waited for queue space.
        waited_ms: u64,
    },
    /// The link to `peer` is supervised-down (connect/write failures, not
    /// yet reconnected); fail-fast so callers' deadlines stay honest.
    Down {
        /// The unreachable peer.
        peer: u32,
    },
    /// The operation ran past its deadline.
    Timeout {
        /// How long the caller waited.
        waited_ms: u64,
    },
    /// This endpoint's handshake was refused: its incarnation `epoch` is
    /// fenced. Terminal — the owning process must not act again.
    Fenced {
        /// The peer that refused us.
        peer: u32,
        /// The stale incarnation we presented.
        epoch: u64,
    },
    /// An I/O error outside the categories above.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => f.write_str("transport closed"),
            TransportError::Backpressure { waited_ms } => {
                write!(f, "outbound queue full after {waited_ms}ms")
            }
            TransportError::Down { peer } => write!(f, "link to peer {peer} is down"),
            TransportError::Timeout { waited_ms } => {
                write!(f, "transport timeout after {waited_ms}ms")
            }
            TransportError::Fenced { peer, epoch } => {
                write!(f, "fenced by peer {peer}: incarnation {epoch} is stale")
            }
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// One inbound happening at a transport endpoint: a delivered message or a
/// link-state transition. Link events exist so the protocol layer (and the
/// oml-check trace) can observe connection supervision; the in-process
/// mesh never emits them (its links cannot fail independently of a node).
#[derive(Debug)]
pub enum TransportEvent<M> {
    /// A message arrived from `from`, which authenticated as incarnation
    /// `epoch` (0 for transports without handshakes).
    Delivery {
        /// The sending peer's node id.
        from: u32,
        /// The sender's handshake incarnation (0 on the channel mesh).
        epoch: u64,
        /// The message itself.
        msg: M,
    },
    /// A peer's first successful handshake on this transport.
    Connected {
        /// The peer that connected.
        peer: u32,
        /// Its handshake incarnation.
        epoch: u64,
    },
    /// A live connection to `peer` died (EOF, reset, write failure). The
    /// supervisor is now reconnecting under backoff.
    Disconnected {
        /// The peer whose connection dropped.
        peer: u32,
    },
    /// A peer re-established its session after one or more failures.
    Reconnected {
        /// The peer that came back.
        peer: u32,
        /// Its handshake incarnation.
        epoch: u64,
        /// How many dial attempts the reconnect took.
        attempt: u32,
    },
    /// A handshake was **refused**: the peer presented incarnation `epoch`,
    /// older than the freshest this endpoint has fenced. No payload from
    /// that session was or will be delivered.
    HandshakeFenced {
        /// The zombie peer.
        peer: u32,
        /// The stale incarnation it presented.
        epoch: u64,
    },
}

/// How envelopes travel. See the [module docs](self) for the delivery
/// contract both implementations honour.
pub trait Transport<M: Send>: Send + Sync {
    /// Number of addressable peers (`0..peers()` are valid `to` values).
    fn peers(&self) -> u32;

    /// Queues `msg` for `to` under bounded backpressure. Blocks at most
    /// the transport's configured send deadline.
    ///
    /// # Errors
    /// [`TransportError::Backpressure`] if the peer's queue stayed full,
    /// [`TransportError::Down`] / [`TransportError::Fenced`] /
    /// [`TransportError::Closed`] per the link's supervised state.
    fn send(&self, to: u32, msg: M) -> Result<(), TransportError>;

    /// Blocks up to `timeout` for the next inbound event at local endpoint
    /// `at`. A mesh transport hosts every endpoint in-process and `at`
    /// selects one; a point-to-point transport (socket peer/server) has a
    /// single local endpoint and ignores `at`.
    ///
    /// # Errors
    /// [`TransportError::Timeout`] when nothing arrived,
    /// [`TransportError::Closed`] after shutdown.
    fn recv_timeout(&self, at: u32, timeout: Duration)
        -> Result<TransportEvent<M>, TransportError>;

    /// Tears the transport down; subsequent sends fail with
    /// [`TransportError::Closed`].
    fn shutdown(&self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert_eq!(TransportError::Closed.to_string(), "transport closed");
        assert_eq!(
            TransportError::Backpressure { waited_ms: 7 }.to_string(),
            "outbound queue full after 7ms"
        );
        assert_eq!(
            TransportError::Down { peer: 2 }.to_string(),
            "link to peer 2 is down"
        );
        assert_eq!(
            TransportError::Fenced { peer: 0, epoch: 3 }.to_string(),
            "fenced by peer 0: incarnation 3 is stale"
        );
        assert_eq!(
            TransportError::Timeout { waited_ms: 40 }.to_string(),
            "transport timeout after 40ms"
        );
        assert_eq!(
            TransportError::Io("eof".into()).to_string(),
            "transport i/o error: eof"
        );
    }
}
