//! The stream-socket transport: nodes as separate OS processes over
//! Unix-domain or TCP sockets.
//!
//! Topology is a **star**: the coordinator process runs a
//! [`SocketServer`]; each worker process runs a [`SocketPeer`] dialing it.
//! (The in-process mesh is all-to-all because senders share an address
//! space; across processes the coordinator owns the directory and all
//! protocol traffic relays through it anyway — see
//! [`super::multiproc`].)
//!
//! # Session handshake and fencing
//!
//! The first frame on every connection is `Hello{node, incarnation,
//! attempt}`; the server answers `HelloAck{accepted, floor}`. The server
//! keeps a per-node **epoch floor** — the greatest incarnation it has
//! accepted or been told to fence below ([`SocketServer::fence_below`]) —
//! and refuses any Hello carrying a smaller incarnation *at accept time*,
//! before a single payload frame is read. A SIGKILLed worker's replacement
//! (incarnation bumped) raises the floor, so the old incarnation's
//! reconnect attempts are fenced forever: the zombie cannot deliver even
//! one stale frame. Re-handshakes at the *same* incarnation are idempotent
//! — that is an ordinary reconnect and replaces the session.
//!
//! # Who writes
//!
//! Each link owns one persistent bounded outbound queue and **no writer
//! thread**: the sender writes. [`Transport::send`] pushes its frame and,
//! if a session is up and nobody is writing, becomes the writer — it
//! frames up to `MAX_BATCH` (64) queued frames into one buffer, writes them
//! under [`SocketConfig::write_timeout_ms`] with the lock released, and
//! repeats until it finds the queue empty. A sender that finds someone
//! writing leaves its frame in the queue and returns, so frames share a
//! write syscall exactly when senders are concurrent. A failed write leaves
//! its batch at the head of the queue and drops the connection; the
//! peer's dial thread (`peer_run_loop`) redials under capped exponential
//! backoff with seeded jitter ([`super::backoff`]), and installing the next session
//! writes the queue out before anything sent after it (per-link FIFO,
//! at-least-once). Senders block at most
//! [`SocketConfig::send_deadline_ms`] on a full queue, then get
//! [`TransportError::Backpressure`]; `send` returning `Ok` means *queued*,
//! and — when the link was up and idle — *written*.
//!
//! # Who dispatches
//!
//! Every [`TransportEvent`] leaves the transport through the endpoint's
//! [`Sink`]. [`SocketServer::bind`] / [`SocketPeer::connect`] install the
//! bounded event queue behind [`Transport::recv_timeout`];
//! [`SocketServer::bind_with_sink`] / [`SocketPeer::connect_with_sink`]
//! take the caller's, which then runs **on the transport's own threads**:
//! a session's reader (every `Delivery`, and `Disconnected` at EOF), the
//! acceptor or the dial supervisor (`Connected`, `Reconnected`,
//! `HandshakeFenced`), and any thread inside `send` whose write failed
//! (`Disconnected`). No transport lock is held while a sink runs, so it
//! may `send` — a reply goes out inline. It may not wait for another frame
//! from the same link (only the reader it is running on could deliver it),
//! may not call `shutdown` (which joins that reader), and should not block:
//! while it runs, nothing is read from its session, and the other end's
//! senders stall in their writes.

use super::backoff::{Backoff, BackoffConfig};
use super::frame::{encode_frame, encode_frame_parts, FrameConfig, FrameDecoder, HEADER_LEN};
use super::netio::{
    connect_deadline, retryable, write_all_deadline, Listener, Stream, TransportAddr,
};
use super::{LinkHealth, Transport, TransportError, TransportEvent};
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for the socket transport. Every blocking operation is bounded
/// by one of these knobs.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Dial deadline per connect attempt, ms.
    pub connect_timeout_ms: u64,
    /// Deadline for writing one batch, ms.
    pub write_timeout_ms: u64,
    /// Deadline for the Hello/HelloAck exchange, ms.
    pub handshake_timeout_ms: u64,
    /// How long a sender may block on a full outbound queue, ms.
    pub send_deadline_ms: u64,
    /// Per-peer outbound queue capacity (frames).
    pub outbound_capacity: usize,
    /// Reconnect backoff tuning.
    pub backoff: BackoffConfig,
}

/// Inbound event queue capacity (deliveries + link events).
const INBOUND_CAPACITY: usize = 4_096;

/// Most frames coalesced into one write syscall.
const MAX_BATCH: usize = 64;

/// Longest a transport thread sleeps without re-checking for shutdown.
const POLL: Duration = Duration::from_millis(20);

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            connect_timeout_ms: 1_000,
            write_timeout_ms: 1_000,
            handshake_timeout_ms: 1_000,
            send_deadline_ms: 1_000,
            outbound_capacity: 1_024,
            backoff: BackoffConfig::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// control frames

const TAG_HELLO: u32 = 1;
const TAG_HELLO_ACK: u32 = 2;
const TAG_DATA: u32 = 3;

/// A decoded control/payload frame.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SessionFrame {
    Hello { node: u32, epoch: u64, attempt: u32 },
    HelloAck { accepted: bool, floor: u64 },
    Data(Bytes),
}

/// Appends a framed `Data` session frame carrying `payload` to `wire`:
/// `[len][crc]` then `[TAG_DATA][payload len][payload]`, summed and copied
/// straight from `payload`, never joined in between.
fn write_data(payload: &[u8], wire: &mut Vec<u8>) {
    let mut head = [0u8; 8];
    head[..4].copy_from_slice(&TAG_DATA.to_le_bytes());
    head[4..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    encode_frame_parts(&[&head, payload], wire);
}

/// Appends `frame`, framed for the stream, to `wire`.
pub(crate) fn write_session(frame: &SessionFrame, wire: &mut Vec<u8>) {
    use crate::wire::WireWriter;
    match frame {
        SessionFrame::Hello {
            node,
            epoch,
            attempt,
        } => encode_frame(
            &WireWriter::new()
                .u32(TAG_HELLO)
                .u32(*node)
                .u64(*epoch)
                .u32(*attempt)
                .finish(),
            wire,
        ),
        SessionFrame::HelloAck { accepted, floor } => encode_frame(
            &WireWriter::new()
                .u32(TAG_HELLO_ACK)
                .u32(u32::from(*accepted))
                .u64(*floor)
                .finish(),
            wire,
        ),
        SessionFrame::Data(payload) => write_data(payload, wire),
    }
}

/// Decodes one frame popped from the decoder; a `Data` payload comes back
/// as a view of `frame`.
pub(crate) fn decode_session(frame: &Bytes) -> Result<SessionFrame, String> {
    use crate::wire::WireReader;
    let mut r = WireReader::new(frame);
    match r.u32()? {
        TAG_HELLO => Ok(SessionFrame::Hello {
            node: r.u32()?,
            epoch: r.u64()?,
            attempt: r.u32()?,
        }),
        TAG_HELLO_ACK => Ok(SessionFrame::HelloAck {
            accepted: r.u32()? != 0,
            floor: r.u64()?,
        }),
        TAG_DATA => Ok(SessionFrame::Data(frame.slice_ref(r.bytes_ref()?))),
        other => Err(format!("unknown session frame tag {other}")),
    }
}

// ---------------------------------------------------------------------------
// the link: one outbound queue, one session, and whoever sends writes

/// Where an endpoint `E` hands every [`TransportEvent`], on whichever
/// transport thread produced it (see the [module docs](self) for which
/// those are and what a sink may not do). It is given the endpoint so that
/// it can answer a delivery with an inline [`Transport::send`].
pub type Sink<E> = Box<dyn Fn(&E, TransportEvent<Bytes>) + Send + Sync>;

/// Wire-buffer capacity kept between batches; a rare larger batch (64
/// frames of a migrating object's state) is freed once written.
const WIRE_KEEP: usize = 256 * 1024;

/// One link's outbound state, all of it under [`Link::out`].
#[derive(Default)]
struct Out {
    /// Frames `send` accepted and no write has finished, oldest first; at
    /// most `outbound_capacity`. Survives reconnects.
    queue: VecDeque<Bytes>,
    /// Write half of the live session (its reader owns a clone of the
    /// descriptor); `None` while the link is down.
    session: Option<Arc<Stream>>,
    /// Sessions installed so far. Names the live one, so a replaced
    /// session's reader or writer cannot tear down its successor.
    generation: u64,
    /// Some thread is inside [`Link::flush`]: it alone pops `queue` and
    /// writes `session` until it clears the flag.
    writing: bool,
    /// The reused buffer batches are framed into.
    wire: Vec<u8>,
    /// The incarnation this link's sessions authenticate: a dialing end's
    /// own, from the start; at the accepting end the peer's, `None` until
    /// its first Hello.
    epoch: Option<u64>,
    /// The handshake was refused (a dialing end only; terminal).
    fenced: bool,
    /// The endpoint was shut down: its `closed` flag, repeated here for
    /// those who sleep on `changed` (the readers poll the flag itself).
    closed: bool,
}

struct Link {
    out: std::sync::Mutex<Out>,
    /// Notified on every session transition (installed, down, fenced), on
    /// close, and when a finished write makes room in a full queue: what a
    /// blocked sender, the dial supervisor and `wait_connected` sleep on.
    changed: Condvar,
}

impl Link {
    fn new(epoch: Option<u64>) -> Link {
        Link {
            out: std::sync::Mutex::new(Out {
                epoch,
                ..Out::default()
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Out> {
        // only this module's own code runs under the lock, never a sink, so
        // a panic elsewhere cannot have left `Out` half-updated
        self.out.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sleeps on `changed` for at most `timeout`.
    fn wait_timeout<'a>(&self, out: MutexGuard<'a, Out>, timeout: Duration) -> MutexGuard<'a, Out> {
        self.changed
            .wait_timeout(out, timeout)
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }

    /// Queues `msg`, waiting up to `send_deadline_ms` for room, and writes
    /// the queue out if nobody else is. `Ok(true)` when that write failed
    /// and took the session down: the caller owes its sink a
    /// `Disconnected`.
    fn send(&self, to: u32, msg: Bytes, cfg: &SocketConfig) -> Result<bool, TransportError> {
        let mut out = self.lock();
        let mut deadline = None;
        loop {
            if out.closed {
                return Err(TransportError::Closed);
            }
            let Some(epoch) = out.epoch else {
                return Err(TransportError::Down { peer: to });
            };
            if out.fenced {
                return Err(TransportError::Fenced { peer: to, epoch });
            }
            if out.queue.len() < cfg.outbound_capacity {
                break;
            }
            let left = deadline
                .get_or_insert_with(|| Instant::now() + Duration::from_millis(cfg.send_deadline_ms))
                .saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(TransportError::Backpressure {
                    waited_ms: cfg.send_deadline_ms,
                });
            }
            out = self.wait_timeout(out, left);
        }
        out.queue.push_back(msg);
        // INVARIANT 1 (no stranded frame), first half: the push above and
        // the test of `writing` in `flush` happen under this one
        // acquisition — either this thread becomes the writer, or the
        // writer that holds the flag has yet to take the lock again, and
        // will find this frame when it does.
        Ok(self.flush(out, cfg))
    }

    /// Becomes the writer unless someone is: frames up to `MAX_BATCH`
    /// queued frames into the reused buffer, writes them with the lock
    /// released, and repeats until the queue is empty or the session gone.
    /// A failed write leaves its batch at the head of the queue and downs
    /// the session it was written to. `true` when this call downed one.
    fn flush<'a>(&'a self, mut out: MutexGuard<'a, Out>, cfg: &SocketConfig) -> bool {
        if out.writing {
            return false;
        }
        out.writing = true;
        let mut downed = false;
        loop {
            let Some(stream) = out.session.clone() else {
                break;
            };
            if out.queue.is_empty() {
                break;
            }
            let generation = out.generation;
            let batch = out.queue.len().min(MAX_BATCH);
            let mut wire = std::mem::take(&mut out.wire);
            wire.clear();
            // [len][crc] + [tag][payload len] around every payload
            let framed = |f: &Bytes| 2 * HEADER_LEN + f.len();
            wire.reserve(out.queue.iter().take(batch).map(framed).sum());
            for f in out.queue.iter().take(batch) {
                write_data(f, &mut wire);
            }
            drop(out);
            let deadline = Instant::now() + Duration::from_millis(cfg.write_timeout_ms);
            let written = write_all_deadline(&stream, &wire, deadline);
            out = self.lock();
            if wire.capacity() <= WIRE_KEEP {
                out.wire = wire;
            }
            match written {
                // the batch leaves the queue only once written
                Ok(()) => {
                    let was_full = out.queue.len() >= cfg.outbound_capacity;
                    out.queue.drain(..batch);
                    if was_full {
                        self.changed.notify_all();
                    }
                }
                // if a newer session replaced the failed one meanwhile, the
                // next turn retries the batch on it
                Err(_) => downed |= self.down_locked(&mut out, generation),
            }
        }
        // INVARIANT 1, second half: the flag is cleared only here, under
        // the acquisition in which the loop saw the queue empty or the
        // session gone. A frame pushed after that sees the flag clear and
        // is written by its own sender; one left behind a dead session is
        // covered by invariant 2.
        out.writing = false;
        downed
    }

    /// Publishes `stream` as the write half of a new session (replacing,
    /// and so killing, any live one), lets `started(generation, first)`
    /// start its reader and announce it, then writes out what was queued
    /// while the link was down — first and in order, since later sends
    /// queue behind it. `true` when that write already failed and downed
    /// the new session.
    fn install(
        &self,
        stream: Stream,
        epoch: u64,
        cfg: &SocketConfig,
        started: impl FnOnce(u64, bool),
    ) -> bool {
        let generation = {
            let mut out = self.lock();
            if out.closed {
                stream.shutdown_both();
                return false;
            }
            if let Some(old) = out.session.replace(Arc::new(stream)) {
                old.shutdown_both(); // its reader sees EOF and exits
            }
            out.generation += 1;
            out.epoch = Some(epoch);
            self.changed.notify_all();
            out.generation
        };
        // the reader runs before the queue is written out: were the other
        // end to answer a large flush while nobody here reads, both ends
        // would sit in their writes until one timed out
        started(generation, generation == 1);
        // INVARIANT 2 (no frame waits on a live link): this is the only
        // place a session is published, and it flushes afterwards. Frames
        // queued while the link was down had nobody to write them — their
        // senders saw no session — so the installer does.
        self.flush(self.lock(), cfg)
    }

    /// Marks session `generation` dead if it is still the live one — its
    /// reader saw EOF, or a writer a failed write. `true` when it was: the
    /// caller owes its sink a `Disconnected`.
    fn down(&self, generation: u64) -> bool {
        self.down_locked(&mut self.lock(), generation)
    }

    fn down_locked(&self, out: &mut Out, generation: u64) -> bool {
        if out.generation != generation {
            return false;
        }
        let Some(stream) = out.session.take() else {
            return false;
        };
        stream.shutdown_both();
        self.changed.notify_all();
        true
    }

    fn fence(&self) {
        self.lock().fenced = true;
        self.changed.notify_all();
    }

    fn close(&self) {
        let mut out = self.lock();
        out.closed = true;
        if let Some(stream) = out.session.take() {
            stream.shutdown_both(); // unblocks its reader and any writer
        }
        self.changed.notify_all();
    }

    fn health(&self) -> LinkHealth {
        let out = self.lock();
        if out.fenced {
            LinkHealth::Fenced
        } else if out.session.is_some() {
            LinkHealth::Up
        } else {
            LinkHealth::Down
        }
    }
}

/// Reads one session's frames until it dies or `closed` is set, handing
/// every `Data` payload (a view of its own frame) to `deliver`. `true`
/// when the session died: EOF, an IO error or a corrupt stream — the
/// caller drops it and lets the peer redial.
fn read_session(stream: &mut Stream, closed: &AtomicBool, mut deliver: impl FnMut(Bytes)) -> bool {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut dec = FrameDecoder::new(FrameConfig::default());
    // heap-allocated once per reader thread; 64 KiB would be a large
    // stack frame for something this long-lived
    let mut buf = vec![0u8; 64 * 1024];
    while !closed.load(Ordering::Acquire) {
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => {
                    if let Ok(SessionFrame::Data(payload)) = decode_session(&frame) {
                        deliver(payload);
                    }
                }
                Ok(None) => break,
                Err(_) => return true,
            }
        }
        match stream.read_chunk(&mut buf) {
            Ok(0) => return true,
            Ok(n) => dec.extend(&buf[..n]),
            Err(e) if retryable(&e) => {}
            Err(_) => return true,
        }
    }
    false
}

/// Reads framed bytes off `stream` until one whole frame decodes, bounded
/// by `deadline`. Used for the synchronous handshake exchange; steady-state
/// reads live in the reader threads.
fn read_frame_deadline(
    stream: &mut Stream,
    dec: &mut FrameDecoder,
    deadline: Instant,
) -> io::Result<Bytes> {
    let mut buf = [0u8; 4096];
    loop {
        match dec.next_frame() {
            Ok(Some(frame)) => return Ok(frame),
            Ok(None) => {}
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "handshake deadline expired",
            ));
        }
        stream.set_read_timeout(Some(deadline - now))?;
        match stream.read_chunk(&mut buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed during handshake",
                ))
            }
            Ok(n) => dec.extend(&buf[..n]),
            Err(e) if retryable(&e) => {}
            Err(e) => return Err(e),
        }
    }
}

fn ms(d: Duration) -> u64 {
    d.as_millis() as u64
}

/// The default sink — a bounded queue; a full one backpressures whoever
/// produced the event — and the receiver `recv_timeout` takes from.
fn event_queue<E>() -> (Sink<E>, Receiver<TransportEvent<Bytes>>) {
    let (events_tx, events_rx) = bounded(INBOUND_CAPACITY);
    let queue: Sink<E> = Box::new(move |_, ev| {
        let _ = events_tx.send(ev);
    });
    (queue, events_rx)
}

/// The default sink's other end: the next queued event of an endpoint. An
/// endpoint built around its own sink has no queue to wait on.
fn recv_event(
    events: Option<&Receiver<TransportEvent<Bytes>>>,
    closed: &AtomicBool,
    timeout: Duration,
) -> Result<TransportEvent<Bytes>, TransportError> {
    let Some(events) = events else {
        return Err(TransportError::Closed);
    };
    match events.recv_timeout(timeout) {
        Ok(ev) => Ok(ev),
        Err(_) if closed.load(Ordering::Acquire) => Err(TransportError::Closed),
        Err(_) => Err(TransportError::Timeout {
            waited_ms: ms(timeout),
        }),
    }
}

/// Joins every transport thread an endpoint started.
fn join_all(threads: &Mutex<Vec<JoinHandle<()>>>) {
    let handles: Vec<_> = threads.lock().drain(..).collect();
    for h in handles {
        let _ = h.join();
    }
}

// ---------------------------------------------------------------------------
// server

struct ServerShared {
    cfg: SocketConfig,
    /// The resolved listen address.
    addr: TransportAddr,
    /// Node id → its link; a link without an `epoch` has not said Hello.
    links: Vec<Link>,
    sink: Sink<SocketServer>,
    /// node id → smallest acceptable incarnation (fencing floor).
    floors: Mutex<HashMap<u32, u64>>,
    closed: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// The coordinator's end of the socket transport: accepts worker sessions,
/// fences stale incarnations at accept time, keeps one outbound link per
/// worker.
pub struct SocketServer {
    inner: Arc<ServerShared>,
    /// The queue [`SocketServer::bind`]'s sink fills; `None` with a
    /// caller's sink, and in the handles the server's own threads hold.
    events: Option<Receiver<TransportEvent<Bytes>>>,
}

impl SocketServer {
    /// Binds `addr` and starts the accept loop. `peers_total` bounds the
    /// valid node-id space. Returns the server and its **resolved**
    /// address (TCP `:0` binds report the real port). Events queue (bounded;
    /// a full queue backpressures the readers, and with them the kernel
    /// socket buffers) until [`Transport::recv_timeout`] takes them.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(
        addr: &TransportAddr,
        peers_total: u32,
        cfg: SocketConfig,
    ) -> io::Result<SocketServer> {
        let (queue, events) = event_queue();
        let mut server = SocketServer::bind_with_sink(addr, peers_total, cfg, queue)?;
        server.events = Some(events);
        Ok(server)
    }

    /// As [`SocketServer::bind`], but every event goes to `sink` on the
    /// transport thread that produced it instead of a queue — see the
    /// [module docs](self) for what a sink may not do. `recv_timeout` on
    /// such a server reports [`TransportError::Closed`].
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind_with_sink(
        addr: &TransportAddr,
        peers_total: u32,
        cfg: SocketConfig,
        sink: Sink<SocketServer>,
    ) -> io::Result<SocketServer> {
        let listener = Listener::bind(addr)?;
        let server = SocketServer {
            inner: Arc::new(ServerShared {
                cfg,
                addr: listener.local_addr()?,
                links: (0..peers_total).map(|_| Link::new(None)).collect(),
                sink,
                floors: Mutex::new(HashMap::new()),
                closed: AtomicBool::new(false),
                threads: Mutex::new(Vec::new()),
            }),
            events: None,
        };
        let acceptor = server.handle();
        let handle = std::thread::Builder::new()
            .name("oml-accept".into())
            .spawn(move || accept_loop(&acceptor, &listener))
            .expect("spawn accept thread");
        server.inner.threads.lock().push(handle);
        Ok(server)
    }

    /// Another handle to the same endpoint, for its own threads.
    fn handle(&self) -> SocketServer {
        SocketServer {
            inner: Arc::clone(&self.inner),
            events: None,
        }
    }

    fn emit(&self, ev: TransportEvent<Bytes>) {
        (self.inner.sink)(self, ev);
    }

    /// The resolved listen address — hand this to worker processes.
    #[must_use]
    pub fn addr(&self) -> &TransportAddr {
        &self.inner.addr
    }

    /// Raises `node`'s fencing floor: handshakes presenting an incarnation
    /// `< epoch` are refused from now on. Idempotent; floors only rise.
    pub fn fence_below(&self, node: u32, epoch: u64) {
        let mut floors = self.inner.floors.lock();
        let f = floors.entry(node).or_insert(0);
        *f = (*f).max(epoch);
    }

    /// The incarnation the current session of `node` authenticated as
    /// (`None` before any session).
    #[must_use]
    pub fn session_epoch(&self, node: u32) -> Option<u64> {
        self.inner.links.get(node as usize)?.lock().epoch
    }
}

impl Transport<Bytes> for SocketServer {
    fn peers(&self) -> u32 {
        self.inner.links.len() as u32
    }

    fn send(&self, to: u32, msg: Bytes) -> Result<(), TransportError> {
        let link = self
            .inner
            .links
            .get(to as usize)
            .ok_or(TransportError::Down { peer: to })?;
        if link.send(to, msg, &self.inner.cfg)? {
            self.emit(TransportEvent::Disconnected { peer: to });
        }
        Ok(())
    }

    fn recv_timeout(
        &self,
        _at: u32,
        timeout: Duration,
    ) -> Result<TransportEvent<Bytes>, TransportError> {
        recv_event(self.events.as_ref(), &self.inner.closed, timeout)
    }

    fn link_health(&self, to: u32) -> LinkHealth {
        match self.inner.links.get(to as usize) {
            Some(link) => link.health(),
            None => LinkHealth::Down,
        }
    }

    fn shutdown(&self) {
        self.inner.closed.store(true, Ordering::Release);
        for link in &self.inner.links {
            link.close();
        }
        join_all(&self.inner.threads);
    }
}

fn accept_loop(server: &SocketServer, listener: &Listener) {
    while !server.inner.closed.load(Ordering::Acquire) {
        let deadline = Instant::now() + Duration::from_millis(50);
        match listener.accept_deadline(deadline) {
            Ok(stream) => handle_accept(server, stream),
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
            Err(_) => {
                // bind torn down under us — poll the closed flag
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Runs the server side of the handshake synchronously (bounded by
/// `handshake_timeout_ms`), then installs the session and spawns its
/// reader. A worker that stalls mid-handshake delays only this accept,
/// never established sessions.
fn handle_accept(server: &SocketServer, mut stream: Stream) {
    let inner = &server.inner;
    let deadline = Instant::now() + Duration::from_millis(inner.cfg.handshake_timeout_ms);
    let mut dec = FrameDecoder::new(FrameConfig::default());
    let hello = read_frame_deadline(&mut stream, &mut dec, deadline)
        .ok()
        .and_then(|frame| decode_session(&frame).ok());
    let Some(SessionFrame::Hello {
        node,
        epoch,
        attempt,
    }) = hello
    else {
        stream.shutdown_both();
        return;
    };
    let Some(link) = inner.links.get(node as usize) else {
        stream.shutdown_both();
        return;
    };

    let floor = { *inner.floors.lock().entry(node).or_insert(0) };
    let accepted = epoch >= floor;
    let mut wire = Vec::new();
    write_session(&SessionFrame::HelloAck { accepted, floor }, &mut wire);
    if write_all_deadline(&stream, &wire, deadline).is_err() {
        stream.shutdown_both();
        return;
    }
    if !accepted {
        server.emit(TransportEvent::HandshakeFenced { peer: node, epoch });
        stream.shutdown_both();
        return;
    }

    // accepted: floors only rise, so same-epoch reconnects stay idempotent
    inner
        .floors
        .lock()
        .entry(node)
        .and_modify(|f| *f = (*f).max(epoch));

    let Ok(read_half) = stream.try_clone() else {
        stream.shutdown_both();
        return;
    };
    let downed = link.install(stream, epoch, &inner.cfg, |generation, first| {
        server.emit(if first {
            TransportEvent::Connected { peer: node, epoch }
        } else {
            TransportEvent::Reconnected {
                peer: node,
                epoch,
                attempt,
            }
        });
        let reader = server.handle();
        let handle = std::thread::Builder::new()
            .name(format!("oml-reader-{node}"))
            .spawn(move || server_reader_loop(&reader, node, epoch, generation, read_half))
            .expect("spawn reader thread");
        inner.threads.lock().push(handle);
    });
    if downed {
        server.emit(TransportEvent::Disconnected { peer: node });
    }
}

/// Hands one session's frames to the sink until EOF or a framing error; a
/// stale generation (session since replaced) exits silently so a reconnect
/// can't be torn down by its predecessor's reader.
fn server_reader_loop(
    server: &SocketServer,
    node: u32,
    epoch: u64,
    generation: u64,
    mut stream: Stream,
) {
    let died = read_session(&mut stream, &server.inner.closed, |msg| {
        server.emit(TransportEvent::Delivery {
            from: node,
            epoch,
            msg,
        });
    });
    if died && server.inner.links[node as usize].down(generation) {
        server.emit(TransportEvent::Disconnected { peer: node });
    }
}

// ---------------------------------------------------------------------------
// peer (client)

struct PeerShared {
    cfg: SocketConfig,
    addr: TransportAddr,
    node: u32,
    epoch: u64,
    link: Link,
    sink: Sink<SocketPeer>,
    closed: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A worker process's end of the socket transport: one supervised session
/// towards the coordinator (`peer 0` in [`Transport`] terms).
pub struct SocketPeer {
    inner: Arc<PeerShared>,
    /// As [`SocketServer`]'s: the queue behind `recv_timeout`, if any.
    events: Option<Receiver<TransportEvent<Bytes>>>,
}

impl SocketPeer {
    /// Starts the supervisor dialing `addr`, presenting `node` +
    /// incarnation `epoch` in its handshake. Returns immediately; watch
    /// [`Transport::recv_timeout`] events (or [`Self::wait_connected`])
    /// for the outcome of the first dial.
    #[must_use]
    pub fn connect(addr: TransportAddr, node: u32, epoch: u64, cfg: SocketConfig) -> SocketPeer {
        let (queue, events) = event_queue();
        let mut peer = SocketPeer::connect_with_sink(addr, node, epoch, cfg, queue);
        peer.events = Some(events);
        peer
    }

    /// As [`SocketPeer::connect`], but every event goes to `sink` on the
    /// transport thread that produced it instead of a queue — see the
    /// [module docs](self) for what a sink may not do. `recv_timeout` on
    /// such a peer reports [`TransportError::Closed`].
    #[must_use]
    pub fn connect_with_sink(
        addr: TransportAddr,
        node: u32,
        epoch: u64,
        cfg: SocketConfig,
        sink: Sink<SocketPeer>,
    ) -> SocketPeer {
        let peer = SocketPeer {
            inner: Arc::new(PeerShared {
                cfg,
                addr,
                node,
                epoch,
                link: Link::new(Some(epoch)),
                sink,
                closed: AtomicBool::new(false),
                threads: Mutex::new(Vec::new()),
            }),
            events: None,
        };
        let supervisor = peer.handle();
        let handle = std::thread::Builder::new()
            .name(format!("oml-peer-{node}"))
            .spawn(move || peer_run_loop(&supervisor))
            .expect("spawn peer supervisor");
        peer.inner.threads.lock().push(handle);
        peer
    }

    /// Another handle to the same endpoint, for its own threads.
    fn handle(&self) -> SocketPeer {
        SocketPeer {
            inner: Arc::clone(&self.inner),
            events: None,
        }
    }

    fn emit(&self, ev: TransportEvent<Bytes>) {
        (self.inner.sink)(self, ev);
    }

    /// Blocks until a handshake resolves (accepted or fenced) or `timeout`
    /// passes. `true` when connected.
    pub fn wait_connected(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let link = &self.inner.link;
        let mut out = link.lock();
        loop {
            if out.session.is_some() {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if out.fenced || out.closed || left.is_zero() {
                return false;
            }
            out = link.wait_timeout(out, left);
        }
    }

    /// Whether this peer's incarnation has been refused (terminal).
    #[must_use]
    pub fn is_fenced(&self) -> bool {
        self.inner.link.lock().fenced
    }
}

impl Transport<Bytes> for SocketPeer {
    fn peers(&self) -> u32 {
        1
    }

    fn send(&self, to: u32, msg: Bytes) -> Result<(), TransportError> {
        if to != 0 {
            return Err(TransportError::Down { peer: to });
        }
        // while down (non-fenced), frames still queue (bounded) — the next
        // session's install writes them out
        if self.inner.link.send(0, msg, &self.inner.cfg)? {
            self.emit(TransportEvent::Disconnected { peer: 0 });
        }
        Ok(())
    }

    fn recv_timeout(
        &self,
        _at: u32,
        timeout: Duration,
    ) -> Result<TransportEvent<Bytes>, TransportError> {
        recv_event(self.events.as_ref(), &self.inner.closed, timeout)
    }

    fn link_health(&self, _to: u32) -> LinkHealth {
        self.inner.link.health()
    }

    fn shutdown(&self) {
        self.inner.closed.store(true, Ordering::Release);
        self.inner.link.close();
        join_all(&self.inner.threads);
    }
}

/// Dials once under the config's deadlines, presenting `attempt` in the
/// Hello (1 = first try of this outage). `Ok(Some((stream, read_half)))` =
/// session up, `Ok(None)` = fenced (terminal), `Err` = retry later.
fn peer_dial_attempt(inner: &PeerShared, attempt: u32) -> io::Result<Option<(Stream, Stream)>> {
    let deadline = Instant::now() + Duration::from_millis(inner.cfg.connect_timeout_ms);
    let mut stream = connect_deadline(&inner.addr, deadline)?;
    let hs_deadline = Instant::now() + Duration::from_millis(inner.cfg.handshake_timeout_ms);
    let mut wire = Vec::new();
    write_session(
        &SessionFrame::Hello {
            node: inner.node,
            epoch: inner.epoch,
            attempt,
        },
        &mut wire,
    );
    write_all_deadline(&stream, &wire, hs_deadline)?;
    let mut dec = FrameDecoder::new(FrameConfig::default());
    let ack = read_frame_deadline(&mut stream, &mut dec, hs_deadline)?;
    match decode_session(&ack) {
        Ok(SessionFrame::HelloAck { accepted: true, .. }) => {
            let read_half = stream.try_clone()?;
            Ok(Some((stream, read_half)))
        }
        Ok(SessionFrame::HelloAck {
            accepted: false, ..
        }) => Ok(None),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad handshake ack",
        )),
    }
}

/// The dial supervisor: dials under backoff while the link is down and
/// sleeps on the link's condvar while it is up. It writes nothing; whoever
/// downs the session (its reader at EOF, a sender whose write failed) or
/// closes the endpoint wakes it. One dial is in flight at a time, so a dead
/// server is hit by one connect per backoff window, not a stampede.
fn peer_run_loop(peer: &SocketPeer) {
    let inner = &*peer.inner;
    let mut backoff = Backoff::new(BackoffConfig {
        seed: inner.cfg.backoff.seed ^ (u64::from(inner.node) << 32) ^ inner.epoch,
        ..inner.cfg.backoff
    });
    let started = Instant::now();
    let now_ms = || ms(started.elapsed());
    // `Some(t)`: the link is down and the next dial is due at `t` — the
    // first one at once. `None`: the last dial installed a session.
    let mut retry_at_ms = Some(0);
    // dials in the current outage; the Hello and `Reconnected` carry it
    let mut attempt = 0u32;
    loop {
        let mut out = inner.link.lock();
        loop {
            if out.closed {
                return;
            }
            let now = now_ms();
            let idle = match retry_at_ms {
                None if out.session.is_some() => POLL,
                // the session died: its outage opens with one backoff delay
                None => {
                    retry_at_ms = Some(now + backoff.next_delay_ms());
                    continue;
                }
                Some(at) if now < at => Duration::from_millis(at - now).min(POLL),
                Some(_) => break, // a dial is due
            };
            out = inner.link.wait_timeout(out, idle);
        }
        drop(out);

        attempt += 1;
        match peer_dial_attempt(inner, attempt) {
            Ok(Some((stream, read_half))) => {
                // the outage is over: `dials` says how many it took
                let (epoch, dials) = (inner.epoch, attempt);
                backoff.reset();
                retry_at_ms = None;
                attempt = 0;
                let downed = inner
                    .link
                    .install(stream, epoch, &inner.cfg, |generation, first| {
                        peer.emit(if first {
                            TransportEvent::Connected { peer: 0, epoch }
                        } else {
                            TransportEvent::Reconnected {
                                peer: 0,
                                epoch,
                                attempt: dials,
                            }
                        });
                        let reader = peer.handle();
                        let handle = std::thread::Builder::new()
                            .name(format!("oml-peer-reader-{}", inner.node))
                            .spawn(move || peer_reader_loop(&reader, generation, read_half))
                            .expect("spawn peer reader");
                        inner.threads.lock().push(handle);
                    });
                if downed {
                    peer.emit(TransportEvent::Disconnected { peer: 0 });
                }
            }
            Ok(None) => {
                inner.link.fence();
                peer.emit(TransportEvent::HandshakeFenced {
                    peer: 0,
                    epoch: inner.epoch,
                });
                return;
            }
            Err(_) => retry_at_ms = Some(now_ms() + backoff.next_delay_ms()),
        }
    }
}

/// Hands the coordinator's frames for session `generation` to the sink;
/// on EOF/error downs the session, which wakes the supervisor.
fn peer_reader_loop(peer: &SocketPeer, generation: u64, mut stream: Stream) {
    let died = read_session(&mut stream, &peer.inner.closed, |msg| {
        peer.emit(TransportEvent::Delivery {
            from: 0,
            epoch: 0,
            msg,
        });
    });
    if died && peer.inner.link.down(generation) {
        peer.emit(TransportEvent::Disconnected { peer: 0 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh Unix-socket address in its own temp directory.
    fn unix_addr(tag: &str) -> (std::path::PathBuf, TransportAddr) {
        let dir = std::env::temp_dir().join(format!("oml-sock-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr = TransportAddr::Unix(dir.join("s.sock"));
        (dir, addr)
    }

    /// A `len`-byte frame carrying `(a, b)` in its first eight bytes.
    fn tagged(a: u32, b: u32, len: usize) -> Bytes {
        let mut frame = vec![0u8; len.max(8)];
        frame[..4].copy_from_slice(&a.to_le_bytes());
        frame[4..8].copy_from_slice(&b.to_le_bytes());
        Bytes::from(frame)
    }

    fn tag_of(frame: &[u8]) -> (u32, u32) {
        let word = |at: usize| u32::from_le_bytes(frame[at..at + 4].try_into().unwrap());
        (word(0), word(4))
    }

    /// The stranded-frame race: a sender that finds `writing` set leaves
    /// its frame to the writer; were the writer able to clear the flag
    /// without looking at the queue again, that frame would sit there until
    /// the next send. Eight senders, no pause between frames.
    #[test]
    fn concurrent_senders_strand_no_frame_and_keep_their_order() {
        const THREADS: u32 = 8;
        const FRAMES: u32 = 5_000;
        let (dir, addr) = unix_addr("combine");
        // a slow receiver (a sanitizer build) must show up as waiting, not
        // as a torn session
        let cfg = SocketConfig {
            write_timeout_ms: 30_000,
            send_deadline_ms: 30_000,
            ..SocketConfig::default()
        };
        let server = SocketServer::bind(&addr, 1, cfg.clone()).unwrap();
        let peer = SocketPeer::connect(server.addr().clone(), 0, 1, cfg);
        assert!(peer.wait_connected(Duration::from_secs(5)));
        // the peer has the server's ack, which the server writes before it
        // installs its own half: until that is in, a send finds the link down
        assert!(matches!(
            next_event(&server),
            TransportEvent::Connected { peer: 0, epoch: 1 }
        ));

        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                // exactly once and in order per sender: every frame is the
                // next one its thread sent, and all of them come
                let mut next = [0u32; THREADS as usize];
                let mut got = 0;
                let deadline = Instant::now() + Duration::from_mins(2);
                while got < THREADS * FRAMES {
                    assert!(
                        Instant::now() < deadline,
                        "{got} of {} frames arrived: one is stranded",
                        THREADS * FRAMES
                    );
                    if let Ok(TransportEvent::Delivery { msg, .. }) =
                        peer.recv_timeout(0, Duration::from_millis(50))
                    {
                        let (thread, index) = tag_of(&msg);
                        assert_eq!(index, next[thread as usize], "thread {thread}");
                        next[thread as usize] += 1;
                        got += 1;
                    }
                }
            });
            let server = &server;
            let senders: Vec<_> = (0..THREADS)
                .map(|thread| {
                    s.spawn(move || {
                        for index in 0..FRAMES {
                            server.send(0, tagged(thread, index, 64)).unwrap();
                        }
                    })
                })
                .collect();
            for sender in senders {
                sender.join().unwrap();
            }
            // every sender has returned, so the last writer has: it saw the
            // queue empty when it cleared the flag, and nobody pushed since
            {
                let out = server.inner.links[0].lock();
                assert!(out.queue.is_empty(), "{} frames left", out.queue.len());
                assert!(!out.writing);
            }
            receiver.join().unwrap();
        });
        peer.shutdown();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Dials `addr` by hand and says Hello; the returned stream is a session
    /// whose other end nobody reads unless the test does.
    fn raw_session(addr: &TransportAddr, attempt: u32) -> (Stream, FrameDecoder) {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut stream = connect_deadline(addr, deadline).unwrap();
        let mut wire = Vec::new();
        let hello = SessionFrame::Hello {
            node: 0,
            epoch: 1,
            attempt,
        };
        write_session(&hello, &mut wire);
        write_all_deadline(&stream, &wire, deadline).unwrap();
        let mut dec = FrameDecoder::new(FrameConfig::default());
        let ack = read_frame_deadline(&mut stream, &mut dec, deadline).unwrap();
        assert!(matches!(
            decode_session(&ack),
            Ok(SessionFrame::HelloAck { accepted: true, .. })
        ));
        (stream, dec)
    }

    /// The dial loop's bookkeeping, seen by a listener answering by hand:
    /// the first dial says `attempt: 1`, every failed dial of an outage
    /// counts, `Reconnected` carries the count of the dial that got through,
    /// and a session starts the count over.
    #[test]
    fn hello_attempts_count_the_dials_of_one_outage() {
        let (dir, addr) = unix_addr("attempts");
        let listener = Listener::bind(&addr).unwrap();
        let mut cfg = SocketConfig::default();
        cfg.backoff.base_ms = 2;
        cfg.backoff.cap_ms = 8;
        let peer = SocketPeer::connect(addr, 0, 1, cfg);
        // takes the next dial as far as its Hello, then acks it — a session,
        // for as long as the caller keeps the stream — or hangs up
        let dial = |ack: bool| {
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut stream = listener.accept_deadline(deadline).unwrap();
            let mut dec = FrameDecoder::new(FrameConfig::default());
            let hello = read_frame_deadline(&mut stream, &mut dec, deadline).unwrap();
            let Ok(SessionFrame::Hello { attempt, .. }) = decode_session(&hello) else {
                panic!("expected a Hello");
            };
            let session = ack.then(|| {
                let mut wire = Vec::new();
                let accepted = true;
                write_session(&SessionFrame::HelloAck { accepted, floor: 0 }, &mut wire);
                write_all_deadline(&stream, &wire, deadline).unwrap();
                stream
            });
            (attempt, session)
        };
        let next_event = || peer.recv_timeout(0, Duration::from_secs(5)).unwrap();

        // three dials hung up on mid-handshake, the fourth answered
        for expected in 1..=3 {
            assert_eq!(dial(false).0, expected);
        }
        let (attempt, session) = dial(true);
        assert_eq!(attempt, 4);
        assert!(matches!(
            next_event(),
            TransportEvent::Connected { peer: 0, epoch: 1 }
        ));

        // the session dies: a new outage, counted from 1 again
        drop(session);
        assert!(matches!(
            next_event(),
            TransportEvent::Disconnected { peer: 0 }
        ));
        assert_eq!(dial(false).0, 1);
        let (attempt, _session) = dial(true);
        assert_eq!(attempt, 2);
        assert!(matches!(
            next_event(),
            TransportEvent::Reconnected {
                peer: 0,
                epoch: 1,
                attempt: 2
            }
        ));
        peer.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn next_event(server: &SocketServer) -> TransportEvent<Bytes> {
        server
            .recv_timeout(0, Duration::from_secs(5))
            .expect("a link event")
    }

    /// A peer that stops reading: the inline write gives up at
    /// `write_timeout_ms`, the session goes down, the batch stays at the
    /// head of the queue and leads the next session, a full queue still
    /// answers `Backpressure` within `send_deadline_ms` — and no `send`
    /// blocks longer than the larger of the two.
    #[test]
    fn a_peer_that_stops_reading_costs_one_write_timeout_and_no_frame() {
        const FRAME: usize = 64 * 1024; // three fill a Unix socket buffer
        let (dir, addr) = unix_addr("stall");
        let cfg = SocketConfig {
            write_timeout_ms: 100,
            send_deadline_ms: 150,
            outbound_capacity: 4,
            ..SocketConfig::default()
        };
        // what either wait may cost on a loaded machine, over the timeout
        let bound = Duration::from_secs(1);
        let server = SocketServer::bind(&addr, 1, cfg).unwrap();
        let (deaf, _) = raw_session(server.addr(), 1);
        assert!(matches!(
            next_event(&server),
            TransportEvent::Connected { peer: 0, epoch: 1 }
        ));

        // send until a write stalls out; that frame is the failed batch
        let mut sent = 0u32;
        let failed = loop {
            assert!(sent < 1_000, "the socket buffer never filled");
            let t = Instant::now();
            server.send(0, tagged(0, sent, FRAME)).unwrap();
            assert!(t.elapsed() < bound, "send {sent} took {:?}", t.elapsed());
            sent += 1;
            if server.link_health(0) == LinkHealth::Down {
                break sent - 1;
            }
        };
        assert!(matches!(
            next_event(&server),
            TransportEvent::Disconnected { peer: 0 }
        ));
        {
            let out = server.inner.links[0].lock();
            assert_eq!(out.queue.len(), 1, "the failed batch was dropped");
            assert_eq!(tag_of(&out.queue[0]), (0, failed));
            assert!(!out.writing);
        }
        // the link is down: frames queue behind the batch until the queue
        // is full, then the sender is turned away in bounded time
        for _ in 0..3 {
            server.send(0, tagged(0, sent, FRAME)).unwrap();
            sent += 1;
        }
        let t = Instant::now();
        assert_eq!(
            server.send(0, tagged(0, sent, FRAME)),
            Err(TransportError::Backpressure { waited_ms: 150 })
        );
        assert!(t.elapsed() >= Duration::from_millis(150) && t.elapsed() < bound);
        drop(deaf);

        // the next session carries the failed batch first, then what queued
        // behind it, then what is sent after the reconnect
        let (mut stream, mut dec) = raw_session(server.addr(), 2);
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut read_data = || {
            let frame = read_frame_deadline(&mut stream, &mut dec, deadline).unwrap();
            match decode_session(&frame) {
                Ok(SessionFrame::Data(payload)) => tag_of(&payload),
                other => panic!("expected a data frame, got {other:?}"),
            }
        };
        for index in failed..sent {
            assert_eq!(read_data(), (0, index));
        }
        assert!(matches!(
            next_event(&server),
            TransportEvent::Reconnected {
                peer: 0,
                epoch: 1,
                attempt: 2
            }
        ));
        server.send(0, tagged(1, 0, 64)).unwrap();
        assert_eq!(read_data(), (1, 0));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
