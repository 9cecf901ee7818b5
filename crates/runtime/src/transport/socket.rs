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
//! # Supervision and backpressure
//!
//! Each peer owns one persistent bounded outbound queue and one writer
//! loop. Frames are drained in batches (up to `MAX_BATCH`, 64, per write
//! syscall) and written under a deadline. A failed write keeps the
//! unwritten batch in a pending list, drops the connection, and lets the
//! supervisor
//! ([`super::backoff::Supervisor`]) schedule redials under capped
//! exponential backoff with seeded jitter; the pending frames go out
//! first on the next session (per-link FIFO, at-least-once). Senders block
//! at most [`SocketConfig::send_deadline_ms`] on a full queue, then get
//! [`TransportError::Backpressure`].

use super::backoff::{BackoffConfig, LinkState, Supervisor};
use super::frame::{encode_frame, encode_frame_parts, FrameConfig, FrameDecoder, HEADER_LEN};
use super::netio::{connect_deadline, write_all_deadline, Listener, Stream, TransportAddr};
use super::{LinkHealth, Transport, TransportError, TransportEvent};
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
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

/// The writer half both ends share: the batch in flight (kept across a
/// failed write, so it goes out first on the next session) and the reused
/// wire buffer it is framed into.
#[derive(Default)]
struct Outbound {
    pending: VecDeque<Bytes>,
    wire: Vec<u8>,
}

/// Wire-buffer capacity kept between batches; a rare larger batch (64
/// frames of a migrating object's state) is freed once written.
const WIRE_KEEP: usize = 256 * 1024;

impl Outbound {
    /// Tops the batch up from `outbox`, waiting up to 20 ms for a first
    /// frame. `false` when there is still nothing to write.
    fn fill(&mut self, outbox: &Receiver<Bytes>) -> bool {
        if self.pending.is_empty() {
            match outbox.recv_timeout(Duration::from_millis(20)) {
                Ok(frame) => self.pending.push_back(frame),
                Err(_) => return false,
            }
        }
        while self.pending.len() < MAX_BATCH {
            match outbox.try_recv() {
                Ok(frame) => self.pending.push_back(frame),
                Err(_) => break,
            }
        }
        true
    }

    /// Frames the whole batch into one buffer and writes it under the
    /// write deadline. The batch is dropped only once written.
    fn write(&mut self, stream: &mut Stream, write_timeout_ms: u64) -> io::Result<()> {
        self.wire.clear();
        // [len][crc] + [tag][payload len] around every payload
        let framed = |f: &Bytes| 2 * HEADER_LEN + f.len();
        self.wire.reserve(self.pending.iter().map(framed).sum());
        for f in &self.pending {
            write_data(f, &mut self.wire);
        }
        let deadline = Instant::now() + Duration::from_millis(write_timeout_ms);
        let written = write_all_deadline(stream, &self.wire, deadline);
        if self.wire.capacity() > WIRE_KEEP {
            self.wire = Vec::new();
        }
        if written.is_ok() {
            self.pending.clear();
        }
        written
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
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
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
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
}

fn ms(d: Duration) -> u64 {
    d.as_millis() as u64
}

// ---------------------------------------------------------------------------
// server

/// One connected worker's state at the server.
struct PeerSlot {
    /// Persistent outbound queue towards this peer (survives reconnects).
    outbox: Sender<Bytes>,
    /// Live write half, replaced on every new session. `None` while down.
    stream: Option<Stream>,
    /// Bumped per accepted session; stale readers compare against it.
    generation: u64,
    /// Incarnation the current/last session authenticated as.
    epoch: u64,
    up: bool,
}

struct ServerShared {
    cfg: SocketConfig,
    peers_total: u32,
    events_tx: Sender<TransportEvent<Bytes>>,
    events_rx: Receiver<TransportEvent<Bytes>>,
    /// node id → slot; leaf lock, held only for map/field access.
    slots: Mutex<HashMap<u32, PeerSlot>>,
    /// node id → smallest acceptable incarnation (fencing floor).
    floors: Mutex<HashMap<u32, u64>>,
    closed: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerShared {
    fn emit(&self, ev: TransportEvent<Bytes>) {
        // inbound queue is bounded; blocking here backpressures readers
        // (and with them the kernel socket buffers), which is the policy
        let _ = self.events_tx.send(ev);
    }
}

/// The coordinator's end of the socket transport: accepts worker sessions,
/// fences stale incarnations at accept time, supervises per-peer writers.
pub struct SocketServer {
    inner: Arc<ServerShared>,
    addr: TransportAddr,
}

impl SocketServer {
    /// Binds `addr` and starts the accept loop. `peers_total` bounds the
    /// valid node-id space. Returns the server and its **resolved**
    /// address (TCP `:0` binds report the real port).
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(
        addr: &TransportAddr,
        peers_total: u32,
        cfg: SocketConfig,
    ) -> io::Result<SocketServer> {
        let listener = Listener::bind(addr)?;
        let resolved = listener.local_addr()?;
        let (events_tx, events_rx) = bounded(INBOUND_CAPACITY);
        let inner = Arc::new(ServerShared {
            cfg,
            peers_total,
            events_tx,
            events_rx,
            slots: Mutex::new(HashMap::new()),
            floors: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
        });
        let accept_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("oml-accept".into())
            .spawn(move || accept_loop(&accept_inner, &listener))
            .expect("spawn accept thread");
        inner.threads.lock().push(handle);
        Ok(SocketServer {
            inner,
            addr: resolved,
        })
    }

    /// The resolved listen address — hand this to worker processes.
    #[must_use]
    pub fn addr(&self) -> &TransportAddr {
        &self.addr
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
        self.inner.slots.lock().get(&node).map(|s| s.epoch)
    }
}

impl Transport<Bytes> for SocketServer {
    fn peers(&self) -> u32 {
        self.inner.peers_total
    }

    fn send(&self, to: u32, msg: Bytes) -> Result<(), TransportError> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let tx = {
            let slots = self.inner.slots.lock();
            match slots.get(&to) {
                Some(slot) => slot.outbox.clone(),
                None => return Err(TransportError::Down { peer: to }),
            }
        };
        send_with_deadline(&tx, msg, self.inner.cfg.send_deadline_ms)
    }

    fn recv_timeout(
        &self,
        _at: u32,
        timeout: Duration,
    ) -> Result<TransportEvent<Bytes>, TransportError> {
        recv_event(&self.inner.events_rx, &self.inner.closed, timeout)
    }

    fn link_health(&self, to: u32) -> LinkHealth {
        let slots = self.inner.slots.lock();
        match slots.get(&to) {
            Some(slot) if slot.up => LinkHealth::Up,
            _ => LinkHealth::Down,
        }
    }

    fn shutdown(&self) {
        self.inner.closed.store(true, Ordering::Release);
        {
            let mut slots = self.inner.slots.lock();
            for slot in slots.values_mut() {
                if let Some(s) = &slot.stream {
                    s.shutdown_both();
                }
                slot.stream = None;
                slot.up = false;
            }
        }
        let handles: Vec<_> = self.inner.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// The next inbound event of an endpoint, shared by server and peer.
fn recv_event(
    events: &Receiver<TransportEvent<Bytes>>,
    closed: &AtomicBool,
    timeout: Duration,
) -> Result<TransportEvent<Bytes>, TransportError> {
    match events.recv_timeout(timeout) {
        Ok(ev) => Ok(ev),
        Err(_) if closed.load(Ordering::Acquire) => Err(TransportError::Closed),
        Err(_) => Err(TransportError::Timeout {
            waited_ms: ms(timeout),
        }),
    }
}

/// Blocking-with-deadline enqueue shared by server and peer send paths.
fn send_with_deadline(
    tx: &Sender<Bytes>,
    msg: Bytes,
    deadline_ms: u64,
) -> Result<(), TransportError> {
    let deadline = Instant::now() + Duration::from_millis(deadline_ms);
    let mut msg = msg;
    loop {
        match tx.try_send(msg) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Disconnected(_)) => return Err(TransportError::Closed),
            Err(TrySendError::Full(back)) => {
                if Instant::now() >= deadline {
                    return Err(TransportError::Backpressure {
                        waited_ms: deadline_ms,
                    });
                }
                msg = back;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

fn accept_loop(inner: &Arc<ServerShared>, listener: &Listener) {
    while !inner.closed.load(Ordering::Acquire) {
        let deadline = Instant::now() + Duration::from_millis(50);
        match listener.accept_deadline(deadline) {
            Ok(stream) => handle_accept(inner, stream),
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
fn handle_accept(inner: &Arc<ServerShared>, mut stream: Stream) {
    let deadline = Instant::now() + Duration::from_millis(inner.cfg.handshake_timeout_ms);
    let mut dec = FrameDecoder::new(FrameConfig::default());
    let hello = match read_frame_deadline(&mut stream, &mut dec, deadline) {
        Ok(frame) => match decode_session(&frame) {
            Ok(SessionFrame::Hello {
                node,
                epoch,
                attempt,
            }) if node < inner.peers_total => (node, epoch, attempt),
            _ => {
                stream.shutdown_both();
                return;
            }
        },
        Err(_) => {
            stream.shutdown_both();
            return;
        }
    };
    let (node, epoch, attempt) = hello;

    let floor = { *inner.floors.lock().entry(node).or_insert(0) };
    let accepted = epoch >= floor;
    let mut wire = Vec::new();
    write_session(&SessionFrame::HelloAck { accepted, floor }, &mut wire);
    if write_all_deadline(&mut stream, &wire, deadline).is_err() {
        stream.shutdown_both();
        return;
    }
    if !accepted {
        inner.emit(TransportEvent::HandshakeFenced { peer: node, epoch });
        stream.shutdown_both();
        return;
    }

    // accepted: floors only rise, so same-epoch reconnects stay idempotent
    inner
        .floors
        .lock()
        .entry(node)
        .and_modify(|f| *f = (*f).max(epoch));

    let (generation, first_session, read_half) = {
        let mut slots = inner.slots.lock();
        let first = !slots.contains_key(&node);
        let slot = slots.entry(node).or_insert_with(|| {
            let (outbox_tx, outbox_rx) = bounded(inner.cfg.outbound_capacity);
            // per-peer writer loop, started once, lives until shutdown
            let w_inner = Arc::clone(inner);
            let handle = std::thread::Builder::new()
                .name(format!("oml-writer-{node}"))
                .spawn(move || server_writer_loop(&w_inner, node, &outbox_rx))
                .expect("spawn writer thread");
            inner.threads.lock().push(handle);
            PeerSlot {
                outbox: outbox_tx,
                stream: None,
                generation: 0,
                epoch,
                up: false,
            }
        });
        if let Some(old) = &slot.stream {
            old.shutdown_both(); // replaced session: kill the old reader
        }
        slot.generation += 1;
        slot.epoch = epoch;
        slot.up = true;
        let Ok(read_half) = stream.try_clone() else {
            stream.shutdown_both();
            slot.up = false;
            return;
        };
        slot.stream = Some(stream);
        (slot.generation, first, read_half)
    };

    let r_inner = Arc::clone(inner);
    let handle = std::thread::Builder::new()
        .name(format!("oml-reader-{node}"))
        .spawn(move || server_reader_loop(&r_inner, node, epoch, generation, read_half))
        .expect("spawn reader thread");
    inner.threads.lock().push(handle);

    if first_session {
        inner.emit(TransportEvent::Connected { peer: node, epoch });
    } else {
        inner.emit(TransportEvent::Reconnected {
            peer: node,
            epoch,
            attempt,
        });
    }
}

/// Drains `node`'s outbox in batches and writes them to whatever stream
/// the slot currently holds; frames caught in a failed write are retried
/// on the next session.
fn server_writer_loop(inner: &Arc<ServerShared>, node: u32, outbox: &Receiver<Bytes>) {
    let mut out = Outbound::default();
    // the write half of session `generation`, cloned once per session
    let mut write_half: Option<(u64, Stream)> = None;
    while !inner.closed.load(Ordering::Acquire) {
        if !out.fill(outbox) {
            // idle: the cached half must not outlive its session, or a
            // dead session's descriptor stays open until the next send
            if let Some((generation, _)) = &write_half {
                let live = inner
                    .slots
                    .lock()
                    .get(&node)
                    .is_some_and(|slot| slot.up && slot.generation == *generation);
                if !live {
                    write_half = None;
                }
            }
            continue;
        }
        {
            let mut slots = inner.slots.lock();
            match slots.get_mut(&node) {
                Some(slot) if slot.up => {
                    if write_half.as_ref().map(|(g, _)| *g) != Some(slot.generation) {
                        match slot.stream.as_ref().map(Stream::try_clone) {
                            Some(Ok(s)) => write_half = Some((slot.generation, s)),
                            _ => {
                                slot.up = false;
                                continue;
                            }
                        }
                    }
                }
                _ => {
                    drop(slots);
                    write_half = None;
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
            }
        }
        let Some((generation, stream)) = write_half.as_mut() else {
            continue;
        };
        let generation = *generation;
        if out.write(stream, inner.cfg.write_timeout_ms).is_err() {
            // connection is toast; the batch stays for the next session
            write_half = None;
            session_down(inner, node, generation);
        }
    }
}

/// Reads one session's frames into the shared event queue until EOF or a
/// framing error; a stale generation (session since replaced) exits
/// silently so a reconnect can't be torn down by its predecessor's reader.
fn server_reader_loop(
    inner: &Arc<ServerShared>,
    node: u32,
    epoch: u64,
    generation: u64,
    mut stream: Stream,
) {
    let died = read_session(&mut stream, &inner.closed, |msg| {
        inner.emit(TransportEvent::Delivery {
            from: node,
            epoch,
            msg,
        });
    });
    if died {
        session_down(inner, node, generation);
    }
}

/// Marks `node`'s session dead if `generation` is still the live one — its
/// reader saw EOF, or its writer a failed write.
fn session_down(inner: &Arc<ServerShared>, node: u32, generation: u64) {
    let mut slots = inner.slots.lock();
    if let Some(slot) = slots.get_mut(&node) {
        if slot.generation == generation && slot.up {
            if let Some(s) = &slot.stream {
                s.shutdown_both();
            }
            slot.stream = None;
            slot.up = false;
            drop(slots);
            inner.emit(TransportEvent::Disconnected { peer: node });
        }
    }
}

// ---------------------------------------------------------------------------
// peer (client)

const HEALTH_UP: u32 = 0;
const HEALTH_DOWN: u32 = 1;
const HEALTH_FENCED: u32 = 2;

struct PeerShared {
    cfg: SocketConfig,
    addr: TransportAddr,
    node: u32,
    epoch: u64,
    events_tx: Sender<TransportEvent<Bytes>>,
    events_rx: Receiver<TransportEvent<Bytes>>,
    outbox_tx: Sender<Bytes>,
    outbox_rx: Receiver<Bytes>,
    health: AtomicU32,
    /// Highest session generation whose reader saw EOF/error — the run
    /// loop compares with its current generation to notice silent death.
    dead_gen: AtomicU64,
    closed: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A worker process's end of the socket transport: one supervised session
/// towards the coordinator (`peer 0` in [`Transport`] terms).
pub struct SocketPeer {
    inner: Arc<PeerShared>,
}

impl SocketPeer {
    /// Starts the supervisor dialing `addr`, presenting `node` +
    /// incarnation `epoch` in its handshake. Returns immediately; watch
    /// [`Transport::recv_timeout`] events (or [`Self::wait_connected`])
    /// for the outcome of the first dial.
    #[must_use]
    pub fn connect(addr: TransportAddr, node: u32, epoch: u64, cfg: SocketConfig) -> SocketPeer {
        let (events_tx, events_rx) = bounded(INBOUND_CAPACITY);
        let (outbox_tx, outbox_rx) = bounded(cfg.outbound_capacity);
        let inner = Arc::new(PeerShared {
            cfg,
            addr,
            node,
            epoch,
            events_tx,
            events_rx,
            outbox_tx,
            outbox_rx,
            health: AtomicU32::new(HEALTH_DOWN),
            dead_gen: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
        });
        let run_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name(format!("oml-peer-{node}"))
            .spawn(move || peer_run_loop(&run_inner))
            .expect("spawn peer supervisor");
        inner.threads.lock().push(handle);
        SocketPeer { inner }
    }

    /// Blocks until the first handshake resolves (accepted or fenced) or
    /// `timeout` passes. `true` when connected.
    pub fn wait_connected(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            match self.inner.health.load(Ordering::Acquire) {
                HEALTH_UP => return true,
                HEALTH_FENCED => return false,
                _ => {}
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Whether this peer's incarnation has been refused (terminal).
    #[must_use]
    pub fn is_fenced(&self) -> bool {
        self.inner.health.load(Ordering::Acquire) == HEALTH_FENCED
    }
}

impl Transport<Bytes> for SocketPeer {
    fn peers(&self) -> u32 {
        1
    }

    fn send(&self, to: u32, msg: Bytes) -> Result<(), TransportError> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        if to != 0 {
            return Err(TransportError::Down { peer: to });
        }
        // while down (non-fenced), frames still queue (bounded) — the
        // supervisor flushes them after reconnecting
        if self.inner.health.load(Ordering::Acquire) == HEALTH_FENCED {
            return Err(TransportError::Fenced {
                peer: 0,
                epoch: self.inner.epoch,
            });
        }
        send_with_deadline(&self.inner.outbox_tx, msg, self.inner.cfg.send_deadline_ms)
    }

    fn recv_timeout(
        &self,
        _at: u32,
        timeout: Duration,
    ) -> Result<TransportEvent<Bytes>, TransportError> {
        recv_event(&self.inner.events_rx, &self.inner.closed, timeout)
    }

    fn link_health(&self, _to: u32) -> LinkHealth {
        match self.inner.health.load(Ordering::Acquire) {
            HEALTH_UP => LinkHealth::Up,
            HEALTH_FENCED => LinkHealth::Fenced,
            _ => LinkHealth::Down,
        }
    }

    fn shutdown(&self) {
        self.inner.closed.store(true, Ordering::Release);
        let handles: Vec<_> = self.inner.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Dials once under the config's deadlines, presenting `attempt` in the
/// Hello (1 = first try of this outage). `Ok(Some(stream))` = session up,
/// `Ok(None)` = fenced (terminal), `Err` = retry later.
fn peer_dial_attempt(inner: &PeerShared, attempt: u32) -> io::Result<Option<Stream>> {
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
    write_all_deadline(&mut stream, &wire, hs_deadline)?;
    let mut dec = FrameDecoder::new(FrameConfig::default());
    let ack = read_frame_deadline(&mut stream, &mut dec, hs_deadline)?;
    match decode_session(&ack) {
        Ok(SessionFrame::HelloAck { accepted: true, .. }) => Ok(Some(stream)),
        Ok(SessionFrame::HelloAck {
            accepted: false, ..
        }) => Ok(None),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad handshake ack",
        )),
    }
}

fn peer_run_loop(inner: &Arc<PeerShared>) {
    let mut sup = Supervisor::new(BackoffConfig {
        seed: inner.cfg.backoff.seed ^ (u64::from(inner.node) << 32) ^ inner.epoch,
        ..inner.cfg.backoff
    });
    let started = Instant::now();
    let now_ms = |started: Instant| ms(started.elapsed());
    let mut stream: Option<Stream> = None;
    let mut generation: u64 = 0;
    let mut out = Outbound::default();
    let mut ever_connected = false;

    while !inner.closed.load(Ordering::Acquire) {
        // did our reader pronounce the current session dead?
        if stream.is_some() && inner.dead_gen.load(Ordering::Acquire) >= generation {
            if let Some(s) = &stream {
                s.shutdown_both();
            }
            stream = None;
            inner.health.store(HEALTH_DOWN, Ordering::Release);
            sup.on_failure(now_ms(started));
            let _ = inner
                .events_tx
                .send(TransportEvent::Disconnected { peer: 0 });
        }

        match sup.state() {
            LinkState::Fenced { .. } => return, // terminal; health already set
            LinkState::Connected { .. } if stream.is_some() => {
                // writer duties below
            }
            LinkState::Connected { .. } | LinkState::Probing => {
                // lost the stream without a recorded failure (shouldn't
                // happen, but never spin)
                sup.on_failure(now_ms(started));
                continue;
            }
            LinkState::Backoff { .. } => {
                if sup.due(now_ms(started)) {
                    sup.begin_probe();
                    let attempt = sup.outage_attempts();
                    match peer_dial_attempt(inner, attempt) {
                        Ok(Some(s)) => {
                            generation += 1;
                            let attempts = sup.on_established(inner.epoch);
                            // reader for this session
                            if let Ok(read_half) = s.try_clone() {
                                let r_inner = Arc::clone(inner);
                                let gen = generation;
                                let h = std::thread::Builder::new()
                                    .name(format!("oml-peer-reader-{}", inner.node))
                                    .spawn(move || peer_reader_loop(&r_inner, gen, read_half))
                                    .expect("spawn peer reader");
                                inner.threads.lock().push(h);
                                stream = Some(s);
                                inner.health.store(HEALTH_UP, Ordering::Release);
                                let ev = if ever_connected {
                                    TransportEvent::Reconnected {
                                        peer: 0,
                                        epoch: inner.epoch,
                                        attempt: attempts,
                                    }
                                } else {
                                    TransportEvent::Connected {
                                        peer: 0,
                                        epoch: inner.epoch,
                                    }
                                };
                                ever_connected = true;
                                let _ = inner.events_tx.send(ev);
                            } else {
                                s.shutdown_both();
                                sup.on_failure(now_ms(started));
                            }
                        }
                        Ok(None) => {
                            sup.on_fenced(inner.epoch);
                            inner.health.store(HEALTH_FENCED, Ordering::Release);
                            let _ = inner.events_tx.send(TransportEvent::HandshakeFenced {
                                peer: 0,
                                epoch: inner.epoch,
                            });
                            return;
                        }
                        Err(_) => {
                            sup.on_failure(now_ms(started));
                            inner.health.store(HEALTH_DOWN, Ordering::Release);
                        }
                    }
                } else {
                    std::thread::sleep(Duration::from_millis(2));
                }
                continue;
            }
        }

        // connected: drain the outbox and write a batch
        if !out.fill(&inner.outbox_rx) {
            continue;
        }
        let s = stream.as_mut().expect("stream present when connected");
        if out.write(s, inner.cfg.write_timeout_ms).is_err() {
            s.shutdown_both();
            stream = None;
            inner.health.store(HEALTH_DOWN, Ordering::Release);
            sup.on_failure(now_ms(started));
            let _ = inner
                .events_tx
                .send(TransportEvent::Disconnected { peer: 0 });
            // the batch is retained and flushed after the reconnect
        }
    }
    if let Some(s) = &stream {
        s.shutdown_both();
    }
}

/// Reads the coordinator's frames for session `generation`; on EOF/error
/// records the dead generation for the supervisor to notice.
fn peer_reader_loop(inner: &Arc<PeerShared>, generation: u64, mut stream: Stream) {
    let died = read_session(&mut stream, &inner.closed, |msg| {
        let _ = inner.events_tx.send(TransportEvent::Delivery {
            from: 0,
            epoch: 0,
            msg,
        });
    });
    if died {
        inner.dead_gen.fetch_max(generation, Ordering::AcqRel);
    }
}
