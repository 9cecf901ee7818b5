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
//! # Who reads
//!
//! A session is read in **turns** — one `read_chunk`, then every frame it
//! completed handed to the sink in stream order — by whoever holds its read
//! half, one thread at a time, so frames keep stream order and none is
//! delivered twice. **A caller waiting for a reply reads it**
//! (`SocketServer::send_and_await`), asleep on the link's `turned` condvar
//! while another thread holds the half; a turn that ends with callers
//! parked wakes them, as do a new session and `shutdown` (which answers
//! [`TransportError::Closed`]). **Each session's reader thread** reads only
//! while no call has been awaited on its link within the last `POLL`, so
//! under load the callers read, and an idle link — a peer's always — still
//! delivers heartbeats and EOF at once. A turn ending on a replaced session
//! drops that session's half; one that hits EOF or a corrupt stream downs
//! its session, emitting `Disconnected` once.
//!
//! # Who dispatches
//!
//! Every [`TransportEvent`] leaves the transport through the endpoint's
//! `Sink`. [`SocketServer::bind`] / [`SocketPeer::connect`] install the
//! bounded event queue behind [`Transport::recv_timeout`]; the crate's
//! `SocketServer::bind_with_sink` / `SocketPeer::connect_with_sink` (the
//! multi-process runtime's) take the caller's, which then runs **on
//! whichever thread produced the event**: whoever took the read turn (every
//! `Delivery`, and `Disconnected` at EOF), the acceptor or the dial
//! supervisor (`Connected`, `Reconnected`, `HandshakeFenced`), and any
//! thread inside `send` whose write failed (`Disconnected`). No transport lock is held
//! while a sink runs, so it may `send` — a reply goes out inline. It may
//! not wait for another frame from the same link (it holds that link's
//! read turn, so nobody else could deliver it — `send_and_await` included),
//! may not call `shutdown` (which joins the readers), and should not block:
//! while it runs, nothing is read from its session, and the other end's
//! senders stall in their writes.

use super::backoff::{Backoff, BackoffConfig};
use super::frame::{encode_frame, encode_frame_parts, FrameConfig, FrameDecoder, HEADER_LEN};
use super::netio::{
    connect_deadline, retryable, write_all_deadline, Listener, Stream, TransportAddr,
};
use super::{Transport, TransportError, TransportEvent};
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

/// Longest a transport thread sleeps without re-checking for shutdown, and
/// how long a session's reader stands aside after a caller awaited a reply
/// on its link.
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
pub(crate) type Sink<E> = Box<dyn Fn(&E, TransportEvent<Bytes>) + Send + Sync>;

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
    /// those who sleep on `changed` or `turned`.
    closed: bool,
    /// Who reads the live session (the module docs' "Who reads").
    reads: Reads,
}

/// A link's read side, under [`Link::out`] with the session it reads.
#[derive(Default)]
struct Reads {
    /// The live session's read half; `None` while the link is down and
    /// while a turn holds it — **one thread at a time**, so frames keep
    /// stream order and none is delivered twice.
    half: Option<ReadHalf>,
    /// Callers asleep on `Link::turned`.
    parked: usize,
    /// When a caller last awaited a reply on this link; the session's
    /// reader thread stands aside for `POLL` after it.
    awaited: Option<Instant>,
}

/// One session's read half: the stream, the decoder holding any frame not
/// yet whole, the chunk buffer, and what the session's deliveries carry.
struct ReadHalf {
    stream: Stream,
    dec: FrameDecoder,
    buf: Vec<u8>,
    /// The `from` and `epoch` of every `Delivery`, and the `peer` of the
    /// `Disconnected` at its end.
    from: u32,
    epoch: u64,
}

impl ReadHalf {
    /// `dec` is the handshake's decoder: whatever arrived behind the Hello
    /// or the HelloAck is this session's first frames.
    fn new(stream: Stream, dec: FrameDecoder, from: u32, epoch: u64) -> ReadHalf {
        // a turn blocks at most `POLL`, so a reader notices a replaced or
        // closed session, and a caller its deadline, within `POLL`
        let _ = stream.set_read_timeout(Some(POLL));
        ReadHalf {
            stream,
            dec,
            // once per session, and too large for the stack
            buf: vec![0u8; 64 * 1024],
            from,
            epoch,
        }
    }

    /// One read turn: one `read_chunk` (bounded by `POLL`), then every frame
    /// completed so far handed to `emit` in stream order, a `Data` payload as
    /// a `Delivery` viewing its own frame. `true` when the session died: EOF,
    /// an I/O error or a corrupt stream.
    fn turn(&mut self, emit: &impl Fn(TransportEvent<Bytes>)) -> bool {
        match self.stream.read_chunk(&mut self.buf) {
            Ok(0) => return true,
            Ok(n) => self.dec.extend(&self.buf[..n]),
            Err(e) if retryable(&e) => {}
            Err(_) => return true,
        }
        loop {
            match self.dec.next_frame() {
                Ok(Some(frame)) => {
                    if let Ok(SessionFrame::Data(msg)) = decode_session(&frame) {
                        let (from, epoch) = (self.from, self.epoch);
                        emit(TransportEvent::Delivery { from, epoch, msg });
                    }
                }
                Ok(None) => return false,
                Err(_) => return true,
            }
        }
    }
}

struct Link {
    out: std::sync::Mutex<Out>,
    /// Notified on every session transition (installed, down, fenced), on
    /// close, and when a finished write makes room in a full queue: what a
    /// blocked sender, the dial supervisor, `wait_connected` and a reader
    /// standing aside sleep on.
    changed: Condvar,
    /// Notified when a turn ends with callers parked, when a session is
    /// installed and on close: what a caller whose link is being read by
    /// someone else, or is down, sleeps on.
    turned: Condvar,
}

impl Link {
    fn new(epoch: Option<u64>) -> Link {
        Link {
            out: std::sync::Mutex::new(Out {
                epoch,
                ..Out::default()
            }),
            changed: Condvar::new(),
            turned: Condvar::new(),
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

    /// Publishes `stream` and `half` as the write and read halves of a new
    /// session (replacing, and so killing, any live one), lets
    /// `started(generation, first)` start its reader and announce it, then
    /// writes out what was queued while the link was down — first and in
    /// order, since later sends queue behind it. `true` when that write
    /// already failed and downed the new session.
    fn install(
        &self,
        stream: Stream,
        half: ReadHalf,
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
                // a turn on its read half sees EOF and drops the half
                old.shutdown_both();
            }
            out.generation += 1;
            out.epoch = Some(epoch);
            out.reads.half = Some(half);
            self.changed.notify_all();
            self.turned.notify_all();
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

    /// Marks session `generation` dead if it is still the live one — a turn
    /// saw EOF, or a writer a failed write. `true` when it was: the caller
    /// owes its sink a `Disconnected`.
    fn down_locked(&self, out: &mut Out, generation: u64) -> bool {
        if out.generation != generation {
            return false;
        }
        let Some(stream) = out.session.take() else {
            return false;
        };
        stream.shutdown_both();
        out.reads.half = None;
        self.changed.notify_all();
        true
    }

    /// One read turn on the live session, for whichever thread took its
    /// read `half` out of `out`: reads and delivers with the lock released,
    /// then puts the half back — or drops it, if the session died or was
    /// replaced meanwhile — wakes any callers parked for the turn, and
    /// emits `Disconnected` if the turn downed the live session.
    fn turn<'a>(
        &'a self,
        out: MutexGuard<'a, Out>,
        mut half: ReadHalf,
        emit: &impl Fn(TransportEvent<Bytes>),
    ) -> MutexGuard<'a, Out> {
        let generation = out.generation;
        drop(out);
        let died = half.turn(emit);
        let peer = half.from;
        let mut out = self.lock();
        // under the generation check, so EOF downs only its own session and
        // `Disconnected` is emitted once
        let downed = died && self.down_locked(&mut out, generation);
        if !died && out.generation == generation && out.session.is_some() {
            out.reads.half = Some(half);
        }
        let wake = out.reads.parked > 0;
        if wake || downed {
            // parked callers wake with the lock free, so they do not wake
            // only to block on it
            drop(out);
            if wake {
                self.turned.notify_all();
            }
            if downed {
                emit(TransportEvent::Disconnected { peer });
            }
            out = self.lock();
        }
        out
    }

    fn fence(&self) {
        self.lock().fenced = true;
        self.changed.notify_all();
    }

    fn close(&self) {
        let mut out = self.lock();
        out.closed = true;
        if let Some(stream) = out.session.take() {
            stream.shutdown_both(); // unblocks a turn and any writer
        }
        out.reads.half = None;
        self.changed.notify_all();
        self.turned.notify_all();
    }
}

/// A session's reader thread, at either end: takes turns on `link` while
/// no caller has awaited a reply on it within the last `POLL`, stands aside
/// (asleep on `changed`) otherwise, and returns once session `generation`
/// is replaced, down or closed.
fn reader_loop(link: &Link, generation: u64, emit: impl Fn(TransportEvent<Bytes>)) {
    let mut out = link.lock();
    while !out.closed && out.generation == generation && out.session.is_some() {
        let aside = out.reads.awaited.map_or(Duration::ZERO, |at| {
            (at + POLL).saturating_duration_since(Instant::now())
        });
        out = match out.reads.half.take_if(|_| aside.is_zero()) {
            Some(half) => link.turn(out, half, &emit),
            None => link.wait_timeout(out, if aside.is_zero() { POLL } else { aside }),
        };
    }
}

/// Reads framed bytes off `stream` until one whole frame decodes, bounded
/// by `deadline`. Used for the synchronous handshake exchange; steady-state
/// reads are turns.
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
    /// Propagates bind failures and a refused acceptor thread.
    pub(crate) fn bind_with_sink(
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
            .spawn(move || accept_loop(&acceptor, &listener))?;
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

    /// Sends `msg` to `to`, then waits until `answered()` or `deadline`,
    /// reading the link itself: a read turn whenever nobody else holds the
    /// session, asleep on `turned` while someone does or the link is down.
    /// Whatever a turn reads goes to the sink as the reader thread would
    /// deliver it, so the reply lands wherever the sink puts it, and
    /// `answered` looks there. A sink must not call this (module docs).
    ///
    /// # Errors
    /// What [`Transport::send`] returns; [`TransportError::Timeout`] at
    /// `deadline`; [`TransportError::Closed`] once the server shuts down.
    pub(crate) fn send_and_await(
        &self,
        to: u32,
        msg: Bytes,
        deadline: Instant,
        answered: impl Fn() -> bool,
    ) -> Result<(), TransportError> {
        let start = Instant::now();
        self.send(to, msg)?;
        let link = &self.inner.links[to as usize]; // `send` checked `to`
        let emit = |ev| self.emit(ev);
        let mut out = link.lock();
        loop {
            // under the lock that every turn ends in: a reply delivered by
            // a turn that has not ended yet is seen after its notify
            if answered() {
                return Ok(());
            }
            if out.closed {
                return Err(TransportError::Closed);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout {
                    waited_ms: ms(now - start),
                });
            }
            out.reads.awaited = Some(now);
            if let Some(half) = out.reads.half.take() {
                out = link.turn(out, half, &emit);
            } else {
                out.reads.parked += 1;
                out = link
                    .turned
                    .wait_timeout(out, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                out.reads.parked -= 1;
            }
        }
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
    let half = ReadHalf::new(read_half, dec, node, epoch);
    let downed = link.install(stream, half, epoch, &inner.cfg, |generation, first| {
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
            .spawn(move || {
                let link = &reader.inner.links[node as usize];
                reader_loop(link, generation, |ev| reader.emit(ev));
            })
            .expect("spawn reader thread");
        inner.threads.lock().push(handle);
    });
    if downed {
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
    pub(crate) fn connect_with_sink(
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

    fn shutdown(&self) {
        self.inner.closed.store(true, Ordering::Release);
        self.inner.link.close();
        join_all(&self.inner.threads);
    }
}

/// Dials once under the config's deadlines, presenting `attempt` in the
/// Hello (1 = first try of this outage). `Ok(Some((stream, read_half)))` =
/// session up, `Ok(None)` = fenced (terminal), `Err` = retry later.
fn peer_dial_attempt(inner: &PeerShared, attempt: u32) -> io::Result<Option<(Stream, ReadHalf)>> {
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
            // the server's `Delivery` epoch is not known here: 0
            let half = ReadHalf::new(stream.try_clone()?, dec, 0, 0);
            Ok(Some((stream, half)))
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
            Ok(Some((stream, half))) => {
                // the outage is over: `dials` says how many it took
                let (epoch, dials) = (inner.epoch, attempt);
                backoff.reset();
                retry_at_ms = None;
                attempt = 0;
                let started = |generation, first| {
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
                        .spawn(move || {
                            reader_loop(&reader.inner.link, generation, |ev| reader.emit(ev));
                        })
                        .expect("spawn peer reader");
                    inner.threads.lock().push(handle);
                };
                let downed = inner.link.install(stream, half, epoch, &inner.cfg, started);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

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

    /// A frame the server writes right behind its HelloAck arrives in the
    /// dialing end's handshake read; it is the session's first frame, not
    /// lost with the handshake's decoder.
    #[test]
    fn a_frame_behind_the_hello_ack_is_delivered() {
        let (dir, addr) = unix_addr("behind");
        let listener = Listener::bind(&addr).unwrap();
        let peer = SocketPeer::connect(addr, 0, 1, SocketConfig::default());
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut stream = listener.accept_deadline(deadline).unwrap();
        let mut dec = FrameDecoder::new(FrameConfig::default());
        read_frame_deadline(&mut stream, &mut dec, deadline).unwrap();
        let mut wire = Vec::new();
        let accepted = true;
        write_session(&SessionFrame::HelloAck { accepted, floor: 0 }, &mut wire);
        write_session(&SessionFrame::Data(tagged(7, 7, 64)), &mut wire);
        write_all_deadline(&stream, &wire, deadline).unwrap();
        let msg = loop {
            match peer.recv_timeout(0, Duration::from_secs(5)) {
                Ok(TransportEvent::Delivery { msg, .. }) => break msg,
                Ok(_) => {}
                Err(e) => panic!("the frame behind the ack never came: {e}"),
            }
        };
        assert_eq!(tag_of(&msg), (7, 7));
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
            if server.inner.links[0].lock().session.is_none() {
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

    // -----------------------------------------------------------------------
    // the read turn: callers in `send_and_await` read their own replies

    /// Spins until `ready`; a hang is a failure, not a wait.
    fn until(what: &str, ready: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready() {
            assert!(Instant::now() < deadline, "never: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// What a recording sink saw: each delivery's tag and the thread that
    /// delivered it, and how many `Disconnected`s.
    #[derive(Default)]
    struct Seen {
        deliveries: Mutex<Vec<((u32, u32), std::thread::ThreadId)>>,
        disconnects: AtomicU32,
    }

    impl Seen {
        fn has(&self, tag: (u32, u32)) -> bool {
            self.deliveries.lock().iter().any(|(t, _)| *t == tag)
        }

        fn disconnects(&self) -> u32 {
            self.disconnects.load(Ordering::SeqCst)
        }
    }

    /// A server on `addr` whose sink records into the returned `Seen`.
    fn recording_server(addr: &TransportAddr) -> (SocketServer, Arc<Seen>) {
        let seen = Arc::new(Seen::default());
        let record = Arc::clone(&seen);
        let sink: Sink<SocketServer> = Box::new(move |_, ev| match ev {
            TransportEvent::Delivery { msg, .. } => {
                let by = std::thread::current().id();
                record.deliveries.lock().push((tag_of(&msg), by));
            }
            TransportEvent::Disconnected { .. } => {
                record.disconnects.fetch_add(1, Ordering::SeqCst);
            }
            _ => {}
        });
        let server = SocketServer::bind_with_sink(addr, 1, SocketConfig::default(), sink).unwrap();
        (server, seen)
    }

    /// A raw session to `server`, once the server has installed its half.
    fn raw_session_up(server: &SocketServer, attempt: u32) -> (Stream, FrameDecoder) {
        let generation = server.inner.links[0].lock().generation;
        let session = raw_session(server.addr(), attempt);
        until("the server installs the session", || {
            server.inner.links[0].lock().generation > generation
        });
        session
    }

    fn write_data_frames(stream: &Stream, tags: &[(u32, u32)]) {
        let mut wire = Vec::new();
        for &(a, b) in tags {
            write_session(&SessionFrame::Data(tagged(a, b, 64)), &mut wire);
        }
        write_all_deadline(stream, &wire, Instant::now() + Duration::from_secs(5)).unwrap();
    }

    /// Eight callers share one link to an echo peer: each gets its own
    /// replies, in order, none twice, none lost to a timeout — whoever of
    /// them (or the reader thread) happened to read it.
    #[test]
    fn callers_sharing_a_link_each_get_their_own_reply_once() {
        const THREADS: u32 = 8;
        const CALLS: u32 = 5_000;
        let (dir, addr) = unix_addr("await");
        // per caller, the index of the next reply it expects
        let next: Arc<Vec<AtomicU32>> = Arc::new((0..THREADS).map(|_| AtomicU32::new(0)).collect());
        let strays = Arc::new(AtomicU32::new(0));
        let (expect, stray) = (Arc::clone(&next), Arc::clone(&strays));
        let sink: Sink<SocketServer> = Box::new(move |_, ev| {
            if let TransportEvent::Delivery { msg, .. } = ev {
                let (thread, index) = tag_of(&msg);
                let slot = &expect[thread as usize];
                if slot
                    .compare_exchange(index, index + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_err()
                {
                    stray.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
        let server = SocketServer::bind_with_sink(&addr, 1, SocketConfig::default(), sink).unwrap();
        let echo: Sink<SocketPeer> = Box::new(|peer, ev| {
            if let TransportEvent::Delivery { msg, .. } = ev {
                let _ = peer.send(0, msg);
            }
        });
        let peer = SocketPeer::connect_with_sink(
            server.addr().clone(),
            0,
            1,
            SocketConfig::default(),
            echo,
        );
        until("the link is up", || {
            server.inner.links[0].lock().session.is_some()
        });

        let timeouts: u32 = std::thread::scope(|s| {
            let callers: Vec<_> = (0..THREADS)
                .map(|thread| {
                    let (server, next) = (&server, &next);
                    s.spawn(move || {
                        let mut timeouts = 0;
                        for index in 0..CALLS {
                            let deadline = Instant::now() + Duration::from_secs(10);
                            let answered = || next[thread as usize].load(Ordering::SeqCst) > index;
                            let msg = tagged(thread, index, 64);
                            match server.send_and_await(0, msg, deadline, answered) {
                                Ok(()) => {}
                                Err(TransportError::Timeout { .. }) => timeouts += 1,
                                Err(e) => panic!("caller {thread}, call {index}: {e}"),
                            }
                        }
                        timeouts
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).sum()
        });
        assert_eq!(timeouts, 0);
        assert_eq!(
            strays.load(Ordering::SeqCst),
            0,
            "a reply twice or out of order"
        );
        for (thread, next) in next.iter().enumerate() {
            assert_eq!(next.load(Ordering::SeqCst), CALLS, "caller {thread}");
        }
        assert_eq!(server.inner.links[0].lock().reads.parked, 0);
        peer.shutdown();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Frames nobody asked for (a heartbeat) that arrive around a reply
    /// reach the sink in stream order when the caller reads them, as they
    /// would from the reader thread. The caller runs at least `ROUNDS`
    /// rounds, and on until it has read a frame itself, within one 10 s
    /// deadline.
    #[test]
    fn a_caller_delivers_unsolicited_frames_in_stream_order() {
        const ROUNDS: u32 = 20;
        let (dir, addr) = unix_addr("order");
        let (server, seen) = recording_server(&addr);
        let (mut raw, mut dec) = raw_session_up(&server, 1);
        let deadline = Instant::now() + Duration::from_secs(10);
        // after each round the caller says whether another follows
        let (more, next) = std::sync::mpsc::channel();
        let (caller, rounds) = std::thread::scope(|s| {
            let caller = s.spawn(|| {
                let me = std::thread::current().id();
                let mut round = 0;
                loop {
                    let answered = || seen.has((1, round));
                    server
                        .send_and_await(0, tagged(0, round, 64), deadline, answered)
                        .unwrap();
                    round += 1;
                    let read = seen.deliveries.lock().iter().any(|(_, by)| *by == me);
                    let again = round < ROUNDS || (!read && Instant::now() < deadline);
                    more.send(again).unwrap();
                    if !again {
                        return (me, round);
                    }
                }
            });
            // each request is answered by a heartbeat, the reply and
            // another heartbeat, in one write
            let mut round = 0;
            loop {
                read_frame_deadline(&mut raw, &mut dec, deadline).unwrap();
                write_data_frames(&raw, &[(2, round), (1, round), (3, round)]);
                round += 1;
                if !next.recv_timeout(Duration::from_secs(10)).unwrap() {
                    break;
                }
            }
            caller.join().unwrap()
        });
        let deliveries = seen.deliveries.lock();
        let tags: Vec<(u32, u32)> = deliveries.iter().map(|(tag, _)| *tag).collect();
        let expected: Vec<(u32, u32)> =
            (0..rounds).flat_map(|r| [(2, r), (1, r), (3, r)]).collect();
        // the last heartbeat may still be on its way when the caller returns
        assert_eq!(tags[..], expected[..tags.len()]);
        assert!(tags.len() >= expected.len() - 1);
        // the reader thread stood aside after the first await: callers read
        assert!(
            deliveries.iter().any(|(_, by)| *by == caller),
            "no frame was read by the caller"
        );
        drop(deliveries);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The link dies halfway through a frame while a caller waits: the
    /// session goes down with exactly one `Disconnected`, and the caller,
    /// whose reply will never come, gives up at its deadline.
    #[test]
    fn a_link_dying_mid_turn_disconnects_once_and_the_caller_keeps_its_deadline() {
        let (dir, addr) = unix_addr("dies");
        let (server, seen) = recording_server(&addr);
        let (mut raw, mut dec) = raw_session_up(&server, 1);
        let wait = Duration::from_millis(500);
        std::thread::scope(|s| {
            let caller = s.spawn(|| {
                let start = Instant::now();
                let r = server.send_and_await(0, tagged(0, 0, 64), start + wait, || false);
                (r, start.elapsed())
            });
            read_frame_deadline(&mut raw, &mut dec, Instant::now() + Duration::from_secs(5))
                .unwrap();
            let mut wire = Vec::new();
            write_session(&SessionFrame::Data(tagged(1, 0, 64)), &mut wire);
            let deadline = Instant::now() + Duration::from_secs(5);
            write_all_deadline(&raw, &wire[..wire.len() / 2], deadline).unwrap();
            drop(raw);
            let (r, took) = caller.join().unwrap();
            assert!(
                matches!(
                    r,
                    Err(TransportError::Timeout { .. } | TransportError::Closed)
                ),
                "{r:?}"
            );
            // one turn's `POLL` past the deadline, and a loaded machine's
            // scheduling on top
            assert!(took < wait + Duration::from_secs(1), "{took:?}");
        });
        until("the session is down", || {
            server.inner.links[0].lock().session.is_none()
        });
        std::thread::sleep(2 * POLL);
        assert_eq!(seen.disconnects(), 1);
        assert!(!seen.has((1, 0)), "half a frame was delivered");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A caller reading a session that is replaced under it goes on to read
    /// the new one: the old half is dropped, the new one stays readable,
    /// and replacing is not disconnecting.
    #[test]
    fn a_replaced_sessions_turn_leaves_the_new_session_readable() {
        let (dir, addr) = unix_addr("replace");
        let (server, seen) = recording_server(&addr);
        let (mut old, mut dec) = raw_session_up(&server, 1);
        std::thread::scope(|s| {
            let caller = s.spawn(|| {
                let deadline = Instant::now() + Duration::from_secs(10);
                server.send_and_await(0, tagged(0, 0, 64), deadline, || seen.has((1, 0)))
            });
            // the request is out: the caller is past its send and awaiting
            read_frame_deadline(&mut old, &mut dec, Instant::now() + Duration::from_secs(5))
                .unwrap();
            let (new, _) = raw_session_up(&server, 2);
            write_data_frames(&new, &[(1, 0)]);
            assert_eq!(caller.join().unwrap(), Ok(()));
            let out = server.inner.links[0].lock();
            assert!(out.session.is_some() && out.reads.parked == 0);
        });
        assert_eq!(seen.disconnects(), 0);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `shutdown` answers every waiting caller `Closed` at once — the one
    /// reading and the ones parked behind it — rather than at its deadline.
    #[test]
    fn shutdown_answers_waiting_callers_closed() {
        let (dir, addr) = unix_addr("shut");
        let (server, _seen) = recording_server(&addr);
        let _silent = raw_session_up(&server, 1);
        let results = std::thread::scope(|s| {
            let callers: Vec<_> = (0..3)
                .map(|i| {
                    let server = &server;
                    s.spawn(move || {
                        let start = Instant::now();
                        let deadline = start + Duration::from_secs(30);
                        let r = server.send_and_await(0, tagged(0, i, 64), deadline, || false);
                        (r, start.elapsed())
                    })
                })
                .collect();
            until("two callers park behind a turn", || {
                let out = server.inner.links[0].lock();
                out.reads.parked >= 2 && out.reads.half.is_none()
            });
            server.shutdown();
            callers
                .into_iter()
                .map(|c| c.join().unwrap())
                .collect::<Vec<_>>()
        });
        for (r, took) in results {
            assert_eq!(r, Err(TransportError::Closed));
            assert!(took < Duration::from_secs(5), "{took:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
