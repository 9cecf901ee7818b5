//! The multi-process runtime: real OS processes over the socket transport.
//!
//! The in-process [`crate::Cluster`] shares its directory, policy tables
//! and checkpoint stores through one address space; across processes that
//! shared state needs an owner. This module uses a **coordinator/worker**
//! split: the coordinator process owns the directory, the incarnation
//! table, the failure detector and the checkpoint cache, and workers are
//! plain object hosts — they install, invoke, surrender, heartbeat. Every
//! protocol message relays through the coordinator's [`SocketServer`], so
//! the transport's star topology is also the protocol's.
//!
//! The recovery machinery deliberately mirrors the in-process runtime,
//! mechanism for mechanism, so `repro availability --multiprocess` is the
//! same experiment with real SIGKILL instead of simulated crashes:
//!
//! * heartbeats + k-missed suspicion + declare-dead (PR 4's detector),
//! * incarnation epochs, bumped on respawn/declare-dead and **fenced at
//!   the socket accept** ([`SocketServer::fence_below`]) — a zombie's
//!   reconnect is refused before one frame is read,
//! * per-object epochs on installs, so a stale install is refused by the
//!   worker exactly like `NodeWorker::handle_install` refuses one,
//! * coordinator-cached checkpoints (seeded at create, refreshed by every
//!   invoke reply's piggybacked state) from which objects stranded on a
//!   dead worker are reinstantiated at a live one.
//!
//! Client calls fail the same way, too: transport death surfaces as
//! [`RuntimeError::NodeDown`], expired waits as
//! [`RuntimeError::Timeout`] — the error surface the availability
//! experiment already measures.
//!
//! # Threads
//!
//! Neither process has a thread whose job is to pass messages on. A client
//! thread in [`MultiProcCluster`] encodes its request and writes it to the
//! worker's socket itself (the transport's sender-writes rule, see
//! [`super::socket`]), then reads the worker's link until its reply is in
//! (the transport's caller-reads rule). The worker's reader thread decodes
//! the request, applies it to the object table, and writes the reply from
//! where it stands ([`run_worker`]). Back at the coordinator the reply is
//! decoded by whichever thread holds the link's read turn — the caller
//! itself, or a caller sharing the link, who then wakes it — and put in the
//! caller's reply slot by `CoordCore::on_event`, the server's sink. One
//! invoke wakes two threads: worker reader and caller. The coordinator's
//! reader thread per worker reads only while no call is in flight on its
//! link (heartbeats of an idle worker, EOF); beside those the coordinator
//! runs the acceptor and the detector's monitor, and a worker runs its dial
//! supervisor and its main thread, which keeps the heartbeat timer. What a
//! handler may and may not do is written down on `CoordShared`.

use super::netio::TransportAddr;
use super::socket::{SocketConfig, SocketPeer, SocketServer};
use super::{Transport, TransportError, TransportEvent};
use crate::error::RuntimeError;
use crate::object::{Delinearizer, MobileObject};
use crate::recovery::NodeHealth;
use crate::store::{
    cold_recovered, put_traced, trace_synced, CheckpointStore, FsyncPolicy, MemStore,
    RecoveryReport, StoreError, StoredCheckpoint, WalStore, WalStoreConfig,
};
use crate::trace::TraceCollector;
use crate::wire::{WireReader, WireWriter};
use bytes::Bytes;
use crossbeam::channel::{bounded, Sender};
use oml_check::event::{EventKind, TraceEvent, CLIENT_PROCESS};
use oml_core::ids::{NodeId, ObjectId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// protocol messages

const TAG_INSTALL: u32 = 10;
const TAG_ACK: u32 = 11;
const TAG_INVOKE: u32 = 12;
const TAG_INVOKE_RESP: u32 = 13;
const TAG_SURRENDER: u32 = 14;
const TAG_SURRENDER_RESP: u32 = 15;
const TAG_HEARTBEAT: u32 = 16;
const TAG_SHUTDOWN: u32 = 17;

/// Spawn plumbing beside `OML_MP_ADDR` and friends: the pid of the
/// coordinator that spawned this worker, which the worker compares its
/// parent pid against ([`WorkerExit::Orphaned`]). The worker program must
/// therefore be the spawned process itself (or `exec` into it), not a
/// child of a wrapper.
const PARENT_ENV: &str = "OML_MP_PARENT";

/// One coordinator↔worker protocol message, linearized with
/// [`crate::wire`]. The byte fields of a decoded message are views of the
/// frame it arrived in; encoding copies them once, into a buffer sized up
/// front. An object travels as the crate's one checkpoint record, a
/// [`StoredCheckpoint`] — `(type_tag, state, object_epoch)` on the wire;
/// `seq` is unused in transit (as in `message::Shipped`) and stamped by
/// `CoordShared::put_checkpoint`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ProtoMsg {
    /// Install (or create) an object under `ckpt.object_epoch`; refuse if
    /// stale.
    Install {
        corr: u64,
        object: u32,
        ckpt: StoredCheckpoint,
    },
    /// Generic ok/err reply to `corr`.
    Ack { corr: u64, ok: bool, err: String },
    /// Invoke a method on a hosted object.
    Invoke {
        corr: u64,
        object: u32,
        method: String,
        payload: Bytes,
    },
    /// Invoke reply, piggybacking the object's fresh linearized state so
    /// the coordinator's checkpoint cache stays one call behind at most.
    InvokeResp {
        corr: u64,
        result: Result<Bytes, String>,
        ckpt: StoredCheckpoint,
    },
    /// Give up an object (first half of a migration).
    Surrender { corr: u64, object: u32 },
    /// Surrender reply carrying the linearized state to re-install.
    SurrenderResp {
        corr: u64,
        ok: bool,
        err: String,
        ckpt: StoredCheckpoint,
    },
    /// Worker liveness beat (node identity comes from the session).
    Heartbeat,
    /// Orderly worker exit.
    Shutdown,
}

impl ProtoMsg {
    pub(crate) fn encode(&self) -> Bytes {
        match self {
            ProtoMsg::Install { corr, object, ckpt } => {
                WireWriter::with_capacity(16 + ckpt.wire_len())
                    .u32(TAG_INSTALL)
                    .u64(*corr)
                    .u32(*object)
                    .checkpoint(ckpt)
                    .finish()
            }
            ProtoMsg::Ack { corr, ok, err } => WireWriter::new()
                .u32(TAG_ACK)
                .u64(*corr)
                .u32(u32::from(*ok))
                .str(err)
                .finish(),
            ProtoMsg::Invoke {
                corr,
                object,
                method,
                payload,
            } => WireWriter::with_capacity(24 + method.len() + payload.len())
                .u32(TAG_INVOKE)
                .u64(*corr)
                .u32(*object)
                .str(method)
                .bytes(payload)
                .finish(),
            ProtoMsg::InvokeResp { corr, result, ckpt } => {
                let (ok, data, err): (u32, &[u8], &str) = match result {
                    Ok(d) => (1, d, ""),
                    Err(e) => (0, &[], e),
                };
                WireWriter::with_capacity(24 + data.len() + err.len() + ckpt.wire_len())
                    .u32(TAG_INVOKE_RESP)
                    .u64(*corr)
                    .u32(ok)
                    .bytes(data)
                    .str(err)
                    .checkpoint(ckpt)
                    .finish()
            }
            ProtoMsg::Surrender { corr, object } => WireWriter::new()
                .u32(TAG_SURRENDER)
                .u64(*corr)
                .u32(*object)
                .finish(),
            ProtoMsg::SurrenderResp {
                corr,
                ok,
                err,
                ckpt,
            } => WireWriter::with_capacity(20 + err.len() + ckpt.wire_len())
                .u32(TAG_SURRENDER_RESP)
                .u64(*corr)
                .u32(u32::from(*ok))
                .str(err)
                .checkpoint(ckpt)
                .finish(),
            ProtoMsg::Heartbeat => WireWriter::new().u32(TAG_HEARTBEAT).finish(),
            ProtoMsg::Shutdown => WireWriter::new().u32(TAG_SHUTDOWN).finish(),
        }
    }

    pub(crate) fn decode(buf: &Bytes) -> Result<ProtoMsg, String> {
        let mut r = WireReader::new(buf);
        match r.u32()? {
            TAG_INSTALL => Ok(ProtoMsg::Install {
                corr: r.u64()?,
                object: r.u32()?,
                ckpt: r.checkpoint(buf)?,
            }),
            TAG_ACK => Ok(ProtoMsg::Ack {
                corr: r.u64()?,
                ok: r.u32()? != 0,
                err: r.str()?,
            }),
            TAG_INVOKE => Ok(ProtoMsg::Invoke {
                corr: r.u64()?,
                object: r.u32()?,
                method: r.str()?,
                payload: buf.slice_ref(r.bytes_ref()?),
            }),
            TAG_INVOKE_RESP => {
                let corr = r.u64()?;
                let ok = r.u32()? != 0;
                let data = buf.slice_ref(r.bytes_ref()?);
                let err = r.str()?;
                Ok(ProtoMsg::InvokeResp {
                    corr,
                    result: if ok { Ok(data) } else { Err(err) },
                    ckpt: r.checkpoint(buf)?,
                })
            }
            TAG_SURRENDER => Ok(ProtoMsg::Surrender {
                corr: r.u64()?,
                object: r.u32()?,
            }),
            TAG_SURRENDER_RESP => Ok(ProtoMsg::SurrenderResp {
                corr: r.u64()?,
                ok: r.u32()? != 0,
                err: r.str()?,
                ckpt: r.checkpoint(buf)?,
            }),
            TAG_HEARTBEAT => Ok(ProtoMsg::Heartbeat),
            TAG_SHUTDOWN => Ok(ProtoMsg::Shutdown),
            other => Err(format!("unknown protocol tag {other}")),
        }
    }
}

// ---------------------------------------------------------------------------
// coordinator

/// Configuration for [`MultiProcCluster::spawn`].
#[derive(Debug, Clone)]
pub struct MultiProcConfig {
    /// Worker process count (node ids `0..workers`).
    pub workers: u32,
    /// Where the coordinator listens (`Tcp("127.0.0.1:0")` or a Unix
    /// socket path in a fresh temp dir).
    pub addr: TransportAddr,
    /// Per-call reply deadline, ms.
    pub call_timeout_ms: u64,
    /// Worker heartbeat period, ms.
    pub heartbeat_ms: u64,
    /// Missed beats before suspicion.
    pub suspect_after: u32,
    /// Missed beats before declare-dead.
    pub dead_after: u32,
    /// Socket transport tuning for the coordinator's server. It does not
    /// reach the workers: each builds its peer from
    /// [`SocketConfig::default`] ([`WorkerOptions::from_env`]), and the
    /// server never dials, so [`SocketConfig::backoff`] has no reader here.
    pub socket: SocketConfig,
    /// The worker executable (usually `std::env::current_exe()`).
    pub worker_program: std::path::PathBuf,
    /// Arguments placed before the env-driven worker options.
    pub worker_args: Vec<String>,
    /// Run the background detector thread (tests drive `sweep()` manually
    /// with this off).
    pub monitor: bool,
    /// When set, the coordinator's checkpoint table and incarnation table
    /// live in a [`WalStore`] under `store_dir/coord` instead of plain
    /// memory, so [`MultiProcCluster::recover`] can rebuild the cluster
    /// after the coordinator itself is SIGKILLed.
    pub store_dir: Option<std::path::PathBuf>,
    /// Fsync policy for the durable store (ignored without `store_dir`).
    pub fsync: FsyncPolicy,
}

/// A worker slot at the coordinator.
struct ProcSlot {
    child: Option<Child>,
    incarnation: u64,
    health: NodeHealth,
    last_beat: Instant,
    ever_beat: bool,
}

struct CoordState {
    slots: Vec<ProcSlot>,
    /// object → hosting worker.
    directory: HashMap<u32, u32>,
    /// The checkpoint table: [`MemStore`] by default, [`WalStore`] when
    /// `cfg.store_dir` is set — the fix for the coordinator's table dying
    /// with the coordinator.
    store: Box<dyn CheckpointStore>,
    pending: HashMap<u64, Sender<ProtoMsg>>,
    counters: MultiProcStats,
}

/// What the server's sink shares with the client-facing half: the
/// coordinator's tables and its trace. Deliberately without the server, so
/// [`CoordCore::on_event`] cannot send, let alone call.
struct CoordCore {
    state: Mutex<CoordState>,
    trace: TraceCollector,
}

/// The coordinator's shared half. Two rules keep its threads from waiting
/// on each other, since requests are written by the calling thread and
/// replies are dispatched by whichever thread holds a link's read turn —
/// under load a caller, inside its own `call`:
///
/// * **A handler never makes a [`CoordShared::call`].** A handler runs
///   *inside* a read turn — a caller's `send_and_await` or a reader thread
///   — and the reply to a call to worker *n* can only be delivered by a
///   turn on worker *n*'s link; a call from a handler on that link would
///   wait out `call_timeout_ms` for the turn it is running in. The handler
///   is a method of [`CoordCore`], which has no server to call through.
/// * **`state` is never held across `server.send`.** A send writes to the
///   socket inline and may block for `write_timeout_ms` behind a worker
///   that is itself blocked writing a reply; the turn that would drain that
///   reply needs `state` to complete the call it answers.
struct CoordShared {
    cfg: MultiProcConfig,
    server: SocketServer,
    core: Arc<CoordCore>,
    next_corr: AtomicU64,
    closed: AtomicBool,
}

fn failed(object: u32, message: String) -> RuntimeError {
    RuntimeError::MethodFailed {
        object: ObjectId::new(object),
        message,
    }
}

fn unexpected(object: u32, reply: &ProtoMsg) -> RuntimeError {
    failed(object, format!("unexpected reply {reply:?}"))
}

fn store_failed(object: u32, e: &StoreError) -> RuntimeError {
    failed(object, format!("checkpoint store: {e}"))
}

impl CoordCore {
    fn trace(&self, kind: EventKind) {
        self.trace.emit(CLIENT_PROCESS, kind);
    }

    /// The server's sink, on whichever of its threads has the event: routes
    /// replies to waiting calls, feeds heartbeats to the detector, mirrors
    /// transport events into the trace.
    fn on_event(&self, ev: TransportEvent<Bytes>) {
        match ev {
            TransportEvent::Delivery { from, epoch, msg } => {
                self.trace(EventKind::TransportDelivery { peer: from, epoch });
                let Ok(decoded) = ProtoMsg::decode(&msg) else {
                    return;
                };
                let mut state = self.state.lock();
                state.counters.deliveries += 1;
                // fencing belt-and-braces: the accept-time fence is the
                // contract, but a session accepted before a bump could
                // still drain; drop anything from a stale incarnation
                if epoch < state.slots[from as usize].incarnation {
                    drop(state);
                    self.trace(EventKind::FencedStale { epoch });
                    return;
                }
                // a reply is as good as a heartbeat
                let slot = &mut state.slots[from as usize];
                slot.last_beat = Instant::now();
                slot.ever_beat = true;
                match decoded {
                    ProtoMsg::Heartbeat if slot.health == NodeHealth::Suspected => {
                        slot.health = NodeHealth::Up;
                    }
                    ProtoMsg::Ack { corr, .. }
                    | ProtoMsg::InvokeResp { corr, .. }
                    | ProtoMsg::SurrenderResp { corr, .. } => {
                        let waiter = state.pending.remove(&corr);
                        // wake the caller with `state` released: the first
                        // thing it does is take it
                        drop(state);
                        if let Some(tx) = waiter {
                            let _ = tx.try_send(decoded);
                        }
                    }
                    _ => {}
                }
            }
            TransportEvent::Connected { peer, epoch } => {
                self.trace(EventKind::TransportConnected { peer, epoch });
            }
            TransportEvent::Reconnected {
                peer,
                epoch,
                attempt,
            } => {
                self.state.lock().counters.reconnects += 1;
                self.trace(EventKind::TransportReconnected {
                    peer,
                    epoch,
                    attempt,
                });
            }
            TransportEvent::Disconnected { peer } => {
                self.trace(EventKind::TransportDisconnected { peer });
            }
            TransportEvent::HandshakeFenced { peer, epoch } => {
                self.state.lock().counters.fenced_handshakes += 1;
                self.trace(EventKind::HandshakeFenced { peer, epoch });
            }
        }
    }
}

impl CoordShared {
    /// Writes `object`'s checkpoint under the next per-object `seq`,
    /// mirroring a durable append into the trace; freshness gating is the
    /// caller's job.
    fn put_checkpoint(
        &self,
        state: &mut CoordState,
        object: u32,
        mut ckpt: StoredCheckpoint,
    ) -> Result<(), StoreError> {
        let id = ObjectId::new(object);
        ckpt.seq = state.store.get(id).map_or(1, |c| c.seq + 1);
        put_traced(
            &mut *state.store,
            &self.core.trace,
            CLIENT_PROCESS,
            id,
            ckpt,
        )
    }

    fn corr(&self) -> u64 {
        self.next_corr.fetch_add(1, Ordering::AcqRel)
    }

    /// Sends `msg` to `node` and awaits the correlated reply, reading it off
    /// the worker's link on this thread: whichever turn reads it runs
    /// [`CoordCore::on_event`], which fills the reply slot.
    fn call(&self, node: u32, corr: u64, msg: &ProtoMsg) -> Result<ProtoMsg, RuntimeError> {
        let (tx, rx) = bounded(1);
        self.core.state.lock().pending.insert(corr, tx);
        let waited_ms = self.cfg.call_timeout_ms;
        let deadline = Instant::now() + Duration::from_millis(waited_ms);
        let answered = || !rx.is_empty();
        let reply = match self
            .server
            .send_and_await(node, msg.encode(), deadline, answered)
        {
            Err(TransportError::Timeout { .. }) => Err(RuntimeError::Timeout { waited_ms }),
            Err(e) => Err(map_transport_err(&e, node)),
            Ok(()) => rx
                .try_recv()
                .map_err(|_| RuntimeError::Timeout { waited_ms }),
        };
        if reply.is_err() {
            self.core.state.lock().pending.remove(&corr);
        }
        reply
    }

    /// Installs (or creates) `object` at `node` under `ckpt.object_epoch`
    /// and awaits the worker's ack.
    fn install(&self, node: u32, object: u32, ckpt: StoredCheckpoint) -> Result<(), RuntimeError> {
        let corr = self.corr();
        match self.call(node, corr, &ProtoMsg::Install { corr, object, ckpt })? {
            ProtoMsg::Ack { ok: true, .. } => Ok(()),
            ProtoMsg::Ack { err, .. } => Err(failed(object, err)),
            other => Err(unexpected(object, &other)),
        }
    }

    /// Invokes `method` on `object` at `node`: the method's own result,
    /// and the object's fresh state the reply piggybacks.
    fn invoke(
        &self,
        node: u32,
        object: u32,
        method: &str,
        payload: &[u8],
    ) -> Result<(Result<Bytes, String>, StoredCheckpoint), RuntimeError> {
        let corr = self.corr();
        let msg = ProtoMsg::Invoke {
            corr,
            object,
            method: method.to_owned(),
            payload: Bytes::copy_from_slice(payload),
        };
        match self.call(node, corr, &msg)? {
            ProtoMsg::InvokeResp { result, ckpt, .. } => Ok((result, ckpt)),
            other => Err(unexpected(object, &other)),
        }
    }

    /// Has `node` give `object` up: what it was, as linearized there.
    fn surrender(&self, node: u32, object: u32) -> Result<StoredCheckpoint, RuntimeError> {
        let corr = self.corr();
        match self.call(node, corr, &ProtoMsg::Surrender { corr, object })? {
            ProtoMsg::SurrenderResp { ok: true, ckpt, .. } => Ok(ckpt),
            ProtoMsg::SurrenderResp { err, .. } => Err(failed(object, err)),
            other => Err(unexpected(object, &other)),
        }
    }

    /// Reinstalls `object` from its checkpoint at the first Up worker,
    /// under a bumped object epoch. Used by the sweep (dead host), the
    /// failed install leg of a migration and cold recovery.
    fn reinstall_from_checkpoint(&self, object: u32) -> Option<u32> {
        let (mut ckpt, target) = {
            let state = self.core.state.lock();
            let ckpt = state.store.get(ObjectId::new(object))?.clone();
            let target = state
                .slots
                .iter()
                .position(|s| s.health == NodeHealth::Up)
                .map(|i| i as u32)?;
            (ckpt, target)
        };
        ckpt.object_epoch += 1;
        let next_epoch = ckpt.object_epoch;
        self.install(target, object, ckpt.clone()).ok()?;
        {
            let mut state = self.core.state.lock();
            state.directory.insert(object, target);
            let _ = self.put_checkpoint(&mut state, object, ckpt);
            state.counters.reinstantiated += 1;
        }
        self.core.trace(EventKind::Reinstantiated {
            object: ObjectId::new(object),
            at: NodeId::new(target),
            epoch: next_epoch,
        });
        Some(target)
    }
}

/// Observable recovery counters, mirroring `Cluster::stats()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultiProcStats {
    /// Workers declared dead by the detector.
    pub declared_dead: u64,
    /// Objects reinstantiated from coordinator checkpoints.
    pub reinstantiated: u64,
    /// Zombie handshakes refused at accept time.
    pub fenced_handshakes: u64,
    /// Worker sessions re-established after an outage.
    pub reconnects: u64,
    /// Payload frames delivered to the coordinator.
    pub deliveries: u64,
}

/// The coordinator: spawns worker processes, owns directory + detector +
/// checkpoint cache, exposes a client API shaped like [`crate::Cluster`].
pub struct MultiProcCluster {
    inner: Arc<CoordShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl MultiProcCluster {
    /// Binds the server, spawns `cfg.workers` worker processes (incarnation
    /// 1 each) and waits for their first sessions. With `cfg.store_dir`
    /// set, the checkpoint table is durable from the first create.
    ///
    /// # Errors
    /// Bind, spawn or store-open failures.
    pub fn spawn(cfg: MultiProcConfig) -> io::Result<MultiProcCluster> {
        let (store, _report) = open_store(&cfg)?;
        MultiProcCluster::boot(cfg, store, None, false)
    }

    /// [`spawn`](Self::spawn), collecting the trace that
    /// [`take_trace`](Self::take_trace) drains — opt-in, as
    /// [`crate::ClusterBuilder::trace`] is: a collector holds every event
    /// until someone drains it.
    ///
    /// # Errors
    /// As [`spawn`](Self::spawn).
    pub fn spawn_traced(cfg: MultiProcConfig) -> io::Result<MultiProcCluster> {
        let (store, _report) = open_store(&cfg)?;
        MultiProcCluster::boot(cfg, store, None, true)
    }

    /// Cold-starts a coordinator from the durable store a dead one left
    /// behind: worker incarnations resume **above** their persisted
    /// floors (so pre-crash zombies stay fenced), every checkpoint in the
    /// store is reinstantiated at a live worker under a bumped object
    /// epoch, and a [`EventKind::ColdRecovered`] event records what came
    /// back.
    ///
    /// # Errors
    /// `cfg.store_dir` unset, store-open failures, bind/spawn failures,
    /// or workers not ready within `ready_timeout`.
    pub fn recover(cfg: MultiProcConfig, ready_timeout: Duration) -> io::Result<MultiProcCluster> {
        MultiProcCluster::recover_with(cfg, ready_timeout, false)
    }

    /// [`recover`](Self::recover), collecting the trace
    /// ([`EventKind::ColdRecovered`] included).
    ///
    /// # Errors
    /// As [`recover`](Self::recover).
    pub fn recover_traced(
        cfg: MultiProcConfig,
        ready_timeout: Duration,
    ) -> io::Result<MultiProcCluster> {
        MultiProcCluster::recover_with(cfg, ready_timeout, true)
    }

    fn recover_with(
        cfg: MultiProcConfig,
        ready_timeout: Duration,
        trace: bool,
    ) -> io::Result<MultiProcCluster> {
        if cfg.store_dir.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "recover requires cfg.store_dir",
            ));
        }
        let (store, report) = open_store(&cfg)?;
        let cluster = MultiProcCluster::boot(cfg, store, Some(report), trace)?;
        if !cluster.wait_ready(ready_timeout) {
            cluster.abandon();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "workers not ready after cold restart",
            ));
        }
        let mut objects: Vec<u32> = {
            let state = cluster.inner.core.state.lock();
            state
                .store
                .objects()
                .into_iter()
                .map(|o| o.as_u32())
                .collect()
        };
        objects.sort_unstable();
        for object in objects {
            let _ = cluster.inner.reinstall_from_checkpoint(object);
        }
        Ok(cluster)
    }

    fn boot(
        cfg: MultiProcConfig,
        mut store: Box<dyn CheckpointStore>,
        recovering: Option<RecoveryReport>,
        trace: bool,
    ) -> io::Result<MultiProcCluster> {
        let now = Instant::now();
        // on a cold restart every worker resumes above its persisted
        // incarnation floor; a fresh boot starts everyone at 1
        let incarnations: Vec<u64> = (0..cfg.workers)
            .map(|node| {
                if recovering.is_some() {
                    store.meta(node).unwrap_or(0) + 1
                } else {
                    1
                }
            })
            .collect();
        for (node, &inc) in incarnations.iter().enumerate() {
            let _ = store.set_meta(node as u32, inc).map_err(store_io_err)?;
        }
        let recovered = recovering.map(|report| cold_recovered(CLIENT_PROCESS, &*store, &report));
        let slots = incarnations
            .iter()
            .map(|&incarnation| ProcSlot {
                child: None,
                incarnation,
                health: NodeHealth::Up,
                last_beat: now,
                ever_beat: false,
            })
            .collect();
        let core = Arc::new(CoordCore {
            state: Mutex::new(CoordState {
                slots,
                directory: HashMap::new(),
                store,
                pending: HashMap::new(),
                counters: MultiProcStats::default(),
            }),
            trace: TraceCollector::new(trace),
        });
        let handler = Arc::clone(&core);
        let server = SocketServer::bind_with_sink(
            &cfg.addr,
            cfg.workers,
            cfg.socket.clone(),
            Box::new(move |_, ev| handler.on_event(ev)),
        )?;
        let inner = Arc::new(CoordShared {
            cfg,
            server,
            core,
            next_corr: AtomicU64::new(1),
            closed: AtomicBool::new(false),
        });
        if let Some(recovered) = recovered {
            inner.core.trace(recovered);
        }
        let cluster = MultiProcCluster {
            inner: Arc::clone(&inner),
            threads: Mutex::new(Vec::new()),
        };

        // a failed start takes the workers already spawned down with it
        for (node, &inc) in incarnations.iter().enumerate() {
            inner.server.fence_below(node as u32, inc);
            cluster
                .spawn_worker_process(node as u32, inc)
                .inspect_err(|_| cluster.abandon())?;
        }

        if inner.cfg.monitor {
            let m_inner = Arc::clone(&inner);
            let monitor = std::thread::Builder::new()
                .name("oml-mp-monitor".into())
                .spawn(move || {
                    while !m_inner.closed.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(m_inner.cfg.heartbeat_ms));
                        sweep_impl(&m_inner);
                    }
                })
                .inspect_err(|_| cluster.abandon())?;
            cluster.threads.lock().push(monitor);
        }
        Ok(cluster)
    }

    /// The server's resolved address (what workers dial).
    #[must_use]
    pub fn addr(&self) -> &TransportAddr {
        self.inner.server.addr()
    }

    /// The worker program with the `OML_MP_*` environment a worker reads
    /// back ([`WorkerOptions::from_env`], [`run_worker`]).
    fn worker_command(&self, node: u32, incarnation: u64) -> Command {
        let cfg = &self.inner.cfg;
        let mut command = Command::new(&cfg.worker_program);
        command
            .args(&cfg.worker_args)
            .env("OML_MP_ADDR", self.inner.server.addr().to_string())
            .env("OML_MP_NODE", node.to_string())
            .env("OML_MP_EPOCH", incarnation.to_string())
            .env("OML_MP_HB_MS", cfg.heartbeat_ms.to_string())
            .env(PARENT_ENV, std::process::id().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        command
    }

    fn spawn_worker_process(&self, node: u32, incarnation: u64) -> io::Result<()> {
        let child = self.worker_command(node, incarnation).spawn()?;
        let mut state = self.inner.core.state.lock();
        let slot = &mut state.slots[node as usize];
        slot.child = Some(child);
        slot.last_beat = Instant::now();
        Ok(())
    }

    /// Blocks until all workers have heartbeat at least once (readiness
    /// barrier for experiments). `false` on timeout.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let state = self.inner.core.state.lock();
                if state.slots.iter().all(|s| s.ever_beat) {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Fail-fast admission mirroring the in-process circuit breaker: calls
    /// to suspected/dead workers return [`RuntimeError::NodeDown`] without
    /// sleeping out the deadline.
    fn admit(&self, node: u32) -> Result<(), RuntimeError> {
        let state = self.inner.core.state.lock();
        match state.slots.get(node as usize) {
            Some(slot) if slot.health == NodeHealth::Up => Ok(()),
            Some(_) => Err(RuntimeError::NodeDown(NodeId::new(node))),
            None => Err(RuntimeError::UnknownNode(NodeId::new(node))),
        }
    }

    /// Creates `object` at `node` with its initial linearized `state`.
    ///
    /// # Errors
    /// Standard call-path errors plus a failed install ack.
    pub fn create(
        &self,
        node: u32,
        object: u32,
        type_tag: &str,
        state: Vec<u8>,
    ) -> Result<(), RuntimeError> {
        self.admit(node)?;
        let ckpt = StoredCheckpoint {
            type_tag: type_tag.to_owned(),
            state: Bytes::from(state),
            object_epoch: 1,
            seq: 0,
        };
        self.inner.install(node, object, ckpt.clone())?;
        // the create is acked to the caller only once the checkpoint is
        // recorded (durably, for a WalStore under fsync=Always)
        let mut st = self.inner.core.state.lock();
        st.directory.insert(object, node);
        self.inner
            .put_checkpoint(&mut st, object, ckpt)
            .map_err(|e| store_failed(object, &e))
    }

    /// Invokes `method` on `object` wherever it lives. The reply's
    /// piggybacked state refreshes the coordinator's checkpoint.
    ///
    /// # Errors
    /// [`RuntimeError::UnknownObject`] for unknown ids,
    /// [`RuntimeError::NodeDown`] fail-fast for suspected/dead hosts,
    /// [`RuntimeError::Timeout`] on an expired wait.
    pub fn invoke(
        &self,
        object: u32,
        method: &str,
        payload: &[u8],
    ) -> Result<Vec<u8>, RuntimeError> {
        let node = self.host_of(object)?;
        self.admit(node)?;
        let (result, ckpt) = self.inner.invoke(node, object, method, payload)?;
        if result.is_ok() {
            // freshness-gated refresh: never let a stale epoch's
            // piggybacked state clobber a newer checkpoint
            let mut st = self.inner.core.state.lock();
            let fresh = st
                .store
                .get(ObjectId::new(object))
                .is_none_or(|c| ckpt.object_epoch >= c.object_epoch);
            if fresh {
                let _ = self.inner.put_checkpoint(&mut st, object, ckpt);
            }
        }
        result
            .map(|reply| reply.to_vec())
            .map_err(|message| failed(object, message))
    }

    /// Migrates `object` to `to`: surrender at the current host, install
    /// at the target under a bumped object epoch. If the install leg fails
    /// the object is recovered from its checkpoint at any live worker.
    ///
    /// # Errors
    /// Standard call-path errors from either leg.
    pub fn migrate(&self, object: u32, to: u32) -> Result<(), RuntimeError> {
        let from = self.host_of(object)?;
        if from == to {
            return Ok(());
        }
        self.admit(from)?;
        self.admit(to)?;
        let mut ckpt = self.inner.surrender(from, object)?;
        // the object now exists only as bytes; record the checkpoint
        // before attempting the install leg — if the store refuses, abort
        // the migration with the object still recoverable from the cache
        ckpt.object_epoch += 1;
        {
            let mut st = self.inner.core.state.lock();
            // the WAL record and the install below share one buffer
            self.inner
                .put_checkpoint(&mut st, object, ckpt.clone())
                .map_err(|e| store_failed(object, &e))?;
            st.directory.remove(&object);
        }
        let installed = self.inner.install(to, object, ckpt);
        match installed {
            Ok(()) => {
                self.inner.core.state.lock().directory.insert(object, to);
            }
            // a homeless object is recovered from its checkpoint at any Up
            // worker, best effort
            Err(_) => {
                let _ = self.inner.reinstall_from_checkpoint(object);
            }
        }
        installed
    }

    /// The worker hosting `object`.
    fn host_of(&self, object: u32) -> Result<u32, RuntimeError> {
        self.location_of(object)
            .ok_or(RuntimeError::UnknownObject(ObjectId::new(object)))
    }

    /// Where `object` currently lives, if anywhere.
    #[must_use]
    pub fn location_of(&self, object: u32) -> Option<u32> {
        self.inner.core.state.lock().directory.get(&object).copied()
    }

    /// The detector's verdict for `node`; `None` for a node id outside
    /// `0..workers`.
    #[must_use]
    pub fn health(&self, node: u32) -> Option<NodeHealth> {
        let state = self.inner.core.state.lock();
        Some(state.slots.get(node as usize)?.health)
    }

    /// SIGKILLs worker `node` (no warning, no cleanup — the real thing).
    /// The detector discovers the death from missed heartbeats. Nothing
    /// happens for a node id outside `0..workers`.
    pub fn kill(&self, node: u32) {
        let child = {
            let mut state = self.inner.core.state.lock();
            let Some(slot) = state.slots.get_mut(node as usize) else {
                return;
            };
            slot.child.take()
        };
        if let Some(mut child) = child {
            let _ = child.kill(); // SIGKILL on unix
            let _ = child.wait(); // reap
        }
        self.inner.core.trace(EventKind::Crash {
            node: NodeId::new(node),
        });
    }

    /// Respawns worker `node` under a **bumped** incarnation; the old
    /// incarnation is fenced at the socket accept from here on.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] for a node id outside `0..workers`;
    /// process spawn failures.
    pub fn respawn(&self, node: u32) -> io::Result<()> {
        let incarnation = {
            let mut state = self.inner.core.state.lock();
            let slot = state
                .slots
                .get_mut(node as usize)
                .ok_or_else(no_such_node)?;
            slot.incarnation += 1;
            slot.health = NodeHealth::Up;
            slot.last_beat = Instant::now();
            slot.ever_beat = false;
            let incarnation = slot.incarnation;
            let synced = state.store.wal_stats().synced;
            let _ = state.store.set_meta(node, incarnation);
            trace_synced(
                &*state.store,
                &self.inner.core.trace,
                CLIENT_PROCESS,
                synced,
            );
            incarnation
        };
        self.inner.server.fence_below(node, incarnation);
        self.inner.core.trace(EventKind::Restart {
            node: NodeId::new(node),
        });
        self.spawn_worker_process(node, incarnation)
    }

    /// Respawns worker `node` presenting a **stale** incarnation — the
    /// zombie negative control. Its handshake must be refused; the
    /// process observes the refusal and exits.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] for a node id outside `0..workers`;
    /// process and reaper-thread spawn failures.
    pub fn respawn_zombie(&self, node: u32) -> io::Result<()> {
        let stale = {
            let state = self.inner.core.state.lock();
            let slot = state.slots.get(node as usize).ok_or_else(no_such_node)?;
            slot.incarnation.saturating_sub(1)
        };
        // the zombie is not this slot's child — it must die on its own, and
        // its reaper starts first, so a refused thread leaves no process
        let (zombie, reaper) = bounded::<Child>(1);
        std::thread::Builder::new()
            .name("oml-mp-zombie-reaper".into())
            .spawn(move || {
                if let Ok(mut child) = reaper.recv() {
                    let _ = child.wait();
                }
            })?;
        let child = self.worker_command(node, stale).spawn()?;
        let _ = zombie.send(child);
        Ok(())
    }

    /// One failure-detector pass under the caller's clock (the monitor
    /// thread calls this periodically when `cfg.monitor` is on).
    pub fn sweep(&self) {
        sweep_impl(&self.inner);
    }

    /// Recovery counters so far.
    #[must_use]
    pub fn stats(&self) -> MultiProcStats {
        self.inner.core.state.lock().counters
    }

    /// Drains the collected protocol/transport trace (feed it to
    /// `oml_check::check_trace`). Empty unless the cluster was built by
    /// [`spawn_traced`](Self::spawn_traced) or
    /// [`recover_traced`](Self::recover_traced).
    #[must_use]
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        self.inner.core.trace.take()
    }

    /// Orderly teardown: Shutdown to live workers, short grace, SIGKILL
    /// stragglers, then server + thread teardown.
    pub fn shutdown(&self) {
        let live: Vec<u32> = {
            let state = self.inner.core.state.lock();
            state
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.child.is_some())
                .map(|(n, _)| n as u32)
                .collect()
        };
        for node in live {
            let _ = self.inner.server.send(node, ProtoMsg::Shutdown.encode());
        }
        let grace = Instant::now() + Duration::from_millis(500);
        loop {
            let mut all_gone = true;
            {
                let mut state = self.inner.core.state.lock();
                for slot in &mut state.slots {
                    if let Some(child) = &mut slot.child {
                        match child.try_wait() {
                            Ok(Some(_)) => slot.child = None,
                            _ => all_gone = false,
                        }
                    }
                }
            }
            if all_gone || Instant::now() >= grace {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.abandon();
    }

    /// Coordinator-death teardown: SIGKILL every worker and tear the
    /// server down **without** any Shutdown protocol message or store
    /// flush — whatever the WAL holds is all a successor gets. The
    /// in-process analogue of SIGKILLing the coordinator, for
    /// [`MultiProcCluster::recover`] tests; also the tail of an orderly
    /// [`MultiProcCluster::shutdown`], for whoever outlived the grace.
    pub fn abandon(&self) {
        let children: Vec<Child> = {
            let mut state = self.inner.core.state.lock();
            state
                .slots
                .iter_mut()
                .filter_map(|s| s.child.take())
                .collect()
        };
        for mut child in children {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.inner.closed.store(true, Ordering::Release);
        self.inner.server.shutdown();
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// OS pids of the live worker processes (for orchestration that must
    /// SIGKILL the whole process tree from outside, e.g. the cold-restart
    /// experiment killing workers orphaned by a coordinator death).
    #[must_use]
    pub fn worker_pids(&self) -> Vec<u32> {
        self.inner
            .core
            .state
            .lock()
            .slots
            .iter()
            .filter_map(|s| s.child.as_ref().map(Child::id))
            .collect()
    }

    /// Every object the directory currently places somewhere (sorted).
    #[must_use]
    pub fn objects(&self) -> Vec<u32> {
        let mut objects: Vec<u32> = self
            .inner
            .core
            .state
            .lock()
            .directory
            .keys()
            .copied()
            .collect();
        objects.sort_unstable();
        objects
    }

    /// The checkpoint store's WAL counters (zeros for in-memory runs).
    #[must_use]
    pub fn wal_stats(&self) -> crate::store::WalStats {
        self.inner.core.state.lock().store.wal_stats()
    }
}

/// Opens the coordinator's checkpoint store: a [`WalStore`] under
/// `store_dir/coord` when configured, else a [`MemStore`].
fn open_store(cfg: &MultiProcConfig) -> io::Result<(Box<dyn CheckpointStore>, RecoveryReport)> {
    match &cfg.store_dir {
        Some(dir) => {
            let (store, report) =
                WalStore::open(WalStoreConfig::with_fsync(dir.join("coord"), cfg.fsync))
                    .map_err(store_io_err)?;
            Ok((Box::new(store), report))
        }
        None => Ok((Box::new(MemStore::new()), RecoveryReport::default())),
    }
}

fn no_such_node() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, "node id outside 0..workers")
}

fn store_io_err(e: crate::store::StoreError) -> io::Error {
    io::Error::other(e.to_string())
}

fn map_transport_err(e: &TransportError, node: u32) -> RuntimeError {
    match e {
        TransportError::Down { .. } | TransportError::Fenced { .. } => {
            RuntimeError::NodeDown(NodeId::new(node))
        }
        TransportError::Closed => RuntimeError::ShuttingDown,
        TransportError::Backpressure { waited_ms } | TransportError::Timeout { waited_ms } => {
            RuntimeError::Timeout {
                waited_ms: *waited_ms,
            }
        }
        TransportError::Io(_) => RuntimeError::NodeDown(NodeId::new(node)),
    }
}

/// One detector pass: Up→Suspected after `suspect_after` missed beats,
/// Suspected→Dead after `dead_after`; death fences the incarnation and
/// reinstantiates the dead worker's objects from checkpoints. Under
/// [`FsyncPolicy::Batch`] each pass also syncs what the store holds unsynced.
fn sweep_impl(inner: &Arc<CoordShared>) {
    let hb = inner.cfg.heartbeat_ms;
    let mut newly_dead: Vec<u32> = Vec::new();
    let mut newly_suspected: Vec<u32> = Vec::new();
    {
        let mut state = inner.core.state.lock();
        for (node, slot) in state.slots.iter_mut().enumerate() {
            let silent_ms = slot.last_beat.elapsed().as_millis() as u64;
            match slot.health {
                NodeHealth::Up => {
                    if silent_ms > hb * u64::from(inner.cfg.suspect_after) {
                        slot.health = NodeHealth::Suspected;
                        newly_suspected.push(node as u32);
                    }
                }
                NodeHealth::Suspected => {
                    if silent_ms > hb * u64::from(inner.cfg.dead_after) {
                        slot.health = NodeHealth::Dead;
                        slot.incarnation += 1;
                        newly_dead.push(node as u32);
                    }
                }
                NodeHealth::Dead => {}
            }
        }
        state.counters.declared_dead += newly_dead.len() as u64;
        // persist bumped incarnations so a cold-restarted coordinator
        // keeps the fence above any pre-crash zombie
        let synced = state.store.wal_stats().synced;
        for &node in &newly_dead {
            let incarnation = state.slots[node as usize].incarnation;
            let _ = state.store.set_meta(node, incarnation);
        }
        // `Batch { ms }` must hold for an idle store too, and only a put
        // looks at the clock; never under `Never`, which must keep lying
        if matches!(inner.cfg.fsync, FsyncPolicy::Batch { .. }) {
            let _ = state.store.sync();
        }
        trace_synced(&*state.store, &inner.core.trace, CLIENT_PROCESS, synced);
    }
    for node in newly_suspected {
        inner.core.trace(EventKind::Suspected {
            node: NodeId::new(node),
        });
    }
    for node in newly_dead {
        let incarnation = {
            let state = inner.core.state.lock();
            state.slots[node as usize].incarnation
        };
        inner.server.fence_below(node, incarnation);
        inner.core.trace(EventKind::DeclaredDead {
            node: NodeId::new(node),
        });
        // reinstantiate everything stranded on the dead worker
        let stranded: Vec<u32> = {
            let state = inner.core.state.lock();
            state
                .directory
                .iter()
                .filter(|(_, &n)| n == node)
                .map(|(&o, _)| o)
                .collect()
        };
        for object in stranded {
            let _ = inner.reinstall_from_checkpoint(object);
        }
    }
}

// ---------------------------------------------------------------------------
// worker

/// How a worker's main loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// The coordinator asked for an orderly shutdown.
    Shutdown,
    /// The handshake was refused — this incarnation is a fenced zombie and
    /// must not act.
    Fenced,
    /// The process that spawned this worker is gone (its parent pid
    /// changed): there is no coordinator left to redial.
    Orphaned,
}

/// A worker process's configuration, normally read from the environment
/// the coordinator set ([`WorkerOptions::from_env`]).
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// The coordinator's listen address.
    pub addr: TransportAddr,
    /// This worker's node id.
    pub node: u32,
    /// This worker's incarnation (presented in the handshake).
    pub epoch: u64,
    /// Heartbeat period, ms.
    pub heartbeat_ms: u64,
}

impl WorkerOptions {
    /// Reads `OML_MP_ADDR` / `OML_MP_NODE` / `OML_MP_EPOCH` /
    /// `OML_MP_HB_MS`. `None` when the process was not launched as a
    /// worker (the vars are absent).
    #[must_use]
    pub fn from_env() -> Option<WorkerOptions> {
        let addr = TransportAddr::parse(&std::env::var("OML_MP_ADDR").ok()?).ok()?;
        let node = std::env::var("OML_MP_NODE").ok()?.parse().ok()?;
        let epoch = std::env::var("OML_MP_EPOCH").ok()?.parse().ok()?;
        let heartbeat_ms = std::env::var("OML_MP_HB_MS").ok()?.parse().ok()?;
        Some(WorkerOptions {
            addr,
            node,
            epoch,
            heartbeat_ms,
        })
    }
}

/// A hosted object and its epoch.
type Hosted = (Box<dyn MobileObject>, u64);

/// A worker process's object table and what its threads tell each other.
struct Worker {
    registry: HashMap<String, Delinearizer>,
    /// object → (the object, its epoch). Behind a mutex because a replaced
    /// session's reader may still be inside [`Worker::on_event`] when its
    /// successor's starts.
    objects: Mutex<HashMap<u32, Hosted>>,
    /// Where a handler tells the main thread, asleep between beats, to
    /// leave (`Shutdown`, `HandshakeFenced`).
    exit: Sender<WorkerExit>,
}

impl Worker {
    /// The peer's sink: answers every protocol message on the reader thread
    /// that delivered it, with an inline `send` — the reply is on the wire
    /// (or queued behind a dead session) when this returns.
    fn on_event(&self, peer: &SocketPeer, ev: TransportEvent<Bytes>) {
        let msg = match ev {
            TransportEvent::Delivery { msg, .. } => msg,
            TransportEvent::HandshakeFenced { .. } => {
                let _ = self.exit.try_send(WorkerExit::Fenced);
                return;
            }
            _ => return,
        };
        match ProtoMsg::decode(&msg) {
            Ok(ProtoMsg::Shutdown) => {
                let _ = self.exit.try_send(WorkerExit::Shutdown);
            }
            Ok(request) => {
                if let Some(reply) = self.answer(request) {
                    let _ = peer.send(0, reply.encode());
                }
            }
            Err(_) => {}
        }
    }

    /// Applies one request to the object table; the table is released
    /// before the reply is sent.
    fn answer(&self, request: ProtoMsg) -> Option<ProtoMsg> {
        let mut objects = self.objects.lock();
        Some(match request {
            ProtoMsg::Install { corr, object, ckpt } => match objects.get(&object) {
                // the same fencing rule as NodeWorker::handle_install:
                // never let an older incarnation of an object replace
                // a newer one
                Some((_, have)) if ckpt.object_epoch <= *have => ProtoMsg::Ack {
                    corr,
                    ok: false,
                    err: format!("stale object epoch {} <= {have}", ckpt.object_epoch),
                },
                _ => match self.registry.get(ckpt.type_tag.as_str()) {
                    Some(delin) => {
                        objects.insert(object, (delin(&ckpt.state), ckpt.object_epoch));
                        ProtoMsg::Ack {
                            corr,
                            ok: true,
                            err: String::new(),
                        }
                    }
                    None => ProtoMsg::Ack {
                        corr,
                        ok: false,
                        err: format!("no delinearizer for `{}`", ckpt.type_tag),
                    },
                },
            },
            ProtoMsg::Invoke {
                corr,
                object,
                method,
                payload,
            } => match objects.get_mut(&object) {
                Some((obj, obj_epoch)) => ProtoMsg::InvokeResp {
                    corr,
                    result: obj.invoke(&method, &payload).map(Bytes::from),
                    ckpt: StoredCheckpoint {
                        object_epoch: *obj_epoch,
                        ..StoredCheckpoint::of(&**obj)
                    },
                },
                None => ProtoMsg::InvokeResp {
                    corr,
                    result: Err(format!("object o{object} is not hosted here")),
                    ckpt: StoredCheckpoint::default(),
                },
            },
            ProtoMsg::Surrender { corr, object } => match objects.remove(&object) {
                Some((obj, obj_epoch)) => ProtoMsg::SurrenderResp {
                    corr,
                    ok: true,
                    err: String::new(),
                    ckpt: StoredCheckpoint {
                        object_epoch: obj_epoch,
                        ..StoredCheckpoint::of(&*obj)
                    },
                },
                None => ProtoMsg::SurrenderResp {
                    corr,
                    ok: false,
                    err: format!("object o{object} is not hosted here"),
                    ckpt: StoredCheckpoint::default(),
                },
            },
            // coordinator never sends these to a worker
            ProtoMsg::Ack { .. }
            | ProtoMsg::InvokeResp { .. }
            | ProtoMsg::SurrenderResp { .. }
            | ProtoMsg::Heartbeat
            | ProtoMsg::Shutdown => return None,
        })
    }
}

/// Runs a worker process: connects (handshaking node id + incarnation) and
/// hosts objects. Protocol messages are answered on the peer's reader
/// thread (`Worker::on_event`); this thread keeps only the timer — the
/// heartbeat, the orphan check and the fence check, each at the heartbeat
/// cadence — and the exit decision. Returns when fenced, asked to shut
/// down, or orphaned — callers should exit the process promptly in every
/// case.
///
/// # Errors
/// None currently — transport failures are ridden out by the supervisor —
/// but the signature reserves the right.
pub fn run_worker(opts: &WorkerOptions, types: &[(&str, Delinearizer)]) -> io::Result<WorkerExit> {
    let (exit, exiting) = bounded(1);
    let worker = Worker {
        registry: types
            .iter()
            .map(|(tag, d)| ((*tag).to_owned(), *d))
            .collect(),
        objects: Mutex::new(HashMap::new()),
        exit,
    };
    let peer = SocketPeer::connect_with_sink(
        opts.addr.clone(),
        opts.node,
        opts.epoch,
        SocketConfig::default(),
        Box::new(move |peer, ev| worker.on_event(peer, ev)),
    );
    let beat = Duration::from_millis(opts.heartbeat_ms.max(1)) / 2;
    // the coordinator's pid as it wrote it at spawn time: had this line
    // asked the OS instead, a coordinator killed before the worker got
    // here would leave it recording init as a parent that never changes
    let parent = std::env::var(PARENT_ENV)
        .ok()
        .and_then(|pid| pid.parse().ok())
        .unwrap_or_else(std::os::unix::process::parent_id);

    let exit = loop {
        if peer.is_fenced() {
            break WorkerExit::Fenced;
        }
        // a SIGKILLed coordinator sends no Shutdown and the supervisor
        // would redial its address forever; re-parenting is the signal
        if std::os::unix::process::parent_id() != parent {
            break WorkerExit::Orphaned;
        }
        // ignore failures: while down the beat queues (bounded) or the
        // supervisor is already on it
        let _ = peer.send(0, ProtoMsg::Heartbeat.encode());
        if let Ok(exit) = exiting.recv_timeout(beat) {
            break exit;
        }
    };
    peer.shutdown();
    Ok(exit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckpt(type_tag: &str, state: Bytes, object_epoch: u64) -> StoredCheckpoint {
        StoredCheckpoint {
            type_tag: type_tag.to_owned(),
            state,
            object_epoch,
            seq: 0,
        }
    }

    #[test]
    fn proto_messages_round_trip() {
        let msgs = [
            ProtoMsg::Install {
                corr: 7,
                object: 3,
                ckpt: ckpt("counter", vec![1, 2, 3].into(), 2),
            },
            ProtoMsg::Ack {
                corr: 7,
                ok: true,
                err: String::new(),
            },
            ProtoMsg::Invoke {
                corr: 8,
                object: 3,
                method: "add".into(),
                payload: vec![9].into(),
            },
            ProtoMsg::InvokeResp {
                corr: 8,
                result: Ok(vec![4, 5].into()),
                ckpt: ckpt("counter", vec![6].into(), 2),
            },
            ProtoMsg::InvokeResp {
                corr: 9,
                result: Err("boom".into()),
                ckpt: ckpt("counter", Bytes::new(), 2),
            },
            ProtoMsg::Surrender {
                corr: 10,
                object: 3,
            },
            ProtoMsg::SurrenderResp {
                corr: 10,
                ok: false,
                err: "gone".into(),
                ckpt: StoredCheckpoint::default(),
            },
            ProtoMsg::Heartbeat,
            ProtoMsg::Shutdown,
        ];
        for msg in msgs {
            let wire = msg.encode();
            assert_eq!(ProtoMsg::decode(&wire).unwrap(), msg, "{msg:?}");
            // a message carrying bytes is written into its final
            // allocation: a unique `Bytes` hands that allocation back, and
            // it holds not a byte more
            let sized = !matches!(
                msg,
                ProtoMsg::Ack { .. }
                    | ProtoMsg::Surrender { .. }
                    | ProtoMsg::Heartbeat
                    | ProtoMsg::Shutdown
            );
            let buf = Vec::from(wire);
            assert!(!sized || buf.capacity() == buf.len(), "{msg:?}");
        }
    }

    #[test]
    fn decoded_byte_fields_are_views_of_the_frame() {
        let wire = ProtoMsg::Install {
            corr: 1,
            object: 2,
            ckpt: ckpt("t", vec![7; 100].into(), 3),
        }
        .encode();
        let ProtoMsg::Install { ckpt, .. } = ProtoMsg::decode(&wire).unwrap() else {
            panic!("an Install decodes as an Install");
        };
        let at = wire.len() - 8 - ckpt.state.len();
        assert_eq!(ckpt.state.as_ptr(), wire[at..].as_ptr());
    }

    /// What the previous byte path (bytewise CRC, `Vec` fields, a copy per
    /// layer) put on the wire for these two messages, session-wrapped and
    /// framed. The encoding may get cheaper; it may not change.
    #[test]
    fn framed_messages_match_the_golden_bytes() {
        use crate::transport::socket::{write_session, SessionFrame};
        use crate::wire::hex;
        let resp = ProtoMsg::InvokeResp {
            corr: 0x0102_0304_0506_0708,
            result: Ok(vec![0xAA, 0xBB, 0xCC].into()),
            ckpt: ckpt("counter", (0u8..40).collect::<Vec<u8>>().into(), 7),
        };
        let install = ProtoMsg::Install {
            corr: 9,
            object: 3,
            ckpt: ckpt(
                "blob",
                (0u8..33)
                    .map(|i| i.wrapping_mul(7))
                    .collect::<Vec<u8>>()
                    .into(),
                2,
            ),
        };
        let golden = [
            (
                resp,
                "6200000093744d2a030000005a0000000d000000080706050403020101000000\
                 03000000aabbcc0000000007000000636f756e74657228000000000102030405\
                 060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425\
                 26270700000000000000",
            ),
            (
                install,
                "4d000000f4ece38a03000000450000000a000000090000000000000003000000\
                 04000000626c6f622100000000070e151c232a31383f464d545b626970777e85\
                 8c939aa1a8afb6bdc4cbd2d9e00200000000000000",
            ),
        ];
        for (msg, expected) in golden {
            let mut wire = Vec::new();
            write_session(&SessionFrame::Data(msg.encode()), &mut wire);
            assert_eq!(hex(&wire), expected, "{msg:?}");
        }
    }

    #[test]
    fn truncated_proto_messages_are_rejected() {
        let wire = ProtoMsg::Invoke {
            corr: 1,
            object: 2,
            method: "m".into(),
            payload: vec![1, 2, 3].into(),
        }
        .encode();
        for cut in 0..wire.len() {
            assert!(
                ProtoMsg::decode(&wire.slice(..cut)).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn worker_options_roundtrip_via_env_format() {
        // from_env parses what the coordinator serializes; exercised
        // end-to-end in tests/multiproc.rs — here just the addr formats
        let unix = TransportAddr::parse("unix:/tmp/x.sock").unwrap();
        assert_eq!(unix.to_string(), "unix:/tmp/x.sock");
        let tcp = TransportAddr::parse("tcp:127.0.0.1:41000").unwrap();
        assert_eq!(tcp.to_string(), "tcp:127.0.0.1:41000");
    }
}
