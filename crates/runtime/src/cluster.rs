//! The cluster facade: public API over the nodes, and the timer heap that
//! runs their ticks and delayed deliveries on the cluster's one clock.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::transport::channel::{self, Call, ChannelMesh, Handler, MeshConfig};
use crate::transport::{Transport, TransportError};
use crossbeam::channel::RecvTimeoutError;
use oml_check::event::{EventKind, MessageFault, ReleaseCause, TraceEvent, CLIENT_PROCESS};
use oml_core::alliance::AllianceRegistry;
use oml_core::attach::{AttachOutcome, AttachmentGraph, AttachmentMode};
use oml_core::error::AttachError;
use oml_core::ids::{AllianceId, BlockId, NodeId, ObjectId};
use oml_core::object::Mobility;
use oml_core::policy::{MovePolicy, PolicyKind};
use oml_des::{EventQueue, SimTime};

use crate::error::RuntimeError;
use crate::fault::{self, Delivery, Fate, FaultInjector, FaultPlan};
use crate::idmap::IdMap;
use crate::message::{group_push, Acked, Envelope, Message, Shipped, MAX_HOPS};
use crate::node::NodeWorker;
use crate::object::{Delinearizer, MobileObject, TypeRegistry};
use crate::recovery::{
    epoch_floors, preference_order, Admission, DetectorConfig, NodeHealth, PendingRefresh,
    RecoveryState, Replicas, ReplicationInfo, Sabotage,
};
use crate::store::{
    cold_recovered, put_traced, trace_synced, CheckpointStore, FsyncPolicy, StoredCheckpoint,
};
use crate::trace::{OrderedMutex, OrderedRwLock, TraceCollector};

/// Monotone activity counters, readable while the cluster runs.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) invocations: AtomicU64,
    pub(crate) moves_granted: AtomicU64,
    pub(crate) moves_denied: AtomicU64,
    pub(crate) objects_migrated: AtomicU64,
    pub(crate) forwards: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) retries: AtomicU64,
    pub(crate) leases_expired: AtomicU64,
    pub(crate) suspicions: AtomicU64,
    pub(crate) false_suspicions: AtomicU64,
    pub(crate) reinstantiations: AtomicU64,
    pub(crate) fenced_stale: AtomicU64,
    pub(crate) breaker_opens: AtomicU64,
    pub(crate) checkpoint_refreshes: AtomicU64,
    pub(crate) quorum_refreshes: AtomicU64,
    pub(crate) quorum_refresh_failures: AtomicU64,
    pub(crate) repairs: AtomicU64,
}

/// A point-in-time snapshot of a cluster's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterStats {
    /// Invocations executed (at any node).
    pub invocations: u64,
    /// Move-requests granted.
    pub moves_granted: u64,
    /// Move-requests denied.
    pub moves_denied: u64,
    /// Objects shipped between nodes (closure members count individually).
    pub objects_migrated: u64,
    /// Messages forwarded because their object had moved on.
    pub forwards: u64,
    /// Blocking client calls whose deadline elapsed (per attempt).
    pub timeouts: u64,
    /// Invocation attempts re-sent after a timeout.
    pub retries: u64,
    /// Placement locks released by lease expiry (the recovery path).
    pub leases_expired: u64,
    /// Nodes the failure detector began suspecting (missed beats or
    /// partitions). Zero without a detector.
    pub suspicions: u64,
    /// Suspicions that were later revoked (the node was merely slow or
    /// partitioned and came back).
    pub false_suspicions: u64,
    /// Objects reinstantiated from their checkpoints after their host was
    /// declared dead.
    pub reinstantiations: u64,
    /// Messages rejected by epoch fencing (stale sender incarnations and
    /// stale object-epoch installs).
    pub fenced_stale: u64,
    /// Circuit-breaker open transitions (suspicion, death, failed probes).
    pub breaker_opens: u64,
    /// Checkpoint refreshes issued to the replica sets (create-time seeding
    /// is not counted — it writes synchronously, without a quorum round —
    /// and neither is a copy every replica already holds).
    pub checkpoint_refreshes: u64,
    /// Refreshes that collected a write quorum of replica acks.
    pub quorum_refreshes: u64,
    /// Refreshes superseded before reaching their quorum (dropped puts or
    /// acks, partitioned replicas) — the durability-margin warning light.
    pub quorum_refresh_failures: u64,
    /// Checkpoint copies re-sent by the anti-entropy repair sweep.
    pub repairs: u64,
}

/// One object's durability margin, from [`Cluster::checkpoint_health`]:
/// how many live replicas hold its passive copy and how stale they may be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHealth {
    /// The object.
    pub object: ObjectId,
    /// Live (non-dead, non-crashed) nodes currently holding a copy.
    pub replicas: u32,
    /// Milliseconds since the last refresh was issued or confirmed current
    /// (a refresh of a copy every replica already holds writes nothing),
    /// or since creation.
    pub refresh_age_ms: u64,
    /// Freshest `(object_epoch, seq)` known to have reached a write quorum;
    /// `None` until the first quorum-acknowledged refresh completes.
    pub quorum: Option<(u64, u64)>,
}

/// One object stranded by a crashed node: its host node, identity, live
/// instance and object epoch at stash time, parked until that node restarts.
/// A restart only reclaims entries whose epoch is still current — an object
/// reinstantiated elsewhere while the node was down stays where it is.
pub(crate) type StashedObject = (NodeId, ObjectId, Box<dyn MobileObject>, u64);

/// A placement lock: the object, and the block holding it.
pub(crate) type Lock = (ObjectId, BlockId);

/// One object's row in [`Shared::objects`]: where it is, whether it may move
/// (§2.2), and its fencing epoch — 0 at birth, bumped by each
/// reinstantiation, so always 0 without a detector. A `fix` before the
/// object exists, or an epoch floor from a durable store, makes a row with
/// no location.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ObjectRecord {
    pub(crate) at: Option<NodeId>,
    pub(crate) mobility: Mobility,
    pub(crate) epoch: u64,
}

/// The application's cooperation structure (§3): the attachment graph and
/// the alliances that scope its edges. Alliances are only created and
/// joined, never left or dissolved, so an edge `attach` validated stays
/// valid.
pub(crate) struct Cooperation {
    pub(crate) attachments: AttachmentGraph,
    pub(crate) alliances: AllianceRegistry,
}

/// What the heap runs when its instant comes.
enum Due {
    /// A node's maintenance tick.
    Tick(u32),
    /// A failure-detector sweep (wall clock only).
    Sweep,
    /// A delayed delivery.
    Deliver(u32, Envelope),
}

/// The cluster's one deadline heap — node ticks, detector sweeps and delayed
/// deliveries, keyed by milliseconds on the cluster's clock
/// ([`Shared::now_ms`]), ties in insertion order. Under a wall clock the
/// `oml-timer` thread serves it; under a manual clock whoever advances the
/// clock does, and there is no thread.
#[derive(Default)]
struct Timer {
    due: EventQueue<Due>,
    thread: Option<JoinHandle<()>>,
}

/// The period, in ms, of every node's maintenance tick (a heartbeat and a
/// lease sweep): all nodes tick on its one grid.
const TICK_MS: u64 = 25;

/// The first instant after `now` on the grid of `period` ms: ticks of
/// every node fall due together and fire in one wake-up.
fn next_on_grid(now: u64, period: u64) -> u64 {
    let period = period.max(1);
    (now / period + 1) * period
}

/// State shared by every node and the cluster facade.
pub(crate) struct Shared {
    /// The in-process transport: bounded per-node inboxes behind the
    /// [`Transport`] seam, each with a slot for its node's state. The mesh
    /// owns each queue, so queued messages survive a crash and are drained
    /// by the restarted incarnation.
    pub(crate) mesh: ChannelMesh<Envelope, NodeWorker>,
    timer: OrderedMutex<Timer>,
    born: Instant,
    /// Every object's record. A decision across location, mobility and
    /// epoch — a declare-dead's verdict and epoch bump, a rejoin, a
    /// shipment's stamp and re-point — takes one guard of it. Like every
    /// lock of `Shared`, it is never held while another is taken.
    pub(crate) objects: OrderedRwLock<IdMap<ObjectId, ObjectRecord>>,
    pub(crate) policy: OrderedMutex<Box<dyn MovePolicy>>,
    /// Whether the policy's placement locks can run out — a lease TTL was
    /// set — so an invocation must renew its object's lease.
    pub(crate) leases_expire: bool,
    pub(crate) cooperation: OrderedMutex<Cooperation>,
    pub(crate) registry: TypeRegistry,
    pub(crate) counters: Counters,
    pub(crate) injector: FaultInjector,
    /// Objects stranded by a crashed node, waiting for its restart.
    pub(crate) stash: OrderedMutex<Vec<StashedObject>>,
    /// The crash-recovery subsystem; `None` unless a failure detector was
    /// configured, in which case the runtime behaves exactly as before.
    pub(crate) recovery: Option<RecoveryState>,
    /// The cluster's clock when hand-advanced
    /// ([`ClusterBuilder::manual_clock`]); else milliseconds since `born`.
    manual_clock: Option<AtomicU64>,
    /// Protocol trace collection (disabled unless built with
    /// [`ClusterBuilder::trace`]).
    pub(crate) trace: TraceCollector,
    call_timeout: Duration,
    invoke_retries: u32,
    /// SplitMix64 state for retry-backoff jitter (seeded from the fault
    /// plan, so even the jitter is reproducible).
    jitter: AtomicU64,
    next_object: AtomicU32,
    next_block: AtomicU32,
    /// Shutdown has been initiated: new client operations are refused, but
    /// sends still flow so queued end-requests can be flushed.
    closing: AtomicBool,
    /// The nodes have been shut down: sends now fail with `ShuttingDown`
    /// instead of silently queueing where nothing runs them.
    down: AtomicBool,
}

impl Shared {
    /// Routes one message to `to`, applying the fault plan. `from` is the
    /// sending node together with its incarnation epoch (stamped on the
    /// envelope for fencing), or `None` for the client facade.
    ///
    /// Control messages (invocations, move-requests, end-requests) are
    /// subject to drops, duplicates, delays and partitions; state transfer
    /// (`Create`/`Install`/`Surrender`) and control sentinels are always
    /// reliable — see [`crate::fault`] for the model. A traced cluster
    /// records each decision that is not a clean delivery as a `Fault`
    /// event, before the sends of what survives. What survives with no
    /// delay is handed over by `ChannelMesh::hand`: an idle node runs it on
    /// this thread, at once or after this thread's step (DESIGN.md §10.1).
    ///
    /// A faithfully *lost* message still returns `Ok` (the sender cannot
    /// observe a drop — that is what deadlines are for); `Err(ShuttingDown)`
    /// means the cluster's nodes are gone and the message can never be
    /// processed.
    pub(crate) fn send_from(
        &self,
        from: Option<(NodeId, u64)>,
        to: NodeId,
        msg: Message,
    ) -> Result<(), RuntimeError> {
        if self.down.load(Ordering::Acquire) {
            return Err(RuntimeError::ShuttingDown);
        }
        let (from_raw, epoch) = from.map_or((fault::CLIENT, 0), |(n, e)| (n.as_u32(), e));
        let is_checkpoint = matches!(
            msg,
            Message::CheckpointPut { .. } | Message::CheckpointAck { .. }
        );
        if is_checkpoint && from_raw != fault::CLIENT {
            // replica traffic between nodes has its own decision stream:
            // drops and duplicates, never delays. Client-originated
            // checkpoint traffic (creation seeding, repair) is reliable.
            let decided = self.injector.decide_checkpoint(from_raw, to.as_u32());
            self.trace_fault(from_raw, to, decided, &msg);
            if let Fate::Deliver { copies, .. } = decided.fate {
                for m in self.envelopes(from_raw, epoch, to, msg, copies) {
                    let _ = self.mesh.hand(to.as_u32(), m, false);
                }
            }
            return Ok(());
        }
        let faultable = matches!(
            msg,
            Message::Invoke { .. } | Message::MoveRequest { .. } | Message::EndRequest { .. }
        );
        if !faultable {
            let env = self.trace_envelope(from_raw, epoch, to, msg);
            // a full inbox past the send deadline: a timeout the caller can retry
            return self
                .mesh
                .hand(to.as_u32(), env, false)
                .map_err(|e| match e {
                    TransportError::Backpressure { waited_ms } => {
                        RuntimeError::Timeout { waited_ms }
                    }
                    _ => RuntimeError::ShuttingDown,
                });
        }
        let is_end = matches!(msg, Message::EndRequest { .. });
        let decided = self.injector.decide(from_raw, to.as_u32(), is_end);
        self.trace_fault(from_raw, to, decided, &msg);
        match decided.fate {
            Fate::Drop | Fate::PartitionDrop => Ok(()),
            Fate::Deliver { copies, delay_ms } => {
                let msgs = self.envelopes(from_raw, epoch, to, msg, copies);
                if delay_ms > 0 {
                    // the heap delivers it; once shutdown began,
                    // the shutdown rule answers it now
                    let at = self.now_ms().saturating_add(delay_ms);
                    for m in msgs {
                        if let Err(due) = self.at(at, Due::Deliver(to.as_u32(), m)) {
                            channel::serving_heap(|| self.run_due(due));
                        }
                    }
                } else {
                    // a client call waits for room as long as it takes
                    for m in msgs {
                        let _ = self.mesh.hand(to.as_u32(), m, from_raw == fault::CLIENT);
                    }
                }
                Ok(())
            }
        }
    }

    /// Records what `decided` did to `msg` on its way from `from` to `to`:
    /// one `Fault` event per fault, none for a clean delivery.
    fn trace_fault(&self, from: u32, to: NodeId, decided: Delivery, msg: &Message) {
        if !self.trace.is_enabled() {
            return;
        }
        let faults = match decided.fate {
            Fate::Drop => [Some(MessageFault::Drop), None],
            Fate::PartitionDrop => [Some(MessageFault::PartitionDrop), None],
            Fate::Deliver { copies, delay_ms } => [
                (copies > 1).then_some(MessageFault::Duplicate),
                (delay_ms > 0).then_some(MessageFault::Delay(delay_ms)),
            ],
        };
        for fault in faults.into_iter().flatten() {
            let kind = EventKind::Fault {
                fault,
                to: to.as_u32(),
                seq: decided.seq,
                desc: format!("{msg:?}"),
            };
            self.trace.emit(from, kind);
        }
    }

    /// Schedules `due` at `ms` on the heap, waking the `oml-timer` thread if
    /// that is its earliest entry; hands `due` back once shutdown began.
    fn at(&self, ms: u64, due: Due) -> Result<(), Due> {
        let mut timer = self.timer.lock();
        if self.is_closing() {
            return Err(due);
        }
        let ms = ms as f64;
        let earliest = timer.due.peek_time().is_none_or(|t| ms < t.as_f64());
        if let (true, Some(thread)) = (earliest, &timer.thread) {
            thread.thread().unpark();
        }
        timer.due.push(SimTime::new(ms), due);
        Ok(())
    }

    /// Serves the heap — the `oml-timer` thread, `advance_clock` and
    /// `shutdown` alike: runs every entry due by `by` on this thread, in
    /// time order, in the role [`channel::serving_heap`] grants, a manual
    /// clock first moved to the entry's instant; returns the next instant.
    /// A panic in what an entry runs ends that entry, not the heap.
    fn run_heap(&self, by: u64) -> Option<u64> {
        channel::serving_heap(|| loop {
            let mut timer = self.timer.lock();
            let next = timer.due.peek_time().map(|t| t.as_f64() as u64);
            if next.is_none_or(|at| at > by) {
                return next;
            }
            let due = timer.due.pop().expect("peeked").event;
            drop(timer);
            if let (Some(clock), Some(at)) = (&self.manual_clock, next) {
                clock.fetch_max(at, Ordering::Relaxed);
            }
            let _ = std::panic::catch_unwind(AssertUnwindSafe(|| self.run_due(due)));
        })
    }

    /// The `oml-timer` thread: serves the heap on the wall clock until
    /// shutdown, sleeping until the earliest entry.
    fn serve_timer(&self) {
        while !self.is_closing() {
            let next = self.run_heap(self.now_ms());
            let at = next.map(|ms| self.born + Duration::from_millis(ms));
            let wait = at.map_or(Duration::MAX, |at| {
                at.saturating_duration_since(Instant::now())
            });
            std::thread::park_timeout(wait);
        }
    }

    /// Runs one heap entry; a tick or a sweep first re-arms itself on its
    /// grid, and runs only until shutdown.
    fn run_due(&self, due: Due) {
        let now = self.now_ms();
        match due {
            Due::Tick(node) => {
                let next = next_on_grid(now, TICK_MS);
                if self.at(next, due).is_ok() {
                    self.mesh.tick(node);
                }
            }
            Due::Sweep => {
                let heartbeat = self.recovery.as_ref().map_or(1, |r| r.config.heartbeat_ms);
                let next = next_on_grid(now, heartbeat);
                if self.at(next, due).is_ok() {
                    self.detector_sweep();
                }
            }
            Due::Deliver(node, env) => drop(self.mesh.hand(node, env, true)),
        }
    }

    /// The envelopes one delivery decision puts on the wire: `msg`, preceded
    /// by its clone when the injector duplicated it. Both are traced here, in
    /// the sender's program order, whenever they are handed over.
    fn envelopes(
        &self,
        from: u32,
        epoch: u64,
        to: NodeId,
        msg: Message,
        copies: u8,
    ) -> impl Iterator<Item = Envelope> + Send {
        let dup = (copies > 1).then(|| clone_control(&msg)).flatten();
        let dup = dup.map(|dup| self.trace_envelope(from, epoch, to, dup));
        dup.into_iter()
            .chain(std::iter::once(self.trace_envelope(from, epoch, to, msg)))
    }

    /// Wraps a message for the wire, assigning it a trace id and emitting
    /// the matching `Send` event in the sender's program order. A duplicated
    /// message passes through twice and gets two ids — two physical copies,
    /// two sends, exactly what the happens-before construction expects.
    fn trace_envelope(&self, from: u32, epoch: u64, to: NodeId, msg: Message) -> Envelope {
        let trace_id = self.trace.next_msg_id();
        if trace_id != 0 {
            let desc = format!("{msg:?}");
            let send = EventKind::Send {
                msg_id: trace_id,
                to: to.as_u32(),
                desc,
            };
            self.trace.emit(from, send);
        }
        Envelope {
            trace_id,
            from,
            epoch,
            msg,
        }
    }

    /// The object's record; nowhere, mobile and at epoch 0 if it has none.
    pub(crate) fn object(&self, object: ObjectId) -> ObjectRecord {
        self.objects
            .read()
            .get(&object)
            .copied()
            .unwrap_or_default()
    }

    /// Points `object` at `node`.
    pub(crate) fn place(&self, object: ObjectId, node: NodeId) {
        self.objects.write().entry(object).or_default().at = Some(node);
    }

    /// Stamps each copy shipped to `to` with its object's current epoch and
    /// points the object at `to`, under one guard: a closure changes hosts
    /// all at once, and calls are routed (and parked) at `to` from here on.
    pub(crate) fn ship_to(&self, items: &mut [Shipped], to: NodeId) {
        let mut objects = self.objects.write();
        for (object, ckpt) in items {
            let record = objects.entry(*object).or_default();
            ckpt.object_epoch = record.epoch;
            record.at = Some(to);
        }
    }

    /// Milliseconds on the cluster's clock: leases, the detector and the
    /// timer heap all read it.
    pub(crate) fn now_ms(&self) -> u64 {
        match &self.manual_clock {
            Some(t) => t.load(Ordering::Relaxed),
            None => self.born.elapsed().as_millis() as u64,
        }
    }

    pub(crate) fn is_closing(&self) -> bool {
        self.closing.load(Ordering::Acquire)
    }

    /// Sleeps out one retry backoff step (plus seeded jitter), counts the
    /// retry and doubles the step.
    fn back_off(&self, backoff_ms: &mut u64) {
        self.counters.retries.fetch_add(1, Ordering::Relaxed);
        let jitter = self.next_jitter_ms(*backoff_ms);
        std::thread::sleep(Duration::from_millis(*backoff_ms + jitter));
        *backoff_ms = backoff_ms.saturating_mul(2);
    }

    fn next_jitter_ms(&self, bound_ms: u64) -> u64 {
        let state = self.jitter.fetch_add(fault::GAMMA, Ordering::Relaxed);
        fault::mix64(state.wrapping_add(fault::GAMMA)) % bound_ms.max(1)
    }

    // ---- crash-recovery plumbing (all no-ops without a detector) ----

    /// Whether the crash-recovery subsystem is active at all — nodes use
    /// this to skip checkpoint linearization entirely when it is not.
    pub(crate) fn detector_enabled(&self) -> bool {
        self.recovery.is_some()
    }

    /// Whether epoch fencing is active.
    pub(crate) fn fenced(&self) -> bool {
        self.recovery
            .as_ref()
            .is_some_and(|r| r.sabotage != Some(Sabotage::Unfenced))
    }

    /// The current incarnation of `node` (raw id); 1 without a detector.
    pub(crate) fn incarnation(&self, node: u32) -> u64 {
        self.recovery
            .as_ref()
            .map_or(1, |r| r.incarnation(node as usize))
    }

    /// Records a heartbeat from incarnation `epoch` of `node`.
    pub(crate) fn beat(&self, node: NodeId, epoch: u64) {
        if let Some(rec) = &self.recovery {
            rec.beat(node.index(), epoch, self.now_ms());
        }
    }

    /// The per-item fence: drops (and reports to `fenced`) every copy
    /// linearized under an epoch older than its object's current one — only
    /// when fencing is on — and, given `at`, points each survivor there,
    /// under the same guard.
    pub(crate) fn fence(
        &self,
        items: &mut Vec<Shipped>,
        at: Option<NodeId>,
        mut fenced: impl FnMut(&StoredCheckpoint),
    ) {
        let fencing = self.fenced();
        if !fencing && at.is_none() {
            return;
        }
        let mut objects = self.objects.write();
        items.retain(|(object, ckpt)| {
            let epoch = objects.get(object).map_or(0, |r| r.epoch);
            let current = !fencing || ckpt.object_epoch >= epoch;
            if !current {
                fenced(ckpt);
            } else if at.is_some() {
                objects.entry(*object).or_default().at = at;
            }
            current
        });
    }

    /// Seeds the replicated checkpoint at creation: records the home node
    /// and the placement preference order, and writes the birth state
    /// synchronously into the replica set's stores (creation blocks on the
    /// Create reply anyway, so there is no quorum round to wait for — every
    /// replica starts at `(0, 0)`). Returns that birth copy, for the host
    /// to keep as the object's image; without a detector nothing is stored
    /// and nothing linearized.
    pub(crate) fn checkpoint_init(
        &self,
        object: ObjectId,
        home: NodeId,
        instance: &dyn MobileObject,
    ) -> Option<StoredCheckpoint> {
        let rec = self.recovery.as_ref()?;
        let order = preference_order(object, home, self.mesh.peers() as usize);
        let birth = StoredCheckpoint::of(instance);
        let mut replicas = rec.replicas.lock();
        for target in rec.replica_targets(&order) {
            self.store_replicas(&mut replicas, target, [(object, birth.clone())]);
        }
        replicas.objects.insert(
            object,
            ReplicationInfo {
                order,
                seq: 0,
                pending: None,
                last_quorum: None,
                last_refresh_at_ms: self.now_ms(),
            },
        );
        Some(birth)
    }

    /// Refreshes the replicated checkpoints of `fresh` — the objects of one
    /// closure, or a lone one — at an install / end / lease event, the
    /// points where a consistent linearized copy is in hand anyway. Per
    /// object, exactly as if each were refreshed alone: a copy its replica
    /// set already holds ([`RecoveryState::is_held`]) is only confirmed
    /// current — its age restarts, nothing is written, sent or counted;
    /// any other is stamped with the current object epoch and the next
    /// refresh sequence (what the caller put in those fields is
    /// overwritten) and starts counting acks against a majority write
    /// quorum, an unacked previous refresh superseded and counted as a
    /// quorum failure. Per closure: one guard of the replica table for the
    /// decisions, the stamping and the host's own copies, stored and
    /// self-acked together, then one `CheckpointPut` to each other replica
    /// node. `host` is the node holding the live objects. The copies stay
    /// the caller's, stamped, and each shares its state buffer with the
    /// replicas that hold it.
    pub(crate) fn checkpoint_refresh(&self, fresh: &mut [Shipped], host: NodeId, host_epoch: u64) {
        let Some(rec) = &self.recovery else {
            return;
        };
        {
            let objects = self.objects.read();
            for (object, ckpt) in fresh.iter_mut() {
                ckpt.object_epoch = objects.get(object).map_or(0, |r| r.epoch);
            }
        }
        let now = self.now_ms();
        let mut own = Vec::new();
        let mut puts = Vec::new();
        let (mut refreshed, mut superseded) = (0, 0);
        // nothing sends under the guard: a send can run the target's
        // handler inline, and that handler takes this lock
        let mut replicas = rec.replicas.lock();
        let Replicas { stores, objects } = &mut *replicas;
        for (object, ckpt) in fresh.iter_mut() {
            let object = *object;
            let Some(info) = objects.get_mut(&object) else {
                continue; // detector configured after the object was created
            };
            if rec.is_held(stores, object, info, ckpt) {
                info.last_refresh_at_ms = now; // confirmed current
                continue;
            }
            superseded += u64::from(info.pending.take().is_some());
            info.seq += 1;
            ckpt.seq = info.seq;
            let mut targets = 0;
            let mut at_host = false;
            for target in rec.replica_targets(&info.order) {
                targets += 1;
                if target == host {
                    // the host's own store needs no message round-trip
                    at_host = true;
                } else {
                    group_push(&mut puts, target, (object, ckpt.clone()));
                }
            }
            if targets == 0 {
                continue;
            }
            info.pending = Some(PendingRefresh {
                object_epoch: ckpt.object_epoch,
                seq: ckpt.seq,
                quorum: targets / 2 + 1,
                acked: Vec::new(),
            });
            info.last_refresh_at_ms = now;
            refreshed += 1;
            if at_host {
                own.push((object, ckpt.clone()));
            }
        }
        self.counters
            .quorum_refresh_failures
            .fetch_add(superseded, Ordering::Relaxed);
        self.counters
            .checkpoint_refreshes
            .fetch_add(refreshed, Ordering::Relaxed);
        if !own.is_empty() {
            let acks = versions(&own);
            self.store_replicas(&mut replicas, host, own);
            self.count_acks(&mut replicas, &acks, host, host.as_u32());
        }
        drop(replicas);
        self.send_puts(Some((host, host_epoch)), puts);
    }

    /// Sends each list, grouped by [`group_push`], as one `CheckpointPut`.
    fn send_puts(&self, from: Option<(NodeId, u64)>, puts: Vec<(NodeId, Vec<Shipped>)>) {
        for (target, items) in puts {
            let _ = self.send_from(from, target, Message::CheckpointPut { items });
        }
    }

    /// Writes each of `ckpts` into `at`'s replica store if it is fresher
    /// than the copy already there (lexicographic `(object_epoch, seq)`).
    /// The caller holds the replica table's guard.
    fn store_replicas(
        &self,
        replicas: &mut Replicas,
        at: NodeId,
        ckpts: impl IntoIterator<Item = Shipped>,
    ) {
        let store = &mut replicas.stores[at.index()];
        for (object, ckpt) in ckpts {
            let (object_epoch, seq) = ckpt.version();
            let stale = store
                .get(object)
                .is_some_and(|existing| existing.version() >= ckpt.version());
            // each put (and its fsync, per policy) completes before any ack
            // is sent — acks never outrun durability; a failed write is no
            // write
            if !stale && put_traced(&mut **store, &self.trace, at.as_u32(), object, ckpt).is_ok() {
                self.trace.emit(
                    at.as_u32(),
                    EventKind::CheckpointStored {
                        object,
                        replica: at,
                        object_epoch,
                        seq,
                    },
                );
            }
        }
    }

    /// Applies an incoming `CheckpointPut` at node `at` and (for node-to-
    /// node puts) acks the applied list back to the sender in one message.
    /// With fencing, a put linearized under a superseded object epoch is
    /// *quietly* ignored — it is not a protocol violation, just a refresh
    /// that lost a race with a reinstantiation, and the repair sweep will
    /// re-replicate under the current epoch.
    pub(crate) fn apply_checkpoint_put(
        &self,
        at: NodeId,
        at_epoch: u64,
        mut ckpts: Vec<Shipped>,
        from: u32,
    ) {
        let Some(rec) = &self.recovery else {
            return;
        };
        self.fence(&mut ckpts, None, |_| {});
        // re-ack even when a copy was not fresher: the sender may be
        // retrying a refresh whose previous ack was lost
        let acks = versions(&ckpts);
        self.store_replicas(&mut rec.replicas.lock(), at, ckpts);
        if from != fault::CLIENT && !acks.is_empty() {
            let _ = self.send_from(
                Some((at, at_epoch)),
                NodeId::new(from),
                Message::CheckpointAck {
                    items: acks,
                    replica: at,
                },
            );
        }
    }

    /// [`Shared::count_acks`] under one guard of the replica table.
    pub(crate) fn checkpoint_ack(&self, items: &[Acked], replica: NodeId, process: u32) {
        if let Some(rec) = &self.recovery {
            self.count_acks(&mut rec.replicas.lock(), items, replica, process);
        }
    }

    /// Counts one replica's acks, each toward its own object's pending
    /// refresh; the caller holds the replica table's guard. Acks are
    /// deduplicated by replica id (duplicated or re-sent acks count once)
    /// and acks for any other `(object_epoch, seq)` than the pending write
    /// are ignored.
    fn count_acks(&self, replicas: &mut Replicas, items: &[Acked], replica: NodeId, process: u32) {
        let mut quorums = 0;
        for &(object, object_epoch, seq) in items {
            let Some(info) = replicas.objects.get_mut(&object) else {
                continue;
            };
            let Some(pending) = info.pending.as_mut() else {
                continue;
            };
            if pending.object_epoch != object_epoch
                || pending.seq != seq
                || pending.acked.contains(&replica.as_u32())
            {
                continue; // another write's ack, or one already counted
            }
            pending.acked.push(replica.as_u32());
            self.trace.emit(
                process,
                EventKind::CheckpointAcked {
                    object,
                    object_epoch,
                    seq,
                    replica,
                    quorum: pending.quorum as u32,
                },
            );
            if pending.acked.len() >= pending.quorum {
                info.pending = None;
                info.last_quorum = Some((object_epoch, seq));
                quorums += 1;
            }
        }
        self.counters
            .quorum_refreshes
            .fetch_add(quorums, Ordering::Relaxed);
    }

    /// The circuit breaker's verdict on calling `node`: `Err(NodeDown)` to
    /// fail fast, `Ok` to proceed (possibly as the half-open probe — report
    /// the outcome with [`Shared::settle_call`]).
    pub(crate) fn admit(&self, node: NodeId) -> Result<(), RuntimeError> {
        if let Some(rec) = &self.recovery {
            if matches!(rec.admit(node.index()), Admission::FailFast) {
                return Err(RuntimeError::NodeDown(node));
            }
        }
        Ok(())
    }

    /// Reports a call's transport outcome to the breaker (only a half-open
    /// probe actually transitions), counting and tracing a reopen.
    pub(crate) fn settle_call(&self, node: NodeId, success: bool) {
        if let Some(rec) = &self.recovery {
            if rec.settle(node.index(), success) {
                self.counters.breaker_opens.fetch_add(1, Ordering::Relaxed);
                self.trace
                    .emit(CLIENT_PROCESS, EventKind::BreakerOpen { node });
            }
        }
    }

    /// Marks the node's state as gone (crash stash path).
    pub(crate) fn mark_crashed(&self, node: NodeId) {
        if let Some(rec) = &self.recovery {
            rec.mark_crashed(node.index());
        }
    }

    /// Re-admits a restarting node under a fresh incarnation: marks it
    /// alive and healthy and gives an open breaker a probe slot. Returns the
    /// new incarnation the respawned state must stamp its messages with.
    pub(crate) fn rejoin(&self, node: NodeId) -> u64 {
        // the object table's guard serializes this against a concurrent
        // declare-dead: whichever runs second sees the other's verdict, and
        // the trace has the two in that order
        let _guard = self.objects.write();
        self.trace.emit(CLIENT_PROCESS, EventKind::Restart { node });
        let Some(rec) = &self.recovery else {
            return 1;
        };
        let epoch = rec.bump_incarnation(node.index());
        rec.mark_alive(node.index(), self.now_ms());
        rec.set_health(node.index(), NodeHealth::Up);
        rec.half_open_breaker(node.index());
        epoch
    }

    /// One failure-detector sweep: suspects silent or partitioned nodes,
    /// clears suspicions (and half-opens breakers) when beats resume, and
    /// declares dead the nodes whose states are actually gone.
    pub(crate) fn detector_sweep(&self) {
        let Some(rec) = &self.recovery else {
            return;
        };
        let now = self.now_ms();
        let window = rec.config.suspicion_after_ms();
        for i in 0..self.mesh.peers() as usize {
            if rec.health(i) == NodeHealth::Dead {
                continue;
            }
            let node = NodeId::new(i as u32);
            let missed = now.saturating_sub(rec.last_beat(i)) > window;
            let isolated = self.injector.is_isolated(i as u32);
            if missed && !rec.is_alive(i) {
                // silent *and* its state is gone: this is a real death
                self.declare_dead(node);
                continue;
            }
            match rec.health(i) {
                NodeHealth::Up if missed || isolated => {
                    rec.set_health(i, NodeHealth::Suspected);
                    self.counters.suspicions.fetch_add(1, Ordering::Relaxed);
                    self.trace
                        .emit(CLIENT_PROCESS, EventKind::Suspected { node });
                    if rec.open_breaker(i) {
                        self.counters.breaker_opens.fetch_add(1, Ordering::Relaxed);
                        self.trace
                            .emit(CLIENT_PROCESS, EventKind::BreakerOpen { node });
                    }
                }
                NodeHealth::Suspected if !missed && !isolated => {
                    rec.set_health(i, NodeHealth::Up);
                    self.counters
                        .false_suspicions
                        .fetch_add(1, Ordering::Relaxed);
                    rec.half_open_breaker(i);
                    self.trace
                        .emit(CLIENT_PROCESS, EventKind::SuspicionCleared { node });
                }
                NodeHealth::Up => {
                    // beating normally: an open breaker (e.g. after a failed
                    // probe or a transient timeout) gets a fresh probe slot
                    rec.half_open_breaker(i);
                }
                _ => {}
            }
        }
        self.repair_sweep();
    }

    /// One anti-entropy pass over the replica stores: for every object,
    /// re-send the freshest available copy to replica-set members that are
    /// missing it or hold an older version — healing under-replication after
    /// deaths and divergence after dropped refresh traffic. The sweep marker
    /// is emitted even when repair is sabotaged ([`Sabotage::NoRepair`]) so
    /// the checker can tell "under-replicated after repair quiesced" from
    /// "repair never ran".
    fn repair_sweep(&self) {
        let Some(rec) = &self.recovery else {
            return;
        };
        self.trace.emit(CLIENT_PROCESS, EventKind::RepairSweep);
        if rec.sabotage == Some(Sabotage::NoRepair) {
            return;
        }
        // epoch snapshot before the replica table's guard (the two are
        // never held together)
        let table = self.objects.read();
        let epochs: IdMap<ObjectId, u64> = table.iter().map(|(&o, r)| (o, r.epoch)).collect();
        drop(table);
        let mut puts = Vec::new();
        let mut repairs = 0;
        {
            let replicas = rec.replicas.lock();
            let mut objects: Vec<_> = replicas.objects.iter().collect();
            objects.sort_unstable_by_key(|&(&o, _)| o);
            let available = |n: usize| rec.replica_available(n);
            for (&object, info) in objects {
                let Some((_, freshest)) = replicas.freshest(object, available, false) else {
                    continue; // no surviving copy — nothing to replicate from
                };
                if freshest.object_epoch < epochs.get(&object).copied().unwrap_or(0) {
                    // a reinstantiation is in flight: its install will issue
                    // a refresh under the new epoch; replicating the old one
                    // would only be fenced on arrival
                    continue;
                }
                for target in rec.replica_targets(&info.order) {
                    let held = replicas.stores[target.index()].get(object);
                    if held.is_none_or(|c| c.version() < freshest.version()) {
                        group_push(&mut puts, target, (object, freshest.clone()));
                        repairs += 1;
                    }
                }
            }
        }
        self.counters.repairs.fetch_add(repairs, Ordering::Relaxed);
        // client-originated: reliable, no quorum round — repair is
        // convergence, not a new write
        self.send_puts(None, puts);
    }

    /// One lease sweep at `now_ms`, on behalf of `process`: releases (and
    /// returns) the placement locks whose leases ran out by then.
    pub(crate) fn expire_leases(&self, process: u32, now_ms: u64) -> Vec<Lock> {
        let mut policy = self.policy.lock();
        let expired = policy.expire_leases(now_ms);
        self.trace_released(process, ReleaseCause::LeaseExpiry, &expired);
        drop(policy);
        self.counters
            .leases_expired
            .fetch_add(expired.len() as u64, Ordering::Relaxed);
        expired
    }

    /// Releases the placement locks on `stranded` — objects whose host died
    /// with the blocks holding them, so no end-request can ever arrive.
    /// Idempotent: locks already released yield nothing.
    pub(crate) fn release_stranded(&self, stranded: &[ObjectId]) {
        if stranded.is_empty() {
            return;
        }
        let mut policy = self.policy.lock();
        let released = policy.release_locks_for(stranded);
        self.trace_released(CLIENT_PROCESS, ReleaseCause::Crash, &released);
    }

    /// Traces the release of each of `locks` for `cause` by `process`.
    /// Call under the policy guard: lock-state events are ordered by the
    /// policy mutex, so the trace mirrors the lock table.
    pub(crate) fn trace_released(&self, process: u32, cause: ReleaseCause, locks: &[Lock]) {
        for &(object, block) in locks {
            let released = EventKind::LockReleased {
                object,
                block,
                cause,
            };
            self.trace.emit(process, released);
        }
    }

    /// Declares `node` dead: fences its incarnation, bumps the epochs of the
    /// objects it hosted, releases their placement locks and reinstantiates
    /// them from their checkpoints at live nodes.
    fn declare_dead(&self, node: NodeId) {
        let Some(rec) = &self.recovery else {
            return;
        };
        let i = node.index();
        // Verdict, snapshot, epoch bump and their trace under one guard of
        // the object table; everything that sends (or takes another lock)
        // comes after.
        let reinstated: Vec<(ObjectId, u64)> = {
            let mut objects = self.objects.write();
            if rec.is_alive(i) || rec.health(i) == NodeHealth::Dead {
                // restarted concurrently, or a racing sweep got here first
                return;
            }
            rec.set_health(i, NodeHealth::Dead);
            rec.bump_incarnation(i);
            if rec.open_breaker(i) {
                self.counters.breaker_opens.fetch_add(1, Ordering::Relaxed);
                self.trace
                    .emit(CLIENT_PROCESS, EventKind::BreakerOpen { node });
            }
            self.trace
                .emit(CLIENT_PROCESS, EventKind::DeclaredDead { node });
            let mut stranded: Vec<(ObjectId, u64)> = objects
                .iter_mut()
                .filter(|(_, r)| r.at == Some(node))
                .map(|(&o, r)| {
                    r.epoch += 1;
                    (o, r.epoch)
                })
                .collect();
            // in id order: the order of the reinstantiations and their trace
            stranded.sort_unstable();
            stranded
        };
        let stranded: Vec<ObjectId> = reinstated.iter().map(|&(o, _)| o).collect();
        self.release_stranded(&stranded);
        // one guard of the replica table: the dead node's holdings died
        // with it (a clear() persists a tombstone record on WAL-backed
        // stores; epoch floors survive it by the store contract), the bumped
        // epochs persist as floors at every surviving store, so a cold
        // restart cannot reinstantiate below them, and each object's source
        // is the freshest surviving replica — ordered by (object epoch,
        // refresh sequence), inverted by the stale-promotion sabotage
        let promoted: Vec<_> = {
            let mut replicas = rec.replicas.lock();
            let _ = replicas.stores[i].clear();
            let stores = replicas.stores.iter_mut().enumerate();
            for (n, store) in stores.filter(|&(n, _)| n != i) {
                let synced = store.wal_stats().synced;
                for &(object, epoch) in &reinstated {
                    let _ = store.note_epoch(object, epoch);
                }
                trace_synced(&**store, &self.trace, n as u32, synced);
            }
            let stalest = rec.sabotage == Some(Sabotage::StalePromotion);
            let available = |n: usize| rec.replica_available(n);
            // an object without a replication record predates the
            // detector; one without a surviving copy is lost until a node
            // restart
            let source = |(object, epoch)| {
                let home = replicas.objects.get(&object)?.order[0];
                let (replica, ckpt) = replicas.freshest(object, available, stalest)?;
                Some((object, epoch, home, replica, ckpt.clone()))
            };
            reinstated.into_iter().filter_map(source).collect()
        };
        let mut installs = Vec::new();
        for (object, epoch, home, replica, mut ckpt) in promoted {
            self.trace.emit(
                CLIENT_PROCESS,
                EventKind::PromotedFrom {
                    object,
                    replica,
                    object_epoch: ckpt.object_epoch,
                    seq: ckpt.seq,
                },
            );
            let Some(target) = self.pick_target(home, node) else {
                continue; // no live node to host it — stays lost until a restart
            };
            // directory first: invocations park at the target until the
            // Install drains, exactly like creation
            self.place(object, target);
            self.trace.emit(
                CLIENT_PROCESS,
                EventKind::Reinstantiated {
                    object,
                    at: target,
                    epoch,
                },
            );
            self.counters
                .reinstantiations
                .fetch_add(1, Ordering::Relaxed);
            // the promoted copy travels under the bumped epoch
            ckpt.object_epoch = epoch;
            group_push(&mut installs, target, (object, ckpt));
        }
        for (target, members) in installs {
            let install = Message::Install {
                members,
                install_for: None,
            };
            let _ = self.send_from(None, target, install);
        }
    }

    /// Where to reinstantiate: the object's home if it is live and healthy,
    /// else the lowest-indexed live healthy node.
    fn pick_target(&self, home: NodeId, dead: NodeId) -> Option<NodeId> {
        let rec = self.recovery.as_ref()?;
        let usable = |n: NodeId| {
            n != dead && rec.is_alive(n.index()) && rec.health(n.index()) == NodeHealth::Up
        };
        if usable(home) {
            return Some(home);
        }
        (0..self.mesh.peers()).map(NodeId::new).find(|&n| usable(n))
    }
}

/// What a `CheckpointAck` says about each of `ckpts`.
fn versions(ckpts: &[Shipped]) -> Vec<Acked> {
    let version = |(object, ckpt): &Shipped| (*object, ckpt.object_epoch, ckpt.seq);
    ckpts.iter().map(version).collect()
}

/// Clones the faultable control messages (the only ones that can be
/// duplicated); state transfer is never cloned.
fn clone_control(msg: &Message) -> Option<Message> {
    match msg {
        Message::Invoke {
            object,
            request,
            method_len,
            hops,
            reply,
        } => Some(Message::Invoke {
            object: *object,
            request: request.clone(),
            method_len: *method_len,
            hops: *hops,
            reply: reply.clone(),
        }),
        Message::MoveRequest {
            object,
            to,
            block,
            context,
            hops,
            expires,
            reply,
        } => Some(Message::MoveRequest {
            object: *object,
            to: *to,
            block: *block,
            context: *context,
            hops: *hops,
            expires: *expires,
            reply: reply.clone(),
        }),
        Message::EndRequest {
            object,
            block,
            from,
            was_granted,
            context,
            hops,
        } => Some(Message::EndRequest {
            object: *object,
            block: *block,
            from: *from,
            was_granted: *was_granted,
            context: *context,
            hops: *hops,
        }),
        Message::CheckpointPut { items } => Some(Message::CheckpointPut {
            items: items.clone(),
        }),
        Message::CheckpointAck { items, replica } => Some(Message::CheckpointAck {
            items: items.clone(),
            replica: *replica,
        }),
        _ => None,
    }
}

/// Configures a [`Cluster`].
///
/// See the crate-level documentation for a full example.
#[derive(Debug)]
pub struct ClusterBuilder {
    nodes: u32,
    policy: PolicyKind,
    attachment_mode: AttachmentMode,
    fault_plan: Option<FaultPlan>,
    call_timeout: Duration,
    invoke_retries: u32,
    lease_ms: Option<u64>,
    manual_clock: bool,
    trace: bool,
    detector: Option<DetectorConfig>,
    replication_k: usize,
    sabotage: Option<Sabotage>,
    store_dir: Option<std::path::PathBuf>,
    store_fsync: FsyncPolicy,
}

impl ClusterBuilder {
    /// Number of nodes. Defaults to 2.
    #[must_use]
    pub fn nodes(mut self, n: u32) -> Self {
        assert!(n > 0, "a cluster needs at least one node");
        self.nodes = n;
        self
    }

    /// The migration policy interpreting `move()`-requests. Defaults to
    /// transient placement.
    #[must_use]
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// The attachment semantics. Defaults to unrestricted.
    #[must_use]
    pub fn attachment_mode(mut self, mode: AttachmentMode) -> Self {
        self.attachment_mode = mode;
        self
    }

    /// Installs a seeded fault plan: drops, delays, duplicates and
    /// partitions for control messages. Without one the cluster is
    /// fault-free (but partitions and crashes are still available).
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The deadline for each blocking client call (per attempt). Defaults
    /// to 5 seconds.
    ///
    /// # Panics
    ///
    /// Panics on a zero timeout.
    #[must_use]
    pub fn call_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "a zero call timeout cannot succeed");
        self.call_timeout = timeout;
        self
    }

    /// How many times a timed-out invocation is re-sent (invocations are
    /// the only idempotent-by-contract call; moves and creates are never
    /// retried). Defaults to 2.
    #[must_use]
    pub fn invoke_retries(mut self, retries: u32) -> Self {
        self.invoke_retries = retries;
        self
    }

    /// Makes placement locks leases expiring after `ttl_ms` of inactivity
    /// (see [`oml_core::lease::LeaseTable`]). Without this, locks are held
    /// until their end-request arrives — forever, if it never does.
    ///
    /// # Panics
    ///
    /// Panics if `ttl_ms` is zero.
    #[must_use]
    pub fn lease_ms(mut self, ttl_ms: u64) -> Self {
        assert!(ttl_ms > 0, "a lease needs a positive duration");
        self.lease_ms = Some(ttl_ms);
        self
    }

    /// Replaces the cluster's wall clock with a counter advanced only by
    /// [`Cluster::advance_clock`], which leases, the failure detector and
    /// the timer heap all read. The cluster starts no thread: whoever
    /// advances the clock runs what fell due, in an order its inputs fix.
    #[must_use]
    pub fn manual_clock(mut self) -> Self {
        self.manual_clock = true;
        self
    }

    /// Enables the failure detector — and with it the whole crash-recovery
    /// subsystem: heartbeats, suspicion after `k_missed * heartbeat_ms` of
    /// silence, epoch fencing, passive home checkpoints, reinstantiation of
    /// a dead node's objects, and per-node circuit breakers (calls to
    /// suspected or dead nodes fail fast with
    /// [`RuntimeError::NodeDown`]). Without this call the runtime behaves
    /// exactly as before.
    ///
    /// Under a wall clock the cluster's timer sweeps the detector every
    /// `heartbeat_ms`; under [`ClusterBuilder::manual_clock`] the nodes beat
    /// as the clock advances, and the caller sweeps
    /// ([`Cluster::detector_sweep`]).
    ///
    /// # Panics
    ///
    /// Panics if `heartbeat_ms` or `k_missed` is zero.
    #[must_use]
    pub fn failure_detector(mut self, heartbeat_ms: u64, k_missed: u32) -> Self {
        assert!(heartbeat_ms > 0, "a zero heartbeat interval cannot beat");
        assert!(k_missed > 0, "suspicion needs at least one missed beat");
        self.detector = Some(DetectorConfig {
            heartbeat_ms,
            k_missed,
        });
        self
    }

    /// Sets the checkpoint replication factor `k = f + 1`: how many nodes
    /// hold each object's passive copy (home-preferred, rendezvous-hashed;
    /// clamped to the number of *available* nodes at placement time). The
    /// default of 2 survives any single-node failure, including the host;
    /// `k` survives any `k - 1` simultaneous failures once a refresh has
    /// reached its quorum. `k = 1` reproduces the old single-home-checkpoint
    /// behaviour — and its host+home double-crash data loss. Meaningless
    /// without [`ClusterBuilder::failure_detector`].
    ///
    /// # Panics
    ///
    /// Panics on `k = 0` (an unreplicated checkpoint is no checkpoint).
    #[must_use]
    pub fn replication(mut self, k: usize) -> Self {
        assert!(k > 0, "replication factor must be at least 1");
        self.replication_k = k;
        self
    }

    /// Breaks one recovery mechanism on purpose — the negative controls
    /// that show an `oml-check` invariant bites (see [`Sabotage`]).
    /// Meaningless without [`ClusterBuilder::failure_detector`].
    #[must_use]
    pub fn sabotage(mut self, sabotage: Sabotage) -> Self {
        self.sabotage = Some(sabotage);
        self
    }

    /// Backs every node's replica store with an on-disk [`crate::WalStore`]
    /// at `dir/node-<i>` under `fsync`: checkpoint puts are acknowledged
    /// only once the record is durable per policy, and a cold restart of
    /// the whole cluster (same `dir`) replays snapshot + WAL, truncates
    /// torn tails and seeds the object-epoch table from the persisted
    /// floors so fencing survives the restart. Meaningless without
    /// [`ClusterBuilder::failure_detector`].
    #[must_use]
    pub fn durable_store(mut self, dir: impl Into<std::path::PathBuf>, fsync: FsyncPolicy) -> Self {
        self.store_dir = Some(dir.into());
        self.store_fsync = fsync;
        self
    }

    /// Enables protocol trace collection: every node (and the client
    /// facade) records the structured events `oml-check` replays —
    /// sends/receives with message ids, residency transitions, move
    /// decisions, lock and lease activity, closure transfers, crashes.
    /// Drain the trace with [`Cluster::take_trace`] and feed it to
    /// [`oml_check::check_trace`].
    #[must_use]
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Builds the running cluster: under a wall clock with its one thread,
    /// `oml-timer`; under [`ClusterBuilder::manual_clock`] with none.
    #[must_use]
    pub fn build(self) -> Cluster {
        let mesh = ChannelMesh::owned(self.nodes, MeshConfig::default());
        let leases_expire = self.lease_ms.is_some();
        let policy = match self.lease_ms {
            Some(ttl) => self.policy.build_with_lease(ttl),
            None => self.policy.build(),
        };
        let plan = self.fault_plan.unwrap_or_else(|| FaultPlan::seeded(0));
        let jitter_seed = plan.seed();
        // per-node cold-recovery events (WAL-backed stores only), traced
        // once the collector exists
        let mut recovered: Vec<(u32, EventKind)> = Vec::new();
        let mut objects = IdMap::default();
        let recovery = self.detector.map(|cfg| {
            let stores: Vec<Box<dyn CheckpointStore>> = match &self.store_dir {
                Some(dir) => (0..self.nodes)
                    .map(|i| {
                        let cfg = crate::store::WalStoreConfig::with_fsync(
                            dir.join(format!("node-{i}")),
                            self.store_fsync,
                        );
                        let (store, report) = crate::store::WalStore::open(cfg)
                            .unwrap_or_else(|e| panic!("durable store node-{i}: {e}"));
                        recovered.push((i, cold_recovered(i, &store, &report)));
                        Box::new(store) as Box<dyn CheckpointStore>
                    })
                    .collect(),
                None => (0..self.nodes)
                    .map(|_| Box::new(crate::store::MemStore::new()) as Box<dyn CheckpointStore>)
                    .collect(),
            };
            objects = epoch_floors(&stores);
            RecoveryState::new(
                self.nodes as usize,
                cfg,
                self.replication_k,
                self.sabotage,
                stores,
            )
        });
        let shared = Arc::new(Shared {
            mesh,
            timer: OrderedMutex::new("shared.timer", Timer::default()),
            born: Instant::now(),
            objects: OrderedRwLock::new("shared.objects", objects),
            policy: OrderedMutex::new("shared.policy", policy),
            leases_expire,
            cooperation: OrderedMutex::new(
                "shared.cooperation",
                Cooperation {
                    attachments: AttachmentGraph::new(self.attachment_mode),
                    alliances: AllianceRegistry::new(),
                },
            ),
            registry: TypeRegistry::new(),
            counters: Counters::default(),
            injector: FaultInjector::new(plan),
            stash: OrderedMutex::new("shared.stash", Vec::new()),
            recovery,
            manual_clock: self.manual_clock.then(|| AtomicU64::new(0)),
            trace: TraceCollector::new(self.trace),
            call_timeout: self.call_timeout,
            invoke_retries: self.invoke_retries,
            jitter: AtomicU64::new(jitter_seed),
            next_object: AtomicU32::new(0),
            next_block: AtomicU32::new(0),
            closing: AtomicBool::new(false),
            down: AtomicBool::new(false),
        });
        if shared.recovery.is_some() {
            // one-shot configuration marker: arms the checker's replication
            // invariants (a trace without it is checked as before)
            shared.trace.emit(
                CLIENT_PROCESS,
                EventKind::ReplicationFactor {
                    k: self.replication_k as u32,
                    nodes: self.nodes,
                },
            );
            // cold-recovery markers: arm the checker's durability
            // invariants and record the recovered epoch floors
            for (node, event) in recovered {
                shared.trace.emit(node, event);
            }
        }
        for i in 0..self.nodes {
            let node = NodeWorker::new(NodeId::new(i), Arc::clone(&shared), 1);
            shared.mesh.put(i, Some(Box::new(node)));
        }
        // one heap serves every node's tick, and under a wall clock the
        // detector's sweeps; under a manual clock the caller sweeps
        let mut timer = shared.timer.lock();
        for i in 0..self.nodes {
            let first = next_on_grid(0, TICK_MS);
            timer.due.push(SimTime::new(first as f64), Due::Tick(i));
        }
        if !self.manual_clock {
            if shared.recovery.is_some() {
                timer.due.push(SimTime::ZERO, Due::Sweep);
            }
            // the thread's first look at the heap waits for this guard
            let serving = Arc::clone(&shared);
            let thread = std::thread::Builder::new()
                .name("oml-timer".to_owned())
                .spawn(move || serving.serve_timer())
                .expect("spawn the cluster's timer");
            timer.thread = Some(thread);
        }
        drop(timer);
        Cluster { shared }
    }
}

/// A running multi-node object system.
pub struct Cluster {
    shared: Arc<Shared>,
}

impl Cluster {
    /// Starts configuring a cluster.
    #[must_use]
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            nodes: 2,
            policy: PolicyKind::TransientPlacement,
            attachment_mode: AttachmentMode::Unrestricted,
            fault_plan: None,
            call_timeout: Duration::from_secs(5),
            invoke_retries: 2,
            lease_ms: None,
            manual_clock: false,
            trace: false,
            detector: None,
            replication_k: 2,
            sabotage: None,
            store_dir: None,
            store_fsync: FsyncPolicy::Always,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        self.shared.mesh.peers()
    }

    /// Registers the delinearizer for a type tag. Must happen before any
    /// object of that type migrates (migrations of unregistered types are
    /// refused rather than losing the object).
    pub fn register_type(&self, tag: &str, f: Delinearizer) {
        self.shared.registry.register(tag, f);
    }

    /// Creates `instance` at `node` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownNode`] for an out-of-range node,
    /// [`RuntimeError::ShuttingDown`] if the cluster is stopping,
    /// [`RuntimeError::NodeDown`] immediately when the failure detector has
    /// the node suspected or dead, and [`RuntimeError::Timeout`] when the
    /// deadline elapses (e.g. the node is crashed without a detector).
    pub fn create(
        &self,
        node: NodeId,
        instance: Box<dyn MobileObject>,
    ) -> Result<ObjectId, RuntimeError> {
        self.check_node(node)?;
        self.check_live()?;
        self.shared.admit(node)?;
        let object = ObjectId::new(self.shared.next_object.fetch_add(1, Ordering::Relaxed));
        // the directory knows the object before the Create lands, so early
        // invocations park at the right node
        self.shared.place(object, node);
        // the home checkpoint starts as the object's birth state, and the
        // host keeps that copy as the object's image
        let image = self
            .shared
            .checkpoint_init(object, node, &*instance)
            .map(Box::new);
        let (reply, rx) = channel::call();
        self.shared.send_from(
            None,
            node,
            Message::Create {
                object,
                instance,
                image,
                reply,
            },
        )?;
        let res = self.await_reply(&rx);
        self.shared.settle_call(node, res.is_ok());
        res??;
        Ok(object)
    }

    /// Invokes `method` on the object, wherever it currently is. Blocks
    /// until the result message returns or the deadline elapses; a timed-out
    /// attempt is retried (with exponential backoff and seeded jitter, and a
    /// fresh directory lookup per attempt) up to
    /// [`ClusterBuilder::invoke_retries`] times — an invocation that timed
    /// out may still have executed, so callers get at-least-once semantics
    /// under faults.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`]: unknown object, method failure,
    /// forwarding exhaustion, shutdown, [`RuntimeError::NodeDown`] when
    /// every attempt was failed fast by the circuit breaker, or
    /// [`RuntimeError::Timeout`] once every attempt's deadline elapsed.
    pub fn invoke(
        &self,
        object: ObjectId,
        method: &str,
        payload: &[u8],
    ) -> Result<Vec<u8>, RuntimeError> {
        self.check_live()?;
        let timeout = self.shared.call_timeout;
        let attempts = self.shared.invoke_retries.saturating_add(1);
        let mut waited_ms = 0u64;
        let mut backoff_ms = 2u64;
        let mut fast_fail: Option<RuntimeError> = None;
        for attempt in 0..attempts {
            // re-resolve: the object may have moved (or its node restarted,
            // or the object been reinstantiated elsewhere) since the lost
            // attempt
            let node = self.locate(object)?;
            if let Err(down) = self.shared.admit(node) {
                // fail fast without touching the wire (no fault-plan
                // sequence is consumed, so seeded runs stay reproducible);
                // back off and re-resolve — a reinstantiation may land
                fast_fail = Some(down);
                if attempt + 1 < attempts {
                    self.shared.back_off(&mut backoff_ms);
                }
                continue;
            }
            fast_fail = None;
            let (reply, rx) = channel::call();
            self.shared.send_from(
                None,
                node,
                Message::Invoke {
                    object,
                    request: [method.as_bytes(), payload].concat(),
                    method_len: method.len(),
                    hops: MAX_HOPS,
                    reply,
                },
            )?;
            match rx.recv_timeout(timeout) {
                Ok(res) => {
                    self.shared.settle_call(node, true);
                    return res;
                }
                Err(_) => {
                    // Timeout, or every handle on our reply slot dropped
                    // unanswered — both mean "no answer within the deadline"
                    self.shared.settle_call(node, false);
                    waited_ms += timeout.as_millis() as u64;
                    self.shared
                        .counters
                        .timeouts
                        .fetch_add(1, Ordering::Relaxed);
                    if attempt + 1 < attempts {
                        self.shared.back_off(&mut backoff_ms);
                    }
                }
            }
        }
        if self.shared.is_closing() {
            Err(RuntimeError::ShuttingDown)
        } else if let Some(down) = fast_fail {
            Err(down)
        } else {
            Err(RuntimeError::Timeout { waited_ms })
        }
    }

    /// Opens a move-block: requests migration of `object` (and its
    /// attachment closure) to `to` and returns an RAII guard whose `Drop`
    /// issues the `end`-request. Check [`MoveGuard::granted`] — under
    /// transient placement a concurrent holder leads to a denial, in which
    /// case invocations simply stay remote.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`].
    pub fn move_block(&self, object: ObjectId, to: NodeId) -> Result<MoveGuard<'_>, RuntimeError> {
        self.move_block_in(object, to, None)
    }

    /// Like [`Cluster::move_block`], with an explicit cooperation context:
    /// the migration drags the A-transitive closure of that alliance (§3.4).
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`].
    pub fn move_block_in(
        &self,
        object: ObjectId,
        to: NodeId,
        context: Option<AllianceId>,
    ) -> Result<MoveGuard<'_>, RuntimeError> {
        self.check_node(to)?;
        self.check_live()?;
        let node = self.locate(object)?;
        // both ends must be admitted: the host processes the request, the
        // destination receives the object
        self.shared.admit(node)?;
        if let Err(down) = self.shared.admit(to) {
            // hand back the probe slot admit(node) may have claimed
            self.shared.settle_call(node, false);
            return Err(down);
        }
        let block = BlockId::new(self.shared.next_block.fetch_add(1, Ordering::Relaxed));
        self.shared.trace.emit(
            CLIENT_PROCESS,
            EventKind::MoveRequested { object, to, block },
        );
        let (reply, rx) = channel::call();
        self.shared.send_from(
            None,
            node,
            Message::MoveRequest {
                object,
                to,
                block,
                context,
                hops: MAX_HOPS,
                // the request carries the same deadline await_reply enforces:
                // a node that sees it later than this denies it, so a move
                // this caller gave up on can never be granted behind its back
                expires: Instant::now() + self.shared.call_timeout,
                reply,
            },
        )?;
        // one attempt only: a move is not idempotent (re-sending could
        // grant twice under two blocks)
        let res = self.await_reply(&rx);
        self.shared.settle_call(node, res.is_ok());
        self.shared.settle_call(to, res.is_ok());
        let granted = res??;
        Ok(MoveGuard {
            cluster: self,
            object,
            block,
            from: to,
            context,
            granted,
            migrate_back: None,
            ended: false,
        })
    }

    /// A `visit`-block (§2.3): a move combined with a migrate-back — on drop
    /// the guard issues the end-request and sends the object home.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`].
    pub fn visit_block(&self, object: ObjectId, to: NodeId) -> Result<MoveGuard<'_>, RuntimeError> {
        let origin = self.location_of(object);
        let mut guard = self.move_block_in(object, to, None)?;
        if guard.granted {
            guard.migrate_back = origin.filter(|&o| o != to);
        }
        Ok(guard)
    }

    /// Executes an operation declared with `move`/`visit` parameter modes
    /// (§2.3, Fig. 1): call-by-move / call-by-visit.
    ///
    /// Each `move` argument is migrated to the callee's node for the
    /// duration of the invocation and stays there; each `visit` argument
    /// migrates back afterwards; `ref` arguments are untouched. Whether a
    /// parameter migration is honoured is, as always, up to the installed
    /// policy — under transient placement a locked argument simply stays
    /// remote and the call proceeds anyway.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ArityMismatch`] if `args` does not match the
    /// declaration, plus everything [`Cluster::invoke`] can report.
    pub fn invoke_with_decl(
        &self,
        callee: ObjectId,
        decl: &oml_core::lang::OperationDecl,
        args: &[ObjectId],
        payload: &[u8],
    ) -> Result<Vec<u8>, RuntimeError> {
        use oml_core::lang::ParamMode;

        if args.len() != decl.params.len() {
            return Err(RuntimeError::ArityMismatch {
                expected: decl.params.len(),
                got: args.len(),
            });
        }
        let callee_node = self.locate(callee)?;

        // open the parameter move-blocks; the guards end them (and run the
        // visit migrate-backs) when the invocation completes
        let mut guards = Vec::new();
        for (&arg, mode) in args.iter().zip(decl.modes()) {
            match mode {
                ParamMode::Ref => {}
                ParamMode::Move => guards.push(self.move_block(arg, callee_node)?),
                ParamMode::Visit => guards.push(self.visit_block(arg, callee_node)?),
            }
        }
        let result = self.invoke(callee, &decl.name, payload);
        drop(guards);
        result
    }

    /// Where the object currently is (per the directory).
    #[must_use]
    pub fn location_of(&self, object: ObjectId) -> Option<NodeId> {
        self.shared.object(object).at
    }

    /// A snapshot of every object's current location, in id order — the
    /// operator's view of the placement the policies produced.
    #[must_use]
    pub fn placement_snapshot(&self) -> Vec<(ObjectId, NodeId)> {
        let objects = self.shared.objects.read();
        let mut v: Vec<(ObjectId, NodeId)> = objects
            .iter()
            .filter_map(|(&o, r)| Some((o, r.at?)))
            .collect();
        v.sort_unstable_by_key(|&(o, _)| o);
        v
    }

    /// How many objects each node currently hosts (index = node id) — a
    /// quick load-balance view.
    #[must_use]
    pub fn occupancy(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.shared.mesh.peers() as usize];
        for (_, node) in self.placement_snapshot() {
            counts[node.index()] += 1;
        }
        counts
    }

    /// A snapshot of the cluster's activity counters.
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        use std::sync::atomic::Ordering::Relaxed;
        let c = &self.shared.counters;
        ClusterStats {
            invocations: c.invocations.load(Relaxed),
            moves_granted: c.moves_granted.load(Relaxed),
            moves_denied: c.moves_denied.load(Relaxed),
            objects_migrated: c.objects_migrated.load(Relaxed),
            forwards: c.forwards.load(Relaxed),
            timeouts: c.timeouts.load(Relaxed),
            retries: c.retries.load(Relaxed),
            leases_expired: c.leases_expired.load(Relaxed),
            suspicions: c.suspicions.load(Relaxed),
            false_suspicions: c.false_suspicions.load(Relaxed),
            reinstantiations: c.reinstantiations.load(Relaxed),
            fenced_stale: c.fenced_stale.load(Relaxed),
            breaker_opens: c.breaker_opens.load(Relaxed),
            checkpoint_refreshes: c.checkpoint_refreshes.load(Relaxed),
            quorum_refreshes: c.quorum_refreshes.load(Relaxed),
            quorum_refresh_failures: c.quorum_refresh_failures.load(Relaxed),
            repairs: c.repairs.load(Relaxed),
        }
    }

    /// Per-object checkpoint durability margins, in object-id order: live
    /// replica count, refresh age and the freshest quorum-acked write.
    /// Empty without a failure detector.
    #[must_use]
    pub fn checkpoint_health(&self) -> Vec<CheckpointHealth> {
        let Some(rec) = &self.shared.recovery else {
            return Vec::new();
        };
        let now = self.shared.now_ms();
        let replicas = rec.replicas.lock();
        let live = replicas.stores.iter().enumerate();
        let live = live.filter(|&(n, _)| rec.replica_available(n));
        let mut counts: IdMap<ObjectId, u32> = IdMap::default();
        for object in live.flat_map(|(_, store)| store.objects()) {
            *counts.entry(object).or_default() += 1;
        }
        let mut v: Vec<CheckpointHealth> = replicas
            .objects
            .iter()
            .map(|(&object, info)| CheckpointHealth {
                object,
                replicas: counts.get(&object).copied().unwrap_or(0),
                refresh_age_ms: now.saturating_sub(info.last_refresh_at_ms),
                quorum: info.last_quorum,
            })
            .collect();
        drop(replicas);
        v.sort_unstable_by_key(|h| h.object);
        v
    }

    /// The object's current replica set: the first `k` *available* nodes in
    /// its deterministic placement preference order (home first, then
    /// rendezvous-hashed). `None` without a detector or for an unknown
    /// object.
    #[must_use]
    pub fn replica_set(&self, object: ObjectId) -> Option<Vec<NodeId>> {
        let rec = self.shared.recovery.as_ref()?;
        let replicas = rec.replicas.lock();
        Some(
            rec.replica_targets(&replicas.objects.get(&object)?.order)
                .collect(),
        )
    }

    /// The object's current epoch: 0 at birth, bumped by every
    /// reinstantiation. Always 0 without a failure detector.
    #[must_use]
    pub fn object_epoch(&self, object: ObjectId) -> u64 {
        self.shared.object(object).epoch
    }

    /// Whether the object is currently resident at `node`.
    #[must_use]
    pub fn is_resident(&self, object: ObjectId, node: NodeId) -> bool {
        self.location_of(object) == Some(node)
    }

    /// `fix()` — transiently pins the object (§2.2).
    pub fn fix(&self, object: ObjectId) {
        let mut objects = self.shared.objects.write();
        objects.entry(object).or_default().mobility.fix();
    }

    /// `unfix()` — lifts a transient fix.
    pub fn unfix(&self, object: ObjectId) {
        let mut objects = self.shared.objects.write();
        objects.entry(object).or_default().mobility.unfix();
    }

    /// `refix()` — re-establishes a transient fix.
    pub fn refix(&self, object: ObjectId) {
        let mut objects = self.shared.objects.write();
        objects.entry(object).or_default().mobility.refix();
    }

    /// `attach(object, to)` in an optional cooperation context.
    ///
    /// # Errors
    ///
    /// Propagates [`AttachError`] (self-attachment, unknown alliance,
    /// non-member endpoints).
    pub fn attach(
        &self,
        object: ObjectId,
        to: ObjectId,
        context: Option<AllianceId>,
    ) -> Result<AttachOutcome, AttachError> {
        let outcome = {
            let mut cooperation = self.shared.cooperation.lock();
            let Cooperation {
                attachments,
                alliances,
            } = &mut *cooperation;
            attachments.attach_checked(object, to, context, alliances)
        };
        if outcome.is_ok() {
            self.shared
                .trace
                .emit(CLIENT_PROCESS, EventKind::Attach { a: object, b: to });
        }
        outcome
    }

    /// `detach(object, to)`; returns whether an edge was removed.
    pub fn detach(&self, object: ObjectId, to: ObjectId) -> bool {
        let removed = self
            .shared
            .cooperation
            .lock()
            .attachments
            .detach(object, to);
        if removed {
            self.shared
                .trace
                .emit(CLIENT_PROCESS, EventKind::Detach { a: object, b: to });
        }
        removed
    }

    /// Creates an alliance.
    pub fn create_alliance(&self, name: &str) -> AllianceId {
        self.shared.cooperation.lock().alliances.create(name)
    }

    /// Adds an object to an alliance.
    ///
    /// # Errors
    ///
    /// Propagates [`oml_core::error::AllianceError`].
    pub fn join_alliance(
        &self,
        alliance: AllianceId,
        object: ObjectId,
    ) -> Result<(), oml_core::error::AllianceError> {
        self.shared
            .cooperation
            .lock()
            .alliances
            .join(alliance, object)
    }

    /// Crashes `node`: once whoever runs it puts its state back, the state
    /// is taken out of its slot, stashes the hosted objects (they survive
    /// the "machine", like disk state) and is gone. Messages keep queueing
    /// for the node and are processed after [`Cluster::restart_node`];
    /// until then, calls against its objects time out. Idempotent —
    /// crashing a crashed node is a no-op.
    ///
    /// Placement locks on the stashed objects were *volatile* state of the
    /// dead host: the blocks holding them ran there and their end-requests
    /// can never arrive, so the policy releases them here instead of leaving
    /// the objects locked until lease expiry (or forever, without a TTL).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownNode`] for an out-of-range node.
    pub fn crash_node(&self, node: NodeId) -> Result<(), RuntimeError> {
        self.check_node(node)?;
        let (mesh, at) = (&self.shared.mesh, node.as_u32());
        let stranded = mesh.take(at).map(|mut state| state.stash_for_crash());
        mesh.put(at, None);
        let Some(stranded) = stranded else {
            return Ok(());
        };
        self.shared
            .trace
            .emit(CLIENT_PROCESS, EventKind::Crash { node });
        // release the locks the stashed objects' dead blocks held
        self.shared.release_stranded(&stranded);
        Ok(())
    }

    /// Restarts a crashed node: a fresh state takes its slot, reclaims the
    /// stashed objects and runs what queued meanwhile.
    ///
    /// With a failure detector the node rejoins under a **fresh
    /// incarnation**: its old epoch stays fenced, and reclamation skips any
    /// stashed object that was reinstantiated elsewhere while the node was
    /// down — the restarted node does not reclaim what it no longer owns.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownNode`] for an out-of-range node,
    /// [`RuntimeError::ShuttingDown`] once the cluster is stopping, and
    /// [`RuntimeError::NotDead`] while the node's current incarnation is
    /// running — restarting a live node would bump its incarnation out from
    /// under it and re-seed its health inconsistently, so only crashed
    /// nodes, or ones a zombie's stale state occupies, can be restarted.
    pub fn restart_node(&self, node: NodeId) -> Result<(), RuntimeError> {
        if self.respawn(node, || self.shared.rejoin(node))? {
            Ok(())
        } else {
            Err(RuntimeError::NotDead(node))
        }
    }

    /// The shared tail of [`Cluster::restart_node`] and
    /// [`Cluster::zombie_restart_node`]: a new state of `node`, under the
    /// incarnation `epoch` picks and traces the restart with, reclaims the stash and takes the slot a
    /// crash left empty or a stale state occupies (`ChannelMesh::put`).
    /// `Ok(false)`, with nothing touched, while a current state occupies it.
    /// Holding the slot makes check and swap atomic against a concurrent
    /// restart or crash.
    fn respawn(&self, node: NodeId, epoch: impl FnOnce() -> u64) -> Result<bool, RuntimeError> {
        self.check_node(node)?;
        self.check_live()?;
        let (mesh, at) = (&self.shared.mesh, node.as_u32());
        if let Some(held) = mesh.take(at).filter(|state| state.is_current()) {
            mesh.put(at, Some(held));
            return Ok(false);
        }
        let mut state = Box::new(NodeWorker::new(node, Arc::clone(&self.shared), epoch()));
        // a fenced one — a newer incarnation exists — touches nothing
        if !state.is_fenced() {
            state.reclaim_stash();
        }
        mesh.put(at, Some(state));
        Ok(true)
    }

    /// Fault-injection hook: restarts a crashed node under its **old**
    /// incarnation — a "zombie" that believes it still owns its stashed
    /// objects. With fencing (the default) the zombie is fenced and dropped
    /// without reclaiming anything; under [`Sabotage::Unfenced`] it
    /// double-installs state the cluster already reinstantiated elsewhere —
    /// the corruption `oml-check`'s stale-incarnation invariant flags — and
    /// only the heap's ticks run its messages. Idempotent on a running node.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownNode`] for an out-of-range node,
    /// [`RuntimeError::ShuttingDown`] once the cluster is stopping.
    pub fn zombie_restart_node(&self, node: NodeId) -> Result<(), RuntimeError> {
        // the incarnation it crashed with: one before the current fence
        let stale_epoch = || {
            let restart = EventKind::Restart { node };
            self.shared.trace.emit(CLIENT_PROCESS, restart);
            let current = self.shared.incarnation(node.as_u32());
            current.saturating_sub(1).max(1)
        };
        self.respawn(node, stale_epoch).map(|_| ())
    }

    /// Runs one failure-detector sweep at the current clock, on this thread:
    /// suspects silent or partitioned nodes, clears suspicions whose beats
    /// resumed, and declares dead (reinstantiating their objects) the silent
    /// nodes whose states are actually gone. Under a wall clock the timer
    /// calls this every heartbeat; under a manual clock the caller does,
    /// after [`Cluster::advance_clock`] ran the ticks that beat.
    pub fn detector_sweep(&self) {
        self.shared.detector_sweep();
    }

    /// The failure detector's current verdict on `node`; `None` without a
    /// detector or for an out-of-range node.
    #[must_use]
    pub fn node_health(&self, node: NodeId) -> Option<NodeHealth> {
        if node.index() >= self.shared.mesh.peers() as usize {
            return None;
        }
        self.shared
            .recovery
            .as_ref()
            .map(|rec| rec.health(node.index()))
    }

    /// Severs the link between two nodes (both directions) for control
    /// messages until [`Cluster::heal`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownNode`] for an out-of-range node.
    pub fn partition(&self, a: NodeId, b: NodeId) -> Result<(), RuntimeError> {
        self.check_node(a)?;
        self.check_node(b)?;
        self.shared.injector.partition(a, b);
        self.trace_partition(a, b, true);
        Ok(())
    }

    /// Heals a partition created by [`Cluster::partition`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnknownNode`] for an out-of-range node.
    pub fn heal(&self, a: NodeId, b: NodeId) -> Result<(), RuntimeError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if self.shared.injector.heal(a, b) {
            self.trace_partition(a, b, false);
        }
        Ok(())
    }

    /// Heals every partition.
    pub fn heal_all(&self) {
        for (a, b) in self.shared.injector.heal_all() {
            self.trace_partition(a, b, false);
        }
    }

    /// Traces the partition between `a` and `b` severed or healed.
    fn trace_partition(&self, a: NodeId, b: NodeId, severed: bool) {
        let partition = EventKind::Partition { a, b, severed };
        self.shared.trace.emit(CLIENT_PROCESS, partition);
    }

    /// Whether protocol tracing is enabled ([`ClusterBuilder::trace`]).
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.shared.trace.is_enabled()
    }

    /// Drains the protocol trace collected so far — the structured event
    /// stream [`oml_check::check_trace`] verifies. Call after quiescing the
    /// cluster ([`Cluster::shutdown`]) for a complete picture; each process's
    /// slice of the returned vector is that process's program order.
    #[must_use]
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        self.shared.trace.take()
    }

    /// The placement locks the policy currently holds — for invariant
    /// checks ("no leaked locks after quiescence").
    #[must_use]
    pub fn held_locks(&self) -> Vec<(ObjectId, BlockId)> {
        self.shared.policy.lock().held_locks()
    }

    /// Advances the cluster's clock by `ms` milliseconds, running on this
    /// thread, before it returns, every timer-heap entry due by then — node
    /// ticks (heartbeats, lease sweeps) and delayed deliveries — in time
    /// order, ties in insertion order, the clock set to each entry's instant
    /// as it runs. Returns with the clock `ms` later. Detector sweeps are
    /// not on the heap under a manual clock: see [`Cluster::detector_sweep`].
    ///
    /// # Panics
    ///
    /// Panics unless the cluster was built with
    /// [`ClusterBuilder::manual_clock`].
    pub fn advance_clock(&self, ms: u64) {
        let Some(clock) = &self.shared.manual_clock else {
            panic!("advance_clock requires ClusterBuilder::manual_clock")
        };
        let to = clock.load(Ordering::Relaxed).saturating_add(ms);
        self.shared.run_heap(to);
        clock.fetch_max(to, Ordering::Relaxed);
    }

    /// Stops the cluster: new client operations are refused, the timer
    /// heap stops, and each node's queue is drained under the shutdown rule —
    /// pending end-requests, installs and replica writes are still applied,
    /// and callers still waiting, delayed deliveries included, get
    /// [`RuntimeError::ShuttingDown`]. Then the nodes' states are dropped,
    /// every placement lease still held expires (a guard that outlives the
    /// cluster can no longer end its block), and further sends fail
    /// explicitly instead of queueing where nothing runs them. Idempotent;
    /// also invoked by `Drop`.
    pub fn shutdown(&self) {
        let shared = &self.shared;
        if shared.closing.swap(true, Ordering::AcqRel) {
            return;
        }
        let thread = shared.timer.lock().thread.take();
        if let Some(thread) = thread {
            thread.thread().unpark();
            let _ = thread.join();
        }
        // the delayed deliveries, in the order the heap would have made
        // them: closing, each meets the shutdown rule at once
        shared.run_heap(u64::MAX);
        for at in 0..shared.mesh.peers() {
            // runs what queued, then drops the state: it holds the cluster
            let state = shared.mesh.take(at);
            shared.mesh.put(at, state);
            if let Some(mut state) = shared.mesh.take(at) {
                state.refuse_awaiting();
            }
            shared.mesh.put(at, None);
        }
        // no end-request arrives any more and no tick runs: every lease
        // still held runs out now, not never
        shared.expire_leases(CLIENT_PROCESS, u64::MAX);
        shared.mesh.shutdown();
        shared.down.store(true, Ordering::Release);
    }

    /// Where the object is, or `UnknownObject`.
    fn locate(&self, object: ObjectId) -> Result<NodeId, RuntimeError> {
        self.location_of(object)
            .ok_or(RuntimeError::UnknownObject(object))
    }

    fn check_node(&self, node: NodeId) -> Result<(), RuntimeError> {
        if node.index() < self.shared.mesh.peers() as usize {
            Ok(())
        } else {
            Err(RuntimeError::UnknownNode(node))
        }
    }

    fn check_live(&self) -> Result<(), RuntimeError> {
        if self.shared.is_closing() {
            Err(RuntimeError::ShuttingDown)
        } else {
            Ok(())
        }
    }

    /// Waits for a reply under the call deadline. The outer `Result` is the
    /// transport's verdict (timeout / shutdown), the inner one the reply.
    fn await_reply<T: Send + 'static>(
        &self,
        rx: &Call<Result<T, RuntimeError>>,
    ) -> Result<Result<T, RuntimeError>, RuntimeError> {
        let timeout = self.shared.call_timeout;
        match rx.recv_timeout(timeout) {
            Ok(res) => Ok(res),
            // A disconnect outside shutdown means every handle on our reply
            // slot was dropped unanswered (a crash, a dropped message) —
            // same contract as a timeout.
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                self.shared
                    .counters
                    .timeouts
                    .fetch_add(1, Ordering::Relaxed);
                if self.shared.is_closing() {
                    Err(RuntimeError::ShuttingDown)
                } else {
                    Err(RuntimeError::Timeout {
                        waited_ms: timeout.as_millis() as u64,
                    })
                }
            }
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes())
            .field("objects", &self.placement_snapshot().len())
            .finish()
    }
}

/// An open move-block (§2.3). Dropping it issues the `end`-request — and,
/// for [`Cluster::visit_block`], the migrate-back.
#[derive(Debug)]
pub struct MoveGuard<'c> {
    cluster: &'c Cluster,
    object: ObjectId,
    block: BlockId,
    /// The requester's node (where the object was moved to).
    from: NodeId,
    context: Option<AllianceId>,
    granted: bool,
    migrate_back: Option<NodeId>,
    ended: bool,
}

impl MoveGuard<'_> {
    /// Whether the move was granted (vs denied by a conflicting holder).
    #[must_use]
    pub fn granted(&self) -> bool {
        self.granted
    }

    /// The object this block works on.
    #[must_use]
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Ends the block explicitly (equivalent to dropping the guard).
    pub fn end(mut self) {
        let _ = self.finish();
    }

    /// Ends the block, surfacing whether the end-request could be sent —
    /// `Err(ShuttingDown)` when the cluster's nodes are already gone (a
    /// plain drop swallows that; under leases the lock still expires).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShuttingDown`] if the end-request had no live
    /// cluster to go to.
    pub fn try_end(mut self) -> Result<(), RuntimeError> {
        self.finish()
    }

    fn finish(&mut self) -> Result<(), RuntimeError> {
        if self.ended {
            return Ok(());
        }
        self.ended = true;
        let shared = &self.cluster.shared;
        let mut sent = Ok(());
        if let Some(node) = self.cluster.location_of(self.object) {
            sent = shared.send_from(
                None,
                node,
                Message::EndRequest {
                    object: self.object,
                    block: self.block,
                    from: self.from,
                    was_granted: self.granted,
                    context: self.context,
                    hops: MAX_HOPS,
                },
            );
        }
        if let Some(origin) = self.migrate_back.take() {
            // the visit's migrate-back: an ordinary (best-effort) move
            if let Ok(guard) = self
                .cluster
                .move_block_in(self.object, origin, self.context)
            {
                let mut guard = guard;
                // immediately release: the visit's return is not a block
                let _ = guard.finish();
            }
        }
        sent
    }
}

impl Drop for MoveGuard<'_> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::sync::mpsc;

    /// One byte of state; `hold` reports that the node is inside the call
    /// and parks it there until the test lets go, `where` names the thread
    /// the call runs on.
    struct Cell(u8, Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>);

    impl MobileObject for Cell {
        fn type_tag(&self) -> &'static str {
            "cell"
        }
        fn invoke(&mut self, method: &str, _payload: &[u8]) -> Result<Vec<u8>, String> {
            if let ("hold", Some((entered, gate))) = (method, &self.1) {
                let _ = entered.send(());
                let _ = gate.recv();
            }
            if method == "where" {
                let here = std::thread::current();
                return Ok(here.name().unwrap_or_default().as_bytes().to_vec());
            }
            Ok(vec![self.0])
        }
        fn linearize(&self) -> Vec<u8> {
            vec![self.0]
        }
    }

    fn cell_cluster() -> Cluster {
        let cluster = Cluster::builder()
            .nodes(2)
            .manual_clock()
            .failure_detector(50, 3)
            .trace()
            .build();
        cluster.register_type("cell", |bytes| Box::new(Cell(bytes[0], None)));
        cluster
    }

    fn cell_ckpt(state: u8, object_epoch: u64, seq: u64) -> StoredCheckpoint {
        StoredCheckpoint {
            type_tag: "cell".to_owned(),
            state: Bytes::copy_from_slice(&[state]),
            object_epoch,
            seq,
        }
    }

    /// A client call of `method` on `object`, and where its answer lands.
    fn call(object: ObjectId, method: &str) -> (Message, Call<Result<Vec<u8>, RuntimeError>>) {
        let (reply, answered) = channel::call();
        let call = Message::Invoke {
            object,
            request: method.as_bytes().to_vec(),
            method_len: method.len(),
            hops: MAX_HOPS,
            reply,
        };
        (call, answered)
    }

    fn installed(trace: &[TraceEvent], at: u32) -> Vec<ObjectId> {
        let at_node = trace.iter().filter(|ev| ev.process == at);
        at_node
            .filter_map(|ev| match ev.kind {
                EventKind::Install { object } => Some(object),
                _ => None,
            })
            .collect()
    }

    /// A refresh puts one record in every replica store: the host's own
    /// copy and the one its `CheckpointPut` carried to the other replica
    /// share a single state buffer — nothing is encoded and decoded again
    /// on the way.
    #[test]
    fn a_refresh_shares_one_state_buffer_across_its_replicas() {
        let cluster = Cluster::builder()
            .nodes(3)
            .manual_clock()
            .failure_detector(50, 3)
            .replication(2)
            .build();
        cluster.register_type("cell", |bytes| Box::new(Cell(bytes[0], None)));
        let home = NodeId::new(0);
        let object = cluster.create(home, Box::new(Cell(1, None))).unwrap();
        let epoch = cluster.shared.incarnation(home.as_u32());
        let mut fresh = [(object, cell_ckpt(2, 0, 0))];
        cluster.shared.checkpoint_refresh(&mut fresh, home, epoch);
        let rec = cluster.shared.recovery.as_ref().expect("detector on");
        let stored = || {
            let replicas = rec.replicas.lock();
            let copies = replicas.stores.iter().filter_map(|s| s.get(object));
            copies
                .map(|c| (c.version(), c.state.clone()))
                .collect::<Vec<_>>()
        };
        let copies = stored();
        assert_eq!(copies.len(), 2);
        assert!(copies
            .iter()
            .all(|(v, state)| *v == (0, 1) && state[..] == [2]));
        assert_eq!(copies[0].1.as_ptr(), copies[1].1.as_ptr());
        // the caller keeps its copy, stamped, in the replicas' buffer
        assert_eq!(fresh[0].1.version(), (0, 1));
        assert_eq!(fresh[0].1.state.as_ptr(), copies[0].1.as_ptr());

        // an equal copy in a buffer of its own is held: nothing is
        // written, and the caller's copy adopts the replicas' buffer
        let mut again = [(object, cell_ckpt(2, 0, 0))];
        cluster.shared.checkpoint_refresh(&mut again, home, epoch);
        assert_eq!(stored(), copies);
        assert_eq!(again[0].1.state.as_ptr(), copies[0].1.as_ptr());
    }

    /// An `Install` is fenced item by item: the member that was
    /// reinstantiated while the message sat in a queue is dropped, the rest
    /// of the list arrives.
    #[test]
    fn a_stale_member_is_fenced_without_the_rest_of_its_install() {
        let cluster = cell_cluster();
        let (stale, fresh) = (ObjectId::new(100), ObjectId::new(101));
        cluster
            .shared
            .objects
            .write()
            .entry(stale)
            .or_default()
            .epoch = 1;
        let install = Message::Install {
            members: vec![(stale, cell_ckpt(1, 0, 0)), (fresh, cell_ckpt(2, 0, 0))],
            install_for: None,
        };
        // a sender points the directory at the destination as it ships
        cluster.shared.place(fresh, NodeId::new(1));
        cluster
            .shared
            .send_from(None, NodeId::new(1), install)
            .unwrap();
        // the install is ahead of this invoke in node 1's queue
        assert_eq!(cluster.invoke(fresh, "get", &[]).unwrap(), vec![2]);
        assert_eq!(cluster.stats().fenced_stale, 1);
        assert_eq!(cluster.location_of(stale), None);
        cluster.shutdown();
        assert_eq!(installed(&cluster.take_trace(), 1), vec![fresh]);
    }

    /// What queues behind a busy node once shutdown began is still applied,
    /// list-carrying puts and installs included.
    #[test]
    fn shutdown_drains_queued_lists() {
        let cluster = cell_cluster();
        let (gate, hold) = mpsc::channel();
        let (entered, inside) = mpsc::channel();
        let node = NodeId::new(1);
        let blocker = Box::new(Cell(0, Some((entered, hold))));
        let blocker = cluster.create(node, blocker).unwrap();
        let (a, b) = (ObjectId::new(100), ObjectId::new(101));
        std::thread::scope(|scope| {
            scope.spawn(|| cluster.invoke(blocker, "hold", &[]));
            inside.recv().unwrap();
            // the node's state is out with that call: shutdown waits for
            // it, and what follows queues
            scope.spawn(|| cluster.shutdown());
            while cluster.shared.mesh.waiting(1) == 0 {
                std::thread::yield_now();
            }
            let put = Message::CheckpointPut {
                items: vec![(a, cell_ckpt(1, 0, 5)), (b, cell_ckpt(2, 0, 6))],
            };
            let install = Message::Install {
                members: vec![(a, cell_ckpt(1, 0, 0)), (b, cell_ckpt(2, 0, 0))],
                install_for: None,
            };
            cluster.shared.send_from(None, node, put).unwrap();
            cluster.shared.send_from(None, node, install).unwrap();
            gate.send(()).unwrap();
        });
        let rec = cluster.shared.recovery.as_ref().expect("detector on");
        let replicas = rec.replicas.lock();
        let version = |o| replicas.stores[1].get(o).map(StoredCheckpoint::version);
        assert_eq!(version(a), Some((0, 5)));
        assert_eq!(version(b), Some((0, 6)));
        assert_eq!(installed(&cluster.take_trace(), 1), vec![blocker, a, b]);
    }

    /// A call that queued behind a busy node is answered before a crash or
    /// a shutdown waiting for that node takes its state: once the crash
    /// returns the call has its reply, and once the shutdown returns one the
    /// shutdown rule refused has `ShuttingDown` — not a disconnect.
    #[test]
    fn what_queued_before_a_crash_or_shutdown_is_answered() {
        for crash in [true, false] {
            let cluster = cell_cluster();
            let (gate, hold) = mpsc::channel();
            let (entered, inside) = mpsc::channel();
            let node = NodeId::new(1);
            let blocker = Box::new(Cell(0, Some((entered, hold))));
            let blocker = cluster.create(node, blocker).unwrap();
            let object = cluster.create(node, Box::new(Cell(7, None))).unwrap();
            let (call, answered) = call(object, "get");
            std::thread::scope(|scope| {
                scope.spawn(|| cluster.invoke(blocker, "hold", &[]));
                inside.recv().unwrap();
                // the node's state is out with that call: the call queues,
                // and the crash or the shutdown waits for the state
                if crash {
                    cluster.shared.send_from(None, node, call).unwrap();
                    scope.spawn(|| cluster.crash_node(node));
                } else {
                    scope.spawn(|| cluster.shutdown());
                    while cluster.shared.mesh.waiting(1) == 0 {
                        std::thread::yield_now();
                    }
                    cluster.shared.send_from(None, node, call).unwrap();
                }
                while cluster.shared.mesh.waiting(1) == 0 || cluster.shared.mesh.queued(1) == 0 {
                    std::thread::yield_now();
                }
                gate.send(()).unwrap();
            });
            let want = if crash {
                Ok(vec![7])
            } else {
                Err(RuntimeError::ShuttingDown)
            };
            assert_eq!(
                answered.recv_timeout(Duration::ZERO),
                Ok(want),
                "crash: {crash}"
            );
        }
    }

    /// The name of the thread the call ran on.
    fn ran_on(cluster: &Cluster, object: ObjectId) -> Vec<u8> {
        cluster.invoke(object, "where", &[]).expect("where")
    }

    /// A crashed node has no state in its inbox slot, and a zombie's is not
    /// its node's current incarnation: a client call to either queues
    /// instead of running on the caller's thread — for the restart, or for
    /// the heap's next tick. Meanwhile a second client calls across every
    /// crash and restart, and no handler runs on a fenced incarnation's
    /// state (`NodeWorker::deliver` asserts it in debug builds).
    #[test]
    fn calls_never_run_inline_on_a_crashed_or_stale_incarnation() {
        let build = |sabotage: Option<Sabotage>, timeout_ms| {
            let builder = Cluster::builder()
                .nodes(2)
                .manual_clock()
                .failure_detector(50, 3)
                .call_timeout(Duration::from_millis(timeout_ms))
                .invoke_retries(0);
            let cluster = match sabotage {
                Some(s) => builder.sabotage(s),
                None => builder,
            }
            .build();
            cluster.register_type("cell", |bytes| Box::new(Cell(bytes[0], None)));
            cluster
        };
        let node = NodeId::new(1);
        let cluster = build(None, 100);
        let obj = cluster.create(node, Box::new(Cell(5, None))).unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let _ = cluster.invoke(obj, "get", &[]);
                }
            });
            for _ in 0..20 {
                cluster.crash_node(node).unwrap();
                // nothing pops while the node is down, so the call must add
                // to the queue its next incarnation drains
                let queued = cluster.shared.mesh.queued(1);
                assert!(cluster.invoke(obj, "get", &[]).is_err());
                assert!(cluster.shared.mesh.queued(1) > queued);
                cluster.restart_node(node).unwrap();
                assert_eq!(cluster.invoke(obj, "get", &[]).unwrap(), [5]);
            }
            stop.store(true, Ordering::Relaxed);
        });
        // once idle again, the current incarnation's calls run inline
        let me = std::thread::current();
        assert!((0..1_000).any(|_| ran_on(&cluster, obj) == me.name().unwrap().as_bytes()));
        // a fenced zombie is dropped before it runs anything: calls queue
        cluster.crash_node(node).unwrap();
        cluster.zombie_restart_node(node).unwrap();
        assert!(cluster.invoke(obj, "get", &[]).is_err());
        while cluster.restart_node(node) == Err(RuntimeError::NotDead(node)) {
            std::thread::yield_now();
        }
        assert_eq!(cluster.invoke(obj, "get", &[]).unwrap(), [5]);
        cluster.shutdown();

        // an unfenced zombie runs, but its state is never current: each of
        // its calls queues, and the node's next tick runs it on the thread
        // that advanced the clock, never inline on its caller's
        let cluster = build(Some(Sabotage::Unfenced), 10_000);
        let obj = cluster.create(node, Box::new(Cell(5, None))).unwrap();
        cluster.crash_node(node).unwrap();
        cluster.restart_node(node).unwrap();
        cluster.crash_node(node).unwrap();
        cluster.zombie_restart_node(node).unwrap();
        let advancing = me.name().unwrap().as_bytes();
        std::thread::scope(|scope| {
            for _ in 0..100 {
                let call = scope.spawn(|| ran_on(&cluster, obj));
                while cluster.shared.mesh.queued(1) == 0 {
                    std::thread::yield_now();
                }
                cluster.advance_clock(TICK_MS);
                assert_eq!(call.join().unwrap(), advancing);
            }
        });
        cluster.shutdown();
    }

    /// An empty surrender to `to`: a no-op once run.
    fn surrender(to: NodeId) -> Message {
        Message::Surrender {
            members: Vec::new(),
            to,
        }
    }

    /// Crashes `down` and fills its inbox to capacity.
    fn crash_and_fill(cluster: &Cluster, down: NodeId) {
        cluster.crash_node(down).unwrap();
        for _ in 0..MeshConfig::default().capacity {
            cluster
                .shared
                .send_from(None, down, surrender(down))
                .unwrap();
        }
    }

    /// Puts a delivery of `msg` to `to` on the heap, `ms` from now.
    fn deliver_in(shared: &Shared, ms: u64, to: NodeId, msg: Message) {
        let env = shared.trace_envelope(fault::CLIENT, 0, to, msg);
        let due = Due::Deliver(to.as_u32(), env);
        assert!(shared.at(shared.now_ms() + ms, due).is_ok());
    }

    /// A delivery the timer hands to a crashed node's full inbox joins its
    /// queue: the timer does not sleep on room nobody makes, and a call
    /// that falls due after it is still delivered and answered.
    #[test]
    fn a_delayed_delivery_to_a_full_inbox_never_stalls_the_timer() {
        let cluster = Cluster::builder().nodes(2).build();
        cluster.register_type("cell", |bytes| Box::new(Cell(bytes[0], None)));
        let (shared, live, down) = (&cluster.shared, NodeId::new(0), NodeId::new(1));
        let object = cluster.create(live, Box::new(Cell(3, None))).unwrap();
        crash_and_fill(&cluster, down);
        let (call, answered) = call(object, "get");
        deliver_in(shared, 10, down, surrender(down));
        deliver_in(shared, 50, live, call);
        let answer = answered.recv_timeout(Duration::from_secs(1));
        // the restart drains the queue, which frees a timer asleep on it
        cluster.restart_node(down).unwrap();
        assert_eq!(answer, Ok(Ok(vec![3])));
    }

    /// Shutdown hands what is left on the heap over in the heap-serving
    /// role: a delivery to a crashed node's full inbox joins its queue
    /// instead of parking the caller of `shutdown` on room nobody makes.
    #[test]
    fn shutdown_never_stalls_on_a_leftover_delivery_to_a_full_inbox() {
        let cluster = Arc::new(Cluster::builder().nodes(2).build());
        let (shared, down) = (&cluster.shared, NodeId::new(1));
        crash_and_fill(&cluster, down);
        deliver_in(shared, 60_000, down, surrender(down));
        let (stopped, returned) = crossbeam::channel::bounded(1);
        let stopping = Arc::clone(&cluster);
        std::thread::spawn(move || {
            stopping.shutdown();
            let _ = stopped.send(());
        });
        assert_eq!(returned.recv_timeout(Duration::from_secs(1)), Ok(()));
    }

    /// Under a manual clock a delayed call waits on the heap until the
    /// clock reaches its instant, and then runs on the thread that advanced
    /// the clock.
    #[test]
    fn a_delayed_call_runs_when_the_clock_reaches_it_on_the_advancing_thread() {
        // every control message is delayed by a draw from `1..=1`: 1 ms
        let lag = Cluster::builder()
            .manual_clock()
            .faults(FaultPlan::seeded(0).delay_probability(1.0, 1));
        let (cluster, node) = (lag.build(), NodeId::new(1));
        let object = cluster.create(node, Box::new(Cell(3, None))).unwrap();
        let (call, answered) = call(object, "where");
        cluster.shared.send_from(None, node, call).unwrap();
        cluster.advance_clock(0);
        assert!(
            answered.recv_timeout(Duration::ZERO).is_err(),
            "delivered early"
        );
        cluster.advance_clock(1);
        let here = std::thread::current().name().unwrap().as_bytes().to_vec();
        assert_eq!(answered.recv_timeout(Duration::ZERO), Ok(Ok(here)));
    }

    /// The retry-jitter stream of seed `0xC0A5`, captured at the commit
    /// before its finalizer became [`fault::mix64`]; see
    /// `fault::tests::seeded_streams_match_their_pinned_values`.
    #[test]
    fn retry_jitter_matches_its_pinned_values() {
        let cluster = Cluster::builder().faults(FaultPlan::seeded(0xC0A5)).build();
        let draws: Vec<u64> = (0..16)
            .map(|i| cluster.shared.next_jitter_ms(2 << i))
            .collect();
        assert_eq!(
            draws,
            [0, 2, 5, 0, 8, 47, 115, 65, 4, 389, 2016, 1326, 2557, 2535, 25005, 58720]
        );
    }
}
