//! The structured trace-event schema the runtime emits and the checker
//! consumes.
//!
//! Every event belongs to a **process** — a node worker, or the client
//! facade ([`CLIENT_PROCESS`]) — and the collector appends events in real
//! time, so the slice of a trace belonging to one process is that process's
//! program order. Cross-process edges come from [`EventKind::Send`] /
//! [`EventKind::Recv`] pairs sharing a message id; the checker derives the
//! happens-before partial order from exactly these two ingredients (see
//! the crate's vector clocks).
//!
//! The schema is deliberately close to the paper's vocabulary: move
//! requests/grants/denials (§3.2), placement-lock acquire/release with lease
//! timestamps (§3.2 + the lease recovery extension), attachment closure
//! transfers (§3.3/§3.4), and residency transitions (ship/install) that the
//! directory's immediate-update location management produces.

use oml_core::ids::{BlockId, NodeId, ObjectId};

/// The process id used for events emitted by the client facade (which is
/// not a cluster node but still participates in the protocol).
pub const CLIENT_PROCESS: u32 = u32::MAX;

/// Why a placement lock stopped being held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseCause {
    /// The holder's `end`-request arrived — the fast path.
    End,
    /// The lease ran out — the recovery path for lost end-requests.
    LeaseExpiry,
    /// The hosting node crashed and its volatile lock state was discarded.
    Crash,
}

impl std::fmt::Display for ReleaseCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReleaseCause::End => f.write_str("end"),
            ReleaseCause::LeaseExpiry => f.write_str("lease-expiry"),
            ReleaseCause::Crash => f.write_str("crash"),
        }
    }
}

/// What the fault plan or a partition did to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFault {
    /// The plan's drop draw lost it.
    Drop,
    /// A partition severed its link.
    PartitionDrop,
    /// It was delivered twice.
    Duplicate,
    /// The plan held it back this many milliseconds.
    Delay(u64),
}

/// One protocol event. The comments name the runtime site that emits each.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A message left `from` towards node `to` (`Shared::send_from`). The
    /// `msg_id` is unique per physical copy — a duplicated message produces
    /// two sends with two ids.
    Send {
        /// Unique id of this physical message copy.
        msg_id: u64,
        /// Destination node (raw id).
        to: u32,
        /// Short description (the message's `Debug` rendering).
        desc: String,
    },
    /// The fault plan or a partition changed how a message from the
    /// emitting process travels (`Shared::send_from`), before the `Send` of
    /// any copy that survives; a clean delivery emits none, a duplicated
    /// and delayed one emits both.
    Fault {
        /// What happened to it.
        fault: MessageFault,
        /// Destination node (raw id).
        to: u32,
        /// Its sequence number on its link, in the stream that decided it
        /// (control or replica traffic); `None` for replica traffic a
        /// partition stopped before any draw.
        seq: Option<u64>,
        /// Short description (the message's `Debug` rendering).
        desc: String,
    },
    /// A scripted partition between `a` and `b` was severed
    /// (`Cluster::partition`) or healed (`Cluster::heal`; `heal_all` emits
    /// one per severed pair).
    Partition {
        /// One end.
        a: NodeId,
        /// The other end.
        b: NodeId,
        /// Severed, or healed.
        severed: bool,
    },
    /// A node worker dequeued the message (`NodeWorker::run`).
    Recv {
        /// The id the matching [`EventKind::Send`] carried.
        msg_id: u64,
    },
    /// The object became resident at the emitting node (create handler,
    /// install handler, or crash-stash reclamation on restart).
    Install {
        /// The object now hosted here.
        object: ObjectId,
    },
    /// The object stopped being resident at the emitting node: it was
    /// linearized and sent towards `to` (`NodeWorker::ship`).
    Ship {
        /// The departing object.
        object: ObjectId,
        /// Destination node.
        to: NodeId,
    },
    /// The client issued a move-request (`Cluster::move_block_in`).
    MoveRequested {
        /// The object the move names.
        object: ObjectId,
        /// The requester's node (the move's target).
        to: NodeId,
        /// The issuing move-block.
        block: BlockId,
    },
    /// The policy granted a move (`NodeWorker::handle_move`).
    MoveGranted {
        /// The granted object.
        object: ObjectId,
        /// The granted block.
        block: BlockId,
    },
    /// The policy denied a move (`NodeWorker::handle_move`).
    MoveDenied {
        /// The denied object.
        object: ObjectId,
        /// The denied block.
        block: BlockId,
    },
    /// A placement lock was taken (`MovePolicy::on_installed` call sites).
    LockAcquired {
        /// The locked object.
        object: ObjectId,
        /// The holding block.
        block: BlockId,
        /// The cluster's lease clock at acquisition.
        now_ms: u64,
        /// The lease TTL, or `None` for never-expiring locks.
        ttl_ms: Option<u64>,
    },
    /// A placement lock was released.
    LockReleased {
        /// The unlocked object.
        object: ObjectId,
        /// The block that held it.
        block: BlockId,
        /// Fast path, lease recovery, or crash cleanup.
        cause: ReleaseCause,
    },
    /// Activity inside a granted block renewed its lease
    /// (`NodeWorker::handle_invoke`).
    LeaseRenewed {
        /// The active object.
        object: ObjectId,
        /// The cluster's lease clock at renewal.
        now_ms: u64,
    },
    /// An A-transitive closure migration began: `members` is the set of
    /// co-hosted, movable, unpinned objects the runtime committed to ship
    /// together with `main` (`NodeWorker::migrate_closure`).
    ClosureBegin {
        /// The object whose move dragged the closure.
        main: ObjectId,
        /// The common destination.
        to: NodeId,
        /// Locally hosted members that must ship with `main`.
        members: Vec<ObjectId>,
    },
    /// A remotely hosted closure member was asked to surrender (best-effort:
    /// the remote host skips it if the member has already moved on).
    SurrenderRequested {
        /// The remote member.
        member: ObjectId,
        /// The closure's destination.
        to: NodeId,
    },
    /// `attach(a, b)` succeeded (client facade).
    Attach {
        /// Attached object.
        a: ObjectId,
        /// Attachment target.
        b: ObjectId,
    },
    /// `detach(a, b)` removed an edge (client facade).
    Detach {
        /// Detached object.
        a: ObjectId,
        /// Former attachment target.
        b: ObjectId,
    },
    /// A node crashed (scripted fault).
    Crash {
        /// The crashed node.
        node: NodeId,
    },
    /// A crashed node restarted.
    Restart {
        /// The restarted node.
        node: NodeId,
    },
    /// The failure detector began suspecting a node — missed heartbeats or
    /// a partition (`Shared::detector_sweep`). Suspicion is revocable.
    Suspected {
        /// The suspected node.
        node: NodeId,
    },
    /// The failure detector stopped suspecting a node whose beats resumed
    /// and no partition isolates (`Shared::detector_sweep`).
    SuspicionCleared {
        /// The node cleared.
        node: NodeId,
    },
    /// The failure detector declared a node dead: its incarnation is fenced
    /// and its objects are about to be reinstantiated
    /// (`Shared::declare_dead`).
    DeclaredDead {
        /// The dead node.
        node: NodeId,
    },
    /// An object stranded on a dead node was recreated from its home
    /// checkpoint under a new object epoch (`Shared::declare_dead`). Every
    /// `Install` for this object from an older epoch is stale from here on.
    Reinstantiated {
        /// The recovered object.
        object: ObjectId,
        /// Where the fresh copy was installed.
        at: NodeId,
        /// The object's new (strictly increasing) epoch.
        epoch: u64,
    },
    /// Epoch fencing rejected a stale message or install — a zombie
    /// incarnation (or its delayed traffic) was stopped from acting
    /// (`NodeWorker::reject_stale` / `NodeWorker::handle_install`).
    FencedStale {
        /// The stale epoch the message carried.
        epoch: u64,
    },
    /// A node's circuit breaker opened: subsequent calls to it fail fast
    /// with `NodeDown` until a probe succeeds.
    BreakerOpen {
        /// The node whose breaker opened.
        node: NodeId,
    },
    /// One-shot configuration marker emitted at build time when checkpoint
    /// replication is active: arms the checker's replication invariants
    /// (traces without it are checked exactly as before).
    ReplicationFactor {
        /// The configured replication factor `k = f + 1`.
        k: u32,
        /// The cluster size (the effective factor is `min(k, available)`).
        nodes: u32,
    },
    /// A replica store accepted a checkpoint copy fresher than what it held
    /// (`Shared::store_replica`).
    CheckpointStored {
        /// The checkpointed object.
        object: ObjectId,
        /// The node whose store accepted the copy.
        replica: NodeId,
        /// The copy's object epoch.
        object_epoch: u64,
        /// The copy's refresh sequence.
        seq: u64,
    },
    /// A replica's ack was counted toward a pending refresh's write quorum
    /// (`Shared::checkpoint_ack`; duplicates are deduplicated before this
    /// event, so each `(object, epoch, seq, replica)` appears at most once).
    CheckpointAcked {
        /// The refreshed object.
        object: ObjectId,
        /// The acked write's object epoch.
        object_epoch: u64,
        /// The acked write's refresh sequence.
        seq: u64,
        /// The acking replica.
        replica: NodeId,
        /// Acks this write needs to be quorum-durable.
        quorum: u32,
    },
    /// Reinstantiation chose its source replica: the copy of `object` held
    /// at `replica`, stamped `(object_epoch, seq)` (`Shared::declare_dead`).
    /// The checker flags a promotion older than a quorum-acked write that
    /// still survives elsewhere.
    PromotedFrom {
        /// The object being reinstantiated.
        object: ObjectId,
        /// The surviving replica chosen as the source.
        replica: NodeId,
        /// The promoted copy's object epoch.
        object_epoch: u64,
        /// The promoted copy's refresh sequence.
        seq: u64,
    },
    /// An anti-entropy repair sweep ran (`Shared::repair_sweep`). Emitted
    /// even when repair actions are disabled, so the checker can judge
    /// replication factors "after repair quiesced".
    RepairSweep,
    /// A transport peer's **first** session handshake was accepted under
    /// incarnation `epoch` (socket transport, coordinator side).
    TransportConnected {
        /// The peer node that connected.
        peer: u32,
        /// The incarnation its Hello presented.
        epoch: u64,
    },
    /// A live transport session to `peer` died (EOF, reset, write
    /// failure); its supervisor is redialing under backoff.
    TransportDisconnected {
        /// The peer whose session dropped.
        peer: u32,
    },
    /// A peer re-established its session after an outage.
    TransportReconnected {
        /// The peer that came back.
        peer: u32,
        /// The incarnation its Hello presented.
        epoch: u64,
        /// Dial attempts the outage took.
        attempt: u32,
    },
    /// A session handshake was **refused**: the peer presented incarnation
    /// `epoch` at or below the acceptor's fencing floor. From this event
    /// on, no delivery (and no accepted session) may carry an incarnation
    /// `<= epoch` for this peer — the checker's
    /// no-delivery-after-fenced-handshake invariant.
    HandshakeFenced {
        /// The zombie peer.
        peer: u32,
        /// The stale incarnation it presented.
        epoch: u64,
    },
    /// A payload frame from `peer`'s authenticated session was delivered
    /// to the protocol layer under the session's incarnation `epoch`.
    TransportDelivery {
        /// The sending peer.
        peer: u32,
        /// The session incarnation the frame arrived under.
        epoch: u64,
    },
    /// A checkpoint record was appended to `node`'s write-ahead log
    /// (`WalStore::put` call sites). `durable` reflects the fsync policy's
    /// verdict *at ack time*: `true` means the record was synced before the
    /// caller was acked, so it must survive a cold restart of `node`.
    WalAppended {
        /// The node whose store appended (coordinator stores use
        /// [`CLIENT_PROCESS`]).
        node: u32,
        /// The checkpointed object.
        object: ObjectId,
        /// The record's object epoch.
        object_epoch: u64,
        /// The record's refresh sequence.
        seq: u64,
        /// Whether the record was fsynced before the ack.
        durable: bool,
    },
    /// An explicit WAL sync completed at `node`: every record appended
    /// before this point is now durable (promotes earlier buffered
    /// `WalAppended`s).
    WalSynced {
        /// The syncing node's store.
        node: u32,
        /// Records this sync made durable.
        records: u64,
    },
    /// `node`'s store compacted its WAL into snapshot generation
    /// `generation` (write-temp → atomic-rename → manifest flip). Durable
    /// records survive compaction by construction; this event lets traces
    /// show cold restarts recovering from a snapshot rather than a long log.
    SnapshotCompacted {
        /// The compacting node's store.
        node: u32,
        /// The new live generation.
        generation: u64,
        /// Records written into the snapshot.
        records: u64,
    },
    /// `node`'s store was reopened after every process died (cold restart)
    /// and replayed snapshot + WAL suffix. `recovered` lists each object's
    /// recovered `(epoch, seq)` version; `torn`/`corrupt` report what the
    /// replay found (a torn tail is steady state, corruption must never be
    /// silently accepted). The checker demands every durable `WalAppended`
    /// version be covered, and fences later `Reinstantiated` events below
    /// the recovered epochs.
    ColdRecovered {
        /// The restarted node's store.
        node: u32,
        /// Recovered objects with their `(object_epoch, seq)` versions.
        recovered: Vec<(ObjectId, u64, u64)>,
        /// The replay truncated a torn tail.
        torn: bool,
        /// The replay hit a checksum/decoding failure.
        corrupt: bool,
    },
}

/// One event in a collected trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The emitting process: a node's raw id, or [`CLIENT_PROCESS`].
    pub process: u32,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Convenience constructor.
    #[must_use]
    pub fn new(process: u32, kind: EventKind) -> Self {
        TraceEvent { process, kind }
    }
}

/// Renders a process id the way traces print them.
#[must_use]
pub fn process_name(process: u32) -> String {
    if process == CLIENT_PROCESS {
        "client".to_owned()
    } else {
        format!("n{process}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_names_distinguish_client() {
        assert_eq!(process_name(CLIENT_PROCESS), "client");
        assert_eq!(process_name(3), "n3");
    }

    #[test]
    fn release_causes_display() {
        assert_eq!(ReleaseCause::End.to_string(), "end");
        assert_eq!(ReleaseCause::LeaseExpiry.to_string(), "lease-expiry");
        assert_eq!(ReleaseCause::Crash.to_string(), "crash");
    }
}
