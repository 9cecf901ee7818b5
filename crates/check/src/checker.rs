//! The trace invariant checker.
//!
//! [`check_trace`] replays a collected event trace through a set of state
//! machines and verifies the paper's safety invariants:
//!
//! * **Single residency** — between migrations an object is live on exactly
//!   one node: every `Install` is either the object's first appearance, a
//!   re-install at its current host (crash-stash reclamation), or the
//!   completion of a `Ship` that *happened-before* it (checked with vector
//!   clocks, not wall-clock interleaving).
//! * **Place-lock exclusivity** (§3.2) — no two blocks hold an object's
//!   placement lock concurrently, and a denied mover never mutates
//!   placement: a block that was denied can only appear as a lock holder if
//!   an earlier grant (a duplicated move-request's first copy) explains it.
//! * **Closure atomicity** (§3.3/§3.4) — an A-transitive closure migrates
//!   as a unit: every locally co-hosted, movable, unpinned member the
//!   runtime committed to (the `ClosureBegin` member list) ships to the
//!   same destination before the main object does.
//! * **Lease soundness** — no lock is granted while another block's
//!   unexpired lease is held; renewals extend exactly the live lease.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use oml_core::ids::{BlockId, NodeId, ObjectId};

use crate::event::{process_name, EventKind, TraceEvent};
use crate::vclock::assign_clocks;

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// An object was installed at a second node while still resident at the
    /// first — two live replicas.
    DoubleResidency {
        /// The twice-resident object.
        object: ObjectId,
        /// Where it already lived.
        resident_at: u32,
        /// Where the second install happened.
        also_at: u32,
    },
    /// An install completed a migration, but the ship that started it does
    /// not happen-before the install (concurrent under the vector-clock
    /// order) — the "migration" had no causal path.
    NonCausalInstall {
        /// The installed object.
        object: ObjectId,
        /// The installing node.
        at: u32,
    },
    /// An in-flight object landed at a node other than the ship's target.
    MisroutedInstall {
        /// The misrouted object.
        object: ObjectId,
        /// Where the ship was headed.
        expected: NodeId,
        /// Where the install happened.
        got: u32,
    },
    /// A node shipped an object it was not hosting.
    ShipWithoutResidency {
        /// The phantom object.
        object: ObjectId,
        /// The node that shipped it.
        at: u32,
    },
    /// Two blocks held one object's (non-expiring) placement lock at once.
    LockOverlap {
        /// The doubly locked object.
        object: ObjectId,
        /// The block already holding the lock.
        holder: BlockId,
        /// The block that acquired over it.
        claimant: BlockId,
    },
    /// A lock was granted while another block's lease still had time left.
    LeaseOverlap {
        /// The doubly leased object.
        object: ObjectId,
        /// The block whose lease was still live.
        holder: BlockId,
        /// The block that was granted anyway.
        claimant: BlockId,
        /// Milliseconds the holder's lease still had at the overlap.
        remaining_ms: u64,
    },
    /// A block whose move was denied later appeared as a lock holder with
    /// no earlier grant explaining it.
    DeniedMoverMutatedPlacement {
        /// The object the denied block locked.
        object: ObjectId,
        /// The denied-yet-holding block.
        block: BlockId,
    },
    /// A lock was acquired by a block that was never granted a move.
    LockWithoutGrant {
        /// The locked object.
        object: ObjectId,
        /// The unexplained holder.
        block: BlockId,
    },
    /// A lock-release event named a block that was not the holder.
    ReleaseMismatch {
        /// The object whose release misfired.
        object: ObjectId,
        /// The block the release named.
        block: BlockId,
        /// The actual holder, if any.
        holder: Option<BlockId>,
    },
    /// A closure member the runtime committed to ship was left behind when
    /// the main object departed.
    ClosureMemberLeftBehind {
        /// The closure's main object.
        main: ObjectId,
        /// The abandoned member.
        member: ObjectId,
        /// The destination the closure was headed to.
        to: NodeId,
    },
    /// Closure members shipped but the main object never did — the closure
    /// was torn apart by a mid-migration failure.
    ClosureTorn {
        /// The main object that stayed behind.
        main: ObjectId,
        /// The destination the members went to.
        to: NodeId,
    },
    /// A fenced (dead) incarnation installed a copy of an object that has
    /// since been reinstantiated under a newer epoch — the split-brain that
    /// epoch fencing exists to prevent. Also reported when a
    /// `Reinstantiated` event fails to increase the object's epoch.
    StaleIncarnation {
        /// The twice-alive object.
        object: ObjectId,
        /// Where the current-epoch copy lives.
        live_at: u32,
        /// Where the stale incarnation installed its copy.
        stale_at: u32,
        /// The object's live epoch at the time of the stale install.
        epoch: u64,
    },
    /// An object ended the trace with fewer live checkpoint replicas than
    /// the sustainable factor `min(k, available nodes)`, even though the
    /// last anti-entropy repair sweep had already seen the deficit — repair
    /// had its chance and did not restore the factor.
    ReplicationFactorViolation {
        /// The under-replicated object.
        object: ObjectId,
        /// Live checkpoint copies at available nodes at trace end.
        replicas: u32,
        /// The factor repair should sustain: `min(k, available nodes)`.
        required: u32,
    },
    /// Reinstantiation promoted a checkpoint copy older than a
    /// quorum-acknowledged write that still survived at an available
    /// replica — a durable update was silently discarded.
    StaleReplicaPromoted {
        /// The object recovered from a stale copy.
        object: ObjectId,
        /// The replica the stale copy was promoted from.
        replica: NodeId,
        /// The promoted copy's `(object_epoch, seq)` version.
        promoted: (u64, u64),
        /// The freshest quorum-durable version that still survived.
        durable: (u64, u64),
    },
    /// Traffic (or a fresh session) from a transport peer was delivered
    /// under an incarnation at or below one this process had already
    /// **refused at handshake time** — the accept-time fence leaked: a
    /// zombie got a frame through after being told it is dead.
    DeliveryAfterFencedHandshake {
        /// The zombie peer.
        peer: u32,
        /// The incarnation the delivery (or accepted session) carried.
        epoch: u64,
        /// The incarnation the fence had already refused (`epoch <=
        /// fenced` is the violation).
        fenced: u64,
    },
    /// A WAL record that was **durably acked** (appended and fsynced before
    /// the caller was told success) did not survive a cold restart of its
    /// store — the durability contract of `fsync=Always` was broken: a torn
    /// write, a skipped fsync, or corruption ate an acknowledged write.
    DurableCheckpointLost {
        /// The store that lost the record.
        node: u32,
        /// The lost object.
        object: ObjectId,
        /// The lost record's object epoch.
        object_epoch: u64,
        /// The lost record's refresh sequence.
        seq: u64,
    },
    /// After a cold restart recovered an object at some epoch, a later
    /// reinstantiation used an epoch at or below the recovered one — the
    /// epoch floor did not survive the restart, so PR 4's fencing can no
    /// longer tell the recovered copy from a zombie.
    StaleEpochAfterRecovery {
        /// The object reinstantiated under a stale epoch.
        object: ObjectId,
        /// The stale epoch the reinstantiation used.
        epoch: u64,
        /// The epoch floor cold recovery had established.
        floor: u64,
    },
}

impl fmt::Display for Violation {
    // one match arm per violation kind; length tracks the enum, not logic
    #[allow(clippy::too_many_lines)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DoubleResidency {
                object,
                resident_at,
                also_at,
            } => write!(
                f,
                "double residency: {object} installed at {} while still resident at {}",
                process_name(*also_at),
                process_name(*resident_at)
            ),
            Violation::NonCausalInstall { object, at } => write!(
                f,
                "non-causal install: {object} landed at {} with no happens-before path from its ship",
                process_name(*at)
            ),
            Violation::MisroutedInstall {
                object,
                expected,
                got,
            } => write!(
                f,
                "misrouted install: {object} shipped towards {expected} but landed at {}",
                process_name(*got)
            ),
            Violation::ShipWithoutResidency { object, at } => write!(
                f,
                "ship without residency: {} shipped {object} it was not hosting",
                process_name(*at)
            ),
            Violation::LockOverlap {
                object,
                holder,
                claimant,
            } => write!(
                f,
                "lock overlap: {claimant} acquired {object} while {holder} still held it"
            ),
            Violation::LeaseOverlap {
                object,
                holder,
                claimant,
                remaining_ms,
            } => write!(
                f,
                "lease overlap: {claimant} granted {object} while {holder}'s lease had {remaining_ms} ms left"
            ),
            Violation::DeniedMoverMutatedPlacement { object, block } => write!(
                f,
                "denied mover mutated placement: {block} was denied yet locked {object}"
            ),
            Violation::LockWithoutGrant { object, block } => {
                write!(f, "lock without grant: {block} locked {object} without a granted move")
            }
            Violation::ReleaseMismatch {
                object,
                block,
                holder,
            } => write!(
                f,
                "release mismatch: {block} released {object} held by {holder:?}"
            ),
            Violation::ClosureMemberLeftBehind { main, member, to } => write!(
                f,
                "closure atomicity: member {member} left behind when {main}'s closure migrated to {to}"
            ),
            Violation::ClosureTorn { main, to } => write!(
                f,
                "closure torn: members shipped to {to} but main object {main} never did"
            ),
            Violation::StaleIncarnation {
                object,
                live_at,
                stale_at,
                epoch,
            } => write!(
                f,
                "stale incarnation: {object} (live epoch {epoch} at {}) re-installed at {} by a fenced incarnation",
                process_name(*live_at),
                process_name(*stale_at)
            ),
            Violation::ReplicationFactorViolation {
                object,
                replicas,
                required,
            } => write!(
                f,
                "replication factor: {object} ended with {replicas} live replica(s) where repair should sustain {required}"
            ),
            Violation::StaleReplicaPromoted {
                object,
                replica,
                promoted,
                durable,
            } => write!(
                f,
                "stale replica promoted: {object} recovered from {replica}'s copy e{}.{} while quorum-durable e{}.{} survived at an available node",
                promoted.0, promoted.1, durable.0, durable.1
            ),
            Violation::DeliveryAfterFencedHandshake {
                peer,
                epoch,
                fenced,
            } => write!(
                f,
                "delivery after fenced handshake: traffic from {} under incarnation {epoch} although incarnation {fenced} was already refused",
                process_name(*peer)
            ),
            Violation::DurableCheckpointLost {
                node,
                object,
                object_epoch,
                seq,
            } => write!(
                f,
                "durable checkpoint lost: {object} e{object_epoch}.{seq} was acked durable at {} but did not survive cold restart",
                process_name(*node)
            ),
            Violation::StaleEpochAfterRecovery {
                object,
                epoch,
                floor,
            } => write!(
                f,
                "stale epoch after recovery: {object} reinstantiated under epoch {epoch} although cold recovery established floor {floor}"
            ),
        }
    }
}

/// How an object currently stands in the residency state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residency {
    /// Installed at a node; the index points at the installing event.
    Resident { node: u32 },
    /// Shipped and not yet installed; `ship_idx` indexes the ship event.
    InFlight { to: NodeId, ship_idx: usize },
}

/// A closure migration in progress at one node.
#[derive(Debug)]
struct PendingClosure {
    main: ObjectId,
    to: NodeId,
    process: u32,
    remaining: BTreeSet<ObjectId>,
    shipped_any_member: bool,
}

/// A held placement lock as the checker models it.
#[derive(Debug, Clone, Copy)]
struct HeldLock {
    block: BlockId,
    last_active_ms: u64,
    ttl_ms: Option<u64>,
}

/// Replay state for the checkpoint-replication invariants. Armed by the
/// one-shot [`EventKind::ReplicationFactor`] marker; traces without the
/// marker skip all of this and are checked exactly as before.
#[derive(Debug)]
struct ReplState {
    /// The configured replication factor `k`.
    k: usize,
    /// Cluster size (restarts of out-of-range nodes are ignored).
    nodes: u32,
    /// Nodes currently up — neither crashed nor declared dead. Checkpoint
    /// stores survive a crash (they model durable state), so a crashed
    /// node's copies merely stop counting until its restart; only a
    /// declare-dead wipes them.
    available: BTreeSet<u32>,
    /// Per object: which node holds which `(object_epoch, seq)` copy.
    holdings: BTreeMap<ObjectId, BTreeMap<u32, (u64, u64)>>,
    /// Distinct acking replicas per write, for quorum accounting.
    acks: BTreeMap<(ObjectId, u64, u64), BTreeSet<u32>>,
    /// The freshest quorum-durable write per object.
    durable: BTreeMap<ObjectId, (u64, u64)>,
    /// Objects under-replicated when the last repair sweep ran (`None`
    /// until a sweep has been seen).
    last_sweep_under: Option<BTreeSet<ObjectId>>,
}

impl ReplState {
    fn new(k: u32, nodes: u32) -> Self {
        ReplState {
            k: usize::try_from(k).unwrap_or(usize::MAX),
            nodes,
            available: (0..nodes).collect(),
            holdings: BTreeMap::new(),
            acks: BTreeMap::new(),
            durable: BTreeMap::new(),
            last_sweep_under: None,
        }
    }

    /// Copies of `object` held at currently-available nodes.
    fn live_copies(&self, object: ObjectId) -> usize {
        self.holdings.get(&object).map_or(0, |copies| {
            copies.keys().filter(|n| self.available.contains(n)).count()
        })
    }

    /// The factor the cluster can sustain right now.
    fn required(&self) -> usize {
        self.k.min(self.available.len())
    }

    /// Objects whose live copy count is below the sustainable factor.
    fn under_replicated(&self) -> BTreeSet<ObjectId> {
        self.holdings
            .keys()
            .copied()
            .filter(|o| self.live_copies(*o) < self.required())
            .collect()
    }
}

/// The checker's verdict over one trace.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Every violation found, in trace order.
    pub violations: Vec<Violation>,
    /// Events examined.
    pub events: usize,
    /// Distinct processes seen.
    pub processes: usize,
    /// Distinct objects seen in residency events.
    pub objects: usize,
    /// `Recv` events whose message id had no matching `Send` (instrumentation
    /// gaps — zero on a fully traced run).
    pub orphan_recvs: usize,
}

impl CheckReport {
    /// Whether the trace satisfied every invariant.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "checked {} events across {} processes, {} objects ({} orphan recvs)",
            self.events, self.processes, self.objects, self.orphan_recvs
        )?;
        if self.violations.is_empty() {
            write!(f, "all invariants hold")
        } else {
            writeln!(f, "{} violation(s):", self.violations.len())?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// Replays `trace` through the invariant state machines (see the module
/// docs) and reports every violation.
#[must_use]
#[allow(clippy::too_many_lines)] // one state machine per invariant, one match
pub fn check_trace(trace: &[TraceEvent]) -> CheckReport {
    let clocks = assign_clocks(trace);
    let mut report = CheckReport {
        events: trace.len(),
        ..CheckReport::default()
    };

    let mut processes: BTreeSet<u32> = BTreeSet::new();
    let mut objects: BTreeSet<ObjectId> = BTreeSet::new();
    let mut sends: BTreeSet<u64> = BTreeSet::new();

    let mut residency: BTreeMap<ObjectId, Residency> = BTreeMap::new();
    // objects that have been reinstantiated, and their latest epoch: any
    // later install of one at a node other than its current residence is a
    // fenced incarnation acting, not an ordinary double residency
    let mut live_epochs: BTreeMap<ObjectId, u64> = BTreeMap::new();
    let mut locks: BTreeMap<ObjectId, HeldLock> = BTreeMap::new();
    let mut granted: BTreeSet<BlockId> = BTreeSet::new();
    let mut denied: BTreeSet<BlockId> = BTreeSet::new();
    let mut closures: Vec<PendingClosure> = Vec::new();
    let mut repl: Option<ReplState> = None;
    // per (observing process, peer): the greatest incarnation refused at
    // handshake time — nothing at or below it may be delivered afterwards
    let mut fenced_floors: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    // per store: the freshest version acked *durable* per object (must
    // survive that store's cold restart), and appends still buffered (a
    // later WalSynced promotes them)
    let mut durable_wal: BTreeMap<u32, BTreeMap<ObjectId, (u64, u64)>> = BTreeMap::new();
    let mut buffered_wal: BTreeMap<u32, Vec<(ObjectId, u64, u64)>> = BTreeMap::new();
    // per object: the highest epoch any cold recovery handed back — later
    // reinstantiations must exceed it
    let mut recovered_floors: BTreeMap<ObjectId, u64> = BTreeMap::new();

    for (idx, ev) in trace.iter().enumerate() {
        processes.insert(ev.process);
        match &ev.kind {
            EventKind::Send { msg_id, .. } => {
                sends.insert(*msg_id);
            }
            EventKind::Recv { msg_id } => {
                if !sends.contains(msg_id) {
                    report.orphan_recvs += 1;
                }
            }
            EventKind::Install { object } => {
                objects.insert(*object);
                match residency.get(object) {
                    None => {
                        residency.insert(*object, Residency::Resident { node: ev.process });
                    }
                    Some(Residency::Resident { node }) if *node == ev.process => {
                        // duplicate install / crash-stash reclamation at the
                        // same host: a refresh, not a second replica
                    }
                    Some(Residency::Resident { node }) => {
                        if let Some(&epoch) = live_epochs.get(object) {
                            // the object was reinstantiated: a second live
                            // copy is a fenced incarnation's doing
                            report.violations.push(Violation::StaleIncarnation {
                                object: *object,
                                live_at: *node,
                                stale_at: ev.process,
                                epoch,
                            });
                        } else {
                            report.violations.push(Violation::DoubleResidency {
                                object: *object,
                                resident_at: *node,
                                also_at: ev.process,
                            });
                        }
                        residency.insert(*object, Residency::Resident { node: ev.process });
                    }
                    Some(Residency::InFlight { to, ship_idx }) => {
                        if to.as_u32() != ev.process {
                            report.violations.push(Violation::MisroutedInstall {
                                object: *object,
                                expected: *to,
                                got: ev.process,
                            });
                        } else if !clocks[*ship_idx].le(&clocks[idx]) {
                            report.violations.push(Violation::NonCausalInstall {
                                object: *object,
                                at: ev.process,
                            });
                        }
                        residency.insert(*object, Residency::Resident { node: ev.process });
                    }
                }
            }
            EventKind::Ship { object, to } => {
                objects.insert(*object);
                match residency.get(object) {
                    Some(Residency::Resident { node }) if *node == ev.process => {
                        residency.insert(
                            *object,
                            Residency::InFlight {
                                to: *to,
                                ship_idx: idx,
                            },
                        );
                    }
                    _ => {
                        report.violations.push(Violation::ShipWithoutResidency {
                            object: *object,
                            at: ev.process,
                        });
                        residency.insert(
                            *object,
                            Residency::InFlight {
                                to: *to,
                                ship_idx: idx,
                            },
                        );
                    }
                }
                // closure bookkeeping: a ship of a pending member (at the
                // closure's node, towards its destination) checks it off;
                // the main object's ship closes the closure out
                for pc in &mut closures {
                    if pc.process != ev.process {
                        continue;
                    }
                    if pc.remaining.remove(object) && *to == pc.to {
                        pc.shipped_any_member = true;
                    } else if *object == pc.main {
                        for member in std::mem::take(&mut pc.remaining) {
                            report.violations.push(Violation::ClosureMemberLeftBehind {
                                main: pc.main,
                                member,
                                to: pc.to,
                            });
                        }
                        pc.main = ObjectId::new(u32::MAX); // closed
                    }
                }
                closures.retain(|pc| pc.main != ObjectId::new(u32::MAX));
            }
            EventKind::MoveGranted { block, .. } => {
                granted.insert(*block);
            }
            EventKind::MoveDenied { block, .. } => {
                denied.insert(*block);
            }
            EventKind::LockAcquired {
                object,
                block,
                now_ms,
                ttl_ms,
            } => {
                if let Some(held) = locks.get(object) {
                    if held.block != *block {
                        match held.ttl_ms {
                            None => report.violations.push(Violation::LockOverlap {
                                object: *object,
                                holder: held.block,
                                claimant: *block,
                            }),
                            Some(ttl) => {
                                let expires = held.last_active_ms.saturating_add(ttl);
                                if expires > *now_ms {
                                    report.violations.push(Violation::LeaseOverlap {
                                        object: *object,
                                        holder: held.block,
                                        claimant: *block,
                                        remaining_ms: expires - *now_ms,
                                    });
                                }
                            }
                        }
                    }
                }
                if !granted.contains(block) {
                    if denied.contains(block) {
                        report
                            .violations
                            .push(Violation::DeniedMoverMutatedPlacement {
                                object: *object,
                                block: *block,
                            });
                    } else {
                        report.violations.push(Violation::LockWithoutGrant {
                            object: *object,
                            block: *block,
                        });
                    }
                }
                locks.insert(
                    *object,
                    HeldLock {
                        block: *block,
                        last_active_ms: *now_ms,
                        ttl_ms: *ttl_ms,
                    },
                );
            }
            EventKind::LeaseRenewed { object, now_ms } => {
                if let Some(held) = locks.get_mut(object) {
                    // the lease table only extends live leases; mirror that
                    let live = held
                        .ttl_ms
                        .is_none_or(|ttl| held.last_active_ms.saturating_add(ttl) > *now_ms);
                    if live {
                        held.last_active_ms = *now_ms;
                    }
                }
            }
            EventKind::LockReleased { object, block, .. } => match locks.get(object) {
                Some(held) if held.block == *block => {
                    locks.remove(object);
                }
                other => {
                    report.violations.push(Violation::ReleaseMismatch {
                        object: *object,
                        block: *block,
                        holder: other.map(|h| h.block),
                    });
                }
            },
            EventKind::ClosureBegin { main, to, members } => {
                closures.push(PendingClosure {
                    main: *main,
                    to: *to,
                    process: ev.process,
                    remaining: members.iter().copied().collect(),
                    shipped_any_member: false,
                });
            }
            EventKind::Reinstantiated { object, at, epoch } => {
                objects.insert(*object);
                if let Some(&floor) = recovered_floors.get(object) {
                    if *epoch <= floor {
                        report.violations.push(Violation::StaleEpochAfterRecovery {
                            object: *object,
                            epoch: *epoch,
                            floor,
                        });
                    }
                }
                if let Some(&prev) = live_epochs.get(object) {
                    if *epoch <= prev {
                        // epochs must be strictly increasing, or fencing
                        // cannot distinguish the copies
                        report.violations.push(Violation::StaleIncarnation {
                            object: *object,
                            live_at: at.as_u32(),
                            stale_at: at.as_u32(),
                            epoch: *epoch,
                        });
                    }
                }
                live_epochs.insert(*object, *epoch);
                // the fresh copy supersedes whatever residency the dead node
                // held; the matching Install at `at` is then a refresh
                residency.insert(*object, Residency::Resident { node: at.as_u32() });
            }
            EventKind::ReplicationFactor { k, nodes } => {
                repl = Some(ReplState::new(*k, *nodes));
            }
            EventKind::CheckpointStored {
                object,
                replica,
                object_epoch,
                seq,
            } => {
                if let Some(r) = repl.as_mut() {
                    let copies = r.holdings.entry(*object).or_default();
                    let version = (*object_epoch, *seq);
                    let slot = copies.entry(replica.as_u32()).or_insert(version);
                    if *slot < version {
                        *slot = version;
                    }
                }
            }
            EventKind::CheckpointAcked {
                object,
                object_epoch,
                seq,
                replica,
                quorum,
            } => {
                if let Some(r) = repl.as_mut() {
                    let set = r.acks.entry((*object, *object_epoch, *seq)).or_default();
                    set.insert(replica.as_u32());
                    if set.len() >= usize::try_from(*quorum).unwrap_or(usize::MAX) {
                        let write = (*object_epoch, *seq);
                        let durable = r.durable.entry(*object).or_insert(write);
                        if *durable < write {
                            *durable = write;
                        }
                    }
                }
            }
            EventKind::PromotedFrom {
                object,
                replica,
                object_epoch,
                seq,
            } => {
                if let Some(r) = repl.as_ref() {
                    let promoted = (*object_epoch, *seq);
                    if let Some(&durable) = r.durable.get(object) {
                        // only a violation if the durable write actually
                        // survived somewhere the promoter could have read
                        let survives = r.holdings.get(object).is_some_and(|copies| {
                            copies
                                .iter()
                                .any(|(n, v)| r.available.contains(n) && *v >= durable)
                        });
                        if durable > promoted && survives {
                            report.violations.push(Violation::StaleReplicaPromoted {
                                object: *object,
                                replica: *replica,
                                promoted,
                                durable,
                            });
                        }
                    }
                }
            }
            EventKind::RepairSweep => {
                if let Some(r) = repl.as_mut() {
                    r.last_sweep_under = Some(r.under_replicated());
                }
            }
            EventKind::Crash { node } => {
                if let Some(r) = repl.as_mut() {
                    r.available.remove(&node.as_u32());
                }
            }
            EventKind::Restart { node } => {
                if let Some(r) = repl.as_mut() {
                    if node.as_u32() < r.nodes {
                        r.available.insert(node.as_u32());
                    }
                }
            }
            EventKind::DeclaredDead { node } => {
                if let Some(r) = repl.as_mut() {
                    r.available.remove(&node.as_u32());
                    // declare-dead wipes the dead node's checkpoint store
                    for copies in r.holdings.values_mut() {
                        copies.remove(&node.as_u32());
                    }
                }
            }
            EventKind::HandshakeFenced { peer, epoch } => {
                let floor = fenced_floors.entry((ev.process, *peer)).or_insert(0);
                *floor = (*floor).max(*epoch);
            }
            EventKind::TransportDelivery { peer, epoch }
            | EventKind::TransportConnected { peer, epoch }
            | EventKind::TransportReconnected { peer, epoch, .. } => {
                if let Some(&fenced) = fenced_floors.get(&(ev.process, *peer)) {
                    if *epoch <= fenced {
                        report
                            .violations
                            .push(Violation::DeliveryAfterFencedHandshake {
                                peer: *peer,
                                epoch: *epoch,
                                fenced,
                            });
                    }
                }
            }
            EventKind::WalAppended {
                node,
                object,
                object_epoch,
                seq,
                durable,
            } => {
                let version = (*object_epoch, *seq);
                if *durable {
                    let slot = durable_wal
                        .entry(*node)
                        .or_default()
                        .entry(*object)
                        .or_insert(version);
                    if *slot < version {
                        *slot = version;
                    }
                } else {
                    buffered_wal
                        .entry(*node)
                        .or_default()
                        .push((*object, *object_epoch, *seq));
                }
            }
            EventKind::WalSynced { node, .. } => {
                // everything appended before the sync is now on stable
                // storage: promote the node's buffered appends
                for (object, object_epoch, seq) in buffered_wal.entry(*node).or_default().drain(..)
                {
                    let version = (object_epoch, seq);
                    let slot = durable_wal
                        .entry(*node)
                        .or_default()
                        .entry(object)
                        .or_insert(version);
                    if *slot < version {
                        *slot = version;
                    }
                }
            }
            EventKind::ColdRecovered {
                node, recovered, ..
            } => {
                let recovered_versions: BTreeMap<ObjectId, (u64, u64)> =
                    recovered.iter().map(|&(o, e, s)| (o, (e, s))).collect();
                if let Some(expected) = durable_wal.get(node) {
                    for (&object, &(object_epoch, seq)) in expected {
                        let survived = recovered_versions
                            .get(&object)
                            .is_some_and(|&v| v >= (object_epoch, seq));
                        if !survived {
                            report.violations.push(Violation::DurableCheckpointLost {
                                node: *node,
                                object,
                                object_epoch,
                                seq,
                            });
                        }
                    }
                }
                // the store's content after restart IS the recovered set
                // (still on disk, hence still durable); buffered appends
                // died with the process
                durable_wal.insert(*node, recovered_versions);
                buffered_wal.remove(node);
                for &(object, object_epoch, _) in recovered {
                    let floor = recovered_floors.entry(object).or_insert(0);
                    *floor = (*floor).max(object_epoch);
                }
            }
            EventKind::MoveRequested { .. }
            | EventKind::SurrenderRequested { .. }
            | EventKind::Attach { .. }
            | EventKind::Detach { .. }
            | EventKind::Suspected { .. }
            | EventKind::SuspicionCleared { .. }
            | EventKind::Fault { .. }
            | EventKind::Partition { .. }
            | EventKind::FencedStale { .. }
            | EventKind::TransportDisconnected { .. }
            | EventKind::SnapshotCompacted { .. }
            | EventKind::BreakerOpen { .. } => {}
        }
    }

    // a closure whose members departed but whose main object never shipped
    // was torn by a mid-migration failure
    for pc in &closures {
        if pc.shipped_any_member {
            report.violations.push(Violation::ClosureTorn {
                main: pc.main,
                to: pc.to,
            });
        }
    }

    // a replication deficit counts only if it is present at trace end AND
    // the last repair sweep had already seen it — a dip the next sweep
    // would have fixed is the protocol working as designed
    if let Some(r) = &repl {
        if let Some(sweep_under) = &r.last_sweep_under {
            for object in r.under_replicated() {
                if sweep_under.contains(&object) {
                    report
                        .violations
                        .push(Violation::ReplicationFactorViolation {
                            object,
                            replicas: u32::try_from(r.live_copies(object)).unwrap_or(u32::MAX),
                            required: u32::try_from(r.required()).unwrap_or(u32::MAX),
                        });
                }
            }
        }
    }

    report.processes = processes.len();
    report.objects = objects.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn obj(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn blk(i: u32) -> BlockId {
        BlockId::new(i)
    }
    fn install(p: u32, o: u32) -> TraceEvent {
        TraceEvent::new(p, EventKind::Install { object: obj(o) })
    }
    fn ship(p: u32, o: u32, to: u32) -> TraceEvent {
        TraceEvent::new(
            p,
            EventKind::Ship {
                object: obj(o),
                to: NodeId::new(to),
            },
        )
    }
    fn send(p: u32, id: u64, to: u32) -> TraceEvent {
        TraceEvent::new(
            p,
            EventKind::Send {
                msg_id: id,
                to,
                desc: String::new(),
            },
        )
    }
    fn recv(p: u32, id: u64) -> TraceEvent {
        TraceEvent::new(p, EventKind::Recv { msg_id: id })
    }
    fn granted(o: u32, b: u32) -> TraceEvent {
        let (object, block) = (obj(o), blk(b));
        TraceEvent::new(0, EventKind::MoveGranted { object, block })
    }
    fn locked(o: u32, b: u32, now_ms: u64, ttl_ms: Option<u64>) -> TraceEvent {
        let (object, block) = (obj(o), blk(b));
        let acquired = EventKind::LockAcquired {
            object,
            block,
            now_ms,
            ttl_ms,
        };
        TraceEvent::new(0, acquired)
    }
    /// Object 1's closure, with member 2, headed for node 2.
    fn closure_1_2_to_2() -> TraceEvent {
        let (main, to, members) = (obj(1), NodeId::new(2), vec![obj(2)]);
        TraceEvent::new(0, EventKind::ClosureBegin { main, to, members })
    }

    #[test]
    fn clean_migration_passes() {
        let trace = vec![
            install(0, 1),
            ship(0, 1, 2),
            send(0, 9, 2),
            recv(2, 9),
            install(2, 1),
        ];
        let report = check_trace(&trace);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.objects, 1);
    }

    #[test]
    fn install_without_causal_ship_is_flagged() {
        // the ship and install are on different processes with no message
        // edge between them: concurrent, hence non-causal
        let trace = vec![install(0, 1), ship(0, 1, 2), install(2, 1)];
        let report = check_trace(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::NonCausalInstall { .. }]
        ));
    }

    #[test]
    fn misrouted_install_is_flagged() {
        let trace = vec![
            install(0, 1),
            ship(0, 1, 2),
            send(0, 9, 3),
            recv(3, 9),
            install(3, 1),
        ];
        let report = check_trace(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::MisroutedInstall { .. }]
        ));
    }

    #[test]
    fn ship_of_unhosted_object_is_flagged() {
        let trace = vec![ship(0, 1, 2)];
        let report = check_trace(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::ShipWithoutResidency { .. }]
        ));
    }

    #[test]
    fn reinstall_at_same_node_is_a_refresh() {
        // crash-stash reclamation reinstalls at the same host
        let trace = vec![install(0, 1), install(0, 1)];
        assert!(check_trace(&trace).is_clean());
    }

    #[test]
    fn lock_lifecycle_is_clean() {
        let (object, block) = (obj(1), blk(0));
        let cause = crate::event::ReleaseCause::End;
        let trace = vec![
            granted(1, 0),
            locked(1, 0, 0, Some(100)),
            TraceEvent::new(0, EventKind::LeaseRenewed { object, now_ms: 50 }),
            TraceEvent::new(
                0,
                EventKind::LockReleased {
                    object,
                    block,
                    cause,
                },
            ),
        ];
        assert!(check_trace(&trace).is_clean());
    }

    #[test]
    fn acquire_after_expiry_is_sound() {
        let trace = vec![
            granted(1, 0),
            locked(1, 0, 0, Some(100)),
            granted(1, 1),
            // 100 ms TTL, acquired at 0, next grant at 150: lease had expired
            locked(1, 1, 150, Some(100)),
        ];
        assert!(check_trace(&trace).is_clean());
    }

    #[test]
    fn duplicate_grant_then_deny_is_not_a_denied_mutation() {
        // a duplicated move-request: first copy granted (lock taken), the
        // second copy denied — the block appears in both sets, but the lock
        // acquisition is explained by the grant
        let (object, block) = (obj(1), blk(0));
        let trace = vec![
            granted(1, 0),
            locked(1, 0, 0, None),
            TraceEvent::new(0, EventKind::MoveDenied { object, block }),
        ];
        assert!(check_trace(&trace).is_clean());
    }

    #[test]
    fn closure_members_shipping_before_main_pass() {
        let trace = vec![
            install(0, 1),
            install(0, 2),
            closure_1_2_to_2(),
            ship(0, 2, 2),
            ship(0, 1, 2),
        ];
        let report = check_trace(&trace);
        // non-causal installs are absent because nothing installed yet; the
        // closure itself is clean
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn closure_member_left_behind_is_flagged() {
        let trace = vec![
            install(0, 1),
            install(0, 2),
            closure_1_2_to_2(),
            // main ships without the member
            ship(0, 1, 2),
        ];
        let report = check_trace(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::ClosureMemberLeftBehind { .. }]
        ));
    }

    #[test]
    fn torn_closure_is_flagged() {
        let trace = vec![
            install(0, 1),
            install(0, 2),
            closure_1_2_to_2(),
            // the member departs but the main object never does
            ship(0, 2, 2),
        ];
        let report = check_trace(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::ClosureTorn { .. }]
        ));
    }

    #[test]
    fn report_renders_violations() {
        let trace = vec![install(0, 1), install(2, 1)];
        let report = check_trace(&trace);
        assert!(!report.is_clean());
        let text = report.to_string();
        assert!(text.contains("double residency"), "{text}");
    }

    fn reinstantiate(o: u32, at: u32, epoch: u64) -> TraceEvent {
        TraceEvent::new(
            crate::event::CLIENT_PROCESS,
            EventKind::Reinstantiated {
                object: obj(o),
                at: NodeId::new(at),
                epoch,
            },
        )
    }

    #[test]
    fn reinstantiation_after_crash_is_clean() {
        let trace = vec![
            install(2, 1),
            crash(2),
            dead(2),
            reinstantiate(1, 0, 1),
            // the matching install at the reinstantiation target
            install(0, 1),
        ];
        let report = check_trace(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn zombie_install_after_reinstantiation_is_stale_incarnation() {
        let trace = vec![
            install(2, 1),
            reinstantiate(1, 0, 1),
            install(0, 1),
            // the dead node's zombie reclaims its stashed copy
            install(2, 1),
        ];
        let report = check_trace(&trace);
        assert!(
            matches!(
                report.violations.as_slice(),
                [Violation::StaleIncarnation {
                    stale_at: 2,
                    live_at: 0,
                    ..
                }]
            ),
            "{report}"
        );
        assert!(report.to_string().contains("stale incarnation"));
    }

    #[test]
    fn non_increasing_reinstantiation_epoch_is_flagged() {
        let trace = vec![
            install(2, 1),
            reinstantiate(1, 0, 2),
            reinstantiate(1, 1, 2),
        ];
        let report = check_trace(&trace);
        assert!(
            matches!(
                report.violations.as_slice(),
                [Violation::StaleIncarnation { epoch: 2, .. }]
            ),
            "{report}"
        );
    }

    #[test]
    fn plain_double_residency_is_not_mislabelled() {
        // without any reinstantiation the old verdict is unchanged
        let trace = vec![install(0, 1), install(2, 1)];
        let report = check_trace(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::DoubleResidency { .. }]
        ));
    }

    fn repl_marker(k: u32, nodes: u32) -> TraceEvent {
        TraceEvent::new(
            crate::event::CLIENT_PROCESS,
            EventKind::ReplicationFactor { k, nodes },
        )
    }
    fn stored(o: u32, at: u32, epoch: u64, seq: u64) -> TraceEvent {
        TraceEvent::new(
            at,
            EventKind::CheckpointStored {
                object: obj(o),
                replica: NodeId::new(at),
                object_epoch: epoch,
                seq,
            },
        )
    }
    fn acked(o: u32, epoch: u64, seq: u64, replica: u32, quorum: u32) -> TraceEvent {
        TraceEvent::new(
            crate::event::CLIENT_PROCESS,
            EventKind::CheckpointAcked {
                object: obj(o),
                object_epoch: epoch,
                seq,
                replica: NodeId::new(replica),
                quorum,
            },
        )
    }
    fn sweep() -> TraceEvent {
        TraceEvent::new(crate::event::CLIENT_PROCESS, EventKind::RepairSweep)
    }
    fn dead(n: u32) -> TraceEvent {
        let node = NodeId::new(n);
        TraceEvent::new(
            crate::event::CLIENT_PROCESS,
            EventKind::DeclaredDead { node },
        )
    }
    fn crash(n: u32) -> TraceEvent {
        let node = NodeId::new(n);
        TraceEvent::new(crate::event::CLIENT_PROCESS, EventKind::Crash { node })
    }
    fn promoted(o: u32, from: u32, epoch: u64, seq: u64) -> TraceEvent {
        TraceEvent::new(
            crate::event::CLIENT_PROCESS,
            EventKind::PromotedFrom {
                object: obj(o),
                replica: NodeId::new(from),
                object_epoch: epoch,
                seq,
            },
        )
    }

    #[test]
    fn replicated_checkpoints_at_full_factor_pass() {
        let trace = vec![
            repl_marker(2, 3),
            stored(1, 0, 0, 0),
            stored(1, 1, 0, 0),
            sweep(),
        ];
        let report = check_trace(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn deficit_surviving_the_last_sweep_is_flagged() {
        // n1 is declared dead (its copy wiped); the sweep after it sees o1
        // down to one copy and nothing repairs it before the trace ends
        let trace = vec![
            repl_marker(2, 3),
            stored(1, 0, 0, 0),
            stored(1, 1, 0, 0),
            dead(1),
            sweep(),
        ];
        let report = check_trace(&trace);
        assert!(
            matches!(
                report.violations.as_slice(),
                [Violation::ReplicationFactorViolation {
                    replicas: 1,
                    required: 2,
                    ..
                }]
            ),
            "{report}"
        );
        assert!(report.to_string().contains("replication factor"));
    }

    #[test]
    fn deficit_arising_after_the_last_sweep_passes() {
        // the death lands after the sweep: the next sweep would have fixed
        // it, so a trace ending here is not a repair failure
        let trace = vec![
            repl_marker(2, 3),
            stored(1, 0, 0, 0),
            stored(1, 1, 0, 0),
            sweep(),
            dead(1),
        ];
        assert!(check_trace(&trace).is_clean());
    }

    #[test]
    fn repair_restoring_the_factor_clears_the_deficit() {
        let trace = vec![
            repl_marker(2, 3),
            stored(1, 0, 0, 0),
            stored(1, 1, 0, 0),
            dead(1),
            sweep(),
            // anti-entropy re-replicates onto n2 before the trace ends
            stored(1, 2, 0, 0),
        ];
        let report = check_trace(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn crashed_nodes_retain_but_do_not_count_their_copies() {
        let node = NodeId::new(1);
        let restart = TraceEvent::new(crate::event::CLIENT_PROCESS, EventKind::Restart { node });
        // crash (copy dormant, sweep sees a deficit) then restart (copy
        // counts again): clean at trace end
        let trace = vec![
            repl_marker(2, 3),
            stored(1, 0, 0, 0),
            stored(1, 1, 0, 0),
            crash(1),
            sweep(),
            restart,
        ];
        let report = check_trace(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn stale_promotion_over_surviving_quorum_write_is_flagged() {
        let trace = vec![
            repl_marker(2, 3),
            stored(1, 0, 1, 5),
            stored(1, 1, 1, 5),
            acked(1, 1, 5, 0, 2),
            acked(1, 1, 5, 1, 2),
            // recovery promotes n2's old copy although n0 still holds e1.5
            promoted(1, 2, 1, 3),
        ];
        let report = check_trace(&trace);
        assert!(
            matches!(
                report.violations.as_slice(),
                [Violation::StaleReplicaPromoted {
                    promoted: (1, 3),
                    durable: (1, 5),
                    ..
                }]
            ),
            "{report}"
        );
        assert!(report.to_string().contains("stale replica promoted"));
    }

    #[test]
    fn promoting_the_best_survivor_is_not_stale() {
        // the quorum-durable copy died with n0 and n1; promoting n2's older
        // copy is the best recovery can do
        let trace = vec![
            repl_marker(2, 3),
            stored(1, 0, 1, 5),
            stored(1, 1, 1, 5),
            acked(1, 1, 5, 0, 2),
            acked(1, 1, 5, 1, 2),
            stored(1, 2, 1, 3),
            dead(0),
            dead(1),
            promoted(1, 2, 1, 3),
        ];
        let report = check_trace(&trace);
        assert!(
            !report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::StaleReplicaPromoted { .. })),
            "{report}"
        );
    }

    #[test]
    fn duplicate_acks_from_one_replica_never_reach_quorum() {
        // the same replica acking twice is one vote, not two: the write
        // never becomes durable, so the later promotion cannot be stale
        let trace = vec![
            repl_marker(2, 3),
            stored(1, 0, 1, 5),
            acked(1, 1, 5, 0, 2),
            acked(1, 1, 5, 0, 2),
            promoted(1, 2, 1, 3),
        ];
        let report = check_trace(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn unarmed_traces_ignore_replication_events() {
        // without the ReplicationFactor marker the new events are inert
        let trace = vec![stored(1, 0, 0, 0), dead(0), sweep(), promoted(1, 2, 0, 0)];
        assert!(check_trace(&trace).is_clean());
    }

    /// Detector, fencing, fault and partition events explain a run; they
    /// are local ticks, never a violation.
    #[test]
    fn detector_and_fault_events_are_benign_local_ticks() {
        use crate::event::MessageFault::{Delay, Drop, Duplicate, PartitionDrop};
        let (node, a, b) = (NodeId::new(1), NodeId::new(0), NodeId::new(2));
        let fault = |fault, seq| EventKind::Fault {
            fault,
            to: 2,
            seq,
            desc: String::new(),
        };
        let kinds = [
            EventKind::Suspected { node },
            EventKind::BreakerOpen { node },
            EventKind::SuspicionCleared { node },
            EventKind::Partition {
                a,
                b,
                severed: true,
            },
            fault(PartitionDrop, None),
            fault(Drop, Some(4)),
            fault(Duplicate, Some(5)),
            fault(Delay(3), Some(5)),
            EventKind::Partition {
                a,
                b,
                severed: false,
            },
            EventKind::FencedStale { epoch: 3 },
        ];
        let trace: Vec<TraceEvent> = (kinds.into_iter())
            .map(|kind| TraceEvent::new(1, kind))
            .collect();
        assert!(check_trace(&trace).is_clean());
    }

    fn hs_fenced(at: u32, peer: u32, epoch: u64) -> TraceEvent {
        TraceEvent::new(at, EventKind::HandshakeFenced { peer, epoch })
    }
    fn delivery(at: u32, peer: u32, epoch: u64) -> TraceEvent {
        TraceEvent::new(at, EventKind::TransportDelivery { peer, epoch })
    }

    #[test]
    fn delivery_after_fenced_handshake_is_flagged() {
        let trace = vec![hs_fenced(0, 2, 1), delivery(0, 2, 1)];
        let report = check_trace(&trace);
        assert!(
            matches!(
                report.violations.as_slice(),
                [Violation::DeliveryAfterFencedHandshake {
                    peer: 2,
                    epoch: 1,
                    fenced: 1,
                }]
            ),
            "{report}"
        );
        assert!(report
            .to_string()
            .contains("delivery after fenced handshake"));
    }

    #[test]
    fn older_than_fenced_incarnation_is_also_flagged() {
        // refusing incarnation 3 fences everything at or below it
        let trace = vec![
            hs_fenced(0, 1, 3),
            TraceEvent::new(
                0,
                EventKind::TransportReconnected {
                    peer: 1,
                    epoch: 2,
                    attempt: 4,
                },
            ),
        ];
        let report = check_trace(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::DeliveryAfterFencedHandshake {
                epoch: 2,
                fenced: 3,
                ..
            }]
        ));
    }

    #[test]
    fn fresh_incarnation_after_fence_is_clean() {
        // the legitimate successor (strictly newer incarnation) connects,
        // delivers, drops, reconnects — none of it violates the fence
        let trace = vec![
            hs_fenced(0, 2, 1),
            TraceEvent::new(0, EventKind::TransportConnected { peer: 2, epoch: 2 }),
            delivery(0, 2, 2),
            TraceEvent::new(0, EventKind::TransportDisconnected { peer: 2 }),
            TraceEvent::new(
                0,
                EventKind::TransportReconnected {
                    peer: 2,
                    epoch: 2,
                    attempt: 2,
                },
            ),
            delivery(0, 2, 2),
        ];
        assert!(check_trace(&trace).is_clean());
    }

    #[test]
    fn fences_are_per_observer_and_per_peer() {
        // node 1's fence of peer 2 says nothing about other observers or
        // other peers
        let trace = vec![hs_fenced(1, 2, 5), delivery(0, 2, 5), delivery(1, 3, 5)];
        assert!(check_trace(&trace).is_clean());
    }

    fn wal_append(node: u32, o: u32, epoch: u64, seq: u64, durable: bool) -> TraceEvent {
        TraceEvent::new(
            node,
            EventKind::WalAppended {
                node,
                object: obj(o),
                object_epoch: epoch,
                seq,
                durable,
            },
        )
    }
    fn wal_sync(node: u32, records: u64) -> TraceEvent {
        TraceEvent::new(node, EventKind::WalSynced { node, records })
    }
    fn cold(node: u32, recovered: Vec<(u32, u64, u64)>) -> TraceEvent {
        TraceEvent::new(
            node,
            EventKind::ColdRecovered {
                node,
                recovered: recovered
                    .into_iter()
                    .map(|(o, e, s)| (obj(o), e, s))
                    .collect(),
                torn: false,
                corrupt: false,
            },
        )
    }

    #[test]
    fn durable_append_surviving_cold_restart_is_clean() {
        let trace = vec![
            wal_append(0, 1, 1, 0, true),
            wal_append(0, 1, 1, 1, true),
            cold(0, vec![(1, 1, 1)]),
        ];
        let report = check_trace(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn durable_append_missing_after_cold_restart_is_flagged() {
        let trace = vec![wal_append(0, 1, 1, 3, true), cold(0, vec![(1, 1, 2)])];
        let report = check_trace(&trace);
        assert!(
            matches!(
                report.violations.as_slice(),
                [Violation::DurableCheckpointLost {
                    node: 0,
                    object_epoch: 1,
                    seq: 3,
                    ..
                }]
            ),
            "{report}"
        );
        assert!(report.to_string().contains("durable checkpoint lost"));
    }

    #[test]
    fn buffered_append_lost_in_cold_restart_is_acceptable() {
        // fsync=Never: the append was acked Buffered, so losing it is the
        // documented contract, not a violation
        let trace = vec![wal_append(0, 1, 1, 0, false), cold(0, vec![])];
        assert!(check_trace(&trace).is_clean());
    }

    #[test]
    fn synced_append_becomes_durable_and_must_survive() {
        let trace = vec![
            wal_append(0, 1, 1, 0, false),
            wal_sync(0, 1),
            cold(0, vec![]),
        ];
        let report = check_trace(&trace);
        assert!(
            matches!(
                report.violations.as_slice(),
                [Violation::DurableCheckpointLost { .. }]
            ),
            "{report}"
        );
    }

    #[test]
    fn wal_tracking_is_per_store() {
        // node 1's restart says nothing about node 0's durable records
        let trace = vec![wal_append(0, 1, 1, 0, true), cold(1, vec![])];
        assert!(check_trace(&trace).is_clean());
    }

    #[test]
    fn recovery_resets_the_durable_set_to_what_survived() {
        // after a clean recovery a second restart only owes what the first
        // one handed back
        let trace = vec![
            wal_append(0, 1, 1, 0, false),
            cold(0, vec![]),
            cold(0, vec![]),
        ];
        assert!(check_trace(&trace).is_clean());
    }

    #[test]
    fn reinstantiation_below_recovered_floor_is_flagged() {
        let trace = vec![cold(0, vec![(1, 4, 0)]), reinstantiate(1, 0, 3)];
        let report = check_trace(&trace);
        assert!(
            matches!(
                report.violations.as_slice(),
                [Violation::StaleEpochAfterRecovery {
                    epoch: 3,
                    floor: 4,
                    ..
                }]
            ),
            "{report}"
        );
        assert!(report.to_string().contains("stale epoch after recovery"));
    }

    #[test]
    fn reinstantiation_above_recovered_floor_is_clean() {
        let trace = vec![cold(0, vec![(1, 4, 0)]), reinstantiate(1, 0, 5)];
        let report = check_trace(&trace);
        assert!(report.is_clean(), "{report}");
    }
}
