//! Crash recovery: failure detection, epoch fencing, passive checkpoints
//! and per-node circuit breakers.
//!
//! The paper's "comparing and reinstantiation" policy already sanctions
//! re-creating an object elsewhere when its host is unreachable; this module
//! supplies the machinery that makes doing so safe in the threads-and-
//! channels runtime:
//!
//! * **Failure detector** — every node heartbeats on each of its ticks; a
//!   node that misses `k_missed` consecutive heartbeat intervals is
//!   *suspected*, and *declared dead* only when its state is also known to
//!   be gone. A partitioned node keeps beating (the detector also consults
//!   the fault injector's partition table) so it is only ever suspected,
//!   never declared dead.
//! * **Incarnation epochs** — every node carries an incarnation number,
//!   bumped when the node is declared dead and again when it rejoins. Every
//!   message is stamped with its sender's incarnation; receivers drop
//!   messages from incarnations older than the latest they know of, so a
//!   zombie's state (or its delayed messages) cannot corrupt state installed
//!   by its successor.
//! * **Replicated checkpoints** — each object keeps `k` linearized passive
//!   copies on a deterministic, home-preferred, rendezvous-hashed replica
//!   set, refreshed on create, migration install, `end()`-requests and lease
//!   expiry. Refreshes propagate as `CheckpointPut` messages and count
//!   `CheckpointAck`s (deduplicated per replica) against a majority write
//!   quorum. When a node is declared dead its stranded objects are
//!   reinstantiated from the *freshest surviving replica* — ordered by
//!   `(object epoch, refresh sequence)` — under a bumped object epoch;
//!   installs carrying an older object epoch are fenced. A background
//!   anti-entropy repair sweep re-replicates under-replicated objects and
//!   heals replicas diverged by dropped refresh traffic.
//! * **Circuit breaker** — one per node: `Open` on suspicion or death
//!   (calls fail fast with [`crate::RuntimeError::NodeDown`]), `HalfOpen`
//!   when heartbeats resume, at which point exactly one probe call is
//!   admitted; its success closes the breaker, its failure reopens it.
//!
//! Per-node state (incarnation, liveness, health, breaker) is atomics here;
//! an object's epoch lives in the cluster's object table beside its
//! location, so each decision across them — declare-dead, rejoin, stash
//! reclamation — runs under that table's one write guard and no lock nests.
//!
//! The whole subsystem is inert unless [`crate::ClusterBuilder::failure_detector`]
//! is called: without a detector the runtime behaves exactly as before.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

use oml_core::ids::{NodeId, ObjectId};

use crate::cluster::ObjectRecord;
use crate::idmap::IdMap;
use crate::store::{CheckpointStore, StoredCheckpoint};
use crate::trace::OrderedMutex;

/// Failure-detector tuning: how often nodes are expected to beat, and how
/// many missed beats arouse suspicion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DetectorConfig {
    /// Expected heartbeat interval in milliseconds.
    pub heartbeat_ms: u64,
    /// Consecutive missed beats before a node is suspected (and, if its
    /// state is gone, declared dead).
    pub k_missed: u32,
}

impl DetectorConfig {
    /// The silence window after which a node is suspected:
    /// `k_missed * heartbeat_ms`.
    #[must_use]
    pub(crate) fn suspicion_after_ms(&self) -> u64 {
        self.heartbeat_ms.saturating_mul(u64::from(self.k_missed))
    }
}

/// The failure detector's current verdict on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeHealth {
    /// Beating normally.
    Up,
    /// Missed beats or partitioned away — calls fail fast, but the node may
    /// come back (suspicion is revocable).
    Suspected,
    /// Declared dead: its incarnation is fenced and its objects have been
    /// reinstantiated. Only [`crate::Cluster::restart_node`] (in the
    /// multi-process runtime, [`crate::MultiProcCluster::respawn`]) revives
    /// it.
    Dead,
}

/// A negative control: one recovery mechanism deliberately broken, so a
/// test can show that the `oml-check` invariant guarding it bites. Installed
/// with [`crate::ClusterBuilder::sabotage`]; no production configuration
/// sets one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Epoch fencing is off: zombie states and their stale messages are
    /// *not* rejected, so [`crate::Cluster::zombie_restart_node`] observably
    /// corrupts state — the scenario the stale-incarnation invariant exists
    /// to catch.
    Unfenced,
    /// Reinstantiation promotes the *stalest* surviving replica instead of
    /// the freshest: a quorum-acked write is then observably lost even
    /// though a fresher copy survives — the scenario the
    /// `StaleReplicaPromoted` invariant exists to catch.
    StalePromotion,
    /// The anti-entropy repair sweep re-replicates nothing: objects
    /// under-replicated by deaths or dropped refresh traffic *stay*
    /// under-replicated — the scenario the `ReplicationFactorViolation`
    /// invariant exists to catch.
    NoRepair,
}

const HEALTH_UP: u8 = 0;
const HEALTH_SUSPECTED: u8 = 1;
const HEALTH_DEAD: u8 = 2;

const BREAKER_CLOSED: u8 = 0;
const BREAKER_OPEN: u8 = 1;
const BREAKER_HALF_OPEN: u8 = 2;
const BREAKER_PROBING: u8 = 3;

/// What the circuit breaker says about admitting one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Breaker closed: proceed normally.
    Proceed,
    /// Breaker was half-open and this call won the probe slot: proceed, and
    /// report the outcome via [`RecoveryState::settle`].
    Probe,
    /// Breaker open (or another probe is in flight): fail fast.
    FailFast,
}

/// An in-flight quorum-acknowledged refresh: which write we are waiting on
/// and which replicas have acked it so far.
pub(crate) struct PendingRefresh {
    pub(crate) object_epoch: u64,
    pub(crate) seq: u64,
    /// Acks needed before the write counts as quorum-durable.
    pub(crate) quorum: usize,
    /// Raw node ids that acked `(object_epoch, seq)`, each at most once —
    /// duplicated or re-sent acks from the same replica count once. At most
    /// `k` entries, so a scan beats a hash set.
    pub(crate) acked: Vec<u32>,
}

/// Per-object replication bookkeeping: placement anchor, refresh sequencing
/// and quorum progress.
pub(crate) struct ReplicationInfo {
    /// [`preference_order`] of the object, computed once at creation: it
    /// depends only on the object, its home and the node count. The home
    /// node (where the object was created) leads it — the preferred first
    /// replica and reinstantiation site.
    pub(crate) order: Vec<NodeId>,
    /// Last refresh sequence issued. Monotone for the object's lifetime —
    /// never reset on epoch bumps, so `(epoch, seq)` never repeats.
    pub(crate) seq: u64,
    /// The refresh currently collecting acks, if any.
    pub(crate) pending: Option<PendingRefresh>,
    /// Freshest `(object_epoch, seq)` known to have reached a write quorum.
    pub(crate) last_quorum: Option<(u64, u64)>,
    /// Lease-clock timestamp of the last refresh issued or confirmed
    /// current (or of the initial checkpoint), for the oldest-refresh-age
    /// health metric.
    pub(crate) last_refresh_at_ms: u64,
}

/// The replica table: every node's store of passive copies and every
/// object's replication bookkeeping, one value behind one lock.
pub(crate) struct Replicas {
    /// `stores[n]` is node `n`'s [`CheckpointStore`] — in-memory by
    /// default, WAL-backed via [`crate::ClusterBuilder::durable_store`].
    pub(crate) stores: Vec<Box<dyn CheckpointStore>>,
    /// Per-object replication bookkeeping (home, sequencing, quorum acks).
    pub(crate) objects: IdMap<ObjectId, ReplicationInfo>,
}

impl Replicas {
    /// The freshest copy of `object` on a store `available` admits, and
    /// its node: the highest `(object_epoch, seq)`, the lowest node among
    /// equals. `stalest` inverts the order ([`Sabotage::StalePromotion`]).
    pub(crate) fn freshest(
        &self,
        object: ObjectId,
        available: impl Fn(usize) -> bool,
        stalest: bool,
    ) -> Option<(NodeId, &StoredCheckpoint)> {
        let stores = self.stores.iter().enumerate();
        let stores = stores.filter(|&(n, _)| available(n));
        let copies = stores.filter_map(|(n, s)| Some((NodeId::new(n as u32), s.get(object)?)));
        copies.reduce(|best, copy| {
            let (new, old) = (copy.1.version(), best.1.version());
            let better = if stalest { new < old } else { new > old };
            if better {
                copy
            } else {
                best
            }
        })
    }
}

/// All recovery-subsystem state, held in `Shared` when a detector is
/// configured.
pub(crate) struct RecoveryState {
    pub(crate) config: DetectorConfig,
    /// Replication factor `k = f + 1`: how many nodes hold each object's
    /// passive copy (clamped to the cluster size at placement time).
    pub(crate) replica_k: usize,
    /// The mechanism a negative control broke, if any.
    pub(crate) sabotage: Option<Sabotage>,
    /// Current incarnation per node; starts at 1.
    incarnations: Vec<AtomicU64>,
    /// Whether the node's state is (believed) in its slot. Gates *death*
    /// only — suspicion is pure heartbeat observation.
    alive: Vec<AtomicBool>,
    /// Lease-clock timestamp of each node's last accepted heartbeat.
    last_beat: Vec<AtomicU64>,
    health: Vec<AtomicU8>,
    breakers: Vec<AtomicU8>,
    /// The replica table, one lock: promotion and repair planning read one
    /// cut, and no path takes a second lock for the other half.
    pub(crate) replicas: OrderedMutex<Replicas>,
}

impl RecoveryState {
    pub(crate) fn new(
        nodes: usize,
        config: DetectorConfig,
        replica_k: usize,
        sabotage: Option<Sabotage>,
        stores: Vec<Box<dyn CheckpointStore>>,
    ) -> Self {
        assert_eq!(stores.len(), nodes, "one checkpoint store per node");
        let replicas = Replicas {
            stores,
            objects: IdMap::default(),
        };
        RecoveryState {
            config,
            replica_k,
            sabotage,
            incarnations: (0..nodes).map(|_| AtomicU64::new(1)).collect(),
            alive: (0..nodes).map(|_| AtomicBool::new(true)).collect(),
            last_beat: (0..nodes).map(|_| AtomicU64::new(0)).collect(),
            health: (0..nodes).map(|_| AtomicU8::new(HEALTH_UP)).collect(),
            breakers: (0..nodes).map(|_| AtomicU8::new(BREAKER_CLOSED)).collect(),
            replicas: OrderedMutex::new("shared.replicas", replicas),
        }
    }

    /// Can `node` currently hold (or serve) a replica? Crashed and declared-
    /// dead nodes cannot; a merely *suspected* node still can — its store is
    /// intact and refresh traffic to it may well arrive.
    pub(crate) fn replica_available(&self, node: usize) -> bool {
        self.is_alive(node) && self.health(node) != NodeHealth::Dead
    }

    /// The replica set `order` currently yields: its first `k` available
    /// nodes.
    pub(crate) fn replica_targets<'a>(
        &'a self,
        order: &'a [NodeId],
    ) -> impl Iterator<Item = NodeId> + 'a {
        order
            .iter()
            .copied()
            .filter(|n| self.replica_available(n.index()))
            .take(self.replica_k)
    }

    /// Whether a refresh of `object` to `ckpt` (stamped with the current
    /// object epoch) would write nothing new: no refresh of it is pending,
    /// its last write to reach a quorum is `(that epoch, info.seq)`, and
    /// every current replica target holds exactly that version, with the
    /// same type tag and state bytes. *Every* target, not a quorum of them:
    /// a target that missed the write — partitioned, dropped, or new to the
    /// set — gets the copy with this refresh rather than at the next repair
    /// sweep. A reinstantiation's epoch bump, a changed state or a changed
    /// replica set is never held. A held `ckpt` takes the replicas' state
    /// buffer in place of its own equal one, so comparing it again reads
    /// no bytes.
    pub(crate) fn is_held(
        &self,
        stores: &[Box<dyn CheckpointStore>],
        object: ObjectId,
        info: &ReplicationInfo,
        ckpt: &mut StoredCheckpoint,
    ) -> bool {
        let version = (ckpt.object_epoch, info.seq);
        if info.pending.is_some() || info.last_quorum != Some(version) {
            return false;
        }
        let mut held = None;
        for target in self.replica_targets(&info.order) {
            let copy = stores[target.index()].get(object).filter(|c| {
                c.version() == version && c.type_tag == ckpt.type_tag && c.state == ckpt.state
            });
            let Some(copy) = copy else {
                return false;
            };
            held.get_or_insert(&copy.state);
        }
        let Some(state) = held else {
            return false; // no replica target at all
        };
        ckpt.state = state.clone();
        true
    }

    pub(crate) fn incarnation(&self, node: usize) -> u64 {
        self.incarnations[node].load(Ordering::Acquire)
    }

    /// Bumps and returns the node's new incarnation (fencing the old one).
    pub(crate) fn bump_incarnation(&self, node: usize) -> u64 {
        self.incarnations[node].fetch_add(1, Ordering::AcqRel) + 1
    }

    pub(crate) fn is_alive(&self, node: usize) -> bool {
        self.alive[node].load(Ordering::Acquire)
    }

    pub(crate) fn mark_crashed(&self, node: usize) {
        self.alive[node].store(false, Ordering::Release);
    }

    pub(crate) fn mark_alive(&self, node: usize, now_ms: u64) {
        self.alive[node].store(true, Ordering::Release);
        self.last_beat[node].store(now_ms, Ordering::Release);
    }

    /// Records a heartbeat from incarnation `epoch` of `node`. Beats from
    /// fenced incarnations are ignored — a zombie cannot revive its node's
    /// health.
    pub(crate) fn beat(&self, node: usize, epoch: u64, now_ms: u64) {
        if epoch < self.incarnation(node) {
            return;
        }
        self.last_beat[node].fetch_max(now_ms, Ordering::AcqRel);
    }

    pub(crate) fn last_beat(&self, node: usize) -> u64 {
        self.last_beat[node].load(Ordering::Acquire)
    }

    pub(crate) fn health(&self, node: usize) -> NodeHealth {
        match self.health[node].load(Ordering::Acquire) {
            HEALTH_SUSPECTED => NodeHealth::Suspected,
            HEALTH_DEAD => NodeHealth::Dead,
            _ => NodeHealth::Up,
        }
    }

    pub(crate) fn set_health(&self, node: usize, health: NodeHealth) {
        let raw = match health {
            NodeHealth::Up => HEALTH_UP,
            NodeHealth::Suspected => HEALTH_SUSPECTED,
            NodeHealth::Dead => HEALTH_DEAD,
        };
        self.health[node].store(raw, Ordering::Release);
    }

    /// Opens the breaker; returns whether it actually transitioned (for the
    /// `breaker_opens` counter).
    pub(crate) fn open_breaker(&self, node: usize) -> bool {
        self.breakers[node].swap(BREAKER_OPEN, Ordering::AcqRel) != BREAKER_OPEN
    }

    /// Moves an open breaker to half-open (heartbeats resumed — the next
    /// call is admitted as a probe).
    pub(crate) fn half_open_breaker(&self, node: usize) {
        let _ = self.breakers[node].compare_exchange(
            BREAKER_OPEN,
            BREAKER_HALF_OPEN,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// The breaker's verdict for one call to `node`.
    pub(crate) fn admit(&self, node: usize) -> Admission {
        match self.breakers[node].load(Ordering::Acquire) {
            BREAKER_CLOSED => Admission::Proceed,
            BREAKER_HALF_OPEN => {
                // exactly one caller wins the probe slot
                if self.breakers[node]
                    .compare_exchange(
                        BREAKER_HALF_OPEN,
                        BREAKER_PROBING,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    Admission::Probe
                } else {
                    Admission::FailFast
                }
            }
            _ => Admission::FailFast,
        }
    }

    /// Records a call's outcome: a successful probe closes the breaker, a
    /// failed one reopens it. Returns whether the breaker (re)opened.
    pub(crate) fn settle(&self, node: usize, success: bool) -> bool {
        if success {
            let _ = self.breakers[node].compare_exchange(
                BREAKER_PROBING,
                BREAKER_CLOSED,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
            false
        } else {
            self.breakers[node]
                .compare_exchange(
                    BREAKER_PROBING,
                    BREAKER_OPEN,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
        }
    }
}

/// The object table a cluster over `stores` starts from: each object's
/// highest recovered epoch floor, and no location. Epochs are monotone
/// across restarts, so a reinstantiation after a cold restart can never hand
/// out an epoch a previous incarnation already used.
pub(crate) fn epoch_floors(stores: &[Box<dyn CheckpointStore>]) -> IdMap<ObjectId, ObjectRecord> {
    let mut objects: IdMap<ObjectId, ObjectRecord> = IdMap::default();
    for (object, floor) in stores.iter().flat_map(|store| store.epoch_floors()) {
        let epoch = &mut objects.entry(object).or_default().epoch;
        *epoch = (*epoch).max(floor);
    }
    objects
}

/// The deterministic replica-placement order for `object`: its home node
/// first, then every other node ranked by rendezvous (highest-random-weight)
/// hashing of `(object, node)`. The first `k` *available* entries form the
/// replica set — placement needs no coordination, every node computes the
/// same answer, and a node's death shifts only the objects that mapped onto
/// it.
pub(crate) fn preference_order(object: ObjectId, home: NodeId, nodes: usize) -> Vec<NodeId> {
    let mut rest: Vec<u32> = (0..nodes as u32).filter(|&n| n != home.as_u32()).collect();
    // ties (never expected from a 64-bit hash) break toward the lower id
    rest.sort_by_key(|&n| (std::cmp::Reverse(rendezvous_weight(object, n)), n));
    let mut order = Vec::with_capacity(nodes);
    order.push(home);
    order.extend(rest.into_iter().map(NodeId::new));
    order
}

/// The seeded hash of the `(object, node)` pair — the rendezvous weight.
fn rendezvous_weight(object: ObjectId, node: u32) -> u64 {
    crate::fault::mix64(
        (u64::from(object.as_u32()) << 32 | u64::from(node)).wrapping_add(0x9e37_79b9_7f4a_7c15),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(nodes: usize) -> RecoveryState {
        RecoveryState::new(
            nodes,
            DetectorConfig {
                heartbeat_ms: 10,
                k_missed: 2,
            },
            2,
            None,
            (0..nodes)
                .map(|_| Box::new(crate::store::MemStore::new()) as Box<dyn CheckpointStore>)
                .collect(),
        )
    }

    #[test]
    fn suspicion_window_is_k_times_heartbeat() {
        let cfg = DetectorConfig {
            heartbeat_ms: 50,
            k_missed: 3,
        };
        assert_eq!(cfg.suspicion_after_ms(), 150);
    }

    #[test]
    fn stale_beats_are_ignored() {
        let r = state(2);
        r.beat(0, 1, 100);
        assert_eq!(r.last_beat(0), 100);
        r.bump_incarnation(0);
        r.beat(0, 1, 200); // zombie epoch 1 < incarnation 2
        assert_eq!(r.last_beat(0), 100);
        r.beat(0, 2, 200);
        assert_eq!(r.last_beat(0), 200);
    }

    #[test]
    fn breaker_admits_exactly_one_probe() {
        let r = state(1);
        assert_eq!(r.admit(0), Admission::Proceed);
        assert!(r.open_breaker(0));
        assert!(!r.open_breaker(0)); // already open
        assert_eq!(r.admit(0), Admission::FailFast);
        r.half_open_breaker(0);
        assert_eq!(r.admit(0), Admission::Probe);
        assert_eq!(r.admit(0), Admission::FailFast); // probe in flight
        assert!(!r.settle(0, true)); // probe succeeded: closed
        assert_eq!(r.admit(0), Admission::Proceed);
    }

    #[test]
    fn failed_probe_reopens_the_breaker() {
        let r = state(1);
        r.open_breaker(0);
        r.half_open_breaker(0);
        assert_eq!(r.admit(0), Admission::Probe);
        assert!(r.settle(0, false)); // reopened
        assert_eq!(r.admit(0), Admission::FailFast);
    }

    #[test]
    fn preference_order_is_home_first_and_a_permutation() {
        for obj in 0..50u32 {
            let order = preference_order(ObjectId::new(obj), NodeId::new(2), 5);
            assert_eq!(order[0], NodeId::new(2));
            let mut ids: Vec<u32> = order.iter().map(|n| n.as_u32()).collect();
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn preference_order_is_deterministic_and_spreads_objects() {
        let a = preference_order(ObjectId::new(7), NodeId::new(0), 6);
        let b = preference_order(ObjectId::new(7), NodeId::new(0), 6);
        assert_eq!(a, b);
        // different objects with the same home should not all agree on the
        // second replica (rendezvous hashing spreads the load)
        let seconds: std::collections::HashSet<u32> = (0..32u32)
            .map(|o| preference_order(ObjectId::new(o), NodeId::new(0), 6)[1].as_u32())
            .collect();
        assert!(
            seconds.len() > 1,
            "all objects chose the same second replica"
        );
    }

    #[test]
    fn recovered_floors_seed_the_epoch_table() {
        let (mut low, mut high) = (crate::store::MemStore::new(), crate::store::MemStore::new());
        let _ = low.note_epoch(ObjectId::new(3), 5).unwrap();
        let _ = high.note_epoch(ObjectId::new(3), 7).unwrap();
        let objects = epoch_floors(&[Box::new(low), Box::new(high)]);
        assert_eq!(objects[&ObjectId::new(3)].epoch, 7);
        assert_eq!(objects[&ObjectId::new(3)].at, None);
    }

    #[test]
    fn replica_availability_tracks_death_and_crash() {
        let r = state(3);
        assert!(r.replica_available(1));
        r.mark_crashed(1);
        assert!(!r.replica_available(1));
        r.mark_alive(1, 0);
        r.set_health(2, NodeHealth::Dead);
        assert!(r.replica_available(1));
        assert!(!r.replica_available(2));
        // suspicion alone does not disqualify a replica
        r.set_health(1, NodeHealth::Suspected);
        assert!(r.replica_available(1));
    }
}
