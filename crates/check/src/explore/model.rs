//! The deterministic protocol model the explorer schedules.
//!
//! This is a small-scope state machine of the runtime's migration protocol:
//! nodes that can crash and restart, objects with a single mutable residence,
//! the client's move blocks — and, for the placement locks and their leases,
//! the policy that ships: a [`TransientPlacement`] driven through the same
//! [`MovePolicy`] calls the runtime's node workers make. Every
//! pending message delivery, timer firing (client deadline, lease sweep) and
//! crash point is a [`Step`] — a schedulable choice. Executing a step mutates
//! the model and appends [`TraceEvent`]s shaped exactly like the ones the
//! real runtime emits, so every explored schedule can stream through
//! [`crate::checker::check_trace`] unchanged.
//!
//! Time is an explicitly advanced millisecond counter: only timer steps move
//! it, and only forward, so "the lease expired underneath the grant" is an
//! interleaving the explorer *chooses*, not one a wall clock has to produce.
//!
//! ## Fidelity notes
//!
//! The model collapses details that do not affect the checked invariants:
//! directory forwarding is folded into routing-at-delivery (a move request
//! "arrives" wherever the object currently lives), grant replies are
//! synchronous (a client deadline can only fire while its request is still
//! undelivered), and the failure detector / reinstantiation pipeline is out
//! of scope — crashes stash objects in place and restarts reclaim them, as
//! `crash_node`/`restart_node` do.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use oml_core::ids::{BlockId, NodeId, ObjectId};
use oml_core::policies::TransientPlacement;
use oml_core::policy::{EndRequest, MoveDecision, MovePolicy, MoveRequest};

use crate::event::{EventKind, ReleaseCause, TraceEvent, CLIENT_PROCESS};

use super::{ExploreConfig, Mutation};

/// One schedulable choice of the virtual scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Step {
    /// Deliver the pending message with this id at its (current) target.
    Deliver {
        /// The message id ([`EventKind::Send`]'s `msg_id`).
        msg: u64,
    },
    /// The client finishes a granted move block and sends the end-request.
    End {
        /// Index into [`ExploreConfig::ops`].
        op: u32,
    },
    /// The client's deadline for an outstanding move request fires: the
    /// clock advances to the deadline and the block is abandoned.
    Timeout {
        /// Index into [`ExploreConfig::ops`].
        op: u32,
    },
    /// The lease sweeper fires: the clock advances to the earliest lease
    /// expiry and the policy reclaims every lock that has run out by then.
    Sweep,
    /// A node crashes (objects stash in place, volatile lock state is lost).
    Crash {
        /// The crashing node.
        node: u32,
    },
    /// A crashed node restarts and reclaims its stash.
    Restart {
        /// The restarting node.
        node: u32,
    },
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Deliver { msg } => write!(f, "deliver {msg}"),
            Step::End { op } => write!(f, "end {op}"),
            Step::Timeout { op } => write!(f, "timeout {op}"),
            Step::Sweep => write!(f, "sweep"),
            Step::Crash { node } => write!(f, "crash {node}"),
            Step::Restart { node } => write!(f, "restart {node}"),
        }
    }
}

/// What a pending message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Payload {
    /// A move request for op `op` (routed to the object's current host).
    MoveReq { op: u32 },
    /// The linearized object, in flight towards `to`.
    Install { object: u32, to: u32 },
    /// The client's end-of-block request for op `op`.
    End { op: u32 },
}

/// Where an object currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ObjLoc {
    /// Resident at this node (possibly stashed there while it is crashed).
    At(u32),
    /// Linearized and in flight towards this node.
    InFlight { to: u32 },
}

/// The client-side life cycle of one scripted move op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OpPhase {
    /// Issued; the request message is (or was) in flight.
    Requested { msg: u64 },
    /// Granted and not yet ended.
    Granted,
    /// The client sent the end-request.
    EndSent,
    /// The end-request was processed.
    Done,
    /// The policy denied the move.
    Denied,
    /// The client's deadline fired before any reply; the block is dead and
    /// will never send an end-request.
    Abandoned,
}

/// The footprint of a step in the state it is enabled in — the basis of the
/// conditional independence relation (see [`Model::independent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Footprint {
    /// Bitmask of processes whose local state / trace program order the step
    /// touches (bit 31 = the client).
    pub procs: u32,
    /// Bitmask of objects whose residency or lock the step touches.
    pub objects: u32,
    /// Bitmask of ops whose client phase the step touches.
    pub ops: u32,
    /// The step advances the virtual clock (timers). Clock writers are
    /// dependent with everything: every grant reads the clock.
    pub clock_write: bool,
    /// The step touches node liveness and arbitrarily many locks
    /// (crash/restart) — dependent with everything.
    pub global: bool,
}

const CLIENT_BIT: u32 = 1 << 31;

impl Footprint {
    fn disjoint(&self, other: &Footprint) -> bool {
        !(self.global || other.global || self.clock_write || other.clock_write)
            && self.procs & other.procs == 0
            && self.objects & other.objects == 0
            && self.ops & other.ops == 0
    }
}

/// The explorable protocol state. Cloning is cheap by design (small vectors
/// and `BTreeMap`s); the DPOR search clones once per executed step.
#[derive(Clone)]
pub(crate) struct Model {
    cfg: Rc<ExploreConfig>,
    /// Virtual time in milliseconds; timer steps advance it, never back.
    now_ms: u64,
    /// `true` = alive. Index = node id.
    alive: Vec<bool>,
    objects: Vec<ObjLoc>,
    /// The placement locks: the shipping policy, not a model of it.
    policy: TransientPlacement,
    ops: Vec<OpPhase>,
    pending: BTreeMap<u64, Payload>,
    crashes_left: u32,
    trace: Vec<TraceEvent>,
}

impl Model {
    /// Builds the initial state: every object installed at its home node
    /// (`object % nodes`) and every scripted op issued by the client in
    /// program order, its move request pending.
    ///
    /// # Panics
    ///
    /// Panics if the config scripts more than `u32::MAX` ops — far beyond
    /// anything the explorer can enumerate.
    #[must_use]
    pub fn new(cfg: &ExploreConfig) -> Self {
        let mut m = Model {
            cfg: Rc::new(cfg.clone()),
            now_ms: 0,
            alive: vec![true; cfg.nodes as usize],
            objects: (0..cfg.objects)
                .map(|o| ObjLoc::At(o % cfg.nodes))
                .collect(),
            policy: cfg
                .lease_ttl_ms
                .map_or_else(TransientPlacement::new, TransientPlacement::with_lease_ms),
            ops: Vec::new(),
            pending: BTreeMap::new(),
            crashes_left: cfg.max_crashes,
            trace: Vec::new(),
        };
        for o in 0..cfg.objects {
            m.emit(
                o % cfg.nodes,
                EventKind::Install {
                    object: ObjectId::new(o),
                },
            );
        }
        for (i, op) in cfg.ops.iter().enumerate() {
            let i = u32::try_from(i).expect("op count fits u32");
            m.emit(
                CLIENT_PROCESS,
                EventKind::MoveRequested {
                    object: ObjectId::new(op.object),
                    to: NodeId::new(op.to),
                    block: BlockId::new(i),
                },
            );
            let home = match m.objects[op.object as usize] {
                ObjLoc::At(n) => n,
                ObjLoc::InFlight { to } => to,
            };
            let msg = Self::msg_id(i, 1);
            m.send(CLIENT_PROCESS, home, msg, Payload::MoveReq { op: i });
            m.ops.push(OpPhase::Requested { msg });
        }
        m
    }

    /// The events emitted so far, in schedule order.
    #[must_use]
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    fn emit(&mut self, process: u32, kind: EventKind) {
        self.trace.push(TraceEvent::new(process, kind));
    }

    /// Message ids are derived from the op, not from an allocation counter:
    /// op `i` sends at most one request (`3i+1`), one install (`3i+2`) and
    /// one end (`3i+3`). Order-insensitive naming keeps independent steps
    /// commuting bit-exactly (the DPOR commutation the `independent_steps_*`
    /// tests pin down) and keeps `deliver` steps meaningful when the
    /// minimizer drops earlier steps.
    fn msg_id(op: u32, slot: u64) -> u64 {
        u64::from(op) * 3 + slot
    }

    /// Emits the `Send` and enqueues the payload under a derived id.
    fn send(&mut self, from: u32, to: u32, id: u64, payload: Payload) {
        self.emit(
            from,
            EventKind::Send {
                msg_id: id,
                to,
                desc: format!("{payload:?}"),
            },
        );
        self.pending.insert(id, payload);
    }

    fn host_of(&self, object: u32) -> Option<u32> {
        match self.objects[object as usize] {
            ObjLoc::At(n) => Some(n),
            ObjLoc::InFlight { .. } => None,
        }
    }

    fn mutated(&self, m: Mutation) -> bool {
        self.cfg.mutation == Some(m)
    }

    fn deliverable(&self, payload: Payload) -> bool {
        match payload {
            Payload::MoveReq { op } | Payload::End { op } => {
                let object = self.cfg.ops[op as usize].object;
                self.host_of(object).is_some_and(|h| self.alive[h as usize])
            }
            Payload::Install { to, .. } => self.alive[to as usize],
        }
    }

    /// All steps enabled in this state, in deterministic order.
    ///
    /// # Panics
    ///
    /// Panics if the config scripts more than `u32::MAX` ops — far beyond
    /// anything the explorer can enumerate.
    #[must_use]
    pub fn enabled(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        for (&id, &p) in &self.pending {
            if self.deliverable(p) {
                steps.push(Step::Deliver { msg: id });
            }
        }
        for (i, phase) in self.ops.iter().enumerate() {
            let i = u32::try_from(i).expect("op count fits u32");
            match *phase {
                OpPhase::Granted => steps.push(Step::End { op: i }),
                OpPhase::Requested { msg }
                    if self.cfg.client_timeouts && self.pending.contains_key(&msg) =>
                {
                    steps.push(Step::Timeout { op: i });
                }
                _ => {}
            }
        }
        if self.cfg.sweeps && self.policy.next_lease_expiry_ms().is_some() {
            steps.push(Step::Sweep);
        }
        if self.cfg.faults {
            for n in 0..self.cfg.nodes {
                if self.alive[n as usize] {
                    if self.crashes_left > 0 {
                        steps.push(Step::Crash { node: n });
                    }
                } else {
                    steps.push(Step::Restart { node: n });
                }
            }
        }
        steps.sort_unstable();
        steps
    }

    /// The step's footprint in the current state (it must be enabled).
    #[must_use]
    pub(crate) fn footprint(&self, step: Step) -> Footprint {
        let mut fp = Footprint {
            procs: 0,
            objects: 0,
            ops: 0,
            clock_write: false,
            global: false,
        };
        match step {
            Step::Deliver { msg } => match self.pending.get(&msg) {
                Some(&payload @ (Payload::MoveReq { op } | Payload::End { op })) => {
                    // a move request runs the host's lease tick first: with a
                    // lease already run out, that reclaims arbitrary locks
                    let now = self.now_ms;
                    fp.global = matches!(payload, Payload::MoveReq { .. })
                        && self.policy.next_lease_expiry_ms().is_some_and(|e| e <= now);
                    let object = self.cfg.ops[op as usize].object;
                    if let Some(h) = self.host_of(object) {
                        fp.procs |= 1 << h;
                    }
                    fp.objects |= 1 << object;
                    fp.ops |= 1 << op;
                }
                Some(&Payload::Install { object, to }) => {
                    fp.procs |= 1 << to;
                    fp.objects |= 1 << object;
                }
                None => fp.global = true, // not enabled; be conservative
            },
            Step::End { op } => {
                fp.procs |= CLIENT_BIT;
                fp.ops |= 1 << op;
            }
            Step::Timeout { op } => {
                fp.procs |= CLIENT_BIT;
                fp.ops |= 1 << op;
                fp.clock_write = true;
            }
            Step::Sweep => fp.clock_write = true,
            Step::Crash { .. } | Step::Restart { .. } => fp.global = true,
        }
        fp
    }

    /// Conditional independence of two steps enabled in this state: disjoint
    /// footprints, neither advancing the clock or touching node liveness.
    /// Independent steps commute (same successor state) and their emitted
    /// events are pairwise concurrent under the vector-clock order of
    /// [`crate::vclock::assign_clocks`] — validated by the
    /// `independent_steps_emit_concurrent_events` test.
    #[must_use]
    pub fn independent(&self, a: Step, b: Step) -> bool {
        self.footprint(a).disjoint(&self.footprint(b))
    }

    /// Executes one enabled step.
    ///
    /// # Panics
    ///
    /// Panics if the step is not enabled in this state — the DPOR search
    /// only applies enabled steps, and replay validates enabledness first.
    pub fn apply(&mut self, step: Step) {
        match step {
            Step::Deliver { msg } => {
                let payload = self
                    .pending
                    .remove(&msg)
                    .expect("delivering an unknown message");
                self.deliver(msg, payload);
            }
            Step::End { op } => {
                assert_eq!(
                    self.ops[op as usize],
                    OpPhase::Granted,
                    "end of ungranted op"
                );
                let object = self.cfg.ops[op as usize].object;
                let to = self.host_of(object).unwrap_or(self.cfg.ops[op as usize].to);
                self.send(CLIENT_PROCESS, to, Self::msg_id(op, 3), Payload::End { op });
                self.ops[op as usize] = OpPhase::EndSent;
            }
            Step::Timeout { op } => {
                let deadline = self.cfg.deadline_ms;
                self.now_ms = self.now_ms.max(deadline);
                self.ops[op as usize] = OpPhase::Abandoned;
            }
            Step::Sweep => {
                let expiry = self
                    .policy
                    .next_lease_expiry_ms()
                    .expect("sweep without lease");
                self.now_ms = self.now_ms.max(expiry);
                self.expire_leases();
            }
            Step::Crash { node } => {
                assert!(self.alive[node as usize] && self.crashes_left > 0);
                self.crashes_left -= 1;
                self.alive[node as usize] = false;
                self.emit(
                    CLIENT_PROCESS,
                    EventKind::Crash {
                        node: NodeId::new(node),
                    },
                );
                // The crashed worker's volatile lock state is gone either
                // way; correct code accounts for it by releasing the dead
                // host's placement locks (the PR 3 `crash_node` fix). The
                // StrandedLocks mutation re-introduces that bug: state lost,
                // no release recorded.
                let stranded: Vec<ObjectId> = (0..self.cfg.objects)
                    .filter(|&o| self.host_of(o) == Some(node))
                    .map(ObjectId::new)
                    .collect();
                for (object, block) in self.policy.release_locks_for(&stranded) {
                    if !self.mutated(Mutation::StrandedLocks) {
                        self.emit_release(object, block, ReleaseCause::Crash);
                    }
                }
            }
            Step::Restart { node } => {
                assert!(!self.alive[node as usize], "restarting a live node");
                self.alive[node as usize] = true;
                self.emit(
                    CLIENT_PROCESS,
                    EventKind::Restart {
                        node: NodeId::new(node),
                    },
                );
                // Stash reclamation: same-host reinstall, a refresh to the
                // checker.
                for o in 0..self.cfg.objects {
                    if self.objects[o as usize] == ObjLoc::At(node) {
                        self.emit(
                            node,
                            EventKind::Install {
                                object: ObjectId::new(o),
                            },
                        );
                    }
                }
            }
        }
    }

    /// Emits the release of a lock the policy just gave up, from the
    /// object's current host (or the client for crash cleanup, as
    /// `declare_dead` does, and for an object in flight).
    fn emit_release(&mut self, object: ObjectId, block: BlockId, cause: ReleaseCause) {
        let process = if cause == ReleaseCause::Crash {
            CLIENT_PROCESS
        } else {
            self.host_of(object.as_u32()).unwrap_or(CLIENT_PROCESS)
        };
        self.emit(
            process,
            EventKind::LockReleased {
                object,
                block,
                cause,
            },
        );
    }

    /// The lease tick: the policy reclaims every lock whose lease has run
    /// out at the current virtual time.
    fn expire_leases(&mut self) {
        for (object, block) in self.policy.expire_leases(self.now_ms) {
            self.emit_release(object, block, ReleaseCause::LeaseExpiry);
        }
    }

    fn deliver(&mut self, msg: u64, payload: Payload) {
        match payload {
            Payload::MoveReq { op } => self.deliver_move_req(msg, op),
            Payload::Install { object, to } => {
                assert_eq!(
                    self.objects[object as usize],
                    ObjLoc::InFlight { to },
                    "install for an object that is not in flight here"
                );
                self.emit(to, EventKind::Recv { msg_id: msg });
                self.emit(
                    to,
                    EventKind::Install {
                        object: ObjectId::new(object),
                    },
                );
                self.objects[object as usize] = ObjLoc::At(to);
            }
            Payload::End { op } => {
                let object = self.cfg.ops[op as usize].object;
                let host = self.host_of(object).expect("end delivered in flight");
                self.emit(host, EventKind::Recv { msg_id: msg });
                let (object, block) = (ObjectId::new(object), BlockId::new(op));
                let held = self.policy.lock_holder(object) == Some(block);
                self.policy.on_end(&EndRequest {
                    object,
                    at: NodeId::new(host),
                    from: NodeId::new(self.cfg.ops[op as usize].to),
                    block,
                    was_granted: true,
                });
                if held && self.policy.lock_holder(object) != Some(block) {
                    self.emit_release(object, block, ReleaseCause::End);
                }
                self.ops[op as usize] = OpPhase::Done;
            }
        }
    }

    fn deliver_move_req(&mut self, msg: u64, op: u32) {
        let spec = self.cfg.ops[op as usize];
        let object = spec.object;
        let host = self.host_of(object).expect("move-req delivered in flight");
        let block = op;
        let now = self.now_ms;
        self.emit(host, EventKind::Recv { msg_id: msg });
        let deny = |m: &mut Model| {
            m.emit(
                host,
                EventKind::MoveDenied {
                    object: ObjectId::new(object),
                    block: BlockId::new(block),
                },
            );
            if matches!(m.ops[op as usize], OpPhase::Requested { .. }) {
                m.ops[op as usize] = OpPhase::Denied;
            }
        };
        // The requester's deadline travels with the request; a request
        // answered past it has no live client behind it any more, so the
        // only safe answer is a denial. The IgnoreDeadline mutation
        // re-introduces the PR 3 bug of granting anyway.
        if now >= self.cfg.deadline_ms && !self.mutated(Mutation::IgnoreDeadline) {
            deny(self);
            return;
        }
        // the host's lease tick, so the policy decides (and stamps the new
        // lease) at the current virtual time
        self.expire_leases();
        let request = MoveRequest {
            object: ObjectId::new(object),
            at: NodeId::new(host),
            from: NodeId::new(spec.to),
            block: BlockId::new(block),
        };
        if self.policy.on_move(&request) == MoveDecision::Deny {
            deny(self);
            return;
        }
        // grant replies are synchronous here: the lock is taken at the grant
        self.policy
            .on_installed(request.object, request.at, request.block);
        self.emit(
            host,
            EventKind::MoveGranted {
                object: ObjectId::new(object),
                block: BlockId::new(block),
            },
        );
        self.emit(
            host,
            EventKind::LockAcquired {
                object: ObjectId::new(object),
                block: BlockId::new(block),
                now_ms: now,
                ttl_ms: self.policy.lease_ttl_ms(),
            },
        );
        if spec.to != host {
            self.emit(
                host,
                EventKind::Ship {
                    object: ObjectId::new(object),
                    to: NodeId::new(spec.to),
                },
            );
            self.objects[object as usize] = ObjLoc::InFlight { to: spec.to };
            self.send(
                host,
                spec.to,
                Self::msg_id(op, 2),
                Payload::Install {
                    object,
                    to: spec.to,
                },
            );
        }
        if matches!(self.ops[op as usize], OpPhase::Requested { .. }) {
            self.ops[op as usize] = OpPhase::Granted;
        }
        // an Abandoned op stays abandoned: the grant reached nobody
    }

    /// Runs the terminal lease drain: fires the sweeper until no lease
    /// remains, releasing each with `LeaseExpiry`. Mirrors what wall time
    /// would eventually do in the runtime; emitted events join the trace.
    pub(crate) fn drain_quiesce(&mut self) {
        while let Some(expiry) = self.policy.next_lease_expiry_ms() {
            self.now_ms = self.now_ms.max(expiry);
            self.expire_leases();
        }
    }

    /// Locks that will never be released by any continuation: non-expiring
    /// locks whose holding op the client abandoned. A correct protocol never
    /// produces these — the deadline denial exists precisely to keep a grant
    /// from landing on a dead block.
    #[must_use]
    pub(crate) fn orphaned_locks(&self) -> Vec<(ObjectId, BlockId)> {
        if self.policy.lease_ttl_ms().is_some() {
            return Vec::new(); // a lease runs out by itself
        }
        let mut held = self.policy.held_locks();
        held.retain(|&(_, block)| self.ops.get(block.index()) == Some(&OpPhase::Abandoned));
        held
    }

    /// A deterministic 64-bit digest of the protocol state (trace excluded):
    /// used for state-hash pruning. Two states with equal digests and equal
    /// sleep sets generate identical subtrees, because every future event —
    /// and every future checker verdict over those events — is a function of
    /// this state alone (see DESIGN.md §12.4 for the argument and its caveats).
    #[must_use]
    pub(crate) fn state_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        self.now_ms.hash(&mut h);
        self.alive.hash(&mut h);
        self.objects.hash(&mut h);
        self.policy.hash(&mut h);
        self.ops.hash(&mut h);
        self.pending.hash(&mut h);
        self.crashes_left.hash(&mut h);
        h.finish()
    }
}

/// FNV-1a, the same function the scaling fingerprints use — deterministic
/// across runs and platforms, unlike `DefaultHasher`'s unspecified algorithm.
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The FNV-1a digest of a full trace (the `Debug` rendering of every event):
/// the bit-identity fingerprint replay is checked against.
#[must_use]
pub fn trace_digest(trace: &[TraceEvent]) -> u64 {
    let mut h = Fnv64::new();
    for ev in trace {
        h.write(format!("{ev:?}").as_bytes());
        h.write(&[0xff]);
    }
    h.finish()
}
