//! The per-node state. A [`NodeWorker`] holds everything one node knows; it
//! waits in its inbox slot, no thread of its own, and whoever holds it runs
//! the node's messages through its `deliver`, one at a time (DESIGN.md
//! §10.1, "Who runs a delivery"): a message that finds the node idle — a
//! client call or node-to-node traffic — runs on its sender's thread, one
//! that finds it busy on the thread that puts it back, and whoever serves
//! the cluster's timer heap runs its ticks. A reply given while running
//! what queued (`channel::answer`) wakes its caller only once the node's
//! state is back in its slot, where that caller's next call finds it.

use std::sync::Arc;
use std::time::Instant;

use oml_check::event::{EventKind, ReleaseCause};
use oml_core::attach::ClosureScratch;
use oml_core::ids::{AllianceId, BlockId, NodeId, ObjectId};
use oml_core::policy::{EndAction, EndRequest, MoveDecision, MovePolicy, MoveRequest};

use crate::cluster::{Shared, StashedObject};
use crate::error::RuntimeError;
use crate::fault;
use crate::idmap::IdMap;
use crate::message::{
    group_push, split_request, Envelope, InvokeReply, Message, MoveReply, Shipped,
};
use crate::object::MobileObject;
use crate::store::StoredCheckpoint;
use crate::transport::channel::{answer, Handler};

// A node's maintenance tick (a heartbeat and a lease sweep) runs every
// 25 ms, on the cluster's one grid. Reads treat expired leases as free
// immediately, so the tick only affects garbage collection, never
// grant/deny outcomes.

/// An object installed at a node, and its image: the copy of its state
/// the node last shipped, installed or refreshed from. The state changes
/// only through `invoke` ([`MobileObject::linearize`]), so the image stays
/// exact until the next invocation drops it, and a shipment or refresh of
/// an object not invoked since reuses it instead of linearizing again.
struct Hosted {
    instance: Box<dyn MobileObject>,
    image: Option<StoredCheckpoint>,
}

impl Hosted {
    fn new(instance: Box<dyn MobileObject>) -> Self {
        Hosted {
            instance,
            image: None,
        }
    }

    /// The image, linearized now if none is kept; the caller hands it back
    /// with [`NodeWorker::keep_images`] or ships it.
    fn take_image(&mut self) -> StoredCheckpoint {
        (self.image.take()).unwrap_or_else(|| StoredCheckpoint::of(&*self.instance))
    }
}

pub(crate) struct NodeWorker {
    id: NodeId,
    shared: Arc<Shared>,
    /// The incarnation this worker was spawned under; stamped on every
    /// message it sends. A worker whose node has a newer incarnation is a
    /// zombie and (when fencing is on) exits instead of acting.
    epoch: u64,
    /// Objects installed at this node.
    objects: IdMap<ObjectId, Hosted>,
    /// Messages for objects the directory says are headed here but whose
    /// `Install` has not arrived yet — the run-time blocking of calls on
    /// in-transit objects (§4.1).
    awaiting: IdMap<ObjectId, Vec<Message>>,
    /// Buffers for the attachment-closure query of every migration, and
    /// for picking out the members hosted here.
    closure: ClosureScratch,
    local: Vec<ObjectId>,
}

impl Handler<Envelope> for NodeWorker {
    /// Whether this is the state of its node's current incarnation — a
    /// crashed node has none in its slot, and a zombie's is not current.
    fn is_current(&self) -> bool {
        self.epoch == self.shared.incarnation(self.id.as_u32())
    }

    /// Whether a newer incarnation of this node has been installed (fencing
    /// on): this state is a zombie's and must not act.
    fn is_fenced(&self) -> bool {
        self.shared.fenced() && !self.is_current()
    }

    /// Runs one envelope: notes the receive, then — once the cluster is
    /// closing — applies the shutdown rule, else drops a stale
    /// incarnation's message and handles the rest.
    fn deliver(&mut self, env: Envelope) {
        debug_assert!(!self.is_fenced(), "a stale incarnation ran a message");
        debug_assert!(self.shared.mesh.in_step(), "a handler ran outside a step");
        self.note_recv(&env);
        if self.shared.is_closing() {
            self.wind_down(env.msg);
        } else if !self.reject_stale(&env) {
            self.handle(env.msg, env.from);
        }
    }

    /// The maintenance tick: a heartbeat, and a sweep of the placement locks
    /// whose leases ran out.
    fn tick(&mut self) {
        self.shared.beat(self.id, self.epoch);
        self.sweep_leases();
    }
}

impl NodeWorker {
    pub(crate) fn new(id: NodeId, shared: Arc<Shared>, epoch: u64) -> Self {
        NodeWorker {
            id,
            shared,
            epoch,
            objects: IdMap::default(),
            awaiting: IdMap::default(),
            closure: ClosureScratch::new(),
            local: Vec::new(),
        }
    }

    /// Epoch fencing on receive: a message stamped with an incarnation older
    /// than the latest known for its sender is from a dead incarnation (a
    /// delayed duplicate, or a zombie) and is dropped. Client messages are
    /// never fenced. The `Recv` was already noted — the physical dequeue
    /// happened; the *drop* is this node's local decision.
    fn reject_stale(&self, env: &Envelope) -> bool {
        if !self.shared.fenced() || env.from == fault::CLIENT {
            return false;
        }
        if env.epoch < self.shared.incarnation(env.from) {
            self.shared
                .counters
                .fenced_stale
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.shared.trace.emit(
                self.id.as_u32(),
                EventKind::FencedStale { epoch: env.epoch },
            );
            return true;
        }
        false
    }

    /// Records the dequeue of a traced message — the receive half of the
    /// happens-before edge its `Send` event opened.
    fn note_recv(&self, env: &Envelope) {
        if env.trace_id != 0 {
            self.shared.trace.emit(
                self.id.as_u32(),
                EventKind::Recv {
                    msg_id: env.trace_id,
                },
            );
        }
    }

    /// On (re)start: adopt any objects a previous incarnation of this node
    /// stashed when it crashed. The stash guard is dropped before the object
    /// table's is taken, so the two never nest.
    ///
    /// With fencing active, entries whose object epoch is older than the
    /// current one are discarded instead of reclaimed: the object was
    /// reinstantiated elsewhere while this node was down, and the stashed
    /// copy belongs to a fenced incarnation.
    pub(crate) fn reclaim_stash(&mut self) {
        let mut mine: Vec<(ObjectId, Box<dyn MobileObject>, u64)> = {
            let mut stash = self.shared.stash.lock();
            let mut rest = Vec::new();
            let mut mine = Vec::new();
            for (node, object, instance, epoch) in stash.drain(..) {
                if node == self.id {
                    mine.push((object, instance, epoch));
                } else {
                    rest.push((node, object, instance, epoch));
                }
            }
            *stash = rest;
            mine
        };
        {
            // filtered and re-pointed under one guard of the object table, so
            // a concurrent declare-dead either bumped the epochs before we
            // read them (entry dropped) or runs after and aborts on seeing
            // the node alive
            let fencing = self.shared.fenced();
            let mut objects = self.shared.objects.write();
            mine.retain(|&(object, _, stashed_epoch)| {
                let record = objects.entry(object).or_default();
                let current = !fencing || stashed_epoch >= record.epoch;
                if current {
                    record.at = Some(self.id);
                }
                current
            });
        }
        for (object, instance, _) in mine {
            self.objects.insert(object, Hosted::new(instance));
            // a reclaim is a refresh of the same residency, not a second
            // replica — the object never left this node
            self.shared
                .trace
                .emit(self.id.as_u32(), EventKind::Install { object });
        }
    }

    /// Injected crash: park the hosted objects for a later restart (they
    /// survive the "machine", like disk state); the queue stays for the
    /// next incarnation. Parked `awaiting` messages are dropped with this
    /// state — their reply handles go with them, so each caller wakes at
    /// once with `Disconnected` and reports a timeout without waiting out
    /// its deadline. Returns the objects it stashed, in id order — the
    /// order the stash, and so a restart's reclaim, keeps.
    pub(crate) fn stash_for_crash(&mut self) -> Vec<ObjectId> {
        // object epochs are read before the stash lock so the two Ordered
        // locks never nest
        let (id, shared) = (self.id, &self.shared);
        // the images stay behind: only the objects survive the machine
        let mut stashed: Vec<StashedObject> = (self.objects.drain())
            .map(|(object, hosted)| (id, object, hosted.instance, shared.object(object).epoch))
            .collect();
        stashed.sort_unstable_by_key(|&(_, object, ..)| object);
        let objects = stashed.iter().map(|&(_, object, ..)| object).collect();
        // the detector learns the node is gone before the objects land in
        // the stash; death is only declared after the suspicion window, long
        // after crash_node has stashed them
        shared.mark_crashed(id);
        shared.stash.lock().extend(stashed);
        objects
    }

    /// The shutdown rule, for what runs once the cluster is closing: sent
    /// end-requests, installs and replica writes are still applied (locks
    /// released, final replica stores complete; acks suppressed — the
    /// refresher is stopping too), every other call is refused with an
    /// explicit `ShuttingDown` instead of a silent timeout.
    fn wind_down(&mut self, msg: Message) {
        match msg {
            msg @ (Message::EndRequest { .. }
            | Message::Install { .. }
            | Message::CheckpointPut { .. }
            | Message::CheckpointAck { .. }) => self.handle(msg, fault::CLIENT),
            msg => msg.refuse(RuntimeError::ShuttingDown),
        }
    }

    /// At shutdown: refuses every call parked for an object that never
    /// arrived.
    pub(crate) fn refuse_awaiting(&mut self) {
        for (_, queued) in self.awaiting.drain() {
            for msg in queued {
                msg.refuse(RuntimeError::ShuttingDown);
            }
        }
    }

    /// Maintenance tick: release placement locks whose leases ran out by
    /// the cluster's clock.
    fn sweep_leases(&mut self) {
        let now = self.shared.now_ms();
        let expired = self.shared.expire_leases(self.id.as_u32(), now);
        // a lease expiry is a consistency point: refresh the checkpoints of
        // the expired objects hosted here while their state is in hand
        if self.shared.detector_enabled() {
            self.refresh_hosted(expired.iter().map(|&(object, _)| object));
        }
    }

    /// Refreshes the replicated checkpoints of those of `objects` hosted
    /// here, from their images, and keeps the images the refresh hands
    /// back.
    fn refresh_hosted(&mut self, objects: impl Iterator<Item = ObjectId>) {
        let mut fresh: Vec<Shipped> = objects
            .filter_map(|object| Some((object, self.objects.get_mut(&object)?.take_image())))
            .collect();
        self.shared
            .checkpoint_refresh(&mut fresh, self.id, self.epoch);
        self.keep_images(&mut fresh);
    }

    /// Keeps each copy as its hosted object's image.
    fn keep_images(&mut self, copies: &mut [Shipped]) {
        for (object, ckpt) in copies {
            if let Some(hosted) = self.objects.get_mut(object) {
                hosted.image = Some(std::mem::take(ckpt));
            }
        }
    }

    /// Handles one message; `from` is its envelope's sender, which replica
    /// traffic answers.
    fn handle(&mut self, msg: Message, from: u32) {
        match msg {
            Message::Create {
                object,
                instance,
                image,
                reply,
            } => {
                let image = image.map(|image| *image);
                self.objects.insert(object, Hosted { instance, image });
                self.shared.place(object, self.id);
                self.shared
                    .trace
                    .emit(self.id.as_u32(), EventKind::Install { object });
                answer(reply, Ok(()));
                self.drain_awaiting(object);
            }
            // not (or no longer) installed here: park or forward
            Message::Invoke { object, .. } | Message::EndRequest { object, .. }
                if !self.objects.contains_key(&object) =>
            {
                self.route_elsewhere(object, msg);
            }
            Message::Invoke {
                object,
                request,
                method_len,
                reply,
                ..
            } => {
                let (method, payload) = split_request(&request, method_len);
                self.handle_invoke(object, method, payload, reply);
            }
            // an expired request is denied here, wherever its object is: an
            // abandoned request chases nothing
            Message::MoveRequest {
                object, expires, ..
            } if Instant::now() < expires && !self.objects.contains_key(&object) => {
                self.route_elsewhere(object, msg);
            }
            Message::MoveRequest {
                object,
                to,
                block,
                context,
                expires,
                reply,
                ..
            } => self.handle_move(object, to, block, context, expires, reply),
            Message::Install {
                members,
                install_for,
            } => self.handle_install(members, install_for),
            Message::Surrender { mut members, to } => {
                // Double-checked at the host: a member may have moved on.
                members.retain(|&member| self.can_ship(member));
                self.ship(&members, to, None);
            }
            Message::EndRequest {
                object,
                block,
                from,
                was_granted,
                context,
                ..
            } => self.handle_end(object, block, from, was_granted, context),
            Message::CheckpointPut { items } => {
                self.shared
                    .apply_checkpoint_put(self.id, self.epoch, items, from);
            }
            Message::CheckpointAck { items, replica } => {
                self.shared
                    .checkpoint_ack(&items, replica, self.id.as_u32());
            }
        }
    }

    // ------------------------------------------------------------------
    // routing
    // ------------------------------------------------------------------

    /// Routes a message for an object that is not installed here: queue it
    /// if the object is in flight towards this node, forward it to the
    /// directory location otherwise. A message with nowhere to go — unknown
    /// object, or its forwarding budget spent — is refused; an end-request
    /// is then simply dropped (nothing to unlock: the object's new host
    /// processes queued messages in order).
    fn route_elsewhere(&mut self, object: ObjectId, msg: Message) {
        match self.shared.object(object).at {
            Some(n) if n == self.id => {
                // headed here; park until the Install arrives
                self.awaiting.entry(object).or_default().push(msg);
            }
            Some(n) => {
                let mut msg = msg;
                if let Message::Invoke { hops, .. }
                | Message::MoveRequest { hops, .. }
                | Message::EndRequest { hops, .. } = &mut msg
                {
                    if *hops == 0 {
                        return msg.refuse(RuntimeError::TooManyHops(object));
                    }
                    *hops -= 1;
                }
                self.shared
                    .counters
                    .forwards
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let _ = self.shared.send_from(Some((self.id, self.epoch)), n, msg);
            }
            None => msg.refuse(RuntimeError::UnknownObject(object)),
        }
    }

    fn drain_awaiting(&mut self, object: ObjectId) {
        if let Some(queued) = self.awaiting.remove(&object) {
            for msg in queued {
                self.handle(msg, fault::CLIENT);
            }
        }
    }

    // ------------------------------------------------------------------
    // invocations
    // ------------------------------------------------------------------

    /// Runs `method` on the locally installed `object`.
    fn handle_invoke(
        &mut self,
        object: ObjectId,
        method: &str,
        payload: &[u8],
        reply: InvokeReply,
    ) {
        let hosted = self.objects.get_mut(&object).expect("checked by handle()");
        // the invocation may change the state: the image goes first
        hosted.image = None;
        let result = (hosted.instance.invoke(method, payload))
            .map_err(|message| RuntimeError::MethodFailed { object, message });
        self.shared
            .counters
            .invocations
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // activity inside a granted block keeps its placement lease alive,
        // where a lease can run out; a traced run notes every renewal
        if self.shared.leases_expire || self.shared.trace.is_enabled() {
            let now = self.shared.now_ms();
            let mut policy = self.shared.policy.lock();
            policy.renew_lease(object, now);
            if self.shared.trace.is_enabled()
                && policy.held_locks().iter().any(|&(o, _)| o == object)
            {
                self.shared.trace.emit(
                    self.id.as_u32(),
                    EventKind::LeaseRenewed {
                        object,
                        now_ms: now,
                    },
                );
            }
        }
        answer(reply, result);
    }

    // ------------------------------------------------------------------
    // migration control
    // ------------------------------------------------------------------

    /// Decides a move-request for the locally installed `object` (or
    /// denies an expired one).
    fn handle_move(
        &mut self,
        object: ObjectId,
        to: NodeId,
        block: BlockId,
        context: Option<AllianceId>,
        expires: Instant,
        reply: MoveReply,
    ) {
        if Instant::now() >= expires {
            // The requester's deadline passed while this request sat in a
            // queue (typically across a crash/restart of this node). It has
            // timed out, closed its call and moved on; granting now
            // would take a lock no end-request will ever release and ship the
            // object concurrently with whatever the requester does next —
            // which would also make seeded fault schedules unreplayable.
            self.shared
                .counters
                .moves_denied
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.shared
                .trace
                .emit(self.id.as_u32(), EventKind::MoveDenied { object, block });
            answer(reply, Ok(false));
            return;
        }

        let decision = if self.shared.object(object).mobility.is_movable() {
            self.shared.policy.lock().on_move(&MoveRequest {
                object,
                at: self.id,
                from: to,
                block,
            })
        } else {
            MoveDecision::Deny
        };

        match &decision {
            MoveDecision::Grant => {
                self.shared
                    .counters
                    .moves_granted
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.shared
                    .trace
                    .emit(self.id.as_u32(), EventKind::MoveGranted { object, block });
            }
            MoveDecision::Deny => {
                self.shared
                    .counters
                    .moves_denied
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.shared
                    .trace
                    .emit(self.id.as_u32(), EventKind::MoveDenied { object, block });
            }
        }
        match decision {
            MoveDecision::Grant if to == self.id => {
                // already local: install (lock) in place
                {
                    let mut policy = self.shared.policy.lock();
                    policy.on_installed(object, self.id, block);
                    self.emit_lock_acquired(&**policy, object, block);
                }
                answer(reply, Ok(true));
            }
            MoveDecision::Grant => self.migrate_closure(object, to, context, Some((block, reply))),
            MoveDecision::Deny => {
                answer(reply, Ok(false));
            }
        }
    }

    /// Emits `LockAcquired` if the policy now holds `(object, block)` — the
    /// policy decides whether an installation locks, so the trace mirrors
    /// its actual lock table. MUST be called with the policy guard held:
    /// lock-state events are ordered by the policy mutex, and emitting
    /// outside it would let a concurrent release/acquire pair reach the
    /// collector in swapped order (a false overlap for the checker).
    fn emit_lock_acquired(&self, policy: &dyn MovePolicy, object: ObjectId, block: BlockId) {
        if !self.shared.trace.is_enabled() {
            return;
        }
        if policy
            .held_locks()
            .iter()
            .any(|&(o, b)| o == object && b == block)
        {
            self.shared.trace.emit(
                self.id.as_u32(),
                EventKind::LockAcquired {
                    object,
                    block,
                    now_ms: self.shared.now_ms(),
                    ttl_ms: policy.lease_ttl_ms(),
                },
            );
        }
    }

    /// Migrates `main` and its (mode- and context-dependent) attachment
    /// closure towards `to`: the members hosted here travel with `main` in
    /// one `Install`, each other host gets one `Surrender` naming its
    /// members. The members are classified before anything moves, so the
    /// `ClosureBegin` event names exactly the set this node commits to
    /// ship — a member that is immovable, pinned or of a type nobody can
    /// delinearize stays where it is, and an undelinearizable `main` refuses
    /// the whole move.
    fn migrate_closure(
        &mut self,
        main: ObjectId,
        to: NodeId,
        context: Option<AllianceId>,
        install_for: Option<(BlockId, MoveReply)>,
    ) {
        if !self.can_ship(main) {
            // shipping would lose the object: the requester, if any, learns
            // of the failure and nothing moves
            if let (Some(hosted), Some((_, reply))) = (self.objects.get(&main), install_for) {
                let tag = hosted.instance.type_tag().to_owned();
                answer(reply, Err(RuntimeError::UnknownType(tag)));
            }
            return;
        }
        self.shared
            .cooperation
            .lock()
            .attachments
            .migration_closure_into(main, context, &mut self.closure);
        // the locks are taken one after the other, never nested
        let mut local = std::mem::take(&mut self.local);
        local.clear();
        local.extend(self.closure.members().iter().filter(|&&m| m != main));
        let mut surrenders = Vec::new();
        if !local.is_empty() {
            let policy = self.shared.policy.lock();
            local.retain(|&member| !policy.is_pinned(member));
            drop(policy);
            // one look at the table: which members may move, and where the
            // ones hosted elsewhere are
            let objects = self.shared.objects.read();
            local.retain(|member| {
                let record = objects.get(member).copied().unwrap_or_default();
                if !record.mobility.is_movable() {
                    return false;
                }
                if self.objects.contains_key(member) {
                    return true;
                }
                if let Some(host) = record.at.filter(|&host| host != to) {
                    group_push(&mut surrenders, host, *member);
                }
                false
            });
            drop(objects);
            local.retain(|&member| self.can_ship(member));
        }
        if self.shared.trace.is_enabled() && !(local.is_empty() && surrenders.is_empty()) {
            self.shared.trace.emit(
                self.id.as_u32(),
                EventKind::ClosureBegin {
                    main,
                    to,
                    members: local.clone(),
                },
            );
        }
        for (host, members) in surrenders {
            for &member in &members {
                self.shared.trace.emit(
                    self.id.as_u32(),
                    EventKind::SurrenderRequested { member, to },
                );
            }
            let _ = self.shared.send_from(
                Some((self.id, self.epoch)),
                host,
                Message::Surrender { members, to },
            );
        }
        local.push(main);
        self.ship(
            &local,
            to,
            install_for.map(|(block, reply)| (main, block, reply)),
        );
        self.local = local;
    }

    /// Whether `object` is installed here and of a type its destination
    /// will be able to delinearize.
    fn can_ship(&self, object: ObjectId) -> bool {
        self.objects.get(&object).is_some_and(|hosted| {
            let tag = hosted.instance.type_tag();
            self.shared.registry.get(tag).is_some()
        })
    }

    /// Sends the locally hosted `objects` (each one [`Self::can_ship`]) to
    /// `to` in one `Install`, each as its image — linearized now only if
    /// none is kept. The directory is updated here, with the epoch stamps
    /// under one guard and atomically with the removal, so calls are routed
    /// (and parked) at the destination from this instant on.
    fn ship(
        &mut self,
        objects: &[ObjectId],
        to: NodeId,
        install_for: Option<(ObjectId, BlockId, MoveReply)>,
    ) {
        let mut members: Vec<Shipped> = Vec::with_capacity(objects.len());
        for &object in objects {
            let Some(mut hosted) = self.objects.remove(&object) else {
                continue;
            };
            self.shared
                .trace
                .emit(self.id.as_u32(), EventKind::Ship { object, to });
            members.push((object, hosted.take_image()));
        }
        if members.is_empty() {
            return;
        }
        self.shared.ship_to(&mut members, to);
        self.shared
            .counters
            .objects_migrated
            .fetch_add(members.len() as u64, std::sync::atomic::Ordering::Relaxed);
        if to == self.id {
            // degenerate self-migration: reinstall immediately
            self.handle_install(members, install_for);
        } else {
            let _ = self.shared.send_from(
                Some((self.id, self.epoch)),
                to,
                Message::Install {
                    members,
                    install_for,
                },
            );
        }
    }

    /// Installs an arriving closure in one step: fences per member,
    /// installs every survivor, then refreshes their checkpoints together,
    /// keeps the arrived copies as the members' images and tells the
    /// policy — so no message handled before or after this one finds half a
    /// working set here.
    fn handle_install(
        &mut self,
        mut members: Vec<Shipped>,
        mut install_for: Option<(ObjectId, BlockId, MoveReply)>,
    ) {
        // fenced per member, the survivors pointed here under the same guard
        self.shared.fence(&mut members, Some(self.id), |stale| {
            // a pre-crash install queued (or delayed) behind a
            // reinstantiation: the state it carries belongs to a fenced
            // incarnation of the object. Drop it without replying — the
            // requester, if any, sees its deadline out.
            self.shared
                .counters
                .fenced_stale
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.shared.trace.emit(
                self.id.as_u32(),
                EventKind::FencedStale {
                    epoch: stale.object_epoch,
                },
            );
        });
        members.retain(|(object, ckpt)| {
            let Some(delinearize) = self.shared.registry.get(&ckpt.type_tag) else {
                // The sender checked, but the registry is shared and mutable;
                // fail the requester rather than panic the node.
                if let Some((_, _, reply)) = install_for.take_if(|(main, ..)| main == object) {
                    answer(reply, Err(RuntimeError::UnknownType(ckpt.type_tag.clone())));
                }
                return false;
            };
            self.objects
                .insert(*object, Hosted::new(delinearize(&ckpt.state)));
            true
        });
        if members.is_empty() {
            return;
        }
        // a fenced main object installs no block either
        let install_for = install_for.filter(|(main, ..)| members.iter().any(|(o, _)| o == main));
        for &(object, _) in &members {
            self.shared
                .trace
                .emit(self.id.as_u32(), EventKind::Install { object });
        }
        // an install is a natural checkpoint: the linearized states are in hand
        self.shared
            .checkpoint_refresh(&mut members, self.id, self.epoch);
        self.keep_images(&mut members);
        {
            let mut policy = self.shared.policy.lock();
            for &(object, _) in &members {
                policy.on_arrival(object, self.id);
            }
            if let Some((main, block, _)) = &install_for {
                policy.on_installed(*main, self.id, *block);
                self.emit_lock_acquired(&**policy, *main, *block);
            }
        }
        if let Some((_, _, reply)) = install_for {
            answer(reply, Ok(true));
        }
        if !self.awaiting.is_empty() {
            for &(object, _) in &members {
                self.drain_awaiting(object);
            }
        }
    }

    /// Ends `block` on the locally installed `object`.
    fn handle_end(
        &mut self,
        object: ObjectId,
        block: BlockId,
        from: NodeId,
        was_granted: bool,
        context: Option<AllianceId>,
    ) {
        // the end of a block is a consistency point: refresh the replicated
        // checkpoint before the policy possibly migrates the object away
        if self.shared.detector_enabled() {
            self.refresh_hosted(std::iter::once(object));
        }
        let action = {
            let mut policy = self.shared.policy.lock();
            let held_before = self.shared.trace.is_enabled()
                && policy
                    .held_locks()
                    .iter()
                    .any(|&(o, b)| o == object && b == block);
            let action = policy.on_end(&EndRequest {
                object,
                at: self.id,
                from,
                block,
                was_granted,
            });
            if held_before
                && !policy
                    .held_locks()
                    .iter()
                    .any(|&(o, b)| o == object && b == block)
            {
                let released = [(object, block)];
                self.shared
                    .trace_released(self.id.as_u32(), ReleaseCause::End, &released);
            }
            action
        };
        if let EndAction::Migrate(target) = action {
            if target != self.id {
                self.migrate_closure(object, target, context, None);
            }
        }
    }
}
