//! The simulated world: run-time support for migration interpreted at the
//! callee's node (§3.1), driven by discrete events.
//!
//! # The §4.1 model, made precise
//!
//! * Every remote **message** (call, result, move-request, denial
//!   indication) takes a random duration drawn from the network's latency
//!   model (Exp(1) in the paper's setup); messages between collocated
//!   parties are free.
//! * A **migration** keeps all moved objects in transit for `M · size`;
//!   calls addressed to them block until reinstallation.
//! * A **move-block** is: move-request → outcome (object arrival or denial
//!   indication) → `N` invocations separated by think times `t_i` →
//!   end-request. End-requests are local operations (free); for the dynamic
//!   policies they are delivered to the object with their bookkeeping cost
//!   neglected, exactly as the paper does (§4.3).
//! * Messages that arrive where the object used to be chase it with
//!   forward-addressing hops.

use oml_core::attach::{AttachmentGraph, ClosureScratch};
use oml_core::ids::{BlockId, ClientId, NodeId, ObjectId};
use oml_core::policy::{EndRequest, MoveDecision, MovePolicy, MoveRequest};
use oml_des::stats::StoppingRule;
use oml_des::{EventHandler, Scheduler, SimRng, SimTime};
use oml_net::Network;

use crate::dense::{NodeObjectTable, ScanMap};
use crate::event::{Event, Leg, TraceEvent};
use crate::metrics::SimMetrics;
use crate::state::{
    BlockFlavor, BlockState, BlockedCall, CallState, ClientState, Location, LocationMechanism,
    MigrationState, ObjectState, QueuedEnd,
};
use oml_des::trace::TraceBuffer;

/// The complete simulation state; implements [`EventHandler`].
///
/// Constructed through [`crate::SimulationBuilder`]; not intended to be
/// driven directly.
#[derive(Debug)]
pub struct World {
    pub(crate) net: Network,
    pub(crate) rng: SimRng,
    pub(crate) policy: Box<dyn MovePolicy>,
    pub(crate) attachments: AttachmentGraph,
    pub(crate) objects: Vec<ObjectState>,
    pub(crate) clients: Vec<ClientState>,
    pub(crate) blocks: ScanMap<BlockId, BlockState>,
    pub(crate) next_block: u32,
    pub(crate) calls: ScanMap<u64, CallState>,
    pub(crate) next_call: u64,
    pub(crate) migrations: ScanMap<u64, MigrationState>,
    pub(crate) next_migration: u64,
    /// `M`: base migration duration for a unit-size object.
    pub(crate) migration_duration: f64,
    /// Metrics recording starts after this simulated time (transient
    /// warm-up removal).
    pub(crate) warmup_time: f64,
    pub(crate) metrics: SimMetrics,
    pub(crate) stopping: StoppingRule,
    /// Optional high-level run trace (ring buffer of the tail).
    pub(crate) trace: Option<TraceBuffer<TraceEvent>>,
    /// How invocations locate moved objects (§4.1's neglected alternatives).
    pub(crate) location_mechanism: LocationMechanism,
    /// Per-node cached object locations (used by every mechanism except
    /// immediate update).
    pub(crate) location_cache: NodeObjectTable,
    /// Forwarding pointers: the node an object departed from remembers where
    /// it went (Emerald-style forward addressing).
    pub(crate) forward_pointers: NodeObjectTable,
    /// Reusable buffers for [`AttachmentGraph::migration_closure_into`], so
    /// the closure of a migration is computed without allocating.
    pub(crate) closure_scratch: ClosureScratch,
    /// Retired mover lists, recycled by the next migration.
    pub(crate) mover_pool: Vec<Vec<ObjectId>>,
}

impl World {
    /// Collected metrics so far.
    #[must_use]
    pub fn metrics(&self) -> &SimMetrics {
        &self.metrics
    }

    /// Whether the stopping rule is satisfied.
    #[must_use]
    pub fn should_stop(&self) -> bool {
        self.metrics.should_stop(&self.stopping)
    }

    /// The node an object is currently installed at (`None` while in
    /// transit).
    #[must_use]
    pub fn object_node(&self, object: ObjectId) -> Option<NodeId> {
        self.objects[object.index()].node()
    }

    fn recording(&self, now: SimTime) -> bool {
        now.as_f64() >= self.warmup_time
    }

    /// The run trace, if enabled at build time.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceBuffer<TraceEvent>> {
        self.trace.as_ref()
    }

    fn record_trace(&mut self, now: SimTime, event: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.record(now, event);
        }
    }

    /// Where `from`'s runtime believes `object` lives (defaults to the
    /// object's home node until a result message teaches it better).
    fn cached_location(&self, from: NodeId, object: ObjectId) -> NodeId {
        self.location_cache
            .get(from, object)
            .unwrap_or(self.objects[object.index()].descriptor.home)
    }

    fn learn_location(&mut self, at: NodeId, object: ObjectId, is: NodeId) {
        self.location_cache.set(at, object, is);
    }

    /// Samples one message delay between two nodes.
    fn delay(&mut self, from: NodeId, to: NodeId) -> f64 {
        let World { net, rng, .. } = self;
        net.message_delay(from, to, rng)
    }

    // ------------------------------------------------------------------
    // move-blocks
    // ------------------------------------------------------------------

    fn on_block_start(&mut self, now: SimTime, client_id: ClientId, sched: &mut Scheduler<Event>) {
        let (node, target, n_calls) = {
            let World { rng, clients, .. } = self;
            let client = &clients[client_id.index()];
            let target = *rng.pick(&client.servers);
            let n_calls = rng.exp_count(client.params.mean_calls);
            (client.node, target, n_calls)
        };
        let block_id = BlockId::new(self.next_block);
        self.next_block += 1;
        let mut block = BlockState::new(client_id, node, target, n_calls);

        self.record_trace(
            now,
            TraceEvent::BlockStarted {
                client: client_id,
                object: target,
            },
        );
        if self.policy.uses_move_requests() {
            block.issued_move = true;
            if self.recording(now) {
                self.metrics.moves_issued += 1;
            }
            self.blocks.insert(block_id, block);
            self.send_move(block_id, sched);
        } else {
            // Sedentary applications do not attempt migration at all.
            block.granted = Some(false);
            self.blocks.insert(block_id, block);
            sched.schedule_in(0.0, Event::NextCall { block: block_id });
        }
    }

    fn send_move(&mut self, block_id: BlockId, sched: &mut Scheduler<Event>) {
        let (target, client_node) = {
            let b = &self.blocks[block_id];
            (b.target, b.client_node)
        };
        match self.objects[target.index()].location {
            Location::At(n) => {
                let d = self.delay(client_node, n);
                self.blocks
                    .get_mut(block_id)
                    .expect("live block")
                    .control_cost += d;
                sched.schedule_in(
                    d,
                    Event::MoveMsgArrive {
                        block: block_id,
                        node: n,
                    },
                );
            }
            Location::InTransit { .. } => {
                // The request chases the object and is interpreted when it
                // lands; the chasing message's cost is charged on delivery.
                self.objects[target.index()]
                    .queued_moves
                    .push_back(block_id);
            }
        }
    }

    fn on_move_msg_arrive(
        &mut self,
        now: SimTime,
        block_id: BlockId,
        node: NodeId,
        sched: &mut Scheduler<Event>,
    ) {
        let target = self.blocks[block_id].target;
        match self.objects[target.index()].location {
            Location::At(n) if n == node => self.process_move(now, block_id, node, sched),
            Location::At(m) => {
                // forward-addressing hop
                if self.recording(now) {
                    self.metrics.forward_hops += 1;
                }
                let d = self.delay(node, m);
                self.blocks
                    .get_mut(block_id)
                    .expect("live block")
                    .control_cost += d;
                sched.schedule_in(
                    d,
                    Event::MoveMsgArrive {
                        block: block_id,
                        node: m,
                    },
                );
            }
            Location::InTransit { .. } => {
                self.objects[target.index()]
                    .queued_moves
                    .push_back(block_id);
            }
        }
    }

    /// Interpret a move-request at the object's current node (§3.1, Fig. 3).
    fn process_move(
        &mut self,
        now: SimTime,
        block_id: BlockId,
        at: NodeId,
        sched: &mut Scheduler<Event>,
    ) {
        let (target, from) = {
            let b = &self.blocks[block_id];
            (b.target, b.client_node)
        };
        debug_assert_eq!(self.objects[target.index()].node(), Some(at));

        let movable = self.objects[target.index()]
            .descriptor
            .mobility
            .is_movable();
        let decision = if movable {
            self.policy.on_move(&MoveRequest {
                object: target,
                at,
                from,
                block: block_id,
            })
        } else {
            // Fixed objects are sedentary regardless of policy (§2.2).
            MoveDecision::Deny
        };

        match decision {
            MoveDecision::Grant => {
                self.record_trace(now, TraceEvent::MoveGranted { block: block_id });
                if self.recording(now) {
                    self.metrics.moves_granted += 1;
                }
                self.blocks
                    .get_mut(block_id)
                    .expect("live block")
                    .origin_node = Some(at);
                if at == from {
                    // Already local: no migration, install (and lock) here.
                    self.policy.on_installed(target, at, block_id);
                    sched.schedule_in(
                        0.0,
                        Event::MoveOutcome {
                            block: block_id,
                            granted: true,
                        },
                    );
                } else {
                    self.start_migration(now, target, from, Some(block_id), sched);
                }
            }
            MoveDecision::Deny => {
                self.record_trace(now, TraceEvent::MoveDenied { block: block_id });
                if self.recording(now) {
                    self.metrics.moves_denied += 1;
                }
                let d = self.delay(at, from);
                self.blocks
                    .get_mut(block_id)
                    .expect("live block")
                    .control_cost += d;
                sched.schedule_in(
                    d,
                    Event::MoveOutcome {
                        block: block_id,
                        granted: false,
                    },
                );
            }
        }
    }

    fn on_move_outcome(
        &mut self,
        _now: SimTime,
        block_id: BlockId,
        granted: bool,
        sched: &mut Scheduler<Event>,
    ) {
        let block = self.blocks.get_mut(block_id).expect("live block");
        debug_assert!(block.granted.is_none());
        block.granted = Some(granted);
        sched.schedule_in(0.0, Event::NextCall { block: block_id });
    }

    // ------------------------------------------------------------------
    // migration
    // ------------------------------------------------------------------

    /// Starts migrating `main` (with its mode-dependent attachment closure)
    /// towards `to`. `install_block` is the granted block to notify and
    /// install for, or `None` for policy-initiated migrations and
    /// visit-blocks' migrate-back.
    fn start_migration(
        &mut self,
        now: SimTime,
        main: ObjectId,
        to: NodeId,
        install_block: Option<BlockId>,
        sched: &mut Scheduler<Event>,
    ) {
        let ctx = self.objects[main.index()].move_context;
        self.attachments
            .migration_closure_into(main, ctx, &mut self.closure_scratch);

        let mid = self.next_migration;
        self.next_migration += 1;

        let mut movers = self.mover_pool.pop().unwrap_or_default();
        debug_assert!(movers.is_empty());
        let mut transfer_load = 0.0;
        for i in 0..self.closure_scratch.members().len() {
            let member = self.closure_scratch.members()[i];
            let obj = &self.objects[member.index()];
            let movable = obj.descriptor.mobility.is_movable();
            // A placement lock makes an object transiently sedentary (§3.2),
            // so other blocks' closure migrations leave it behind.
            let pinned = self.policy.is_pinned(member);
            let here = matches!(obj.location, Location::At(n) if n != to);
            if movable && !pinned && here {
                movers.push(member);
                transfer_load += self.migration_duration;
            }
        }
        // Objects transfer in parallel (the network is unsaturated, §4.1):
        // the migration lands one `M` after it departs, whatever its size.
        let land_delay = if movers.is_empty() {
            0.0
        } else {
            self.migration_duration
        };
        for &member in &movers {
            if let Location::At(old) = self.objects[member.index()].location {
                // Emerald-style forwarding pointer at the departure node.
                self.forward_pointers.set(old, member, to);
            }
            self.objects[member.index()].location = Location::InTransit { to, migration: mid };
        }

        // All cost accounting happens at departure so a triggering block can
        // be charged before it completes. The *migration time* a block is
        // charged is the transfer latency (objects travel in parallel); the
        // per-object network load (`k · M`) is tracked separately as the
        // §2.4 underestimation diagnostic.
        if self.recording(now) && !movers.is_empty() {
            self.metrics.migrations += 1;
            self.metrics.objects_migrated += movers.len() as u64;
            self.metrics.total_migration_time += land_delay;
            self.metrics.total_transfer_load += transfer_load;
            if install_block.is_none() {
                self.metrics.unattributed_migration_time += land_delay;
            }
        }
        if let Some(bid) = install_block {
            if let Some(block) = self.blocks.get_mut(bid) {
                block.migration_cost += land_delay;
            }
        }

        self.record_trace(
            now,
            TraceEvent::MigrationStarted {
                to,
                movers: movers.len(),
            },
        );
        self.migrations.insert(
            mid,
            MigrationState {
                main,
                movers,
                to,
                block: install_block,
            },
        );
        sched.schedule_in(land_delay, Event::MigrationLand { migration: mid });
    }

    fn on_migration_land(&mut self, now: SimTime, mid: u64, sched: &mut Scheduler<Event>) {
        let mig = self.migrations.remove(mid).expect("live migration");
        self.record_trace(now, TraceEvent::MigrationLanded { to: mig.to });
        for &mover in &mig.movers {
            self.objects[mover.index()].location = Location::At(mig.to);
            self.policy.on_arrival(mover, mig.to);
        }
        if let Some(bid) = mig.block {
            // The granted requester's object is installed; placement-style
            // policies take their lock now, before any queued conflicting
            // request is interpreted (Fig. 4's timeline).
            self.policy.on_installed(mig.main, mig.to, bid);
            sched.schedule_in(
                0.0,
                Event::MoveOutcome {
                    block: bid,
                    granted: true,
                },
            );
        }
        // Wake everything that waited for the landing, object by object:
        // end-requests first (they may release locks), then blocked calls,
        // then queued move-requests (which may immediately re-migrate).
        for &mover in &mig.movers {
            self.drain_after_landing(now, mover, mig.to, sched);
        }
        let mut movers = mig.movers;
        movers.clear();
        self.mover_pool.push(movers);
    }

    fn drain_after_landing(
        &mut self,
        now: SimTime,
        object: ObjectId,
        landed_at: NodeId,
        sched: &mut Scheduler<Event>,
    ) {
        let ends: Vec<QueuedEnd> = std::mem::take(&mut self.objects[object.index()].queued_ends);
        for e in ends {
            self.process_end_request(now, object, landed_at, e, sched);
        }

        let blocked: Vec<BlockedCall> =
            std::mem::take(&mut self.objects[object.index()].blocked_calls);
        for bc in blocked {
            if bc.from == landed_at {
                sched.schedule_in(
                    0.0,
                    Event::CallMsgArrive {
                        call: bc.call,
                        node: landed_at,
                        leg: bc.leg,
                    },
                );
            } else {
                if self.recording(now) {
                    self.metrics.forward_hops += 1;
                }
                let d = self.delay(bc.from, landed_at);
                sched.schedule_in(
                    d,
                    Event::CallMsgArrive {
                        call: bc.call,
                        node: landed_at,
                        leg: bc.leg,
                    },
                );
            }
        }

        // Queued move-requests are interpreted in arrival order until one of
        // them migrates the object away again.
        while matches!(self.objects[object.index()].location, Location::At(n) if n == landed_at) {
            let Some(bid) = self.objects[object.index()].queued_moves.pop_front() else {
                break;
            };
            self.process_move(now, bid, landed_at, sched);
        }
    }

    fn process_end_request(
        &mut self,
        now: SimTime,
        object: ObjectId,
        at: NodeId,
        q: QueuedEnd,
        sched: &mut Scheduler<Event>,
    ) {
        let action = self.policy.on_end(&EndRequest {
            object,
            at,
            from: q.from,
            block: q.block,
            was_granted: q.was_granted,
        });
        if let oml_core::policy::EndAction::Migrate(node) = action {
            if node != at {
                self.start_migration(now, object, node, None, sched);
            }
        }
    }

    // ------------------------------------------------------------------
    // invocations
    // ------------------------------------------------------------------

    fn on_next_call(&mut self, now: SimTime, block_id: BlockId, sched: &mut Scheduler<Event>) {
        let (target, client_node) = {
            let b = &self.blocks[block_id];
            (b.target, b.client_node)
        };
        let nested = {
            let World { rng, objects, .. } = self;
            let candidates = &objects[target.index()].nested_targets;
            if candidates.is_empty() {
                None
            } else {
                Some(*rng.pick(candidates))
            }
        };
        let call_id = self.next_call;
        self.next_call += 1;
        self.calls.insert(
            call_id,
            CallState {
                block: block_id,
                client_node,
                target,
                nested,
                issued_at: now.as_f64(),
                exec_node: None,
                ever_blocked: false,
            },
        );
        self.send_leg(call_id, Leg::Target, client_node, sched);
    }

    fn leg_object(&self, call_id: u64, leg: Leg) -> ObjectId {
        let call = &self.calls[call_id];
        match leg {
            Leg::Target => call.target,
            Leg::Nested => call.nested.expect("nested leg without nested target"),
        }
    }

    fn send_leg(&mut self, call_id: u64, leg: Leg, from: NodeId, sched: &mut Scheduler<Event>) {
        let object = self.leg_object(call_id, leg);
        if self.location_mechanism != LocationMechanism::ImmediateUpdate {
            // the sender trusts its cache; staleness is resolved on arrival
            let dest = self.cached_location(from, object);
            let d = self.delay(from, dest);
            sched.schedule_in(
                d,
                Event::CallMsgArrive {
                    call: call_id,
                    node: dest,
                    leg,
                },
            );
            return;
        }
        match self.objects[object.index()].location {
            Location::At(n) => {
                let d = self.delay(from, n);
                sched.schedule_in(
                    d,
                    Event::CallMsgArrive {
                        call: call_id,
                        node: n,
                        leg,
                    },
                );
            }
            Location::InTransit { .. } => {
                self.calls.get_mut(call_id).expect("live call").ever_blocked = true;
                self.objects[object.index()]
                    .blocked_calls
                    .push(BlockedCall {
                        call: call_id,
                        leg,
                        from,
                    });
            }
        }
    }

    fn on_call_msg_arrive(
        &mut self,
        now: SimTime,
        call_id: u64,
        node: NodeId,
        leg: Leg,
        sched: &mut Scheduler<Event>,
    ) {
        let object = self.leg_object(call_id, leg);
        match self.objects[object.index()].location {
            Location::At(n) if n == node => self.execute_leg(call_id, node, leg, sched),
            Location::At(m) => {
                // Stale delivery: recover per the configured mechanism.
                let (hops, d, next) = match self.location_mechanism {
                    // a raced migration: one direct hop (the sender's
                    // knowledge was current when it sent)
                    LocationMechanism::ImmediateUpdate => (1, self.delay(node, m), m),
                    // follow the forwarding pointer this node left behind
                    // (it may itself be stale → the chase continues there)
                    LocationMechanism::ForwardAddressing => {
                        let next = self.forward_pointers.get(node, object).unwrap_or(m);
                        (1, self.delay(node, next), next)
                    }
                    // ask the name server, which redirects the message
                    LocationMechanism::NameServer { node: ns } => {
                        let d = self.delay(node, ns) + self.delay(ns, m);
                        (2, d, m)
                    }
                    // broadcast a query; the owner's answer fetches the call
                    LocationMechanism::Broadcast => {
                        let d = self.delay(node, m) + self.delay(m, node);
                        (2, d, m)
                    }
                };
                if self.recording(now) {
                    self.metrics.forward_hops += hops;
                }
                sched.schedule_in(
                    d,
                    Event::CallMsgArrive {
                        call: call_id,
                        node: next,
                        leg,
                    },
                );
            }
            Location::InTransit { .. } => {
                self.calls.get_mut(call_id).expect("live call").ever_blocked = true;
                self.objects[object.index()]
                    .blocked_calls
                    .push(BlockedCall {
                        call: call_id,
                        leg,
                        from: node,
                    });
            }
        }
    }

    fn execute_leg(&mut self, call_id: u64, node: NodeId, leg: Leg, sched: &mut Scheduler<Event>) {
        match leg {
            Leg::Target => {
                let (has_nested, client_node, target) = {
                    let call = self.calls.get_mut(call_id).expect("live call");
                    call.exec_node = Some(node);
                    (call.nested.is_some(), call.client_node, call.target)
                };
                // the caller's runtime learns the object's location from the
                // interaction
                self.learn_location(client_node, target, node);

                if has_nested {
                    self.send_leg(call_id, Leg::Nested, node, sched);
                } else {
                    let client_node = self.calls[call_id].client_node;
                    let d = self.delay(node, client_node);
                    sched.schedule_in(
                        d,
                        Event::CallReturn {
                            call: call_id,
                            leg: Leg::Target,
                        },
                    );
                }
            }
            Leg::Nested => {
                // Execute at the second-layer server, send the result back
                // to where the first-layer server ran.
                let (exec_node, nested) = {
                    let call = &self.calls[call_id];
                    (
                        call.exec_node.expect("target leg ran first"),
                        call.nested.expect("nested leg has a target"),
                    )
                };
                self.learn_location(exec_node, nested, node);
                let d = self.delay(node, exec_node);
                sched.schedule_in(
                    d,
                    Event::CallReturn {
                        call: call_id,
                        leg: Leg::Nested,
                    },
                );
            }
        }
    }

    fn on_call_return(
        &mut self,
        now: SimTime,
        call_id: u64,
        leg: Leg,
        sched: &mut Scheduler<Event>,
    ) {
        match leg {
            Leg::Nested => {
                // Nested result reached the first-layer server; relay the
                // overall result to the client.
                let (exec_node, client_node) = {
                    let call = &self.calls[call_id];
                    (call.exec_node.expect("exec node set"), call.client_node)
                };
                let d = self.delay(exec_node, client_node);
                sched.schedule_in(
                    d,
                    Event::CallReturn {
                        call: call_id,
                        leg: Leg::Target,
                    },
                );
            }
            Leg::Target => {
                let call = self.calls.remove(call_id).expect("live call");
                let duration = now.as_f64() - call.issued_at;
                if call.ever_blocked && self.recording(now) {
                    self.metrics.blocked_calls += 1;
                }
                let block_id = call.block;
                let (done, total, client) = {
                    let block = self.blocks.get_mut(block_id).expect("live block");
                    block.calls_done += 1;
                    block.call_durations.push(duration);
                    (block.calls_done, block.n_calls, block.client)
                };
                if done < total {
                    let think = {
                        let mean = self.clients[client.index()].params.mean_think;
                        self.rng.exp(mean)
                    };
                    sched.schedule_in(think, Event::NextCall { block: block_id });
                } else {
                    self.finish_block(now, block_id, sched);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // block completion
    // ------------------------------------------------------------------

    fn finish_block(&mut self, now: SimTime, block_id: BlockId, sched: &mut Scheduler<Event>) {
        let (client_id, target, issued_move, granted, origin, client_node) = {
            let b = &self.blocks[block_id];
            (
                b.client,
                b.target,
                b.issued_move,
                b.granted.unwrap_or(false),
                b.origin_node,
                b.client_node,
            )
        };

        if issued_move {
            let q = QueuedEnd {
                block: block_id,
                from: client_node,
                was_granted: granted,
            };
            match self.objects[target.index()].location {
                Location::At(at) => self.process_end_request(now, target, at, q, sched),
                Location::InTransit { .. } => {
                    self.objects[target.index()].queued_ends.push(q);
                }
            }

            // visit-blocks migrate the object back to where it came from
            let flavor = self.clients[client_id.index()].flavor;
            if flavor == BlockFlavor::Visit && granted {
                if let (Some(origin), Location::At(cur)) =
                    (origin, self.objects[target.index()].location)
                {
                    if cur != origin {
                        self.start_migration(now, target, origin, None, sched);
                    }
                }
            }
        }

        // Emit metrics: each call's communication time is its duration plus
        // the block's migration and control overhead evenly distributed
        // (Fig. 8's definition).
        if self.recording(now) {
            let block = &self.blocks[block_id];
            let n = block.call_durations.len().max(1) as f64;
            let overhead = (block.migration_cost + block.control_cost) / n;
            for &d in &block.call_durations {
                self.metrics.calls += 1;
                self.metrics.total_call_time += d;
                self.metrics.call_durations.push(d);
                self.metrics.call_p95.push(d);
                self.metrics.samples.push(d + overhead);
                self.metrics.per_client_comm[client_id.index()].push(d + overhead);
            }
            self.metrics.total_control_time += block.control_cost;
            self.metrics.blocks_completed += 1;
        }

        self.record_trace(now, TraceEvent::BlockFinished { block: block_id });
        self.blocks.remove(block_id);

        let gap = {
            let client = &mut self.clients[client_id.index()];
            client.blocks_completed += 1;
            let mean = client.params.mean_gap;
            self.rng.exp(mean)
        };
        sched.schedule_in(gap, Event::BlockStart { client: client_id });
    }
}

impl EventHandler for World {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        match event {
            Event::BlockStart { client } => self.on_block_start(now, client, sched),
            Event::MoveMsgArrive { block, node } => {
                self.on_move_msg_arrive(now, block, node, sched);
            }
            Event::MoveOutcome { block, granted } => {
                self.on_move_outcome(now, block, granted, sched);
            }
            Event::MigrationLand { migration } => self.on_migration_land(now, migration, sched),
            Event::NextCall { block } => self.on_next_call(now, block, sched),
            Event::CallMsgArrive { call, node, leg } => {
                self.on_call_msg_arrive(now, call, node, leg, sched);
            }
            Event::CallReturn { call, leg } => self.on_call_return(now, call, leg, sched),
        }
    }
}
