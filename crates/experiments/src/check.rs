//! Every seeded scenario `repro check` replays, each written once: a
//! function of a fault-schedule seed that drives a manual-clock cluster
//! with tracing on, asserts what its client must see, and returns the
//! checker's verdict on the collected trace. A scenario a negative control
//! ([`NEGATIVE_CONTROLS`]) rides on also takes an optional [`Sabotage`]:
//! the control is that scenario under one sabotage, and the same call
//! without it is its clean twin. A debug
//! build also arms the runtime's lock-nesting trap, which aborts the run at
//! any lock taken under another.
//!
//! This is the executable face of the checker — CI (and anyone debugging a
//! protocol change) runs `repro check --seeds chaos` and gets either "all
//! invariants hold" or a named violation with the offending seed.
//! `crates/experiments/tests/scenarios.rs` pins replay identity, seed
//! divergence, the recovery event counts and every control's twin pair.

use std::time::Duration;

use oml_check::explore::trace_digest;
use oml_check::{check_trace, CheckReport, TraceEvent, Violation};
use oml_core::ids::{NodeId, ObjectId};
use oml_core::policy::PolicyKind;
use oml_runtime::wire::{WireReader, WireWriter};
use oml_runtime::{
    Cluster, ClusterBuilder, ClusterStats, FaultPlan, NodeHealth, RuntimeError, Sabotage,
};

use crate::experiments::{delinearize_counter, Counter, COUNTER};

/// The chaos seeds `repro check --seeds chaos` replays: the canonical
/// chaos-harness seed plus two divergence seeds.
pub const CHAOS_SEEDS: &[u64] = &[0xC0A5, 1, 2];

const NODES: u32 = 4;
const LEASE_MS: u64 = 1_000;
const OPS: u64 = 40;

/// What one traced scenario replay produced.
#[derive(Debug)]
pub struct CheckOutcome {
    /// The fault-schedule seed this replay ran under.
    pub seed: u64,
    /// The checker's verdict over the collected trace.
    pub report: CheckReport,
    /// [`trace_digest`] of the collected trace: under the manual clock one
    /// seed gives one digest, run after run.
    pub digest: u64,
    /// The collected trace: the faults the plan injected among the
    /// protocol's events.
    pub trace: Vec<TraceEvent>,
    /// The cluster's counters once it stopped.
    pub stats: ClusterStats,
    /// Each call the schedule's faults refused: its op index, `"move"` or
    /// `"add"`, and the error.
    pub errors: Vec<(u64, &'static str, RuntimeError)>,
    /// What the scenario's objects answered at the end, in creation order.
    pub finals: Vec<u64>,
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Replays the chaos schedule under `seed`: drops, duplicates, delays and
/// lost end-requests over three objects on four nodes, a node-pair
/// partition (healed later) and one crash/restart cycle, then a quiesce
/// phase that lets every orphaned lease expire, after which the client
/// checks what it sees: no leaked lock, every object on one node and
/// answering, every acknowledged add in the values, and counters that
/// agree with the errors it was shown.
///
/// # Panics
///
/// Panics if a client check fails, or if the runtime surfaces an error the
/// chaos schedule cannot produce (anything but a timeout) — that is a
/// harness bug, not a protocol violation.
#[must_use]
pub fn replay_chaos(seed: u64) -> CheckOutcome {
    let plan = FaultPlan::seeded(seed)
        .drop_probability(0.08)
        .duplicate_probability(0.05)
        .delay_probability(0.10, 3)
        .drop_end_requests(0.5);
    let cluster = replay_cluster(replay_builder(plan, None));
    let fail_fast = false; // no detector: a call at a dead node times out
    let driven = drive_ops(&cluster, fail_fast, |i| match i {
        10 => cluster.partition(n(0), n(1)).expect("valid nodes"),
        18 => cluster.heal(n(0), n(1)).expect("valid nodes"),
        22 => cluster.crash_node(n(2)).expect("crash joins the worker"),
        30 => cluster.restart_node(n(2)).expect("restart respawns it"),
        _ => {}
    });

    cluster.heal_all();
    match cluster.restart_node(n(2)) {
        // the node usually came back at op 30 and is simply still running
        Ok(()) | Err(RuntimeError::NotDead(_)) => {}
        Err(other) => panic!("quiesce restart: {other}"),
    }
    // every lease expires, the ones orphaned by dropped end-requests or the
    // crash included: the ticks that fall due as the clock advances sweep them
    cluster.advance_clock(2 * LEASE_MS);
    let finals = client_checks(&cluster, &driven);
    checked(seed, &cluster, driven.errors, finals)
}

/// What every replay's cluster has in common: four nodes under transient
/// placement, `plan`'s faults, a manual clock, tracing on and `sabotage`.
fn replay_builder(plan: FaultPlan, sabotage: Option<Sabotage>) -> ClusterBuilder {
    let builder = Cluster::builder()
        .nodes(NODES)
        .policy(PolicyKind::TransientPlacement)
        .faults(plan)
        .call_timeout(Duration::from_millis(100))
        .invoke_retries(2)
        .lease_ms(LEASE_MS)
        .manual_clock()
        .trace();
    match sabotage {
        Some(sabotage) => builder.sabotage(sabotage),
        None => builder,
    }
}

/// Builds the cluster and teaches it the [`Counter`] type.
fn replay_cluster(builder: ClusterBuilder) -> Cluster {
    let cluster = builder.build();
    cluster.register_type(COUNTER, delinearize_counter);
    cluster
}

/// The client's side of a chaos schedule.
struct Driven {
    /// The counters it drove, in creation order.
    objects: Vec<ObjectId>,
    /// The adds the cluster acknowledged.
    acked: u64,
    /// Each call the schedule's faults refused: op index, call, error.
    errors: Vec<(u64, &'static str, RuntimeError)>,
}

/// The workload under every chaos schedule: three counters, one each on
/// nodes 0–2, taking `OPS` adds in turn with a move block every third op;
/// `scripted(i)` runs the schedule's own event before op `i`.
///
/// # Panics
///
/// Panics if an add fails with anything but a timeout — or, with
/// `fail_fast` (a detector is on), a `NodeDown`: that is a harness bug, not
/// a protocol violation.
fn drive_ops(cluster: &Cluster, fail_fast: bool, scripted: impl Fn(u64)) -> Driven {
    let objects: Vec<ObjectId> = (0..3)
        .map(|i| {
            cluster
                .create(n(i), Box::new(Counter(0)))
                .expect("creation is on the reliable channel")
        })
        .collect();
    let mut driven = Driven {
        objects,
        acked: 0,
        errors: Vec::new(),
    };
    for i in 0..OPS {
        let obj = driven.objects[(i % 3) as usize];
        scripted(i);
        if i % 3 == 0 {
            match cluster.move_block(obj, n((i % u64::from(NODES)) as u32)) {
                Ok(guard) => drop(guard),
                Err(e) => driven.errors.push((i, "move", e)),
            }
        }
        match cluster.invoke(obj, "add", &WireWriter::new().u64(1).finish()) {
            Ok(_) => driven.acked += 1,
            Err(e @ RuntimeError::Timeout { .. }) => driven.errors.push((i, "add", e)),
            Err(e @ RuntimeError::NodeDown(_)) if fail_fast => driven.errors.push((i, "add", e)),
            Err(other) => panic!("op {i}: unexpected error {other}"),
        }
    }
    driven
}

/// `obj`'s value, read with retries through any residual scheduled loss;
/// `None` when it does not answer.
fn read(cluster: &Cluster, obj: ObjectId) -> Option<u64> {
    let out = (0..5).find_map(|_| cluster.invoke(obj, "get", &[]).ok())?;
    Some(WireReader::new(&out).u64().expect("counter payload"))
}

/// What the client of a quiesced chaos run must see: no placement lock
/// outlived its lease, every object lives on exactly one node and answers,
/// the values cover every acknowledged add (at-least-once), and the
/// counters and the surfaced errors tell one story. Gives the values.
fn client_checks(cluster: &Cluster, driven: &Driven) -> Vec<u64> {
    assert_eq!(cluster.held_locks(), vec![], "locks must not leak");
    let objects = driven.objects.len();
    assert_eq!(cluster.placement_snapshot().len(), objects);
    assert_eq!(
        cluster.occupancy().iter().sum::<usize>(),
        objects,
        "every object lives on exactly one node"
    );
    let finals: Vec<u64> = (driven.objects.iter())
        .map(|&obj| read(cluster, obj).expect("object must stay reachable after healing"))
        .collect();
    assert!(
        finals.iter().sum::<u64>() >= driven.acked,
        "acknowledged adds {} exceed surviving state {finals:?}",
        driven.acked
    );
    let stats = cluster.stats();
    assert!(stats.invocations >= driven.acked);
    assert_eq!(
        stats.timeouts > 0,
        !driven.errors.is_empty() || stats.retries > 0,
        "timeouts, retries and surfaced errors must tell one story"
    );
    finals
}

/// Stops the cluster and checks what it traced.
fn checked(
    seed: u64,
    cluster: &Cluster,
    errors: Vec<(u64, &'static str, RuntimeError)>,
    finals: Vec<u64>,
) -> CheckOutcome {
    cluster.shutdown();
    let trace = cluster.take_trace();
    CheckOutcome {
        seed,
        report: check_trace(&trace),
        digest: trace_digest(&trace),
        trace,
        stats: cluster.stats(),
        errors,
        finals,
    }
}

/// Heartbeat interval of the recovery replays (`repro check --recovery`).
pub(crate) const RECOVERY_HEARTBEAT_MS: u64 = 50;
/// Missed-beat threshold of the recovery replays.
pub(crate) const RECOVERY_K_MISSED: u32 = 3;
/// Past this many clock-milliseconds of silence the next sweep must declare
/// a crashed node dead.
pub(crate) const RECOVERY_DETECTION_MS: u64 = RECOVERY_HEARTBEAT_MS * RECOVERY_K_MISSED as u64 + 50;

/// Where each object lives and what it answers.
fn client_view(cluster: &Cluster) -> Vec<(ObjectId, NodeId, Option<u64>)> {
    let placed = cluster.placement_snapshot().into_iter();
    placed
        .map(|(obj, at)| (obj, at, read(cluster, obj)))
        .collect()
}

/// Restarts `node` — `NotDead` when its current incarnation already runs —
/// and checks that the detector admitted it back, a restart (a fenced
/// zombie's included) being done when it returns, and that it took back no
/// object the cluster had reinstantiated elsewhere. (What the objects
/// answer may change: an add that timed out at the node before it died
/// runs when it comes back, as at-least-once allows.)
fn rejoin(cluster: &Cluster, node: NodeId) {
    let placed = cluster.placement_snapshot();
    match cluster.restart_node(node) {
        Ok(()) | Err(RuntimeError::NotDead(_)) => {}
        Err(other) => panic!("restart {node}: {other}"),
    }
    assert_eq!(cluster.node_health(node), Some(NodeHealth::Up), "{node}");
    let moved = "rejoined over a reinstantiated object";
    assert_eq!(cluster.placement_snapshot(), placed, "{node} {moved}");
}

/// Replays the recovery chaos schedule under `seed` with the failure
/// detector (and epoch fencing) enabled.
///
/// The schedule layers the recovery machinery over a lossy link: a
/// partition that drives (revocable) suspicion, a crash that the detector
/// converts into death and checkpoint reinstantiation, a scripted **zombie
/// restart** under the stale incarnation that fencing must neutralize (the
/// node stays dead, nothing moves), and an honest restart that rejoins
/// under a fresh epoch and hosts again. Under [`Sabotage::Unfenced`] the
/// zombie double-installs instead, and its state keeps the node's slot.
///
/// # Panics
///
/// Panics if a fenced zombie or a rejoining node changes what the client
/// sees, or if the runtime surfaces an error this schedule cannot produce
/// (anything but a timeout or a fail-fast `NodeDown`).
#[must_use]
pub fn replay_recovery(seed: u64, sabotage: Option<Sabotage>) -> CheckOutcome {
    let fenced = sabotage != Some(Sabotage::Unfenced);
    let plan = FaultPlan::seeded(seed)
        .drop_probability(0.05)
        .delay_probability(0.05, 2);
    let builder =
        replay_builder(plan, sabotage).failure_detector(RECOVERY_HEARTBEAT_MS, RECOVERY_K_MISSED);
    let cluster = replay_cluster(builder);
    let fail_fast = true;
    let driven = drive_ops(&cluster, fail_fast, |i| {
        match i {
            // a partition drives suspicion (and fail-fast), then heals: the
            // suspicion must be revoked, not escalated to death
            8 => {
                cluster.partition(n(0), n(1)).expect("valid nodes");
                cluster.detector_sweep();
            }
            14 => {
                cluster.heal(n(0), n(1)).expect("valid nodes");
                cluster.detector_sweep();
            }
            // a real crash: the next sweep after the detection window
            // declares death and reinstantiates the stranded objects
            16 => cluster.crash_node(n(2)).expect("crash joins the worker"),
            18 => {
                cluster.advance_clock(RECOVERY_DETECTION_MS);
                cluster.detector_sweep();
                assert_eq!(cluster.node_health(n(2)), Some(NodeHealth::Dead));
                let placed = cluster.placement_snapshot();
                assert!(placed.iter().all(|&(_, at)| at != n(2)), "{placed:?}");
            }
            // the zombie restart: under fencing it must change nothing
            24 => {
                let before = client_view(&cluster);
                let zombie = cluster.zombie_restart_node(n(2));
                zombie.expect("zombie respawns under the stale epoch");
                if fenced {
                    let health = cluster.node_health(n(2));
                    assert_eq!(health, Some(NodeHealth::Dead), "a zombie came back to life");
                    assert_eq!(client_view(&cluster), before, "a fenced zombie acted");
                }
            }
            // the honest restart rejoins under a fresh epoch — only
            // meaningful when fencing dropped the zombie's state; an
            // unfenced zombie's state keeps the node's slot
            30 if fenced => rejoin(&cluster, n(2)),
            _ => {}
        }
    });

    cluster.heal_all();
    let fresh = fenced.then(|| {
        rejoin(&cluster, n(2));
        let fresh = cluster.create(n(2), Box::new(Counter(1)));
        fresh.expect("the rejoined node hosts again")
    });
    cluster.advance_clock(2 * LEASE_MS);
    // every object answers, the rejoined node's new one included; what an
    // object holds is its last checkpoint's value plus what followed, so
    // the values are compared run against run, not against the adds
    let mut finals = Vec::new();
    if let Some(fresh) = fresh {
        finals = (driven.objects.iter().chain([&fresh]))
            .map(|&obj| read(&cluster, obj).expect("every object answers"))
            .collect();
        assert_eq!(finals.last(), Some(&1), "the rejoined node's new object");
    }
    checked(seed, &cluster, driven.errors, finals)
}

/// Asserts `pred` of `obj`'s checkpoint health. A manual-clock cluster
/// runs every message on its caller's thread, so the quorum of acks a
/// refresh collects has landed once the call that sent it returned.
fn assert_health(
    cluster: &Cluster,
    obj: ObjectId,
    pred: impl Fn(&oml_runtime::CheckpointHealth) -> bool,
) {
    let health = cluster.checkpoint_health();
    let met = health.iter().any(|h| h.object == obj && pred(h));
    assert!(met, "{obj} health short of its quorum: {health:?}");
}

/// The freshest write of `obj` known to have reached its quorum.
fn quorum_of(cluster: &Cluster, obj: ObjectId) -> Option<(u64, u64)> {
    let health = cluster.checkpoint_health();
    health
        .iter()
        .find(|h| h.object == obj)
        .and_then(|h| h.quorum)
}

/// Builds the replicated-checkpoint durability cluster: 4 nodes, `k`
/// replicas, detector + manual clock, tracing on, with duplicated
/// checkpoint traffic (seeded) so the ack-dedup path is exercised on every
/// replay, and `sabotage`.
fn durability_cluster(seed: u64, k: usize, sabotage: Option<Sabotage>) -> Cluster {
    let plan = FaultPlan::seeded(seed).checkpoint_faults(0.0, 0.5);
    let builder = replay_builder(plan, sabotage)
        .failure_detector(RECOVERY_HEARTBEAT_MS, RECOVERY_K_MISSED)
        .replication(k);
    replay_cluster(builder)
}

/// The opening of every durability trial, on a 4-node cluster with `k ≤ 3`
/// replicas: a `Counter(7)` created at node 0 is hosted *off* its replica
/// set (so a host crash never doubles as a replica crash), takes an
/// acknowledged `add 5`, and ends a block — a consistency point whose
/// refresh, carrying 12, reaches its write quorum before this returns.
/// Gives the object, its replica set and its host.
pub(crate) fn quorum_acked_counter(cluster: &Cluster) -> (ObjectId, Vec<NodeId>, NodeId) {
    let obj = cluster
        .create(n(0), Box::new(Counter(7)))
        .expect("creation is on the reliable channel");
    let set = cluster.replica_set(obj).expect("replicated object");
    let host = (0..NODES)
        .map(n)
        .find(|cand| !set.contains(cand))
        .expect("a node outside the replica set");
    drop(cluster.move_block(obj, host).expect("move to host"));
    let before = quorum_of(cluster, obj);
    cluster
        .invoke(obj, "add", &WireWriter::new().u64(5).finish())
        .expect("acknowledged add");
    drop(cluster.move_block(obj, host).expect("consistency point"));
    assert_health(cluster, obj, |h| h.quorum > before);
    (obj, set, host)
}

/// Crashes `victims` inside one detector sweep, then asks `obj` for its
/// value; `None` when it does not answer — the object is lost. The sweep
/// reinstantiated what it could on this thread before it returned.
pub(crate) fn value_after_crashes(
    cluster: &Cluster,
    obj: ObjectId,
    victims: &[NodeId],
) -> Option<u64> {
    for &victim in victims {
        cluster.crash_node(victim).expect("crash joins the worker");
    }
    cluster.advance_clock(RECOVERY_DETECTION_MS);
    cluster.detector_sweep();
    let out = cluster.invoke(obj, "get", &[]).ok()?;
    Some(WireReader::new(&out).u64().expect("counter payload"))
}

/// Replays the durability schedule under `seed`: an object is hosted off
/// its replica set, refreshed to a write quorum, and then its host and its
/// home (the old single checkpoint holder) die in the same detector sweep.
/// With `k = 2` the second replica promotes its quorum-acked copy.
///
/// # Panics
///
/// Panics if the object does not survive the correlated failure with its
/// quorum-acked value (it must, with `k = 2`), or if the runtime surfaces
/// an error the schedule cannot produce.
#[must_use]
pub fn replay_durability(seed: u64) -> CheckOutcome {
    let cluster = durability_cluster(seed, 2, None);
    let (obj, _, host) = quorum_acked_counter(&cluster);
    let value = value_after_crashes(&cluster, obj, &[host, n(0)]);
    assert_eq!(
        value,
        Some(12),
        "k=2 must survive a host+home double crash with the quorum-acked value"
    );
    checked(seed, &cluster, Vec::new(), vec![12])
}

/// Replays the repair schedule under `seed`: with `k = 2`, an object takes
/// an add between two blocks at its home — refreshes whose checkpoint
/// traffic the seed duplicates — then its second replica dies while the
/// object stays live there, and the detector sweep that declares the death
/// re-replicates the object onto a surviving node. Under
/// [`Sabotage::NoRepair`] the deficit persists to the end of the trace.
///
/// # Panics
///
/// Panics if the replica count is not what the sweep must leave (two, or
/// one under `NoRepair`), or if the runtime surfaces an error the schedule
/// cannot produce.
fn replay_repair(seed: u64, sabotage: Option<Sabotage>) -> CheckOutcome {
    let cluster = durability_cluster(seed, 2, sabotage);
    let obj = cluster
        .create(n(0), Box::new(Counter(7)))
        .expect("creation is on the reliable channel");
    drop(cluster.move_block(obj, n(0)).expect("consistency point"));
    assert_health(&cluster, obj, |h| h.quorum >= Some((0, 1)));
    let add = WireWriter::new().u64(5).finish();
    cluster.invoke(obj, "add", &add).expect("acknowledged add");
    drop(cluster.move_block(obj, n(0)).expect("consistency point"));
    assert_health(&cluster, obj, |h| h.quorum >= Some((0, 2)));
    let second = cluster.replica_set(obj).expect("replicated object")[1];
    let value = value_after_crashes(&cluster, obj, &[second]);
    assert_eq!(value, Some(12), "the object stays live at its home");
    if sabotage == Some(Sabotage::NoRepair) {
        assert_health(&cluster, obj, |h| h.replicas == 1);
    } else {
        assert_health(&cluster, obj, |h| h.replicas == 2);
        assert!(cluster.stats().repairs >= 1, "the sweep repaired nothing");
        let healed = cluster.replica_set(obj).expect("replicated object");
        assert!(!healed.contains(&second), "the dead node left the set");
    }
    checked(seed, &cluster, Vec::new(), vec![12])
}

/// Replays the promotion schedule under `seed`: with `k = 3`, a partition
/// makes the last replica miss the post-add refresh, so the surviving
/// replicas disagree — one holds the quorum-acked 12, the other the stale 7
/// — when the host+home dies. Promotion must pick the freshest survivor;
/// under [`Sabotage::StalePromotion`] it picks the stalest and the
/// quorum-acked write is lost.
///
/// # Panics
///
/// Panics if the recovered object does not answer with the value its
/// promotion rule implies (12, or 7 under `StalePromotion`), or if the
/// runtime surfaces an error the schedule cannot produce.
fn replay_promotion(seed: u64, sabotage: Option<Sabotage>) -> CheckOutcome {
    let cluster = durability_cluster(seed, 3, sabotage);
    let obj = cluster
        .create(n(0), Box::new(Counter(7)))
        .expect("creation is on the reliable channel");
    let set = cluster.replica_set(obj).expect("replicated object");
    drop(cluster.move_block(obj, n(0)).expect("consistency point"));
    assert_health(&cluster, obj, |h| h.quorum >= Some((0, 1)));

    // the last replica misses the post-add refresh behind a partition,
    // while the quorum (host's own store plus the middle replica) carries it
    cluster.partition(n(0), set[2]).expect("valid nodes");
    let out = cluster
        .invoke(obj, "add", &WireWriter::new().u64(5).finish())
        .expect("acknowledged add");
    assert_eq!(WireReader::new(&out).u64(), Ok(12));
    drop(cluster.move_block(obj, n(0)).expect("consistency point"));
    assert_health(&cluster, obj, |h| h.quorum >= Some((0, 2)));

    // healed, the last replica stays stale: nothing refreshes it before the
    // host+home dies
    cluster.heal_all();
    let value = value_after_crashes(&cluster, obj, &[n(0)]).expect("a survivor was promoted");
    let promoted = if sabotage == Some(Sabotage::StalePromotion) {
        7 // the stale copy won
    } else {
        12 // the quorum-acked write survives
    };
    assert_eq!(value, promoted);
    checked(seed, &cluster, Vec::new(), vec![value])
}

/// A scenario replayed under one [`Sabotage`], whose trace the checker
/// must flag; the same scenario without it must read clean.
pub struct NegativeControl {
    /// What `repro check` calls it.
    pub name: &'static str,
    /// The `repro check` flag whose schedules it rides along with.
    pub gate: &'static str,
    /// The scenario it replays…
    pub scenario: fn(u64, Option<Sabotage>) -> CheckOutcome,
    /// …with this one mechanism broken.
    pub sabotage: Sabotage,
    /// The invariant the rigged replay must trip, as `repro check` names it.
    pub invariant: &'static str,
}

impl NegativeControl {
    /// Whether `report` holds a violation of the invariant this control's
    /// sabotage breaks.
    #[must_use]
    pub fn caught(&self, report: &CheckReport) -> bool {
        (report.violations.iter()).any(|v| match self.sabotage {
            Sabotage::Unfenced => matches!(v, Violation::StaleIncarnation { .. }),
            Sabotage::NoRepair => matches!(v, Violation::ReplicationFactorViolation { .. }),
            Sabotage::StalePromotion => matches!(v, Violation::StaleReplicaPromoted { .. }),
        })
    }
}

/// Every negative control, in the order `repro check --negative` replays
/// them.
pub const NEGATIVE_CONTROLS: &[NegativeControl] = &[
    NegativeControl {
        name: "unfenced zombie",
        gate: "--recovery",
        scenario: replay_recovery,
        sabotage: Sabotage::Unfenced,
        invariant: "stale incarnation",
    },
    NegativeControl {
        name: "no-repair",
        gate: "--durability",
        scenario: replay_repair,
        sabotage: Sabotage::NoRepair,
        invariant: "replication factor",
    },
    NegativeControl {
        name: "stale-promotion",
        gate: "--durability",
        scenario: replay_promotion,
        sabotage: Sabotage::StalePromotion,
        invariant: "stale replica promoted",
    },
];
