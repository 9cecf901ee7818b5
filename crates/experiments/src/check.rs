//! The `repro check` driver: replay the seeded chaos schedules from the
//! runtime's chaos harness with protocol tracing enabled, feed every
//! collected trace to `oml-check`. A debug build also arms the runtime's
//! lock-nesting trap, which aborts the run at any lock taken under another.
//!
//! This is the executable face of the checker — CI (and anyone debugging a
//! protocol change) runs `repro check --seeds chaos` and gets either "all
//! invariants hold" or a named violation with the offending seed.

use std::time::Duration;

use oml_check::explore::trace_digest;
use oml_check::{check_trace, CheckReport};
use oml_core::ids::{NodeId, ObjectId};
use oml_core::policy::PolicyKind;
use oml_runtime::wire::{WireReader, WireWriter};
use oml_runtime::{Cluster, ClusterBuilder, FaultPlan, RuntimeError, Sabotage};

use crate::experiments::{delinearize_counter, Counter, COUNTER};

/// The chaos seeds `repro check --seeds chaos` replays: the canonical
/// chaos-harness seed plus the two divergence seeds from its replay tests.
pub const CHAOS_SEEDS: &[u64] = &[0xC0A5, 1, 2];

const NODES: u32 = 4;
const LEASE_MS: u64 = 1_000;
const OPS: u64 = 40;

/// What one traced chaos replay produced.
#[derive(Debug)]
pub struct CheckOutcome {
    /// The fault-schedule seed this replay ran under.
    pub seed: u64,
    /// The checker's verdict over the collected trace.
    pub report: CheckReport,
    /// [`trace_digest`] of the collected trace: under the manual clock one
    /// seed gives one digest, run after run.
    pub digest: u64,
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Replays the chaos-harness fault schedule under `seed` with tracing
/// enabled and returns the checker's verdict on the collected trace.
///
/// The schedule matches `chaos_runtime.rs`: drops, duplicates, delays and
/// lost end-requests over three objects on four nodes, a node-pair
/// partition (healed later) and one crash/restart cycle, then a quiesce
/// phase that lets every orphaned lease expire.
///
/// # Panics
///
/// Panics if the runtime surfaces an error the chaos schedule cannot
/// produce (anything but a timeout) — that is a harness bug, not a
/// protocol violation.
#[must_use]
pub fn replay_chaos_seed(seed: u64) -> CheckOutcome {
    let plan = FaultPlan::seeded(seed)
        .drop_probability(0.08)
        .duplicate_probability(0.05)
        .delay_probability(0.10, 3)
        .drop_end_requests(0.5);
    let cluster = replay_cluster(replay_builder(plan));
    let fail_fast = false; // no detector: a call at a dead node times out
    drive_ops(&cluster, fail_fast, |i| match i {
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
    quiesced(seed, &cluster)
}

/// What every replay's cluster has in common: four nodes under transient
/// placement, `plan`'s faults, a manual clock and tracing on.
fn replay_builder(plan: FaultPlan) -> ClusterBuilder {
    Cluster::builder()
        .nodes(NODES)
        .policy(PolicyKind::TransientPlacement)
        .faults(plan)
        .call_timeout(Duration::from_millis(100))
        .invoke_retries(2)
        .lease_ms(LEASE_MS)
        .manual_clock()
        .trace()
}

/// Builds the cluster and teaches it the [`Counter`] type.
fn replay_cluster(builder: ClusterBuilder) -> Cluster {
    let cluster = builder.build();
    cluster.register_type(COUNTER, delinearize_counter);
    cluster
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
fn drive_ops(cluster: &Cluster, fail_fast: bool, scripted: impl Fn(u64)) {
    let objects: Vec<ObjectId> = (0..3)
        .map(|i| {
            cluster
                .create(n(i), Box::new(Counter(0)))
                .expect("creation is on the reliable channel")
        })
        .collect();
    for i in 0..OPS {
        let obj = objects[(i % 3) as usize];
        scripted(i);
        if i % 3 == 0 {
            if let Ok(guard) = cluster.move_block(obj, n((i % u64::from(NODES)) as u32)) {
                drop(guard);
            }
        }
        match cluster.invoke(obj, "add", &WireWriter::new().u64(1).finish()) {
            Ok(_) | Err(RuntimeError::Timeout { .. }) => {}
            Err(RuntimeError::NodeDown(_)) if fail_fast => {}
            Err(other) => panic!("op {i}: unexpected error {other}"),
        }
    }
}

/// Lets every orphaned lease expire so the trace ends in a
/// protocol-consistent state, stops the (healed) cluster and checks what
/// it traced.
fn quiesced(seed: u64, cluster: &Cluster) -> CheckOutcome {
    cluster.advance_clock(2 * LEASE_MS);
    checked(seed, cluster)
}

/// Stops the cluster and checks what it traced.
fn checked(seed: u64, cluster: &Cluster) -> CheckOutcome {
    cluster.shutdown();
    let trace = cluster.take_trace();
    CheckOutcome {
        seed,
        report: check_trace(&trace),
        digest: trace_digest(&trace),
    }
}

/// Heartbeat interval of the recovery replays (`repro check --recovery`).
pub(crate) const RECOVERY_HEARTBEAT_MS: u64 = 50;
/// Missed-beat threshold of the recovery replays.
pub(crate) const RECOVERY_K_MISSED: u32 = 3;
/// Past this many clock-milliseconds of silence the next sweep must declare
/// a crashed node dead.
pub(crate) const RECOVERY_DETECTION_MS: u64 = RECOVERY_HEARTBEAT_MS * RECOVERY_K_MISSED as u64 + 50;

/// Restarts `node` — `NotDead` when its current incarnation already runs —
/// and checks that the detector admitted it back: a restart, a fenced
/// zombie's included, is done when it returns.
fn rejoin(cluster: &Cluster, node: NodeId) {
    match cluster.restart_node(node) {
        Ok(()) | Err(RuntimeError::NotDead(_)) => {}
        Err(other) => panic!("restart {node}: {other}"),
    }
    let health = cluster.node_health(node);
    assert_eq!(health, Some(oml_runtime::NodeHealth::Up), "{node} not up");
}

/// Replays the recovery chaos schedule under `seed` with the failure
/// detector (and epoch fencing) enabled, and returns the checker's verdict.
///
/// The schedule layers the recovery machinery over a lossy link: a
/// partition that drives (revocable) suspicion, a crash that the detector
/// converts into death and checkpoint reinstantiation, a scripted **zombie
/// restart** under the stale incarnation that fencing must neutralize, and
/// an honest restart that rejoins under a fresh epoch. The trace must be
/// violation-free — in particular, zero stale-incarnation findings.
///
/// # Panics
///
/// Panics if the runtime surfaces an error this schedule cannot produce
/// (anything but a timeout or a fail-fast `NodeDown`).
#[must_use]
pub fn replay_recovery_seed(seed: u64) -> CheckOutcome {
    run_recovery_schedule(seed, true)
}

/// Negative control for `repro check --recovery`: the same zombie-restart
/// schedule with fencing disabled. The zombie double-installs the
/// reinstantiated object, and the returned report must **not** be clean —
/// proving the stale-incarnation invariant actually bites.
#[must_use]
pub fn replay_zombie_negative(seed: u64) -> CheckOutcome {
    run_recovery_schedule(seed, false)
}

fn run_recovery_schedule(seed: u64, fenced: bool) -> CheckOutcome {
    let plan = FaultPlan::seeded(seed)
        .drop_probability(0.05)
        .delay_probability(0.05, 2);
    let mut builder =
        replay_builder(plan).failure_detector(RECOVERY_HEARTBEAT_MS, RECOVERY_K_MISSED);
    if !fenced {
        builder = builder.sabotage(Sabotage::Unfenced);
    }
    let cluster = replay_cluster(builder);
    let fail_fast = true;
    drive_ops(&cluster, fail_fast, |i| {
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
            }
            // the zombie restart: under fencing it must change nothing
            24 => cluster
                .zombie_restart_node(n(2))
                .expect("zombie respawns under the stale epoch"),
            // the honest restart rejoins under a fresh epoch — only
            // meaningful when fencing dropped the zombie's state; an
            // unfenced zombie's state keeps the node's slot
            30 if fenced => rejoin(&cluster, n(2)),
            _ => {}
        }
    });

    cluster.heal_all();
    if fenced {
        rejoin(&cluster, n(2));
    }
    quiesced(seed, &cluster)
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

/// Builds the replicated-checkpoint durability cluster: 4 nodes, `k = 2`,
/// detector + manual clock, tracing on, with duplicated checkpoint traffic
/// (seeded) so the ack-dedup path is exercised on every replay; the negative
/// controls pass the mechanism to break.
fn durability_cluster(seed: u64, k: usize, sabotage: Option<Sabotage>) -> Cluster {
    let mut builder = replay_builder(FaultPlan::seeded(seed).checkpoint_faults(0.0, 0.5))
        .failure_detector(RECOVERY_HEARTBEAT_MS, RECOVERY_K_MISSED)
        .replication(k);
    if let Some(sabotage) = sabotage {
        builder = builder.sabotage(sabotage);
    }
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
/// With `k = 2` the second replica promotes its quorum-acked copy, and the
/// trace must be violation-free — in particular, zero
/// replication-factor and stale-promotion findings.
///
/// # Panics
///
/// Panics if the object does not survive the correlated failure (it must,
/// with `k = 2`), or if the runtime surfaces an error the schedule cannot
/// produce.
#[must_use]
pub fn replay_durability_seed(seed: u64) -> CheckOutcome {
    let cluster = durability_cluster(seed, 2, None);
    let (obj, _, host) = quorum_acked_counter(&cluster);
    assert_eq!(
        value_after_crashes(&cluster, obj, &[host, n(0)]),
        Some(12),
        "k=2 must survive a host+home double crash with the quorum-acked value"
    );

    checked(seed, &cluster)
}

/// Negative control for `repro check --durability`: with the anti-entropy
/// repair sweep disabled, a declared death leaves an object
/// under-replicated to the end of the trace, and the checker's
/// `ReplicationFactorViolation` invariant must flag it.
///
/// # Panics
///
/// Panics if the runtime surfaces an error the schedule cannot produce.
#[must_use]
pub(crate) fn replay_no_repair_negative(seed: u64) -> CheckOutcome {
    let cluster = durability_cluster(seed, 2, Some(Sabotage::NoRepair));
    let obj = cluster
        .create(n(0), Box::new(Counter(7)))
        .expect("creation is on the reliable channel");
    let second = cluster.replica_set(obj).expect("replicated object")[1];
    cluster.crash_node(second).expect("crash joins the worker");
    cluster.advance_clock(RECOVERY_DETECTION_MS);
    cluster.detector_sweep();
    checked(seed, &cluster)
}

/// Negative control for `repro check --durability`: reinstantiation is
/// rigged to promote the *stalest* surviving replica. A partition makes one
/// replica miss the post-add refresh; when the host+home dies, the rigged
/// promotion discards the surviving quorum-acked write, and the checker's
/// `StaleReplicaPromoted` invariant must flag it.
///
/// # Panics
///
/// Panics if the runtime surfaces an error the schedule cannot produce.
#[must_use]
pub(crate) fn replay_stale_promotion_negative(seed: u64) -> CheckOutcome {
    let cluster = durability_cluster(seed, 3, Some(Sabotage::StalePromotion));
    let obj = cluster
        .create(n(0), Box::new(Counter(7)))
        .expect("creation is on the reliable channel");
    let set = cluster.replica_set(obj).expect("replicated object");
    drop(cluster.move_block(obj, n(0)).expect("consistency point"));
    assert_health(&cluster, obj, |h| h.quorum >= Some((0, 1)));

    // the last replica misses the post-add refresh behind a partition,
    // while the quorum (host's own store plus the middle replica) carries it
    cluster.partition(n(0), set[2]).expect("valid nodes");
    cluster
        .invoke(obj, "add", &WireWriter::new().u64(5).finish())
        .expect("acknowledged add");
    drop(cluster.move_block(obj, n(0)).expect("consistency point"));
    assert_health(&cluster, obj, |h| h.quorum >= Some((0, 2)));

    cluster.crash_node(n(0)).expect("crash joins the worker");
    cluster.advance_clock(RECOVERY_DETECTION_MS);
    cluster.detector_sweep();
    checked(seed, &cluster)
}

/// A rigged replay whose trace the checker must flag.
pub struct NegativeControl {
    /// What `repro check` calls it.
    pub name: &'static str,
    /// The invariant it must trip, as `repro check` names it.
    pub invariant: &'static str,
    /// The `repro check` flag whose schedules it rides along with.
    pub gate: &'static str,
    /// Replays it under a fault-schedule seed.
    pub run: fn(u64) -> CheckOutcome,
}

/// Every negative control, in the order `repro check --negative` replays
/// them.
pub const NEGATIVE_CONTROLS: &[NegativeControl] = &[
    NegativeControl {
        name: "unfenced zombie",
        invariant: "stale-incarnation",
        gate: "--recovery",
        run: replay_zombie_negative,
    },
    NegativeControl {
        name: "no-repair",
        invariant: "replication-factor",
        gate: "--durability",
        run: replay_no_repair_negative,
    },
    NegativeControl {
        name: "stale-promotion",
        invariant: "freshness",
        gate: "--durability",
        run: replay_stale_promotion_negative,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_chaos_seed_is_clean() {
        let outcome = replay_chaos_seed(0xC0A5);
        assert!(outcome.report.events > 100, "tracing must be on");
        assert!(outcome.report.is_clean(), "{}", outcome.report);
    }

    #[test]
    fn recovery_schedule_is_clean_when_fenced() {
        let outcome = replay_recovery_seed(CHAOS_SEEDS[0]);
        assert!(outcome.report.events > 100, "tracing must be on");
        assert!(outcome.report.is_clean(), "{}", outcome.report);
    }

    #[test]
    fn recovery_schedule_is_flagged_when_unfenced() {
        let outcome = replay_zombie_negative(CHAOS_SEEDS[0]);
        assert!(
            !outcome.report.is_clean(),
            "the unfenced zombie must trip the stale-incarnation invariant"
        );
        let rendered = outcome.report.to_string();
        assert!(
            rendered.contains("stale incarnation"),
            "expected a stale-incarnation violation, got: {rendered}"
        );
    }

    #[test]
    fn durability_schedule_is_clean() {
        let outcome = replay_durability_seed(CHAOS_SEEDS[0]);
        assert!(outcome.report.events > 10, "tracing must be on");
        assert!(outcome.report.is_clean(), "{}", outcome.report);
    }

    #[test]
    fn no_repair_negative_is_flagged() {
        let outcome = replay_no_repair_negative(CHAOS_SEEDS[0]);
        assert!(
            !outcome.report.is_clean(),
            "an unrepaired replica deficit must trip the replication-factor invariant"
        );
        let rendered = outcome.report.to_string();
        assert!(
            rendered.contains("replication factor"),
            "expected a replication-factor violation, got: {rendered}"
        );
    }

    #[test]
    fn stale_promotion_negative_is_flagged() {
        let outcome = replay_stale_promotion_negative(CHAOS_SEEDS[0]);
        assert!(
            !outcome.report.is_clean(),
            "discarding a surviving quorum write must trip the freshness invariant"
        );
        let rendered = outcome.report.to_string();
        assert!(
            rendered.contains("stale replica promoted"),
            "expected a stale-promotion violation, got: {rendered}"
        );
    }

    #[test]
    fn the_table_has_the_controls_repro_check_negative_prints() {
        let rows: Vec<_> = NEGATIVE_CONTROLS
            .iter()
            .map(|c| (c.name, c.invariant, c.gate))
            .collect();
        assert_eq!(
            rows,
            [
                ("unfenced zombie", "stale-incarnation", "--recovery"),
                ("no-repair", "replication-factor", "--durability"),
                ("stale-promotion", "freshness", "--durability"),
            ]
        );
    }
}
