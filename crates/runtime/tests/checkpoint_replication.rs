//! Quorum-replicated checkpoint tests: replica placement and health,
//! correlated host+home failures, ack deduplication under duplicated
//! checkpoint traffic, anti-entropy repair, the negative-testing hooks the
//! `oml-check` replication invariants exist to catch, and an epoch
//! monotonicity property over random crash/restart/declare-dead
//! interleavings.

use std::time::Duration;

use oml_check::{check_trace, EventKind, Violation};
use oml_core::ids::{NodeId, ObjectId};
use oml_core::policy::PolicyKind;
use oml_runtime::wire::{WireReader, WireWriter};
use oml_runtime::{
    Cluster, ClusterBuilder, FaultPlan, FsyncPolicy, MobileObject, RuntimeError, Sabotage,
};
use proptest::prelude::*;

struct Counter(u64);

impl MobileObject for Counter {
    fn type_tag(&self) -> &'static str {
        "counter"
    }
    fn invoke(&mut self, method: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        match method {
            "add" => {
                let mut r = WireReader::new(payload);
                self.0 += r.u64()?;
                Ok(WireWriter::new().u64(self.0).finish().to_vec())
            }
            "get" => Ok(WireWriter::new().u64(self.0).finish().to_vec()),
            other => Err(format!("no such method: {other}")),
        }
    }
    fn linearize(&self) -> Vec<u8> {
        WireWriter::new().u64(self.0).finish().to_vec()
    }
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn register_counter(cluster: &Cluster) {
    cluster.register_type("counter", |bytes| {
        let mut r = WireReader::new(bytes);
        Box::new(Counter(r.u64().expect("valid counter state")))
    });
}

const HEARTBEAT_MS: u64 = 50;
const K_MISSED: u32 = 3;
const DETECTION_MS: u64 = HEARTBEAT_MS * K_MISSED as u64 + HEARTBEAT_MS;

fn builder(nodes: u32) -> ClusterBuilder {
    Cluster::builder()
        .nodes(nodes)
        .policy(PolicyKind::TransientPlacement)
        .call_timeout(Duration::from_millis(200))
        .invoke_retries(1)
        .lease_ms(1_000)
        .manual_clock()
        .failure_detector(HEARTBEAT_MS, K_MISSED)
}

/// Retries `get` until the async reinstantiation install drains.
fn eventual_get(cluster: &Cluster, obj: ObjectId) -> u64 {
    for _ in 0..500 {
        if let Ok(out) = cluster.invoke(obj, "get", &[]) {
            return WireReader::new(&out).u64().expect("counter payload");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("{obj} never became invocable again");
}

/// Polls `checkpoint_health` until `pred` holds for `obj`.
fn await_health(
    cluster: &Cluster,
    obj: ObjectId,
    pred: impl Fn(&oml_runtime::CheckpointHealth) -> bool,
) {
    for _ in 0..500 {
        if cluster
            .checkpoint_health()
            .iter()
            .any(|h| h.object == obj && pred(h))
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!(
        "{obj} health never converged: {:?}",
        cluster.checkpoint_health()
    );
}

/// The freshest write of `obj` known to have reached its quorum.
fn quorum_of(cluster: &Cluster, obj: ObjectId) -> Option<(u64, u64)> {
    let health = cluster.checkpoint_health();
    health
        .iter()
        .find(|h| h.object == obj)
        .and_then(|h| h.quorum)
}

/// A granted-and-ended move block is a consistency point: `handle_end`
/// refreshes the replicated checkpoint with the object's current state.
fn refresh_via_block(cluster: &Cluster, obj: ObjectId, at: NodeId) {
    let guard = cluster.move_block(obj, at).expect("move block");
    assert!(guard.granted());
    drop(guard);
}

// --- satellite: restart_node on a running node ----------------------------

#[test]
fn restarting_a_running_node_is_refused() {
    let cluster = Cluster::builder()
        .nodes(2)
        .policy(PolicyKind::TransientPlacement)
        .build();
    assert_eq!(
        cluster.restart_node(n(1)),
        Err(RuntimeError::NotDead(n(1))),
        "a live worker must not be silently respawned"
    );
    assert_eq!(
        cluster.restart_node(n(7)),
        Err(RuntimeError::UnknownNode(n(7)))
    );
    // a genuinely crashed node still restarts
    cluster.crash_node(n(1)).unwrap();
    cluster.restart_node(n(1)).expect("dead nodes restart");
    cluster.shutdown();
}

// --- satellite: checkpoint health exposure --------------------------------

#[test]
fn checkpoint_health_tracks_replicas_age_and_quorum() {
    let cluster = builder(3).replication(2).build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(7))).unwrap();

    // creation seeds the replica set synchronously: k copies, no quorum yet
    let health = cluster.checkpoint_health();
    assert_eq!(health.len(), 1);
    assert_eq!(health[0].object, obj);
    assert_eq!(health[0].replicas, 2);
    assert_eq!(health[0].quorum, None);

    let set = cluster.replica_set(obj).expect("replicated object");
    assert_eq!(set.len(), 2);
    assert_eq!(set[0], n(0), "placement is home-preferred");

    // age ticks with the (manual) clock until the next refresh
    cluster.advance_clock(500);
    assert!(cluster.checkpoint_health()[0].refresh_age_ms >= 500);

    // an ended block refreshes; the quorum of acks lands asynchronously
    refresh_via_block(&cluster, obj, n(0));
    await_health(&cluster, obj, |h| h.quorum.is_some() && h.replicas == 2);

    let stats = cluster.stats();
    assert!(stats.checkpoint_refreshes >= 1);
    assert!(stats.quorum_refreshes >= 1);
    assert_eq!(stats.quorum_refresh_failures, 0);
    cluster.shutdown();
}

// --- tentpole: correlated host+home failure -------------------------------

/// With `k = 2` an object survives its host and its home (the old single
/// checkpoint holder) dying in the same detector sweep, as long as the host
/// is outside the replica set — the second replica promotes its copy.
#[test]
fn host_and_home_double_crash_survives_with_k2() {
    let cluster = builder(4).replication(2).trace().build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(7))).unwrap();

    let set = cluster.replica_set(obj).expect("replicated object");
    assert_eq!(set[0], n(0));
    let survivor = set[1];
    // host the object away from both replicas
    let host = (0..4)
        .map(n)
        .find(|cand| !set.contains(cand))
        .expect("4 nodes, 2 replicas");
    refresh_via_block(&cluster, obj, host);
    let before = quorum_of(&cluster, obj);

    let out = cluster
        .invoke(obj, "add", &WireWriter::new().u64(5).finish())
        .unwrap();
    assert_eq!(WireReader::new(&out).u64().unwrap(), 12);

    // capture the post-add state in a quorum-acked refresh: with two
    // targets the quorum is both of them, so the survivor holds 12
    refresh_via_block(&cluster, obj, host);
    await_health(&cluster, obj, |h| h.quorum > before);

    // host and home die in the same sweep — the correlated failure that
    // loses the object under the old single-home-checkpoint design
    cluster.crash_node(host).unwrap();
    cluster.crash_node(n(0)).unwrap();
    cluster.advance_clock(DETECTION_MS);
    cluster.detector_sweep();

    assert_eq!(eventual_get(&cluster, obj), 12);
    assert_eq!(cluster.object_epoch(obj), 1);
    assert!(cluster.stats().reinstantiations >= 1);
    let resident = cluster.location_of(obj).expect("recovered somewhere");
    assert!(resident != host && resident != n(0));
    let _ = survivor;

    cluster.shutdown();
    let report = check_trace(&cluster.take_trace());
    assert!(report.is_clean(), "{report}");
}

/// A cluster over a durable store survives its own shutdown: a second
/// cluster on the same directory recovers every node's WAL, each replica at
/// the last quorum-acknowledged version, and starts the object's epoch at
/// the persisted floor rather than at 0.
#[test]
fn a_durable_store_carries_quorum_writes_and_epochs_across_a_cold_restart() {
    let dir = std::env::temp_dir().join(format!("oml-durable-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = || {
        builder(3)
            .replication(2)
            .durable_store(&dir, FsyncPolicy::Always)
    };

    let cluster = durable().build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(7))).unwrap();
    // losing host and home reinstantiates the object under epoch 1
    cluster.crash_node(n(0)).unwrap();
    cluster.advance_clock(DETECTION_MS);
    cluster.detector_sweep();
    assert_eq!(cluster.object_epoch(obj), 1);
    let before = quorum_of(&cluster, obj);
    cluster
        .invoke(obj, "add", &WireWriter::new().u64(5).finish())
        .unwrap();
    refresh_via_block(&cluster, obj, cluster.location_of(obj).unwrap());
    await_health(&cluster, obj, |h| h.quorum > before);
    let acked = quorum_of(&cluster, obj).unwrap();
    assert_eq!(acked.0, 1);
    let replicas = cluster.replica_set(obj).unwrap();
    cluster.shutdown();

    let restarted = durable().trace().build();
    let recovered: Vec<_> = restarted
        .take_trace()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::ColdRecovered {
                node, recovered, ..
            } => Some((node, recovered)),
            _ => None,
        })
        .collect();
    assert_eq!(
        recovered.len(),
        3,
        "one ColdRecovered per node: {recovered:?}"
    );
    for replica in replicas {
        let (_, objects) = (recovered.iter())
            .find(|(node, _)| *node == replica.as_u32())
            .unwrap();
        assert!(
            objects.contains(&(obj, acked.0, acked.1)),
            "{replica} recovered {objects:?}, not {obj} at {acked:?}"
        );
    }
    assert_eq!(restarted.object_epoch(obj), 1);
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `k = 1` reproduces the old behaviour — and demonstrably loses the object
/// when host and home die together, because the home held the only copy.
#[test]
fn k1_loses_the_object_on_host_home_double_crash() {
    let cluster = builder(4).replication(1).build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(7))).unwrap();
    assert_eq!(cluster.replica_set(obj).unwrap(), vec![n(0)]);

    refresh_via_block(&cluster, obj, n(2)); // host off the replica set
    cluster.crash_node(n(2)).unwrap();
    cluster.crash_node(n(0)).unwrap();
    cluster.advance_clock(DETECTION_MS);
    cluster.detector_sweep();

    // every copy died with the home: nothing could be reinstantiated
    assert_eq!(cluster.stats().reinstantiations, 0);
    assert!(
        cluster.invoke(obj, "get", &[]).is_err(),
        "the object should be unreachable — its only checkpoint is gone"
    );
    cluster.shutdown();
}

/// With `k = 3`, killing all but one member of the replica set (host and
/// home included) still recovers the object from the last survivor.
#[test]
fn replica_set_minus_one_survives_with_k3() {
    let cluster = builder(4).replication(3).trace().build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(7))).unwrap();

    let set = cluster.replica_set(obj).expect("replicated object");
    assert_eq!(set.len(), 3);
    let out = cluster
        .invoke(obj, "add", &WireWriter::new().u64(5).finish())
        .unwrap();
    assert_eq!(WireReader::new(&out).u64().unwrap(), 12);
    refresh_via_block(&cluster, obj, n(0));
    await_health(&cluster, obj, |h| h.quorum.is_some());

    // kill the host/home and one more replica: one replica remains
    cluster.crash_node(set[0]).unwrap();
    cluster.crash_node(set[1]).unwrap();
    cluster.advance_clock(DETECTION_MS);
    cluster.detector_sweep();

    // the object survives; its value is the survivor's copy, which the
    // quorum rule only guarantees up to the lost-update window
    let value = eventual_get(&cluster, obj);
    assert!(
        value == 12 || value == 7,
        "recovered a phantom value {value}"
    );
    assert_eq!(cluster.object_epoch(obj), 1);

    cluster.shutdown();
    let report = check_trace(&cluster.take_trace());
    assert!(report.is_clean(), "{report}");
}

// --- satellite: anti-entropy repair ---------------------------------------

#[test]
fn repair_sweep_restores_the_replication_factor() {
    let cluster = builder(3).replication(2).trace().build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(7))).unwrap();
    let set = cluster.replica_set(obj).unwrap();
    let second = set[1];

    // the second replica dies; the object itself stays live at its home
    cluster.crash_node(second).unwrap();
    cluster.advance_clock(DETECTION_MS);
    cluster.detector_sweep();

    // the sweep's anti-entropy pass re-replicates onto the remaining node
    await_health(&cluster, obj, |h| h.replicas == 2);
    assert!(cluster.stats().repairs >= 1);
    let healed = cluster.replica_set(obj).unwrap();
    assert!(!healed.contains(&second), "the dead node left the set");

    cluster.shutdown();
    let report = check_trace(&cluster.take_trace());
    assert!(report.is_clean(), "{report}");
}

/// Negative control: with repair disabled the deficit persists, and the
/// checker's `ReplicationFactorViolation` invariant catches it.
#[test]
fn no_repair_deficit_is_flagged_by_the_checker() {
    let cluster = builder(3)
        .replication(2)
        .sabotage(Sabotage::NoRepair)
        .trace()
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(7))).unwrap();
    let second = cluster.replica_set(obj).unwrap()[1];

    cluster.crash_node(second).unwrap();
    cluster.advance_clock(DETECTION_MS);
    cluster.detector_sweep();

    assert_eq!(cluster.checkpoint_health()[0].replicas, 1);
    cluster.shutdown();
    let report = check_trace(&cluster.take_trace());
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReplicationFactorViolation { .. })),
        "an unrepaired deficit must be flagged: {report}"
    );
}

// --- freshness: quorum rule vs. promotion ---------------------------------

/// Builds the divergence scenario: n2 misses the post-add refresh behind a
/// partition, so the surviving replicas disagree — n1 holds the
/// quorum-acked 12, n2 the stale 7 — and then the host+home n0 dies.
fn diverged_cluster(stale_promotion: bool) -> (Cluster, ObjectId) {
    let mut b = builder(3).replication(3).trace();
    if stale_promotion {
        b = b.sabotage(Sabotage::StalePromotion);
    }
    let cluster = b.build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(7))).unwrap();
    refresh_via_block(&cluster, obj, n(0));
    await_health(&cluster, obj, |h| h.quorum >= Some((0, 1)));

    cluster.partition(n(0), n(2)).unwrap();
    let out = cluster
        .invoke(obj, "add", &WireWriter::new().u64(5).finish())
        .unwrap();
    assert_eq!(WireReader::new(&out).u64().unwrap(), 12);
    // quorum is 2 of 3: the host's own store plus n1 carry it even though
    // n2's copy silently drowned in the partition
    refresh_via_block(&cluster, obj, n(0));
    await_health(&cluster, obj, |h| h.quorum >= Some((0, 2)));

    cluster.crash_node(n(0)).unwrap();
    cluster.advance_clock(DETECTION_MS);
    cluster.detector_sweep();
    (cluster, obj)
}

#[test]
fn promotion_prefers_the_freshest_surviving_replica() {
    let (cluster, obj) = diverged_cluster(false);
    assert_eq!(
        eventual_get(&cluster, obj),
        12,
        "the quorum-acked write survives"
    );
    cluster.shutdown();
    let report = check_trace(&cluster.take_trace());
    assert!(report.is_clean(), "{report}");
}

/// Negative control: promoting the stalest survivor loses the quorum-acked
/// write, and the checker's `StaleReplicaPromoted` invariant catches it.
#[test]
fn stale_promotion_is_flagged_by_the_checker() {
    let (cluster, obj) = diverged_cluster(true);
    assert_eq!(eventual_get(&cluster, obj), 7, "the stale copy won");
    cluster.shutdown();
    let report = check_trace(&cluster.take_trace());
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::StaleReplicaPromoted { .. })),
        "a lost quorum-acked write must be flagged: {report}"
    );
}

// --- satellite: ack dedupe under duplicated checkpoint traffic ------------

/// A root with seven helpers attached, all created at node 0.
fn closure_of_8(cluster: &Cluster) -> Vec<ObjectId> {
    register_counter(cluster);
    let set: Vec<ObjectId> = (0..8)
        .map(|_| cluster.create(n(0), Box::new(Counter(7))).unwrap())
        .collect();
    for &helper in &set[1..] {
        cluster.attach(helper, set[0], None).unwrap();
    }
    set
}

#[test]
fn duplicated_checkpoint_traffic_is_deduplicated() {
    let cluster = builder(3)
        .replication(3)
        .faults(FaultPlan::seeded(0xD17).checkpoint_faults(0.0, 1.0))
        .trace()
        .build();
    let set = closure_of_8(&cluster);

    // two moves of the whole closure, every put and ack — each carrying
    // all eight members — delivered twice. Every member is written before
    // each move and the root before each end, so every refresh carries a
    // new state and none is skipped as already held. Each write's full
    // (duplicated) ack set drains before the next one supersedes it: the
    // install's before the block ends, the end's (the root alone) before
    // the next move.
    let add = |obj| {
        let one = WireWriter::new().u64(1).finish();
        cluster.invoke(obj, "add", &one).expect("add");
    };
    for (round, to) in [(1, n(1)), (2, n(2))] {
        set.iter().for_each(|&member| add(member));
        let guard = cluster.move_block(set[0], to).expect("move block");
        assert!(guard.granted());
        await_health(&cluster, set[0], |h| h.quorum >= Some((0, 2 * round - 1)));
        for &helper in &set[1..] {
            await_health(&cluster, helper, |h| h.quorum >= Some((0, round)));
        }
        add(set[0]);
        drop(guard);
        await_health(&cluster, set[0], |h| h.quorum >= Some((0, 2 * round)));
    }

    cluster.shutdown();
    let trace = cluster.take_trace();

    // each (object, epoch, seq, replica) ack is counted at most once, and
    // a duplicated put (same version) is never re-applied by a store
    let mut acks = std::collections::HashSet::new();
    let mut stores = std::collections::HashSet::new();
    for ev in &trace {
        match &ev.kind {
            EventKind::CheckpointAcked {
                object,
                object_epoch,
                seq,
                replica,
                ..
            } => assert!(
                acks.insert((*object, *object_epoch, *seq, *replica)),
                "double-counted ack from {replica}"
            ),
            EventKind::CheckpointStored {
                object,
                replica,
                object_epoch,
                seq,
            } => assert!(
                stores.insert((*object, *replica, *object_epoch, *seq)),
                "duplicated put re-applied at {replica}"
            ),
            _ => {}
        }
    }
    // every write of every member — two installs each, plus the root's two
    // ends — collected its quorum of two (a third ack after it is ignored)
    let mut per_write = std::collections::HashMap::new();
    for (object, object_epoch, seq, _) in &acks {
        *per_write.entry((*object, *object_epoch, *seq)).or_insert(0) += 1;
    }
    assert_eq!(per_write.len(), 2 * 8 + 2);
    assert!(per_write.values().all(|&acked| acked >= 2), "{per_write:?}");
    assert_eq!(cluster.stats().quorum_refresh_failures, 0);
    let report = check_trace(&trace);
    assert!(report.is_clean(), "{report}");
}

/// A dropped put is the loss of a closure's copy at one replica: every
/// member stays stale there, together, until one repair sweep re-sends
/// them (repair traffic is client-originated and reliable).
#[test]
fn a_dropped_put_leaves_the_whole_closure_stale_until_repair() {
    let cluster = builder(3)
        .replication(3)
        .faults(FaultPlan::seeded(0xD17).checkpoint_faults(1.0, 0.0))
        .trace()
        .build();
    let set = closure_of_8(&cluster);
    let guard = cluster.move_block(set[0], n(1)).unwrap();
    assert!(guard.granted());

    // the freshest (object_epoch, seq) each replica has stored per member
    let stored = |trace: &[oml_check::TraceEvent]| {
        let mut latest = std::collections::HashMap::new();
        for ev in trace {
            if let EventKind::CheckpointStored {
                object,
                replica,
                object_epoch,
                seq,
            } = &ev.kind
            {
                let slot = latest.entry((*object, *replica)).or_insert((0, 0));
                *slot = (*slot).max((*object_epoch, *seq));
            }
        }
        latest
    };
    // the install refreshed all eight at their new host; both puts drowned
    let mut trace = cluster.take_trace();
    let before = stored(&trace);
    for &member in &set {
        assert_eq!(before[&(member, n(1))], (0, 1));
        for replica in [n(0), n(2)] {
            assert_eq!(before[&(member, replica)], (0, 0), "{member} at {replica}");
        }
    }

    cluster.detector_sweep();
    // a sentinel behind the repair puts in each survivor's queue
    for replica in [n(0), n(2)] {
        let sentinel = cluster.create(replica, Box::new(Counter(0))).unwrap();
        cluster.invoke(sentinel, "get", &[]).unwrap();
    }
    trace.extend(cluster.take_trace());
    let after = stored(&trace);
    for &member in &set {
        for replica in [n(0), n(1), n(2)] {
            assert_eq!(after[&(member, replica)], (0, 1), "{member} at {replica}");
        }
    }
    assert_eq!(cluster.stats().repairs, 16);

    drop(guard);
    cluster.shutdown();
    trace.extend(cluster.take_trace());
    let report = check_trace(&trace);
    assert!(report.is_clean(), "{report}");
}

// --- property: object epochs are monotone ---------------------------------

#[derive(Debug, Clone)]
enum ChaosOp {
    Crash(u32),
    Restart(u32),
    Sweep,
    Invoke,
    Move(u32),
}

fn chaos_ops(nodes: u32) -> impl Strategy<Value = Vec<ChaosOp>> {
    let op = prop_oneof![
        (0..nodes).prop_map(ChaosOp::Crash),
        (0..nodes).prop_map(ChaosOp::Restart),
        Just(ChaosOp::Sweep),
        Just(ChaosOp::Invoke),
        (0..nodes).prop_map(ChaosOp::Move),
    ];
    proptest::collection::vec(op, 1..30)
}

proptest! {
    /// Across arbitrary interleavings of crashes, restarts, declare-dead
    /// sweeps and migrations, an object's epoch never moves backwards.
    #[test]
    fn every_object_epoch_is_monotone_under_chaos(script in chaos_ops(3)) {
        let cluster = builder(3).replication(2).build();
        register_counter(&cluster);
        let obj = cluster.create(n(0), Box::new(Counter(0))).unwrap();
        let mut last = cluster.object_epoch(obj);
        for op in script {
            match op {
                ChaosOp::Crash(node) => {
                    let _ = cluster.crash_node(n(node));
                }
                ChaosOp::Restart(node) => match cluster.restart_node(n(node)) {
                    Ok(_) | Err(RuntimeError::NotDead(_)) => {}
                    Err(other) => panic!("restart n{node}: {other}"),
                },
                ChaosOp::Sweep => {
                    cluster.advance_clock(DETECTION_MS);
                    cluster.detector_sweep();
                }
                ChaosOp::Invoke => {
                    let _ = cluster.invoke(obj, "add", &WireWriter::new().u64(1).finish());
                }
                ChaosOp::Move(node) => {
                    if let Ok(guard) = cluster.move_block(obj, n(node)) {
                        drop(guard);
                    }
                }
            }
            let epoch = cluster.object_epoch(obj);
            prop_assert!(
                epoch >= last,
                "epoch moved backwards: {last} -> {epoch} after {op:?}"
            );
            last = epoch;
        }
        cluster.shutdown();
    }
}
