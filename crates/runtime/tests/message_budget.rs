//! The message budget of the closure path, counted from the trace rather
//! than timed: a granted move of a closure costs one `Install` and one
//! `CheckpointPut`/`CheckpointAck` per remote replica node, however many
//! objects it carries, and a dead host's objects are reinstantiated in
//! bounded chunks per target. A refresh re-replicates only what its
//! replica set does not hold yet: an unchanged closure moves with no
//! checkpoint traffic, a changed member travels alone, and an epoch bump or
//! a replica that missed a write is always re-sent. This is the guard
//! against a return to one message per object, or per member of an
//! unchanged closure; CI names it explicitly. So is the linearization
//! budget beside it: a node ships and refreshes from the image it last
//! shipped, installed or refreshed from — a newborn's is the birth copy its
//! replicas hold — so only an object invoked since, or one whose image a
//! crash took, is linearized again.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use oml_check::{EventKind, TraceEvent};
use oml_core::ids::{NodeId, ObjectId};
use oml_core::policy::PolicyKind;
use oml_runtime::{Cluster, ClusterBuilder, MobileObject};

struct Cell(u8);

impl MobileObject for Cell {
    fn type_tag(&self) -> &'static str {
        "cell"
    }
    fn invoke(&mut self, method: &str, _payload: &[u8]) -> Result<Vec<u8>, String> {
        if method == "add" {
            self.0 = self.0.wrapping_add(1);
        }
        Ok(vec![self.0])
    }
    fn linearize(&self) -> Vec<u8> {
        vec![self.0]
    }
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn builder() -> ClusterBuilder {
    Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .manual_clock()
        .failure_detector(50, 3)
        .replication(2)
        .trace()
}

/// A root with `k - 1` attached helpers, all at node 0.
fn closure_at_node_0(cluster: &Cluster, k: usize) -> Vec<ObjectId> {
    cluster.register_type("cell", |bytes| Box::new(Cell(bytes[0])));
    let set: Vec<ObjectId> = (0..k)
        .map(|_| cluster.create(n(0), Box::new(Cell(1))).unwrap())
        .collect();
    for &helper in &set[1..] {
        cluster.attach(helper, set[0], None).unwrap();
    }
    set
}

/// Waits until every object's refresh `seq` has collected its quorum, i.e.
/// every put of that round was applied and every ack counted.
fn await_quorum(cluster: &Cluster, set: &[ObjectId], seq: u64) {
    for _ in 0..1_000 {
        let health = cluster.checkpoint_health();
        if set.iter().all(|o| {
            health
                .iter()
                .any(|h| h.object == *o && h.quorum >= Some((0, seq)))
        }) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("refresh {seq} never reached its quorum");
}

/// How many messages of each kind the trace shows being sent.
fn sends_by_kind(cluster: &Cluster) -> BTreeMap<String, usize> {
    let mut kinds = BTreeMap::new();
    for ev in cluster.take_trace() {
        if let EventKind::Send { desc, .. } = ev.kind {
            let kind = desc.split(['(', '[']).next().unwrap_or_default();
            *kinds.entry(kind.to_owned()).or_default() += 1;
        }
    }
    kinds
}

/// One granted move of a `k`-closure at replication 2 on 3 nodes: the
/// install and its quorum round, the end-request's refresh excluded.
fn sends_of_one_move(k: usize) -> BTreeMap<String, usize> {
    let cluster = builder().build();
    let set = closure_at_node_0(&cluster, k);
    let _ = cluster.take_trace(); // creation and attachment are not the move
    let guard = cluster.move_block(set[0], n(1)).unwrap();
    assert!(guard.granted());
    await_quorum(&cluster, &set, 1);
    let sends = sends_by_kind(&cluster);
    drop(guard);
    cluster.shutdown();
    sends
}

#[test]
fn a_closure_moves_in_one_install_and_one_put_per_replica() {
    for k in [8, 1] {
        let sends = sends_of_one_move(k);
        let count = |kind: &str| sends.get(kind).copied().unwrap_or(0);
        assert_eq!(count("Install"), 1, "k = {k}: {sends:?}");
        // two replicas on three nodes: the host is at most one of them
        assert!(
            (1..=2).contains(&count("CheckpointPut")),
            "k = {k}: {sends:?}"
        );
        assert_eq!(
            count("CheckpointAck"),
            count("CheckpointPut"),
            "k = {k}: {sends:?}"
        );
        assert_eq!(count("Surrender"), 0, "k = {k}: {sends:?}");
    }
}

#[test]
fn a_dead_host_is_reinstantiated_in_bounded_installs_per_target() {
    const STRANDED: usize = 256;
    // `message::MAX_BATCH`, which is private: a change there changes this
    const CHUNK: usize = 64;
    let cluster = builder().build();
    cluster.register_type("cell", |bytes| Box::new(Cell(bytes[0])));
    for _ in 0..STRANDED {
        cluster.create(n(1), Box::new(Cell(1))).unwrap();
    }
    let _ = cluster.take_trace();
    cluster.crash_node(n(1)).unwrap();
    cluster.advance_clock(10_000);
    cluster.detector_sweep();
    assert_eq!(cluster.stats().reinstantiations, STRANDED as u64);

    let mut reinstated: BTreeMap<u32, usize> = BTreeMap::new();
    let mut installs: BTreeMap<u32, usize> = BTreeMap::new();
    for ev in cluster.take_trace() {
        match ev.kind {
            EventKind::Reinstantiated { at, .. } => {
                *reinstated.entry(at.as_u32()).or_default() += 1
            }
            EventKind::Send { to, desc, .. } if desc.starts_with("Install") => {
                *installs.entry(to).or_default() += 1;
            }
            _ => {}
        }
    }
    assert_eq!(reinstated.values().sum::<usize>(), STRANDED);
    for (target, objects) in reinstated {
        assert_eq!(
            installs.get(&target).copied(),
            Some(objects.div_ceil(CHUNK)),
            "{objects} objects to node {target}"
        );
    }
    cluster.shutdown();
}

/// Every `(object, replica, version)` a store applied, per the trace.
fn stored(trace: &[TraceEvent]) -> Vec<(ObjectId, NodeId, (u64, u64))> {
    let stored = trace.iter().filter_map(|ev| match ev.kind {
        EventKind::CheckpointStored {
            object,
            replica,
            object_epoch,
            seq,
        } => Some((object, replica, (object_epoch, seq))),
        _ => None,
    });
    stored.collect()
}

/// The `CheckpointPut`s the trace shows being sent: `(to, description)`.
fn puts(trace: &[TraceEvent]) -> Vec<(u32, String)> {
    let sends = trace.iter().filter_map(|ev| match &ev.kind {
        EventKind::Send { to, desc, .. } if desc.starts_with("CheckpointPut") => {
            Some((*to, desc.clone()))
        }
        _ => None,
    });
    sends.collect()
}

#[test]
fn an_unchanged_closure_moves_with_no_checkpoint_traffic() {
    let cluster = builder().build();
    let set = closure_at_node_0(&cluster, 8);
    // the first move writes every member at its replica set
    drop(cluster.move_block(set[0], n(1)).unwrap());
    let refreshes = cluster.stats().checkpoint_refreshes;
    assert_eq!(refreshes, 8);
    let _ = cluster.take_trace();

    let guard = cluster.move_block(set[0], n(2)).unwrap();
    assert!(guard.granted());
    assert!(set.iter().all(|&o| cluster.is_resident(o, n(2))));
    drop(guard);
    let sends = sends_by_kind(&cluster);
    let count = |kind: &str| sends.get(kind).copied().unwrap_or(0);
    assert_eq!(count("Install"), 1, "{sends:?}");
    assert_eq!(count("CheckpointPut"), 0, "{sends:?}");
    assert_eq!(count("CheckpointAck"), 0, "{sends:?}");
    assert_eq!(cluster.stats().checkpoint_refreshes, refreshes);
    cluster.shutdown();
}

#[test]
fn a_changed_member_travels_alone_in_one_put_per_remote_replica() {
    let cluster = builder().build();
    let set = closure_at_node_0(&cluster, 8);
    drop(cluster.move_block(set[0], n(1)).unwrap());
    let helper = set[3];
    cluster.invoke(helper, "add", &[]).unwrap();
    let refreshes = cluster.stats().checkpoint_refreshes;
    let _ = cluster.take_trace();

    let guard = cluster.move_block(set[0], n(2)).unwrap();
    assert!(guard.granted());
    let trace = cluster.take_trace();
    let remote: Vec<(u32, String)> = cluster
        .replica_set(helper)
        .unwrap()
        .into_iter()
        .filter(|&r| r != n(2))
        .map(|r| (r.as_u32(), format!("CheckpointPut{:?}", [helper])))
        .collect();
    assert!(!remote.is_empty());
    assert_eq!(puts(&trace), remote);
    assert_eq!(cluster.stats().checkpoint_refreshes, refreshes + 1);
    drop(guard);
    cluster.shutdown();
}

#[test]
fn an_epoch_bump_refreshes_every_member_of_an_unchanged_closure() {
    let cluster = builder().build();
    cluster.register_type("cell", |bytes| Box::new(Cell(bytes[0])));
    // eight objects whose replica set is {0, 1}: a host at node 2 dies
    // without taking a replica with it, so only the epoch changes
    let mut set = Vec::new();
    while set.len() < 8 {
        let object = cluster.create(n(0), Box::new(Cell(1))).unwrap();
        if cluster.replica_set(object).unwrap() == [n(0), n(1)] {
            set.push(object);
        }
    }
    for &helper in &set[1..] {
        cluster.attach(helper, set[0], None).unwrap();
    }
    drop(cluster.move_block(set[0], n(2)).unwrap());
    let refreshes = cluster.stats().checkpoint_refreshes;
    let _ = cluster.take_trace();

    cluster.crash_node(n(2)).unwrap();
    cluster.advance_clock(10_000);
    cluster.detector_sweep();
    assert_eq!(cluster.stats().reinstantiations, 8);
    // the reinstantiation's install, at the home, re-writes all eight
    assert_eq!(cluster.stats().checkpoint_refreshes, refreshes + 8);
    let trace = cluster.take_trace();
    let stored = stored(&trace);
    for &member in &set {
        for replica in [n(0), n(1)] {
            assert!(
                stored.contains(&(member, replica, (1, 2))),
                "{member} at {replica}: {stored:?}"
            );
        }
    }
    cluster.shutdown();
}

#[test]
fn a_replica_that_missed_a_quorum_write_gets_it_at_the_next_block() {
    let cluster = builder().replication(3).build();
    let set = closure_at_node_0(&cluster, 1);
    let object = set[0];
    drop(cluster.move_block(object, n(0)).unwrap());

    // quorum is 2 of 3: the host's own store and node 1 carry the write
    // while node 2's copy drowns in the partition
    cluster.partition(n(0), n(2)).unwrap();
    cluster.invoke(object, "add", &[]).unwrap();
    drop(cluster.move_block(object, n(0)).unwrap());
    let health = cluster.checkpoint_health();
    assert_eq!(health[0].quorum, Some((0, 2)));
    cluster.heal(n(0), n(2)).unwrap();
    let _ = cluster.take_trace();

    // an unchanged block, no detector sweep: node 2 is re-sent the state
    drop(cluster.move_block(object, n(0)).unwrap());
    let trace = cluster.take_trace();
    assert!(
        puts(&trace).iter().any(|(to, _)| *to == 2),
        "{:?}",
        puts(&trace)
    );
    assert!(stored(&trace).contains(&(object, n(2), (0, 3))));
    cluster.shutdown();
}

/// A cell that counts how often it is linearized. Its state is its value
/// and a key of its own, under which `LINEARIZED` counts — tests running
/// side by side never share one.
struct Counted {
    value: u8,
    key: u32,
}

static LINEARIZED: Mutex<BTreeMap<u32, usize>> = Mutex::new(BTreeMap::new());
static NEXT_KEY: AtomicU32 = AtomicU32::new(0);

impl MobileObject for Counted {
    fn type_tag(&self) -> &'static str {
        "counted"
    }
    fn invoke(&mut self, method: &str, _payload: &[u8]) -> Result<Vec<u8>, String> {
        if method == "add" {
            self.value = self.value.wrapping_add(1);
        }
        Ok(vec![self.value])
    }
    fn linearize(&self) -> Vec<u8> {
        *LINEARIZED.lock().unwrap().entry(self.key).or_default() += 1;
        let mut state = vec![self.value];
        state.extend(self.key.to_le_bytes());
        state
    }
}

fn counted(state: &[u8]) -> Box<dyn MobileObject> {
    let key = u32::from_le_bytes(state[1..5].try_into().unwrap());
    Box::new(Counted {
        value: state[0],
        key,
    })
}

/// A `Counted` root with `k - 1` attached helpers, all at node 0, and the
/// key of each.
fn counted_closure_at_node_0(cluster: &Cluster, k: usize) -> (Vec<ObjectId>, Vec<u32>) {
    cluster.register_type("counted", counted);
    let keys: Vec<u32> = (0..k)
        .map(|_| NEXT_KEY.fetch_add(1, Ordering::Relaxed))
        .collect();
    let set: Vec<ObjectId> = (keys.iter())
        .map(|&key| {
            let cell = Box::new(Counted { value: 1, key });
            cluster.create(n(0), cell).unwrap()
        })
        .collect();
    for &helper in &set[1..] {
        cluster.attach(helper, set[0], None).unwrap();
    }
    (set, keys)
}

/// How often each of `keys` was linearized since the last call.
fn linearized_since(keys: &[u32], last: &mut Vec<usize>) -> Vec<usize> {
    let counts = LINEARIZED.lock().unwrap();
    let now: Vec<usize> = (keys.iter())
        .map(|key| counts.get(key).copied().unwrap_or(0))
        .collect();
    let since = (now.iter().zip(last.iter()))
        .map(|(now, last)| now - last)
        .collect();
    *last = now;
    since
}

#[test]
fn a_created_closure_is_linearized_once_through_its_first_move() {
    let cluster = builder().build();
    let (set, keys) = counted_closure_at_node_0(&cluster, 8);
    let mut last = vec![0; 8];
    // the birth copy, for the replicas and as the host's image
    assert_eq!(linearized_since(&keys, &mut last), [1; 8]);

    // the first move of objects nothing invoked ships those images, and
    // its refresh writes them to their replica sets
    let guard = cluster.move_block(set[0], n(1)).unwrap();
    assert!(guard.granted());
    drop(guard);
    assert_eq!(linearized_since(&keys, &mut last), [0; 8]);
    assert_eq!(cluster.stats().checkpoint_refreshes, 8);
    cluster.shutdown();
}

#[test]
fn a_second_move_of_an_unchanged_closure_linearizes_nothing() {
    let cluster = builder().build();
    let (set, keys) = counted_closure_at_node_0(&cluster, 8);
    let mut last = vec![0; 8];
    let _ = linearized_since(&keys, &mut last);

    // a created object's image is its birth copy: no shipment linearizes it
    drop(cluster.move_block(set[0], n(1)).unwrap());
    assert_eq!(linearized_since(&keys, &mut last), [0; 8]);
    let _ = cluster.take_trace();

    let guard = cluster.move_block(set[0], n(2)).unwrap();
    assert!(guard.granted());
    assert!(set.iter().all(|&o| cluster.is_resident(o, n(2))));
    drop(guard);
    assert_eq!(linearized_since(&keys, &mut last), [0; 8]);
    let sends = sends_by_kind(&cluster);
    let count = |kind: &str| sends.get(kind).copied().unwrap_or(0);
    assert_eq!(count("Install"), 1, "{sends:?}");
    assert_eq!(count("CheckpointPut"), 0, "{sends:?}");
    assert_eq!(count("CheckpointAck"), 0, "{sends:?}");
    cluster.shutdown();
}

#[test]
fn an_object_invoked_in_its_block_is_linearized_once_at_the_end() {
    let cluster = builder().build();
    let (set, keys) = counted_closure_at_node_0(&cluster, 8);
    let mut last = vec![0; 8];
    let guard = cluster.move_block(set[0], n(1)).unwrap();
    assert!(guard.granted());
    let _ = linearized_since(&keys, &mut last);

    assert_eq!(cluster.invoke(set[0], "add", &[]).unwrap(), [2]);
    assert_eq!(linearized_since(&keys, &mut last), [0; 8]);
    drop(guard);
    let mut once = vec![0; 8];
    once[0] = 1;
    assert_eq!(linearized_since(&keys, &mut last), once, "at the end");
    let refreshes = cluster.stats().checkpoint_refreshes;
    let _ = cluster.take_trace();

    // the next move ships the image the end refreshed from: the replicas
    // hold it already, and the new host runs on it
    let guard = cluster.move_block(set[0], n(2)).unwrap();
    assert!(guard.granted());
    assert_eq!(linearized_since(&keys, &mut last), [0; 8]);
    assert_eq!(puts(&cluster.take_trace()), []);
    assert_eq!(cluster.stats().checkpoint_refreshes, refreshes);
    assert_eq!(cluster.invoke(set[0], "get", &[]).unwrap(), [2]);
    drop(guard);
    cluster.shutdown();
}

#[test]
fn a_reclaimed_object_is_linearized_once_at_its_first_shipment() {
    let cluster = builder().build();
    let (set, keys) = counted_closure_at_node_0(&cluster, 8);
    let mut last = vec![0; 8];
    drop(cluster.move_block(set[0], n(1)).unwrap());
    let _ = linearized_since(&keys, &mut last);

    // the crash keeps the objects, not their images
    cluster.crash_node(n(1)).unwrap();
    cluster.restart_node(n(1)).unwrap();
    assert!(set.iter().all(|&o| cluster.is_resident(o, n(1))));
    assert_eq!(linearized_since(&keys, &mut last), [0; 8]);
    drop(cluster.move_block(set[0], n(2)).unwrap());
    assert_eq!(linearized_since(&keys, &mut last), [1; 8]);
    drop(cluster.move_block(set[0], n(0)).unwrap());
    assert_eq!(linearized_since(&keys, &mut last), [0; 8]);
    assert!(set.iter().all(|&o| cluster.is_resident(o, n(0))));
    cluster.shutdown();
}
