//! Recovery scenarios driven against clusters with the failure detector
//! enabled.
//!
//! They mirror the acceptance criteria of the recovery subsystem: a crashed
//! node that never restarts must not strand its objects (they are
//! reinstantiated from home checkpoints within the detection window), calls
//! to a suspected or dead node must fail fast with `NodeDown` instead of
//! burning the full call timeout, a restart must not reclaim what was
//! reinstantiated, and one trace records each happening once. The seeded
//! recovery schedule with its zombie restart, fenced and unfenced, is
//! `oml_experiments::check::replay_recovery`.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use oml_check::{check_trace, EventKind, TraceEvent};
use oml_core::ids::{NodeId, ObjectId};
use oml_core::policy::PolicyKind;
use oml_runtime::wire::{WireReader, WireWriter};
use oml_runtime::{Cluster, NodeHealth, RuntimeError};

mod common;
use common::{n, register_counter, Counter};

const HEARTBEAT_MS: u64 = 50;
const K_MISSED: u32 = 3;
/// Advancing past `K_MISSED * HEARTBEAT_MS` guarantees the next sweep sees
/// the crashed node as silent for the whole detection window.
const DETECTION_MS: u64 = HEARTBEAT_MS * K_MISSED as u64 + HEARTBEAT_MS;

fn get(cluster: &Cluster, obj: ObjectId) -> u64 {
    let out = cluster.invoke(obj, "get", &[]).expect("get must succeed");
    WireReader::new(&out).u64().expect("counter payload")
}

/// The tentpole scenario: crash a node and never restart it. Every client
/// op must still complete — stranded objects reinstantiate at their homes'
/// checkpoints within the detection window, and calls routed at the dead
/// node fail fast with `NodeDown` instead of timing out.
#[test]
fn crash_without_restart_completes_all_ops() {
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .call_timeout(Duration::from_millis(200))
        .invoke_retries(1)
        .lease_ms(1_000)
        .manual_clock()
        .failure_detector(HEARTBEAT_MS, K_MISSED)
        .trace()
        .build();
    register_counter(&cluster);

    let a = cluster.create(n(0), Box::new(Counter(1))).unwrap();
    let b = cluster.create(n(1), Box::new(Counter(2))).unwrap();
    let c = cluster.create(n(2), Box::new(Counter(7))).unwrap();

    // an acknowledged add *after* the checkpoint was taken: its effect is
    // allowed to be lost on failover (the checkpoint freshness contract)
    let out = cluster
        .invoke(c, "add", &WireWriter::new().u64(5).finish())
        .unwrap();
    assert_eq!(WireReader::new(&out).u64().unwrap(), 12);

    cluster.crash_node(n(2)).unwrap();
    cluster.advance_clock(DETECTION_MS);
    cluster.detector_sweep();

    // the detector declared the silent node dead and recovered its object
    assert_eq!(cluster.node_health(n(2)), Some(NodeHealth::Dead));
    let stats = cluster.stats();
    assert_eq!(stats.reinstantiations, 1, "exactly one stranded object");
    let new_home = cluster.location_of(c).expect("object must stay placed");
    assert_ne!(new_home, n(2), "the dead node cannot host the fresh copy");

    // every client op completes; the recovered object answers from its
    // checkpoint (value 7 — the post-checkpoint add is legitimately lost)
    assert_eq!(get(&cluster, a), 1);
    assert_eq!(get(&cluster, b), 2);
    assert_eq!(get(&cluster, c), 7, "checkpoint state, not lost update");
    for _ in 0..5 {
        cluster
            .invoke(c, "add", &WireWriter::new().u64(1).finish())
            .unwrap();
    }
    assert_eq!(get(&cluster, c), 12, "the recovered object is fully live");

    // calls addressed at the dead node fail fast: no 200 ms timeout burn
    let started = Instant::now();
    let err = cluster.create(n(2), Box::new(Counter(0))).unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, RuntimeError::NodeDown(node) if node == n(2)),
        "{err}"
    );
    assert!(
        elapsed < Duration::from_millis(100),
        "fail-fast must not wait out the call timeout (took {elapsed:?})"
    );

    let stats = cluster.stats();
    assert!(stats.breaker_opens >= 1, "death must open the breaker");
    assert_eq!(stats.fenced_stale, 0, "no zombie traffic in this schedule");
    cluster.shutdown();
    let report = check_trace(&cluster.take_trace());
    assert!(report.is_clean(), "{report}");
}

/// Suspicion (from a partition) opens the circuit breaker even though the
/// client's own links still work; healing clears the suspicion, counts it
/// as false, and the half-open probe closes the breaker again.
#[test]
fn suspicion_fails_fast_and_heals_without_false_death() {
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .call_timeout(Duration::from_millis(200))
        .invoke_retries(0)
        .manual_clock()
        .failure_detector(HEARTBEAT_MS, K_MISSED)
        .trace()
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(2), Box::new(Counter(3))).unwrap();
    assert_eq!(get(&cluster, obj), 3);

    cluster.partition(n(1), n(2)).unwrap();
    cluster.detector_sweep();
    assert_eq!(cluster.node_health(n(1)), Some(NodeHealth::Suspected));
    assert_eq!(cluster.node_health(n(2)), Some(NodeHealth::Suspected));

    // the workers still beat (the partition exempts nothing but control
    // forwards), yet the breaker refuses the call without touching the wire
    let started = Instant::now();
    let err = cluster.invoke(obj, "get", &[]).unwrap_err();
    assert!(
        matches!(err, RuntimeError::NodeDown(node) if node == n(2)),
        "{err}"
    );
    assert!(started.elapsed() < Duration::from_millis(100));

    cluster.heal(n(1), n(2)).unwrap();
    cluster.detector_sweep();
    assert_eq!(cluster.node_health(n(1)), Some(NodeHealth::Up));
    assert_eq!(cluster.node_health(n(2)), Some(NodeHealth::Up));

    // the half-open probe goes through and the object never moved
    assert_eq!(get(&cluster, obj), 3);
    let stats = cluster.stats();
    assert_eq!(
        stats.false_suspicions, 2,
        "both sides were wrongly suspected"
    );
    assert_eq!(stats.reinstantiations, 0, "a live node keeps its objects");
    assert!(stats.breaker_opens >= 2);
    cluster.shutdown();
    let report = check_trace(&cluster.take_trace());
    assert!(report.is_clean(), "{report}");
}

/// Restarts `node` — `NotDead` when its current incarnation already runs —
/// and checks that the detector admitted it back: a restart, a fenced
/// zombie's included, is done when it returns.
fn rejoin(cluster: &Cluster, node: NodeId) {
    match cluster.restart_node(node) {
        Ok(()) | Err(RuntimeError::NotDead(_)) => {}
        Err(other) => panic!("restart {node}: {other}"),
    }
    assert_eq!(cluster.node_health(node), Some(NodeHealth::Up), "{node}");
}

/// The crash → reinstantiate → restart race: after the detector recovered
/// an object elsewhere, restarting the original host must not move it back,
/// must not corrupt its state, and must leave a clean trace.
#[test]
fn crash_recover_restart_keeps_single_residency() {
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .call_timeout(Duration::from_millis(200))
        .invoke_retries(1)
        .lease_ms(1_000)
        .manual_clock()
        .failure_detector(HEARTBEAT_MS, K_MISSED)
        .trace()
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(2), Box::new(Counter(4))).unwrap();

    cluster.crash_node(n(2)).unwrap();
    cluster.advance_clock(DETECTION_MS);
    cluster.detector_sweep();
    let recovered_at = cluster.location_of(obj).expect("reinstantiated");
    assert_ne!(recovered_at, n(2));
    assert_eq!(get(&cluster, obj), 4, "checkpoint state restored");

    rejoin(&cluster, n(2));
    assert_eq!(
        cluster.location_of(obj),
        Some(recovered_at),
        "the epoch filter must discard the restarted node's stale stash"
    );
    // mutate through the recovered copy, then migrate it back to the
    // restarted node: normal protocol traffic must work end to end
    cluster
        .invoke(obj, "add", &WireWriter::new().u64(6).finish())
        .unwrap();
    {
        let guard = cluster.move_block(obj, n(2)).unwrap();
        assert!(guard.granted());
        assert_eq!(get(&cluster, obj), 10);
    }
    assert_eq!(cluster.location_of(obj), Some(n(2)));

    assert_eq!(cluster.stats().reinstantiations, 1);
    cluster.shutdown();
    let report = check_trace(&cluster.take_trace());
    assert!(report.is_clean(), "{report}");
}

/// The crash → declare-dead → restart race, run on two threads: each round
/// crashes the node hosting every object, lets the suspicion window pass,
/// and releases the node's restart and a detector sweep at once. Whichever
/// decides first, the other sees its verdict: every object stays on exactly
/// one node and answers, its epoch never goes back, and the trace so far
/// checks clean.
#[test]
fn a_restart_racing_a_declare_dead_keeps_every_object_once() {
    let cluster = Cluster::builder()
        .nodes(3)
        .call_timeout(Duration::from_millis(200))
        .invoke_retries(1)
        .manual_clock()
        .failure_detector(HEARTBEAT_MS, K_MISSED)
        .replication(2)
        .trace()
        .build();
    register_counter(&cluster);
    let objects: Vec<ObjectId> = (0..3)
        .map(|i| cluster.create(n(1), Box::new(Counter(i))).unwrap())
        .collect();
    let mut epochs = vec![0; objects.len()];
    let mut trace = Vec::new();
    let start = Barrier::new(2);
    for round in 0..200 {
        for &obj in &objects {
            if cluster.location_of(obj) != Some(n(1)) {
                let home = cluster.move_block(obj, n(1)).unwrap();
                assert!(home.granted(), "round {round}: {obj} stays away");
            }
        }
        cluster.crash_node(n(1)).unwrap();
        cluster.advance_clock(DETECTION_MS);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                cluster.restart_node(n(1)).unwrap();
            });
            start.wait();
            cluster.detector_sweep();
        });
        // a sweep that read the silence before the restart suspects the
        // node; the next one, after its beats, clears that
        cluster.advance_clock(HEARTBEAT_MS);
        cluster.detector_sweep();
        for (i, &obj) in objects.iter().enumerate() {
            let hosts = (0..3).filter(|&h| cluster.is_resident(obj, n(h))).count();
            assert_eq!(hosts, 1, "round {round}: {obj} on {hosts} nodes");
            assert_eq!(get(&cluster, obj), i as u64, "round {round}: {obj}");
            let epoch = cluster.object_epoch(obj);
            assert!(epoch >= epochs[i], "round {round}: {obj} went back");
            epochs[i] = epoch;
        }
        trace.extend(cluster.take_trace());
        let report = check_trace(&trace);
        assert!(report.is_clean(), "round {round}: {report}");
    }
}

/// How many events of `trace` are of the kind `is` picks.
fn count(trace: &[TraceEvent], is: fn(&EventKind) -> bool) -> u64 {
    trace.iter().filter(|ev| is(&ev.kind)).count() as u64
}

/// One trace records each scripted happening once — a repeated crash or a
/// second sweep of a dead node adds nothing — including the partition, its
/// heal, and the suspicions the heal clears.
#[test]
fn a_traced_run_records_each_happening_once() {
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .manual_clock()
        .failure_detector(HEARTBEAT_MS, K_MISSED)
        .trace()
        .build();
    register_counter(&cluster);
    for host in [0, 2, 2] {
        cluster.create(n(host), Box::new(Counter(0))).unwrap();
    }

    cluster.partition(n(0), n(1)).unwrap();
    cluster.advance_clock(HEARTBEAT_MS);
    cluster.detector_sweep();
    cluster.heal(n(0), n(1)).unwrap();
    cluster.heal(n(0), n(1)).unwrap(); // nothing left to heal
    cluster.advance_clock(HEARTBEAT_MS);
    cluster.detector_sweep();
    cluster.crash_node(n(2)).unwrap();
    cluster.crash_node(n(2)).unwrap(); // already down
    cluster.advance_clock(DETECTION_MS);
    cluster.detector_sweep();
    cluster.detector_sweep(); // already dead
    cluster.restart_node(n(2)).unwrap();
    cluster.shutdown();

    let trace = cluster.take_trace();
    let counts = [
        count(&trace, |k| {
            matches!(k, EventKind::Partition { severed: true, .. })
        }),
        count(&trace, |k| {
            matches!(k, EventKind::Partition { severed: false, .. })
        }),
        count(&trace, |k| matches!(k, EventKind::Suspected { .. })),
        count(&trace, |k| matches!(k, EventKind::SuspicionCleared { .. })),
        count(&trace, |k| matches!(k, EventKind::Crash { .. })),
        count(&trace, |k| matches!(k, EventKind::DeclaredDead { .. })),
        count(&trace, |k| matches!(k, EventKind::Reinstantiated { .. })),
        count(&trace, |k| matches!(k, EventKind::Restart { .. })),
    ];
    // both ends of the partition are suspected and cleared; the dead node
    // hosted two objects
    assert_eq!(counts, [1, 1, 2, 2, 1, 1, 2, 1], "{trace:?}");
    let stats = cluster.stats();
    assert_eq!((stats.suspicions, stats.false_suspicions), (2, 2));
    assert!(check_trace(&trace).is_clean());
}
