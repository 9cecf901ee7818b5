//! Recovery chaos harness: seeded crash / partition / zombie-restart
//! schedules driven against clusters with the failure detector enabled.
//!
//! The scenarios mirror the acceptance criteria of the recovery subsystem:
//! a crashed node that never restarts must not strand its objects (they are
//! reinstantiated from home checkpoints within the detection window), calls
//! to a suspected or dead node must fail fast with `NodeDown` instead of
//! burning the full call timeout, a zombie restart under a stale incarnation
//! must be fenced out (and, without fencing, must be *caught* by the
//! checker's stale-incarnation invariant), and the whole schedule must stay
//! replayable under the same seed.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use oml_check::explore::trace_digest;
use oml_check::{check_trace, EventKind, TraceEvent};
use oml_core::ids::{NodeId, ObjectId};
use oml_core::policy::PolicyKind;
use oml_runtime::wire::{WireReader, WireWriter};
use oml_runtime::{Cluster, FaultPlan, MobileObject, NodeHealth, RuntimeError, Sabotage};

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

/// A zombie restart under the stale incarnation is fenced out: it must not
/// reclaim the stashed object the cluster already reinstantiated elsewhere.
/// A subsequent honest restart rejoins under a fresh epoch and coexists
/// with the recovered object.
#[test]
fn fenced_zombie_cannot_double_install() {
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .call_timeout(Duration::from_millis(200))
        .invoke_retries(1)
        .manual_clock()
        .failure_detector(HEARTBEAT_MS, K_MISSED)
        .trace()
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(2), Box::new(Counter(9))).unwrap();

    cluster.crash_node(n(2)).unwrap();
    cluster.advance_clock(DETECTION_MS);
    cluster.detector_sweep();
    assert_eq!(cluster.node_health(n(2)), Some(NodeHealth::Dead));
    let recovered_at = cluster.location_of(obj).expect("reinstantiated");
    assert_ne!(recovered_at, n(2));

    // the zombie spawns under its crashed incarnation and is fenced: its
    // state is dropped before it touches the stash or the directory
    cluster.zombie_restart_node(n(2)).unwrap();
    assert_eq!(
        cluster.node_health(n(2)),
        Some(NodeHealth::Dead),
        "a stale incarnation cannot talk its way back to life"
    );

    // the honest restart (the fenced zombie's state is gone) rejoins cleanly
    rejoin(&cluster, n(2));
    assert_eq!(
        cluster.location_of(obj),
        Some(recovered_at),
        "the restarted node must not reclaim a reinstantiated object"
    );
    assert_eq!(get(&cluster, obj), 9);
    // and the node itself is fully usable again
    let fresh = cluster.create(n(2), Box::new(Counter(1))).unwrap();
    assert_eq!(get(&cluster, fresh), 1);

    cluster.shutdown();
    let report = check_trace(&cluster.take_trace());
    assert!(report.is_clean(), "{report}");
}

/// Negative control: the same zombie schedule with fencing disabled *does*
/// double-install — and the checker's stale-incarnation invariant flags it.
/// This proves the fence is load-bearing, not vacuously green.
#[test]
fn unfenced_zombie_is_caught_by_the_checker() {
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .call_timeout(Duration::from_millis(200))
        .invoke_retries(1)
        .manual_clock()
        .failure_detector(HEARTBEAT_MS, K_MISSED)
        .sabotage(Sabotage::Unfenced)
        .trace()
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(2), Box::new(Counter(9))).unwrap();

    cluster.crash_node(n(2)).unwrap();
    cluster.advance_clock(DETECTION_MS);
    cluster.detector_sweep();
    let recovered_at = cluster.location_of(obj).expect("reinstantiated");
    assert_ne!(recovered_at, n(2));

    // without the fence the zombie happily reclaims its stashed copy — a
    // second live replica behind the fresh one's back. The reclaim runs
    // inside zombie_restart_node, so it is traced before the shutdown.
    cluster.zombie_restart_node(n(2)).unwrap();
    cluster.shutdown();
    let report = check_trace(&cluster.take_trace());
    assert!(
        !report.is_clean(),
        "the checker must flag the double-install"
    );
    let rendered = report.to_string();
    assert!(
        rendered.contains("stale incarnation"),
        "expected a stale-incarnation violation, got: {rendered}"
    );
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

/// What one recovery chaos run leaves behind: a digest of the whole
/// protocol trace — the faults the plan injected among its events — and
/// the detector's counts.
#[derive(Debug, PartialEq, Eq)]
struct RunRecord {
    digest: u64,
    suspicions: u64,
    reinstantiations: u64,
}

/// A seeded lossy schedule with a mid-run crash, a detection sweep, and a
/// late restart; panics unless every object is still reachable at the end.
/// Returns the run's record and its protocol trace.
fn run_recovery_chaos(seed: u64) -> (RunRecord, Vec<TraceEvent>) {
    let plan = FaultPlan::seeded(seed)
        .drop_probability(0.05)
        .delay_probability(0.05, 2);
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .faults(plan)
        .call_timeout(Duration::from_millis(100))
        .invoke_retries(2)
        .lease_ms(1_000)
        .manual_clock()
        .failure_detector(HEARTBEAT_MS, K_MISSED)
        .trace()
        .build();
    register_counter(&cluster);
    let objects: Vec<ObjectId> = (0..3)
        .map(|i| cluster.create(n(i), Box::new(Counter(0))).unwrap())
        .collect();

    for i in 0..30u64 {
        match i {
            10 => cluster.crash_node(n(2)).unwrap(),
            12 => {
                cluster.advance_clock(DETECTION_MS);
                cluster.detector_sweep();
            }
            20 => rejoin(&cluster, n(2)),
            _ => {}
        }
        let obj = objects[(i % 3) as usize];
        match cluster.invoke(obj, "add", &WireWriter::new().u64(1).finish()) {
            Ok(_) | Err(RuntimeError::Timeout { .. } | RuntimeError::NodeDown(_)) => {}
            Err(other) => panic!("op {i}: unexpected error {other}"),
        }
    }

    cluster.advance_clock(2_000);
    for &obj in &objects {
        let reachable = (0..5).any(|_| cluster.invoke(obj, "get", &[]).is_ok());
        assert!(reachable, "{obj} must stay reachable");
    }

    let stats = cluster.stats();
    cluster.shutdown();
    let trace = cluster.take_trace();
    let record = RunRecord {
        digest: trace_digest(&trace),
        suspicions: stats.suspicions,
        reinstantiations: stats.reinstantiations,
    };
    (record, trace)
}

/// How many events of `trace` are of the kind `is` picks.
fn count(trace: &[TraceEvent], is: fn(&EventKind) -> bool) -> u64 {
    trace.iter().filter(|ev| is(&ev.kind)).count() as u64
}

/// A seed fixes the whole run: under a manual clock the one client thread
/// runs every step — ticks and delayed deliveries included, as it advances
/// the clock — so two runs under one seed inject the same faults in the
/// same order and trace the same protocol events, bit for bit.
#[test]
fn same_seed_recovery_runs_are_identical() {
    for seed in [0xC0A5, 1, 3] {
        let (a, trace) = run_recovery_chaos(seed);
        // the schedule really exercised the recovery machinery, and the
        // trace records each happening once: one crash, one death, one
        // restart, and as many suspicions and reinstantiations as counted
        let once = [
            count(&trace, |k| matches!(k, EventKind::Crash { .. })),
            count(&trace, |k| matches!(k, EventKind::DeclaredDead { .. })),
            count(&trace, |k| matches!(k, EventKind::Restart { .. })),
        ];
        assert_eq!(once, [1; 3], "seed {seed:#x}: crash, death, restart");
        assert!(a.reinstantiations > 0, "seed {seed:#x}");
        let counted = [
            count(&trace, |k| matches!(k, EventKind::Suspected { .. })),
            count(&trace, |k| matches!(k, EventKind::Reinstantiated { .. })),
        ];
        assert_eq!(
            counted,
            [a.suspicions, a.reinstantiations],
            "seed {seed:#x}"
        );
        assert!(
            count(&trace, |k| matches!(k, EventKind::Fault { .. })) > 0,
            "seed {seed:#x}: the plan injected nothing"
        );
        assert_eq!(a, run_recovery_chaos(seed).0, "seed {seed:#x}");
    }
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
