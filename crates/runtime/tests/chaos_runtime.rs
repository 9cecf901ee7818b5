//! Chaos harness: a seeded fault schedule (message loss, delays,
//! duplicates, dropped end-requests, a partition, one crash/restart
//! cycle) driven against a live cluster, with invariants checked after
//! the system quiesces — and the whole run replayed under the same seed
//! to prove the fault schedule is reproducible.
//!
//! The client is sequential and the cluster uses the manual lease clock,
//! so every fault decision depends only on (seed, link, sequence
//! number): two runs with the same seed must trace the same events — the
//! faults among them — and leave identical final object states.

use std::time::Duration;

use oml_check::explore::trace_digest;
use oml_check::{EventKind, MessageFault, TraceEvent};
use oml_core::ids::{NodeId, ObjectId};
use oml_core::policy::PolicyKind;
use oml_runtime::wire::{WireReader, WireWriter};
use oml_runtime::{Cluster, FaultPlan, MobileObject, RuntimeError};

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

const NODES: u32 = 4;
const LEASE_MS: u64 = 1_000;
const OPS: u64 = 40;

/// What one chaos run leaves behind — everything that must be identical
/// across two runs with the same seed: the digest of its whole protocol
/// trace, and what the client saw.
#[derive(Debug, PartialEq)]
struct RunRecord {
    digest: u64,
    finals: Vec<u64>,
    ok_adds: u64,
    errors: Vec<(u64, String)>,
}

/// Drives the seeded fault schedule and returns the run's record and its
/// protocol trace.
///
/// The schedule interleaves invocations and move-blocks over three
/// objects with a node-pair partition (healed later), one crash/restart
/// of node 2, and a 50 % chance of losing each end-request.
fn run_chaos(seed: u64) -> (RunRecord, Vec<TraceEvent>) {
    let plan = FaultPlan::seeded(seed)
        .drop_probability(0.08)
        .duplicate_probability(0.05)
        .delay_probability(0.10, 3)
        .drop_end_requests(0.5);
    let cluster = Cluster::builder()
        .nodes(NODES)
        .policy(PolicyKind::TransientPlacement)
        .faults(plan)
        .call_timeout(Duration::from_millis(100))
        .invoke_retries(2)
        .lease_ms(LEASE_MS)
        .manual_clock()
        .trace()
        .build();
    cluster.register_type("counter", |bytes| {
        let mut r = WireReader::new(bytes);
        Box::new(Counter(r.u64().expect("valid counter state")))
    });

    let objects: Vec<ObjectId> = (0..3)
        .map(|i| {
            cluster
                .create(n(i), Box::new(Counter(0)))
                .expect("creation is on the reliable channel")
        })
        .collect();

    let mut ok_adds = 0u64;
    let mut errors: Vec<(u64, String)> = Vec::new();
    for i in 0..OPS {
        let obj = objects[(i % 3) as usize];

        // phase changes at fixed schedule points keep the run replayable
        match i {
            10 => cluster.partition(n(0), n(1)).expect("valid nodes"),
            18 => cluster.heal(n(0), n(1)).expect("valid nodes"),
            22 => cluster.crash_node(n(2)).expect("crash joins the worker"),
            30 => cluster.restart_node(n(2)).expect("restart respawns it"),
            _ => {}
        }

        // every third op migrates first; its end-request may get lost,
        // leaving the placement lock to expire with the lease
        if i % 3 == 0 {
            match cluster.move_block(obj, n((i % u64::from(NODES)) as u32)) {
                Ok(guard) => drop(guard),
                Err(e) => errors.push((i, format!("move: {e}"))),
            }
        }

        match cluster.invoke(obj, "add", &WireWriter::new().u64(1).finish()) {
            Ok(_) => ok_adds += 1,
            Err(e @ (RuntimeError::Timeout { .. } | RuntimeError::ShuttingDown)) => {
                errors.push((i, format!("invoke: {e}")));
            }
            Err(other) => panic!("op {i}: unexpected error {other}"),
        }
    }

    // quiesce: heal everything, and let every lease (including ones
    // orphaned by dropped end-requests or the crash) expire: the nodes'
    // ticks that fall due as the clock advances sweep them
    cluster.heal_all();
    match cluster.restart_node(n(2)) {
        // the node usually came back at op 30 and is simply still running
        Ok(_) | Err(RuntimeError::NotDead(_)) => {}
        Err(other) => panic!("quiesce restart: {other}"),
    }
    cluster.advance_clock(2 * LEASE_MS);

    // invariant: no leaked placement locks after expiry
    assert_eq!(cluster.held_locks(), vec![], "locks must not leak");

    // invariant: single residency — the directory holds each object
    // exactly once and the occupancy totals agree
    let snapshot = cluster.placement_snapshot();
    assert_eq!(snapshot.len(), objects.len());
    assert_eq!(
        cluster.occupancy().iter().sum::<usize>(),
        objects.len(),
        "every object lives on exactly one node"
    );

    // invariant: no permanently blocked or lost object — every one still
    // answers (reads retry through any residual scheduled loss)
    let mut finals = Vec::new();
    for &obj in &objects {
        let mut value = None;
        for _ in 0..5 {
            if let Ok(out) = cluster.invoke(obj, "get", &[]) {
                value = Some(WireReader::new(&out).u64().expect("counter payload"));
                break;
            }
        }
        finals.push(value.expect("object must stay reachable after healing"));
    }

    // invariant: at-least-once — every acknowledged add is in the state
    assert!(
        finals.iter().sum::<u64>() >= ok_adds,
        "acknowledged adds {ok_adds} exceed surviving state {finals:?}"
    );

    // invariant: counters are consistent with what the run observed
    let stats = cluster.stats();
    assert!(stats.invocations >= ok_adds);
    assert_eq!(
        stats.timeouts > 0,
        !errors.is_empty() || stats.retries > 0,
        "timeouts, retries and surfaced errors must tell one story"
    );

    cluster.shutdown();
    let trace = cluster.take_trace();
    let record = RunRecord {
        digest: trace_digest(&trace),
        finals,
        ok_adds,
        errors,
    };
    (record, trace)
}

/// The descriptions of the messages the plan dropped (partitions aside).
fn dropped(trace: &[TraceEvent]) -> Vec<&str> {
    (trace.iter())
        .filter_map(|ev| match &ev.kind {
            EventKind::Fault {
                fault: MessageFault::Drop,
                desc,
                ..
            } => Some(desc.as_str()),
            _ => None,
        })
        .collect()
}

/// The fault events of a trace: the schedule the plan injected.
fn faults(trace: &[TraceEvent]) -> Vec<&TraceEvent> {
    (trace.iter())
        .filter(|ev| matches!(ev.kind, EventKind::Fault { .. }))
        .collect()
}

#[test]
fn same_seed_chaos_runs_are_identical_and_recover() {
    let (a, trace) = run_chaos(0xC0A5);
    let (b, _) = run_chaos(0xC0A5);

    // the schedule really injected faults…
    let drops = dropped(&trace);
    assert!(!drops.is_empty(), "no drops in {trace:?}");
    assert!(
        drops.iter().any(|desc| desc.starts_with("End(")),
        "no dropped end-requests in {drops:?}"
    );
    let happened = |what: fn(&EventKind) -> bool| trace.iter().any(|ev| what(&ev.kind));
    assert!(happened(|kind| matches!(kind, EventKind::Crash { .. })));
    assert!(happened(|kind| matches!(kind, EventKind::Restart { .. })));

    // …and the two runs are indistinguishable: the same events in the
    // same order, the same surfaced errors, the same surviving state
    assert_eq!(a, b);
}

#[test]
fn different_seeds_produce_different_schedules() {
    let (_, a) = run_chaos(1);
    let (_, b) = run_chaos(2);
    assert_ne!(faults(&a), faults(&b));
}

#[test]
fn partition_blocks_forwards_until_healed() {
    // no random faults at all — only a deterministic partition
    let cluster = Cluster::builder()
        .nodes(2)
        .policy(PolicyKind::ConventionalMigration)
        .call_timeout(Duration::from_millis(60))
        .invoke_retries(0)
        .trace()
        .build();
    cluster.register_type("counter", |bytes| {
        let mut r = WireReader::new(bytes);
        Box::new(Counter(r.u64().expect("valid counter state")))
    });
    let obj = cluster.create(n(0), Box::new(Counter(7))).unwrap();
    {
        let g = cluster.move_block(obj, n(1)).unwrap();
        assert!(g.granted());
    }

    // the partition severs n0<->n1 forwards, but the client's own links
    // are exempt, so direct routes keep working throughout
    cluster.partition(n(0), n(1)).unwrap();
    assert!(
        cluster.invoke(obj, "get", &[]).is_ok(),
        "direct route is up"
    );

    cluster.heal(n(0), n(1)).unwrap();
    let out = cluster.invoke(obj, "get", &[]).unwrap();
    assert_eq!(WireReader::new(&out).u64().unwrap(), 7);
    // both topology changes were recorded for replay diagnostics
    let trace = cluster.take_trace();
    let partitions: Vec<&EventKind> = (trace.iter())
        .map(|ev| &ev.kind)
        .filter(|kind| matches!(kind, EventKind::Partition { .. }))
        .collect();
    let (a, b) = (n(0), n(1));
    let severed = EventKind::Partition {
        a,
        b,
        severed: true,
    };
    let healed = EventKind::Partition {
        a,
        b,
        severed: false,
    };
    assert_eq!(partitions, [&severed, &healed]);
    cluster.shutdown();
}

#[test]
fn crash_preserves_state_and_restart_recovers_it() {
    let cluster = Cluster::builder()
        .nodes(2)
        .call_timeout(Duration::from_millis(60))
        .invoke_retries(0)
        .build();
    cluster.register_type("counter", |bytes| {
        let mut r = WireReader::new(bytes);
        Box::new(Counter(r.u64().expect("valid counter state")))
    });
    let obj = cluster.create(n(1), Box::new(Counter(0))).unwrap();
    let out = cluster
        .invoke(obj, "add", &WireWriter::new().u64(5).finish())
        .unwrap();
    assert_eq!(WireReader::new(&out).u64().unwrap(), 5);

    cluster.crash_node(n(1)).unwrap();
    // the host is dead: the deadline fires instead of hanging forever
    let err = cluster.invoke(obj, "get", &[]).unwrap_err();
    assert!(matches!(err, RuntimeError::Timeout { .. }), "{err}");
    assert!(cluster.stats().timeouts > 0);

    cluster.restart_node(n(1)).unwrap();
    // the restarted worker reclaimed the stashed object, state intact
    let mut value = None;
    for _ in 0..50 {
        if let Ok(out) = cluster.invoke(obj, "get", &[]) {
            value = Some(WireReader::new(&out).u64().unwrap());
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(value, Some(5), "state must survive the crash");
    cluster.shutdown();
}
