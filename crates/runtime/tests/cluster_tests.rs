//! End-to-end tests of the threads-and-channels runtime.

use oml_check::{EventKind, MessageFault, TraceEvent, CLIENT_PROCESS};
use oml_core::attach::AttachmentMode;
use oml_core::ids::NodeId;
use oml_core::policy::PolicyKind;
use oml_runtime::wire::{WireReader, WireWriter};
use oml_runtime::{Cluster, FaultPlan, MobileObject, RuntimeError};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A counter whose state survives linearization.
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
            // the thread the call runs on: inline the caller's, or whichever
            // thread ran what queued
            "where" => Ok(std::thread::current()
                .name()
                .unwrap_or_default()
                .as_bytes()
                .to_vec()),
            other => Err(format!("no such method: {other}")),
        }
    }
    fn linearize(&self) -> Vec<u8> {
        WireWriter::new().u64(self.0).finish().to_vec()
    }
}

fn register_counter(cluster: &Cluster) {
    cluster.register_type("counter", |bytes| {
        let mut r = WireReader::new(bytes);
        Box::new(Counter(r.u64().expect("valid counter state")))
    });
}

fn add(cluster: &Cluster, obj: oml_core::ids::ObjectId, v: u64) -> u64 {
    let out = cluster
        .invoke(obj, "add", &WireWriter::new().u64(v).finish())
        .expect("add succeeds");
    WireReader::new(&out).u64().unwrap()
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

#[test]
fn create_invoke_and_read_back() {
    let cluster = Cluster::builder().nodes(2).build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    assert_eq!(add(&cluster, obj, 5), 5);
    assert_eq!(add(&cluster, obj, 7), 12);
    assert!(cluster.is_resident(obj, n(0)));
    cluster.shutdown();
}

#[test]
fn unknown_method_surfaces_as_method_failed() {
    let cluster = Cluster::builder().nodes(1).build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    let err = cluster.invoke(obj, "frobnicate", &[]).unwrap_err();
    assert!(matches!(err, RuntimeError::MethodFailed { .. }));
    assert!(err.to_string().contains("frobnicate"));
}

#[test]
fn unknown_object_is_reported() {
    let cluster = Cluster::builder().nodes(1).build();
    let ghost = oml_core::ids::ObjectId::new(99);
    assert_eq!(
        cluster.invoke(ghost, "x", &[]).unwrap_err(),
        RuntimeError::UnknownObject(ghost)
    );
    assert_eq!(cluster.location_of(ghost), None);
}

#[test]
fn move_block_migrates_state_and_releases_on_drop() {
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(41))).unwrap();
    {
        let guard = cluster.move_block(obj, n(2)).unwrap();
        assert!(guard.granted());
        assert!(cluster.is_resident(obj, n(2)));
        // state survived the linearize/delinearize round trip
        assert_eq!(add(&cluster, obj, 1), 42);
    }
    // after the end-request the lock is free: another block may take it
    let guard = cluster.move_block(obj, n(1)).unwrap();
    assert!(guard.granted());
    assert!(cluster.is_resident(obj, n(1)));
}

#[test]
fn placement_denies_concurrent_movers() {
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(0))).unwrap();

    let first = cluster.move_block(obj, n(1)).unwrap();
    assert!(first.granted());

    // the conflicting mover is denied and the object stays put…
    let second = cluster.move_block(obj, n(2)).unwrap();
    assert!(!second.granted());
    assert!(cluster.is_resident(obj, n(1)));
    // …but its invocations still work (forwarded to the object)
    assert_eq!(add(&cluster, obj, 3), 3);
    drop(second); // denied end is ignored
    assert!(cluster.is_resident(obj, n(1)));

    drop(first);
    // lock released: now the move succeeds
    let third = cluster.move_block(obj, n(2)).unwrap();
    assert!(third.granted());
    assert!(cluster.is_resident(obj, n(2)));
}

#[test]
fn conventional_migration_always_grants() {
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::ConventionalMigration)
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    let a = cluster.move_block(obj, n(1)).unwrap();
    assert!(a.granted());
    // the steal: conventional semantics let the second mover take it away
    let b = cluster.move_block(obj, n(2)).unwrap();
    assert!(b.granted());
    assert!(cluster.is_resident(obj, n(2)));
    // the first block's calls are now remote, but still correct
    assert_eq!(add(&cluster, obj, 1), 1);
}

#[test]
fn sedentary_policy_denies_moves() {
    let cluster = Cluster::builder()
        .nodes(2)
        .policy(PolicyKind::Sedentary)
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    let guard = cluster.move_block(obj, n(1)).unwrap();
    assert!(!guard.granted());
    assert!(cluster.is_resident(obj, n(0)));
}

#[test]
fn fixed_objects_do_not_migrate() {
    let cluster = Cluster::builder()
        .nodes(2)
        .policy(PolicyKind::ConventionalMigration)
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    cluster.fix(obj);
    assert!(!cluster.move_block(obj, n(1)).unwrap().granted());
    cluster.unfix(obj);
    assert!(cluster.move_block(obj, n(1)).unwrap().granted());
    cluster.refix(obj);
    assert!(!cluster.move_block(obj, n(0)).unwrap().granted());
}

#[test]
fn visit_blocks_return_home() {
    let cluster = Cluster::builder().nodes(2).build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    {
        let guard = cluster.visit_block(obj, n(1)).unwrap();
        assert!(guard.granted());
        assert!(cluster.is_resident(obj, n(1)));
        assert_eq!(add(&cluster, obj, 9), 9);
    }
    // home again, state intact
    assert!(cluster.is_resident(obj, n(0)));
    assert_eq!(add(&cluster, obj, 1), 10);
}

#[test]
fn attachments_drag_the_closure() {
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::ConventionalMigration)
        .build();
    register_counter(&cluster);
    let front = cluster.create(n(0), Box::new(Counter(1))).unwrap();
    let helper = cluster.create(n(1), Box::new(Counter(2))).unwrap();
    cluster.attach(helper, front, None).unwrap();

    let guard = cluster.move_block(front, n(2)).unwrap();
    assert!(guard.granted());
    drop(guard);
    assert!(cluster.is_resident(front, n(2)));
    // the attached helper was surrendered by its host and followed
    for _ in 0..100 {
        if cluster.is_resident(helper, n(2)) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(cluster.is_resident(helper, n(2)));
    // both objects still answer
    assert_eq!(add(&cluster, front, 0), 1);
    assert_eq!(add(&cluster, helper, 0), 2);
}

#[test]
fn a_transitive_closure_respects_the_context() {
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::ConventionalMigration)
        .attachment_mode(AttachmentMode::ATransitive)
        .build();
    register_counter(&cluster);
    let front = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    let mine = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    let foreign = cluster.create(n(0), Box::new(Counter(0))).unwrap();

    let us = cluster.create_alliance("us");
    let them = cluster.create_alliance("them");
    for o in [front, mine] {
        cluster.join_alliance(us, o).unwrap();
    }
    for o in [front, foreign] {
        cluster.join_alliance(them, o).unwrap();
    }
    cluster.attach(mine, front, Some(us)).unwrap();
    cluster.attach(foreign, front, Some(them)).unwrap();

    // moving in the `us` context drags `mine` but not `foreign`
    let guard = cluster.move_block_in(front, n(1), Some(us)).unwrap();
    assert!(guard.granted());
    drop(guard);
    assert!(cluster.is_resident(front, n(1)));
    assert!(cluster.is_resident(mine, n(1)));
    assert!(cluster.is_resident(foreign, n(0)));
}

#[test]
fn migration_without_registered_type_is_refused() {
    let cluster = Cluster::builder().nodes(2).build();
    // no register_type on purpose
    let obj = cluster.create(n(0), Box::new(Counter(7))).unwrap();
    let err = cluster.move_block(obj, n(1)).unwrap_err();
    assert_eq!(err, RuntimeError::UnknownType("counter".into()));
    // the object is unharmed and still invocable
    assert!(cluster.is_resident(obj, n(0)));
    assert_eq!(add(&cluster, obj, 1), 8);
}

#[test]
fn invalid_node_is_rejected() {
    let cluster = Cluster::builder().nodes(2).build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    assert_eq!(
        cluster.move_block(obj, n(9)).unwrap_err(),
        RuntimeError::UnknownNode(n(9))
    );
    assert!(matches!(
        cluster.create(n(9), Box::new(Counter(0))),
        Err(RuntimeError::UnknownNode(_))
    ));
}

#[test]
fn shutdown_is_idempotent_and_drop_safe() {
    let cluster = Cluster::builder().nodes(2).build();
    cluster.shutdown();
    cluster.shutdown();
    drop(cluster); // Drop's shutdown is a no-op
}

#[test]
fn concurrent_invocations_from_many_threads_are_consistent() {
    let cluster = std::sync::Arc::new(Cluster::builder().nodes(4).build());
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(0))).unwrap();

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let cluster = std::sync::Arc::clone(&cluster);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let _ = add(&cluster, obj, 1);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(add(&cluster, obj, 0), 400);
}

#[test]
fn call_by_move_and_visit_follow_the_declaration() {
    use oml_core::lang::OperationDecl;

    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::ConventionalMigration)
        .build();
    register_counter(&cluster);
    // the callee (a scheduler) is fixed at node 2; two argument objects live
    // at nodes 0 and 1
    let scheduler = cluster.create(n(2), Box::new(Counter(0))).unwrap();
    cluster.fix(scheduler);
    let job = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    let schedule = cluster.create(n(1), Box::new(Counter(0))).unwrap();

    // Fig. 1: declare assign: visit job, move schedule -> bool
    let decl: OperationDecl = "declare add: visit job, move schedule -> bool"
        .parse()
        .unwrap();
    let out = cluster
        .invoke_with_decl(
            scheduler,
            &decl,
            &[job, schedule],
            &WireWriter::new().u64(1).finish(),
        )
        .unwrap();
    assert_eq!(WireReader::new(&out).u64().unwrap(), 1);

    // the visit parameter went home; the move parameter stayed at the callee
    assert!(cluster.is_resident(job, n(0)), "visit returns");
    assert!(cluster.is_resident(schedule, n(2)), "move stays");
    assert!(cluster.is_resident(scheduler, n(2)));
}

#[test]
fn invoke_with_decl_checks_arity() {
    use oml_core::lang::OperationDecl;
    let cluster = Cluster::builder().nodes(2).build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    let decl: OperationDecl = "add: move x".parse().unwrap();
    assert_eq!(
        cluster.invoke_with_decl(obj, &decl, &[], &[]).unwrap_err(),
        RuntimeError::ArityMismatch {
            expected: 1,
            got: 0
        }
    );
}

#[test]
fn stats_track_activity() {
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    assert_eq!(cluster.stats().invocations, 0);
    let _ = add(&cluster, obj, 1);
    let _ = add(&cluster, obj, 1);
    {
        let g = cluster.move_block(obj, n(1)).unwrap();
        assert!(g.granted());
        let denied = cluster.move_block(obj, n(2)).unwrap();
        assert!(!denied.granted());
    }
    let s = cluster.stats();
    assert_eq!(s.invocations, 2);
    assert_eq!(s.moves_granted, 1);
    assert_eq!(s.moves_denied, 1);
    assert_eq!(s.objects_migrated, 1);
}

#[test]
fn snapshots_reflect_placement() {
    let cluster = Cluster::builder().nodes(3).build();
    register_counter(&cluster);
    let a = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    let b_obj = cluster.create(n(1), Box::new(Counter(0))).unwrap();
    assert_eq!(cluster.occupancy(), vec![1, 1, 0]);
    {
        let g = cluster.move_block(a, n(2)).unwrap();
        assert!(g.granted());
    }
    let snap = cluster.placement_snapshot();
    assert_eq!(snap, vec![(a, n(2)), (b_obj, n(1))]);
    assert_eq!(cluster.occupancy(), vec![0, 1, 1]);
}

#[test]
fn concurrent_movers_never_lose_the_object() {
    let cluster = std::sync::Arc::new(
        Cluster::builder()
            .nodes(4)
            .policy(PolicyKind::ConventionalMigration)
            .build(),
    );
    register_counter(&cluster);
    let obj = cluster.create(n(0), Box::new(Counter(0))).unwrap();

    let movers: Vec<_> = (0..4)
        .map(|i| {
            let cluster = std::sync::Arc::clone(&cluster);
            std::thread::spawn(move || {
                for _ in 0..25 {
                    if let Ok(guard) = cluster.move_block(obj, n(i)) {
                        let _ = add(&cluster, obj, 1);
                        drop(guard);
                    }
                }
            })
        })
        .collect();
    for t in movers {
        t.join().unwrap();
    }
    // every increment survived every migration
    assert_eq!(add(&cluster, obj, 0), 100);
    assert!(cluster.location_of(obj).is_some());
}

/// The delivery-order contract under inline runs: the caller runs a call on
/// its own thread only when nothing is queued at the node, so an `end`
/// queued behind node-to-node traffic is never overtaken by the same
/// client's next `move` (which transient placement would then deny). A
/// second client keeps node 1 busy installing another closure, so some of
/// the calls below queue — and run on the thread that puts the node back —
/// and some run inline. It runs at least `ROUNDS` rounds, and on until each
/// kind has been seen `SEEN` times (or a generous cap has passed), so a
/// schedule that rarely queues still covers both.
#[test]
fn a_queued_end_is_never_overtaken_by_the_next_move() {
    const ROUNDS: usize = 10_000;
    const SEEN: usize = 100;
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .build();
    register_counter(&cluster);
    let root = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    let other = cluster.create(n(2), Box::new(Counter(0))).unwrap();
    for _ in 0..3 {
        let helper = cluster.create(n(2), Box::new(Counter(0))).unwrap();
        cluster.attach(helper, other, None).unwrap();
    }
    let stop = AtomicBool::new(false);
    let (mut inline, mut queued, mut denied) = (0, 0, None);
    let caller = std::thread::current();
    let me = caller.name().expect("a named test thread");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for to in [n(1), n(2)].into_iter().cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Ok(guard) = cluster.move_block(other, to) {
                    guard.end();
                }
            }
        });
        let cap = Instant::now() + Duration::from_secs(120);
        let mut round = 0;
        'rounds: while round < ROUNDS || (inline.min(queued) < SEEN && Instant::now() < cap) {
            for which in ["first", "second"] {
                let guard = cluster.move_block(root, n(1)).expect("move");
                if !guard.granted() {
                    denied = Some((round, which));
                    break 'rounds;
                }
                guard.end();
            }
            let at = cluster.invoke(root, "where", &[]).expect("where");
            if at != me.as_bytes() {
                queued += 1;
            } else {
                inline += 1;
            }
            round += 1;
        }
        stop.store(true, Ordering::Relaxed);
    });
    if let Some((round, which)) = denied {
        panic!("round {round}: the {which} move overtook the end before it and was denied");
    }
    assert!(
        inline > 0 && queued > 0,
        "inline {inline}, queued {queued}: the schedule never mixed the two"
    );
}

/// An object of the `add`s it saw: how many and the sum of their words,
/// and how many arrived before an earlier `add` of the same client.
#[derive(Default)]
struct Ledger {
    adds: u64,
    sum: u64,
    last: HashMap<u64, u64>,
    out_of_order: u64,
}

impl MobileObject for Ledger {
    fn type_tag(&self) -> &'static str {
        "ledger"
    }
    fn invoke(&mut self, method: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        if method == "add" {
            let mut r = WireReader::new(payload);
            let (client, seq, word) = (r.u64()?, r.u64()?, r.u64()?);
            if self
                .last
                .insert(client, seq)
                .is_some_and(|last| last >= seq)
            {
                self.out_of_order += 1;
            }
            self.adds += 1;
            self.sum = self.sum.wrapping_add(word);
        }
        let w = WireWriter::new().u64(self.adds).u64(self.sum);
        Ok(w.u64(self.out_of_order).finish().to_vec())
    }
    fn linearize(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// Four clients call objects of one node at once, so some calls run on
/// their callers' threads and the rest queue for the node's: every `add`
/// lands exactly once, and each client's in the order it made them.
#[test]
fn concurrent_clients_of_one_node_see_every_add_once_and_in_order() {
    const CLIENTS: u64 = 4;
    const ADDS: u64 = 5_000;
    const OBJECTS: usize = 4;
    let cluster = Cluster::builder().nodes(2).build();
    let objects: Vec<_> = (0..OBJECTS)
        .map(|_| cluster.create(n(1), Box::new(Ledger::default())).unwrap())
        .collect();
    // per client and object: the acknowledged adds and the sum of their words
    let tallies: Vec<Vec<(u64, u64)>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (cluster, objects) = (&cluster, &objects);
                scope.spawn(move || {
                    let mut tally = vec![(0u64, 0u64); OBJECTS];
                    for seq in 0..ADDS {
                        let o = (client + seq) as usize % OBJECTS;
                        let word = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ client;
                        let payload = WireWriter::new().u64(client).u64(seq).u64(word);
                        cluster
                            .invoke(objects[o], "add", &payload.finish())
                            .expect("add");
                        tally[o] = (tally[o].0 + 1, tally[o].1.wrapping_add(word));
                    }
                    tally
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for (o, &object) in objects.iter().enumerate() {
        let out = cluster.invoke(object, "get", &[]).unwrap();
        let mut r = WireReader::new(&out);
        let (adds, sum, out_of_order) = (r.u64().unwrap(), r.u64().unwrap(), r.u64().unwrap());
        let want = tallies.iter().fold((0, 0), |(adds, sum): (u64, u64), t| {
            (adds + t[o].0, sum.wrapping_add(t[o].1))
        });
        assert_eq!((adds, sum), want, "object {o}: not exactly once");
        assert_eq!(
            out_of_order, 0,
            "object {o}: a client's adds were reordered"
        );
    }
}

/// A run that panics on the caller's thread — here the closure's `Install`
/// at its destination, which the caller runs after the move step it started
/// — unwinds into the caller and loses no node: every state it claimed went
/// back to its slot, so every node still answers within the call timeout.
/// Under a manual clock no tick runs, so once a node is idle every call to
/// it runs on its caller's thread.
#[test]
fn a_panicking_install_unwinds_into_the_caller_and_every_node_still_answers() {
    const MARKED: u64 = u64::MAX;
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::ConventionalMigration)
        .manual_clock()
        .call_timeout(Duration::from_secs(1))
        .invoke_retries(0)
        .build();
    cluster.register_type("counter", |bytes| {
        let value = WireReader::new(bytes).u64().expect("valid counter state");
        assert_ne!(value, MARKED, "a delinearizer failed on a marked state");
        Box::new(Counter(value))
    });
    let probes: Vec<_> = (0..3)
        .map(|i| cluster.create(n(i), Box::new(Counter(i.into()))).unwrap())
        .collect();
    let root = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    let marked = cluster.create(n(0), Box::new(Counter(MARKED))).unwrap();
    cluster.attach(marked, root, None).unwrap();
    for &probe in &probes {
        while cluster
            .invoke(probe, "where", &[])
            .unwrap()
            .starts_with(b"oml-node-")
        {}
    }
    let moved = std::panic::catch_unwind(AssertUnwindSafe(|| cluster.move_block(root, n(1))));
    assert!(
        moved.is_err(),
        "the install's panic did not reach the caller"
    );
    for (i, &probe) in probes.iter().enumerate() {
        assert_eq!(add(&cluster, probe, 0), i as u64, "node {i} answers");
    }
}

/// A call whose message the fault plan drops wakes its caller at once:
/// with nothing left to answer it, it fails with `Timeout` without waiting
/// out its call timeout.
#[test]
fn a_dropped_call_fails_at_once_not_at_its_deadline() {
    let cluster = Cluster::builder()
        .nodes(2)
        .faults(FaultPlan::seeded(3).drop_probability(1.0))
        .call_timeout(Duration::from_secs(10))
        .invoke_retries(0)
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(1), Box::new(Counter(0))).unwrap();
    let start = Instant::now();
    let got = cluster.invoke(obj, "get", &[]);
    assert!(matches!(got, Err(RuntimeError::Timeout { .. })), "{got:?}");
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "waited {took:?}");
}

/// Each dropped call is one typed drop on the client's link to the host,
/// under the next link seq, and is never sent.
#[test]
fn each_dropped_call_is_one_traced_drop_and_no_send() {
    let cluster = Cluster::builder()
        .nodes(2)
        .faults(FaultPlan::seeded(3).drop_probability(1.0))
        .invoke_retries(0)
        .trace()
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(1), Box::new(Counter(0))).unwrap();
    let _ = cluster.take_trace(); // the create is reliable
    for _ in 0..3 {
        let got = cluster.invoke(obj, "get", &[]);
        assert!(matches!(got, Err(RuntimeError::Timeout { .. })), "{got:?}");
    }
    let trace = cluster.take_trace();
    let drops: Vec<Option<u64>> = (trace.iter())
        .filter_map(|ev| match &ev.kind {
            EventKind::Fault {
                fault: MessageFault::Drop,
                to: 1,
                seq,
                desc,
            } if ev.process == CLIENT_PROCESS && desc.starts_with("Invoke(") => Some(*seq),
            _ => None,
        })
        .collect();
    assert_eq!(drops, [Some(0), Some(1), Some(2)], "{trace:?}");
    let faults = trace
        .iter()
        .filter(|ev| matches!(ev.kind, EventKind::Fault { .. }));
    assert_eq!(faults.count(), 3, "{trace:?}");
    let sent = trace
        .iter()
        .any(|ev| matches!(ev.kind, EventKind::Send { .. }));
    assert!(!sent, "a dropped call was sent: {trace:?}");
}

/// The delay the trace records for the first message whose description
/// names `what` (e.g. `Invoke(`), in milliseconds.
fn delay_of(trace: &[TraceEvent], what: &str) -> u64 {
    let delay = trace.iter().find_map(|ev| match &ev.kind {
        EventKind::Fault {
            fault: MessageFault::Delay(ms),
            desc,
            ..
        } if desc.contains(what) => Some(*ms),
        _ => None,
    });
    delay.unwrap_or_else(|| panic!("no delayed {what} in {trace:?}"))
}

/// The typed delay is the delay imposed: under a manual clock a delayed
/// call runs exactly when the clock reaches it, not a millisecond before.
#[test]
fn a_delayed_call_runs_when_the_clock_reaches_its_traced_delay() {
    let cluster = Cluster::builder()
        .nodes(2)
        .faults(FaultPlan::seeded(5).delay_probability(1.0, 40))
        .call_timeout(Duration::from_millis(20))
        .invoke_retries(0)
        .manual_clock()
        .trace()
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(1), Box::new(Counter(0))).unwrap();
    // the frozen clock holds the call back past its (wall-clock) deadline
    let got = cluster.invoke(obj, "add", &WireWriter::new().u64(1).finish());
    assert!(matches!(got, Err(RuntimeError::Timeout { .. })), "{got:?}");
    let ms = delay_of(&cluster.take_trace(), "Invoke(");
    assert!((1..=40).contains(&ms), "{ms} ms");
    cluster.advance_clock(ms - 1);
    assert_eq!(cluster.stats().invocations, 0, "ran before its delay");
    cluster.advance_clock(1);
    assert_eq!(cluster.stats().invocations, 1, "did not run at its delay");
    cluster.shutdown();
}

/// Messages the fault plan delays past a shutdown meet the shutdown rule
/// when the shutdown begins: a call is refused with `ShuttingDown` at once
/// — it does not wait out its whole call timeout for a delivery nobody
/// runs — and an end-request is still applied, releasing its lock.
#[test]
fn what_is_delayed_at_shutdown_meets_the_shutdown_rule_at_once() {
    let cluster = Cluster::builder()
        .nodes(2)
        .faults(FaultPlan::seeded(1).delay_probability(1.0, 3_000))
        .call_timeout(Duration::from_secs(8))
        .invoke_retries(0)
        .trace()
        .build();
    register_counter(&cluster);
    let obj = cluster.create(n(1), Box::new(Counter(0))).unwrap();
    let guard = cluster.move_block(obj, n(0)).expect("move");
    assert!(guard.granted());
    std::thread::scope(|scope| {
        let call = scope.spawn(|| cluster.invoke(obj, "get", &[]));
        guard.end();
        // each take drains: keep what was taken
        let mut trace = cluster.take_trace();
        let delayed = |trace: &[TraceEvent]| {
            let faults = trace
                .iter()
                .filter(|ev| matches!(ev.kind, EventKind::Fault { .. }));
            faults.count()
        };
        while delayed(&trace) < 3 {
            std::thread::yield_now();
            trace.extend(cluster.take_trace());
        }
        for what in ["Invoke(", "End("] {
            let ms = delay_of(&trace, what);
            assert!(
                ms > 200,
                "{what} falls due too soon to outlive shutdown: {ms} ms"
            );
        }
        std::thread::sleep(Duration::from_millis(50));
        let shutdown = Instant::now();
        cluster.shutdown();
        assert_eq!(call.join().unwrap(), Err(RuntimeError::ShuttingDown));
        let waited = shutdown.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "answered {waited:?} after shutdown"
        );
    });
    assert!(
        cluster.held_locks().is_empty(),
        "the delayed end was not applied"
    );
}
