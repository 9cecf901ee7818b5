//! End-to-end protocol verification: drive real clusters with tracing
//! enabled, feed the collected event streams to `oml-check`, and assert the
//! paper's invariants hold — single residency, place-lock exclusivity,
//! closure atomicity, lease soundness. In a debug build the same runs arm
//! the lock-nesting trap, which aborts the test binary at any lock taken
//! while another is held; the final test touches every lock site.

use std::time::Duration;

use oml_check::{check_trace, EventKind};
use oml_core::ids::ObjectId;
use oml_core::policy::PolicyKind;
use oml_runtime::wire::WireWriter;
use oml_runtime::{Cluster, MobileObject, RuntimeError};

mod common;
use common::{n, register_counter, Counter};

#[test]
fn fault_free_migrations_leave_a_clean_trace() {
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .lease_ms(1_000)
        .manual_clock()
        .trace()
        .build();
    assert!(cluster.trace_enabled());
    register_counter(&cluster);

    // an attachment closure that must migrate atomically, in an alliance
    let a = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    let b = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    let ally = cluster.create_alliance("pair");
    cluster.join_alliance(ally, a).unwrap();
    cluster.join_alliance(ally, b).unwrap();
    cluster.attach(a, b, Some(ally)).unwrap();

    for round in 0..3u32 {
        let to = n((round + 1) % 3);
        let guard = cluster.move_block_in(a, to, Some(ally)).unwrap();
        assert!(guard.granted());
        cluster
            .invoke(a, "add", &WireWriter::new().u64(1).finish())
            .unwrap();
        drop(guard); // end-request releases the placement lock
    }
    // a visit: move there and back
    {
        let guard = cluster.visit_block(b, n(2)).unwrap();
        assert!(guard.granted());
        cluster.invoke(b, "get", &[]).unwrap();
    }
    cluster.detach(a, b);
    cluster.shutdown();

    let trace = cluster.take_trace();
    assert!(!trace.is_empty(), "tracing must record the protocol");
    let report = check_trace(&trace);
    assert!(report.is_clean(), "{report}");
}

/// A root at node 0 with `helpers` attached helpers, traced.
fn traced_working_set(helpers: usize) -> (Cluster, Vec<ObjectId>) {
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .trace()
        .build();
    register_counter(&cluster);
    let set: Vec<ObjectId> = (0..=helpers)
        .map(|_| cluster.create(n(0), Box::new(Counter(0))).unwrap())
        .collect();
    for &helper in &set[1..] {
        cluster.attach(helper, set[0], None).unwrap();
    }
    (cluster, set)
}

#[test]
fn a_closure_arrives_in_one_step_of_its_destination() {
    let (cluster, set) = traced_working_set(7);
    let guard = cluster.move_block(set[0], n(2)).unwrap();
    assert!(guard.granted());
    // the grant is the destination's answer: nothing is still on its way
    for &member in &set {
        assert!(cluster.is_resident(member, n(2)), "{member} lags behind");
    }
    drop(guard);
    cluster.shutdown();

    // in the destination's program order the eight installs are adjacent:
    // no receive, no other handler, runs between two members
    let trace = cluster.take_trace();
    let at_dest: Vec<_> = trace.iter().filter(|ev| ev.process == 2).collect();
    let installs: Vec<usize> = at_dest
        .iter()
        .enumerate()
        .filter(|(_, ev)| matches!(&ev.kind, EventKind::Install { object } if set.contains(object)))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(installs.len(), set.len());
    assert_eq!(installs[set.len() - 1] - installs[0], set.len() - 1);
    assert!(
        matches!(&at_dest[installs[set.len() - 1]].kind, EventKind::Install { object } if *object == set[0]),
        "members arrive before the main object"
    );
    let report = check_trace(&trace);
    assert!(report.is_clean(), "{report}");
}

/// A helper whose type no node can delinearize.
struct Opaque;

impl MobileObject for Opaque {
    fn type_tag(&self) -> &'static str {
        "opaque"
    }
    fn invoke(&mut self, _method: &str, _payload: &[u8]) -> Result<Vec<u8>, String> {
        Ok(Vec::new())
    }
    fn linearize(&self) -> Vec<u8> {
        Vec::new()
    }
}

#[test]
fn an_unshippable_member_is_left_out_before_the_closure_is_committed() {
    let (cluster, set) = traced_working_set(2);
    let opaque = cluster.create(n(0), Box::new(Opaque)).unwrap();
    cluster.attach(opaque, set[0], None).unwrap();

    let guard = cluster.move_block(set[0], n(1)).unwrap();
    assert!(guard.granted());
    drop(guard);
    for &member in &set {
        assert!(cluster.is_resident(member, n(1)));
    }
    assert!(
        cluster.is_resident(opaque, n(0)),
        "it could not have landed"
    );
    cluster.invoke(opaque, "ping", &[]).expect("still alive");
    cluster.shutdown();

    // the runtime never promised to ship it, so nothing was left behind
    let report = check_trace(&cluster.take_trace());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn an_unshippable_main_object_refuses_the_move_before_anything_ships() {
    let cluster = Cluster::builder().nodes(2).trace().build();
    register_counter(&cluster);
    let main = cluster.create(n(0), Box::new(Opaque)).unwrap();
    let helper = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    cluster.attach(helper, main, None).unwrap();

    assert_eq!(
        cluster.move_block(main, n(1)).unwrap_err(),
        RuntimeError::UnknownType("opaque".into())
    );
    assert!(cluster.is_resident(main, n(0)));
    assert!(cluster.is_resident(helper, n(0)), "the working set split");
    assert_eq!(cluster.stats().objects_migrated, 0);
    cluster.shutdown();
    let report = check_trace(&cluster.take_trace());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn crash_releases_the_stranded_placement_locks_immediately() {
    // no lease TTL: without the crash-release path these locks would be
    // held forever, since the holders' end-requests can never arrive
    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .call_timeout(Duration::from_millis(80))
        .invoke_retries(0)
        .trace()
        .build();
    register_counter(&cluster);

    let obj = cluster.create(n(0), Box::new(Counter(3))).unwrap();
    let guard = cluster.move_block(obj, n(2)).unwrap();
    assert!(guard.granted());
    assert_eq!(cluster.held_locks().len(), 1, "the move-block holds a lock");

    cluster.crash_node(n(2)).unwrap();
    assert_eq!(
        cluster.held_locks(),
        vec![],
        "a crash must release the dead host's placement locks"
    );

    // the object itself survived in the stash and a new block can claim it
    cluster.restart_node(n(2)).unwrap();
    let mut granted = false;
    for _ in 0..50 {
        if let Ok(g) = cluster.move_block(obj, n(1)) {
            granted = g.granted();
            drop(g);
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(granted, "the released lock must be claimable again");

    drop(guard); // the stale end-request is now a harmless no-op
    cluster.shutdown();
    let report = check_trace(&cluster.take_trace());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn no_lock_is_taken_while_another_is_held() {
    // exercise every lock site in one scenario…
    let cluster = Cluster::builder()
        .nodes(2)
        .policy(PolicyKind::CompareAndReinstantiate)
        .lease_ms(500)
        .manual_clock()
        .failure_detector(50, 3)
        .trace()
        .build();
    register_counter(&cluster);
    let a = cluster.create(n(0), Box::new(Counter(0))).unwrap();
    let b = cluster.create(n(1), Box::new(Counter(0))).unwrap();
    let ally = cluster.create_alliance("pair");
    cluster.join_alliance(ally, a).unwrap();
    cluster.join_alliance(ally, b).unwrap();
    cluster.attach(a, b, Some(ally)).unwrap();
    cluster.fix(b);
    let guard = cluster.move_block_in(a, n(1), Some(ally)).unwrap();
    drop(guard);
    cluster.invoke(a, "get", &[]).unwrap();
    cluster.advance_clock(1_000);
    cluster.crash_node(n(1)).unwrap();
    // declared dead, its objects reinstantiated, then back under a new epoch
    cluster.advance_clock(200);
    cluster.detector_sweep();
    cluster.restart_node(n(1)).unwrap();
    cluster.shutdown();

    // …under the trap, which a nesting would have fired by now in a debug
    // build; the scenario's own trace must hold every invariant
    let report = check_trace(&cluster.take_trace());
    assert!(report.is_clean(), "{report}");
}
