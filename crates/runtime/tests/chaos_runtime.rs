//! Deterministic faults against a live cluster: a node-pair partition
//! severs forwards until healed (and both topology changes are traced),
//! and a crash keeps its node's state for the restart to reclaim. The
//! seeded chaos schedule itself — loss, delays, duplicates, lost
//! end-requests, a partition and a crash/restart cycle, replayed bit for
//! bit — is `oml_experiments::check::replay_chaos`.

use std::time::Duration;

use oml_check::EventKind;
use oml_core::policy::PolicyKind;
use oml_runtime::wire::{WireReader, WireWriter};
use oml_runtime::{Cluster, RuntimeError};

mod common;
use common::{n, register_counter, Counter};

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
    register_counter(&cluster);
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
    register_counter(&cluster);
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
