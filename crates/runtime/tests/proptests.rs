//! Property-based tests: random operation sequences against the real
//! runtime never lose objects, deadlock, or corrupt state.

use oml_core::attach::AttachmentMode;
use oml_core::ids::{NodeId, ObjectId};
use oml_core::policy::PolicyKind;
use oml_runtime::wire::{WireReader, WireWriter};
use oml_runtime::{Cluster, MobileObject};
use proptest::prelude::*;

/// A register: `set` overwrites, `get` reads; migrations must preserve it.
struct Register(u64);

impl MobileObject for Register {
    fn type_tag(&self) -> &'static str {
        "register"
    }
    fn invoke(&mut self, method: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        match method {
            "set" => {
                self.0 = WireReader::new(payload).u64()?;
                Ok(Vec::new())
            }
            "get" => Ok(WireWriter::new().u64(self.0).finish().to_vec()),
            other => Err(format!("no such method: {other}")),
        }
    }
    fn linearize(&self) -> Vec<u8> {
        WireWriter::new().u64(self.0).finish().to_vec()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Set { obj: usize, value: u64 },
    Get { obj: usize },
    Move { obj: usize, to: u32, end: bool },
    Visit { obj: usize, to: u32 },
    FixToggle { obj: usize },
    Attach { a: usize, b: usize },
    Detach { a: usize, b: usize },
}

fn ops(objects: usize, nodes: u32) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0..objects, any::<u64>()).prop_map(|(obj, value)| Op::Set { obj, value }),
        (0..objects).prop_map(|obj| Op::Get { obj }),
        (0..objects, 0..nodes, any::<bool>()).prop_map(|(obj, to, end)| Op::Move { obj, to, end }),
        (0..objects, 0..nodes).prop_map(|(obj, to)| Op::Visit { obj, to }),
        (0..objects).prop_map(|obj| Op::FixToggle { obj }),
        (0..objects, 0..objects).prop_map(|(a, b)| Op::Attach { a, b }),
        (0..objects, 0..objects).prop_map(|(a, b)| Op::Detach { a, b }),
    ];
    proptest::collection::vec(op, 1..60)
}

fn run_sequence(policy: PolicyKind, mode: AttachmentMode, script: &[Op]) {
    const OBJECTS: usize = 4;
    const NODES: u32 = 3;

    let cluster = Cluster::builder()
        .nodes(NODES)
        .policy(policy)
        .attachment_mode(mode)
        .build();
    cluster.register_type("register", |bytes| {
        Box::new(Register(WireReader::new(bytes).u64().expect("state")))
    });

    let objs: Vec<ObjectId> = (0..OBJECTS)
        .map(|i| {
            cluster
                .create(NodeId::new(i as u32 % NODES), Box::new(Register(i as u64)))
                .expect("create")
        })
        .collect();
    // shadow model of the register values
    let mut expected: Vec<u64> = (0..OBJECTS as u64).collect();
    let mut fixed = [false; OBJECTS];

    for op in script {
        match *op {
            Op::Set { obj, value } => {
                cluster
                    .invoke(objs[obj], "set", &WireWriter::new().u64(value).finish())
                    .expect("set");
                expected[obj] = value;
            }
            Op::Get { obj } => {
                let out = cluster.invoke(objs[obj], "get", &[]).expect("get");
                let got = WireReader::new(&out).u64().unwrap();
                assert_eq!(got, expected[obj], "register {obj} lost a write");
            }
            Op::Move { obj, to, end } => {
                let guard = cluster
                    .move_block(objs[obj], NodeId::new(to))
                    .expect("move");
                if end {
                    guard.end();
                }
                // else: drop at scope end (same effect, different path)
            }
            Op::Visit { obj, to } => {
                let guard = cluster
                    .visit_block(objs[obj], NodeId::new(to))
                    .expect("visit");
                drop(guard);
            }
            Op::FixToggle { obj } => {
                if fixed[obj] {
                    cluster.unfix(objs[obj]);
                } else {
                    cluster.fix(objs[obj]);
                }
                fixed[obj] = !fixed[obj];
            }
            Op::Attach { a, b } => {
                if a != b {
                    let _ = cluster.attach(objs[a], objs[b], None);
                }
            }
            Op::Detach { a, b } => {
                let _ = cluster.detach(objs[a], objs[b]);
            }
        }
    }

    // every object is still reachable, at a valid node, with correct state
    for (i, &o) in objs.iter().enumerate() {
        let node = cluster.location_of(o).expect("object must have a location");
        assert!(node.as_u32() < NODES);
        let out = cluster.invoke(o, "get", &[]).expect("final get");
        assert_eq!(WireReader::new(&out).u64().unwrap(), expected[i]);
    }
    cluster.shutdown();
}

/// How one step of the guard-lifecycle script releases its guards.
#[derive(Debug, Clone, Copy)]
enum Release {
    Drop,
    End,
    TryEnd,
}

#[derive(Debug, Clone, Copy)]
struct GuardStep {
    to: u32,
    /// Also open a conflicting block (which placement must deny).
    contend: Option<u32>,
    release: Release,
}

fn guard_steps(nodes: u32) -> impl Strategy<Value = Vec<GuardStep>> {
    let release = prop_oneof![
        Just(Release::Drop),
        Just(Release::End),
        Just(Release::TryEnd),
    ];
    let step =
        (0..nodes, proptest::option::of(0..nodes), release).prop_map(|(to, contend, release)| {
            GuardStep {
                to,
                contend,
                release,
            }
        });
    proptest::collection::vec(step, 1..20)
}

/// Releases a guard along the chosen path; all three must behave the
/// same as far as the lock table is concerned.
fn release(guard: oml_runtime::MoveGuard<'_>, how: Release, shut: bool) {
    match how {
        Release::Drop => drop(guard),
        Release::End => guard.end(),
        Release::TryEnd => {
            let r = guard.try_end();
            if shut {
                assert_eq!(r, Err(oml_runtime::RuntimeError::ShuttingDown));
            } else {
                r.expect("a live cluster accepts the end-request");
            }
        }
    }
}

/// Every guard — granted, denied, or outliving the cluster — ends its
/// block exactly once; no release path leaks a placement lock.
fn run_guard_sequence(script: &[GuardStep], shutdown_at: Option<usize>) {
    const NODES: u32 = 3;
    // leased locks on a manual clock: time stands still during the
    // script (no spurious expiry), and a lock held by a guard that
    // outlives the cluster expires when the cluster shuts down
    let cluster = Cluster::builder()
        .nodes(NODES)
        .policy(PolicyKind::TransientPlacement)
        .lease_ms(1_000)
        .manual_clock()
        .build();
    cluster.register_type("register", |bytes| {
        Box::new(Register(WireReader::new(bytes).u64().expect("state")))
    });
    let obj = cluster
        .create(NodeId::new(0), Box::new(Register(9)))
        .expect("create");

    let mut shut = false;
    for (i, step) in script.iter().enumerate() {
        if shutdown_at == Some(i) {
            // the shutdown interleaving: take a guard first, shut the
            // cluster down under it, then run the release path anyway
            let held = cluster.move_block(obj, NodeId::new(step.to)).expect("move");
            cluster.shutdown();
            shut = true;
            release(held, step.release, true);
        }
        match cluster.move_block(obj, NodeId::new(step.to)) {
            Err(e) => {
                assert!(shut, "a live cluster grants sequential moves: {e}");
                assert_eq!(e, oml_runtime::RuntimeError::ShuttingDown);
                continue;
            }
            Ok(guard) => {
                assert!(!shut, "no guards after shutdown");
                assert!(guard.granted(), "sequential movers never conflict");
                if let Some(to) = step.contend {
                    let denied = cluster.move_block(obj, NodeId::new(to)).expect("move");
                    assert!(!denied.granted(), "the lock is held by the open block");
                    release(denied, step.release, false);
                }
                release(guard, step.release, false);
                // a blocking invoke to the same host is a fence: the
                // fire-and-forget end-request travels the same queue
                cluster.invoke(obj, "get", &[]).expect("fence read");
                assert_eq!(cluster.held_locks(), vec![], "leaked a lock at step {i}");
            }
        }
    }
    cluster.shutdown();
    // a guard released after shutdown cannot deliver its end-request —
    // shutdown expired its lease, so the lock is never leaked forever
    assert_eq!(cluster.held_locks(), vec![], "leaked a lock past shutdown");
}

/// Moves a working set of `size` around at replication `k` and holds the
/// outcome against what one message per object used to produce: `size`
/// objects migrated per real move, every member resident where the root
/// went, and at every replica each member's copy at exactly its own
/// `(object_epoch, seq)`. Each step is a destination and a touch mask: bit
/// `i` writes member `i` before the move. A refresh writes a member only
/// when the replica set does not hold its state yet — its first refresh,
/// or the first after a touch — so that is what the model counts: at a
/// real move for every such member, at the block's end for the root.
fn run_closure_moves(size: usize, k: usize, steps: &[(u32, u64)]) {
    use oml_check::EventKind;
    use std::collections::HashMap;

    let cluster = Cluster::builder()
        .nodes(3)
        .policy(PolicyKind::TransientPlacement)
        .manual_clock()
        .failure_detector(50, 3)
        .replication(k)
        .trace()
        .build();
    cluster.register_type("register", |bytes| {
        Box::new(Register(WireReader::new(bytes).u64().expect("state")))
    });
    let set: Vec<ObjectId> = (0..size)
        .map(|i| {
            cluster
                .create(NodeId::new(0), Box::new(Register(i as u64)))
                .expect("create")
        })
        .collect();
    for &helper in &set[1..] {
        cluster.attach(helper, set[0], None).expect("attach");
    }
    let replicas: Vec<Vec<NodeId>> = set
        .iter()
        .map(|&o| cluster.replica_set(o).expect("replicated"))
        .collect();

    let mut at = 0;
    let mut seq = vec![0u64; size];
    // whether the replica set lacks member `i`'s current state
    let mut unheld = vec![true; size];
    let (mut migrated, mut refreshed, mut fresh_value) = (0u64, 0u64, 1u64 << 32);
    // a refresh of the members `which` writes those unheld, and counts them
    fn refresh(seq: &mut [u64], unheld: &mut [bool], which: std::ops::Range<usize>) -> u64 {
        let written = which.filter(|&i| std::mem::take(&mut unheld[i]));
        written.map(|i| seq[i] += 1).count() as u64
    }
    // each write collects its quorum before the next supersedes it
    let settle = |seq: &[u64]| {
        for _ in 0..2_000 {
            let health = cluster.checkpoint_health();
            let settled = |i: usize| {
                health
                    .iter()
                    .any(|h| h.object == set[i] && h.quorum.unwrap_or_default() == (0, seq[i]))
            };
            if (0..size).all(settled) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };
    for &(dest, touch) in steps {
        for (i, &member) in set.iter().enumerate().filter(|&(i, _)| touch >> i & 1 == 1) {
            fresh_value += 1;
            let value = WireWriter::new().u64(fresh_value).finish();
            cluster.invoke(member, "set", &value).expect("touch");
            unheld[i] = true;
        }
        let guard = cluster.move_block(set[0], NodeId::new(dest)).expect("move");
        assert!(guard.granted());
        if dest != at {
            at = dest;
            migrated += size as u64;
            refreshed += refresh(&mut seq, &mut unheld, 0..size);
        }
        settle(&seq);
        guard.end();
        refreshed += refresh(&mut seq, &mut unheld, 0..1);
        settle(&seq);
    }
    for &member in &set {
        assert!(
            cluster.is_resident(member, NodeId::new(at)),
            "{member} strayed"
        );
    }
    let stats = cluster.stats();
    assert_eq!(stats.objects_migrated, migrated);
    assert_eq!(stats.checkpoint_refreshes, refreshed);
    // the root's install refresh may be superseded by its end's before the
    // acks are in; every other write collects its quorum
    assert_eq!(
        stats.quorum_refreshes + stats.quorum_refresh_failures,
        refreshed
    );
    assert!(stats.quorum_refresh_failures <= steps.len() as u64);

    // shutdown drains the puts still queued at replicas beyond the quorum
    cluster.shutdown();
    let mut stored: HashMap<(ObjectId, NodeId), (u64, u64)> = HashMap::new();
    for ev in cluster.take_trace() {
        if let EventKind::CheckpointStored {
            object,
            replica,
            object_epoch,
            seq,
        } = ev.kind
        {
            let slot = stored.entry((object, replica)).or_default();
            *slot = (*slot).max((object_epoch, seq));
        }
    }
    for (i, &member) in set.iter().enumerate() {
        for &replica in &replicas[i] {
            assert_eq!(
                stored.get(&(member, replica)),
                Some(&(0, seq[i])),
                "{member} at {replica}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn closures_of_any_size_keep_the_per_object_outcome(
        size in 1usize..65,
        k in 1usize..4,
        steps in proptest::collection::vec(
            (0u32..3, prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()]),
            1..4,
        ),
    ) {
        run_closure_moves(size, k, &steps);
    }

    #[test]
    fn placement_survives_random_scripts(script in ops(4, 3)) {
        run_sequence(PolicyKind::TransientPlacement, AttachmentMode::Unrestricted, &script);
    }

    #[test]
    fn conventional_survives_random_scripts(script in ops(4, 3)) {
        run_sequence(PolicyKind::ConventionalMigration, AttachmentMode::Unrestricted, &script);
    }

    #[test]
    fn exclusive_attachment_survives_random_scripts(script in ops(4, 3)) {
        run_sequence(PolicyKind::TransientPlacement, AttachmentMode::Exclusive, &script);
    }

    #[test]
    fn dynamic_policy_survives_random_scripts(script in ops(4, 3)) {
        run_sequence(PolicyKind::CompareAndReinstantiate, AttachmentMode::Unrestricted, &script);
    }

    /// Satellite of the fault work: under any interleaving of granted,
    /// denied and shutdown-crossed guards, dropping a [`MoveGuard`]
    /// always ends its block — no release path leaks a placement lock.
    #[test]
    fn move_guards_always_end_their_blocks(
        script in guard_steps(3),
        shutdown_frac in proptest::option::of(0.0f64..1.0),
    ) {
        let shutdown_at = shutdown_frac.map(|f| {
            // scale into the script so the shutdown interleaving is hit
            ((script.len() as f64 * f) as usize).min(script.len() - 1)
        });
        run_guard_sequence(&script, shutdown_at);
    }
}
