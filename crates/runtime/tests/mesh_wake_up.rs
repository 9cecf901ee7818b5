//! The hand-off guard of the in-process mesh, counted rather than timed. A
//! client call to an idle node runs on the caller's thread, so a sequential
//! invoke wakes no thread at all; handing each call to the node's thread and
//! its reply back would cost two voluntary context switches per invoke
//! (1.95–2.00 measured with every call handed over). This file holds one
//! test so that no other test's threads are counted with it.

use oml_core::ids::{NodeId, ObjectId};
use oml_runtime::wire::{WireReader, WireWriter};
use oml_runtime::{Cluster, MobileObject};

struct Counter(u64);

impl MobileObject for Counter {
    fn type_tag(&self) -> &'static str {
        "counter"
    }
    fn invoke(&mut self, method: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        if method == "add" {
            self.0 += WireReader::new(payload).u64()?;
        }
        Ok(WireWriter::new().u64(self.0).finish().to_vec())
    }
    fn linearize(&self) -> Vec<u8> {
        WireWriter::new().u64(self.0).finish().to_vec()
    }
}

/// Voluntary context switches this process's threads have made so far
/// (`/proc/self/task/*/status`): one each time a thread blocks.
fn voluntary_switches() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|n| n.trim().parse::<u64>().ok())
        })
        .sum()
}

/// One client, 20 000 sequential invokes on objects spread over three
/// nodes, at most 0.2 voluntary context switches per invoke summed over the
/// process.
///
/// Only an optimized build, the one the benchmark measures, is held to the
/// bound. The count also takes in each node thread's idle tick (every
/// 25 ms, 120 a second for three nodes), which grows with wall time, not
/// with calls: the 20 000 calls take ~0.02 s optimized and ~0.09 s
/// unoptimized here (0.000 and 0.001 switches per invoke), but a build
/// slowed enough — a sanitizer on a loaded runner — would read its own
/// speed rather than its hand-offs.
#[test]
fn a_sequential_invoke_wakes_no_thread() {
    const NODES: u32 = 3;
    const INVOKES: u64 = 20_000;
    const MAX_PER_INVOKE: f64 = 0.2;
    let cluster = Cluster::builder().nodes(NODES).build();
    let objects: Vec<ObjectId> = (0..4 * NODES)
        .map(|i| {
            let at = NodeId::new(i % NODES);
            cluster.create(at, Box::new(Counter(0))).expect("create")
        })
        .collect();
    let add = |i: u64| {
        let object = objects[i as usize % objects.len()];
        let one = WireWriter::new().u64(1).finish();
        cluster.invoke(object, "add", &one).expect("invoke")
    };
    for i in 0..1_000 {
        add(i);
    }
    let before = voluntary_switches();
    for i in 0..INVOKES {
        add(i);
    }
    let per_invoke = (voluntary_switches() - before) as f64 / INVOKES as f64;
    let total: u64 = objects
        .iter()
        .map(|&o| WireReader::new(&cluster.invoke(o, "get", &[]).expect("get")).u64())
        .map(|n| n.expect("counter"))
        .sum();
    assert_eq!(total, 1_000 + INVOKES);
    cluster.shutdown();
    let bound = if cfg!(debug_assertions) {
        "not held in an unoptimized build".to_owned()
    } else {
        format!("at most {MAX_PER_INVOKE}")
    };
    println!("mesh wake-up guard: {per_invoke:.3} voluntary context switches per invoke ({bound})");
    assert!(
        cfg!(debug_assertions) || per_invoke <= MAX_PER_INVOKE,
        "{per_invoke:.3} switches per invoke: calls to idle nodes are handed to their threads"
    );
}
