//! A cluster runs one thread of its own, its timer — and under a manual
//! clock none: no thread per node, no failure-detector monitor and no
//! thread per delayed message. A node is a value in its inbox slot, run by
//! whoever finds it idle or puts it back; the timer serves every tick,
//! sweep and delayed delivery from one heap, which under a manual clock
//! the thread that advances the clock serves. This file holds one test so
//! that no other test's threads are counted with it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use oml_core::ids::{NodeId, ObjectId};
use oml_runtime::wire::{WireReader, WireWriter};
use oml_runtime::{Cluster, FaultPlan, MobileObject};

/// A counter that survives linearization.
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

/// The names of this process's threads (`/proc/self/task/*/comm`).
fn threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .collect()
}

/// This process's thread count once the previous phase's threads have left
/// `/proc/self/task`: a joined thread can stay listed for a moment after
/// its `join` returned. Polls, for at most five seconds, until no
/// `oml-timer` is listed and two reads 5 ms apart agree.
fn settled_threads() -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut last = threads();
    loop {
        std::thread::sleep(Duration::from_millis(5));
        let now = threads();
        let settled = now.len() == last.len() && !now.iter().any(|name| name == "oml-timer");
        if settled || Instant::now() >= deadline {
            return now.len();
        }
        last = now;
    }
}

fn add(cluster: &Cluster, object: ObjectId) -> u64 {
    let one = WireWriter::new().u64(1).finish();
    let out = cluster.invoke(object, "add", &one).expect("invoke");
    WireReader::new(&out).u64().expect("counter")
}

/// Eight callers on three nodes whose every call is delayed, with a failure
/// detector sweeping every 50 ms: the process's peak thread count is what
/// ran before the cluster, a sampler, the callers and one timer (12 here,
/// where one thread per node and per delayed message peaked at 22), and no
/// thread is a node's or a monitor's. Then a cluster of 1 024 nodes answers
/// a call at every node and adds exactly one thread, and a manual-clock
/// cluster with a failure detector adds none, through calls, ticks and a
/// detector sweep.
#[test]
fn a_cluster_runs_one_thread_whatever_its_nodes_and_delays() {
    const NODES: u32 = 3;
    const CALLERS: usize = 8;
    let before = settled_threads();
    let cluster = Cluster::builder()
        .nodes(NODES)
        .failure_detector(50, 4)
        .faults(FaultPlan::seeded(3).delay_probability(1.0, 200))
        .build();
    let objects: Vec<ObjectId> = (0..CALLERS as u32)
        .map(|i| {
            let at = NodeId::new(i % NODES);
            cluster.create(at, Box::new(Counter(0))).expect("create")
        })
        .collect();
    let done = AtomicBool::new(false);
    let (peak, seen) = (Mutex::new(0), Mutex::new(Vec::<String>::new()));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let now = threads();
                let mut peak = peak.lock().unwrap();
                *peak = (*peak).max(now.len());
                let mut seen = seen.lock().unwrap();
                now.into_iter().for_each(|name| {
                    if !seen.contains(&name) {
                        seen.push(name);
                    }
                });
                drop((peak, seen));
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let callers: Vec<_> = objects
            .iter()
            .map(|&object| {
                let cluster = &cluster;
                scope.spawn(move || (1..=5).for_each(|n| assert_eq!(add(cluster, object), n)))
            })
            .collect();
        callers.into_iter().for_each(|c| c.join().unwrap());
        done.store(true, Ordering::Relaxed);
    });
    let peak = peak.into_inner().unwrap();
    let seen = seen.into_inner().unwrap();
    println!("thread census: peak {peak}, {before} before the cluster; seen {seen:?}");
    assert!(
        seen.iter()
            .all(|name| !name.starts_with("oml-node-") && name != "oml-monitor"),
        "a node or monitor thread ran: {seen:?}"
    );
    assert!(
        seen.iter().any(|name| name == "oml-timer"),
        "no timer: {seen:?}"
    );
    let bound = before + 1 + CALLERS + 1;
    assert!(
        peak <= bound,
        "{peak} threads at the peak, more than {bound}: {seen:?}"
    );
    assert!(cluster.stats().timeouts == 0, "{:?}", cluster.stats());
    cluster.shutdown();
    drop(cluster);

    let before = settled_threads();
    let cluster = Cluster::builder().nodes(1024).build();
    let during = threads().len();
    for i in 0..1024 {
        let object = cluster
            .create(NodeId::new(i), Box::new(Counter(0)))
            .expect("create");
        assert_eq!(add(&cluster, object), 1);
    }
    assert_eq!(threads().len(), during);
    assert_eq!(during, before + 1, "{:?}", threads());
    cluster.shutdown();
    drop(cluster);

    let before = settled_threads();
    let cluster = Cluster::builder()
        .nodes(NODES)
        .manual_clock()
        .failure_detector(50, 4)
        .build();
    for i in 0..NODES {
        let object = cluster
            .create(NodeId::new(i), Box::new(Counter(0)))
            .expect("create");
        assert_eq!(add(&cluster, object), 1);
    }
    cluster.advance_clock(1_000);
    cluster.detector_sweep();
    assert_eq!(threads().len(), before, "{:?}", threads());
    cluster.shutdown();
}
