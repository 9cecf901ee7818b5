//! An idle cluster barely wakes: one timer thread serves every node's tick
//! and the failure detector's sweeps from one deadline heap, on one grid of
//! instants, so the ticks of all nodes (every 25 ms) and the sweeps (every
//! 50 ms) fall due together — about 40 wake-ups a second, however many
//! nodes. A thread per node and a monitor polling every 10 ms made 119
//! voluntary context switches a second for three idle nodes, and 220 with
//! a detector. This file holds one test so that no other test's threads
//! are counted with it.

use std::time::Duration;

use oml_runtime::Cluster;

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

/// Three idle nodes over two seconds, without and with a failure detector
/// (`failure_detector(50, 4)`, as the benchmark's `mesh_move` has it): at
/// most 60 voluntary context switches a second each (~40 here). Held in an
/// optimized build only, as the other wake-up guards are.
#[test]
fn an_idle_cluster_barely_wakes() {
    const MAX_PER_S: f64 = 60.0;
    for detector in [false, true] {
        let builder = Cluster::builder().nodes(3);
        let cluster = if detector {
            builder.failure_detector(50, 4).build()
        } else {
            builder.build()
        };
        std::thread::sleep(Duration::from_millis(200));
        let before = voluntary_switches();
        std::thread::sleep(Duration::from_secs(2));
        let per_s = (voluntary_switches() - before) as f64 / 2.0;
        let bound = if cfg!(debug_assertions) {
            "not held in an unoptimized build".to_owned()
        } else {
            format!("at most {MAX_PER_S}")
        };
        println!(
            "idle wake-ups, detector {detector}: {per_s:.1} voluntary context switches/s ({bound})"
        );
        assert!(
            cfg!(debug_assertions) || per_s <= MAX_PER_S,
            "{per_s:.1} switches/s on an idle cluster (detector {detector})"
        );
        cluster.shutdown();
    }
}
