//! Fault drill — the robustness layer on the real runtime.
//!
//! A four-node cluster runs under a seeded fault plan (8 % message loss,
//! small delays, duplicated messages, half of all end-requests dropped)
//! while a client keeps working. We then crash a node mid-traffic, watch
//! deadlines fire instead of calls hanging, restart it, and show that
//! leases reclaim every placement lock that a lost end-request or the
//! crash orphaned. The cluster traces what happened — each injected fault
//! is a typed event in its protocol trace — and the same seed is replayed
//! to show the whole trace is deterministic.
//!
//! ```text
//! cargo run --release --example fault_drill
//! ```

use std::time::Duration;

use oml_check::explore::trace_digest;
use oml_check::{EventKind, TraceEvent};
use oml_core::ids::NodeId;
use oml_core::policy::PolicyKind;
use oml_runtime::wire::{WireReader, WireWriter};
use oml_runtime::{Cluster, FaultPlan, MobileObject, RuntimeError};

/// A job queue depth counter standing in for any mobile service object.
struct Queue(u64);

impl MobileObject for Queue {
    fn type_tag(&self) -> &'static str {
        "queue"
    }
    fn invoke(&mut self, method: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        match method {
            "push" => {
                self.0 += WireReader::new(payload).u64()?;
                Ok(WireWriter::new().u64(self.0).finish().to_vec())
            }
            "depth" => Ok(WireWriter::new().u64(self.0).finish().to_vec()),
            other => Err(format!("no such method: {other}")),
        }
    }
    fn linearize(&self) -> Vec<u8> {
        WireWriter::new().u64(self.0).finish().to_vec()
    }
}

fn drill(seed: u64, chatty: bool) -> Vec<TraceEvent> {
    let plan = FaultPlan::seeded(seed)
        .drop_probability(0.08)
        .duplicate_probability(0.05)
        .delay_probability(0.10, 3)
        .drop_end_requests(0.5);
    let cluster = Cluster::builder()
        .nodes(4)
        .policy(PolicyKind::TransientPlacement)
        .faults(plan)
        .call_timeout(Duration::from_millis(100))
        .invoke_retries(2)
        .lease_ms(1_000)
        .manual_clock()
        .trace()
        .build();
    cluster.register_type("queue", |bytes| {
        let mut r = WireReader::new(bytes);
        Box::new(Queue(r.u64().expect("queue state")))
    });
    let queue = cluster
        .create(NodeId::new(1), Box::new(Queue(0)))
        .expect("create rides the reliable state channel");

    let mut acknowledged = 0u64;
    let mut timeouts = 0u64;
    for i in 0..30u64 {
        if i == 12 {
            cluster.crash_node(NodeId::new(1)).expect("crash");
            if chatty {
                println!("  !! node n1 crashed (its objects are stashed)");
            }
        }
        if i == 18 {
            cluster.restart_node(NodeId::new(1)).expect("restart");
            if chatty {
                println!("  !! node n1 restarted (stash reclaimed)");
            }
        }
        if i % 5 == 0 {
            // a move whose end-request may be dropped → orphaned lock
            if let Ok(guard) = cluster.move_block(queue, NodeId::new((i % 4) as u32)) {
                drop(guard);
            }
        }
        match cluster.invoke(queue, "push", &WireWriter::new().u64(1).finish()) {
            Ok(_) => acknowledged += 1,
            Err(RuntimeError::Timeout { waited_ms }) => {
                timeouts += 1;
                if chatty {
                    println!(
                        "  .. push #{i} timed out after {waited_ms} ms (deadline, not a hang)"
                    );
                }
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    // recovery: let every orphaned lease expire — the nodes' ticks that
    // fall due as the clock advances sweep them — then read the queue
    let locks_before = cluster.held_locks().len();
    cluster.advance_clock(2_000);
    let released = locks_before - cluster.held_locks().len();
    let out = cluster
        .invoke(queue, "depth", &[])
        .expect("post-recovery read");
    let depth = WireReader::new(&out).u64().expect("payload");
    let stats = cluster.stats();

    if chatty {
        println!();
        println!("  pushes acknowledged      {acknowledged}");
        println!("  deadline timeouts        {timeouts}");
        println!("  retries spent            {}", stats.retries);
        println!("  locks held pre-expiry    {locks_before}");
        println!("  locks freed by advance   {released}");
        println!("  final queue depth        {depth} (≥ acknowledged: at-least-once)");
        assert!(depth >= acknowledged, "an acknowledged push vanished");
        assert!(
            cluster.held_locks().is_empty(),
            "a lock leaked past its lease"
        );
    }

    cluster.shutdown();
    cluster.take_trace()
}

fn main() {
    println!("== fault drill: seeded chaos on the live runtime ==\n");
    let trace = drill(7, true);

    let faults: Vec<&TraceEvent> = (trace.iter())
        .filter(|ev| matches!(ev.kind, EventKind::Fault { .. }))
        .collect();
    println!("\n  injected fault events ({}):", faults.len());
    for ev in faults.iter().take(8) {
        if let EventKind::Fault {
            fault,
            to,
            seq,
            desc,
        } = &ev.kind
        {
            let seq = seq.map_or_else(String::new, |seq| format!(" #{seq}"));
            let from = oml_check::process_name(ev.process);
            println!("    {fault:?} {from}->n{to}{seq} {desc}");
        }
    }
    if faults.len() > 8 {
        println!("    … {} more", faults.len() - 8);
    }

    println!("\n== replaying the same seed ==\n");
    let replay = drill(7, false);
    let digests = (trace_digest(&trace), trace_digest(&replay));
    println!(
        "  traces identical: {} ({} events, digest {:#018x})",
        digests.0 == digests.1,
        replay.len(),
        digests.1
    );
    assert_eq!(digests.0, digests.1, "a seeded run must replay exactly");
    println!("\nSame seed, same faults, same outcome — chaos you can put in a test.");
}
