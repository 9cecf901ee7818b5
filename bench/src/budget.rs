//! The latency budget: which layer owns what share of an operation's median
//! latency on each workload. Unit costs come from the per-layer timings,
//! calls per operation from the workload's definition and the runtime's
//! public counters; whatever that does not explain is printed, not hidden.

use crate::driver::SpanKind;
use crate::report::Named;
use std::fmt::Write as _;

const NS: f64 = 1e-3;
const US: f64 = 1.0;

/// One line of a workload's model: `calls` per operation of something that
/// costs `metric`, which `to_us` converts to microseconds.
type Line = (&'static str, f64, &'static str, f64);

/// The lines a workload's operation is made of. `m` looks a metric up by
/// name (0 when missing, which then shows as unexplained remainder).
fn model(workload: &str, m: &dyn Fn(&str) -> f64) -> Vec<Line> {
    match workload {
        "mesh_invoke" => vec![
            (
                "cluster (directory)",
                1.0,
                "cluster.directory_lookup_ns",
                NS,
            ),
            (
                "transport::channel (request + reply hand-off)",
                1.0,
                "channel.roundtrip_us",
                US,
            ),
        ],
        "mesh_move" => {
            let granted = 1.0 - m("node.move_denied_share");
            let migrated = m("node.objects_migrated_per_move") * granted;
            let refreshes = m("recovery.ckpt_refreshes_per_op");
            // one-way messages: the end, one install per shipped object,
            // put + ack per replica of every refresh
            let one_way = 1.0 + migrated + 4.0 * refreshes;
            vec![
                // move request/reply and four invokes block the client
                (
                    "transport::channel (5 blocking round-trips)",
                    5.0,
                    "channel.roundtrip_us",
                    US,
                ),
                (
                    "transport::channel (one-way: end, installs, checkpoint puts and acks)",
                    one_way,
                    "channel.send_recv_ns",
                    NS,
                ),
                (
                    "cluster (directory: 6 calls + 8 residency checks)",
                    14.0,
                    "cluster.directory_lookup_ns",
                    NS,
                ),
                (
                    "core (policy: request + end)",
                    1.0,
                    "core.policy_move_end_ns",
                    NS,
                ),
                (
                    "core (closure of 8, allocating BFS)",
                    migrated / 8.0,
                    "core.closure_bfs_ns_k8",
                    NS,
                ),
                (
                    "wire (CheckpointFrame encode, per replica)",
                    2.0 * refreshes,
                    "wire.ckpt_encode_ns",
                    NS,
                ),
                (
                    "wire (CheckpointFrame decode, per replica)",
                    2.0 * refreshes,
                    "wire.ckpt_decode_ns",
                    NS,
                ),
                (
                    "store (MemStore put, per replica)",
                    2.0 * refreshes,
                    "store.mem.put_ns",
                    NS,
                ),
            ]
        }
        "sock_invoke" => vec![
            // server outbox -> writer -> socket -> worker reader -> worker,
            // and back: frame encode/CRC/decode are inside this number
            (
                "transport::socket + frame (round-trip)",
                1.0,
                "socket.roundtrip_us_unix",
                US,
            ),
            (
                "multiproc (dispatcher -> caller hand-off)",
                0.5,
                "channel.roundtrip_us",
                US,
            ),
            (
                "store (MemStore put of the piggybacked state)",
                1.0,
                "store.mem.put_ns",
                NS,
            ),
        ],
        "sock_migrate_wal" => {
            let appends = m("store.wal.appends_per_op");
            // surrender reply, install, four invoke replies: 16 KiB each
            let kib = 6.0 * 16.0;
            vec![
                (
                    "transport::socket (6 round-trips, small-frame cost)",
                    6.0,
                    "socket.roundtrip_us_tcp",
                    US,
                ),
                (
                    "frame (encode + CRC of 96 KiB)",
                    kib,
                    "frame.encode_ns_per_kib",
                    NS,
                ),
                (
                    "frame (decode + CRC of 96 KiB)",
                    kib,
                    "frame.decode_ns_per_kib",
                    NS,
                ),
                (
                    "store::wal (append, 1 KiB-record cost)",
                    appends,
                    "store.wal.put_batch_us",
                    US,
                ),
                (
                    "store::wal (record CRC of 16 KiB appends)",
                    appends * 16.0,
                    "frame.crc32_ns_per_kib",
                    NS,
                ),
                (
                    "store::wal (fsync)",
                    m("store.wal.syncs_per_op"),
                    "store.wal.sync_us",
                    US,
                ),
            ]
        }
        _ => Vec::new(),
    }
}

/// The budget section of one workload, as markdown.
pub fn table(
    workload: &str,
    e2e: &[Named],
    layers: &[Named],
    counts: &[Named],
    spans: &[(SpanKind, f64, u64)],
) -> String {
    let lookup = |name: &str| {
        [e2e, layers, counts]
            .iter()
            .flat_map(|set| set.iter())
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |&(_, v, _)| v)
    };
    let p50 = lookup("op_p50_us");
    let cpu = lookup("cpu_us_per_op");
    let share = |us: f64| format!("{:.1} %", 100.0 * us / p50);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "### `{workload}`: op_p50_us = {p50:.2}, cpu_us_per_op = {cpu:.2}\n"
    );
    // spans come from the traced windows, all of them, so they are set
    // against the traced operation, not against the clean set's median
    let op_span = spans
        .iter()
        .find(|(kind, _, _)| *kind == SpanKind::Op)
        .map_or(p50, |&(_, us, _)| us);
    let _ = writeln!(
        out,
        "| harness span (all traced windows) | count | p50 µs | share of the `op` span |"
    );
    let _ = writeln!(out, "|---|---|---|---|");
    for (kind, p50_us, count) in spans {
        let _ = writeln!(
            out,
            "| `{}` | {count} | {p50_us:.2} | {:.1} % |",
            kind.name(),
            100.0 * p50_us / op_span
        );
    }
    let _ = writeln!(
        out,
        "\n| layer | unit cost x calls per op | µs per op | share of op_p50_us |"
    );
    let _ = writeln!(out, "|---|---|---|---|");
    let mut explained = 0.0;
    for (layer, calls, metric, to_us) in model(workload, &lookup) {
        let us = calls * lookup(metric) * to_us;
        explained += us;
        let _ = writeln!(
            out,
            "| {layer} | {calls:.2} x {metric} | {us:.2} | {} |",
            share(us)
        );
    }
    // Two closed-loop clients share one CPU: while one operation is served
    // the other waits, and an operation that blocks on the disk is not on
    // the CPU either. Measured, not modelled: latency minus CPU time.
    let off_cpu = (p50 - cpu).max(0.0);
    let _ = writeln!(
        out,
        "| not on the CPU (the other client's turn; disk) | op_p50_us - cpu_us_per_op | {off_cpu:.2} | {} |",
        share(off_cpu)
    );
    let remainder = p50 - off_cpu - explained;
    let _ = writeln!(
        out,
        "| **unexplained remainder** (node dispatch, locks, allocation, wake-ups) | | {remainder:.2} | {} |",
        share(remainder)
    );
    let _ = writeln!(
        out,
        "\nLayers explain {:.1} % of op_p50_us ({:.1} % of cpu_us_per_op); with the measured \
         off-CPU share, {:.1} % of op_p50_us is accounted for.\n",
        100.0 * explained / p50,
        100.0 * explained / cpu,
        100.0 * (explained + off_cpu) / p50,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_add_up_to_the_median() {
        let e2e = [("op_p50_us", 20.0, "us"), ("cpu_us_per_op", 10.0, "us")];
        let layers = [
            ("cluster.directory_lookup_ns", 1000.0, "ns"),
            ("channel.roundtrip_us", 5.0, "us"),
        ];
        let text = table(
            "mesh_invoke",
            &e2e,
            &layers,
            &[],
            &[(SpanKind::Op, 20.0, 7)],
        );
        // 1 + 5 explained, 10 off-CPU, 4 left over
        assert!(text.contains("| 1.00 | 5.0 % |"), "{text}");
        assert!(text.contains("| 5.00 | 25.0 % |"), "{text}");
        assert!(text.contains("| 10.00 | 50.0 % |"), "{text}");
        assert!(text.contains("| 4.00 | 20.0 % |"), "{text}");
        assert!(
            text.contains("80.0 % of op_p50_us is accounted for"),
            "{text}"
        );
    }
}
