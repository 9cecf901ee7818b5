//! One workload, in a process of its own so peak memory is the workload's:
//! set up, warm up, measure, check, and report over standard output in the
//! line protocol of [`crate::report`]. The working directory is this run's
//! scratch directory (short relative paths keep Unix socket names legal
//! however deep the checkout sits).

use crate::budget;
use crate::driver::{self, Part, Phase, Plan, RunResult, SpanKind, SpanTrace};
use crate::layers;
use crate::report::{emit_count, emit_error, emit_metric, emit_note, json_string, Named};
use crate::workloads::mesh::{MeshInvoke, MeshMove};
use crate::workloads::sock::{SockInvoke, SockMigrateWal};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: usize,
    pub trace: bool,
    pub setup_only: bool,
    /// Unix time, ns, at which the parent started this process.
    pub started_unix_ns: u128,
}

/// Exit code of a workload process that could not even set up.
const EXIT_SETUP: i32 = 2;
/// Exit code when the run outlived any plausible duration.
const EXIT_HUNG: i32 = 3;

pub fn main(args: &ChildArgs) -> ! {
    // A panic anywhere (a client thread included) must not leave the other
    // threads parked on a barrier: report and leave. The parent kills
    // whatever this process group leaves behind.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("workload process panicked: {info}");
        std::process::exit(101);
    }));
    let limit = Duration::from_secs(args.seconds as u64 + 150);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("workload process still running after {limit:?}; giving up");
        std::process::exit(EXIT_HUNG);
    });

    let plan = Plan {
        started_unix_ns: args.started_unix_ns,
        seconds: match (args.setup_only, args.trace) {
            (true, _) => 0,
            (false, false) => args.seconds,
            // the per-layer timings that follow take the rest
            (false, true) => (args.seconds * 4 / 5).max(1),
        },
        traced: args.trace,
    };

    let here = Path::new(".");
    let result = match args.workload.as_str() {
        "mesh_invoke" => MeshInvoke::setup(args.seed).map(|w| driver::run(w, &plan)),
        "mesh_move" => MeshMove::setup(args.seed).map(|w| driver::run(w, &plan)),
        "sock_invoke" => SockInvoke::setup(args.seed, here).map(|w| driver::run(w, &plan)),
        "sock_migrate_wal" => SockMigrateWal::setup(args.seed, here).map(|w| driver::run(w, &plan)),
        other => Err(format!("unknown workload {other}")),
    };
    let result = match result {
        Ok(result) => result,
        Err(e) => {
            eprintln!("{}: set-up failed: {e}", args.workload);
            std::process::exit(EXIT_SETUP);
        }
    };
    report(args, &result);
    std::process::exit(0);
}

fn report(args: &ChildArgs, result: &RunResult) {
    if result.warmup_failed > 0 {
        emit_error(&format!(
            "{} warm-up operations failed",
            result.warmup_failed
        ));
    }
    if let Err(e) = &result.check {
        emit_error(e);
    }
    emit_metric("setup_s", result.setup_s, "s");
    let Some(phase) = &result.phase else {
        return; // set-up only
    };
    let (attempted, failed) = phase.totals();
    emit_count("attempted", attempted);
    emit_count("failed", failed);
    let e2e = end_to_end(phase, result.peak_rss_kib);
    if !args.trace {
        for (name, value, unit) in &e2e {
            emit_metric(name, *value, unit);
        }
        host_notes(phase);
        for (name, value, unit) in counts_per_op(phase) {
            emit_note(name, &format!("{value} {unit}"));
        }
        return;
    }

    let layer_metrics = match layers::measure(Path::new(".")) {
        Ok(metrics) => metrics,
        Err(e) => {
            emit_error(&format!("per-layer timing: {e}"));
            Vec::new()
        }
    };
    for (name, value, unit) in &layer_metrics {
        emit_metric(name, *value, unit);
    }
    let counts = counts_per_op(phase);
    for (name, value, unit) in &counts {
        emit_metric(name, *value, unit);
    }
    let overhead = 1.0 - phase.ops_per_s(Part::Traced) / phase.ops_per_s(Part::Untraced);
    emit_metric("trace.overhead_share", overhead, "ratio");
    // the tail beyond p95 does not repeat within 10 % on a shared host, so
    // it is reported here, unbounded, rather than gated end to end
    let p99 = phase.clean(Part::Untraced).0.latency.quantile(0.99) / 1e3;
    emit_metric("op_p99_us", p99, "us");
    emit_metric("failed_share", failed as f64 / attempted as f64, "ratio");
    for (name, value, unit) in &e2e {
        emit_note(
            name,
            &format!("{value} {unit} (untraced windows of the traced run)"),
        );
    }
    host_notes(phase);

    let spans = span_medians(&phase.spans);
    let table = budget::table(&args.workload, &e2e, &layer_metrics, &counts, &spans);
    if let Err(e) = std::fs::write("budget.md", table) {
        emit_error(&format!("write budget.md: {e}"));
    }
    if let Err(e) = std::fs::write("trace.json", trace_json(args, phase, overhead)) {
        emit_error(&format!("write trace.json: {e}"));
    }
}

/// The end-to-end metrics, all from the clean set of the untraced windows
/// (`setup_s` is reported apart: it is the one number a set-up-only run
/// also has).
fn end_to_end(phase: &Phase, peak_rss_kib: u64) -> Vec<Named> {
    let (clean, _) = phase.clean(Part::Untraced);
    vec![
        ("ops_per_s", phase.ops_per_s(Part::Untraced), "1/s"),
        ("op_p50_us", clean.latency.quantile(0.50) / 1e3, "us"),
        ("op_p95_us", clean.latency.quantile(0.95) / 1e3, "us"),
        (
            "cpu_us_per_op",
            clean.cpu_ns as f64 / 1e3 / clean.ops as f64,
            "us",
        ),
        ("peak_rss_mib", peak_rss_kib as f64 / 1024.0, "MiB"),
    ]
}

/// How much of the run the host left undisturbed: context for a reader, no
/// part of any comparison.
fn host_notes(phase: &Phase) {
    let (clean, windows) = phase.clean(Part::Untraced);
    emit_note(
        "windows",
        &format!(
            "{} of {:?}; the clean set is the fastest {windows} and holds {} latencies; median window {:.0} ops/s; {:.0} % of windows within 5 % of the fastest",
            phase.part(Part::Untraced).len(),
            phase.window,
            clean.latency.count(),
            phase.median_ops_per_s(Part::Untraced),
            100.0 * phase.quiet_share(Part::Untraced)
        ),
    );
}

/// Exact ratios of public counters over the operations of `phase`.
fn counts_per_op(phase: &Phase) -> Vec<Named> {
    let ops = phase.totals().0 as f64;
    let c = &phase.counters;
    let per_op = |n: u64| n as f64 / ops;
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    // bytes appended = records appended x mean record size of the live
    // segment (the byte counter itself restarts at every compaction)
    let record_bytes = share(c.wal_live_bytes, c.wal_live_records);
    let denied = share(c.moves_denied, c.moves_granted + c.moves_denied);
    vec![
        ("cluster.forwards_per_op", per_op(c.forwards), "1/op"),
        ("cluster.retries_per_op", per_op(c.retries), "1/op"),
        ("node.move_denied_share", denied, "ratio"),
        (
            "node.objects_migrated_per_move",
            share(c.objects_migrated, c.moves_granted),
            "1/move",
        ),
        (
            "recovery.ckpt_refreshes_per_op",
            per_op(c.ckpt_refreshes),
            "1/op",
        ),
        (
            "recovery.quorum_failure_share",
            share(c.quorum_failures, c.ckpt_refreshes),
            "ratio",
        ),
        ("multiproc.deliveries_per_op", per_op(c.deliveries), "1/op"),
        ("store.wal.appends_per_op", per_op(c.wal_appended), "1/op"),
        ("store.wal.syncs_per_op", per_op(c.wal_syncs), "1/op"),
        (
            "store.wal.bytes_per_op",
            per_op(c.wal_appended) * record_bytes,
            "B/op",
        ),
        ("store.wal.compactions", c.wal_compactions as f64, "count"),
        ("proc.allocs_per_op", per_op(phase.allocs), "1/op"),
        ("proc.alloc_bytes_per_op", per_op(phase.alloc_bytes), "B/op"),
        (
            "proc.vol_ctx_switches_per_op",
            per_op(phase.voluntary_switches),
            "1/op",
        ),
    ]
}

/// Median duration, µs, and count of every span kind that occurred.
fn span_medians(tracers: &[SpanTrace]) -> Vec<(SpanKind, f64, u64)> {
    SpanKind::ALL
        .iter()
        .filter_map(|&kind| {
            let mut all = crate::hist::Histogram::new();
            for tracer in tracers {
                all.merge(&tracer.by_kind[kind as usize]);
            }
            (all.count() > 0).then(|| (kind, all.quantile(0.5) / 1e3, all.count()))
        })
        .collect()
}

/// This workload's part of `trace.json`: span summaries over every traced
/// operation and the first raw spans of each client.
fn trace_json(args: &ChildArgs, phase: &Phase, overhead: f64) -> String {
    let traced_ops: u64 = phase.part(Part::Traced).iter().map(|w| w.ops).sum();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": {}, \"seed\": {}, \"traced_windows\": {}, \"traced_ops\": {traced_ops}, \
         \"overhead_share\": {overhead}, \"span_kinds\": {{",
        json_string(&args.workload),
        args.seed,
        phase.part(Part::Traced).len(),
    );
    let kinds: Vec<String> = span_medians(&phase.spans)
        .iter()
        .map(|(kind, p50_us, count)| {
            format!(
                "{}: {{\"count\": {count}, \"p50_us\": {p50_us}, \"parent\": {}}}",
                json_string(kind.name()),
                if *kind == SpanKind::Op {
                    "null"
                } else {
                    "\"op\""
                }
            )
        })
        .collect();
    out.push_str(&kinds.join(", "));
    out.push_str("}, \"spans\": [\n");
    let mut first = true;
    for (client, tracer) in phase.spans.iter().enumerate() {
        for span in &tracer.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            // spans of one operation share (client, op)
            let _ = write!(
                out,
                "{{\"client\": {client}, \"op\": {}, \"span\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                span.op,
                json_string(span.kind.name()),
                span.start_ns,
                span.dur_ns
            );
        }
    }
    out.push_str("\n]}");
    out
}
