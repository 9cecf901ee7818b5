//! `repro bench` — the tracked performance baseline.
//!
//! Runs a fixed quick-precision suite (the attachment-heavy Fig. 16 sweeps
//! plus the three single-layer figures), measures wall time and simulator
//! event throughput per experiment, and writes `BENCH_02.json` at the
//! invocation directory. The suite re-uses the *exact* configs, series and
//! per-point seeds of the corresponding `figNN` experiment functions, so its
//! numbers track the same work the figures do. Beside the sweeps it times
//! the simulator's inner steps no other harness times ([`run_micro_rows`]):
//! the closure query's lazy rebuild, the query at a stress size, and the
//! event queue. It is the simulator's one benchmark harness; the threaded
//! and multi-process runtime's is the separate `bench/` package.
//!
//! The recorded [`BASELINE`] values were measured on this suite immediately
//! **before** the dense-arena/incremental-closure rework (commit `966c926`,
//! BTreeMap adjacency + allocating BFS per migration, HashMap world state),
//! single-threaded. Every later run writes both the baseline and the fresh
//! numbers, so the speedup trajectory is part of the artifact.

use std::fmt::Write as _;
use std::hash::Hasher as _;
use std::time::Instant;

use oml_check::explore::Fnv64;
use oml_des::stats::StoppingRule;
use oml_sim::metrics::MetricsRow;
use oml_workload::{run_scenario, run_scenario_replicated, ScenarioConfig};

use crate::experiments::{
    parallel_map, point_seed, RunOptions, Series, BASIC_SERIES, FIG14_SERIES, FIG16X_SERIES,
    FIG16_SERIES,
};

/// Wall time and event throughput of one benchmark experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchExperiment {
    /// Experiment id (`fig16`, `fig16x`, …).
    pub name: &'static str,
    /// Total wall-clock seconds for the whole sweep.
    pub wall_s: f64,
    /// Total simulator events handled across all sweep points.
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
}

/// One full suite run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Per-experiment measurements, in suite order.
    pub experiments: Vec<BenchExperiment>,
    /// Nanoseconds per operation of the simulator's inner steps, by row
    /// name (see [`run_micro_rows`]).
    pub micro: Vec<(String, f64)>,
}

/// Pre-rework reference numbers: `(name, wall_s, events)`, quick precision,
/// seed `0x0b9e_c7ed`, one worker thread, measured on the seed implementation
/// (BTreeMap attachment graph, allocating closure BFS, HashMap world state).
pub const BASELINE: [(&str, f64, u64); 5] = [
    ("fig16", 0.442, 3_767_189),
    ("fig16x", 0.567, 4_974_848),
    ("fig8", 0.613, 5_722_263),
    ("fig12", 0.295, 2_417_558),
    ("fig14", 0.517, 4_233_462),
];

fn run_grid(configs: &[ScenarioConfig], series: &[Series], opts: &RunOptions) -> (f64, u64) {
    let start = Instant::now();
    let cols = series.len();
    let outs = parallel_map(configs.len() * cols, opts.threads, |job| {
        let (pi, si) = (job / cols, job % cols);
        let (_, policy, mode) = series[si];
        let out = run_scenario(
            &configs[pi],
            policy,
            mode,
            opts.stopping,
            point_seed(opts.seed, pi, si),
        );
        std::hint::black_box(&out.metrics);
        out.events
    });
    (start.elapsed().as_secs_f64(), outs.iter().sum())
}

/// Nanoseconds per call of `op`: the median of five batches, each sized
/// to run at least 2 ms so the clock reads vanish in it.
fn ns_per_op(mut op: impl FnMut()) -> f64 {
    let mut batch = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        start.elapsed().as_nanos() as f64
    };
    let mut iters = 1u64;
    while batch(iters) < 2e6 {
        iters *= 2;
    }
    let mut per_op: Vec<f64> = (0..5).map(|_| batch(iters) / iters as f64).collect();
    per_op.sort_by(f64::total_cmp);
    per_op[2]
}

/// Pending events at a pop, averaged over every event of the suite's five
/// sweeps: 5.9 (per sweep 3.0–10.4, p95 ≤ 24, max 26), counted by sampling
/// `EventQueue::len` before each pop. A count, not a timing, so it is the
/// same on every host; the `queue_churn` row is timed at this depth.
const QUEUE_DEPTH: u64 = 6;

/// The simulator's inner steps that no other harness times, each alone:
/// the closure query a migration makes on a chain of `k` attached objects
/// after a detach has forced the lazy rebuild (the incremental structure's
/// worst case), and on a clean component at k = 512 (`bench/`'s
/// `core.closure_ns_k8`/`core.closure_ns_k64` rows time the clean query at
/// the smaller sizes); then one pop + push of the event queue at
/// `QUEUE_DEPTH`. The figures' closures have at most 12 members (fig16's
/// mean is 7.0, fig16x's 5.6), so k = 64 and k = 512 are stress sizes.
#[must_use]
pub fn run_micro_rows() -> Vec<(String, f64)> {
    use oml_core::attach::{AttachmentGraph, AttachmentMode, ClosureScratch};
    use oml_core::ids::ObjectId;
    use oml_des::{EventQueue, SimRng, SimTime};

    let mut rows = Vec::new();
    for k in [8u32, 64, 512] {
        let mut graph = AttachmentGraph::new(AttachmentMode::Unrestricted);
        for i in 1..k {
            let _ = graph.attach(ObjectId::new(i - 1), ObjectId::new(i), None);
        }
        let mut scratch = ClosureScratch::new();
        let mid = ObjectId::new(k / 2);
        let mut query = |graph: &mut AttachmentGraph| {
            graph.migration_closure_into(mid, None, &mut scratch);
            std::hint::black_box(scratch.members().len());
        };
        if k == 512 {
            let steady = ns_per_op(|| query(&mut graph));
            rows.push(("closure_steady_k512".to_owned(), steady));
        }
        let rebuild = ns_per_op(|| {
            graph.detach(ObjectId::new(0), ObjectId::new(1));
            let _ = graph.attach(ObjectId::new(0), ObjectId::new(1), None);
            query(&mut graph);
        });
        rows.push((format!("closure_detach_rebuild_k{k}"), rebuild));
    }
    let mut queue = EventQueue::new();
    let mut rng = SimRng::seed_from(5);
    for i in 0..QUEUE_DEPTH {
        queue.push(SimTime::new(i as f64), i);
    }
    let churn = ns_per_op(|| {
        let ev = queue.pop().expect("the queue stays primed");
        queue.push(ev.time + rng.unit(), ev.event);
    });
    rows.push((format!("queue_churn_{QUEUE_DEPTH}"), churn));
    rows
}

/// Runs the fixed benchmark suite at the given precision and seed.
///
/// The sweep grids are those of `fig8`/`fig12`/`fig14`/`fig16`/`fig16x`
/// (same configs, the figures' own series tables, same per-point seeds). `repro bench`
/// defaults to one thread so wall times stay comparable across machines and
/// commits, but `opts.threads` is honored — and recorded in the JSON — when
/// a caller explicitly asks for more.
#[must_use]
pub fn run_bench_suite(opts: &RunOptions) -> BenchReport {
    let fig16_cs = [1u32, 2, 4, 6, 8, 10, 12];
    let fig16_cfg: Vec<ScenarioConfig> =
        fig16_cs.iter().map(|&c| ScenarioConfig::fig16(c)).collect();
    let fig8_xs = [
        0.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0,
    ];
    let fig8_cfg: Vec<ScenarioConfig> = fig8_xs.iter().map(|&x| ScenarioConfig::fig8(x)).collect();
    let fig12_cs = [1u32, 2, 4, 6, 8, 10, 12, 14, 16, 20, 25];
    let fig12_cfg: Vec<ScenarioConfig> =
        fig12_cs.iter().map(|&c| ScenarioConfig::fig12(c)).collect();
    let fig14_cs = [1u32, 2, 4, 6, 9, 12, 16, 20, 24];
    let fig14_cfg: Vec<ScenarioConfig> =
        fig14_cs.iter().map(|&c| ScenarioConfig::fig14(c)).collect();
    let jobs: [(&'static str, &[ScenarioConfig], &[Series]); 5] = [
        ("fig16", &fig16_cfg, &FIG16_SERIES),
        ("fig16x", &fig16_cfg, &FIG16X_SERIES),
        ("fig8", &fig8_cfg, &BASIC_SERIES),
        ("fig12", &fig12_cfg, &BASIC_SERIES),
        ("fig14", &fig14_cfg, &FIG14_SERIES),
    ];

    let mut experiments = Vec::new();
    for (name, configs, series) in jobs {
        let (wall_s, events) = run_grid(configs, series, opts);
        experiments.push(BenchExperiment {
            name,
            wall_s,
            events,
            events_per_sec: if wall_s > 0.0 {
                events as f64 / wall_s
            } else {
                0.0
            },
        });
    }
    BenchReport {
        experiments,
        micro: run_micro_rows(),
    }
}

fn json_experiments(out: &mut String, rows: &[BenchExperiment]) {
    for (i, e) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    \"{}\": {{\"wall_s\": {:.4}, \"events\": {}, \"events_per_sec\": {:.0}}}{}",
            e.name, e.wall_s, e.events, e.events_per_sec, sep
        );
    }
}

/// Human-readable label for a stopping rule: the named precision presets
/// map back to their names, anything else is spelled out.
#[must_use]
pub(crate) fn precision_label(rule: &StoppingRule) -> String {
    if *rule == RunOptions::quick().stopping {
        "quick".to_owned()
    } else if *rule == RunOptions::paper().stopping {
        "paper".to_owned()
    } else {
        format!(
            "custom(rp={}, conf={}, min_batches={}, max_samples={})",
            rule.relative_precision, rule.confidence, rule.min_batches, rule.max_samples
        )
    }
}

/// Renders the report (plus the recorded pre-rework baseline and the derived
/// speedups) as the `BENCH_02.json` document.
///
/// The `precision` and `threads` fields record what the run actually used
/// (taken from `opts`), not a hardcoded assumption.
#[must_use]
pub fn render_bench_json(report: &BenchReport, opts: &RunOptions) -> String {
    let baseline: Vec<BenchExperiment> = BASELINE
        .iter()
        .map(|&(name, wall_s, events)| BenchExperiment {
            name,
            wall_s,
            events,
            events_per_sec: if wall_s > 0.0 {
                events as f64 / wall_s
            } else {
                0.0
            },
        })
        .collect();

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench_id\": \"BENCH_02\",");
    let _ = writeln!(
        out,
        "  \"precision\": \"{}\",",
        precision_label(&opts.stopping)
    );
    let _ = writeln!(out, "  \"seed\": {},", opts.seed);
    let _ = writeln!(out, "  \"threads\": {},", opts.threads);
    let _ = writeln!(
        out,
        "  \"baseline_note\": \"pre-arena seed implementation (commit 966c926): BTreeMap adjacency, allocating closure BFS, HashMap world state\","
    );
    out.push_str("  \"baseline\": {\n");
    json_experiments(&mut out, &baseline);
    out.push_str("  },\n");
    out.push_str("  \"current\": {\n");
    json_experiments(&mut out, &report.experiments);
    out.push_str("  },\n");
    out.push_str("  \"speedup_vs_baseline\": {\n");
    for (i, e) in report.experiments.iter().enumerate() {
        let sep = if i + 1 == report.experiments.len() {
            ""
        } else {
            ","
        };
        let base = baseline.iter().find(|b| b.name == e.name);
        let speedup = base.map_or(f64::NAN, |b| b.wall_s / e.wall_s);
        let _ = writeln!(out, "    \"{}\": {:.2}{}", e.name, speedup, sep);
    }
    out.push_str("  },\n");
    out.push_str("  \"micro_ns_per_op\": {\n");
    for (i, (name, ns)) in report.micro.iter().enumerate() {
        let sep = if i + 1 == report.micro.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{name}\": {ns:.1}{sep}");
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// One thread count's measurement of the replicated fig16 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRun {
    /// Worker threads used inside each sweep point's replication runner.
    pub threads: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_s: f64,
    /// Simulator events across all points and replications.
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// FNV-1a digest over every point's metrics (bit-exact).
    pub fingerprint: u64,
}

/// The `repro scaling` result: a threads axis over one fixed workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingReport {
    /// Cores the host actually has (speedups saturate here).
    pub host_cores: usize,
    /// One run per thread count, in axis order.
    pub runs: Vec<ScalingRun>,
    /// Whether every run produced identical events and metric fingerprints.
    pub bit_identical: bool,
}

fn fingerprint_row(hash: &mut Fnv64, row: &MetricsRow) {
    for bits in [
        row.comm_time.to_bits(),
        row.call_time.to_bits(),
        row.migration_time.to_bits(),
        row.control_time.to_bits(),
        row.transfer_load.to_bits(),
        row.call_p95.to_bits(),
        row.ci_half_width.unwrap_or(-1.0).to_bits(),
        row.calls,
    ] {
        hash.write(&bits.to_le_bytes());
    }
}

/// Runs the fig16 sweep through the **parallel replication runner** once per
/// thread count and measures the wall-time scaling.
///
/// Points run sequentially; only the replications inside each point fan out,
/// so the threads axis isolates exactly the machinery the tentpole added.
/// Every run records a bit-exact fingerprint of all 35 point metrics —
/// [`ScalingReport::bit_identical`] is the determinism verdict.
#[must_use]
pub fn run_scaling_suite(opts: &RunOptions, threads_axis: &[usize]) -> ScalingReport {
    let fig16_cs = [1u32, 2, 4, 6, 8, 10, 12];
    let configs: Vec<ScenarioConfig> = fig16_cs.iter().map(|&c| ScenarioConfig::fig16(c)).collect();

    let mut runs = Vec::new();
    for &threads in threads_axis {
        let start = Instant::now();
        let mut events = 0u64;
        let mut fingerprint = Fnv64::new();
        for (pi, config) in configs.iter().enumerate() {
            for (si, &(_, policy, mode)) in FIG16_SERIES.iter().enumerate() {
                let agg = run_scenario_replicated(
                    config,
                    policy,
                    mode,
                    opts.stopping,
                    point_seed(opts.seed, pi, si),
                    threads,
                );
                events += agg.events;
                fingerprint_row(&mut fingerprint, &agg.row());
                fingerprint.write(&agg.events.to_le_bytes());
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        runs.push(ScalingRun {
            threads,
            wall_s,
            events,
            events_per_sec: if wall_s > 0.0 {
                events as f64 / wall_s
            } else {
                0.0
            },
            fingerprint: fingerprint.finish(),
        });
    }

    let bit_identical = runs
        .windows(2)
        .all(|w| w[0].events == w[1].events && w[0].fingerprint == w[1].fingerprint);
    ScalingReport {
        host_cores: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        runs,
        bit_identical,
    }
}

/// Renders the scaling report as `BENCH_03.json`.
#[must_use]
pub fn render_scaling_json(report: &ScalingReport, opts: &RunOptions) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench_id\": \"BENCH_03\",");
    let _ = writeln!(
        out,
        "  \"precision\": \"{}\",",
        precision_label(&opts.stopping)
    );
    let _ = writeln!(out, "  \"seed\": {},", opts.seed);
    let _ = writeln!(out, "  \"host_cores\": {},", report.host_cores);
    let _ = writeln!(
        out,
        "  \"suite\": \"fig16 sweep (7 points x 5 series) via the parallel replication runner\","
    );
    out.push_str("  \"threads_axis\": {\n");
    for (i, r) in report.runs.iter().enumerate() {
        let sep = if i + 1 == report.runs.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    \"{}\": {{\"wall_s\": {:.4}, \"events\": {}, \"events_per_sec\": {:.0}, \"fingerprint\": \"{:016x}\"}}{}",
            r.threads, r.wall_s, r.events, r.events_per_sec, r.fingerprint, sep
        );
    }
    out.push_str("  },\n");
    let _ = writeln!(out, "  \"bit_identical\": {},", report.bit_identical);
    out.push_str("  \"speedup_vs_1_thread\": {\n");
    let base = report.runs.first().map_or(0.0, |r| r.wall_s);
    for (i, r) in report.runs.iter().enumerate() {
        let sep = if i + 1 == report.runs.len() { "" } else { "," };
        let speedup = if r.wall_s > 0.0 { base / r.wall_s } else { 0.0 };
        let _ = writeln!(out, "    \"{}\": {:.2}{}", r.threads, speedup, sep);
    }
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oml_des::stats::StoppingRule;

    #[test]
    fn bench_suite_runs_and_reports() {
        let opts = RunOptions {
            stopping: StoppingRule {
                relative_precision: 0.2,
                confidence: 0.9,
                min_batches: 2,
                max_samples: 500,
            },
            seed: 1,
            threads: 1,
        };
        let report = run_bench_suite(&opts);
        assert_eq!(report.experiments.len(), 5);
        for e in &report.experiments {
            assert!(e.events > 0, "{} handled no events", e.name);
            assert!(e.wall_s > 0.0);
        }
        let json = render_bench_json(&report, &opts);
        assert!(json.contains("\"bench_id\": \"BENCH_02\""));
        assert!(json.contains("\"fig16\""));
        assert!(json.contains("speedup_vs_baseline"));
        assert_eq!(report.micro.len(), 5);
        for (name, ns) in &report.micro {
            assert!(
                *ns > 0.0 && json.contains(&format!("\"{name}\": ")),
                "{name}"
            );
        }
        // the actual precision and thread count are recorded, not assumed
        assert!(json.contains("\"precision\": \"custom(rp=0.2"));
        assert!(json.contains("\"threads\": 1,"));
    }

    #[test]
    fn precision_labels_name_the_presets() {
        assert_eq!(precision_label(&RunOptions::quick().stopping), "quick");
        assert_eq!(precision_label(&RunOptions::paper().stopping), "paper");
        let odd = StoppingRule {
            relative_precision: 0.5,
            ..RunOptions::quick().stopping
        };
        assert!(precision_label(&odd).starts_with("custom("));
    }

    #[test]
    fn scaling_suite_is_bit_identical_across_threads() {
        let opts = RunOptions {
            stopping: StoppingRule {
                relative_precision: 1e-9,
                confidence: 0.99,
                min_batches: u64::MAX,
                max_samples: 2_000,
            },
            seed: 1,
            threads: 1,
        };
        let report = run_scaling_suite(&opts, &[1, 2]);
        assert_eq!(report.runs.len(), 2);
        assert!(report.bit_identical, "threads must not change results");
        assert!(report.runs[0].events > 0);
        let json = render_scaling_json(&report, &opts);
        assert!(json.contains("\"bench_id\": \"BENCH_03\""));
        assert!(json.contains("\"bit_identical\": true"));
        assert!(json.contains("speedup_vs_1_thread"));
    }
}
