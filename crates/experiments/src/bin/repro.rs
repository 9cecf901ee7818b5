//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--quick | --paper] [--seed N] [--threads N] [--csv DIR]
//!
//! experiments:
//!   table1     the simulation-parameter glossary (Table 1)
//!   fig4       analytic §3.2 conflict costs
//!   fig8       usage-frequency sweep (Figs. 8/10/11)
//!   fig10      the Fig. 10 view of fig8 (mean duration of one call)
//!   fig11      the Fig. 11 view of fig8 (mean migration time per call)
//!   fig12      client scaling, break-even points (Fig. 12)
//!   fig14      dynamic placement strategies (Fig. 14)
//!   fig16      attachment modes (Fig. 16)
//!   fig16x     fig16 plus exclusive attachment (§3.4 extension)
//!   topology   §4.1 robustness: other network structures
//!   egoism     §2.4 extension: one egoistic mover vs three polite ones
//!   break-even §4.2.2 extension: break-even client counts vs the N/M ratio
//!   visit      §2.3 ablation: move blocks vs visit blocks
//!   location   §4.1 ablation: the four object-location mechanisms
//!   faults     robustness extension: degradation under message loss
//!   availability  recovery extension: client-visible latency/denials across
//!              a crash → detect → reinstantiate → heal cycle on the real
//!              runtime, with and without the failure detector
//!              (--multiprocess runs it instead over real worker OS
//!              processes on a Unix-domain socket, with a real SIGKILL
//!              mid-workload; exits nonzero if the denial-rate recovery
//!              shape regresses)
//!   durability robustness extension: fraction of objects surviving
//!              correlated failures (host crash, host+home double crash,
//!              replica-set-minus-one) as the checkpoint replication
//!              factor k grows, on the real runtime; checkpoint stores are
//!              WAL-backed under the --fsync policy (or OML_FSYNC)
//!              (--cold-restart instead SIGKILLs a whole multi-process
//!              cluster — coordinator and workers — and cold-starts a
//!              successor from the on-disk WAL alone, reporting recovered
//!              fraction and recovery latency per fsync policy plus a
//!              torn-write negative control the checker must flag; exits
//!              nonzero on any durability regression)
//!   check      replay seeded chaos schedules with protocol tracing on and
//!              verify the paper's invariants plus the lock-order graph
//!              (--seeds chaos | --seeds N,M,... to pick the schedules;
//!              --recovery adds the failure-detector schedules and the
//!              unfenced zombie negative control; --durability adds the
//!              quorum-replicated checkpoint schedules and the no-repair /
//!              stale-promotion negative controls; --negative replays the
//!              negative controls alone and exits nonzero — violations are
//!              present by construction)
//!   explore    DPOR model checker over the bundled small-scope matrix:
//!              the clean configs must enumerate exhaustively with zero
//!              violations and the seeded-mutation configs must yield
//!              minimized counterexamples, saved under results/explore/ and
//!              re-verified by bit-identical replay from disk (--smoke for
//!              the CI budget, --budget N to cap enumerated schedules,
//!              --replay FILE to re-execute a saved counterexample)
//!   bench      fixed quick-precision perf suite; writes BENCH_02.json
//!              (single-threaded unless --threads says otherwise, so the
//!              tracked baseline stays comparable across commits)
//!   scaling    threads-axis scaling suite over the parallel replication
//!              runner; asserts bit-identical results across thread counts
//!              and writes BENCH_03.json (--axis N,M,... picks the thread
//!              counts, default 1,2,4,8; --no-mega skips the standing mega
//!              world that is otherwise appended to the report)
//!   mega       the standing large-scale world: >=1M Zipf-popular objects
//!              on >=1024 nodes across 64 shards of the conservative
//!              time-windowed engine (--smoke runs the small CI variant)
//!   <file.csv> replot a previously saved result (no re-run)
//!   custom     run a scenario loaded with --scenario FILE (key = value
//!              format; see ScenarioConfig::to_config_text) under all five
//!              policies
//!   all        everything above
//! ```

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use oml_experiments::bench::{
    render_bench_json, render_scaling_json, run_bench_suite, run_scaling_suite,
};
use oml_experiments::check::{
    audit_lock_order, exercise_lock_sites, replay_chaos_seeds, replay_durability_seeds,
    replay_no_repair_negative, replay_recovery_seeds, replay_stale_promotion_negative,
    replay_zombie_negative, CHAOS_SEEDS,
};
use oml_experiments::experiments::{
    availability, availability_multiprocess, break_even_scaling, durability, egoism, faults, fig12,
    fig14, fig16, fig16_exclusive, fig4_cost, fig8, location_ablation, multiproc_worker_types,
    topology_ablation, visit_ablation, RunOptions,
};
use oml_experiments::explore::{render_outcome, replay_file, run_matrix};
use oml_experiments::{render_plot, render_svg, ExperimentResult, SvgOptions};
use oml_workload::mega::{run_mega, MegaConfig};
use oml_workload::table1::{table1, value_for};
use oml_workload::{run_scenario, ScenarioConfig};

struct Cli {
    experiment: String,
    opts: RunOptions,
    csv_dir: Option<PathBuf>,
    svg_dir: Option<PathBuf>,
    plot: bool,
    scenario: Option<PathBuf>,
    seeds: Option<String>,
    recovery: bool,
    durability_check: bool,
    negative: bool,
    budget: Option<u64>,
    replay: Option<PathBuf>,
    /// Set iff `--threads` was given explicitly (bench defaults to 1 for
    /// baseline comparability, everything else to `default_threads()`).
    threads_override: Option<usize>,
    axis: Option<String>,
    no_mega: bool,
    smoke: bool,
    multiprocess: bool,
    cold_restart: bool,
    /// Validated `--fsync` policy string; also exported as `OML_FSYNC` so
    /// re-executed child processes inherit it.
    fsync: Option<String>,
}

fn parse_args() -> Result<Cli, String> {
    let mut experiment = None;
    let mut opts = RunOptions::quick();
    let mut precision_set = false;
    let mut csv_dir = None;
    let mut svg_dir = None;
    let mut plot = false;
    let mut scenario = None;
    let mut seeds = None;
    let mut recovery = false;
    let mut durability_check = false;
    let mut negative = false;
    let mut budget = None;
    let mut replay = None;
    let mut threads_override = None;
    let mut axis = None;
    let mut no_mega = false;
    let mut smoke = false;
    let mut multiprocess = false;
    let mut cold_restart = false;
    let mut fsync = None;

    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                opts = RunOptions {
                    seed: opts.seed,
                    ..RunOptions::quick()
                };
                precision_set = true;
            }
            "--paper" => {
                opts = RunOptions {
                    seed: opts.seed,
                    ..RunOptions::paper()
                };
                precision_set = true;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count: {v}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                threads_override = Some(n);
            }
            "--axis" => {
                axis = Some(args.next().ok_or("--axis needs N,M,...")?);
            }
            "--no-mega" => no_mega = true,
            "--smoke" => smoke = true,
            "--multiprocess" => multiprocess = true,
            "--cold-restart" => cold_restart = true,
            "--fsync" => {
                let v = args.next().ok_or("--fsync needs always|never|batch:N:MS")?;
                if oml_runtime::FsyncPolicy::parse(&v).is_none() {
                    return Err(format!("bad fsync policy: {v} (always|never|batch:N:MS)"));
                }
                // exported so the worker/seed/recover child processes this
                // binary re-executes see the same policy
                env::set_var("OML_FSYNC", &v);
                fsync = Some(v);
            }
            "--csv" => {
                let v = args.next().ok_or("--csv needs a directory")?;
                csv_dir = Some(PathBuf::from(v));
            }
            "--plot" => plot = true,
            "--scenario" => {
                let v = args.next().ok_or("--scenario needs a file")?;
                scenario = Some(PathBuf::from(v));
            }
            "--seeds" => {
                seeds = Some(args.next().ok_or("--seeds needs `chaos` or N,M,...")?);
            }
            "--recovery" => recovery = true,
            "--durability" => durability_check = true,
            "--negative" => negative = true,
            "--budget" => {
                let v = args.next().ok_or("--budget needs a schedule count")?;
                budget = Some(v.parse().map_err(|_| format!("bad budget: {v}"))?);
            }
            "--replay" => {
                let v = args.next().ok_or("--replay needs a schedule file")?;
                replay = Some(PathBuf::from(v));
            }
            "--svg" => {
                let v = args.next().ok_or("--svg needs a directory")?;
                svg_dir = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(String::new()),
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    if !precision_set && !matches!(experiment.as_deref(), Some("check" | "explore")) {
        eprintln!(
            "(no precision flag given; defaulting to --quick — use --paper for the 1%/p=0.99 rule)"
        );
    }
    // applied last so `--threads 4 --paper` and `--paper --threads 4` agree
    if let Some(n) = threads_override {
        opts.threads = n;
    }
    Ok(Cli {
        experiment: experiment.ok_or("an experiment name is required")?,
        opts,
        csv_dir,
        svg_dir,
        plot,
        scenario,
        seeds,
        recovery,
        durability_check,
        negative,
        budget,
        replay,
        threads_override,
        axis,
        no_mega,
        smoke,
        multiprocess,
        cold_restart,
        fsync,
    })
}

/// One-line JSON record of the fsync policy an experiment actually ran
/// under — `--fsync` if given, else `OML_FSYNC`, else the default.
fn print_fsync_summary(experiment: &str, flag: Option<&str>) {
    let policy = flag.map_or_else(
        || {
            env::var("OML_FSYNC")
                .ok()
                .and_then(|v| oml_runtime::FsyncPolicy::parse(v.trim()))
                .unwrap_or_default()
                .to_string()
        },
        str::to_owned,
    );
    println!("{{\"experiment\": \"{experiment}\", \"fsync\": \"{policy}\"}}");
}

fn print_table1() {
    println!("# Table 1 — relevant simulation parameters");
    println!(
        "{:>8}  {:<38} {:>10}  {:>12} {:>12} {:>12} {:>12}",
        "symbol", "description", "distrib.", "fig8", "fig12", "fig14", "fig16"
    );
    let configs = [
        ScenarioConfig::fig8(f64::NAN),
        ScenarioConfig::fig12(0),
        ScenarioConfig::fig14(0),
        ScenarioConfig::fig16(0),
    ];
    for row in table1() {
        print!(
            "{:>8}  {:<38} {:>10}",
            row.symbol, row.description, row.distribution
        );
        for cfg in &configs {
            let v = match row.symbol {
                "C" => "varies".to_owned(),
                "t_m" if cfg.name.starts_with("fig8") => "varies".to_owned(),
                _ => value_for(cfg, row.symbol),
            };
            print!(" {v:>12}");
        }
        println!();
    }
}

fn emit(result: &ExperimentResult, cli: &Cli) {
    let csv_dir = cli.csv_dir.as_ref();
    println!("{}", result.to_ascii_table());
    if cli.plot {
        println!("{}", render_plot(result, 64, 20));
    }
    if let Some(dir) = &cli.svg_dir {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
        } else {
            let path = dir.join(format!("{}.svg", result.id));
            match fs::write(&path, render_svg(result, &SvgOptions::default())) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
    }
    if result.id == "fig12" {
        if let Some(x) = result.crossover("migration", "without migration") {
            println!("break-even migration vs sedentary: ~{x:.1} clients (paper: ~6)");
        }
        if let Some(x) = result.crossover("transient placement", "without migration") {
            println!("break-even placement vs sedentary: ~{x:.1} clients (paper: ~20)");
        }
        println!();
    }
    if let Some(dir) = csv_dir {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{}.csv", result.id));
        match fs::write(&path, result.to_csv()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
}

/// Replays the requested chaos seeds with tracing on, prints every
/// checker verdict and the lock-order audit, and reports overall success.
/// With `recovery`, additionally replays the failure-detector schedules
/// (crash → declare-dead → reinstantiate, plus a scripted zombie restart)
/// and the unfenced negative control, which must be *flagged*. With
/// `durability`, additionally replays the quorum-replicated checkpoint
/// schedules (host+home double crash under duplicated checkpoint traffic)
/// and the no-repair / stale-promotion negative controls, which must be
/// *flagged*.
/// The `--negative` path: replays the three rigged negative controls alone.
/// Violations are present *by construction*, so this path always exits
/// nonzero — the exit code uniformly means "violations found", whether they
/// were hoped for or not. A control that comes back clean is reported too
/// (the invariant meant to catch it is not biting), and still exits
/// nonzero.
fn run_check_negative(seed: u64) -> ExitCode {
    println!("# repro check --negative — rigged controls, violations expected");
    let mut all_flagged = true;
    for (name, outcome) in [
        ("unfenced zombie", replay_zombie_negative(seed)),
        ("no-repair", replay_no_repair_negative(seed)),
        ("stale-promotion", replay_stale_promotion_negative(seed)),
    ] {
        if outcome.report.is_clean() {
            eprintln!("{name}: CLEAN — the invariant meant to catch it is not biting");
            all_flagged = false;
        } else {
            println!(
                "{name}: flagged as expected ({} violation(s))",
                outcome.report.violations.len()
            );
        }
    }
    if all_flagged {
        println!("\nall negative controls flagged; exiting nonzero (violations present)");
    } else {
        eprintln!("\nsome negative controls were NOT flagged");
    }
    ExitCode::FAILURE
}

fn run_check(seeds_arg: Option<&str>, recovery: bool, durability: bool) -> ExitCode {
    let seeds: Vec<u64> = match seeds_arg {
        None | Some("chaos") => CHAOS_SEEDS.to_vec(),
        Some(list) => {
            let mut parsed = Vec::new();
            for part in list.split(',') {
                let part = part.trim();
                let seed = if let Some(hex) = part.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    part.parse()
                };
                match seed {
                    Ok(s) => parsed.push(s),
                    Err(_) => {
                        eprintln!("error: bad seed in --seeds: {part}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            parsed
        }
    };

    println!("# repro check — protocol invariants under seeded chaos");
    let mut clean = true;
    for outcome in replay_chaos_seeds(&seeds) {
        println!("\nseed {:#x}:", outcome.seed);
        println!("{}", outcome.report);
        clean &= outcome.report.is_clean();
    }

    if recovery {
        println!("\n# repro check --recovery — fenced reinstantiation under chaos");
        for outcome in replay_recovery_seeds(&seeds) {
            println!("\nrecovery seed {:#x}:", outcome.seed);
            println!("{}", outcome.report);
            clean &= outcome.report.is_clean();
        }
        // the negative control: without fencing the zombie double-installs,
        // and the stale-incarnation invariant MUST catch it
        let negative = replay_zombie_negative(seeds[0]);
        if negative.report.is_clean() {
            eprintln!(
                "\nunfenced zombie negative control came back CLEAN — the \
                 stale-incarnation invariant is not biting"
            );
            clean = false;
        } else {
            println!(
                "\nunfenced zombie negative control: flagged as expected \
                 ({} violation(s))",
                negative.report.violations.len()
            );
        }
    }

    if durability {
        println!("\n# repro check --durability — quorum-replicated checkpoints");
        for outcome in replay_durability_seeds(&seeds) {
            println!("\ndurability seed {:#x}:", outcome.seed);
            println!("{}", outcome.report);
            clean &= outcome.report.is_clean();
        }
        // negative control one: with the repair sweep off, a declared death
        // must leave a replica deficit the checker flags
        let no_repair = replay_no_repair_negative(seeds[0]);
        if no_repair.report.is_clean() {
            eprintln!(
                "\nno-repair negative control came back CLEAN — the \
                 replication-factor invariant is not biting"
            );
            clean = false;
        } else {
            println!(
                "\nno-repair negative control: flagged as expected \
                 ({} violation(s))",
                no_repair.report.violations.len()
            );
        }
        // negative control two: rigged stalest-survivor promotion must trip
        // the freshness invariant when a quorum-acked copy survives
        let stale = replay_stale_promotion_negative(seeds[0]);
        if stale.report.is_clean() {
            eprintln!(
                "\nstale-promotion negative control came back CLEAN — the \
                 freshness invariant is not biting"
            );
            clean = false;
        } else {
            println!(
                "\nstale-promotion negative control: flagged as expected \
                 ({} violation(s))",
                stale.report.violations.len()
            );
        }
    }

    println!("\n# lock-order audit");
    // a fault-free attach/migrate/crash scenario touches the lock sites the
    // chaos schedules miss (attachments never occur under chaos)
    let attach_report = exercise_lock_sites();
    println!("attach scenario: {}", attach_report);
    clean &= attach_report.is_clean();
    let audit = audit_lock_order();
    if audit.edges.is_empty() {
        if cfg!(debug_assertions) {
            println!("no lock nestings observed");
        } else {
            println!("(release build: lock-order recording is compiled out; run a debug build for the graph)");
        }
    } else {
        print!("{}", oml_check::lockorder::render_edges(&audit.edges));
    }
    if let Some(cycle) = &audit.cycle {
        eprintln!("lock-order CYCLE: {}", cycle.join(" -> "));
        clean = false;
    }
    if !audit.unknown.is_empty() {
        eprintln!(
            "undocumented lock nesting(s): {:?} — review and add to KNOWN_LOCK_ORDER + DESIGN.md §12.3",
            audit.unknown
        );
        clean = false;
    }

    if clean {
        println!("\nall invariants hold across {} seed(s)", seeds.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("\nviolations found");
        ExitCode::FAILURE
    }
}

/// The `explore` experiment: run the DPOR matrix (or replay one saved
/// schedule with `--replay`), printing per-configuration verdicts. Exit is
/// zero iff every configuration met its expectation — clean configs
/// enumerate exhaustively without violations, seeded-mutation configs
/// produce a counterexample whose disk round-trip replays bit-identically.
fn run_explore(cli: &Cli) -> ExitCode {
    if let Some(path) = &cli.replay {
        return match replay_file(path) {
            Ok(true) => {
                println!("replay verified: violation reproduced, digest bit-identical");
                ExitCode::SUCCESS
            }
            Ok(false) => {
                eprintln!("replay FAILED to reproduce the recorded counterexample");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut budget = if cli.smoke {
        oml_check::explore::Budget::smoke()
    } else {
        oml_check::explore::Budget::default()
    };
    if let Some(n) = cli.budget {
        budget.max_schedules = n;
    }
    println!(
        "# repro explore — DPOR over the small-scope matrix (≤{} schedules, ≤{} steps, depth ≤{})",
        budget.max_schedules, budget.max_steps, budget.max_depth
    );
    let out_dir = PathBuf::from("results/explore");
    let outcomes = run_matrix(&budget, &out_dir);
    let mut all_passed = true;
    for o in &outcomes {
        print!("\n{}", render_outcome(o));
        all_passed &= o.passed;
    }
    if all_passed {
        println!(
            "\nall {} configuration(s) met their expectations",
            outcomes.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("\nexploration expectations NOT met");
        ExitCode::FAILURE
    }
}

fn print_mega(report: &oml_workload::mega::MegaReport) {
    println!("# repro mega — the standing large-scale world");
    println!(
        "{} objects on {} nodes across {} shards, {} worker thread(s)",
        report.objects, report.nodes, report.shards, report.threads
    );
    println!(
        "simulated {:.0} time units: {} events in {:.2} s wall ({:.0} events/s)",
        report.sim_time, report.events, report.wall_s, report.events_per_sec
    );
    println!(
        "{} ticks, {} calls issued / {} completed ({} local), {} migrations",
        report.ticks,
        report.calls_issued,
        report.calls_completed,
        report.local_calls,
        report.migrations
    );
    println!(
        "mean response {:.3} time units, peak RSS {:.1} MiB",
        report.mean_response,
        report.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    );
}

/// The `scaling` experiment: run the replicated fig16 sweep once per thread
/// count, demand bit-identical metrics, append a mega-world run unless
/// `--no-mega`, and write `BENCH_03.json`.
fn run_scaling(cli: &Cli) -> ExitCode {
    let axis: Vec<usize> = match &cli.axis {
        None => vec![1, 2, 4, 8],
        Some(list) => {
            let mut parsed = Vec::new();
            for part in list.split(',') {
                match part.trim().parse::<usize>() {
                    Ok(n) if n > 0 => parsed.push(n),
                    _ => {
                        eprintln!("error: bad thread count in --axis: {part}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            parsed
        }
    };
    if axis.is_empty() {
        eprintln!("error: --axis needs at least one thread count");
        return ExitCode::FAILURE;
    }

    println!("# repro scaling — replication runner over threads {axis:?}");
    let report = run_scaling_suite(&cli.opts, &axis);
    let base = report.runs.first().map_or(0.0, |r| r.wall_s);
    for r in &report.runs {
        let speedup = if r.wall_s > 0.0 { base / r.wall_s } else { 0.0 };
        println!(
            "{:>2} thread(s): {:>8.3} s  {:>10} events  {:>12.0} events/s  x{:.2}  fp {:016x}",
            r.threads, r.wall_s, r.events, r.events_per_sec, speedup, r.fingerprint
        );
    }
    println!(
        "bit-identical across the axis: {} (host has {} core(s))",
        report.bit_identical, report.host_cores
    );

    let mega = if cli.no_mega {
        None
    } else {
        let cfg = if cli.smoke {
            MegaConfig::smoke()
        } else {
            MegaConfig::standing()
        };
        let threads = cli
            .threads_override
            .unwrap_or_else(|| axis.iter().copied().max().unwrap_or(1));
        let m = run_mega(&cfg, cli.opts.seed, threads);
        println!();
        print_mega(&m);
        Some(m)
    };

    let json = render_scaling_json(&report, mega.as_ref(), &cli.opts);
    let path = PathBuf::from("BENCH_03.json");
    if let Err(e) = fs::write(&path, json) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());

    if !report.bit_identical {
        eprintln!("error: thread counts disagreed — the runner is not deterministic");
        return ExitCode::FAILURE;
    }
    // the speedup check only means something when the host can actually
    // run two workers at once
    if report.host_cores >= 2 && axis.len() >= 2 {
        let best = report
            .runs
            .iter()
            .skip(1)
            .map(|r| if r.wall_s > 0.0 { base / r.wall_s } else { 0.0 })
            .fold(0.0f64, f64::max);
        if best <= 1.0 {
            eprintln!(
                "error: no speedup over 1 thread on a {}-core host",
                report.host_cores
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // worker role: `availability --multiprocess` re-executes this binary as
    // its worker processes with OML_MP_* set; nothing else may run in them
    if let Some(opts) = oml_runtime::WorkerOptions::from_env() {
        let _ = oml_runtime::run_worker(&opts, &multiproc_worker_types());
        return ExitCode::SUCCESS;
    }
    // cold-restart seed/recover roles (`durability --cold-restart`
    // re-executes this binary with OML_COLD_ROLE set); checked after the
    // worker role because worker grandchildren inherit OML_COLD_ROLE too
    if let Some(code) = oml_experiments::cold::maybe_run_child() {
        return code;
    }
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!(
                "usage: repro <table1|fig4|fig8|fig10|fig11|fig12|fig14|fig16|fig16x|availability|durability|check|explore|bench|scaling|mega|...|all> \
                 [--quick|--paper] [--seed N] [--threads N] [--seeds chaos|N,M,...] [--recovery] [--durability] [--negative] \
                 [--budget N] [--replay FILE] [--axis N,M,...] [--no-mega] [--smoke] [--multiprocess] \
                 [--cold-restart] [--fsync always|never|batch:N:MS] [--csv DIR] [--svg DIR] [--plot]"
            );
            return ExitCode::FAILURE;
        }
    };

    let run_one = |name: &str| -> bool {
        match name {
            "table1" => {
                print_table1();
                println!();
            }
            "fig4" => emit(&fig4_cost(), &cli),
            "fig8" => emit(&fig8(&cli.opts), &cli),
            "fig10" => emit(
                &fig8(&cli.opts).derive("fig10", "mean duration of one call", |m| m.call_time),
                &cli,
            ),
            "fig11" => emit(
                &fig8(&cli.opts).derive("fig11", "mean migration time per call", |m| {
                    m.migration_time
                }),
                &cli,
            ),
            "fig12" => emit(&fig12(&cli.opts), &cli),
            "fig14" => emit(&fig14(&cli.opts), &cli),
            "fig16" => emit(&fig16(&cli.opts), &cli),
            "fig16x" => emit(&fig16_exclusive(&cli.opts), &cli),
            "topology" => emit(&topology_ablation(&cli.opts), &cli),
            "egoism" => emit(&egoism(&cli.opts), &cli),
            "break-even" => emit(&break_even_scaling(&cli.opts), &cli),
            "visit" => emit(&visit_ablation(&cli.opts), &cli),
            "location" => emit(&location_ablation(&cli.opts), &cli),
            "faults" => emit(&faults(&cli.opts), &cli),
            "availability" if cli.multiprocess => {
                emit(&availability_multiprocess(), &cli);
                print_fsync_summary("availability-multiprocess", cli.fsync.as_deref());
            }
            "availability" => emit(&availability(&cli.opts), &cli),
            "durability" => {
                emit(&durability(&cli.opts), &cli);
                print_fsync_summary("durability", cli.fsync.as_deref());
            }
            _ => return false,
        }
        true
    };

    match cli.experiment.as_str() {
        "durability" if cli.cold_restart => {
            oml_experiments::cold::run_cold_restart(cli.fsync.as_deref())
        }
        "check" if cli.negative => run_check_negative(CHAOS_SEEDS[0]),
        "check" => run_check(cli.seeds.as_deref(), cli.recovery, cli.durability_check),
        "explore" => run_explore(&cli),
        "bench" => {
            // The bench suite is the tracked baseline: quick precision and
            // one thread unless overridden explicitly, so numbers stay
            // comparable across commits. The JSON records whatever precision
            // and thread count actually ran.
            let opts = RunOptions {
                seed: cli.opts.seed,
                threads: cli.threads_override.unwrap_or(1),
                ..RunOptions::quick()
            };
            let report = run_bench_suite(&opts);
            for e in &report.experiments {
                println!(
                    "{:<8} {:>8.3} s  {:>10} events  {:>12.0} events/s",
                    e.name, e.wall_s, e.events, e.events_per_sec
                );
            }
            let json = render_bench_json(&report, &opts);
            let path = PathBuf::from("BENCH_02.json");
            match fs::write(&path, json) {
                Ok(()) => {
                    println!("wrote {}", path.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    ExitCode::FAILURE
                }
            }
        }
        "scaling" => run_scaling(&cli),
        "mega" => {
            let cfg = if cli.smoke {
                MegaConfig::smoke()
            } else {
                MegaConfig::standing()
            };
            let report = run_mega(&cfg, cli.opts.seed, cli.opts.threads);
            print_mega(&report);
            ExitCode::SUCCESS
        }
        "custom" => {
            let Some(path) = &cli.scenario else {
                eprintln!("error: `custom` needs --scenario FILE");
                return ExitCode::FAILURE;
            };
            let text = match fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            let config = match ScenarioConfig::from_config_text(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            use oml_core::attach::AttachmentMode;
            use oml_core::policy::PolicyKind;
            use oml_sim::metrics::MetricsRow;
            use std::collections::BTreeMap;
            let mut series = BTreeMap::new();
            for kind in PolicyKind::ALL {
                let out = run_scenario(
                    &config,
                    kind,
                    AttachmentMode::Unrestricted,
                    cli.opts.stopping,
                    cli.opts.seed,
                );
                series.insert(kind.to_string(), MetricsRow::from(&out.metrics));
            }
            let result = ExperimentResult {
                id: "custom".into(),
                title: format!("custom scenario `{}`", config.name),
                x_label: "clients".into(),
                y_label: "mean communication time per call".into(),
                points: vec![oml_experiments::SweepPoint {
                    x: f64::from(config.clients),
                    series,
                }],
            };
            emit(&result, &cli);
            ExitCode::SUCCESS
        }
        path if path.ends_with(".csv") => {
            // replot a previously saved result without re-running
            let id = PathBuf::from(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "reloaded".into());
            match fs::read_to_string(path) {
                Ok(csv) => match ExperimentResult::from_csv(&id, &csv) {
                    Ok(result) => {
                        emit(&result, &cli);
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::FAILURE
                    }
                },
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "all" => {
            for name in [
                "table1",
                "fig4",
                "fig8",
                "fig12",
                "fig14",
                "fig16",
                "fig16x",
                "topology",
                "egoism",
                "break-even",
                "visit",
                "location",
                "faults",
                "availability",
                "durability",
            ] {
                let ok = run_one(name);
                debug_assert!(ok);
            }
            ExitCode::SUCCESS
        }
        name => {
            if run_one(name) {
                ExitCode::SUCCESS
            } else {
                eprintln!("unknown experiment: {name}");
                ExitCode::FAILURE
            }
        }
    }
}
