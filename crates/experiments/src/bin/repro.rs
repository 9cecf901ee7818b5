//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--quick | --paper] [--seed N] [--threads N] [--csv DIR]
//! ```
//!
//! The experiments are the rows of [`EXPERIMENTS`]; `repro` without
//! arguments prints them, with every flag.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use oml_experiments::bench::{
    render_bench_json, render_scaling_json, run_bench_suite, run_scaling_suite,
};
use oml_experiments::check::{
    replay_chaos_seed, replay_durability_seed, replay_recovery_seed, CheckOutcome, CHAOS_SEEDS,
    NEGATIVE_CONTROLS,
};
use oml_experiments::experiments::{
    availability, availability_multiprocess, break_even_scaling, durability, egoism, faults, fig12,
    fig14, fig16, fig16_exclusive, fig4_cost, fig8, fsync_from_env, location_ablation,
    multiproc_worker_types, topology_ablation, visit_ablation, RunOptions,
};
use oml_experiments::explore::{render_outcome, replay_file, run_matrix};
use oml_experiments::{render_plot, render_svg, ExperimentResult, SvgOptions};
use oml_workload::table1::{table1, value_for};
use oml_workload::{run_scenario, ScenarioConfig};

#[derive(Default)]
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
    smoke: bool,
    multiprocess: bool,
    cold_restart: bool,
    /// Validated `--fsync` policy string; also exported as `OML_FSYNC` so
    /// re-executed child processes inherit it.
    fsync: Option<String>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        opts: RunOptions::quick(),
        ..Cli::default()
    };
    let mut precision_set = false;

    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "--paper" => {
                let preset = if arg == "--quick" {
                    RunOptions::quick()
                } else {
                    RunOptions::paper()
                };
                cli.opts = RunOptions {
                    seed: cli.opts.seed,
                    ..preset
                };
                precision_set = true;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                cli.opts.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count: {v}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                cli.threads_override = Some(n);
            }
            "--axis" => cli.axis = Some(args.next().ok_or("--axis needs N,M,...")?),
            "--smoke" => cli.smoke = true,
            "--multiprocess" => cli.multiprocess = true,
            "--cold-restart" => cli.cold_restart = true,
            "--fsync" => {
                let v = args.next().ok_or("--fsync needs always|never|batch:N:MS")?;
                if oml_runtime::FsyncPolicy::parse(&v).is_none() {
                    return Err(format!("bad fsync policy: {v} (always|never|batch:N:MS)"));
                }
                // exported so the worker/seed/recover child processes this
                // binary re-executes see the same policy
                env::set_var("OML_FSYNC", &v);
                cli.fsync = Some(v);
            }
            "--csv" => cli.csv_dir = Some(args.next().ok_or("--csv needs a directory")?.into()),
            "--plot" => cli.plot = true,
            "--scenario" => {
                cli.scenario = Some(args.next().ok_or("--scenario needs a file")?.into());
            }
            "--seeds" => {
                cli.seeds = Some(args.next().ok_or("--seeds needs `chaos` or N,M,...")?);
            }
            "--recovery" => cli.recovery = true,
            "--durability" => cli.durability_check = true,
            "--negative" => cli.negative = true,
            "--budget" => {
                let v = args.next().ok_or("--budget needs a schedule count")?;
                cli.budget = Some(v.parse().map_err(|_| format!("bad budget: {v}"))?);
            }
            "--replay" => {
                cli.replay = Some(args.next().ok_or("--replay needs a schedule file")?.into());
            }
            "--svg" => cli.svg_dir = Some(args.next().ok_or("--svg needs a directory")?.into()),
            "--help" | "-h" => return Err(String::new()),
            name if cli.experiment.is_empty() && !name.starts_with('-') => {
                if !name.ends_with(".csv") && !EXPERIMENTS.iter().any(|e| e.name == name) {
                    return Err(format!("unknown experiment: {name}"));
                }
                cli.experiment = name.to_owned();
            }
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    if cli.experiment.is_empty() {
        return Err("an experiment name is required".into());
    }
    if !precision_set && !matches!(cli.experiment.as_str(), "check" | "explore") {
        eprintln!(
            "(no precision flag given; defaulting to --quick — use --paper for the 1%/p=0.99 rule)"
        );
    }
    // applied last so `--threads 4 --paper` and `--paper --threads 4` agree
    if let Some(n) = cli.threads_override {
        cli.opts.threads = n;
    }
    Ok(cli)
}

/// One-line JSON record of the fsync policy an experiment ran under:
/// `OML_FSYNC`, which `--fsync` sets, else the default.
fn print_fsync_summary(experiment: &str) {
    let policy = fsync_from_env();
    println!("{{\"experiment\": \"{experiment}\", \"fsync\": \"{policy}\"}}");
}

fn print_table1() -> ExitCode {
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
    println!();
    ExitCode::SUCCESS
}

/// Writes `contents` to `dir/file`, creating `dir`; says what happened.
fn save(dir: &Path, file: String, contents: String) {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(file);
    match fs::write(&path, contents) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Prints `result` (and plots / saves it as the flags ask); an experiment
/// that got this far has succeeded.
fn emit(result: &ExperimentResult, cli: &Cli) -> ExitCode {
    println!("{}", result.to_ascii_table());
    if cli.plot {
        println!("{}", render_plot(result, 64, 20));
    }
    if let Some(dir) = &cli.svg_dir {
        let svg = render_svg(result, &SvgOptions::default());
        save(dir, format!("{}.svg", result.id), svg);
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
    if let Some(dir) = &cli.csv_dir {
        save(dir, format!("{}.csv", result.id), result.to_csv());
    }
    ExitCode::SUCCESS
}

/// The `--negative` path: replays the rigged negative controls alone.
/// Violations are present *by construction*, so this path always exits
/// nonzero — the exit code uniformly means "violations found", whether they
/// were hoped for or not. A control that comes back clean is reported too
/// (the invariant meant to catch it is not biting), and still exits
/// nonzero.
fn run_check_negative() -> ExitCode {
    let seed = CHAOS_SEEDS[0];
    println!("# repro check --negative — rigged controls, violations expected");
    let mut all_flagged = true;
    for control in NEGATIVE_CONTROLS {
        let name = control.name;
        let outcome = (control.run)(seed);
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

/// Replays the requested chaos seeds with tracing on, prints every
/// checker verdict, and reports overall success. A debug build aborts at
/// any lock taken under another (DESIGN.md §12.3).
/// With `--recovery`, additionally replays the failure-detector schedules
/// (crash → declare-dead → reinstantiate, plus a scripted zombie restart);
/// with `--durability`, the quorum-replicated checkpoint schedules
/// (host+home double crash under duplicated checkpoint traffic). Each flag
/// also replays its [`NEGATIVE_CONTROLS`], which must be *flagged*; with
/// `--negative` those are all that runs.
fn run_check(cli: &Cli) -> ExitCode {
    if cli.negative {
        return run_check_negative();
    }
    let seeds: Vec<u64> = match cli.seeds.as_deref() {
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

    let mut clean = true;
    // one schedule family: every seed replayed and printed, then the
    // negative controls riding on `flag` — rigged so that a violation is
    // present, which the named invariant MUST catch
    let mut family =
        |flag: &str, heading: &str, seed_label: &str, replay: fn(u64) -> CheckOutcome| {
            println!("{heading}");
            for &seed in &seeds {
                let outcome = replay(seed);
                println!("\n{seed_label} {:#x}:", outcome.seed);
                println!("{}", outcome.report);
                // one line per seed, the same on every run of that seed
                let digest = outcome.digest;
                println!("trace_digest {seed_label} {seed:#x} {digest:#018x}");
                clean &= outcome.report.is_clean();
            }
            for control in NEGATIVE_CONTROLS.iter().filter(|c| c.gate == flag) {
                let (name, invariant) = (control.name, control.invariant);
                let outcome = (control.run)(seeds[0]);
                if outcome.report.is_clean() {
                    eprintln!(
                        "\n{name} negative control came back CLEAN — the \
                         {invariant} invariant is not biting"
                    );
                    clean = false;
                } else {
                    println!(
                        "\n{name} negative control: flagged as expected \
                         ({} violation(s))",
                        outcome.report.violations.len()
                    );
                }
            }
        };
    family(
        "",
        "# repro check — protocol invariants under seeded chaos",
        "seed",
        replay_chaos_seed,
    );
    if cli.recovery {
        family(
            "--recovery",
            "\n# repro check --recovery — fenced reinstantiation under chaos",
            "recovery seed",
            replay_recovery_seed,
        );
    }
    if cli.durability_check {
        family(
            "--durability",
            "\n# repro check --durability — quorum-replicated checkpoints",
            "durability seed",
            replay_durability_seed,
        );
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

/// The `scaling` experiment: run the replicated fig16 sweep once per thread
/// count, demand bit-identical metrics, and write `BENCH_03.json`.
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

    let json = render_scaling_json(&report, &cli.opts);
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

/// One `repro` experiment. Dispatch, `all`, and the help `repro` prints
/// without arguments are all read off [`EXPERIMENTS`]: adding an experiment
/// is adding a row.
struct Experiment {
    name: &'static str,
    /// Help text, one `\n`-separated line per printed line.
    about: &'static str,
    /// Whether `repro all` runs it (marked `*` in the help).
    in_all: bool,
    run: fn(&Cli) -> ExitCode,
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        about: "the simulation-parameter glossary (Table 1)",
        in_all: true,
        run: |_| print_table1(),
    },
    Experiment {
        name: "fig4",
        about: "analytic §3.2 conflict costs",
        in_all: true,
        run: |cli| emit(&fig4_cost(), cli),
    },
    Experiment {
        name: "fig8",
        about: "usage-frequency sweep (Figs. 8/10/11)",
        in_all: true,
        run: |cli| emit(&fig8(&cli.opts), cli),
    },
    Experiment {
        name: "fig10",
        about: "the Fig. 10 view of fig8 (mean duration of one call)",
        in_all: false,
        run: |cli| {
            let view =
                fig8(&cli.opts).derive("fig10", "mean duration of one call", |m| m.call_time);
            emit(&view, cli)
        },
    },
    Experiment {
        name: "fig11",
        about: "the Fig. 11 view of fig8 (mean migration time per call)",
        in_all: false,
        run: |cli| {
            let view = fig8(&cli.opts).derive("fig11", "mean migration time per call", |m| {
                m.migration_time
            });
            emit(&view, cli)
        },
    },
    Experiment {
        name: "fig12",
        about: "client scaling, break-even points (Fig. 12)",
        in_all: true,
        run: |cli| emit(&fig12(&cli.opts), cli),
    },
    Experiment {
        name: "fig14",
        about: "dynamic placement strategies (Fig. 14)",
        in_all: true,
        run: |cli| emit(&fig14(&cli.opts), cli),
    },
    Experiment {
        name: "fig16",
        about: "attachment modes (Fig. 16)",
        in_all: true,
        run: |cli| emit(&fig16(&cli.opts), cli),
    },
    Experiment {
        name: "fig16x",
        about: "fig16 plus exclusive attachment (§3.4 extension)",
        in_all: true,
        run: |cli| emit(&fig16_exclusive(&cli.opts), cli),
    },
    Experiment {
        name: "topology",
        about: "§4.1 robustness: other network structures",
        in_all: true,
        run: |cli| emit(&topology_ablation(&cli.opts), cli),
    },
    Experiment {
        name: "egoism",
        about: "§2.4 extension: one egoistic mover vs three polite ones",
        in_all: true,
        run: |cli| emit(&egoism(&cli.opts), cli),
    },
    Experiment {
        name: "break-even",
        about: "§4.2.2 extension: break-even client counts vs the N/M ratio",
        in_all: true,
        run: |cli| emit(&break_even_scaling(&cli.opts), cli),
    },
    Experiment {
        name: "visit",
        about: "§2.3 ablation: move blocks vs visit blocks",
        in_all: true,
        run: |cli| emit(&visit_ablation(&cli.opts), cli),
    },
    Experiment {
        name: "location",
        about: "§4.1 ablation: the four object-location mechanisms",
        in_all: true,
        run: |cli| emit(&location_ablation(&cli.opts), cli),
    },
    Experiment {
        name: "faults",
        about: "robustness extension: degradation under message loss",
        in_all: true,
        run: |cli| emit(&faults(&cli.opts), cli),
    },
    Experiment {
        name: "availability",
        about: "recovery extension: client-visible latency/denials across\n\
                a crash → detect → reinstantiate → heal cycle on the real\n\
                runtime, with and without the failure detector\n\
                (--multiprocess runs it instead over real worker OS\n\
                processes on a Unix-domain socket, with a real SIGKILL\n\
                mid-workload; exits nonzero if the denial-rate recovery\n\
                shape regresses)",
        in_all: true,
        run: run_availability,
    },
    Experiment {
        name: "durability",
        about: "robustness extension: fraction of objects surviving\n\
                correlated failures (host crash, host+home double crash,\n\
                replica-set-minus-one) as the checkpoint replication\n\
                factor k grows, on the real runtime; checkpoint stores are\n\
                WAL-backed under the --fsync policy (or OML_FSYNC)\n\
                (--cold-restart instead SIGKILLs a whole multi-process\n\
                cluster — coordinator and workers — and cold-starts a\n\
                successor from the on-disk WAL alone, reporting recovered\n\
                fraction and recovery latency per fsync policy plus a\n\
                torn-write negative control the checker must flag; exits\n\
                nonzero on any durability regression)",
        in_all: true,
        run: run_durability,
    },
    Experiment {
        name: "check",
        about: "replay seeded chaos schedules with protocol tracing on and\n\
                verify the paper's invariants; a debug build also aborts\n\
                at any lock taken under another (--seeds chaos |\n\
                --seeds N,M,... to pick the schedules; --recovery adds\n\
                the failure-detector schedules and the unfenced zombie\n\
                negative control; --durability adds the\n\
                quorum-replicated checkpoint schedules and the no-repair /\n\
                stale-promotion negative controls; --negative replays the\n\
                negative controls alone and exits nonzero — violations are\n\
                present by construction)",
        in_all: false,
        run: run_check,
    },
    Experiment {
        name: "explore",
        about: "DPOR model checker over the bundled small-scope matrix:\n\
                the clean configs must enumerate exhaustively with zero\n\
                violations and the seeded-mutation configs must yield\n\
                minimized counterexamples, saved under results/explore/ and\n\
                re-verified by bit-identical replay from disk (--smoke for\n\
                the CI budget, --budget N to cap enumerated schedules,\n\
                --replay FILE to re-execute a saved counterexample)",
        in_all: false,
        run: run_explore,
    },
    Experiment {
        name: "bench",
        about: "fixed quick-precision perf suite; writes BENCH_02.json\n\
                (single-threaded unless --threads says otherwise, so the\n\
                tracked baseline stays comparable across commits)",
        in_all: false,
        run: run_bench,
    },
    Experiment {
        name: "scaling",
        about: "threads-axis scaling suite over the parallel replication\n\
                runner; asserts bit-identical results across thread counts\n\
                and writes BENCH_03.json (--axis N,M,... picks the thread\n\
                counts, default 1,2,4,8)",
        in_all: false,
        run: run_scaling,
    },
    Experiment {
        name: "custom",
        about: "run a scenario loaded with --scenario FILE (key = value\n\
                format; see ScenarioConfig::to_config_text) under all five\n\
                policies",
        in_all: false,
        run: run_custom,
    },
    Experiment {
        name: "all",
        about: "every experiment marked * above, in that order",
        in_all: false,
        run: |cli| {
            for experiment in EXPERIMENTS.iter().filter(|e| e.in_all) {
                (experiment.run)(cli);
            }
            ExitCode::SUCCESS
        },
    },
];

/// What `repro` prints when it cannot tell what to run: the flags, then
/// one entry per [`EXPERIMENTS`] row.
fn usage() -> String {
    let mut text = String::from(
        "usage: repro <experiment> [--quick|--paper] [--seed N] [--threads N] \
         [--seeds chaos|N,M,...] [--recovery] [--durability] [--negative] \
         [--budget N] [--replay FILE] [--axis N,M,...] [--smoke] [--multiprocess] \
         [--cold-restart] [--fsync always|never|batch:N:MS] [--scenario FILE] [--csv DIR] \
         [--svg DIR] [--plot]\n\nexperiments (* = part of `all`):\n",
    );
    for experiment in EXPERIMENTS {
        let mark = if experiment.in_all { "*" } else { "" };
        let mut lines = experiment.about.lines();
        let first = lines.next().unwrap_or_default();
        text += &format!("  {:<12} {mark:<1} {first}\n", experiment.name);
        for line in lines {
            text += &format!("{:17}{line}\n", "");
        }
    }
    text += "  <file.csv>     replot a previously saved result (no re-run)";
    text
}

fn run_availability(cli: &Cli) -> ExitCode {
    if !cli.multiprocess {
        return emit(&availability(&cli.opts), cli);
    }
    let code = emit(&availability_multiprocess(), cli);
    print_fsync_summary("availability-multiprocess");
    code
}

fn run_durability(cli: &Cli) -> ExitCode {
    if cli.cold_restart {
        return oml_experiments::cold::run_cold_restart(cli.fsync.as_deref());
    }
    let code = emit(&durability(&cli.opts), cli);
    print_fsync_summary("durability");
    code
}

/// The bench suite is the tracked baseline: quick precision and one thread
/// unless overridden explicitly, so numbers stay comparable across commits.
/// The JSON records whatever precision and thread count actually ran.
fn run_bench(cli: &Cli) -> ExitCode {
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
    for (name, ns) in &report.micro {
        println!("{name:<28} {ns:>10.1} ns/op");
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

fn run_custom(cli: &Cli) -> ExitCode {
    use oml_core::attach::AttachmentMode;
    use oml_core::policy::PolicyKind;
    use oml_sim::metrics::MetricsRow;
    use std::collections::BTreeMap;

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
    emit(&result, cli)
}

/// Replots a previously saved result without re-running it.
fn replot(path: &str, cli: &Cli) -> ExitCode {
    let id = PathBuf::from(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "reloaded".into());
    let csv = match fs::read_to_string(path) {
        Ok(csv) => csv,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match ExperimentResult::from_csv(&id, &csv) {
        Ok(result) => emit(&result, cli),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
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
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let name = cli.experiment.as_str();
    match EXPERIMENTS.iter().find(|e| e.name == name) {
        Some(experiment) => (experiment.run)(&cli),
        None => replot(name, &cli), // `parse_args` let nothing else through
    }
}
