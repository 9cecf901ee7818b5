//! The harness process: checks the guards, starts one process per workload
//! run, gathers what they report, prints it, compares repeats and writes
//! `bench/out/`.

use crate::guard;
use crate::hist::median;
use crate::procfs;
use crate::report::{json_metrics, json_result, json_string, parse_records, Records, END_TO_END};
use crate::workloads::NAMES;
use std::fmt::Write as _;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

pub struct Args {
    /// One workload (the driver's interface); `None` runs all four.
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: usize,
    pub trace: bool,
    pub repeat: usize,
    pub smoke: bool,
}

/// Set-ups per reported `setup_s`: the median of five is what a run says.
const SETUPS: usize = 5;

/// `bench/`, wherever this checkout is: outputs and scratch space live
/// under it and nowhere else.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The harness's files under `bench/out/`; dropping it removes the scratch
/// directory on every way out of `run`.
struct Session {
    out: PathBuf,
    tmp: PathBuf,
    runs: usize,
}

impl Session {
    fn open() -> Result<Session, String> {
        let out = bench_dir().join("out");
        let tmp = out.join("tmp");
        // left over from a run that was killed
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        Ok(Session { out, tmp, runs: 0 })
    }

    fn next_run_dir(&mut self) -> Result<PathBuf, String> {
        self.runs += 1;
        let dir = self.tmp.join(format!("r{}", self.runs));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// SIGKILLs whatever is left of process group `pgrp` and waits until it is
/// gone. After an orderly run the group is already empty; this is for a
/// workload process that panicked or hung with workers alive.
fn reap_group(pgrp: u32) {
    if procfs::pids_in_group(pgrp).is_empty() {
        return;
    }
    let _ = Command::new("kill")
        .args(["-KILL", "--", &format!("-{pgrp}")])
        .stderr(Stdio::null())
        .status();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !procfs::pids_in_group(pgrp).is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// What one workload process produced, plus files it left in its run
/// directory (read before the directory is removed).
struct ChildOutput {
    records: Records,
    budget: Option<String>,
    trace: Option<String>,
}

fn run_child(
    session: &mut Session,
    workload: &str,
    args: &Args,
    setup_only: bool,
) -> Result<ChildOutput, String> {
    let dir = session.next_run_dir()?;
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    let started = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| format!("system clock before 1970: {e}"))?
        .as_nanos();
    let mut command = Command::new(exe);
    command
        .args(["--child", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .env("OML_BENCH_T0", started.to_string())
        .current_dir(&dir)
        // its own group, so that workers it leaves behind can be found
        .process_group(0)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if setup_only {
        command.arg("--setup-only");
    }
    let child = command
        .spawn()
        .map_err(|e| format!("start workload process: {e}"))?;
    let pgrp = child.id();
    let output = child.wait_with_output();
    reap_group(pgrp);
    let output = output.map_err(|e| format!("wait for workload process: {e}"))?;
    let mut records = parse_records(&String::from_utf8_lossy(&output.stdout));
    if !output.status.success() {
        records
            .errors
            .push(format!("workload process ended with {}", output.status));
    }
    let result = ChildOutput {
        records,
        budget: std::fs::read_to_string(dir.join("budget.md")).ok(),
        trace: std::fs::read_to_string(dir.join("trace.json")).ok(),
    };
    let _ = std::fs::remove_dir_all(&dir);
    Ok(result)
}

/// One complete run of one workload: for an end-to-end run, extra set-ups
/// so `setup_s` is a median; then the measured process.
fn run_workload(session: &mut Session, workload: &str, args: &Args) -> Result<ChildOutput, String> {
    let mut setups = Vec::new();
    let mut early_errors = Vec::new();
    if !args.trace {
        for _ in 1..SETUPS {
            let mut out = run_child(session, workload, args, true)?;
            setups.extend(out.records.get("setup_s"));
            early_errors.append(&mut out.records.errors);
        }
    }
    let mut out = run_child(session, workload, args, false)?;
    out.records.errors.append(&mut early_errors);
    if let Some(metric) = out.records.metrics.iter_mut().find(|m| m.name == "setup_s") {
        setups.push(metric.value);
        metric.value = median(&setups);
    }
    if args.trace {
        out.records.metrics.retain(|m| m.name != "setup_s");
    } else {
        for metric in &END_TO_END {
            if out.records.get(metric.name).is_none() {
                out.records
                    .errors
                    .push(format!("{} was not reported", metric.name));
            }
        }
    }
    if out.records.attempted == 0 {
        out.records
            .errors
            .push("no operation was measured".to_owned());
    }
    Ok(out)
}

fn print_run(workload: &str, args: &Args, records: &Records) {
    let kind = if args.trace {
        "traced run, per-layer metrics"
    } else {
        "end-to-end"
    };
    println!(
        "== {workload} ({kind}; seed {:#x}, {} s) ==",
        args.seed, args.seconds
    );
    for m in &records.metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<36} {:>16} of {} attempted",
        "failed operations", records.failed, records.attempted
    );
    for (key, value) in &records.notes {
        println!("  note: {key} = {value}");
    }
    for error in &records.errors {
        println!("  CHECK FAILED: {error}");
    }
    if records.errors.is_empty() {
        println!("  output checks passed");
    }
}

fn command_line(command: &str, args: &[&str]) -> String {
    Command::new(command)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host metadata every result file carries, as a JSON object.
fn host_json(pinned_cpu: u32, fs_type: &str) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cores = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let repo = bench_dir().parent().unwrap_or(bench_dir());
    let commit = command_line("git", &["-C", &repo.to_string_lossy(), "rev-parse", "HEAD"]);
    format!(
        "{{\"host_cores\": {cores}, \"cpu_model\": {}, \"pinned_cpu\": {pinned_cpu}, \
         \"kernel\": {}, \"rustc\": {}, \"build_profile\": \"release, lto=fat, codegen-units=1\", \
         \"git_commit\": {}, \"scratch_fs\": {}}}",
        json_string(model),
        json_string(kernel.trim()),
        json_string(&command_line("rustc", &["--version"])),
        json_string(&commit),
        json_string(fs_type),
    )
}

fn write_out(session: &Session, name: &str, text: &str) -> Result<(), String> {
    let path = session.out.join(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run_json(workload: &str, args: &Args, records: &Records) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \"metrics\": {}}}",
        json_string(workload),
        args.seed,
        args.seconds,
        args.trace,
        records.errors.is_empty(),
        records.attempted,
        records.failed,
        records
            .errors
            .iter()
            .map(|e| json_string(e))
            .collect::<Vec<_>>()
            .join(", "),
        json_metrics(&records.metrics),
    )
}

const BUDGET_HEADER: &str = "# Latency budget\n\n\
    Which layer owns what share of an operation's median latency. Unit costs are the \
    per-layer timings of the same traced run; calls per operation come from the workload's \
    definition and the runtime's public counters. See `bench/README.md` for how to read it.\n\n";

/// The driver's interface: one workload, one result line.
fn single(session: &mut Session, workload: &str, args: &Args, host: &str) -> Result<bool, String> {
    let out = run_workload(session, workload, args)?;
    print_run(workload, args, &out.records);
    let correct = out.records.errors.is_empty();
    let run = run_json(workload, args, &out.records);
    if args.trace {
        write_out(
            session,
            "trace.json",
            &format!(
                "{{\"host\": {host}, \"runs\": [{run}], \"traces\": [{}]}}\n",
                out.trace.unwrap_or_default()
            ),
        )?;
        write_out(
            session,
            "budget.md",
            &format!("{BUDGET_HEADER}{}", out.budget.unwrap_or_default()),
        )?;
    } else {
        write_out(
            session,
            "result.json",
            &format!("{{\"host\": {host}, \"runs\": [{run}]}}\n"),
        )?;
    }
    // a run that measured nothing has no result to state, only an exit code
    if out.records.attempted > 0 {
        println!(
            "{}",
            json_result(
                correct,
                out.records.attempted,
                out.records.failed,
                &out.records.metrics
            )
        );
    }
    Ok(correct)
}

/// Relative difference of two repeats of one metric against its bound.
fn compare(workload: &str, first: &Records, second: &Records, table: &mut String) -> bool {
    let mut pass = true;
    for metric in &END_TO_END {
        let (Some(a), Some(b)) = (first.get(metric.name), second.get(metric.name)) else {
            continue;
        };
        // either repeat may be the baseline: judge the larger worsening
        let worse = metric.worsening(a, b).max(metric.worsening(b, a));
        let ok = worse <= metric.bound;
        pass &= ok;
        let _ = writeln!(
            table,
            "  {workload:<18} {:<14} {a:>14.4} {b:>14.4} {:<4} {:>+8.2} %  (bound {:.0} %)  {}",
            metric.name,
            metric.unit,
            100.0 * (b - a) / a,
            100.0 * metric.bound,
            if ok { "PASS" } else { "FAIL" }
        );
    }
    pass
}

/// The whole set: every workload `repeat` times end to end, then traced.
fn suite(session: &mut Session, args: &Args, host: &str) -> Result<bool, String> {
    let mut ok = true;
    let mut runs_json = Vec::new();
    let mut repeats: Vec<Vec<Records>> = Vec::new();
    let (untraced_args, traced_args) = (
        Args {
            workload: None,
            trace: false,
            ..*args
        },
        Args {
            workload: None,
            trace: true,
            ..*args
        },
    );
    for repeat in 0..args.repeat {
        println!("---- repeat {} of {} ----", repeat + 1, args.repeat);
        let mut this = Vec::new();
        for workload in NAMES {
            let out = run_workload(session, workload, &untraced_args)?;
            print_run(workload, &untraced_args, &out.records);
            ok &= out.records.errors.is_empty() && out.records.failed == 0;
            runs_json.push(run_json(workload, &untraced_args, &out.records));
            this.push(out.records);
        }
        repeats.push(this);
    }

    let (mut traces, mut budget) = (Vec::new(), String::from(BUDGET_HEADER));
    println!("---- traced runs ----");
    for workload in NAMES {
        let out = run_workload(session, workload, &traced_args)?;
        print_run(workload, &traced_args, &out.records);
        ok &= out.records.errors.is_empty();
        runs_json.push(run_json(workload, &traced_args, &out.records));
        traces.extend(out.trace);
        budget.push_str(&out.budget.unwrap_or_default());
    }

    if repeats.len() >= 2 {
        let mut table = String::new();
        let mut agree = true;
        for (w, workload) in NAMES.iter().enumerate() {
            for pair in repeats.windows(2) {
                agree &= compare(workload, &pair[0][w], &pair[1][w], &mut table);
            }
        }
        println!("---- repeats compared (workload, metric, first, second, change) ----");
        print!("{table}");
        if args.smoke {
            println!("smoke run: windows too short to gate on; comparison shown for the record");
        } else {
            ok &= agree;
        }
    }

    write_out(
        session,
        "result.json",
        &format!(
            "{{\"host\": {host}, \"runs\": [\n{}\n]}}\n",
            runs_json.join(",\n")
        ),
    )?;
    write_out(
        session,
        "trace.json",
        &format!(
            "{{\"host\": {host}, \"traces\": [\n{}\n]}}\n",
            traces.join(",\n")
        ),
    )?;
    write_out(session, "budget.md", &budget)?;
    println!("{budget}");
    println!(
        "wrote {0}/result.json, {0}/trace.json, {0}/budget.md",
        session.out.display()
    );
    Ok(ok)
}

/// Runs the harness; the process exit code.
pub fn run(args: &Args) -> i32 {
    let outcome = (|| {
        guard::ensure_release()?;
        let cpu = guard::ensure_pinned()?;
        let mut session = Session::open()?;
        let fs_type = guard::ensure_real_disk(&session.tmp)?;
        let host = host_json(cpu, &fs_type);
        eprintln!("host: {host}");
        match &args.workload {
            Some(workload) if !NAMES.contains(&workload.as_str()) => Err(format!(
                "unknown workload {workload}; the workloads are {NAMES:?}"
            )),
            Some(workload) => single(&mut session, workload, args, &host),
            None => suite(&mut session, args, &host),
        }
    })();
    match outcome {
        Ok(true) => 0,
        Ok(false) => {
            eprintln!("oml-runtime-bench: a check failed (see above)");
            1
        }
        Err(e) => {
            eprintln!("oml-runtime-bench: {e}");
            2
        }
    }
}
