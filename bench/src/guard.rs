//! Conditions without which the numbers mean nothing, checked before any
//! run: an optimized build, the whole process tree on one CPU, and scratch
//! space on a real disk. Each failure is a message and a nonzero exit, never
//! a quietly different measurement.

use crate::procfs;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::Command;

/// Set on the re-executed process so a `taskset` that did not narrow the
/// mask ends in an error, not a loop.
const PINNED_ENV: &str = "OML_BENCH_PINNED";

pub fn ensure_release() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; build and run with --release".to_owned());
    }
    Ok(())
}

/// Returns the one CPU this process (and every thread and child it will
/// start) may run on, re-executing the harness under `taskset` first if
/// the mask is wider.
///
/// Why one CPU: on a small shared host a client and the node thread it
/// talks to either share a core or do not, at the scheduler's whim, and a
/// remote invoke costs 4 µs or 40 µs accordingly. Pinned, the benchmark
/// measures path length and hand-offs per operation — what a change to the
/// program can move.
pub fn ensure_pinned() -> Result<u32, String> {
    let allowed =
        procfs::allowed_cpus().ok_or("cannot read Cpus_allowed_list from /proc/self/status")?;
    if let [cpu] = allowed[..] {
        return Ok(cpu);
    }
    if std::env::var_os(PINNED_ENV).is_some() {
        return Err(format!(
            "still allowed on CPUs {allowed:?} after re-executing under taskset; refusing to report"
        ));
    }
    let cpu = *allowed
        .last()
        .expect("parse_cpu_list returns a non-empty list");
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    // exec only returns on failure
    let error = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, "1")
        .exec();
    Err(format!("cannot pin to CPU {cpu}: exec taskset: {error}"))
}

/// Refuses scratch space that is not a disk: the WAL's fsync would be free.
pub fn ensure_real_disk(dir: &Path) -> Result<String, String> {
    let mountinfo = std::fs::read_to_string("/proc/self/mountinfo")
        .map_err(|e| format!("read /proc/self/mountinfo: {e}"))?;
    let fs_type = procfs::fs_type_of(dir, &mountinfo)
        .ok_or_else(|| format!("no mount found for {}", dir.display()))?;
    if matches!(fs_type.as_str(), "tmpfs" | "ramfs" | "devtmpfs") {
        return Err(format!(
            "{} is on {fs_type}: WAL timings need a real disk; refusing to report",
            dir.display()
        ));
    }
    Ok(fs_type)
}
