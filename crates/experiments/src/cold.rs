//! `repro durability --cold-restart` — SIGKILL-everything, restart from
//! disk, and measure what the write-ahead checkpoint store gives back.
//!
//! The orchestration runs three OS processes deep:
//!
//! 1. The **parent** (this module's [`run_cold_restart`]) loops over fsync
//!    policies. For each it re-executes the `repro` binary as a **seed**
//!    child (`OML_COLD_ROLE=seed`), which spawns a durable-store
//!    [`MultiProcCluster`], creates and mutates a handful of counters,
//!    writes a `phase1` manifest (expected values, worker pids, the
//!    store's WAL events from its trace) and parks.
//! 2. The parent SIGKILLs the seed coordinator *and* its orphaned worker
//!    processes — the whole tree dies with no warning and no flush.
//! 3. A **recover** child (`OML_COLD_ROLE=recover`) cold-starts a new
//!    coordinator from the store directory alone, re-reads every object,
//!    and writes a `phase2` manifest (recovered values, its trace's cold
//!    recovery with versions and torn/corrupt flags, recovery latency).
//!
//! The parent then replays the durability claim through `oml-check`: the
//! phase1 acked records become [`EventKind::WalAppended`] events (and the
//! syncs that made buffered ones durable [`EventKind::WalSynced`]), phase2
//! becomes [`EventKind::ColdRecovered`], and `check_trace` enforces that
//! every record acked durable survived. A **torn-write negative control**
//! (the live WAL truncated mid-record after the kill, under
//! `fsync=always`) must be *flagged* by the checker — if it comes back
//! clean the invariant is not biting and the run exits nonzero.
//!
//! Everything deterministic (values, versions, flags, violation counts) is
//! folded into a printed fingerprint; wall-clock latency is reported but
//! excluded, so same-seed reruns are bit-identical.

use crate::experiments::COUNTER;
use oml_check::event::{EventKind, TraceEvent, CLIENT_PROCESS};
use oml_check::explore::Fnv64;
use oml_core::ids::ObjectId;
use oml_runtime::transport::netio::TransportAddr;
use oml_runtime::transport::socket::SocketConfig;
use oml_runtime::wire::{WireReader, WireWriter};
use oml_runtime::{MultiProcCluster, MultiProcConfig};
use std::fmt::Write as _;
use std::fs;
use std::hash::Hasher as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const WORKERS: u32 = 3;
const OBJECTS: u32 = 4;
const TRIALS: u32 = 3;
const READY_TIMEOUT: Duration = Duration::from_secs(15);
const PHASE_TIMEOUT: Duration = Duration::from_mins(1);

/// The multiproc configuration shared by the seed and recover children
/// (only the socket path and the store dir vary).
fn child_cfg(dir: &Path, sock: &str) -> MultiProcConfig {
    MultiProcConfig {
        workers: WORKERS,
        addr: TransportAddr::Unix(dir.join(sock)),
        call_timeout_ms: 500,
        heartbeat_ms: 25,
        suspect_after: 4,
        dead_after: 12,
        socket: SocketConfig::default(),
        worker_program: std::env::current_exe().expect("own executable path"),
        worker_args: Vec::new(),
        monitor: true,
        store_dir: Some(dir.join("store")),
        fsync: crate::experiments::fsync_from_env(),
    }
}

fn counter_value(bytes: &[u8]) -> u64 {
    WireReader::new(bytes).u64().expect("counter payload")
}

/// Writes `content` to `path` atomically (tmp + rename), so the parent's
/// poll never observes a half-written phase manifest.
fn write_phase(path: &Path, content: &str) {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, content).expect("write phase tmp");
    fs::rename(&tmp, path).expect("rename phase file");
}

/// Parses a `key=value`-per-line phase manifest.
fn parse_phase(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
        .collect()
}

fn phase_all<'a>(kv: &'a [(String, String)], key: &str) -> Vec<&'a str> {
    kv.iter()
        .filter(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .collect()
}

fn phase_get<'a>(kv: &'a [(String, String)], key: &str) -> Option<&'a str> {
    kv.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

// ---------------------------------------------------------------------------
// child roles

/// Dispatches the `OML_COLD_ROLE` child roles; `None` means this process
/// is not a cold-restart child and should continue as the normal CLI.
/// Must be checked *after* `WorkerOptions::from_env()` — the worker
/// grandchildren inherit `OML_COLD_ROLE` but carry `OML_MP_*` too.
#[must_use]
pub fn maybe_run_child() -> Option<ExitCode> {
    let role = std::env::var("OML_COLD_ROLE").ok()?;
    let dir = PathBuf::from(std::env::var("OML_COLD_DIR").expect("OML_COLD_DIR set with role"));
    match role.as_str() {
        "seed" => Some(run_seed(&dir)),
        "recover" => Some(run_recover(&dir)),
        other => {
            eprintln!("unknown OML_COLD_ROLE `{other}`");
            Some(ExitCode::FAILURE)
        }
    }
}

/// Seed role: populate the durable store, publish `phase1`, then park
/// until the parent SIGKILLs this whole process tree.
fn run_seed(dir: &Path) -> ExitCode {
    let cfg = child_cfg(dir, "seed.sock");
    let fsync = cfg.fsync;
    let cluster = MultiProcCluster::spawn_traced(cfg).expect("seed: spawn cluster");
    assert!(
        cluster.wait_ready(READY_TIMEOUT),
        "seed: workers never heartbeat"
    );
    for i in 0..OBJECTS {
        cluster
            .create(
                i % WORKERS,
                i,
                COUNTER,
                WireWriter::new().u64(0).finish().to_vec(),
            )
            .expect("seed: create");
        let out = cluster
            .invoke(i, "add", &WireWriter::new().u64(u64::from(i) + 1).finish())
            .expect("seed: add");
        assert_eq!(counter_value(&out), u64::from(i) + 1);
    }

    let mut manifest = String::new();
    let _ = writeln!(manifest, "policy={fsync}");
    let _ = writeln!(manifest, "objects={OBJECTS}");
    for pid in cluster.worker_pids() {
        let _ = writeln!(manifest, "pid={pid}");
    }
    for i in 0..OBJECTS {
        let _ = writeln!(manifest, "expect.{i}={}", u64::from(i) + 1);
    }
    for line in cluster
        .take_trace()
        .iter()
        .filter_map(|ev| wal_line(&ev.kind))
    {
        let _ = writeln!(manifest, "wal={line}");
    }
    write_phase(&dir.join("phase1"), &manifest);

    // park: the parent ends this process with SIGKILL, never gracefully
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

/// Recover role: cold-start from the store directory, read every object
/// back, publish `phase2`, and exit cleanly.
fn run_recover(dir: &Path) -> ExitCode {
    let started = Instant::now();
    let cluster =
        match MultiProcCluster::recover_traced(child_cfg(dir, "recover.sock"), READY_TIMEOUT) {
            Ok(c) => c,
            Err(e) => {
                write_phase(&dir.join("phase2"), &format!("error={e}\n"));
                return ExitCode::FAILURE;
            }
        };
    let mut manifest = String::new();
    for object in cluster.objects() {
        let out = cluster
            .invoke(object, "get", &[])
            .expect("recover: read back");
        let _ = writeln!(manifest, "got.{object}={}", counter_value(&out));
    }
    let recovery_ms = started.elapsed().as_secs_f64() * 1e3;
    let stats = cluster.wal_stats();
    for line in cluster
        .take_trace()
        .iter()
        .filter_map(|ev| wal_line(&ev.kind))
    {
        let _ = writeln!(manifest, "wal={line}");
    }
    let _ = writeln!(manifest, "recovery_ms={recovery_ms:.3}");
    let _ = writeln!(manifest, "wal_records={}", stats.wal_records);
    cluster.shutdown();
    write_phase(&dir.join("phase2"), &manifest);
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// parent orchestration

/// One seed → kill → recover trial's measurements.
struct Round {
    policy: String,
    trial: u32,
    torn_control: bool,
    objects: u32,
    recovered: u32,
    recovery_ms: f64,
    wal_records: u64,
    violations: usize,
}

fn spawn_child(dir: &Path, role: &str, policy: &str) -> std::process::Child {
    Command::new(std::env::current_exe().expect("own executable path"))
        .arg("cold-child")
        .env("OML_COLD_ROLE", role)
        .env("OML_COLD_DIR", dir)
        .env("OML_FSYNC", policy)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn cold-restart child")
}

/// Polls for a phase manifest, failing the run (rather than hanging) if
/// the child never produces it.
fn await_phase(
    path: &Path,
    child: &mut std::process::Child,
) -> Result<Vec<(String, String)>, String> {
    let deadline = Instant::now() + PHASE_TIMEOUT;
    loop {
        if let Ok(text) = fs::read_to_string(path) {
            return Ok(parse_phase(&text));
        }
        if let Ok(Some(status)) = child.try_wait() {
            if !path.exists() {
                return Err(format!(
                    "cold-restart child exited ({status}) without writing {}",
                    path.display()
                ));
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("timed out waiting for {}", path.display()));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// SIGKILLs the seed coordinator and the worker processes it orphans —
/// the coordinator's `Child` handle dies with it, so the workers must be
/// killed by pid from out here.
fn kill_tree(child: &mut std::process::Child, worker_pids: &[&str]) {
    let _ = child.kill();
    let _ = child.wait();
    for pid in worker_pids {
        if pid.parse::<u32>().is_ok() {
            let _ = Command::new("kill").args(["-9", pid]).status();
        }
    }
}

/// Truncates the live (highest-generation) WAL one byte short: a torn
/// final record, which recovery must drop — losing a durably-acked
/// checkpoint the checker is then required to flag.
fn tear_wal_tail(store_dir: &Path) -> Result<(), String> {
    let coord = store_dir.join("coord");
    let mut wals: Vec<PathBuf> = fs::read_dir(&coord)
        .map_err(|e| format!("list {}: {e}", coord.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
                && p.extension()
                    .is_some_and(|ext| ext.eq_ignore_ascii_case("log"))
        })
        .collect();
    wals.sort();
    let wal = wals.pop().ok_or("no WAL file to tear")?;
    let data = fs::read(&wal).map_err(|e| e.to_string())?;
    if data.is_empty() {
        return Err("WAL is empty; nothing to tear".into());
    }
    fs::write(&wal, &data[..data.len() - 1]).map_err(|e| e.to_string())?;
    Ok(())
}

/// One event of a child's trace that the durability check replays, as a
/// manifest value: an append, a sync that made buffered appends durable,
/// or a cold recovery.
fn wal_line(kind: &EventKind) -> Option<String> {
    Some(match kind {
        EventKind::WalAppended {
            object,
            object_epoch,
            seq,
            durable,
            ..
        } => format!(
            "acked,{},{object_epoch},{seq},{}",
            object.as_u32(),
            u8::from(*durable)
        ),
        EventKind::WalSynced { records, .. } => format!("synced,{records}"),
        EventKind::ColdRecovered {
            recovered,
            torn,
            corrupt,
            ..
        } => recovered.iter().fold(
            format!("cold,{},{}", u8::from(*torn), u8::from(*corrupt)),
            |line, (object, epoch, seq)| format!("{line},{},{epoch},{seq}", object.as_u32()),
        ),
        _ => return None,
    })
}

/// The event [`wal_line`] wrote as `line`, at the coordinator's store.
fn wal_event(line: &str) -> Option<EventKind> {
    let node = CLIENT_PROCESS;
    let (tag, fields) = line.split_once(',').unwrap_or((line, ""));
    let n: Vec<u64> = fields.split(',').filter_map(|v| v.parse().ok()).collect();
    let id = |object: u64| ObjectId::new(u32::try_from(object).unwrap_or(0));
    Some(match (tag, &n[..]) {
        ("acked", &[object, object_epoch, seq, durable]) => EventKind::WalAppended {
            node,
            object: id(object),
            object_epoch,
            seq,
            durable: durable == 1,
        },
        ("synced", &[records]) => EventKind::WalSynced { node, records },
        ("cold", &[torn, corrupt, ref recovered @ ..]) => EventKind::ColdRecovered {
            node,
            recovered: (recovered.chunks_exact(3))
                .map(|v| (id(v[0]), v[1], v[2]))
                .collect(),
            torn: torn == 1,
            corrupt: corrupt == 1,
        },
        _ => return None,
    })
}

/// Replays the seed's and the recovery's manifests through the checker:
/// appends and syncs in, the cold recovery out, every durable ack must
/// have survived.
fn check_round(manifests: &[(String, String)]) -> Vec<oml_check::Violation> {
    let trace: Vec<TraceEvent> = (phase_all(manifests, "wal").into_iter())
        .filter_map(wal_event)
        .map(|kind| TraceEvent::new(CLIENT_PROCESS, kind))
        .collect();
    oml_check::check_trace(&trace).violations
}

/// Runs one seed → SIGKILL-all → (optional torn write) → recover round.
fn run_round(policy: &str, torn_control: bool, trial: u32) -> Result<Round, String> {
    let label = policy.replace(':', "_");
    let dir = std::env::temp_dir().join(format!(
        "oml-cold-{}-{label}-{trial}{}",
        std::process::id(),
        if torn_control { "-torn" } else { "" }
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let mut seed = spawn_child(&dir, "seed", policy);
    let phase1 = await_phase(&dir.join("phase1"), &mut seed)?;
    kill_tree(&mut seed, &phase_all(&phase1, "pid"));
    if torn_control {
        tear_wal_tail(&dir.join("store"))?;
    }

    let mut recover = spawn_child(&dir, "recover", policy);
    let phase2 = await_phase(&dir.join("phase2"), &mut recover)?;
    let _ = recover.wait();
    if let Some(err) = phase_get(&phase2, "error") {
        return Err(format!("recover child failed: {err}"));
    }

    let objects: u32 = phase_get(&phase1, "objects")
        .and_then(|v| v.parse().ok())
        .ok_or("phase1 missing object count")?;
    let mut recovered = 0u32;
    for i in 0..objects {
        let expect = phase_get(&phase1, &format!("expect.{i}"));
        let got = phase_get(&phase2, &format!("got.{i}"));
        if expect.is_some() && expect == got {
            recovered += 1;
        }
    }
    let violations = check_round(&[&phase1[..], &phase2[..]].concat());
    for v in &violations {
        let tag = if torn_control { "(expected) " } else { "" };
        println!("  {tag}checker: {v}");
    }
    let round = Round {
        policy: policy.to_owned(),
        trial,
        torn_control,
        objects,
        recovered,
        recovery_ms: phase_get(&phase2, "recovery_ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN),
        wal_records: phase_get(&phase2, "wal_records")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
        violations: violations.len(),
    };
    let _ = fs::remove_dir_all(&dir);
    Ok(round)
}

fn render_json(rounds: &[Round], fingerprint: u64) -> String {
    let mut out =
        String::from("{\n  \"experiment\": \"durability-cold-restart\",\n  \"rounds\": [\n");
    for (i, r) in rounds.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"fsync\": \"{}\", \"trial\": {}, \"torn_control\": {}, \"objects\": {}, \
             \"recovered_fraction\": {:.4}, \"recovery_ms\": {:.3}, \
             \"wal_records\": {}, \"violations\": {}}}",
            r.policy,
            r.trial,
            r.torn_control,
            r.objects,
            f64::from(r.recovered) / f64::from(r.objects.max(1)),
            r.recovery_ms,
            r.wal_records,
            r.violations
        );
        out.push_str(if i + 1 < rounds.len() { ",\n" } else { "\n" });
    }
    let _ = write!(out, "  ],\n  \"fingerprint\": \"{fingerprint:016x}\"\n}}\n");
    out
}

/// The parent orchestration behind `repro durability --cold-restart`.
/// Returns nonzero if recovery under `fsync=always` is not 100 %, if any
/// non-control round trips the checker, or if the torn-write negative
/// control does *not* trip it.
#[must_use]
pub fn run_cold_restart(pinned: Option<&str>) -> ExitCode {
    let policies: Vec<String> = match pinned {
        Some(p) => vec![p.to_owned()],
        None => vec!["always".into(), "batch:8:50".into(), "never".into()],
    };
    println!(
        "# repro durability --cold-restart — SIGKILL every process, restart from disk \
         ({WORKERS} workers, {OBJECTS} objects, {TRIALS} trials per policy)"
    );

    let mut rounds = Vec::new();
    let mut failed = false;
    for policy in &policies {
        println!("\nfsync={policy}:");
        for trial in 0..TRIALS {
            match run_round(policy, false, trial) {
                Ok(r) => rounds.push(r),
                Err(e) => {
                    eprintln!("  trial {trial} failed: {e}");
                    failed = true;
                }
            }
        }
    }
    // the negative control rides on the strictest policy: a torn WAL tail
    // must surface as a flagged durability violation, never silently
    println!("\nfsync=always + torn WAL tail (negative control):");
    match run_round("always", true, 0) {
        Ok(r) => rounds.push(r),
        Err(e) => {
            eprintln!("  control failed to run: {e}");
            failed = true;
        }
    }

    // per-policy aggregate: the worst trial's fraction, the slowest
    // trial's latency as p95 (TRIALS samples — the tail IS the max)
    println!(
        "\n{:>14} {:>8} {:>8} {:>10} {:>12} {:>11} {:>11}",
        "fsync", "torn", "trials", "objects", "fraction", "recov p95", "wal recs"
    );
    let mut keys: Vec<(String, bool)> = Vec::new();
    for r in &rounds {
        let key = (r.policy.clone(), r.torn_control);
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    for (policy, torn) in &keys {
        let group: Vec<&Round> = rounds
            .iter()
            .filter(|r| &r.policy == policy && r.torn_control == *torn)
            .collect();
        let objects = group.first().map_or(0, |r| r.objects);
        let fraction = group
            .iter()
            .map(|r| f64::from(r.recovered) / f64::from(r.objects.max(1)))
            .fold(f64::INFINITY, f64::min);
        let p95 = group.iter().map(|r| r.recovery_ms).fold(0.0f64, f64::max);
        let wal_records = group.iter().map(|r| r.wal_records).max().unwrap_or(0);
        println!(
            "{:>14} {:>8} {:>8} {:>10} {:>12.3} {:>9.1}ms {:>11}",
            policy,
            if *torn { "yes" } else { "no" },
            group.len(),
            objects,
            fraction,
            p95,
            wal_records
        );
    }

    for r in &rounds {
        if r.torn_control {
            if r.violations == 0 {
                eprintln!(
                    "error: torn-write negative control came back CLEAN — the \
                     durable-checkpoint invariant is not biting"
                );
                failed = true;
            }
        } else {
            if r.violations > 0 {
                eprintln!("error: fsync={} round tripped the checker", r.policy);
                failed = true;
            }
            if r.policy == "always" && r.recovered != r.objects {
                eprintln!(
                    "error: fsync=always recovered {}/{} — an acked-durable \
                     checkpoint did not survive the cold restart",
                    r.recovered, r.objects
                );
                failed = true;
            }
        }
    }

    // deterministic fields only: latency is reported above but excluded
    let mut fingerprint = Fnv64::new();
    for r in &rounds {
        fingerprint.write(r.policy.as_bytes());
        fingerprint.write(&[u8::from(r.torn_control)]);
        fingerprint.write(&r.objects.to_le_bytes());
        fingerprint.write(&r.recovered.to_le_bytes());
        fingerprint.write(&r.wal_records.to_le_bytes());
        fingerprint.write(&(r.violations as u64).to_le_bytes());
    }
    let fingerprint = fingerprint.finish();
    println!("\nfingerprint {fingerprint:016x} (deterministic fields only)");

    let json = render_json(&rounds, fingerprint);
    let out = PathBuf::from("results");
    let path = out.join("cold_restart.json");
    if fs::create_dir_all(&out).is_ok() && fs::write(&path, &json).is_ok() {
        println!("wrote {}", path.display());
    } else {
        eprintln!("cannot write {}", path.display());
    }

    if failed {
        eprintln!("\ncold-restart durability gate FAILED");
        ExitCode::FAILURE
    } else {
        println!(
            "\ncold-restart durability gate passed: fsync=always recovered 100% \
             after SIGKILL-all; torn-write control flagged"
        );
        ExitCode::SUCCESS
    }
}
