//! End-to-end multi-process chaos test: real worker OS processes over a
//! Unix-domain socket, a real SIGKILL mid-workload, recovery through the
//! coordinator's failure detector + checkpoint reinstantiation, and the
//! zombie negative control (a respawn presenting its old incarnation must
//! be refused at the socket accept). The collected trace is fed to
//! `oml_check::check_trace` at the end — the same invariants the
//! in-process chaos suites run under.
//!
//! Built with `harness = false`: the binary re-executes itself as the
//! worker processes (`WorkerOptions::from_env()` distinguishes the roles),
//! which libtest's argument parsing would reject.

use oml_runtime::transport::netio::TransportAddr;
use oml_runtime::transport::socket::SocketConfig;
use oml_runtime::{
    run_worker, FsyncPolicy, MobileObject, MultiProcCluster, MultiProcConfig, NodeHealth,
    RuntimeError, WorkerOptions,
};
use std::time::{Duration, Instant};

/// The test workload object: a counter whose state is its 8-byte value.
struct Counter(u64);

impl MobileObject for Counter {
    fn type_tag(&self) -> &'static str {
        "counter"
    }

    fn invoke(&mut self, method: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        match method {
            "add" => {
                self.0 += u64::from(payload.first().copied().unwrap_or(0));
                Ok(self.0.to_le_bytes().to_vec())
            }
            "get" => Ok(self.0.to_le_bytes().to_vec()),
            other => Err(format!("unknown method {other}")),
        }
    }

    fn linearize(&self) -> Vec<u8> {
        self.0.to_le_bytes().to_vec()
    }
}

fn delinearize_counter(state: &[u8]) -> Box<dyn MobileObject> {
    let mut bytes = [0u8; 8];
    let n = state.len().min(8);
    bytes[..n].copy_from_slice(&state[..n]);
    Box::new(Counter(u64::from_le_bytes(bytes)))
}

fn cfg(addr: TransportAddr) -> MultiProcConfig {
    MultiProcConfig {
        workers: 3,
        addr,
        call_timeout_ms: 500,
        heartbeat_ms: 25,
        suspect_after: 4,
        dead_after: 12,
        socket: SocketConfig::default(),
        worker_program: std::env::current_exe().expect("own path"),
        worker_args: Vec::new(),
        monitor: true,
        store_dir: None,
        fsync: FsyncPolicy::Always,
    }
}

fn value_of(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(b)
}

/// Retries an invoke through an outage window; panics if the cluster never
/// recovers (hangs are a test failure, not a wait).
fn invoke_until_ok(
    cluster: &MultiProcCluster,
    object: u32,
    method: &str,
    payload: &[u8],
    deadline: Duration,
) -> (Vec<u8>, u32) {
    let until = Instant::now() + deadline;
    let mut denials = 0;
    loop {
        match cluster.invoke(object, method, payload) {
            Ok(bytes) => return (bytes, denials),
            Err(RuntimeError::NodeDown(_) | RuntimeError::Timeout { .. }) => {
                denials += 1;
                assert!(
                    Instant::now() < until,
                    "cluster never recovered: {denials} consecutive denials"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected invoke error: {other}"),
        }
    }
}

/// A node id one past the table (`node = workers`) is answered, not
/// indexed: each of these used to panic inside the coordinator's state lock
/// while `create` on the same id said `UnknownNode`.
fn unknown_node_is_refused_everywhere(cluster: &MultiProcCluster) {
    let beyond = 3;
    assert_eq!(cluster.health(beyond), None);
    cluster.kill(beyond);
    for refused in [cluster.respawn(beyond), cluster.respawn_zombie(beyond)] {
        let kind = refused.expect_err("no such worker").kind();
        assert_eq!(kind, std::io::ErrorKind::InvalidInput);
    }
    assert!(matches!(
        cluster.create(beyond, 9, "counter", Vec::new()),
        Err(RuntimeError::UnknownNode(_))
    ));
    // and nothing above touched the workers that do exist
    assert_eq!(cluster.health(0), Some(NodeHealth::Up));
    assert_eq!(cluster.stats().declared_dead, 0);
}

fn scenario() {
    let dir = std::env::temp_dir().join(format!("oml-mp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let addr = TransportAddr::Unix(dir.join("coord.sock"));
    let cluster = MultiProcCluster::spawn_traced(cfg(addr)).expect("spawn cluster");
    assert!(
        cluster.wait_ready(Duration::from_secs(10)),
        "workers never heartbeat"
    );

    // ---- healthy phase: create, invoke, migrate between real processes
    cluster
        .create(0, 1, "counter", 0u64.to_le_bytes().to_vec())
        .expect("create");
    let (v, _) = invoke_until_ok(&cluster, 1, "add", &[5], Duration::from_secs(5));
    assert_eq!(value_of(&v), 5);
    cluster.migrate(1, 1).expect("migrate to worker 1");
    assert_eq!(cluster.location_of(1), Some(1));
    let (v, _) = invoke_until_ok(&cluster, 1, "add", &[7], Duration::from_secs(5));
    assert_eq!(value_of(&v), 12, "state travelled with the migration");
    unknown_node_is_refused_everywhere(&cluster);

    // ---- chaos phase: SIGKILL the hosting worker mid-workload
    cluster.kill(1);
    let (v, denials) = invoke_until_ok(&cluster, 1, "add", &[1], Duration::from_secs(20));
    assert!(
        denials > 0,
        "a SIGKILLed host should deny at least one call before recovery"
    );
    // the checkpoint is at most one successful call behind: 12 (+1 now)
    assert_eq!(
        value_of(&v),
        13,
        "recovered state must come from the freshest checkpoint"
    );
    assert_eq!(cluster.health(1), Some(NodeHealth::Dead));
    let home = cluster.location_of(1).expect("object re-homed");
    assert_ne!(home, 1, "object must have left the dead worker");
    let stats = cluster.stats();
    assert!(stats.declared_dead >= 1, "detector never declared death");
    assert!(stats.reinstantiated >= 1, "object never reinstantiated");

    // ---- recovery phase: respawn under a fresh incarnation
    cluster.respawn(1).expect("respawn");
    assert!(
        cluster.wait_ready(Duration::from_secs(10)),
        "respawned worker never heartbeat"
    );
    let (v, _) = invoke_until_ok(&cluster, 1, "get", &[], Duration::from_secs(5));
    assert_eq!(value_of(&v), 13);

    // ---- zombie negative control: the old incarnation must be fenced at
    // the socket accept, before a single payload frame is read
    cluster.respawn_zombie(1).expect("spawn zombie");
    let until = Instant::now() + Duration::from_secs(10);
    while cluster.stats().fenced_handshakes == 0 {
        assert!(Instant::now() < until, "zombie handshake was never refused");
        std::thread::sleep(Duration::from_millis(10));
    }
    // the live incarnation keeps working while the zombie is refused
    let (v, _) = invoke_until_ok(&cluster, 1, "add", &[2], Duration::from_secs(5));
    assert_eq!(value_of(&v), 15);

    // ---- every in-flight op resolved above (no hangs); now the trace must
    // satisfy the checker, including no-delivery-after-fenced-handshake
    let trace = cluster.take_trace();
    cluster.shutdown();
    let report = oml_check::check_trace(&trace);
    assert!(
        report.violations.is_empty(),
        "trace violations: {:?}",
        report.violations
    );
    assert!(
        trace
            .iter()
            .any(|e| matches!(e.kind, oml_check::event::EventKind::HandshakeFenced { .. })),
        "the refused zombie handshake must appear in the trace"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!("multiproc sigkill/recovery/zombie scenario: ok");
}

/// The names of this process's threads (`/proc/self/task/*/comm`).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_owned())
        .collect()
}

/// Zero failures, counted: four closed-loop clients over two workers with
/// no fault injected. A frame stranded in an outbound queue, or a reply
/// whose waiter was lost, sleeps out `call_timeout_ms` and comes back as an
/// error — at 2 s a failed test, not a latency tail. Then the structural
/// guard against the hand-offs coming back: the coordinator runs an
/// acceptor, one reader per worker and the monitor, and neither a writer
/// thread per peer nor a dispatcher.
fn zero_failure_scenario() {
    const CLIENTS: u32 = 4;
    const OWNED: u32 = 16; // objects per client, disjoint
    const INVOKES: u32 = 50_000; // per client
    const MIGRATE_EVERY: u32 = 100; // 500 per client
    const WORKERS: u32 = 2;

    let dir = std::env::temp_dir().join(format!("oml-mp-zero-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut c = cfg(TransportAddr::Unix(dir.join("coord.sock")));
    c.workers = WORKERS;
    c.call_timeout_ms = 2_000;
    // no fault is injected, so the detector must not fire: with six busy
    // threads on a small machine a beat can be late by scheduling rounds
    c.suspect_after = 80;
    c.dead_after = 240;
    let cluster = MultiProcCluster::spawn(c).expect("spawn cluster");
    assert!(
        cluster.wait_ready(Duration::from_secs(10)),
        "workers never heartbeat"
    );
    for object in 0..CLIENTS * OWNED {
        cluster
            .create(
                object % WORKERS,
                object,
                "counter",
                0u64.to_le_bytes().to_vec(),
            )
            .expect("create");
    }

    // each client: its first error (if any) and how often it added to each
    // of its objects
    let outcomes: Vec<(Option<String>, Vec<u64>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let cluster = &cluster;
                s.spawn(move || {
                    let first = client * OWNED;
                    let mut acked = vec![0u64; OWNED as usize];
                    let mut host: Vec<u32> = (first..first + OWNED).map(|o| o % WORKERS).collect();
                    let mut error = None;
                    for i in 0..INVOKES {
                        let slot = (i % OWNED) as usize;
                        let object = first + slot as u32;
                        if i % MIGRATE_EVERY == MIGRATE_EVERY - 1 {
                            let to = (host[slot] + 1) % WORKERS;
                            match cluster.migrate(object, to) {
                                Ok(()) => host[slot] = to,
                                Err(e) => error = error.or(Some(format!("migrate {i}: {e}"))),
                            }
                        }
                        match cluster.invoke(object, "add", &[1]) {
                            Ok(_) => acked[slot] += 1,
                            Err(e) => error = error.or(Some(format!("invoke {i}: {e}"))),
                        }
                    }
                    (error, acked)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });

    for (client, (error, acked)) in outcomes.iter().enumerate() {
        assert_eq!(*error, None, "client {client} saw a failed operation");
        // exactly once: what the object counted is what was acknowledged
        for (slot, &adds) in acked.iter().enumerate() {
            let object = client as u32 * OWNED + slot as u32;
            let value = cluster.invoke(object, "get", &[]).expect("final get");
            assert_eq!(value_of(&value), adds, "object {object}");
        }
    }
    // one reply per request, at least (heartbeats come on top)
    let migrations = u64::from(CLIENTS * (INVOKES / MIGRATE_EVERY));
    let calls = u64::from(CLIENTS * (OWNED + INVOKES)) + 2 * migrations;
    let deliveries = cluster.stats().deliveries;
    assert!(
        deliveries >= calls,
        "{deliveries} deliveries < {calls} calls"
    );

    let mut transport: Vec<String> = thread_names()
        .into_iter()
        .filter(|name| name.starts_with("oml-"))
        .collect();
    transport.sort();
    assert_eq!(
        transport,
        [
            "oml-accept",
            "oml-mp-monitor",
            "oml-reader-0",
            "oml-reader-1"
        ],
        "a writer thread per peer or a dispatcher is a hand-off per message"
    );

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("multiproc zero-failure load + thread census scenario: ok");
}

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

/// The hand-off guard, counted rather than timed: one client, sequential
/// invokes on one worker. The caller reads its own reply off the socket, so
/// an invoke blocks the coordinator once — the caller, in that read. A
/// reader thread handing the reply over makes it two: the caller parks on
/// its reply slot, and the reader blocks again after the hand-off.
///
/// Only an optimized build is held to the bound. A Unix socket also wakes a
/// reader blocked on it when the other end consumes what this end wrote;
/// while the worker's handler is quicker than that wake-up the caller finds
/// its reply when it runs, but an unoptimized or sanitized worker lets it
/// wake, find nothing and sleep again — one switch more per invoke on both
/// designs, and the kernel's rather than a hand-off.
fn wake_up_scenario() {
    const INVOKES: u32 = 20_000;
    const MAX_PER_INVOKE: f64 = 1.5;
    let dir = std::env::temp_dir().join(format!("oml-mp-wake-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut c = cfg(TransportAddr::Unix(dir.join("coord.sock")));
    c.workers = 1;
    c.call_timeout_ms = 2_000;
    c.suspect_after = 80;
    c.dead_after = 240;
    let cluster = MultiProcCluster::spawn(c).expect("spawn cluster");
    assert!(
        cluster.wait_ready(Duration::from_secs(10)),
        "workers never heartbeat"
    );
    cluster
        .create(0, 1, "counter", 0u64.to_le_bytes().to_vec())
        .expect("create");
    for _ in 0..1_000 {
        cluster.invoke(1, "get", &[]).expect("warm-up invoke");
    }
    let before = voluntary_switches();
    for _ in 0..INVOKES {
        cluster.invoke(1, "add", &[1]).expect("invoke");
    }
    let per_invoke = (voluntary_switches() - before) as f64 / f64::from(INVOKES);
    let value = cluster.invoke(1, "get", &[]).expect("final get");
    assert_eq!(value_of(&value), u64::from(INVOKES));
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let bound = if cfg!(debug_assertions) {
        "not held in an unoptimized build".to_owned()
    } else {
        format!("at most {MAX_PER_INVOKE}")
    };
    println!(
        "multiproc wake-up guard: {per_invoke:.2} voluntary context switches per invoke \
         in the coordinator ({bound})"
    );
    assert!(
        cfg!(debug_assertions) || per_invoke <= MAX_PER_INVOKE,
        "{per_invoke:.2} switches per invoke: the reply is handed over, not read by its caller"
    );
}

/// Coordinator-death scenario: with a durable store configured, abandon
/// the coordinator (no Shutdown protocol, no store flush, workers
/// SIGKILLed) and cold-start a successor from the WAL alone. Both objects
/// and their freshest checkpointed state must come back, and the combined
/// trace must satisfy the checker's durability invariants.
fn durable_scenario() {
    let dir = std::env::temp_dir().join(format!("oml-mp-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let store_dir = dir.join("store");
    let mut c = cfg(TransportAddr::Unix(dir.join("coord.sock")));
    c.store_dir = Some(store_dir.clone());
    let cluster = MultiProcCluster::spawn_traced(c).expect("spawn durable cluster");
    assert!(
        cluster.wait_ready(Duration::from_secs(10)),
        "workers never heartbeat"
    );
    cluster
        .create(0, 1, "counter", 0u64.to_le_bytes().to_vec())
        .expect("create o1");
    cluster
        .create(1, 2, "counter", 0u64.to_le_bytes().to_vec())
        .expect("create o2");
    let (v, _) = invoke_until_ok(&cluster, 1, "add", &[9], Duration::from_secs(5));
    assert_eq!(value_of(&v), 9);
    let (v, _) = invoke_until_ok(&cluster, 2, "add", &[4], Duration::from_secs(5));
    assert_eq!(value_of(&v), 4);
    assert!(
        cluster.wal_stats().appended > 0,
        "durable store must have WAL appends"
    );
    let mut trace = cluster.take_trace();
    // the coordinator "dies" here: no graceful shutdown, no flush
    cluster.abandon();

    let mut c2 = cfg(TransportAddr::Unix(dir.join("coord2.sock")));
    c2.store_dir = Some(store_dir);
    let revived =
        MultiProcCluster::recover_traced(c2, Duration::from_secs(10)).expect("cold restart");
    assert_eq!(
        revived.objects(),
        vec![1, 2],
        "every checkpointed object must be reinstantiated"
    );
    let (v, _) = invoke_until_ok(&revived, 1, "get", &[], Duration::from_secs(5));
    assert_eq!(value_of(&v), 9, "o1 state survived the coordinator death");
    let (v, _) = invoke_until_ok(&revived, 2, "get", &[], Duration::from_secs(5));
    assert_eq!(value_of(&v), 4, "o2 state survived the coordinator death");
    trace.extend(revived.take_trace());
    revived.shutdown();

    let report = oml_check::check_trace(&trace);
    assert!(
        report.violations.is_empty(),
        "trace violations: {:?}",
        report.violations
    );
    use oml_check::event::EventKind;
    assert!(
        trace
            .iter()
            .any(|e| matches!(e.kind, EventKind::WalAppended { durable: true, .. })),
        "durable appends must be visible to the checker"
    );
    assert!(
        trace
            .iter()
            .any(|e| matches!(e.kind, EventKind::ColdRecovered { .. })),
        "the cold recovery must be visible to the checker"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!("multiproc coordinator kill/cold-restart scenario: ok");
}

/// `FsyncPolicy::Batch { ms }` holds for a coordinator gone idle: a put is
/// the only thing in the store that looks at the clock, so the tail of a
/// burst used to stay unsynced until the next one, whatever `ms` said. The
/// detector pass is the clock now. (The store is on the real disk, so this
/// counts syncs rather than cutting the power.)
fn idle_batch_sync_scenario() {
    let dir = std::env::temp_dir().join(format!("oml-mp-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut c = cfg(TransportAddr::Unix(dir.join("coord.sock")));
    c.store_dir = Some(dir.join("store"));
    c.fsync = FsyncPolicy::Batch { n: 1000, ms: 10 };
    c.monitor = false;
    let cluster = MultiProcCluster::spawn(c).expect("spawn cluster");
    assert!(
        cluster.wait_ready(Duration::from_secs(10)),
        "workers never heartbeat"
    );
    // two in a row: the second lands inside the first's `ms` and is buffered
    for object in [1, 2] {
        cluster
            .create(0, object, "counter", 0u64.to_le_bytes().to_vec())
            .expect("create");
    }
    std::thread::sleep(Duration::from_millis(20));
    cluster.sweep();
    let stats = cluster.wal_stats();
    assert_eq!(
        stats.synced, stats.appended,
        "records left unsynced past `ms` on an idle store"
    );
    assert!(
        cluster.take_trace().is_empty(),
        "`spawn` collects no trace; `spawn_traced` does"
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    println!("multiproc idle batch sync scenario: ok");
}

/// Set for the process that plays the doomed coordinator of
/// [`orphan_scenario`]; the value is its socket directory.
const COORD_ROLE: &str = "OML_MP_TEST_COORD";

/// Spawns a cluster, prints its workers' pids once all are ready, then
/// waits to be SIGKILLed.
fn doomed_coordinator(dir: &std::path::Path) -> ! {
    let cluster = MultiProcCluster::spawn(cfg(TransportAddr::Unix(dir.join("coord.sock"))))
        .expect("spawn cluster");
    assert!(
        cluster.wait_ready(Duration::from_secs(10)),
        "workers never heartbeat"
    );
    let pids: Vec<String> = cluster.worker_pids().iter().map(u32::to_string).collect();
    println!("{}", pids.join(" "));
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

/// Whether `pid` is still running (a zombie awaiting its reaper is not).
fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|stat| {
            stat.rsplit_once(") ")
                .map(|(_, rest)| !rest.starts_with('Z'))
        })
        .unwrap_or(false)
}

/// Orphan scenario: the coordinator *process* is SIGKILLed and nobody
/// calls `recover()`. No Shutdown will ever reach its workers and their
/// supervisors would redial the dead address forever; they must notice the
/// re-parenting and exit on their own within a few heartbeats.
fn orphan_scenario() {
    use std::io::BufRead;
    let dir = std::env::temp_dir().join(format!("oml-mp-orphan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut coordinator = std::process::Command::new(std::env::current_exe().expect("own path"))
        .env(COORD_ROLE, &dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn coordinator process");
    let mut line = String::new();
    std::io::BufReader::new(coordinator.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("worker pids from the coordinator");
    let workers: Vec<u32> = line
        .split_whitespace()
        .map(|pid| pid.parse().expect("a pid"))
        .collect();
    assert_eq!(workers.len(), 3, "coordinator reported {line:?}");
    assert!(workers.iter().all(|&pid| alive(pid)));

    coordinator.kill().expect("SIGKILL the coordinator");
    coordinator.wait().expect("reap the coordinator");
    let until = Instant::now() + Duration::from_secs(2);
    while workers.iter().any(|&pid| alive(pid)) {
        if Instant::now() >= until {
            for pid in &workers {
                let _ = std::process::Command::new("kill")
                    .args(["-KILL", &pid.to_string()])
                    .status();
            }
            panic!("orphaned workers {workers:?} outlived their coordinator");
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // the early window: the coordinator dies between spawning a worker and
    // the worker's first look at its parent. By then the OS names the
    // reaper, and only the pid the coordinator left in the environment
    // still says who is missing. Played here by a worker that is told its
    // coordinator was a process that has already exited.
    let mut gone = std::process::Command::new("true")
        .spawn()
        .expect("spawn a process to outlive");
    let gone_pid = gone.id();
    gone.wait().expect("reap it");
    let mut late = std::process::Command::new(std::env::current_exe().expect("own path"))
        .env(
            "OML_MP_ADDR",
            format!("unix:{}", dir.join("nobody.sock").display()),
        )
        .env("OML_MP_NODE", "0")
        .env("OML_MP_EPOCH", "1")
        .env("OML_MP_HB_MS", "50")
        .env("OML_MP_PARENT", gone_pid.to_string())
        .spawn()
        .expect("spawn the late worker");
    let until = Instant::now() + Duration::from_secs(2);
    while late.try_wait().expect("poll the late worker").is_none() {
        if Instant::now() >= until {
            let _ = late.kill();
            let _ = late.wait();
            panic!("a worker spawned by a dead coordinator kept redialling");
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let _ = std::fs::remove_dir_all(&dir);
    println!("multiproc orphaned workers exit scenario: ok");
}

fn main() {
    // worker role: the coordinator re-executes this binary with OML_MP_*
    // set; run the worker loop and exit with it
    if let Some(opts) = WorkerOptions::from_env() {
        let _ = run_worker(&opts, &[("counter", delinearize_counter)]);
        return;
    }
    if let Some(dir) = std::env::var_os(COORD_ROLE) {
        doomed_coordinator(std::path::Path::new(&dir));
    }
    scenario();
    zero_failure_scenario();
    wake_up_scenario();
    durable_scenario();
    idle_batch_sync_scenario();
    orphan_scenario();
}
