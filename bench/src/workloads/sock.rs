//! The two multi-process workloads: nodes are worker *processes* (this
//! binary, re-executed) behind the coordinator's socket server, so every
//! operation crosses `wire`, `frame` and `socket` twice.

use super::{Inputs, Tally};
use crate::blob::{self, Blob};
use crate::driver::{tick, Counters, SpanKind, Tracer, Workload};
use oml_runtime::transport::netio::TransportAddr;
use oml_runtime::transport::socket::SocketConfig;
use oml_runtime::{run_worker, FsyncPolicy, MultiProcCluster, MultiProcConfig, WorkerOptions};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const WORKERS: u32 = 2;
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// The worker role: runs when the coordinator's environment variables are
/// present, and never returns to the benchmark's `main`.
pub fn worker_main(opts: &WorkerOptions) -> ! {
    // A worker outlives a coordinator that dies without `abandon()`: its
    // supervisor keeps redialling. Exit once the parent is gone.
    let parent = parent_pid();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(250));
        if parent_pid() != parent {
            std::process::exit(3);
        }
    });
    let code = match run_worker(opts, &[(blob::TYPE_TAG, blob::delinearize)]) {
        Ok(_) => 0,
        Err(_) => 1,
    };
    std::process::exit(code)
}

fn parent_pid() -> Option<u32> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    Some(crate::procfs::parse_stat(&stat)?.ppid)
}

/// Where a cluster listens and, optionally, keeps its WAL.
pub struct Wiring {
    pub addr: TransportAddr,
    pub store_dir: Option<PathBuf>,
}

impl Wiring {
    /// A Unix socket under `dir`, checkpoints in memory.
    pub fn unix(dir: &Path) -> Self {
        Wiring {
            addr: TransportAddr::Unix(dir.join("coord.sock")),
            store_dir: None,
        }
    }

    /// TCP loopback on an ephemeral port, checkpoints in a WAL under `dir`.
    pub fn tcp_wal(dir: &Path) -> Self {
        Wiring {
            addr: TransportAddr::Tcp("127.0.0.1:0".to_owned()),
            store_dir: Some(dir.join("store")),
        }
    }
}

pub fn config(wiring: &Wiring) -> MultiProcConfig {
    MultiProcConfig {
        workers: WORKERS,
        addr: wiring.addr.clone(),
        call_timeout_ms: 5_000,
        heartbeat_ms: 50,
        // No fault is injected, so the detector must never fire: with every
        // process on one saturated CPU a beat can be late by whole
        // scheduling rounds, and a false suspicion would fail operations.
        suspect_after: 40,
        dead_after: 120,
        socket: SocketConfig::default(),
        worker_program: std::env::current_exe().expect("own executable path"),
        worker_args: Vec::new(),
        monitor: true,
        store_dir: wiring.store_dir.clone(),
        fsync: FsyncPolicy::Batch { n: 64, ms: 20 },
    }
}

/// Spawns the coordinator with its two workers and waits for both to beat.
pub fn spawn(wiring: &Wiring) -> Result<MultiProcCluster, String> {
    let cluster = MultiProcCluster::spawn(config(wiring)).map_err(|e| format!("spawn: {e}"))?;
    if !cluster.wait_ready(READY_TIMEOUT) {
        cluster.abandon();
        return Err("workers never became ready".to_owned());
    }
    Ok(cluster)
}

/// Creates objects `0..count` of `state_len` bytes, alternating workers.
pub fn create_objects(
    cluster: &MultiProcCluster,
    count: u32,
    state_len: usize,
) -> Result<(), String> {
    for object in 0..count {
        cluster
            .create(
                object % WORKERS,
                object,
                blob::TYPE_TAG,
                Blob::fresh_state(state_len),
            )
            .map_err(|e| format!("create object {object}: {e}"))?;
    }
    Ok(())
}

fn multiproc_counters(cluster: &MultiProcCluster) -> Counters {
    let wal = cluster.wal_stats();
    Counters {
        deliveries: cluster.stats().deliveries,
        wal_appended: wal.appended,
        wal_syncs: wal.syncs,
        wal_compactions: wal.compactions,
        wal_live_records: wal.wal_records,
        wal_live_bytes: wal.wal_bytes,
        ..Counters::default()
    }
}

/// The coordinator records a trace event for every delivery whether or not
/// anyone reads them; left alone, peak memory measures run length. An
/// operator has to drain it, so the harness does.
fn drain_trace(cluster: &MultiProcCluster) {
    drop(cluster.take_trace());
}

fn final_get(cluster: &MultiProcCluster, object: usize) -> Result<Vec<u8>, String> {
    cluster
        .invoke(object as u32, "get", &[])
        .map_err(|e| format!("final get on object {object}: {e}"))
}

// ---------------------------------------------------------------------------
// sock_invoke

const INVOKE_OBJECTS: usize = 64;
const INVOKE_STATE: usize = 64;

/// `sock_invoke`: the smallest message over the real wire. One
/// `invoke("add", 64 B)` per operation on 64-byte objects in two worker
/// processes over a Unix socket, checkpoints in memory — per-message costs
/// of `wire`, `frame`, `socket` and the coordinator, no per-byte costs.
pub struct SockInvoke {
    cluster: MultiProcCluster,
    seed: u64,
}

pub struct InvokeClient {
    inputs: Inputs,
    tally: Tally,
}

impl SockInvoke {
    pub fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let cluster = spawn(&Wiring::unix(dir))?;
        if let Err(e) = create_objects(&cluster, INVOKE_OBJECTS as u32, INVOKE_STATE) {
            cluster.abandon();
            return Err(e);
        }
        Ok(SockInvoke { cluster, seed })
    }
}

impl Workload for SockInvoke {
    type Client = InvokeClient;
    const WINDOW: Duration = Duration::from_millis(100);

    fn warmup_ops(&self) -> usize {
        10_000
    }

    fn client(&self, index: usize) -> InvokeClient {
        InvokeClient {
            inputs: Inputs::new(self.seed, index, INVOKE_OBJECTS as u32, 1),
            tally: Tally::new(INVOKE_OBJECTS),
        }
    }

    fn op<T: Tracer>(
        &self,
        c: &mut InvokeClient,
        i: usize,
        start: Instant,
        tracer: &mut T,
    ) -> bool {
        let input = c.inputs.at(i);
        let result = self
            .cluster
            .invoke(input.object, "add", c.inputs.payload(input.word));
        tracer.child(SpanKind::Invoke, start, tick::<T>(start));
        match result {
            Ok(_) => {
                c.tally.acked(input.object as usize, input.word);
                true
            }
            Err(_) => false,
        }
    }

    fn on_window(&self) {
        drain_trace(&self.cluster);
    }

    fn counters(&self) -> Counters {
        multiproc_counters(&self.cluster)
    }

    fn worker_pids(&self) -> Vec<u32> {
        self.cluster.worker_pids()
    }

    fn finish(self, clients: Vec<InvokeClient>) -> Result<(), String> {
        let total = Tally::merged(clients.iter().map(|c| &c.tally), INVOKE_OBJECTS);
        let check = total.check_against(|o| final_get(&self.cluster, o));
        self.cluster.shutdown();
        check
    }
}

// ---------------------------------------------------------------------------
// sock_migrate_wal

const WAL_OBJECTS: usize = 32;
const WAL_STATE: usize = 16 * 1024;
const PER_CLIENT: usize = WAL_OBJECTS / crate::driver::CLIENTS;
const INVOKES_PER_MIGRATION: usize = 4;
/// `FsyncPolicy::Batch { n: 64, .. }`: what a crash may cost per object.
const BATCH_WINDOW: u64 = 64;

/// `sock_migrate_wal`: the same layers the other way round — few large
/// writes. Thirty-two 16 KiB objects over TCP loopback; an operation
/// migrates one to the other worker and invokes it four times, and every
/// one of those five steps appends 16 KiB to the coordinator's WAL under
/// batched fsync. Clients own disjoint halves of the objects, so no
/// operation can fail on a race. After the last window the coordinator is
/// abandoned (every worker SIGKILLed) and rebuilt from the WAL.
pub struct SockMigrateWal {
    cluster: MultiProcCluster,
    wiring: Wiring,
    seed: u64,
}

pub struct MigrateClient {
    first: usize,
    inputs: Inputs,
    tally: Tally,
    /// Worker hosting each owned object, tracked from acknowledged
    /// migrations.
    host: [u32; PER_CLIENT],
}

impl SockMigrateWal {
    pub fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let wiring = Wiring::tcp_wal(dir);
        let cluster = spawn(&wiring)?;
        if let Err(e) = create_objects(&cluster, WAL_OBJECTS as u32, WAL_STATE) {
            cluster.abandon();
            return Err(e);
        }
        Ok(SockMigrateWal {
            cluster,
            wiring,
            seed,
        })
    }
}

impl Workload for SockMigrateWal {
    type Client = MigrateClient;
    const WINDOW: Duration = Duration::from_millis(1000);

    fn warmup_ops(&self) -> usize {
        250
    }

    fn client(&self, index: usize) -> MigrateClient {
        let first = index * PER_CLIENT;
        MigrateClient {
            first,
            inputs: Inputs::new(self.seed, index, PER_CLIENT as u32, 1),
            tally: Tally::new(WAL_OBJECTS),
            host: std::array::from_fn(|k| (first + k) as u32 % WORKERS),
        }
    }

    fn op<T: Tracer>(
        &self,
        c: &mut MigrateClient,
        i: usize,
        start: Instant,
        tracer: &mut T,
    ) -> bool {
        let input = c.inputs.at(i);
        let slot = input.object as usize;
        let object = c.first + slot;
        let to = (c.host[slot] + 1) % WORKERS;
        let mut ok = self.cluster.migrate(object as u32, to).is_ok();
        if ok {
            c.host[slot] = to;
        }
        let migrated = tick::<T>(start);
        tracer.child(SpanKind::Migrate, start, migrated);
        for k in 0..INVOKES_PER_MIGRATION {
            let word = input.word.rotate_left(k as u32);
            match self
                .cluster
                .invoke(object as u32, "add", c.inputs.payload(word))
            {
                Ok(_) => c.tally.acked(object, word),
                Err(_) => ok = false,
            }
        }
        tracer.child(SpanKind::Work, migrated, tick::<T>(migrated));
        ok
    }

    fn on_window(&self) {
        drain_trace(&self.cluster);
    }

    fn counters(&self) -> Counters {
        multiproc_counters(&self.cluster)
    }

    fn worker_pids(&self) -> Vec<u32> {
        self.cluster.worker_pids()
    }

    fn finish(self, clients: Vec<MigrateClient>) -> Result<(), String> {
        let total = Tally::merged(clients.iter().map(|c| &c.tally), WAL_OBJECTS);
        if let Err(e) = total.check_against(|o| final_get(&self.cluster, o)) {
            self.cluster.abandon();
            return Err(e);
        }
        // coordinator death: no shutdown message, no store flush
        self.cluster.abandon();
        let recovered = MultiProcCluster::recover(config(&self.wiring), READY_TIMEOUT)
            .map_err(|e| format!("cold recovery: {e}"))?;
        let check = (|| {
            if recovered.objects().len() != WAL_OBJECTS {
                return Err(format!(
                    "{} of {WAL_OBJECTS} objects came back",
                    recovered.objects().len()
                ));
            }
            for object in 0..WAL_OBJECTS {
                let (counter, _) = blob::decode_reply(&final_get(&recovered, object)?);
                let acked = total.adds(object);
                if counter > acked || counter + BATCH_WINDOW < acked {
                    return Err(format!(
                        "object {object} recovered at {counter}, last acknowledged {acked} \
                         (allowed loss: the {BATCH_WINDOW}-record batch window)"
                    ));
                }
            }
            Ok(())
        })();
        recovered.shutdown();
        check
    }
}
