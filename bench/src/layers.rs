//! Per-layer timings, taken from outside: each number times calls into one
//! module's public functions in a loop, on the pinned CPU, with nothing
//! else running. `bench/README.md` says which end-to-end metric each one
//! should move.

use crate::blob::{self, Blob};
use crate::hist::{median, quartiles};
use crate::workloads::sock::{self, Wiring};
use bytes::Bytes;
use oml_core::attach::{AttachmentGraph, AttachmentMode, ClosureScratch};
use oml_core::ids::{AllianceId, BlockId, NodeId, ObjectId};
use oml_core::policy::{EndRequest, MoveRequest, PolicyKind};
use oml_runtime::transport::channel::{ChannelMesh, MeshConfig};
use oml_runtime::transport::frame::{crc32, encode_frame, FrameConfig, FrameDecoder};
use oml_runtime::transport::netio::TransportAddr;
use oml_runtime::transport::socket::{SocketConfig, SocketPeer, SocketServer};
use oml_runtime::transport::{Transport, TransportEvent};
use oml_runtime::wire::CheckpointFrame;
use oml_runtime::{
    CheckpointStore, Cluster, FsyncPolicy, MemStore, MultiProcCluster, StoredCheckpoint, WalStore,
    WalStoreConfig,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::report::Named as Metric;

const KIB: usize = 1024;
const RECV: Duration = Duration::from_secs(5);

/// Mean nanoseconds per call of `f` in the fastest of five batches: what
/// the host adds to a batch it only ever adds.
fn ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Every per-layer timing, in the order `BENCHMARK.json` lists them.
/// `scratch` is an empty directory on a real disk.
pub fn measure(scratch: &Path) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    wire(&mut out);
    frame(&mut out);
    channel(&mut out)?;
    socket(&mut out, scratch)?;
    store(&mut out, scratch)?;
    core(&mut out);
    cluster(&mut out)?;
    recovery(&mut out)?;
    multiproc(&mut out, scratch)?;
    Ok(out)
}

fn wire(out: &mut Vec<Metric>) {
    let frame = CheckpointFrame {
        type_tag: blob::TYPE_TAG.to_owned(),
        state: Bytes::from(Blob::fresh_state(KIB)),
        object_epoch: 3,
        seq: 41,
    };
    let encoded = frame.encode();
    out.push((
        "wire.ckpt_encode_ns",
        ns_per_call(20_000, || drop(black_box(black_box(&frame).encode()))),
        "ns",
    ));
    out.push((
        "wire.ckpt_decode_ns",
        ns_per_call(20_000, || {
            drop(black_box(CheckpointFrame::decode(black_box(&encoded))));
        }),
        "ns",
    ));
}

/// Feeds `stream` to a fresh decoder in MTU-sized chunks and pops every
/// frame; returns how many came out.
fn decode_stream(stream: &[u8]) -> usize {
    let mut decoder = FrameDecoder::new(FrameConfig::default());
    let mut frames = 0;
    for chunk in stream.chunks(1500) {
        decoder.extend(chunk);
        while let Ok(Some(frame)) = decoder.next_frame() {
            black_box(&frame);
            frames += 1;
        }
    }
    frames
}

fn frame(out: &mut Vec<Metric>) {
    let small = vec![0x5au8; 64];
    let large: Vec<u8> = (0..16 * KIB).map(|i| (i * 31) as u8).collect();
    out.push((
        "frame.crc32_ns_per_kib",
        ns_per_call(400, || {
            black_box(crc32(black_box(&large)));
        }) / 16.0,
        "ns/KiB",
    ));
    let mut buf = Vec::with_capacity(64 * KIB);
    out.push((
        "frame.encode_ns_64b",
        ns_per_call(100_000, || {
            buf.clear();
            encode_frame(black_box(&small), &mut buf);
        }),
        "ns",
    ));
    out.push((
        "frame.encode_ns_per_kib",
        ns_per_call(400, || {
            buf.clear();
            encode_frame(black_box(&large), &mut buf);
        }) / 16.0,
        "ns/KiB",
    ));
    let mut small_stream = Vec::new();
    for _ in 0..1000 {
        encode_frame(&small, &mut small_stream);
    }
    out.push((
        "frame.decode_ns_64b",
        ns_per_call(50, || {
            assert_eq!(decode_stream(black_box(&small_stream)), 1000)
        }) / 1000.0,
        "ns",
    ));
    let mut large_stream = Vec::new();
    for _ in 0..16 {
        encode_frame(&large, &mut large_stream);
    }
    out.push((
        "frame.decode_ns_per_kib",
        ns_per_call(25, || {
            assert_eq!(decode_stream(black_box(&large_stream)), 16)
        }) / 256.0,
        "ns/KiB",
    ));
}

fn delivery<M: Send>(t: &impl Transport<M>, at: u32) -> Result<M, String> {
    let deadline = Instant::now() + RECV;
    while Instant::now() < deadline {
        match t.recv_timeout(at, RECV) {
            Ok(TransportEvent::Delivery { msg, .. }) => return Ok(msg),
            Ok(_) => {} // link-state events
            Err(e) => return Err(format!("transport receive: {e}")),
        }
    }
    Err("no delivery within the deadline".to_owned())
}

fn channel(out: &mut Vec<Metric>) -> Result<(), String> {
    let mesh: ChannelMesh<u64> = ChannelMesh::new(2, MeshConfig::default());
    let mut failed = false;
    out.push((
        "channel.send_recv_ns",
        ns_per_call(100_000, || {
            failed |= mesh.send(0, 7).is_err() || delivery(&mesh, 0).is_err();
        }),
        "ns",
    ));
    // two threads: every message wakes the thread blocked on the other side
    let echo_failed = std::thread::scope(|s| {
        let echo = s.spawn(|| {
            while let Ok(n) = delivery(&mesh, 1) {
                if n == u64::MAX || mesh.send(0, n).is_err() {
                    break;
                }
            }
        });
        out.push((
            "channel.roundtrip_us",
            ns_per_call(10_000, || {
                failed |= mesh.send(1, 7).is_err() || delivery(&mesh, 0).is_err();
            }) / 1e3,
            "us",
        ));
        let _ = mesh.send(1, u64::MAX);
        echo.join().is_err()
    });
    if failed || echo_failed {
        return Err("channel mesh ping-pong failed".to_owned());
    }
    Ok(())
}

/// A connected server/peer pair in this process.
fn socket_pair(addr: &TransportAddr) -> Result<(SocketServer, SocketPeer), String> {
    let server = SocketServer::bind(addr, 1, SocketConfig::default())
        .map_err(|e| format!("bind {addr}: {e}"))?;
    let peer = SocketPeer::connect(server.addr().clone(), 0, 1, SocketConfig::default());
    let deadline = Instant::now() + RECV;
    loop {
        match server.recv_timeout(0, Duration::from_millis(50)) {
            Ok(TransportEvent::Connected { .. }) if peer.wait_connected(RECV) => {
                return Ok((server, peer));
            }
            _ if Instant::now() >= deadline => {
                peer.shutdown();
                server.shutdown();
                return Err(format!("no session on {addr}"));
            }
            _ => {}
        }
    }
}

/// Ping-pong and one-way flood over one socket pair; the peer's thread
/// echoes until told to count instead.
fn socket_on(
    addr: &TransportAddr,
    rtt_name: &'static str,
    floods: bool,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    const STOP: u8 = 0;
    const ECHO: u8 = 1;
    const COUNT: u8 = 2;
    let (server, peer) = socket_pair(addr)?;
    let (done_tx, done_rx) = mpsc::channel::<usize>();
    let result = std::thread::scope(|s| {
        s.spawn(|| {
            let mut counted = 0usize;
            while let Ok(msg) = delivery(&peer, 0) {
                match msg[0] {
                    ECHO => {
                        if peer.send(0, msg).is_err() {
                            break;
                        }
                    }
                    COUNT => counted += 1,
                    _ => {
                        // end of a flood (or of the run): report and reset
                        let _ = done_tx.send(std::mem::take(&mut counted));
                        if msg.len() == 1 {
                            break;
                        }
                    }
                }
            }
        });
        let run = (|| {
            let mut ping = vec![ECHO; 64];
            let mut failed = false;
            let rtt = ns_per_call(1_000, || {
                let msg = Bytes::from(std::mem::take(&mut ping));
                failed |= server.send(0, msg).is_err();
                match delivery(&server, 0) {
                    Ok(back) => ping = back.to_vec(),
                    Err(_) => {
                        failed = true;
                        ping = vec![ECHO; 64];
                    }
                }
            });
            if failed {
                return Err(format!("{rtt_name}: ping-pong failed"));
            }
            out.push((rtt_name, rtt / 1e3, "us"));
            if !floods {
                return Ok(());
            }
            // one-way floods: outbox batching (small frames), copies and
            // CRC (large frames)
            const MIB: f64 = (KIB * KIB) as f64;
            // (name, frame bytes, frames sent, what one frame counts for, unit)
            for (name, len, frames, each, unit) in [
                ("socket.stream_frames_per_s", 64, 100_000usize, 1.0, "1/s"),
                (
                    "socket.stream_mib_per_s",
                    16 * KIB,
                    4_000,
                    (16 * KIB) as f64 / MIB,
                    "MiB/s",
                ),
            ] {
                let frame = Bytes::from(vec![COUNT; len]);
                let t = Instant::now();
                for _ in 0..frames {
                    server
                        .send(0, frame.clone())
                        .map_err(|e| format!("{name}: send: {e}"))?;
                }
                // a two-byte STOP ends the flood without ending the thread
                server
                    .send(0, Bytes::from(vec![STOP, STOP]))
                    .map_err(|e| format!("{name}: send: {e}"))?;
                let got = done_rx
                    .recv_timeout(RECV * 4)
                    .map_err(|_| format!("{name}: flood stalled"))?;
                let secs = t.elapsed().as_secs_f64();
                if got != frames {
                    return Err(format!("{name}: {got} of {frames} frames arrived"));
                }
                out.push((name, frames as f64 * each / secs, unit));
            }
            Ok(())
        })();
        let _ = server.send(0, Bytes::from(vec![STOP]));
        run
    });
    peer.shutdown();
    server.shutdown();
    result
}

fn socket(out: &mut Vec<Metric>, scratch: &Path) -> Result<(), String> {
    socket_on(
        &TransportAddr::Unix(scratch.join("layer.sock")),
        "socket.roundtrip_us_unix",
        true,
        out,
    )?;
    socket_on(
        &TransportAddr::Tcp("127.0.0.1:0".to_owned()),
        "socket.roundtrip_us_tcp",
        false,
        out,
    )
}

fn checkpoint(seq: u64) -> StoredCheckpoint {
    StoredCheckpoint {
        type_tag: blob::TYPE_TAG.to_owned(),
        state: Bytes::from(Blob::fresh_state(KIB)),
        object_epoch: 1,
        seq,
    }
}

fn open_wal(dir: &Path, fsync: FsyncPolicy) -> Result<WalStore, String> {
    let cfg = WalStoreConfig {
        // manual compaction only: the put timings must not include one
        compact_after: 0,
        ..WalStoreConfig::with_fsync(dir, fsync)
    };
    WalStore::open(cfg)
        .map(|(store, _)| store)
        .map_err(|e| format!("open WAL in {}: {e}", dir.display()))
}

/// Microseconds per 1 KiB put, one sample per put.
fn put_samples(store: &mut dyn CheckpointStore, puts: u64) -> Result<Vec<f64>, String> {
    (0..puts)
        .map(|i| {
            let ckpt = checkpoint(i + 1);
            let t = Instant::now();
            store
                .put(ObjectId::new((i % 256) as u32), ckpt)
                .map(drop)
                .map_err(|e| format!("WAL put: {e}"))?;
            Ok(us_since(t))
        })
        .collect()
}

fn store(out: &mut Vec<Metric>, scratch: &Path) -> Result<(), String> {
    let mut mem = MemStore::new();
    let mut seq = 0u64;
    out.push((
        "store.mem.put_ns",
        ns_per_call(20_000, || {
            seq += 1;
            let _ = mem.put(ObjectId::new((seq % 256) as u32), checkpoint(seq));
        }),
        "ns",
    ));
    // the checkpoint itself is built outside the put on the disk paths;
    // here its cost is part of the number, as it is part of a refresh

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let mut never = open_wal(&scratch.join("wal-never"), FsyncPolicy::Never)?;
    out.push((
        "store.wal.put_never_us",
        mean(&put_samples(&mut never, 2_000)?),
        "us",
    ));
    let mut batch = open_wal(
        &scratch.join("wal-batch"),
        FsyncPolicy::Batch { n: 64, ms: 20 },
    )?;
    out.push((
        "store.wal.put_batch_us",
        mean(&put_samples(&mut batch, 2_000)?),
        "us",
    ));
    drop(batch);

    // disk-bound, never gated: reported as a median, quartiles on stderr
    let mut always = open_wal(&scratch.join("wal-always"), FsyncPolicy::Always)?;
    let samples = put_samples(&mut always, 40)?;
    let (q1, q3) = quartiles(&samples);
    eprintln!("  store.wal.put_always_us quartiles: {q1:.1} .. {q3:.1}");
    out.push(("store.wal.put_always_us", median(&samples), "us"));
    drop(always);

    let mut syncs = Vec::new();
    for i in 0..40 {
        never
            .put(ObjectId::new(i), checkpoint(u64::from(i) + 10_000))
            .map(drop)
            .map_err(|e| format!("WAL put: {e}"))?;
        let t = Instant::now();
        never.sync().map_err(|e| format!("WAL sync: {e}"))?;
        syncs.push(us_since(t));
    }
    let (q1, q3) = quartiles(&syncs);
    eprintln!("  store.wal.sync_us quartiles: {q1:.1} .. {q3:.1}");
    out.push(("store.wal.sync_us", median(&syncs), "us"));
    drop(never);

    // recovery time against WAL length: 4096 records over 256 objects
    let (mut opens, mut compactions) = (Vec::new(), Vec::new());
    for round in 0..3 {
        let dir = scratch.join(format!("wal-4096-{round}"));
        let mut wal = open_wal(&dir, FsyncPolicy::Never)?;
        put_samples(&mut wal, 4096)?;
        drop(wal);
        let t = Instant::now();
        let mut wal = open_wal(&dir, FsyncPolicy::Never)?;
        opens.push(ms_since(t));
        if wal.len() != 256 {
            return Err(format!(
                "cold replay recovered {} of 256 objects",
                wal.len()
            ));
        }
        let t = Instant::now();
        wal.compact().map_err(|e| format!("compact: {e}"))?;
        compactions.push(ms_since(t));
    }
    out.push(("store.wal.compact_ms_4096", median(&compactions), "ms"));
    out.push(("store.wal.open_ms_4096", median(&opens), "ms"));
    Ok(())
}

/// A star of `k - 1` helpers attached to object 0 in one alliance, plus a
/// second alliance attaching a stranger, so the A-transitive walk has an
/// edge to refuse.
fn star(k: u32) -> (AttachmentGraph, AllianceId) {
    let (work, other) = (AllianceId::new(0), AllianceId::new(1));
    let mut graph = AttachmentGraph::new(AttachmentMode::ATransitive);
    for helper in 1..k {
        graph
            .attach(ObjectId::new(helper), ObjectId::new(0), Some(work))
            .expect("distinct endpoints");
    }
    graph
        .attach(ObjectId::new(k), ObjectId::new(0), Some(other))
        .expect("distinct endpoints");
    (graph, work)
}

fn core(out: &mut Vec<Metric>) {
    let mut scratch = ClosureScratch::new();
    for (name, k) in [("core.closure_ns_k8", 8u32), ("core.closure_ns_k64", 64)] {
        let (mut graph, work) = star(k);
        out.push((
            name,
            ns_per_call(100_000, || {
                graph.migration_closure_into(ObjectId::new(0), Some(work), &mut scratch);
                assert_eq!(black_box(scratch.members()).len(), k as usize);
            }),
            "ns",
        ));
    }
    // what `node::migrate_closure` calls today: the allocating BFS
    let (graph, work) = star(8);
    out.push((
        "core.closure_bfs_ns_k8",
        ns_per_call(20_000, || {
            assert_eq!(
                black_box(graph.migration_closure(ObjectId::new(0), Some(work))).len(),
                8
            );
        }),
        "ns",
    ));

    let mut policy = PolicyKind::TransientPlacement.build();
    let (object, here, there) = (ObjectId::new(0), NodeId::new(0), NodeId::new(1));
    let mut block = 0u32;
    out.push((
        "core.policy_move_end_ns",
        ns_per_call(100_000, || {
            block += 1;
            let id = BlockId::new(block);
            black_box(policy.on_move(&MoveRequest {
                object,
                at: here,
                from: there,
                block: id,
            }));
            policy.on_installed(object, there, id);
            black_box(policy.on_end(&EndRequest {
                object,
                at: there,
                from: there,
                block: id,
                was_granted: true,
            }));
        }),
        "ns",
    ));
}

fn err(what: &'static str) -> impl Fn(oml_runtime::RuntimeError) -> String {
    move |e| format!("{what}: {e}")
}

/// A root with `k - 1` helpers of 1 KiB attached, created at node 0.
fn attached_set(cluster: &Cluster, k: usize) -> Result<ObjectId, String> {
    let root = cluster
        .create(NodeId::new(0), Blob::boxed(KIB))
        .map_err(err("create"))?;
    for _ in 1..k {
        let helper = cluster
            .create(NodeId::new(0), Blob::boxed(KIB))
            .map_err(err("create"))?;
        cluster
            .attach(helper, root, None)
            .map_err(|e| format!("attach: {e}"))?;
    }
    Ok(root)
}

/// Mean microseconds of a granted move block that really migrates: the
/// destination alternates between nodes 1 and 0.
fn move_block_us(cluster: &Cluster, root: ObjectId, blocks: usize) -> Result<f64, String> {
    let mut failed = None;
    let mut flip = 0u32;
    let ns = ns_per_call(blocks, || {
        flip ^= 1;
        match cluster.move_block(root, NodeId::new(flip)) {
            Ok(guard) if guard.granted() => guard.end(),
            Ok(_) => failed = Some("move denied with no other holder".to_owned()),
            Err(e) => failed = Some(format!("move block: {e}")),
        }
    });
    failed.map_or(Ok(ns / 1e3), Err)
}

fn cluster(out: &mut Vec<Metric>) -> Result<(), String> {
    let cluster = Cluster::builder().nodes(3).build();
    cluster.register_type(blob::TYPE_TAG, blob::delinearize);
    let run = (|| {
        let mut objects = Vec::new();
        let mut failed = false;
        let create_ns = ns_per_call(200, || {
            match cluster.create(NodeId::new(objects.len() as u32 % 3), Blob::boxed(64)) {
                Ok(o) => objects.push(o),
                Err(_) => failed = true,
            }
        });
        out.push(("cluster.create_us", create_ns / 1e3, "us"));
        let payload = [7u8; 64];
        let mut i = 0;
        let invoke_ns = ns_per_call(4_000, || {
            i += 1;
            failed |= cluster.invoke(objects[i % 64], "add", &payload).is_err();
        });
        out.push(("cluster.invoke_us", invoke_ns / 1e3, "us"));
        out.push((
            "cluster.directory_lookup_ns",
            ns_per_call(200_000, || {
                i += 1;
                black_box(cluster.location_of(objects[i % 64]));
            }),
            "ns",
        ));
        if failed {
            return Err("cluster create/invoke failed".to_owned());
        }
        out.push((
            "cluster.move_block_us_k1",
            move_block_us(&cluster, attached_set(&cluster, 1)?, 1_000)?,
            "us",
        ));
        out.push((
            "cluster.move_block_us_k8",
            move_block_us(&cluster, attached_set(&cluster, 8)?, 500)?,
            "us",
        ));

        let contested = attached_set(&cluster, 1)?;
        let holder = cluster
            .move_block(contested, NodeId::new(1))
            .map_err(err("move block"))?;
        let mut granted = false;
        let denied_ns = ns_per_call(2_000, || {
            match cluster.move_block(contested, NodeId::new(2)) {
                Ok(guard) => {
                    granted |= guard.granted();
                    guard.end();
                }
                Err(_) => granted = true,
            }
        });
        holder.end();
        if granted {
            return Err("a move against a held lock was not denied".to_owned());
        }
        out.push(("cluster.move_denied_us", denied_ns / 1e3, "us"));
        Ok(())
    })();
    cluster.shutdown();
    run
}

fn recovery(out: &mut Vec<Metric>) -> Result<(), String> {
    // move-block cost against the replication factor: the slope is what
    // one more replica costs a refresh
    for (name, k) in [
        ("recovery.refresh_us_r1", 1),
        ("recovery.refresh_us_r2", 2),
        ("recovery.refresh_us_r3", 3),
    ] {
        let cluster = Cluster::builder()
            .nodes(3)
            .failure_detector(50, 4)
            .replication(k)
            .build();
        cluster.register_type(blob::TYPE_TAG, blob::delinearize);
        let us = attached_set(&cluster, 8).and_then(|root| move_block_us(&cluster, root, 300));
        cluster.shutdown();
        out.push((name, us?, "us"));
    }

    // crash -> declared dead -> promoted -> reinstantiated, with the
    // detector's waiting taken out by a hand-advanced clock
    const STRANDED: usize = 256;
    let cluster = Cluster::builder()
        .nodes(3)
        .manual_clock()
        .failure_detector(50, 4)
        .replication(2)
        .build();
    cluster.register_type(blob::TYPE_TAG, blob::delinearize);
    let run = (|| {
        let (victim, survivors) = (NodeId::new(1), [NodeId::new(0), NodeId::new(2)]);
        let mut sentinels = Vec::new();
        for node in survivors {
            sentinels.push(
                cluster
                    .create(node, Blob::boxed(64))
                    .map_err(err("create"))?,
            );
        }
        let (mut sweeps, mut restarts) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            for _ in 0..STRANDED {
                cluster
                    .create(victim, Blob::boxed(KIB))
                    .map_err(err("create"))?;
            }
            let before = cluster.stats().reinstantiations;
            cluster.crash_node(victim).map_err(err("crash"))?;
            cluster.advance_clock(10_000);
            let t = Instant::now();
            cluster.detector_sweep();
            // installs are queued per node in order: a reply from each
            // survivor means every install before it has landed
            for &sentinel in &sentinels {
                cluster
                    .invoke(sentinel, "get", &[])
                    .map_err(err("sentinel"))?;
            }
            sweeps.push(us_since(t) / STRANDED as f64);
            let reinstated = cluster.stats().reinstantiations - before;
            if reinstated != STRANDED as u64 {
                return Err(format!(
                    "{reinstated} of {STRANDED} stranded objects reinstantiated"
                ));
            }
            let t = Instant::now();
            cluster.restart_node(victim).map_err(err("restart"))?;
            restarts.push(us_since(t));
            cluster.advance_clock(10_000);
            cluster.detector_sweep();
        }
        out.push(("recovery.sweep_us_per_object", median(&sweeps), "us"));
        out.push(("recovery.restart_us", median(&restarts), "us"));
        Ok(())
    })();
    cluster.shutdown();
    run
}

fn multiproc(out: &mut Vec<Metric>, scratch: &Path) -> Result<(), String> {
    let dir = scratch.join("mp");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    let t = Instant::now();
    let cluster = sock::spawn(&Wiring::unix(&dir))?;
    out.push(("multiproc.spawn_ms", ms_since(t), "ms"));
    let run = (|| {
        sock::create_objects(&cluster, 2, 64)?;
        let payload = [7u8; 64];
        let mut failed = false;
        let invoke_ns = ns_per_call(600, || {
            failed |= cluster.invoke(0, "add", &payload).is_err()
        });
        out.push(("multiproc.invoke_us", invoke_ns / 1e3, "us"));
        let mut to = 0;
        let migrate_ns = ns_per_call(300, || {
            to ^= 1;
            failed |= cluster.migrate(1, to).is_err();
        });
        out.push(("multiproc.migrate_us", migrate_ns / 1e3, "us"));
        if failed {
            return Err("multiproc invoke/migrate failed".to_owned());
        }
        Ok(())
    })();
    cluster.shutdown();
    run?;

    // the cold restart `sock_migrate_wal` ends with, at its size: 32
    // objects of 16 KiB come back from the WAL into fresh workers
    let wiring = Wiring::tcp_wal(&dir);
    let cluster = sock::spawn(&wiring)?;
    let filled = sock::create_objects(&cluster, 32, 16 * KIB).and_then(|()| {
        (0..32).try_for_each(|o| {
            cluster
                .invoke(o, "add", &[1])
                .map(drop)
                .map_err(|e| format!("invoke before cold restart: {e}"))
        })
    });
    cluster.abandon();
    filled?;
    let t = Instant::now();
    let recovered = MultiProcCluster::recover(sock::config(&wiring), RECV * 4)
        .map_err(|e| format!("cold recovery: {e}"))?;
    out.push(("multiproc.cold_recover_ms", ms_since(t), "ms"));
    let back = recovered.objects().len();
    recovered.shutdown();
    if back != 32 {
        return Err(format!("{back} of 32 objects came back from the WAL"));
    }
    Ok(())
}
