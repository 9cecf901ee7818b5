//! Tier-1's view of the runtime: one fast pass through the threaded
//! cluster under seeded chaos (checked by `oml-check`), the recovery
//! machinery with its negative control, the socket transport and the
//! write-ahead store — so `cargo test -q` at the workspace root fails when
//! a runtime regression lands, not only `cargo test --workspace`.

use std::time::Duration;

use oml_core::ids::ObjectId;
use oml_experiments::check::{replay_chaos, replay_recovery, CHAOS_SEEDS};
use oml_runtime::transport::{Transport, TransportEvent};
use oml_runtime::wire::WireWriter;
use oml_runtime::{
    CheckpointStore, FsyncPolicy, Sabotage, SocketConfig, SocketPeer, SocketServer,
    StoredCheckpoint, TransportAddr, WalStore, WalStoreConfig,
};

#[test]
fn chaos_and_recovery_replays_are_clean() {
    let chaos = replay_chaos(CHAOS_SEEDS[0]);
    assert!(chaos.report.events > 100, "tracing must be on");
    assert!(chaos.report.is_clean(), "{}", chaos.report);
    let recovery = replay_recovery(CHAOS_SEEDS[0], None);
    assert!(recovery.report.is_clean(), "{}", recovery.report);
}

/// The same recovery schedule under `Sabotage::Unfenced`: the zombie
/// double-installs, and the checker must say so.
#[test]
fn unfenced_zombie_is_flagged() {
    let report = replay_recovery(CHAOS_SEEDS[0], Some(Sabotage::Unfenced)).report;
    assert!(!report.is_clean(), "the checker missed the unfenced zombie");
}

#[test]
fn socket_round_trip() {
    let addr = TransportAddr::parse("tcp:127.0.0.1:0").expect("loopback address");
    let server = SocketServer::bind(&addr, 1, SocketConfig::default()).expect("bind loopback");
    let peer = SocketPeer::connect(server.addr().clone(), 0, 1, SocketConfig::default());
    assert!(peer.wait_connected(Duration::from_secs(3)), "handshake");

    let wait = Duration::from_secs(3);
    let ping = WireWriter::new().str("ping").finish();
    peer.send(0, ping.clone()).expect("peer -> server");
    let at_server = loop {
        // the session's Connected event comes first
        let event = server.recv_timeout(0, wait).expect("server receives");
        if let TransportEvent::Delivery { from, epoch, msg } = event {
            break (from, epoch, msg);
        }
    };
    assert_eq!(at_server, (0, 1, ping));

    let pong = WireWriter::new().str("pong").finish();
    server.send(0, pong.clone()).expect("server -> peer");
    let at_peer = loop {
        let event = peer.recv_timeout(0, wait).expect("peer receives");
        if let TransportEvent::Delivery { msg, .. } = event {
            break msg;
        }
    };
    assert_eq!(at_peer, pong);
    peer.shutdown();
    server.shutdown();
}

#[test]
fn wal_store_survives_a_reopen() {
    let dir = std::env::temp_dir().join(format!("oml-runtime-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || WalStoreConfig::with_fsync(&dir, FsyncPolicy::Always);
    let object = ObjectId::new(7);
    let ckpt = StoredCheckpoint {
        type_tag: "counter".to_owned(),
        state: WireWriter::new().u64(41).finish(),
        object_epoch: 2,
        seq: 5,
    };
    {
        let (mut store, report) = WalStore::open(cfg()).expect("open a fresh store");
        assert_eq!(report.recovered_objects, 0);
        let durability = store.put(object, ckpt.clone()).expect("put");
        assert!(durability.is_durable(), "fsync=always acks durable writes");
    }
    let (store, report) = WalStore::open(cfg()).expect("reopen");
    assert!(!report.corrupt && report.torn_bytes == 0);
    assert_eq!(store.get(object), Some(&ckpt));
    assert_eq!(store.epoch_floor(object), 2, "the floor came back too");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
