//! The byte budget of the checkpoint log, counted rather than timed (the
//! `message_budget.rs` idiom): a put that edits the stored state costs the
//! edit, a put that shares nothing with it costs exactly what it always
//! did, and in between the smaller record wins. This is the guard against a
//! return to one whole state per put — and against the patch path leaking
//! into logs it cannot help; CI names it explicitly.

use std::hash::Hasher;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use oml_check::explore::Fnv64;
use oml_core::ids::ObjectId;
use oml_runtime::store::wal::{replay_segment, WalRecord};
use oml_runtime::{CheckpointStore, FsyncPolicy, StoredCheckpoint, WalStore, WalStoreConfig};

/// The state size the runtime benchmark checkpoints.
const STATE: usize = 16 << 10;

fn scratch_dir(what: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oml-wal-budget-{what}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> WalStore {
    let cfg = WalStoreConfig {
        compact_after: 0,
        ..WalStoreConfig::with_fsync(dir, FsyncPolicy::Never)
    };
    WalStore::open(cfg).expect("open store").0
}

/// `n` bytes none of which equals the byte at its offset under another
/// `salt` (the `wal_pr11` fixture's generator).
fn state(n: usize, salt: u8) -> Bytes {
    let bytes = (0..n).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt));
    Bytes::from(bytes.collect::<Vec<u8>>())
}

fn blob(object_epoch: u64, seq: u64, state: Bytes) -> StoredCheckpoint {
    StoredCheckpoint {
        type_tag: "blob".into(),
        state,
        object_epoch,
        seq,
    }
}

/// Length and FNV-1a of a file.
fn digest(path: &Path) -> (usize, u64) {
    let bytes = std::fs::read(path).expect("read log");
    let mut hash = Fnv64::new();
    hash.write(&bytes);
    (bytes.len(), hash.finish())
}

/// What an invoke does to a large object: 16 bytes change, 16 KiB are
/// checkpointed. A thousand of those fit in 128 bytes each, first whole
/// `Put` included.
#[test]
fn a_put_that_edits_sixteen_bytes_costs_under_128_bytes_of_log() {
    let dir = scratch_dir("edit");
    let mut store = open(&dir);
    let object = ObjectId::new(1);
    let mut bytes = state(STATE, 0).to_vec();
    for i in 0..1_000u64 {
        // a counter and a checksum, wandering over the state
        let at = (i as usize * 4_099) % (STATE - 16);
        bytes[at..at + 8].copy_from_slice(&i.to_le_bytes());
        bytes[at + 8..at + 16]
            .copy_from_slice(&i.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes());
        let _ = store
            .put(object, blob(1, i, Bytes::from(bytes.clone())))
            .expect("put");
    }
    let stats = store.wal_stats();
    assert_eq!(stats.wal_records, 1_000);
    assert!(
        stats.wal_bytes <= 1_000 * 128,
        "{} bytes of log for 1000 sixteen-byte edits",
        stats.wal_bytes
    );
    drop(store);
    let reopened = open(&dir);
    assert_eq!(reopened.get(object).expect("recovered").state, bytes);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The side without the property: states that share neither their first
/// nor their last byte with the stored one are logged as the `Put`s they
/// always were — the digests were taken at `774f189`, the commit before
/// `Patch` existed.
#[test]
fn puts_that_share_nothing_write_the_log_they_always_wrote() {
    let dir = scratch_dir("fresh");
    let mut store = open(&dir);
    for i in 0..200u64 {
        let _ = store
            .put(ObjectId::new(1), blob(1, i, state(STATE, i as u8)))
            .expect("put");
    }
    assert_eq!(
        digest(&store.live_wal_path()),
        (3_285_600, 0xa931_ec60_fbd0_1b7b)
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // the operations behind `tests/fixtures/wal_pr11`
    let dir = scratch_dir("pr11");
    let mut s = open(&dir);
    let o = ObjectId::new;
    let _ = s.put(o(1), blob(1, 1, state(100, 1))).expect("put");
    let _ = s.put(o(2), blob(2, 1, state(17, 2))).expect("put");
    let _ = s.put(o(3), blob(1, 1, state(0, 3))).expect("put");
    let _ = s.set_meta(0, 4).expect("meta");
    let _ = s.set_meta(1, 2).expect("meta");
    let _ = s.note_epoch(o(9), 6).expect("epoch");
    s.remove(o(2)).expect("remove");
    s.compact().expect("compact");
    let _ = s.put(o(1), blob(2, 2, state(300, 4))).expect("put");
    let _ = s.put(o(4), blob(1, 1, state(8, 5))).expect("put");
    let _ = s.set_meta(1, 3).expect("meta");
    let _ = s.note_epoch(o(3), 5).expect("epoch");
    s.remove(o(3)).expect("remove");
    assert_eq!(
        digest(&dir.join("snap-1.bin")),
        (332, 0xb494_4da1_a0ea_255e)
    );
    assert_eq!(digest(&dir.join("wal-1.log")), (460, 0x234e_69bb_085b_89ed));
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

/// In between: the first half shared, the second half not. The patch is
/// the smaller record by half, is the one chosen, and replays.
#[test]
fn a_half_equal_state_is_logged_as_the_half_that_changed() {
    let dir = scratch_dir("half");
    let mut store = open(&dir);
    let object = ObjectId::new(1);
    let _ = store.put(object, blob(1, 0, state(STATE, 0))).expect("put");
    let whole = store.wal_stats().wal_bytes;
    let mut bytes = state(STATE, 0).to_vec();
    bytes[STATE / 2..].copy_from_slice(&state(STATE / 2, 9));
    let half = blob(1, 1, Bytes::from(bytes));
    let _ = store.put(object, half.clone()).expect("put");
    let patch = store.wal_stats().wal_bytes - whole;
    assert!(
        patch <= whole / 2 + 32,
        "{patch} bytes against {whole} for the whole state"
    );
    let log = std::fs::read(store.live_wal_path()).expect("read log");
    let seg = replay_segment(&log, 1 << 20);
    assert!(
        matches!(&seg.records[1], WalRecord::Patch { at, cut, with, .. }
            if (*at, *cut, with.len()) == (8_192, 8_192, 8_192)),
        "{:?}",
        seg.records[1]
    );
    drop(store);
    let reopened = open(&dir);
    assert_eq!(reopened.get(object), Some(&half));
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
