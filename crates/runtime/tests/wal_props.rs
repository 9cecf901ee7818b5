//! Property tests for the write-ahead checkpoint store's record framing,
//! mirroring `frame_props.rs` for the WAL layer: truncation at **every**
//! byte offset recovers exactly the longest valid record prefix with
//! `corrupt = false` (a torn tail is steady state; the whole segment
//! round-trips every record), and flipping any single bit is either
//! flagged as corruption or surfaces as a shorter prefix — never a
//! silently-wrong record. How the kernel split the writes is the frame
//! decoder's business, and `frame_props.rs` covers any split there.
//!
//! And for the store above the framing, now that a put may be logged as a
//! [`WalRecord::Patch`] against what the store already holds: any sequence
//! of puts (edited the ways that matter), removes, clears, compactions and
//! reopens leaves the reopened image equal to a `HashMap` model, and a
//! patch that does not apply — whatever its fields claim — ends the replay
//! as flagged corruption with the prefix kept.

use bytes::Bytes;
use oml_core::ids::ObjectId;
use oml_runtime::store::wal::{encode_record, replay_segment, WalRecord};
use oml_runtime::transport::frame::{crc32, encode_frame};
use oml_runtime::wire::WireWriter;
use oml_runtime::{
    CheckpointStore, FsyncPolicy, RecoveryReport, StoredCheckpoint, WalStore, WalStoreConfig,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

const MAX_FRAME: u32 = 4096;

/// A state of the size the runtime benchmark checkpoints.
const LARGE_STATE: usize = 16 << 10;

fn record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            "[a-z]{0,12}",
            proptest::collection::vec(any::<u8>(), 0..64),
        )
            .prop_map(
                |(object, object_epoch, seq, type_tag, state)| WalRecord::Put {
                    object: ObjectId::new(object),
                    ckpt: StoredCheckpoint {
                        type_tag,
                        state: Bytes::from(state),
                        object_epoch,
                        seq,
                    },
                }
            ),
        any::<u32>().prop_map(|o| WalRecord::Remove {
            object: ObjectId::new(o)
        }),
        Just(WalRecord::Clear),
        (any::<u32>(), any::<u64>()).prop_map(|(o, epoch)| WalRecord::Epoch {
            object: ObjectId::new(o),
            epoch,
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(key, value)| WalRecord::Meta { key, value }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..64),
            any::<u32>(),
        )
            .prop_map(|(object, object_epoch, seq, at, cut, with, check)| {
                WalRecord::Patch {
                    object: ObjectId::new(object),
                    object_epoch,
                    seq,
                    at,
                    cut,
                    with: Bytes::from(with),
                    check,
                }
            }),
    ]
}

fn records() -> impl Strategy<Value = Vec<WalRecord>> {
    proptest::collection::vec(record(), 1..8)
}

fn encode_all(recs: &[WalRecord]) -> Vec<u8> {
    let mut wire = Vec::new();
    for rec in recs {
        encode_record(rec, &mut wire);
    }
    wire
}

/// Byte offset at which each record's frame ends.
fn frame_ends(recs: &[WalRecord]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut acc = 0usize;
    let mut one = Vec::new();
    for rec in recs {
        one.clear();
        encode_record(rec, &mut one);
        acc += one.len();
        ends.push(acc);
    }
    ends
}

proptest! {
    /// Truncation at every byte offset — the crash landed mid-append —
    /// recovers exactly the records whose frames are fully inside the
    /// prefix, reports the cut as torn bytes, and never flags corruption:
    /// a torn tail is steady state, not an error. The cut at the end is the
    /// clean round trip: every record back, no torn bytes.
    #[test]
    fn truncation_at_every_offset_recovers_longest_valid_prefix(recs in records()) {
        let wire = encode_all(&recs);
        let ends = frame_ends(&recs);
        for cut in 0..=wire.len() {
            let seg = replay_segment(&wire[..cut], MAX_FRAME);
            let complete = ends.iter().filter(|&&e| e <= cut).count();
            prop_assert!(!seg.corrupt, "cut at {} misread as corruption", cut);
            prop_assert_eq!(
                seg.records.as_slice(),
                &recs[..complete],
                "cut at {} must yield exactly the complete records",
                cut
            );
            let valid = *ends[..complete].last().unwrap_or(&0) as u64;
            prop_assert_eq!(seg.valid_bytes, valid);
            prop_assert_eq!(seg.torn_bytes, cut as u64 - valid);
        }
    }

    /// Flipping any single bit of the segment is never silently accepted:
    /// the replay either stops on a flagged corruption or yields a strict
    /// record prefix with torn bytes — it never reproduces the original
    /// batch, and every record it does yield is an untouched original.
    #[test]
    fn single_bit_corruption_never_passes_silently(
        recs in records(),
        pos_seed in any::<u32>(),
        bit in 0u8..8,
    ) {
        let mut wire = encode_all(&recs);
        let pos = pos_seed as usize % wire.len();
        wire[pos] ^= 1 << bit;
        let seg = replay_segment(&wire, MAX_FRAME);
        prop_assert_ne!(seg.records.as_slice(), recs.as_slice());
        prop_assert!(
            seg.corrupt || seg.torn_bytes > 0,
            "corruption at byte {} surfaced as neither corrupt nor torn",
            pos
        );
        // whatever prefix did come back must be bit-identical originals
        prop_assert!(seg.records.len() < recs.len());
        prop_assert_eq!(seg.records.as_slice(), &recs[..seg.records.len()]);
    }

    /// The same for a record of the size the runtime checkpoints (its
    /// checksum is the carry-less kernel's, not the tables'): one bit
    /// flipped inside a 16 KiB `Put`'s state stops the replay at the records
    /// before it, flagged corrupt, and the record after it is not reached.
    #[test]
    fn a_bit_flipped_in_a_large_state_stops_the_replay_before_it(
        before in records(),
        state in proptest::collection::vec(any::<u8>(), LARGE_STATE..LARGE_STATE + 1),
        pos_seed in any::<u32>(),
        bit in 0u8..8,
    ) {
        let large = WalRecord::Put {
            object: ObjectId::new(7),
            ckpt: StoredCheckpoint {
                type_tag: "blob".to_owned(),
                state: Bytes::from(state),
                object_epoch: 1,
                seq: 1,
            },
        };
        let valid = encode_all(&before).len();
        let mut recs = before;
        recs.extend([large, WalRecord::Clear]);
        let mut wire = encode_all(&recs);
        // the state is the tail of its record's frame
        let state_end = frame_ends(&recs)[recs.len() - 2];
        wire[state_end - 1 - pos_seed as usize % LARGE_STATE] ^= 1 << bit;
        let seg = replay_segment(&wire, 1 << 20);
        prop_assert!(seg.corrupt, "a flipped state bit read as a torn tail");
        prop_assert_eq!(seg.records.as_slice(), &recs[..recs.len() - 2]);
        prop_assert_eq!(seg.valid_bytes, valid as u64);
        prop_assert_eq!(seg.torn_bytes, (wire.len() - valid) as u64);
    }
}

// ---------------------------------------------------------------------------
// the store above the framing: patches against the image

/// A fresh store directory per call (proptest cases run in one process).
fn scratch_dir(what: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("oml-wal-props-{what}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &std::path::Path, compact_after: u64) -> (WalStore, RecoveryReport) {
    let cfg = WalStoreConfig {
        compact_after,
        ..WalStoreConfig::with_fsync(dir, FsyncPolicy::Never)
    };
    WalStore::open(cfg).expect("open store")
}

/// How a put's state differs from the one the object holds.
#[derive(Debug, Clone)]
enum Edit {
    /// Eight bytes somewhere inside (what an invoke does to a counter).
    Word { at: usize, value: u64 },
    /// Bytes added behind the end.
    Append(Vec<u8>),
    /// Bytes dropped from the end.
    Shrink(usize),
    /// Nothing (a migrate's checkpoint: same bytes, bumped epoch).
    Same,
    /// Bytes that share nothing with the old ones.
    Fresh { len: usize, salt: u8 },
    /// The same bytes under another type tag.
    Retag,
}

#[derive(Debug, Clone)]
enum Op {
    Put { object: u32, edit: Edit },
    Remove(u32),
    Clear,
    Compact,
    Reopen,
}

fn op() -> impl Strategy<Value = Op> {
    let edit = prop_oneof![
        (0usize..400, any::<u64>()).prop_map(|(at, value)| Edit::Word { at, value }),
        proptest::collection::vec(any::<u8>(), 1..40).prop_map(Edit::Append),
        (1usize..300).prop_map(Edit::Shrink),
        Just(Edit::Same),
        (0usize..400, any::<u8>()).prop_map(|(len, salt)| Edit::Fresh { len, salt }),
        Just(Edit::Retag),
    ];
    // three puts for every other operation
    (0u32..16, 0u32..3, edit).prop_map(|(kind, object, edit)| match kind {
        0 => Op::Remove(object),
        1 => Op::Clear,
        2 => Op::Compact,
        3 => Op::Reopen,
        _ => Op::Put { object, edit },
    })
}

fn fresh(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

/// The checkpoint `edit` makes of `old` (a fresh 256-byte one if the object
/// holds none), one `seq` on; every third put also bumps the epoch.
fn edited(old: Option<&StoredCheckpoint>, edit: &Edit, puts: u64) -> StoredCheckpoint {
    let mut next = old.cloned().unwrap_or_else(|| StoredCheckpoint {
        type_tag: "blob".to_owned(),
        state: Bytes::from(fresh(256, 0)),
        object_epoch: 1,
        seq: 0,
    });
    let mut state = next.state.to_vec();
    match edit {
        Edit::Word { at, value } => {
            let at = at % state.len().max(1);
            let end = (at + 8).min(state.len());
            state[at..end].copy_from_slice(&value.to_le_bytes()[..end - at]);
        }
        Edit::Append(tail) => state.extend_from_slice(tail),
        Edit::Shrink(by) => state.truncate(state.len().saturating_sub(*by)),
        Edit::Same => {}
        Edit::Fresh { len, salt } => state = fresh(*len, *salt),
        Edit::Retag => next.type_tag.push('x'),
    }
    next.state = Bytes::from(state);
    next.seq += 1;
    next.object_epoch += u64::from(puts.is_multiple_of(3));
    next
}

fn assert_image_is(
    store: &WalStore,
    model: &HashMap<u32, StoredCheckpoint>,
    floors: &HashMap<u32, u64>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(store.len(), model.len());
    for object in 0..3 {
        prop_assert_eq!(store.get(ObjectId::new(object)), model.get(&object));
        prop_assert_eq!(
            store.epoch_floor(ObjectId::new(object)),
            floors.get(&object).copied().unwrap_or(0)
        );
    }
    Ok(())
}

proptest! {
    /// Whatever mix of `Put`s and `Patch`es the store chose to log, and
    /// wherever compactions cut the chain, a reopened store answers exactly
    /// what the model holds — and never calls its own log corrupt.
    #[test]
    fn a_reopened_store_equals_the_model(
        ops in proptest::collection::vec(op(), 1..60),
        compact_after in prop_oneof![Just(0u64), Just(5u64)],
    ) {
        let dir = scratch_dir("model");
        let (mut store, _) = open(&dir, compact_after);
        let mut model: HashMap<u32, StoredCheckpoint> = HashMap::new();
        let mut floors: HashMap<u32, u64> = HashMap::new();
        let mut puts = 0u64;
        for op in ops.iter().chain([&Op::Reopen]) {
            match op {
                Op::Put { object, edit } => {
                    puts += 1;
                    let ckpt = edited(model.get(object), edit, puts);
                    let floor = floors.entry(*object).or_insert(0);
                    *floor = (*floor).max(ckpt.object_epoch);
                    model.insert(*object, ckpt.clone());
                    let _ = store.put(ObjectId::new(*object), ckpt).expect("put");
                }
                Op::Remove(object) => {
                    model.remove(object);
                    store.remove(ObjectId::new(*object)).expect("remove");
                }
                Op::Clear => {
                    model.clear();
                    store.clear().expect("clear");
                }
                Op::Compact => {
                    store.compact().expect("compact");
                }
                Op::Reopen => {
                    drop(store);
                    let (reopened, report) = open(&dir, compact_after);
                    prop_assert!(!report.corrupt, "a clean log read as corrupt");
                    prop_assert_eq!(report.torn_bytes, 0u64);
                    store = reopened;
                }
            }
            assert_image_is(&store, &model, &floors)?;
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A well-framed `Patch` payload with every field the caller's, including a
/// `with` length that need not match the bytes behind it.
fn raw_patch(object: u32, at: u32, cut: u32, check: u32, with_len: u32, with: &[u8]) -> Vec<u8> {
    let mut payload = WireWriter::new()
        .u32(6)
        .u32(object)
        .u64(1)
        .u64(9)
        .u32(at)
        .u32(cut)
        .u32(check)
        .u32(with_len)
        .finish()
        .to_vec();
    payload.extend_from_slice(with);
    let mut frame = Vec::new();
    encode_frame(&payload, &mut frame);
    frame
}

/// Records whose frames are intact and whose fields lie: each must end the
/// replay as flagged corruption, with the `Put` and the honest `Patch`
/// before it kept, the log cut back to them, nothing allocated for the
/// sizes the fields claim — and the store usable afterwards.
#[test]
fn a_patch_that_does_not_apply_is_corruption_with_the_prefix_kept() {
    let object = ObjectId::new(1);
    let base = fresh(64, 0);
    let mut good = base.clone();
    good[8..16].copy_from_slice(&7u64.to_le_bytes());
    // what the honest patch leaves: the base every hostile one meets
    let patched = |at: usize, cut: usize, with: &[u8]| {
        let mut state = good.clone();
        state.splice(at..at + cut, with.iter().copied());
        crc32(&state)
    };
    let max = u32::MAX;
    let hostile: Vec<(&str, Vec<u8>)> = vec![
        (
            "range runs past the base",
            raw_patch(1, 60, 10, patched(60, 4, b"x"), 1, b"x"),
        ),
        (
            "offset past the base",
            raw_patch(1, 65, 0, crc32(&good), 0, b""),
        ),
        ("at = u32::MAX", raw_patch(1, max, 0, crc32(&good), 0, b"")),
        ("cut = u32::MAX", raw_patch(1, 0, max, crc32(b""), 0, b"")),
        (
            "at + cut wraps",
            raw_patch(1, max, max, crc32(&good), 0, b""),
        ),
        ("no such object", raw_patch(9, 0, 0, crc32(&good), 0, b"")),
        (
            "wrong check",
            raw_patch(1, 8, 8, patched(8, 8, b"y") ^ 1, 1, b"y"),
        ),
        (
            "with shorter than it says",
            raw_patch(1, 0, 0, 0, max, b"abc"),
        ),
        (
            "bytes behind the record",
            raw_patch(1, 8, 1, patched(8, 1, b"y"), 1, b"y!"),
        ),
    ];
    for (what, record) in hostile {
        let dir = scratch_dir("hostile");
        let ckpt = |seq, state: &[u8]| StoredCheckpoint {
            type_tag: "blob".to_owned(),
            state: Bytes::copy_from_slice(state),
            object_epoch: 1,
            seq,
        };
        let (wal, prefix) = {
            let (mut store, _) = open(&dir, 0);
            let _ = store.put(object, ckpt(1, &base)).expect("put");
            let _ = store.put(object, ckpt(2, &good)).expect("put");
            let prefix = store.wal_stats().wal_bytes;
            assert!(prefix < 64 + 64 + 64, "{what}: the second put is a patch");
            (store.live_wal_path(), prefix)
        };
        let mut log = std::fs::read(&wal).expect("read log");
        log.extend_from_slice(&record);
        // a record the hostile one must keep the replay from reaching
        encode_record(&WalRecord::Clear, &mut log);
        std::fs::write(&wal, &log).expect("write log");

        let (mut store, report) = open(&dir, 0);
        assert!(report.corrupt, "{what}: accepted");
        assert_eq!(report.wal_records, 2, "{what}");
        assert_eq!(report.torn_bytes, log.len() as u64 - prefix, "{what}");
        assert_eq!(store.get(object), Some(&ckpt(2, &good)), "{what}");
        let on_disk = std::fs::metadata(&wal).expect("stat log").len();
        assert_eq!(on_disk, prefix, "{what}: log not cut back");

        let _ = store
            .put(object, ckpt(3, &base))
            .expect("put after the cut");
        drop(store);
        let (store, report) = open(&dir, 0);
        assert!(!report.corrupt, "{what}: the cut left a bad base");
        assert_eq!(store.get(object), Some(&ckpt(3, &base)), "{what}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
