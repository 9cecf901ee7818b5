//! Property tests for the write-ahead checkpoint store's record framing,
//! mirroring `frame_props.rs` for the WAL layer: arbitrary record batches
//! round-trip through any split of the byte stream (kernels split writes;
//! the replayer must not care), truncation at **every** byte offset
//! recovers exactly the longest valid record prefix with `corrupt = false`
//! (a torn tail is steady state), and flipping any single bit is either
//! flagged as corruption or surfaces as a shorter prefix — never a
//! silently-wrong record.

use bytes::Bytes;
use oml_core::ids::ObjectId;
use oml_runtime::store::wal::{encode_record, replay_segment, WalRecord, WalReplayer};
use oml_runtime::StoredCheckpoint;
use proptest::prelude::*;

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
    /// Any record batch round-trips through any chunking of the segment —
    /// including chunk boundaries splitting frame headers, payloads, and
    /// record boundaries — with no torn bytes and no corruption.
    #[test]
    fn records_round_trip_under_any_split(recs in records(), chunk in 1usize..64) {
        let wire = encode_all(&recs);
        let mut replayer = WalReplayer::new(MAX_FRAME);
        for piece in wire.chunks(chunk.max(1)) {
            replayer.feed(piece);
        }
        let seg = replayer.finish();
        prop_assert!(!seg.corrupt, "clean stream flagged corrupt");
        prop_assert_eq!(seg.torn_bytes, 0u64, "clean stream left torn bytes");
        prop_assert_eq!(seg.valid_bytes, wire.len() as u64);
        prop_assert_eq!(seg.records, recs);
    }

    /// Truncation at every byte offset — the crash landed mid-append —
    /// recovers exactly the records whose frames are fully inside the
    /// prefix, reports the cut as torn bytes, and never flags corruption:
    /// a torn tail is steady state, not an error.
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
