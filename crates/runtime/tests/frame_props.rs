//! Property tests for the socket transport's length-prefixed framing:
//! batches of payloads round-trip exactly through any split of the byte
//! stream, truncation at **every** byte offset yields "no frame yet" or a
//! clean error (never a panic, never a wrong frame), and corrupting any
//! single byte of a frame is detected by the CRC — the properties the
//! multi-process runtime's correctness rests on once real kernels start
//! splitting writes.

use oml_runtime::transport::frame::{
    encode_frame, FrameConfig, FrameDecoder, FrameError, HEADER_LEN,
};
use proptest::prelude::*;

fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..96), 1..8)
}

/// Feeds `wire` to a fresh decoder in chunks of `chunk` bytes and returns
/// every decoded frame (panicking on frame errors — callers feed clean
/// streams here).
fn decode_in_chunks(wire: &[u8], chunk: usize) -> Vec<Vec<u8>> {
    let mut dec = FrameDecoder::new(FrameConfig::default());
    let mut out = Vec::new();
    for piece in wire.chunks(chunk.max(1)) {
        dec.extend(piece);
        while let Some(frame) = dec.next_frame().expect("clean stream decodes") {
            out.push(frame.to_vec());
        }
    }
    out
}

proptest! {
    /// Any batch round-trips through any chunking of the stream — including
    /// chunk boundaries that split headers, payloads, and batch boundaries.
    #[test]
    fn batches_round_trip_under_any_split(msgs in payloads(), chunk in 1usize..64) {
        let mut wire = Vec::new();
        for m in &msgs {
            encode_frame(m, &mut wire);
        }
        let decoded = decode_in_chunks(&wire, chunk);
        prop_assert_eq!(decoded, msgs);
    }

    /// Truncating the stream at every byte offset never panics and never
    /// produces a frame that was not fully present: the decoder yields
    /// exactly the frames whose bytes are all inside the prefix.
    #[test]
    fn truncation_at_every_offset_is_safe(msgs in payloads()) {
        let mut wire = Vec::new();
        for m in &msgs {
            encode_frame(m, &mut wire);
        }
        // frame k ends at the cumulative offset of frames 0..=k
        let mut ends = Vec::new();
        let mut acc = 0usize;
        for m in &msgs {
            acc += HEADER_LEN + m.len();
            ends.push(acc);
        }
        for cut in 0..=wire.len() {
            let mut dec = FrameDecoder::new(FrameConfig::default());
            dec.extend(&wire[..cut]);
            let mut got = 0usize;
            while let Some(frame) = dec.next_frame().expect("prefix of a clean stream") {
                prop_assert_eq!(frame.as_ref(), msgs[got].as_slice());
                got += 1;
            }
            let complete = ends.iter().filter(|&&e| e <= cut).count();
            prop_assert_eq!(got, complete, "cut at {} must yield exactly the complete frames", cut);
        }
    }

    /// Flipping any single bit of a frame is caught: either the CRC check
    /// fails, the length prefix is rejected as oversized, or (when the flip
    /// lands in the length prefix and shrinks it) the stream still never
    /// yields the original payload as-if-untouched.
    #[test]
    fn single_byte_corruption_never_passes_silently(
        // up to 4 KiB: most payloads are summed by the carry-less kernel,
        // the shortest by the tables
        msg in proptest::collection::vec(any::<u8>(), 1..4096),
        pos_seed in any::<u32>(),
        bit in 0u8..8,
    ) {
        let mut wire = Vec::new();
        encode_frame(&msg, &mut wire);
        let pos = pos_seed as usize % wire.len();
        wire[pos] ^= 1 << bit;
        let mut dec = FrameDecoder::new(FrameConfig::default());
        dec.extend(&wire);
        match dec.next_frame() {
            // corruption detected — the connection would be torn down
            Err(FrameError::Corrupt { .. } | FrameError::TooLarge { .. }) => {}
            // a shrunken length prefix can leave the decoder waiting for
            // more bytes, or re-frame the stream — but the original payload
            // must not come back unchanged
            Ok(None) => {}
            Ok(Some(frame)) => prop_assert_ne!(frame.as_ref(), msg.as_slice()),
        }
    }

    /// The corrupt-length case specifically: an attacker-controlled (or
    /// garbage) length prefix above the cap is rejected *before* the
    /// decoder buffers or waits for that much data.
    #[test]
    fn oversized_length_prefixes_fail_fast(extra in 1u32..1024) {
        let cfg = FrameConfig::default();
        let bad_len = cfg.max_frame + extra;
        let mut wire = bad_len.to_le_bytes().to_vec();
        wire.extend_from_slice(&[0u8; 4]); // any crc
        let mut dec = FrameDecoder::new(cfg);
        dec.extend(&wire);
        prop_assert!(matches!(dec.next_frame(), Err(FrameError::TooLarge { .. })));
    }
}
