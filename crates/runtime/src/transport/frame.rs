//! Length-prefixed stream framing with corruption rejection.
//!
//! A stream socket is just bytes; this module turns it into the same
//! discrete-envelope world the channel mesh provides. Each frame is
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! where `crc` is the CRC-32 (IEEE, reflected) of the payload, computed in
//! one pass per frame on either side (`Crc32`): by carry-less
//! multiplication, 64 bytes per step, on a CPU that has PCLMULQDQ, and
//! through lookup tables, sixteen bytes per step, on any other and for
//! payloads under 64 bytes. Both give the same 32 bits.
//! The decoder is **incremental**: feed it arbitrary chunks (a slow
//! peer may deliver one byte at a time, a batch write may deliver ten
//! frames at once) and pop complete frames as they materialize. Truncation is
//! therefore not an error — it is the steady state between reads — but
//! *corruption* is terminal for the connection:
//!
//! * a length above [`FrameConfig::max_frame`] (a corrupt or hostile
//!   prefix would otherwise make us allocate gigabytes), and
//! * a payload whose CRC disagrees with the header
//!
//! both yield a [`FrameError`], and the socket layer drops the connection
//! (the supervisor reconnects; the session handshake restores a clean
//! frame boundary). Resynchronizing inside a corrupt stream is not
//! attempted — there is no reliable resync point in a length-prefixed
//! format.

use bytes::Bytes;

/// Frame header size: `len` + `crc`, both `u32` little-endian.
pub const HEADER_LEN: usize = 8;

/// Framing limits. Separate from the socket config so the decoder can be
/// tested (and property-tested) without any socket.
#[derive(Debug, Clone, Copy)]
pub struct FrameConfig {
    /// Largest accepted payload, in bytes. Defaults to 4 MiB — a migration
    /// carries one object's linearized state, not bulk data.
    pub max_frame: u32,
}

impl Default for FrameConfig {
    fn default() -> Self {
        FrameConfig { max_frame: 4 << 20 }
    }
}

/// A framing-level protocol violation. Always terminal for the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The header announced a payload larger than [`FrameConfig::max_frame`].
    TooLarge {
        /// The announced length.
        len: u32,
        /// The configured cap.
        max: u32,
    },
    /// The payload's CRC-32 disagreed with the header.
    Corrupt {
        /// CRC the header promised.
        expected: u32,
        /// CRC the payload actually hashes to.
        got: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            FrameError::Corrupt { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch: header {expected:#010x}, payload {got:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Lookup tables for slicing-by-16: `TABLES[0]` is the classic bytewise
/// table (CRC of one byte), `TABLES[k][b]` the CRC of byte `b` followed by
/// `k` zero bytes. 16 KiB, built in a `const`.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// A sixteen-byte block as two little-endian words, low half first.
fn words(block: &[u8]) -> (u64, u64) {
    let (lo, hi) = block.split_at(8);
    (
        u64::from_le_bytes(lo.try_into().expect("8 of 16 bytes")),
        u64::from_le_bytes(hi.try_into().expect("8 of 16 bytes")),
    )
}

/// The portable path, and the tail of the other one: advances the raw
/// (un-inverted) state sixteen bytes per step (slicing-by-16, one table
/// lookup per byte but no dependency between them), bytewise for the last
/// fewer than sixteen.
fn sliced(mut crc: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let (lo, hi) = words(block);
        let lo = lo ^ u64::from(crc);
        let byte = |word: u64, n: u32| ((word >> (8 * n)) & 0xFF) as usize;
        crc = TABLES[15][byte(lo, 0)]
            ^ TABLES[14][byte(lo, 1)]
            ^ TABLES[13][byte(lo, 2)]
            ^ TABLES[12][byte(lo, 3)]
            ^ TABLES[11][byte(lo, 4)]
            ^ TABLES[10][byte(lo, 5)]
            ^ TABLES[9][byte(lo, 6)]
            ^ TABLES[8][byte(lo, 7)]
            ^ TABLES[7][byte(hi, 0)]
            ^ TABLES[6][byte(hi, 1)]
            ^ TABLES[5][byte(hi, 2)]
            ^ TABLES[4][byte(hi, 3)]
            ^ TABLES[3][byte(hi, 4)]
            ^ TABLES[2][byte(hi, 5)]
            ^ TABLES[1][byte(hi, 6)]
            ^ TABLES[0][byte(hi, 7)];
    }
    for &b in blocks.remainder() {
        crc = TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The carry-less-multiply kernel: the message is a polynomial over GF(2),
/// and 64 bytes of it at a time are folded onto the next 64 by multiplying
/// each 128-bit lane with `x^512 mod P` (PCLMULQDQ), so the loop's only
/// dependency is one multiply-and-xor per lane. Four lanes fold to one, one
/// lane folds over the remaining whole blocks, and a Barrett reduction
/// brings the last 128 bits to the 32-bit remainder. Method and constants
/// are Intel's "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ" for the reflected IEEE polynomial, as used by zlib and
/// `crc32fast`.
///
/// Every function here is *safe* and feature-gated: blocks are loaded by
/// value through [`words`], never through a pointer, and the intrinsics
/// take and return values only. What the compiler cannot check is that
/// the CPU has the features; [`Crc32::update`] does, once per call.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the kernel takes: one block per lane.
    pub(super) const MIN_LEN: usize = 64;

    // x^n mod P, bit-reflected, for the distances a lane is carried: K1/K2
    // across 512 bits (its own place in the next 64 bytes), K3/K4 across 128
    // (the next block), K5 across 64; P_X is P itself and U_PRIME is
    // floor(x^64 / P), the Barrett constant.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    fn load(block: &[u8]) -> __m128i {
        let (lo, hi) = super::words(block);
        _mm_set_epi64x(hi.cast_signed(), lo.cast_signed())
    }

    /// `acc` carried across the distance `keys` encodes, onto `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Advances the raw state over the whole sixteen-byte blocks of `data`
    /// (at least [`MIN_LEN`] bytes) and returns it with the tail of fewer
    /// than sixteen bytes it did not read.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) fn update(state: u32, data: &[u8]) -> (u32, &[u8]) {
        let mut quads = data.chunks_exact(64);
        let first = quads.next().expect("the caller checked MIN_LEN");
        let mut lanes = [
            load(&first[..16]),
            load(&first[16..32]),
            load(&first[32..48]),
            load(&first[48..]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state.cast_signed()));

        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in &mut quads {
            for (lane, block) in lanes.iter_mut().zip(quad.chunks_exact(16)) {
                *lane = fold(*lane, load(block), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let [l0, l1, l2, l3] = lanes;
        let mut x = fold(fold(fold(l0, l1, k3k4), l2, k3k4), l3, k3k4);
        let mut singles = quads.remainder().chunks_exact(16);
        for block in &mut singles {
            x = fold(x, load(block), k3k4);
        }

        // 128 -> 96 -> 64 bits: the low half folded onto the high half (K4),
        // then the low word of that onto what is above it (K5)
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );

        // Barrett, reflected: T1 = (R mod x^32) * mu, T2 = (T1 mod x^32) * P,
        // and the remainder is the high word of R ^ T2
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let state = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)).cast_unsigned();
        (state, singles.remainder())
    }
}

/// A running CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`): sums
/// a frame's parts without concatenating them first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// The CRC of no bytes yet.
    #[must_use]
    pub(crate) const fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `data` in: by carry-less multiplication, 64 bytes per step,
    /// where the CPU has PCLMULQDQ and `data` is long enough to fill the
    /// four lanes; otherwise, and for the tail, through the tables.
    #[must_use]
    pub(crate) fn update(self, data: &[u8]) -> Self {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: `clmul::update` is a safe function whose only
            // requirement is its target features; `pclmulqdq` and `sse4.1`
            // were detected on this CPU just above, and `sse2` is part of
            // the x86_64 baseline.
            #[allow(unsafe_code)]
            let (state, tail) = unsafe { clmul::update(self.state, data) };
            return Crc32 {
                state: sliced(state, tail),
            };
        }
        Crc32 {
            state: sliced(self.state, data),
        }
    }

    /// The checksum of everything folded in so far.
    #[must_use]
    pub(crate) fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32 (IEEE 802.3) of `data`, in one call.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

/// Appends one frame whose payload is the concatenation of `parts`: one
/// CRC pass over them and one copy into `out`, so a caller holding a
/// header and a body need not join them first.
pub(crate) fn encode_frame_parts(parts: &[&[u8]], out: &mut Vec<u8>) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let crc = parts
        .iter()
        .fold(Crc32::new(), |crc, part| crc.update(part))
        .finish();
    out.reserve(HEADER_LEN + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    for part in parts {
        out.extend_from_slice(part);
    }
}

/// Appends one framed payload to `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    encode_frame_parts(&[payload], out);
}

/// Incremental frame decoder: buffer bytes with [`extend`](Self::extend),
/// pop frames with [`next_frame`](Self::next_frame).
#[derive(Debug)]
pub struct FrameDecoder {
    cfg: FrameConfig,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so feeding one byte at a
    /// time stays O(n) amortized.
    read: usize,
}

impl FrameDecoder {
    /// A decoder enforcing `cfg`'s limits.
    #[must_use]
    pub fn new(cfg: FrameConfig) -> Self {
        FrameDecoder {
            cfg,
            buf: Vec::new(),
            read: 0,
        }
    }

    /// Buffers another chunk read from the stream.
    pub fn extend(&mut self, chunk: &[u8]) {
        // compact before growing: everything before `read` is dead
        if self.read > 0 && (self.read == self.buf.len() || self.read > 4096) {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet decoded into a frame.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are needed.
    ///
    /// # Errors
    /// [`FrameError`] on an oversized length prefix or checksum mismatch;
    /// the decoder (and the connection) must be discarded afterwards.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
        let avail = &self.buf[self.read..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
        let expected = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]);
        if len > self.cfg.max_frame {
            return Err(FrameError::TooLarge {
                len,
                max: self.cfg.max_frame,
            });
        }
        let total = HEADER_LEN + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = &avail[HEADER_LEN..total];
        let got = crc32(payload);
        if got != expected {
            return Err(FrameError::Corrupt { expected, got });
        }
        // the one copy out of the decoder buffer, into an allocation of
        // exactly `len` bytes: views carved from the frame later (a state
        // kept as a checkpoint) pin this frame and nothing else
        let frame = Bytes::copy_from_slice(payload);
        self.read += total;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference both paths are checked against: one bit at a time,
    /// straight from the polynomial, sharing no table and no constant with
    /// [`Crc32`].
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// The tables alone, whatever the CPU has.
    fn crc32_sliced(data: &[u8]) -> u32 {
        !sliced(!0, data)
    }

    /// Seeded filler (xorshift), so a failure names a reproducible buffer.
    fn pseudo_random(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// What `update` dispatches to (the carry-less kernel where the CPU has
    /// it), the tables and the oracle agree: at every length across the
    /// kernel's entry, its four-lane loop, its one-lane loop and its tail,
    /// at every alignment; on buffers of the sizes the runtime frames; and
    /// when the state is handed from one path to the other at every split.
    /// A host without PCLMULQDQ still checks the tables against the oracle.
    #[test]
    fn crc_dispatch_tables_and_oracle_agree() {
        // the interpreter runs the bitwise oracle ~1000x slower: keep every
        // boundary (64, 128, 16-byte steps, tails) and thin out the rest
        let (offsets, max_len, sizes): (Vec<usize>, usize, &[usize]) = if cfg!(miri) {
            (vec![0, 1, 15], 150, &[1024])
        } else {
            ((0..16).collect(), 320, &[16 << 10, 1 << 20])
        };
        let buf = pseudo_random(max_len + 16, 0x9E37_79B9_7F4A_7C15);
        for offset in offsets {
            for len in 0..=max_len {
                let data = &buf[offset..offset + len];
                let oracle = crc32_bytewise(data);
                assert_eq!(
                    crc32(data),
                    oracle,
                    "dispatch, len {len} at offset {offset}"
                );
                assert_eq!(
                    crc32_sliced(data),
                    oracle,
                    "tables, len {len} at offset {offset}"
                );
            }
        }
        for (i, &size) in sizes.iter().enumerate() {
            // one byte past the size and off alignment: lanes, singles and a tail
            let buf = pseudo_random(size + 2, 0xD1B5_4A32_D192_ED03 + i as u64);
            for data in [&buf[..size], &buf[1..]] {
                let oracle = crc32_bytewise(data);
                assert_eq!(crc32(data), oracle, "dispatch, {} bytes", data.len());
                assert_eq!(crc32_sliced(data), oracle, "tables, {} bytes", data.len());
            }
        }
        let buf = pseudo_random(300, 0xA076_1D64_78BD_642F);
        let whole = crc32_bytewise(&buf);
        for cut in 0..=buf.len() {
            let (head, tail) = buf.split_at(cut);
            assert_eq!(
                Crc32::new().update(head).update(tail).finish(),
                whole,
                "split at {cut}"
            );
        }
    }

    proptest! {
        #[test]
        #[cfg_attr(miri, ignore = "the unit test above covers the boundaries; 256 random cases do not fit the interpreter")]
        fn crc_matches_the_oracle_on_random_buffers(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            cut in 0usize..2048,
        ) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
            prop_assert_eq!(crc32_sliced(&data), crc32_bytewise(&data));
            let (head, tail) = data.split_at(cut.min(data.len()));
            prop_assert_eq!(
                Crc32::new().update(head).update(tail).finish(),
                crc32_bytewise(&data)
            );
        }
    }

    #[test]
    fn parts_frame_equals_the_joined_payload() {
        let (mut joined, mut parts) = (Vec::new(), Vec::new());
        encode_frame(b"headbodytail", &mut joined);
        encode_frame_parts(&[b"head", b"", b"body", b"tail"], &mut parts);
        assert_eq!(parts, joined);
    }

    #[test]
    fn a_popped_frame_owns_exactly_its_own_bytes() {
        // sixty-four small frames arrive in one read: none of them may keep
        // the decoder's buffer (or each other) alive
        let mut wire = Vec::new();
        for i in 0..64u8 {
            encode_frame(&[i; 64], &mut wire);
        }
        let mut dec = FrameDecoder::new(FrameConfig::default());
        dec.extend(&wire);
        let mut frames = 0;
        while let Some(frame) = dec.next_frame().unwrap() {
            assert!(frame.is_unique(), "a frame shares its buffer");
            // a unique `Bytes` hands its allocation back as it is
            assert_eq!(Vec::from(frame).capacity(), 64);
            frames += 1;
        }
        assert_eq!(frames, 64);
    }

    #[test]
    fn round_trips_a_frame() {
        let mut wire = Vec::new();
        encode_frame(b"hello", &mut wire);
        let mut dec = FrameDecoder::new(FrameConfig::default());
        dec.extend(&wire);
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(&frame[..], b"hello");
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let mut wire = Vec::new();
        encode_frame(b"", &mut wire);
        let mut dec = FrameDecoder::new(FrameConfig::default());
        dec.extend(&wire);
        assert_eq!(&dec.next_frame().unwrap().unwrap()[..], b"");
    }

    #[test]
    fn oversized_length_is_rejected_before_payload_arrives() {
        let mut dec = FrameDecoder::new(FrameConfig { max_frame: 16 });
        let mut wire = Vec::new();
        wire.extend_from_slice(&17u32.to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        dec.extend(&wire);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::TooLarge { len: 17, max: 16 })
        );
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let mut wire = Vec::new();
        encode_frame(b"payload", &mut wire);
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        let mut dec = FrameDecoder::new(FrameConfig::default());
        dec.extend(&wire);
        assert!(matches!(dec.next_frame(), Err(FrameError::Corrupt { .. })));
    }

    #[test]
    fn byte_at_a_time_delivery() {
        let mut wire = Vec::new();
        encode_frame(b"one", &mut wire);
        encode_frame(b"two", &mut wire);
        let mut dec = FrameDecoder::new(FrameConfig::default());
        let mut got = Vec::new();
        for b in wire {
            dec.extend(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f.to_vec());
            }
        }
        assert_eq!(got, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn errors_display() {
        assert_eq!(
            FrameError::TooLarge { len: 9, max: 8 }.to_string(),
            "frame length 9 exceeds cap 8"
        );
        assert!(FrameError::Corrupt {
            expected: 1,
            got: 2
        }
        .to_string()
        .contains("checksum mismatch"));
    }
}
