//! Seeded inputs. Every operation a client issues — which object, which
//! destination node, which payload word — is drawn here, before timing
//! starts; the runtime only ever sees the generated values.

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x0b9e_c7ed;

/// Operations generated per client; the timed loop cycles through them.
pub const SEQ_LEN: usize = 1 << 16;

/// Bytes of payload every `add` carries.
pub const PAYLOAD_LEN: usize = 64;

/// SplitMix64 (Steele, Lea, Flood 2014): small, seedable, and good enough
/// to spread objects uniformly.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` is tiny against 2^64, so the modulo bias is
    /// below anything a run could resolve).
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpInput {
    /// Index into the client's object set.
    pub object: u32,
    /// Destination node for workloads that move; unused elsewhere.
    pub dest: u32,
    /// First eight payload bytes; objects fold it into a checksum, so a
    /// lost, duplicated or corrupted payload shows in the output check.
    pub word: u64,
}

/// The operation sequence of `client` under `seed`: objects uniform in
/// `0..objects`, destinations uniform in `0..dests`.
pub fn op_sequence(seed: u64, client: usize, objects: u32, dests: u32) -> Vec<OpInput> {
    let mut rng = SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    (0..SEQ_LEN)
        .map(|_| OpInput {
            object: rng.below(objects),
            dest: rng.below(dests),
            word: rng.next(),
        })
        .collect()
}

/// The fixed tail of a client's payload buffer (bytes 8..64).
pub fn payload_fill(seed: u64, client: usize) -> [u8; PAYLOAD_LEN] {
    let mut rng = SplitMix64::new(!seed ^ client as u64);
    let mut buf = [0u8; PAYLOAD_LEN];
    for chunk in buf.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next().to_le_bytes());
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_sequences() {
        assert_eq!(op_sequence(42, 0, 64, 3), op_sequence(42, 0, 64, 3));
        assert_eq!(payload_fill(42, 1), payload_fill(42, 1));
    }

    #[test]
    fn seeds_and_clients_give_different_sequences() {
        let base = op_sequence(42, 0, 64, 3);
        assert_ne!(base, op_sequence(43, 0, 64, 3));
        assert_ne!(base, op_sequence(42, 1, 64, 3));
        assert_ne!(payload_fill(42, 0), payload_fill(43, 0));
    }

    #[test]
    fn values_stay_in_range_and_cover_it() {
        let seq = op_sequence(DEFAULT_SEED, 0, 16, 3);
        assert_eq!(seq.len(), SEQ_LEN);
        let mut objects = [0u32; 16];
        let mut dests = [0u32; 3];
        for op in &seq {
            objects[op.object as usize] += 1;
            dests[op.dest as usize] += 1;
        }
        // uniform: every bin within 10 % of its share of 65536 draws
        for &n in &objects {
            assert!((3686..=4506).contains(&n), "object bin {n}");
        }
        for &n in &dests {
            assert!((19660..=24030).contains(&n), "dest bin {n}");
        }
    }
}
