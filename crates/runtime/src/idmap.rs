//! The hasher of the runtime's id-keyed tables.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A table of the in-process runtime whose every inserted key the runtime
/// picks itself: an object id its own allocator hands out, or one read
/// back from its own stores. No other process can choose such a key, so a
/// crafted flood of colliding keys is not a threat and the table skips
/// `std`'s keyed SipHash. A table that inserts a key read out of another
/// process's frame (a worker's `objects`, a socket server's `floors`)
/// keeps `std`'s hashing. So does [`crate::MemStore`], although its keys
/// are trusted too: it is also the multi-process coordinator's checkpoint
/// table, and there — with the coordinator's directory and pending calls —
/// this hasher showed no gain on the socket workloads.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// FxHash's step (add the word, multiply by an odd constant) with
/// rustc-hash 2's closing rotate, which brings the well-mixed high bits of
/// the product down to the low bits a table takes its bucket index from.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            // little-endian, so an integer key hashes as its value
            self.add(
                chunk
                    .iter()
                    .rev()
                    .fold(0, |word, &b| word << 8 | u64::from(b)),
            );
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn sequential_ids_spread_over_the_buckets() {
        let build = BuildHasherDefault::<IdHasher>::default();
        let spread = |hashes: Vec<u64>| {
            let buckets: std::collections::HashSet<u64> =
                hashes.into_iter().map(|h| h & 1023).collect();
            assert!(buckets.len() > 600, "{} of 1024 buckets", buckets.len());
        };
        // an `ObjectId` takes `write_u32`, a `u64` the byte-wise `write`
        spread(
            (0..1024u32)
                .map(|id| build.hash_one(oml_core::ids::ObjectId::new(id)))
                .collect(),
        );
        spread((0..1024u64).map(|id| build.hash_one(id)).collect());
    }
}
