//! The four pinned workloads. Names are final: reports, `BENCHMARK.json`
//! and later comparisons key on them.

pub mod mesh;
pub mod sock;

use crate::blob;
use crate::seq::{op_sequence, payload_fill, OpInput, PAYLOAD_LEN, SEQ_LEN};

pub const NAMES: [&str; 4] = [
    "mesh_invoke",
    "mesh_move",
    "sock_invoke",
    "sock_migrate_wal",
];

/// A client's generated inputs: its operation sequence and payload buffer.
pub struct Inputs {
    seq: Vec<OpInput>,
    payload: [u8; PAYLOAD_LEN],
}

impl Inputs {
    pub fn new(seed: u64, client: usize, objects: u32, dests: u32) -> Self {
        Inputs {
            seq: op_sequence(seed, client, objects, dests),
            payload: payload_fill(seed, client),
        }
    }

    /// Operation `i` (the sequence repeats after [`SEQ_LEN`]).
    pub fn at(&self, i: usize) -> OpInput {
        self.seq[i % SEQ_LEN]
    }

    /// The payload carrying `word` in its first eight bytes.
    pub fn payload(&mut self, word: u64) -> &[u8] {
        self.payload[..8].copy_from_slice(&word.to_le_bytes());
        &self.payload
    }
}

/// Per-object record of the `add`s a client saw acknowledged: how many, and
/// the wrapping sum of their payload words.
pub struct Tally {
    adds: Vec<u64>,
    sums: Vec<u64>,
}

impl Tally {
    pub fn new(objects: usize) -> Self {
        Tally {
            adds: vec![0; objects],
            sums: vec![0; objects],
        }
    }

    pub fn acked(&mut self, object: usize, word: u64) {
        self.adds[object] += 1;
        self.sums[object] = self.sums[object].wrapping_add(word);
    }

    pub fn merged<'a>(tallies: impl IntoIterator<Item = &'a Tally>, objects: usize) -> Tally {
        let mut total = Tally::new(objects);
        for tally in tallies {
            for o in 0..objects {
                total.adds[o] += tally.adds[o];
                total.sums[o] = total.sums[o].wrapping_add(tally.sums[o]);
            }
        }
        total
    }

    pub fn adds(&self, object: usize) -> u64 {
        self.adds[object]
    }

    /// Exactly-once: every object's counter equals the acknowledged `add`s
    /// issued on it and its checksum their payload words — across however
    /// many migrations the object made meanwhile.
    pub fn check_against(
        &self,
        mut get: impl FnMut(usize) -> Result<Vec<u8>, String>,
    ) -> Result<(), String> {
        for object in 0..self.adds.len() {
            let got = blob::decode_reply(&get(object)?);
            let want = (self.adds[object], self.sums[object]);
            if got != want {
                return Err(format!(
                    "object {object}: counter/checksum {got:?}, acknowledged adds say {want:?}"
                ));
            }
        }
        Ok(())
    }
}
