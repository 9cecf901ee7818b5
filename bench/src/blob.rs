//! The one object type every workload uses: a counter, a checksum (wrapping
//! sum of the first payload word) of the payloads it was given, and padding that sets how many bytes a migration
//! or a checkpoint has to carry.

use oml_runtime::MobileObject;

pub const TYPE_TAG: &str = "blob";

/// Counter and checksum, little-endian, lead the linearized state.
const HEADER: usize = 16;

pub struct Blob {
    counter: u64,
    check: u64,
    pad: Vec<u8>,
}

impl Blob {
    /// A fresh object whose linearized state is `state_len` bytes.
    pub fn boxed(state_len: usize) -> Box<dyn MobileObject> {
        assert!(state_len >= HEADER, "state holds at least the header");
        Box::new(Blob {
            counter: 0,
            check: 0,
            pad: vec![0xa5; state_len - HEADER],
        })
    }

    /// The linearized state of a fresh object (what `create` over the
    /// socket transport ships).
    pub fn fresh_state(state_len: usize) -> Vec<u8> {
        Blob::boxed(state_len).linearize()
    }
}

fn word(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = bytes.len().min(8);
    b[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(b)
}

/// `(counter, checksum)` from an `add` or `get` reply.
pub fn decode_reply(reply: &[u8]) -> (u64, u64) {
    (word(reply), word(reply.get(8..).unwrap_or(&[])))
}

impl MobileObject for Blob {
    fn type_tag(&self) -> &'static str {
        TYPE_TAG
    }

    fn invoke(&mut self, method: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        match method {
            "add" => {
                self.counter += 1;
                self.check = self.check.wrapping_add(word(payload));
            }
            "get" => {}
            other => return Err(format!("no such method: {other}")),
        }
        let mut reply = Vec::with_capacity(HEADER);
        reply.extend_from_slice(&self.counter.to_le_bytes());
        reply.extend_from_slice(&self.check.to_le_bytes());
        Ok(reply)
    }

    fn linearize(&self) -> Vec<u8> {
        let mut state = Vec::with_capacity(HEADER + self.pad.len());
        state.extend_from_slice(&self.counter.to_le_bytes());
        state.extend_from_slice(&self.check.to_le_bytes());
        state.extend_from_slice(&self.pad);
        state
    }
}

/// The registered delinearizer. A short state (never produced by
/// `linearize`) reads as zeros rather than panicking a node.
pub fn delinearize(state: &[u8]) -> Box<dyn MobileObject> {
    let (counter, check) = decode_reply(state);
    Box::new(Blob {
        counter,
        check,
        pad: state.get(HEADER..).unwrap_or(&[]).to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_round_trips_at_its_declared_size() {
        let mut blob = Blob::boxed(1024);
        let payload = 0xdead_beef_u64.to_le_bytes();
        blob.invoke("add", &payload).unwrap();
        blob.invoke("add", &[1]).unwrap();
        let state = blob.linearize();
        assert_eq!(state.len(), 1024);
        let mut copy = delinearize(&state);
        assert_eq!(copy.linearize(), state);
        assert_eq!(
            decode_reply(&copy.invoke("get", &[]).unwrap()),
            (2, 0xdead_beef + 1)
        );
        assert!(copy.invoke("nope", &[]).is_err());
    }
}
