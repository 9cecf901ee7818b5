//! The counter object the chaos, recovery, replication and trace tests
//! share: one `u64` with `add` and `get`, both answering the new value.

use oml_core::ids::NodeId;
use oml_runtime::wire::{WireReader, WireWriter};
use oml_runtime::{Cluster, MobileObject};

pub struct Counter(pub u64);

impl MobileObject for Counter {
    fn type_tag(&self) -> &'static str {
        "counter"
    }
    fn invoke(&mut self, method: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        match method {
            "add" => {
                let mut r = WireReader::new(payload);
                self.0 += r.u64()?;
                Ok(WireWriter::new().u64(self.0).finish().to_vec())
            }
            "get" => Ok(WireWriter::new().u64(self.0).finish().to_vec()),
            other => Err(format!("no such method: {other}")),
        }
    }
    fn linearize(&self) -> Vec<u8> {
        WireWriter::new().u64(self.0).finish().to_vec()
    }
}

pub fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

pub fn register_counter(cluster: &Cluster) {
    cluster.register_type("counter", |bytes| {
        let mut r = WireReader::new(bytes);
        Box::new(Counter(r.u64().expect("valid counter state")))
    });
}
