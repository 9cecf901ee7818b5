//! # oml-runtime — a real enactment of the paper's run-time support
//!
//! Where `oml-sim` *models* the distributed object system to measure policy
//! behaviour, this crate *implements* it: every node is a state behind a
//! unbounded inbox, run by whichever thread delivers to it (a message to an
//! idle node runs on its sender's thread — a co-located call costs no
//! hand-off, as in the paper's cost model),
//! objects are linearized to bytes and shipped when they migrate, and the same
//! [`oml_core::policy::MovePolicy`] objects interpret `move()`-requests at
//! the callee's node (§3.1, Fig. 3).
//!
//! It demonstrates that transient placement, alliances and A-transitive
//! attachment are implementable as ordinary run-time support — "without
//! changing the operations of objects" (§3) — not just as simulation
//! abstractions.
//!
//! * [`Cluster`] — the multi-node world: create objects, invoke them,
//!   migrate them, attach them, form alliances.
//! * [`MobileObject`] — the trait user objects implement: `invoke` (the
//!   method dispatch a compiler would generate), `linearize` (state
//!   serialization) plus a registered delinearizer per type tag.
//! * [`MoveGuard`] — an RAII move-block: constructed by
//!   [`Cluster::move_block`], its `Drop` issues the `end`-request, exactly
//!   mirroring the `begin … end` block of Fig. 2.
//! * Location management uses the *immediate update* mechanism the paper
//!   cites (\[Dec86\]): a shared directory adjusted at migration time, with
//!   bounded forwarding while an object is in flight.
//!
//! # Example
//!
//! ```
//! use oml_runtime::{Cluster, MobileObject};
//! use oml_core::ids::NodeId;
//! use oml_core::policy::PolicyKind;
//!
//! struct Counter(u64);
//!
//! impl MobileObject for Counter {
//!     fn type_tag(&self) -> &'static str { "counter" }
//!     fn invoke(&mut self, method: &str, _payload: &[u8]) -> Result<Vec<u8>, String> {
//!         match method {
//!             "add" => { self.0 += 1; Ok(self.0.to_le_bytes().to_vec()) }
//!             other => Err(format!("no such method: {other}")),
//!         }
//!     }
//!     fn linearize(&self) -> Vec<u8> { self.0.to_le_bytes().to_vec() }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = Cluster::builder()
//!     .nodes(2)
//!     .policy(PolicyKind::TransientPlacement)
//!     .build();
//! cluster.register_type("counter", |bytes| {
//!     let mut b = [0u8; 8];
//!     b.copy_from_slice(bytes);
//!     Box::new(Counter(u64::from_le_bytes(b)))
//! });
//!
//! let obj = cluster.create(NodeId::new(0), Box::new(Counter(0)))?;
//! cluster.invoke(obj, "add", &[])?;
//!
//! // a move-block: migrate, work locally, release on drop
//! {
//!     let guard = cluster.move_block(obj, NodeId::new(1))?;
//!     assert!(guard.granted());
//!     cluster.invoke(obj, "add", &[])?;
//! } // end-request issued here
//!
//! assert_eq!(cluster.location_of(obj), Some(NodeId::new(1)));
//! cluster.shutdown();
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::pedantic)]
// ids and payload sizes cast between widths at the wire boundary; the rest
// are deliberate style choices of this crate's API surface
#![allow(
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    clippy::doc_markdown,
    clippy::elidable_lifetime_names,
    clippy::items_after_statements,
    clippy::map_unwrap_or,
    clippy::missing_errors_doc,
    clippy::missing_fields_in_debug,
    clippy::missing_panics_doc,
    clippy::must_use_candidate,
    clippy::needless_pass_by_value,
    clippy::redundant_closure_for_method_calls,
    clippy::single_match_else,
    clippy::too_many_lines,
    clippy::unnecessary_semicolon,
    clippy::wildcard_imports
)]

mod cluster;
mod fault;
mod idmap;
mod message;
mod node;
mod recovery;
mod trace;

pub mod error;
pub mod object;
pub mod store;
pub mod transport;
pub mod wire;

pub use cluster::{CheckpointHealth, Cluster, ClusterBuilder, ClusterStats, MoveGuard};
pub use error::RuntimeError;
pub use fault::FaultPlan;
pub use object::{Delinearizer, MobileObject};
pub use recovery::{NodeHealth, Sabotage};
pub use store::{
    CheckpointStore, Durability, FsyncPolicy, MemStore, RecoveryReport, StoreError,
    StoredCheckpoint, WalStats, WalStore, WalStoreConfig,
};
pub use transport::multiproc::{
    run_worker, MultiProcCluster, MultiProcConfig, MultiProcStats, WorkerExit, WorkerOptions,
};
pub use transport::netio::TransportAddr;
pub use transport::socket::{SocketConfig, SocketPeer, SocketServer};
pub use transport::{Transport, TransportError, TransportEvent};
