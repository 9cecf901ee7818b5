//! # oml-sim — discrete-event simulator of the paper's §4 model
//!
//! A faithful enactment of the simulation model in *Object Migration in
//! Non-Monolithic Distributed Applications* (§4.1):
//!
//! * sedentary **clients** issue move-blocks against mobile **servers**,
//! * move-requests are trapped and interpreted *at the object's node* by a
//!   pluggable [`oml_core::policy::MovePolicy`],
//! * remote messages cost Exp(1) time, local interactions are free,
//! * migrations keep objects in transit for `M · size`, blocking callers,
//! * attachments drag their (mode-dependent) closure along,
//! * runs stop when the 99 % confidence interval of the mean communication
//!   time per call is within 1 % (configurable via
//!   [`oml_des::stats::StoppingRule`]).
//!
//! Build worlds with [`SimulationBuilder`], run them with [`Simulation`],
//! read results from [`metrics::SimMetrics`].
//!
//! # Example: the paper's conflict, quantified
//!
//! ```
//! use oml_core::ids::NodeId;
//! use oml_core::policy::PolicyKind;
//! use oml_des::stats::StoppingRule;
//! use oml_net::Network;
//! use oml_sim::{BlockParams, SimulationBuilder};
//!
//! let run = |policy| {
//!     let mut b = SimulationBuilder::new(Network::paper(3))
//!         .policy(policy)
//!         .stopping(StoppingRule::quick())
//!         .seed(7);
//!     let servers: Vec<_> = (0..3).map(|i| b.add_object(NodeId::new(i))).collect();
//!     for i in 0..3 {
//!         // three clients hammering the same servers with little pause
//!         b.add_client(NodeId::new(i), servers.clone(), BlockParams::paper(5.0));
//!     }
//!     b.build().run().metrics.comm_time_per_call()
//! };
//!
//! let conventional = run(PolicyKind::ConventionalMigration);
//! let placement = run(PolicyKind::TransientPlacement);
//! // under contention, transient placement beats conventional migration
//! assert!(placement < conventional);
//! ```

#![warn(clippy::pedantic)]
// the §4 model mixes simulated time, counts and float metrics; casts are
// inherent, the rest are deliberate style choices
#![allow(
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    clippy::doc_markdown,
    clippy::elidable_lifetime_names,
    clippy::float_cmp,
    clippy::items_after_statements,
    clippy::manual_midpoint,
    clippy::missing_panics_doc,
    clippy::must_use_candidate,
    clippy::return_self_not_must_use,
    clippy::unreadable_literal,
    clippy::wildcard_imports
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod world;

pub(crate) mod dense;
pub mod event;
pub mod metrics;
pub mod state;

pub use builder::{Simulation, SimulationBuilder, BATCH_SIZE};
pub use state::{BlockFlavor, BlockParams, Location, LocationMechanism};
pub use world::World;
