//! # oml-des — deterministic discrete-event simulation engine
//!
//! This crate provides the simulation substrate used by the
//! [paper reproduction](https://example.invalid/oml) of *Object Migration in
//! Non-Monolithic Distributed Applications* (Ciupke, Kottmann, Walter;
//! ICDCS 1996):
//!
//! * [`SimTime`] — simulated clock values with a total order,
//! * [`EventQueue`] — a stable priority queue of timestamped events
//!   (ties broken by insertion order, so runs are fully deterministic),
//! * [`Scheduler`] / [`Engine`] — a minimal actor-style execution loop,
//! * [`SimRng`] — a seeded random source with the exponential sampling the
//!   paper's model is built on,
//! * [`stats`] — online statistics: Welford accumulators, batch means and the
//!   paper's stopping rule ("run until the 99 % confidence interval half-width
//!   is below 1 % of the mean"),
//! * [`par`] — a deterministic work-stealing `parallel_map` for fanning
//!   independent jobs (sweep points, replications) across cores: the
//!   simulator's one multi-core path.
//!
//! The engine is intentionally generic: the distributed-object semantics live
//! in `oml-sim`, this crate only knows about time, events and randomness.
//!
//! # Example
//!
//! ```
//! use oml_des::{Engine, EventHandler, Scheduler, SimTime};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! impl EventHandler for Counter {
//!     type Event = &'static str;
//!     fn handle(&mut self, _now: SimTime, event: &'static str, sched: &mut Scheduler<Self::Event>) {
//!         self.fired += 1;
//!         if event == "tick" && self.fired < 3 {
//!             sched.schedule_in(1.0, "tick");
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.scheduler_mut().schedule_at(SimTime::ZERO, "tick");
//! engine.run_to_completion();
//! assert_eq!(engine.handler().fired, 3);
//! assert_eq!(engine.now(), SimTime::new(2.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::pedantic)]
// the simulation engine converts between times, counts and floats freely;
// the remaining allows are deliberate style choices
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
    clippy::return_self_not_must_use,
    clippy::unreadable_literal
)]

mod engine;
mod queue;
mod rng;
mod time;

pub mod par;
pub mod stats;
pub mod trace;

pub use engine::{Engine, EventHandler, Scheduler, StepOutcome};
pub use queue::{EventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use time::SimTime;
