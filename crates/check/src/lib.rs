//! oml-check — protocol invariant and race checker for the migration
//! runtime.
//!
//! Three analysis engines:
//!
//! 1. **Trace invariant checker** ([`checker::check_trace`]): consumes the
//!    structured event traces the runtime emits when built with tracing
//!    enabled, derives the happens-before partial order from vector clocks
//!    ([`vclock`]), and verifies the paper's safety invariants — single
//!    residency, place-lock exclusivity (denied movers never mutate
//!    placement), closure atomicity, and lease soundness.
//! 2. **Lock-nesting trap** ([`lockorder`]): debug builds of the runtime
//!    report each acquisition of a named `Mutex`/`RwLock` site to it; the
//!    runtime holds one lock at a time, so taking one while holding another
//!    aborts the process, naming both sites.
//! 3. **Schedule explorer** ([`explore`]): a bounded model checker that
//!    enumerates every interleaving of a small cluster configuration under
//!    a virtual scheduler — dynamic partial-order reduction with sleep sets
//!    over a vector-clock independence relation, state-hash pruning and
//!    budgets — streaming each schedule through the invariant checker and
//!    minimizing any violation into a replayable schedule file.
//!
//! The crate depends only on `oml-core` (for the id newtypes) and
//! `oml-des` (for the explorer's virtual clock), and performs no I/O but
//! the trap's last message: the runtime emits, this crate judges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::pedantic)]

pub mod checker;
pub mod event;
pub mod explore;
pub mod lockorder;
pub mod vclock;

pub use checker::{check_trace, CheckReport, Violation};
pub use event::{process_name, EventKind, MessageFault, ReleaseCause, TraceEvent, CLIENT_PROCESS};
pub use vclock::{assign_clocks, VClock};
