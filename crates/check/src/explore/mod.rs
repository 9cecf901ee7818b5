//! Systematic exploration of migration-protocol schedules.
//!
//! `explore` turns the trace checker from a sampling tool into a bounded
//! model checker: a small cluster configuration (2–4 nodes, 2–4 objects,
//! optional crash/restart faults) runs under a *virtual scheduler* in which
//! every message delivery, timer firing and crash point is a schedulable
//! [`Step`]. The DPOR search ([`explore()`]) enumerates interleavings up to
//! partial-order equivalence (sleep sets over a vector-clock-validated
//! independence relation, state-hash pruning, budgets); every schedule
//! streams through [`crate::checker::check_trace`] plus the model's quiesce
//! checks, and any violation is minimized into a replayable [`Schedule`]
//! whose replay is verified bit-identical by trace digest.
//!
//! Two **seeded mutations** re-introduce the real bugs PR 3's checker
//! caught in the runtime, as negative controls the explorer must find:
//!
//! * [`Mutation::StrandedLocks`] — a crash loses the dead host's volatile
//!   lock state without releasing the placement locks it stranded
//!   (`crash_node` before the fix); found as a lease/lock overlap after the
//!   node restarts and re-grants.
//! * [`Mutation::IgnoreDeadline`] — the policy grants a move request whose
//!   requester's deadline has already passed (`handle_move` before the
//!   fix); found as a grant landing on an abandoned block, orphaning a
//!   never-released lock.
//!
//! ```
//! use oml_check::explore::{explore, Budget, ExploreConfig};
//!
//! let report = explore(&ExploreConfig::two_node_migration(), &Budget::default());
//! assert!(report.exhaustive && report.is_clean());
//!
//! let report = explore(&ExploreConfig::stranded_locks_bug(), &Budget::default());
//! assert!(!report.is_clean());
//! let replay = report.counterexamples[0].schedule.replay().unwrap();
//! assert!(replay.bit_identical && replay.reproduced());
//! ```

mod dpor;
mod model;
mod schedule;

pub use dpor::{explore, Budget, ExploreReport};
pub use model::{trace_digest, Fnv64, Footprint, Model, Step};
pub use schedule::{minimize, ReplayOutcome, Schedule, ScheduleError};

use oml_core::ids::{BlockId, ObjectId};

/// One scripted client move: "move `object` to node `to`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MoveOp {
    /// The object to move.
    pub object: u32,
    /// The destination node.
    pub to: u32,
}

/// A seeded protocol mutation — PR 3's real bugs, re-introduced as negative
/// controls for the explorer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutation {
    /// Crashes drop the dead host's lock state without releasing the locks.
    StrandedLocks,
    /// Grants ignore the requester's expired deadline.
    IgnoreDeadline,
}

/// A small-scope cluster configuration for the explorer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Human-readable name (appears in schedule files and reports).
    pub name: String,
    /// Node count (2–4 is the intended scope).
    pub nodes: u32,
    /// Object count; object `o` starts at node `o % nodes`.
    pub objects: u32,
    /// The scripted client moves, all issued at time zero in order; op `i`
    /// runs as move block `i`.
    pub ops: Vec<MoveOp>,
    /// Placement-lock lease TTL; `None` for never-expiring locks.
    pub lease_ttl_ms: Option<u64>,
    /// The client's (absolute) deadline for every move request.
    pub deadline_ms: u64,
    /// Whether the client-deadline timer is a schedulable step.
    pub client_timeouts: bool,
    /// Whether the lease sweeper is a schedulable step.
    pub sweeps: bool,
    /// Whether crash/restart faults are schedulable steps.
    pub faults: bool,
    /// Total crash budget across the schedule.
    pub max_crashes: u32,
    /// Seeded protocol mutation, if any.
    pub mutation: Option<Mutation>,
}

impl ExploreConfig {
    /// What the bundled configurations start from: two nodes and two
    /// objects under swept 500 ms leases, a deadline no schedule reaches,
    /// no client timeouts, faults or mutation.
    fn base(name: &str, ops: Vec<MoveOp>) -> Self {
        ExploreConfig {
            name: name.to_string(),
            nodes: 2,
            objects: 2,
            ops,
            lease_ttl_ms: Some(500),
            deadline_ms: 60_000,
            client_timeouts: false,
            sweeps: true,
            faults: false,
            max_crashes: 0,
            mutation: None,
        }
    }

    /// The acceptance configuration: two nodes swap two objects, leases and
    /// the sweeper on. Exhaustively enumerable in well under a second and
    /// expected clean.
    #[must_use]
    pub fn two_node_migration() -> Self {
        let ops = vec![MoveOp { object: 0, to: 1 }, MoveOp { object: 1, to: 0 }];
        Self::base("two-node-migration", ops)
    }

    /// Two blocks contend for one object (plus a bystander move) with
    /// client timeouts and the sweeper live — exercises denial, abandonment
    /// and expiry-then-regrant. Expected clean.
    #[must_use]
    pub fn contended() -> Self {
        let ops = vec![
            MoveOp { object: 0, to: 1 },
            MoveOp { object: 0, to: 0 },
            MoveOp { object: 1, to: 0 },
        ];
        ExploreConfig {
            deadline_ms: 400,
            client_timeouts: true,
            ..Self::base("contended", ops)
        }
    }

    /// Three nodes, two migrations, one crash/restart anywhere in the
    /// schedule — the crash-point sweep. Expected clean: correct crash
    /// handling releases stranded locks.
    #[must_use]
    pub fn crashy() -> Self {
        let ops = vec![MoveOp { object: 0, to: 1 }, MoveOp { object: 1, to: 2 }];
        ExploreConfig {
            nodes: 3,
            faults: true,
            max_crashes: 1,
            ..Self::base("crashy", ops)
        }
    }

    /// Negative control for [`Mutation::StrandedLocks`]: two blocks move
    /// one object back and forth across a crash/restart. The explorer must
    /// find a lease overlap (the stranded lock is never released, so the
    /// restarted node's re-grant overlaps it).
    #[must_use]
    pub fn stranded_locks_bug() -> Self {
        let ops = vec![MoveOp { object: 0, to: 1 }, MoveOp { object: 0, to: 0 }];
        ExploreConfig {
            lease_ttl_ms: Some(1_000),
            sweeps: false,
            faults: true,
            max_crashes: 1,
            mutation: Some(Mutation::StrandedLocks),
            ..Self::base("stranded-locks-bug", ops)
        }
    }

    /// Negative control for [`Mutation::IgnoreDeadline`]: non-expiring
    /// locks and a short client deadline. The explorer must find the
    /// orphaned lock a post-deadline grant leaves on an abandoned block.
    #[must_use]
    pub fn ignore_deadline_bug() -> Self {
        let ops = vec![MoveOp { object: 0, to: 1 }, MoveOp { object: 1, to: 0 }];
        ExploreConfig {
            lease_ttl_ms: None,
            deadline_ms: 100,
            client_timeouts: true,
            sweeps: false,
            mutation: Some(Mutation::IgnoreDeadline),
            ..Self::base("ignore-deadline-bug", ops)
        }
    }

    /// The bundled configuration matrix `repro explore` runs: the clean
    /// trio first, then the two seeded-mutation negative controls.
    #[must_use]
    pub fn matrix() -> Vec<ExploreConfig> {
        vec![
            Self::two_node_migration(),
            Self::contended(),
            Self::crashy(),
            Self::stranded_locks_bug(),
            Self::ignore_deadline_bug(),
        ]
    }

    /// Whether this configuration carries a seeded mutation (and therefore
    /// *must* produce a counterexample).
    #[must_use]
    pub fn expects_violation(&self) -> bool {
        self.mutation.is_some()
    }
}

/// A violation the explorer found, minimized and replayable.
#[derive(Debug)]
pub struct Counterexample {
    /// The minimized schedule (embeds its configuration and trace digest).
    pub schedule: Schedule,
    /// Checker violations the minimized schedule produces.
    pub violations: Vec<crate::Violation>,
    /// Orphaned locks (object, block) left at quiesce — grants that landed
    /// on abandoned blocks and can never be released.
    pub orphans: Vec<(ObjectId, BlockId)>,
}

impl Counterexample {
    /// One-line description of what went wrong.
    #[must_use]
    pub fn headline(&self) -> String {
        if let Some(v) = self.violations.first() {
            format!("{v:?}")
        } else if let Some((o, b)) = self.orphans.first() {
            format!("OrphanedLock {{ object: {o}, block: {b} }}")
        } else {
            "unknown".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vclock::assign_clocks;

    #[test]
    fn two_node_migration_is_exhaustively_clean() {
        let report = explore(&ExploreConfig::two_node_migration(), &Budget::default());
        assert!(report.exhaustive, "budget too small: {report:?}");
        assert!(report.is_clean(), "unexpected violation: {report:?}");
        assert!(report.schedules > 1, "explorer found only one schedule");
    }

    #[test]
    fn contended_config_is_clean() {
        let report = explore(&ExploreConfig::contended(), &Budget::default());
        assert!(report.exhaustive, "budget too small: {report:?}");
        assert!(report.is_clean(), "unexpected violation: {report:?}");
    }

    #[test]
    fn crashy_config_is_clean() {
        let report = explore(&ExploreConfig::crashy(), &Budget::default());
        assert!(report.exhaustive, "budget too small: {report:?}");
        assert!(report.is_clean(), "unexpected violation: {report:?}");
    }

    #[test]
    fn stranded_locks_mutation_is_found_and_replays() {
        let report = explore(&ExploreConfig::stranded_locks_bug(), &Budget::smoke());
        assert!(!report.is_clean(), "mutation not found: {report:?}");
        let cx = &report.counterexamples[0];
        assert!(
            !cx.violations.is_empty(),
            "expected a checker violation, got {cx:?}"
        );
        let replay = cx.schedule.replay().expect("minimized schedule replays");
        assert!(replay.bit_identical, "replay diverged");
        assert!(replay.reproduced(), "replay lost the violation");
    }

    #[test]
    fn ignore_deadline_mutation_is_found_and_replays() {
        let report = explore(&ExploreConfig::ignore_deadline_bug(), &Budget::smoke());
        assert!(!report.is_clean(), "mutation not found: {report:?}");
        let cx = &report.counterexamples[0];
        assert!(
            !cx.orphans.is_empty(),
            "expected an orphaned lock, got {cx:?}"
        );
        let replay = cx.schedule.replay().expect("minimized schedule replays");
        assert!(replay.bit_identical, "replay diverged");
        assert!(replay.reproduced(), "replay lost the violation");
    }

    #[test]
    fn schedule_text_round_trips() {
        let report = explore(&ExploreConfig::ignore_deadline_bug(), &Budget::smoke());
        let schedule = &report.counterexamples[0].schedule;
        let text = schedule.to_text();
        let parsed = Schedule::from_text(&text).expect("round trip parses");
        assert_eq!(parsed.cfg, schedule.cfg);
        assert_eq!(parsed.steps, schedule.steps);
        assert_eq!(parsed.trace_digest, schedule.trace_digest);
        let replay = parsed.replay().expect("parsed schedule replays");
        assert!(replay.bit_identical && replay.reproduced());
    }

    #[test]
    fn corrupted_schedule_is_rejected() {
        assert!(matches!(
            Schedule::from_text("nonsense line"),
            Err(ScheduleError::Parse { .. })
        ));
        let mut sched = Schedule {
            cfg: ExploreConfig::two_node_migration(),
            steps: vec![Step::Deliver { msg: 999 }],
            trace_digest: 0,
        };
        assert!(matches!(
            sched.replay(),
            Err(ScheduleError::StepNotEnabled { index: 0, .. })
        ));
        // a wrong digest replays but is not bit-identical
        sched.steps.clear();
        let outcome = sched.replay().expect("empty schedule replays");
        assert!(!outcome.bit_identical);
    }

    /// The footprint independence relation must agree with the vector-clock
    /// happens-before: when two adjacent steps are independent, the events
    /// they emit are pairwise concurrent.
    #[test]
    fn independent_steps_emit_concurrent_events() {
        let cfg = ExploreConfig::two_node_migration();
        let mut m = Model::new(&cfg);
        let mut checked = 0;
        // walk the first schedule depth-first, checking every adjacent
        // independent pair along the way
        loop {
            let enabled = m.enabled();
            let Some(&first) = enabled.first() else { break };
            for &other in &enabled[1..] {
                if !m.independent(first, other) {
                    continue;
                }
                let mut probe = m.clone();
                let a_start = probe.trace().len();
                probe.apply(first);
                let a_end = probe.trace().len();
                probe.apply(other);
                let b_end = probe.trace().len();
                let clocks = assign_clocks(probe.trace());
                for i in a_start..a_end {
                    for j in a_end..b_end {
                        assert!(
                            clocks[i].concurrent(&clocks[j]),
                            "independent steps {first:?}/{other:?} emitted ordered events"
                        );
                        checked += 1;
                    }
                }
            }
            m.apply(first);
        }
        assert!(checked > 0, "no independent pair was ever enabled");
    }

    /// Swapping two independent adjacent steps must land in the same state
    /// (the commutation DPOR relies on).
    #[test]
    fn independent_steps_commute() {
        let cfg = ExploreConfig::contended();
        let m = Model::new(&cfg);
        let enabled = m.enabled();
        let mut checked = 0;
        for (i, &a) in enabled.iter().enumerate() {
            for &b in &enabled[i + 1..] {
                if !m.independent(a, b) {
                    continue;
                }
                let mut ab = m.clone();
                ab.apply(a);
                ab.apply(b);
                let mut ba = m.clone();
                ba.apply(b);
                ba.apply(a);
                assert_eq!(
                    ab.state_digest(),
                    ba.state_digest(),
                    "steps {a:?}/{b:?} were marked independent but do not commute"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no independent pair in the initial state");
    }

    #[test]
    fn minimized_schedules_are_short() {
        let report = explore(&ExploreConfig::stranded_locks_bug(), &Budget::smoke());
        let cx = &report.counterexamples[0];
        // the race needs: grant, ship+install, crash, restart, re-deliver —
        // minimization should land close to that core
        assert!(
            cx.schedule.steps.len() <= 8,
            "minimizer left a long schedule: {:?}",
            cx.schedule.steps
        );
    }

    #[test]
    fn budget_cuts_clear_the_exhaustive_flag() {
        let budget = Budget {
            max_schedules: 2,
            ..Budget::default()
        };
        let report = explore(&ExploreConfig::contended(), &budget);
        assert!(!report.exhaustive);
    }

    #[test]
    fn state_digest_is_stable_and_trace_digest_detects_changes() {
        let cfg = ExploreConfig::two_node_migration();
        let a = Model::new(&cfg);
        let b = Model::new(&cfg);
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(trace_digest(a.trace()), trace_digest(b.trace()));
        let mut c = Model::new(&cfg);
        let step = c.enabled()[0];
        c.apply(step);
        assert_ne!(trace_digest(a.trace()), trace_digest(c.trace()));
    }
}
