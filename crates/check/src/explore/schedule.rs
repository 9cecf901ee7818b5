//! Counterexample schedules: minimization, a text serialization, and
//! bit-identical replay.
//!
//! A [`Schedule`] is self-contained: it embeds the full
//! [`ExploreConfig`] (including any seeded mutation) plus the step list, so
//! `repro explore --replay file` rebuilds the exact model and re-executes
//! the exact choices. The file also records the FNV-1a digest of the trace
//! the schedule produced; replay recomputes it and fails loudly on any
//! divergence — the "bit-identical" gate.

use std::fmt;

use crate::checker::check_trace;
use crate::Violation;
use oml_core::ids::{BlockId, ObjectId};

use super::model::{trace_digest, Model, Step};
use super::{ExploreConfig, MoveOp, Mutation};

/// A replayable schedule: a model configuration plus an ordered step list.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The configuration the schedule runs against.
    pub cfg: ExploreConfig,
    /// The steps, in execution order.
    pub steps: Vec<Step>,
    /// FNV-1a digest of the trace this schedule produced when recorded.
    pub trace_digest: u64,
}

/// What replaying a schedule produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Checker violations found in the replayed trace.
    pub violations: Vec<Violation>,
    /// Orphaned locks left behind at quiesce.
    pub orphans: Vec<(ObjectId, BlockId)>,
    /// Digest of the replayed trace.
    pub trace_digest: u64,
    /// The replayed digest equals the recorded one (bit-identical replay).
    pub bit_identical: bool,
    /// Number of trace events the replay produced.
    pub events: usize,
}

impl ReplayOutcome {
    /// The replay reproduced a violation (checker or quiesce).
    #[must_use]
    pub fn reproduced(&self) -> bool {
        !self.violations.is_empty() || !self.orphans.is_empty()
    }
}

/// Why a schedule failed to parse or replay.
#[derive(Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// A line of the text form did not parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A step was not enabled when its turn came.
    StepNotEnabled {
        /// 0-based index into the step list.
        index: usize,
        /// The offending step.
        step: Step,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Parse { line, reason } => {
                write!(f, "schedule parse error at line {line}: {reason}")
            }
            ScheduleError::StepNotEnabled { index, step } => {
                write!(
                    f,
                    "schedule step {index} (`{step}`) is not enabled at its turn"
                )
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

impl Schedule {
    /// Renders the schedule as its line-oriented text form.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let c = &self.cfg;
        let mut out = String::new();
        out.push_str("# oml-check counterexample schedule v1\n");
        let _ = writeln!(out, "name {}", c.name);
        let _ = writeln!(out, "nodes {}", c.nodes);
        let _ = writeln!(out, "objects {}", c.objects);
        match c.lease_ttl_ms {
            Some(ttl) => {
                let _ = writeln!(out, "lease-ttl {ttl}");
            }
            None => out.push_str("lease-ttl none\n"),
        }
        let _ = writeln!(out, "deadline {}", c.deadline_ms);
        let _ = writeln!(
            out,
            "timeouts {}",
            if c.client_timeouts { "on" } else { "off" }
        );
        let _ = writeln!(out, "sweeps {}", if c.sweeps { "on" } else { "off" });
        let _ = writeln!(
            out,
            "faults {} max-crashes {}",
            if c.faults { "on" } else { "off" },
            c.max_crashes
        );
        let _ = writeln!(
            out,
            "mutation {}",
            match c.mutation {
                None => "none",
                Some(Mutation::StrandedLocks) => "stranded-locks",
                Some(Mutation::IgnoreDeadline) => "ignore-deadline",
            }
        );
        for op in &c.ops {
            let _ = writeln!(out, "op {} -> {}", op.object, op.to);
        }
        let _ = writeln!(out, "trace-digest {:016x}", self.trace_digest);
        for step in &self.steps {
            let _ = writeln!(out, "step {step}");
        }
        out
    }

    /// Parses the text form produced by [`Schedule::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Parse`] on any malformed line.
    pub fn from_text(text: &str) -> Result<Schedule, ScheduleError> {
        let mut cfg = ExploreConfig {
            name: String::new(),
            nodes: 0,
            objects: 0,
            ops: Vec::new(),
            lease_ttl_ms: None,
            deadline_ms: 0,
            client_timeouts: false,
            sweeps: false,
            faults: false,
            max_crashes: 0,
            mutation: None,
        };
        let mut steps = Vec::new();
        let mut digest = 0u64;
        let err = |line: usize, reason: &str| ScheduleError::Parse {
            line,
            reason: reason.to_string(),
        };
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let parse_u32 = |s: &str| {
                s.parse::<u32>()
                    .map_err(|_| err(line_no, "expected number"))
            };
            let parse_u64 = |s: &str| {
                s.parse::<u64>()
                    .map_err(|_| err(line_no, "expected number"))
            };
            let parse_flag = |s: &str| match s {
                "on" => Ok(true),
                "off" => Ok(false),
                _ => Err(err(line_no, "expected on/off")),
            };
            match tokens.as_slice() {
                ["name", rest @ ..] => cfg.name = rest.join(" "),
                ["nodes", n] => cfg.nodes = parse_u32(n)?,
                ["objects", n] => cfg.objects = parse_u32(n)?,
                ["lease-ttl", "none"] => cfg.lease_ttl_ms = None,
                ["lease-ttl", n] => cfg.lease_ttl_ms = Some(parse_u64(n)?),
                ["deadline", n] => cfg.deadline_ms = parse_u64(n)?,
                ["timeouts", f] => cfg.client_timeouts = parse_flag(f)?,
                ["sweeps", f] => cfg.sweeps = parse_flag(f)?,
                ["faults", f, "max-crashes", n] => {
                    cfg.faults = parse_flag(f)?;
                    cfg.max_crashes = parse_u32(n)?;
                }
                ["mutation", "none"] => cfg.mutation = None,
                ["mutation", "stranded-locks"] => cfg.mutation = Some(Mutation::StrandedLocks),
                ["mutation", "ignore-deadline"] => cfg.mutation = Some(Mutation::IgnoreDeadline),
                ["op", a, "->", b] => cfg.ops.push(MoveOp {
                    object: parse_u32(a)?,
                    to: parse_u32(b)?,
                }),
                ["trace-digest", d] => {
                    digest = u64::from_str_radix(d, 16)
                        .map_err(|_| err(line_no, "expected hex digest"))?;
                }
                ["step", "deliver", m] => steps.push(Step::Deliver { msg: parse_u64(m)? }),
                ["step", "end", o] => steps.push(Step::End { op: parse_u32(o)? }),
                ["step", "timeout", o] => steps.push(Step::Timeout { op: parse_u32(o)? }),
                ["step", "sweep"] => steps.push(Step::Sweep),
                ["step", "crash", n] => steps.push(Step::Crash {
                    node: parse_u32(n)?,
                }),
                ["step", "restart", n] => steps.push(Step::Restart {
                    node: parse_u32(n)?,
                }),
                _ => return Err(err(line_no, "unrecognized line")),
            }
        }
        if cfg.nodes == 0 || cfg.objects == 0 {
            return Err(err(0, "missing nodes/objects header"));
        }
        Ok(Schedule {
            cfg,
            steps,
            trace_digest: digest,
        })
    }

    /// Re-executes the schedule against a fresh model and verifies the trace
    /// digest.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::StepNotEnabled`] if a recorded step is not a
    /// legal choice when its turn comes (a corrupted or hand-edited file).
    pub fn replay(&self) -> Result<ReplayOutcome, ScheduleError> {
        let mut m = Model::new(&self.cfg);
        for (index, &step) in self.steps.iter().enumerate() {
            if !m.enabled().contains(&step) {
                return Err(ScheduleError::StepNotEnabled { index, step });
            }
            m.apply(step);
        }
        m.drain_quiesce();
        let digest = trace_digest(m.trace());
        let report = check_trace(m.trace());
        Ok(ReplayOutcome {
            violations: report.violations,
            orphans: m.orphaned_locks(),
            trace_digest: digest,
            bit_identical: digest == self.trace_digest,
            events: m.trace().len(),
        })
    }
}

/// Whether replaying exactly `steps` (no enabledness slack) ends in
/// violation; `None` if some step is not enabled at its turn.
fn violates(cfg: &ExploreConfig, steps: &[Step]) -> Option<bool> {
    let mut m = Model::new(cfg);
    for &step in steps {
        if !m.enabled().contains(&step) {
            return None;
        }
        m.apply(step);
    }
    m.drain_quiesce();
    let bad = !check_trace(m.trace()).violations.is_empty() || !m.orphaned_locks().is_empty();
    Some(bad)
}

/// Shrinks a violating schedule: truncates to the shortest violating prefix,
/// then greedily deletes steps (repeating to a fixpoint) as long as the
/// remainder still executes and still violates. The result is 1-minimal
/// under single-step deletion — usually a handful of steps that read as the
/// actual race.
#[must_use]
pub(crate) fn minimize(cfg: &ExploreConfig, steps: &[Step]) -> Vec<Step> {
    let mut best: Vec<Step> = steps.to_vec();
    debug_assert_eq!(
        violates(cfg, &best),
        Some(true),
        "minimizing a clean schedule"
    );
    // shortest violating prefix
    for len in 0..best.len() {
        if violates(cfg, &best[..len]) == Some(true) {
            best.truncate(len);
            break;
        }
    }
    // greedy single-step deletion to a fixpoint
    loop {
        let mut shrunk = false;
        let mut i = best.len();
        while i > 0 {
            i -= 1;
            let mut candidate = best.clone();
            candidate.remove(i);
            if violates(cfg, &candidate) == Some(true) {
                best = candidate;
                shrunk = true;
            }
        }
        if !shrunk {
            return best;
        }
    }
}
