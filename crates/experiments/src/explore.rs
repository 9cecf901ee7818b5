//! The `repro explore` driver: runs the bundled exploration matrix, saves
//! counterexample schedules, and re-verifies them by bit-identical replay.
//!
//! The matrix ([`ExploreConfig::matrix`]) carries an expectation per
//! configuration: the clean trio must enumerate exhaustively with zero
//! violations, and the two seeded-mutation negative controls must each
//! yield a counterexample. Every counterexample found is serialized to
//! `<out_dir>/<config-name>.schedule`, read back *from disk*, and replayed;
//! the run only passes if the replay reproduces the violation and the
//! replayed trace digest matches the recorded one bit for bit.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use oml_check::explore::{explore, Budget, ExploreConfig, ExploreReport, ReplayOutcome, Schedule};

/// What one configuration's exploration produced.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// The configuration's name.
    pub name: String,
    /// Whether the configuration carries a seeded mutation (and therefore
    /// must produce a counterexample).
    pub expects_violation: bool,
    /// The search report.
    pub report: ExploreReport,
    /// Where the first counterexample schedule was written, if any.
    pub saved: Option<PathBuf>,
    /// Verdict of the disk-round-trip replay of that schedule: violation
    /// reproduced and trace digest bit-identical. `None` when there was no
    /// counterexample to replay.
    pub replay_verified: Option<bool>,
    /// Wall-clock seconds the search took.
    pub wall_s: f64,
    /// The configuration met its expectation (clean-and-exhaustive, or
    /// counterexample-found-and-replayed).
    pub passed: bool,
}

/// Explores one configuration under `budget` and verifies its expectation,
/// writing any counterexample to `out_dir`.
pub(crate) fn run_one(cfg: &ExploreConfig, budget: &Budget, out_dir: &Path) -> ExploreOutcome {
    let start = Instant::now();
    let report = explore(cfg, budget);
    let wall_s = start.elapsed().as_secs_f64();
    let mut saved = None;
    let mut replay_verified = None;
    if let Some(ce) = report.counterexamples.first() {
        let path = out_dir.join(format!("{}.schedule", cfg.name));
        match fs::create_dir_all(out_dir).and_then(|()| fs::write(&path, ce.schedule.to_text())) {
            Ok(()) => {
                let verified = read_and_replay(&path)
                    .map(|(_, outcome)| outcome.reproduced() && outcome.bit_identical)
                    .unwrap_or_else(|e| {
                        eprintln!("saved schedule does not replay: {e}");
                        false
                    });
                replay_verified = Some(verified);
                saved = Some(path);
            }
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                replay_verified = Some(false);
            }
        }
    }
    let passed = if cfg.expects_violation() {
        !report.is_clean() && replay_verified == Some(true)
    } else {
        report.is_clean() && report.exhaustive
    };
    ExploreOutcome {
        name: cfg.name.clone(),
        expects_violation: cfg.expects_violation(),
        report,
        saved,
        replay_verified,
        wall_s,
        passed,
    }
}

/// Runs the whole bundled matrix. Returns the per-configuration outcomes;
/// the run passes iff every outcome did.
pub fn run_matrix(budget: &Budget, out_dir: &Path) -> Vec<ExploreOutcome> {
    ExploreConfig::matrix()
        .iter()
        .map(|cfg| run_one(cfg, budget, out_dir))
        .collect()
}

/// Reads a schedule file from disk, parses it and replays it.
fn read_and_replay(path: &Path) -> Result<(Schedule, ReplayOutcome), String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let schedule = Schedule::from_text(&text).map_err(|e| e.to_string())?;
    let outcome = schedule.replay().map_err(|e| e.to_string())?;
    Ok((schedule, outcome))
}

/// Replays one schedule file (the `--replay FILE` path). Returns
/// `Ok(true)` when the replay reproduces its violation bit-identically.
pub fn replay_file(path: &Path) -> Result<bool, String> {
    let (schedule, outcome) = read_and_replay(path)?;
    println!(
        "replayed `{}`: {} step(s), {} event(s), digest {:016x} ({})",
        schedule.cfg.name,
        schedule.steps.len(),
        outcome.events,
        outcome.trace_digest,
        if outcome.bit_identical {
            "bit-identical"
        } else {
            "DIGEST MISMATCH"
        }
    );
    for v in &outcome.violations {
        println!("  violation: {v:?}");
    }
    for (o, b) in &outcome.orphans {
        println!("  orphaned lock: object {o}, block {b}");
    }
    if outcome.violations.is_empty() && outcome.orphans.is_empty() {
        println!("  (no violation reproduced)");
    }
    Ok(outcome.reproduced() && outcome.bit_identical)
}

/// Renders one outcome as the lines `repro explore` prints.
#[must_use]
pub fn render_outcome(o: &ExploreOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let r = &o.report;
    let _ = writeln!(
        out,
        "{}: {} schedule(s), {} step(s), {} pruned, {} sleep-skip(s), depth {}, {:.3} s — {}",
        o.name,
        r.schedules,
        r.steps,
        r.pruned,
        r.sleep_skips,
        r.peak_depth,
        o.wall_s,
        if r.exhaustive {
            "exhaustive"
        } else {
            "budget-bounded"
        }
    );
    match (o.expects_violation, r.counterexamples.first()) {
        (false, None) => out.push_str("  clean, as expected\n"),
        (false, Some(ce)) => {
            let _ = writeln!(out, "  UNEXPECTED VIOLATION: {}", ce.headline());
            let _ = writeln!(
                out,
                "  schedule: {}",
                ce.schedule
                    .steps
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        (true, None) => out.push_str("  MISSED: seeded mutation produced no counterexample\n"),
        (true, Some(ce)) => {
            let _ = writeln!(
                out,
                "  found seeded bug: {} (minimized to {} step(s))",
                ce.headline(),
                ce.schedule.steps.len()
            );
            if let Some(path) = &o.saved {
                let _ = writeln!(
                    out,
                    "  saved {} — disk round-trip replay {}",
                    path.display(),
                    match o.replay_verified {
                        Some(true) => "reproduced, bit-identical",
                        Some(false) => "FAILED",
                        None => "not attempted",
                    }
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_passes_under_smoke_budget() {
        let dir = std::env::temp_dir().join("oml-explore-test");
        let outcomes = run_matrix(&Budget::smoke(), &dir);
        assert_eq!(outcomes.len(), 5);
        for o in &outcomes {
            assert!(o.passed, "{} failed: {:#?}", o.name, o.report.exhaustive);
        }
        // the negative controls saved replayable schedules
        let saved: Vec<_> = outcomes.iter().filter(|o| o.saved.is_some()).collect();
        assert_eq!(saved.len(), 2);
        for o in saved {
            assert_eq!(o.replay_verified, Some(true), "{}", o.name);
            assert!(replay_file(o.saved.as_ref().unwrap()).unwrap());
        }
    }
}
