//! The seeded scenarios of `oml_experiments::check`, pinned for every
//! `CHAOS_SEEDS` entry: a seed fixes a whole replay bit for bit, different
//! seeds inject different faults, the recovery schedule records each
//! happening once, and every negative control's scenario reads clean
//! without its sabotage and is flagged by its invariant under it.
//!
//! Under a manual clock the one client thread runs every step — ticks and
//! delayed deliveries included, as it advances the clock — so every fault
//! decision depends only on (seed, link, sequence number).

use oml_check::{EventKind, MessageFault, TraceEvent};
use oml_experiments::check::{
    replay_chaos, replay_durability, replay_recovery, CheckOutcome, CHAOS_SEEDS, NEGATIVE_CONTROLS,
};
use oml_runtime::Sabotage;

/// Replays `scenario` twice under `seed` and asserts the two runs are
/// indistinguishable — the same events in the same order, the same
/// counters, the same surfaced errors, the same surviving state — and
/// their trace clean.
fn replayed(scenario: impl Fn(u64) -> CheckOutcome, seed: u64) -> CheckOutcome {
    let a = scenario(seed);
    let b = scenario(seed);
    assert_eq!(a.digest, b.digest, "seed {seed:#x}: the traces differ");
    assert_eq!(
        (a.stats, &a.errors, &a.finals),
        (b.stats, &b.errors, &b.finals),
        "seed {seed:#x}: the client saw two runs"
    );
    assert!(a.report.events > 10, "tracing must be on");
    assert!(a.report.is_clean(), "seed {seed:#x}: {}", a.report);
    a
}

/// How many events of `trace` are of the kind `is` picks.
fn count(trace: &[TraceEvent], is: fn(&EventKind) -> bool) -> u64 {
    trace.iter().filter(|ev| is(&ev.kind)).count() as u64
}

#[test]
fn chaos_replays_are_identical_and_each_seed_injects_its_own_faults() {
    let mut schedules: Vec<Vec<TraceEvent>> = Vec::new();
    for &seed in CHAOS_SEEDS {
        let run = replayed(replay_chaos, seed);
        assert!(run.report.events > 100, "seed {seed:#x}: a thin trace");
        // the schedule really injected faults, lost end-requests among them
        let dropped: Vec<&str> = (run.trace.iter())
            .filter_map(|ev| match &ev.kind {
                EventKind::Fault {
                    fault: MessageFault::Drop,
                    desc,
                    ..
                } => Some(desc.as_str()),
                _ => None,
            })
            .collect();
        assert!(
            dropped.iter().any(|desc| desc.starts_with("End(")),
            "seed {seed:#x}: no dropped end-request in {dropped:?}"
        );
        let once = [
            count(&run.trace, |k| matches!(k, EventKind::Crash { .. })),
            count(&run.trace, |k| matches!(k, EventKind::Restart { .. })),
        ];
        assert_eq!(once, [1; 2], "seed {seed:#x}: crash, restart");
        let faults = (run.trace.into_iter())
            .filter(|ev| matches!(ev.kind, EventKind::Fault { .. }))
            .collect();
        assert!(
            !schedules.contains(&faults),
            "seed {seed:#x} repeats a schedule"
        );
        schedules.push(faults);
    }
}

#[test]
fn recovery_replays_are_identical_and_record_each_happening_once() {
    for &seed in CHAOS_SEEDS {
        let run = replayed(|s| replay_recovery(s, None), seed);
        assert!(run.report.events > 100, "seed {seed:#x}: a thin trace");
        let trace = &run.trace;
        // one crash and one death; the fenced zombie's restart and the
        // honest one are both traced
        let happenings = [
            count(trace, |k| matches!(k, EventKind::Crash { .. })),
            count(trace, |k| matches!(k, EventKind::DeclaredDead { .. })),
            count(trace, |k| matches!(k, EventKind::Restart { .. })),
        ];
        assert_eq!(
            happenings,
            [1, 1, 2],
            "seed {seed:#x}: crash, death, restarts"
        );
        assert!(run.stats.reinstantiations > 0, "seed {seed:#x}");
        // the trace and the counters tell one story
        let counted = [
            count(trace, |k| matches!(k, EventKind::Suspected { .. })),
            count(trace, |k| matches!(k, EventKind::Reinstantiated { .. })),
        ];
        let stats = run.stats;
        assert_eq!(
            counted,
            [stats.suspicions, stats.reinstantiations],
            "seed {seed:#x}"
        );
        assert!(
            count(trace, |k| matches!(k, EventKind::Fault { .. })) > 0,
            "seed {seed:#x}: the plan injected nothing"
        );
    }
}

#[test]
fn durability_replays_are_identical() {
    for &seed in CHAOS_SEEDS {
        replayed(replay_durability, seed);
    }
}

/// A control's clean twin reads clean, replays bit for bit and differs
/// from seed to seed; the same scenario under the control's one sabotage is
/// flagged by its invariant.
#[test]
fn every_negative_control_is_its_clean_scenario_under_one_sabotage() {
    for control in NEGATIVE_CONTROLS {
        let mut digests = Vec::new();
        for &seed in CHAOS_SEEDS {
            let clean = replayed(|s| (control.scenario)(s, None), seed);
            assert!(
                !digests.contains(&clean.digest),
                "{} at {seed:#x} repeats another seed's run",
                control.name
            );
            digests.push(clean.digest);
            let rigged = (control.scenario)(seed, Some(control.sabotage));
            assert!(
                control.caught(&rigged.report),
                "{} at {seed:#x} drew no {} violation: {}",
                control.name,
                control.invariant,
                rigged.report
            );
        }
    }
}

#[test]
fn the_table_has_the_controls_repro_check_negative_prints() {
    let rows: Vec<_> = (NEGATIVE_CONTROLS.iter())
        .map(|c| (c.name, c.gate, c.sabotage, c.invariant))
        .collect();
    assert_eq!(
        rows,
        [
            (
                "unfenced zombie",
                "--recovery",
                Sabotage::Unfenced,
                "stale incarnation"
            ),
            (
                "no-repair",
                "--durability",
                Sabotage::NoRepair,
                "replication factor"
            ),
            (
                "stale-promotion",
                "--durability",
                Sabotage::StalePromotion,
                "stale replica promoted"
            ),
        ]
    );
}
