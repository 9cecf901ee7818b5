//! The actor-style execution loop.

use crate::{EventQueue, SimTime};

/// User logic driven by the [`Engine`].
///
/// The handler receives each event together with the current clock and a
/// [`Scheduler`] through which it can schedule follow-up events. All
/// simulation state lives inside the handler; the engine only owns time.
pub trait EventHandler {
    /// The event payload type.
    type Event;

    /// Reacts to one event. `now` is the event's activation time.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// The scheduling facade handed to [`EventHandler::handle`].
///
/// Wraps the event queue and the clock; events can only be scheduled at or
/// after the current time, which rules out causality violations.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Scheduler<E> {
    /// Creates a scheduler starting at time zero with an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` time units from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or not finite.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "invalid event delay: {delay}"
        );
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` to fire at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at:?} < {:?}",
            self.now
        );
        self.queue.push(at, event);
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

/// What a single [`Engine::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One event was delivered to the handler.
    Handled,
    /// The queue was empty; the simulation has quiesced.
    Idle,
}

/// Drives an [`EventHandler`] until quiescence, a deadline, or an event
/// budget is exhausted.
///
/// See the crate-level documentation for a complete example.
#[derive(Debug)]
pub struct Engine<H: EventHandler> {
    handler: H,
    sched: Scheduler<H::Event>,
    handled: u64,
}

impl<H: EventHandler> Engine<H> {
    /// Creates an engine around `handler` with the clock at zero.
    pub fn new(handler: H) -> Self {
        Engine {
            handler,
            sched: Scheduler::new(),
            handled: 0,
        }
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Number of events delivered so far.
    #[must_use]
    pub fn events_handled(&self) -> u64 {
        self.handled
    }

    /// Borrows the handler (e.g. to read out results).
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Borrows the scheduler, e.g. to seed initial events.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<H::Event> {
        &mut self.sched
    }

    /// Delivers the next event, advancing the clock to its activation time.
    pub fn step(&mut self) -> StepOutcome {
        match self.sched.queue.pop() {
            Some(scheduled) => {
                debug_assert!(scheduled.time >= self.sched.now);
                self.sched.now = scheduled.time;
                self.handler
                    .handle(scheduled.time, scheduled.event, &mut self.sched);
                self.handled += 1;
                StepOutcome::Handled
            }
            None => StepOutcome::Idle,
        }
    }

    /// Runs until no events remain.
    pub fn run_to_completion(&mut self) {
        while self.step() == StepOutcome::Handled {}
    }

    /// Runs until the clock would pass `deadline` or the queue empties.
    ///
    /// Events scheduled exactly at `deadline` are still delivered.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.sched.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
    }

    /// Runs until `predicate` returns true (checked after every event), the
    /// event `budget` is exhausted, or the queue empties.
    ///
    /// Returns `true` if the predicate caused the stop.
    pub fn run_while<F: FnMut(&H) -> bool>(&mut self, budget: u64, mut predicate: F) -> bool {
        for _ in 0..budget {
            if self.step() == StepOutcome::Idle {
                return false;
            }
            if predicate(&self.handler) {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Collector {
        seen: Vec<(f64, u32)>,
        respawn: bool,
    }

    impl EventHandler for Collector {
        type Event = u32;
        fn handle(&mut self, now: SimTime, event: u32, sched: &mut Scheduler<u32>) {
            self.seen.push((now.as_f64(), event));
            if self.respawn && event < 5 {
                sched.schedule_in(1.0, event + 1);
            }
        }
    }

    fn engine(respawn: bool) -> Engine<Collector> {
        Engine::new(Collector {
            seen: Vec::new(),
            respawn,
        })
    }

    #[test]
    fn delivers_in_time_order_and_advances_clock() {
        let mut e = engine(false);
        e.scheduler_mut().schedule_at(SimTime::new(2.0), 2);
        e.scheduler_mut().schedule_at(SimTime::new(1.0), 1);
        e.run_to_completion();
        assert_eq!(e.handler().seen, vec![(1.0, 1), (2.0, 2)]);
        assert_eq!(e.now(), SimTime::new(2.0));
        assert_eq!(e.events_handled(), 2);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut e = engine(true);
        e.scheduler_mut().schedule_at(SimTime::ZERO, 0);
        e.run_to_completion();
        assert_eq!(e.handler().seen.len(), 6);
        assert_eq!(e.now(), SimTime::new(5.0));
    }

    #[test]
    fn run_until_respects_deadline_inclusively() {
        let mut e = engine(true);
        e.scheduler_mut().schedule_at(SimTime::ZERO, 0);
        e.run_until(SimTime::new(2.0));
        // events at t = 0, 1, 2 fire; the one at t = 3 stays queued
        assert_eq!(e.handler().seen.len(), 3);
        assert_eq!(e.scheduler_mut().pending(), 1);
    }

    #[test]
    fn run_while_stops_on_predicate() {
        let mut e = engine(true);
        e.scheduler_mut().schedule_at(SimTime::ZERO, 0);
        let stopped = e.run_while(1_000, |h| h.seen.len() >= 3);
        assert!(stopped);
        assert_eq!(e.handler().seen.len(), 3);
    }

    #[test]
    fn run_while_reports_quiescence() {
        let mut e = engine(false);
        e.scheduler_mut().schedule_at(SimTime::ZERO, 0);
        let stopped = e.run_while(1_000, |_| false);
        assert!(!stopped);
    }

    #[test]
    fn step_on_empty_queue_is_idle() {
        let mut e = engine(false);
        assert_eq!(e.step(), StepOutcome::Idle);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut e = engine(false);
        e.scheduler_mut().schedule_at(SimTime::new(5.0), 1);
        e.run_to_completion();
        e.scheduler_mut().schedule_at(SimTime::new(1.0), 2);
    }

    #[test]
    #[should_panic(expected = "invalid event delay")]
    fn negative_delay_panics() {
        let mut e = engine(false);
        e.scheduler_mut().schedule_in(-1.0, 7);
    }
}
