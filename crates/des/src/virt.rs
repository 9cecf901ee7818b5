//! A virtual millisecond clock for model-checked executions.
//!
//! The systematic explorer in `oml-check` replaces wall time with an
//! explicitly advanced clock: lease expiries, client deadlines and failure
//! detection windows all read the same monotonically advancing millisecond
//! counter, and *advancing* it is itself a schedulable choice of the
//! explorer.
//!
//! The clock deliberately has no notion of "now" outside what the scheduler
//! assigns: it only moves via [`VirtualClock::advance_to`], and moving
//! backwards panics — a schedule that rewinds time is a bug in the explorer,
//! not a state to tolerate.

/// A deterministic, explicitly advanced millisecond clock.
///
/// ```
/// use oml_des::virt::VirtualClock;
///
/// let mut clock = VirtualClock::new();
/// assert_eq!(clock.now_ms(), 0);
/// clock.advance_to(250);
/// clock.advance_to(1_000);
/// assert_eq!(clock.now_ms(), 1_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VirtualClock {
    now_ms: u64,
}

impl VirtualClock {
    /// A clock at virtual time zero.
    #[must_use]
    pub fn new() -> Self {
        Self { now_ms: 0 }
    }

    /// The current virtual time in milliseconds.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Advances the clock to `at_ms`. A target in the past panics; a target
    /// equal to the current time is a no-op (timers may fire "now").
    ///
    /// # Panics
    ///
    /// Panics if `at_ms` is earlier than the current virtual time.
    pub fn advance_to(&mut self, at_ms: u64) {
        assert!(
            at_ms >= self.now_ms,
            "virtual clock moved backwards: {at_ms} < {}",
            self.now_ms
        );
        self.now_ms = at_ms;
    }

    /// Builds a clock already advanced to `now_ms` (replay support).
    #[must_use]
    pub fn at(now_ms: u64) -> Self {
        Self { now_ms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now_ms(), 0);
        c.advance_to(10);
        c.advance_to(10); // equal target is fine
        c.advance_to(25);
        assert_eq!(c.now_ms(), 25);
    }

    #[test]
    #[should_panic(expected = "virtual clock moved backwards")]
    fn rewinding_panics() {
        let mut c = VirtualClock::at(100);
        c.advance_to(99);
    }
}
