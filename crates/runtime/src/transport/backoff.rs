//! Capped exponential backoff with deterministic jitter, and the
//! per-link reconnect supervisor state machine.
//!
//! Both are **pure state machines over an injected clock** (`now_ms`
//! parameters, no `Instant::now()` inside) so tests can drive the whole
//! reconnect lifecycle — failure, backoff growth, cap, half-open probe,
//! success reset, terminal fencing — under a manual clock, exactly like
//! the lease tests of PR 1.
//!
//! Jitter is *decorrelated but seeded*: each delay is
//! `base·2^attempt / 2 + uniform(0 ..= base·2^attempt / 2)`, the uniform
//! part drawn from a SplitMix64 stream derived from the configured seed.
//! The same seed therefore reproduces the same dial schedule — reconnect
//! storms stay replayable, like every other randomized decision in this
//! workspace.

use crate::fault::splitmix64;

/// Tuning for one link's backoff schedule.
#[derive(Debug, Clone, Copy)]
pub struct BackoffConfig {
    /// First delay's full window, in milliseconds.
    pub base_ms: u64,
    /// Ceiling for the exponential window, in milliseconds.
    pub cap_ms: u64,
    /// Seed for the jitter stream (deterministic per seed).
    pub seed: u64,
}

impl Default for BackoffConfig {
    fn default() -> Self {
        BackoffConfig {
            base_ms: 10,
            cap_ms: 2_000,
            seed: 0x6F6D_6C62, // "omlb"
        }
    }
}

/// Capped exponential backoff with seeded half-jitter.
#[derive(Debug, Clone)]
pub struct Backoff {
    cfg: BackoffConfig,
    attempt: u32,
    rng: u64,
}

impl Backoff {
    /// A fresh schedule at attempt zero.
    #[must_use]
    pub fn new(cfg: BackoffConfig) -> Self {
        Backoff {
            cfg,
            attempt: 0,
            rng: cfg.seed,
        }
    }

    /// Delay before the next attempt, in milliseconds, and advances the
    /// attempt counter. Always in `[window/2, window]` where `window`
    /// doubles per attempt up to `cap_ms`.
    pub fn next_delay_ms(&mut self) -> u64 {
        let window = self
            .cfg
            .base_ms
            .saturating_mul(1u64 << self.attempt.min(32))
            .min(self.cfg.cap_ms)
            .max(1);
        self.attempt = self.attempt.saturating_add(1);
        let half = window / 2;
        let jitter = if half == 0 {
            0
        } else {
            splitmix64(&mut self.rng) % (half + 1)
        };
        (window - half) + jitter
    }

    /// Attempts issued since the last [`reset`](Self::reset).
    #[must_use]
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Clears the schedule after a successful connection. The jitter
    /// stream is **not** rewound — determinism is per seed over the whole
    /// lifetime, not per outage.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Supervised state of one link, driven by [`Supervisor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// A session is established under the peer's incarnation `epoch`.
    Connected {
        /// The authenticated incarnation.
        epoch: u64,
    },
    /// No session; the next dial is allowed at `retry_at_ms`.
    Backoff {
        /// Manual-clock instant when the next dial becomes due.
        retry_at_ms: u64,
    },
    /// A dial is in flight (half-open): exactly one probe at a time, so a
    /// dead peer is hit by one connect per backoff window, not a stampede.
    Probing,
    /// Terminally fenced — our incarnation was refused; never dial again.
    Fenced {
        /// The stale incarnation the handshake presented.
        epoch: u64,
    },
}

/// The reconnect state machine for one link. The socket layer owns one per
/// peer and calls the transition methods; tests drive it directly with a
/// manual clock.
#[derive(Debug, Clone)]
pub struct Supervisor {
    state: LinkState,
    backoff: Backoff,
    /// Dial attempts in the *current* outage (resets on success).
    outage_attempts: u32,
    /// Total successful (re-)connections ever.
    sessions: u64,
}

impl Supervisor {
    /// A supervisor whose first dial is due immediately.
    #[must_use]
    pub fn new(cfg: BackoffConfig) -> Self {
        Supervisor {
            state: LinkState::Backoff { retry_at_ms: 0 },
            backoff: Backoff::new(cfg),
            outage_attempts: 0,
            sessions: 0,
        }
    }

    /// Current link state.
    #[must_use]
    pub fn state(&self) -> LinkState {
        self.state
    }

    /// Whether a dial probe should be launched now. True only in
    /// [`LinkState::Backoff`] with the retry instant reached — never while
    /// already probing, connected or fenced.
    #[must_use]
    pub fn due(&self, now_ms: u64) -> bool {
        matches!(self.state, LinkState::Backoff { retry_at_ms } if now_ms >= retry_at_ms)
    }

    /// Claims the half-open probe slot. Call when launching a dial that
    /// [`due`](Self::due) allowed.
    pub fn begin_probe(&mut self) {
        debug_assert!(matches!(self.state, LinkState::Backoff { .. }));
        self.outage_attempts = self.outage_attempts.saturating_add(1);
        self.state = LinkState::Probing;
    }

    /// The probe's handshake succeeded under the peer incarnation `epoch`.
    /// Returns the attempt count this outage took (for the
    /// `Reconnected { attempt }` trace event) — 1 for a first-try connect.
    pub fn on_established(&mut self, epoch: u64) -> u32 {
        let attempts = self.outage_attempts.max(1);
        self.state = LinkState::Connected { epoch };
        self.backoff.reset();
        self.outage_attempts = 0;
        self.sessions += 1;
        attempts
    }

    /// A dial failed or a live session died: schedule the next probe.
    /// Returns the manual-clock instant the next dial becomes due.
    pub fn on_failure(&mut self, now_ms: u64) -> u64 {
        let retry_at_ms = now_ms + self.backoff.next_delay_ms();
        self.state = LinkState::Backoff { retry_at_ms };
        retry_at_ms
    }

    /// The handshake was refused as stale. Terminal.
    pub fn on_fenced(&mut self, epoch: u64) {
        self.state = LinkState::Fenced { epoch };
    }

    /// Dial attempts issued in the current outage (1 right after the
    /// first [`begin_probe`](Self::begin_probe); 0 while connected).
    #[must_use]
    pub fn outage_attempts(&self) -> u32 {
        self.outage_attempts
    }

    /// Successful sessions over this supervisor's lifetime (≥ 2 means at
    /// least one *re*-connect).
    #[must_use]
    pub fn sessions(&self) -> u64 {
        self.sessions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_double_and_cap() {
        let mut b = Backoff::new(BackoffConfig {
            base_ms: 10,
            cap_ms: 80,
            seed: 1,
        });
        // window sequence: 10, 20, 40, 80, 80, ... and each delay is in
        // [window/2, window]
        for &window in &[10u64, 20, 40, 80, 80, 80] {
            let d = b.next_delay_ms();
            assert!(
                (window / 2..=window).contains(&d),
                "delay {d} outside [{}, {window}]",
                window / 2
            );
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = BackoffConfig {
            base_ms: 7,
            cap_ms: 500,
            seed: 42,
        };
        let a: Vec<u64> = {
            let mut b = Backoff::new(cfg);
            (0..10).map(|_| b.next_delay_ms()).collect()
        };
        let b2: Vec<u64> = {
            let mut b = Backoff::new(cfg);
            (0..10).map(|_| b.next_delay_ms()).collect()
        };
        assert_eq!(a, b2);
        let other: Vec<u64> = {
            let mut b = Backoff::new(BackoffConfig { seed: 43, ..cfg });
            (0..10).map(|_| b.next_delay_ms()).collect()
        };
        assert_ne!(a, other, "different seeds should jitter differently");
    }

    #[test]
    fn reset_restarts_the_window() {
        let mut b = Backoff::new(BackoffConfig {
            base_ms: 16,
            cap_ms: 1_000,
            seed: 9,
        });
        for _ in 0..5 {
            b.next_delay_ms();
        }
        b.reset();
        let d = b.next_delay_ms();
        assert!(
            (8..=16).contains(&d),
            "post-reset delay {d} not in first window"
        );
    }

    #[test]
    fn supervisor_lifecycle_under_manual_clock() {
        let mut sup = Supervisor::new(BackoffConfig {
            base_ms: 10,
            cap_ms: 40,
            seed: 5,
        });
        // first dial is due immediately, and Probing holds the half-open
        // slot: due() must be false until the probe resolves
        assert!(sup.due(0));
        sup.begin_probe();
        assert!(!sup.due(u64::MAX), "no second dial while one is in flight");

        // a run of failures walks the capped backoff window
        let mut now = 0;
        let mut last_gap = 0;
        for _ in 0..6 {
            let retry_at = sup.on_failure(now);
            let gap = retry_at - now;
            assert!(gap <= 40, "gap {gap} above cap");
            assert!(!sup.due(retry_at - 1), "dial allowed before retry_at");
            assert!(sup.due(retry_at));
            now = retry_at;
            sup.begin_probe();
            last_gap = gap;
        }
        assert!(last_gap >= 20, "capped window should reach [cap/2, cap]");

        // success reports the outage's attempt count and resets the window
        let attempts = sup.on_established(3);
        assert_eq!(attempts, 7, "6 failed probes + the successful one");
        assert_eq!(sup.state(), LinkState::Connected { epoch: 3 });
        assert_eq!(sup.sessions(), 1);
        let retry_at = sup.on_failure(1_000);
        assert!(
            retry_at - 1_000 <= 10,
            "post-success backoff restarts at the first window"
        );

        // fencing is terminal: never due again
        sup.on_fenced(3);
        assert_eq!(sup.state(), LinkState::Fenced { epoch: 3 });
        assert!(!sup.due(u64::MAX));
    }
}
