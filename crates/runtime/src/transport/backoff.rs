//! Capped exponential backoff with deterministic jitter: the schedule
//! [`super::socket`]'s dial loop redials under.
//!
//! A **pure state machine** — no clock inside, the caller adds each delay
//! to its own `now` — so the growth, the cap and the reset after a
//! successful dial are tested without sleeping.
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
pub(crate) struct Backoff {
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
    pub(crate) fn next_delay_ms(&mut self) -> u64 {
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

    /// Clears the schedule after a successful connection. The jitter
    /// stream is **not** rewound — determinism is per seed over the whole
    /// lifetime, not per outage.
    pub fn reset(&mut self) {
        self.attempt = 0;
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
}
