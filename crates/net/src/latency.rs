//! Per-message latency models.

use oml_des::SimRng;
use serde::{Deserialize, Serialize};

/// How long one remote message takes.
///
/// The paper normalizes time "so that a remote object invocation \[message\]
/// has an exponentially distributed duration of 1" (§4.1); the other models
/// support deterministic unit tests and sensitivity ablations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LatencyModel {
    /// Exponentially distributed with the given mean (the paper's model).
    Exponential {
        /// Mean message duration.
        mean: f64,
    },
    /// Every message takes exactly `value` (useful to compare the simulator
    /// against the §3.2 closed-form costs).
    Deterministic {
        /// Fixed message duration.
        value: f64,
    },
    /// A fixed propagation `offset` plus an exponential queueing component —
    /// a coarse model of a network with background load (§4.1 assumes the
    /// object system shares the network with other applications).
    ShiftedExponential {
        /// Deterministic propagation component.
        offset: f64,
        /// Mean of the exponential queueing component.
        mean: f64,
    },
}

/// A latency model whose parameters cannot describe a distribution —
/// reported by [`LatencyModel::validate`] at *construction* time (e.g. by
/// [`crate::Network::try_new`]), not hours into a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidLatency(String);

impl std::fmt::Display for InvalidLatency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid latency model: {}", self.0)
    }
}

impl std::error::Error for InvalidLatency {}

impl LatencyModel {
    /// Checks the model's parameters: means, values and offsets must be
    /// finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLatency`] describing the offending parameter.
    pub fn validate(&self) -> Result<(), InvalidLatency> {
        let ok = |x: f64| x.is_finite() && x >= 0.0;
        match *self {
            LatencyModel::Exponential { mean } => ok(mean)
                .then_some(())
                .ok_or_else(|| InvalidLatency(format!("exponential mean {mean}"))),
            LatencyModel::Deterministic { value } => ok(value)
                .then_some(())
                .ok_or_else(|| InvalidLatency(format!("deterministic value {value}"))),
            LatencyModel::ShiftedExponential { offset, mean } => {
                (ok(offset) && ok(mean)).then_some(()).ok_or_else(|| {
                    InvalidLatency(format!("shifted-exponential offset {offset} / mean {mean}"))
                })
            }
        }
    }

    /// Draws one message duration.
    ///
    /// Parameters are checked by [`LatencyModel::validate`] when the model
    /// enters a [`crate::Network`]; here only a debug assertion remains, so
    /// an unvalidated model cannot panic a release-mode simulation
    /// mid-flight.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        debug_assert!(self.validate().is_ok(), "{:?}", self.validate());
        match *self {
            LatencyModel::Exponential { mean } => rng.exp(mean),
            LatencyModel::Deterministic { value } => value,
            LatencyModel::ShiftedExponential { offset, mean } => offset + rng.exp(mean),
        }
    }

    /// The expected message duration under this model.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            LatencyModel::Exponential { mean } => mean,
            LatencyModel::Deterministic { value } => value,
            LatencyModel::ShiftedExponential { offset, mean } => offset + mean,
        }
    }
}

impl Default for LatencyModel {
    /// The paper's normalization: Exp(1).
    fn default() -> Self {
        LatencyModel::Exponential { mean: 1.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_is_constant() {
        let m = LatencyModel::Deterministic { value: 2.5 };
        let mut rng = SimRng::seed_from(0);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), 2.5);
        }
        assert_eq!(m.mean(), 2.5);
    }

    #[test]
    fn exponential_mean_matches() {
        let m = LatencyModel::default();
        assert_eq!(m.mean(), 1.0);
        let mut rng = SimRng::seed_from(8);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| m.sample(&mut rng)).sum();
        assert!((sum / n as f64 - 1.0).abs() < 0.02);
    }

    #[test]
    fn invalid_models_fail_validation_at_construction() {
        let bad = [
            LatencyModel::Exponential { mean: -1.0 },
            LatencyModel::Deterministic { value: f64::NAN },
            LatencyModel::ShiftedExponential {
                offset: f64::INFINITY,
                mean: 1.0,
            },
        ];
        for m in bad {
            let err = m.validate().unwrap_err();
            assert!(err.to_string().contains("invalid latency model"), "{err}");
        }
        assert!(LatencyModel::default().validate().is_ok());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exponential mean")]
    fn negative_mean_panics_in_debug_sampling() {
        // the release-mode contract is validate-at-construction; in debug
        // builds sampling an unvalidated model still trips an assertion
        let mut rng = SimRng::seed_from(0);
        let _ = LatencyModel::Exponential { mean: -1.0 }.sample(&mut rng);
    }

    #[test]
    fn shifted_exponential_respects_offset_and_mean() {
        let m = LatencyModel::ShiftedExponential {
            offset: 0.5,
            mean: 1.5,
        };
        assert_eq!(m.mean(), 2.0);
        let mut rng = SimRng::seed_from(12);
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = m.sample(&mut rng);
            assert!(x >= 0.5, "never below the propagation floor");
            sum += x;
        }
        assert!((sum / n as f64 - 2.0).abs() < 0.03);
    }
}
