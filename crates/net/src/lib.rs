//! # oml-net — network substrate for the object-migration simulator
//!
//! The paper's evaluation (§4.1) assumes a **fully connected network** whose
//! messages have exponentially distributed duration with mean 1, and notes
//! that "we also performed simulations for other structures. But this had no
//! effects on the results." This crate provides both:
//!
//! * [`topology::Topology`] — full mesh plus the alternative structures used
//!   for the robustness ablation (star, ring, line),
//! * [`latency::LatencyModel`] — exponential (the paper's model),
//!   deterministic and shifted-exponential per-message durations,
//! * [`Network`] — the combination: sample the delay of one message between
//!   two nodes. The delay is flat: a remote message costs one sample however
//!   many hops its route takes, so a topology matters only through which
//!   pairs are local.
//!
//! Saturation effects are deliberately absent: the object system "is assumed
//! to run concurrently with other applications", so its own traffic never
//! congests a link (§4.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::pedantic)]
// topology math casts between indices, counts and distances; the rest are
// deliberate style choices
#![allow(
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    clippy::doc_markdown,
    clippy::elidable_lifetime_names,
    clippy::float_cmp,
    clippy::items_after_statements,
    clippy::manual_midpoint,
    clippy::missing_panics_doc,
    clippy::must_use_candidate,
    clippy::return_self_not_must_use,
    clippy::unreadable_literal,
    clippy::wildcard_imports
)]

pub mod latency;
pub mod topology;

pub use latency::{InvalidLatency, LatencyModel};
pub use topology::Topology;

use oml_core::ids::NodeId;
use oml_des::SimRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Message-loss faults for the simulated network.
///
/// The model is **loss with retransmission**: each remote message is lost
/// with `loss_probability`; every lost attempt costs the sender one
/// `retransmit_timeout` before the re-send, and the attempt that finally
/// gets through pays the normal sampled latency. (The simulator's virtual
/// "transport" retransmits forever, so messages are delayed, never
/// dropped — the paper's protocols assume reliable messaging, and this
/// keeps them comparable under degraded networks.)
///
/// Local (same-node) messages cannot be lost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that one message transmission attempt is lost.
    pub loss_probability: f64,
    /// Virtual time the sender waits before retransmitting a lost message.
    pub retransmit_timeout: f64,
}

/// An unusable [`FaultConfig`], reported at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidFaultConfig(String);

impl fmt::Display for InvalidFaultConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault config: {}", self.0)
    }
}

impl std::error::Error for InvalidFaultConfig {}

impl FaultConfig {
    /// A fault-free network (the default).
    #[must_use]
    pub fn none() -> Self {
        FaultConfig {
            loss_probability: 0.0,
            retransmit_timeout: 0.0,
        }
    }

    /// A validated loss model.
    ///
    /// # Errors
    ///
    /// `loss_probability` must lie in `[0, 1)` (a probability of 1 would
    /// retransmit forever) and `retransmit_timeout` must be finite,
    /// non-negative, and positive whenever loss is possible.
    pub fn new(loss_probability: f64, retransmit_timeout: f64) -> Result<Self, InvalidFaultConfig> {
        if !(0.0..1.0).contains(&loss_probability) {
            return Err(InvalidFaultConfig(format!(
                "loss probability {loss_probability} outside [0, 1)"
            )));
        }
        if !retransmit_timeout.is_finite() || retransmit_timeout < 0.0 {
            return Err(InvalidFaultConfig(format!(
                "retransmit timeout {retransmit_timeout} not a finite non-negative duration"
            )));
        }
        if loss_probability > 0.0 && retransmit_timeout == 0.0 {
            return Err(InvalidFaultConfig(
                "lossy network needs a positive retransmit timeout".to_owned(),
            ));
        }
        Ok(FaultConfig {
            loss_probability,
            retransmit_timeout,
        })
    }

    /// Whether this config injects nothing.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.loss_probability == 0.0
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// A network: a topology plus a latency model.
///
/// # Example
///
/// ```
/// use oml_net::{LatencyModel, Network, Topology};
/// use oml_core::ids::NodeId;
/// use oml_des::SimRng;
///
/// let net = Network::paper(3);
/// let mut rng = SimRng::seed_from(1);
/// // local messages are free…
/// assert_eq!(net.message_delay(NodeId::new(0), NodeId::new(0), &mut rng), 0.0);
/// // …remote ones cost a (random, mean-1) duration.
/// assert!(net.message_delay(NodeId::new(0), NodeId::new(1), &mut rng) >= 0.0);
/// assert_eq!(net.topology(), &Topology::FullMesh { nodes: 3 });
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    topology: Topology,
    latency: LatencyModel,
    /// Message-loss model; [`FaultConfig::none`] by default.
    #[serde(default)]
    faults: FaultConfig,
}

impl Network {
    /// Creates a network from a topology and a latency model.
    ///
    /// # Panics
    ///
    /// Panics if the latency model's parameters are invalid — use
    /// [`Network::try_new`] to handle that gracefully.
    #[must_use]
    pub fn new(topology: Topology, latency: LatencyModel) -> Self {
        Network::try_new(topology, latency).expect("invalid latency model")
    }

    /// Creates a network, validating the latency model at construction
    /// instead of panicking mid-simulation.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLatency`] for non-finite or negative parameters.
    pub fn try_new(topology: Topology, latency: LatencyModel) -> Result<Self, InvalidLatency> {
        latency.validate()?;
        Ok(Network {
            topology,
            latency,
            faults: FaultConfig::none(),
        })
    }

    /// The paper's network: a full mesh of `nodes` with Exp(1) messages.
    #[must_use]
    pub fn paper(nodes: u32) -> Self {
        Network::new(
            Topology::FullMesh { nodes },
            LatencyModel::Exponential { mean: 1.0 },
        )
    }

    /// Builder-style: installs a message-loss model (see [`FaultConfig`]).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// The installed loss model.
    #[must_use]
    pub fn faults(&self) -> &FaultConfig {
        &self.faults
    }

    /// The topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The latency model.
    #[must_use]
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.topology.len()
    }

    /// Whether the network has no nodes (never true for valid topologies).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.topology.len() == 0
    }

    /// Samples the duration of one message from `from` to `to`: one draw of
    /// the latency model for any remote pair, whatever its hop count.
    ///
    /// Local messages (same node) take zero time — local actions are "about
    /// 4 orders of magnitude below the duration of a remote action" (§4.1)
    /// and are neglected, exactly as in the paper.
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the topology.
    pub fn message_delay(&self, from: NodeId, to: NodeId, rng: &mut SimRng) -> f64 {
        if self.topology.hops(from, to) == 0 {
            return 0.0;
        }
        let base = self.latency.sample(rng);
        if self.faults.is_noop() {
            // no extra RNG draws: fault-free runs keep their exact
            // pre-fault random streams (and their published figures)
            return base;
        }
        // geometric retransmissions: every lost attempt costs one timeout
        let mut penalty = 0.0;
        while rng.unit() < self.faults.loss_probability {
            penalty += self.faults.retransmit_timeout;
        }
        base + penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_network_properties() {
        let net = Network::paper(27);
        assert_eq!(net.len(), 27);
        assert!(!net.is_empty());
        assert_eq!(net.latency(), &LatencyModel::Exponential { mean: 1.0 });
    }

    #[test]
    fn local_messages_are_free() {
        let net = Network::paper(4);
        let mut rng = SimRng::seed_from(0);
        for i in 0..4 {
            assert_eq!(
                net.message_delay(NodeId::new(i), NodeId::new(i), &mut rng),
                0.0
            );
        }
    }

    #[test]
    fn remote_messages_have_mean_one() {
        let net = Network::paper(2);
        let mut rng = SimRng::seed_from(9);
        let n = 100_000;
        let total: f64 = (0..n)
            .map(|_| net.message_delay(NodeId::new(0), NodeId::new(1), &mut rng))
            .sum();
        let mean = total / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn fault_config_validates_its_parameters() {
        assert!(FaultConfig::new(0.1, 4.0).is_ok());
        assert!(FaultConfig::new(0.0, 0.0).is_ok());
        assert!(FaultConfig::new(1.0, 4.0).is_err(), "p=1 never delivers");
        assert!(FaultConfig::new(-0.1, 4.0).is_err());
        assert!(FaultConfig::new(0.1, 0.0).is_err(), "loss needs a timeout");
        assert!(FaultConfig::new(0.1, f64::NAN).is_err());
        assert!(FaultConfig::none().is_noop());
    }

    #[test]
    fn try_new_rejects_invalid_latency() {
        let err = Network::try_new(
            Topology::FullMesh { nodes: 2 },
            LatencyModel::Exponential { mean: -1.0 },
        )
        .unwrap_err();
        assert!(err.to_string().contains("exponential mean"), "{err}");
    }

    #[test]
    fn message_loss_adds_retransmit_penalties() {
        let loss = 0.25;
        let timeout = 4.0;
        let net = Network::new(
            Topology::FullMesh { nodes: 2 },
            LatencyModel::Deterministic { value: 1.0 },
        )
        .with_faults(FaultConfig::new(loss, timeout).unwrap());
        let mut rng = SimRng::seed_from(3);
        let n = 50_000;
        let total: f64 = (0..n)
            .map(|_| net.message_delay(NodeId::new(0), NodeId::new(1), &mut rng))
            .sum();
        // E[delay] = 1 + timeout * p/(1-p) — the mean of the geometric
        // retransmission count times the timeout
        let expected = 1.0 + timeout * loss / (1.0 - loss);
        let mean = total / n as f64;
        assert!((mean - expected).abs() < 0.05, "mean {mean} vs {expected}");
        // local messages never pay the loss penalty
        assert_eq!(
            net.message_delay(NodeId::new(0), NodeId::new(0), &mut rng),
            0.0
        );
    }

    #[test]
    fn noop_faults_leave_the_random_stream_untouched() {
        let plain = Network::paper(3);
        let with_noop = Network::paper(3).with_faults(FaultConfig::none());
        let mut r1 = SimRng::seed_from(7);
        let mut r2 = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(
                plain.message_delay(NodeId::new(0), NodeId::new(1), &mut r1),
                with_noop.message_delay(NodeId::new(0), NodeId::new(1), &mut r2)
            );
        }
    }

    #[test]
    fn distance_does_not_scale_the_delay() {
        let net = Network::new(
            Topology::Ring { nodes: 8 },
            LatencyModel::Deterministic { value: 2.0 },
        );
        let mut rng = SimRng::seed_from(0);
        assert_eq!(
            net.message_delay(NodeId::new(0), NodeId::new(4), &mut rng),
            2.0
        );
    }
}
