//! The scheduler seam: when a routed control message reaches its
//! destination's queue, and how often each node's maintenance tick
//! (heartbeat, lease sweep) falls due on the cluster's timer heap. Both are
//! decided by a [`ScheduleSource`], so they can be observed or steered
//! without touching the transport: the default `FreeRun` hands every
//! message over at once and ticks every 25 ms, while a test harness can
//! delay chosen edges or stretch ticks. A delayed message waits on the
//! timer heap, so under a manual clock it arrives when the clock reaches
//! it, on the thread that advances the clock.
//!
//! Install a custom source with
//! [`ClusterBuilder::schedule_source`](crate::ClusterBuilder::schedule_source).

use std::fmt;
use std::time::Duration;

use oml_core::ids::NodeId;

/// The node tick period of the free-running schedule (and the default for
/// any source that does not override [`ScheduleSource::tick`]).
pub(crate) const DEFAULT_TICK: Duration = Duration::from_millis(25);

/// What the transport should do with one routed message hand-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendAction {
    /// Hand the message to the destination queue immediately (the default).
    Deliver,
    /// Hold the message for this long before handing it over. Composes with
    /// fault-injected delays by taking the larger of the two.
    Delay(Duration),
}

/// A source of scheduling decisions for the cluster's message hand-offs and
/// node ticks.
///
/// Implementations must be cheap and lock-free where possible: `on_send`
/// runs on every routed message, inside the sender's hot path.
pub trait ScheduleSource: Send + Sync + fmt::Debug {
    /// Decides one message hand-off from process `from` (a raw node id, or
    /// `u32::MAX` for the client facade) towards node `to`. Called after
    /// fault injection has decided the message survives.
    fn on_send(&self, from: u32, to: NodeId) -> SendAction {
        let _ = (from, to);
        SendAction::Deliver
    }

    /// The period of node `node`'s tick on the cluster's timer heap: its
    /// maintenance (heartbeat, lease expiry), on a grid shared by all nodes.
    /// 25 ms unless overridden.
    fn tick(&self, node: NodeId) -> Duration {
        let _ = node;
        DEFAULT_TICK
    }
}

/// The threads-and-channels default: every hand-off is immediate and every
/// node ticks at [`DEFAULT_TICK`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FreeRun;

impl ScheduleSource for FreeRun {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_run_is_pass_through() {
        let s = FreeRun;
        assert_eq!(s.on_send(0, NodeId::new(1)), SendAction::Deliver);
        assert_eq!(s.tick(NodeId::new(0)), DEFAULT_TICK);
    }
}
