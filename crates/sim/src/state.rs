//! Mutable state of objects, clients, move-blocks, calls and migrations.

use crate::event::Leg;
use oml_core::ids::{AllianceId, BlockId, ClientId, NodeId, ObjectId};
use oml_core::object::ObjectDescriptor;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Where an object currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// Installed and operational at a node.
    At(NodeId),
    /// Linearized and on the wire: "an object that is linearized and
    /// transferred over the net can not perform any operation until it is
    /// reinstalled at the target node" (§4.1).
    InTransit {
        /// Destination node.
        to: NodeId,
        /// The migration carrying it.
        migration: u64,
    },
}

impl Location {
    /// The node the object is installed at, or `None` while in transit.
    #[must_use]
    pub fn node(self) -> Option<NodeId> {
        match self {
            Location::At(n) => Some(n),
            Location::InTransit { .. } => None,
        }
    }
}

/// A call waiting for an in-transit object.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockedCall {
    /// Dense call index.
    pub call: u64,
    /// Which leg was trying to reach the object.
    pub leg: Leg,
    /// The node the message was waiting at.
    pub from: NodeId,
}

/// An end-request that reached an in-transit object and waits for landing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueuedEnd {
    /// The ending block.
    pub block: BlockId,
    /// The ending block's node.
    pub from: NodeId,
    /// Whether that block's move had been granted.
    pub was_granted: bool,
}

/// Dynamic state of one object.
#[derive(Debug)]
pub(crate) struct ObjectState {
    /// Static properties.
    pub descriptor: ObjectDescriptor,
    /// Current location.
    pub location: Location,
    /// The cooperation context in which moves of this object are invoked
    /// (determines the A-transitive closure, §3.4).
    pub move_context: Option<AllianceId>,
    /// Second-layer working set this object calls into (Fig. 7); empty for
    /// leaf servers.
    pub nested_targets: Vec<ObjectId>,
    /// Move-requests that arrived while the object was in transit.
    pub queued_moves: VecDeque<BlockId>,
    /// End-requests that arrived while the object was in transit.
    pub queued_ends: Vec<QueuedEnd>,
    /// Calls blocked on the transit.
    pub blocked_calls: Vec<BlockedCall>,
}

impl ObjectState {
    /// Creates the state for a freshly installed object.
    #[must_use]
    pub fn new(descriptor: ObjectDescriptor) -> Self {
        let home = descriptor.home;
        ObjectState {
            descriptor,
            location: Location::At(home),
            move_context: None,
            nested_targets: Vec::new(),
            queued_moves: VecDeque::new(),
            queued_ends: Vec::new(),
            blocked_calls: Vec::new(),
        }
    }

    /// The node the object is installed at, if not in transit.
    #[must_use]
    pub fn node(&self) -> Option<NodeId> {
        self.location.node()
    }
}

/// Workload parameters of one client (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockParams {
    /// Mean number of calls in a move-block (`N`, exponentially distributed,
    /// at least 1 per block).
    pub mean_calls: f64,
    /// Mean time between two calls in a block (`t_i`).
    pub mean_think: f64,
    /// Mean time between two move-blocks (`t_m`).
    pub mean_gap: f64,
}

impl BlockParams {
    /// The parameter set shared by Figs. 8–14: `N ~ exp(8)`, `t_i ~ exp(1)`.
    #[must_use]
    pub fn paper(mean_gap: f64) -> Self {
        BlockParams {
            mean_calls: 8.0,
            mean_think: 1.0,
            mean_gap,
        }
    }
}

/// How invocations find a moved object (§4.1 cites four alternatives whose
/// "effects … we neglected"; this makes the claim testable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LocationMechanism {
    /// Every sender always knows the current location — location updates
    /// propagate immediately (\[Dec86\]'s distributed object manager). The
    /// paper's effective model; the default.
    #[default]
    ImmediateUpdate,
    /// Senders use a per-node location cache; a message arriving where the
    /// object used to be follows the chain of forwarding pointers the
    /// object left behind (\[JLH+88\], Emerald).
    ForwardAddressing,
    /// A stale delivery asks a dedicated name-server node for the current
    /// location and is re-sent there (\[ChC91\]): two extra messages per
    /// recovery.
    NameServer {
        /// The node hosting the name server.
        node: NodeId,
    },
    /// A stale delivery broadcasts a location query; the owner answers and
    /// the message is re-sent (\[DLA+91\], Clouds): two extra message
    /// latencies per recovery.
    Broadcast,
}

/// Whether a block migrates the object back when it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BlockFlavor {
    /// `move`: a one-way migration tied to the block (the figures use this).
    #[default]
    Move,
    /// `visit`: "the combination of a move and a migrate back" (§2.3).
    Visit,
}

/// Dynamic state of one client.
#[derive(Debug)]
pub struct ClientState {
    /// The node the client is pinned to (clients are sedentary, §4.1).
    pub node: NodeId,
    /// First-layer servers this client uses (one is picked per block).
    pub servers: Vec<ObjectId>,
    /// Workload parameters.
    pub params: BlockParams,
    /// Block flavor issued by this client.
    pub flavor: BlockFlavor,
    /// Blocks completed so far.
    pub blocks_completed: u64,
}

/// Dynamic state of one move-block.
#[derive(Debug)]
pub struct BlockState {
    /// The issuing client.
    pub client: ClientId,
    /// The client's node.
    pub client_node: NodeId,
    /// The first-layer server the block works on.
    pub target: ObjectId,
    /// Number of calls this block will perform.
    pub n_calls: u64,
    /// Calls completed so far.
    pub calls_done: u64,
    /// Whether the move was granted (`None` until the outcome arrives;
    /// sedentary blocks are `Some(false)` from the start).
    pub granted: Option<bool>,
    /// Whether a move-request was issued at all.
    pub issued_move: bool,
    /// Where the object was installed before this block's migration (for
    /// `visit` blocks' migrate-back).
    pub origin_node: Option<NodeId>,
    /// Migration cost attributed to this block (`M · size` per object the
    /// block's move dragged along).
    pub migration_cost: f64,
    /// Control-message time (move-request and denial indication) the block
    /// spent.
    pub control_cost: f64,
    /// Durations of the block's completed calls.
    pub call_durations: Vec<f64>,
}

impl BlockState {
    /// Creates a pending block.
    #[must_use]
    pub fn new(client: ClientId, client_node: NodeId, target: ObjectId, n_calls: u64) -> Self {
        BlockState {
            client,
            client_node,
            target,
            n_calls,
            calls_done: 0,
            granted: None,
            issued_move: false,
            origin_node: None,
            migration_cost: 0.0,
            control_cost: 0.0,
            call_durations: Vec::with_capacity(n_calls as usize),
        }
    }
}

/// Dynamic state of one in-flight invocation.
#[derive(Debug)]
pub(crate) struct CallState {
    /// The issuing block.
    pub block: BlockId,
    /// The client's node (where the result must return to).
    pub client_node: NodeId,
    /// The first-layer callee.
    pub target: ObjectId,
    /// The second-layer callee chosen for this invocation, if any.
    pub nested: Option<ObjectId>,
    /// When the call was issued.
    pub issued_at: f64,
    /// Where the first-layer execution happened (return address for the
    /// nested result).
    pub exec_node: Option<NodeId>,
    /// Whether this call ever blocked on an in-transit object.
    pub ever_blocked: bool,
}

/// One migration in progress.
#[derive(Debug)]
pub struct MigrationState {
    /// The named object the move-request was about.
    pub main: ObjectId,
    /// Objects actually in transit (movable closure members not already at
    /// the destination).
    pub movers: Vec<ObjectId>,
    /// Destination node.
    pub to: NodeId,
    /// The block whose granted move caused this migration (`None` for
    /// policy-initiated reinstantiation).
    pub block: Option<BlockId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_node_extraction() {
        assert_eq!(Location::At(NodeId::new(3)).node(), Some(NodeId::new(3)));
        assert_eq!(
            Location::InTransit {
                to: NodeId::new(1),
                migration: 0
            }
            .node(),
            None
        );
    }

    #[test]
    fn object_state_starts_at_home() {
        let d = ObjectDescriptor::new(ObjectId::new(0), NodeId::new(5));
        let s = ObjectState::new(d);
        assert_eq!(s.node(), Some(NodeId::new(5)));
        assert!(s.queued_moves.is_empty());
        assert!(s.blocked_calls.is_empty());
    }

    #[test]
    fn paper_params() {
        let p = BlockParams::paper(30.0);
        assert_eq!(p.mean_calls, 8.0);
        assert_eq!(p.mean_think, 1.0);
        assert_eq!(p.mean_gap, 30.0);
    }

    #[test]
    fn block_state_initialization() {
        let b = BlockState::new(ClientId::new(2), NodeId::new(3), ObjectId::new(4), 7);
        assert_eq!(b.n_calls, 7);
        assert_eq!(b.calls_done, 0);
        assert!(b.granted.is_none());
        assert!(!b.issued_move);
    }

    #[test]
    fn default_flavor_is_move() {
        assert_eq!(BlockFlavor::default(), BlockFlavor::Move);
    }
}
