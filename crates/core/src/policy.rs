//! The migration-policy interface shared by the simulator and the runtime.
//!
//! A policy is interpreted *at the node of the callee* (§3.1, Fig. 3): the
//! substrate forwards `move()`-requests to the object's current location and
//! asks the policy what to do, instead of blindly executing the migration.
//! This file defines that conversation; the concrete policies live in
//! [`crate::policies`].

use crate::ids::{BlockId, NodeId, ObjectId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A `move()`-request as seen by the policy at the object's current node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoveRequest {
    /// The object the move names.
    pub object: ObjectId,
    /// The object's current node — where the request is being interpreted.
    pub at: NodeId,
    /// The requester's node (the move's target).
    pub from: NodeId,
    /// The move-block on whose behalf the request was issued.
    pub block: BlockId,
}

/// The policy's answer to a move-request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveDecision {
    /// Honour the request: migrate the object (and its attachment closure)
    /// to the requester — or, if it is already there, leave it and report
    /// success. The substrate calls [`MovePolicy::on_installed`] once the
    /// object is in place.
    Grant,
    /// Refuse: the object stays put and the requester receives a denial
    /// indication; its subsequent calls are forwarded to the object (§3.2).
    Deny,
}

/// An `end`-request: the block that issued a move has completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndRequest {
    /// The object the original move named.
    pub object: ObjectId,
    /// The object's current node when the end is processed.
    pub at: NodeId,
    /// The node of the block that ends.
    pub from: NodeId,
    /// The ending block.
    pub block: BlockId,
    /// Whether this block's move had been granted.
    pub was_granted: bool,
}

/// What the policy wants done after an end-request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndAction {
    /// Nothing — the common case.
    None,
    /// Proactively migrate the object to the given node ("comparing and
    /// reinstantiation", §4.3: an end-request may reveal that some other node
    /// now holds a clear majority of open move-requests).
    Migrate(NodeId),
}

/// A migration-control policy, interpreted at the object's current node.
///
/// Implementations must be deterministic functions of the request stream:
/// both substrates replay identical streams in tests and expect identical
/// decisions.
pub trait MovePolicy: fmt::Debug + Send {
    /// Which built-in policy this is (for reporting).
    fn kind(&self) -> PolicyKind;

    /// Whether applications should issue `move()`-requests at all. The
    /// sedentary baseline returns `false`: its applications never attempt
    /// migration (and therefore never pay for move messages).
    fn uses_move_requests(&self) -> bool {
        true
    }

    /// Decide a move-request.
    fn on_move(&mut self, req: &MoveRequest) -> MoveDecision;

    /// The object is installed at `node` on behalf of the granted `block`
    /// (either after a completed migration or immediately, when it already
    /// was local). Placement-style policies take their lock here.
    fn on_installed(&mut self, object: ObjectId, node: NodeId, block: BlockId);

    /// Process an end-request.
    fn on_end(&mut self, req: &EndRequest) -> EndAction;

    /// The object landed at `node` for any reason (granted move or
    /// policy-initiated migration). Dynamic policies may update their notion
    /// of the object's location here; the default does nothing.
    fn on_arrival(&mut self, object: ObjectId, node: NodeId) {
        let _ = (object, node);
    }

    /// Whether the policy currently pins `object` in place. A pinned object
    /// is "sedentary as long as the block … completes" (§3.2): it is not
    /// dragged along when another object's attachment closure migrates.
    /// Defaults to `false`; transient placement reports its locks here.
    fn is_pinned(&self, object: ObjectId) -> bool {
        let _ = object;
        false
    }

    /// Activity inside `object`'s granted block at time `now_ms`: policies
    /// whose locks are leases (see [`crate::lease::LeaseTable`]) extend the
    /// lease here. The default (and every lock-free policy) does nothing.
    fn renew_lease(&mut self, object: ObjectId, now_ms: u64) {
        let _ = (object, now_ms);
    }

    /// Advances the policy's lease clock to `now_ms` and releases locks
    /// whose leases ran out — the recovery path when a holder crashed or
    /// its end-request was lost. Returns the `(object, block)` pairs that
    /// expired. Lock-free policies (and lock tables without a TTL) return
    /// nothing.
    fn expire_leases(&mut self, now_ms: u64) -> Vec<(ObjectId, BlockId)> {
        let _ = now_ms;
        Vec::new()
    }

    /// The lease TTL of this policy's placement locks: `Some(ms)` when its
    /// locks expire after `ms` of inactivity, `None` for never-expiring
    /// locks and lock-free policies. Diagnostics and trace instrumentation
    /// read this; it never influences decisions.
    fn lease_ttl_ms(&self) -> Option<u64> {
        None
    }

    /// The node hosting `objects` crashed. Placement locks on those objects
    /// were volatile state of the dead host: the blocks that held them ran
    /// there and their end-requests can never arrive, so the policy must
    /// release them now rather than leave the objects locked until lease
    /// expiry (or forever, without a TTL). Returns the `(object, block)`
    /// pairs actually released. Lock-free policies release nothing.
    fn release_locks_for(&mut self, objects: &[ObjectId]) -> Vec<(ObjectId, BlockId)> {
        let _ = objects;
        Vec::new()
    }

    /// The placement locks currently held, for diagnostics and invariant
    /// checks. Lock-free policies return an empty list.
    fn held_locks(&self) -> Vec<(ObjectId, BlockId)> {
        Vec::new()
    }
}

/// The built-in policies, as data (serializable, usable in configs and on
/// the command line).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// "Without migration": objects never move (baseline in every figure).
    Sedentary,
    /// Conventional `move()`: every request migrates immediately (§2.3).
    ConventionalMigration,
    /// Transient placement: migrate-if-unlocked (§3.2).
    TransientPlacement,
    /// Dynamic: keep the object where the most open move-requests are
    /// ("comparing the nodes", §4.3).
    CompareNodes,
    /// Dynamic: additionally re-migrate on end-requests when another node
    /// holds a clear majority ("comparing and reinstantiation", §4.3).
    CompareAndReinstantiate,
}

impl PolicyKind {
    /// All built-in policies, in presentation order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Sedentary,
        PolicyKind::ConventionalMigration,
        PolicyKind::TransientPlacement,
        PolicyKind::CompareNodes,
        PolicyKind::CompareAndReinstantiate,
    ];

    /// Instantiates the policy.
    #[must_use]
    pub fn build(self) -> Box<dyn MovePolicy> {
        use crate::policies::*;
        match self {
            PolicyKind::Sedentary => Box::new(Sedentary::new()),
            PolicyKind::ConventionalMigration => Box::new(ConventionalMigration::new()),
            PolicyKind::TransientPlacement => Box::new(TransientPlacement::new()),
            PolicyKind::CompareNodes => Box::new(CompareNodes::<false>::new()),
            PolicyKind::CompareAndReinstantiate => Box::new(CompareAndReinstantiate::new()),
        }
    }

    /// Instantiates the policy with lease-based locks expiring after
    /// `ttl_ms` of inactivity (the fault-tolerant runtime's configuration).
    /// Policies without locks ignore the TTL.
    ///
    /// # Panics
    ///
    /// Panics if `ttl_ms` is zero.
    #[must_use]
    pub fn build_with_lease(self, ttl_ms: u64) -> Box<dyn MovePolicy> {
        use crate::policies::*;
        match self {
            PolicyKind::Sedentary => Box::new(Sedentary::new()),
            PolicyKind::ConventionalMigration => Box::new(ConventionalMigration::new()),
            PolicyKind::TransientPlacement => Box::new(TransientPlacement::with_lease_ms(ttl_ms)),
            PolicyKind::CompareNodes => Box::new(CompareNodes::<false>::with_lease_ms(ttl_ms)),
            PolicyKind::CompareAndReinstantiate => {
                Box::new(CompareAndReinstantiate::with_lease_ms(ttl_ms))
            }
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PolicyKind::Sedentary => "sedentary",
            PolicyKind::ConventionalMigration => "migration",
            PolicyKind::TransientPlacement => "placement",
            PolicyKind::CompareNodes => "compare-nodes",
            PolicyKind::CompareAndReinstantiate => "compare-reinstantiate",
        };
        f.write_str(s)
    }
}

/// Error returned when parsing an unknown policy name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError(String);

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown policy `{}` (expected one of: sedentary, migration, placement, compare-nodes, compare-reinstantiate)",
            self.0
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for PolicyKind {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sedentary" | "without-migration" | "fixed" => Ok(PolicyKind::Sedentary),
            "migration" | "conventional" | "move" => Ok(PolicyKind::ConventionalMigration),
            "placement" | "transient-placement" | "place" => Ok(PolicyKind::TransientPlacement),
            "compare-nodes" | "comparing" => Ok(PolicyKind::CompareNodes),
            "compare-reinstantiate" | "reinstantiate" => Ok(PolicyKind::CompareAndReinstantiate),
            other => Err(ParsePolicyError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_matching_policies() {
        for kind in PolicyKind::ALL {
            let policy = kind.build();
            assert_eq!(policy.kind(), kind);
        }
    }

    #[test]
    fn display_and_parse_round_trip() {
        for kind in PolicyKind::ALL {
            let s = kind.to_string();
            assert_eq!(s.parse::<PolicyKind>().unwrap(), kind);
        }
    }

    #[test]
    fn parse_accepts_aliases_and_rejects_junk() {
        assert_eq!(
            "move".parse::<PolicyKind>().unwrap(),
            PolicyKind::ConventionalMigration
        );
        assert_eq!(
            "place".parse::<PolicyKind>().unwrap(),
            PolicyKind::TransientPlacement
        );
        let err = "bogus".parse::<PolicyKind>().unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn only_sedentary_skips_move_requests() {
        for kind in PolicyKind::ALL {
            let policy = kind.build();
            assert_eq!(
                policy.uses_move_requests(),
                kind != PolicyKind::Sedentary,
                "{kind}"
            );
        }
    }
}
