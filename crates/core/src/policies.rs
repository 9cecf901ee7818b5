//! The five built-in migration policies.
//!
//! | Policy | Paper | Character |
//! |---|---|---|
//! | [`Sedentary`] | baseline | never migrate |
//! | [`ConventionalMigration`] | §2.3 | always migrate (aggressive) |
//! | [`TransientPlacement`] | §3.2 | migrate-if-unlocked (conservative) |
//! | [`CompareNodes`] | §4.3 | follow the node with most open moves |
//! | [`CompareAndReinstantiate`] | §4.3 | …and re-migrate on end-requests |
//!
//! The dynamic pair sit "between the extremes" of conventional migration and
//! placement: they trade extra bookkeeping (per-node open-move counters that
//! must travel with the object, §3.3) for slightly better locations. The
//! paper's — and this reproduction's — finding is that the trade is rarely
//! worth it.

use crate::ids::{BlockId, NodeId, ObjectId};
use crate::lease::LeaseTable;
use crate::policy::{EndAction, EndRequest, MoveDecision, MovePolicy, MoveRequest, PolicyKind};

/// The "without migration" baseline: every object is treated as sedentary.
///
/// Applications written against this policy do not even issue
/// `move()`-requests ([`MovePolicy::uses_move_requests`] is `false`), so the
/// baseline pays pure remote-invocation cost — exactly the flat curves in
/// Figs. 8, 12 and 16.
#[derive(Debug, Clone, Default)]
pub struct Sedentary(());

impl Sedentary {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        Sedentary(())
    }
}

impl MovePolicy for Sedentary {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Sedentary
    }

    fn uses_move_requests(&self) -> bool {
        false
    }

    fn on_move(&mut self, _req: &MoveRequest) -> MoveDecision {
        // A stray move()-request (e.g. from a component that ignores the
        // system-wide policy) is refused.
        MoveDecision::Deny
    }

    fn on_installed(&mut self, _object: ObjectId, _node: NodeId, _block: BlockId) {}

    fn on_end(&mut self, _req: &EndRequest) -> EndAction {
        EndAction::None
    }
}

/// Conventional `move()` semantics: every request immediately migrates the
/// object, no questions asked (§2.3).
///
/// This is the policy that behaves well in monolithic systems and
/// catastrophically in non-monolithic ones: concurrent movers steal shared
/// objects from each other mid-block.
#[derive(Debug, Clone, Default)]
pub struct ConventionalMigration(());

impl ConventionalMigration {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        ConventionalMigration(())
    }
}

impl MovePolicy for ConventionalMigration {
    fn kind(&self) -> PolicyKind {
        PolicyKind::ConventionalMigration
    }

    fn on_move(&mut self, _req: &MoveRequest) -> MoveDecision {
        MoveDecision::Grant
    }

    fn on_installed(&mut self, _object: ObjectId, _node: NodeId, _block: BlockId) {}

    fn on_end(&mut self, _req: &EndRequest) -> EndAction {
        EndAction::None
    }
}

/// Transient placement (§3.2): the paper's conservative reinterpretation of
/// `move()`.
///
/// The first move-request migrates the object and **locks** it at the target
/// ("a locked object is sedentary as long as the block or operation completes
/// to which the move()-primitive is tied"). Conflicting requests are denied
/// with an indication; the corresponding `end` is then simply ignored. The
/// lock is released by the holder's `end`-request, which is always a local
/// operation.
///
/// The locks live in a [`LeaseTable`]. Built with
/// [`TransientPlacement::new`] they never expire — the failure-free §3.2
/// semantics. Built with [`TransientPlacement::with_lease_ms`] each lock is
/// a lease renewed by activity ([`MovePolicy::renew_lease`]) and reclaimed
/// after silence ([`MovePolicy::expire_leases`]): the end-request is the
/// fast release path, expiry the recovery path when the holder crashed or
/// its end-request was lost.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct TransientPlacement {
    locks: LeaseTable,
}

impl TransientPlacement {
    /// Creates the policy with no locks held and no lease expiry.
    #[must_use]
    pub fn new() -> Self {
        TransientPlacement::default()
    }

    /// Creates the policy whose locks expire after `ttl_ms` of inactivity.
    ///
    /// # Panics
    ///
    /// Panics if `ttl_ms` is zero.
    #[must_use]
    pub fn with_lease_ms(ttl_ms: u64) -> Self {
        TransientPlacement {
            locks: LeaseTable::with_ttl_ms(ttl_ms),
        }
    }

    /// The block currently holding `object` in place, if any.
    #[must_use]
    pub fn lock_holder(&self, object: ObjectId) -> Option<BlockId> {
        self.locks.holder(object)
    }

    /// When the next [`MovePolicy::expire_leases`] has a lock to reclaim
    /// (see [`LeaseTable::next_expiry_ms`]).
    #[must_use]
    pub fn next_lease_expiry_ms(&self) -> Option<u64> {
        self.locks.next_expiry_ms()
    }
}

impl MovePolicy for TransientPlacement {
    fn kind(&self) -> PolicyKind {
        PolicyKind::TransientPlacement
    }

    fn on_move(&mut self, req: &MoveRequest) -> MoveDecision {
        if self.locks.holder(req.object).is_some() {
            MoveDecision::Deny
        } else {
            MoveDecision::Grant
        }
    }

    fn on_installed(&mut self, object: ObjectId, _node: NodeId, block: BlockId) {
        let previous = self.locks.acquire_now(object, block);
        debug_assert!(
            previous.is_none(),
            "placement granted {object} to {block} while still locked by {previous:?}"
        );
    }

    fn on_end(&mut self, req: &EndRequest) -> EndAction {
        if req.was_granted {
            // Only the live holder releases; a duplicate or stale
            // end-request (possible under message faults, after the lease
            // recovery path already freed the object) is a no-op.
            let _ = self.locks.release(req.object, req.block);
        }
        // An end after a denial "is simply ignored, as nothing has to be
        // done" (§3.2).
        EndAction::None
    }

    fn is_pinned(&self, object: ObjectId) -> bool {
        self.locks.holder(object).is_some()
    }

    fn lease_ttl_ms(&self) -> Option<u64> {
        self.locks.ttl_ms()
    }

    fn renew_lease(&mut self, object: ObjectId, now_ms: u64) {
        let _ = self.locks.renew(object, now_ms);
    }

    fn expire_leases(&mut self, now_ms: u64) -> Vec<(ObjectId, BlockId)> {
        self.locks.advance(now_ms)
    }

    fn release_locks_for(&mut self, objects: &[ObjectId]) -> Vec<(ObjectId, BlockId)> {
        objects
            .iter()
            .filter_map(|&o| self.locks.force_release(o).map(|b| (o, b)))
            .collect()
    }

    fn held_locks(&self) -> Vec<(ObjectId, BlockId)> {
        self.locks.held()
    }
}

/// Shared bookkeeping of the two dynamic strategies: per-object, per-node
/// counters of *open* move-requests (§4.3).
///
/// "For this it records move- and end-requests and the nodes where they have
/// occurred." The counters travel with the object, which is why §3.3 warns
/// that such policies are unpromising for small objects; the simulation
/// (like the paper's) deliberately neglects that overhead.
#[derive(Debug, Clone, Default)]
struct OpenMoveLedger {
    /// `open[object][node]` — dense object- and node-indexed counters
    /// (both id spaces are small and contiguous), grown on first touch.
    open: Vec<Vec<u32>>,
}

impl OpenMoveLedger {
    fn record_move(&mut self, object: ObjectId, node: NodeId) {
        if object.index() >= self.open.len() {
            self.open.resize(object.index() + 1, Vec::new());
        }
        let per_node = &mut self.open[object.index()];
        if node.index() >= per_node.len() {
            per_node.resize(node.index() + 1, 0);
        }
        per_node[node.index()] += 1;
    }

    fn record_end(&mut self, object: ObjectId, node: NodeId) {
        if let Some(count) = self
            .open
            .get_mut(object.index())
            .and_then(|per_node| per_node.get_mut(node.index()))
        {
            *count = count.saturating_sub(1);
        }
    }

    fn count(&self, object: ObjectId, node: NodeId) -> u32 {
        self.open
            .get(object.index())
            .and_then(|per_node| per_node.get(node.index()))
            .copied()
            .unwrap_or(0)
    }

    /// The node with the most open requests (ties broken towards the lowest
    /// node id for determinism), with its count.
    fn leader(&self, object: ObjectId) -> Option<(NodeId, u32)> {
        let per_node = self.open.get(object.index())?;
        let mut best: Option<(NodeId, u32)> = None;
        // ascending scan + strict improvement = lowest node id wins ties
        for (i, &count) in per_node.iter().enumerate() {
            if count > 0 && best.is_none_or(|(_, c)| count > c) {
                best = Some((NodeId::new(i as u32), count));
            }
        }
        best
    }
}

/// Raw `NodeId` sentinel for "object holds no placement lock".
const NO_NODE: u32 = u32::MAX;

/// "Comparing the nodes" (§4.3): transient placement whose grants prefer the
/// node with the most open move-requests. With `REINSTANTIATE` it is
/// [`CompareAndReinstantiate`].
///
/// Both strategies are *extensions of transient placement* (§4.3 calls them
/// "intelligent placement strategies"): the lock semantics stay, but an
/// unlocked object is only handed to a requester whose node has issued at
/// least as many open move-requests as every other node — "it tries to keep
/// objects always at those nodes from where the most move-requests have been
/// issued". A conflicting request therefore has "initially no effect on the
/// location of the requested object but may lead to a migration at some
/// point later if further move-requests are issued at the same node".
///
/// The constructors are shared, so name the variant where the type is not
/// otherwise known: `CompareNodes::<false>::new()`.
#[derive(Debug, Clone, Default)]
pub struct CompareNodes<const REINSTANTIATE: bool = false> {
    ledger: OpenMoveLedger,
    locks: LeaseTable,
    /// Where each lock holder sits (object-indexed, `NO_NODE` = unlocked) —
    /// needed to retire its ledger entry if the lease expires instead of
    /// ending normally.
    holder_node: Vec<u32>,
}

/// "Comparing and reinstantiation" (§4.3): like [`CompareNodes`], but "objects
/// may not only be migrated on move-requests but also on end-requests if an
/// end-request leads to a situation that some other node holds a clear
/// majority on open move-requests".
pub type CompareAndReinstantiate = CompareNodes<true>;

impl<const REINSTANTIATE: bool> CompareNodes<REINSTANTIATE> {
    /// Creates the policy with empty counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the policy whose locks expire after `ttl_ms` of inactivity.
    ///
    /// # Panics
    ///
    /// Panics if `ttl_ms` is zero.
    #[must_use]
    pub fn with_lease_ms(ttl_ms: u64) -> Self {
        CompareNodes {
            locks: LeaseTable::with_ttl_ms(ttl_ms),
            ..Self::default()
        }
    }

    /// Open move-requests recorded for `object` at `node`.
    #[cfg(test)]
    fn open_moves(&self, object: ObjectId, node: NodeId) -> u32 {
        self.ledger.count(object, node)
    }

    /// Clears the recorded holder node of `object` and retires its open
    /// move: the block that held the lock is over.
    fn retire_holder(&mut self, object: ObjectId) {
        let Some(slot) = self.holder_node.get_mut(object.index()) else {
            return;
        };
        let raw = std::mem::replace(slot, NO_NODE);
        if raw != NO_NODE {
            self.ledger.record_end(object, NodeId::new(raw));
        }
    }
}

impl<const REINSTANTIATE: bool> MovePolicy for CompareNodes<REINSTANTIATE> {
    fn kind(&self) -> PolicyKind {
        if REINSTANTIATE {
            PolicyKind::CompareAndReinstantiate
        } else {
            PolicyKind::CompareNodes
        }
    }

    fn on_move(&mut self, req: &MoveRequest) -> MoveDecision {
        self.ledger.record_move(req.object, req.from);
        if self.locks.holder(req.object).is_some() {
            return MoveDecision::Deny;
        }
        if req.from == req.at {
            return MoveDecision::Grant;
        }
        let mine = self.ledger.count(req.object, req.from);
        match self.ledger.leader(req.object) {
            Some((_, top)) if mine >= top => MoveDecision::Grant,
            Some(_) => MoveDecision::Deny,
            None => MoveDecision::Grant,
        }
    }

    fn on_installed(&mut self, object: ObjectId, node: NodeId, block: BlockId) {
        let previous = self.locks.acquire_now(object, block);
        debug_assert!(previous.is_none(), "granted {object} while locked");
        if object.index() >= self.holder_node.len() {
            self.holder_node.resize(object.index() + 1, NO_NODE);
        }
        self.holder_node[object.index()] = node.as_u32();
    }

    /// A stale end — after the lease recovery path already freed the lock —
    /// releases nothing, so no reinstantiation decision hangs off it.
    fn on_end(&mut self, req: &EndRequest) -> EndAction {
        self.ledger.record_end(req.object, req.from);
        if !(req.was_granted && self.locks.release(req.object, req.block)) {
            return EndAction::None;
        }
        if let Some(slot) = self.holder_node.get_mut(req.object.index()) {
            *slot = NO_NODE;
        }
        if !REINSTANTIATE {
            return EndAction::None;
        }
        match self.ledger.leader(req.object) {
            // A *clear* majority: at least two blocks are waiting there and
            // more than at the object's current node. (Chasing a single
            // waiter costs a full migration for at most half a block's worth
            // of savings.)
            Some((leader, count))
                if leader != req.at
                    && count >= 2
                    && count > self.ledger.count(req.object, req.at) =>
            {
                EndAction::Migrate(leader)
            }
            _ => EndAction::None,
        }
    }

    fn is_pinned(&self, object: ObjectId) -> bool {
        self.locks.holder(object).is_some()
    }

    fn lease_ttl_ms(&self) -> Option<u64> {
        self.locks.ttl_ms()
    }

    fn renew_lease(&mut self, object: ObjectId, now_ms: u64) {
        let _ = self.locks.renew(object, now_ms);
    }

    /// Expired leases also retire their ledger entries: a lock that had to
    /// be reclaimed belongs to a block that will never send its end-request
    /// (or whose end-request was lost), and counting it as an "open move"
    /// forever would skew every later majority comparison.
    fn expire_leases(&mut self, now_ms: u64) -> Vec<(ObjectId, BlockId)> {
        let expired = self.locks.advance(now_ms);
        for &(object, _) in &expired {
            self.retire_holder(object);
        }
        expired
    }

    /// Crash cleanup: like lease expiry, but for an explicit object set and
    /// without waiting for a TTL — the holder node is gone, its blocks will
    /// never end, and their ledger entries must retire with the locks.
    fn release_locks_for(&mut self, objects: &[ObjectId]) -> Vec<(ObjectId, BlockId)> {
        let mut released = Vec::new();
        for &object in objects {
            if let Some(block) = self.locks.force_release(object) {
                self.retire_holder(object);
                released.push((object, block));
            }
        }
        released
    }

    fn held_locks(&self) -> Vec<(ObjectId, BlockId)> {
        self.locks.held()
    }
}

/// An anti-thrashing extension policy: conventional migration plus the
/// transient fixing §2.2 hints at ("mostly the consequence of run-time
/// decisions, e.g., to avoid thrashing").
///
/// After each migration the object is transiently fixed for the next
/// `cooldown` conflicting move-requests: they are denied (with the usual
/// indication) while the counter drains. This is *not* one of the paper's
/// evaluated policies — it exists to demonstrate that the
/// [`MovePolicy`] interface supports user-defined policies, and serves as an
/// ablation point between conventional migration (`cooldown = 0`) and
/// increasingly placement-like behaviour.
///
/// # Example
///
/// ```
/// use oml_core::ids::{BlockId, NodeId, ObjectId};
/// use oml_core::policies::CooldownFixing;
/// use oml_core::policy::{MoveDecision, MovePolicy, MoveRequest};
///
/// let mut p = CooldownFixing::new(2);
/// let req = |from: u32, b: u32| MoveRequest {
///     object: ObjectId::new(0),
///     at: NodeId::new(0),
///     from: NodeId::new(from),
///     block: BlockId::new(b),
/// };
/// assert_eq!(p.on_move(&req(1, 0)), MoveDecision::Grant);
/// p.on_installed(ObjectId::new(0), NodeId::new(1), BlockId::new(0));
/// // the next two conflicting movers bounce off the cooldown…
/// assert_eq!(p.on_move(&req(2, 1)), MoveDecision::Deny);
/// assert_eq!(p.on_move(&req(2, 2)), MoveDecision::Deny);
/// // …after which migration is conventional again
/// assert_eq!(p.on_move(&req(2, 3)), MoveDecision::Grant);
/// ```
#[derive(Debug, Clone)]
pub struct CooldownFixing {
    cooldown: u32,
    /// Object-indexed denial budget (0 = no active cooldown).
    remaining: Vec<u32>,
}

impl CooldownFixing {
    /// Creates the policy; after each migration the next `cooldown`
    /// conflicting move-requests are denied.
    #[must_use]
    pub fn new(cooldown: u32) -> Self {
        CooldownFixing {
            cooldown,
            remaining: Vec::new(),
        }
    }

    /// The configured cooldown length.
    #[must_use]
    pub fn cooldown(&self) -> u32 {
        self.cooldown
    }
}

impl MovePolicy for CooldownFixing {
    fn kind(&self) -> PolicyKind {
        // reported as the policy it extends; `kind()` drives display only
        PolicyKind::ConventionalMigration
    }

    fn on_move(&mut self, req: &MoveRequest) -> MoveDecision {
        if req.from == req.at {
            return MoveDecision::Grant;
        }
        if let Some(r) = self.remaining.get_mut(req.object.index()) {
            if *r > 0 {
                *r -= 1;
                return MoveDecision::Deny;
            }
        }
        MoveDecision::Grant
    }

    fn on_installed(&mut self, object: ObjectId, _node: NodeId, _block: BlockId) {
        if object.index() >= self.remaining.len() {
            self.remaining.resize(object.index() + 1, 0);
        }
        self.remaining[object.index()] = self.cooldown;
    }

    fn on_end(&mut self, _req: &EndRequest) -> EndAction {
        EndAction::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    fn node(i: u32) -> NodeId {
        NodeId::new(i)
    }
    fn block(i: u32) -> BlockId {
        BlockId::new(i)
    }
    fn req(o: u32, at: u32, from: u32, b: u32) -> MoveRequest {
        MoveRequest {
            object: obj(o),
            at: node(at),
            from: node(from),
            block: block(b),
        }
    }
    fn end(o: u32, at: u32, from: u32, b: u32, granted: bool) -> EndRequest {
        EndRequest {
            object: obj(o),
            at: node(at),
            from: node(from),
            block: block(b),
            was_granted: granted,
        }
    }

    #[test]
    fn sedentary_denies_everything() {
        let mut p = Sedentary::new();
        assert_eq!(p.on_move(&req(0, 1, 2, 0)), MoveDecision::Deny);
        assert!(!p.uses_move_requests());
        assert_eq!(p.on_end(&end(0, 1, 2, 0, false)), EndAction::None);
    }

    #[test]
    fn conventional_grants_everything() {
        let mut p = ConventionalMigration::new();
        for i in 0..5 {
            assert_eq!(p.on_move(&req(0, 1, 2, i)), MoveDecision::Grant);
        }
    }

    #[test]
    fn placement_locks_until_end() {
        let mut p = TransientPlacement::new();
        assert_eq!(p.on_move(&req(0, 1, 2, 0)), MoveDecision::Grant);
        p.on_installed(obj(0), node(2), block(0));
        assert_eq!(p.lock_holder(obj(0)), Some(block(0)));

        // concurrent movers are denied, even from the holder's own node
        assert_eq!(p.on_move(&req(0, 2, 3, 1)), MoveDecision::Deny);
        assert_eq!(p.on_move(&req(0, 2, 2, 2)), MoveDecision::Deny);

        // the denied block's end is ignored — lock still held
        assert_eq!(p.on_end(&end(0, 2, 3, 1, false)), EndAction::None);
        assert_eq!(p.lock_holder(obj(0)), Some(block(0)));

        // the holder's end releases, after which a new move wins
        assert_eq!(p.on_end(&end(0, 2, 2, 0, true)), EndAction::None);
        assert_eq!(p.lock_holder(obj(0)), None);
        assert_eq!(p.on_move(&req(0, 2, 3, 3)), MoveDecision::Grant);
    }

    #[test]
    fn placement_locks_are_per_object() {
        let mut p = TransientPlacement::new();
        p.on_installed(obj(0), node(1), block(0));
        assert_eq!(p.on_move(&req(1, 1, 2, 1)), MoveDecision::Grant);
    }

    #[test]
    fn compare_nodes_respects_lock_then_prefers_majority() {
        let mut p = CompareNodes::<false>::new();
        // first mover from node 2: grant, install, lock
        assert_eq!(p.on_move(&req(0, 1, 2, 0)), MoveDecision::Grant);
        p.on_installed(obj(0), node(2), block(0));
        assert!(p.is_pinned(obj(0)));

        // conflicting movers are denied while the lock is held, but recorded
        assert_eq!(p.on_move(&req(0, 2, 3, 1)), MoveDecision::Deny);
        assert_eq!(p.on_move(&req(0, 2, 3, 2)), MoveDecision::Deny);
        assert_eq!(p.open_moves(obj(0), node(3)), 2);

        // holder ends: unlock
        assert_eq!(p.on_end(&end(0, 2, 2, 0, true)), EndAction::None);
        assert!(!p.is_pinned(obj(0)));

        // node 3 now holds the majority (2 open), so a further request from
        // node 3 is granted ("may lead to a migration at some point later if
        // further move-requests are issued at the same node")…
        assert_eq!(p.on_move(&req(0, 2, 3, 3)), MoveDecision::Grant);
    }

    #[test]
    fn compare_nodes_denies_minority_requesters_when_unlocked() {
        let mut p = CompareNodes::<false>::new();
        // two open requests pile up at node 3 (denied while locked)
        assert_eq!(p.on_move(&req(0, 1, 2, 0)), MoveDecision::Grant);
        p.on_installed(obj(0), node(2), block(0));
        let _ = p.on_move(&req(0, 2, 3, 1));
        let _ = p.on_move(&req(0, 2, 3, 2));
        let _ = p.on_end(&end(0, 2, 2, 0, true));
        // a single fresh request from node 4 (count 1) loses to node 3's 2
        assert_eq!(p.on_move(&req(0, 2, 4, 3)), MoveDecision::Deny);
    }

    #[test]
    fn compare_nodes_grants_local_requests() {
        let mut p = CompareNodes::<false>::new();
        assert_eq!(p.on_move(&req(0, 5, 5, 0)), MoveDecision::Grant);
    }

    #[test]
    fn compare_nodes_end_decrements() {
        let mut p = CompareNodes::<false>::new();
        let _ = p.on_move(&req(0, 1, 2, 0));
        p.on_installed(obj(0), node(2), block(0));
        assert_eq!(p.open_moves(obj(0), node(2)), 1);
        let _ = p.on_end(&end(0, 2, 2, 0, true));
        assert_eq!(p.open_moves(obj(0), node(2)), 0);
    }

    #[test]
    fn reinstantiation_migrates_on_end_majority() {
        let mut p = CompareAndReinstantiate::new();
        // holder at node 2 with one open block
        let _ = p.on_move(&req(0, 1, 2, 0));
        p.on_installed(obj(0), node(2), block(0));
        // two waiting blocks at node 3, denied while locked
        assert_eq!(p.on_move(&req(0, 2, 3, 1)), MoveDecision::Deny);
        assert_eq!(p.on_move(&req(0, 2, 3, 2)), MoveDecision::Deny);
        // holder finishes: node 3 holds a clear majority (2 > 0) → migrate
        let action = p.on_end(&end(0, 2, 2, 0, true));
        assert_eq!(action, EndAction::Migrate(node(3)));
    }

    #[test]
    fn reinstantiation_needs_a_clear_majority() {
        let mut p = CompareAndReinstantiate::new();
        let _ = p.on_move(&req(0, 1, 2, 0));
        p.on_installed(obj(0), node(2), block(0));
        // a single waiter is not a clear majority
        let _ = p.on_move(&req(0, 2, 3, 1));
        assert_eq!(p.on_end(&end(0, 2, 2, 0, true)), EndAction::None);
    }

    #[test]
    fn reinstantiation_stays_put_without_majority() {
        let mut p = CompareAndReinstantiate::new();
        let _ = p.on_move(&req(0, 1, 2, 0));
        p.on_installed(obj(0), node(2), block(0));
        // no other open requests: end migrates nothing
        assert_eq!(p.on_end(&end(0, 2, 2, 0, true)), EndAction::None);
    }

    #[test]
    fn reinstantiation_tie_breaks_deterministically() {
        let mut p = CompareAndReinstantiate::new();
        // granted holder at node 2
        let _ = p.on_move(&req(0, 1, 2, 0));
        p.on_installed(obj(0), node(2), block(0));
        // two denied waiters each at nodes 3 and 4
        let _ = p.on_move(&req(0, 2, 3, 1));
        let _ = p.on_move(&req(0, 2, 3, 2));
        let _ = p.on_move(&req(0, 2, 4, 3));
        let _ = p.on_move(&req(0, 2, 4, 4));
        // unlock: nodes 3 and 4 tie at two open requests; the leader prefers
        // the lower node id, and 2 > 0 at the current node → migrate to n3.
        let action = p.on_end(&end(0, 2, 2, 0, true));
        assert_eq!(action, EndAction::Migrate(node(3)));
    }

    #[test]
    fn reinstantiation_ignores_ends_of_denied_blocks() {
        let mut p = CompareAndReinstantiate::new();
        let _ = p.on_move(&req(0, 1, 2, 0));
        p.on_installed(obj(0), node(2), block(0));
        let _ = p.on_move(&req(0, 2, 3, 1));
        // the denied block gives up without its move ever being granted;
        // the lock is untouched and nothing migrates
        assert_eq!(p.on_end(&end(0, 2, 3, 1, false)), EndAction::None);
        assert!(p.is_pinned(obj(0)));
    }

    #[test]
    fn cooldown_zero_is_plain_conventional() {
        let mut p = CooldownFixing::new(0);
        assert_eq!(p.cooldown(), 0);
        assert_eq!(p.on_move(&req(0, 1, 2, 0)), MoveDecision::Grant);
        p.on_installed(obj(0), node(2), block(0));
        assert_eq!(p.on_move(&req(0, 2, 3, 1)), MoveDecision::Grant);
    }

    #[test]
    fn cooldown_is_per_object_and_local_moves_bypass_it() {
        let mut p = CooldownFixing::new(1);
        p.on_installed(obj(0), node(1), block(0));
        // another object is unaffected
        assert_eq!(p.on_move(&req(1, 1, 2, 1)), MoveDecision::Grant);
        // a local request on the cooling object does not burn the counter
        assert_eq!(p.on_move(&req(0, 1, 1, 2)), MoveDecision::Grant);
        assert_eq!(p.on_move(&req(0, 1, 2, 3)), MoveDecision::Deny);
        assert_eq!(p.on_move(&req(0, 1, 2, 4)), MoveDecision::Grant);
    }

    #[test]
    fn ledger_handles_unknown_ends_gracefully() {
        let mut p = CompareNodes::<false>::new();
        // an end for a move never recorded must not underflow or panic
        let _ = p.on_end(&end(0, 1, 2, 0, false));
        assert_eq!(p.open_moves(obj(0), node(2)), 0);
    }

    #[test]
    fn placement_lease_expiry_releases_a_crashed_holders_lock() {
        let mut p = TransientPlacement::with_lease_ms(100);
        assert_eq!(p.on_move(&req(0, 1, 2, 0)), MoveDecision::Grant);
        p.on_installed(obj(0), node(2), block(0));
        assert_eq!(p.held_locks(), vec![(obj(0), block(0))]);

        // activity renews the lease: still locked well past the original TTL
        p.renew_lease(obj(0), 80);
        assert_eq!(p.expire_leases(150), Vec::new());
        assert_eq!(p.on_move(&req(0, 2, 3, 1)), MoveDecision::Deny);

        // then the holder goes silent (crash / lost end-request): expiry
        // frees the object and a new mover wins
        assert_eq!(p.expire_leases(180), vec![(obj(0), block(0))]);
        assert!(p.held_locks().is_empty());
        assert_eq!(p.on_move(&req(0, 2, 3, 2)), MoveDecision::Grant);
    }

    #[test]
    fn placement_tolerates_stale_and_duplicate_ends() {
        let mut p = TransientPlacement::with_lease_ms(50);
        let _ = p.on_move(&req(0, 1, 2, 0));
        p.on_installed(obj(0), node(2), block(0));
        // lease expires; lock re-granted to block 1
        let _ = p.expire_leases(60);
        let _ = p.on_move(&req(0, 2, 3, 1));
        p.on_installed(obj(0), node(3), block(1));
        // block 0's end-request finally arrives — must not free block 1's lock
        assert_eq!(p.on_end(&end(0, 3, 2, 0, true)), EndAction::None);
        assert_eq!(p.lock_holder(obj(0)), Some(block(1)));
        // and the real holder's end still works, even duplicated
        assert_eq!(p.on_end(&end(0, 3, 3, 1, true)), EndAction::None);
        assert_eq!(p.on_end(&end(0, 3, 3, 1, true)), EndAction::None);
        assert_eq!(p.lock_holder(obj(0)), None);
    }

    #[test]
    fn comparing_lease_expiry_retires_the_holders_ledger_entry() {
        let mut p = CompareNodes::<false>::with_lease_ms(100);
        let _ = p.on_move(&req(0, 1, 2, 0));
        p.on_installed(obj(0), node(2), block(0));
        assert_eq!(p.open_moves(obj(0), node(2)), 1);

        // holder crashes: expiry releases the lock AND retires its open move,
        // so the dead node does not outvote live requesters forever
        assert_eq!(p.expire_leases(200), vec![(obj(0), block(0))]);
        assert_eq!(p.open_moves(obj(0), node(2)), 0);
        assert!(!p.is_pinned(obj(0)));
        assert_eq!(p.on_move(&req(0, 2, 3, 1)), MoveDecision::Grant);
    }

    #[test]
    fn reinstantiation_ignores_stale_ends_for_migration_decisions() {
        let mut p = CompareAndReinstantiate::with_lease_ms(50);
        let _ = p.on_move(&req(0, 1, 2, 0));
        p.on_installed(obj(0), node(2), block(0));
        // pile up a majority elsewhere
        let _ = p.on_move(&req(0, 2, 3, 1));
        let _ = p.on_move(&req(0, 2, 3, 2));
        // the lease expires before the holder's end arrives
        let _ = p.expire_leases(100);
        // the stale end no longer holds the lock, so it must not trigger a
        // reinstantiation migration
        assert_eq!(p.on_end(&end(0, 2, 2, 0, true)), EndAction::None);
    }

    #[test]
    fn placement_crash_release_frees_the_stranded_lock_immediately() {
        let mut p = TransientPlacement::with_lease_ms(1_000);
        let _ = p.on_move(&req(0, 1, 2, 0));
        p.on_installed(obj(0), node(2), block(0));
        let _ = p.on_move(&req(1, 1, 3, 1));
        p.on_installed(obj(1), node(3), block(1));

        // node 2 crashes hosting object 0: its lock is released at once,
        // long before the lease would have expired; object 1 is untouched
        let released = p.release_locks_for(&[obj(0)]);
        assert_eq!(released, vec![(obj(0), block(0))]);
        assert_eq!(p.lock_holder(obj(0)), None);
        assert_eq!(p.lock_holder(obj(1)), Some(block(1)));
        assert_eq!(p.on_move(&req(0, 2, 3, 2)), MoveDecision::Grant);

        // the dead holder's end-request straggling in later is harmless
        assert_eq!(p.on_end(&end(0, 2, 2, 0, true)), EndAction::None);
    }

    #[test]
    fn comparing_crash_release_retires_the_ledger_entry_too() {
        let mut p = CompareNodes::<false>::with_lease_ms(1_000);
        let _ = p.on_move(&req(0, 1, 2, 0));
        p.on_installed(obj(0), node(2), block(0));
        assert_eq!(p.open_moves(obj(0), node(2)), 1);

        let released = p.release_locks_for(&[obj(0)]);
        assert_eq!(released, vec![(obj(0), block(0))]);
        assert_eq!(p.open_moves(obj(0), node(2)), 0);
        assert!(!p.is_pinned(obj(0)));
        // a fresh mover is not outvoted by the dead node's stale entry
        assert_eq!(p.on_move(&req(0, 2, 3, 1)), MoveDecision::Grant);
    }

    #[test]
    fn crash_release_on_lock_free_policies_is_a_no_op() {
        let mut p = ConventionalMigration::new();
        assert_eq!(p.release_locks_for(&[obj(0), obj(1)]), Vec::new());
    }

    #[test]
    fn lock_free_policies_report_no_leases() {
        let mut p = ConventionalMigration::new();
        p.renew_lease(obj(0), 5);
        assert_eq!(p.expire_leases(1_000), Vec::new());
        assert!(p.held_locks().is_empty());
    }
}
