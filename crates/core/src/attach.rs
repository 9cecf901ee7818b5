//! The attachment graph: `attach()` / `detach()` and its closure semantics
//! (§2.2, §3.4).
//!
//! `attach(o, to)` asks the system to keep `o` together with `to` until an
//! explicit `detach`. Attachment is *transitive*: migrating any object drags
//! the whole connected component along. In a non-monolithic system that
//! transitive closure silently grows beyond what any single application
//! predicted — the paper's central hazard. This module implements the three
//! semantics the paper analyses:
//!
//! * [`AttachmentMode::Unrestricted`] — classic behaviour: the closure is the
//!   connected component over *all* attachment edges.
//! * [`AttachmentMode::ATransitive`] — each edge carries a cooperation
//!   context (an alliance); the closure followed by a migration is restricted
//!   to edges of the alliance the migration primitive was invoked in.
//! * [`AttachmentMode::Exclusive`] — first-come-first-served: an object may
//!   be latched to at most one target; later `attach` calls on it are
//!   silently ignored (§3.4's cheaper alternative that needs no new
//!   construct).
//!
//! Edges are *directed* at bookkeeping level (`attach(o, to)` records
//! `o → to`, mirroring the primitive's asymmetry and making "o may be latched
//! only once" well defined for the exclusive mode) but *undirected* for
//! closure traversal, because the system keeps both endpoints together
//! regardless of who asked.
//!
//! # Representation
//!
//! Objects are interned into dense `u32` slots on first contact, and the
//! graph is stored slot-indexed: `Vec`-of-`Vec` adjacency instead of nested
//! `BTreeMap`s. Connected components are maintained *incrementally* by a
//! union-find per traversal universe — one global structure for the
//! all-edges view, one per alliance context under A-transitive semantics.
//! Each union-find additionally threads its members on circular linked lists
//! (merged in O(1) at `union`), so a whole component can be enumerated in
//! O(component) without touching the rest of the arena. `attach` unions;
//! `detach` only marks the surrounding component dirty, and the component is
//! rebuilt from the surviving edges on the next closure query that hits it
//! (detach is rare, so the rebuild amortises to nothing). The result:
//! [`AttachmentGraph::migration_closure_into`] fills a caller-owned
//! [`ClosureScratch`] without a single heap allocation in steady state. The
//! `BTreeSet`-returning [`AttachmentGraph::closure`] BFS survives unchanged
//! for shared-reference callers and as an independently-implemented oracle.

use crate::alliance::AllianceRegistry;
use crate::error::AttachError;
use crate::ids::{AllianceId, ObjectId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

/// System-wide attachment semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AttachmentMode {
    /// Conventional fully transitive attachment.
    #[default]
    Unrestricted,
    /// Alliance-scoped transitiveness (§3.4).
    ATransitive,
    /// At most one outgoing attachment per object, first-come-first-served.
    Exclusive,
}

impl std::fmt::Display for AttachmentMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AttachmentMode::Unrestricted => "unrestricted",
            AttachmentMode::ATransitive => "a-transitive",
            AttachmentMode::Exclusive => "exclusive",
        };
        f.write_str(s)
    }
}

/// What an `attach` call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachOutcome {
    /// A new edge was recorded.
    Attached,
    /// The identical edge (same endpoints, same context) already existed.
    AlreadyAttached,
    /// The edge existed with a different context; the context was replaced.
    Retagged,
    /// Exclusive mode: the object already has an attachment, the call was
    /// ignored (the paper: "all additional attachments for this object are
    /// ignored").
    IgnoredExclusive,
}

/// How a closure query walks the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traversal {
    /// Follow every edge (conventional transitive attachment).
    AllEdges,
    /// Follow only edges whose cooperation context equals the given one
    /// (A-transitive attachment; `None` selects context-free edges).
    Context(Option<AllianceId>),
}

/// Sentinel for "object has no slot yet".
const NO_SLOT: u32 = u32::MAX;

/// Incremental connected components over one traversal universe: union-find
/// with path compression and union by rank, plus a circular linked list per
/// component (`next`) so members can be enumerated in O(component).
///
/// The `dirty` bit lives at the representative: a detach in the component
/// sets it, and the next query rebuilds the component's partition from the
/// surviving edges before answering.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Connectivity {
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Circular successor in the component's member list.
    next: Vec<u32>,
    /// Meaningful at representatives only; stale bits below roots are
    /// cleared by the rebuild that visits them.
    dirty: Vec<bool>,
}

impl Connectivity {
    fn ensure(&mut self, n: usize) {
        while self.parent.len() < n {
            let s = u32::try_from(self.parent.len()).expect("slot count fits u32");
            self.parent.push(s);
            self.rank.push(0);
            self.next.push(s);
            self.dirty.push(false);
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while cur != root {
            let up = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = up;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        let dirty = self.dirty[ra as usize] || self.dirty[rb as usize];
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.dirty[hi as usize] = dirty;
        // a and b sit on distinct cycles (ra != rb); swapping their
        // successors concatenates the two cycles into one.
        self.next.swap(a as usize, b as usize);
    }

    /// Flags the component of `x` for rebuild. A no-op for slots this
    /// structure has never seen (they are singletons by definition).
    fn mark_dirty(&mut self, x: u32) {
        if (x as usize) < self.parent.len() {
            let r = self.find(x);
            self.dirty[r as usize] = true;
        }
    }
}

/// Walks the member cycle of `start` into `buf` (clearing it first).
fn collect_cycle(conn: &Connectivity, start: u32, buf: &mut Vec<u32>) {
    buf.clear();
    let mut cur = start;
    loop {
        buf.push(cur);
        cur = conn.next[cur as usize];
        if cur == start {
            break;
        }
    }
}

/// Answers a closure query over `conn`, lazily rebuilding the component of
/// `start` if a detach dirtied it. On return `slots` holds the component's
/// members (unsorted).
///
/// Rebuild correctness rests on one invariant: the stale cycle of a dirty
/// component is always a *superset* of the true component — unions only ever
/// merge cycles, and detach removes edges without touching the lists. So
/// every surviving edge incident to a cycle member has its other endpoint on
/// the same cycle, and re-unioning the members along their admitted outgoing
/// edges re-derives the exact partition.
fn closure_into_slots(
    conn: &mut Connectivity,
    out: &[Vec<(u32, Option<AllianceId>)>],
    traversal: Traversal,
    start: u32,
    slots: &mut Vec<u32>,
) {
    conn.ensure(start as usize + 1);
    let root = conn.find(start);
    if conn.dirty[root as usize] {
        collect_cycle(conn, start, slots);
        for &m in slots.iter() {
            conn.parent[m as usize] = m;
            conn.rank[m as usize] = 0;
            conn.next[m as usize] = m;
            conn.dirty[m as usize] = false;
        }
        for &m in slots.iter() {
            for &(to, ctx) in &out[m as usize] {
                if traversal_admits(traversal, ctx) {
                    conn.union(m, to);
                }
            }
        }
    }
    collect_cycle(conn, start, slots);
}

/// Reusable buffers for [`AttachmentGraph::migration_closure_into`].
///
/// Keep one per caller and pass it to every query; after the first few
/// queries the buffers reach steady-state capacity and the closure path
/// stops allocating entirely.
#[derive(Debug, Clone, Default)]
pub struct ClosureScratch {
    members: Vec<ObjectId>,
    slots: Vec<u32>,
}

impl ClosureScratch {
    /// An empty scratch buffer.
    #[must_use]
    pub fn new() -> Self {
        ClosureScratch::default()
    }

    /// The result of the last query: the closure members in ascending
    /// [`ObjectId`] order (always contains the query's start object).
    #[must_use]
    pub fn members(&self) -> &[ObjectId] {
        &self.members
    }
}

/// The attachment relation over all objects.
///
/// # Example
///
/// ```
/// use oml_core::attach::{AttachmentGraph, AttachmentMode, Traversal};
/// use oml_core::ids::{AllianceId, ObjectId};
///
/// let mut g = AttachmentGraph::new(AttachmentMode::ATransitive);
/// let (s1, s2a, s2b) = (ObjectId::new(0), ObjectId::new(1), ObjectId::new(2));
/// let work = Some(AllianceId::new(0));
/// let other = Some(AllianceId::new(1));
///
/// g.attach(s2a, s1, work).unwrap();
/// g.attach(s2b, s1, other).unwrap();
///
/// // A migration invoked in the `work` alliance drags only s2a along…
/// let ws = g.closure(s1, Traversal::Context(work));
/// assert!(ws.contains(&s2a) && !ws.contains(&s2b));
/// // …while the unrestricted closure would take everything.
/// assert_eq!(g.closure(s1, Traversal::AllEdges).len(), 3);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttachmentGraph {
    mode: AttachmentMode,
    /// Slot of a raw object id, or `NO_SLOT`.
    slot_of: Vec<u32>,
    /// Reverse map: the object interned at each slot.
    objects: Vec<ObjectId>,
    /// `out[s]` holds `(to_slot, context)` for every `attach(s, to, context)`.
    out: Vec<Vec<(u32, Option<AllianceId>)>>,
    /// Reverse adjacency (source slots) for undirected traversal.
    inc: Vec<Vec<u32>>,
    edge_count: usize,
    /// Components over all edges (drives `Unrestricted`/`Exclusive`
    /// migration closures).
    all_edges: Connectivity,
    /// Components per alliance context, maintained only under
    /// [`AttachmentMode::ATransitive`]. Contexts are few, so a linear-scan
    /// association list beats any map.
    per_context: Vec<(Option<AllianceId>, Connectivity)>,
}

impl AttachmentGraph {
    /// Creates an empty graph with the given semantics.
    #[must_use]
    pub fn new(mode: AttachmentMode) -> Self {
        AttachmentGraph {
            mode,
            slot_of: Vec::new(),
            objects: Vec::new(),
            out: Vec::new(),
            inc: Vec::new(),
            edge_count: 0,
            all_edges: Connectivity::default(),
            per_context: Vec::new(),
        }
    }

    /// The semantics this graph was created with.
    #[must_use]
    pub fn mode(&self) -> AttachmentMode {
        self.mode
    }

    fn slot(&self, o: ObjectId) -> Option<u32> {
        self.slot_of
            .get(o.index())
            .copied()
            .filter(|&s| s != NO_SLOT)
    }

    fn intern(&mut self, o: ObjectId) -> u32 {
        let idx = o.index();
        if idx >= self.slot_of.len() {
            self.slot_of.resize(idx + 1, NO_SLOT);
        }
        if self.slot_of[idx] != NO_SLOT {
            return self.slot_of[idx];
        }
        let s = u32::try_from(self.objects.len()).expect("slot count fits u32");
        self.slot_of[idx] = s;
        self.objects.push(o);
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        self.all_edges.ensure(s as usize + 1);
        s
    }

    fn context_conn(&mut self, context: Option<AllianceId>) -> &mut Connectivity {
        if let Some(i) = self.per_context.iter().position(|(c, _)| *c == context) {
            &mut self.per_context[i].1
        } else {
            self.per_context.push((context, Connectivity::default()));
            &mut self.per_context.last_mut().expect("just pushed").1
        }
    }

    /// Records the connectivity effect of a new (or retagged) edge.
    fn connect(&mut self, a: u32, b: u32, context: Option<AllianceId>) {
        self.all_edges.union(a, b);
        if self.mode == AttachmentMode::ATransitive {
            let conn = self.context_conn(context);
            conn.ensure(a.max(b) as usize + 1);
            conn.union(a, b);
        }
    }

    /// Records the connectivity effect of removing an edge of `context`
    /// incident to `a`: flag the surrounding components for lazy rebuild.
    fn disconnect(&mut self, a: u32, context: Option<AllianceId>) {
        self.all_edges.mark_dirty(a);
        if self.mode == AttachmentMode::ATransitive {
            if let Some(i) = self.per_context.iter().position(|(c, _)| *c == context) {
                self.per_context[i].1.mark_dirty(a);
            }
        }
    }

    /// `attach(object, to)` — ask the system to keep `object` with `to`.
    ///
    /// `context` names the alliance the cooperation belongs to (`None` for a
    /// context-free attachment). Membership is *not* validated here; use
    /// [`AttachmentGraph::attach_checked`] when a registry is available.
    ///
    /// # Errors
    ///
    /// Returns [`AttachError::SelfAttachment`] if `object == to`.
    pub fn attach(
        &mut self,
        object: ObjectId,
        to: ObjectId,
        context: Option<AllianceId>,
    ) -> Result<AttachOutcome, AttachError> {
        if object == to {
            return Err(AttachError::SelfAttachment(object));
        }
        let s = self.intern(object);
        let t = self.intern(to);
        let existing = self.out[s as usize].iter().position(|&(o, _)| o == t);
        if self.mode == AttachmentMode::Exclusive
            && existing.is_none()
            && !self.out[s as usize].is_empty()
        {
            return Ok(AttachOutcome::IgnoredExclusive);
        }
        match existing {
            None => {
                self.out[s as usize].push((t, context));
                self.inc[t as usize].push(s);
                self.edge_count += 1;
                self.connect(s, t, context);
                Ok(AttachOutcome::Attached)
            }
            Some(i) => {
                let old = self.out[s as usize][i].1;
                if old == context {
                    Ok(AttachOutcome::AlreadyAttached)
                } else {
                    self.out[s as usize][i].1 = context;
                    self.disconnect(s, old);
                    self.connect(s, t, context);
                    Ok(AttachOutcome::Retagged)
                }
            }
        }
    }

    /// Like [`AttachmentGraph::attach`], but also validates that both
    /// endpoints belong to the named alliance.
    ///
    /// # Errors
    ///
    /// In addition to [`AttachError::SelfAttachment`], returns
    /// [`AttachError::UnknownAlliance`] or [`AttachError::NotAllianceMember`]
    /// when a context is given and membership does not hold.
    pub fn attach_checked(
        &mut self,
        object: ObjectId,
        to: ObjectId,
        context: Option<AllianceId>,
        registry: &AllianceRegistry,
    ) -> Result<AttachOutcome, AttachError> {
        if let Some(alliance) = context {
            if !registry.exists(alliance) {
                return Err(AttachError::UnknownAlliance(alliance));
            }
            for end in [object, to] {
                if !registry.is_member(alliance, end) {
                    return Err(AttachError::NotAllianceMember {
                        object: end,
                        alliance,
                    });
                }
            }
        }
        self.attach(object, to, context)
    }

    /// `detach(object, to)` — removes the attachment recorded by
    /// `attach(object, to)`. Returns whether an edge was removed.
    pub fn detach(&mut self, object: ObjectId, to: ObjectId) -> bool {
        let (Some(s), Some(t)) = (self.slot(object), self.slot(to)) else {
            return false;
        };
        let Some(i) = self.out[s as usize].iter().position(|&(o, _)| o == t) else {
            return false;
        };
        let (_, ctx) = self.out[s as usize].swap_remove(i);
        let j = self.inc[t as usize]
            .iter()
            .position(|&src| src == s)
            .expect("incoming list mirrors outgoing");
        self.inc[t as usize].swap_remove(j);
        self.edge_count -= 1;
        self.disconnect(s, ctx);
        true
    }

    /// Removes every edge touching `object` (used when an object is
    /// destroyed). Returns the number of edges removed.
    pub fn detach_all(&mut self, object: ObjectId) -> usize {
        let Some(s) = self.slot(object) else {
            return 0;
        };
        let outgoing = std::mem::take(&mut self.out[s as usize]);
        for &(t, ctx) in &outgoing {
            let j = self.inc[t as usize]
                .iter()
                .position(|&src| src == s)
                .expect("incoming list mirrors outgoing");
            self.inc[t as usize].swap_remove(j);
            self.disconnect(s, ctx);
        }
        let incoming = std::mem::take(&mut self.inc[s as usize]);
        for &src in &incoming {
            let i = self.out[src as usize]
                .iter()
                .position(|&(o, _)| o == s)
                .expect("outgoing list mirrors incoming");
            let (_, ctx) = self.out[src as usize].swap_remove(i);
            self.disconnect(s, ctx);
        }
        let removed = outgoing.len() + incoming.len();
        self.edge_count -= removed;
        removed
    }

    /// Whether the directed edge `object → to` exists.
    #[must_use]
    pub fn contains_edge(&self, object: ObjectId, to: ObjectId) -> bool {
        self.edge_context(object, to).is_some()
    }

    /// The context of the edge `object → to`, if the edge exists.
    ///
    /// `Some(None)` means the edge exists without a cooperation context.
    #[must_use]
    pub fn edge_context(&self, object: ObjectId, to: ObjectId) -> Option<Option<AllianceId>> {
        let (s, t) = (self.slot(object)?, self.slot(to)?);
        self.out[s as usize]
            .iter()
            .find(|&&(o, _)| o == t)
            .map(|&(_, ctx)| ctx)
    }

    /// Total number of directed edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of outgoing attachments of `object`.
    #[must_use]
    pub fn out_degree(&self, object: ObjectId) -> usize {
        self.slot(object).map_or(0, |s| self.out[s as usize].len())
    }

    /// Neighbours of `object` reachable in one undirected step under the
    /// given traversal, in id order.
    pub fn neighbours(&self, object: ObjectId, traversal: Traversal) -> Vec<ObjectId> {
        let Some(s) = self.slot(object) else {
            return Vec::new();
        };
        let mut result: Vec<ObjectId> = Vec::new();
        for &(t, ctx) in &self.out[s as usize] {
            if traversal_admits(traversal, ctx) {
                result.push(self.objects[t as usize]);
            }
        }
        for &src in &self.inc[s as usize] {
            let &(_, ctx) = self.out[src as usize]
                .iter()
                .find(|&&(o, _)| o == s)
                .expect("outgoing list mirrors incoming");
            if traversal_admits(traversal, ctx) {
                result.push(self.objects[src as usize]);
            }
        }
        result.sort_unstable();
        result.dedup();
        result
    }

    /// The transitive closure of `start` under the given traversal — the set
    /// of objects the system must migrate together with `start`.
    ///
    /// Always contains `start` itself. This is the shared-reference BFS; the
    /// migration hot path uses the allocation-free
    /// [`AttachmentGraph::migration_closure_into`] instead.
    pub fn closure(&self, start: ObjectId, traversal: Traversal) -> BTreeSet<ObjectId> {
        let mut seen: BTreeSet<ObjectId> = BTreeSet::new();
        let mut frontier = VecDeque::new();
        seen.insert(start);
        frontier.push_back(start);
        while let Some(obj) = frontier.pop_front() {
            for next in self.neighbours(obj, traversal) {
                if seen.insert(next) {
                    frontier.push_back(next);
                }
            }
        }
        seen
    }

    /// The closure a migration invoked in `context` must move, respecting the
    /// graph's [`AttachmentMode`]:
    ///
    /// * `Unrestricted` / `Exclusive` — the full connected component (the
    ///   exclusive mode constrains the graph at attach time instead),
    /// * `ATransitive` — only edges of `context`.
    pub fn migration_closure(
        &self,
        start: ObjectId,
        context: Option<AllianceId>,
    ) -> BTreeSet<ObjectId> {
        let traversal = match self.mode {
            AttachmentMode::Unrestricted | AttachmentMode::Exclusive => Traversal::AllEdges,
            AttachmentMode::ATransitive => Traversal::Context(context),
        };
        self.closure(start, traversal)
    }

    /// [`AttachmentGraph::migration_closure`] without the allocations: fills
    /// `scratch` with the closure members in ascending id order, reading the
    /// incrementally-maintained components (and rebuilding the one component
    /// a preceding `detach` may have dirtied).
    ///
    /// Takes `&mut self` for union-find path compression and lazy rebuilds;
    /// the answer is identical to `migration_closure` in every state.
    pub fn migration_closure_into(
        &mut self,
        start: ObjectId,
        context: Option<AllianceId>,
        scratch: &mut ClosureScratch,
    ) {
        scratch.members.clear();
        let Some(s) = self.slot(start) else {
            scratch.members.push(start);
            return;
        };
        match self.mode {
            AttachmentMode::Unrestricted | AttachmentMode::Exclusive => {
                closure_into_slots(
                    &mut self.all_edges,
                    &self.out,
                    Traversal::AllEdges,
                    s,
                    &mut scratch.slots,
                );
            }
            AttachmentMode::ATransitive => {
                let Some(i) = self.per_context.iter().position(|(c, _)| *c == context) else {
                    scratch.members.push(start);
                    return;
                };
                closure_into_slots(
                    &mut self.per_context[i].1,
                    &self.out,
                    Traversal::Context(context),
                    s,
                    &mut scratch.slots,
                );
            }
        }
        scratch
            .members
            .extend(scratch.slots.iter().map(|&sl| self.objects[sl as usize]));
        scratch.members.sort_unstable();
    }
}

impl Default for AttachmentGraph {
    fn default() -> Self {
        AttachmentGraph::new(AttachmentMode::Unrestricted)
    }
}

fn traversal_admits(traversal: Traversal, edge_ctx: Option<AllianceId>) -> bool {
    match traversal {
        Traversal::AllEdges => true,
        Traversal::Context(ctx) => edge_ctx == ctx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(i: u32) -> ObjectId {
        ObjectId::new(i)
    }
    // wrapped so call sites read like the `Option<AllianceId>` parameters
    #[allow(clippy::unnecessary_wraps)]
    fn ally(i: u32) -> Option<AllianceId> {
        Some(AllianceId::new(i))
    }

    /// The incremental closure must agree with the BFS in every state.
    fn assert_closures_agree(g: &mut AttachmentGraph, start: ObjectId, ctx: Option<AllianceId>) {
        let bfs = g.migration_closure(start, ctx);
        let mut scratch = ClosureScratch::new();
        g.migration_closure_into(start, ctx, &mut scratch);
        assert_eq!(
            scratch.members().to_vec(),
            bfs.iter().copied().collect::<Vec<_>>(),
            "incremental closure diverged from BFS at {start:?} in {ctx:?}"
        );
    }

    #[test]
    fn attach_and_closure_are_undirected() {
        let mut g = AttachmentGraph::default();
        g.attach(obj(1), obj(2), None).unwrap();
        // closure from either endpoint contains both
        assert!(g.closure(obj(1), Traversal::AllEdges).contains(&obj(2)));
        assert!(g.closure(obj(2), Traversal::AllEdges).contains(&obj(1)));
    }

    #[test]
    fn closure_always_contains_start() {
        let g = AttachmentGraph::default();
        let c = g.closure(obj(7), Traversal::AllEdges);
        assert_eq!(c.len(), 1);
        assert!(c.contains(&obj(7)));
    }

    #[test]
    fn transitive_chaining_of_overlapping_working_sets() {
        // S1a → S2x ← S1b: the paper's overlap hazard.
        let mut g = AttachmentGraph::default();
        g.attach(obj(10), obj(1), None).unwrap(); // s2x latched by s1a
        g.attach(obj(10), obj(2), None).unwrap(); // s2x also latched by s1b (unrestricted allows it)
        let c = g.closure(obj(1), Traversal::AllEdges);
        assert!(c.contains(&obj(2)), "overlap chains both working sets");
    }

    #[test]
    fn a_transitive_cuts_foreign_context_edges() {
        let mut g = AttachmentGraph::new(AttachmentMode::ATransitive);
        g.attach(obj(2), obj(1), ally(0)).unwrap();
        g.attach(obj(3), obj(1), ally(1)).unwrap();
        g.attach(obj(4), obj(3), ally(1)).unwrap();
        let ws0 = g.migration_closure(obj(1), ally(0));
        assert_eq!(ws0.into_iter().collect::<Vec<_>>(), vec![obj(1), obj(2)]);
        let ws1 = g.migration_closure(obj(1), ally(1));
        assert_eq!(
            ws1.into_iter().collect::<Vec<_>>(),
            vec![obj(1), obj(3), obj(4)]
        );
        assert_closures_agree(&mut g, obj(1), ally(0));
        assert_closures_agree(&mut g, obj(1), ally(1));
    }

    #[test]
    fn a_transitive_with_no_context_follows_untagged_edges_only() {
        let mut g = AttachmentGraph::new(AttachmentMode::ATransitive);
        g.attach(obj(2), obj(1), None).unwrap();
        g.attach(obj(3), obj(1), ally(0)).unwrap();
        let ws = g.migration_closure(obj(1), None);
        assert_eq!(ws.into_iter().collect::<Vec<_>>(), vec![obj(1), obj(2)]);
        assert_closures_agree(&mut g, obj(1), None);
    }

    #[test]
    fn unrestricted_mode_ignores_contexts_for_migration() {
        let mut g = AttachmentGraph::new(AttachmentMode::Unrestricted);
        g.attach(obj(2), obj(1), ally(0)).unwrap();
        g.attach(obj(3), obj(1), ally(1)).unwrap();
        assert_eq!(g.migration_closure(obj(1), ally(0)).len(), 3);
        assert_closures_agree(&mut g, obj(1), ally(0));
    }

    #[test]
    fn exclusive_mode_is_first_come_first_served() {
        let mut g = AttachmentGraph::new(AttachmentMode::Exclusive);
        assert_eq!(
            g.attach(obj(5), obj(1), None).unwrap(),
            AttachOutcome::Attached
        );
        assert_eq!(
            g.attach(obj(5), obj(2), None).unwrap(),
            AttachOutcome::IgnoredExclusive
        );
        assert!(!g.contains_edge(obj(5), obj(2)));
        // but the same edge can be re-issued
        assert_eq!(
            g.attach(obj(5), obj(1), None).unwrap(),
            AttachOutcome::AlreadyAttached
        );
        // and stars around a hub are allowed (many incoming edges)
        assert_eq!(
            g.attach(obj(6), obj(1), None).unwrap(),
            AttachOutcome::Attached
        );
        assert_closures_agree(&mut g, obj(5), None);
    }

    #[test]
    fn duplicate_and_retag_outcomes() {
        let mut g = AttachmentGraph::default();
        assert_eq!(
            g.attach(obj(1), obj(2), ally(0)).unwrap(),
            AttachOutcome::Attached
        );
        assert_eq!(
            g.attach(obj(1), obj(2), ally(0)).unwrap(),
            AttachOutcome::AlreadyAttached
        );
        assert_eq!(
            g.attach(obj(1), obj(2), ally(1)).unwrap(),
            AttachOutcome::Retagged
        );
        assert_eq!(g.edge_context(obj(1), obj(2)), Some(ally(1)));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn retag_moves_the_edge_between_context_components() {
        let mut g = AttachmentGraph::new(AttachmentMode::ATransitive);
        g.attach(obj(1), obj(2), ally(0)).unwrap();
        assert_eq!(g.migration_closure(obj(1), ally(0)).len(), 2);
        assert_closures_agree(&mut g, obj(1), ally(0));
        g.attach(obj(1), obj(2), ally(1)).unwrap(); // retag 0 → 1
        assert_eq!(g.migration_closure(obj(1), ally(0)).len(), 1);
        assert_eq!(g.migration_closure(obj(1), ally(1)).len(), 2);
        assert_closures_agree(&mut g, obj(1), ally(0));
        assert_closures_agree(&mut g, obj(1), ally(1));
        assert_closures_agree(&mut g, obj(2), ally(0));
    }

    #[test]
    fn self_attachment_is_rejected() {
        let mut g = AttachmentGraph::default();
        assert_eq!(
            g.attach(obj(3), obj(3), None),
            Err(AttachError::SelfAttachment(obj(3)))
        );
    }

    #[test]
    fn detach_restores_independence() {
        let mut g = AttachmentGraph::default();
        g.attach(obj(1), obj(2), None).unwrap();
        assert!(g.detach(obj(1), obj(2)));
        assert!(!g.detach(obj(1), obj(2)));
        assert_eq!(g.closure(obj(1), Traversal::AllEdges).len(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_closures_agree(&mut g, obj(1), None);
        assert_closures_agree(&mut g, obj(2), None);
    }

    #[test]
    fn detach_is_directional() {
        let mut g = AttachmentGraph::default();
        g.attach(obj(1), obj(2), None).unwrap();
        // detaching in the wrong direction does nothing
        assert!(!g.detach(obj(2), obj(1)));
        assert!(g.contains_edge(obj(1), obj(2)));
    }

    #[test]
    fn detach_all_cleans_both_directions() {
        let mut g = AttachmentGraph::default();
        g.attach(obj(1), obj(2), None).unwrap();
        g.attach(obj(3), obj(1), None).unwrap();
        g.attach(obj(4), obj(5), None).unwrap();
        assert_eq!(g.detach_all(obj(1)), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.closure(obj(2), Traversal::AllEdges).len(), 1);
        assert_eq!(g.closure(obj(3), Traversal::AllEdges).len(), 1);
        for o in [1, 2, 3, 4, 5] {
            assert_closures_agree(&mut g, obj(o), None);
        }
    }

    #[test]
    fn detach_splits_a_chain_and_the_lazy_rebuild_sees_it() {
        // 1 - 2 - 3 - 4, cut the middle edge: {1,2} and {3,4}.
        let mut g = AttachmentGraph::default();
        g.attach(obj(1), obj(2), None).unwrap();
        g.attach(obj(2), obj(3), None).unwrap();
        g.attach(obj(3), obj(4), None).unwrap();
        let mut scratch = ClosureScratch::new();
        g.migration_closure_into(obj(1), None, &mut scratch);
        assert_eq!(scratch.members().len(), 4);
        assert!(g.detach(obj(2), obj(3)));
        g.migration_closure_into(obj(1), None, &mut scratch);
        assert_eq!(scratch.members(), &[obj(1), obj(2)]);
        g.migration_closure_into(obj(4), None, &mut scratch);
        assert_eq!(scratch.members(), &[obj(3), obj(4)]);
        // re-join and query again: the incremental structure must follow
        g.attach(obj(2), obj(4), None).unwrap();
        g.migration_closure_into(obj(3), None, &mut scratch);
        assert_eq!(scratch.members().len(), 4);
    }

    #[test]
    fn closure_scratch_is_reusable_across_graphs_and_queries() {
        let mut scratch = ClosureScratch::new();
        let mut g = AttachmentGraph::default();
        g.attach(obj(8), obj(9), None).unwrap();
        g.migration_closure_into(obj(8), None, &mut scratch);
        assert_eq!(scratch.members(), &[obj(8), obj(9)]);
        // an object the graph has never seen is its own closure
        g.migration_closure_into(obj(77), None, &mut scratch);
        assert_eq!(scratch.members(), &[obj(77)]);
    }

    #[test]
    fn attach_checked_validates_membership() {
        let mut reg = AllianceRegistry::new();
        let a = reg.create("ws");
        reg.join(a, obj(1)).unwrap();
        let mut g = AttachmentGraph::new(AttachmentMode::ATransitive);
        let err = g.attach_checked(obj(1), obj(2), Some(a), &reg).unwrap_err();
        assert_eq!(
            err,
            AttachError::NotAllianceMember {
                object: obj(2),
                alliance: a
            }
        );
        reg.join(a, obj(2)).unwrap();
        assert_eq!(
            g.attach_checked(obj(1), obj(2), Some(a), &reg).unwrap(),
            AttachOutcome::Attached
        );
        let ghost = AllianceId::new(42);
        assert_eq!(
            g.attach_checked(obj(1), obj(3), Some(ghost), &reg)
                .unwrap_err(),
            AttachError::UnknownAlliance(ghost)
        );
    }

    #[test]
    fn neighbours_are_sorted_and_deduplicated() {
        let mut g = AttachmentGraph::default();
        g.attach(obj(1), obj(3), None).unwrap();
        g.attach(obj(3), obj(1), None).unwrap(); // mutual edges
        g.attach(obj(1), obj(2), None).unwrap();
        assert_eq!(
            g.neighbours(obj(1), Traversal::AllEdges),
            vec![obj(2), obj(3)]
        );
    }

    #[test]
    fn interning_is_stable_under_sparse_ids() {
        // ids need not be contiguous; the arena interns on first contact
        let mut g = AttachmentGraph::default();
        g.attach(obj(1000), obj(3), None).unwrap();
        g.attach(obj(3), obj(500), None).unwrap();
        let mut scratch = ClosureScratch::new();
        g.migration_closure_into(obj(500), None, &mut scratch);
        assert_eq!(scratch.members(), &[obj(3), obj(500), obj(1000)]);
    }

    #[test]
    fn mode_is_reported() {
        assert_eq!(
            AttachmentGraph::new(AttachmentMode::Exclusive).mode(),
            AttachmentMode::Exclusive
        );
        assert_eq!(AttachmentMode::default(), AttachmentMode::Unrestricted);
        assert_eq!(AttachmentMode::ATransitive.to_string(), "a-transitive");
    }
}
