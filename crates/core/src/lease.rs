//! Lease-based placement locks.
//!
//! The paper's placement lock (§3.2) is released by the *end-request* of the
//! move-block that acquired it. In a failure-free world that is enough; in a
//! faulty one the end-request can be lost, or the node hosting the block can
//! crash, leaving the object locked forever. A [`LeaseTable`] makes every
//! lock a **lease**: the grant is valid for a bounded time and must be
//! renewed by activity (invocations inside the block). The end-request stays
//! the fast path; lease expiry is the recovery path.
//!
//! Time is an abstract millisecond counter supplied by the caller — the
//! runtime feeds wall-clock milliseconds, tests feed hand-rolled instants —
//! so the table itself stays deterministic and substrate-free.
//!
//! A table built with [`LeaseTable::new`] has **no expiry** (infinite
//! leases): it behaves exactly like the original lock map, which is what the
//! deterministic simulator and the existing policy semantics rely on.

use crate::ids::{BlockId, ObjectId};

/// One granted placement lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LeaseEntry {
    /// The move-block holding the lock.
    block: BlockId,
    /// Absolute expiry instant in the table's clock (ignored when the table
    /// has no TTL).
    expires_at_ms: u64,
}

/// A map from objects to the move-blocks holding their placement locks,
/// with optional time-to-live semantics.
///
/// # Example
///
/// ```
/// use oml_core::ids::{BlockId, ObjectId};
/// use oml_core::lease::LeaseTable;
///
/// let mut t = LeaseTable::with_ttl_ms(100);
/// let (obj, blk) = (ObjectId::new(1), BlockId::new(7));
/// assert_eq!(t.acquire(obj, blk, 0), None);
/// assert_eq!(t.holder(obj), Some(blk));
/// // renewed activity pushes the expiry out…
/// assert!(t.renew(obj, 80));
/// t.advance(150);
/// assert_eq!(t.holder(obj), Some(blk));
/// // …but silence past the TTL releases the lock.
/// let expired = t.advance(300);
/// assert_eq!(expired, vec![(obj, blk)]);
/// assert_eq!(t.holder(obj), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct LeaseTable {
    /// Lease duration; `None` means locks never expire (the failure-free
    /// semantics of §3.2).
    ttl_ms: Option<u64>,
    /// The table's notion of "now", advanced monotonically by the caller.
    now_ms: u64,
    /// Slot per object id (objects are dense u32s); scans come out in id
    /// order for free, which keeps every sweep deterministic.
    entries: Vec<Option<LeaseEntry>>,
}

impl LeaseTable {
    /// A table whose locks never expire — release happens only through
    /// [`LeaseTable::release`].
    #[must_use]
    pub fn new() -> Self {
        LeaseTable::default()
    }

    /// A table whose locks expire `ttl_ms` milliseconds after their last
    /// acquisition or renewal.
    ///
    /// # Panics
    ///
    /// Panics if `ttl_ms` is zero — a lease that is born expired cannot
    /// protect anything.
    #[must_use]
    pub fn with_ttl_ms(ttl_ms: u64) -> Self {
        assert!(ttl_ms > 0, "a lease needs a positive duration");
        LeaseTable {
            ttl_ms: Some(ttl_ms),
            now_ms: 0,
            entries: Vec::new(),
        }
    }

    /// The configured lease duration (`None` = never expires).
    #[must_use]
    pub fn ttl_ms(&self) -> Option<u64> {
        self.ttl_ms
    }

    fn is_live(&self, e: &LeaseEntry) -> bool {
        self.ttl_ms.is_none() || e.expires_at_ms > self.now_ms
    }

    fn expiry_from(&self, now_ms: u64) -> u64 {
        now_ms.saturating_add(self.ttl_ms.unwrap_or(0))
    }

    /// The block currently holding `object`'s lock, if any non-expired one
    /// exists. Expired entries read as free even before the next
    /// [`LeaseTable::advance`] sweeps them out.
    #[must_use]
    pub fn holder(&self, object: ObjectId) -> Option<BlockId> {
        self.entries
            .get(object.index())
            .and_then(Option::as_ref)
            .filter(|e| self.is_live(e))
            .map(|e| e.block)
    }

    /// Grants the lock on `object` to `block` at time `now_ms`.
    ///
    /// Returns the previous **live** holder if the object was already
    /// locked (an expired entry is silently replaced). Re-acquiring by the
    /// same block refreshes the lease and reports no conflict.
    pub fn acquire(&mut self, object: ObjectId, block: BlockId, now_ms: u64) -> Option<BlockId> {
        self.touch(now_ms);
        let previous = self.holder(object).filter(|&b| b != block);
        if object.index() >= self.entries.len() {
            self.entries.resize(object.index() + 1, None);
        }
        self.entries[object.index()] = Some(LeaseEntry {
            block,
            expires_at_ms: self.expiry_from(self.now_ms),
        });
        previous
    }

    /// [`LeaseTable::acquire`] at the table's current clock — for callers
    /// (like [`crate::policy::MovePolicy::on_installed`]) that have no
    /// timestamp of their own.
    pub(crate) fn acquire_now(&mut self, object: ObjectId, block: BlockId) -> Option<BlockId> {
        let now = self.now_ms;
        self.acquire(object, block, now)
    }

    /// Releases `object`'s lock iff it is currently held by `block`.
    ///
    /// Returns whether a lock was released. A stale release — from a block
    /// whose lease already expired and whose lock may have been re-granted —
    /// is a no-op rather than an error: under message loss the same
    /// end-request can arrive twice, or arrive after the recovery path
    /// already freed the object.
    pub fn release(&mut self, object: ObjectId, block: BlockId) -> bool {
        if self.holder(object) == Some(block) {
            self.entries[object.index()] = None;
            true
        } else {
            false
        }
    }

    /// Unconditionally releases `object`'s lock, returning the holder it
    /// displaced (live or expired).
    ///
    /// This is the crash-cleanup path: when a node fails, the lock state it
    /// hosted is volatile and dies with it, so the substrate forcibly frees
    /// the locks of every object stranded on the crashed node — no holder
    /// check, because the holder's end-request can never arrive.
    pub(crate) fn force_release(&mut self, object: ObjectId) -> Option<BlockId> {
        self.entries
            .get_mut(object.index())
            .and_then(Option::take)
            .map(|e| e.block)
    }

    /// Extends `object`'s lease to `now_ms + ttl` if it is currently held.
    /// Returns whether a live lease was renewed.
    pub fn renew(&mut self, object: ObjectId, now_ms: u64) -> bool {
        self.touch(now_ms);
        let expires_at_ms = self.expiry_from(self.now_ms);
        match self
            .entries
            .get_mut(object.index())
            .and_then(Option::as_mut)
        {
            Some(e) if self.ttl_ms.is_none() || e.expires_at_ms > self.now_ms => {
                e.expires_at_ms = expires_at_ms;
                true
            }
            _ => false,
        }
    }

    /// Advances the clock monotonically (a stale `now_ms` is ignored).
    pub fn touch(&mut self, now_ms: u64) {
        self.now_ms = self.now_ms.max(now_ms);
    }

    /// Advances the clock and sweeps out expired leases, returning them
    /// (sorted by object id, so sweeps are deterministic).
    pub fn advance(&mut self, now_ms: u64) -> Vec<(ObjectId, BlockId)> {
        self.touch(now_ms);
        if self.ttl_ms.is_none() {
            return Vec::new();
        }
        let now = self.now_ms;
        let mut expired: Vec<(ObjectId, BlockId)> = Vec::new();
        for (i, slot) in self.entries.iter_mut().enumerate() {
            if let Some(e) = slot {
                if e.expires_at_ms <= now {
                    expired.push((ObjectId::new(i as u32), e.block));
                    *slot = None;
                }
            }
        }
        expired
    }

    /// The earliest instant at which a lease in the table runs out — when
    /// the next [`LeaseTable::advance`] has something to sweep. Leases past
    /// their expiry but not yet swept count (their instant lies in the
    /// past). `None` for a table without a TTL or without locks.
    #[must_use]
    pub fn next_expiry_ms(&self) -> Option<u64> {
        self.ttl_ms?;
        self.entries.iter().flatten().map(|e| e.expires_at_ms).min()
    }

    /// All live locks, sorted by object id.
    #[must_use]
    pub fn held(&self) -> Vec<(ObjectId, BlockId)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|e| (i, e)))
            .filter(|(_, e)| self.is_live(e))
            .map(|(i, e)| (ObjectId::new(i as u32), e.block))
            .collect()
    }

    /// Number of live locks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
            .iter()
            .flatten()
            .filter(|e| self.is_live(e))
            .count()
    }

    /// Whether no live lock exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(o: u32, b: u32) -> (ObjectId, BlockId) {
        (ObjectId::new(o), BlockId::new(b))
    }

    #[test]
    fn infinite_leases_behave_like_a_plain_lock_map() {
        let mut t = LeaseTable::new();
        let (o, b) = ids(0, 1);
        assert_eq!(t.acquire(o, b, 0), None);
        assert_eq!(t.advance(u64::MAX), Vec::new());
        assert_eq!(t.holder(o), Some(b));
        assert!(t.release(o, b));
        assert_eq!(t.holder(o), None);
    }

    #[test]
    fn expiry_frees_the_lock_and_reports_it() {
        let mut t = LeaseTable::with_ttl_ms(50);
        let (o, b) = ids(3, 9);
        t.acquire(o, b, 100);
        assert_eq!(t.holder(o), Some(b));
        assert_eq!(t.advance(149), Vec::new());
        assert_eq!(t.advance(150), vec![(o, b)]);
        assert!(t.is_empty());
    }

    #[test]
    fn renewal_extends_exactly_one_ttl_from_the_renewal_instant() {
        let mut t = LeaseTable::with_ttl_ms(50);
        let (o, b) = ids(1, 2);
        t.acquire(o, b, 0);
        assert!(t.renew(o, 40)); // now expires at 90
        assert_eq!(t.advance(89), Vec::new());
        assert_eq!(t.holder(o), Some(b));
        assert_eq!(t.advance(90), vec![(o, b)]);
        // renewing a gone lease fails
        assert!(!t.renew(o, 91));
    }

    #[test]
    fn expired_holder_reads_as_free_before_the_sweep() {
        let mut t = LeaseTable::with_ttl_ms(10);
        let (o, b) = ids(0, 0);
        t.acquire(o, b, 0);
        t.touch(10);
        // no advance() ran, but the lease is dead already
        assert_eq!(t.holder(o), None);
        assert!(t.is_empty());
        // a new block can take over; the old entry is replaced silently
        let b2 = BlockId::new(1);
        assert_eq!(t.acquire(o, b2, 10), None);
        assert_eq!(t.holder(o), Some(b2));
    }

    #[test]
    fn stale_release_cannot_free_the_new_holders_lock() {
        let mut t = LeaseTable::with_ttl_ms(10);
        let (o, b1) = ids(0, 0);
        let b2 = BlockId::new(1);
        t.acquire(o, b1, 0);
        t.advance(20); // b1's lease expires
        t.acquire(o, b2, 20);
        // b1's late end-request arrives — must not release b2's lock
        assert!(!t.release(o, b1));
        assert_eq!(t.holder(o), Some(b2));
        assert!(t.release(o, b2));
    }

    #[test]
    fn reacquire_by_the_same_block_is_a_refresh_not_a_conflict() {
        let mut t = LeaseTable::with_ttl_ms(10);
        let (o, b) = ids(5, 5);
        assert_eq!(t.acquire(o, b, 0), None);
        assert_eq!(t.acquire(o, b, 5), None); // duplicate install
        assert_eq!(t.advance(14), Vec::new()); // refreshed to 15
        assert_eq!(t.advance(15), vec![(o, b)]);
    }

    #[test]
    fn acquire_over_a_live_holder_reports_the_conflict() {
        let mut t = LeaseTable::new();
        let (o, b1) = ids(0, 0);
        let b2 = BlockId::new(1);
        t.acquire(o, b1, 0);
        assert_eq!(t.acquire(o, b2, 1), Some(b1));
        assert_eq!(t.holder(o), Some(b2));
    }

    #[test]
    fn clock_is_monotonic() {
        let mut t = LeaseTable::with_ttl_ms(10);
        let (o, b) = ids(0, 0);
        t.touch(100);
        t.acquire(o, b, 50); // stale timestamp: clock stays at 100
        assert_eq!(t.advance(109), Vec::new());
        assert_eq!(t.advance(110), vec![(o, b)]);
    }

    #[test]
    fn sweep_order_is_deterministic() {
        let mut t = LeaseTable::with_ttl_ms(5);
        for i in (0..10).rev() {
            t.acquire(ObjectId::new(i), BlockId::new(i), 0);
        }
        let expired = t.advance(100);
        let objects: Vec<u32> = expired.iter().map(|(o, _)| o.index() as u32).collect();
        assert_eq!(objects, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn zero_ttl_rejected() {
        let _ = LeaseTable::with_ttl_ms(0);
    }

    #[test]
    fn next_expiry_is_the_earliest_unswept_lease() {
        assert_eq!(LeaseTable::new().next_expiry_ms(), None);
        let mut t = LeaseTable::with_ttl_ms(10);
        assert_eq!(t.next_expiry_ms(), None);
        t.acquire(ObjectId::new(3), BlockId::new(0), 5);
        t.acquire(ObjectId::new(1), BlockId::new(1), 7);
        assert_eq!(t.next_expiry_ms(), Some(15));
        t.touch(16); // expired, not yet swept: still the next thing to sweep
        assert_eq!(t.next_expiry_ms(), Some(15));
        assert_eq!(t.advance(16).len(), 1);
        assert_eq!(t.next_expiry_ms(), Some(17));
        let mut forever = LeaseTable::new();
        forever.acquire(ObjectId::new(0), BlockId::new(0), 0);
        assert_eq!(forever.next_expiry_ms(), None);
    }

    #[test]
    fn force_release_frees_live_and_expired_entries() {
        let mut t = LeaseTable::with_ttl_ms(10);
        let (o, b) = ids(0, 7);
        t.acquire(o, b, 0);
        assert_eq!(t.force_release(o), Some(b));
        assert_eq!(t.holder(o), None);
        assert_eq!(t.force_release(o), None);
        // an expired entry is still reported, so crash cleanup can log it
        t.acquire(o, b, 0);
        t.touch(100);
        assert_eq!(t.holder(o), None);
        assert_eq!(t.force_release(o), Some(b));
    }
}
