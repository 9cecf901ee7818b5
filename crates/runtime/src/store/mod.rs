//! Durable checkpoint stores: the persistence substrate under the
//! quorum-replicated checkpoints.
//!
//! PR 5's replicated checkpoints keep every passive copy in process
//! memory, so a correlated failure beyond the replica set — or a
//! whole-cluster power loss — still loses every object. This module adds
//! the missing layer: a [`CheckpointStore`] trait with two production
//! implementations,
//!
//! * [`MemStore`] — today's behavior, bit-compatible: a `HashMap` with the
//!   same freshness coordinates, for clusters that opt out of disk, and
//! * [`WalStore`] — a per-node on-disk store built on a CRC-32-framed
//!   append-only write-ahead log (the incremental-decoder idiom of
//!   [`crate::transport::frame`]: truncation is steady state, corruption
//!   is terminal), a configurable [`FsyncPolicy`], snapshot compaction via
//!   write-temp-then-atomic-rename with a manifest, and cold-start
//!   recovery that replays snapshot + WAL suffix, truncates at the first
//!   torn record and preserves object-epoch monotonicity so PR 4's
//!   fencing survives restarts.
//!
//! All *real* filesystem IO is confined to [`fsio`] (enforced by the
//! `store_io.rs` source-scan test); `FaultFs`, compiled only for the
//! crate's unit tests, is a purely in-memory [`fsio::Storage`] that injects torn writes, skipped fsyncs, bit flips
//! and vanishing files — the storage-side sibling of the message-level
//! `FaultPlan` — so the chaos tests can simulate power loss
//! deterministically (a real SIGKILL never loses completed `write`s: the
//! page cache survives the process).

#[cfg(test)]
pub(crate) mod faultfs;
pub mod fsio;
pub mod wal;

pub use fsio::Storage;
pub use wal::{CompactionReport, RecoveryReport, WalRecord, WalSegment, WalStore, WalStoreConfig};

use crate::trace::TraceCollector;
use bytes::Bytes;
use oml_check::event::EventKind;
use oml_core::ids::ObjectId;
use std::collections::HashMap;

/// One passive copy of an object, stamped with the freshness coordinates
/// that order it against other copies: freshness is the lexicographic
/// order on `(object_epoch, seq)`. The one checkpoint record of the crate:
/// what a replica store holds, what a WAL `Put` logs, what an `Install` and
/// a `CheckpointPut` carry and — as [`crate::wire::CheckpointFrame`] — what
/// a copy is as bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoredCheckpoint {
    /// The registered type tag used to delinearize the state.
    pub type_tag: String,
    /// The object's linearized state.
    pub state: Bytes,
    /// The object epoch the copy was linearized under.
    pub object_epoch: u64,
    /// The refresh sequence number within that epoch.
    pub seq: u64,
}

impl StoredCheckpoint {
    /// `instance` linearized now, its freshness coordinates (zero) still
    /// to be stamped by whoever ships or stores it.
    pub(crate) fn of(instance: &dyn crate::object::MobileObject) -> Self {
        StoredCheckpoint {
            type_tag: instance.type_tag().to_owned(),
            state: Bytes::from(instance.linearize()),
            object_epoch: 0,
            seq: 0,
        }
    }

    /// The freshness coordinates: copies compare lexicographically.
    #[must_use]
    pub fn version(&self) -> (u64, u64) {
        (self.object_epoch, self.seq)
    }
}

/// How durable a just-acknowledged write is, per the store's fsync policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum Durability {
    /// The record is on stable storage (fsync completed before returning).
    Durable,
    /// The record is written but not yet synced — a power loss may lose it.
    Buffered,
}

impl Durability {
    /// `true` iff the write reached stable storage before returning.
    #[must_use]
    pub fn is_durable(self) -> bool {
        matches!(self, Durability::Durable)
    }
}

/// When the write-ahead log is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Every append is synced before the write is acknowledged. An acked
    /// checkpoint survives any cold restart.
    #[default]
    Always,
    /// Sync after `n` unsynced records or `ms` milliseconds, whichever
    /// comes first. Bounded loss window, amortized sync cost. The store
    /// has no thread of its own: a put checks both bounds, and for a store
    /// gone idle someone has to call [`CheckpointStore::sync`]. The
    /// multi-process coordinator does, on every detector pass (so its bound
    /// is `max(ms, heartbeat_ms)`); the in-process node stores are left to
    /// their next put, so that scripted `FaultFs` replays stay
    /// bit-identical.
    Batch {
        /// Unsynced records that force a sync.
        n: u64,
        /// Milliseconds since the last sync that force one.
        ms: u64,
    },
    /// Never sync (the OS flushes when it pleases) — the negative-control
    /// policy: acks lie about durability and the checker must catch the
    /// loss after a simulated power failure.
    Never,
}

impl FsyncPolicy {
    /// Parses `always` / `never` / `batch:N:MS` (the `--fsync` /
    /// `OML_FSYNC` grammar). `None` on anything else.
    #[must_use]
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            other => {
                let rest = other.strip_prefix("batch:")?;
                let (n, ms) = rest.split_once(':')?;
                Some(FsyncPolicy::Batch {
                    n: n.parse().ok()?,
                    ms: ms.parse().ok()?,
                })
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Batch { n, ms } => write!(f, "batch:{n}:{ms}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// A storage-layer failure. Unlike the in-memory paths these are real
/// errors a caller must handle — never `.unwrap()`ed inside `store/`
/// (enforced by the `store_io.rs` source-scan test).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An IO operation failed.
    Io {
        /// Which operation (`append`, `sync`, `rename`, …).
        op: &'static str,
        /// The path involved.
        path: String,
        /// The OS error text.
        message: String,
    },
    /// A persisted structure failed validation (manifest or snapshot).
    Corrupt {
        /// The path involved.
        path: String,
        /// What failed to validate.
        detail: String,
    },
}

impl StoreError {
    pub(crate) fn io(op: &'static str, path: &std::path::Path, e: &std::io::Error) -> StoreError {
        StoreError::Io {
            op,
            path: path.display().to_string(),
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { op, path, message } => {
                write!(f, "store io failure: {op} {path}: {message}")
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "store corruption: {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Write-ahead-log observability counters (all zero for [`MemStore`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended to the WAL since open.
    pub appended: u64,
    /// Records made durable since open, by an fsync or by the snapshot of
    /// a compaction.
    pub synced: u64,
    /// Fsync calls issued.
    pub syncs: u64,
    /// Snapshot compactions performed.
    pub compactions: u64,
    /// Records in the live WAL segment (resets at compaction).
    pub wal_records: u64,
    /// Bytes in the live WAL segment (resets at compaction).
    pub wal_bytes: u64,
    /// Current snapshot generation.
    pub generation: u64,
}

/// A store of passive object copies with epoch-floor bookkeeping and a
/// small `u32 → u64` metadata table (the multi-process coordinator keeps
/// worker incarnations there so fencing survives its own restart).
///
/// Freshness gating is the *caller's* job — [`put`](Self::put) installs
/// unconditionally; callers compare [`StoredCheckpoint::version`] first,
/// exactly as the in-memory path always has.
pub trait CheckpointStore: Send {
    /// The stored copy of `object`, if any.
    fn get(&self, object: ObjectId) -> Option<&StoredCheckpoint>;

    /// Installs `ckpt` as `object`'s copy and raises the object's epoch
    /// floor to `ckpt.object_epoch`. Returns how durable the write is per
    /// the store's fsync policy.
    ///
    /// # Errors
    /// [`StoreError`] on an IO failure — the record may be torn on disk;
    /// recovery truncates it.
    fn put(&mut self, object: ObjectId, ckpt: StoredCheckpoint) -> Result<Durability, StoreError>;

    /// Drops `object`'s copy (its epoch floor is retained).
    ///
    /// # Errors
    /// [`StoreError`] on an IO failure.
    fn remove(&mut self, object: ObjectId) -> Result<(), StoreError>;

    /// Drops every copy. Epoch floors and metadata are retained — fencing
    /// must survive a wipe of the payload data.
    ///
    /// # Errors
    /// [`StoreError`] on an IO failure.
    fn clear(&mut self) -> Result<(), StoreError>;

    /// Every object with a stored copy.
    fn objects(&self) -> Vec<ObjectId>;

    /// Number of stored copies.
    fn len(&self) -> usize;

    /// `true` iff no copies are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forces buffered records to stable storage; returns how many records
    /// became durable.
    ///
    /// # Errors
    /// [`StoreError`] on an IO failure.
    fn sync(&mut self) -> Result<u64, StoreError>;

    /// Raises `object`'s epoch floor to `epoch` (noop if already higher).
    /// Durable stores persist the floor so a cold restart cannot
    /// reinstantiate the object under a stale epoch.
    ///
    /// # Errors
    /// [`StoreError`] on an IO failure.
    fn note_epoch(&mut self, object: ObjectId, epoch: u64) -> Result<Durability, StoreError>;

    /// The highest object epoch ever recorded for `object` (0 if none).
    fn epoch_floor(&self, object: ObjectId) -> u64;

    /// Every `(object, floor)` pair with a nonzero floor.
    fn epoch_floors(&self) -> Vec<(ObjectId, u64)>;

    /// Persists a metadata entry (e.g. a worker incarnation).
    ///
    /// # Errors
    /// [`StoreError`] on an IO failure.
    fn set_meta(&mut self, key: u32, value: u64) -> Result<Durability, StoreError>;

    /// A metadata entry, if set.
    fn meta(&self, key: u32) -> Option<u64>;

    /// WAL observability counters (zeros for in-memory stores).
    fn wal_stats(&self) -> WalStats {
        WalStats::default()
    }

    /// `true` iff writes land on stable storage (a cold restart can
    /// recover them). Gates `WalAppended`/`ColdRecovered` trace emission —
    /// in-memory stores stay silent so the checker's durability invariants
    /// only arm when there is a disk to hold them to.
    fn durable_backed(&self) -> bool {
        false
    }
}

/// The `ColdRecovered` event for `store`, reopened as `report` says: the
/// `(object, object_epoch, seq)` of every copy it holds, in object order,
/// and whether the replay cut a torn tail or stopped on corruption.
pub(crate) fn cold_recovered(
    node: u32,
    store: &dyn CheckpointStore,
    report: &RecoveryReport,
) -> EventKind {
    let mut recovered: Vec<(ObjectId, u64, u64)> = (store.objects().into_iter())
        .filter_map(|o| store.get(o).map(|c| (o, c.object_epoch, c.seq)))
        .collect();
    recovered.sort_unstable_by_key(|&(o, ..)| o);
    EventKind::ColdRecovered {
        node,
        recovered,
        torn: report.torn_bytes > 0,
        corrupt: report.corrupt,
    }
}

/// Installs `ckpt` as `object`'s copy in `node`'s store and mirrors the
/// append into `trace`: [`EventKind::WalAppended`], then
/// [`EventKind::WalSynced`] when the put's sync (or compaction) also made
/// records buffered before it durable, then
/// [`EventKind::SnapshotCompacted`] when the put tipped the WAL into a
/// compaction. In-memory stores emit nothing, so the checker's durability
/// invariants only arm when there is a disk to hold them to. The put (and
/// its fsync, per policy) completes before anything is emitted or returned
/// — an ack never outruns durability. Freshness gating stays the caller's
/// job, as for [`CheckpointStore::put`]. (The collector's mutex is a leaf,
/// so callers may hold their store lock across this.)
///
/// # Errors
/// As [`CheckpointStore::put`]; nothing is emitted for a failed write.
pub(crate) fn put_traced(
    store: &mut dyn CheckpointStore,
    trace: &TraceCollector,
    node: u32,
    object: ObjectId,
    ckpt: StoredCheckpoint,
) -> Result<(), StoreError> {
    let (object_epoch, seq) = ckpt.version();
    let before = store.wal_stats();
    let durability = store.put(object, ckpt)?;
    if store.durable_backed() {
        let durable = durability.is_durable();
        let appended = EventKind::WalAppended {
            node,
            object,
            object_epoch,
            seq,
            durable,
        };
        trace.emit(node, appended);
        // its own record is counted above: only what the put's sync or
        // compaction made durable besides it is news
        trace_synced(store, trace, node, before.synced + u64::from(durable));
        let stats = store.wal_stats();
        if stats.compactions > before.compactions {
            let compacted = EventKind::SnapshotCompacted {
                node,
                generation: stats.generation,
                records: store.len() as u64,
            };
            trace.emit(node, compacted);
        }
    }
    Ok(())
}

/// Emits [`EventKind::WalSynced`] for `node` if `store` has made more
/// records durable than `synced` ([`WalStats::synced`] before the write
/// that may have synced): the records it buffered before are durable now.
pub(crate) fn trace_synced(
    store: &dyn CheckpointStore,
    trace: &TraceCollector,
    node: u32,
    synced: u64,
) {
    let records = store.wal_stats().synced.saturating_sub(synced);
    if records > 0 {
        trace.emit(node, EventKind::WalSynced { node, records });
    }
}

/// The in-memory store: bit-compatible with the pre-store behavior of the
/// quorum-replication layer. Every write is trivially "durable" for the
/// life of the process and gone with it.
#[derive(Debug, Default)]
pub struct MemStore {
    map: HashMap<ObjectId, StoredCheckpoint>,
    floors: HashMap<ObjectId, u64>,
    meta: HashMap<u32, u64>,
}

impl MemStore {
    /// An empty in-memory store.
    #[must_use]
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl CheckpointStore for MemStore {
    fn get(&self, object: ObjectId) -> Option<&StoredCheckpoint> {
        self.map.get(&object)
    }

    fn put(&mut self, object: ObjectId, ckpt: StoredCheckpoint) -> Result<Durability, StoreError> {
        let floor = self.floors.entry(object).or_insert(0);
        *floor = (*floor).max(ckpt.object_epoch);
        self.map.insert(object, ckpt);
        Ok(Durability::Durable)
    }

    fn remove(&mut self, object: ObjectId) -> Result<(), StoreError> {
        self.map.remove(&object);
        Ok(())
    }

    fn clear(&mut self) -> Result<(), StoreError> {
        self.map.clear();
        Ok(())
    }

    fn objects(&self) -> Vec<ObjectId> {
        self.map.keys().copied().collect()
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn sync(&mut self) -> Result<u64, StoreError> {
        Ok(0)
    }

    fn note_epoch(&mut self, object: ObjectId, epoch: u64) -> Result<Durability, StoreError> {
        let floor = self.floors.entry(object).or_insert(0);
        *floor = (*floor).max(epoch);
        Ok(Durability::Durable)
    }

    fn epoch_floor(&self, object: ObjectId) -> u64 {
        self.floors.get(&object).copied().unwrap_or(0)
    }

    fn epoch_floors(&self) -> Vec<(ObjectId, u64)> {
        self.floors
            .iter()
            .filter(|(_, &e)| e > 0)
            .map(|(&o, &e)| (o, e))
            .collect()
    }

    fn set_meta(&mut self, key: u32, value: u64) -> Result<Durability, StoreError> {
        self.meta.insert(key, value);
        Ok(Durability::Durable)
    }

    fn meta(&self, key: u32) -> Option<u64> {
        self.meta.get(&key).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckpt(epoch: u64, seq: u64) -> StoredCheckpoint {
        StoredCheckpoint {
            type_tag: "t".into(),
            state: Bytes::copy_from_slice(b"s"),
            object_epoch: epoch,
            seq,
        }
    }

    #[test]
    fn fsync_policy_grammar_round_trips() {
        for p in [
            FsyncPolicy::Always,
            FsyncPolicy::Never,
            FsyncPolicy::Batch { n: 8, ms: 50 },
        ] {
            assert_eq!(FsyncPolicy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::parse("batch:x:1"), None);
        assert_eq!(FsyncPolicy::parse("batch:1"), None);
    }

    #[test]
    fn mem_store_tracks_floors_through_remove_and_clear() {
        let mut s = MemStore::new();
        let o = ObjectId::new(1);
        assert!(s.put(o, ckpt(3, 1)).unwrap().is_durable());
        assert_eq!(s.epoch_floor(o), 3);
        s.remove(o).unwrap();
        assert!(s.get(o).is_none());
        assert_eq!(s.epoch_floor(o), 3, "floor survives remove");
        let _ = s.put(o, ckpt(4, 0)).unwrap();
        s.clear().unwrap();
        assert!(s.is_empty());
        assert_eq!(s.epoch_floor(o), 4, "floor survives clear");
        assert_eq!(s.epoch_floors(), vec![(o, 4)]);
    }

    #[test]
    fn mem_store_meta_round_trips() {
        let mut s = MemStore::new();
        assert_eq!(s.meta(7), None);
        let _ = s.set_meta(7, 42).unwrap();
        assert_eq!(s.meta(7), Some(42));
    }

    #[test]
    fn versions_order_lexicographically() {
        assert!(ckpt(2, 0).version() > ckpt(1, 9).version());
    }

    /// A batch sync fired by one put makes the puts buffered before it
    /// durable too: the trace says so, and the checker holds a cold
    /// restart to every one of them.
    #[test]
    fn a_batch_sync_makes_the_puts_buffered_before_it_durable() {
        let batch = FsyncPolicy::Batch { n: 2, ms: u64::MAX };
        let cfg = WalStoreConfig::with_fsync("/virtual/store", batch);
        let (mut store, _) =
            WalStore::open_with(cfg, std::sync::Arc::new(faultfs::FaultFs::new())).unwrap();
        let trace = TraceCollector::new(true);
        let (first, second) = (ObjectId::new(1), ObjectId::new(2));
        put_traced(&mut store, &trace, 0, first, ckpt(1, 1)).unwrap();
        put_traced(&mut store, &trace, 0, second, ckpt(1, 1)).unwrap();
        let mut events = trace.take();
        // a cold restart that lost the first put
        let recovered = EventKind::ColdRecovered {
            node: 0,
            recovered: vec![(second, 1, 1)],
            torn: false,
            corrupt: false,
        };
        events.push(oml_check::event::TraceEvent::new(0, recovered));
        let lost = oml_check::Violation::DurableCheckpointLost {
            node: 0,
            object: first,
            object_epoch: 1,
            seq: 1,
        };
        let violations = oml_check::check_trace(&events).violations;
        assert!(violations.contains(&lost), "{violations:?}");
    }
}
