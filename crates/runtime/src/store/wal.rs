//! The write-ahead checkpoint store: CRC-32-framed append-only log,
//! snapshot compaction behind a manifest, cold-start recovery.
//!
//! # On-disk layout (one directory per node)
//!
//! ```text
//! MANIFEST          one framed record naming the live generation g
//! snap-<g>.bin      framed records: the state as of the last compaction
//! wal-<g>.log       framed records appended since
//! ```
//!
//! Every record is a [`crate::transport::frame`] frame
//! (`[len][crc][payload]`); the payload is a tagged [`WalRecord`]. The
//! replay path reuses the transport decoder's contract verbatim:
//! **truncation is steady state** — a torn tail (the crash landed inside
//! an append) is silently cut back to the last whole record — while
//! **corruption is terminal**: a CRC mismatch stops the replay at the
//! longest valid prefix and is *reported*, never silently accepted.
//!
//! # What a put logs
//!
//! Whichever of two records encodes smaller: the whole copy
//! ([`WalRecord::Put`]) or the splice that turns the state the store holds
//! into the new one ([`WalRecord::Patch`]: what lies between their common
//! prefix and common suffix). The image always takes the caller's copy;
//! only replay rebuilds a state, from the image it has replayed so far. A
//! patch is computed against exactly snapshot + log prefix, so whatever
//! cuts the log short leaves a base for what is appended next, and a
//! `Patch` that does **not** apply is corruption like any other: the replay
//! stops there, keeps the prefix, reports it and truncates. Snapshots hold
//! `Put`s only, so no chain outlives a compaction.
//!
//! Compaction writes the full state to `snap-<g+1>.bin` via
//! write-temp-then-atomic-rename, starts an empty `wal-<g+1>.log`, then
//! atomically flips `MANIFEST` — a crash at any point leaves either
//! generation fully readable. Epoch floors ([`WalRecord::Epoch`]) and the
//! metadata table ([`WalRecord::Meta`]) are carried through compaction
//! and survive [`CheckpointStore::clear`], so PR 4's fencing survives any
//! number of restarts.

use super::fsio::{RealFs, Storage};
use super::{
    CheckpointStore, Durability, FsyncPolicy, MemStore, StoreError, StoredCheckpoint, WalStats,
};
use crate::transport::frame::{
    crc32, encode_frame, encode_frame_parts, Crc32, FrameConfig, FrameDecoder, HEADER_LEN,
};
use crate::wire::{WireReader, WireWriter};
use bytes::Bytes;
use oml_core::ids::ObjectId;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const REC_PUT: u32 = 1;
const REC_REMOVE: u32 = 2;
const REC_CLEAR: u32 = 3;
const REC_EPOCH: u32 = 4;
const REC_META: u32 = 5;
const REC_PATCH: u32 = 6;

/// Payload bytes of a `Put` besides its type tag and state, and of a
/// `Patch` besides `with`.
const PUT_HEAD: usize = 32;
const PATCH_HEAD: usize = 40;

/// `MANIFEST` magic: `OMLW`.
const MANIFEST_MAGIC: u32 = 0x4F4D_4C57;
const MANIFEST_VERSION: u32 = 1;

/// One logical WAL record (the frame payload, decoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Install a checkpoint (and raise the object's epoch floor).
    Put {
        /// The object.
        object: ObjectId,
        /// Its new copy.
        ckpt: StoredCheckpoint,
    },
    /// Drop an object's checkpoint (floor retained).
    Remove {
        /// The object.
        object: ObjectId,
    },
    /// Drop every checkpoint (floors and metadata retained).
    Clear,
    /// Raise an object's epoch floor without storing state.
    Epoch {
        /// The object.
        object: ObjectId,
        /// The floor.
        epoch: u64,
    },
    /// A metadata entry (e.g. a worker incarnation).
    Meta {
        /// Caller-defined key.
        key: u32,
        /// Value.
        value: u64,
    },
    /// Install a checkpoint as an edit of the stored one: replace `cut`
    /// bytes at offset `at` of its state with `with`, keep its type tag.
    /// Logged in place of a `Put` whenever it encodes smaller. One that does
    /// not apply on replay — no stored copy, a range outside it, a result
    /// whose CRC-32 is not `check` — is corruption.
    Patch {
        /// The object.
        object: ObjectId,
        /// The new copy's object epoch (raises the floor as a `Put` does).
        object_epoch: u64,
        /// The new copy's refresh sequence number.
        seq: u64,
        /// Offset of the replaced range.
        at: u32,
        /// Length of the replaced range.
        cut: u32,
        /// What replaces it.
        with: Bytes,
        /// CRC-32 of the resulting state.
        check: u32,
    },
}

/// Appends `rec`, framed, to `out`. A `Put`'s state (a `Patch`'s `with`) is
/// summed and copied straight from its `Bytes` behind the record's small
/// header, never joined with it first.
pub fn encode_record(rec: &WalRecord, out: &mut Vec<u8>) {
    let head = match rec {
        WalRecord::Put { object, ckpt } => {
            WireWriter::with_capacity(PUT_HEAD + ckpt.type_tag.len())
                .u32(REC_PUT)
                .u32(object.as_u32())
                .u64(ckpt.object_epoch)
                .u64(ckpt.seq)
                .str(&ckpt.type_tag)
                .u32(ckpt.state.len() as u32)
                .finish()
        }
        WalRecord::Remove { object } => WireWriter::new()
            .u32(REC_REMOVE)
            .u32(object.as_u32())
            .finish(),
        WalRecord::Clear => WireWriter::new().u32(REC_CLEAR).finish(),
        WalRecord::Epoch { object, epoch } => WireWriter::new()
            .u32(REC_EPOCH)
            .u32(object.as_u32())
            .u64(*epoch)
            .finish(),
        WalRecord::Meta { key, value } => WireWriter::new()
            .u32(REC_META)
            .u32(*key)
            .u64(*value)
            .finish(),
        WalRecord::Patch {
            object,
            object_epoch,
            seq,
            at,
            cut,
            with,
            check,
        } => WireWriter::with_capacity(PATCH_HEAD)
            .u32(REC_PATCH)
            .u32(object.as_u32())
            .u64(*object_epoch)
            .u64(*seq)
            .u32(*at)
            .u32(*cut)
            .u32(*check)
            .u32(with.len() as u32)
            .finish(),
    };
    let body: &[u8] = match rec {
        WalRecord::Put { ckpt, .. } => &ckpt.state,
        WalRecord::Patch { with, .. } => with,
        _ => &[],
    };
    encode_frame_parts(&[&head, body], out);
}

/// Decodes one frame payload into a [`WalRecord`]; a `Put`'s state and a
/// `Patch`'s `with` are views of `payload`.
///
/// # Errors
/// A description of the malformation. The CRC already passed when this is
/// called, so an error here means a logic-level corruption — the replay
/// treats it exactly like a checksum failure: terminal, reported.
pub(crate) fn decode_record(payload: &Bytes) -> Result<WalRecord, String> {
    let mut r = WireReader::new(payload);
    let rec = match r.u32()? {
        REC_PUT => {
            let object = ObjectId::new(r.u32()?);
            let (object_epoch, seq) = (r.u64()?, r.u64()?);
            let ckpt = StoredCheckpoint {
                type_tag: r.str()?,
                state: payload.slice_ref(r.bytes_ref()?),
                object_epoch,
                seq,
            };
            WalRecord::Put { object, ckpt }
        }
        REC_REMOVE => WalRecord::Remove {
            object: ObjectId::new(r.u32()?),
        },
        REC_CLEAR => WalRecord::Clear,
        REC_EPOCH => WalRecord::Epoch {
            object: ObjectId::new(r.u32()?),
            epoch: r.u64()?,
        },
        REC_META => WalRecord::Meta {
            key: r.u32()?,
            value: r.u64()?,
        },
        REC_PATCH => WalRecord::Patch {
            object: ObjectId::new(r.u32()?),
            object_epoch: r.u64()?,
            seq: r.u64()?,
            at: r.u32()?,
            cut: r.u32()?,
            check: r.u32()?,
            with: payload.slice_ref(r.bytes_ref()?),
        },
        other => return Err(format!("unknown wal record tag {other}")),
    };
    if !r.is_empty() {
        return Err("trailing bytes after wal record".into());
    }
    Ok(rec)
}

/// The outcome of replaying one log segment (a WAL file or a snapshot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalSegment {
    /// Records recovered, in append order — the longest valid prefix.
    pub records: Vec<WalRecord>,
    /// Bytes covered by those records (the safe truncation point).
    pub valid_bytes: u64,
    /// Trailing bytes past the last whole record: a torn tail (crash
    /// mid-append) or the start of a corrupt region.
    pub torn_bytes: u64,
    /// `true` iff the replay stopped on a checksum/decoding failure rather
    /// than simple truncation. Never silently accepted.
    pub corrupt: bool,
}

/// Hands `sink` each whole record `dec` holds until the frames run out, one
/// fails its checksum or its decoding, or `sink` refuses one: `(bytes of
/// the records taken, stopped on corruption)`.
fn drain(dec: &mut FrameDecoder, mut sink: impl FnMut(WalRecord) -> bool) -> (u64, bool) {
    let mut valid_bytes = 0;
    loop {
        let payload = match dec.next_frame() {
            Ok(Some(payload)) => payload,
            Ok(None) => return (valid_bytes, false),
            Err(_) => return (valid_bytes, true),
        };
        if !decode_record(&payload).is_ok_and(&mut sink) {
            return (valid_bytes, true);
        }
        valid_bytes += (HEADER_LEN + payload.len()) as u64;
    }
}

/// Replays a whole in-memory segment.
#[must_use]
pub fn replay_segment(bytes: &[u8], max_frame: u32) -> WalSegment {
    let mut dec = FrameDecoder::new(FrameConfig { max_frame });
    dec.extend(bytes);
    let mut records = Vec::new();
    let (valid_bytes, corrupt) = drain(&mut dec, |rec| {
        records.push(rec);
        true
    });
    WalSegment {
        records,
        valid_bytes,
        torn_bytes: bytes.len() as u64 - valid_bytes,
        corrupt,
    }
}

/// What cold-start recovery found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The manifest's live generation (0 = fresh store).
    pub generation: u64,
    /// Records replayed from the snapshot.
    pub snapshot_records: u64,
    /// Records replayed from the WAL suffix.
    pub wal_records: u64,
    /// Bytes cut from the WAL tail (torn final append). Steady state, not
    /// an error.
    pub torn_bytes: u64,
    /// A checksum/decoding failure stopped a replay early. The longest
    /// valid prefix was kept; the caller decides how loudly to complain.
    pub corrupt: bool,
    /// Expected files that were missing on reopen (manifest excluded —
    /// a missing manifest just means a fresh store).
    pub missing_files: u64,
    /// Objects recovered into the in-memory image.
    pub recovered_objects: u64,
}

/// The outcome of one snapshot compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// The new live generation.
    pub generation: u64,
    /// Records written into the snapshot.
    pub records: u64,
}

/// Configuration for a [`WalStore`].
#[derive(Debug, Clone)]
pub struct WalStoreConfig {
    /// The store's directory (one per node).
    pub dir: PathBuf,
    /// When appends are fsynced.
    pub fsync: FsyncPolicy,
    /// Auto-compact once the live WAL holds this many records (0 = manual
    /// compaction only).
    pub compact_after: u64,
}

impl WalStoreConfig {
    /// Defaults: `fsync=Always`, compaction every 4096 records. A record
    /// is at most the frame layer's 4 MiB.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> WalStoreConfig {
        WalStoreConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            compact_after: 4096,
        }
    }

    /// Same defaults under `fsync`.
    #[must_use]
    pub fn with_fsync(dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> WalStoreConfig {
        WalStoreConfig {
            fsync,
            ..WalStoreConfig::new(dir)
        }
    }
}

/// The durable checkpoint store. See the module docs for the layout and
/// the recovery contract.
pub struct WalStore {
    cfg: WalStoreConfig,
    fs: Arc<dyn Storage>,
    /// What the snapshot plus the WAL replay to: the store's answers.
    image: MemStore,
    generation: u64,
    unsynced: u64,
    last_sync: Instant,
    stats: WalStats,
    /// The buffer each record is framed into before its one `append`;
    /// reused, and freed after a record that grew it past
    /// [`SCRATCH_KEEP`].
    scratch: Vec<u8>,
}

/// Scratch capacity kept between appends: a few records of a typical
/// linearized object.
const SCRATCH_KEEP: usize = 256 * 1024;

impl WalStore {
    /// Opens (or creates) the store at `cfg.dir` on the real filesystem,
    /// replaying snapshot + WAL. The report says what recovery found; a
    /// torn WAL tail has already been truncated away.
    ///
    /// # Errors
    /// [`StoreError`] on IO failures. Corruption is *not* an error — it is
    /// reported in [`RecoveryReport::corrupt`] with the longest valid
    /// prefix recovered.
    pub fn open(cfg: WalStoreConfig) -> Result<(WalStore, RecoveryReport), StoreError> {
        WalStore::open_with(cfg, Arc::new(RealFs::default()))
    }

    /// [`open`](Self::open) against any [`Storage`] — the chaos tests pass
    /// a `FaultFs`.
    ///
    /// # Errors
    /// As [`open`](Self::open).
    pub(crate) fn open_with(
        cfg: WalStoreConfig,
        fs: Arc<dyn Storage>,
    ) -> Result<(WalStore, RecoveryReport), StoreError> {
        fs.create_dir_all(&cfg.dir)
            .map_err(|e| StoreError::io("create_dir_all", &cfg.dir, &e))?;
        let mut store = WalStore {
            cfg,
            fs,
            image: MemStore::new(),
            generation: 0,
            unsynced: 0,
            last_sync: Instant::now(),
            stats: WalStats::default(),
            scratch: Vec::new(),
        };
        let report = store.recover()?;
        Ok((store, report))
    }

    fn manifest_path(&self) -> PathBuf {
        self.cfg.dir.join("MANIFEST")
    }

    fn snap_path(&self, generation: u64) -> PathBuf {
        self.cfg.dir.join(format!("snap-{generation}.bin"))
    }

    fn wal_path(&self, generation: u64) -> PathBuf {
        self.cfg.dir.join(format!("wal-{generation}.log"))
    }

    /// Replays manifest → snapshot → WAL into the in-memory image,
    /// truncating the WAL at the first torn/corrupt record.
    fn recover(&mut self) -> Result<RecoveryReport, StoreError> {
        let mut report = RecoveryReport::default();

        // manifest: names the live generation; missing = fresh store
        let manifest = self.manifest_path();
        match self.fs.read(&manifest) {
            Ok(bytes) => match decode_manifest(&bytes) {
                Some(generation) => self.generation = generation,
                None => {
                    // an unreadable manifest orphans both generations; start
                    // fresh but say so — never silently accept corruption
                    report.corrupt = true;
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StoreError::io("read", &manifest, &e)),
        }
        report.generation = self.generation;

        // snapshot: written atomically, so a bad record is bitrot, not a
        // torn write — keep the valid prefix and flag it
        if self.generation > 0 {
            let snap = self.snap_path(self.generation);
            match self.fs.read(&snap) {
                Ok(bytes) => {
                    let (records, _, corrupt) = self.replay(&bytes);
                    report.snapshot_records = records;
                    report.corrupt |= corrupt;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    report.missing_files += 1;
                }
                Err(e) => return Err(StoreError::io("read", &snap, &e)),
            }
        }

        // WAL suffix: torn tail is steady state — truncate to the last
        // whole record; corruption also truncates but is flagged
        let wal = self.wal_path(self.generation);
        match self.fs.read(&wal) {
            Ok(bytes) => {
                let (records, valid_bytes, corrupt) = self.replay(&bytes);
                report.wal_records = records;
                report.torn_bytes = bytes.len() as u64 - valid_bytes;
                report.corrupt |= corrupt;
                if report.torn_bytes > 0 {
                    self.fs
                        .truncate(&wal, valid_bytes)
                        .map_err(|e| StoreError::io("truncate", &wal, &e))?;
                }
                self.stats.wal_records = records;
                self.stats.wal_bytes = valid_bytes;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StoreError::io("read", &wal, &e)),
        }

        self.stats.generation = self.generation;
        report.recovered_objects = self.image.len() as u64;
        Ok(report)
    }

    /// Replays one segment into the image, up to the first record that is
    /// torn, corrupt or — a `Patch` — does not apply to the image replayed
    /// so far: `(records applied, their bytes, stopped on corruption)`.
    fn replay(&mut self, bytes: &[u8]) -> (u64, u64, bool) {
        let mut dec = FrameDecoder::new(FrameConfig::default());
        dec.extend(bytes);
        let mut records = 0;
        let (valid_bytes, corrupt) = drain(&mut dec, |rec| {
            let applied = self.apply(rec);
            records += u64::from(applied);
            applied
        });
        (records, valid_bytes, corrupt)
    }

    /// Applies `rec` to the image; `false` iff it is a `Patch` that does
    /// not apply, with the image left as it was.
    fn apply(&mut self, rec: WalRecord) -> bool {
        // the in-memory image cannot fail
        let _ = match rec {
            WalRecord::Put { object, ckpt } => self.image.put(object, ckpt).map(|_| ()),
            WalRecord::Remove { object } => self.image.remove(object),
            WalRecord::Clear => self.image.clear(),
            WalRecord::Epoch { object, epoch } => self.image.note_epoch(object, epoch).map(|_| ()),
            WalRecord::Meta { key, value } => self.image.set_meta(key, value).map(|_| ()),
            WalRecord::Patch {
                object,
                object_epoch,
                seq,
                at,
                cut,
                with,
                check,
            } => {
                let base = self.image.get(object);
                let Some(mut ckpt) = base.and_then(|b| spliced(b, at, cut, &with, check)) else {
                    return false;
                };
                (ckpt.object_epoch, ckpt.seq) = (object_epoch, seq);
                self.image.put(object, ckpt).map(|_| ())
            }
        };
        true
    }

    /// Appends `rec` to the live WAL and applies it to the in-memory
    /// image, then syncs per policy.
    fn log(&mut self, rec: WalRecord) -> Result<Durability, StoreError> {
        self.append(&rec)?;
        self.commit(rec)
    }

    /// Appends `rec` to the live WAL: on disk, not yet in the image.
    fn append(&mut self, rec: &WalRecord) -> Result<(), StoreError> {
        self.scratch.clear();
        encode_record(rec, &mut self.scratch);
        let wal = self.wal_path(self.generation);
        self.fs
            .append(&wal, &self.scratch)
            .map_err(|e| StoreError::io("append", &wal, &e))?;
        self.stats.appended += 1;
        self.stats.wal_records += 1;
        self.stats.wal_bytes += self.scratch.len() as u64;
        if self.scratch.capacity() > SCRATCH_KEEP {
            self.scratch = Vec::new();
        }
        self.unsynced += 1;
        Ok(())
    }

    /// Applies the just-appended `rec` to the image, then syncs and
    /// compacts per policy.
    fn commit(&mut self, rec: WalRecord) -> Result<Durability, StoreError> {
        self.apply(rec);
        let durability = self.sync_per_policy()?;
        if self.cfg.compact_after > 0 && self.stats.wal_records >= self.cfg.compact_after {
            self.compact()?;
        }
        Ok(durability)
    }

    fn sync_per_policy(&mut self) -> Result<Durability, StoreError> {
        let due = match self.cfg.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch { n, ms } => {
                self.unsynced >= n.max(1) || self.last_sync.elapsed().as_millis() as u64 >= ms
            }
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync_now()?;
            Ok(Durability::Durable)
        } else {
            Ok(Durability::Buffered)
        }
    }

    fn sync_now(&mut self) -> Result<u64, StoreError> {
        if self.unsynced == 0 {
            self.last_sync = Instant::now();
            return Ok(0);
        }
        let wal = self.wal_path(self.generation);
        self.fs
            .sync(&wal)
            .map_err(|e| StoreError::io("sync", &wal, &e))?;
        let made = self.unsynced;
        self.unsynced = 0;
        self.last_sync = Instant::now();
        self.stats.syncs += 1;
        self.stats.synced += made;
        Ok(made)
    }

    /// All live records in deterministic order — what a snapshot holds.
    fn snapshot_records(&self) -> Vec<WalRecord> {
        let mut recs = Vec::new();
        let mut metas: Vec<(u32, u64)> = self.image.meta.iter().map(|(&k, &v)| (k, v)).collect();
        metas.sort_unstable();
        for (key, value) in metas {
            recs.push(WalRecord::Meta { key, value });
        }
        let mut floors = self.image.epoch_floors();
        floors.sort_unstable_by_key(|&(o, _)| o.as_u32());
        for (object, epoch) in floors {
            recs.push(WalRecord::Epoch { object, epoch });
        }
        let mut objects = self.image.objects();
        objects.sort_unstable_by_key(|o| o.as_u32());
        for object in objects {
            let ckpt = self.image.map[&object].clone();
            recs.push(WalRecord::Put { object, ckpt });
        }
        recs
    }

    /// Compacts: snapshot the live image into generation `g+1` (written
    /// atomically), start an empty WAL, flip the manifest, delete the old
    /// generation. Crash-safe at every step — the manifest flip is the
    /// commit point.
    ///
    /// # Errors
    /// [`StoreError`] on IO failures; the store remains usable on the old
    /// generation if the flip never happened.
    pub fn compact(&mut self) -> Result<CompactionReport, StoreError> {
        let old = self.generation;
        let new = old + 1;
        let recs = self.snapshot_records();
        let mut snap_bytes = Vec::new();
        for rec in &recs {
            encode_record(rec, &mut snap_bytes);
        }
        let snap = self.snap_path(new);
        let snap_tmp = self.cfg.dir.join(format!("snap-{new}.tmp"));
        self.fs
            .write_atomic(&snap_tmp, &snap, &snap_bytes)
            .map_err(|e| StoreError::io("write_atomic", &snap, &e))?;
        let wal_new = self.wal_path(new);
        self.fs
            .write(&wal_new, &[])
            .map_err(|e| StoreError::io("write", &wal_new, &e))?;
        let manifest_bytes = encode_manifest(new);
        let manifest = self.manifest_path();
        let manifest_tmp = self.cfg.dir.join("MANIFEST.tmp");
        self.fs
            .write_atomic(&manifest_tmp, &manifest, &manifest_bytes)
            .map_err(|e| StoreError::io("write_atomic", &manifest, &e))?;
        // the flip committed; the old generation is garbage now
        if old > 0 {
            let _ = self.fs.remove(&self.snap_path(old));
        }
        let _ = self.fs.remove(&self.wal_path(old));
        self.generation = new;
        // the snapshot holds what the old WAL buffered: durable now
        self.stats.synced += self.unsynced;
        self.unsynced = 0;
        self.stats.wal_records = 0;
        self.stats.wal_bytes = 0;
        self.stats.compactions += 1;
        self.stats.generation = new;
        Ok(CompactionReport {
            generation: new,
            records: recs.len() as u64,
        })
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &std::path::Path {
        &self.cfg.dir
    }

    /// The live WAL file's path (what a torn-write harness corrupts).
    #[must_use]
    pub fn live_wal_path(&self) -> PathBuf {
        self.wal_path(self.generation)
    }
}

/// The `Patch` that turns `old` into `new`, if it encodes smaller than
/// `new`'s `Put`. Both scans stop at the first difference: states that
/// share nothing cost a block each.
fn smaller_patch(
    object: ObjectId,
    old: &StoredCheckpoint,
    new: &StoredCheckpoint,
) -> Option<WalRecord> {
    if old.type_tag != new.type_tag {
        return None;
    }
    let (a, b) = (&old.state[..], &new.state[..]);
    let at = common_prefix(a, b);
    let kept = common_suffix(&a[at..], &b[at..]);
    let with = new.state.slice(at..b.len() - kept);
    if PATCH_HEAD + with.len() >= PUT_HEAD + new.type_tag.len() + b.len() {
        return None;
    }
    Some(WalRecord::Patch {
        object,
        object_epoch: new.object_epoch,
        seq: new.seq,
        at: at as u32,
        cut: (a.len() - at - kept) as u32,
        with,
        check: crc32(b),
    })
}

/// How many leading pairs of `a` and `b` agree.
fn agreeing<T: PartialEq>(a: impl Iterator<Item = T>, b: impl Iterator<Item = T>) -> usize {
    a.zip(b).take_while(|(x, y)| x == y).count()
}

/// The block the diff scans compare as whole slices before they finish
/// byte by byte: a slice compare is a `memcmp`, several times faster per
/// byte than a word-at-a-time iterator chain.
const SCAN_BLOCK: usize = 256;

/// Length of the longest common prefix of `a` and `b`, a block at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let at = SCAN_BLOCK * agreeing(a.chunks_exact(SCAN_BLOCK), b.chunks_exact(SCAN_BLOCK));
    at + agreeing(a[at..].iter(), b[at..].iter())
}

/// Length of the longest common suffix of `a` and `b`, a block at a time.
fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let kept = SCAN_BLOCK * agreeing(a.rchunks_exact(SCAN_BLOCK), b.rchunks_exact(SCAN_BLOCK));
    let (a, b) = (&a[..a.len() - kept], &b[..b.len() - kept]);
    kept + agreeing(a.iter().rev(), b.iter().rev())
}

/// `base` with `cut` bytes of its state at `at` replaced by `with`, if the
/// range lies inside it and the result sums to `check`; allocates only then.
fn spliced(
    base: &StoredCheckpoint,
    at: u32,
    cut: u32,
    with: &[u8],
    check: u32,
) -> Option<StoredCheckpoint> {
    let end = (at as usize).checked_add(cut as usize)?;
    let (head, tail) = (base.state.get(..at as usize)?, base.state.get(end..)?);
    let sum = Crc32::new().update(head).update(with).update(tail);
    (sum.finish() == check).then(|| StoredCheckpoint {
        state: Bytes::from([head, with, tail].concat()),
        ..base.clone()
    })
}

fn encode_manifest(generation: u64) -> Vec<u8> {
    let payload = WireWriter::new()
        .u32(MANIFEST_MAGIC)
        .u32(MANIFEST_VERSION)
        .u64(generation)
        .finish();
    let mut out = Vec::new();
    encode_frame(&payload, &mut out);
    out
}

fn decode_manifest(bytes: &[u8]) -> Option<u64> {
    let mut dec = FrameDecoder::new(FrameConfig::default());
    dec.extend(bytes);
    let payload = dec.next_frame().ok()??;
    let mut r = WireReader::new(&payload);
    if r.u32().ok()? != MANIFEST_MAGIC || r.u32().ok()? != MANIFEST_VERSION {
        return None;
    }
    r.u64().ok()
}

impl CheckpointStore for WalStore {
    fn get(&self, object: ObjectId) -> Option<&StoredCheckpoint> {
        self.image.get(object)
    }

    fn put(&mut self, object: ObjectId, ckpt: StoredCheckpoint) -> Result<Durability, StoreError> {
        // the image gets the caller's copy either way: nothing is rebuilt
        let patch = self
            .image
            .get(object)
            .and_then(|old| smaller_patch(object, old, &ckpt));
        let put = WalRecord::Put { object, ckpt };
        self.append(patch.as_ref().unwrap_or(&put))?;
        self.commit(put)
    }

    fn remove(&mut self, object: ObjectId) -> Result<(), StoreError> {
        if self.image.get(object).is_none() {
            return Ok(());
        }
        self.log(WalRecord::Remove { object }).map(|_| ())
    }

    fn clear(&mut self) -> Result<(), StoreError> {
        if self.image.is_empty() {
            return Ok(());
        }
        self.log(WalRecord::Clear).map(|_| ())
    }

    fn objects(&self) -> Vec<ObjectId> {
        self.image.objects()
    }

    fn len(&self) -> usize {
        self.image.len()
    }

    fn sync(&mut self) -> Result<u64, StoreError> {
        self.sync_now()
    }

    fn note_epoch(&mut self, object: ObjectId, epoch: u64) -> Result<Durability, StoreError> {
        if self.epoch_floor(object) >= epoch {
            return Ok(Durability::Durable); // already on stable storage
        }
        self.log(WalRecord::Epoch { object, epoch })
    }

    fn epoch_floor(&self, object: ObjectId) -> u64 {
        self.image.epoch_floor(object)
    }

    fn epoch_floors(&self) -> Vec<(ObjectId, u64)> {
        self.image.epoch_floors()
    }

    fn set_meta(&mut self, key: u32, value: u64) -> Result<Durability, StoreError> {
        self.log(WalRecord::Meta { key, value })
    }

    fn meta(&self, key: u32) -> Option<u64> {
        self.image.meta(key)
    }

    fn wal_stats(&self) -> WalStats {
        self.stats
    }

    fn durable_backed(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::faultfs::FaultFs;
    use crate::wire::hex;

    fn ckpt(epoch: u64, seq: u64, state: &[u8]) -> StoredCheckpoint {
        StoredCheckpoint {
            type_tag: "counter".into(),
            state: Bytes::copy_from_slice(state),
            object_epoch: epoch,
            seq,
        }
    }

    fn cfg(fsync: FsyncPolicy) -> WalStoreConfig {
        WalStoreConfig {
            compact_after: 0,
            ..WalStoreConfig::with_fsync("/virtual/store", fsync)
        }
    }

    /// The block-wise diff scans against a byte-at-a-time oracle.
    fn scans_agree(a: &[u8], b: &[u8]) {
        let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
        let pairs = a.iter().rev().zip(b.iter().rev());
        let suffix = pairs.take_while(|(x, y)| x == y).count();
        assert_eq!(common_prefix(a, b), prefix, "prefix of {a:?} and {b:?}");
        assert_eq!(common_suffix(a, b), suffix, "suffix of {a:?} and {b:?}");
    }

    /// A difference at every offset of a state several blocks long, against
    /// a copy of equal length and copies one byte shorter or longer at
    /// either end.
    #[test]
    fn diff_scans_match_a_bytewise_oracle_at_every_offset() {
        let a: Vec<u8> = (0..3 * SCAN_BLOCK + 37).map(|i| (i % 251) as u8).collect();
        for at in 0..a.len() {
            let mut b = a.clone();
            b[at] ^= 0x5a;
            scans_agree(&a, &b);
            scans_agree(&a, &b[1..]);
            scans_agree(&a, &b[..b.len() - 1]);
            scans_agree(&a, &[&b[..], &[0]].concat());
            scans_agree(&a, &[&[0], &b[..]].concat());
        }
    }

    proptest::proptest! {
        /// Two states over a two-letter alphabet — so long runs agree by
        /// chance — one a copy of the other with its ends cut or grown and
        /// one byte changed anywhere.
        #[test]
        fn diff_scans_match_a_bytewise_oracle(
            a in proptest::collection::vec(0..2u8, 0..1_100),
            change in proptest::prelude::any::<usize>(),
            cut in (0..300usize, 0..300usize),
            grow in (proptest::collection::vec(0..2u8, 0..300), proptest::collection::vec(0..2u8, 0..300)),
        ) {
            let kept = a.get(cut.0..a.len().saturating_sub(cut.1)).unwrap_or_default();
            let mut b = [&grow.0[..], kept, &grow.1[..]].concat();
            if !b.is_empty() {
                let at = change % b.len();
                b[at] ^= 1;
            }
            scans_agree(&a, &b);
            scans_agree(&b, &a);
        }
    }

    #[test]
    fn records_round_trip() {
        let records = [
            WalRecord::Put {
                object: ObjectId::new(7),
                ckpt: ckpt(3, 9, &[1, 2, 3]),
            },
            WalRecord::Remove {
                object: ObjectId::new(7),
            },
            WalRecord::Clear,
            WalRecord::Epoch {
                object: ObjectId::new(8),
                epoch: 4,
            },
            WalRecord::Meta { key: 2, value: 11 },
            WalRecord::Patch {
                object: ObjectId::new(7),
                object_epoch: 3,
                seq: 10,
                at: 1,
                cut: 2,
                with: Bytes::copy_from_slice(&[9, 9, 9]),
                check: 0xdead_beef,
            },
        ];
        let mut wire = Vec::new();
        for rec in &records {
            let before = wire.len();
            encode_record(rec, &mut wire);
            // the lengths `put` compares are the lengths the encoder writes
            let payload = match rec {
                WalRecord::Put { ckpt, .. } => PUT_HEAD + ckpt.type_tag.len() + ckpt.state.len(),
                WalRecord::Patch { with, .. } => PATCH_HEAD + with.len(),
                _ => continue,
            };
            assert_eq!(wire.len() - before, HEADER_LEN + payload, "{rec:?}");
        }
        let seg = replay_segment(&wire, 4 << 20);
        assert!(!seg.corrupt);
        assert_eq!(seg.torn_bytes, 0);
        assert_eq!(seg.records, records);
    }

    #[test]
    fn truncated_tail_is_steady_state() {
        let mut wire = Vec::new();
        encode_record(&WalRecord::Meta { key: 1, value: 1 }, &mut wire);
        let whole = wire.len() as u64;
        encode_record(&WalRecord::Meta { key: 2, value: 2 }, &mut wire);
        let seg = replay_segment(&wire[..wire.len() - 3], 4 << 20);
        assert!(!seg.corrupt, "truncation is not corruption");
        assert_eq!(seg.records.len(), 1);
        assert_eq!(seg.valid_bytes, whole);
        assert!(seg.torn_bytes > 0);
    }

    #[test]
    fn reopen_replays_the_wal() {
        let fs = Arc::new(FaultFs::new());
        let o = ObjectId::new(1);
        {
            let (mut s, r) = WalStore::open_with(cfg(FsyncPolicy::Always), fs.clone()).unwrap();
            assert_eq!(r, RecoveryReport::default());
            assert!(s.put(o, ckpt(1, 0, b"a")).unwrap().is_durable());
            assert!(s.put(o, ckpt(1, 1, b"ab")).unwrap().is_durable());
            let _ = s.note_epoch(o, 5).unwrap();
        }
        let (s, r) = WalStore::open_with(cfg(FsyncPolicy::Always), fs).unwrap();
        assert_eq!(r.wal_records, 3);
        assert_eq!(r.recovered_objects, 1);
        assert!(!r.corrupt);
        assert_eq!(s.get(o).unwrap().state, Bytes::copy_from_slice(b"ab"));
        assert_eq!(s.get(o).unwrap().version(), (1, 1));
        assert_eq!(s.epoch_floor(o), 5, "floors survive restart");
    }

    #[test]
    fn fsync_always_survives_power_loss_never_does_not() {
        for (policy, survives) in [(FsyncPolicy::Always, true), (FsyncPolicy::Never, false)] {
            let fs = Arc::new(FaultFs::new());
            let o = ObjectId::new(1);
            {
                let (mut s, _) = WalStore::open_with(cfg(policy), fs.clone()).unwrap();
                let d = s.put(o, ckpt(1, 0, b"a")).unwrap();
                assert_eq!(d.is_durable(), survives, "{policy}");
            }
            fs.power_loss();
            let (s, r) = WalStore::open_with(cfg(policy), fs).unwrap();
            assert_eq!(s.get(o).is_some(), survives, "{policy}");
            assert!(!r.corrupt);
        }
    }

    #[test]
    fn batch_policy_syncs_on_count() {
        let fs = Arc::new(FaultFs::new());
        let (mut s, _) = WalStore::open_with(
            cfg(FsyncPolicy::Batch {
                n: 2,
                ms: 1_000_000,
            }),
            fs,
        )
        .unwrap();
        let o = ObjectId::new(1);
        assert!(!s.put(o, ckpt(1, 0, b"a")).unwrap().is_durable());
        assert!(s.put(o, ckpt(1, 1, b"b")).unwrap().is_durable());
        assert_eq!(s.wal_stats().syncs, 1);
        assert_eq!(s.wal_stats().synced, 2);
    }

    /// A compaction's snapshot holds what the WAL buffered, so those
    /// records count as synced.
    #[test]
    fn a_compaction_syncs_what_the_wal_buffered() {
        let batch = FsyncPolicy::Batch { n: 2, ms: u64::MAX };
        let (mut s, _) = WalStore::open_with(cfg(batch), Arc::new(FaultFs::new())).unwrap();
        let put = s.put(ObjectId::new(1), ckpt(1, 0, b"a")).unwrap();
        assert!(!put.is_durable());
        assert_eq!(s.wal_stats().synced, 0);
        s.compact().unwrap();
        assert_eq!((s.wal_stats().synced, s.wal_stats().syncs), (1, 0));
    }

    #[test]
    fn torn_append_truncates_on_reopen() {
        let fs = Arc::new(FaultFs::new());
        let o = ObjectId::new(1);
        {
            let (mut s, _) = WalStore::open_with(cfg(FsyncPolicy::Always), fs.clone()).unwrap();
            let _ = s.put(o, ckpt(1, 0, b"good")).unwrap();
            fs.torn_write(2, 5); // next append keeps 5 bytes then "dies"
            assert!(s
                .put(o, ckpt(1, 1, b"lost"))
                .unwrap_err()
                .to_string()
                .contains("torn"));
        }
        let (s, r) = WalStore::open_with(cfg(FsyncPolicy::Always), fs.clone()).unwrap();
        assert!(!r.corrupt, "a torn tail is steady state");
        assert_eq!(r.torn_bytes, 5);
        assert_eq!(s.get(o).unwrap().version(), (1, 0));
        // and the file really was cut back to the valid prefix
        let wal = s.live_wal_path();
        assert_eq!(fs.file_len(&wal), Some(s.wal_stats().wal_bytes as usize));
    }

    #[test]
    fn bit_flip_is_flagged_never_silent() {
        let fs = Arc::new(FaultFs::new());
        let o = ObjectId::new(1);
        let wal = {
            let (mut s, _) = WalStore::open_with(cfg(FsyncPolicy::Always), fs.clone()).unwrap();
            let _ = s.put(o, ckpt(1, 0, b"aaaa")).unwrap();
            let _ = s.put(o, ckpt(1, 1, b"bbbb")).unwrap();
            s.live_wal_path()
        };
        let len = fs.file_len(&wal).unwrap() as u64;
        assert!(fs.flip_bit(&wal, (len - 4) * 8));
        let (s, r) = WalStore::open_with(cfg(FsyncPolicy::Always), fs).unwrap();
        assert!(r.corrupt, "corruption must be reported");
        assert_eq!(s.get(o).unwrap().version(), (1, 0), "longest valid prefix");
    }

    #[test]
    fn compaction_survives_reopen_and_prunes_the_old_generation() {
        let fs = Arc::new(FaultFs::new());
        let o1 = ObjectId::new(1);
        let o2 = ObjectId::new(2);
        {
            let (mut s, _) = WalStore::open_with(cfg(FsyncPolicy::Always), fs.clone()).unwrap();
            let _ = s.put(o1, ckpt(2, 7, b"one")).unwrap();
            let _ = s.put(o2, ckpt(1, 3, b"two")).unwrap();
            s.remove(o2).unwrap();
            let _ = s.set_meta(9, 99).unwrap();
            let rep = s.compact().unwrap();
            assert_eq!(rep.generation, 1);
            // old wal gone, fresh wal empty
            assert!(fs.read(&s.wal_path(0)).is_err());
            assert_eq!(s.wal_stats().wal_records, 0);
            let _ = s.put(o2, ckpt(4, 0, b"back")).unwrap();
        }
        fs.power_loss();
        let (s, r) = WalStore::open_with(cfg(FsyncPolicy::Always), fs).unwrap();
        assert_eq!(r.generation, 1);
        assert!(!r.corrupt);
        assert_eq!(s.get(o1).unwrap().state, Bytes::copy_from_slice(b"one"));
        assert_eq!(s.get(o2).unwrap().version(), (4, 0));
        assert_eq!(s.epoch_floor(o2), 4);
        assert_eq!(s.meta(9), Some(99));
    }

    #[test]
    fn auto_compaction_fires_at_the_threshold() {
        let fs = Arc::new(FaultFs::new());
        let mut cfg = cfg(FsyncPolicy::Always);
        cfg.compact_after = 3;
        let (mut s, _) = WalStore::open_with(cfg, fs).unwrap();
        for i in 0..7u64 {
            let _ = s.put(ObjectId::new(1), ckpt(1, i, b"x")).unwrap();
        }
        assert!(s.wal_stats().compactions >= 2);
        assert!(s.wal_stats().wal_records < 3);
        assert_eq!(s.get(ObjectId::new(1)).unwrap().version(), (1, 6));
    }

    #[test]
    fn clear_keeps_floors_and_meta() {
        let fs = Arc::new(FaultFs::new());
        let o = ObjectId::new(3);
        {
            let (mut s, _) = WalStore::open_with(cfg(FsyncPolicy::Always), fs.clone()).unwrap();
            let _ = s.put(o, ckpt(6, 0, b"x")).unwrap();
            let _ = s.set_meta(1, 2).unwrap();
            s.clear().unwrap();
        }
        let (s, _) = WalStore::open_with(cfg(FsyncPolicy::Always), fs).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.epoch_floor(o), 6);
        assert_eq!(s.meta(1), Some(2));
    }

    #[test]
    fn vanished_snapshot_is_reported() {
        let fs = Arc::new(FaultFs::new());
        {
            let (mut s, _) = WalStore::open_with(cfg(FsyncPolicy::Always), fs.clone()).unwrap();
            let _ = s.put(ObjectId::new(1), ckpt(1, 0, b"x")).unwrap();
            s.compact().unwrap();
            fs.vanish_on_reopen(&s.snap_path(1));
        }
        let (s, r) = WalStore::open_with(cfg(FsyncPolicy::Always), fs).unwrap();
        assert_eq!(r.missing_files, 1);
        assert!(s.is_empty(), "the snapshot's state is gone");
    }

    #[test]
    fn corrupt_manifest_is_flagged_and_store_starts_fresh() {
        let fs = Arc::new(FaultFs::new());
        let manifest = {
            let (mut s, _) = WalStore::open_with(cfg(FsyncPolicy::Always), fs.clone()).unwrap();
            let _ = s.put(ObjectId::new(1), ckpt(1, 0, b"x")).unwrap();
            s.compact().unwrap();
            s.manifest_path()
        };
        assert!(fs.flip_bit(&manifest, 9 * 8));
        let (_, r) = WalStore::open_with(cfg(FsyncPolicy::Always), fs).unwrap();
        assert!(r.corrupt);
        assert_eq!(r.generation, 0);
    }

    /// Bytes the previous byte path (bytewise CRC, payload joined before
    /// framing) wrote for one `Put` record and one MANIFEST.
    #[test]
    fn record_and_manifest_match_the_golden_bytes() {
        let mut rec = Vec::new();
        encode_record(
            &WalRecord::Put {
                object: ObjectId::new(5),
                ckpt: ckpt(3, 9, &(1u8..=20).collect::<Vec<u8>>()),
            },
            &mut rec,
        );
        assert_eq!(
            hex(&rec),
            "3b00000055ba889501000000050000000300000000000000090000000000000007000000\
             636f756e746572140000000102030405060708090a0b0c0d0e0f1011121314"
        );
        assert_eq!(
            hex(&encode_manifest(3)),
            "100000006521812f574c4d4f010000000300000000000000"
        );
    }

    /// One `Patch` record, field by field: tag 6, object, epoch, seq, `at`,
    /// `cut`, `check`, then `with` behind its length.
    #[test]
    fn patch_record_matches_the_golden_bytes() {
        let mut rec = Vec::new();
        encode_record(
            &WalRecord::Patch {
                object: ObjectId::new(5),
                object_epoch: 3,
                seq: 10,
                at: 8,
                cut: 2,
                with: Bytes::copy_from_slice(&[0xaa, 0xbb, 0xcc]),
                check: 0x1234_5678,
            },
            &mut rec,
        );
        assert_eq!(
            hex(&rec),
            "2b000000d1136ee6060000000500000003000000000000000a000000000000000800000002000000\
             7856341203000000aabbcc"
        );
    }

    /// A 1 KiB state whose word at `edit` is `value`.
    fn edited(edit: usize, value: u64) -> Vec<u8> {
        let mut state: Vec<u8> = (0..1024).map(|i| (i * 31) as u8).collect();
        state[edit..edit + 8].copy_from_slice(&value.to_le_bytes());
        state
    }

    /// Puts `edited(512, i)` for `i` in `0..n`: one `Put`, then patches.
    fn patched_run(s: &mut WalStore, o: ObjectId, n: u64) {
        for i in 0..n {
            let _ = s.put(o, ckpt(1, i, &edited(512, i))).unwrap();
        }
    }

    #[test]
    fn an_edit_of_the_stored_state_is_logged_as_a_patch_and_replays() {
        let fs = Arc::new(FaultFs::new());
        let o = ObjectId::new(1);
        let wal = {
            let (mut s, _) = WalStore::open_with(cfg(FsyncPolicy::Always), fs.clone()).unwrap();
            patched_run(&mut s, o, 2);
            let whole = s.wal_stats().wal_bytes;
            let _ = s.put(o, ckpt(2, 0, &edited(512, 7))).unwrap();
            assert!(s.wal_stats().wal_bytes - whole < 64, "an 8-byte edit");
            assert_eq!(s.get(o).unwrap().state, Bytes::from(edited(512, 7)));
            s.live_wal_path()
        };
        let seg = replay_segment(&fs.read(&wal).unwrap(), 4 << 20);
        assert!(matches!(seg.records[0], WalRecord::Put { .. }));
        assert!(matches!(seg.records[2], WalRecord::Patch { at: 512, .. }));
        let (s, r) = WalStore::open_with(cfg(FsyncPolicy::Always), fs).unwrap();
        assert!(!r.corrupt);
        assert_eq!(r.wal_records, 3);
        assert_eq!(s.get(o), Some(&ckpt(2, 0, &edited(512, 7))));
        assert_eq!(
            s.epoch_floor(o),
            2,
            "a patch raises the floor as a put does"
        );
    }

    #[test]
    fn a_bit_flipped_in_a_patched_run_stops_the_replay_there() {
        // (flipped record, version recovered): inside the third patch the
        // two before it stand; inside the `Put` nothing does, and the
        // patches behind it are never reached
        for (flipped, recovered) in [(3usize, Some((1, 2))), (0, None)] {
            let fs = Arc::new(FaultFs::new());
            let o = ObjectId::new(1);
            let (wal, ends) = {
                let (mut s, _) = WalStore::open_with(cfg(FsyncPolicy::Always), fs.clone()).unwrap();
                let mut ends = Vec::new();
                for i in 0..5 {
                    let _ = s.put(o, ckpt(1, i, &edited(512, i))).unwrap();
                    ends.push(s.wal_stats().wal_bytes);
                }
                (s.live_wal_path(), ends)
            };
            assert!(fs.flip_bit(&wal, (ends[flipped] - 2) * 8));
            let (s, r) = WalStore::open_with(cfg(FsyncPolicy::Always), fs.clone()).unwrap();
            assert!(r.corrupt, "record {flipped}");
            assert_eq!(r.wal_records, flipped as u64);
            assert_eq!(s.get(o).map(StoredCheckpoint::version), recovered);
            let valid = if flipped == 0 { 0 } else { ends[flipped - 1] };
            assert_eq!(fs.file_len(&wal), Some(valid as usize), "cut back to there");
        }
    }

    /// A patch whose frame is intact but whose base is not what it was
    /// computed against — here the snapshot under it vanished — is
    /// corruption: flagged, the log cut there, later appends replayable.
    #[test]
    fn a_patch_without_its_base_is_flagged_and_truncated() {
        let fs = Arc::new(FaultFs::new());
        let (o, other) = (ObjectId::new(1), ObjectId::new(2));
        let wal = {
            let (mut s, _) = WalStore::open_with(cfg(FsyncPolicy::Always), fs.clone()).unwrap();
            patched_run(&mut s, o, 1);
            s.compact().unwrap();
            let _ = s.put(other, ckpt(1, 0, b"kept")).unwrap();
            patched_run(&mut s, o, 3);
            fs.vanish_on_reopen(&s.snap_path(1));
            s.live_wal_path()
        };
        let (mut s, r) = WalStore::open_with(cfg(FsyncPolicy::Always), fs.clone()).unwrap();
        assert!(r.corrupt && r.missing_files == 1);
        // `other`'s put, then `o`'s first put of the run: a patch of the
        // snapshot's identical state, which is gone
        assert_eq!(r.wal_records, 1);
        assert!(s.get(o).is_none() && s.get(other).is_some());
        assert_eq!(fs.file_len(&wal), Some(s.wal_stats().wal_bytes as usize));
        patched_run(&mut s, o, 2);
        drop(s);
        let (s, r) = WalStore::open_with(cfg(FsyncPolicy::Always), fs).unwrap();
        assert!(!r.corrupt, "what was appended after the cut has its base");
        assert_eq!(s.get(o).unwrap().version(), (1, 1));
    }

    #[test]
    fn power_loss_inside_a_patched_run_recovers_an_acknowledged_state() {
        let fs = Arc::new(FaultFs::new());
        let o = ObjectId::new(1);
        {
            let batch = FsyncPolicy::Batch {
                n: 4,
                ms: 1_000_000,
            };
            let (mut s, _) = WalStore::open_with(cfg(batch), fs.clone()).unwrap();
            patched_run(&mut s, o, 11);
            assert_eq!(s.wal_stats().synced, 8);
        }
        fs.power_loss();
        let (s, r) = WalStore::open_with(cfg(FsyncPolicy::Always), fs).unwrap();
        assert!(!r.corrupt, "a lost tail is not corruption");
        assert_eq!(r.wal_records, 8);
        assert_eq!(s.get(o), Some(&ckpt(1, 7, &edited(512, 7))));
    }

    /// `tests/fixtures/wal_pr11/` is a store directory written by the
    /// commit before the byte path was rebuilt (PR 11): a snapshot, a WAL
    /// suffix and the manifest. It must replay to the state that commit
    /// held, and the same operations must write the same three files.
    #[test]
    fn a_store_written_by_the_previous_format_replays_and_is_rewritten_identically() {
        const MANIFEST: &[u8] = include_bytes!("../../tests/fixtures/wal_pr11/MANIFEST");
        const SNAP: &[u8] = include_bytes!("../../tests/fixtures/wal_pr11/snap-1.bin");
        const WAL: &[u8] = include_bytes!("../../tests/fixtures/wal_pr11/wal-1.log");
        let state = |n: usize, salt: u8| {
            let bytes = (0..n).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt));
            Bytes::from(bytes.collect::<Vec<u8>>())
        };
        let blob = |epoch, seq, state| StoredCheckpoint {
            type_tag: "blob".into(),
            state,
            object_epoch: epoch,
            seq,
        };
        let o = ObjectId::new;
        let dir = std::path::Path::new("/virtual/store");

        let old = Arc::new(FaultFs::new());
        old.write(&dir.join("MANIFEST"), MANIFEST).unwrap();
        old.write(&dir.join("snap-1.bin"), SNAP).unwrap();
        old.write(&dir.join("wal-1.log"), WAL).unwrap();
        let (s, report) = WalStore::open_with(cfg(FsyncPolicy::Never), old).unwrap();
        assert!(!report.corrupt);
        assert_eq!((report.generation, report.torn_bytes), (1, 0));
        assert_eq!((report.snapshot_records, report.wal_records), (8, 5));
        let mut objects = s.objects();
        objects.sort_unstable_by_key(|o| o.as_u32());
        assert_eq!(objects, [o(1), o(4)]);
        assert_eq!(s.get(o(1)), Some(&blob(2, 2, state(300, 4))));
        assert_eq!(s.get(o(4)), Some(&blob(1, 1, state(8, 5))));
        let mut floors = s.epoch_floors();
        floors.sort_unstable_by_key(|(o, _)| o.as_u32());
        assert_eq!(
            floors,
            [(o(1), 2), (o(2), 2), (o(3), 5), (o(4), 1), (o(9), 6)]
        );
        assert_eq!((s.meta(0), s.meta(1)), (Some(4), Some(3)));

        let new = Arc::new(FaultFs::new());
        let (mut s, _) = WalStore::open_with(cfg(FsyncPolicy::Never), new.clone()).unwrap();
        let _ = s.put(o(1), blob(1, 1, state(100, 1))).unwrap();
        let _ = s.put(o(2), blob(2, 1, state(17, 2))).unwrap();
        let _ = s.put(o(3), blob(1, 1, state(0, 3))).unwrap();
        let _ = s.set_meta(0, 4).unwrap();
        let _ = s.set_meta(1, 2).unwrap();
        let _ = s.note_epoch(o(9), 6).unwrap();
        s.remove(o(2)).unwrap();
        s.compact().unwrap();
        let _ = s.put(o(1), blob(2, 2, state(300, 4))).unwrap();
        let _ = s.put(o(4), blob(1, 1, state(8, 5))).unwrap();
        let _ = s.set_meta(1, 3).unwrap();
        let _ = s.note_epoch(o(3), 5).unwrap();
        s.remove(o(3)).unwrap();
        assert_eq!(new.read(&dir.join("MANIFEST")).unwrap(), MANIFEST);
        assert_eq!(new.read(&dir.join("snap-1.bin")).unwrap(), SNAP);
        assert_eq!(new.read(&dir.join("wal-1.log")).unwrap(), WAL);
    }
}
