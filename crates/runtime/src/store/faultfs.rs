//! `FaultFs` — a scripted, in-memory [`Storage`] that injects the storage
//! faults real disks produce: torn appends, fsyncs that lie, bit rot and
//! files missing on reopen. A test arms each fault by hand, at an exact
//! append, file or offset; nothing is drawn from a seed. The storage-side
//! sibling of the message-level [`crate::FaultPlan`].
//!
//! The crucial capability a real filesystem cannot offer a test is
//! **deterministic power loss**: a SIGKILLed process keeps every completed
//! `write(2)` because the page cache belongs to the kernel, so fsync
//! policies are indistinguishable under process crashes alone. `FaultFs`
//! tracks, per file, the *durable* prefix (advanced only by a successful
//! sync) separately from the *written* length; [`FaultFs::power_loss`]
//! truncates every file to its durable prefix, which is exactly what a
//! machine losing power does — and exactly what separates
//! `FsyncPolicy::Always` from `Never` observably.
//!
//! The handle is cheaply cloneable: tests keep one clone as the control
//! plane while the store owns another.

use super::fsio::Storage;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One simulated file: written bytes plus the prefix known durable.
#[derive(Debug, Default, Clone)]
struct FileBuf {
    data: Vec<u8>,
    /// Bytes guaranteed to survive [`FaultFs::power_loss`]; advanced by
    /// honest syncs and by atomic publication.
    durable: usize,
}

/// Observability counters for assertions in chaos tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FaultFsCounters {
    /// Append calls observed.
    pub appends: u64,
    /// Bytes actually written by appends (torn writes count the kept part).
    pub bytes_appended: u64,
    /// Sync calls observed (honest or skipped).
    pub syncs: u64,
    /// Syncs that were skipped by the `skip_fsync` fault.
    pub skipped_syncs: u64,
    /// Appends torn by the injected fault.
    pub torn_writes: u64,
}

#[derive(Default)]
struct Inner {
    files: HashMap<PathBuf, FileBuf>,
    /// Injected fault: tear the `at_append`-th append (1-based, counted
    /// across all files), keeping only `keep` bytes of the chunk.
    torn: Option<(u64, usize)>,
    appends_seen: u64,
    skip_fsync: bool,
    vanish: HashSet<PathBuf>,
    counters: FaultFsCounters,
}

/// The fault-injecting in-memory filesystem. See the module docs.
#[derive(Clone, Default)]
pub(crate) struct FaultFs {
    inner: Arc<Mutex<Inner>>,
}

impl FaultFs {
    /// A fresh, fault-free in-memory filesystem.
    #[must_use]
    pub(crate) fn new() -> FaultFs {
        FaultFs::default()
    }

    /// Arms a torn write: the `at_append`-th append (1-based, across all
    /// files) keeps only `keep` bytes of its chunk and fails — the process
    /// "died" mid-`write(2)`.
    pub(crate) fn torn_write(&self, at_append: u64, keep: usize) {
        self.inner.lock().torn = Some((at_append, keep));
    }

    /// When `on`, syncs report success without advancing the durable
    /// prefix — the firmware that acknowledges flushes it never performs.
    pub(crate) fn skip_fsync(&self, on: bool) {
        self.inner.lock().skip_fsync = on;
    }

    /// The next read of `path` fails with `NotFound` (one-shot) — the file
    /// that vanished between shutdown and reopen.
    pub(crate) fn vanish_on_reopen(&self, path: &Path) {
        self.inner.lock().vanish.insert(path.to_path_buf());
    }

    /// Flips one bit of `path` at `bit_offset` (bit rot). `false` if the
    /// file is missing or shorter than the offset.
    pub(crate) fn flip_bit(&self, path: &Path, bit_offset: u64) -> bool {
        let mut inner = self.inner.lock();
        let Some(file) = inner.files.get_mut(path) else {
            return false;
        };
        let byte = (bit_offset / 8) as usize;
        if byte >= file.data.len() {
            return false;
        }
        file.data[byte] ^= 1 << (bit_offset % 8);
        true
    }

    /// Simulated power loss: every file is truncated to its durable
    /// prefix. Unsynced appends vanish, exactly as they would from a dead
    /// machine's page cache.
    pub(crate) fn power_loss(&self) {
        let mut inner = self.inner.lock();
        for file in inner.files.values_mut() {
            let durable = file.durable;
            file.data.truncate(durable);
        }
    }

    /// The written length of `path`, if it exists.
    #[must_use]
    pub(crate) fn file_len(&self, path: &Path) -> Option<usize> {
        self.inner.lock().files.get(path).map(|f| f.data.len())
    }

    /// Counter snapshot.
    #[must_use]
    pub(crate) fn counters(&self) -> FaultFsCounters {
        self.inner.lock().counters
    }
}

impl Storage for FaultFs {
    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut inner = self.inner.lock();
        if inner.vanish.remove(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "file vanished on reopen (injected)",
            ));
        }
        inner
            .files
            .get(path)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such simulated file"))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock();
        inner.files.insert(
            path.to_path_buf(),
            FileBuf {
                data: bytes.to_vec(),
                durable: 0,
            },
        );
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock();
        inner.appends_seen += 1;
        inner.counters.appends += 1;
        let torn = match inner.torn {
            Some((at, keep)) if at == inner.appends_seen => Some(keep.min(bytes.len())),
            _ => None,
        };
        let written = torn.unwrap_or(bytes.len());
        inner.counters.bytes_appended += written as u64;
        let file = inner.files.entry(path.to_path_buf()).or_default();
        file.data.extend_from_slice(&bytes[..written]);
        if torn.is_some() {
            inner.counters.torn_writes += 1;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "torn write (injected)",
            ));
        }
        Ok(())
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let mut inner = self.inner.lock();
        inner.counters.syncs += 1;
        if inner.skip_fsync {
            inner.counters.skipped_syncs += 1;
            return Ok(()); // the lie
        }
        match inner.files.get_mut(path) {
            Some(file) => {
                file.durable = file.data.len();
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no such simulated file",
            )),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut inner = self.inner.lock();
        match inner.files.get_mut(path) {
            Some(file) => {
                file.data.truncate(len as usize);
                file.durable = file.durable.min(len as usize);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no such simulated file",
            )),
        }
    }

    fn write_atomic(&self, _tmp: &Path, dst: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock();
        // rename + dir fsync make the publication durable as one unit
        inner.files.insert(
            dst.to_path_buf(),
            FileBuf {
                data: bytes.to_vec(),
                durable: bytes.len(),
            },
        );
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match self.inner.lock().files.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no such simulated file",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn p(name: &str) -> PathBuf {
        PathBuf::from(format!("/virtual/{name}"))
    }

    #[test]
    fn power_loss_discards_unsynced_suffix() {
        let fs = FaultFs::new();
        fs.append(&p("wal"), b"aaaa").unwrap();
        fs.sync(&p("wal")).unwrap();
        fs.append(&p("wal"), b"bbbb").unwrap();
        assert_eq!(fs.file_len(&p("wal")), Some(8));
        fs.power_loss();
        assert_eq!(fs.read(&p("wal")).unwrap(), b"aaaa");
    }

    #[test]
    fn skipped_fsync_is_a_lie_power_loss_exposes() {
        let fs = FaultFs::new();
        fs.skip_fsync(true);
        fs.append(&p("wal"), b"data").unwrap();
        fs.sync(&p("wal")).unwrap(); // reports success
        fs.power_loss();
        assert_eq!(fs.read(&p("wal")).unwrap(), b"", "the sync lied");
        assert_eq!(fs.counters().skipped_syncs, 1);
    }

    #[test]
    fn torn_append_keeps_a_prefix_and_errors() {
        let fs = FaultFs::new();
        fs.torn_write(2, 3);
        fs.append(&p("wal"), b"first").unwrap();
        let err = fs.append(&p("wal"), b"second").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(fs.read(&p("wal")).unwrap(), b"firstsec");
        assert_eq!(fs.counters().torn_writes, 1);
    }

    #[test]
    fn bit_flip_and_vanish() {
        let fs = FaultFs::new();
        fs.write_atomic(&p("t"), &p("snap"), &[0b0000_0000])
            .unwrap();
        assert!(fs.flip_bit(&p("snap"), 3));
        assert_eq!(fs.read(&p("snap")).unwrap(), vec![0b0000_1000]);
        assert!(!fs.flip_bit(&p("snap"), 64), "offset past the end");
        fs.vanish_on_reopen(&p("snap"));
        assert!(fs.read(&p("snap")).is_err());
        assert!(fs.read(&p("snap")).is_ok(), "vanish is one-shot");
    }

    #[test]
    fn write_atomic_is_durable_as_one_unit() {
        let fs = FaultFs::new();
        fs.write_atomic(&p("m.tmp"), &p("m"), b"gen 3").unwrap();
        fs.power_loss();
        assert_eq!(fs.read(&p("m")).unwrap(), b"gen 3");
    }
}
