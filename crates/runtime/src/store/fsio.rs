//! The filesystem boundary: every real disk operation the store performs
//! lives in this one module, behind the [`Storage`] trait.
//!
//! Confinement is enforced by the `store_io.rs` source-scan test (the
//! sibling of `transport_deadlines.rs`): no other file under `store/` may
//! touch `std::fs`. That keeps the WAL logic testable against the
//! in-memory, test-only `FaultFs` — which can tear writes, skip
//! fsyncs and lose power — while this module stays small enough to audit
//! by eye.

use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Path-based storage operations the WAL store needs. Implemented by
/// `RealFs` (actual disk) and the test-only `FaultFs` (in-memory,
/// fault-injecting).
pub trait Storage: Send + Sync {
    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    /// Propagated IO failures.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Reads the whole file at `path`.
    ///
    /// # Errors
    /// Propagated IO failures; `NotFound` when the file does not exist.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Creates (or truncates) `path` with `bytes` — *not* atomic, *not*
    /// synced; use [`write_atomic`](Self::write_atomic) for publication.
    ///
    /// # Errors
    /// Propagated IO failures.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Appends `bytes` to `path`, creating it if absent. A crash (or an
    /// injected fault) may leave a *prefix* of `bytes` on disk — the torn
    /// write the replay path truncates.
    ///
    /// # Errors
    /// Propagated IO failures.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Fsyncs `path`'s data and metadata to stable storage.
    ///
    /// # Errors
    /// Propagated IO failures.
    fn sync(&self, path: &Path) -> io::Result<()>;

    /// Truncates `path` to `len` bytes (discarding a torn tail).
    ///
    /// # Errors
    /// Propagated IO failures.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Publishes `bytes` at `dst` atomically: write `tmp`, fsync it,
    /// rename over `dst`, fsync the parent directory. Readers see either
    /// the old content or the new, never a prefix.
    ///
    /// # Errors
    /// Propagated IO failures.
    fn write_atomic(&self, tmp: &Path, dst: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Removes the file at `path`.
    ///
    /// # Errors
    /// Propagated IO failures; `NotFound` when already absent.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The production [`Storage`]: plain `std::fs`. One append handle is kept
/// open — the live WAL's, the only file that is appended to and synced
/// again and again — so a record costs one `write(2)`, not an open, a
/// write and a close, and a sync reuses the descriptor. Any other
/// operation on that path drops the handle first.
#[derive(Debug, Default)]
pub(crate) struct RealFs {
    live: Mutex<Option<(PathBuf, File)>>,
}

impl RealFs {
    /// Closes the append handle if it is `path`'s: the file is about to be
    /// replaced, cut or removed behind it.
    fn forget(&self, path: &Path) {
        let mut live = self.live.lock();
        if live.as_ref().is_some_and(|(held, _)| held == path) {
            *live = None;
        }
    }
}

impl Storage for RealFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.forget(path);
        std::fs::write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut live = self.live.lock();
        let file = match &mut *live {
            Some((held, file)) if held == path => file,
            other => {
                let file = OpenOptions::new().create(true).append(true).open(path)?;
                &mut other.insert((path.to_path_buf(), file)).1
            }
        };
        file.write_all(bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        match &*self.live.lock() {
            Some((held, file)) if held == path => file.sync_all(),
            // fsync through a fresh descriptor flushes the same inode
            _ => File::open(path)?.sync_all(),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.forget(path);
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn write_atomic(&self, tmp: &Path, dst: &Path, bytes: &[u8]) -> io::Result<()> {
        self.forget(dst);
        {
            let mut f = File::create(tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(tmp, dst)?;
        // fsync the directory so the rename itself is durable, and report
        // its failure: a caller that goes on to delete what `dst` replaces
        // (compaction) must not do so behind a rename that may be lost.
        // Best-effort only where the directory cannot be opened (non-unix
        // platforms).
        if let Some(parent) = dst.parent() {
            if let Ok(d) = File::open(parent) {
                d.sync_all()?;
            }
        }
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.forget(path);
        std::fs::remove_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("oml-fsio-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_read_truncate_round_trip() {
        let dir = temp_dir("rt");
        let fs = RealFs::default();
        fs.create_dir_all(&dir).unwrap();
        let p = dir.join("wal.log");
        fs.append(&p, b"hello ").unwrap();
        fs.append(&p, b"world").unwrap();
        fs.sync(&p).unwrap();
        assert_eq!(fs.read(&p).unwrap(), b"hello world");
        fs.truncate(&p, 5).unwrap();
        assert_eq!(fs.read(&p).unwrap(), b"hello");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_append_handle_never_outlives_its_file() {
        let dir = temp_dir("live");
        let fs = RealFs::default();
        fs.create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("wal-0.log"), dir.join("wal-1.log"));
        fs.append(&a, b"one").unwrap();
        fs.append(&a, b"two").unwrap();
        // every operation that replaces, cuts or removes the live file must
        // be seen by the next append
        fs.write(&a, b"").unwrap();
        fs.append(&a, b"three").unwrap();
        assert_eq!(fs.read(&a).unwrap(), b"three");
        fs.truncate(&a, 2).unwrap();
        fs.append(&a, b"!").unwrap();
        assert_eq!(fs.read(&a).unwrap(), b"th!");
        fs.remove(&a).unwrap();
        fs.append(&a, b"again").unwrap();
        assert_eq!(fs.read(&a).unwrap(), b"again");
        fs.write_atomic(&dir.join("tmp"), &a, b"published").unwrap();
        fs.append(&a, b"+").unwrap();
        assert_eq!(fs.read(&a).unwrap(), b"published+");
        // a new generation takes the handle over; syncing either still works
        fs.append(&b, b"next").unwrap();
        fs.sync(&b).unwrap();
        fs.sync(&a).unwrap();
        fs.append(&a, b"+").unwrap();
        assert_eq!(fs.read(&a).unwrap(), b"published++");
        assert_eq!(fs.read(&b).unwrap(), b"next");
        assert_eq!(
            fs.sync(&dir.join("absent")).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_and_removes_tmp() {
        let dir = temp_dir("at");
        let fs = RealFs::default();
        fs.create_dir_all(&dir).unwrap();
        let dst = dir.join("MANIFEST");
        let tmp = dir.join("MANIFEST.tmp");
        fs.write_atomic(&tmp, &dst, b"gen 1").unwrap();
        fs.write_atomic(&tmp, &dst, b"gen 2").unwrap();
        assert_eq!(fs.read(&dst).unwrap(), b"gen 2");
        assert!(fs.read(&tmp).is_err(), "tmp must have been renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_reads_not_found() {
        let dir = temp_dir("nf");
        let fs = RealFs::default();
        fs.create_dir_all(&dir).unwrap();
        let err = fs.read(&dir.join("absent")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let err = fs.remove(&dir.join("absent")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
