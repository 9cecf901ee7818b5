//! Trace collection and the named lock sites of the runtime.
//!
//! Two pieces of instrumentation live here, both consumed by `oml-check`:
//!
//! * [`TraceCollector`] — gathers the structured protocol events
//!   ([`oml_check::event::TraceEvent`]) the checker's invariant analysis
//!   replays. Collection is opt-in ([`crate::ClusterBuilder::trace`]); a
//!   disabled collector is a handful of branch instructions on the hot
//!   path. Each thread appends its own events, so the per-process slices of
//!   the collected vector are program order — exactly what the checker's
//!   vector-clock construction requires.
//! * [`OrderedMutex`] / [`OrderedRwLock`] — the runtime's named lock sites.
//!   In debug builds every acquisition/release is reported to
//!   [`oml_check::lockorder`], which aborts the process when a lock is taken
//!   while another is held (DESIGN.md §12.3), naming both sites. Release
//!   builds compile the reporting away entirely: their [`OrderedGuard`] is
//!   the bare `parking_lot` guard.
//!
//! The collector's own mutex and the fault injector's internal locks are
//! deliberately *not* ordered sites: they are leaf infrastructure that never
//! acquires another lock while held.

use std::sync::atomic::{AtomicU64, Ordering};

use oml_check::event::{EventKind, TraceEvent};

/// Collects protocol trace events from every thread of a cluster (or, in
/// the multi-process runtime, of the coordinator).
pub(crate) struct TraceCollector {
    enabled: bool,
    /// The trace, in chunks of [`TRACE_CHUNK`] events. One `Vec` regrown
    /// by doubling from empty after every drain leaves its discarded
    /// generations behind in the allocator: at `sock_migrate_wal`'s 20 000
    /// events per drain that was 1.5 MiB of the coordinator's peak memory
    /// (EXPERIMENTS.md, "The byte path"). Chunks are all one size, so a
    /// drained window's chunks are what the next window allocates.
    events: parking_lot::Mutex<Vec<Vec<TraceEvent>>>,
    /// Message ids start at 1; id 0 marks an untraced envelope.
    next_msg_id: AtomicU64,
}

/// Events per trace chunk: 48 KiB of `TraceEvent`s.
const TRACE_CHUNK: usize = 1024;

impl TraceCollector {
    pub(crate) fn new(enabled: bool) -> Self {
        TraceCollector {
            enabled,
            events: parking_lot::Mutex::new(Vec::new()),
            next_msg_id: AtomicU64::new(1),
        }
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends one event. Call from the acting thread only, so per-process
    /// slices stay in program order. Lock-state events (acquire, release,
    /// renew) must additionally be emitted while holding the policy guard:
    /// the policy mutex is what orders the lock table, and emitting outside
    /// it could interleave a release/acquire pair backwards in the
    /// collected trace. The collector's own mutex is a leaf.
    pub(crate) fn emit(&self, process: u32, kind: EventKind) {
        if !self.enabled {
            return;
        }
        let event = TraceEvent::new(process, kind);
        let mut chunks = self.events.lock();
        match chunks.last_mut() {
            Some(chunk) if chunk.len() < TRACE_CHUNK => chunk.push(event),
            _ => {
                let mut chunk = Vec::with_capacity(TRACE_CHUNK);
                chunk.push(event);
                chunks.push(chunk);
            }
        }
    }

    /// A fresh message id (0 when tracing is off — the untraced marker).
    pub(crate) fn next_msg_id(&self) -> u64 {
        if self.enabled {
            self.next_msg_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Drains the collected events.
    pub(crate) fn take(&self) -> Vec<TraceEvent> {
        let chunks = std::mem::take(&mut *self.events.lock());
        let mut trace = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for chunk in chunks {
            // each chunk is freed as soon as it is copied
            trace.extend(chunk);
        }
        trace
    }
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("enabled", &self.enabled)
            .field(
                "events",
                &self.events.lock().iter().map(Vec::len).sum::<usize>(),
            )
            .finish()
    }
}

/// A `parking_lot::Mutex` that reports its acquisitions to the lock-nesting
/// trap in debug builds. The site name must be unique per lock.
pub(crate) struct OrderedMutex<T> {
    #[cfg(debug_assertions)]
    name: &'static str,
    inner: parking_lot::Mutex<T>,
}

impl<T> OrderedMutex<T> {
    pub(crate) fn new(name: &'static str, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = name;
        OrderedMutex {
            #[cfg(debug_assertions)]
            name,
            inner: parking_lot::Mutex::new(value),
        }
    }

    pub(crate) fn lock(&self) -> OrderedGuard<parking_lot::MutexGuard<'_, T>> {
        #[cfg(debug_assertions)]
        oml_check::lockorder::on_acquire(self.name);
        OrderedGuard(self.inner.lock())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// A `parking_lot::RwLock` that reports its acquisitions to the
/// lock-nesting trap in debug builds, read and write alike: a read taken
/// under another lock can deadlock as surely as a write.
pub(crate) struct OrderedRwLock<T> {
    #[cfg(debug_assertions)]
    name: &'static str,
    inner: parking_lot::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    pub(crate) fn new(name: &'static str, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = name;
        OrderedRwLock {
            #[cfg(debug_assertions)]
            name,
            inner: parking_lot::RwLock::new(value),
        }
    }

    pub(crate) fn read(&self) -> OrderedGuard<parking_lot::RwLockReadGuard<'_, T>> {
        #[cfg(debug_assertions)]
        oml_check::lockorder::on_acquire(self.name);
        OrderedGuard(self.inner.read())
    }

    pub(crate) fn write(&self) -> OrderedGuard<parking_lot::RwLockWriteGuard<'_, T>> {
        #[cfg(debug_assertions)]
        oml_check::lockorder::on_acquire(self.name);
        OrderedGuard(self.inner.write())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// The guard of an [`OrderedMutex`] or [`OrderedRwLock`]: the `parking_lot`
/// guard it wraps, which in debug builds tells the trap when it is dropped.
pub(crate) struct OrderedGuard<G>(G);

impl<G: std::ops::Deref> std::ops::Deref for OrderedGuard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.0
    }
}

impl<G: std::ops::DerefMut> std::ops::DerefMut for OrderedGuard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.0
    }
}

#[cfg(debug_assertions)]
impl<G> Drop for OrderedGuard<G> {
    fn drop(&mut self) {
        oml_check::lockorder::on_release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oml_core::ids::ObjectId;

    #[test]
    fn disabled_collector_records_nothing_and_ids_are_zero() {
        let c = TraceCollector::new(false);
        assert!(!c.is_enabled());
        assert_eq!(c.next_msg_id(), 0);
        c.emit(
            0,
            EventKind::Install {
                object: ObjectId::new(0),
            },
        );
        assert!(c.take().is_empty());
    }

    #[test]
    fn enabled_collector_keeps_order_and_unique_ids() {
        let c = TraceCollector::new(true);
        let a = c.next_msg_id();
        let b = c.next_msg_id();
        assert!(a >= 1 && b > a);
        c.emit(
            1,
            EventKind::Install {
                object: ObjectId::new(4),
            },
        );
        c.emit(1, EventKind::Recv { msg_id: a });
        let events = c.take();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0].kind, EventKind::Install { .. }));
        assert!(c.take().is_empty());
        // order survives the chunk boundaries
        let ids = 0..2 * TRACE_CHUNK as u64 + 7;
        ids.clone()
            .for_each(|msg_id| c.emit(1, EventKind::Recv { msg_id }));
        let kinds = c.take().into_iter().map(|e| e.kind);
        assert!(kinds.eq(ids.map(|msg_id| EventKind::Recv { msg_id })));
    }

    #[test]
    fn ordered_locks_deref_to_their_values() {
        let m = OrderedMutex::new("test.m", 1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let rw = OrderedRwLock::new("test.rw", 5u32);
        *rw.write() += 1;
        assert_eq!(*rw.read(), 6);
    }

    /// Taking a named lock while holding another stops the process where
    /// it happens, naming both sites. The test re-runs its own binary as a
    /// child that nests two locks, and reads how the child died.
    #[cfg(all(unix, debug_assertions))]
    #[test]
    fn a_lock_taken_under_another_aborts_the_process() {
        use std::os::unix::process::ExitStatusExt;
        const CHILD: &str = "OML_NESTED_LOCK_CHILD";
        const SIGABRT: i32 = 6;
        if std::env::var_os(CHILD).is_some() {
            let held = OrderedMutex::new("test.held", ());
            let taken = OrderedMutex::new("test.taken", ());
            let _held = held.lock();
            let _taken = taken.lock();
            return;
        }
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "trace::tests::a_lock_taken_under_another_aborts_the_process",
            ])
            .env(CHILD, "1")
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&child.stderr);
        assert_eq!(child.status.signal(), Some(SIGABRT), "{stderr}");
        assert!(stderr.contains("test.held -> test.taken"), "{stderr}");
    }
}
