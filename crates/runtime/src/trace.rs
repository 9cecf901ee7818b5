//! Trace collection and lock-order recording support for the runtime.
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
//!   [`oml_check::lockorder`], which records each lock taken while another
//!   is held. The runtime takes none that way: `repro check` and
//!   `traced_invariants.rs` fail on any nesting (DESIGN.md §12.3). Release
//!   builds compile the recording away entirely.
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

/// A `parking_lot::Mutex` that reports its acquisitions to the lock-order
/// recorder in debug builds. The site name must be unique per lock.
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

    pub(crate) fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        oml_check::lockorder::on_acquire(self.name);
        OrderedMutexGuard {
            #[cfg(debug_assertions)]
            name: self.name,
            inner: self.inner.lock(),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

pub(crate) struct OrderedMutexGuard<'a, T> {
    #[cfg(debug_assertions)]
    name: &'static str,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        oml_check::lockorder::on_release(self.name);
    }
}

/// A `parking_lot::RwLock` that reports its acquisitions (read and write
/// alike — the deadlock analysis does not distinguish shared from exclusive
/// holds) to the lock-order recorder in debug builds.
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

    pub(crate) fn read(&self) -> OrderedReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        oml_check::lockorder::on_acquire(self.name);
        OrderedReadGuard {
            #[cfg(debug_assertions)]
            name: self.name,
            inner: self.inner.read(),
        }
    }

    pub(crate) fn write(&self) -> OrderedWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        oml_check::lockorder::on_acquire(self.name);
        OrderedWriteGuard {
            #[cfg(debug_assertions)]
            name: self.name,
            inner: self.inner.write(),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

pub(crate) struct OrderedReadGuard<'a, T> {
    #[cfg(debug_assertions)]
    name: &'static str,
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

impl<T> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        oml_check::lockorder::on_release(self.name);
    }
}

pub(crate) struct OrderedWriteGuard<'a, T> {
    #[cfg(debug_assertions)]
    name: &'static str,
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        oml_check::lockorder::on_release(self.name);
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
}
