//! The one-lock rule, enforced where it is broken.
//!
//! Debug builds of the runtime route every named `Mutex`/`RwLock`
//! acquisition through [`on_acquire`] and every release through
//! [`on_release`]. The runtime holds one named lock at a time (DESIGN.md
//! §12.3), so a thread holds at most one site, kept in a thread-local.
//! Taking a site while holding another prints `held -> taken` with a
//! backtrace and aborts the process, at the line that broke the rule.
//!
//! It aborts rather than panics: the runtime runs timer work (ticks,
//! detector sweeps, delayed deliveries) under `catch_unwind`, which would
//! swallow a panic and let the run go on. The message is written straight
//! to stderr, so a test harness capturing output cannot lose it.

use std::cell::Cell;
use std::io::Write;

thread_local! {
    static HELD: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// Records that the current thread is taking the lock site `site`. Call
/// immediately before blocking on the lock.
///
/// Aborts the process, naming both sites, if the thread already holds a
/// site — the same one included (the runtime's locks are not reentrant).
pub fn on_acquire(site: &'static str) {
    if let Some(held) = HELD.replace(Some(site)) {
        let _ = writeln!(
            std::io::stderr(),
            "lock taken while another was held, held -> taken (DESIGN.md §12.3):\n\
             {held} -> {site}\n{}",
            std::backtrace::Backtrace::force_capture()
        );
        std::process::abort();
    }
}

/// Records that the current thread released the site it held.
pub fn on_release() {
    HELD.set(None);
}
