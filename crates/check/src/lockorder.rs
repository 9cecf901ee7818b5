//! The lock-nesting recorder.
//!
//! Debug builds of the runtime route every named `Mutex`/`RwLock`
//! acquisition through [`on_acquire`]/[`on_release`]. The recorder keeps a
//! thread-local stack of held sites and a global acquisition graph: holding
//! site `A` while acquiring site `B` adds the edge `A → B`. The runtime
//! holds one lock at a time, so the graph must stay empty: an edge is a
//! nesting to remove, and two opposite ones are a potential deadlock.
//!
//! The graph is cumulative across a process's lifetime; [`reset`] clears it
//! for test isolation. Sites are `&'static str` names so recording is
//! allocation-free on the hot path.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::Mutex;

static GRAPH: Mutex<BTreeSet<(&'static str, &'static str)>> = Mutex::new(BTreeSet::new());

thread_local! {
    static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn graph_lock() -> std::sync::MutexGuard<'static, BTreeSet<(&'static str, &'static str)>> {
    // the recorder's own mutex is infrastructure, not a recorded site; a
    // poisoned guard only means a panicking test thread held it mid-insert,
    // and the set is still structurally valid
    GRAPH
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Records that the current thread is acquiring the lock site `site`.
///
/// Call immediately before blocking on the lock. Every currently held site
/// gains an edge to `site`; reentrant same-site acquisition produces the
/// self-edge `site → site` (the runtime's locks are not reentrant).
pub fn on_acquire(site: &'static str) {
    HELD.with(|held| {
        let held = held.borrow();
        if !held.is_empty() {
            let mut graph = graph_lock();
            for &h in held.iter() {
                graph.insert((h, site));
            }
        }
    });
    HELD.with(|held| held.borrow_mut().push(site));
}

/// Records that the current thread released the lock site `site`.
///
/// Releases need not be LIFO (guards can be dropped out of order); the most
/// recent matching hold is removed.
pub fn on_release(site: &'static str) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&h| h == site) {
            held.remove(pos);
        }
    });
}

/// A snapshot of the accumulated acquisition graph, sorted.
#[must_use]
pub fn edges() -> Vec<(&'static str, &'static str)> {
    graph_lock().iter().copied().collect()
}

/// Clears the global graph (test isolation). Does not touch other threads'
/// held stacks — only call between workloads, not while locks are held.
pub fn reset() {
    graph_lock().clear();
}

/// Renders the graph as `a -> b` lines for reports.
#[must_use]
pub fn render_edges(edges: &[(&'static str, &'static str)]) -> String {
    let mut out = String::new();
    for (a, b) in edges {
        out.push_str(a);
        out.push_str(" -> ");
        out.push_str(b);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    // the global graph is process-wide state: serialize the tests that
    // mutate it
    static TEST_GATE: Mutex<()> = Mutex::new(());

    fn gate() -> MutexGuard<'static, ()> {
        TEST_GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn nested_acquisition_records_an_edge() {
        let _g = gate();
        reset();
        on_acquire("a");
        on_acquire("b");
        on_release("b");
        on_release("a");
        assert_eq!(edges(), vec![("a", "b")]);
    }

    #[test]
    fn sequential_acquisition_records_nothing() {
        let _g = gate();
        reset();
        on_acquire("a");
        on_release("a");
        on_acquire("b");
        on_release("b");
        assert!(edges().is_empty());
    }

    #[test]
    fn out_of_order_release_keeps_the_stack_consistent() {
        let _g = gate();
        reset();
        on_acquire("a");
        on_acquire("b");
        on_release("a"); // guard dropped out of order
        on_acquire("c"); // only b is held now
        on_release("c");
        on_release("b");
        assert_eq!(edges(), vec![("a", "b"), ("b", "c")]);
    }

    #[test]
    fn render_is_stable() {
        assert_eq!(render_edges(&[("a", "b")]), "a -> b\n");
    }
}
