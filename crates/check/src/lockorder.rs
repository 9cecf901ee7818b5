//! The lock-order deadlock analyzer.
//!
//! Debug builds of the runtime route every named `Mutex`/`RwLock`
//! acquisition through [`on_acquire`]/[`on_release`]. The recorder keeps a
//! thread-local stack of held sites and a global acquisition graph: holding
//! site `A` while acquiring site `B` adds the edge `A → B`. A cycle in that
//! graph is a potential deadlock — two threads can interleave the cyclic
//! acquisitions and block each other forever — so [`assert_acyclic`] fails
//! on any cycle, even one no execution has deadlocked on yet.
//!
//! The graph is cumulative across a process's lifetime; [`reset`] clears it
//! for test isolation. Sites are `&'static str` names so recording is
//! allocation-free on the hot path.
//!
//! [`unknown_edges`] additionally compares the observed graph against a
//! static allowlist of documented orderings (DESIGN.md §12.3): a new nesting
//! that nobody wrote down fails CI until it is reviewed and documented.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
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
/// self-edge `site → site`, which [`find_cycle`] reports as a cycle (the
/// runtime's locks are not reentrant).
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

/// Searches the accumulated graph for a cycle and returns one as a path
/// `[a, b, ..., a]`, or `None` if the graph is acyclic.
#[must_use]
pub fn find_cycle() -> Option<Vec<&'static str>> {
    find_cycle_in(&edges())
}

/// Cycle search over an explicit edge list (the pure core of
/// [`find_cycle`], usable on snapshots).
#[must_use]
pub fn find_cycle_in(edges: &[(&'static str, &'static str)]) -> Option<Vec<&'static str>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }

    fn dfs(
        node: &'static str,
        adj: &BTreeMap<&str, Vec<&'static str>>,
        color: &mut BTreeMap<&str, Color>,
        stack: &mut Vec<&'static str>,
    ) -> Option<Vec<&'static str>> {
        color.insert(node, Color::Grey);
        stack.push(node);
        for &next in adj.get(node).into_iter().flatten() {
            match color.get(next).copied().unwrap_or(Color::White) {
                Color::Grey => {
                    let start = stack.iter().position(|&n| n == next).unwrap_or(0);
                    let mut cycle: Vec<&'static str> = stack[start..].to_vec();
                    cycle.push(next);
                    return Some(cycle);
                }
                Color::White => {
                    if let Some(cycle) = dfs(next, adj, color, stack) {
                        return Some(cycle);
                    }
                }
                Color::Black => {}
            }
        }
        stack.pop();
        color.insert(node, Color::Black);
        None
    }

    let mut adj: BTreeMap<&str, Vec<&'static str>> = BTreeMap::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    let mut color: BTreeMap<&str, Color> = BTreeMap::new();
    let mut stack: Vec<&'static str> = Vec::new();

    let starts: Vec<&'static str> = edges.iter().map(|&(a, _)| a).collect();
    for node in starts {
        if color.get(node).copied().unwrap_or(Color::White) == Color::White {
            if let Some(cycle) = dfs(node, &adj, &mut color, &mut stack) {
                return Some(cycle);
            }
        }
    }
    None
}

/// Asserts the accumulated acquisition graph is acyclic.
///
/// # Panics
///
/// Panics with the offending `a -> b -> ... -> a` path if the graph has a
/// cycle (a potential deadlock).
pub fn assert_acyclic() {
    if let Some(cycle) = find_cycle() {
        panic!("lock-order cycle detected: {}", cycle.join(" -> "));
    }
}

/// Observed edges that the static allowlist does not cover.
///
/// `allowed` is the documented set of legal orderings; any observed edge
/// outside it is returned so CI can fail until the new nesting is reviewed.
#[must_use]
pub fn unknown_edges(
    allowed: &[(&'static str, &'static str)],
) -> Vec<(&'static str, &'static str)> {
    let allowed: BTreeSet<(&str, &str)> = allowed.iter().copied().collect();
    edges()
        .into_iter()
        .filter(|&(a, b)| !allowed.contains(&(a, b)))
        .collect()
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
        assert!(find_cycle().is_none());
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
    fn opposite_nesting_orders_form_a_cycle() {
        let _g = gate();
        reset();
        on_acquire("a");
        on_acquire("b");
        on_release("b");
        on_release("a");
        on_acquire("b");
        on_acquire("a");
        on_release("a");
        on_release("b");
        let cycle = find_cycle().expect("a<->b must cycle");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() >= 3);
    }

    #[test]
    fn three_way_cycle_is_found() {
        let cycle =
            find_cycle_in(&[("a", "b"), ("b", "c"), ("c", "a"), ("x", "y")]).expect("cycle exists");
        assert_eq!(cycle.first(), cycle.last());
    }

    #[test]
    fn reentrant_acquisition_is_a_self_cycle() {
        let _g = gate();
        reset();
        on_acquire("a");
        on_acquire("a");
        on_release("a");
        on_release("a");
        assert_eq!(find_cycle(), Some(vec!["a", "a"]));
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
    fn unknown_edges_filters_the_allowlist() {
        let _g = gate();
        reset();
        on_acquire("a");
        on_acquire("b");
        on_release("b");
        on_acquire("c");
        on_release("c");
        on_release("a");
        assert_eq!(unknown_edges(&[("a", "b")]), vec![("a", "c")]);
        assert!(unknown_edges(&[("a", "b"), ("a", "c")]).is_empty());
    }

    #[test]
    fn render_is_stable() {
        assert_eq!(render_edges(&[("a", "b")]), "a -> b\n");
    }
}
