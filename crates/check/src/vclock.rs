//! Vector clocks and the happens-before order derived from a trace.
//!
//! The checker does not trust wall-clock interleavings: two events are
//! ordered only if (a) the same process emitted both, in program order, or
//! (b) a chain of message `Send`→`Recv` edges connects them (Lamport's
//! happened-before). [`assign_clocks`] walks a trace once and gives every
//! event a vector clock; [`VClock::le`] then answers ordering queries in
//! O(processes).

use std::collections::BTreeMap;

use crate::event::{EventKind, TraceEvent};

/// A vector clock over the trace's processes (sparse: absent = 0).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct VClock {
    counts: BTreeMap<u32, u64>,
}

impl VClock {
    /// This clock's component for `process`.
    #[must_use]
    pub(crate) fn get(&self, process: u32) -> u64 {
        self.counts.get(&process).copied().unwrap_or(0)
    }

    /// Increments `process`'s component (a local step).
    pub(crate) fn tick(&mut self, process: u32) {
        *self.counts.entry(process).or_insert(0) += 1;
    }

    /// Component-wise maximum with `other` (a message join).
    pub(crate) fn join(&mut self, other: &VClock) {
        for (&p, &c) in &other.counts {
            let slot = self.counts.entry(p).or_insert(0);
            *slot = (*slot).max(c);
        }
    }

    /// Whether `self` happened-before-or-equals `other` (component-wise ≤).
    #[must_use]
    pub(crate) fn le(&self, other: &VClock) -> bool {
        self.counts.iter().all(|(&p, &c)| c <= other.get(p))
    }

    /// Whether the two clocks are concurrent (neither ≤ the other).
    #[cfg(test)]
    pub(crate) fn concurrent(&self, other: &VClock) -> bool {
        !self.le(other) && !other.le(self)
    }
}

/// Assigns a vector clock to every event of `trace`, in order.
///
/// The trace's slice per process must be that process's program order (the
/// collector guarantees this: each process appends its own events). A `Recv`
/// whose `msg_id` has no matching earlier `Send` contributes no extra edge —
/// the checker reports such orphans separately.
#[must_use]
pub(crate) fn assign_clocks(trace: &[TraceEvent]) -> Vec<VClock> {
    let mut per_process: BTreeMap<u32, VClock> = BTreeMap::new();
    let mut sent: BTreeMap<u64, VClock> = BTreeMap::new();
    let mut out = Vec::with_capacity(trace.len());
    for ev in trace {
        let clock = per_process.entry(ev.process).or_default();
        if let EventKind::Recv { msg_id } = &ev.kind {
            if let Some(send_clock) = sent.get(msg_id) {
                clock.join(send_clock);
            }
        }
        clock.tick(ev.process);
        if let EventKind::Send { msg_id, .. } = &ev.kind {
            sent.insert(*msg_id, clock.clone());
        }
        out.push(clock.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn send(process: u32, msg_id: u64, to: u32) -> TraceEvent {
        TraceEvent::new(
            process,
            EventKind::Send {
                msg_id,
                to,
                desc: String::new(),
            },
        )
    }
    fn recv(process: u32, msg_id: u64) -> TraceEvent {
        TraceEvent::new(process, EventKind::Recv { msg_id })
    }
    fn local(process: u32) -> TraceEvent {
        TraceEvent::new(
            process,
            EventKind::LeaseRenewed {
                object: oml_core::ids::ObjectId::new(0),
                now_ms: 0,
            },
        )
    }

    #[test]
    fn program_order_is_ordered() {
        let trace = vec![local(0), local(0)];
        let clocks = assign_clocks(&trace);
        assert!(clocks[0].le(&clocks[1]));
        assert!(!clocks[1].le(&clocks[0]));
    }

    #[test]
    fn cross_process_without_messages_is_concurrent() {
        let trace = vec![local(0), local(1)];
        let clocks = assign_clocks(&trace);
        assert!(clocks[0].concurrent(&clocks[1]));
    }

    #[test]
    fn send_recv_creates_an_edge() {
        let trace = vec![local(0), send(0, 7, 1), recv(1, 7), local(1)];
        let clocks = assign_clocks(&trace);
        // everything at p0 up to the send happens-before everything at p1
        // from the recv on
        assert!(clocks[0].le(&clocks[3]));
        assert!(clocks[1].le(&clocks[2]));
        assert!(!clocks[3].le(&clocks[0]));
    }

    #[test]
    fn transitive_edges_compose() {
        let trace = vec![
            send(0, 1, 1),
            recv(1, 1),
            send(1, 2, 2),
            recv(2, 2),
            local(2),
        ];
        let clocks = assign_clocks(&trace);
        assert!(clocks[0].le(&clocks[4]));
    }

    #[test]
    fn orphan_recv_adds_no_edge() {
        let trace = vec![local(0), recv(1, 99), local(1)];
        let clocks = assign_clocks(&trace);
        assert!(clocks[0].concurrent(&clocks[2]));
    }
}
