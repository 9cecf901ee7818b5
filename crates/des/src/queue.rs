//! A stable, deterministic event queue.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::SimTime;

/// An event together with its activation time and insertion sequence number.
///
/// The sequence number makes the queue *stable*: two events scheduled for the
/// same instant are delivered in the order they were scheduled. Stability is
/// what makes whole simulation runs reproducible from a seed.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotonically increasing insertion counter (unique per queue).
    pub seq: u64,
    /// The payload delivered to the handler.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (then the
        // lowest sequence number) is popped first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The heap priority, packed into a single integer comparison.
///
/// `SimTime` is finite and non-negative by construction, and for such values
/// the IEEE-754 bit pattern orders exactly like the number itself. Packing
/// the time bits above the sequence number therefore gives one `u128` whose
/// natural order is precisely "earliest time first, FIFO within a tie" — and
/// a single integer compare is what every sift step of the heap executes,
/// instead of an f64 compare plus a tie-break branch.
fn pack_key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_f64().to_bits()) << 64) | u128::from(seq)
}

fn unpack_key<E>(key: u128, event: E) -> ScheduledEvent<E> {
    ScheduledEvent {
        time: SimTime::new(f64::from_bits((key >> 64) as u64)),
        seq: key as u64,
        event,
    }
}

/// A time-ordered queue of events with FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use oml_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::new(2.0), "late");
/// q.push(SimTime::new(1.0), "early");
/// q.push(SimTime::new(1.0), "early-second");
///
/// assert_eq!(q.pop().unwrap().event, "early");
/// assert_eq!(q.pop().unwrap().event, "early-second");
/// assert_eq!(q.pop().unwrap().event, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(u128, EventSlot<E>)>>,
    next_seq: u64,
}

/// Wraps the payload so the heap's ordering never looks at it (events need
/// not be comparable, and comparing them would violate stability anyway).
#[derive(Debug, Clone)]
struct EventSlot<E>(E);

impl<E> PartialEq for EventSlot<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<E> Eq for EventSlot<E> {}

impl<E> PartialOrd for EventSlot<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for EventSlot<E> {
    fn cmp(&self, _: &Self) -> Ordering {
        Ordering::Equal
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time` and returns its sequence number.
    pub fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap
            .push(Reverse((pack_key(time, seq), EventSlot(event))));
        seq
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty. Ties are returned in insertion order.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap
            .pop()
            .map(|Reverse((key, slot))| unpack_key(key, slot.0))
    }

    /// Returns the activation time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap
            .peek()
            .map(|Reverse((key, _))| SimTime::new(f64::from_bits((key >> 64) as u64)))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(3.0), 3);
        q.push(SimTime::new(1.0), 1);
        q.push(SimTime::new(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::new(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::new(7.0), ());
        q.push(SimTime::new(4.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::new(4.0)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::new(7.0)));
    }

    #[test]
    fn len_tracks_activity() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn sequence_numbers_are_unique_and_increasing() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::ZERO, ());
        let b = q.push(SimTime::ZERO, ());
        assert!(b > a);
    }
}
