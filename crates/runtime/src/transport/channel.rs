//! The in-process transport: a mesh of **bounded** per-node inboxes.
//!
//! This is the wire the [`crate::Cluster`] runs on, behind [`Transport`].
//! Messages pass by ownership, so this transport carries the full in-memory
//! envelope type and the fault injector keeps operating on envelopes, not
//! bytes. The mesh, not a node's thread, holds each queue, so queued
//! messages survive a worker crash and restart.
//!
//! # Who runs a delivery
//!
//! Each inbox is one mutex over the node's FIFO queue, a slot for the node's
//! state (a [`crate::Cluster`]'s `NodeWorker`) and the counts of who sleeps
//! on it. The node's own thread drains the queue (`ChannelMesh::turn`),
//! never popping while the state is out of its slot; a sender that finds
//! the queue empty and the state idle runs its message itself, with the
//! lock released (`ChannelMesh::send_or_run`, DESIGN.md §10.1).
//!
//! # Backpressure policy (documented per path)
//!
//! * **Node inboxes** (this mesh): bounded at [`MeshConfig::capacity`].
//!   Senders *block* up to [`MeshConfig::send_deadline_ms`], then fail
//!   with [`TransportError::Backpressure`]; a blocked sender sleeps until
//!   the pop that makes room wakes it. Blocking (rather than
//!   dropping) preserves the delivery guarantees the protocol tests pin;
//!   the deadline keeps a wedged worker from propagating an unbounded
//!   stall. The capacity default (4096) is ~70× the deepest queue any
//!   chaos schedule in the suite produces.
//! * **Reply channels** (created per call in `cluster.rs`): stay
//!   `bounded(1)` + `try_send` fail-fast — a reply past its caller's
//!   deadline is dropped, never blocks a worker (PR 4 decision, unchanged).
//! * **Deadline-free sends** (the crash command, the shutdown broadcast,
//!   the fault injector's delayed-delivery threads, client calls): block
//!   until there is room; a full inbox delays the delivery further, which
//!   is indistinguishable from more network delay.

use super::{LinkHealth, Transport, TransportError, TransportEvent};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Sender identity reported by mesh deliveries: the mesh does not
/// authenticate senders (they share an address space); identity travels
/// inside the envelope.
pub(crate) const MESH_ANON: u32 = u32::MAX;

/// How long a deadline-free sender, or an owner waiting for its state, sleeps
/// before looking again: only a wake-up that went missing costs this.
const PARK: Duration = Duration::from_millis(100);

/// Tuning for a [`ChannelMesh`].
#[derive(Debug, Clone, Copy)]
pub struct MeshConfig {
    /// Per-node inbox capacity (messages).
    pub capacity: usize,
    /// How long a sender may block on a full inbox before
    /// [`TransportError::Backpressure`].
    pub send_deadline_ms: u64,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            capacity: 4096,
            send_deadline_ms: 2_000,
        }
    }
}

/// A full mesh of bounded in-process inboxes: any holder may send to any
/// endpoint. `S` is the state each endpoint's owner runs its messages on;
/// in a mesh built by [`ChannelMesh::new`] every slot holds `()` for good,
/// so its endpoints simply queue and pop.
#[derive(Debug)]
pub struct ChannelMesh<M, S = ()> {
    inboxes: Vec<Arc<Inbox<M, S>>>,
    cfg: MeshConfig,
    closed: AtomicBool,
}

/// One endpoint: queue or run, pop or wait, wake or not — each decided in
/// one acquisition of its mutex.
#[derive(Debug)]
struct Inbox<M, S> {
    slots: Mutex<Slots<M, S>>,
    /// Something to pop, or the state back for a due owner.
    ready: Condvar,
    /// Room in the queue.
    room: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct Slots<M, S> {
    queue: VecDeque<M>,
    /// The node's state while nobody runs it.
    state: Option<S>,
    /// Receivers asleep on `ready`.
    parked: usize,
    /// The owner's tick passed while a sender ran the state: it now waits
    /// like a queued message, so senders cannot starve its heartbeats.
    due: bool,
    /// Senders asleep on `room`.
    senders_parked: usize,
}

type Guard<'a, M, S> = MutexGuard<'a, Slots<M, S>>;

impl<M, S> Inbox<M, S> {
    fn lock(&self) -> Guard<'_, M, S> {
        // every update leaves `Slots` whole, so a panic elsewhere cannot
        // have left it half-done
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `msg` once there is room — waiting until `deadline`, or as
    /// long as it takes without one — then wakes a parked receiver if the
    /// state is in for it. `Err` hands `msg` back when the deadline passed.
    fn push(&self, mut s: Guard<'_, M, S>, msg: M, deadline: Option<Instant>) -> Result<(), M> {
        while s.queue.len() >= self.capacity {
            let wait = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => PARK,
                Some(left) if !left.is_zero() => left,
                Some(_) => return Err(msg),
            };
            s.senders_parked += 1;
            s = self
                .room
                .wait_timeout(s, wait)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            s.senders_parked -= 1;
        }
        s.queue.push_back(msg);
        let wake = s.parked > 0 && s.state.is_some();
        drop(s);
        if wake {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Waits until a message can be popped — one queued while the state is
    /// in its slot — or a due owner's state is back, or `deadline` passes.
    fn until_ready<'a>(&self, mut s: Guard<'a, M, S>, deadline: Instant) -> Guard<'a, M, S> {
        while s.state.is_none() || (s.queue.is_empty() && !s.due) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            s.parked += 1;
            s = self
                .ready
                .wait_timeout(s, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            s.parked -= 1;
        }
        s
    }

    /// Pops the oldest message, releases the lock and wakes a sender the pop
    /// made room for.
    fn pop(&self, mut s: Guard<'_, M, S>) -> Option<M> {
        let msg = s.queue.pop_front();
        let wake = s.senders_parked > 0;
        drop(s);
        if wake {
            self.room.notify_one();
        }
        msg
    }
}

/// A state a sender took out of its slot: it goes back on drop, also when
/// the run panicked, so the owner is never left waiting for it. Putting it
/// back wakes the owner if anything queued, or its tick fell due, meanwhile.
struct Claim<'a, M, S> {
    inbox: &'a Inbox<M, S>,
    state: Option<S>,
}

impl<M, S> Drop for Claim<'_, M, S> {
    fn drop(&mut self) {
        let mut s = self.inbox.lock();
        s.state = self.state.take();
        let wake = s.parked > 0 && (s.due || !s.queue.is_empty());
        drop(s);
        if wake {
            self.inbox.ready.notify_one();
        }
    }
}

impl<M: Send> ChannelMesh<M> {
    /// A mesh of `n` endpoints under `cfg`.
    #[must_use]
    pub fn new(n: u32, cfg: MeshConfig) -> Self {
        let mesh = Self::owned(n, cfg);
        mesh.inboxes
            .iter()
            .for_each(|inbox| inbox.lock().state = Some(()));
        mesh
    }
}

impl<M: Send, S: Send> ChannelMesh<M, S> {
    /// A mesh whose slots start empty: an endpoint pops nothing before its
    /// owner's first `turn` puts the state in.
    pub(crate) fn owned(n: u32, cfg: MeshConfig) -> Self {
        let inbox = || Inbox {
            slots: Mutex::new(Slots {
                queue: VecDeque::new(),
                state: None,
                parked: 0,
                due: false,
                senders_parked: 0,
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
            capacity: cfg.capacity.max(1),
        };
        ChannelMesh {
            inboxes: (0..n).map(|_| Arc::new(inbox())).collect(),
            cfg,
            closed: AtomicBool::new(false),
        }
    }

    /// A deadline-free send towards `to` that outlives the caller's borrow
    /// of the mesh (the crash and shutdown sentinels, delayed deliveries).
    pub(crate) fn sender(&self, to: u32) -> impl Fn(M) + Send + 'static
    where
        M: 'static,
        S: 'static,
    {
        let inbox = Arc::clone(&self.inboxes[to as usize]);
        move |msg| {
            let _ = inbox.push(inbox.lock(), msg, None);
        }
    }

    /// Hands `msg` to endpoint `to`: runs `run(state, msg)` on this thread,
    /// with the lock released, if the acquisition that would queue `msg`
    /// finds nothing queued, the owner not due, and the state in its slot
    /// and passing `current`; queues `msg` otherwise, blocking while the
    /// inbox is full.
    pub(crate) fn send_or_run(
        &self,
        to: u32,
        msg: M,
        current: impl FnOnce(&S) -> bool,
        run: impl FnOnce(&mut S, M),
    ) {
        let inbox = &*self.inboxes[to as usize];
        let mut s = inbox.lock();
        if !s.queue.is_empty() || s.due || !s.state.as_ref().is_some_and(current) {
            let _ = inbox.push(s, msg, None);
            return;
        }
        let mut claim = Claim {
            inbox,
            state: s.state.take(),
        };
        drop(s);
        if let Some(state) = &mut claim.state {
            run(state, msg);
        }
    }

    /// The owner's turn at `at`: puts `state` back in its slot, waits up to
    /// `tick`, and takes the state out again with the oldest message, or
    /// with `None` when `tick` passed with nothing queued. A sender running
    /// the state at that moment wakes the owner when it puts it back.
    pub(crate) fn turn(&self, at: u32, state: S, tick: Duration) -> (S, Option<M>) {
        let inbox = &*self.inboxes[at as usize];
        let mut s = inbox.lock();
        debug_assert!(s.state.is_none(), "one state per inbox");
        s.state = Some(state);
        s = inbox.until_ready(s, Instant::now() + tick);
        loop {
            if let Some(state) = s.state.take() {
                s.due = false;
                return (state, inbox.pop(s));
            }
            s.due = true;
            s = inbox.until_ready(s, Instant::now() + PARK);
        }
    }

    /// The owner's pop while it holds the state (its shutdown drain).
    pub(crate) fn try_pop(&self, at: u32) -> Option<M> {
        let inbox = &*self.inboxes[at as usize];
        inbox.pop(inbox.lock())
    }

    /// Messages currently queued at endpoint `at` (diagnostics).
    #[must_use]
    pub fn queued(&self, at: u32) -> usize {
        self.inboxes[at as usize].lock().queue.len()
    }
}

impl<M: Send, S: Send> Transport<M> for ChannelMesh<M, S> {
    fn peers(&self) -> u32 {
        self.inboxes.len() as u32
    }

    fn send(&self, to: u32, msg: M) -> Result<(), TransportError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(TransportError::Closed);
        }
        let Some(inbox) = self.inboxes.get(to as usize) else {
            return Err(TransportError::Down { peer: to });
        };
        let deadline = Instant::now() + Duration::from_millis(self.cfg.send_deadline_ms);
        inbox
            .push(inbox.lock(), msg, Some(deadline))
            .map_err(|_| TransportError::Backpressure {
                waited_ms: self.cfg.send_deadline_ms,
            })
    }

    /// Pops the oldest message at `at` while the state is in its slot.
    fn recv_timeout(
        &self,
        at: u32,
        timeout: Duration,
    ) -> Result<TransportEvent<M>, TransportError> {
        let Some(inbox) = self.inboxes.get(at as usize) else {
            return Err(TransportError::Closed);
        };
        let s = inbox.until_ready(inbox.lock(), Instant::now() + timeout);
        let msg = if s.state.is_some() {
            inbox.pop(s)
        } else {
            None
        };
        match msg {
            Some(msg) => Ok(TransportEvent::Delivery {
                from: MESH_ANON,
                epoch: 0,
                msg,
            }),
            None if self.closed.load(Ordering::Acquire) => Err(TransportError::Closed),
            None => Err(TransportError::Timeout {
                waited_ms: timeout.as_millis() as u64,
            }),
        }
    }

    fn link_health(&self, to: u32) -> LinkHealth {
        if self.closed.load(Ordering::Acquire) || to as usize >= self.inboxes.len() {
            LinkHealth::Down
        } else {
            LinkHealth::Up
        }
    }

    fn shutdown(&self) {
        self.closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_between_endpoints() {
        let mesh: ChannelMesh<u64> = ChannelMesh::new(2, MeshConfig::default());
        mesh.send(1, 77).unwrap();
        match mesh.recv_timeout(1, Duration::from_millis(100)).unwrap() {
            TransportEvent::Delivery { from, epoch, msg } => {
                assert_eq!((from, epoch, msg), (MESH_ANON, 0, 77));
            }
            other => panic!("unexpected event: {other:?}"),
        }
    }

    #[test]
    fn full_inbox_fails_with_backpressure_not_forever() {
        let mesh: ChannelMesh<u64> = ChannelMesh::new(
            1,
            MeshConfig {
                capacity: 2,
                send_deadline_ms: 30,
            },
        );
        mesh.send(0, 1).unwrap();
        mesh.send(0, 2).unwrap();
        let start = Instant::now();
        let err = mesh.send(0, 3).unwrap_err();
        assert!(matches!(err, TransportError::Backpressure { .. }), "{err}");
        assert!(start.elapsed() < Duration::from_secs(2));
        // draining frees capacity again
        let _ = mesh.recv_timeout(0, Duration::from_millis(50)).unwrap();
        mesh.send(0, 3).unwrap();
    }

    #[test]
    fn recv_times_out_and_close_is_observed() {
        let mesh: ChannelMesh<u64> = ChannelMesh::new(1, MeshConfig::default());
        let err = mesh.recv_timeout(0, Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout { .. }));
        mesh.shutdown();
        assert!(matches!(mesh.send(0, 9), Err(TransportError::Closed)));
        assert_eq!(mesh.link_health(0), LinkHealth::Down);
    }

    /// Spins until `ready`; a hang is a failure, not a wait.
    fn until(ready: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready() {
            assert!(Instant::now() < deadline, "never happened");
            std::thread::yield_now();
        }
    }

    /// A sender blocked on a full inbox sleeps on a condvar until the pop
    /// that makes room, not in a poll.
    #[test]
    fn a_blocked_sender_is_woken_by_the_pop_that_makes_room() {
        let cfg = MeshConfig {
            capacity: 1,
            send_deadline_ms: 60_000,
        };
        let mesh: ChannelMesh<u64> = ChannelMesh::new(1, cfg);
        mesh.send(0, 1).unwrap();
        std::thread::scope(|scope| {
            let sender = scope.spawn(|| mesh.send(0, 2));
            until(|| mesh.inboxes[0].lock().senders_parked == 1);
            let _ = mesh.recv_timeout(0, Duration::from_secs(1)).unwrap();
            sender.join().unwrap().unwrap();
        });
        assert_eq!(mesh.queued(0), 1);
        assert_eq!(mesh.inboxes[0].lock().senders_parked, 0);
    }

    /// A sender runs its message itself only on an idle state and with the
    /// lock released (the run below sends again from inside); one that finds
    /// the state out, or not current, queues, and the owner pops it only
    /// once the state is back.
    #[test]
    fn a_sender_runs_on_an_idle_state_and_queues_behind_a_busy_one() {
        // the state is a log of (message, ran on the sender's thread)
        let mesh: ChannelMesh<u32, Vec<(u32, bool)>> = ChannelMesh::owned(1, MeshConfig::default());
        let log = std::thread::scope(|scope| {
            let owner = scope.spawn(|| {
                let mut log = Vec::new();
                loop {
                    let (mut state, msg) = mesh.turn(0, log, Duration::from_mins(1));
                    match msg {
                        Some(0) => return state,
                        Some(m) => state.push((m, false)),
                        None => {}
                    }
                    log = state;
                }
            });
            until(|| {
                let s = mesh.inboxes[0].lock();
                s.parked == 1 && s.state.is_some()
            });
            mesh.send_or_run(
                0,
                1,
                |_| true,
                |log, m| {
                    mesh.send_or_run(0, 2, |_| true, |log, m| log.push((m, true)));
                    assert_eq!(mesh.queued(0), 1, "the state is out: 2 queues");
                    log.push((m, true));
                },
            );
            mesh.send_or_run(0, 3, |_| false, |log, m| log.push((m, true)));
            mesh.sender(0)(0);
            owner.join().unwrap()
        });
        assert_eq!(log, [(1, true), (2, false), (3, false)]);
    }

    /// An owner whose tick passes while a sender runs its state marks itself
    /// due and waits; the sender putting the state back hands it over.
    #[test]
    fn a_due_owner_gets_its_state_back_from_the_sender() {
        let mesh: ChannelMesh<u32, u32> = ChannelMesh::owned(1, MeshConfig::default());
        std::thread::scope(|scope| {
            let owner = scope.spawn(|| {
                let mut state = 7;
                while state != 8 {
                    state = mesh.turn(0, state, Duration::from_millis(1)).0;
                }
            });
            // the owner ticks every millisecond: retry until a send finds
            // its state idle in the slot (a miss only queues a message)
            let mut ran = false;
            while !ran {
                mesh.send_or_run(
                    0,
                    1,
                    |_| true,
                    |state, _| {
                        until(|| mesh.inboxes[0].lock().due);
                        *state = 8;
                        ran = true;
                    },
                );
            }
            owner.join().unwrap();
            assert!(!mesh.inboxes[0].lock().due);
        });
    }

    #[test]
    fn out_of_range_peer_is_down() {
        let mesh: ChannelMesh<u64> = ChannelMesh::new(1, MeshConfig::default());
        assert!(matches!(
            mesh.send(5, 0),
            Err(TransportError::Down { peer: 5 })
        ));
        assert_eq!(mesh.link_health(0), LinkHealth::Up);
    }
}
