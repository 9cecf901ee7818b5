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
//! state (a `Handler`: a [`crate::Cluster`]'s `NodeWorker`) and the counts
//! of who sleeps on it. The node's own thread pops only while the state is
//! idle in its slot (`ChannelMesh::turn`). Whoever sends to an idle node
//! runs the message (`ChannelMesh::hand`, DESIGN.md §10.1): at once, or
//! after its own step (`ChannelMesh::step`), never inside it.
//!
//! # When a reply wakes its caller
//!
//! What a node thread's step and its claims `answer` is kept until the
//! node's state is back in its slot (the next `turn`), or the thread would
//! sleep on a full inbox, panics or exits: a woken caller finds the node
//! idle instead of queueing behind the thread that woke it. Other threads
//! answer at once: a caller's own chain almost always answers itself.
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
use crossbeam::channel::Sender;
use std::cell::{Cell, RefCell};
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

/// An endpoint's state: whoever holds it runs its messages, one at a time.
pub(crate) trait Handler<M> {
    /// Whether a sender may run this state (a stale incarnation's may not).
    fn is_current(&self) -> bool;
    /// Runs one message.
    fn deliver(&mut self, msg: M);
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
    /// The node's state while nobody runs it (boxed: hand-overs move a pointer).
    state: Option<Box<S>>,
    /// How many messages at the front of `queue` a sender claimed to run
    /// after its step; until then the state in the slot is not the owner's.
    claimed: usize,
    /// Receivers asleep on `ready`.
    parked: usize,
    /// The owner's tick passed while a sender ran the state: it now waits
    /// like a queued message, so senders cannot starve its heartbeats.
    due: bool,
    /// Senders asleep on `room`.
    senders_parked: usize,
}

type Guard<'a, M, S> = MutexGuard<'a, Slots<M, S>>;

impl<M, S> Slots<M, S> {
    /// Whether the state is in its slot for the owner to take.
    fn idle(&self) -> bool {
        self.state.is_some() && self.claimed == 0
    }
}

impl<M, S> Inbox<M, S> {
    fn lock(&self) -> Guard<'_, M, S> {
        // every update leaves `Slots` whole, so a panic elsewhere cannot
        // have left it half-done
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `msg` once there is room — waiting until `by`, or as long as
    /// it takes without a deadline — then wakes a parked receiver if the
    /// state is in for it. `Err` hands `msg` back when `by` passed.
    fn push<'a>(&'a self, mut s: Guard<'a, M, S>, msg: M, by: Option<Instant>) -> Result<(), M> {
        while s.queue.len() >= self.capacity {
            if KEPT.with_borrow(|kept| !kept.0.is_empty()) {
                s = self.wake_kept(s);
                continue;
            }
            let wait = match by.map(|d| d.saturating_duration_since(Instant::now())) {
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
        let wake = s.parked > 0 && s.idle();
        drop(s);
        if wake {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Waits until a message can be popped — one queued while the state is
    /// in its slot — or a due owner's state is back, or `deadline` passes.
    fn until_ready<'a>(&self, mut s: Guard<'a, M, S>, deadline: Instant) -> Guard<'a, M, S> {
        while !s.idle() || (s.queue.is_empty() && !s.due) {
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

    /// Ends a sender's hold on the state, back in its slot, and wakes the
    /// owner if anything queued, or its tick fell due, meanwhile.
    fn release(&self, mut s: Guard<'_, M, S>, state: &mut Option<Box<S>>) {
        if state.is_some() {
            s.state = state.take();
        }
        s.claimed = 0;
        let wake = s.parked > 0 && (s.due || !s.queue.is_empty());
        drop(s);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Puts out the answers this thread kept, with the lock released (it
    /// stays a leaf), and takes it again.
    fn wake_kept<'a>(&'a self, s: Guard<'a, M, S>) -> Guard<'a, M, S> {
        drop(s);
        drop(KEPT.take());
        self.lock()
    }
}

thread_local! {
    /// The address of the mesh this thread runs a step of (0: none), and the
    /// endpoints it claimed meanwhile and has not run, in claim order.
    static STEP: Cell<usize> = const { Cell::new(0) };
    static CLAIMS: RefCell<VecDeque<u32>> = const { RefCell::new(VecDeque::new()) };
    /// Whether this thread runs a [`ChannelMesh::step`], and the answers it
    /// kept since its node's state was last in its slot.
    static OWNER: Cell<bool> = const { Cell::new(false) };
    static KEPT: RefCell<Kept> = const { RefCell::new(Kept(Vec::new())) };
}

/// Answers kept for their callers; dropping them — also at the thread's
/// exit — puts them out, in answer order.
#[derive(Default)]
struct Kept(Vec<Box<dyn FnOnce()>>);

impl Drop for Kept {
    fn drop(&mut self) {
        self.0.drain(..).for_each(|send| send());
    }
}

/// Answers the caller waiting on `reply` with `value`: at once, or, inside
/// a node thread's step, once that thread's state is back in its slot.
/// Either way one `try_send`: a caller past its deadline has dropped its end.
pub(crate) fn answer<T: 'static>(reply: Sender<T>, value: T) {
    let send = move || drop(reply.try_send(value));
    if OWNER.get() {
        KEPT.with_borrow_mut(|kept| kept.0.push(Box::new(send)));
    } else {
        send();
    }
}

/// This thread's step on a mesh, and the state of `at` its runs use. Drop —
/// also after a panic — hands that state and every claim not run back to
/// their owners; a claim's messages never left the front of its queue. A
/// panic out of a node thread's step also puts out the answers it kept.
struct Step<'a, M: Send + 'static, S: Handler<M> + Send + 'static> {
    mesh: &'a ChannelMesh<M, S>,
    at: u32,
    state: Option<Box<S>>,
}

impl<'a, M: Send + 'static, S: Handler<M> + Send + 'static> Step<'a, M, S> {
    fn enter(mesh: &'a ChannelMesh<M, S>, at: u32, state: Option<Box<S>>) -> Self {
        // so no handler is on this thread's stack when one starts
        debug_assert_eq!(STEP.get(), 0, "a step started inside another");
        STEP.set(mesh.addr());
        Step { mesh, at, state }
    }

    /// Runs the claimed messages, claim by claim in claim order; each
    /// claim's state goes back to its slot before the next claim's run.
    fn drain(&mut self) {
        loop {
            if let Some(state) = &mut self.state {
                let inbox = &self.mesh.inboxes[self.at as usize];
                let mut s = inbox.lock();
                if s.claimed > 0 {
                    s.claimed -= 1;
                    if let Some(msg) = inbox.pop(s) {
                        state.deliver(msg);
                    }
                    continue;
                }
                inbox.release(s, &mut self.state);
            }
            let Some(at) = CLAIMS.with_borrow_mut(VecDeque::pop_front) else {
                return;
            };
            let state = self.mesh.inboxes[at as usize].lock().state.take();
            self.state = Some(state.expect("a claimed state waits in its slot"));
            self.at = at;
        }
    }
}

impl<M: Send + 'static, S: Handler<M> + Send + 'static> Drop for Step<'_, M, S> {
    fn drop(&mut self) {
        while let Some(at) = CLAIMS.with_borrow_mut(VecDeque::pop_front) {
            let inbox = &self.mesh.inboxes[at as usize];
            inbox.release(inbox.lock(), &mut None);
        }
        if self.state.is_some() {
            let inbox = &self.mesh.inboxes[self.at as usize];
            inbox.release(inbox.lock(), &mut self.state);
        }
        STEP.set(0);
        if OWNER.replace(false) && std::thread::panicking() {
            drop(KEPT.take());
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
            .for_each(|inbox| inbox.lock().state = Some(Box::new(())));
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
                claimed: 0,
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

    /// This mesh's identity in [`STEP`].
    fn addr(&self) -> usize {
        std::ptr::from_ref(self) as usize
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

    /// The owner's turn at `at`: puts `state` back in its slot and what it
    /// kept ([`answer`]) out, waits up to `tick`, and takes the state out
    /// again with the oldest message, or `None` when `tick` passed with
    /// nothing queued; a sender running the state then wakes it when done.
    pub(crate) fn turn(&self, at: u32, state: Box<S>, tick: Duration) -> (Box<S>, Option<M>) {
        let inbox = &*self.inboxes[at as usize];
        let mut s = inbox.lock();
        debug_assert!(s.state.is_none(), "one state per inbox");
        s.state = Some(state);
        if KEPT.with_borrow(|kept| !kept.0.is_empty()) {
            s = inbox.wake_kept(s);
        }
        s = inbox.until_ready(s, Instant::now() + tick);
        loop {
            let free = s.claimed == 0;
            if let Some(state) = s.state.take_if(|_| free) {
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

impl<M: Send + 'static, S: Send + 'static> ChannelMesh<M, S> {
    /// Runs `f`, a step of a node whose state this thread holds, then what
    /// [`ChannelMesh::hand`] claimed meanwhile, keeping what both [`answer`]
    /// until that state is back in its slot.
    pub(crate) fn step<R>(&self, f: impl FnOnce() -> R) -> R
    where
        S: Handler<M>,
    {
        let mut step = Step::enter(self, 0, None);
        OWNER.set(true);
        let out = f();
        step.drain();
        out
    }

    /// Whether this thread is inside a step of this mesh.
    pub(crate) fn in_step(&self) -> bool {
        STEP.get() == self.addr()
    }

    /// Hands `msg` to endpoint `to`. The acquisition that would queue it
    /// takes an idle, current state if nothing is queued and the owner is
    /// not due, to run `msg` at once — or after the step this thread is in.
    /// A message for an endpoint this thread claimed and has not run joins
    /// the claim if nothing queued there since. Anything else queues, for as
    /// long as the inbox is full if `patient`, else up to the send deadline.
    pub(crate) fn hand(&self, to: u32, msg: M, patient: bool) -> Result<(), TransportError>
    where
        S: Handler<M>,
    {
        let inbox = &*self.inboxes[to as usize];
        let here = STEP.get();
        let in_step = here == self.addr();
        let mine = in_step && CLAIMS.with_borrow(|claims| claims.contains(&to));
        let mut s = inbox.lock();
        if mine && s.claimed == s.queue.len() {
            s.claimed += 1;
            s.queue.push_back(msg);
            return Ok(());
        }
        if (here == 0 || in_step)
            && s.queue.is_empty()
            && !s.due
            && s.state.as_ref().is_some_and(|state| state.is_current())
        {
            if in_step {
                s.claimed = 1;
                s.queue.push_back(msg);
                drop(s);
                CLAIMS.with_borrow_mut(|claims| claims.push_back(to));
            } else {
                let mut step = Step::enter(self, to, s.state.take());
                drop(s);
                if let Some(state) = &mut step.state {
                    state.deliver(msg);
                }
                step.drain();
            }
            return Ok(());
        }
        let deadline =
            (!patient).then(|| Instant::now() + Duration::from_millis(self.cfg.send_deadline_ms));
        inbox
            .push(s, msg, deadline)
            .map_err(|_| TransportError::Backpressure {
                waited_ms: self.cfg.send_deadline_ms,
            })
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
        let msg = if s.idle() { inbox.pop(s) } else { None };
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
    use std::panic::AssertUnwindSafe;
    use std::thread::{self, ThreadId};

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
            thread::yield_now();
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
        thread::scope(|scope| {
            let sender = scope.spawn(|| mesh.send(0, 2));
            until(|| mesh.inboxes[0].lock().senders_parked == 1);
            let _ = mesh.recv_timeout(0, Duration::from_secs(1)).unwrap();
            sender.join().unwrap().unwrap();
        });
        assert_eq!(mesh.queued(0), 1);
        assert_eq!(mesh.inboxes[0].lock().senders_parked, 0);
    }

    /// What the test endpoints ran, in order: each message's label and the
    /// thread that ran it, logged when its run returned.
    type Log = Arc<Mutex<Vec<(&'static str, ThreadId)>>>;

    /// A test message: a label, and what running it does before it logs.
    struct Msg(&'static str, Box<dyn FnOnce(&mut Probe) + Send>);

    fn msg(label: &'static str) -> Msg {
        Msg(label, Box::new(|_| {}))
    }

    /// A test endpoint's state.
    struct Probe {
        log: Log,
        stale: bool,
    }

    impl Handler<Msg> for Probe {
        fn is_current(&self) -> bool {
            !self.stale
        }
        fn deliver(&mut self, Msg(label, run): Msg) {
            run(self);
            self.log
                .lock()
                .unwrap()
                .push((label, thread::current().id()));
        }
    }

    type Probes = ChannelMesh<Msg, Probe>;

    /// `n` endpoints sharing one log, each state in its slot.
    fn probes(n: u32) -> (Arc<Probes>, Log) {
        probes_under(n, MeshConfig::default())
    }

    fn probes_under(n: u32, cfg: MeshConfig) -> (Arc<Probes>, Log) {
        let log = Log::default();
        let mesh = Probes::owned(n, cfg);
        for inbox in &mesh.inboxes {
            inbox.lock().state = Some(Box::new(Probe {
                log: Arc::clone(&log),
                stale: false,
            }));
        }
        (Arc::new(mesh), log)
    }

    fn labels(log: &Log) -> Vec<&'static str> {
        log.lock()
            .unwrap()
            .iter()
            .map(|&(label, _)| label)
            .collect()
    }

    /// Endpoint `at`'s owner runs what is queued there, each message in a
    /// step of its own, and puts the state back.
    fn run_queued(mesh: &Probes, at: u32) {
        let mut state = mesh.inboxes[at as usize].lock().state.take().unwrap();
        while mesh.queued(at) > 0 {
            let (next, queued) = mesh.turn(at, state, Duration::ZERO);
            state = next;
            mesh.step(|| state.deliver(queued.unwrap()));
        }
        let inbox = &mesh.inboxes[at as usize];
        inbox.release(inbox.lock(), &mut Some(state));
    }

    /// A sender runs its message itself only on an idle state and with the
    /// lock released (the run below sends again from inside); one that finds
    /// the state out queues, and the owner pops it only once the state is
    /// back.
    #[test]
    fn a_sender_runs_on_an_idle_state_and_queues_behind_a_busy_one() {
        let (mesh, log) = probes(1);
        let mut state = mesh.inboxes[0].lock().state.take().unwrap();
        let owner = thread::scope(|scope| {
            let owner = scope.spawn(|| loop {
                let (next, queued) = mesh.turn(0, state, Duration::from_mins(1));
                state = next;
                if let Some(queued) = queued {
                    let last = queued.0 == "3";
                    mesh.step(|| state.deliver(queued));
                    if last {
                        return thread::current().id();
                    }
                }
            });
            until(|| {
                let s = mesh.inboxes[0].lock();
                s.parked == 1 && s.state.is_some()
            });
            let m = Arc::clone(&mesh);
            let send_2 = move |_: &mut Probe| {
                m.hand(0, msg("2"), true).unwrap();
                assert_eq!(m.queued(0), 1, "the state is out: 2 queues");
            };
            mesh.hand(0, Msg("1", Box::new(send_2)), true).unwrap();
            mesh.sender(0)(msg("3"));
            owner.join().unwrap()
        });
        let me = thread::current().id();
        assert_eq!(
            *log.lock().unwrap(),
            [("1", me), ("2", owner), ("3", owner)]
        );
    }

    /// A state that is not current (a stale incarnation's) is never run by
    /// a sender: the message queues for the owner.
    #[test]
    fn a_stale_state_is_left_to_its_owner() {
        let (mesh, log) = probes(1);
        mesh.inboxes[0].lock().state.as_mut().unwrap().stale = true;
        mesh.hand(0, msg("1"), true).unwrap();
        assert_eq!(mesh.queued(0), 1);
        assert!(log.lock().unwrap().is_empty());
    }

    /// An owner whose tick passes while a sender runs its state marks itself
    /// due and waits; the sender putting the state back hands it over.
    #[test]
    fn a_due_owner_gets_its_state_back_from_the_sender() {
        let (mesh, log) = probes(1);
        let mut state = mesh.inboxes[0].lock().state.take().unwrap();
        thread::scope(|scope| {
            // runs nothing it pops; a stale state stops it
            let owner = scope.spawn(|| {
                while !state.stale {
                    state = mesh.turn(0, state, Duration::from_millis(1)).0;
                }
            });
            // the owner ticks every millisecond: retry until a send finds
            // its state idle in the slot (a miss only queues a message)
            while log.lock().unwrap().is_empty() {
                let m = Arc::clone(&mesh);
                let stop = move |state: &mut Probe| {
                    until(|| m.inboxes[0].lock().due);
                    state.stale = true;
                };
                mesh.hand(0, Msg("stop", Box::new(stop)), true).unwrap();
            }
            owner.join().unwrap();
            assert!(!mesh.inboxes[0].lock().due);
        });
    }

    /// What one step sends to an idle endpoint runs on the sender's thread
    /// after that step returned, in send order: the first message claims
    /// the state, the second joins the claim, and nothing queues.
    #[test]
    fn what_a_step_sends_to_an_idle_endpoint_runs_after_it_in_send_order() {
        let (mesh, log) = probes(2);
        let m = Arc::clone(&mesh);
        let send = move |_: &mut Probe| {
            m.hand(1, msg("a"), false).unwrap();
            m.hand(1, msg("b"), false).unwrap();
            assert_eq!(m.inboxes[1].lock().claimed, 2, "b joined a's claim");
        };
        mesh.hand(0, Msg("step", Box::new(send)), true).unwrap();
        let me = thread::current().id();
        assert_eq!(*log.lock().unwrap(), [("step", me), ("a", me), ("b", me)]);
        assert!(mesh
            .inboxes
            .iter()
            .all(|inbox| inbox.lock().state.is_some()));
    }

    /// Once another thread queued at an endpoint this step claimed, what
    /// the step sends there next queues behind that message instead of
    /// joining the claim, and both are left to the owner.
    #[test]
    fn a_message_never_joins_a_claim_behind_a_queued_one() {
        let (mesh, log) = probes(2);
        let m = Arc::clone(&mesh);
        let send = move |_: &mut Probe| {
            m.hand(1, msg("claimed"), false).unwrap();
            thread::scope(|scope| drop(scope.spawn(|| m.hand(1, msg("queued"), true).unwrap())));
            m.hand(1, msg("after"), false).unwrap();
        };
        mesh.hand(0, Msg("step", Box::new(send)), true).unwrap();
        assert_eq!(mesh.queued(1), 2);
        run_queued(&mesh, 1);
        assert_eq!(labels(&log), ["step", "claimed", "queued", "after"]);
    }

    /// A run that claims endpoint 1 and then panics unwinds into the thread
    /// that started the step: both states are back in their slots, the
    /// claimed messages are back at the front of endpoint 1's queue in
    /// order, and the thread starts steps again.
    #[test]
    fn a_panicking_run_loses_no_state_and_no_message() {
        let (mesh, log) = probes(2);
        let m = Arc::clone(&mesh);
        let send = move |_: &mut Probe| {
            m.hand(1, msg("claimed"), false).unwrap();
            m.hand(1, msg("joined"), false).unwrap();
            thread::scope(|scope| drop(scope.spawn(|| m.hand(1, msg("queued"), true).unwrap())));
            panic!("a handler failed");
        };
        let run = AssertUnwindSafe(|| mesh.hand(0, Msg("step", Box::new(send)), true));
        assert!(std::panic::catch_unwind(run).is_err());
        assert!(mesh
            .inboxes
            .iter()
            .all(|inbox| inbox.lock().state.is_some()));
        assert!(CLAIMS.with_borrow(VecDeque::is_empty));
        mesh.hand(0, msg("again"), true).unwrap();
        run_queued(&mesh, 1);
        assert_eq!(labels(&log), ["again", "claimed", "joined", "queued"]);
    }

    /// Endpoint `at`'s owner, run the way a node's own thread runs it: it
    /// takes its state, turns and steps until it pops `stop`, and leaves
    /// the state in its slot.
    fn own(mesh: &Probes, at: u32) {
        let inbox = &mesh.inboxes[at as usize];
        let mut state = inbox.lock().state.take().unwrap();
        loop {
            let (next, queued) = mesh.turn(at, state, Duration::from_mins(1));
            state = next;
            match queued {
                Some(Msg("stop", _)) => break,
                Some(queued) => mesh.step(|| state.deliver(queued)),
                None => {}
            }
        }
        inbox.release(inbox.lock(), &mut Some(state));
    }

    /// Per woken caller: the endpoint that answered it, and whether that
    /// endpoint's state was in its slot when it woke.
    type Woken = Arc<Mutex<Vec<(u32, bool)>>>;

    /// A caller parked on an answer from endpoint `at`, reporting in `woken`
    /// once it wakes.
    fn caller<'scope, 'env>(
        scope: &'scope thread::Scope<'scope, 'env>,
        mesh: &'env Probes,
        at: u32,
        woken: &'env Woken,
    ) -> Sender<()> {
        let (reply, answered) = crossbeam::channel::bounded(1);
        scope.spawn(move || {
            answered.recv_timeout(Duration::from_secs(10)).unwrap();
            let idle = mesh.inboxes[at as usize].lock().idle();
            woken.lock().unwrap().push((at, idle));
        });
        reply
    }

    /// A run that answers `reply`, then gives its caller 200 ms to report in
    /// `woken` — time enough if the answer woke it inside the run.
    fn answer_and_wait(reply: Sender<()>, woken: &Woken) -> Box<dyn FnOnce(&mut Probe) + Send> {
        let woken = Arc::clone(woken);
        Box::new(move |_| {
            let reports = woken.lock().unwrap().len();
            answer(reply, ());
            let deadline = Instant::now() + Duration::from_millis(200);
            while woken.lock().unwrap().len() == reports && Instant::now() < deadline {
                thread::yield_now();
            }
        })
    }

    /// A node's own thread answers one caller in its step and another in a
    /// claim that step made; each caller, once woken, finds the endpoint
    /// that answered it idle in its slot — not out with the thread that
    /// woke it, which it would then have to queue behind.
    #[test]
    fn a_woken_caller_finds_the_node_back_in_its_slot() {
        let (mesh, log) = probes(2);
        let woken = Woken::default();
        let woken_by_turns = thread::scope(|scope| {
            let node = scope.spawn(|| own(&mesh, 0));
            let first = answer_and_wait(caller(scope, &mesh, 0, &woken), &woken);
            let claimed = answer_and_wait(caller(scope, &mesh, 1, &woken), &woken);
            let m = Arc::clone(&mesh);
            let run = move |probe: &mut Probe| {
                first(probe);
                m.hand(1, Msg("claimed", claimed), false).unwrap();
            };
            mesh.sender(0)(Msg("answer", Box::new(run)));
            let deadline = Instant::now() + Duration::from_secs(5);
            while woken.lock().unwrap().len() < 2 && Instant::now() < deadline {
                thread::yield_now();
            }
            let woken_by_turns = woken.lock().unwrap().len();
            mesh.sender(0)(msg("stop"));
            node.join().unwrap();
            woken_by_turns
        });
        assert_eq!(woken_by_turns, 2, "not woken before the owner stopped");
        assert_eq!(labels(&log), ["answer", "claimed"]);
        let mut woken = woken.lock().unwrap().clone();
        woken.sort_unstable();
        assert_eq!(
            woken,
            [(0, true), (1, true)],
            "woken while its node was out"
        );
    }

    /// A chain on a node's own thread that answers a parked caller and then
    /// panics still wakes that caller with its answer — not a timeout, not
    /// a disconnect — and loses no state: its claim goes back to its owner.
    #[test]
    fn a_panicking_chain_still_wakes_whom_it_answered() {
        let (mesh, log) = probes(2);
        let (reply, answered) = crossbeam::channel::bounded(1);
        let m = Arc::clone(&mesh);
        let run = move |_: &mut Probe| {
            answer(reply, ());
            m.hand(1, msg("claimed"), false).unwrap();
            panic!("a handler failed");
        };
        mesh.sender(0)(Msg("step", Box::new(run)));
        thread::scope(|scope| {
            let caller = scope.spawn(|| answered.recv_timeout(Duration::from_secs(1)));
            let inbox = &mesh.inboxes[0];
            let state = inbox.lock().state.take().unwrap();
            let (mut state, queued) = mesh.turn(0, state, Duration::ZERO);
            let step = AssertUnwindSafe(|| mesh.step(|| state.deliver(queued.unwrap())));
            assert!(std::panic::catch_unwind(step).is_err());
            assert_eq!(caller.join().unwrap(), Ok(()));
            inbox.release(inbox.lock(), &mut Some(state));
        });
        assert!(mesh
            .inboxes
            .iter()
            .all(|inbox| inbox.lock().state.is_some()));
        assert!(CLAIMS.with_borrow(VecDeque::is_empty));
        run_queued(&mesh, 1);
        assert_eq!(labels(&log), ["claimed"]);
    }

    /// A node's own thread that kept an answer wakes its caller before it
    /// sleeps on a full inbox: the caller has its answer while the send is
    /// still blocked, since only the caller's pop makes room for it.
    #[test]
    fn an_owner_wakes_whom_it_answered_before_it_sleeps_on_a_full_inbox() {
        let cfg = MeshConfig {
            capacity: 1,
            send_deadline_ms: 60_000,
        };
        let (mesh, log) = probes_under(2, cfg);
        // endpoint 1's state is out and its one place taken
        let state_1 = mesh.inboxes[1].lock().state.take();
        mesh.sender(1)(msg("first"));
        let (reply, answered) = crossbeam::channel::bounded(1);
        let m = Arc::clone(&mesh);
        let run = move |_: &mut Probe| {
            answer(reply, ());
            m.hand(1, msg("second"), false).unwrap();
        };
        mesh.sender(0)(Msg("step", Box::new(run)));
        thread::scope(|scope| {
            let caller = scope.spawn(|| {
                let answer = answered.recv_timeout(Duration::from_secs(2));
                (answer, mesh.try_pop(1).map(|Msg(label, _)| label))
            });
            let inbox = &mesh.inboxes[0];
            let state = inbox.lock().state.take().unwrap();
            let (mut state, queued) = mesh.turn(0, state, Duration::ZERO);
            mesh.step(|| state.deliver(queued.unwrap()));
            inbox.release(inbox.lock(), &mut Some(state));
            assert_eq!(caller.join().unwrap(), (Ok(()), Some("first")));
        });
        mesh.inboxes[1].lock().state = state_1;
        run_queued(&mesh, 1);
        assert_eq!(labels(&log), ["step", "second"]);
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
