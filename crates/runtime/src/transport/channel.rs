//! The in-process transport: a mesh of **unbounded** per-node inboxes.
//!
//! This is the wire the [`crate::Cluster`] runs on, behind [`Transport`].
//! Messages pass by ownership, so this transport carries the full in-memory
//! envelope type and the fault injector keeps operating on envelopes, not
//! bytes. The mesh holds each queue, so queued messages survive a crash and
//! restart of their node.
//!
//! # Who runs a delivery
//!
//! Each inbox is one mutex over the node's FIFO queue, a slot for the node's
//! state (a `Handler`: a [`crate::Cluster`]'s `NodeWorker`) and the counts
//! of who sleeps on it. No thread belongs to a node. Whoever sends to an
//! idle node runs the message (`ChannelMesh::hand`, DESIGN.md §10.1): at
//! once, or after its own step, never inside it. A message that finds the
//! state out queues, and the thread that holds the state runs it before it
//! puts the state back: the releaser drains. Whoever serves a cluster's
//! timer heap (`serving_heap`) runs each node's tick (`ChannelMesh::tick`),
//! and what queued behind a state no sender may run.
//!
//! # When a reply wakes its caller
//!
//! What a thread answers (`answer`) once it runs a message that queued, or
//! anything from the timer heap, is kept until the thread holds no node's
//! state, or panics: a woken caller finds the node idle in its slot instead
//! of queueing behind the thread that woke it. A sender's own run answers
//! at once: a caller's own chain almost always answers itself.
//!
//! # No sender waits
//!
//! * **Node inboxes** (this mesh) are unbounded FIFOs: a send appends and
//!   wakes a parked receiver, and never sleeps. A bound could only stall or
//!   drop traffic the protocol promises to deliver: state transfer is never
//!   lost (`fault.rs`), yet an `Install` that waited for room at a crashed
//!   node would have to give up its closure, and whoever could make room (a
//!   restart, the node's next tick, the sender's own caller) may be the
//!   thread that would sleep. Real traffic stays shallow: the deepest inbox
//!   measured over the integration tests, `repro check` and the
//!   benchmark's mesh workloads is 14 messages. Only the socket transport,
//!   whose peer can stop reading, bounds its queues.
//! * **Reply slots** (`call`, one per call in `cluster.rs`): hold one
//!   answer and never block whoever answers — an answer past its caller's
//!   deadline is dropped. The calling thread reuses its slot from call to
//!   call, and each call has a number of its own, so a late answer to an
//!   abandoned call never satisfies the next one.

use super::{Transport, TransportError, TransportEvent};
use crossbeam::channel::RecvTimeoutError;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Sender identity reported by mesh deliveries: the mesh does not
/// authenticate senders (they share an address space); identity travels
/// inside the envelope.
pub(crate) const MESH_ANON: u32 = u32::MAX;

/// How long a thread waiting to take a state sleeps before looking again:
/// only a wake-up that went missing costs this.
const PARK: Duration = Duration::from_millis(100);

/// Tuning for a [`ChannelMesh`]: nothing is tuned, since an inbox has no
/// bound; the type stays while the benchmark names it.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeshConfig {}

/// An endpoint's state: whoever holds it runs its messages, one at a time.
pub(crate) trait Handler<M> {
    /// Whether a sender may run this state (a stale incarnation's may not).
    fn is_current(&self) -> bool;
    /// Whether this state may never run again (a fenced stale
    /// incarnation's): whoever finds it drops it.
    fn is_fenced(&self) -> bool;
    /// Runs one message.
    fn deliver(&mut self, msg: M);
    /// Runs the endpoint's periodic maintenance.
    fn tick(&mut self);
}

/// A full mesh of unbounded in-process inboxes: any holder may send to any
/// endpoint. `S` is the state each endpoint's messages run on; in a mesh
/// built by [`ChannelMesh::new`] every slot holds `()` for good, so its
/// endpoints simply queue and pop.
#[derive(Debug)]
pub struct ChannelMesh<M, S = ()> {
    inboxes: Vec<Inbox<M, S>>,
    closed: AtomicBool,
}

/// One endpoint: queue or run, take or wait, wake or not — each decided in
/// one acquisition of its mutex.
#[derive(Debug)]
struct Inbox<M, S> {
    slots: Mutex<Slots<M, S>>,
    /// Something to pop, or the state back for a thread waiting to take it.
    ready: Condvar,
}

#[derive(Debug)]
struct Slots<M, S> {
    queue: VecDeque<M>,
    /// The node's state while nobody runs it (boxed: hand-overs move a pointer).
    state: Option<Box<S>>,
    /// A thread took the state out; it runs what queues meanwhile before it
    /// puts the state back.
    out: bool,
    /// How many messages at the front of `queue` a sender claimed to run
    /// after its step; until then the state in the slot is the claimer's.
    claimed: usize,
    /// Threads asleep on `ready`.
    parked: usize,
    /// A tick fell due while the state was out or claimed: whoever puts the
    /// state back runs it.
    due: bool,
}

type Guard<'a, M, S> = MutexGuard<'a, Slots<M, S>>;

impl<M, S> Slots<M, S> {
    /// Whether the state is in its slot, free for any thread to take.
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

    /// Queues `msg`, then wakes a parked receiver.
    fn push(&self, mut s: Guard<'_, M, S>, msg: M) {
        s.queue.push_back(msg);
        let wake = s.parked > 0;
        drop(s);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Sleeps on `ready` for up to `wait`.
    fn sleep<'a>(&self, mut s: Guard<'a, M, S>, wait: Duration) -> Guard<'a, M, S> {
        s.parked += 1;
        s = self
            .ready
            .wait_timeout(s, wait)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        s.parked -= 1;
        s
    }

    /// Ends a hold on the state and any claim on it: puts `state` back in
    /// its slot — a fenced one is dropped instead — and wakes whoever waits
    /// to take it.
    fn release(&self, mut s: Guard<'_, M, S>, state: &mut Option<Box<S>>)
    where
        S: Handler<M>,
    {
        let fenced = state.take_if(|state| state.is_fenced());
        s.state = state.take().or_else(|| s.state.take());
        s.out = false;
        s.claimed = 0;
        let wake = s.parked > 0;
        drop(s);
        if wake {
            self.ready.notify_all();
        }
        drop(fenced);
    }
}

thread_local! {
    /// The address of the mesh this thread runs a step of (0: none), and the
    /// endpoints it claimed meanwhile and has not run, in claim order.
    static STEP: Cell<usize> = const { Cell::new(0) };
    static CLAIMS: RefCell<VecDeque<u32>> = const { RefCell::new(VecDeque::new()) };
    /// Whether this thread is serving a cluster's timer heap: it keeps what
    /// it answers and may run a state no sender may.
    static TIMER: Cell<bool> = const { Cell::new(false) };
    /// Whether this thread keeps what it [`answer`]s until it holds no
    /// state, and the answers it kept, in answer order.
    static KEEP: Cell<bool> = const { Cell::new(false) };
    static KEPT: RefCell<Vec<Box<dyn FnOnce()>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `serve` as a cluster's timer heap: meanwhile every answer this
/// thread gives is kept until it holds no state, and it may run a stale
/// (unfenced) state's messages. Afterwards — also after a panic — it is
/// what it was before, and puts out what it kept unless it is inside a
/// step, whose end does.
pub(crate) fn serving_heap<R>(serve: impl FnOnce() -> R) -> R {
    struct Restore(bool, bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            if STEP.get() == 0 {
                put_out_kept();
            }
            TIMER.set(self.0);
            KEEP.set(self.1);
        }
    }
    let _restore = Restore(TIMER.replace(true), KEEP.replace(true));
    serve()
}

/// Whether this thread may run `state`: a sender only a current one, the
/// heap's server any but a fenced one.
fn may_run<M, S: Handler<M>>(state: &S) -> bool {
    state.is_current() || (TIMER.get() && !state.is_fenced())
}

/// Puts out the answers this thread kept, in answer order.
fn put_out_kept() {
    KEPT.take().into_iter().for_each(|send| send());
}

/// Answers the caller waiting on `reply` with `value`: at once, or, once this
/// thread runs what queued or serves the timer heap, when it holds no state
/// any more. Either way it never blocks: a caller past its deadline has
/// closed its call, and the answer is dropped.
pub(crate) fn answer<T: Send + 'static>(reply: Reply<T>, value: T) {
    if KEEP.get() {
        let send = move || reply.send(value);
        KEPT.with_borrow_mut(|kept| kept.push(Box::new(send)));
    } else {
        reply.send(value);
    }
}

/// Where one call's answer lands: a caller's thread reuses it from call to
/// call. Its mutex is a leaf: nothing else is locked while it is held.
struct Slot<T> {
    state: Mutex<SlotState<T>>,
    /// The answer, or the last handle gone, for a parked caller.
    ready: Condvar,
}

struct SlotState<T> {
    /// The open call's number (bumped at every open and close): a handle of
    /// any other call answers nothing.
    call: u64,
    /// Handles of the open call neither answered nor dropped.
    senders: usize,
    /// Whether the open call has had its answer (later ones are dropped).
    answered: bool,
    value: Option<T>,
    /// Whether the caller sleeps on `ready`.
    parked: bool,
}

impl<T> Slot<T> {
    fn lock(&self) -> MutexGuard<'_, SlotState<T>> {
        // every update leaves the state whole
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One handle of call `call` is done: answered with `value`, or dropped
    /// unanswered (`None`). Wakes the caller if that settles its call.
    fn settle(&self, call: u64, value: Option<T>) {
        let mut s = self.lock();
        if s.call != call {
            return;
        }
        s.senders -= 1;
        if value.is_some() && !s.answered {
            (s.answered, s.value) = (true, value);
        }
        let wake = s.parked && (s.value.is_some() || s.senders == 0);
        drop(s);
        if wake {
            self.ready.notify_one();
        }
    }
}

/// A thread's reply slots not in use, of whatever answer type.
type FreeSlots = RefCell<Vec<Arc<dyn Any + Send + Sync>>>;

thread_local! {
    static SLOTS: FreeSlots = const { RefCell::new(Vec::new()) };
}

/// One handle on a call's answer: the first handle to answer wins, and once
/// every handle is gone unanswered the caller wakes with `Disconnected`.
pub(crate) struct Reply<T: Send + 'static> {
    /// `None` once this handle answered.
    slot: Option<Arc<Slot<T>>>,
    call: u64,
}

impl<T: Send + 'static> Reply<T> {
    fn send(mut self, value: T) {
        if let Some(slot) = self.slot.take() {
            slot.settle(self.call, Some(value));
        }
    }
}

impl<T: Send + 'static> Clone for Reply<T> {
    /// A duplicate of the handle (a duplicated message): one more sender.
    fn clone(&self) -> Self {
        if let Some(slot) = &self.slot {
            let mut s = slot.lock();
            if s.call == self.call {
                s.senders += 1;
            }
        }
        Reply {
            slot: self.slot.clone(),
            call: self.call,
        }
    }
}

impl<T: Send + 'static> Drop for Reply<T> {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            slot.settle(self.call, None);
        }
    }
}

/// The caller's end of a call: closing it (drop) drops any answer still to
/// come and hands the slot back to this thread.
pub(crate) struct Call<T: Send + 'static> {
    slot: Arc<Slot<T>>,
}

/// Opens a call on this thread's free slot for answers of type `T` — a new
/// one if none is free (a call made while another is open) — and returns
/// its one handle and the caller's end.
pub(crate) fn call<T: Send + 'static>() -> (Reply<T>, Call<T>) {
    let free = |slots: &FreeSlots| {
        let mut slots = slots.borrow_mut();
        let at = slots.iter().rposition(|slot| slot.is::<Slot<T>>())?;
        slots.swap_remove(at).downcast().ok()
    };
    let slot = SLOTS.try_with(free).ok().flatten().unwrap_or_else(|| {
        Arc::new(Slot {
            state: Mutex::new(SlotState {
                call: 0,
                senders: 0,
                answered: false,
                value: None,
                parked: false,
            }),
            ready: Condvar::new(),
        })
    });
    let call = {
        let mut s = slot.lock();
        (s.call, s.senders, s.answered) = (s.call + 1, 1, false);
        s.call
    };
    let reply = Reply {
        slot: Some(Arc::clone(&slot)),
        call,
    };
    (reply, Call { slot })
}

impl<T: Send + 'static> Call<T> {
    /// Waits up to `timeout` for the answer; `Disconnected` at once when
    /// every handle is gone without one.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let mut deadline = None;
        let mut s = self.slot.lock();
        loop {
            if let Some(value) = s.value.take() {
                return Ok(value);
            }
            if s.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            s.parked = true;
            s = (self.slot.ready)
                .wait_timeout(s, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            s.parked = false;
        }
    }
}

impl<T: Send + 'static> Drop for Call<T> {
    fn drop(&mut self) {
        let mut s = self.slot.lock();
        (s.call, s.senders, s.value) = (s.call + 1, 0, None);
        drop(s);
        let slot: Arc<dyn Any + Send + Sync> = self.slot.clone();
        // a thread past its locals' teardown keeps no slot
        let _ = SLOTS.try_with(|slots| slots.borrow_mut().push(slot));
    }
}

/// This thread's step on a mesh, and the state of `at` its runs use. Drop —
/// also after a panic — hands that state and every claim not run back to
/// their slots (a claim's messages never left the front of its queue), and
/// puts out the answers this thread kept.
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

    /// Runs the claimed messages, then what queued meanwhile and a due tick,
    /// node by node in claim order: a state goes back to its slot only once
    /// nothing this thread may run waits there. What queued is someone
    /// else's, so its answers are kept until this step ends.
    fn drain(&mut self) {
        loop {
            if let Some(state) = &mut self.state {
                let inbox = &self.mesh.inboxes[self.at as usize];
                let mut s = inbox.lock();
                if may_run(&**state) {
                    if s.claimed > 0 || !s.queue.is_empty() {
                        KEEP.set(KEEP.get() || s.claimed == 0);
                        s.claimed = s.claimed.saturating_sub(1);
                        let msg = s.queue.pop_front();
                        drop(s);
                        if let Some(msg) = msg {
                            state.deliver(msg);
                        }
                        continue;
                    }
                    if std::mem::take(&mut s.due) {
                        drop(s);
                        KEEP.set(true);
                        state.tick();
                        continue;
                    }
                }
                inbox.release(s, &mut self.state);
            }
            let Some(at) = CLAIMS.with_borrow_mut(VecDeque::pop_front) else {
                return;
            };
            let mut s = self.mesh.inboxes[at as usize].lock();
            s.out = true;
            self.state = Some(s.state.take().expect("a claimed state waits in its slot"));
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
        put_out_kept();
        KEEP.set(TIMER.get());
    }
}

impl<M: Send> ChannelMesh<M> {
    /// A mesh of `n` endpoints; [`MeshConfig`] tunes nothing.
    #[must_use]
    pub fn new(n: u32, _: MeshConfig) -> Self {
        let mesh = Self::owned(n);
        mesh.inboxes
            .iter()
            .for_each(|inbox| inbox.lock().state = Some(Box::new(())));
        mesh
    }
}

impl<M: Send, S: Send> ChannelMesh<M, S> {
    /// A mesh whose slots start empty: an endpoint runs nothing before a
    /// [`ChannelMesh::put`] puts its state in.
    pub(crate) fn owned(n: u32) -> Self {
        let inbox = || Inbox {
            slots: Mutex::new(Slots {
                queue: VecDeque::new(),
                state: None,
                out: false,
                claimed: 0,
                parked: 0,
                due: false,
            }),
            ready: Condvar::new(),
        };
        ChannelMesh {
            inboxes: (0..n).map(|_| inbox()).collect(),
            closed: AtomicBool::new(false),
        }
    }

    /// This mesh's identity in [`STEP`].
    fn addr(&self) -> usize {
        std::ptr::from_ref(self) as usize
    }

    /// Waits until nobody holds or has claimed `at`'s state, and takes it out
    /// of its slot (`None`: the slot is empty); the slot stays held until
    /// [`ChannelMesh::put`].
    pub(crate) fn take(&self, at: u32) -> Option<Box<S>> {
        let inbox = &self.inboxes[at as usize];
        let mut s = inbox.lock();
        while s.out || s.claimed > 0 {
            s = inbox.sleep(s, PARK);
        }
        s.out = true;
        s.state.take()
    }

    /// Messages currently queued at endpoint `at` (diagnostics).
    #[must_use]
    pub fn queued(&self, at: u32) -> usize {
        self.inboxes[at as usize].lock().queue.len()
    }
}

impl<M: Send + 'static, S: Send + 'static> ChannelMesh<M, S> {
    /// Ends a [`ChannelMesh::take`], or fills an empty slot: puts `state` in
    /// `at`'s slot, having first run a due tick and what queued meanwhile if
    /// this thread may run it (what it may not, the heap's next tick runs).
    pub(crate) fn put(&self, at: u32, state: Option<Box<S>>)
    where
        S: Handler<M>,
    {
        match state {
            Some(_) => Step::enter(self, at, state).drain(),
            None => self.inboxes[at as usize].release(self.inboxes[at as usize].lock(), &mut None),
        }
    }

    /// The heap's tick at `at`: marks it due and, if the state is idle in
    /// its slot, runs it — and what queued there — on this thread. A tick
    /// that finds the state out is run by whoever puts the state back.
    pub(crate) fn tick(&self, at: u32)
    where
        S: Handler<M>,
    {
        let mut s = self.inboxes[at as usize].lock();
        s.due = true;
        if s.idle() {
            s.out = true;
            let state = s.state.take();
            drop(s);
            Step::enter(self, at, state).drain();
        }
    }

    /// Whether this thread is inside a step of this mesh.
    pub(crate) fn in_step(&self) -> bool {
        STEP.get() == self.addr()
    }

    /// Hands `msg` to endpoint `to`. The acquisition that would queue it
    /// takes an idle, current state if nothing is queued, to run `msg` at
    /// once — or after the step this thread is in. A message for an
    /// endpoint this thread claimed and has not run joins the claim if
    /// nothing queued there since. Anything else queues; behind a state in
    /// its slot that no sender may run (a stale one), it waits for the
    /// heap's next tick.
    pub(crate) fn hand(&self, to: u32, msg: M)
    where
        S: Handler<M>,
    {
        let inbox = &self.inboxes[to as usize];
        let here = STEP.get();
        let in_step = here == self.addr();
        let mine = in_step && CLAIMS.with_borrow(|claims| claims.contains(&to));
        let mut s = inbox.lock();
        if mine && s.claimed == s.queue.len() {
            s.claimed += 1;
            s.queue.push_back(msg);
            return;
        }
        if (here == 0 || in_step)
            && s.queue.is_empty()
            && s.state.as_ref().is_some_and(|state| state.is_current())
        {
            if in_step {
                s.claimed = 1;
                s.queue.push_back(msg);
                drop(s);
                CLAIMS.with_borrow_mut(|claims| claims.push_back(to));
            } else {
                s.out = true;
                let mut step = Step::enter(self, to, s.state.take());
                drop(s);
                if let Some(state) = &mut step.state {
                    state.deliver(msg);
                }
                step.drain();
            }
            return;
        }
        inbox.push(s, msg);
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
        inbox.push(inbox.lock(), msg);
        Ok(())
    }

    /// Pops the oldest message at `at` (a pull mesh's state never leaves).
    fn recv_timeout(
        &self,
        at: u32,
        timeout: Duration,
    ) -> Result<TransportEvent<M>, TransportError> {
        let Some(inbox) = self.inboxes.get(at as usize) else {
            return Err(TransportError::Closed);
        };
        let deadline = Instant::now() + timeout;
        let mut s = inbox.lock();
        while s.queue.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            s = inbox.sleep(s, left);
        }
        let msg = s.queue.pop_front();
        drop(s);
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

    fn shutdown(&self) {
        self.closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::Arc;
    use std::thread::{self, ThreadId};

    impl<M, S> ChannelMesh<M, S> {
        /// Threads waiting to take endpoint `at`'s state.
        pub(crate) fn waiting(&self, at: u32) -> usize {
            self.inboxes[at as usize].lock().parked
        }
    }

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
    fn recv_times_out_and_close_is_observed() {
        let mesh: ChannelMesh<u64> = ChannelMesh::new(1, MeshConfig::default());
        let err = mesh.recv_timeout(0, Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout { .. }));
        mesh.shutdown();
        assert!(matches!(mesh.send(0, 9), Err(TransportError::Closed)));
    }

    /// Spins until `ready`; a hang is a failure, not a wait.
    fn until(ready: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready() {
            assert!(Instant::now() < deadline, "never happened");
            thread::yield_now();
        }
    }

    /// What the test endpoints ran, in order: each message's label (`tick`
    /// for a tick) and the thread that ran it, logged when its run returned.
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
        fenced: bool,
    }

    impl Probe {
        fn note(&self, label: &'static str) {
            let me = thread::current().id();
            self.log.lock().unwrap().push((label, me));
        }
    }

    impl Handler<Msg> for Probe {
        fn is_current(&self) -> bool {
            !self.stale
        }
        fn is_fenced(&self) -> bool {
            self.fenced
        }
        fn deliver(&mut self, Msg(label, run): Msg) {
            run(self);
            self.note(label);
        }
        fn tick(&mut self) {
            self.note("tick");
        }
    }

    type Probes = ChannelMesh<Msg, Probe>;

    /// `n` endpoints sharing one log, each state in its slot.
    fn probes(n: u32) -> (Arc<Probes>, Log) {
        let log = Log::default();
        let mesh = Probes::owned(n);
        for at in 0..n {
            let probe = Probe {
                log: Arc::clone(&log),
                stale: false,
                fenced: false,
            };
            mesh.put(at, Some(Box::new(probe)));
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

    fn all_in_their_slots(mesh: &Probes) -> bool {
        mesh.inboxes.iter().all(|inbox| inbox.lock().idle())
    }

    /// A sender runs its message itself on an idle state, with the lock
    /// released (the run below sends again from inside). What finds the
    /// state out — the run's own send, another thread's — queues, and the
    /// thread holding the state runs it before it puts the state back.
    #[test]
    fn what_finds_the_state_out_runs_on_the_thread_that_puts_it_back() {
        let (mesh, log) = probes(1);
        let m = Arc::clone(&mesh);
        let send_2_and_3 = move |_: &mut Probe| {
            m.hand(0, msg("2"));
            thread::scope(|scope| drop(scope.spawn(|| m.hand(0, msg("3")))));
            assert_eq!(m.queued(0), 2, "the state is out: 2 and 3 queue");
        };
        mesh.hand(0, Msg("1", Box::new(send_2_and_3)));
        let me = thread::current().id();
        assert_eq!(*log.lock().unwrap(), [("1", me), ("2", me), ("3", me)]);
        assert!(all_in_their_slots(&mesh));
    }

    /// A state that is not current (a stale incarnation's) is never run by
    /// a sender: the message queues, and the heap's next tick runs it on
    /// the thread serving the heap. A fenced state runs nowhere: the tick
    /// drops it from its slot.
    #[test]
    fn a_stale_state_is_left_to_the_timer_and_a_fenced_one_dropped() {
        let (mesh, log) = probes(2);
        for (at, fenced) in [(0, false), (1, true)] {
            let mut s = mesh.inboxes[at].lock();
            let state = s.state.as_mut().unwrap();
            (state.stale, state.fenced) = (true, fenced);
        }
        mesh.hand(0, msg("1"));
        mesh.hand(1, msg("2"));
        assert_eq!((mesh.queued(0), mesh.queued(1)), (1, 1));
        assert!(log.lock().unwrap().is_empty());
        serving_heap(|| {
            mesh.tick(0);
            mesh.tick(1);
        });
        let me = thread::current().id();
        assert_eq!(*log.lock().unwrap(), [("1", me), ("tick", me)]);
        assert!(mesh.inboxes[1].lock().state.is_none(), "not dropped");
        assert_eq!(mesh.queued(1), 1);
        // the role ends with the heap run: a stale state queues again
        mesh.hand(0, msg("2"));
        assert_eq!(mesh.queued(0), 1);
    }

    /// A tick that finds the state out is not lost: whoever puts the state
    /// back runs it. One that finds the state idle runs on the ticking
    /// thread.
    #[test]
    fn a_tick_that_finds_the_state_out_runs_on_the_thread_that_puts_it_back() {
        let (mesh, log) = probes(1);
        let m = Arc::clone(&mesh);
        let tick_meanwhile = move |_: &mut Probe| {
            thread::scope(|scope| drop(scope.spawn(|| m.tick(0))));
            assert!(m.inboxes[0].lock().due);
        };
        mesh.hand(0, Msg("run", Box::new(tick_meanwhile)));
        let me = thread::current().id();
        assert_eq!(*log.lock().unwrap(), [("run", me), ("tick", me)]);
        let ticker = thread::scope(|scope| scope.spawn(|| mesh.tick(0)).thread().id());
        assert_eq!(log.lock().unwrap()[2], ("tick", ticker));
        assert!(!mesh.inboxes[0].lock().due);
    }

    /// What one step sends to an idle endpoint runs on the sender's thread
    /// after that step returned, in send order: the first message claims
    /// the state, the second joins the claim, and nothing queues.
    #[test]
    fn what_a_step_sends_to_an_idle_endpoint_runs_after_it_in_send_order() {
        let (mesh, log) = probes(2);
        let m = Arc::clone(&mesh);
        let send = move |_: &mut Probe| {
            m.hand(1, msg("a"));
            m.hand(1, msg("b"));
            assert_eq!(m.inboxes[1].lock().claimed, 2, "b joined a's claim");
        };
        mesh.hand(0, Msg("step", Box::new(send)));
        let me = thread::current().id();
        assert_eq!(*log.lock().unwrap(), [("step", me), ("a", me), ("b", me)]);
        assert!(all_in_their_slots(&mesh));
    }

    /// Once another thread queued at an endpoint this step claimed, what
    /// the step sends there next queues behind that message instead of
    /// joining the claim; the claimer runs all three in queue order.
    #[test]
    fn a_message_never_joins_a_claim_behind_a_queued_one() {
        let (mesh, log) = probes(2);
        let m = Arc::clone(&mesh);
        let send = move |_: &mut Probe| {
            m.hand(1, msg("claimed"));
            thread::scope(|scope| drop(scope.spawn(|| m.hand(1, msg("queued")))));
            m.hand(1, msg("after"));
            assert_eq!(m.inboxes[1].lock().claimed, 1, "after joined the claim");
        };
        mesh.hand(0, Msg("step", Box::new(send)));
        assert_eq!(mesh.queued(1), 0);
        assert_eq!(labels(&log), ["step", "claimed", "queued", "after"]);
    }

    /// A run that claims endpoint 1 and then panics unwinds into the thread
    /// that started the step: both states are back in their slots, the
    /// claimed messages are back at the front of endpoint 1's queue in
    /// order, and the endpoint's next tick runs them.
    #[test]
    fn a_panicking_run_loses_no_state_and_no_message() {
        let (mesh, log) = probes(2);
        let m = Arc::clone(&mesh);
        let send = move |_: &mut Probe| {
            m.hand(1, msg("claimed"));
            m.hand(1, msg("joined"));
            thread::scope(|scope| drop(scope.spawn(|| m.hand(1, msg("queued")))));
            panic!("a handler failed");
        };
        let run = AssertUnwindSafe(|| mesh.hand(0, Msg("step", Box::new(send))));
        assert!(std::panic::catch_unwind(run).is_err());
        assert!(all_in_their_slots(&mesh));
        assert!(CLAIMS.with_borrow(VecDeque::is_empty));
        assert_eq!(mesh.queued(1), 3);
        mesh.tick(1);
        assert_eq!(labels(&log), ["claimed", "joined", "queued", "tick"]);
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
    ) -> Reply<()> {
        let (reply, answered) = call();
        scope.spawn(move || {
            answered.recv_timeout(Duration::from_secs(10)).unwrap();
            let idle = mesh.inboxes[at as usize].lock().idle();
            woken.lock().unwrap().push((at, idle));
        });
        reply
    }

    /// A run that answers `reply`, then gives its caller 200 ms to report in
    /// `woken` — time enough if the answer woke it inside the run.
    fn answer_and_wait(reply: Reply<()>, woken: &Woken) -> Box<dyn FnOnce(&mut Probe) + Send> {
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

    /// A message that queued while endpoint 0's state was out runs on the
    /// thread that puts the state back; it answers one caller and another
    /// in a claim it made on endpoint 1. Each caller, once woken, finds the
    /// endpoint that answered it idle in its slot — not out with the thread
    /// that woke it, which it would then have to queue behind.
    #[test]
    fn a_woken_caller_finds_the_node_back_in_its_slot() {
        let (mesh, log) = probes(2);
        let woken = Woken::default();
        thread::scope(|scope| {
            let first = answer_and_wait(caller(scope, &mesh, 0, &woken), &woken);
            let claimed = answer_and_wait(caller(scope, &mesh, 1, &woken), &woken);
            let m = Arc::clone(&mesh);
            let run = move |probe: &mut Probe| {
                first(probe);
                m.hand(1, Msg("claimed", claimed));
            };
            let state = mesh.take(0);
            mesh.hand(0, Msg("answer", Box::new(run)));
            mesh.put(0, state);
        });
        assert_eq!(labels(&log), ["answer", "claimed"]);
        let mut woken = woken.lock().unwrap().clone();
        woken.sort_unstable();
        assert_eq!(
            woken,
            [(0, true), (1, true)],
            "woken while its node was out"
        );
    }

    /// A queued chain that answers a parked caller and then panics still
    /// wakes that caller with its answer — not a timeout, not a disconnect —
    /// and loses no state: its claim goes back to its slot.
    #[test]
    fn a_panicking_chain_still_wakes_whom_it_answered() {
        let (mesh, log) = probes(2);
        let (reply, answered) = call();
        let m = Arc::clone(&mesh);
        let run = move |_: &mut Probe| {
            answer(reply, ());
            m.hand(1, msg("claimed"));
            panic!("a handler failed");
        };
        let state = mesh.take(0);
        mesh.hand(0, Msg("step", Box::new(run)));
        thread::scope(|scope| {
            let caller = scope.spawn(|| answered.recv_timeout(Duration::from_secs(1)));
            let put = AssertUnwindSafe(|| mesh.put(0, state));
            assert!(std::panic::catch_unwind(put).is_err());
            assert_eq!(caller.join().unwrap(), Ok(()));
        });
        assert!(all_in_their_slots(&mesh));
        assert!(CLAIMS.with_borrow(VecDeque::is_empty));
        mesh.tick(1);
        assert_eq!(labels(&log), ["claimed", "tick"]);
    }

    /// A heap run inside a step — a node's send delayed past shutdown —
    /// puts out nothing: what the step kept waits for the step's end.
    #[test]
    fn a_heap_run_inside_a_step_leaves_what_the_step_kept_to_its_end() {
        let (mesh, log) = probes(1);
        let (reply, answered) = call();
        let answered = Arc::new(answered);
        let early = Arc::clone(&answered);
        let run = move |_: &mut Probe| {
            answer(reply, ());
            serving_heap(|| ());
            let now = early.recv_timeout(Duration::ZERO);
            assert!(now.is_err(), "put out inside the step");
        };
        let state = mesh.take(0);
        mesh.hand(0, Msg("step", Box::new(run)));
        mesh.put(0, state);
        assert_eq!(answered.recv_timeout(Duration::ZERO), Ok(()));
        assert_eq!(labels(&log), ["step"]);
    }

    /// Every handle of a call dropped unanswered — a dropped message, a
    /// fenced install, a crash — wakes its caller with `Disconnected` at
    /// once, not at its deadline.
    #[test]
    fn every_handle_dropped_unanswered_wakes_the_caller_at_once() {
        let (reply, answered) = call::<u32>();
        let copy = reply.clone();
        let start = Instant::now();
        thread::scope(|scope| {
            let caller = scope.spawn(|| answered.recv_timeout(Duration::from_secs(10)));
            until(|| answered.slot.lock().parked);
            drop(reply);
            drop(copy);
            let got = caller.join().unwrap();
            assert_eq!(got, Err(RecvTimeoutError::Disconnected));
        });
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "woke at the deadline"
        );
    }

    /// A thread reuses its slot, but an answer to a call it gave up on —
    /// or a handle of that call dropped — never settles its next call.
    #[test]
    fn an_answer_to_a_timed_out_call_never_satisfies_the_next() {
        let (late, first) = call::<u32>();
        let stale = late.clone();
        assert_eq!(
            first.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        let used = Arc::as_ptr(&first.slot);
        drop(first);
        let (reply, next) = call::<u32>();
        assert_eq!(Arc::as_ptr(&next.slot), used, "the slot was not reused");
        answer(late, 1);
        drop(stale);
        assert_eq!(
            next.recv_timeout(Duration::ZERO),
            Err(RecvTimeoutError::Timeout)
        );
        answer(reply, 2);
        assert_eq!(next.recv_timeout(Duration::ZERO), Ok(2));
    }

    /// A duplicated message's handles answer one call once: the first
    /// answer wins and the second is dropped.
    #[test]
    fn a_duplicated_reply_is_answered_once() {
        let (reply, answered) = call::<u32>();
        let duplicate = reply.clone();
        answer(reply, 1);
        answer(duplicate, 2);
        assert_eq!(answered.recv_timeout(Duration::ZERO), Ok(1));
        let again = answered.recv_timeout(Duration::ZERO);
        assert_eq!(again, Err(RecvTimeoutError::Disconnected));
    }

    /// A call made while another is open on the same thread gets a slot of
    /// its own; once both close, the thread keeps both for its next calls.
    #[test]
    fn a_nested_call_gets_its_own_slot() {
        let (outer_reply, outer) = call::<u32>();
        let (inner_reply, inner) = call::<u32>();
        let slots = [Arc::as_ptr(&outer.slot), Arc::as_ptr(&inner.slot)];
        assert_ne!(slots[0], slots[1]);
        answer(inner_reply, 2);
        answer(outer_reply, 1);
        assert_eq!(inner.recv_timeout(Duration::ZERO), Ok(2));
        assert_eq!(outer.recv_timeout(Duration::ZERO), Ok(1));
        drop((inner, outer));
        let (_, again) = call::<u32>();
        let (_, nested) = call::<u32>();
        let mut reused = [Arc::as_ptr(&again.slot), Arc::as_ptr(&nested.slot)];
        reused.sort_unstable();
        let mut slots = slots;
        slots.sort_unstable();
        assert_eq!(reused, slots);
    }

    #[test]
    fn out_of_range_peer_is_down() {
        let mesh: ChannelMesh<u64> = ChannelMesh::new(1, MeshConfig::default());
        assert!(matches!(
            mesh.send(5, 0),
            Err(TransportError::Down { peer: 5 })
        ));
    }
}
