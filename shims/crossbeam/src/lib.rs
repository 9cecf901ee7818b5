//! Offline stand-in for `crossbeam`.
//!
//! Provides `crossbeam::channel`'s unbounded and bounded MPMC channels — the
//! only part of crossbeam this workspace uses — implemented with a
//! `Mutex<VecDeque>` and two `Condvar`s. Both halves are cloneable;
//! disconnection is tracked by reference-counting each side, exactly like
//! the real crate.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    /// Everything a channel's threads share, under one mutex: each count
    /// changes, and each wake-up is decided, in one acquisition, so none
    /// falls between a waiter's test and its sleep.
    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers asleep on `ready`: whom a push or the last sender's
        /// drop must wake. Nobody is woken when nobody sleeps.
        recv_parked: usize,
        /// Senders asleep on `room` (bounded channels only).
        send_parked: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        /// Not empty, or no sender left.
        ready: Condvar,
        /// Not full, or no receiver left.
        room: Condvar,
        capacity: Option<usize>,
    }

    impl<T> Inner<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            // every update leaves `State` whole, so a panic elsewhere cannot
            // have left it half-done
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Pushes `value`, releases the lock, then wakes a parked receiver if
        /// there is one — with the lock free, so it does not wake only to
        /// block on it.
        fn push(&self, mut s: MutexGuard<'_, State<T>>, value: T) {
            s.queue.push_back(value);
            let wake = s.recv_parked > 0;
            drop(s);
            if wake {
                self.ready.notify_one();
            }
        }

        /// Pops the oldest value, releases the lock, then wakes a parked
        /// sender if there is one; an empty queue hands the lock back.
        fn pop<'a>(&self, mut s: MutexGuard<'a, State<T>>) -> Result<T, MutexGuard<'a, State<T>>> {
            let Some(value) = s.queue.pop_front() else {
                return Err(s);
            };
            let wake = s.send_parked > 0;
            drop(s);
            if wake {
                self.room.notify_one();
            }
            Ok(value)
        }
    }

    /// The sending half of an unbounded channel.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of an unbounded channel.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Error returned when all receivers have been dropped.
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`].
    pub enum TrySendError<T> {
        /// The channel is bounded and currently at capacity.
        Full(T),
        /// Every receiver has been dropped.
        Disconnected(T),
    }

    /// Error returned when the channel is empty and all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
            }
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    impl<T> std::error::Error for SendError<T> {}
    impl<T> std::error::Error for TrySendError<T> {}
    impl std::error::Error for RecvError {}
    impl std::error::Error for RecvTimeoutError {}

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                recv_parked: 0,
                send_parked: 0,
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
            capacity,
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded MPMC channel holding at most `cap` messages.
    ///
    /// `send` blocks while the channel is full; `try_send` fails with
    /// [`TrySendError::Full`] instead. A capacity of zero is treated as one,
    /// since this shim has no rendezvous mode.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing if every receiver has been dropped.
        ///
        /// On a bounded channel this blocks until a slot frees up.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let inner = &*self.inner;
            let mut s = inner.lock();
            loop {
                if s.receivers == 0 {
                    return Err(SendError(value));
                }
                if inner.capacity.is_none_or(|cap| s.queue.len() < cap) {
                    inner.push(s, value);
                    return Ok(());
                }
                s.send_parked += 1;
                s = inner.room.wait(s).unwrap_or_else(PoisonError::into_inner);
                s.send_parked -= 1;
            }
        }

        /// Enqueues `value` without blocking, failing if the channel is full
        /// or every receiver has been dropped.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let inner = &*self.inner;
            let s = inner.lock();
            if s.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if inner.capacity.is_some_and(|cap| s.queue.len() >= cap) {
                return Err(TrySendError::Full(value));
            }
            inner.push(s, value);
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.lock().senders += 1;
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut s = self.inner.lock();
            s.senders -= 1;
            if s.senders == 0 && s.recv_parked > 0 {
                self.inner.ready.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let inner = &*self.inner;
            let mut s = inner.lock();
            loop {
                s = match inner.pop(s) {
                    Ok(v) => return Ok(v),
                    Err(s) => s,
                };
                if s.senders == 0 {
                    return Err(RecvError);
                }
                s.recv_parked += 1;
                s = inner.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
                s.recv_parked -= 1;
            }
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let inner = &*self.inner;
            let deadline = Instant::now() + timeout;
            let mut s = inner.lock();
            loop {
                s = match inner.pop(s) {
                    Ok(v) => return Ok(v),
                    Err(s) => s,
                };
                if s.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let Some(remaining) = deadline
                    .checked_duration_since(Instant::now())
                    .filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                s.recv_parked += 1;
                s = inner
                    .ready
                    .wait_timeout(s, remaining)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                s.recv_parked -= 1;
            }
        }

        /// Returns a message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            match self.inner.pop(self.inner.lock()) {
                Ok(v) => Ok(v),
                Err(s) if s.senders == 0 => Err(TryRecvError::Disconnected),
                Err(_) => Err(TryRecvError::Empty),
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.inner.lock().queue.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.lock().receivers += 1;
            Receiver {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut s = self.inner.lock();
            s.receivers -= 1;
            if s.receivers == 0 && s.send_parked > 0 {
                self.inner.room.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn recv_after_all_senders_drop() {
            let (tx, rx) = unbounded();
            tx.send(7).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn send_to_no_receiver_fails() {
            let (tx, rx) = unbounded();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn recv_timeout_times_out() {
            let (tx, rx) = unbounded::<u8>();
            let err = rx.recv_timeout(Duration::from_millis(10)).unwrap_err();
            assert_eq!(err, RecvTimeoutError::Timeout);
            drop(tx);
        }

        #[test]
        fn bounded_try_send_reports_full() {
            let (tx, rx) = bounded(1);
            tx.try_send(1).unwrap();
            assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
            assert_eq!(rx.recv(), Ok(1));
            tx.try_send(3).unwrap();
            assert_eq!(rx.recv(), Ok(3));
        }

        #[test]
        fn bounded_try_send_reports_disconnected() {
            let (tx, rx) = bounded(1);
            drop(rx);
            assert!(matches!(tx.try_send(9), Err(TrySendError::Disconnected(9))));
        }

        #[test]
        fn bounded_send_blocks_until_recv_frees_a_slot() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let t = std::thread::spawn(move || tx.send(2));
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            t.join().unwrap().unwrap();
        }

        /// `(receivers, senders)` asleep on the channel.
        fn parked<T>(inner: &Inner<T>) -> (usize, usize) {
            let s = inner.lock();
            (s.recv_parked, s.send_parked)
        }

        /// Spins until `ready`; a hang is a failure, not a wait.
        fn until(ready: impl Fn() -> bool) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !ready() {
                assert!(Instant::now() < deadline, "never happened");
                std::thread::yield_now();
            }
        }

        #[test]
        fn a_parked_receiver_is_woken_by_a_send() {
            let (tx, rx) = unbounded();
            let inner = Arc::clone(&rx.inner);
            let t = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(30)));
            until(|| parked(&inner) == (1, 0));
            tx.send(5).unwrap();
            assert_eq!(t.join().unwrap(), Ok(5));
            assert_eq!(parked(&inner), (0, 0));
        }

        #[test]
        fn a_parked_sender_is_woken_by_a_receive() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let inner = Arc::clone(&tx.inner);
            let t = std::thread::spawn(move || tx.send(2));
            until(|| parked(&inner) == (0, 1));
            assert_eq!(rx.recv(), Ok(1));
            t.join().unwrap().unwrap();
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(parked(&inner), (0, 0));
        }

        #[test]
        fn nobody_parked_means_nobody_to_wake() {
            let (tx, rx) = bounded(4);
            for i in 0..10_000 {
                tx.send(i).unwrap();
                assert_eq!(rx.recv(), Ok(i));
            }
            assert_eq!(parked(&rx.inner), (0, 0));
        }

        /// A sender blocked on a full channel is told when the last
        /// receiver goes; `send` has no timeout, so nothing else ends it.
        #[test]
        fn dropping_the_last_receiver_wakes_a_blocked_sender() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let inner = Arc::clone(&rx.inner);
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || done_tx.send(tx.send(2)));
            until(|| parked(&inner) == (0, 1));
            drop(rx);
            match done_rx.recv_timeout(Duration::from_secs(1)) {
                Ok(Err(SendError(2))) => {}
                other => panic!("the blocked sender got {other:?}"),
            }
        }

        /// The last sender's drop and a receiver's decision to sleep share
        /// the mutex, so the wake-up cannot fall between the two.
        #[test]
        fn the_last_sender_dropping_during_a_wait_disconnects_it() {
            let (drop_tx, drop_rx) = std::sync::mpsc::channel::<Sender<u8>>();
            let dropper = std::thread::spawn(move || while drop_rx.recv().is_ok() {});
            for i in 0..10_000 {
                let (tx, rx) = unbounded::<u8>();
                drop_tx.send(tx).unwrap();
                assert_eq!(
                    rx.recv_timeout(Duration::from_secs(1)),
                    Err(RecvTimeoutError::Disconnected),
                    "iteration {i}"
                );
            }
            drop(drop_tx);
            dropper.join().unwrap();
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = unbounded();
            let t = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            t.join().unwrap();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        }
    }
}
