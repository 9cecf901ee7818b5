//! Conservative sharded discrete-event engine for very large worlds.
//!
//! [`ShardedEngine`] partitions a simulation into shards, each with its own
//! [`EventQueue`], and advances them in lockstep over **conservative time
//! windows** of width `lookahead` (the classic Chandy–Misra–Bryant null
//! message bound, realized as a barrier-synchronous window protocol):
//!
//! 1. every shard independently processes all of its events with
//!    `time < window_end` — safe because no other shard can influence it
//!    sooner than `lookahead` time units from now,
//! 2. cross-shard messages produced inside the window are collected in
//!    per-shard outboxes; the sender guarantees `delay ≥ lookahead`, so all
//!    of them land at or after `window_end`,
//! 3. at the window boundary the outboxes are exchanged in one
//!    deterministic merge — sorted by `(arrival time, source shard,
//!    send order)` — and pushed into the destination queues.
//!
//! Step 1 is embarrassingly parallel and runs on scoped worker threads;
//! steps 2–3 are a deterministic sequential reduction. Because window
//! boundaries, the merge order, and every per-shard event stream are all
//! independent of the worker count, a sharded run is **bit-identical at any
//! thread count** — only wall time changes.
//!
//! The natural `lookahead` is the minimum inter-node network latency (see
//! `oml-net`'s `Network::min_remote_delay`): a latency model with a positive
//! offset (e.g. `LatencyModel::ShiftedExponential`) gives a useful window,
//! while a bare exponential has infimum zero and admits no conservative
//! parallelism at all.

use crate::queue::EventQueue;
use crate::time::SimTime;

/// Handler for one shard of a sharded simulation.
///
/// The `Send` bound lets shards migrate to worker threads for the parallel
/// window phase; each shard is only ever touched by one thread at a time.
pub trait ShardHandler: Send {
    /// Event type processed by this shard.
    type Event: Send;

    /// Processes one event at simulated time `now`.
    ///
    /// New work is scheduled through `ctx`: [`ShardCtx::schedule_in`] for
    /// this shard, [`ShardCtx::send`] for another shard (which must respect
    /// the lookahead).
    fn handle(&mut self, now: SimTime, event: Self::Event, ctx: &mut ShardCtx<'_, Self::Event>);
}

/// A cross-shard message waiting for the window boundary exchange.
struct Outgoing<E> {
    dest: usize,
    time: SimTime,
    event: E,
}

/// Scheduling context handed to [`ShardHandler::handle`].
pub struct ShardCtx<'a, E> {
    now: SimTime,
    shard: usize,
    shards: usize,
    lookahead: f64,
    queue: &'a mut EventQueue<E>,
    outbox: &'a mut Vec<Outgoing<E>>,
}

impl<'a, E> ShardCtx<'a, E> {
    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Index of the shard being processed.
    #[must_use]
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Total number of shards in the engine.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The engine's conservative lookahead.
    #[must_use]
    pub fn lookahead(&self) -> f64 {
        self.lookahead
    }

    /// Schedules an event on **this** shard, `delay` from now.
    ///
    /// Local events have no lookahead constraint; a zero delay re-enters the
    /// current window (FIFO behind events already queued at the same time).
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or not finite.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "invalid local delay: {delay}"
        );
        self.queue.push(self.now + delay, event);
    }

    /// Sends an event to shard `dest`, arriving `delay` from now.
    ///
    /// Sending to the own shard degrades to [`ShardCtx::schedule_in`].
    /// Cross-shard sends must keep `delay ≥ lookahead` — that bound is what
    /// makes it safe for every shard to process a whole window without
    /// hearing from its peers.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is out of range or a cross-shard `delay` undercuts
    /// the lookahead.
    pub fn send(&mut self, dest: usize, delay: f64, event: E) {
        if dest == self.shard {
            self.schedule_in(delay, event);
            return;
        }
        assert!(dest < self.shards, "shard {dest} does not exist");
        assert!(
            delay.is_finite() && delay >= self.lookahead,
            "cross-shard delay {delay} undercuts the lookahead {}",
            self.lookahead
        );
        self.outbox.push(Outgoing {
            dest,
            time: self.now + delay,
            event,
        });
    }
}

/// One shard: a handler, its event queue, and its pending cross-shard mail.
struct Shard<H: ShardHandler> {
    index: usize,
    handler: H,
    queue: EventQueue<H::Event>,
    outbox: Vec<Outgoing<H::Event>>,
    handled: u64,
}

impl<H: ShardHandler> Shard<H> {
    /// Processes every queued event with `time < window_end`.
    fn advance(&mut self, window_end: SimTime, lookahead: f64, shards: usize) {
        while let Some(t) = self.queue.peek_time() {
            if t >= window_end {
                break;
            }
            let ev = self.queue.pop().expect("peeked event exists");
            self.handled += 1;
            let mut ctx = ShardCtx {
                now: ev.time,
                shard: self.index,
                shards,
                lookahead,
                queue: &mut self.queue,
                outbox: &mut self.outbox,
            };
            self.handler.handle(ev.time, ev.event, &mut ctx);
        }
    }
}

/// A parallel discrete-event engine over sharded state.
///
/// See the [module docs](self) for the protocol and determinism argument.
pub struct ShardedEngine<H: ShardHandler> {
    shards: Vec<Shard<H>>,
    lookahead: f64,
    threads: usize,
    now: SimTime,
}

impl<H: ShardHandler> ShardedEngine<H> {
    /// Creates an engine from one handler per shard.
    ///
    /// `lookahead` must be strictly positive — it is both the window width
    /// and the minimum cross-shard delay. `threads` is the worker count for
    /// the window phase (`<= 1` runs sequentially with no thread machinery;
    /// more workers than shards are pointless and clamped).
    ///
    /// # Panics
    ///
    /// Panics if `handlers` is empty or `lookahead` is not a positive,
    /// finite number.
    #[must_use]
    pub fn new(handlers: Vec<H>, lookahead: f64, threads: usize) -> Self {
        assert!(!handlers.is_empty(), "a sharded engine needs shards");
        assert!(
            lookahead.is_finite() && lookahead > 0.0,
            "conservative sharding needs a positive lookahead, got {lookahead}"
        );
        ShardedEngine {
            shards: handlers
                .into_iter()
                .enumerate()
                .map(|(index, handler)| Shard {
                    index,
                    handler,
                    queue: EventQueue::new(),
                    outbox: Vec::new(),
                    handled: 0,
                })
                .collect(),
            lookahead,
            threads: threads.max(1),
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time (the last window boundary).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events handled across all shards.
    #[must_use]
    pub fn events_handled(&self) -> u64 {
        self.shards.iter().map(|s| s.handled).sum()
    }

    /// The handler of shard `i`.
    #[must_use]
    pub fn handler(&self, i: usize) -> &H {
        &self.shards[i].handler
    }

    /// Iterates over all shard handlers (e.g. to merge per-shard metrics).
    pub fn handlers(&self) -> impl Iterator<Item = &H> {
        self.shards.iter().map(|s| &s.handler)
    }

    /// Seeds an event on shard `shard` at absolute time `at`.
    ///
    /// Only valid before the clock passes `at`; use this to plant the
    /// initial events of a scenario.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or `at` lies in the processed past.
    pub fn schedule(&mut self, shard: usize, at: SimTime, event: H::Event) {
        assert!(
            at >= self.now,
            "cannot schedule at {at} before the clock ({})",
            self.now
        );
        self.shards[shard].queue.push(at, event);
    }

    /// Runs every event with `time < t_end`, leaving the clock at `t_end`.
    ///
    /// Windows are `lookahead` wide; stretches with no events at all are
    /// skipped in one hop (the skip depends only on global queue state, so
    /// it does not disturb reproducibility).
    pub fn run_until(&mut self, t_end: SimTime) {
        let lookahead = self.lookahead;
        let shards = self.shards.len();
        let threads = self.threads.min(shards);
        while self.now < t_end {
            let Some(next) = self.shards.iter().filter_map(|s| s.queue.peek_time()).min() else {
                break;
            };
            if next >= t_end {
                break;
            }
            let window_start = next.max(self.now);
            let window_end = SimTime::new((window_start.as_f64() + lookahead).min(t_end.as_f64()));

            if threads <= 1 {
                for shard in &mut self.shards {
                    shard.advance(window_end, lookahead, shards);
                }
            } else {
                let per_worker = shards.div_ceil(threads);
                std::thread::scope(|scope| {
                    for chunk in self.shards.chunks_mut(per_worker) {
                        scope.spawn(move || {
                            for shard in chunk {
                                shard.advance(window_end, lookahead, shards);
                            }
                        });
                    }
                });
            }

            self.exchange(window_end);
            self.now = window_end;
        }
        if self.now < t_end {
            self.now = t_end;
        }
    }

    /// Delivers all window mail in one deterministic merge.
    fn exchange(&mut self, window_end: SimTime) {
        let mut inbound: Vec<(SimTime, usize, usize, Outgoing<H::Event>)> = Vec::new();
        for src in 0..self.shards.len() {
            if self.shards[src].outbox.is_empty() {
                continue;
            }
            let outbox = std::mem::take(&mut self.shards[src].outbox);
            for (idx, out) in outbox.into_iter().enumerate() {
                debug_assert!(
                    out.time >= window_end,
                    "conservative bound violated: arrival {} < window end {window_end}",
                    out.time
                );
                inbound.push((out.time, src, idx, out));
            }
        }
        // (arrival, source shard, send order) is unique per message, so the
        // merge order — and with it every destination queue's sequence
        // numbering — is a pure function of simulation state.
        inbound.sort_by_key(|a| (a.0, a.1, a.2));
        for (time, _, _, out) in inbound {
            self.shards[out.dest].queue.push(time, out.event);
        }
    }

    /// Consumes the engine, returning the shard handlers in index order.
    #[must_use]
    pub fn into_handlers(self) -> Vec<H> {
        self.shards.into_iter().map(|s| s.handler).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong token: bounce between shards with fixed latency.
    struct PingPong {
        received: Vec<f64>,
    }

    #[derive(Debug)]
    struct Token(u32);

    impl ShardHandler for PingPong {
        type Event = Token;

        fn handle(&mut self, now: SimTime, event: Token, ctx: &mut ShardCtx<'_, Token>) {
            self.received.push(now.as_f64());
            if event.0 > 0 {
                let dest = (ctx.shard() + 1) % ctx.shards();
                ctx.send(dest, 1.0, Token(event.0 - 1));
            }
        }
    }

    fn ping_pong(threads: usize) -> (u64, Vec<Vec<f64>>) {
        let handlers = (0..2).map(|_| PingPong { received: vec![] }).collect();
        let mut eng = ShardedEngine::new(handlers, 0.5, threads);
        eng.schedule(0, SimTime::ZERO, Token(9));
        eng.run_until(SimTime::new(100.0));
        let events = eng.events_handled();
        let logs = eng
            .into_handlers()
            .into_iter()
            .map(|h| h.received)
            .collect();
        (events, logs)
    }

    #[test]
    fn ping_pong_bounces_through_windows() {
        let (events, logs) = ping_pong(1);
        assert_eq!(events, 10, "token 9 makes ten hops");
        assert_eq!(logs[0], vec![0.0, 2.0, 4.0, 6.0, 8.0]);
        assert_eq!(logs[1], vec![1.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let base = ping_pong(1);
        for threads in [2, 4] {
            assert_eq!(ping_pong(threads), base, "threads = {threads}");
        }
    }

    /// Mixed local/remote traffic driven by per-shard RNG state.
    struct Chatter {
        rng: crate::SimRng,
        sum: f64,
        remaining: u32,
    }

    #[derive(Debug)]
    struct Poke;

    impl ShardHandler for Chatter {
        type Event = Poke;

        fn handle(&mut self, now: SimTime, _: Poke, ctx: &mut ShardCtx<'_, Poke>) {
            self.sum += now.as_f64();
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            let dest = self.rng.below(ctx.shards());
            if dest == ctx.shard() {
                ctx.schedule_in(self.rng.exp(0.3), Poke);
            } else {
                ctx.send(dest, 0.25 + self.rng.exp(0.75), Poke);
            }
        }
    }

    fn chatter(threads: usize) -> (u64, Vec<(u64, f64)>) {
        let handlers = (0..4)
            .map(|i| Chatter {
                rng: crate::SimRng::seed_from(crate::stats::replication_seed(42, i)),
                sum: 0.0,
                remaining: 40,
            })
            .collect();
        let mut eng = ShardedEngine::new(handlers, 0.25, threads);
        for shard in 0..4 {
            eng.schedule(shard, SimTime::ZERO, Poke);
        }
        eng.run_until(SimTime::new(200.0));
        let events = eng.events_handled();
        let state = eng
            .into_handlers()
            .into_iter()
            .map(|h| (h.remaining as u64, h.sum))
            .collect();
        (events, state)
    }

    #[test]
    #[cfg_attr(miri, ignore = "hundreds of windows are slow under the interpreter")]
    fn stochastic_traffic_is_thread_count_invariant() {
        let base = chatter(1);
        assert!(base.0 > 100, "expected plenty of events, got {}", base.0);
        for threads in [2, 3] {
            assert_eq!(chatter(threads), base, "threads = {threads}");
        }
    }

    #[test]
    fn empty_stretches_are_skipped() {
        let handlers = vec![PingPong { received: vec![] }];
        let mut eng = ShardedEngine::new(handlers, 0.001, 1);
        eng.schedule(0, SimTime::new(5_000.0), Token(0));
        // 5e6 naive windows would take ages; the fast-forward makes this instant
        eng.run_until(SimTime::new(10_000.0));
        assert_eq!(eng.events_handled(), 1);
        assert_eq!(eng.now(), SimTime::new(10_000.0));
    }

    #[test]
    #[should_panic(expected = "undercuts the lookahead")]
    fn short_cross_shard_delay_panics() {
        struct Bad;
        impl ShardHandler for Bad {
            type Event = ();
            fn handle(&mut self, _: SimTime, (): (), ctx: &mut ShardCtx<'_, ()>) {
                ctx.send(1, 0.1, ());
            }
        }
        let mut eng = ShardedEngine::new(vec![Bad, Bad], 0.5, 1);
        eng.schedule(0, SimTime::ZERO, ());
        eng.run_until(SimTime::new(1.0));
    }

    #[test]
    fn exact_lookahead_delay_is_accepted() {
        // the conservative bound is `delay >= lookahead`: a send at exactly
        // the lookahead is legal and lands at the next window's start
        struct Boundary;
        impl ShardHandler for Boundary {
            type Event = u32;
            fn handle(&mut self, _: SimTime, hops: u32, ctx: &mut ShardCtx<'_, u32>) {
                if hops > 0 {
                    ctx.send((ctx.shard() + 1) % ctx.shards(), ctx.lookahead(), hops - 1);
                }
            }
        }
        let mut eng = ShardedEngine::new(vec![Boundary, Boundary], 0.5, 1);
        eng.schedule(0, SimTime::ZERO, 4);
        eng.run_until(SimTime::new(10.0));
        assert_eq!(eng.events_handled(), 5);
    }

    #[test]
    fn empty_shard_fast_forward_preserves_fingerprints() {
        // shard 2 never receives anything; a long dead stretch before the
        // first event is fast-forwarded. Neither may perturb the event
        // pattern: the offset run must reproduce the t=0 run shifted by
        // exactly the offset, on every shard.
        struct Pair {
            received: Vec<f64>,
        }
        impl ShardHandler for Pair {
            type Event = Token;
            fn handle(&mut self, now: SimTime, event: Token, ctx: &mut ShardCtx<'_, Token>) {
                self.received.push(now.as_f64());
                if event.0 > 0 {
                    // bounce between shards 0 and 1 only; shard 2 stays empty
                    ctx.send((ctx.shard() + 1) % 2, 1.0, Token(event.0 - 1));
                }
            }
        }
        let run = |offset: f64| -> (u64, Vec<Vec<f64>>) {
            let handlers = (0..3).map(|_| Pair { received: vec![] }).collect();
            let mut eng = ShardedEngine::new(handlers, 0.5, 1);
            eng.schedule(0, SimTime::new(offset), Token(9));
            eng.run_until(SimTime::new(offset + 100.0));
            let events = eng.events_handled();
            let logs = eng
                .into_handlers()
                .into_iter()
                .map(|h| h.received)
                .collect();
            (events, logs)
        };
        let (base_events, base_logs) = run(0.0);
        let (off_events, off_logs) = run(5_000.0);
        assert_eq!(base_events, off_events);
        assert!(base_logs[2].is_empty(), "shard 2 stays idle");
        for (base, off) in base_logs.iter().zip(&off_logs) {
            let shifted: Vec<f64> = base.iter().map(|t| t + 5_000.0).collect();
            assert_eq!(&shifted, off, "fingerprint shifted by exactly the offset");
        }
    }

    #[test]
    fn single_shard_matches_unsharded_engine() {
        // the same stochastic workload, same SimRng seed, run once through
        // a 1-shard conservative engine and once through the plain event
        // loop — every observable must agree exactly
        use crate::engine::{Engine, EventHandler, Scheduler};

        struct Solo {
            rng: crate::SimRng,
            sum: f64,
            remaining: u32,
        }
        impl EventHandler for Solo {
            type Event = Poke;
            fn handle(&mut self, now: SimTime, _: Poke, sched: &mut Scheduler<Poke>) {
                self.sum += now.as_f64();
                if self.remaining == 0 {
                    return;
                }
                self.remaining -= 1;
                // mirror Chatter's RNG call sequence exactly: a destination
                // draw (always the own shard when there is only one) then
                // the delay draw
                let _dest = self.rng.below(1);
                sched.schedule_in(self.rng.exp(0.3), Poke);
            }
        }

        let seed = crate::stats::replication_seed(42, 0);
        let mut sharded = ShardedEngine::new(
            vec![Chatter {
                rng: crate::SimRng::seed_from(seed),
                sum: 0.0,
                remaining: 40,
            }],
            0.25,
            1,
        );
        sharded.schedule(0, SimTime::ZERO, Poke);
        sharded.run_until(SimTime::new(200.0));

        let mut plain = Engine::new(Solo {
            rng: crate::SimRng::seed_from(seed),
            sum: 0.0,
            remaining: 40,
        });
        plain.scheduler_mut().schedule_at(SimTime::ZERO, Poke);
        plain.run_until(SimTime::new(200.0));

        assert_eq!(sharded.events_handled(), plain.events_handled());
        let sharded_h = sharded.into_handlers().pop().unwrap();
        let plain_h = plain.handler();
        assert_eq!(sharded_h.remaining, plain_h.remaining);
        assert_eq!(sharded_h.sum, plain_h.sum, "event times agree exactly");
    }
}
