//! The closed loop every workload runs in: two client threads, each sending
//! its next operation when the previous one returns; a fixed-count warm-up;
//! then short windows of measured operations, of which the *fastest* two
//! are reported. Also the span recorder the traced run uses.
//!
//! Why the fastest windows. The development host is a small shared VM, and
//! what it shares shows as one-sided interference: between 10 % and 90 % of
//! a run's windows complete 5–30 % fewer operations than the rest, the
//! share drifting from minute to minute, while the fastest windows of every
//! run agree within 1–2 %. A median over windows therefore reports the
//! neighbours (its spread over ten runs was 5–15 %); the two windows with
//! the most completed operations — the clean set — report the program. Throughput, latency quantiles and CPU time per operation are
//! all taken from that set, so they describe the same stretch of execution.

use crate::cputime::CpuClock;
use crate::hist::{median, Histogram};
use crate::{alloc, procfs};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Closed-loop client threads: one per core of the 2-core development host.
pub const CLIENTS: usize = 2;

/// Windows in the clean set. Two, not one, so the slowest workload's set
/// still holds enough latencies for a 95th percentile; not more, because in
/// the host's bad quarters of an hour a 20-second run has few clean windows
/// to offer (with eight, three runs in ten came out 5-15 % slow).
const CLEAN_WINDOWS: usize = 2;

/// Raw spans kept per client for `trace.json`; every span past this still
/// feeds the per-kind histograms.
const SPANS_KEPT: usize = 1 << 12;

/// What the harness times around its own calls into the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The whole operation (root span).
    Op,
    Invoke,
    MoveRequest,
    /// The invocations inside a move block or after a migration.
    Work,
    End,
    Migrate,
}

impl SpanKind {
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Op,
        SpanKind::Invoke,
        SpanKind::MoveRequest,
        SpanKind::Work,
        SpanKind::End,
        SpanKind::Migrate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Op => "op",
            SpanKind::Invoke => "invoke",
            SpanKind::MoveRequest => "move_request",
            SpanKind::Work => "work",
            SpanKind::End => "end",
            SpanKind::Migrate => "migrate",
        }
    }
}

/// Where an operation reports its child spans. The untraced implementation
/// is empty and `ON` is a constant, so the measured loop carries no trace
/// of the tracing.
pub trait Tracer {
    const ON: bool;
    /// The operation whose spans follow.
    fn begin_op(&mut self, _op: usize) {}
    fn child(&mut self, kind: SpanKind, start: Instant, end: Instant);
}

pub struct NoTrace;

impl Tracer for NoTrace {
    const ON: bool = false;
    fn child(&mut self, _: SpanKind, _: Instant, _: Instant) {}
}

/// A span boundary: the current time when tracing, else `prev` for free.
#[inline]
pub fn tick<T: Tracer>(prev: Instant) -> Instant {
    if T::ON {
        Instant::now()
    } else {
        prev
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Operation index within its client: the identifier a root span and
    /// its children share.
    pub op: u64,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// One client's span recorder. All storage is allocated up front.
pub struct SpanTrace {
    origin: Instant,
    op: u64,
    pub spans: Vec<Span>,
    pub by_kind: Vec<Histogram>,
}

impl SpanTrace {
    fn new(origin: Instant) -> Self {
        SpanTrace {
            origin,
            op: 0,
            spans: Vec::with_capacity(SPANS_KEPT),
            by_kind: SpanKind::ALL.iter().map(|_| Histogram::new()).collect(),
        }
    }
}

impl Tracer for SpanTrace {
    const ON: bool = true;

    fn begin_op(&mut self, op: usize) {
        self.op = op as u64;
    }

    fn child(&mut self, kind: SpanKind, start: Instant, end: Instant) {
        let dur_ns = (end - start).as_nanos() as u64;
        self.by_kind[kind as usize].record(dur_ns);
        if self.spans.len() < SPANS_KEPT {
            self.spans.push(Span {
                op: self.op,
                kind,
                start_ns: (start - self.origin).as_nanos() as u64,
                dur_ns,
            });
        }
    }
}

/// Public counters of the runtime, read before and after the measured
/// windows; a workload leaves at zero what its cluster does not have.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub moves_granted: u64,
    pub moves_denied: u64,
    pub objects_migrated: u64,
    pub forwards: u64,
    pub retries: u64,
    pub ckpt_refreshes: u64,
    pub quorum_failures: u64,
    pub deliveries: u64,
    pub wal_appended: u64,
    pub wal_syncs: u64,
    pub wal_compactions: u64,
    /// Records and bytes in the live WAL segment (reset by a compaction);
    /// their ratio is the mean record size.
    pub wal_live_records: u64,
    pub wal_live_bytes: u64,
}

/// One benchmark workload: a running cluster plus the operation clients
/// issue against it.
pub trait Workload: Sync {
    /// A client thread's own state: its generated inputs and the tallies
    /// the output check compares against.
    type Client: Send;

    /// Length of one measured window: short, so that some windows escape
    /// the host's interference, yet thousands of operations long.
    const WINDOW: Duration;

    /// Operations each client issues before timing starts (fixed, so
    /// set-up time measures the same work on every commit).
    fn warmup_ops(&self) -> usize;

    fn client(&self, index: usize) -> Self::Client;

    /// Issues operation `i` of `client`, which started at `start`; `false`
    /// if the runtime returned an error or an output check failed.
    fn op<T: Tracer>(
        &self,
        client: &mut Self::Client,
        i: usize,
        start: Instant,
        tracer: &mut T,
    ) -> bool;

    /// Housekeeping an operator would do while the system runs; called by
    /// one client between two operations at every window boundary.
    fn on_window(&self) {}

    fn counters(&self) -> Counters;

    /// Worker processes whose CPU time and memory belong to this workload.
    fn worker_pids(&self) -> Vec<u32>;

    /// Final output checks and orderly teardown.
    fn finish(self, clients: Vec<Self::Client>) -> Result<(), String>;
}

/// One measured window, or several merged: all clients together.
pub struct Window {
    pub ops: u64,
    pub failed: u64,
    pub latency: Histogram,
    /// CPU time of the harness process and the workers, ns.
    pub cpu_ns: u64,
}

/// A subset of a phase's windows: every window of an end-to-end run; in a
/// traced run the even windows ran without spans and the odd ones with, so
/// both halves saw the same weather on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    Untraced,
    Traced,
}

/// What the measured windows of one run produced.
pub struct Phase {
    pub window: Duration,
    pub windows: Vec<Window>,
    /// Whether odd windows recorded spans.
    pub alternating: bool,
    pub spans: Vec<SpanTrace>,
    pub voluntary_switches: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub counters: Counters,
}

impl Phase {
    pub fn part(&self, part: Part) -> Vec<&Window> {
        let wanted = |index: usize| match part {
            Part::Untraced => !self.alternating || index.is_multiple_of(2),
            Part::Traced => self.alternating && index % 2 == 1,
        };
        self.windows
            .iter()
            .enumerate()
            .filter_map(|(index, window)| wanted(index).then_some(window))
            .collect()
    }

    /// Operations completed and failed in every window, traced or not.
    pub fn totals(&self) -> (u64, u64) {
        self.windows
            .iter()
            .fold((0, 0), |(ops, failed), w| (ops + w.ops, failed + w.failed))
    }

    /// The clean set of `part` — its windows that completed the most
    /// operations — merged into one, and how many windows that is.
    pub fn clean(&self, part: Part) -> (Window, usize) {
        let mut order = self.part(part);
        order.sort_by_key(|w| std::cmp::Reverse(w.ops));
        order.truncate(CLEAN_WINDOWS);
        let mut merged = Window {
            ops: 0,
            failed: 0,
            latency: Histogram::new(),
            cpu_ns: 0,
        };
        for window in &order {
            merged.ops += window.ops;
            merged.failed += window.failed;
            merged.latency.merge(&window.latency);
            merged.cpu_ns += window.cpu_ns;
        }
        (merged, order.len())
    }

    /// Completed operations per second over the clean set of `part`.
    pub fn ops_per_s(&self, part: Part) -> f64 {
        let (clean, windows) = self.clean(part);
        clean.ops as f64 / (self.window.as_secs_f64() * windows.max(1) as f64)
    }

    /// The same over all windows of `part`, as a median: what the host let
    /// through.
    pub fn median_ops_per_s(&self, part: Part) -> f64 {
        let rates: Vec<f64> = self
            .part(part)
            .iter()
            .map(|w| w.ops as f64 / self.window.as_secs_f64())
            .collect();
        median(&rates)
    }

    /// Share of `part`'s windows within 5 % of its fastest: how quiet the
    /// host was.
    pub fn quiet_share(&self, part: Part) -> f64 {
        let windows = self.part(part);
        let fastest = windows.iter().map(|w| w.ops).max().unwrap_or(0);
        let quiet = windows
            .iter()
            .filter(|w| w.ops as f64 >= fastest as f64 * 0.95)
            .count();
        quiet as f64 / windows.len().max(1) as f64
    }
}

pub struct RunResult {
    /// Process start (as the parent stamped it) to the first measured
    /// window.
    pub setup_s: f64,
    pub warmup_failed: u64,
    /// `None` for a set-up-only run.
    pub phase: Option<Phase>,
    /// Σ `VmHWM` of this process and the workers, KiB, before teardown.
    pub peak_rss_kib: u64,
    pub check: Result<(), String>,
}

pub struct Plan {
    /// Unix time, ns, at which the parent started this process.
    pub started_unix_ns: u128,
    /// Seconds of measured windows; 0 for a set-up-only run.
    pub seconds: usize,
    /// Record spans in every other window.
    pub traced: bool,
}

struct ClientWindow {
    ops: u32,
    failed: u32,
    latency: Histogram,
}

struct ClientRecord {
    windows: Vec<ClientWindow>,
    /// Cumulative CPU time at the start of each window and at the end of
    /// the last, ns; kept by client 0 only.
    cpu_marks: Vec<u64>,
}

/// The CPU-time clocks of this process and the workload's workers.
struct CpuClocks(Vec<CpuClock>);

impl CpuClocks {
    fn of<W: Workload>(w: &W) -> Self {
        let pids = std::iter::once(std::process::id()).chain(w.worker_pids());
        CpuClocks(pids.filter_map(CpuClock::of).collect())
    }

    fn now_ns(&self) -> u64 {
        self.0.iter().map(|clock| clock.now_ns()).sum()
    }
}

struct Snapshot {
    voluntary_switches: u64,
    allocs: (u64, u64),
    counters: Counters,
}

fn snapshot<W: Workload>(w: &W) -> Snapshot {
    Snapshot {
        voluntary_switches: procfs::voluntary_switches(),
        allocs: alloc::snapshot(),
        counters: w.counters(),
    }
}

fn counters_delta(a: &Counters, b: &Counters) -> Counters {
    Counters {
        moves_granted: b.moves_granted - a.moves_granted,
        moves_denied: b.moves_denied - a.moves_denied,
        objects_migrated: b.objects_migrated - a.objects_migrated,
        forwards: b.forwards - a.forwards,
        retries: b.retries - a.retries,
        ckpt_refreshes: b.ckpt_refreshes - a.ckpt_refreshes,
        quorum_failures: b.quorum_failures - a.quorum_failures,
        deliveries: b.deliveries - a.deliveries,
        wal_appended: b.wal_appended - a.wal_appended,
        wal_syncs: b.wal_syncs - a.wal_syncs,
        wal_compactions: b.wal_compactions - a.wal_compactions,
        wal_live_records: b.wal_live_records,
        wal_live_bytes: b.wal_live_bytes,
    }
}

/// The measured loop of one client: operations back to back until the last
/// window closes. The operation in flight at that moment still completes
/// (and is tallied by the client for the output check) but is not counted.
/// With a recording tracer, only operations that start in an odd window are
/// traced. `clocks` is given to the one client that keeps the windows' CPU
/// marks and does the workload's housekeeping.
fn measure<W: Workload, T: Tracer>(
    w: &W,
    client: &mut W::Client,
    next: &mut usize,
    origin: Instant,
    windows: usize,
    tracer: &mut T,
    clocks: Option<&CpuClocks>,
) -> ClientRecord {
    let mut record = ClientRecord {
        windows: (0..windows)
            .map(|_| ClientWindow {
                ops: 0,
                failed: 0,
                latency: Histogram::new(),
            })
            .collect(),
        cpu_marks: Vec::with_capacity(windows + 1),
    };
    let mark = |record: &mut ClientRecord, upto: usize| {
        if let Some(clocks) = clocks {
            // a window this client completed nothing in gets no CPU time
            // of its own: it cannot be among the fastest
            let now = clocks.now_ns();
            while record.cpu_marks.len() <= upto {
                record.cpu_marks.push(now);
            }
        }
    };
    mark(&mut record, 0);
    let mut current = 0usize;
    let mut start = Instant::now();
    loop {
        // `T::ON` is a constant: the end-to-end loop has no branch here
        let traced = T::ON && current % 2 == 1;
        let ok = if traced {
            tracer.begin_op(*next);
            w.op(client, *next, start, tracer)
        } else {
            w.op(client, *next, start, &mut NoTrace)
        };
        let end = Instant::now();
        *next += 1;
        let window = ((end - origin).as_nanos() / W::WINDOW.as_nanos()) as usize;
        if window != current {
            current = window;
            mark(&mut record, window.min(windows));
            if clocks.is_some() {
                w.on_window();
            }
        }
        let Some(slot) = record.windows.get_mut(window) else {
            return record;
        };
        slot.latency.record((end - start).as_nanos() as u64);
        slot.ops += 1;
        slot.failed += u32::from(!ok);
        if traced {
            tracer.child(SpanKind::Op, start, end);
        }
        start = end;
    }
}

/// Runs `w` through warm-up and the planned windows, then its output checks.
pub fn run<W: Workload>(w: W, plan: &Plan) -> RunResult {
    let windows =
        (Duration::from_secs(plan.seconds as u64).as_nanos() / W::WINDOW.as_nanos()) as usize;
    // clients + this thread, which takes the snapshots while they wait
    let barrier = Barrier::new(CLIENTS + 1);
    let origin: OnceLock<Instant> = OnceLock::new();
    let clocks = CpuClocks::of(&w);
    let mut setup_s = 0.0;
    let mut snapshots: Option<(Snapshot, Snapshot)> = None;

    type ClientOut<C> = (C, u64, Option<(ClientRecord, Option<SpanTrace>)>);
    let outs: Vec<ClientOut<W::Client>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (w, barrier, origin) = (&w, &barrier, &origin);
                let clocks = (c == 0).then_some(&clocks);
                s.spawn(move || {
                    let mut client = w.client(c);
                    let mut next = 0usize;
                    let mut warmup_failed = 0u64;
                    for _ in 0..w.warmup_ops() {
                        let ok = w.op(&mut client, next, Instant::now(), &mut NoTrace);
                        warmup_failed += u64::from(!ok);
                        next += 1;
                    }
                    barrier.wait(); // warm-up done
                    if windows == 0 {
                        return (client, warmup_failed, None);
                    }
                    barrier.wait(); // snapshot taken, origin set
                    let origin = *origin.get().expect("set before the barrier");
                    let mut tracer = plan.traced.then(|| SpanTrace::new(origin));
                    let record = match &mut tracer {
                        Some(t) => measure(w, &mut client, &mut next, origin, windows, t, clocks),
                        None => measure(
                            w,
                            &mut client,
                            &mut next,
                            origin,
                            windows,
                            &mut NoTrace,
                            clocks,
                        ),
                    };
                    let measured = (record, tracer);
                    barrier.wait(); // windows done
                    (client, warmup_failed, Some(measured))
                })
            })
            .collect();

        barrier.wait(); // warm-up done
        let since_start = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        setup_s = since_start.saturating_sub(plan.started_unix_ns) as f64 / 1e9;
        if windows > 0 {
            let before = snapshot(&w);
            origin.set(Instant::now()).expect("set once");
            barrier.wait(); // go
            barrier.wait(); // windows done
            snapshots = Some((before, snapshot(&w)));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("a client panic exits the process in its hook")
            })
            .collect()
    });

    let pids = std::iter::once(std::process::id()).chain(w.worker_pids());
    let peak_rss_kib = pids.filter_map(procfs::vm_hwm_kib).sum();

    let mut clients = Vec::new();
    let mut warmup_failed = 0;
    let mut records = Vec::new();
    let mut spans = Vec::new();
    for (client, failed, measured) in outs {
        clients.push(client);
        warmup_failed += failed;
        if let Some((record, tracer)) = measured {
            records.push(record);
            spans.extend(tracer);
        }
    }
    let phase = snapshots.map(|(before, after)| {
        // client 0 kept the CPU marks, one more than there are windows
        let mut merged: Vec<Window> = records[0]
            .cpu_marks
            .windows(2)
            .map(|pair| Window {
                ops: 0,
                failed: 0,
                latency: Histogram::new(),
                cpu_ns: pair[1] - pair[0],
            })
            .collect();
        for record in &records {
            for (total, own) in merged.iter_mut().zip(&record.windows) {
                total.ops += u64::from(own.ops);
                total.failed += u64::from(own.failed);
                total.latency.merge(&own.latency);
            }
        }
        Phase {
            window: W::WINDOW,
            windows: merged,
            alternating: plan.traced,
            spans,
            voluntary_switches: after.voluntary_switches - before.voluntary_switches,
            allocs: after.allocs.0 - before.allocs.0,
            alloc_bytes: after.allocs.1 - before.allocs.1,
            counters: counters_delta(&before.counters, &after.counters),
        }
    });
    let check = w.finish(clients);
    RunResult {
        setup_s,
        warmup_failed,
        phase,
        peak_rss_kib,
        check,
    }
}

/// Polls `done` until it holds or `timeout` passes; for the few places a
/// check has to wait for an asynchronous message to land.
pub fn wait_until(timeout: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(ops: u64, latency_ns: u64) -> Window {
        let mut latency = Histogram::new();
        for _ in 0..ops {
            latency.record(latency_ns);
        }
        Window {
            ops,
            failed: 0,
            latency,
            cpu_ns: ops * 1_000,
        }
    }

    #[test]
    fn clean_set_is_the_fastest_windows_merged() {
        // a disturbed host: most windows slow, with slow operations in them
        let mut phase = Phase {
            window: Duration::from_millis(100),
            windows: vec![
                window(700, 30_000),
                window(1000, 20_000),
                window(650, 31_000),
                window(980, 20_400),
                window(720, 29_000),
            ],
            alternating: false,
            spans: Vec::new(),
            voluntary_switches: 0,
            allocs: 0,
            alloc_bytes: 0,
            counters: Counters::default(),
        };
        let (clean, windows) = phase.clean(Part::Untraced);
        assert_eq!((clean.ops, windows), (1980, 2));
        assert_eq!(clean.cpu_ns, 1_980_000);
        assert_eq!(clean.latency.count(), 1980);
        assert!((phase.ops_per_s(Part::Untraced) - 9900.0).abs() < 1e-9);
        assert!((phase.median_ops_per_s(Part::Untraced) - 7200.0).abs() < 1e-9);
        // the slow windows' latencies are not in it
        assert!(clean.latency.quantile(0.99) < 21_000.0);
        assert!((phase.quiet_share(Part::Untraced) - 0.4).abs() < 1e-9);
        assert!(phase.part(Part::Traced).is_empty());
        assert_eq!(phase.totals(), (4050, 0));

        // a traced run: even windows untraced, odd windows traced
        phase.alternating = true;
        assert_eq!(phase.clean(Part::Untraced).0.ops, 700 + 720);
        assert_eq!(phase.clean(Part::Traced).0.ops, 1000 + 980);
    }
}
