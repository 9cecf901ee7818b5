//! Deterministic, seeded fault injection for the threads-and-channels
//! runtime.
//!
//! A [`FaultPlan`] describes which message faults to inject — drops, delays,
//! duplicates, node-pair partitions, plus a dedicated knob for losing
//! `end`-requests (the paper's placement locks are released by end-requests,
//! so losing them is *the* interesting failure for lease recovery). The
//! plan is installed through `ClusterBuilder::faults`.
//!
//! # Fault model
//!
//! * **Control messages** — invocations, move-requests and end-requests —
//!   are subject to every configured fault, whichever link they travel
//!   (client → node or node → node for forwarded traffic).
//! * **State transfer** — `Create`, `Install` and `Surrender` — is always
//!   reliable, modelling a retransmitting bulk channel: dropping a
//!   linearized object would not be a *message* fault but data loss, which
//!   is out of scope (the paper assumes objects survive migration).
//! * **Partitions** sever node pairs for control traffic in both
//!   directions; the client is not a partitionable endpoint.
//!
//! # Determinism
//!
//! Every decision is a pure hash of `(seed, from, to, link sequence
//! number)`: link counters are incremented under a lock at send time, so a
//! sequential caller produces an identical fault schedule on every run with
//! the same seed. The injector only decides: a traced cluster records each
//! decision that is not a clean delivery as an `EventKind::Fault` in its
//! protocol trace, and an untraced one keeps no record of them.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};

use oml_core::ids::NodeId;

/// The virtual "node id" used for messages originating at the client facade
/// (which is not a cluster node but still owns lossy links to every node).
pub(crate) const CLIENT: u32 = u32::MAX;

/// The SplitMix64 finalizer — the one seeded hash of this crate. Every
/// seeded decision (fault plans, backoff and retry jitter, replica
/// placement) combines its own coordinates into a `u64` and
/// finishes with this, so decisions depend only on seeds and coordinates,
/// never on wall-clock interleaving.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// `hash` as a uniform draw from `[0, 1)`: its top 53 bits.
pub(crate) fn unit_interval(hash: u64) -> f64 {
    (hash >> 11) as f64 / (1u64 << 53) as f64
}

/// The SplitMix64 generator's increment; the invoke-retry jitter steps its
/// atomic state by it.
pub(crate) const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of the SplitMix64 generator over `state` — the reconnect
/// backoff's jitter stream.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix64(*state)
}

/// A seeded description of the faults to inject into a cluster.
///
/// The default plan (any seed, all probabilities zero) injects nothing.
///
/// # Example
///
/// ```
/// use oml_runtime::FaultPlan;
///
/// let plan = FaultPlan::seeded(42)
///     .drop_probability(0.05)
///     .delay_probability(0.2, 10)
///     .duplicate_probability(0.05)
///     .drop_end_requests(0.25);
/// assert_eq!(plan.seed(), 42);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop: f64,
    duplicate: f64,
    delay: f64,
    max_delay_ms: u64,
    drop_end_requests: f64,
    checkpoint_drop: f64,
    checkpoint_duplicate: f64,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            max_delay_ms: 0,
            drop_end_requests: 0.0,
            checkpoint_drop: 0.0,
            checkpoint_duplicate: 0.0,
        }
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn check(p: f64, what: &str) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "{what} probability {p} outside [0, 1]"
        );
        p
    }

    /// Probability that a control message is silently dropped.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    #[must_use]
    pub fn drop_probability(mut self, p: f64) -> Self {
        self.drop = Self::check(p, "drop");
        self
    }

    /// Probability that a control message is delivered twice.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    #[must_use]
    pub fn duplicate_probability(mut self, p: f64) -> Self {
        self.duplicate = Self::check(p, "duplicate");
        self
    }

    /// Probability that a control message is delayed, and the maximum delay
    /// in milliseconds (the actual delay is hash-uniform in
    /// `1..=max_delay_ms`).
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`, or if `p > 0` with a zero maximum.
    #[must_use]
    pub fn delay_probability(mut self, p: f64, max_delay_ms: u64) -> Self {
        self.delay = Self::check(p, "delay");
        assert!(
            p == 0.0 || max_delay_ms > 0,
            "delaying with a zero maximum delay is a no-op"
        );
        self.max_delay_ms = max_delay_ms;
        self
    }

    /// Probability that an `end`-request (specifically) is dropped —
    /// overriding the generic drop probability for end-requests. This is the
    /// knob that exercises lease recovery: a lost end-request leaves its
    /// placement lock held until the lease expires.
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    #[must_use]
    pub fn drop_end_requests(mut self, p: f64) -> Self {
        self.drop_end_requests = Self::check(p, "end-request drop");
        self
    }

    /// Probabilities that replica traffic (`CheckpointPut` and
    /// `CheckpointAck`) is dropped or duplicated. Checkpoint faults use their
    /// own decision stream so enabling them never perturbs the control-
    /// message fault schedule of an existing seed, and they are never
    /// delayed (a late refresh is just a fresh-enough refresh).
    ///
    /// # Panics
    ///
    /// Panics unless both probabilities are in `[0, 1]`.
    #[must_use]
    pub fn checkpoint_faults(mut self, drop_p: f64, duplicate_p: f64) -> Self {
        self.checkpoint_drop = Self::check(drop_p, "checkpoint drop");
        self.checkpoint_duplicate = Self::check(duplicate_p, "checkpoint duplicate");
        self
    }

    fn is_noop(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.delay == 0.0
            && self.drop_end_requests == 0.0
    }
}

/// What the injector decided for one message: its fate, and its sequence
/// number on its link if it drew one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Delivery {
    pub(crate) fate: Fate,
    pub(crate) seq: Option<u64>,
}

/// What becomes of one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Deliver `copies` copies (1 normally, 2 when duplicated), after
    /// `delay_ms` milliseconds (0 = immediately).
    Deliver { copies: u8, delay_ms: u64 },
    /// The plan's drop draw lost it.
    Drop,
    /// A partition severed its link.
    PartitionDrop,
}

impl Fate {
    const CLEAN: Fate = Fate::Deliver {
        copies: 1,
        delay_ms: 0,
    };

    /// This fate, for a message that drew link sequence number `seq`.
    fn drawn(self, seq: u64) -> Delivery {
        Delivery {
            fate: self,
            seq: Some(seq),
        }
    }

    /// This fate, for a message decided without a draw.
    fn undrawn(self) -> Delivery {
        Delivery {
            fate: self,
            seq: None,
        }
    }
}

/// The per-cluster fault decision engine. All state is internally
/// synchronized; workers and the client facade share one injector.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    /// Per-(from, to) link sequence counters.
    seqs: Mutex<HashMap<(u32, u32), u64>>,
    /// Separate link counters for checkpoint traffic — refresh fan-out is
    /// timing-dependent (lease sweeps), so it must not consume control-
    /// message sequence numbers or the control fault schedule would stop
    /// being reproducible per seed.
    ckpt_seqs: Mutex<HashMap<(u32, u32), u64>>,
    /// Severed node pairs, stored normalized (low, high).
    partitions: Mutex<HashSet<(u32, u32)>>,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            seqs: Mutex::new(HashMap::new()),
            ckpt_seqs: Mutex::new(HashMap::new()),
            partitions: Mutex::new(HashSet::new()),
        }
    }

    fn normalize(a: NodeId, b: NodeId) -> (u32, u32) {
        let (a, b) = (a.as_u32(), b.as_u32());
        (a.min(b), a.max(b))
    }

    pub(crate) fn partition(&self, a: NodeId, b: NodeId) {
        self.partitions.lock().insert(Self::normalize(a, b));
    }

    /// Heals the `a`–`b` partition; whether there was one.
    pub(crate) fn heal(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions.lock().remove(&Self::normalize(a, b))
    }

    /// Heals every partition; the pairs it healed, in order.
    pub(crate) fn heal_all(&self) -> Vec<(NodeId, NodeId)> {
        let mut healed: Vec<(u32, u32)> = self.partitions.lock().drain().collect();
        healed.sort_unstable();
        (healed.into_iter())
            .map(|(a, b)| (NodeId::new(a), NodeId::new(b)))
            .collect()
    }

    pub(crate) fn is_partitioned(&self, from: u32, to: u32) -> bool {
        if from == CLIENT {
            return false;
        }
        self.partitions
            .lock()
            .contains(&Self::normalize(NodeId::new(from), NodeId::new(to)))
    }

    /// Whether `node` is an endpoint of any active partition — the failure
    /// detector's view: a partitioned node is *suspected* (its peers stop
    /// hearing from it) but never declared dead (it is still running).
    pub(crate) fn is_isolated(&self, node: u32) -> bool {
        self.partitions
            .lock()
            .iter()
            .any(|&(a, b)| a == node || b == node)
    }

    /// Decides the fate of one control message on the `from → to` link.
    pub(crate) fn decide(&self, from: u32, to: u32, is_end: bool) -> Delivery {
        if self.plan.is_noop() && self.partitions.lock().is_empty() {
            return Fate::CLEAN.undrawn();
        }
        let seq = Self::next_seq(&self.seqs, from, to);
        if self.is_partitioned(from, to) {
            return Fate::PartitionDrop.drawn(seq);
        }
        let p_drop = if is_end {
            self.plan.drop_end_requests
        } else {
            self.plan.drop
        };
        if self.chance(from, to, seq, 1, p_drop) {
            return Fate::Drop.drawn(seq);
        }
        let copies = if self.chance(from, to, seq, 2, self.plan.duplicate) {
            2
        } else {
            1
        };
        let delay_ms = if self.chance(from, to, seq, 3, self.plan.delay) {
            1 + self.hash(from, to, seq, 4) % self.plan.max_delay_ms.max(1)
        } else {
            0
        };
        Fate::Deliver { copies, delay_ms }.drawn(seq)
    }

    /// Decides the fate of one checkpoint message (`CheckpointPut` or
    /// `CheckpointAck`) on the `from → to` link, from a stream of its own:
    /// checkpoint traffic is driven by lease-sweep timing, so it must not
    /// consume control-message sequence numbers. Partitions still apply,
    /// before any draw; drops and duplicates come from the dedicated
    /// checkpoint knobs.
    pub(crate) fn decide_checkpoint(&self, from: u32, to: u32) -> Delivery {
        if self.is_partitioned(from, to) {
            return Fate::PartitionDrop.undrawn();
        }
        if self.plan.checkpoint_drop == 0.0 && self.plan.checkpoint_duplicate == 0.0 {
            return Fate::CLEAN.undrawn();
        }
        let seq = Self::next_seq(&self.ckpt_seqs, from, to);
        if self.chance(from, to, seq, 11, self.plan.checkpoint_drop) {
            return Fate::Drop.drawn(seq);
        }
        let copies = if self.chance(from, to, seq, 12, self.plan.checkpoint_duplicate) {
            2
        } else {
            1
        };
        Fate::Deliver {
            copies,
            delay_ms: 0,
        }
        .drawn(seq)
    }

    /// Takes the next sequence number of the `from → to` link in `seqs`.
    fn next_seq(seqs: &Mutex<HashMap<(u32, u32), u64>>, from: u32, to: u32) -> u64 {
        let mut seqs = seqs.lock();
        let c = seqs.entry((from, to)).or_insert(0);
        let seq = *c;
        *c += 1;
        seq
    }

    fn hash(&self, from: u32, to: u32, seq: u64, salt: u64) -> u64 {
        // the combined identity: decisions depend only on the seed and the
        // message's link coordinates
        mix64(
            self.plan
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(u64::from(from) << 32 | u64::from(to))
                .wrapping_add(seq.wrapping_mul(0xbf58_476d_1ce4_e5b9))
                .wrapping_add(salt.wrapping_mul(0x94d0_49bb_1331_11eb)),
        )
    }

    fn chance(&self, from: u32, to: u32, seq: u64, salt: u64, p: f64) -> bool {
        p > 0.0 && unit_interval(self.hash(from, to, seq, salt)) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivered(d: Delivery) -> bool {
        matches!(d.fate, Fate::Deliver { .. })
    }

    #[test]
    fn default_plan_is_transparent() {
        let inj = FaultInjector::new(FaultPlan::seeded(7));
        for _ in 0..100 {
            assert_eq!(inj.decide(CLIENT, 0, false), Fate::CLEAN.undrawn());
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_seq() {
        let run = |seed: u64| {
            let inj = FaultInjector::new(
                FaultPlan::seeded(seed)
                    .drop_probability(0.2)
                    .duplicate_probability(0.2)
                    .delay_probability(0.2, 10),
            );
            (0..200)
                .map(|_| inj.decide(0, 1, false))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn drop_rate_tracks_the_probability() {
        let inj = FaultInjector::new(FaultPlan::seeded(11).drop_probability(0.3));
        let n = 10_000;
        let dropped = (0..n)
            .filter(|_| inj.decide(0, 1, false).fate == Fate::Drop)
            .count();
        let rate = dropped as f64 / f64::from(n);
        assert!((rate - 0.3).abs() < 0.03, "rate {rate}");
    }

    #[test]
    fn end_requests_use_their_own_drop_probability() {
        let inj = FaultInjector::new(FaultPlan::seeded(5).drop_end_requests(1.0));
        // non-end messages sail through…
        assert!(delivered(inj.decide(CLIENT, 0, false)));
        // …end-requests always drop, each under its own link seq
        assert_eq!(inj.decide(CLIENT, 0, true), Fate::Drop.drawn(1));
    }

    #[test]
    fn partitions_cut_both_directions_and_heal() {
        let inj = FaultInjector::new(FaultPlan::seeded(0));
        inj.partition(NodeId::new(0), NodeId::new(1));
        // a partition drop is told from a plan drop, and draws a seq
        assert_eq!(inj.decide(0, 1, false), Fate::PartitionDrop.drawn(0));
        assert_eq!(inj.decide(1, 0, false), Fate::PartitionDrop.drawn(0));
        // other links unaffected; the client cannot be partitioned
        assert!(delivered(inj.decide(0, 2, false)));
        assert!(delivered(inj.decide(CLIENT, 1, false)));
        assert!(inj.heal(NodeId::new(1), NodeId::new(0))); // order-insensitive
        assert!(!inj.heal(NodeId::new(1), NodeId::new(0)), "healed once");
        // nothing left to decide: no draw
        assert_eq!(inj.decide(0, 1, false), Fate::CLEAN.undrawn());
    }

    #[test]
    fn isolation_tracks_partition_membership() {
        let inj = FaultInjector::new(FaultPlan::seeded(0));
        assert!(!inj.is_isolated(0));
        inj.partition(NodeId::new(2), NodeId::new(0));
        inj.partition(NodeId::new(1), NodeId::new(0));
        assert!(inj.is_isolated(0));
        assert!(inj.is_isolated(2));
        assert!(!inj.is_isolated(3));
        let n = NodeId::new;
        assert_eq!(inj.heal_all(), [(n(0), n(1)), (n(0), n(2))]);
        assert!(!inj.is_isolated(0));
        assert_eq!(inj.heal_all(), []);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn probabilities_are_validated() {
        let _ = FaultPlan::seeded(0).drop_probability(1.5);
    }

    #[test]
    fn checkpoint_faults_draw_an_independent_stream() {
        let inj = FaultInjector::new(FaultPlan::seeded(9).checkpoint_faults(0.5, 0.0));
        let n = 2_000;
        let dropped = (0..n)
            .filter(|_| inj.decide_checkpoint(0, 1).fate == Fate::Drop)
            .count();
        let rate = dropped as f64 / f64::from(n);
        assert!((rate - 0.5).abs() < 0.05, "rate {rate}");
        // independent stream: control decisions are untouched by the
        // checkpoint knobs (no control faults configured), and the link's
        // control seq was not consumed
        assert_eq!(inj.decide(0, 1, false), Fate::CLEAN.undrawn());
        assert_eq!(inj.decide_checkpoint(0, 1).seq, Some(2_000));
    }

    #[test]
    fn checkpoint_traffic_respects_partitions() {
        let inj = FaultInjector::new(FaultPlan::seeded(0));
        inj.partition(NodeId::new(0), NodeId::new(1));
        // stopped before any draw
        let cut = Fate::PartitionDrop.undrawn();
        assert_eq!(inj.decide_checkpoint(0, 1), cut);
        assert_eq!(inj.decide_checkpoint(1, 0), cut);
        assert!(delivered(inj.decide_checkpoint(0, 2)));
    }

    #[test]
    fn checkpoint_duplication_delivers_two_copies() {
        let inj = FaultInjector::new(FaultPlan::seeded(1).checkpoint_faults(0.0, 1.0));
        assert_eq!(
            inj.decide_checkpoint(0, 1),
            Fate::Deliver {
                copies: 2,
                delay_ms: 0
            }
            .drawn(0)
        );
    }

    /// The first outcomes of every seeded stream in this crate, captured at
    /// the commit before its six hand-written SplitMix64 finalizers became
    /// [`mix64`] (the retry-jitter stream is pinned next to its owner, in
    /// `cluster.rs`). A shifted stream changes which message a chaos seed
    /// drops: any difference here is a break, not a refactor.
    #[test]
    fn seeded_streams_match_their_pinned_values() {
        use crate::transport::backoff::{Backoff, BackoffConfig};
        let show = |d: Delivery| match d.fate {
            Fate::Drop | Fate::PartitionDrop => "x".to_owned(),
            Fate::Deliver { copies, delay_ms } => format!("{copies}:{delay_ms}"),
        };
        let inj = FaultInjector::new(
            FaultPlan::seeded(0xC0A5)
                .drop_probability(0.2)
                .duplicate_probability(0.2)
                .delay_probability(0.2, 10)
                .checkpoint_faults(0.2, 0.2),
        );
        let decide = |from, to| {
            let line: Vec<String> = (0..64).map(|_| show(inj.decide(from, to, false))).collect();
            line.join(" ")
        };
        assert_eq!(
            decide(0, 1),
            "1:0 1:0 x x 1:0 1:5 x 1:0 2:9 x 1:0 2:0 1:0 2:4 1:0 1:0 x 2:3 x 1:0 2:0 2:0 1:2 \
             1:0 2:0 2:0 1:0 x x 2:0 1:8 1:0 x 1:1 1:0 1:0 1:0 2:0 2:0 1:0 x 1:0 1:10 x x 1:0 x \
             1:0 1:0 1:0 x x 1:0 1:0 1:0 1:0 x 2:0 x x x x 1:0 x"
        );
        assert_eq!(
            decide(CLIENT, 2),
            "1:0 1:0 2:0 1:0 1:10 1:1 x x 1:0 1:0 1:0 x 1:0 x 1:0 2:0 1:0 1:6 1:0 1:0 1:0 1:1 x \
             1:0 2:0 x 1:10 1:0 1:0 2:0 1:0 1:0 2:1 1:0 1:0 2:5 1:0 x 1:0 1:0 x 1:10 1:0 1:0 1:0 \
             1:9 2:0 1:0 1:0 1:0 1:0 1:1 2:0 x 2:5 x x 2:0 x 1:0 1:0 x 1:0 1:0"
        );
        let ckpt: Vec<String> = (0..32).map(|_| show(inj.decide_checkpoint(0, 1))).collect();
        assert_eq!(
            ckpt.join(" "),
            "1:0 2:0 1:0 1:0 1:0 1:0 x 1:0 1:0 x 1:0 1:0 1:0 1:0 x x 2:0 1:0 1:0 1:0 1:0 1:0 \
             1:0 1:0 1:0 1:0 2:0 1:0 x 1:0 x 1:0"
        );

        let mut backoff = Backoff::new(BackoffConfig::default());
        let delays: Vec<u64> = (0..16).map(|_| backoff.next_delay_ms()).collect();
        assert_eq!(
            delays,
            [5, 13, 31, 74, 132, 243, 590, 928, 1778, 1179, 1511, 1829, 1631, 1503, 1851, 1765]
        );

        // replica placement of objects 0..16 on 5 nodes, home = object % 5
        let orders: Vec<String> = (0..16u32)
            .map(|o| {
                let home = NodeId::new(o % 5);
                crate::recovery::preference_order(oml_core::ids::ObjectId::new(o), home, 5)
                    .iter()
                    .map(|n| n.as_u32().to_string())
                    .collect()
            })
            .collect();
        assert_eq!(
            orders.join(" "),
            "02143 10234 23014 34102 40132 03124 12403 23401 30412 40213 04312 10432 20134 \
             32104 43102 03124"
        );
    }
}
