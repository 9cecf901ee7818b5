//! Output metrics of a simulation run.
//!
//! The paper's figures are all built from three quantities:
//!
//! * the **mean duration of one call** (Fig. 10) — issue to result,
//!   including blocking on in-transit objects,
//! * the **mean migration time per call** (Fig. 11) — migration durations
//!   "evenly distributed to the invocations belonging to that migration",
//! * their sum plus control-message overhead, the **mean communication time
//!   per call** (Figs. 8, 12, 14, 16).

use oml_des::stats::{BatchMeans, ConfidenceInterval, OnlineStats, P2Quantile, StoppingRule};
use serde::{Deserialize, Serialize};

/// Counters and accumulators produced by a run.
#[derive(Debug, Clone)]
pub struct SimMetrics {
    /// Completed invocations (after warm-up).
    pub calls: u64,
    /// Sum of call durations (issue → result).
    pub total_call_time: f64,
    /// Sum of migration transfer latencies experienced by the system (one
    /// `M · max-size` per migration; closure members travel in parallel).
    pub total_migration_time: f64,
    /// Sum of per-object transfer work (`M · size` for every object moved —
    /// `k·M` for a closure of `k`). The gap between this and
    /// `total_migration_time` is exactly the §2.4 underestimation: movers
    /// pay for objects other applications attached.
    pub total_transfer_load: f64,
    /// Sum of control-message durations clients spent waiting on
    /// move-requests and denial indications.
    pub total_control_time: f64,
    /// Move-requests issued (after warm-up).
    pub moves_issued: u64,
    /// Move-requests granted.
    pub moves_granted: u64,
    /// Move-requests denied.
    pub moves_denied: u64,
    /// Migrations performed (closure moves count once).
    pub migrations: u64,
    /// Objects physically moved (sum of closure sizes actually in transit).
    pub objects_migrated: u64,
    /// Migration cost not attributable to any block (policy-initiated
    /// reinstantiation migrations).
    pub unattributed_migration_time: f64,
    /// Move-blocks completed.
    pub blocks_completed: u64,
    /// Extra forwarding hops taken by messages that chased a moved object.
    pub forward_hops: u64,
    /// Calls that had to block on an in-transit object at least once.
    pub blocked_calls: u64,
    /// Per-call communication-time samples (call duration plus the block's
    /// amortized migration and control overhead), feeding the stopping rule.
    pub samples: BatchMeans,
    /// Raw per-call durations (Fig. 10's quantity) as a distribution.
    pub call_durations: OnlineStats,
    /// Online 95th percentile of call durations — the tail the blocking on
    /// in-transit objects produces.
    pub call_p95: P2Quantile,
    /// Per-client communication-time distributions — the §2.4 "egoistic
    /// implementor" diagnostic: who wins and who pays under each policy.
    pub per_client_comm: Vec<OnlineStats>,
}

impl SimMetrics {
    /// Creates empty metrics with the given batch size for the stopping rule.
    #[must_use]
    pub fn new(batch_size: u64) -> Self {
        SimMetrics {
            calls: 0,
            total_call_time: 0.0,
            total_migration_time: 0.0,
            total_transfer_load: 0.0,
            total_control_time: 0.0,
            moves_issued: 0,
            moves_granted: 0,
            moves_denied: 0,
            migrations: 0,
            objects_migrated: 0,
            unattributed_migration_time: 0.0,
            blocks_completed: 0,
            forward_hops: 0,
            blocked_calls: 0,
            samples: BatchMeans::new(batch_size),
            call_durations: OnlineStats::new(),
            call_p95: P2Quantile::new(0.95),
            per_client_comm: Vec::new(),
        }
    }

    /// Resizes the per-client accumulators (called once at world build).
    pub(crate) fn init_clients(&mut self, clients: usize) {
        self.per_client_comm = vec![OnlineStats::new(); clients];
    }

    /// Mean communication time per call of one client, or 0 if it completed
    /// no calls.
    #[must_use]
    pub fn client_comm_time(&self, client: usize) -> f64 {
        self.per_client_comm
            .get(client)
            .map_or(0.0, OnlineStats::mean)
    }

    /// Jain's fairness index over the per-client mean communication times
    /// (1.0 = perfectly fair; 1/n = one client hogs everything). Clients
    /// with no calls are skipped.
    #[must_use]
    pub fn fairness_index(&self) -> f64 {
        let means: Vec<f64> = self
            .per_client_comm
            .iter()
            .filter(|s| s.count() > 0)
            .map(OnlineStats::mean)
            .collect();
        if means.is_empty() {
            return 1.0;
        }
        let sum: f64 = means.iter().sum();
        let sum_sq: f64 = means.iter().map(|m| m * m).sum();
        if sum_sq == 0.0 {
            return 1.0;
        }
        (sum * sum) / (means.len() as f64 * sum_sq)
    }

    /// Mean duration of one call (Fig. 10). Zero if no calls completed.
    #[must_use]
    pub fn call_time_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_call_time / self.calls as f64
        }
    }

    /// Mean migration time per call (Fig. 11). Zero if no calls completed.
    #[must_use]
    pub fn migration_time_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_migration_time / self.calls as f64
        }
    }

    /// Mean per-object transfer load per call (the §2.4 underestimation
    /// diagnostic; equals the migration time per call when closures are
    /// singletons).
    #[must_use]
    pub fn transfer_load_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_transfer_load / self.calls as f64
        }
    }

    /// The 95th-percentile call duration (0 if no calls completed).
    #[must_use]
    pub(crate) fn call_time_p95(&self) -> f64 {
        self.call_p95.value().unwrap_or(0.0)
    }

    /// Mean control-message (move/indication) time per call.
    #[must_use]
    pub fn control_time_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_control_time / self.calls as f64
        }
    }

    /// Mean communication time per call (Figs. 8, 12, 14, 16): call duration
    /// plus migration and control overhead evenly distributed over calls.
    #[must_use]
    pub fn comm_time_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            (self.total_call_time + self.total_migration_time + self.total_control_time)
                / self.calls as f64
        }
    }

    /// Fraction of move-requests that were denied.
    #[must_use]
    pub fn denial_rate(&self) -> f64 {
        if self.moves_issued == 0 {
            0.0
        } else {
            self.moves_denied as f64 / self.moves_issued as f64
        }
    }

    /// Mean number of objects dragged along per migration.
    #[must_use]
    pub fn mean_closure_size(&self) -> f64 {
        if self.migrations == 0 {
            0.0
        } else {
            self.objects_migrated as f64 / self.migrations as f64
        }
    }

    /// The confidence interval over the communication-time samples, if
    /// enough batches completed.
    #[must_use]
    pub fn confidence_interval(&self, confidence: f64) -> Option<ConfidenceInterval> {
        self.samples.confidence_interval(confidence)
    }

    /// Whether the stopping rule is satisfied on the sample stream.
    #[must_use]
    pub fn should_stop(&self, rule: &StoppingRule) -> bool {
        rule.should_stop(&self.samples)
    }
}

/// Final result of a run: the metrics plus bookkeeping about the run itself.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// All collected metrics.
    pub metrics: SimMetrics,
    /// Simulated time at which the run stopped.
    pub sim_time: f64,
    /// Events the engine delivered.
    pub events: u64,
    /// Whether the stopping rule's precision target was met (as opposed to
    /// hitting the sample or event cap).
    pub converged: bool,
}

/// A compact, serializable row for experiment tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsRow {
    /// Mean communication time per call (the headline metric).
    pub comm_time: f64,
    /// Mean duration of one call.
    pub call_time: f64,
    /// Mean migration time per call.
    pub migration_time: f64,
    /// Mean control time per call.
    pub control_time: f64,
    /// 99 % CI half-width of the communication time, if available.
    pub ci_half_width: Option<f64>,
    /// Calls observed.
    pub calls: u64,
    /// Denial rate.
    pub denial_rate: f64,
    /// Mean migrated-closure size.
    pub mean_closure: f64,
    /// Mean per-object transfer load per call (k·M amortized).
    pub transfer_load: f64,
    /// 95th-percentile call duration.
    pub call_p95: f64,
}

impl From<&SimMetrics> for MetricsRow {
    fn from(m: &SimMetrics) -> Self {
        MetricsRow {
            comm_time: m.comm_time_per_call(),
            call_time: m.call_time_per_call(),
            migration_time: m.migration_time_per_call(),
            control_time: m.control_time_per_call(),
            ci_half_width: m.confidence_interval(0.99).map(|ci| ci.half_width),
            calls: m.calls,
            denial_rate: m.denial_rate(),
            mean_closure: m.mean_closure_size(),
            transfer_load: m.transfer_load_per_call(),
            call_p95: m.call_time_p95(),
        }
    }
}

/// Order-sensitive merge of independent replications of one sweep point.
///
/// The parallel replication runner executes replications on worker threads
/// but **absorbs their outcomes in replication-index order**, so every
/// floating-point accumulation below happens in exactly the same sequence
/// at any thread count — the aggregate is bit-identical whether the
/// replications ran on one core or sixteen.
///
/// Counters and time totals add exactly. The communication-time batch means
/// merge exactly as well (each replication contributes whole batches; see
/// [`BatchMeans::merge`]). The only approximation is the 95th percentile:
/// P² markers cannot be merged, so the aggregate reports the call-weighted
/// mean of the per-replication p95 estimates — documented in DESIGN.md §13.2.
#[derive(Debug, Clone, Default)]
pub struct ReplicationAggregate {
    /// Replications absorbed so far.
    pub replications: u64,
    /// Events delivered across all replications.
    pub events: u64,
    /// Total simulated time across all replications (sum, not max).
    pub sim_time: f64,
    calls: u64,
    total_call_time: f64,
    total_migration_time: f64,
    total_control_time: f64,
    total_transfer_load: f64,
    moves_issued: u64,
    moves_denied: u64,
    migrations: u64,
    objects_migrated: u64,
    samples: Option<BatchMeans>,
    p95_call_weight: f64,
}

impl ReplicationAggregate {
    /// An empty aggregate.
    #[must_use]
    pub fn new() -> Self {
        ReplicationAggregate::default()
    }

    /// Folds one replication's outcome into the aggregate.
    ///
    /// Call this in replication-index order (the runner does) — see the
    /// type docs for why the order is part of the reproducibility contract.
    ///
    /// # Panics
    ///
    /// Panics if replications used different batch sizes.
    pub fn absorb(&mut self, out: &SimOutcome) {
        let m = &out.metrics;
        self.replications += 1;
        self.events += out.events;
        self.sim_time += out.sim_time;
        self.calls += m.calls;
        self.total_call_time += m.total_call_time;
        self.total_migration_time += m.total_migration_time;
        self.total_control_time += m.total_control_time;
        self.total_transfer_load += m.total_transfer_load;
        self.moves_issued += m.moves_issued;
        self.moves_denied += m.moves_denied;
        self.migrations += m.migrations;
        self.objects_migrated += m.objects_migrated;
        self.p95_call_weight += m.call_time_p95() * m.calls as f64;
        match &mut self.samples {
            Some(samples) => samples.merge(&m.samples),
            None => self.samples = Some(m.samples.clone()),
        }
    }

    /// Total communication-time samples collected.
    #[must_use]
    pub fn sample_count(&self) -> u64 {
        self.samples.as_ref().map_or(0, BatchMeans::sample_count)
    }

    /// Calls completed across all replications.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// The merged batch-means estimator, once a replication was absorbed.
    #[must_use]
    pub fn samples(&self) -> Option<&BatchMeans> {
        self.samples.as_ref()
    }

    /// Confidence interval over the merged batch means.
    #[must_use]
    pub fn confidence_interval(&self, confidence: f64) -> Option<ConfidenceInterval> {
        self.samples
            .as_ref()
            .and_then(|s| s.confidence_interval(confidence))
    }

    /// Whether the stopping rule is satisfied on the merged sample stream.
    #[must_use]
    pub fn should_stop(&self, rule: &StoppingRule) -> bool {
        self.samples.as_ref().is_some_and(|s| rule.should_stop(s))
    }

    /// Whether the precision target itself was met (not just the caps).
    #[must_use]
    pub fn converged(&self, rule: &StoppingRule) -> bool {
        self.samples
            .as_ref()
            .and_then(|s| s.confidence_interval(rule.confidence))
            .is_some_and(|ci| {
                self.samples.as_ref().map_or(0, BatchMeans::batch_count) >= rule.min_batches
                    && ci.is_within(rule.relative_precision)
            })
    }

    /// The aggregate as a standard experiment-table row.
    #[must_use]
    pub fn row(&self) -> MetricsRow {
        let per_call = |total: f64| {
            if self.calls == 0 {
                0.0
            } else {
                total / self.calls as f64
            }
        };
        MetricsRow {
            comm_time: per_call(
                self.total_call_time + self.total_migration_time + self.total_control_time,
            ),
            call_time: per_call(self.total_call_time),
            migration_time: per_call(self.total_migration_time),
            control_time: per_call(self.total_control_time),
            ci_half_width: self.confidence_interval(0.99).map(|ci| ci.half_width),
            calls: self.calls,
            denial_rate: if self.moves_issued == 0 {
                0.0
            } else {
                self.moves_denied as f64 / self.moves_issued as f64
            },
            mean_closure: if self.migrations == 0 {
                0.0
            } else {
                self.objects_migrated as f64 / self.migrations as f64
            },
            transfer_load: per_call(self.total_transfer_load),
            // call-weighted mean of per-replication P² estimates (see docs)
            call_p95: per_call(self.p95_call_weight),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> SimMetrics {
        let mut m = SimMetrics::new(10);
        m.calls = 100;
        m.total_call_time = 120.0;
        m.total_migration_time = 60.0;
        m.total_transfer_load = 180.0;
        m.total_control_time = 20.0;
        m.moves_issued = 40;
        m.moves_granted = 30;
        m.moves_denied = 10;
        m.migrations = 30;
        m.objects_migrated = 90;
        m
    }

    #[test]
    fn per_call_means() {
        let m = populated();
        assert!((m.call_time_per_call() - 1.2).abs() < 1e-12);
        assert!((m.migration_time_per_call() - 0.6).abs() < 1e-12);
        assert!((m.transfer_load_per_call() - 1.8).abs() < 1e-12);
        assert!((m.control_time_per_call() - 0.2).abs() < 1e-12);
        assert!((m.comm_time_per_call() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn comm_time_is_sum_of_components() {
        let m = populated();
        let sum = m.call_time_per_call() + m.migration_time_per_call() + m.control_time_per_call();
        assert!((m.comm_time_per_call() - sum).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = SimMetrics::new(10);
        assert_eq!(m.comm_time_per_call(), 0.0);
        assert_eq!(m.denial_rate(), 0.0);
        assert_eq!(m.mean_closure_size(), 0.0);
        assert!(m.confidence_interval(0.99).is_none());
    }

    #[test]
    fn rates_and_ratios() {
        let m = populated();
        assert!((m.denial_rate() - 0.25).abs() < 1e-12);
        assert!((m.mean_closure_size() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn row_conversion_matches() {
        let m = populated();
        let row = MetricsRow::from(&m);
        assert_eq!(row.calls, 100);
        assert!((row.comm_time - 2.0).abs() < 1e-12);
        assert!(row.ci_half_width.is_none());
    }

    #[test]
    fn stopping_rule_integrates_with_samples() {
        let mut m = SimMetrics::new(5);
        let rule = StoppingRule {
            relative_precision: 0.5,
            confidence: 0.95,
            min_batches: 2,
            max_samples: 1_000,
        };
        assert!(!m.should_stop(&rule));
        for _ in 0..20 {
            m.samples.push(1.0);
        }
        assert!(m.should_stop(&rule));
    }

    #[test]
    fn p95_tracks_the_call_duration_tail() {
        let mut m = SimMetrics::new(10);
        for i in 0..1_000 {
            m.call_p95.push(f64::from(i % 100));
        }
        let p95 = m.call_time_p95();
        assert!((90.0..100.0).contains(&p95), "{p95}");
    }

    #[test]
    fn p95_is_zero_without_calls() {
        assert_eq!(SimMetrics::new(10).call_time_p95(), 0.0);
    }

    #[test]
    fn fairness_index_detects_skew() {
        let mut m = SimMetrics::new(10);
        m.init_clients(3);
        for _ in 0..10 {
            m.per_client_comm[0].push(1.0);
            m.per_client_comm[1].push(1.0);
            m.per_client_comm[2].push(1.0);
        }
        assert!((m.fairness_index() - 1.0).abs() < 1e-12, "equal → fair");
        assert_eq!(m.client_comm_time(1), 1.0);

        let mut skewed = SimMetrics::new(10);
        skewed.init_clients(2);
        for _ in 0..10 {
            skewed.per_client_comm[0].push(0.1);
            skewed.per_client_comm[1].push(10.0);
        }
        assert!(skewed.fairness_index() < 0.6, "{}", skewed.fairness_index());
    }

    #[test]
    fn replication_aggregate_sums_counters_and_merges_samples() {
        let outcome = |seed: u64| {
            let mut m = populated();
            for i in 0..40 {
                m.samples.push((seed + i) as f64 % 7.0);
            }
            SimOutcome {
                metrics: m,
                sim_time: 50.0,
                events: 1_000,
                converged: false,
            }
        };
        let mut agg = ReplicationAggregate::new();
        agg.absorb(&outcome(0));
        agg.absorb(&outcome(3));
        assert_eq!(agg.replications, 2);
        assert_eq!(agg.events, 2_000);
        assert_eq!(agg.calls(), 200);
        assert_eq!(agg.sample_count(), 80);
        assert_eq!(agg.samples().unwrap().batch_count(), 8);
        let row = agg.row();
        assert_eq!(row.calls, 200);
        // per-call means are unchanged by doubling both numerator and denominator
        assert!((row.comm_time - 2.0).abs() < 1e-12);
        assert!((row.denial_rate - 0.25).abs() < 1e-12);
    }

    #[test]
    fn replication_aggregate_absorb_order_is_the_contract() {
        // absorbing in index order must be reproducible run-to-run
        let make = |offset: f64| {
            let mut m = SimMetrics::new(5);
            m.calls = 10;
            for i in 0..15 {
                m.samples.push(offset + i as f64 * 0.37);
            }
            SimOutcome {
                metrics: m,
                sim_time: 1.0,
                events: 10,
                converged: false,
            }
        };
        let run = || {
            let mut agg = ReplicationAggregate::new();
            for i in 0..4 {
                agg.absorb(&make(i as f64));
            }
            agg.confidence_interval(0.99).unwrap().mean
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }

    #[test]
    fn fairness_index_skips_idle_clients() {
        let mut m = SimMetrics::new(10);
        m.init_clients(3);
        m.per_client_comm[0].push(2.0);
        // clients 1 and 2 never completed a call
        assert!((m.fairness_index() - 1.0).abs() < 1e-12);
        assert_eq!(m.client_comm_time(2), 0.0);
        // out-of-range client ids are benign
        assert_eq!(m.client_comm_time(99), 0.0);
    }
}
