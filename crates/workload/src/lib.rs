//! # oml-workload — scenario generators for the paper's evaluation
//!
//! Builds the inter-object communication structures of §4.1:
//!
//! * **Fig. 6** (basic): `C` sedentary clients, each using every first-layer
//!   server; move-blocks operate inside the clients.
//! * **Fig. 7** (attachments): a second layer of servers; each first-layer
//!   server works on an (overlapping) working set of second-layer servers,
//!   attached together — one alliance per working set.
//!
//! A [`scenario::ScenarioConfig`] captures Table 1's parameters; constructors
//! exist for every figure. [`run_scenario`] turns a config plus a policy and
//! an attachment mode into a finished simulation run;
//! [`run_scenario_replicated`] spreads independent replications over cores,
//! the simulator's one multi-core path, bit-identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::pedantic)]
// Table 1 parameters cross between counts and rates constantly; the rest
// are deliberate style choices
#![allow(
    clippy::assigning_clones,
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_precision_loss,
    clippy::cast_sign_loss,
    clippy::doc_markdown,
    clippy::elidable_lifetime_names,
    clippy::float_cmp,
    clippy::items_after_statements,
    clippy::manual_midpoint,
    clippy::missing_panics_doc,
    clippy::must_use_candidate,
    clippy::return_self_not_must_use,
    clippy::similar_names,
    clippy::unreadable_literal,
    clippy::wildcard_imports
)]

pub mod scenario;
pub mod table1;

pub use scenario::ScenarioConfig;

use oml_core::attach::AttachmentMode;
use oml_core::ids::{NodeId, ObjectId};
use oml_core::policy::PolicyKind;
use oml_des::par::parallel_map;
use oml_des::stats::{replication_seed, StoppingRule};
use oml_net::{FaultConfig, Network};
use oml_sim::metrics::{ReplicationAggregate, SimOutcome};
use oml_sim::{BlockParams, Simulation, SimulationBuilder, BATCH_SIZE};

/// Builds the simulation a scenario describes (without running it).
///
/// Placement conventions:
///
/// * client `i` sits on node `i mod D` (clients are sedentary, §4.1),
/// * servers fill nodes from the top (`D-1` downwards), so that in the
///   small worlds of Figs. 8/14 every node hosts one server — which yields
///   the paper's `1/C` chance of a local callee — while in the large worlds
///   of Figs. 12/16 servers and clients start mostly apart,
/// * working set `i` is the circular window `{S2[i], …, S2[i+w-1]}`, so
///   adjacent working sets overlap whenever `w > 1` — the §3.4 hazard,
/// * every attachment edge is tagged with working set `i`'s alliance, and
///   moves of `S1[i]` are invoked in that alliance (A-transitive mode uses
///   the tags; unrestricted mode ignores them; exclusive mode already
///   ignores second and later attachments per object).
///
/// # Panics
///
/// Panics if the scenario is inconsistent (see
/// [`scenario::ScenarioConfig::validate`]).
pub fn build_scenario(
    config: &ScenarioConfig,
    policy: PolicyKind,
    attachment: AttachmentMode,
    stopping: StoppingRule,
    seed: u64,
) -> Simulation {
    config.validate().expect("invalid scenario");

    let network = Network::paper(config.nodes).with_faults(
        FaultConfig::new(config.loss_probability, config.retransmit_timeout)
            .expect("scenario validation matches FaultConfig's rules"),
    );
    let mut b = SimulationBuilder::new(network)
        .policy(policy)
        .attachment_mode(attachment)
        .migration_duration(config.migration_duration)
        .stopping(stopping)
        .warmup(config.warmup_time)
        .seed(seed);

    let top = |j: u32| NodeId::new(config.nodes - 1 - (j % config.nodes));

    // first-layer servers
    let s1: Vec<ObjectId> = (0..config.servers1).map(|j| b.add_object(top(j))).collect();
    // second-layer servers continue filling from the top
    let s2: Vec<ObjectId> = (0..config.servers2)
        .map(|j| b.add_object(top(config.servers1 + j)))
        .collect();

    // working sets (Fig. 7): one alliance per first-layer server
    if !s2.is_empty() && config.working_set > 0 {
        for (i, &front) in s1.iter().enumerate() {
            let alliance = b.create_alliance(&format!("working-set-{i}"));
            b.join_alliance(alliance, front);
            let mut ws = Vec::new();
            for k in 0..config.working_set {
                let member = s2[(i + k as usize) % s2.len()];
                ws.push(member);
                b.join_alliance(alliance, member);
                // latch the second-layer server to its first-layer user;
                // under exclusive attachment later (overlapping) latches of
                // the same object are silently ignored — that is the policy.
                let _ = b
                    .attach(member, front, Some(alliance))
                    .expect("working-set attachment is well-formed");
            }
            b.set_nested_targets(front, ws);
            b.set_move_context(front, Some(alliance));
        }
    }

    for i in 0..config.clients {
        b.add_client(
            NodeId::new(i % config.nodes),
            s1.clone(),
            BlockParams {
                mean_calls: config.mean_calls,
                mean_think: config.mean_think,
                mean_gap: config.mean_gap,
            },
        );
    }

    b.build()
}

/// Builds and runs a scenario to completion (stopping rule or caps).
pub fn run_scenario(
    config: &ScenarioConfig,
    policy: PolicyKind,
    attachment: AttachmentMode,
    stopping: StoppingRule,
    seed: u64,
) -> SimOutcome {
    build_scenario(config, policy, attachment, stopping, seed).run()
}

/// Replications launched per round of the parallel replication runner.
///
/// A fixed round width keeps the set of replications — and therefore the
/// merged statistics — independent of the worker count; it is also the
/// natural parallel grain (8 saturates the default thread cap).
pub const REPLICATIONS_PER_ROUND: u64 = 8;

/// Samples each replication contributes before the round is re-evaluated.
///
/// Chunks are whole multiples of `oml-sim`'s [`BATCH_SIZE`], the batch
/// size every simulation uses, so every replication hands the aggregate
/// only *completed* batches and the merged batch means are exact (see
/// `BatchMeans::merge`). The chunk adapts to the rule's sample
/// cap so quick runs stay quick while paper-precision runs amortize their
/// per-replication warm-up.
#[must_use]
pub fn replication_chunk(stopping: &StoppingRule) -> u64 {
    (stopping.max_samples / 16)
        .max(4 * BATCH_SIZE)
        .div_ceil(BATCH_SIZE)
        * BATCH_SIZE
}

/// Runs a scenario as **independent replications fanned across threads**,
/// merged into one estimate — the multi-core counterpart of
/// [`run_scenario`].
///
/// Replication `i` runs the full scenario under seed
/// [`replication_seed`]`(seed, i)` with a fixed sample chunk
/// ([`replication_chunk`]); rounds of [`REPLICATIONS_PER_ROUND`] run via
/// [`parallel_map`] until the merged batch means satisfy `stopping` (its
/// precision on the pooled confidence interval, its `max_samples` as the
/// pooled cap). Because the replication set, their seeds, and the merge
/// order depend only on `(config, stopping, seed)` — never on `threads` —
/// the returned aggregate is **bit-identical at any thread count**; see
/// DESIGN.md §13.2 for the full argument.
///
/// Compared to the single-run batch-means path this pays one warm-up per
/// replication but decorrelates the batches (independent seeds), and it
/// scales to as many cores as a round has replications.
///
/// # Panics
///
/// Panics if the scenario is inconsistent.
#[must_use]
pub fn run_scenario_replicated(
    config: &ScenarioConfig,
    policy: PolicyKind,
    attachment: AttachmentMode,
    stopping: StoppingRule,
    seed: u64,
    threads: usize,
) -> ReplicationAggregate {
    let chunk = replication_chunk(&stopping);
    // each replication runs exactly `chunk` samples: precision is judged on
    // the pooled estimate only, so the per-run rule is just the cap
    let per_rep = StoppingRule {
        min_batches: u64::MAX,
        max_samples: chunk,
        ..stopping
    };
    let mut agg = ReplicationAggregate::new();
    let mut next_rep: u64 = 0;
    loop {
        let outs = parallel_map(REPLICATIONS_PER_ROUND as usize, threads, |j| {
            let rep_seed = replication_seed(seed, next_rep + j as u64);
            run_scenario(config, policy, attachment, per_rep, rep_seed)
        });
        for out in &outs {
            agg.absorb(out);
        }
        next_rep += REPLICATIONS_PER_ROUND;
        if agg.should_stop(&stopping) {
            return agg;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_sedentary_mean_is_four_thirds() {
        // §4.2.1: with D = C = S1 = 3 and one server per node, the mean
        // sedentary call time is 4/3 (2 messages, local with chance 1/3).
        let config = ScenarioConfig::fig8(30.0);
        let out = run_scenario(
            &config,
            PolicyKind::Sedentary,
            AttachmentMode::Unrestricted,
            StoppingRule {
                relative_precision: 0.01,
                confidence: 0.99,
                min_batches: 20,
                max_samples: 400_000,
            },
            11,
        );
        let mean = out.metrics.comm_time_per_call();
        assert!(
            (mean - 4.0 / 3.0).abs() < 0.03,
            "sedentary mean {mean} should be ≈ 4/3"
        );
    }

    #[test]
    fn build_scenario_places_clients_round_robin() {
        let config = ScenarioConfig::fig12(5);
        let sim = build_scenario(
            &config,
            PolicyKind::Sedentary,
            AttachmentMode::Unrestricted,
            StoppingRule::quick(),
            0,
        );
        // servers fill from the top of the 27 nodes
        assert_eq!(sim.object_node(ObjectId::new(0)), Some(NodeId::new(26)));
        assert_eq!(sim.object_node(ObjectId::new(1)), Some(NodeId::new(25)));
        assert_eq!(sim.object_node(ObjectId::new(2)), Some(NodeId::new(24)));
    }

    #[test]
    fn fig16_has_two_layers_and_alliances() {
        let config = ScenarioConfig::fig16(4);
        assert_eq!(config.servers1, 6);
        assert_eq!(config.servers2, 6);
        let sim = build_scenario(
            &config,
            PolicyKind::TransientPlacement,
            AttachmentMode::ATransitive,
            StoppingRule::quick(),
            0,
        );
        // 6 + 6 objects exist
        assert!(sim.object_node(ObjectId::new(11)).is_some());
    }

    #[test]
    fn replicated_runner_is_thread_count_invariant() {
        let config = ScenarioConfig::fig8(10.0);
        let rule = StoppingRule {
            relative_precision: 1e-9,
            confidence: 0.99,
            min_batches: u64::MAX,
            max_samples: 4_000,
        };
        let run = |threads| {
            run_scenario_replicated(
                &config,
                PolicyKind::ConventionalMigration,
                AttachmentMode::Unrestricted,
                rule,
                0xfeed,
                threads,
            )
        };
        let one = run(1);
        assert_eq!(one.replications, REPLICATIONS_PER_ROUND);
        assert!(one.sample_count() >= rule.max_samples);
        for threads in [2, 4] {
            let many = run(threads);
            assert_eq!(many.events, one.events, "threads = {threads}");
            assert_eq!(many.replications, one.replications);
            assert_eq!(many.sample_count(), one.sample_count());
            let (a, b) = (one.row(), many.row());
            assert_eq!(a.comm_time.to_bits(), b.comm_time.to_bits());
            assert_eq!(a.call_p95.to_bits(), b.call_p95.to_bits());
            assert_eq!(
                a.ci_half_width.map(f64::to_bits),
                b.ci_half_width.map(f64::to_bits)
            );
            assert_eq!(a.calls, b.calls);
        }
    }

    #[test]
    fn run_scenario_produces_calls() {
        let mut cfg = ScenarioConfig::fig8(10.0);
        cfg.warmup_time = 0.0;
        let out = run_scenario(
            &cfg,
            PolicyKind::TransientPlacement,
            AttachmentMode::Unrestricted,
            StoppingRule::quick(),
            3,
        );
        assert!(out.metrics.calls > 1_000);
        assert!(out.metrics.comm_time_per_call() > 0.0);
    }
}
