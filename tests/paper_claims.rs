//! Integration tests asserting the paper's qualitative claims end-to-end.
//!
//! Each test runs the actual experiment pipeline (workload → simulator →
//! metrics) at reduced precision and checks the *shape* the paper reports:
//! who wins, in which regime, and by how much — not absolute values.

use oml_core::attach::AttachmentMode;
use oml_core::policy::PolicyKind;
use oml_des::stats::StoppingRule;
use oml_workload::{run_scenario, ScenarioConfig};

fn smoke() -> StoppingRule {
    StoppingRule {
        relative_precision: 0.03,
        confidence: 0.95,
        min_batches: 10,
        max_samples: 60_000,
    }
}

fn comm(config: &ScenarioConfig, policy: PolicyKind, mode: AttachmentMode, seed: u64) -> f64 {
    run_scenario(config, policy, mode, smoke(), seed)
        .metrics
        .comm_time_per_call()
}

/// §4.2.1 sanity anchor: the sedentary mean call time is 4/3 when D = C =
/// S1 = 3 ("it consists of a call and a result message and the chance that
/// the callee is local … is 1/C = 1/3").
#[test]
fn sedentary_mean_is_four_thirds() {
    let c = comm(
        &ScenarioConfig::fig8(30.0),
        PolicyKind::Sedentary,
        AttachmentMode::Unrestricted,
        1,
    );
    assert!((c - 4.0 / 3.0).abs() < 0.06, "got {c}");
}

/// Fig. 8: migration improves over sedentary at low concurrency, and
/// placement dominates migration once moves conflict.
#[test]
fn fig8_orderings() {
    // low concurrency (t_m = 100): both migration policies beat sedentary
    let low = ScenarioConfig::fig8(100.0);
    let sed = comm(&low, PolicyKind::Sedentary, AttachmentMode::Unrestricted, 2);
    let mig = comm(
        &low,
        PolicyKind::ConventionalMigration,
        AttachmentMode::Unrestricted,
        3,
    );
    let plc = comm(
        &low,
        PolicyKind::TransientPlacement,
        AttachmentMode::Unrestricted,
        4,
    );
    assert!(mig < sed, "migration {mig} vs sedentary {sed}");
    assert!(plc < sed, "placement {plc} vs sedentary {sed}");

    // high concurrency (t_m = 5): placement clearly beats migration
    let high = ScenarioConfig::fig8(5.0);
    let mig = comm(
        &high,
        PolicyKind::ConventionalMigration,
        AttachmentMode::Unrestricted,
        5,
    );
    let plc = comm(
        &high,
        PolicyKind::TransientPlacement,
        AttachmentMode::Unrestricted,
        6,
    );
    assert!(
        plc < mig * 0.9,
        "under contention placement ({plc}) must beat migration ({mig})"
    );
}

/// Fig. 12: conventional migration crosses the sedentary baseline early;
/// placement is still winning at the same client count, and the break-even
/// ordering (migration's << placement's) holds.
#[test]
fn fig12_break_even_ordering() {
    let at = |c: u32, policy: PolicyKind, seed: u64| {
        comm(
            &ScenarioConfig::fig12(c),
            policy,
            AttachmentMode::Unrestricted,
            seed,
        )
    };
    let sed = at(12, PolicyKind::Sedentary, 7);
    let mig12 = at(12, PolicyKind::ConventionalMigration, 8);
    let plc12 = at(12, PolicyKind::TransientPlacement, 9);
    // by 12 clients conventional migration is already worse than sedentary…
    assert!(mig12 > sed, "migration {mig12} vs sedentary {sed}");
    // …while placement is still clearly better
    assert!(plc12 < sed, "placement {plc12} vs sedentary {sed}");

    // migration degrades roughly linearly: doubling clients adds real cost
    let mig6 = at(6, PolicyKind::ConventionalMigration, 10);
    assert!(mig12 > mig6 * 1.3, "{mig6} → {mig12}");
}

/// Fig. 14: the dynamic strategies differ from conservative placement only
/// marginally (the paper: "only minor performance gains").
#[test]
fn fig14_dynamic_gains_are_marginal() {
    let config = ScenarioConfig::fig14(12);
    let plc = comm(
        &config,
        PolicyKind::TransientPlacement,
        AttachmentMode::Unrestricted,
        11,
    );
    let cmp = comm(
        &config,
        PolicyKind::CompareNodes,
        AttachmentMode::Unrestricted,
        12,
    );
    let rei = comm(
        &config,
        PolicyKind::CompareAndReinstantiate,
        AttachmentMode::Unrestricted,
        13,
    );
    for (label, v) in [("compare-nodes", cmp), ("reinstantiate", rei)] {
        let rel = (v - plc).abs() / plc;
        assert!(
            rel < 0.25,
            "{label} ({v}) should stay within 25% of placement ({plc})"
        );
    }
}

/// Fig. 16: the five-curve ordering under overlapping working sets.
#[test]
fn fig16_attachment_ordering() {
    let config = ScenarioConfig::fig16(8);
    let sed = comm(
        &config,
        PolicyKind::Sedentary,
        AttachmentMode::Unrestricted,
        14,
    );
    let mig_unr = comm(
        &config,
        PolicyKind::ConventionalMigration,
        AttachmentMode::Unrestricted,
        15,
    );
    let mig_atr = comm(
        &config,
        PolicyKind::ConventionalMigration,
        AttachmentMode::ATransitive,
        16,
    );
    let plc_unr = comm(
        &config,
        PolicyKind::TransientPlacement,
        AttachmentMode::Unrestricted,
        17,
    );
    let plc_atr = comm(
        &config,
        PolicyKind::TransientPlacement,
        AttachmentMode::ATransitive,
        18,
    );

    // "applying conventional migration together with unrestricted
    // attachments has a devastating effect": worst of all, above baseline
    assert!(mig_unr > sed, "mig+unr {mig_unr} vs sedentary {sed}");
    assert!(mig_unr > mig_atr, "{mig_unr} vs {mig_atr}");
    assert!(mig_unr > plc_unr, "{mig_unr} vs {plc_unr}");
    // placement+unrestricted is "a first improvement"
    assert!(plc_unr < mig_unr);
    // a-transitive attachment recovers performance below the baseline
    assert!(mig_atr < sed, "{mig_atr} vs {sed}");
    assert!(plc_atr < sed, "{plc_atr} vs {sed}");
    // the best combination is placement + a-transitive
    for other in [mig_unr, mig_atr, plc_unr, sed] {
        assert!(plc_atr <= other * 1.02, "{plc_atr} vs {other}");
    }
}

/// §3.4: exclusive attachment also yields disjoint working sets and beats
/// unrestricted attachment under conflict.
#[test]
fn exclusive_attachment_helps() {
    let config = ScenarioConfig::fig16(8);
    let unr = comm(
        &config,
        PolicyKind::ConventionalMigration,
        AttachmentMode::Unrestricted,
        19,
    );
    let exc = comm(
        &config,
        PolicyKind::ConventionalMigration,
        AttachmentMode::Exclusive,
        20,
    );
    assert!(exc < unr, "exclusive {exc} vs unrestricted {unr}");
}

/// §4.1: "we also performed simulations for other structures. But this had
/// no effects on the results." With flat per-message latency the topology
/// does not change the placement ordering. It cannot change anything: a
/// remote message costs one latency draw however many hops it takes, so a
/// topology reaches a run only through which pairs are local, and on three
/// nodes every topology agrees on that — one seed gives bit-identical runs
/// over all four, and `repro topology`'s columns differ by seed alone.
#[test]
fn topology_does_not_change_the_story() {
    use oml_core::ids::NodeId;
    use oml_net::{LatencyModel, Network, Topology};
    use oml_sim::{BlockParams, SimulationBuilder};

    let outcome = |topo: Topology, policy: PolicyKind, seed: u64| {
        let mut b =
            SimulationBuilder::new(Network::new(topo, LatencyModel::Exponential { mean: 1.0 }))
                .policy(policy)
                .stopping(smoke())
                .warmup(300.0)
                .seed(seed);
        let servers: Vec<_> = (0..3).map(|j| b.add_object(NodeId::new(2 - j))).collect();
        for i in 0..3 {
            b.add_client(NodeId::new(i), servers.clone(), BlockParams::paper(10.0));
        }
        b.build().run()
    };
    let run = |topo: Topology, policy: PolicyKind, seed: u64| {
        outcome(topo, policy, seed).metrics.comm_time_per_call()
    };

    // `Debug` prints every f64 in its shortest round-trip form, so equal
    // strings mean bit-identical metrics, event counts and end times
    for policy in [
        PolicyKind::TransientPlacement,
        PolicyKind::ConventionalMigration,
    ] {
        let mesh = format!("{:?}", outcome(Topology::FullMesh { nodes: 3 }, policy, 25));
        for topo in [
            Topology::Star { nodes: 3 },
            Topology::Ring { nodes: 3 },
            Topology::Line { nodes: 3 },
        ] {
            let other = format!("{:?}", outcome(topo.clone(), policy, 25));
            assert!(
                other == mesh,
                "{topo:?} differs from the full mesh under {policy:?}"
            );
        }
    }

    let mesh_p = run(
        Topology::FullMesh { nodes: 3 },
        PolicyKind::TransientPlacement,
        21,
    );
    let mesh_m = run(
        Topology::FullMesh { nodes: 3 },
        PolicyKind::ConventionalMigration,
        22,
    );
    for topo in [Topology::Star { nodes: 3 }, Topology::Ring { nodes: 3 }] {
        let p = run(topo.clone(), PolicyKind::TransientPlacement, 23);
        let m = run(topo, PolicyKind::ConventionalMigration, 24);
        // same winner, and values close to the full-mesh ones
        assert!(p < m);
        assert!((p - mesh_p).abs() / mesh_p < 0.15, "{p} vs {mesh_p}");
        assert!((m - mesh_m).abs() / mesh_m < 0.15, "{m} vs {mesh_m}");
    }
}
