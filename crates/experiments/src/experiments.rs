//! The per-figure experiment definitions.

use std::collections::BTreeMap;

use oml_core::attach::AttachmentMode;
use oml_core::cost::CostModel;
use oml_core::ids::NodeId;
use oml_core::policy::PolicyKind;
use oml_des::stats::StoppingRule;
use oml_net::{LatencyModel, Network, Topology};
use oml_sim::metrics::MetricsRow;
use oml_sim::{BlockParams, SimulationBuilder};
use oml_workload::{run_scenario, ScenarioConfig};

use crate::result::{latency_row, ExperimentResult, SweepPoint};

/// Precision/seed options for an experiment run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The stopping rule applied to every sweep point.
    pub stopping: StoppingRule,
    /// Base seed; each (point, series) pair derives its own stream.
    pub seed: u64,
    /// Worker threads for sweep points (1 = sequential). Results are
    /// bit-identical regardless of the thread count: every point owns its
    /// derived seed.
    pub threads: usize,
}

/// Default worker-thread count: available cores, capped at 8.
///
/// The cap is overridable — `OML_THREADS` (or the `repro --threads` flag,
/// which wins over the environment) sets any positive count, letting big
/// hosts use all their cores and CI pin an exact degree of parallelism.
pub fn default_threads() -> usize {
    if let Some(n) = std::env::var("OML_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

impl RunOptions {
    /// The paper's precision (1 % CI at p = 0.99). Slow but authoritative.
    #[must_use]
    pub fn paper() -> Self {
        RunOptions {
            stopping: StoppingRule {
                relative_precision: 0.01,
                confidence: 0.99,
                min_batches: 20,
                max_samples: 1_000_000,
            },
            seed: 0x0b9e_c7ed,
            threads: default_threads(),
        }
    }

    /// Fast smoke precision for CI pipelines and benches.
    #[must_use]
    pub fn quick() -> Self {
        RunOptions {
            stopping: StoppingRule {
                relative_precision: 0.03,
                confidence: 0.95,
                min_batches: 10,
                max_samples: 120_000,
            },
            seed: 0x0b9e_c7ed,
            threads: default_threads(),
        }
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions::paper()
    }
}

// the work-stealing map moved down into the simulation substrate so the
// replication runner (oml-workload) shares one implementation; sweep-point
// fan-out keeps using it through this import
pub(crate) use oml_des::par::parallel_map;

/// Runs a full `configs × series` grid in parallel and assembles the sweep
/// points in order.
fn sweep_grid(
    configs: &[ScenarioConfig],
    xs: &[f64],
    series_defs: &[Series],
    opts: &RunOptions,
) -> Vec<SweepPoint> {
    assert_eq!(configs.len(), xs.len());
    let cols = series_defs.len();
    let rows = parallel_map(configs.len() * cols, opts.threads, |job| {
        let (pi, si) = (job / cols, job % cols);
        let (_, policy, mode) = series_defs[si];
        run_point(
            &configs[pi],
            policy,
            mode,
            opts,
            point_seed(opts.seed, pi, si),
        )
    });
    xs.iter()
        .enumerate()
        .map(|(pi, &x)| {
            let mut series = BTreeMap::new();
            for (si, (label, _, _)) in series_defs.iter().enumerate() {
                series.insert((*label).to_owned(), rows[pi * cols + si].clone());
            }
            SweepPoint { x, series }
        })
        .collect()
}

pub(crate) fn point_seed(base: u64, point: usize, series: usize) -> u64 {
    base.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((point as u64) << 8)
        .wrapping_add(series as u64)
}

fn run_point(
    config: &ScenarioConfig,
    policy: PolicyKind,
    attachment: AttachmentMode,
    opts: &RunOptions,
    seed: u64,
) -> MetricsRow {
    let outcome = run_scenario(config, policy, attachment, opts.stopping, seed);
    MetricsRow::from(&outcome.metrics)
}

/// One figure's series: label, policy and attachment mode per curve.
pub(crate) type Series = (&'static str, PolicyKind, AttachmentMode);

/// The three policies every single-layer figure compares.
pub(crate) const BASIC_SERIES: [Series; 3] = [
    (
        "without migration",
        PolicyKind::Sedentary,
        AttachmentMode::Unrestricted,
    ),
    (
        "migration",
        PolicyKind::ConventionalMigration,
        AttachmentMode::Unrestricted,
    ),
    (
        "transient placement",
        PolicyKind::TransientPlacement,
        AttachmentMode::Unrestricted,
    ),
];

/// Figs. 8, 10, 11 — increasing the usage frequency (parameters of Fig. 9).
///
/// Sweeps the mean distance between two usages (`t_m`) from high concurrency
/// (0) to low (100) for the sedentary, conventional-migration and
/// transient-placement policies. The returned rows carry the decomposition:
/// `call_time` is Fig. 10, `migration_time` is Fig. 11, `comm_time` is
/// Fig. 8.
#[must_use]
pub fn fig8(opts: &RunOptions) -> ExperimentResult {
    let xs = [
        0.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0,
    ];
    let configs: Vec<ScenarioConfig> = xs.iter().map(|&x| ScenarioConfig::fig8(x)).collect();
    let points = sweep_grid(&configs, &xs, &BASIC_SERIES, opts);
    ExperimentResult {
        id: "fig8".into(),
        title: "Increasing the usage frequency (D=3, C=3, S1=3, M=6, N~exp(8))".into(),
        x_label: "mean gap t_m".into(),
        y_label: "mean communication time per call".into(),
        points,
    }
}

/// Fig. 12 — increasing the number of callers (parameters of Fig. 13).
///
/// `D = 27`, hot-spot servers: conventional migration degrades roughly
/// linearly in the number of clients and crosses the sedentary baseline
/// early; transient placement grows sublinearly and crosses much later.
#[must_use]
pub fn fig12(opts: &RunOptions) -> ExperimentResult {
    let cs = [1u32, 2, 4, 6, 8, 10, 12, 14, 16, 20, 25];
    let xs: Vec<f64> = cs.iter().map(|&c| f64::from(c)).collect();
    let configs: Vec<ScenarioConfig> = cs.iter().map(|&c| ScenarioConfig::fig12(c)).collect();
    let points = sweep_grid(&configs, &xs, &BASIC_SERIES, opts);
    ExperimentResult {
        id: "fig12".into(),
        title: "Increasing the number of clients (D=27, S1=3, M=6, t_m~exp(30))".into(),
        x_label: "clients".into(),
        y_label: "mean communication time per call".into(),
        points,
    }
}

/// Fig. 14's series: conservative placement against the two dynamic
/// strategies.
pub(crate) const FIG14_SERIES: [Series; 3] = [
    (
        "conservative place-policy",
        PolicyKind::TransientPlacement,
        AttachmentMode::Unrestricted,
    ),
    (
        "comparing the nodes",
        PolicyKind::CompareNodes,
        AttachmentMode::Unrestricted,
    ),
    (
        "comparing and reinstantiation",
        PolicyKind::CompareAndReinstantiate,
        AttachmentMode::Unrestricted,
    ),
];

/// Fig. 14 — exploiting dynamic information (parameters of Fig. 15).
///
/// Compares conservative placement against the two intelligent strategies
/// ("comparing the nodes", "comparing and reinstantiation") on the small
/// three-node world. The paper's finding: the dynamic policies yield only
/// marginal gains — before even paying their bookkeeping overhead.
#[must_use]
pub fn fig14(opts: &RunOptions) -> ExperimentResult {
    let cs = [1u32, 2, 4, 6, 9, 12, 16, 20, 24];
    let xs: Vec<f64> = cs.iter().map(|&c| f64::from(c)).collect();
    let configs: Vec<ScenarioConfig> = cs.iter().map(|&c| ScenarioConfig::fig14(c)).collect();
    let points = sweep_grid(&configs, &xs, &FIG14_SERIES, opts);
    ExperimentResult {
        id: "fig14".into(),
        title: "Exploiting dynamic information (D=3, S1=3, M=6, t_m~exp(30))".into(),
        x_label: "clients".into(),
        y_label: "mean communication time per call".into(),
        points,
    }
}

pub(crate) const FIG16_SERIES: [Series; 5] = [
    (
        "without migration",
        PolicyKind::Sedentary,
        AttachmentMode::Unrestricted,
    ),
    (
        "migration + unrestricted attachment",
        PolicyKind::ConventionalMigration,
        AttachmentMode::Unrestricted,
    ),
    (
        "migration + a-transitive attachment",
        PolicyKind::ConventionalMigration,
        AttachmentMode::ATransitive,
    ),
    (
        "placement + unrestricted attachment",
        PolicyKind::TransientPlacement,
        AttachmentMode::Unrestricted,
    ),
    (
        "placement + a-transitive attachment",
        PolicyKind::TransientPlacement,
        AttachmentMode::ATransitive,
    ),
];

/// Fig. 16 — keeping objects together (parameters of Fig. 17).
///
/// Two server layers with overlapping working sets: conventional migration
/// with unrestricted attachment is devastating (every steal drags the whole
/// transitive closure); restricting transitiveness to alliances (and/or
/// placement) recovers the performance.
#[must_use]
pub fn fig16(opts: &RunOptions) -> ExperimentResult {
    fig16_with_series(opts, &FIG16_SERIES, "fig16")
}

/// §3.4's cheaper alternative: the Fig. 16 setup extended with
/// first-come-first-served *exclusive* attachment for both policies.
#[must_use]
pub fn fig16_exclusive(opts: &RunOptions) -> ExperimentResult {
    fig16_with_series(opts, &FIG16X_SERIES, "fig16x")
}

/// Fig. 16's series plus first-come-first-served exclusive attachment.
pub(crate) const FIG16X_SERIES: [Series; 7] = [
    FIG16_SERIES[0],
    FIG16_SERIES[1],
    FIG16_SERIES[2],
    FIG16_SERIES[3],
    FIG16_SERIES[4],
    (
        "migration + exclusive attachment",
        PolicyKind::ConventionalMigration,
        AttachmentMode::Exclusive,
    ),
    (
        "placement + exclusive attachment",
        PolicyKind::TransientPlacement,
        AttachmentMode::Exclusive,
    ),
];

fn fig16_with_series(opts: &RunOptions, series_defs: &[Series], id: &str) -> ExperimentResult {
    let cs = [1u32, 2, 4, 6, 8, 10, 12];
    let xs: Vec<f64> = cs.iter().map(|&c| f64::from(c)).collect();
    let configs: Vec<ScenarioConfig> = cs.iter().map(|&c| ScenarioConfig::fig16(c)).collect();
    let points = sweep_grid(&configs, &xs, series_defs, opts);
    ExperimentResult {
        id: id.into(),
        title: "Keeping objects together (D=24, S1=6, S2=6, M=6, N~exp(6), t_m~exp(30))".into(),
        x_label: "clients".into(),
        y_label: "mean communication time per call".into(),
        points,
    }
}

/// A computed headline value standing for `calls` calls: no call-time
/// decomposition, closures of one.
fn analytic_row(value: f64, calls: u64) -> MetricsRow {
    MetricsRow {
        call_time: 0.0,
        mean_closure: 1.0,
        ..latency_row(value, calls, 0.0, 0.0)
    }
}

/// Fig. 4 / §3.2 — the analytic two-mover conflict costs, as a table over
/// the block size `N` (with the paper's `M = 6`, `C = 1`).
#[must_use]
pub fn fig4_cost() -> ExperimentResult {
    let model = CostModel::paper();
    let mut points = Vec::new();
    for n in [7u64, 8, 10, 12, 16, 24, 32, 48, 64] {
        let mut series = BTreeMap::new();
        for (label, cost) in [
            (
                "conventional move (worst case)",
                model.conventional_conflict_worst(n),
            ),
            ("transient placement", model.placement_conflict(n)),
            ("remote only", model.remote_block(n)),
        ] {
            series.insert(label.to_owned(), analytic_row(cost, n));
        }
        points.push(SweepPoint {
            x: n as f64,
            series,
        });
    }
    ExperimentResult {
        id: "fig4".into(),
        title: "Analytic conflict cost (M=6, C=1): placement saves M+C".into(),
        x_label: "calls N".into(),
        y_label: "total block cost".into(),
        points,
    }
}

/// §4.1's robustness claim: rerunning one Fig. 8 point over different
/// physical topologies (flat per-message latency) does not change the
/// results.
#[must_use]
pub fn topology_ablation(opts: &RunOptions) -> ExperimentResult {
    let topologies: [(&str, Topology); 4] = [
        ("full mesh", Topology::FullMesh { nodes: 3 }),
        ("star", Topology::Star { nodes: 3 }),
        ("ring", Topology::Ring { nodes: 3 }),
        ("line", Topology::Line { nodes: 3 }),
    ];
    let mut points = Vec::new();
    for (pi, (_policy_label, policy, _)) in BASIC_SERIES.iter().enumerate() {
        let mut series = BTreeMap::new();
        for (si, (topo_label, topo)) in topologies.iter().enumerate() {
            let net = Network::new(topo.clone(), LatencyModel::Exponential { mean: 1.0 });
            let mut b = SimulationBuilder::new(net)
                .policy(*policy)
                .stopping(opts.stopping)
                .warmup(500.0)
                .seed(point_seed(opts.seed, pi, si));
            let servers: Vec<_> = (0..3).map(|j| b.add_object(NodeId::new(2 - j))).collect();
            for i in 0..3 {
                b.add_client(NodeId::new(i), servers.clone(), BlockParams::paper(30.0));
            }
            let outcome = b.build().run();
            series.insert((*topo_label).to_owned(), MetricsRow::from(&outcome.metrics));
        }
        points.push(SweepPoint {
            x: pi as f64,
            series,
        });
    }
    ExperimentResult {
        id: "topology".into(),
        title: "Topology ablation at one Fig. 8 point (t_m=30): rows are policies 0=sedentary 1=migration 2=placement".into(),
        x_label: "policy #".into(),
        y_label: "mean communication time per call".into(),
        points,
    }
}

/// §2.4's egoism hazard, quantified (extension experiment).
///
/// "Some implementors may behave completely egoistic to tilt the system
/// towards good behavior for their own application." One client issues
/// move-blocks ten times as often as the three polite ones. Under
/// conventional migration the egoist hoards the servers; under transient
/// placement the first-mover lock keeps the allocation fair.
///
/// x-axis: client index (0 = the egoist); series: one per policy; the
/// headline value is that client's mean communication time per call.
#[must_use]
pub fn egoism(opts: &RunOptions) -> ExperimentResult {
    let policies: [(&str, PolicyKind); 3] = [
        ("without migration", PolicyKind::Sedentary),
        ("migration", PolicyKind::ConventionalMigration),
        ("transient placement", PolicyKind::TransientPlacement),
    ];
    const CLIENTS: usize = 3;

    // one run per policy; rows are clients (each on its own node)
    let mut per_policy: Vec<(String, Vec<MetricsRow>, f64)> = Vec::new();
    for (si, (label, policy)) in policies.iter().enumerate() {
        let mut b = SimulationBuilder::new(Network::paper(3))
            .policy(*policy)
            .stopping(opts.stopping)
            .warmup(500.0)
            .seed(point_seed(opts.seed, 0, si));
        let servers: Vec<_> = (0..3).map(|j| b.add_object(NodeId::new(2 - j))).collect();
        for i in 0..CLIENTS {
            let mean_gap = if i == 0 { 3.0 } else { 30.0 };
            b.add_client(
                NodeId::new(i as u32),
                servers.clone(),
                BlockParams {
                    mean_calls: 8.0,
                    mean_think: 1.0,
                    mean_gap,
                },
            );
        }
        let outcome = b.build().run();
        let m = &outcome.metrics;
        let rows = (0..CLIENTS)
            .map(|i| {
                let mut row = MetricsRow::from(m);
                row.comm_time = m.client_comm_time(i);
                row.calls = m.per_client_comm[i].count();
                row.ci_half_width = None;
                row
            })
            .collect();
        per_policy.push(((*label).to_owned(), rows, m.fairness_index()));
    }

    let mut points = Vec::new();
    for client in 0..CLIENTS {
        let mut series = BTreeMap::new();
        for (label, rows, _) in &per_policy {
            series.insert(label.clone(), rows[client].clone());
        }
        points.push(SweepPoint {
            x: client as f64,
            series,
        });
    }
    ExperimentResult {
        id: "egoism".into(),
        title: format!(
            "Egoistic mover (client 0, t_m=3 vs 30; §2.4 extension) — fairness indices: {}",
            per_policy
                .iter()
                .map(|(l, _, f)| format!("{l}={f:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        x_label: "client (0=egoist)".into(),
        y_label: "mean communication time per call, per client".into(),
        points,
    }
}

/// §4.2.2's scaling claim (extension experiment): "an increase in N/M will
/// have an over-proportional effect on the break-even point" of transient
/// placement, in contrast to the basic migration policy.
///
/// Sweeps the calls-per-block mean `N` (with `M = 6` fixed) and reports both
/// policies' break-even client counts against the sedentary baseline.
#[must_use]
pub fn break_even_scaling(opts: &RunOptions) -> ExperimentResult {
    let ratios = [8.0, 12.0, 16.0];
    let clients = [1u32, 2, 4, 6, 8, 10, 12, 14, 16, 20, 25];
    let mut points = Vec::new();
    for (pi, &mean_calls) in ratios.iter().enumerate() {
        // run a mini Fig. 12 sweep at this N (each ratio gets its own seed
        // block so point seeds never collide across ratios)
        let xs: Vec<f64> = clients.iter().map(|&c| f64::from(c)).collect();
        let configs: Vec<ScenarioConfig> = clients
            .iter()
            .map(|&c| {
                let mut config = ScenarioConfig::fig12(c);
                config.mean_calls = mean_calls;
                config
            })
            .collect();
        let ratio_opts = RunOptions {
            seed: opts.seed.wrapping_add((pi as u64) << 32),
            ..*opts
        };
        let sweep_points = sweep_grid(&configs, &xs, &BASIC_SERIES, &ratio_opts);
        let sweep = ExperimentResult {
            id: String::new(),
            title: String::new(),
            x_label: "clients".into(),
            y_label: String::new(),
            points: sweep_points,
        };

        // a policy that never breaks even inside the sweep is capped at
        // its last client count
        let cap = f64::from(*clients.last().expect("non-empty"));
        let mut series = BTreeMap::new();
        for (label, policy) in [
            ("migration break-even (clients)", "migration"),
            ("placement break-even (clients)", "transient placement"),
        ] {
            let at = sweep.crossover(policy, "without migration").unwrap_or(cap);
            series.insert(label.to_owned(), analytic_row(at, 0));
        }
        points.push(SweepPoint {
            x: mean_calls / 6.0,
            series,
        });
    }
    ExperimentResult {
        id: "break-even".into(),
        title: "Break-even vs N/M ratio (§4.2.2 extension, M=6; break-evens capped at 25)".into(),
        x_label: "N/M".into(),
        y_label: "break-even client count vs sedentary".into(),
        points,
    }
}

/// §4.1 location-mechanism ablation (extension): the paper neglects "the
/// effects of different policies for object location, like name-server
/// lookup \[ChC91\], forward addressing \[JLH+88\], broadcast \[DLA+91\]
/// or immediate update \[Dec86\]". All four are implemented; this sweep
/// shows they indeed barely move the results, even under heavy conventional
/// migration (where stale caches are most frequent).
#[must_use]
pub fn location_ablation(opts: &RunOptions) -> ExperimentResult {
    use oml_sim::LocationMechanism;

    let mechanisms: [(&str, LocationMechanism); 4] = [
        ("immediate update", LocationMechanism::ImmediateUpdate),
        ("forward addressing", LocationMechanism::ForwardAddressing),
        (
            "name-server lookup",
            LocationMechanism::NameServer {
                node: NodeId::new(0),
            },
        ),
        ("broadcast", LocationMechanism::Broadcast),
    ];
    let xs = [5.0, 15.0, 30.0, 60.0];
    let mut points = Vec::new();
    for (pi, &gap) in xs.iter().enumerate() {
        let mut series = BTreeMap::new();
        for (si, (label, mech)) in mechanisms.iter().enumerate() {
            let mut b = SimulationBuilder::new(Network::paper(3))
                .policy(PolicyKind::ConventionalMigration)
                .location_mechanism(*mech)
                .stopping(opts.stopping)
                .warmup(500.0)
                .seed(point_seed(opts.seed, pi, si));
            let servers: Vec<_> = (0..3).map(|j| b.add_object(NodeId::new(2 - j))).collect();
            for i in 0..3 {
                b.add_client(NodeId::new(i), servers.clone(), BlockParams::paper(gap));
            }
            let outcome = b.build().run();
            series.insert((*label).to_owned(), MetricsRow::from(&outcome.metrics));
        }
        points.push(SweepPoint { x: gap, series });
    }
    ExperimentResult {
        id: "location".into(),
        title: "Object-location mechanisms under conventional migration (§4.1 ablation)".into(),
        x_label: "mean gap t_m".into(),
        y_label: "mean communication time per call".into(),
        points,
    }
}

/// §2.3 ablation (extension): `move` vs `visit` blocks.
///
/// A visit is "the combination of a move and a migrate back". Returning the
/// object home costs a second migration per block, but keeps the servers at
/// predictable locations instead of stranding them wherever the last user
/// sat. This sweep quantifies the trade under both policies on the Fig. 8
/// world.
#[must_use]
pub fn visit_ablation(opts: &RunOptions) -> ExperimentResult {
    use oml_sim::BlockFlavor;

    let series_defs: [(&str, PolicyKind, BlockFlavor); 4] = [
        (
            "migration, move blocks",
            PolicyKind::ConventionalMigration,
            BlockFlavor::Move,
        ),
        (
            "migration, visit blocks",
            PolicyKind::ConventionalMigration,
            BlockFlavor::Visit,
        ),
        (
            "placement, move blocks",
            PolicyKind::TransientPlacement,
            BlockFlavor::Move,
        ),
        (
            "placement, visit blocks",
            PolicyKind::TransientPlacement,
            BlockFlavor::Visit,
        ),
    ];
    let xs = [5.0, 10.0, 30.0, 60.0, 100.0];
    let mut points = Vec::new();
    for (pi, &gap) in xs.iter().enumerate() {
        let mut series = BTreeMap::new();
        for (si, (label, policy, flavor)) in series_defs.iter().enumerate() {
            let mut b = SimulationBuilder::new(Network::paper(3))
                .policy(*policy)
                .stopping(opts.stopping)
                .warmup(500.0)
                .seed(point_seed(opts.seed, pi, si));
            let servers: Vec<_> = (0..3).map(|j| b.add_object(NodeId::new(2 - j))).collect();
            for i in 0..3 {
                b.add_client_with_flavor(
                    NodeId::new(i),
                    servers.clone(),
                    BlockParams::paper(gap),
                    *flavor,
                );
            }
            let outcome = b.build().run();
            series.insert((*label).to_owned(), MetricsRow::from(&outcome.metrics));
        }
        points.push(SweepPoint { x: gap, series });
    }
    ExperimentResult {
        id: "visit".into(),
        title: "move vs visit blocks (§2.3 ablation, Fig. 8 world)".into(),
        x_label: "mean gap t_m".into(),
        y_label: "mean communication time per call".into(),
        points,
    }
}

/// Robustness extension — per-policy degradation under message loss.
///
/// Re-runs the Fig. 12 hot-spot world (`D = 27`, ten concurrent clients)
/// while sweeping the per-message loss probability. A lost message is
/// detected and resent after a retransmission timeout of several mean
/// latencies, so every policy degrades as loss rises — but the *ordering*
/// is the point: a policy that spends fewer messages per call exposes
/// fewer messages to loss, so transient placement keeps its lead over
/// conventional migration at every loss rate.
#[must_use]
pub fn faults(opts: &RunOptions) -> ExperimentResult {
    // one retransmission costs six mean message latencies — a coarse
    // timeout-driven ARQ; E[extra delay per message] = 6·p/(1-p)
    const RETRANSMIT_TIMEOUT: f64 = 6.0;
    const CLIENTS: u32 = 10;
    let xs = [0.0, 0.02, 0.05, 0.1, 0.2];
    let configs: Vec<ScenarioConfig> = xs
        .iter()
        .map(|&p| ScenarioConfig::fig12(CLIENTS).with_loss(p, RETRANSMIT_TIMEOUT))
        .collect();
    let points = sweep_grid(&configs, &xs, &BASIC_SERIES, opts);
    ExperimentResult {
        id: "faults".into(),
        title: "degradation under message loss (Fig. 12 world, C=10, retransmit timeout 6)".into(),
        x_label: "message loss probability".into(),
        y_label: "mean communication time per call".into(),
        points,
    }
}

/// The mobile counter every runtime-backed experiment and `repro check`
/// replay hosts: `add(u64)` and `get`, its state the one `u64`.
pub(crate) struct Counter(pub(crate) u64);

/// [`Counter`]'s type tag.
pub(crate) const COUNTER: &str = "counter";

impl oml_runtime::MobileObject for Counter {
    fn type_tag(&self) -> &'static str {
        COUNTER
    }
    fn invoke(&mut self, method: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        match method {
            "add" => {
                self.0 += oml_runtime::wire::WireReader::new(payload).u64()?;
                Ok(self.linearize())
            }
            "get" => Ok(self.linearize()),
            other => Err(format!("no such method: {other}")),
        }
    }
    fn linearize(&self) -> Vec<u8> {
        oml_runtime::wire::WireWriter::new()
            .u64(self.0)
            .finish()
            .to_vec()
    }
}

/// Delinearizer for [`Counter`] — a named function because the worker
/// *processes* of the multi-process runs register it too
/// ([`multiproc_worker_types`]).
pub(crate) fn delinearize_counter(bytes: &[u8]) -> Box<dyn oml_runtime::MobileObject> {
    let mut r = oml_runtime::wire::WireReader::new(bytes);
    Box::new(Counter(r.u64().expect("valid counter state")))
}

/// Mean and 95th percentile of `samples_ms` (zeros when there are none).
fn mean_p95(samples_ms: &[f64]) -> (f64, f64) {
    let mean = samples_ms.iter().sum::<f64>() / samples_ms.len().max(1) as f64;
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as f64 * 0.95).ceil() as usize;
    let p95 = sorted.get(rank.saturating_sub(1)).copied().unwrap_or(0.0);
    (mean, p95)
}

/// Availability extension — client-visible latency and denial rate across a
/// crash → detect → reinstantiate → heal cycle, on the **real runtime**
/// (threads and channels, wall clock), not the simulator.
///
/// One node of three crashes a third of the way through the run and
/// restarts two thirds in. Without a failure detector every call routed at
/// the dead node burns the full call timeout (and is denied); with the
/// detector, death is declared after `k` missed heartbeats, the stranded
/// object is reinstantiated from its home checkpoint, and later calls
/// either succeed at the new host or fail fast — so a *shorter* heartbeat
/// buys back availability, at the price of more false-suspicion risk as
/// message loss rises.
///
/// # Panics
///
/// Panics if the runtime surfaces an error the schedule cannot produce
/// (anything but a timeout or a fail-fast `NodeDown`).
#[must_use]
pub fn availability(opts: &RunOptions) -> ExperimentResult {
    use oml_runtime::wire::WireWriter;
    use oml_runtime::{Cluster, FaultPlan, RuntimeError};
    use std::time::{Duration, Instant};

    const OPS: u64 = 60;
    const CRASH_AT: u64 = 20;
    const RESTART_AT: u64 = 40;
    const CALL_TIMEOUT_MS: u64 = 40;

    let losses = [0.0, 0.05, 0.10];
    // (label, heartbeat_ms/k_missed) — `None` is the no-detector baseline
    let detectors: [(&str, Option<(u64, u32)>); 4] = [
        ("no detector", None),
        ("detector hb=25ms k=3", Some((25, 3))),
        ("detector hb=50ms k=3", Some((50, 3))),
        ("detector hb=100ms k=3", Some((100, 3))),
    ];

    let mut points = Vec::new();
    for (li, &loss) in losses.iter().enumerate() {
        let mut series = BTreeMap::new();
        for (si, &(label, detector)) in detectors.iter().enumerate() {
            // every cell owns a derived seed, like the simulator sweeps
            let seed = opts
                .seed
                .wrapping_add(1 + li as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(si as u64);
            let mut builder = Cluster::builder()
                .nodes(3)
                .policy(PolicyKind::TransientPlacement)
                .faults(FaultPlan::seeded(seed).drop_probability(loss))
                .call_timeout(Duration::from_millis(CALL_TIMEOUT_MS))
                .invoke_retries(1);
            if let Some((hb, k)) = detector {
                builder = builder.failure_detector(hb, k);
            }
            let cluster = builder.build();
            cluster.register_type(COUNTER, delinearize_counter);
            let objects: Vec<_> = (0..3)
                .map(|i| {
                    cluster
                        .create(NodeId::new(i), Box::new(Counter(0)))
                        .expect("creation is on the reliable channel")
                })
                .collect();

            let mut latencies_ms: Vec<f64> = Vec::with_capacity(OPS as usize);
            let mut denied = 0u64;
            for i in 0..OPS {
                match i {
                    CRASH_AT => cluster
                        .crash_node(NodeId::new(2))
                        .expect("crash joins the worker"),
                    RESTART_AT => cluster
                        .restart_node(NodeId::new(2))
                        .expect("restart respawns it"),
                    _ => {}
                }
                let obj = objects[(i % 3) as usize];
                let started = Instant::now();
                match cluster.invoke(obj, "add", &WireWriter::new().u64(1).finish()) {
                    Ok(_) => {}
                    Err(RuntimeError::Timeout { .. } | RuntimeError::NodeDown(_)) => denied += 1,
                    Err(other) => panic!("op {i}: unexpected error {other}"),
                }
                latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
            cluster.shutdown();

            let (mean, p95) = mean_p95(&latencies_ms);
            series.insert(
                label.to_owned(),
                latency_row(mean, OPS, denied as f64 / OPS as f64, p95),
            );
        }
        points.push(SweepPoint { x: loss, series });
    }
    ExperimentResult {
        id: "availability".into(),
        title: format!(
            "availability across a crash/recover cycle (runtime, 3 nodes, \
             {OPS} ops, crash at {CRASH_AT}, restart at {RESTART_AT}, \
             call timeout {CALL_TIMEOUT_MS} ms)"
        ),
        x_label: "message loss probability".into(),
        y_label: "mean client-visible call latency (ms)".into(),
        points,
    }
}

/// The delinearizer table a worker process spawned by
/// [`availability_multiprocess`] must pass to `oml_runtime::run_worker`
/// (the `repro` binary re-executes itself as the workers).
#[must_use]
pub fn multiproc_worker_types() -> Vec<(&'static str, oml_runtime::Delinearizer)> {
    vec![(COUNTER, delinearize_counter)]
}

/// The fsync policy the durable-store experiments run under: `OML_FSYNC`
/// (`always` / `never` / `batch:N:MS`; the `repro --fsync` flag sets the
/// same variable so child processes inherit it), defaulting to `always`.
#[must_use]
pub fn fsync_from_env() -> oml_runtime::FsyncPolicy {
    std::env::var("OML_FSYNC")
        .ok()
        .and_then(|v| oml_runtime::FsyncPolicy::parse(v.trim()))
        .unwrap_or_default()
}

/// Multi-process availability — the same crash → detect → reinstantiate →
/// heal denial-rate shape as [`availability`], but with the nodes as real
/// worker **OS processes** over a Unix-domain stream socket and the crash
/// as a real **SIGKILL** mid-workload. X is the operation index (bucketed),
/// so the recovery shape is visible directly: denials spike in the bucket
/// containing the kill, fall once the detector declares death and the
/// object is reinstantiated from its coordinator checkpoint, and return to
/// zero after the respawned incarnation (old one fenced at the socket
/// accept) rejoins.
///
/// Doubles as the CI regression gate: it panics (nonzero exit) if the
/// outage bucket shows no denials (the kill did nothing), if the final
/// bucket still shows denials (recovery regressed), if any in-flight op
/// fails to resolve inside its timeout, or if the collected transport
/// trace violates the checker's invariants (including
/// no-delivery-after-fenced-handshake).
///
/// # Panics
///
/// See above — every panic is a correctness regression, not a flake: all
/// waits are bounded and generous relative to the detector constants.
#[must_use]
pub fn availability_multiprocess() -> ExperimentResult {
    use oml_runtime::wire::WireWriter;
    use oml_runtime::{
        MultiProcCluster, MultiProcConfig, NodeHealth, RuntimeError, SocketConfig, TransportAddr,
    };
    use std::time::{Duration, Instant};

    const OPS: u64 = 90;
    const KILL_AT: u64 = 30;
    const RESPAWN_AT: u64 = 60;
    const BUCKET: u64 = 10;
    const CALL_TIMEOUT_MS: u64 = 120;

    let dir = std::env::temp_dir().join(format!("oml-avail-mp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir for the coordinator socket");
    // the coordinator's checkpoint table is WAL-backed under OML_FSYNC so
    // the availability run also exercises the durable put-before-ack path
    let fsync = fsync_from_env();
    let cluster = MultiProcCluster::spawn_traced(MultiProcConfig {
        workers: 3,
        addr: TransportAddr::Unix(dir.join("coord.sock")),
        call_timeout_ms: CALL_TIMEOUT_MS,
        heartbeat_ms: 25,
        suspect_after: 3,
        dead_after: 8,
        socket: SocketConfig::default(),
        worker_program: std::env::current_exe().expect("own executable path"),
        worker_args: Vec::new(),
        monitor: true,
        store_dir: Some(dir.join("store")),
        fsync,
    })
    .expect("spawn worker processes");
    assert!(
        cluster.wait_ready(Duration::from_secs(10)),
        "worker processes never heartbeat"
    );
    for i in 0..3u32 {
        cluster
            .create(i, i, COUNTER, WireWriter::new().u64(0).finish().to_vec())
            .expect("create over the socket transport");
    }

    let buckets = (OPS / BUCKET) as usize;
    let mut denied = vec![0u64; buckets];
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); buckets];
    for i in 0..OPS {
        if i == KILL_AT {
            cluster.kill(2); // real SIGKILL, object 2's host, mid-workload
        }
        if i == RESPAWN_AT {
            // respawn only after the detector has finished the declare-dead
            // + reinstantiate cycle, like an operator replacing a box the
            // monitoring already wrote off
            let until = Instant::now() + Duration::from_secs(10);
            while cluster.health(2) != Some(NodeHealth::Dead) {
                assert!(Instant::now() < until, "detector never declared the kill");
                std::thread::sleep(Duration::from_millis(10));
            }
            cluster
                .respawn(2)
                .expect("respawn under a fresh incarnation");
        }
        let bucket = (i / BUCKET) as usize;
        let started = Instant::now();
        match cluster.invoke(i as u32 % 3, "add", &WireWriter::new().u64(1).finish()) {
            Ok(_) => {}
            Err(RuntimeError::Timeout { .. } | RuntimeError::NodeDown(_)) => denied[bucket] += 1,
            Err(other) => panic!("op {i}: unexpected error {other}"),
        }
        latencies[bucket].push(started.elapsed().as_secs_f64() * 1e3);
        // pace the client slightly so the outage window spans real time and
        // the detector's constants, not the loop's speed, set the shape
        std::thread::sleep(Duration::from_millis(3));
    }

    let stats = cluster.stats();
    let trace = cluster.take_trace();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // the executable shape + invariant gates (see the doc comment)
    assert!(stats.declared_dead >= 1, "the SIGKILL was never detected");
    assert!(
        stats.reinstantiated >= 1,
        "the stranded object never re-homed"
    );
    let kill_bucket = (KILL_AT / BUCKET) as usize;
    assert!(
        denied[kill_bucket] > 0,
        "no denials in the kill bucket — the crash did not bite"
    );
    assert_eq!(
        denied[buckets - 1],
        0,
        "denials in the final bucket — recovery regressed"
    );
    let report = oml_check::check_trace(&trace);
    assert!(
        report.violations.is_empty(),
        "transport trace violations: {:?}",
        report.violations
    );

    let mut points = Vec::new();
    for b in 0..buckets {
        let (mean, p95) = mean_p95(&latencies[b]);
        let mut series = BTreeMap::new();
        series.insert(
            "multiprocess unix socket".to_owned(),
            latency_row(mean, BUCKET, denied[b] as f64 / BUCKET as f64, p95),
        );
        points.push(SweepPoint {
            x: (b as u64 * BUCKET) as f64,
            series,
        });
    }
    ExperimentResult {
        id: "availability-multiprocess".into(),
        title: format!(
            "multi-process availability across a SIGKILL/recover cycle \
             (3 worker processes over a unix socket, {OPS} ops, SIGKILL at \
             {KILL_AT}, respawn after declare-dead at ~{RESPAWN_AT}, call \
             timeout {CALL_TIMEOUT_MS} ms, durable coordinator store \
             fsync={fsync})"
        ),
        x_label: "operation index (bucket start)".into(),
        y_label: "mean client-visible call latency (ms)".into(),
        points,
    }
}

/// Durability extension — fraction of objects that survive correlated
/// failures as the checkpoint replication factor `k` grows, on the **real
/// runtime** with quorum-replicated checkpoints.
///
/// Each trial quorum-refreshes one object hosted *off* its replica set,
/// then crashes a failure pattern's worth of nodes in the same detector
/// sweep: the host alone, the host plus the object's home (the classic
/// single-checkpoint killer), or the host plus all but one member of the
/// replica set. `comm_time` carries the recovered fraction and
/// `denial_rate` the lost-update window — recoveries that came back with
/// the pre-quorum value because every quorum-acked copy died.
///
/// The table the paper's argument needs: `k = 1` loses every object to a
/// host+home double crash, while `k ≥ 2` recovers 100 % of them — and even
/// replica-set-minus-one keeps the object alive, merely risking staleness
/// once `k > 2` leaves survivors outside the write quorum.
///
/// # Panics
///
/// Panics if the runtime surfaces an error the schedule cannot produce.
#[must_use]
pub fn durability(opts: &RunOptions) -> ExperimentResult {
    use crate::check::{
        quorum_acked_counter, value_after_crashes, RECOVERY_HEARTBEAT_MS as HEARTBEAT_MS,
        RECOVERY_K_MISSED as K_MISSED,
    };
    use oml_runtime::Cluster;
    use std::time::Duration;

    const NODES: u32 = 4;
    const TRIALS: u64 = 3;

    #[derive(Clone, Copy)]
    enum Pattern {
        /// Crash only the current host; every checkpoint replica survives.
        SingleNode,
        /// Crash the host and the object's home in the same sweep — fatal
        /// for the classic single home-node checkpoint.
        HostAndHome,
        /// Crash the host and all but one member of the replica set.
        ReplicaSetMinusOne,
    }
    let patterns: [(&str, Pattern); 3] = [
        ("single-node", Pattern::SingleNode),
        ("host+home", Pattern::HostAndHome),
        ("replica-set-minus-one", Pattern::ReplicaSetMinusOne),
    ];
    let fsync = fsync_from_env();

    let mut points = Vec::new();
    for (ki, k) in [1usize, 2, 3].into_iter().enumerate() {
        let mut series = BTreeMap::new();
        for (pi, &(label, pattern)) in patterns.iter().enumerate() {
            let mut recovered = 0u64;
            let mut stale = 0u64;
            for trial in 0..TRIALS {
                let seed = opts
                    .seed
                    .wrapping_add(1 + ki as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(pi as u64 * 31 + trial);
                // every trial's replica checkpoints go through a real WAL
                // under the OML_FSYNC policy: a quorum ack now implies the
                // per-policy durability contract, not just an in-memory map
                let store_dir = std::env::temp_dir().join(format!(
                    "oml-durability-{}-{ki}-{pi}-{trial}",
                    std::process::id()
                ));
                let cluster = Cluster::builder()
                    .nodes(NODES)
                    .policy(PolicyKind::TransientPlacement)
                    .faults(oml_runtime::FaultPlan::seeded(seed))
                    .call_timeout(Duration::from_millis(100))
                    .invoke_retries(1)
                    .lease_ms(1_000)
                    .manual_clock()
                    .failure_detector(HEARTBEAT_MS, K_MISSED)
                    .replication(k)
                    .durable_store(&store_dir, fsync)
                    .build();
                cluster.register_type(COUNTER, delinearize_counter);

                let (obj, set, host) = quorum_acked_counter(&cluster);
                let mut victims = vec![host];
                match pattern {
                    Pattern::SingleNode => {}
                    Pattern::HostAndHome => victims.push(NodeId::new(0)),
                    Pattern::ReplicaSetMinusOne => victims.extend(&set[..k - 1]),
                }
                match value_after_crashes(&cluster, obj, &victims) {
                    Some(12) => recovered += 1,
                    Some(v) => {
                        assert_eq!(v, 7, "recovered an impossible value {v}");
                        recovered += 1;
                        stale += 1;
                    }
                    None => {}
                }
                cluster.shutdown();
                let _ = std::fs::remove_dir_all(&store_dir);
            }

            series.insert(
                label.to_owned(),
                latency_row(
                    recovered as f64 / TRIALS as f64,
                    TRIALS,
                    stale as f64 / TRIALS as f64,
                    0.0,
                ),
            );
        }
        points.push(SweepPoint {
            x: k as f64,
            series,
        });
    }
    ExperimentResult {
        id: "durability".into(),
        title: format!(
            "checkpoint durability under correlated failures (runtime, \
             {NODES} nodes, {TRIALS} trials per cell, detector hb={HEARTBEAT_MS}ms \
             k={K_MISSED}, WAL-backed checkpoint stores fsync={fsync})"
        ),
        x_label: "checkpoint replication factor k".into(),
        y_label: "recovered fraction after correlated failure".into(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunOptions {
        RunOptions {
            stopping: StoppingRule {
                relative_precision: 0.10,
                confidence: 0.90,
                min_batches: 4,
                max_samples: 8_000,
            },
            seed: 1,
            threads: 2,
        }
    }

    #[test]
    fn parallel_map_matches_sequential_and_balances() {
        let seq = parallel_map(20, 1, |i| i * i);
        let par = parallel_map(20, 4, |i| i * i);
        assert_eq!(seq, par);
        assert_eq!(par[7], 49);
        // empty and single-element cases
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn sweeps_are_thread_count_invariant() {
        let mut a = tiny();
        a.threads = 1;
        let mut b = tiny();
        b.threads = 4;
        let ra = fig8(&a);
        let rb = fig8(&b);
        for (pa, pb) in ra.points.iter().zip(&rb.points) {
            assert_eq!(pa.x, pb.x);
            for (label, ma) in &pa.series {
                let mb = &pb.series[label];
                assert_eq!(ma.comm_time, mb.comm_time, "{label} at {}", pa.x);
                assert_eq!(ma.calls, mb.calls);
            }
        }
    }

    #[test]
    fn fig4_is_instant_and_ordered() {
        let r = fig4_cost();
        assert_eq!(r.points.len(), 9);
        for p in &r.points {
            let conv = p.series["conventional move (worst case)"].comm_time;
            let place = p.series["transient placement"].comm_time;
            assert!(place < conv);
            assert!((conv - place - 7.0).abs() < 1e-9); // M + C = 7
        }
    }

    #[test]
    fn fig8_smoke_produces_all_series() {
        let mut opts = tiny();
        opts.stopping.max_samples = 4_000;
        let r = fig8(&opts);
        assert_eq!(r.points.len(), 12);
        assert_eq!(r.labels().len(), 3);
        for p in &r.points {
            for m in p.series.values() {
                assert!(m.calls > 0);
            }
        }
    }

    #[test]
    fn fig12_smoke_break_even_ordering() {
        // even at smoke precision, migration must exceed placement at the
        // high-contention end
        let opts = tiny();
        let r = fig12(&opts);
        let last = r.points.last().unwrap();
        let mig = last.series["migration"].comm_time;
        let place = last.series["transient placement"].comm_time;
        assert!(
            mig > place,
            "migration ({mig}) should degrade past placement ({place}) at 25 clients"
        );
    }

    #[test]
    fn egoism_shows_the_hazard_and_the_remedy() {
        let opts = tiny();
        let r = egoism(&opts);
        assert_eq!(r.points.len(), 3);
        let egoist_mig = r.points[0].series["migration"].comm_time;
        let polite_mig = r.points[1].series["migration"].comm_time;
        // the egoist tilts the system in its own favour (§2.4)
        assert!(
            egoist_mig < polite_mig,
            "egoist {egoist_mig} vs polite {polite_mig}"
        );
        // transient placement lowers the polite clients' cost
        let polite_plc = r.points[1].series["transient placement"].comm_time;
        assert!(
            polite_plc < polite_mig,
            "placement {polite_plc} vs migration {polite_mig} for the polite client"
        );
    }

    #[test]
    fn visit_blocks_cost_roughly_one_extra_migration_per_block() {
        let opts = tiny();
        let r = visit_ablation(&opts);
        // at low contention the visit premium approaches M/N = 6/8 per call
        let last = r.points.last().unwrap();
        let mv = last.series["placement, move blocks"].comm_time;
        let vs = last.series["placement, visit blocks"].comm_time;
        let premium = vs - mv;
        assert!(
            (0.2..1.4).contains(&premium),
            "visit premium {premium} should be near M/N = 0.75"
        );
    }

    #[test]
    fn faults_degrade_everyone_but_keep_placement_ahead() {
        let opts = tiny();
        let r = faults(&opts);
        assert_eq!(r.points.len(), 5);
        let first = r.points.first().unwrap();
        let last = r.points.last().unwrap();
        for label in ["without migration", "migration", "transient placement"] {
            assert!(
                last.series[label].comm_time > first.series[label].comm_time,
                "{label} should cost more at 20 % loss than at 0 %"
            );
        }
        for p in &r.points {
            let mig = p.series["migration"].comm_time;
            let place = p.series["transient placement"].comm_time;
            assert!(
                place < mig,
                "placement ({place}) should stay below migration ({mig}) at loss {}",
                p.x
            );
        }
    }

    #[test]
    fn run_options_presets() {
        assert!(RunOptions::paper().stopping.relative_precision <= 0.01);
        assert!(
            RunOptions::quick().stopping.max_samples < RunOptions::paper().stopping.max_samples
        );
    }

    #[test]
    fn availability_detector_beats_the_baseline_through_a_crash() {
        let opts = tiny();
        let r = availability(&opts);
        assert_eq!(r.points.len(), 3);
        assert_eq!(r.labels().len(), 4);
        // at zero loss the contrast is starkest: without a detector every
        // call aimed at the dead node burns the timeout; the detector
        // reinstantiates the stranded object and serves or fails fast
        let base = &r.points[0].series["no detector"];
        let detected = &r.points[0].series["detector hb=25ms k=3"];
        assert!(
            detected.comm_time < base.comm_time,
            "detector mean {} must undercut baseline mean {}",
            detected.comm_time,
            base.comm_time
        );
        assert!(
            base.denial_rate > 0.0,
            "the dead-node window must deny some baseline calls"
        );
    }

    #[test]
    fn durability_table_separates_k1_from_replicated_checkpoints() {
        let r = durability(&tiny());
        assert_eq!(r.points.len(), 3, "k = 1, 2, 3");
        assert_eq!(r.labels().len(), 3, "three failure patterns");
        let cell = |k: usize, label: &str| &r.points[k - 1].series[label];
        // the paper's single home-node checkpoint dies with its home…
        assert!(
            (cell(1, "host+home").comm_time - 0.0).abs() < f64::EPSILON,
            "k=1 must lose every object to a host+home double crash"
        );
        // …while any replication survives every pattern, every trial
        for k in [2usize, 3] {
            for label in ["single-node", "host+home", "replica-set-minus-one"] {
                assert!(
                    (cell(k, label).comm_time - 1.0).abs() < f64::EPSILON,
                    "k={k} {label} must recover 100%, got {}",
                    cell(k, label).comm_time
                );
            }
        }
        // with k=2 the write quorum is both replicas, so no recovery can
        // ever be stale; k=3 minus-one may promote a pre-quorum copy
        assert!((cell(2, "host+home").denial_rate - 0.0).abs() < f64::EPSILON);
    }
}
