//! Property-based tests over topologies and latency models.

use oml_core::ids::NodeId;
use oml_des::SimRng;
use oml_net::{LatencyModel, Network, Topology};
use proptest::prelude::*;

fn any_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (3u32..12).prop_map(|n| Topology::FullMesh { nodes: n }),
        (3u32..12).prop_map(|n| Topology::Star { nodes: n }),
        (3u32..12).prop_map(|n| Topology::Ring { nodes: n }),
        (3u32..12).prop_map(|n| Topology::Line { nodes: n }),
    ]
}

proptest! {
    /// Hops are a metric-like function: zero iff equal, symmetric, and
    /// satisfy the triangle inequality.
    #[test]
    fn hops_behave_like_a_metric(topo in any_topology()) {
        for a in topo.nodes() {
            for b in topo.nodes() {
                let h = topo.hops(a, b);
                prop_assert_eq!(h == 0, a == b);
                prop_assert_eq!(h, topo.hops(b, a));
                for c in topo.nodes() {
                    prop_assert!(
                        topo.hops(a, c) <= h + topo.hops(b, c),
                        "triangle inequality violated"
                    );
                }
            }
        }
    }

    /// Message delays are non-negative, zero for self-messages, and
    /// deterministic per seed.
    #[test]
    fn message_delays_are_sane(
        topo in any_topology(),
        seed in any::<u64>(),
    ) {
        let net = Network::new(topo, LatencyModel::Exponential { mean: 1.0 });
        let mut r1 = SimRng::seed_from(seed);
        let mut r2 = SimRng::seed_from(seed);
        for a in 0..net.len() {
            for b in 0..net.len() {
                let d1 = net.message_delay(NodeId::new(a), NodeId::new(b), &mut r1);
                let d2 = net.message_delay(NodeId::new(a), NodeId::new(b), &mut r2);
                prop_assert!(d1 >= 0.0);
                prop_assert_eq!(d1, d2);
                if a == b {
                    prop_assert_eq!(d1, 0.0);
                }
            }
        }
    }

    /// Every latency model's sample mean converges on its declared mean.
    #[test]
    fn latency_means_are_truthful(seed in any::<u64>(), which in 0u8..3) {
        let model = match which {
            0 => LatencyModel::Exponential { mean: 2.0 },
            1 => LatencyModel::Deterministic { value: 2.0 },
            _ => LatencyModel::ShiftedExponential { offset: 1.0, mean: 1.0 },
        };
        let mut rng = SimRng::seed_from(seed);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| model.sample(&mut rng)).sum();
        let sample_mean = sum / f64::from(n);
        prop_assert!(
            (sample_mean - model.mean()).abs() < 0.15,
            "{model:?}: {sample_mean} vs {}",
            model.mean()
        );
    }
}
